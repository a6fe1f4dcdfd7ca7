//! Serving-pool benchmark: concurrent batched serving vs sequential
//! single-sample inference, swept over replicas × batch size × backend on
//! two workload scales.
//!
//! For every backend (software reference, monolithic crossbar, tiled
//! fabric) the bench measures the sequential single-sample baseline (one
//! engine, one scratch, one request at a time), then serves the same
//! request stream through a [`ServingPool`] at every (replicas, max_batch)
//! point of the sweep, verifying the served predictions are identical to
//! the sequential ones before trusting any timing.
//!
//! Two workloads tell the two halves of the story:
//!
//! * **iris** (3×64): single-sample inference costs ~100 ns, so the pool's
//!   per-request messaging dominates — the recorded sub-1 speedups are the
//!   honest overhead floor of request-per-message serving at toy scale;
//! * **fig6** (64 classes × 512 columns on a 2×4 tile grid): inference is
//!   microseconds, batching amortizes it across replicas, and batched
//!   serving out-serves the sequential baseline — the headline
//!   `best_tiled_batched_speedup` the record asserts to be ≥ 1 at
//!   batch ≥ 8.
//!
//! Everything — the sweep table, the per-row modeled amortization ratios,
//! the per-row queue-wait and end-to-end latency percentiles and the
//! headline speedups — lands in `BENCH_serving.json`.
//!
//! Three regression gates run on every invocation (CI included, via
//! `--quick`):
//!
//! * **grouped-read gate**: `best_tiled_batched_speedup ≥ 1`;
//! * **overhead gate**: the pool must serve within 2x of raw sequential
//!   `infer_into` at batch ≥ 8 on at least one backend
//!   (`best_pool_overhead_ratio ≤ 2`);
//! * **budget gate**: the best iris-scale pool ns/request at batch ≥ 8 —
//!   the pool's per-request overhead floor, where messaging dominates the
//!   ~100 ns inference — must stay at or under the checked-in
//!   `pool_ns_per_request_budget` of `SERVING_BUDGET.json`.
//!
//! Each gate re-measures its decisive configuration with fresh passes
//! before failing, so one noisy sweep on a loaded host doesn't flake CI.
//!
//! Usage:
//!
//! ```console
//! cargo run --release -p febim-bench --bin serving \
//!     [-- --quick] [--out PATH] [--budget PATH]
//! ```
//!
//! `--quick` shortens the request stream (used by the CI bench-smoke step);
//! `--out` overrides the output path (default `BENCH_serving.json`);
//! `--budget` overrides the budget file path (default
//! `SERVING_BUDGET.json`).

use std::time::Instant;

use serde::Serialize;

use febim_bench::{request_stream, Gate, Header, Record};
use febim_core::{
    EngineConfig, FebimEngine, InferenceBackend, PoolStats, ServingConfig, ServingPool,
    TiledFabricBackend,
};
use febim_crossbar::TileShape;
use febim_data::rng::seeded_rng;
use febim_data::split::stratified_split;
use febim_data::synthetic::iris_like;

/// The persisted record tracking the serving-throughput trajectory.
#[derive(Debug, Serialize)]
struct ServingRecord {
    header: Header,
    requests: usize,
    replicas_swept: Vec<usize>,
    batches_swept: Vec<usize>,
    /// One row per measured (backend, replicas, batch) configuration,
    /// re-measures included.
    rows: Vec<Row>,
    /// Best tiled-fabric grouped-read speedup over sequential inference
    /// among the batch ≥ 8 rows — the acceptance headline: ≥ 1 means
    /// batched serving out-serves sequential single-sample inference.
    best_tiled_batched_speedup: f64,
    /// Smallest `serving_ns / sequential_ns` ratio among all batch ≥ 8 rows
    /// — the overhead-gate headline: ≤ 2 means the pool serves within 2x of
    /// raw sequential `infer_into` on at least one backend.
    best_pool_overhead_ratio: f64,
    /// Best iris-scale pool ns/request at batch ≥ 8 — the pool's measured
    /// per-request overhead floor, gated against the checked-in budget.
    iris_pool_floor_ns_per_request: f64,
    /// The `pool_ns_per_request_budget` the floor was gated against.
    pool_ns_per_request_budget: f64,
}

/// Measured telemetry of one (backend, replicas, batch) configuration.
#[derive(Debug, Serialize)]
struct Row {
    /// `workload/backend-name`, e.g. `fig6/tiled-fabric`.
    backend: String,
    /// Engine replicas (pool workers).
    replicas: usize,
    /// Batch-coalescing limit of the run.
    max_batch: usize,
    requests: u64,
    batches: u64,
    mean_batch_size: f64,
    /// ns/request of one engine answering one request at a time.
    sequential_ns_per_request: f64,
    /// ns/request of one engine answering `max_batch`-sized groups through
    /// `infer_batch_into` — the service rate inside a pool worker.
    batched_ns_per_request: f64,
    /// ns/request through the pool (replicas, queue and coalescing
    /// included).
    serving_ns_per_request: f64,
    /// `sequential / batched` (> 1: grouped reads out-serve sequential
    /// inference).
    batched_speedup: f64,
    /// `sequential / serving` (> 1: the whole pool out-serves sequential
    /// inference; needs the cores to scale across).
    throughput_speedup: f64,
    /// Modeled amortized-over-sequential delay ratio of the grouped reads.
    amortized_delay_ratio: f64,
    /// Modeled amortized-over-sequential energy ratio of the grouped reads.
    amortized_energy_ratio: f64,
    queue_wait_p50_ns: u64,
    queue_wait_p95_ns: u64,
    queue_wait_p99_ns: u64,
    e2e_p50_ns: u64,
    e2e_p95_ns: u64,
    e2e_p99_ns: u64,
    scrubs: u64,
    faults_detected: u64,
    faults_repaired: u64,
    health_transitions: u64,
    failovers: u64,
    fallback_served: u64,
    quarantined_workers: u64,
}

impl Row {
    fn new(
        backend: String,
        replicas: usize,
        max_batch: usize,
        stats: &PoolStats,
        sequential_ns: f64,
        batched_ns: f64,
        serving_ns: f64,
    ) -> Self {
        Self {
            backend,
            replicas,
            max_batch,
            requests: stats.requests,
            batches: stats.batches,
            mean_batch_size: stats.mean_batch_size,
            sequential_ns_per_request: sequential_ns,
            batched_ns_per_request: batched_ns,
            serving_ns_per_request: serving_ns,
            batched_speedup: sequential_ns / batched_ns,
            throughput_speedup: sequential_ns / serving_ns,
            amortized_delay_ratio: stats.delay_ratio(),
            amortized_energy_ratio: stats.energy_ratio(),
            queue_wait_p50_ns: stats.queue_wait.p50_ns(),
            queue_wait_p95_ns: stats.queue_wait.p95_ns(),
            queue_wait_p99_ns: stats.queue_wait.p99_ns(),
            e2e_p50_ns: stats.end_to_end.p50_ns(),
            e2e_p95_ns: stats.end_to_end.p95_ns(),
            e2e_p99_ns: stats.end_to_end.p99_ns(),
            scrubs: stats.scrubs,
            faults_detected: stats.faults_detected,
            faults_repaired: stats.faults_repaired,
            health_transitions: stats.health_transitions,
            failovers: stats.failovers,
            fallback_served: stats.fallback_served,
            quarantined_workers: stats.quarantined_workers,
        }
    }
}

/// The `metric` of every row whose backend label starts with `prefix` at a
/// batch limit of 8 or more — the rows every gate judges.
fn at_batch_8<'a>(
    rows: &'a [Row],
    prefix: &'a str,
    metric: fn(&Row) -> f64,
) -> impl Iterator<Item = f64> + 'a {
    rows.iter()
        .filter(move |row| row.backend.starts_with(prefix) && row.max_batch >= 8)
        .map(metric)
}

/// Sequential baseline: ns/request of one engine answering one request at a
/// time through one reused scratch (best of `passes` passes).
fn measure_sequential<B: InferenceBackend>(
    engine: &FebimEngine<B>,
    samples: &[Vec<f64>],
    passes: usize,
) -> (f64, Vec<usize>) {
    let mut scratch = engine.make_scratch();
    let mut predictions = Vec::with_capacity(samples.len());
    let mut best_ns = f64::INFINITY;
    for _ in 0..passes {
        predictions.clear();
        let start = Instant::now();
        for sample in samples {
            let step = engine.infer_into(sample, &mut scratch).expect("infer");
            predictions.push(step.prediction);
        }
        best_ns = best_ns.min(start.elapsed().as_nanos() as f64 / samples.len() as f64);
    }
    (best_ns, predictions)
}

/// Grouped-read path: ns/request of one engine answering the stream in
/// `max_batch`-sized groups through `infer_batch_into` — the service rate a
/// pool worker achieves inside a batch (best of `passes` passes, predictions
/// verified against the sequential baseline).
fn measure_batched<B: InferenceBackend>(
    engine: &FebimEngine<B>,
    samples: &[Vec<f64>],
    max_batch: usize,
    expected: &[usize],
    passes: usize,
) -> f64 {
    let mut scratch = engine.make_scratch();
    let mut steps = Vec::with_capacity(max_batch);
    let mut best_ns = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        for chunk in samples.chunks(max_batch) {
            engine
                .infer_batch_into(chunk, &mut scratch, &mut steps)
                .expect("batched inference");
        }
        best_ns = best_ns.min(start.elapsed().as_nanos() as f64 / samples.len() as f64);
    }
    // Bit-identity spot check on the last pass's final chunk plus a full
    // verification pass.
    let mut offset = 0;
    for chunk in samples.chunks(max_batch) {
        engine
            .infer_batch_into(chunk, &mut scratch, &mut steps)
            .expect("batched inference");
        for (step, &prediction) in steps.iter().zip(&expected[offset..]) {
            assert_eq!(
                step.prediction, prediction,
                "batched prediction diverged from sequential inference"
            );
        }
        offset += chunk.len();
    }
    best_ns
}

/// One pool run: ns/request of serving the whole stream, plus the completed
/// pool statistics (best of `passes` fresh pools).
fn measure_pool<B: InferenceBackend + Clone + Send + 'static>(
    engine: &FebimEngine<B>,
    replicas: usize,
    config: ServingConfig,
    samples: &[Vec<f64>],
    expected: &[usize],
    passes: usize,
) -> (f64, PoolStats) {
    let mut best_ns = f64::INFINITY;
    let mut best_stats = None;
    for _ in 0..passes {
        let pool = ServingPool::replicate(engine, replicas, config).expect("pool");
        let start = Instant::now();
        let answers = pool.serve(samples);
        let elapsed_ns = start.elapsed().as_nanos() as f64 / samples.len() as f64;
        for (answer, &prediction) in answers.iter().zip(expected) {
            assert_eq!(
                answer.as_ref().expect("served answer").prediction,
                prediction,
                "served prediction diverged from sequential inference"
            );
        }
        let stats = pool.shutdown();
        assert_eq!(stats.requests, samples.len() as u64);
        if elapsed_ns < best_ns {
            best_ns = elapsed_ns;
            best_stats = Some(stats);
        }
    }
    (best_ns, best_stats.expect("at least one pass"))
}

/// One sweep grid: every (replicas, max_batch) point, each timed as the
/// best of `passes` passes.
struct Sweep<'a> {
    replicas: &'a [usize],
    batches: &'a [usize],
    passes: usize,
}

impl Sweep<'_> {
    /// Sweeps one backend of `workload` across the grid, labelling its rows
    /// `workload/backend-name`.
    fn run<B: InferenceBackend + Clone + Send + 'static>(
        &self,
        workload: &str,
        engine: &FebimEngine<B>,
        samples: &[Vec<f64>],
    ) -> Vec<Row> {
        let name = format!("{workload}/{}", engine.backend_info().name);
        let (sequential_ns, expected) = measure_sequential(engine, samples, self.passes);
        let mut rows = Vec::new();
        for &max_batch in self.batches {
            let batched_ns = measure_batched(engine, samples, max_batch, &expected, self.passes);
            for &replicas in self.replicas {
                let config = ServingConfig::febim_default()
                    .with_max_batch(max_batch)
                    .with_queue_depth((replicas * max_batch * 4).max(64));
                let (serving_ns, stats) =
                    measure_pool(engine, replicas, config, samples, &expected, self.passes);
                let row = Row::new(
                    name.clone(),
                    replicas,
                    max_batch,
                    &stats,
                    sequential_ns,
                    batched_ns,
                    serving_ns,
                );
                println!(
                    "{:<28} replicas {:>2}  batch {:>3}  mean batch {:>6.2}  sequential {:>8.1} ns  batched {:>8.1} ns ({:>5.2}x)  pool {:>8.1} ns ({:>5.2}x)  wait p50/p99 {:>6}/{:>6} ns  e2e p50/p99 {:>6}/{:>6} ns  delay x{:.3}  energy x{:.3}",
                    row.backend,
                    row.replicas,
                    row.max_batch,
                    row.mean_batch_size,
                    row.sequential_ns_per_request,
                    row.batched_ns_per_request,
                    row.batched_speedup,
                    row.serving_ns_per_request,
                    row.throughput_speedup,
                    row.queue_wait_p50_ns,
                    row.queue_wait_p99_ns,
                    row.e2e_p50_ns,
                    row.e2e_p99_ns,
                    row.amortized_delay_ratio,
                    row.amortized_energy_ratio,
                );
                rows.push(row);
            }
        }
        rows
    }
}

fn main() {
    let record = Record::gated("serving", "SERVING_BUDGET.json");
    let requests = record.pick(1_500, 12_000);
    let passes = record.pick(2, 3);

    println!(
        "serving: sweeping replicas x batch x backend over {requests} requests ({} mode)\n",
        record.mode()
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut replicas_swept = vec![1, 2, cores.clamp(2, 4)];
    replicas_swept.dedup();
    let batches_swept = vec![1, 8, 32];
    let sweep = Sweep {
        replicas: &replicas_swept,
        batches: &batches_swept,
        passes,
    };
    let config = EngineConfig::febim_default();

    // Workload 1 — iris scale (3×64 on a 2×3 grid of 2×24 tiles): inference
    // is ~100 ns, so these rows record the pool's per-request overhead
    // floor. The budget gate re-measures the software engine if the first
    // sweep lands over budget.
    let dataset = iris_like(42).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(42)).expect("split");
    let iris_samples = request_stream(&split.test, requests);
    let iris_software = FebimEngine::fit_software(&split.train, config.clone()).expect("software");
    let crossbar = FebimEngine::fit(&split.train, config.clone()).expect("crossbar");
    let tiled = FebimEngine::<TiledFabricBackend>::fit_tiled(
        &split.train,
        config.clone(),
        TileShape::new(2, 24).expect("tile shape"),
    )
    .expect("tiled fabric");
    assert!(tiled.tiled_program().plan().is_multi_tile());
    let mut rows = sweep.run("iris", &iris_software, &iris_samples);
    rows.extend(sweep.run("iris", &crossbar, &iris_samples));
    rows.extend(sweep.run("iris", &tiled, &iris_samples));

    // Workload 2 — fig6 scale (64 classes × 32 features → a 64×512 layout
    // on a 2×4 grid of 32×128 tiles): inference costs microseconds, the
    // regime a serving pool exists for.
    let dataset = febim_data::synthetic::gaussian_blobs(64, 32, 12, 3.0, &mut seeded_rng(4242))
        .expect("blob dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(4242)).expect("split");
    let fig6_samples = request_stream(&split.test, requests);
    let fig6_software = FebimEngine::fit_software(&split.train, config.clone()).expect("software");
    let crossbar = FebimEngine::fit(&split.train, config.clone()).expect("crossbar");
    let fig6_tiled = FebimEngine::<TiledFabricBackend>::fit_tiled(
        &split.train,
        config,
        TileShape::new(32, 128).expect("tile shape"),
    )
    .expect("tiled fabric");
    let plan = fig6_tiled.tiled_program().plan();
    assert!(plan.row_tiles() >= 2 && plan.col_tiles() >= 2);
    rows.extend(sweep.run("fig6", &fig6_software, &fig6_samples));
    rows.extend(sweep.run("fig6", &crossbar, &fig6_samples));
    rows.extend(sweep.run("fig6", &fig6_tiled, &fig6_samples));

    // Every gate re-measures its decisive configuration with fresh passes
    // (recorded as additional honest rows) before it fails a noisy sweep.
    let remeasure = |replicas: &'static [usize], batch: &'static [usize]| Sweep {
        replicas,
        batches: batch,
        passes: passes + 1,
    };

    // Headline: the grouped-read path must out-serve sequential
    // single-sample inference at batch >= 8 on the tiled backend.
    let measured = at_batch_8(&rows, "fig6/tiled-fabric", |row| row.batched_speedup)
        .fold(f64::NEG_INFINITY, f64::max);
    let best_tiled_batched_speedup =
        Gate::at_least("fig6 tiled grouped-read speedup at batch >= 8", 1.0)
            .remeasure(|| {
                let fresh = remeasure(&[1], &[32]).run("fig6", &fig6_tiled, &fig6_samples);
                rows.extend(fresh);
                rows.last().expect("one fresh row").batched_speedup
            })
            .check(measured);
    let best_tiled_pool_speedup =
        at_batch_8(&rows, "fig6/tiled-fabric", |row| row.throughput_speedup)
            .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "headline: tiled fabric at batch >= 8 — grouped-read speedup {best_tiled_batched_speedup:.2}x, \
         pool speedup {best_tiled_pool_speedup:.2}x over sequential single-sample inference\n"
    );

    // Overhead gate: the pool's full request path (rings, stealing, batched
    // ticket completion) must land within 2x of raw sequential `infer_into`
    // at batch >= 8 on at least one backend. The re-measure takes the
    // strongest configuration: fig6 software, where inference is expensive
    // enough for coalescing to pay.
    let overhead = |row: &Row| row.serving_ns_per_request / row.sequential_ns_per_request;
    let measured = at_batch_8(&rows, "", overhead).fold(f64::INFINITY, f64::min);
    let best_ratio = Gate::at_most("pool/sequential ns ratio at batch >= 8", 2.0)
        .remeasure(|| {
            let fresh = remeasure(&[1], &[8]).run("fig6", &fig6_software, &fig6_samples);
            rows.extend(fresh);
            overhead(rows.last().expect("one fresh row"))
        })
        .check(measured);

    // Budget gate: the iris-scale pool floor — where messaging, not
    // inference, is the cost — must hold the checked-in ns/request budget.
    let budget = record.budget("pool_ns_per_request_budget");
    let serving_ns = |row: &Row| row.serving_ns_per_request;
    let measured = at_batch_8(&rows, "iris/", serving_ns).fold(f64::INFINITY, f64::min);
    let floor_ns = Gate::at_most("iris pool floor ns/request at batch >= 8", budget)
        .remeasure(|| {
            let fresh = remeasure(&[1, 2], &[32]).run("iris", &iris_software, &iris_samples);
            let floor = at_batch_8(&fresh, "", serving_ns).fold(f64::INFINITY, f64::min);
            rows.extend(fresh);
            floor
        })
        .check(measured);

    record.write(&ServingRecord {
        header: record.header(),
        requests,
        replicas_swept,
        batches_swept,
        rows,
        best_tiled_batched_speedup,
        best_pool_overhead_ratio: best_ratio,
        iris_pool_floor_ns_per_request: floor_ns,
        pool_ns_per_request_budget: budget,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_aggregate_pool_stats() {
        let dataset = iris_like(88).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(88)).unwrap();
        let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default()).unwrap();
        let pool = ServingPool::replicate(&engine, 2, ServingConfig::febim_default()).unwrap();
        let samples = request_stream(&split.test, split.test.n_samples());
        let answers = pool.serve(&samples);
        assert!(answers.iter().all(Result::is_ok));
        let stats = pool.shutdown();
        let row = Row::new(
            "iris/crossbar-single-array".to_string(),
            2,
            8,
            &stats,
            2000.0,
            1000.0,
            500.0,
        );
        assert_eq!(row.requests, samples.len() as u64);
        assert!((row.throughput_speedup - 4.0).abs() < 1e-12);
        assert!((row.batched_speedup - 2.0).abs() < 1e-12);
        assert!(row.amortized_delay_ratio <= 1.0);
        assert!(row.amortized_energy_ratio <= 1.0);
        // The latency percentiles come straight from the pool's histograms:
        // ordered, and the end-to-end tail dominates the queue-wait tail
        // because completion happens after dispatch.
        assert!(row.queue_wait_p50_ns <= row.queue_wait_p95_ns);
        assert!(row.queue_wait_p95_ns <= row.queue_wait_p99_ns);
        assert!(row.e2e_p50_ns <= row.e2e_p95_ns);
        assert!(row.e2e_p95_ns <= row.e2e_p99_ns);
        assert!(row.e2e_p99_ns >= row.queue_wait_p99_ns);
        assert!(row.e2e_p50_ns > 0);
        let rows = [row];
        let best = |prefix| at_batch_8(&rows, prefix, |row| row.throughput_speedup).next();
        assert_eq!(best("iris/crossbar"), Some(4.0));
        assert_eq!(best("fig6/"), None);
    }
}
