//! Fabric-scale benchmark: tiled multi-array fabric vs. monolithic crossbar.
//!
//! Deploys the same compiled model on the paper's single array and on a
//! tiled `TileGrid` fabric, verifies the two decide every sample
//! identically (the fabric read path is bit-exact), measures tiled vs.
//! monolithic read/inference throughput at iris scale and at the Fig. 6
//! stress scale, times the epoch-parallel Monte-Carlo sweep running entirely
//! on the fabric backend, and writes everything — tile plan, per-workload
//! timings, modeled delay/energy ratios and evaluation reports — to a JSON
//! record via the `serde` JSON emitters (no hand-rolled formatting).
//!
//! Usage:
//!
//! ```console
//! cargo run --release -p febim-bench --bin fabric [-- --quick] [--out PATH]
//! ```
//!
//! `--quick` shortens the measurement window (used by the CI bench-smoke
//! step); `--out` overrides the output path (default `BENCH_fabric.json` in
//! the current directory).

use std::hint::black_box;
use std::time::{Duration, Instant};

use serde::Serialize;

use febim_bench::{eng, measure_pair_ns, staggered_fig6_grid, Header, Record};
use febim_core::{variation_sweep, EngineConfig, EvaluationReport, FebimEngine, MonteCarlo};
use febim_crossbar::{Activation, TilePlan, TileShape};
use febim_data::rng::seeded_rng;
use febim_data::split::stratified_split;
use febim_data::synthetic::iris_like;

/// One measured workload: nanoseconds per iteration on both deployments.
#[derive(Debug, Serialize)]
struct Workload {
    name: String,
    monolithic_ns: f64,
    tiled_ns: f64,
    /// `monolithic_ns / tiled_ns` (> 1 means the fabric is faster).
    tiled_speedup: f64,
}

impl Workload {
    /// A workload from its `(monolithic_ns, tiled_ns)` pair.
    fn new(name: &str, (monolithic_ns, tiled_ns): (f64, f64)) -> Self {
        Self {
            name: name.to_string(),
            monolithic_ns,
            tiled_ns,
            tiled_speedup: monolithic_ns / tiled_ns,
        }
    }
}

/// Wall time of one epoch-parallel Monte-Carlo variation sweep run entirely
/// on the fabric backend, serial vs. parallel (its own record section: both
/// timings are *tiled*, so they do not belong in the monolithic-vs-tiled
/// workload rows).
#[derive(Debug, Serialize)]
struct MonteCarloTiming {
    epochs: usize,
    threads: usize,
    serial_ns: f64,
    parallel_ns: f64,
    parallel_speedup: f64,
}

/// The persisted record: everything a later commit needs to track the
/// fabric's performance trajectory.
#[derive(Debug, Serialize)]
struct FabricRecord {
    header: Header,
    /// Tile placement of the iris-scale engine under test.
    plan: TilePlan,
    /// Fraction of the plan's provisioned cells the model occupies.
    utilization: f64,
    workloads: Vec<Workload>,
    monte_carlo: MonteCarloTiming,
    /// Tiled-over-monolithic mean modeled delay per inference: the tiles
    /// settle in parallel, but the fabric pays for every occupied bitline
    /// of its widest tile and for the partial-sum merge bus.
    delay_ratio: f64,
    /// Tiled-over-monolithic mean modeled energy per inference (> 1: every
    /// tile row re-drives its activated bitlines).
    energy_ratio: f64,
    monolithic_report: EvaluationReport,
    tiled_report: EvaluationReport,
}

fn main() {
    let record = Record::parse("fabric");
    let target = Duration::from_millis(record.pick(40, 400));

    println!(
        "fabric: measuring tiled multi-array fabric vs. monolithic crossbar ({} mode)\n",
        record.mode()
    );

    // Iris workload: the paper's 3×64 model on 2×24 tiles — a 2 (class
    // shards) × 3 (evidence shards) grid; the model exceeds the tile in both
    // dimensions.
    let dataset = iris_like(42).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(42)).expect("split");
    let config = EngineConfig::febim_default();
    let shape = TileShape::new(2, 24).expect("shape");
    let monolithic = FebimEngine::fit(&split.train, config.clone()).expect("engine");
    let tiled = FebimEngine::fit_tiled(&split.train, config.clone(), shape).expect("fabric");
    let plan = *tiled.tiled_program().plan();
    println!(
        "iris deployment: {}x{} grid of {}x{} tiles, utilization {:.1} %",
        plan.row_tiles(),
        plan.col_tiles(),
        plan.shape().rows,
        plan.shape().columns,
        plan.utilization() * 100.0
    );

    // Sanity: the fabric decides every sample exactly like the array.
    let monolithic_report = monolithic.evaluate(&split.test).expect("evaluate");
    let tiled_report = tiled.evaluate(&split.test).expect("evaluate");
    assert_eq!(
        monolithic_report.predictions, tiled_report.predictions,
        "tiled fabric must be bit-identical to the monolithic array"
    );

    let sample = split.test.sample(0).expect("sample").to_vec();
    let mut mono_scratch = monolithic.make_scratch();
    let mut tiled_scratch = tiled.make_scratch();
    let mut workloads = vec![Workload::new(
        "iris_inference_3x64/infer_into",
        measure_pair_ns(
            || {
                black_box(
                    monolithic
                        .infer_into(black_box(&sample), &mut mono_scratch)
                        .expect("infer"),
                );
            },
            || {
                black_box(
                    tiled
                        .infer_into(black_box(&sample), &mut tiled_scratch)
                        .expect("infer"),
                );
            },
            target,
        ),
    )];

    // Raw read path at both scales: merged fabric reads vs. array reads.
    let iris_layout = *monolithic.array().layout();
    let evidence: Vec<usize> = (0..4).map(|node| node % 16).collect();
    let iris_sparse = Activation::from_observation(&iris_layout, &evidence).expect("activation");
    let iris_all = Activation::all_columns(&iris_layout);
    // The Fig. 6-scale stress pair: the 64×512 model on one array and on a
    // 2×4 grid of 32×128 tiles (it exceeds the tile in both dimensions).
    let fig6_array = staggered_fig6_grid(None);
    let fig6_grid = staggered_fig6_grid(Some(TileShape::new(32, 128).expect("shape")));
    assert!(fig6_grid.plan().row_tiles() >= 2 && fig6_grid.plan().col_tiles() >= 2);
    let fig6_evidence: Vec<usize> = (0..32).map(|node| node % 16).collect();
    let fig6_sparse =
        Activation::from_observation(fig6_array.layout(), &fig6_evidence).expect("activation");
    let fig6_all = Activation::all_columns(fig6_array.layout());
    let (mut currents, mut grid_currents) = (Vec::new(), Vec::new());
    for (name, array, grid, activation) in [
        (
            "iris_read_3x64/sparse_observation",
            monolithic.array(),
            tiled.grid(),
            &iris_sparse,
        ),
        (
            "iris_read_3x64/all_columns",
            monolithic.array(),
            tiled.grid(),
            &iris_all,
        ),
        (
            "fig6_read_64x512_on_2x4_grid/sparse_observation",
            &fig6_array,
            &fig6_grid,
            &fig6_sparse,
        ),
        (
            "fig6_read_64x512_on_2x4_grid/all_columns",
            &fig6_array,
            &fig6_grid,
            &fig6_all,
        ),
    ] {
        assert_eq!(
            array.wordline_currents(activation).expect("array read"),
            grid.wordline_currents(activation).expect("grid read"),
            "merged fabric read diverged on {name}"
        );
        workloads.push(Workload::new(
            name,
            measure_pair_ns(
                || {
                    array
                        .wordline_currents_into(black_box(activation), &mut currents)
                        .expect("read");
                    black_box(&currents);
                },
                || {
                    grid.wordline_currents_into(black_box(activation), &mut grid_currents)
                        .expect("read");
                    black_box(&grid_currents);
                },
                target,
            ),
        ));
    }

    // Monte-Carlo on the fabric backend: epochs (each owning its own
    // multi-tile fabric) spread across the cores, serial run as baseline.
    let sweep = MonteCarlo::new(0.7, record.pick(2, 8), 7)
        .with_backend(|train, epoch_config| FebimEngine::fit_tiled(train, epoch_config, shape));
    let serial_start = Instant::now();
    let serial_sweep =
        variation_sweep(&dataset, &config, &[45.0], &sweep.with_threads(1)).expect("serial sweep");
    let serial_ns = serial_start.elapsed().as_nanos() as f64;
    let parallel_start = Instant::now();
    let parallel_sweep =
        variation_sweep(&dataset, &config, &[45.0], &sweep).expect("parallel sweep");
    let parallel_ns = parallel_start.elapsed().as_nanos() as f64;
    assert_eq!(
        serial_sweep, parallel_sweep,
        "parallel fabric Monte-Carlo must be byte-identical to serial"
    );
    let monte_carlo = MonteCarloTiming {
        epochs: sweep.epochs,
        threads: sweep.threads,
        serial_ns,
        parallel_ns,
        parallel_speedup: serial_ns / parallel_ns,
    };

    for workload in &workloads {
        println!(
            "{:<50} monolithic {:>12}  tiled {:>12}  speedup {:>7.2}x",
            workload.name,
            eng(workload.monolithic_ns * 1e-9, "s"),
            eng(workload.tiled_ns * 1e-9, "s"),
            workload.tiled_speedup,
        );
    }
    println!(
        "{:<50} serial     {:>12}  parallel ({} threads) {:>12}  speedup {:>5.2}x",
        "monte_carlo_fabric_sweep",
        eng(monte_carlo.serial_ns * 1e-9, "s"),
        monte_carlo.threads,
        eng(monte_carlo.parallel_ns * 1e-9, "s"),
        monte_carlo.parallel_speedup,
    );

    let delay_ratio = tiled_report.mean_delay / monolithic_report.mean_delay;
    let energy_ratio = tiled_report.mean_energy / monolithic_report.mean_energy;
    println!(
        "\ndeployment: delay ratio {delay_ratio:.3}, energy ratio {energy_ratio:.3}, \
         accuracy matches: {}",
        monolithic_report.accuracy == tiled_report.accuracy
    );

    record.write(&FabricRecord {
        header: record.header(),
        plan,
        utilization: plan.utilization(),
        workloads,
        monte_carlo,
        delay_ratio,
        energy_ratio,
        monolithic_report,
        tiled_report,
    });
}
