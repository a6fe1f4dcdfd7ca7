//! Before/after performance record of the inference hot path.
//!
//! Measures the conductance-cached, zero-allocation read/inference path
//! ("after") against the uncached dense reference path that re-evaluates the
//! FeFET I-V model per cell ("before" — the pre-cache implementation), and
//! writes the results to a JSON record so the repository's perf trajectory
//! accumulates over time.
//!
//! Usage:
//!
//! ```console
//! cargo run --release -p febim-bench --bin perf [-- --quick] [--out PATH]
//! ```
//!
//! `--quick` shortens the measurement window (used by the CI bench-smoke
//! step); `--out` overrides the output path (default `BENCH_inference.json`
//! in the current directory).

use std::hint::black_box;
use std::time::Duration;

use serde::Serialize;

use febim_bench::{eng, measure_min_ns as measure, staggered_fig6_grid, Header, Record};
use febim_core::{EngineConfig, FebimEngine};
use febim_crossbar::Activation;
use febim_data::rng::seeded_rng;
use febim_data::split::stratified_split;
use febim_data::synthetic::iris_like;

/// One measured workload: nanoseconds per iteration before and after.
#[derive(Debug, Serialize)]
struct Workload {
    name: &'static str,
    before_ns: f64,
    after_ns: f64,
    speedup: f64,
}

impl Workload {
    fn new(name: &'static str, before_ns: f64, after_ns: f64) -> Self {
        Self {
            name,
            before_ns,
            after_ns,
            speedup: before_ns / after_ns,
        }
    }
}

/// The persisted perf record (serialized to JSON by the `serde` shim).
#[derive(Debug, Serialize)]
struct PerfRecord {
    header: Header,
    workloads: Vec<Workload>,
}

fn main() {
    let record = Record::parse("inference");
    let target = Duration::from_millis(record.pick(40, 400));

    println!(
        "perf: measuring cached sparse read path vs. uncached dense reference ({} mode)\n",
        record.mode()
    );

    // Iris-like workload: the paper's 3×64 crossbar.
    let dataset = iris_like(42).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(42)).expect("split");
    let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default()).expect("engine");
    let sample = split.test.sample(0).expect("sample").to_vec();
    let mut scratch = engine.make_scratch();

    // The "before" path replicates the pre-cache implementation: allocate the
    // evidence vector and activation per sample, run the dense per-cell
    // device-model read, then the allocating sensing chain.
    let infer_reference = |sample: &[f64]| -> usize {
        let evidence = engine.quantized().discretize_sample(sample).expect("bins");
        let activation =
            Activation::from_observation(engine.array().layout(), &evidence).expect("activation");
        let currents = engine
            .array()
            .wordline_currents_reference(&activation)
            .expect("read");
        engine
            .sensing()
            .sense(&currents, activation.len())
            .expect("sense")
            .winner
    };

    // Sanity: both paths agree before we time them.
    assert_eq!(
        infer_reference(&sample),
        engine
            .infer_into(&sample, &mut scratch)
            .expect("infer")
            .prediction
    );

    let single = Workload::new(
        "inference_single_sample/in_memory_engine",
        measure(
            || {
                black_box(infer_reference(black_box(&sample)));
            },
            target,
        ),
        measure(
            || {
                black_box(
                    engine
                        .infer_into(black_box(&sample), &mut scratch)
                        .expect("infer"),
                );
            },
            target,
        ),
    );

    let full_set = Workload::new(
        "inference_full_test_set/in_memory_engine",
        measure(
            || {
                let mut correct = 0usize;
                for (sample, label) in split.test.iter() {
                    if infer_reference(sample) == label {
                        correct += 1;
                    }
                }
                black_box(correct);
            },
            target,
        ),
        measure(
            || {
                black_box(engine.evaluate(black_box(&split.test)).expect("evaluate"));
            },
            target,
        ),
    );

    // Fig. 6-scale layout: 64×512 reads, sparse observation and all-columns.
    let array = staggered_fig6_grid(None);
    let evidence: Vec<usize> = (0..32).map(|node| node % 16).collect();
    let sparse = Activation::from_observation(array.layout(), &evidence).expect("activation");
    let all = Activation::all_columns(array.layout());
    let mut currents = array.wordline_currents(&sparse).expect("warm-up");
    assert_eq!(
        array.wordline_currents(&all).expect("cached"),
        array.wordline_currents_reference(&all).expect("reference")
    );

    let fig6_sparse = Workload::new(
        "fig6_read_64x512/sparse_observation",
        measure(
            || {
                black_box(
                    array
                        .wordline_currents_reference(black_box(&sparse))
                        .expect("read"),
                );
            },
            target,
        ),
        measure(
            || {
                array
                    .wordline_currents_into(black_box(&sparse), &mut currents)
                    .expect("read");
                black_box(&currents);
            },
            target,
        ),
    );

    let fig6_all = Workload::new(
        "fig6_read_64x512/all_columns",
        measure(
            || {
                black_box(
                    array
                        .wordline_currents_reference(black_box(&all))
                        .expect("read"),
                );
            },
            target,
        ),
        measure(
            || {
                array
                    .wordline_currents_into(black_box(&all), &mut currents)
                    .expect("read");
                black_box(&currents);
            },
            target,
        ),
    );

    let workloads = vec![single, full_set, fig6_sparse, fig6_all];
    for workload in &workloads {
        println!(
            "{:<45} before {:>12}  after {:>12}  speedup {:>8.1}x",
            workload.name,
            eng(workload.before_ns * 1e-9, "s"),
            eng(workload.after_ns * 1e-9, "s"),
            workload.speedup,
        );
    }

    record.write(&PerfRecord {
        header: record.header(),
        workloads,
    });
}
