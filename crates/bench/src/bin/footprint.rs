//! Column-footprint benchmark: one-hot vs multi-bit bit-plane packing.
//!
//! The paper's one-hot layout spends one crossbar column per
//! `(feature, bin)` pair; the bit-plane encoding packs `bits / Q_l`
//! adjacent bins into one multi-bit cell and reconstructs the same integer
//! level sum with a shift-add merged read. This bench sweeps
//! encoding × cell width × model scale and answers three questions:
//!
//! 1. **How much smaller is the array?** Columns and programmed cells per
//!    engine, with the reduction factor against the one-hot baseline. The
//!    4-bit reduction at fig6 scale (64 classes × 32 features, the paper's
//!    largest array) is gated against the checked-in
//!    `min_column_reduction_fig6_4bit` of `FOOTPRINT_BUDGET.json`.
//! 2. **Does packing cost accuracy?** Test accuracy per encoding at
//!    σ_VTH = 0, gated to match one-hot within `max_accuracy_delta`
//!    (zero by default: the merged read is exact integer arithmetic).
//! 3. **What does the merged read cost?** Measured ns/inference of the
//!    packed read path at fig6 scale, gated against
//!    `packed_read_ns_per_inference_budget`, plus the sensing chain's
//!    modelled delay/energy per inference for every sweep point.
//!
//! Everything lands in `BENCH_footprint.json`.
//!
//! Usage:
//!
//! ```console
//! cargo run --release -p febim-bench --bin footprint \
//!     [-- --quick] [--out PATH] [--budget PATH]
//! ```
//!
//! `--quick` shortens the measurement (used by the CI bench-smoke step);
//! `--out` overrides the output path (default `BENCH_footprint.json`);
//! `--budget` overrides the budget file path (default
//! `FOOTPRINT_BUDGET.json`).

use serde::Serialize;

use febim_bench::{measure_reads, request_stream, Gate, Header, Record};
use febim_core::{EngineConfig, FebimEngine, InferenceBackend, Table};
use febim_data::rng::seeded_rng;
use febim_data::split::{stratified_split, TrainTestSplit};
use febim_data::synthetic::{gaussian_blobs, iris_like};
use febim_data::Dataset;
use febim_quant::Encoding;

/// One encoding × scale sweep point.
#[derive(Debug, Serialize)]
struct FootprintPoint {
    dataset: String,
    encoding: String,
    /// Bits of storage per cell (the one-hot baseline reports its native
    /// `Q_l`).
    bits: u32,
    rows: usize,
    columns: usize,
    cells: usize,
    /// Programmable states per cell.
    states: usize,
    /// Column footprint of the one-hot baseline divided by this point's
    /// (1.0 for the baseline itself).
    column_reduction: f64,
    /// Test accuracy at σ_VTH = 0.
    accuracy: f64,
    /// `accuracy - one_hot_accuracy` on the same split.
    accuracy_delta: f64,
    /// Measured wall-clock ns per inference (best of several passes).
    read_ns_per_inference: f64,
    /// Modelled sensing-chain delay per inference (seconds, averaged over
    /// the test split).
    modeled_delay_s: f64,
    /// Modelled sensing-chain energy per inference (joules, averaged over
    /// the test split).
    modeled_energy_j: f64,
    /// This point's modelled energy divided by the one-hot baseline's on
    /// the same split (1.0 for the baseline itself). Above 1 means the
    /// multi-level refinement reads of the packed encoding cost extra
    /// energy per inference; the smaller array must not cost more than the
    /// checked-in factor.
    energy_ratio: f64,
}

/// The persisted record tracking the footprint trajectory.
#[derive(Debug, Serialize)]
struct FootprintRecord {
    header: Header,
    /// Inferences timed per measurement pass.
    inferences: usize,
    /// The gated fig6-scale 4-bit column reduction and its budget.
    fig6_column_reduction_4bit: f64,
    min_column_reduction_fig6_4bit: f64,
    /// The gated fig6-scale 4-bit packed read throughput and its budget.
    fig6_packed_read_ns_4bit: f64,
    packed_read_ns_per_inference_budget: f64,
    /// The gated fig6-scale 4-bit packed-over-one-hot modelled energy
    /// ratio and its budget (deterministic circuit model, no slack
    /// needed).
    fig6_packed_energy_ratio_4bit: f64,
    max_packed_energy_ratio_fig6_4bit: f64,
    /// The accuracy-delta tolerance every packed point was gated against.
    max_accuracy_delta: f64,
    points: Vec<FootprintPoint>,
}

/// Modelled mean (delay, energy) per inference over the test split.
fn modeled_costs<B: InferenceBackend>(engine: &FebimEngine<B>, test: &Dataset) -> (f64, f64) {
    let mut scratch = engine.make_scratch();
    let mut delay = 0.0;
    let mut energy = 0.0;
    for index in 0..test.n_samples() {
        let step = engine
            .infer_into(test.sample(index).expect("sample"), &mut scratch)
            .expect("infer");
        delay += step.delay.total();
        energy += step.energy.total();
    }
    let n = test.n_samples() as f64;
    (delay / n, energy / n)
}

/// Fits an engine with `encoding` and measures one sweep point. The one-hot
/// baseline is passed back in as `(columns, accuracy)` to price reductions.
fn measure_point(
    dataset: &str,
    split: &TrainTestSplit,
    encoding: Encoding,
    baseline: Option<(usize, f64, f64)>,
    samples: &[Vec<f64>],
    passes: usize,
) -> FootprintPoint {
    let config = EngineConfig::febim_default().with_encoding(encoding);
    let likelihood_bits = config.quant.likelihood_bits;
    let engine = FebimEngine::fit(&split.train, config).expect("engine");
    let layout = *engine.program().layout();
    let accuracy = engine.evaluate(&split.test).expect("evaluate").accuracy;
    let (modeled_delay_s, modeled_energy_j) = modeled_costs(&engine, &split.test);
    let read_ns_per_inference = measure_reads(&engine, samples, passes);
    let (name, bits) = match encoding {
        Encoding::OneHot => ("one-hot".to_string(), likelihood_bits),
        Encoding::BitPlane { bits } => (format!("bit-plane/{bits}"), bits),
    };
    let (baseline_columns, baseline_accuracy, baseline_energy) =
        baseline.unwrap_or((layout.columns(), accuracy, modeled_energy_j));
    FootprintPoint {
        dataset: dataset.to_string(),
        encoding: name,
        bits,
        rows: layout.rows(),
        columns: layout.columns(),
        cells: layout.cells(),
        states: engine.program().state_count(),
        column_reduction: baseline_columns as f64 / layout.columns() as f64,
        accuracy,
        accuracy_delta: accuracy - baseline_accuracy,
        read_ns_per_inference,
        modeled_delay_s,
        modeled_energy_j,
        energy_ratio: modeled_energy_j / baseline_energy,
    }
}

fn main() {
    let record = Record::gated("footprint", "FOOTPRINT_BUDGET.json");
    let inferences = record.pick(2_000, 10_000);
    let passes = record.pick(3, 5);

    println!(
        "footprint: sweeping encoding x cell width x scale over {inferences} timed \
         inferences per point ({} mode)\n",
        record.mode()
    );

    // The two scales: the paper's iris case study and its largest array,
    // fig6 scale (64 classes x 32 features -> a 64x512 one-hot crossbar).
    let iris = iris_like(42).expect("iris");
    let fig6 = gaussian_blobs(64, 32, 12, 3.0, &mut seeded_rng(4242)).expect("blobs");
    let encodings = [
        Encoding::OneHot,
        Encoding::BitPlane { bits: 4 },
        Encoding::BitPlane { bits: 8 },
    ];

    let mut points = Vec::new();
    let mut fig6_reduction_4bit = 0.0;
    let mut fig6_packed_ns_4bit = f64::INFINITY;
    let mut fig6_energy_ratio_4bit = f64::INFINITY;
    for (label, dataset, seed) in [("iris", &iris, 42u64), ("fig6-64x512", &fig6, 4242)] {
        let split = stratified_split(dataset, 0.7, &mut seeded_rng(seed)).expect("split");
        let samples = request_stream(&split.test, inferences);
        let mut baseline = None;
        for encoding in encodings {
            let point = measure_point(label, &split, encoding, baseline, &samples, passes);
            println!(
                "{:<12} {:<12} {:>3}x{:<4} array ({:>6} cells) acc {:.4} ({:+.4}) \
                 read {:>8.1} ns ({:.2}x fewer columns, energy x{:.3})",
                point.dataset,
                point.encoding,
                point.rows,
                point.columns,
                point.cells,
                point.accuracy,
                point.accuracy_delta,
                point.read_ns_per_inference,
                point.column_reduction,
                point.energy_ratio,
            );
            if baseline.is_none() {
                baseline = Some((point.columns, point.accuracy, point.modeled_energy_j));
            }
            if label.starts_with("fig6") && encoding == (Encoding::BitPlane { bits: 4 }) {
                fig6_reduction_4bit = point.column_reduction;
                fig6_packed_ns_4bit = point.read_ns_per_inference;
                fig6_energy_ratio_4bit = point.energy_ratio;
            }
            points.push(point);
        }
    }

    let mut table = Table::new(
        "footprint",
        &[
            "dataset",
            "encoding",
            "columns",
            "cells",
            "reduction",
            "accuracy",
            "read_ns",
            "energy_x",
        ],
    );
    for point in &points {
        table.push_row(&[
            point.dataset.clone(),
            point.encoding.clone(),
            point.columns.to_string(),
            point.cells.to_string(),
            format!("{:.2}x", point.column_reduction),
            format!("{:.4}", point.accuracy),
            format!("{:.1}", point.read_ns_per_inference),
            format!("{:.3}", point.energy_ratio),
        ]);
    }
    println!("\n{}", table.to_pretty());

    // Gate 1: the packed array must actually be smaller — at least the
    // checked-in factor at fig6 scale with 4-bit cells.
    let min_reduction = record.budget("min_column_reduction_fig6_4bit");
    Gate::at_least("fig6 4-bit column reduction", min_reduction).check(fig6_reduction_4bit);

    // Gate 2: packing must not cost accuracy at sigma=0 — the shift-add
    // merge is exact integer arithmetic, so the tolerance defaults to zero.
    let max_delta = record.budget("max_accuracy_delta");
    Gate::at_most("worst |accuracy delta| from one-hot", max_delta).check(
        points
            .iter()
            .map(|point| point.accuracy_delta.abs())
            .fold(0.0, f64::max),
    );

    // Gate 3: the merged read path must hold its throughput budget at fig6
    // scale. A re-measure fits the fig6 4-bit engine once, on first use.
    let ns_budget = record.budget("packed_read_ns_per_inference_budget");
    let mut remeasured = None;
    let fig6_packed_ns_4bit = Gate::at_most("fig6 4-bit packed read ns/inference", ns_budget)
        .remeasure(|| {
            let (engine, samples) = remeasured.get_or_insert_with(|| {
                let split = stratified_split(&fig6, 0.7, &mut seeded_rng(4242)).expect("split");
                let config =
                    EngineConfig::febim_default().with_encoding(Encoding::BitPlane { bits: 4 });
                let engine = FebimEngine::fit(&split.train, config).expect("engine");
                (engine, request_stream(&split.test, inferences))
            });
            measure_reads(engine, samples, passes + 1)
        })
        .check(fig6_packed_ns_4bit);

    // Gate 4: the packed encoding's modelled energy per inference — the
    // multi-level refinement reads priced through the sensing chain — must
    // not exceed the one-hot baseline's by more than the checked-in
    // factor. The circuit model is deterministic, so no re-measurement.
    let max_energy_ratio = record.budget("max_packed_energy_ratio_fig6_4bit");
    Gate::at_most(
        "fig6 4-bit packed/one-hot modelled energy",
        max_energy_ratio,
    )
    .check(fig6_energy_ratio_4bit);

    record.write(&FootprintRecord {
        header: record.header(),
        inferences,
        fig6_column_reduction_4bit: fig6_reduction_4bit,
        min_column_reduction_fig6_4bit: min_reduction,
        fig6_packed_read_ns_4bit: fig6_packed_ns_4bit,
        packed_read_ns_per_inference_budget: ns_budget,
        fig6_packed_energy_ratio_4bit: fig6_energy_ratio_4bit,
        max_packed_energy_ratio_fig6_4bit: max_energy_ratio,
        max_accuracy_delta: max_delta,
        points,
    });
}
