//! Time-varying non-ideality benchmark: the cost of physical realism and
//! the drift-resilience campaign.
//!
//! Three questions, one record:
//!
//! 1. **What does the ideal mode cost?** An engine configured with
//!    `NonIdealityStack::ideal()` must read through the same epoch-versioned
//!    conductance cache as one with no stack at all — the ideal read path is
//!    the product's hot loop, so its ns/inference is gated against the
//!    checked-in `ideal_ns_per_inference_budget` of `NOISE_BUDGET.json`.
//! 2. **What does realism cost?** The same workload runs with a full
//!    drift + read-disturb + IR-drop stack; the slowdown factor is recorded
//!    (not gated — it is allowed to cost more, it just has to be honest).
//! 3. **Does recalibration work?** A Monte-Carlo noise campaign
//!    (`febim_core::noise_campaign`) measures fresh/aged/recovered accuracy
//!    per severity scenario, and the run asserts the recalibrated array
//!    recovers its fresh accuracy exactly (σ_VTH = 0 reprogramming is
//!    bit-exact) while doing real refresh work.
//!
//! Everything lands in `BENCH_noise.json`: the measured throughputs, the
//! realism overhead factor and the drift-resilience comparison table.
//!
//! Usage:
//!
//! ```console
//! cargo run --release -p febim-bench --bin noise \
//!     [-- --quick] [--out PATH] [--budget PATH]
//! ```
//!
//! `--quick` shortens the measurement (used by the CI bench-smoke step);
//! `--out` overrides the output path (default `BENCH_noise.json`);
//! `--budget` overrides the budget file path (default `NOISE_BUDGET.json`).

use serde::Serialize;

use febim_bench::{measure_reads, request_stream, Gate, Header, Record};
use febim_core::{
    noise_campaign, EngineConfig, FebimEngine, MonteCarlo, NoisePoint, NoiseScenario,
};
use febim_data::rng::seeded_rng;
use febim_data::split::stratified_split;
use febim_data::synthetic::iris_like;
use febim_device::{NonIdealityStack, ReadDisturb, RetentionDrift, WireResistance};
use febim_quant::QuantConfig;

/// One (array scale × severity) cell of the drift-resilience campaign.
#[derive(Debug, Serialize)]
struct ResilienceRow {
    /// Severity label of the scenario.
    label: String,
    /// Evidence columns of the programmed array (the scale axis).
    columns: usize,
    /// Ticks the array aged before the aged evaluation.
    age_ticks: u64,
    /// Mean accuracy of the freshly programmed array.
    fresh_accuracy: f64,
    /// Mean accuracy after ageing, before any refresh.
    aged_accuracy: f64,
    /// Mean accuracy after the recalibration pass.
    recovered_accuracy: f64,
    /// `aged / fresh` — what an uncalibrated deployment keeps.
    retention_without_refresh: f64,
    /// `recovered / fresh` — what the recalibrated deployment keeps.
    retention_with_refresh: f64,
    /// Cells reprogrammed by the recalibration passes, over all epochs.
    cells_refreshed: u64,
    /// Program pulses spent by the recalibration passes, over all epochs.
    refresh_pulses: u64,
    /// Refresh energy in joules, over all epochs.
    refresh_energy_j: f64,
}

impl ResilienceRow {
    fn new(point: &NoisePoint) -> Self {
        let fresh = point.fresh.mean;
        let ratio = |value: f64| if fresh > 0.0 { value / fresh } else { 0.0 };
        Self {
            label: point.label.clone(),
            columns: point.columns,
            age_ticks: point.age_ticks,
            fresh_accuracy: fresh,
            aged_accuracy: point.aged.mean,
            recovered_accuracy: point.recovered.mean,
            retention_without_refresh: ratio(point.aged.mean),
            retention_with_refresh: ratio(point.recovered.mean),
            cells_refreshed: point.refresh.cells_refreshed,
            refresh_pulses: point.refresh.pulses_applied,
            refresh_energy_j: point.refresh.energy_joules,
        }
    }
}

/// The persisted record tracking the realism-cost trajectory.
#[derive(Debug, Serialize)]
struct NoiseRecord {
    header: Header,
    /// Inferences timed per measurement pass.
    inferences: usize,
    /// ns/inference of the ideal-stack engine — the gated hot path.
    ideal_ns_per_inference: f64,
    /// The `ideal_ns_per_inference_budget` the ideal path was gated against.
    ideal_ns_per_inference_budget: f64,
    /// ns/inference with the full drift + disturb + IR-drop stack active.
    noisy_ns_per_inference: f64,
    /// `noisy / ideal` — what physical realism costs on the read path.
    realism_overhead: f64,
    /// Worst accuracy retention across the campaign without recalibration.
    worst_retention_without_refresh: f64,
    /// Worst accuracy retention across the campaign with recalibration
    /// (gated to be exactly 1.0: σ_VTH = 0 refresh is bit-exact).
    worst_retention_with_refresh: f64,
    /// The drift-resilience campaign, one row per scenario.
    resilience: Vec<ResilienceRow>,
}

/// The full-severity stack: retention drift, tier-quantized read disturb and
/// wordline/bitline IR-drop together.
fn severe_stack() -> NonIdealityStack {
    NonIdealityStack::ideal()
        .with_drift(RetentionDrift::new(0.05, 100))
        .with_disturb(ReadDisturb::new(64, 0.002))
        .with_wire(WireResistance::uniform(2.0))
}

fn main() {
    let record = Record::gated("noise", "NOISE_BUDGET.json");
    let inferences = record.pick(4_000, 20_000);
    let passes = record.pick(3, 5);
    let epochs = record.pick(2, 8);

    println!(
        "noise: timing the ideal vs non-ideal read path over {inferences} inferences \
         and running a {epochs}-epoch drift-resilience campaign ({} mode)\n",
        record.mode()
    );

    let dataset = iris_like(42).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(42)).expect("split");
    let samples = request_stream(&split.test, inferences);

    // 1. The gated hot path: an ideal-stack engine reads through the cached
    //    conductances with zero non-ideality bookkeeping on the hot loop.
    let ideal_config = EngineConfig::febim_default().with_non_idealities(NonIdealityStack::ideal());
    let ideal_engine = FebimEngine::fit(&split.train, ideal_config).expect("ideal engine");
    let ideal_ns = measure_reads(&ideal_engine, &samples, passes);

    // 2. The realism cost: the same reads with the full severity stack, aged
    //    far enough that drift, disturb tiers and IR-drop are all active.
    let noisy_config = EngineConfig::febim_default().with_non_idealities(severe_stack());
    let mut noisy_engine = FebimEngine::fit(&split.train, noisy_config).expect("noisy engine");
    noisy_engine.advance_time(100_000);
    let noisy_ns = measure_reads(&noisy_engine, &samples, passes);

    // 3. The drift-resilience campaign: fresh vs aged vs recovered accuracy
    //    per severity scenario, with the refresh work priced by the Preisach
    //    programming model.
    let scenarios = [
        NoiseScenario::new("ideal", NonIdealityStack::ideal(), 100_000),
        NoiseScenario::new(
            "drift-only",
            NonIdealityStack::ideal().with_drift(RetentionDrift::new(0.05, 100)),
            100_000,
        ),
        NoiseScenario::new("drift+disturb+ir", severe_stack(), 100_000),
    ];
    let points = noise_campaign(
        &dataset,
        &EngineConfig::febim_default(),
        &[QuantConfig::febim_optimal()],
        &scenarios,
        1e-6,
        &MonteCarlo::new(0.7, epochs, 42),
    )
    .expect("noise campaign");
    let resilience: Vec<ResilienceRow> = points.iter().map(ResilienceRow::new).collect();
    for row in &resilience {
        println!(
            "{:<18} {:>3} columns  fresh {:.4}  aged {:.4}  recovered {:.4}  \
             {} cells / {} pulses / {:.3e} J refreshed",
            row.label,
            row.columns,
            row.fresh_accuracy,
            row.aged_accuracy,
            row.recovered_accuracy,
            row.cells_refreshed,
            row.refresh_pulses,
            row.refresh_energy_j,
        );
    }

    let worst = |retention: fn(&ResilienceRow) -> f64| {
        resilience
            .iter()
            .map(retention)
            .fold(f64::INFINITY, f64::min)
    };
    let worst_without = worst(|row| row.retention_without_refresh);
    let worst_with = worst(|row| row.retention_with_refresh);
    println!(
        "resilience: worst retention {worst_without:.4} unrefreshed, {worst_with:.4} recalibrated\n"
    );
    // Recalibration must restore the fresh accuracy exactly under sigma=0
    // reprogramming, and every drifted scenario must do real refresh work.
    Gate::at_most("recovered-accuracy error |worst retention - 1|", 1e-12)
        .check((worst_with - 1.0).abs());
    Gate::at_least("least cells refreshed in a drifted scenario", 1.0).check(
        resilience
            .iter()
            .filter(|row| row.label != "ideal")
            .map(|row| row.cells_refreshed as f64)
            .fold(f64::INFINITY, f64::min),
    );

    // Throughput gate: the ideal read path is the product's hot loop, so it
    // must hold the checked-in ns/inference budget.
    let budget = record.budget("ideal_ns_per_inference_budget");
    let ideal_ns = Gate::at_most("ideal read ns/inference", budget)
        .remeasure(|| measure_reads(&ideal_engine, &samples, passes + 1))
        .check(ideal_ns);
    let realism_overhead = noisy_ns / ideal_ns;
    println!(
        "throughput: ideal {ideal_ns:.1} ns/inference, full stack {noisy_ns:.1} ns/inference \
         ({realism_overhead:.2}x)"
    );

    record.write(&NoiseRecord {
        header: record.header(),
        inferences,
        ideal_ns_per_inference: ideal_ns,
        ideal_ns_per_inference_budget: budget,
        noisy_ns_per_inference: noisy_ns,
        realism_overhead,
        worst_retention_without_refresh: worst_without,
        worst_retention_with_refresh: worst_with,
        resilience,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_rows_track_the_noise_campaign() {
        let dataset = iris_like(90).unwrap();
        let scenarios = [
            NoiseScenario::new("ideal", NonIdealityStack::ideal(), 50_000),
            NoiseScenario::new(
                "drift+disturb",
                NonIdealityStack::ideal()
                    .with_drift(RetentionDrift::new(0.05, 100))
                    .with_disturb(ReadDisturb::new(64, 0.002)),
                50_000,
            ),
        ];
        let points = noise_campaign(
            &dataset,
            &EngineConfig::febim_default(),
            &[QuantConfig::febim_optimal()],
            &scenarios,
            1e-6,
            &MonteCarlo::new(0.7, 2, 90),
        )
        .unwrap();
        let rows: Vec<ResilienceRow> = points.iter().map(ResilienceRow::new).collect();
        assert_eq!(rows.len(), 2);
        let (ideal, noisy) = (&rows[0], &rows[1]);
        // An ideal array keeps everything, refresh or not.
        assert_eq!(ideal.retention_without_refresh, 1.0);
        assert_eq!(ideal.retention_with_refresh, 1.0);
        assert_eq!(ideal.refresh_pulses, 0);
        // Recalibration restores the drifted array to its fresh accuracy
        // exactly (σ_VTH = 0), and it costs real refresh work.
        assert_eq!(noisy.retention_with_refresh, 1.0);
        assert!(noisy.retention_without_refresh <= 1.0);
        assert!(noisy.cells_refreshed > 0);
        assert!(noisy.refresh_energy_j > 0.0);
        let json = serde::json::to_string(&rows);
        assert!(json.contains("\"retention_with_refresh\""));
    }
}
