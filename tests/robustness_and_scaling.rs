//! Integration tests for the robustness (Fig. 8(c)) and scalability (Fig. 6)
//! studies, exercised through the public API of the umbrella crate.

use febim_suite::circuit::SensingChain;
use febim_suite::core::{column_sweep, figure6_columns, figure6_rows, row_sweep};
use febim_suite::prelude::*;

#[test]
fn variation_sweep_shows_graceful_degradation() {
    let dataset = iris_like(3001).expect("dataset");
    let config = EngineConfig::febim_default();
    let points = variation_sweep(
        &dataset,
        &config,
        &[0.0, 15.0, 45.0],
        &MonteCarlo::new(0.7, 6, 3001),
    )
    .expect("variation sweep");
    assert_eq!(points.len(), 3);
    let ideal = points[0].stats.mean;
    let worst = points[2].stats.mean;
    // Fig. 8(c): roughly a 5 % mean drop at 45 mV; allow extra slack for the
    // small epoch count used in CI.
    assert!(ideal > 0.85, "ideal accuracy {ideal}");
    assert!(
        ideal - worst < 0.2,
        "drop too large: {} -> {}",
        ideal,
        worst
    );
    // The spread of the distribution grows with the variation level.
    assert!(points[2].stats.std_dev >= points[0].stats.std_dev - 0.02);
}

#[test]
fn moderate_variation_costs_less_than_strong_variation_on_average() {
    let dataset = iris_like(3002).expect("dataset");
    let config = EngineConfig::febim_default();
    let points = variation_sweep(
        &dataset,
        &config,
        &[15.0, 45.0],
        &MonteCarlo::new(0.7, 8, 3002),
    )
    .expect("variation sweep");
    assert!(
        points[0].stats.mean >= points[1].stats.mean - 0.05,
        "15 mV accuracy {} unexpectedly below 45 mV accuracy {}",
        points[0].stats.mean,
        points[1].stats.mean
    );
}

#[test]
fn column_scaling_matches_figure6_trends() {
    let chain = SensingChain::febim_calibrated();
    let points = column_sweep(2, &figure6_columns(), &chain).expect("column sweep");
    // Delay roughly quadruples from 2 to 256 columns (about 200 ps -> 800 ps).
    let first = points.first().expect("first point");
    let last = points.last().expect("last point");
    let delay_ratio = last.delay / first.delay;
    assert!(
        delay_ratio > 2.5 && delay_ratio < 8.0,
        "delay ratio {delay_ratio}"
    );
    // Energy grows monotonically and the array part dominates at 2 rows.
    for pair in points.windows(2) {
        assert!(pair[1].energy_total() >= pair[0].energy_total());
    }
    assert!(last.energy_array > last.energy_sensing);
}

#[test]
fn row_scaling_matches_figure6_trends() {
    let chain = SensingChain::febim_calibrated();
    let points = row_sweep(&figure6_rows(), 32, &chain).expect("row sweep");
    let first = points.first().expect("first point");
    let last = points.last().expect("last point");
    // Delay grows by several times from 2 to 32 rows (about 200 ps -> 1 ns).
    let delay_ratio = last.delay / first.delay;
    assert!(
        delay_ratio > 2.0 && delay_ratio < 10.0,
        "delay ratio {delay_ratio}"
    );
    // Sensing energy dominates for tall arrays.
    assert!(last.energy_sensing > last.energy_array);
    // Both energy components grow with the row count.
    for pair in points.windows(2) {
        assert!(pair[1].energy_sensing >= pair[0].energy_sensing);
    }
}

#[test]
fn single_inference_delay_stays_sub_nanosecond_at_iris_scale() {
    let dataset = iris_like(3003).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(3003)).expect("split");
    let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default()).expect("engine");
    let report = engine.evaluate(&split.test).expect("evaluation");
    // Fig. 5(c)/6: the iris-scale array resolves well below a nanosecond and
    // costs only femtojoules per inference.
    assert!(report.mean_delay < 1e-9, "mean delay {}", report.mean_delay);
    assert!(
        report.mean_energy < 50e-15,
        "mean energy {}",
        report.mean_energy
    );
}
