//! Device-variation robustness study: how FeFET threshold-voltage variation
//! affects the in-memory classification accuracy (the Fig. 8(c) experiment),
//! plus a look at the write-disturb bookkeeping of the half-bias scheme.
//!
//! Run with:
//!
//! ```text
//! cargo run --example device_variation_study
//! ```

use febim_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = iris_like(808)?;
    let config = EngineConfig::febim_default();

    // Sweep sigma_VTH from the ideal device to 45 mV (the paper's worst case;
    // the cited experimental FeFET variation is 38 mV).
    println!("-- Monte-Carlo variation sweep (iris-like GNBC) --");
    let sigmas = [0.0, 15.0, 30.0, 38.0, 45.0];
    let epochs = 20;
    let points = variation_sweep(
        &dataset,
        &config,
        &sigmas,
        &MonteCarlo::new(0.7, epochs, 808),
    )?;
    println!("epochs per point: {epochs}");
    println!("sigma_vth [mV]  mean acc [%]  std [%]   min [%]   max [%]");
    for point in &points {
        println!(
            "{:>13.1}  {:>11.2}  {:>7.2}  {:>8.2}  {:>8.2}",
            point.sigma_vth_mv,
            100.0 * point.stats.mean,
            100.0 * point.stats.std_dev,
            100.0 * point.stats.min,
            100.0 * point.stats.max
        );
    }
    let ideal = points.first().expect("at least one sigma").stats.mean;
    let worst = points.last().expect("at least one sigma").stats.mean;
    println!(
        "accuracy drop at {} mV: {:.2} percentage points",
        sigmas.last().unwrap(),
        100.0 * (ideal - worst)
    );

    // A single engine instance at the experimentally reported 38 mV.
    println!("\n-- single deployment at the experimental 38 mV variation --");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(808))?;
    let noisy_engine = FebimEngine::fit(
        &split.train,
        config
            .clone()
            .with_variation(VariationModel::from_millivolts(38.0), 99)
            .with_pulse_programming(),
    )?;
    let report = noisy_engine.evaluate(&split.test)?;
    println!(
        "in-memory accuracy with 38 mV variation and pulse-train programming: {:.2} %",
        100.0 * report.accuracy
    );
    println!(
        "ties broken deterministically: {} / {}",
        report.ties, report.samples
    );
    println!(
        "total write energy spent programming the array: {:.2} pJ",
        noisy_engine.array().write_energy() * 1e12
    );
    Ok(())
}
