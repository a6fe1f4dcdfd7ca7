//! Drift-and-recalibration walkthrough: conductances as functions of time
//! and read history.
//!
//! Programs an iris-scale array under a full non-ideality stack (retention
//! drift, tier-quantized read disturb, wordline/bitline IR-drop), ages it,
//! watches the accuracy respond, then hands the engine to an online
//! [`RecalibrationScheduler`] that reprograms drifted cells back to their
//! targets — and finally prices the whole maintenance schedule with a
//! Monte-Carlo noise campaign.
//!
//! Run with:
//!
//! ```text
//! cargo run --example drift_recalibration
//! ```

use febim_suite::prelude::*;
use febim_suite::quant::QuantConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = iris_like(909)?;
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(909))?;

    // A physically harsh stack so every effect shows up at example scale:
    // log-law retention drift with a 100-tick first decade, a disturb tier
    // every 64 wordline reads, and 2 ohm of metal per cell pitch.
    let stack = NonIdealityStack::ideal()
        .with_drift(RetentionDrift::new(0.05, 100))
        .with_disturb(ReadDisturb::new(64, 0.002))
        .with_wire(WireResistance::uniform(2.0));
    let config = EngineConfig::febim_default().with_non_idealities(stack);
    let mut engine = FebimEngine::fit(&split.train, config.clone())?;

    println!("-- ageing an array under drift + read disturb + IR-drop --");
    let fresh = engine.evaluate(&split.test)?.accuracy;
    println!(
        "fresh accuracy: {:.2} %  (epoch {})",
        100.0 * fresh,
        engine.state_epoch()
    );
    for &age in &[1_000u64, 10_000, 100_000] {
        engine.advance_time(age);
        let aged = engine.evaluate(&split.test)?.accuracy;
        println!(
            "clock {:>7}: accuracy {:.2} %, worst effective V_TH shift {:.1} mV",
            engine.clock(),
            100.0 * aged,
            1e3 * engine.worst_effective_shift()
        );
    }

    // One manual recalibration pass: reprogram every cell drifted past 1 mV
    // with minimal Preisach-priced pulse trains.
    let outcome = engine.recalibrate(1e-3)?;
    let recovered = engine.evaluate(&split.test)?.accuracy;
    println!(
        "recalibrated {} cells in {} rows with {} pulses ({:.2} pJ): accuracy {:.2} %",
        outcome.cells_refreshed,
        outcome.rows_refreshed,
        outcome.pulses_applied,
        1e12 * outcome.energy_joules,
        100.0 * recovered
    );
    assert_eq!(recovered, fresh, "sigma = 0 reprogramming is bit-exact");

    // The online version: a scheduler that watches the array's state epoch,
    // skips the drift scan while nothing changed, and refreshes whenever the
    // worst effective shift passes tolerance.
    println!("\n-- online recalibration scheduler --");
    let mut scheduler = RecalibrationScheduler::new(RecalibrationPolicy::new(5_000, 1e-3))?;
    for window in 0..6 {
        if let Some(outcome) = scheduler.tick(&mut engine, 12_500)? {
            println!(
                "window {window}: refreshed {} cells ({} pulses)",
                outcome.cells_refreshed, outcome.pulses_applied
            );
        } else {
            println!("window {window}: nothing to do");
        }
    }
    let report = scheduler.report();
    println!(
        "scheduler totals: {} scans + {} epoch-skips, {} refresh passes, {:.2} pJ",
        report.checks,
        report.skipped_checks,
        report.passes,
        1e12 * report.outcome.energy_joules
    );

    // Price the maintenance policy: fresh vs aged vs recovered accuracy per
    // severity scenario, epoch-parallel and deterministic per seed.
    println!("\n-- Monte-Carlo noise campaign --");
    let scenarios = [
        NoiseScenario::new(
            "mild-drift",
            NonIdealityStack::ideal().with_drift(RetentionDrift::new(0.02, 1_000)),
            50_000,
        ),
        NoiseScenario::new("harsh-stack", config.non_idealities, 50_000),
    ];
    let points = noise_campaign(
        &dataset,
        &EngineConfig::febim_default(),
        &[QuantConfig::febim_optimal()],
        &scenarios,
        1e-3,
        &MonteCarlo::new(0.7, 8, 909),
    )?;
    println!("scenario       fresh [%]  aged [%]  recovered [%]  cells refreshed");
    for point in &points {
        println!(
            "{:<12}  {:>9.2}  {:>8.2}  {:>13.2}  {:>15}",
            point.label,
            100.0 * point.fresh.mean,
            100.0 * point.aged.mean,
            100.0 * point.recovered.mean,
            point.refresh.cells_refreshed
        );
    }
    Ok(())
}
