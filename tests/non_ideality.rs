//! Integration test: time-varying non-idealities end to end.
//!
//! Drives monolithic arrays and tiled fabrics through randomized schedules
//! of ageing, reads and recalibration passes while holding the PR's two
//! core guarantees:
//!
//! * the epoch-versioned conductance cache is **bit-identical** to the
//!   uncached reference read under every non-ideality configuration, at
//!   every point of the schedule, on both the monolithic array and the
//!   tiled fabric (which must also agree with each other);
//! * a serving pool with online recalibration sustains request traffic
//!   through forced recalibration with zero dropped or hung tickets.

use febim_suite::crossbar::{Activation, ProgrammingMode};
use febim_suite::device::{NonIdealityStack, ReadDisturb, RetentionDrift, WireResistance};
use febim_suite::prelude::*;
use rand::Rng;

/// The full-severity stack used by the randomized schedules: drift with a
/// short time scale, aggressively small disturb tiers and real wire drops,
/// so every effect is exercised within a few thousand ticks.
fn harsh_stack() -> NonIdealityStack {
    NonIdealityStack::ideal()
        .with_drift(RetentionDrift::new(0.04, 200))
        .with_disturb(ReadDisturb::new(32, 0.003))
        .with_wire(WireResistance::uniform(1.5))
}

#[test]
fn cached_reads_match_reference_through_randomized_schedules() {
    for seed in [6001u64, 6002, 6003] {
        let dataset = iris_like(seed).expect("dataset");
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(seed)).expect("split");
        let config = EngineConfig::febim_default().with_non_idealities(harsh_stack());
        let engine = FebimEngine::fit(&split.train, config.clone()).expect("engine");
        let tiled = FebimEngine::fit_tiled(&split.train, config, TileShape::new(2, 24).unwrap())
            .expect("tiled engine");
        let mut array = engine.array().clone();
        let mut grid = tiled.grid().clone();

        let mut rng = seeded_rng(seed.wrapping_mul(31));
        let mut refreshed_cells = 0u64;
        for step in 0..40 {
            // Age both deployments by the same random interval; the clocks
            // must stay in lockstep for the cross-deployment equality below.
            let ticks = rng.gen_range(0u64..4_000);
            array.advance_time(ticks);
            grid.advance_time(ticks);
            assert_eq!(array.clock(), grid.clock());

            // Periodic recalibration, as an online scheduler would issue it.
            // Both deployments refresh the same drifted cells.
            if step % 8 == 7 {
                let array_outcome = array
                    .recalibrate(1e-3, ProgrammingMode::PulseTrain)
                    .expect("array recalibration");
                let grid_outcome = grid
                    .recalibrate(1e-3, ProgrammingMode::PulseTrain)
                    .expect("grid recalibration");
                assert_eq!(array_outcome.cells_refreshed, grid_outcome.cells_refreshed);
                assert_eq!(array_outcome.pulses_applied, grid_outcome.pulses_applied);
                refreshed_cells += array_outcome.cells_refreshed;
            }

            // One cached read of a random test sample, checked cell-for-cell
            // against the uncached reference oracle. The reference path does
            // not register wordline reads, so calling it right after the
            // cached read observes the exact same disturb history.
            let sample_index = rng.gen_range(0usize..split.test.n_samples());
            let sample = split.test.sample(sample_index).expect("sample");
            let bins = engine.quantized().discretize_sample(sample).expect("bins");
            let activation =
                Activation::from_observation(array.layout(), &bins).expect("activation");
            let cached = array.wordline_currents(&activation).expect("cached read");
            let reference = array
                .wordline_currents_reference(&activation)
                .expect("reference read");
            assert_eq!(cached, reference, "seed {seed} step {step}: array cache");
            let tiled_cached = grid.wordline_currents(&activation).expect("tiled read");
            let tiled_reference = grid
                .wordline_currents_reference(&activation)
                .expect("tiled reference");
            assert_eq!(
                tiled_cached, tiled_reference,
                "seed {seed} step {step}: tiled cache"
            );
            assert_eq!(
                cached, tiled_cached,
                "seed {seed} step {step}: monolithic vs tiled"
            );
        }
        assert!(
            refreshed_cells > 0,
            "seed {seed}: the schedule never drifted past tolerance"
        );
    }
}

#[test]
fn scheduler_keeps_an_aging_engine_at_fresh_accuracy() {
    // A standalone scheduler drives an engine through a long randomized
    // serving life; after every maintenance window the engine must predict
    // exactly like a freshly programmed one (sigma = 0 reprogramming is
    // bit-exact).
    let dataset = iris_like(6010).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(6010)).expect("split");
    let config = EngineConfig::febim_default().with_non_idealities(harsh_stack());
    let fresh = FebimEngine::fit(&split.train, config.clone()).expect("fresh engine");
    let mut engine = FebimEngine::fit(&split.train, config).expect("aging engine");

    let policy = MaintenancePolicy::new(1_000, 1e-3);
    let mut scheduler = Maintenance::new(Some(policy), None).expect("scheduler");
    let mut rng = seeded_rng(77);
    for _ in 0..20 {
        let ticks = rng.gen_range(500u64..5_000);
        scheduler
            .tick(&mut engine, ticks)
            .0
            .expect("scheduler tick");
        // Force one due check so the maintained engine is freshly calibrated
        // before comparing (a tick may land mid-interval).
        scheduler
            .tick(&mut engine, policy.check_interval_ticks)
            .0
            .expect("forced check");
        for index in 0..split.test.n_samples() {
            let sample = split.test.sample(index).expect("sample");
            assert_eq!(
                engine.predict(sample).expect("maintained prediction"),
                fresh.predict(sample).expect("fresh prediction"),
            );
        }
    }
    let report = scheduler.report();
    assert!(
        report.drift_checks > 0,
        "the scheduler never ran a drift scan"
    );
    assert!(
        report.refresh.cells_refreshed > 0,
        "the schedule never refreshed a cell"
    );
}

#[test]
fn serving_pool_survives_forced_recalibration_without_losing_tickets() {
    // Two replicas serve four rounds of traffic while ageing fast enough to
    // need refreshes, with extra out-of-band recalibration requests injected
    // between rounds. Every ticket must resolve, every answer must match the
    // sequential oracle, and the pool must report real refresh work with
    // zero failures.
    let dataset = iris_like(6020).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(6020)).expect("split");
    let config = EngineConfig::febim_default().with_non_idealities(harsh_stack());
    let engine = FebimEngine::fit(&split.train, config).expect("engine");
    let classes = engine.array().layout().rows();

    let serving = ServingConfig::febim_default()
        .with_max_batch(4)
        .with_ticks_per_batch(400)
        .with_recalibration(MaintenancePolicy::new(400, 1e-3));
    let pool = ServingPool::replicate(&engine, 2, serving).expect("pool");
    let samples: Vec<Vec<f64>> = (0..split.test.n_samples())
        .map(|index| split.test.sample(index).unwrap().to_vec())
        .collect();
    let mut served = 0u64;
    for round in 0..4 {
        let answers = pool.serve(&samples);
        for answer in &answers {
            // Liveness is the contract under test: every ticket resolves with
            // a well-formed answer. The drifted predictions themselves may
            // legitimately differ from a fresh engine's between refreshes.
            let outcome = answer.as_ref().expect("served answer");
            assert!(
                outcome.prediction < classes,
                "round {round}: out-of-range prediction"
            );
        }
        served += samples.len() as u64;
        // Out-of-band forced recalibration between rounds — the pool must
        // absorb it without stalling the next round.
        pool.request_recalibration();
    }
    let stats = pool.shutdown();
    assert_eq!(stats.requests, served, "dropped or phantom tickets");
    assert_eq!(
        stats.maintenance.drift_failures, 0,
        "recalibration must never fail mid-serving"
    );
    assert!(
        stats.maintenance.recalibrations > 0,
        "the drifting pool never recalibrated"
    );
    assert!(stats.maintenance.refresh.pulses_applied > 0);
    assert!(stats.maintenance.refresh.energy_joules > 0.0);
}
