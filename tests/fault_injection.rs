//! Integration test: classification robustness of the FeBiM engine against
//! hard cell defects (stuck-erased / stuck-programmed FeFETs), an extension
//! of the paper's variation study to hard faults — on the monolithic array
//! and on individual tiles of a tiled fabric, which must degrade
//! identically when the same global cells are defective.

use febim_suite::crossbar::{apply_fault, Activation, FaultKind, FaultModel};
use febim_suite::prelude::*;

#[test]
fn hard_faults_degrade_accuracy_gracefully() {
    // Build the engine, then fault an identical standalone array and compare
    // the decisions the sensing chain would make.
    let dataset = iris_like(5001).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(5001)).expect("split");
    let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default()).expect("engine");
    let clean_accuracy = engine.evaluate(&split.test).expect("evaluate").accuracy;

    // Clone the programmed array and inject 2 % stuck-at faults.
    let mut faulty_array = engine.array().clone();
    let model = FaultModel::new(0.02, 0.7).expect("fault model");
    let faults = model
        .inject(&mut faulty_array, &mut seeded_rng(77))
        .expect("inject");
    assert!(!faults.is_empty(), "expected some injected faults");

    // Evaluate the faulty array manually through the same activation path.
    let mut correct = 0usize;
    for (sample, label) in split.test.iter() {
        let bins = engine.quantized().discretize_sample(sample).expect("bins");
        let activation =
            febim_suite::crossbar::Activation::from_observation(faulty_array.layout(), &bins)
                .expect("activation");
        let currents = faulty_array
            .wordline_currents(&activation)
            .expect("currents");
        let winner = febim_suite::bayes::argmax(&currents).expect("winner");
        if winner == label {
            correct += 1;
        }
    }
    let faulty_accuracy = correct as f64 / split.test.n_samples() as f64;

    assert!(clean_accuracy > 0.85, "clean accuracy {clean_accuracy}");
    // A 2 % defect rate on a 192-cell array should cost only a modest number
    // of decisions.
    assert!(
        clean_accuracy - faulty_accuracy < 0.25,
        "clean {clean_accuracy} vs faulty {faulty_accuracy}"
    );
    assert!(faulty_accuracy > 0.6, "faulty accuracy {faulty_accuracy}");
}

#[test]
fn tile_faults_degrade_the_fabric_identically_to_the_monolithic_array() {
    // Deploy the same trained model monolithically and across a 2x24-tile
    // fabric (a 2x3 grid at iris scale), inject the same random stuck-at
    // faults into both — the row-major draw order guarantees the same seed
    // defects the same global cells, landing in four different tiles — and
    // require bit-identical degraded reads everywhere.
    let dataset = iris_like(5003).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(5003)).expect("split");
    let config = EngineConfig::febim_default();
    let engine = FebimEngine::fit(&split.train, config.clone()).expect("engine");
    let tiled = FebimEngine::fit_tiled(&split.train, config, TileShape::new(2, 24).unwrap())
        .expect("tiled engine");
    let clean_accuracy = engine.evaluate(&split.test).expect("evaluate").accuracy;

    let mut faulty_array = engine.array().clone();
    let mut faulty_grid = tiled.grid().clone();
    let model = FaultModel::new(0.04, 0.6).expect("fault model");
    let array_faults = model
        .inject(&mut faulty_array, &mut seeded_rng(177))
        .expect("inject array");
    let grid_faults = model
        .inject(&mut faulty_grid, &mut seeded_rng(177))
        .expect("inject grid");
    assert_eq!(array_faults, grid_faults, "defect maps must match per seed");
    assert!(!grid_faults.is_empty(), "expected some injected faults");
    // The defects must spread across more than one tile of the 2x3 grid.
    let plan = tiled.tiled_program().plan();
    let mut defective_tiles: Vec<(usize, usize)> = grid_faults
        .iter()
        .map(|fault| plan.tile_of(fault.row, fault.column).expect("tile"))
        .collect();
    defective_tiles.sort_unstable();
    defective_tiles.dedup();
    assert!(
        defective_tiles.len() > 1,
        "faults landed in a single tile: {defective_tiles:?}"
    );

    // Every decision of the degraded fabric matches the degraded array.
    let mut correct = 0usize;
    for (sample, label) in split.test.iter() {
        let bins = engine.quantized().discretize_sample(sample).expect("bins");
        let activation =
            Activation::from_observation(faulty_array.layout(), &bins).expect("activation");
        let array_currents = faulty_array
            .wordline_currents(&activation)
            .expect("array currents");
        let grid_currents = faulty_grid
            .wordline_currents(&activation)
            .expect("grid currents");
        assert_eq!(
            array_currents, grid_currents,
            "degraded reads diverged between deployments"
        );
        let winner = febim_suite::bayes::argmax(&grid_currents).expect("winner");
        if winner == label {
            correct += 1;
        }
    }
    let faulty_accuracy = correct as f64 / split.test.n_samples() as f64;
    assert!(
        clean_accuracy - faulty_accuracy < 0.35,
        "clean {clean_accuracy} vs faulty {faulty_accuracy}"
    );
}

#[test]
fn targeted_tile_fault_biases_the_fabric_like_the_array() {
    // The single-cell fault entry point addresses the fabric by global
    // coordinates: sticking the same cells in a tile and in the monolithic
    // array must bias the same row to the same win.
    let dataset = iris_like(5004).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(5004)).expect("split");
    let config = EngineConfig::febim_default();
    let engine = FebimEngine::fit(&split.train, config.clone()).expect("engine");
    let tiled = FebimEngine::fit_tiled(&split.train, config, TileShape::new(2, 24).unwrap())
        .expect("tiled engine");
    let mut faulty_array = engine.array().clone();
    let mut faulty_grid = tiled.grid().clone();
    let bins = vec![0usize; 4];
    for feature in 0..4 {
        let column = faulty_array
            .layout()
            .likelihood_column(feature, 0)
            .expect("column");
        febim_suite::crossbar::apply_fault(
            &mut faulty_array,
            2,
            column,
            FaultKind::StuckProgrammed,
        )
        .expect("array fault");
        apply_fault(&mut faulty_grid, 2, column, FaultKind::StuckProgrammed).expect("grid fault");
    }
    let activation =
        Activation::from_observation(faulty_array.layout(), &bins).expect("activation");
    let array_currents = faulty_array
        .wordline_currents(&activation)
        .expect("array currents");
    let grid_currents = faulty_grid
        .wordline_currents(&activation)
        .expect("grid currents");
    assert_eq!(array_currents, grid_currents);
    assert_eq!(
        febim_suite::bayes::argmax(&grid_currents).expect("winner"),
        2,
        "currents {grid_currents:?}"
    );
}

#[test]
fn scrub_heals_scheduled_strikes_back_to_the_fresh_read_path() {
    // The time-indexed chaos path: scheduled faults strike while the engine
    // ages, pending counts drain on time, and one scrub pass restores the
    // exact fresh bit pattern — the detection/repair loop the serving
    // pool's background scrubber runs between batches.
    let dataset = iris_like(5005).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(5005)).expect("split");
    let mut engine = FebimEngine::fit(&split.train, EngineConfig::febim_default()).expect("engine");
    let fresh_map = engine.current_map();
    let fresh_accuracy = engine.evaluate(&split.test).expect("evaluate").accuracy;

    engine.set_fault_schedule(FaultSchedule::new(vec![
        ScheduledFault {
            at_tick: 3,
            row: 1,
            column: 3,
            kind: FaultKind::StuckErased,
            permanent: false,
        },
        ScheduledFault {
            at_tick: 7,
            row: 2,
            column: 5,
            kind: FaultKind::StuckProgrammed,
            permanent: false,
        },
    ]));
    assert_eq!(engine.pending_faults(), 2);
    engine.advance_time(5);
    assert_eq!(engine.pending_faults(), 1, "only the tick-3 fault is due");
    engine.advance_time(5);
    assert_eq!(engine.pending_faults(), 0, "the tick-7 fault struck too");

    let outcome = engine.scrub(1e-6).expect("scrub");
    assert!(outcome.fully_repaired(), "transient faults heal in place");
    assert!(outcome.cells_repaired >= 1, "the strikes must be detected");
    assert_eq!(
        engine.current_map(),
        fresh_map,
        "repair must restore the exact fresh bit pattern"
    );
    assert_eq!(
        engine.evaluate(&split.test).expect("evaluate").accuracy,
        fresh_accuracy
    );
}

#[test]
fn stuck_programmed_faults_bias_towards_the_faulty_row() {
    let dataset = iris_like(5002).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(5002)).expect("split");
    let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default()).expect("engine");
    let mut faulty_array = engine.array().clone();
    // Stick every cell row 2 contributes for the all-zero-bin observation to
    // the fully programmed state: that row must then win the competition for
    // that observation regardless of the trained likelihoods.
    let bins = vec![0usize; 4];
    for feature in 0..4 {
        let column = faulty_array
            .layout()
            .likelihood_column(feature, 0)
            .expect("column");
        febim_suite::crossbar::apply_fault(
            &mut faulty_array,
            2,
            column,
            FaultKind::StuckProgrammed,
        )
        .expect("fault");
    }
    let activation =
        febim_suite::crossbar::Activation::from_observation(faulty_array.layout(), &bins)
            .expect("activation");
    let currents = faulty_array
        .wordline_currents(&activation)
        .expect("currents");
    let winner = febim_suite::bayes::argmax(&currents).expect("winner");
    assert_eq!(winner, 2, "currents {currents:?}");
}
