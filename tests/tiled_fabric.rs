//! Integration tests of the tiled multi-array fabric backend: a model whose
//! crossbar layout exceeds one physical tile in both dimensions is sharded
//! onto a ≥2×2 tile grid and must decide every sample bit-identically to the
//! monolithic single-array reference engine.

use febim_suite::prelude::*;

fn split_for(seed: u64) -> febim_suite::data::TrainTestSplit {
    let dataset = iris_like(seed).expect("dataset");
    stratified_split(&dataset, 0.7, &mut seeded_rng(seed)).expect("split")
}

#[test]
fn oversized_model_lands_on_a_2x2_grid_and_matches_the_reference() {
    let split = split_for(2101);
    let config = EngineConfig::febim_default();
    let monolithic = FebimEngine::fit(&split.train, config.clone()).expect("reference engine");
    // The 3×64 iris layout exceeds a 2×48 tile in rows (3 > 2) and columns
    // (64 > 48) → 2 tile rows × 2 tile columns.
    let tiled = FebimEngine::fit_tiled(
        &split.train,
        config,
        TileShape::new(2, 48).expect("tile shape"),
    )
    .expect("fabric engine");
    let plan = tiled.tiled_program().plan();
    assert_eq!(plan.row_tiles(), 2);
    assert_eq!(plan.col_tiles(), 2);
    assert!(plan.is_multi_tile());

    let reference = monolithic.evaluate(&split.test).expect("reference report");
    let fabric = tiled.evaluate(&split.test).expect("fabric report");
    assert_eq!(reference.predictions, fabric.predictions);
    assert_eq!(reference.accuracy, fabric.accuracy);
    assert_eq!(reference.ties, fabric.ties);
}

#[test]
fn sharding_the_iris_model_costs_modeled_delay_and_energy() {
    let split = split_for(77);
    let config = EngineConfig::febim_default();
    let monolithic = FebimEngine::fit(&split.train, config.clone()).expect("reference engine");
    let tiled = FebimEngine::fit_tiled(
        &split.train,
        config,
        TileShape::new(2, 24).expect("tile shape"),
    )
    .expect("fabric engine");
    let plan = tiled.tiled_program().plan();
    assert_eq!((plan.row_tiles(), plan.col_tiles()), (2, 3));
    assert!(plan.utilization() > 0.0 && plan.utilization() <= 1.0);
    let reference = monolithic.evaluate(&split.test).expect("reference report");
    let fabric = tiled.evaluate(&split.test).expect("fabric report");
    assert_eq!(reference.accuracy, fabric.accuracy);
    // Sharding is never free on this workload: the sparse iris reads
    // activate 4 of 64 columns, so the fabric pays for its occupied
    // bitlines and the merge bus (delay) and for per-tile-row drivers
    // (energy).
    let delay_ratio = fabric.mean_delay / reference.mean_delay;
    let energy_ratio = fabric.mean_energy / reference.mean_energy;
    assert!(
        delay_ratio > 1.0 && delay_ratio.is_finite(),
        "{delay_ratio}"
    );
    assert!(
        energy_ratio > 1.0 && energy_ratio.is_finite(),
        "{energy_ratio}"
    );
}

#[test]
fn backends_share_one_engine_api() {
    let split = split_for(2102);
    let config = EngineConfig::febim_default();
    let software = FebimEngine::fit_software(&split.train, config.clone()).expect("software");
    let crossbar = FebimEngine::fit(&split.train, config.clone()).expect("crossbar");
    let fabric = FebimEngine::fit_tiled(
        &split.train,
        config,
        TileShape::new(2, 24).expect("tile shape"),
    )
    .expect("fabric");

    assert_eq!(software.backend_info().kind, BackendKind::Software);
    assert_eq!(crossbar.backend_info().kind, BackendKind::Crossbar);
    assert_eq!(fabric.backend_info().kind, BackendKind::TiledFabric);
    assert_eq!(fabric.backend_info().tiles, 6);

    // The two physical backends are bit-identical; the software reference is
    // the FP64 ground truth the quantized engines approximate.
    let sample = split.test.sample(0).expect("sample");
    assert_eq!(
        crossbar.predict(sample).expect("crossbar prediction"),
        fabric.predict(sample).expect("fabric prediction")
    );
    assert_eq!(
        software.predict(sample).expect("software prediction"),
        software
            .software_model()
            .predict(sample)
            .expect("model prediction")
    );
}

#[test]
fn fabric_monte_carlo_matches_the_reference_backend() {
    let dataset = iris_like(2103).expect("dataset");
    let config = EngineConfig::febim_default();
    let shape = TileShape::new(2, 24).expect("tile shape");
    let options = MonteCarlo::new(0.7, 3, 21);
    let reference = epoch_accuracy(&dataset, &config, &options).expect("reference epochs");
    let fabric = epoch_accuracy(
        &dataset,
        &config,
        &options
            .with_threads(2)
            .with_backend(|train, epoch_config| FebimEngine::fit_tiled(train, epoch_config, shape)),
    )
    .expect("fabric epochs");
    assert_eq!(reference, fabric);
}

#[test]
fn tile_plan_and_report_serialize_to_json() {
    let split = split_for(2104);
    let tiled = FebimEngine::fit_tiled(
        &split.train,
        EngineConfig::febim_default(),
        TileShape::new(2, 48).expect("tile shape"),
    )
    .expect("fabric engine");
    let report = tiled.evaluate(&split.test).expect("report");

    let plan_json = febim_suite::core::json::to_string(tiled.tiled_program().plan());
    assert!(plan_json.contains("\"row_tiles\":2"));
    assert!(plan_json.contains("\"shape\""));
    let report_json = febim_suite::core::json::to_string(&report);
    assert!(report_json.contains("\"accuracy\""));
    assert!(report_json.contains("\"predictions\""));
}

/// The Fig. 6-scale stress layout — 64 wordlines, 32 evidence nodes of 16
/// levels each (512 bitlines), programmed with the scalability sweeps'
/// staggered level pattern `(row + column) % 10` — reads the same currents
/// on one array and on a 2×4 grid of 32×128 tiles, which it exceeds in both
/// dimensions, for a sparse observation and for every column.
#[test]
fn the_staggered_grid_reads_alike_on_one_array_and_on_tiles() {
    use febim_suite::crossbar::{Activation, CrossbarLayout, ProgrammingMode, TileGrid, TilePlan};
    use febim_suite::device::LevelProgrammer;

    let layout = CrossbarLayout::new(64, 32, 16, false).expect("layout");
    let levels: Vec<Vec<Option<usize>>> = (0..layout.rows())
        .map(|row| {
            (0..layout.columns())
                .map(|column| Some((row + column) % 10))
                .collect()
        })
        .collect();
    let programmed = |plan: TilePlan| {
        let programmer = LevelProgrammer::febim_default(10).expect("programmer");
        let mut grid = TileGrid::new(plan, programmer);
        grid.program_matrix(&levels, ProgrammingMode::Ideal)
            .expect("program");
        grid
    };
    let array = programmed(TilePlan::monolithic(layout));
    let grid =
        programmed(TilePlan::new(layout, TileShape::new(32, 128).expect("shape")).expect("plan"));
    assert!(!array.plan().is_multi_tile());
    assert_eq!((grid.plan().row_tiles(), grid.plan().col_tiles()), (2, 4));
    let evidence: Vec<usize> = (0..32).map(|node| node % 16).collect();
    for activation in [
        Activation::from_observation(&layout, &evidence).expect("activation"),
        Activation::all_columns(&layout),
    ] {
        assert_eq!(
            array.wordline_currents(&activation).expect("array read"),
            grid.wordline_currents(&activation).expect("grid read")
        );
    }
}
