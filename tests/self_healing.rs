//! Self-healing chaos matrix: seeded fault schedules strike engines on
//! every physical backend while a scrub schedule runs its periodic
//! BIST-style signature checks. The invariants under test:
//!
//! * **Detection latency** — any harmful defect introduced inside a scrub
//!   interval is detected and repaired by the check that closes that
//!   interval (the engine's worst effective threshold shift returns to
//!   zero within one period of every strike).
//! * **Restoration** — after the chaos horizon passes and the scrubber
//!   has healed the array (in place for transient faults, via spare-row
//!   remaps for permanent ones), accuracy and the raw current map are
//!   bit-identical to the fresh engine.
//! * **Quarantine and failover** — a serving pool whose replica takes an
//!   unrepairable hit quarantines it and keeps answering every ticket
//!   exactly once from the survivors; a fully quarantined pool degrades
//!   to the exact software fallback instead of going dark.
//! * **Remap transparency** (property-based) — spare-row repair of a
//!   permanent fault is invisible to the read path for arbitrary fault
//!   coordinates, tile shapes and spare budgets.

use proptest::prelude::*;
use rand::Rng;

use febim_suite::data::Dataset;
use febim_suite::prelude::*;

/// A deterministic chaos campaign: `events` stuck-at faults at seeded
/// random coordinates and strike times inside `(0, horizon)`.
fn chaos_schedule(seed: u64, events: usize, horizon: u64, permanent: bool) -> FaultSchedule {
    let mut rng = seeded_rng(seed);
    let faults = (0..events)
        .map(|_| ScheduledFault {
            at_tick: rng.gen_range(1..horizon),
            row: rng.gen_range(0..3),
            column: rng.gen_range(0..48),
            kind: if rng.gen_range(0..2_u32) == 0 {
                FaultKind::StuckErased
            } else {
                FaultKind::StuckProgrammed
            },
            permanent,
        })
        .collect();
    FaultSchedule::new(faults)
}

/// Drives `engine` through the whole chaos horizon in `interval`-tick scrub
/// periods and asserts the detect-within-one-period invariant after every
/// check: no harmful deviation survives the check that closes its window.
fn run_chaos_campaign<B: InferenceBackend>(
    engine: &mut FebimEngine<B>,
    interval: u64,
    horizon: u64,
) -> Maintenance {
    let mut scheduler =
        Maintenance::new(None, Some(MaintenancePolicy::new(interval, 1e-6))).expect("scheduler");
    let mut elapsed = 0;
    while elapsed < horizon + interval {
        scheduler.tick(engine, interval).1.expect("scrub tick");
        elapsed += interval;
        assert_eq!(
            engine.worst_effective_shift(),
            0.0,
            "a defect survived past the scrub that closed its strike window \
             (elapsed {elapsed} ticks, interval {interval})"
        );
    }
    assert_eq!(engine.pending_faults(), 0, "the chaos horizon must elapse");
    scheduler
}

fn test_samples(test: &Dataset) -> Vec<Vec<f64>> {
    (0..test.n_samples())
        .map(|index| test.sample(index).expect("sample").to_vec())
        .collect()
}

/// Transient chaos on the monolithic crossbar: every strike is healed in
/// place within one scrub period, and once the horizon passes the engine
/// is bit-identical to its fresh self — same current map, same accuracy.
#[test]
fn transient_chaos_on_the_crossbar_is_healed_within_one_period() {
    let dataset = iris_like(7101).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(7101)).expect("split");
    let mut engine = FebimEngine::fit(&split.train, EngineConfig::febim_default()).expect("engine");
    let fresh_map = engine.current_map();
    let fresh_accuracy = engine.evaluate(&split.test).expect("evaluate").accuracy;

    engine.set_fault_schedule(chaos_schedule(42, 12, 200, false));
    let scheduler = run_chaos_campaign(&mut engine, 10, 200);

    assert!(
        scheduler.report().faulty_scrubs >= 1,
        "a 12-event campaign must land at least one harmful defect"
    );
    assert!(scheduler.health().is_serving());
    assert_eq!(
        engine.current_map(),
        fresh_map,
        "in-place repair must restore the exact fresh bit pattern"
    );
    let healed_accuracy = engine.evaluate(&split.test).expect("evaluate").accuracy;
    assert_eq!(
        healed_accuracy, fresh_accuracy,
        "healed accuracy must match the fresh baseline exactly"
    );
}

/// Permanent chaos on a tiled fabric with spare rows: stuck cells cannot be
/// rewritten, so the scrubber remaps their wordlines onto spares — and the
/// fabric still ends the campaign serving, bit-identical to fresh.
#[test]
fn permanent_chaos_on_a_spared_fabric_remaps_and_stays_serving() {
    let dataset = iris_like(7103).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(7103)).expect("split");
    let shape = TileShape::new(2, 24).expect("shape").with_spare_rows(2);
    let mut engine =
        FebimEngine::fit_tiled(&split.train, EngineConfig::febim_default(), shape).expect("engine");
    let fresh_map = engine.current_map();
    let fresh_accuracy = engine.evaluate(&split.test).expect("evaluate").accuracy;

    // Few events: each permanent fault consumes a spare row of its tile.
    engine.set_fault_schedule(chaos_schedule(43, 3, 120, true));
    let scheduler = run_chaos_campaign(&mut engine, 10, 120);

    assert!(
        scheduler.report().repair.rows_remapped >= 1,
        "a permanent harmful defect must consume a spare row"
    );
    assert!(
        scheduler.health().is_serving(),
        "with spare budget left the fabric must keep serving"
    );
    assert_eq!(
        engine.current_map(),
        fresh_map,
        "spare-row remaps must be invisible to the read path"
    );
    let healed_accuracy = engine.evaluate(&split.test).expect("evaluate").accuracy;
    assert_eq!(healed_accuracy, fresh_accuracy);
}

/// The software backend has no physical cells: the same chaos schedule is
/// a no-op, scrubs stay clean and accuracy never moves.
#[test]
fn the_software_backend_is_immune_to_chaos() {
    let dataset = iris_like(7105).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(7105)).expect("split");
    let mut engine =
        FebimEngine::fit_software(&split.train, EngineConfig::febim_default()).expect("engine");
    let fresh_accuracy = engine.evaluate(&split.test).expect("evaluate").accuracy;
    engine.set_fault_schedule(chaos_schedule(44, 12, 200, true));
    assert_eq!(engine.pending_faults(), 0, "no cells, nothing to strike");
    let scheduler = run_chaos_campaign(&mut engine, 10, 200);
    assert_eq!(scheduler.health(), ReplicaHealth::Healthy);
    assert_eq!(scheduler.report().faulty_scrubs, 0);
    assert_eq!(
        engine.evaluate(&split.test).expect("evaluate").accuracy,
        fresh_accuracy
    );
}

/// Blocks until `pool` has quarantined `expected` replicas, forcing scrub
/// checks as fast as the workers will take them.
fn await_quarantined(pool: &ServingPool, expected: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        pool.request_scrub();
        let quarantined = pool
            .worker_health()
            .iter()
            .filter(|health| !health.is_serving())
            .count();
        if quarantined >= expected {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pool never quarantined {expected} replicas: {:?}",
            pool.worker_health()
        );
        std::thread::yield_now();
    }
}

/// A pool whose replica 0 takes an unrepairable hit: the scrub between
/// batches quarantines it, the survivor absorbs its traffic, and every
/// ticket across the chaos is answered exactly once with the bit-correct
/// prediction.
#[test]
fn quarantine_under_load_answers_every_ticket_exactly_once() {
    let dataset = iris_like(7107).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(7107)).expect("split");
    let config = EngineConfig::febim_default();
    let mut struck = FebimEngine::fit(&split.train, config.clone()).expect("struck engine");
    struck.set_fault_schedule(FaultSchedule::new(vec![ScheduledFault {
        at_tick: 1,
        row: 1,
        column: 3,
        kind: FaultKind::StuckErased,
        permanent: true,
    }]));
    // Land the strike before deployment: the batch scheduler makes no
    // guarantee about *which* replica ages first under light load, so a
    // deterministic chaos test strikes the cell up front and lets the
    // pool's own scrub do the detection and quarantine.
    struck.advance_time(2);
    assert_eq!(struck.pending_faults(), 0, "the strike must have landed");
    let healthy = FebimEngine::fit(&split.train, config.clone()).expect("healthy engine");
    let reference = FebimEngine::fit(&split.train, config).expect("reference engine");

    let pool = ServingPool::new(
        vec![struck, healthy],
        ServingConfig::febim_default()
            .with_max_batch(4)
            .with_ticks_per_batch(5)
            .with_scrub(MaintenancePolicy::new(1_000_000, 1e-3)),
    )
    .expect("pool");

    let samples = test_samples(&split.test);
    // Phase 1: traffic against the struck pool (answers may come off the
    // corrupted replica, so only exactly-once is asserted), then forced
    // scrubs until the defect is caught and the replica quarantined.
    let warmup = pool.serve(&samples[..8.min(samples.len())]);
    assert!(warmup.iter().all(Result::is_ok), "warmup must be answered");
    await_quarantined(&pool, 1);
    assert_eq!(pool.serving_replicas(), 1);

    // Phase 2: all post-quarantine traffic lands on the survivor and
    // matches the sequential reference bit for bit.
    let answers = pool.serve(&samples);
    for (index, answer) in answers.iter().enumerate() {
        let outcome = answer.as_ref().expect("post-quarantine answer");
        assert_eq!(outcome.worker, 1, "quarantined replica must not serve");
        assert_eq!(
            outcome.prediction,
            reference
                .predict(split.test.sample(index).expect("sample"))
                .expect("reference prediction")
        );
    }

    let submitted = (warmup.len() + answers.len()) as u64;
    let stats = pool.shutdown();
    assert_eq!(stats.requests, submitted, "every ticket answered once");
    assert_eq!(stats.shutdown_rejected, 0);
    assert_eq!(stats.failed_requests, 0);
    assert_eq!(stats.crashed_workers, 0);
    assert_eq!(stats.quarantined_workers, 1);
    assert!(
        stats.maintenance.faulty_scrubs >= 1,
        "the quarantine came from a real scrub"
    );
    assert!(!stats.maintenance.repair.reports.is_empty());
    assert!(stats.maintenance.transitions >= 1);
}

/// Chaos takes out every replica of a tiled-fabric pool (no spare rows, a
/// permanent stuck cell each): the pool degrades to the exact software
/// fallback instead of rejecting traffic, and the fallback predictions
/// match the full-precision software engine.
#[test]
fn a_fully_quarantined_fabric_pool_degrades_to_software_fallback() {
    let dataset = iris_like(7109).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(7109)).expect("split");
    let config = EngineConfig::febim_default();
    let shape = TileShape::new(2, 24).expect("shape");
    let mut engine =
        FebimEngine::fit_tiled(&split.train, config.clone(), shape).expect("fabric engine");
    engine.set_fault_schedule(FaultSchedule::new(vec![ScheduledFault {
        at_tick: 1,
        row: 1,
        column: 3,
        kind: FaultKind::StuckErased,
        permanent: true,
    }]));
    // Strike before replication so both clones carry the stuck cell.
    engine.advance_time(2);
    assert_eq!(engine.pending_faults(), 0, "the strike must have landed");
    let software = FebimEngine::fit_software(&split.train, config).expect("software engine");

    let pool = ServingPool::replicate(
        &engine,
        2,
        ServingConfig::febim_default()
            .with_max_batch(4)
            .with_ticks_per_batch(5)
            .with_scrub(MaintenancePolicy::new(1_000_000, 1e-3)),
    )
    .expect("pool");

    let samples = test_samples(&split.test);
    let warmup = pool.serve(&samples[..8.min(samples.len())]);
    assert!(warmup.iter().all(Result::is_ok));
    await_quarantined(&pool, 2);
    assert_eq!(pool.serving_replicas(), 0);

    let answers = pool.serve(&samples);
    for (index, answer) in answers.iter().enumerate() {
        let outcome = answer.as_ref().expect("fallback answer");
        assert_eq!(
            outcome.prediction,
            software
                .predict(split.test.sample(index).expect("sample"))
                .expect("software prediction"),
            "fallback must answer with the exact software model"
        );
    }

    let stats = pool.shutdown();
    assert_eq!(
        stats.requests,
        (warmup.len() + answers.len()) as u64,
        "every ticket answered exactly once through the degraded pool"
    );
    assert_eq!(stats.quarantined_workers, 2);
    assert_eq!(stats.shutdown_rejected, 0);
    assert!(
        stats.fallback_served >= answers.len() as u64,
        "post-quarantine traffic must be served by the software fallback"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Spare-row repair is transparent for arbitrary permanent-fault
    /// coordinates, training seeds and tile geometries: after the scrub
    /// remaps the stuck wordline, the current map and every prediction are
    /// bit-identical to the fresh fabric.
    #[test]
    fn spare_row_remap_is_bit_transparent(
        seed in 0u64..20,
        row in 0usize..3,
        column in 0usize..48,
        tile_rows in 1usize..4,
        tile_columns in 8usize..32,
    ) {
        let dataset = iris_like(seed).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(seed)).unwrap();
        let shape = TileShape::new(tile_rows, tile_columns).unwrap().with_spare_rows(1);
        let mut engine =
            FebimEngine::fit_tiled(&split.train, EngineConfig::febim_default(), shape).unwrap();
        let fresh_map = engine.current_map();
        let fresh: Vec<usize> = (0..split.test.n_samples())
            .map(|index| engine.predict(split.test.sample(index).unwrap()).unwrap())
            .collect();

        engine.set_fault_schedule(FaultSchedule::new(vec![ScheduledFault {
            at_tick: 1,
            row,
            column,
            kind: FaultKind::StuckErased,
            permanent: true,
        }]));
        engine.advance_time(2);
        let outcome = engine.scrub(1e-6).unwrap();
        prop_assert!(outcome.fully_repaired(), "one spare row covers one stuck wordline");

        prop_assert_eq!(engine.current_map(), fresh_map);
        for (index, expected) in fresh.iter().enumerate() {
            let healed = engine.predict(split.test.sample(index).unwrap()).unwrap();
            prop_assert_eq!(healed, *expected);
        }
    }
}
