//! Self-healing: online fault detection, spare-row repair and replica
//! quarantine/failover under a seeded chaos schedule.
//!
//! Three acts:
//!
//! 1. **Scrub and repair.** A tiled fabric with spare rows takes scheduled
//!    stuck-at hits while a scrub-only [`Maintenance`] schedule runs
//!    periodic BIST-style signature checks: transient faults are healed in
//!    place, a permanent stuck cell consumes a spare row, and the replica's
//!    health walks Healthy → Degraded → Healthy as the chaos passes.
//! 2. **Quarantine and failover.** A two-replica serving pool takes an
//!    unrepairable hit on replica 0 (no spare rows this time): the
//!    between-batches scrub quarantines it and the survivor absorbs all
//!    traffic without dropping a single ticket.
//! 3. **Graceful degradation.** When chaos takes out *every* replica the
//!    pool falls back to the exact software model instead of going dark.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example self_healing
//! ```

use febim_suite::prelude::*;

fn chaos(permanent: bool) -> FaultSchedule {
    FaultSchedule::new(vec![
        ScheduledFault {
            at_tick: 25,
            row: 1,
            column: 3,
            kind: FaultKind::StuckErased,
            permanent: false,
        },
        ScheduledFault {
            at_tick: 55,
            row: 2,
            column: 7,
            kind: FaultKind::StuckProgrammed,
            permanent,
        },
    ])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = iris_like(21)?;
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(21))?;
    let config = EngineConfig::febim_default();

    // Act 1: scheduled chaos against a fabric with one spare row per tile,
    // scrubbed every 10 ticks.
    let shape = TileShape::new(2, 24)?.with_spare_rows(1);
    let mut engine = FebimEngine::fit_tiled(&split.train, config.clone(), shape)?;
    let fresh_accuracy = engine.evaluate(&split.test)?.accuracy;
    let fresh_map = engine.current_map();
    engine.set_fault_schedule(chaos(true));
    let mut maintenance = Maintenance::new(None, Some(MaintenancePolicy::new(10, 1e-6)))?;
    println!("act 1: chaos vs a spared fabric (scrub every 10 ticks)");
    for window in 1..=8 {
        let struck_before = engine.pending_faults();
        let (_, repair) = maintenance.tick(&mut engine, 10);
        match repair? {
            Some(outcome) => println!(
                "  t={:3}: scrub found {} defect(s), repaired {} (rows remapped {}), \
                 health {:?}",
                window * 10,
                outcome.stuck_cells + outcome.cells_repaired,
                outcome.cells_repaired,
                outcome.rows_remapped,
                maintenance.health(),
            ),
            None => println!(
                "  t={:3}: clean ({} strike(s) pending), health {:?}",
                window * 10,
                struck_before,
                maintenance.health(),
            ),
        }
    }
    let healed_accuracy = engine.evaluate(&split.test)?.accuracy;
    assert_eq!(engine.current_map(), fresh_map);
    assert_eq!(healed_accuracy, fresh_accuracy);
    println!(
        "  healed: accuracy {:.4} == fresh {:.4}, bit pattern restored, \
         {} check(s) run, {} skipped as epoch no-ops\n",
        healed_accuracy,
        fresh_accuracy,
        maintenance.report().scrub_checks,
        maintenance.report().scrub_skips,
    );

    // Act 2: the same permanent hit against a pool replica with no spare
    // rows — unrepairable, so the scrub between batches quarantines it.
    let mut struck = FebimEngine::fit(&split.train, config.clone())?;
    struck.set_fault_schedule(chaos(true));
    // Land the strikes before deployment so the pool's own scrub owns the
    // whole detection story.
    struck.advance_time(60);
    let healthy = FebimEngine::fit(&split.train, config.clone())?;
    let serving = ServingConfig::febim_default()
        .with_max_batch(8)
        .with_scrub(MaintenancePolicy::new(1_000_000, 1e-3));
    let pool = ServingPool::new(vec![struck, healthy], serving)?;
    let samples: Vec<Vec<f64>> = (0..split.test.n_samples())
        .map(|index| split.test.sample(index).expect("sample").to_vec())
        .collect();
    println!("act 2: the same chaos vs a 2-replica pool without spares");
    while pool
        .worker_health()
        .iter()
        .all(|health| health.is_serving())
    {
        pool.request_scrub();
        std::thread::yield_now();
    }
    println!(
        "  health after chaos: {:?}, {} of {} replicas serving",
        pool.worker_health(),
        pool.serving_replicas(),
        pool.replicas(),
    );
    let answers = pool.serve(&samples);
    let survivors: Vec<usize> = answers
        .iter()
        .map(|answer| answer.as_ref().expect("served").worker)
        .collect();
    assert!(survivors.iter().all(|&worker| worker == 1));
    let stats = pool.shutdown();
    println!(
        "  survivor served {} post-quarantine answers; stats: {} scrub(s), \
         {} defect(s) detected, {} health transition(s), {} quarantined\n",
        answers.len(),
        stats.maintenance.faulty_scrubs,
        stats.maintenance.repair.reports.len(),
        stats.maintenance.transitions,
        stats.quarantined_workers,
    );

    // Act 3: chaos takes out every replica — the pool degrades to the
    // exact software fallback instead of rejecting traffic.
    let mut doomed = FebimEngine::fit(&split.train, config.clone())?;
    doomed.set_fault_schedule(chaos(true));
    doomed.advance_time(60);
    let pool = ServingPool::replicate(
        &doomed,
        2,
        ServingConfig::febim_default()
            .with_max_batch(8)
            .with_scrub(MaintenancePolicy::new(1_000_000, 1e-3)),
    )?;
    let software = FebimEngine::fit_software(&split.train, config)?;
    println!("act 3: chaos vs every replica of the pool");
    while pool.serving_replicas() > 0 {
        pool.request_scrub();
        std::thread::yield_now();
    }
    let answers = pool.serve(&samples);
    let mut agree = 0usize;
    for (index, answer) in answers.iter().enumerate() {
        let outcome = answer.as_ref().expect("fallback answer");
        let reference = software.predict(split.test.sample(index).expect("sample"))?;
        assert_eq!(outcome.prediction, reference);
        agree += 1;
    }
    let stats = pool.shutdown();
    println!(
        "  0 physical replicas left; software fallback answered {} request(s) \
         ({agree} verified against the exact software model, {} recorded as fallback)",
        answers.len(),
        stats.fallback_served,
    );
    Ok(())
}
