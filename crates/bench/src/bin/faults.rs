//! Self-healing benchmark: detection latency, repair cost and the price of
//! serving through a degraded pool.
//!
//! Four questions, one record:
//!
//! 1. **How fast are defects caught?** A seeded chaos campaign strikes a
//!    spared tiled fabric while a `ScrubScheduler` runs periodic signature
//!    checks; the run measures the worst detection latency in scrub
//!    periods and gates it against the checked-in
//!    `max_detection_periods` of `FAULT_BUDGET.json` (a defect must never
//!    outlive the check that closes its strike window).
//! 2. **What does repair cost?** The scrub outcome's programming-pulse and
//!    energy totals price the healing work; pulses per repaired cell are
//!    gated against `max_repair_pulses_per_cell`.
//! 3. **Is accuracy restored?** fresh → faulted → healed accuracy is
//!    measured on the same engine; the healed/fresh retention is gated
//!    against `min_healed_retention` (spare-row remaps and in-place
//!    repairs are bit-exact, so the retention must be exactly 1).
//! 4. **What does failover cost?** A healthy 2-replica pool is timed
//!    against the same pool with one replica quarantined by an
//!    unrepairable defect; the survivor's overhead factor is recorded
//!    (not gated — it is allowed to cost more, it just has to be honest)
//!    and every post-quarantine answer is verified bit-correct.
//!
//! Everything lands in `BENCH_faults.json`.
//!
//! Usage:
//!
//! ```console
//! cargo run --release -p febim-bench --bin faults \
//!     [-- --quick] [--out PATH] [--budget PATH]
//! ```
//!
//! `--quick` shortens the measurement (used by the CI bench-smoke step);
//! `--out` overrides the output path (default `BENCH_faults.json`);
//! `--budget` overrides the budget file path (default `FAULT_BUDGET.json`).

use std::time::Instant;

use rand::Rng;
use serde::Serialize;

use febim_bench::{request_stream, Gate, Header, Record};
use febim_core::{
    EngineConfig, FebimEngine, ReplicaHealth, ScrubPolicy, ScrubScheduler, ServingConfig,
    ServingPool,
};
use febim_crossbar::{FaultKind, FaultSchedule, ScheduledFault, TileShape};
use febim_data::rng::seeded_rng;
use febim_data::split::stratified_split;
use febim_data::synthetic::iris_like;

/// The persisted record tracking the self-healing trajectory.
#[derive(Debug, Serialize)]
struct FaultRecord {
    header: Header,
    /// Chaos events scheduled against the scrubbed fabric.
    faults_scheduled: usize,
    /// Scrub checks actually run across the campaign.
    scrub_checks: u64,
    /// Due checks skipped because the state epoch had not moved.
    scrub_skips: u64,
    /// Defective cells the campaign detected (benign strikes — a stuck
    /// level equal to the programmed target — are invisible by design).
    faults_detected: usize,
    /// Cells healed in place or via spare rows.
    cells_repaired: u64,
    /// Wordlines remapped onto spare rows.
    rows_remapped: u64,
    /// Worst observed detection latency in scrub periods — the gated
    /// headline: no defect may outlive the check closing its window.
    detection_periods: u64,
    /// The `max_detection_periods` gate.
    max_detection_periods: f64,
    /// Programming pulses spent on repairs.
    repair_pulses: u64,
    /// Repair energy in joules.
    repair_energy_j: f64,
    /// Pulses per repaired cell — the gated repair-cost metric.
    repair_pulses_per_cell: f64,
    /// The `max_repair_pulses_per_cell` gate.
    max_repair_pulses_per_cell: f64,
    /// Accuracy of the fresh fabric.
    fresh_accuracy: f64,
    /// Accuracy with every chaos event struck and nothing healed.
    faulted_accuracy: f64,
    /// Accuracy after one full scrub pass over the struck fabric.
    healed_accuracy: f64,
    /// `healed / fresh` — gated to be exactly 1 (bit-exact repair).
    healed_retention: f64,
    /// The `min_healed_retention` gate.
    min_healed_retention: f64,
    /// Requests timed through each pool configuration.
    requests: usize,
    /// ns/request of the healthy 2-replica pool.
    healthy_ns_per_request: f64,
    /// ns/request of the same pool with one replica quarantined.
    degraded_ns_per_request: f64,
    /// `degraded / healthy` — what losing a replica costs (recorded, not
    /// gated).
    failover_overhead: f64,
    /// Replicas the degraded run ended with in quarantine.
    quarantined_workers: u64,
    /// Requests the degraded run answered through the software fallback
    /// (zero here: one survivor keeps the physical path alive).
    fallback_served: u64,
}

/// A deterministic chaos campaign: `events` transient stuck-at faults at
/// seeded random coordinates plus two permanent hits that must consume
/// spare rows.
fn chaos_schedule(seed: u64, events: usize, horizon: u64) -> FaultSchedule {
    let mut rng = seeded_rng(seed);
    let mut faults: Vec<ScheduledFault> = (0..events)
        .map(|_| ScheduledFault {
            at_tick: rng.gen_range(1..horizon),
            row: rng.gen_range(0..3),
            column: rng.gen_range(0..48),
            kind: if rng.gen_range(0..2_u32) == 0 {
                FaultKind::StuckErased
            } else {
                FaultKind::StuckProgrammed
            },
            permanent: false,
        })
        .collect();
    faults.push(ScheduledFault {
        at_tick: horizon / 3,
        row: 1,
        column: 3,
        kind: FaultKind::StuckErased,
        permanent: true,
    });
    faults.push(ScheduledFault {
        at_tick: 2 * horizon / 3,
        row: 2,
        column: 30,
        kind: FaultKind::StuckProgrammed,
        permanent: true,
    });
    FaultSchedule::new(faults)
}

/// ns/request of one full `serve` pass over `requests`.
fn measure_pool(pool: &ServingPool, requests: &[Vec<f64>]) -> f64 {
    let start = Instant::now();
    let answers = pool.serve(requests);
    let elapsed = start.elapsed().as_nanos() as f64 / requests.len() as f64;
    assert!(
        answers.iter().all(Result::is_ok),
        "every timed request must be answered"
    );
    elapsed
}

fn main() {
    let record = Record::gated("faults", "FAULT_BUDGET.json");
    let transient_events = record.pick(8, 24);
    let horizon: u64 = record.pick(120, 360);
    let interval: u64 = 10;
    let request_count = record.pick(2_000, 10_000);
    let max_detection_periods = record.budget("max_detection_periods");
    let max_repair_pulses_per_cell = record.budget("max_repair_pulses_per_cell");
    let min_healed_retention = record.budget("min_healed_retention");

    println!(
        "faults: {transient_events}+2 chaos events over {horizon} ticks, scrub every \
         {interval} ticks, {request_count} timed requests per pool ({} mode)\n",
        record.mode()
    );

    let dataset = iris_like(42).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(42)).expect("split");
    let config = EngineConfig::febim_default();
    let shape = TileShape::new(2, 24).expect("shape").with_spare_rows(2);
    let schedule = chaos_schedule(4242, transient_events, horizon);
    let faults_scheduled = schedule.events().len();

    // 1 + 2. Detection latency and repair cost: the scrubbed chaos
    // campaign. After every check the engine's worst effective threshold
    // shift must be zero — a surviving defect extends the observed
    // detection latency past one period.
    let mut engine =
        FebimEngine::fit_tiled(&split.train, config.clone(), shape).expect("fabric engine");
    let fresh_accuracy = engine.evaluate(&split.test).expect("evaluate").accuracy;
    engine.set_fault_schedule(schedule.clone());
    let mut scheduler = ScrubScheduler::new(ScrubPolicy::new(interval, 1e-6)).expect("scheduler");
    let mut dirty_streak = 0u64;
    let mut worst_streak = 0u64;
    let mut elapsed = 0u64;
    while elapsed < horizon + interval {
        scheduler.tick(&mut engine, interval).expect("scrub tick");
        elapsed += interval;
        if engine.worst_effective_shift() > 0.0 {
            dirty_streak += 1;
            worst_streak = worst_streak.max(dirty_streak);
        } else {
            dirty_streak = 0;
        }
    }
    let detection_periods = 1 + worst_streak;
    assert_eq!(engine.pending_faults(), 0, "the chaos horizon must elapse");
    assert_ne!(
        scheduler.health(),
        ReplicaHealth::Quarantined,
        "two spare rows per tile must absorb the two permanent hits"
    );
    let report = scheduler.report().clone();
    let faults_detected = report.outcome.reports.len();
    let repair_pulses_per_cell =
        report.outcome.pulses_applied as f64 / (report.outcome.cells_repaired.max(1)) as f64;
    println!(
        "chaos: {faults_detected}/{faults_scheduled} scheduled events detected as defects \
         ({} checks, {} epoch-skips), {} cells repaired, {} rows remapped",
        report.checks,
        report.skipped_checks,
        report.outcome.cells_repaired,
        report.outcome.rows_remapped,
    );
    println!(
        "repair: {} pulses, {:.3e} J",
        report.outcome.pulses_applied, report.outcome.energy_joules,
    );
    // No defect may outlive the scrub that closes its strike window.
    Gate::at_most(
        "worst detection latency in scrub periods",
        max_detection_periods,
    )
    .check(detection_periods as f64);
    Gate::at_most("repair pulses per healed cell", max_repair_pulses_per_cell)
        .check(repair_pulses_per_cell);

    // 3. Accuracy restoration: strike everything on a second engine with
    // no scrubbing, then heal it with one pass.
    let mut struck =
        FebimEngine::fit_tiled(&split.train, config.clone(), shape).expect("struck engine");
    struck.set_fault_schedule(schedule);
    struck.advance_time(horizon + 1);
    let faulted_accuracy = struck.evaluate(&split.test).expect("evaluate").accuracy;
    let outcome = struck.scrub(1e-6).expect("healing scrub");
    assert!(outcome.fully_repaired(), "spares must cover the chaos");
    let healed_accuracy = struck.evaluate(&split.test).expect("evaluate").accuracy;
    let healed_retention = healed_accuracy / fresh_accuracy;
    println!(
        "accuracy: fresh {fresh_accuracy:.4} -> faulted {faulted_accuracy:.4} -> healed \
         {healed_accuracy:.4}"
    );
    Gate::at_least("healed/fresh accuracy retention", min_healed_retention).check(healed_retention);

    // 4. Failover overhead: a healthy 2-replica pool vs the same pool
    // serving through one survivor after a quarantine.
    let requests = request_stream(&split.test, request_count);
    let reference = FebimEngine::fit(&split.train, config.clone()).expect("reference engine");
    let healthy_engine = FebimEngine::fit(&split.train, config.clone()).expect("healthy engine");
    let serving_config = ServingConfig::febim_default()
        .with_max_batch(8)
        .with_queue_depth(64)
        .with_scrub(ScrubPolicy::new(1_000_000, 1e-3));
    let healthy_pool =
        ServingPool::replicate(&healthy_engine, 2, serving_config).expect("healthy pool");
    let healthy_ns = measure_pool(&healthy_pool, &requests);
    healthy_pool.shutdown();

    let mut quarantine_me = FebimEngine::fit(&split.train, config).expect("doomed engine");
    quarantine_me.set_fault_schedule(FaultSchedule::new(vec![ScheduledFault {
        at_tick: 1,
        row: 1,
        column: 3,
        kind: FaultKind::StuckErased,
        permanent: true,
    }]));
    quarantine_me.advance_time(2);
    let degraded_pool = ServingPool::new(vec![quarantine_me, healthy_engine], serving_config)
        .expect("degraded pool");
    while degraded_pool
        .worker_health()
        .iter()
        .all(|health| health.is_serving())
    {
        degraded_pool.request_scrub();
        std::thread::yield_now();
    }
    assert_eq!(degraded_pool.serving_replicas(), 1);
    let degraded_ns = measure_pool(&degraded_pool, &requests);
    // Spot-check bit-correctness of the survivor's answers.
    for index in 0..split.test.n_samples() {
        let sample = split.test.sample(index).expect("sample");
        let outcome = degraded_pool
            .submit(sample.to_vec())
            .expect("submit")
            .wait()
            .expect("survivor answer");
        assert_eq!(outcome.worker, 1, "the quarantined replica must not serve");
        assert_eq!(
            outcome.prediction,
            reference.predict(sample).expect("reference prediction"),
            "post-quarantine answers must stay bit-correct"
        );
    }
    let degraded_stats = degraded_pool.shutdown();
    let failover_overhead = degraded_ns / healthy_ns;
    println!(
        "failover: healthy {healthy_ns:.1} ns/request, one-survivor {degraded_ns:.1} \
         ns/request ({failover_overhead:.2}x), {} quarantined, {} fallback-served",
        degraded_stats.quarantined_workers, degraded_stats.fallback_served,
    );
    assert_eq!(degraded_stats.quarantined_workers, 1);
    assert!(degraded_stats.scrubs >= 1);
    assert!(degraded_stats.faults_detected >= 1);

    record.write(&FaultRecord {
        header: record.header(),
        faults_scheduled,
        scrub_checks: report.checks,
        scrub_skips: report.skipped_checks,
        faults_detected,
        cells_repaired: report.outcome.cells_repaired,
        rows_remapped: report.outcome.rows_remapped,
        detection_periods,
        max_detection_periods,
        repair_pulses: report.outcome.pulses_applied,
        repair_energy_j: report.outcome.energy_joules,
        repair_pulses_per_cell,
        max_repair_pulses_per_cell,
        fresh_accuracy,
        faulted_accuracy,
        healed_accuracy,
        healed_retention,
        min_healed_retention,
        requests: request_count,
        healthy_ns_per_request: healthy_ns,
        degraded_ns_per_request: degraded_ns,
        failover_overhead,
        quarantined_workers: degraded_stats.quarantined_workers,
        fallback_served: degraded_stats.fallback_served,
    });
}
