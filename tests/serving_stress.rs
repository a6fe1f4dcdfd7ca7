//! Multi-producer serving-pool stress matrix: N submitter threads hammer M
//! pool workers through the sharded lock-free rings, with randomized
//! inter-submit jitter and a busy-spinning backend to force queue
//! backpressure and cross-ring work stealing. The invariant under test is
//! **exactly-once accounting**: every admitted request is answered exactly
//! once — with its bit-correct prediction or with the typed
//! [`ServingError::ShutDown`] — across three exit paths:
//!
//! * normal drain (shutdown after all producers finish);
//! * mid-stream `abort` with a deep backlog of queued requests;
//! * a worker panicking mid-batch while the rest of the pool keeps serving.
//!
//! The instrumented backend counts every inference globally, so the normal
//! drain can additionally prove no request was inferred twice (no
//! double-pop from the rings) and none was dropped (no lost push).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::Rng;

use febim_suite::core::{EvalScratch, InferenceStep, Result as CoreResult};
use febim_suite::data::Dataset;
use febim_suite::prelude::*;

/// A crossbar backend instrumented for stress runs: counts every inference
/// across all replica clones, burns a configurable busy-spin per read (to
/// hold workers inside batches and force submitters into backpressure and
/// idle workers into stealing), and optionally panics on one specific
/// global call number.
#[derive(Debug, Clone)]
struct StressBackend {
    inner: CrossbarBackend,
    /// Inference calls observed across every clone of this backend.
    inferences: Arc<AtomicUsize>,
    /// Busy-spin iterations per inference — the service-time knob.
    spin: usize,
    /// Panic on this global call number (0 = never).
    panic_at: usize,
}

impl InferenceBackend for StressBackend {
    fn info(&self) -> BackendInfo {
        self.inner.info()
    }

    fn make_scratch(&self) -> EvalScratch {
        self.inner.make_scratch()
    }

    fn infer_into(&self, sample: &[f64], scratch: &mut EvalScratch) -> CoreResult<InferenceStep> {
        let call = self.inferences.fetch_add(1, Ordering::SeqCst) + 1;
        if self.panic_at != 0 && call == self.panic_at {
            panic!("injected stress crash at inference {call}");
        }
        for _ in 0..self.spin {
            std::hint::spin_loop();
        }
        self.inner.infer_into(sample, scratch)
    }

    fn reprogram(&mut self) -> CoreResult<()> {
        self.inner.reprogram()
    }

    fn current_map_into(&self, out: &mut Vec<f64>) -> CoreResult<()> {
        self.inner.current_map_into(out)
    }
}

struct StressRig {
    engine: FebimEngine<StressBackend>,
    inferences: Arc<AtomicUsize>,
    test: Dataset,
    /// Sequential reference prediction per test sample (from an identically
    /// trained plain crossbar engine, so the counter stays untouched).
    expected: Vec<usize>,
}

fn stress_rig(seed: u64, spin: usize, panic_at: usize) -> StressRig {
    let dataset = iris_like(seed).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(seed)).expect("split");
    let config = EngineConfig::febim_default();
    let inferences = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&inferences);
    let engine = FebimEngine::fit_with(&split.train, config.clone(), move |quantized, config| {
        Ok(StressBackend {
            inner: CrossbarBackend::new(quantized, config)?,
            inferences: counter,
            spin,
            panic_at,
        })
    })
    .expect("stress engine");
    let reference = FebimEngine::fit(&split.train, config).expect("reference engine");
    let expected: Vec<usize> = (0..split.test.n_samples())
        .map(|index| {
            reference
                .predict(split.test.sample(index).expect("sample"))
                .expect("reference prediction")
        })
        .collect();
    StressRig {
        engine,
        inferences,
        test: split.test,
        expected,
    }
}

/// One producer thread's contribution: submit `count` randomly chosen
/// requests through the blocking path with randomized jitter between
/// submissions, then wait every ticket and split the outcomes into
/// (correctly answered, shutdown-rejected) tallies.
fn produce_and_tally(
    pool: &ServingPool,
    test: &Dataset,
    expected: &[usize],
    producer_seed: u64,
    count: usize,
) -> (usize, usize) {
    let mut rng = seeded_rng(producer_seed);
    let mut pending: Vec<(usize, Ticket)> = Vec::with_capacity(count);
    for _ in 0..count {
        let index = rng.gen_range(0..test.n_samples());
        let sample = test.sample(index).expect("sample").to_vec();
        match pool.submit_blocking(sample) {
            Ok(ticket) => pending.push((index, ticket)),
            Err(ServingError::ShutDown) => break,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        // Randomized jitter: bursts from some producers, trickles from
        // others, so ring occupancies diverge and idle workers must steal.
        for _ in 0..rng.gen_range(0..400_usize) {
            std::hint::spin_loop();
        }
    }
    let mut ok = 0;
    let mut rejected = 0;
    for (index, ticket) in pending {
        match ticket.wait() {
            Ok(outcome) => {
                assert_eq!(
                    outcome.prediction, expected[index],
                    "served prediction diverged from the sequential reference"
                );
                ok += 1;
            }
            Err(ServingError::ShutDown) => rejected += 1,
            Err(other) => panic!("unexpected ticket error: {other}"),
        }
    }
    (ok, rejected)
}

/// Normal drain: every request is answered exactly once with the correct
/// prediction, and the global inference counter proves none was executed
/// twice (double-pop) or dropped (lost push).
#[test]
fn concurrent_producers_drain_exactly_once() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 60;
    let rig = stress_rig(3101, 200, 0);
    let pool = ServingPool::replicate(
        &rig.engine,
        3,
        ServingConfig::febim_default()
            .with_max_batch(8)
            .with_queue_depth(32),
    )
    .expect("pool");

    let (test, expected) = (&rig.test, &rig.expected[..]);
    let tallies: Vec<(usize, usize)> = std::thread::scope(|scope| {
        (0..PRODUCERS)
            .map(|producer| {
                let pool = &pool;
                scope.spawn(move || {
                    produce_and_tally(pool, test, expected, 9000 + producer as u64, PER_PRODUCER)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("producer thread"))
            .collect()
    });

    let ok: usize = tallies.iter().map(|(ok, _)| ok).sum();
    let rejected: usize = tallies.iter().map(|(_, rejected)| rejected).sum();
    assert_eq!(ok, PRODUCERS * PER_PRODUCER, "every request answered Ok");
    assert_eq!(rejected, 0, "nothing rejected on the healthy path");

    let stats = pool.shutdown();
    assert_eq!(stats.requests, (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(stats.shutdown_rejected, 0);
    assert_eq!(stats.crashed_workers, 0);
    assert_eq!(
        rig.inferences.load(Ordering::SeqCst),
        PRODUCERS * PER_PRODUCER,
        "each admitted request must be inferred exactly once"
    );
    // The latency telemetry covers the full stream on both clocks.
    assert_eq!(stats.queue_wait.count(), (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(stats.end_to_end.count(), (PRODUCERS * PER_PRODUCER) as u64);
}

/// Mid-stream abort with a deep backlog: served and rejected tickets
/// partition the admitted stream exactly, and the pool's statistics agree
/// with the producers' own tallies.
#[test]
fn abort_partitions_every_ticket_between_served_and_rejected() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 40;
    // Slow service (deep busy-spin) keeps a large backlog queued when the
    // last producer finishes submitting, so `abort` has real work to drain.
    let rig = stress_rig(3102, 400_000, 0);
    let pool = ServingPool::replicate(
        &rig.engine,
        2,
        ServingConfig::febim_default()
            .with_max_batch(4)
            .with_queue_depth(64),
    )
    .expect("pool");

    // Producers submit concurrently (blocking on backpressure) and hand
    // their tickets back un-waited.
    let test = &rig.test;
    let pending: Vec<(usize, Ticket)> = std::thread::scope(|scope| {
        (0..PRODUCERS)
            .map(|producer| {
                let pool = &pool;
                scope.spawn(move || {
                    let mut rng = seeded_rng(9100 + producer as u64);
                    (0..PER_PRODUCER)
                        .map(|_| {
                            let index = rng.gen_range(0..test.n_samples());
                            let sample = test.sample(index).expect("sample").to_vec();
                            let ticket = pool.submit_blocking(sample).expect("submit");
                            (index, ticket)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|handle| handle.join().expect("producer thread"))
            .collect()
    });
    assert_eq!(pending.len(), PRODUCERS * PER_PRODUCER);

    // Abort races the ticket waits: queued requests drain with the typed
    // error, in-flight ones finish with answers.
    let aborter = std::thread::spawn(move || pool.abort());
    let mut ok = 0u64;
    let mut rejected = 0u64;
    for (index, ticket) in pending {
        match ticket.wait() {
            Ok(outcome) => {
                assert_eq!(outcome.prediction, rig.expected[index]);
                ok += 1;
            }
            Err(ServingError::ShutDown) => rejected += 1,
            Err(other) => panic!("unexpected ticket error: {other}"),
        }
    }
    let stats = aborter.join().expect("abort thread");

    assert_eq!(ok + rejected, (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(stats.requests, ok, "served tally must match pool stats");
    assert_eq!(stats.shutdown_rejected, rejected);
    assert_eq!(stats.crashed_workers, 0);
    assert!(
        rejected > 0,
        "the slow backend must leave a backlog for abort to drain"
    );
}

/// Chaos under multi-producer load: one replica takes an unrepairable
/// scheduled hit while producers hammer the rings and a chaos thread
/// forces scrub checks. The struck replica is quarantined mid-stream, yet
/// every admitted ticket still resolves exactly once — and everything the
/// surviving replicas answered is bit-correct.
#[test]
fn chaos_quarantine_under_load_resolves_every_ticket_exactly_once() {
    use febim_suite::prelude::{FaultKind, FaultSchedule, MaintenancePolicy, ScheduledFault};

    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 50;
    let dataset = iris_like(3104).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(3104)).expect("split");
    let config = EngineConfig::febim_default();
    let mut struck = FebimEngine::fit(&split.train, config.clone()).expect("struck engine");
    struck.set_fault_schedule(FaultSchedule::new(vec![ScheduledFault {
        at_tick: 1,
        row: 1,
        column: 3,
        kind: FaultKind::StuckErased,
        permanent: true,
    }]));
    // Deterministic chaos: land the strike before deployment so the
    // quarantine depends only on the forced scrub, not on which replica
    // happens to age first under the randomized load.
    struck.advance_time(2);
    assert_eq!(struck.pending_faults(), 0, "the strike must have landed");
    let healthy = FebimEngine::fit(&split.train, config.clone()).expect("healthy engine");
    let reference = FebimEngine::fit(&split.train, config).expect("reference engine");
    let expected: Vec<usize> = (0..split.test.n_samples())
        .map(|index| {
            reference
                .predict(split.test.sample(index).expect("sample"))
                .expect("reference prediction")
        })
        .collect();

    let pool = ServingPool::new(
        vec![struck, healthy.clone(), healthy],
        ServingConfig::febim_default()
            .with_max_batch(8)
            .with_queue_depth(32)
            .with_ticks_per_batch(5)
            .with_scrub(MaintenancePolicy::new(1_000_000, 1e-3)),
    )
    .expect("pool");

    let test = &split.test;
    let (ok, rejected) = std::thread::scope(|scope| {
        // The chaos thread forces scrub checks until the struck replica is
        // caught and quarantined, then lets the producers finish.
        let chaos = {
            let pool = &pool;
            scope.spawn(move || {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                while pool
                    .worker_health()
                    .iter()
                    .all(|health| health.is_serving())
                {
                    pool.request_scrub();
                    assert!(
                        std::time::Instant::now() < deadline,
                        "the struck replica was never quarantined"
                    );
                    std::thread::yield_now();
                }
            })
        };
        let tallies: Vec<(usize, usize)> = (0..PRODUCERS)
            .map(|producer| {
                let pool = &pool;
                let expected = &expected[..];
                scope.spawn(move || {
                    let mut rng = seeded_rng(9300 + producer as u64);
                    let mut pending: Vec<(usize, Ticket)> = Vec::with_capacity(PER_PRODUCER);
                    for _ in 0..PER_PRODUCER {
                        let index = rng.gen_range(0..test.n_samples());
                        let sample = test.sample(index).expect("sample").to_vec();
                        let ticket = pool.submit_blocking(sample).expect("submit");
                        pending.push((index, ticket));
                        for _ in 0..rng.gen_range(0..400_usize) {
                            std::hint::spin_loop();
                        }
                    }
                    let mut ok = 0;
                    let mut rejected = 0;
                    for (index, ticket) in pending {
                        match ticket.wait() {
                            Ok(outcome) => {
                                // Answers from surviving replicas must be
                                // bit-correct; the struck replica may have
                                // answered corrupted reads before its
                                // quarantine, so only its origin is checked.
                                if outcome.worker != 0 {
                                    assert_eq!(outcome.prediction, expected[index]);
                                }
                                ok += 1;
                            }
                            Err(ServingError::ShutDown) => rejected += 1,
                            Err(other) => panic!("unexpected ticket error: {other}"),
                        }
                    }
                    (ok, rejected)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("producer thread"))
            .collect();
        chaos.join().expect("chaos thread");
        (
            tallies.iter().map(|(ok, _)| *ok).sum::<usize>(),
            tallies.iter().map(|(_, rejected)| *rejected).sum::<usize>(),
        )
    });

    assert_eq!(ok, PRODUCERS * PER_PRODUCER, "every ticket answered Ok");
    assert_eq!(rejected, 0, "no shutdown raced the producers");
    let health = pool.worker_health();
    assert!(!health[0].is_serving(), "the struck replica stays out");
    assert_eq!(pool.serving_replicas(), 2);

    let stats = pool.shutdown();
    assert_eq!(stats.requests, (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(stats.shutdown_rejected, 0);
    assert_eq!(stats.crashed_workers, 0);
    assert_eq!(stats.quarantined_workers, 1);
    assert!(
        stats.maintenance.faulty_scrubs >= 1,
        "quarantine must come from a real scrub"
    );
    assert!(!stats.maintenance.repair.reports.is_empty());
    assert!(stats.maintenance.transitions >= 1);
    assert_eq!(stats.workers[0].quarantined_workers, 1);
    assert_eq!(stats.fallback_served, 0, "survivors carried the load");
}

/// A worker panicking mid-batch under multi-producer load: its in-flight
/// jobs resolve to the typed error via the drop guards, the surviving
/// workers keep serving correct answers, and the crash is surfaced in the
/// pool statistics.
#[test]
fn worker_panic_under_load_never_hangs_a_ticket() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 50;
    let rig = stress_rig(3103, 500, 101);
    let pool = ServingPool::replicate(
        &rig.engine,
        3,
        ServingConfig::febim_default()
            .with_max_batch(8)
            .with_queue_depth(32),
    )
    .expect("pool");

    let (test, expected) = (&rig.test, &rig.expected[..]);
    let tallies: Vec<(usize, usize)> = std::thread::scope(|scope| {
        (0..PRODUCERS)
            .map(|producer| {
                let pool = &pool;
                scope.spawn(move || {
                    produce_and_tally(pool, test, expected, 9200 + producer as u64, PER_PRODUCER)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("producer thread"))
            .collect()
    });

    let ok: u64 = tallies.iter().map(|(ok, _)| *ok as u64).sum();
    let rejected: u64 = tallies.iter().map(|(_, rejected)| *rejected as u64).sum();
    // Every admitted ticket resolved (the waits above returned) and the
    // panicking worker's own in-flight job is guaranteed among the rejects.
    assert!(ok + rejected <= (PRODUCERS * PER_PRODUCER) as u64);
    assert!(rejected >= 1, "the crashed batch must reject its jobs");
    assert!(ok > 0, "surviving workers must keep serving");

    let stats = pool.shutdown();
    assert_eq!(stats.crashed_workers, 1);
    assert_eq!(
        stats
            .workers
            .iter()
            .filter(|report| report.crashed_workers == 1)
            .count(),
        1
    );
    // The crashed worker's report (its served count) is lost, so the pool
    // statistics can only undercount the producers' Ok tally.
    assert!(stats.requests <= ok);
}
