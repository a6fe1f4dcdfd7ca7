//! `iris-pool`: closed-loop serving through a one-replica `ServingPool`.
//!
//! One client thread keeps [`OUTSTANDING`] requests outstanding and polls each
//! ticket with `Ticket::wait_timeout(0)`. The pool's one worker runs the
//! monolithic iris-scale engine (3×64 one-hot) in batches of up to 8. Two
//! threads in all. One inference costs little, so admission, batch
//! coalescing and ticket completion dominate.

use std::time::Instant;

use febim_core::{
    CrossbarBackend, EngineConfig, EvalScratch, FebimEngine, InferenceStep, PoolStats,
    ServingConfig, ServingPool, Ticket,
};
use febim_data::rng::seeded_rng;
use febim_data::split::stratified_split;
use febim_data::synthetic::{iris_like, iris_like_spec, ClassSpec};
use febim_data::Dataset;

use crate::common::{
    array_write_cost, build_engine, fit_and_quantize, report_setup, same_answer, secs_since, Args,
    EvidenceRepeats, Metrics, ModelTally, Report, SplitMix64, END_TO_END, MODEL_SEED, PER_LAYER,
};
use crate::host;
use crate::replay::{self, Replayer};
use crate::stats::{median, BlockPercentiles, WINDOW};
use crate::trace::{Off, Probe, SpanId, Tracer, ROOT};

/// Requests the client keeps outstanding.
const OUTSTANDING: usize = 32;
/// Requests generated (with their references) per block.
const BLOCK: usize = 16_384;
/// Timed blocks per `--seconds`: about 0.65 s of serving on a 2-vCPU host,
/// the rest of the second going to inputs and references.
const BLOCKS_PER_SECOND: u64 = 64;
const WARMUP_BLOCKS: u64 = 2;
/// Identical builds whose median is `setup_s`.
const SETUP_BUILDS: usize = 31;
/// Blocks served both untraced and traced, for `trace.overhead_frac`.
const TRACED_BLOCKS: u64 = 6;
/// Batches of `max_batch` replayed layer by layer.
const REPLAY_BATCHES: usize = 512;

/// Input-stream tags, one per phase.
const WARMUP: u64 = 1;
const TIMED: u64 = 2;
const TRACED: u64 = 3;

struct Block {
    samples: Vec<Vec<f64>>,
    labels: Vec<usize>,
    reference: Vec<InferenceStep>,
}

/// Fresh requests drawn from the training distribution, with their
/// sequential `infer_into` references (computed outside any timing).
fn make_block(
    seed: u64,
    classes: &[ClassSpec],
    engine: &FebimEngine<CrossbarBackend>,
    scratch: &mut EvalScratch,
) -> Block {
    let mut rng = SplitMix64(seed);
    let labels: Vec<usize> = (0..BLOCK).map(|_| rng.below(classes.len())).collect();
    let samples: Vec<Vec<f64>> = labels
        .iter()
        .map(|&label| rng.sample(&classes[label]))
        .collect();
    let reference = samples
        .iter()
        .map(|sample| {
            engine
                .infer_into(sample, scratch)
                .expect("reference inference")
        })
        .collect();
    Block {
        samples,
        labels,
        reference,
    }
}

struct InFlight {
    ticket: Ticket,
    index: usize,
    sent: Instant,
    span: SpanId,
}

/// Per-block outcome of [`serve_block`].
#[derive(Debug, Default, Clone, Copy)]
struct Served {
    /// Answers bit-identical to their reference.
    matched: u64,
    /// Wall time of the block, in seconds.
    secs: f64,
}

/// Moves requests into the pool until `slot` holds one in flight or the
/// block is exhausted. A refused request counts as answered, unmatched and
/// slower than any limit.
fn submit_next<P: Probe>(
    pool: &ServingPool,
    block: &mut Block,
    next: &mut usize,
    answered: &mut usize,
    latencies: &mut [u64],
    probe: &mut P,
    first_request: u64,
) -> Option<InFlight> {
    while *next < block.samples.len() {
        let index = *next;
        *next += 1;
        let request = first_request + index as u64;
        let span = probe.open("client.request", ROOT, request);
        let submit = probe.open("serving.submit", span, request);
        let sent = Instant::now();
        let result = pool.submit(std::mem::take(&mut block.samples[index]));
        probe.close(submit);
        match result {
            Ok(ticket) => {
                return Some(InFlight {
                    ticket,
                    index,
                    sent,
                    span,
                })
            }
            Err(_) => {
                probe.close(span);
                latencies[index] = u64::MAX;
                *answered += 1;
            }
        }
    }
    None
}

/// Serves one block with [`OUTSTANDING`] requests outstanding, polling
/// every ticket in turn. Records each request's submit-to-answer latency,
/// and the answer rate of every [`WINDOW`] answers.
fn serve_block<P: Probe>(
    pool: &ServingPool,
    block: &mut Block,
    latencies: &mut Vec<u64>,
    rates: &mut Vec<f64>,
    probe: &mut P,
    first_request: u64,
) -> Served {
    let n = block.samples.len();
    latencies.clear();
    latencies.resize(n, 0);
    let start = Instant::now();
    let mut mark = start;
    let (mut next, mut answered, mut matched) = (0, 0, 0);
    let mut slots: [Option<InFlight>; OUTSTANDING] = std::array::from_fn(|_| None);
    for slot in &mut slots {
        *slot = submit_next(
            pool,
            block,
            &mut next,
            &mut answered,
            latencies,
            probe,
            first_request,
        );
    }
    while answered < n {
        for slot in &mut slots {
            let Some(inflight) = slot.take() else {
                continue;
            };
            match inflight.ticket.wait_timeout(0) {
                Err(ticket) => *slot = Some(InFlight { ticket, ..inflight }),
                Ok(result) => {
                    latencies[inflight.index] = inflight.sent.elapsed().as_nanos() as u64;
                    probe.close(inflight.span);
                    answered += 1;
                    if answered % WINDOW == 0 {
                        let now = Instant::now();
                        rates.push(WINDOW as f64 / (now - mark).as_secs_f64());
                        mark = now;
                    }
                    matched += u64::from(result.is_ok_and(|outcome| {
                        same_answer(&outcome, &block.reference[inflight.index])
                    }));
                    *slot = submit_next(
                        pool,
                        block,
                        &mut next,
                        &mut answered,
                        latencies,
                        probe,
                        first_request,
                    );
                }
            }
        }
    }
    Served {
        matched,
        secs: secs_since(start),
    }
}

/// One build: fit, quantize, compile + program, pool spawn. Returns the
/// reference engine (a clone made outside the timing), the pool and the
/// build's seconds.
fn build<P: Probe>(
    train: &Dataset,
    config: &EngineConfig,
    serving: ServingConfig,
    probe: &mut P,
) -> (FebimEngine<CrossbarBackend>, ServingPool, f64) {
    let start = Instant::now();
    let parent = probe.open("setup.build", ROOT, 0);
    let parts = fit_and_quantize(train, config, probe, parent);
    let engine = build_engine(&parts, config, probe, parent, CrossbarBackend::new);
    let fitted_s = secs_since(start);
    let reference = engine.clone();
    let start = Instant::now();
    let span = probe.open("serving.spawn", parent, 0);
    let pool = ServingPool::new(vec![engine], serving).expect("pool spawns");
    probe.close(span);
    probe.close(parent);
    (reference, pool, fitted_s + secs_since(start))
}

/// The serving pool under test with what every phase shares.
struct Rig {
    engine: FebimEngine<CrossbarBackend>,
    pool: ServingPool,
    scratch: EvalScratch,
    latencies: Vec<u64>,
    classes: Vec<ClassSpec>,
    /// Requests handed to the pool so far.
    submitted: u64,
}

impl Rig {
    fn block(&mut self, seed: u64) -> Block {
        make_block(seed, &self.classes, &self.engine, &mut self.scratch)
    }

    fn serve<P: Probe>(
        &mut self,
        block: &mut Block,
        rates: &mut Vec<f64>,
        probe: &mut P,
        first_request: u64,
    ) -> Served {
        self.submitted += block.samples.len() as u64;
        serve_block(
            &self.pool,
            block,
            &mut self.latencies,
            rates,
            probe,
            first_request,
        )
    }

    /// Shuts the pool down. Returns the engine, the pool's statistics and
    /// whether the pool answered every request it took without a failure.
    fn finish(self) -> (FebimEngine<CrossbarBackend>, PoolStats, bool) {
        let stats = self.pool.shutdown();
        let ok = stats.requests == self.submitted
            && stats.failed_requests == 0
            && stats.shutdown_rejected == 0
            && stats.crashed_workers == 0;
        (self.engine, stats, ok)
    }
}

pub fn run(args: &Args) -> Report {
    let config = EngineConfig::febim_default();
    let serving = ServingConfig::febim_default();
    let dataset = iris_like(MODEL_SEED).expect("iris-like dataset");
    let train = stratified_split(&dataset, 0.7, &mut seeded_rng(MODEL_SEED))
        .expect("stratified split")
        .train;
    let mut tracer = Tracer::new(if args.trace { 1 << 19 } else { 0 });

    // Builds run on the second CPU, so the pool worker inherits it; the
    // client then moves to the first.
    let cpus = host::allowed_cpus().unwrap_or_default();
    let pinned = match cpus.as_slice() {
        [client, worker, ..] => host::pin_to(*worker).map(|_| *client),
        _ => Err("fewer than two CPUs".to_string()),
    };
    let mut setup = Vec::with_capacity(SETUP_BUILDS);
    let mut built: Option<(FebimEngine<CrossbarBackend>, ServingPool)> = None;
    for _ in 0..SETUP_BUILDS {
        // The previous build's worker stops first, so it cannot compete
        // with the next build for the CPU.
        if let Some((_, old)) = built.take() {
            let _ = old.shutdown();
        }
        let (engine, pool, secs) = if args.trace {
            build(&train, &config, serving, &mut tracer)
        } else {
            build(&train, &config, serving, &mut Off)
        };
        setup.push(secs);
        built = Some((engine, pool));
    }
    let (engine, pool) = built.expect("at least one build");
    let pinned = pinned.and_then(host::pin_to);
    let mut rig = Rig {
        scratch: engine.make_scratch(),
        engine,
        pool,
        latencies: Vec::with_capacity(BLOCK),
        classes: iris_like_spec().classes,
        submitted: 0,
    };
    for index in 0..WARMUP_BLOCKS {
        let mut block = rig.block(args.stream_seed(WARMUP, index));
        rig.serve(&mut block, &mut Vec::new(), &mut Off, 0);
    }
    let mut info = vec![
        ("outstanding", OUTSTANDING.to_string()),
        ("max_batch", serving.max_batch.to_string()),
        ("threads_planned", "2".to_string()),
        (
            "pinning",
            pinned.map_or_else(
                |err| format!("unpinned ({err})"),
                |client| format!("client on CPU {client}, worker on CPU {}", cpus[1]),
            ),
        ),
    ];
    if args.trace {
        layers(args, rig, tracer, serving, info)
    } else {
        info.push(("setup_builds", SETUP_BUILDS.to_string()));
        end_to_end(args, rig, median(&mut setup), info)
    }
}

/// The end-to-end run: fixed request count, tracing off.
fn end_to_end(
    args: &Args,
    mut rig: Rig,
    setup_s: f64,
    mut info: Vec<(&'static str, String)>,
) -> Report {
    let mut metrics = Metrics::new(&END_TO_END);
    let blocks = BLOCKS_PER_SECOND * args.seconds;
    let (mut attempted, mut matched) = (0u64, 0u64);
    let mut tally = ModelTally::default();
    let mut repeats = EvidenceRepeats::default();
    let mut percentiles = BlockPercentiles::default();
    let mut timed_s = 0.0;
    let mut rates = Vec::with_capacity(blocks as usize * BLOCK / WINDOW);
    let before = host::CpuTimes::now();
    for index in 0..blocks {
        let mut block = rig.block(args.stream_seed(TIMED, index));
        for (step, &label) in block.reference.iter().zip(&block.labels) {
            tally.add(step, label);
        }
        for sample in &block.samples {
            repeats.observe(0, rig.engine.quantized(), sample);
        }
        let served = rig.serve(&mut block, &mut rates, &mut Off, index * BLOCK as u64);
        if index == 0 {
            info.push(("threads", host::threads().to_string()));
        }
        timed_s += served.secs;
        matched += served.matched;
        attempted += BLOCK as u64;
        for &latency in &rig.latencies {
            percentiles.push(latency);
        }
    }
    info.push(("steal_frac", host::CpuTimes::steal_since(before)));
    let (engine, stats, pool_ok) = rig.finish();
    let (pulses, energy_j) = array_write_cost(&engine);
    info.push(("requests", attempted.to_string()));
    info.push(("mean_rps", format!("{:.0}", attempted as f64 / timed_s)));
    info.push(("evidence_repeat_frac", format!("{:.5}", repeats.frac())));
    info.push(("tie_frac", format!("{:.5}", tally.tie_frac())));
    metrics.set("setup_s", setup_s);
    metrics.set("throughput_rps", median(&mut rates));
    metrics.set("latency_p50_us", percentiles.p50_us());
    metrics.set("latency_p99_us", percentiles.p99_us());
    metrics.set("served_frac", matched as f64 / attempted as f64);
    tally.report(&mut metrics);
    metrics.set("model_write_pulses", (pulses + stats.swap_pulses) as f64);
    metrics.set(
        "model_write_energy_nj",
        (energy_j + stats.swap_energy_j) * 1e9,
    );
    metrics.set("peak_rss_mb", host::peak_rss_mb());
    Report {
        correct: matched == attempted && pool_ok,
        attempted,
        failed: attempted - matched,
        metrics,
        info,
    }
}

/// The traced run: each block served untraced and traced, then the
/// engine layers replayed once the pool is down.
fn layers(
    args: &Args,
    mut rig: Rig,
    mut tracer: Tracer,
    serving: ServingConfig,
    mut info: Vec<(&'static str, String)>,
) -> Report {
    let mut metrics = Metrics::new(&PER_LAYER);
    let (mut attempted, mut matched) = (0u64, 0u64);
    // Alternating which pass goes first: the difference is the tracing's
    // own cost.
    let mut walls = [0.0f64; 2];
    for index in 0..TRACED_BLOCKS {
        for traced in [index % 2 == 1, index % 2 == 0] {
            let mut block = rig.block(args.stream_seed(TRACED, index));
            let first = index * BLOCK as u64;
            let served = if traced {
                rig.serve(&mut block, &mut Vec::new(), &mut tracer, first)
            } else {
                rig.serve(&mut block, &mut Vec::new(), &mut Off, first)
            };
            walls[usize::from(traced)] += served.secs;
            matched += served.matched;
            attempted += BLOCK as u64;
        }
    }
    metrics.set("trace.overhead_frac", walls[1] / walls[0] - 1.0);
    metrics.set(
        "serving.submit_ns",
        median(&mut tracer.durations("serving.submit")),
    );
    let block = rig.block(args.stream_seed(TRACED, 0));
    let (engine, stats, pool_ok) = rig.finish();
    metrics.set(
        "serving.queue_wait_p50_us",
        stats.queue_wait.p50_ns() as f64 / 1e3,
    );
    metrics.set(
        "serving.end_to_end_p50_us",
        stats.end_to_end.p50_ns() as f64 / 1e3,
    );
    metrics.set("serving.batches", stats.batches as f64);
    metrics.set(
        "serving.batch_fill",
        stats.mean_batch_size / serving.max_batch as f64,
    );
    metrics.set("serving.failed", stats.failed_requests as f64);

    let mut repeats = EvidenceRepeats::default();
    for sample in &block.samples {
        repeats.observe(0, engine.quantized(), sample);
    }
    metrics.set("quant.evidence_repeat_frac", repeats.frac());
    let mut replayer = Replayer::default();
    for (index, batch) in block
        .samples
        .chunks(serving.max_batch)
        .take(REPLAY_BATCHES)
        .enumerate()
    {
        replayer.array_batch(&engine, batch, &mut tracer, (index * batch.len()) as u64);
    }
    attempted += replayer.reads;
    matched += replayer.reads - replayer.mismatches;
    replay::report(
        &tracer,
        &[(replay::array(serving.max_batch), 1.0)],
        &mut metrics,
    );
    report_setup(&tracer, &mut metrics);
    metrics.set("device.program_pulses", array_write_cost(&engine).0 as f64);
    crate::write_trace(&tracer, args, &mut info);
    Report {
        correct: matched == attempted && pool_ok,
        attempted,
        failed: attempted - matched,
        metrics,
        info,
    }
}
