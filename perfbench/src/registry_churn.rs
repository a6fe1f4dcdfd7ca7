//! `registry-churn`: a serial client of a multi-tenant `ModelRegistry`.
//!
//! One client calls `ModelRegistry::serve` with one request outstanding
//! for 8 iris-scale tenants: even tenants one-hot, odd tenants 4-bit
//! bit-plane. Tenant popularity is Zipf with s = 1. The one bank's tile
//! budget holds six one-hot tenants, so about 6% of requests fault a
//! tenant back in with a priced hot swap (erase plus program pulse
//! trains). The process is pinned to one CPU: `serve` blocks, so a serial
//! client gains nothing from a second one.

use std::time::Instant;

use febim_core::{
    EngineConfig, EvalScratch, FebimEngine, InferenceStep, ModelRegistry, PoolStats,
    RegistryConfig, ServingConfig, TiledFabricBackend,
};
use febim_crossbar::TileShape;
use febim_data::rng::seeded_rng;
use febim_data::split::stratified_split;
use febim_data::synthetic::{iris_like, iris_like_spec, ClassSpec};
use febim_data::Dataset;
use febim_quant::Encoding;

use crate::common::{
    build_engine, fit_and_quantize, report_setup, same_answer, secs_since, Args, EvidenceRepeats,
    Metrics, ModelTally, Report, SplitMix64, END_TO_END, MODEL_SEED, PER_LAYER,
};
use crate::host;
use crate::replay::{self, Replayer};
use crate::stats::{median, BlockPercentiles, WINDOW};
use crate::trace::{Off, Probe, Tracer, ROOT};

const TENANTS: usize = 8;
/// Zipf exponent of tenant popularity (tenant `t` has rank `t + 1`).
const ZIPF_S: f64 = 1.0;
const TILE_ROWS: usize = 2;
const TILE_COLUMNS: usize = 24;
/// One one-hot tenant (3×64) takes 2×3 tiles and one 4-bit bit-plane
/// tenant (3×32) takes 2×2, so the budget holds six one-hot tenants.
const TILES_PER_BANK: usize = 36;
const BITPLANE_BITS: u32 = 4;
/// Requests per block of generated inputs.
const BLOCK: usize = 4096;
/// Timed blocks per `--seconds` (about one second on one CPU).
const BLOCKS_PER_SECOND: u64 = 15;
const WARMUP_BLOCKS: u64 = 2;
const SETUP_BUILDS: usize = 31;
const TRACED_BLOCKS: u64 = 6;
const REPLAY_REQUESTS: usize = 2048;

const WARMUP: u64 = 1;
const TIMED: u64 = 2;
const TRACED: u64 = 3;

struct Tenant {
    engine: FebimEngine<TiledFabricBackend>,
    scratch: EvalScratch,
}

struct Request {
    tenant: usize,
    label: usize,
    sample: Vec<f64>,
    reference: InferenceStep,
}

fn tenant_config(tenant: usize) -> EngineConfig {
    let config = EngineConfig::febim_default();
    if tenant.is_multiple_of(2) {
        config
    } else {
        config.with_encoding(Encoding::BitPlane {
            bits: BITPLANE_BITS,
        })
    }
}

fn tenant_id(tenant: usize) -> u64 {
    tenant as u64 + 1
}

/// Zipf cumulative weights over tenant ranks.
fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (1..=TENANTS)
        .map(|rank| 1.0 / (rank as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .scan(0.0, |sum, weight| {
            *sum += weight / total;
            Some(*sum)
        })
        .collect()
}

/// Fresh requests: a Zipf-drawn tenant and a sample from the training
/// distribution, with the tenant's dedicated-engine reference.
fn make_block(
    seed: u64,
    cdf: &[f64],
    classes: &[ClassSpec],
    tenants: &mut [Tenant],
) -> Vec<Request> {
    let mut rng = SplitMix64(seed);
    (0..BLOCK)
        .map(|_| {
            let draw = rng.uniform();
            let tenant = cdf
                .iter()
                .position(|&edge| draw < edge)
                .unwrap_or(TENANTS - 1);
            let label = rng.below(classes.len());
            let sample = rng.sample(&classes[label]);
            let Tenant { engine, scratch } = &mut tenants[tenant];
            let reference = engine
                .infer_into(&sample, scratch)
                .expect("reference inference");
            Request {
                tenant,
                label,
                sample,
                reference,
            }
        })
        .collect()
}

/// Serves a block one request at a time, handing each request's latency
/// to `latency`. Returns the answers that matched their dedicated engine,
/// the timed seconds and the fault-ins seen (only counted when tracing,
/// which asks the registry before each request).
fn serve_block<P: Probe>(
    registry: &ModelRegistry,
    block: &[Request],
    probe: &mut P,
    first_request: u64,
    mut latency: impl FnMut(u64),
) -> (u64, f64, u64) {
    let (mut matched, mut secs, mut faults) = (0, 0.0, 0);
    for (index, request) in block.iter().enumerate() {
        let id = tenant_id(request.tenant);
        let number = first_request + index as u64;
        let span = probe.open("client.request", ROOT, number);
        let name = if P::ON && registry.residence_of(id).is_none() {
            faults += 1;
            "registry.fault_in"
        } else {
            "registry.hit"
        };
        let serve = probe.open(name, span, number);
        let start = Instant::now();
        let answer = registry.serve(id, &request.sample);
        let elapsed = start.elapsed();
        probe.close(serve);
        probe.close(span);
        secs += elapsed.as_secs_f64();
        latency(elapsed.as_nanos() as u64);
        matched += u64::from(answer.is_ok_and(|outcome| same_answer(&outcome, &request.reference)));
    }
    (matched, secs, faults)
}

/// One build: an empty one-bank registry, then for each tenant fit,
/// quantize, compile + program and register (which programs the bank).
/// Returns the registry, the dedicated reference engines (clones made
/// outside the timing) and the build's seconds.
fn build<P: Probe>(trains: &[Dataset], probe: &mut P) -> (ModelRegistry, Vec<Tenant>, f64) {
    let shape = TileShape::new(TILE_ROWS, TILE_COLUMNS).expect("tile shape");
    let mut secs = 0.0;
    let start = Instant::now();
    let parent = probe.open("setup.build", ROOT, 0);
    let registry =
        ModelRegistry::new(RegistryConfig::new(1, TILES_PER_BANK)).expect("registry spawns");
    secs += secs_since(start);
    let mut tenants = Vec::with_capacity(TENANTS);
    for (tenant, train) in trains.iter().enumerate() {
        let start = Instant::now();
        let config = tenant_config(tenant);
        let parts = fit_and_quantize(train, &config, probe, parent);
        let engine = build_engine(&parts, &config, probe, parent, |quantized, config| {
            TiledFabricBackend::new(quantized, config, shape)
        });
        secs += secs_since(start);
        tenants.push(Tenant {
            scratch: engine.make_scratch(),
            engine: engine.clone(),
        });
        let start = Instant::now();
        let span = probe.open("registry.register", parent, tenant as u64);
        registry
            .register_engine(tenant_id(tenant), engine)
            .expect("tenant registers");
        probe.close(span);
        secs += secs_since(start);
    }
    probe.close(parent);
    (registry, tenants, secs)
}

/// The registry under test with what every phase shares.
struct Rig {
    registry: ModelRegistry,
    tenants: Vec<Tenant>,
    classes: Vec<ClassSpec>,
    cdf: Vec<f64>,
}

impl Rig {
    fn block(&mut self, seed: u64) -> Vec<Request> {
        make_block(seed, &self.cdf, &self.classes, &mut self.tenants)
    }

    /// Shuts the bank down. Returns the reference tenants, the pool's
    /// statistics and whether no request failed inside the pool.
    fn finish(self) -> (Vec<Tenant>, PoolStats, bool) {
        let stats = self.registry.shutdown();
        let ok = stats.failed_requests == 0 && stats.crashed_workers == 0;
        (self.tenants, stats, ok)
    }
}

pub fn run(args: &Args) -> Report {
    let pinned = host::allowed_cpus().and_then(|cpus| host::pin_to(cpus[0]));
    let trains: Vec<Dataset> = (0..TENANTS)
        .map(|tenant| {
            let seed = MODEL_SEED + tenant as u64;
            let dataset = iris_like(seed).expect("iris-like dataset");
            stratified_split(&dataset, 0.7, &mut seeded_rng(seed))
                .expect("stratified split")
                .train
        })
        .collect();
    let mut tracer = Tracer::new(if args.trace { 1 << 17 } else { 0 });

    let mut setup = Vec::with_capacity(SETUP_BUILDS);
    let mut built: Option<(ModelRegistry, Vec<Tenant>)> = None;
    for _ in 0..SETUP_BUILDS {
        // The previous build's bank worker stops first, so it cannot
        // compete with the next build for the CPU.
        if let Some((old, _)) = built.take() {
            let _ = old.shutdown();
        }
        let (registry, tenants, secs) = if args.trace {
            build(&trains, &mut tracer)
        } else {
            build(&trains, &mut Off)
        };
        setup.push(secs);
        built = Some((registry, tenants));
    }
    let (registry, tenants) = built.expect("at least one build");
    let mut rig = Rig {
        registry,
        tenants,
        classes: iris_like_spec().classes,
        cdf: zipf_cdf(),
    };
    for index in 0..WARMUP_BLOCKS {
        let block = rig.block(args.stream_seed(WARMUP, index));
        serve_block(&rig.registry, &block, &mut Off, 0, |_| {});
    }
    let mut info = vec![
        ("tenants", TENANTS.to_string()),
        ("tiles_per_bank", TILES_PER_BANK.to_string()),
        ("outstanding", "1".to_string()),
        ("threads_planned", "2".to_string()),
        (
            "pinned_cpu",
            pinned.map_or_else(|err| format!("unpinned ({err})"), |cpu| cpu.to_string()),
        ),
    ];
    if args.trace {
        layers(args, rig, tracer, info)
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
    let (mut attempted, mut matched) = (0u64, 0u64);
    let mut tally = ModelTally::default();
    let mut repeats = EvidenceRepeats::default();
    let mut percentiles = BlockPercentiles::default();
    let mut timed_s = 0.0;
    // Answer rate of every WINDOW requests: the client is serial, so a
    // window's rate is its size over its summed latencies.
    let (mut rates, mut window_ns) = (Vec::new(), 0u64);
    let before = host::CpuTimes::now();
    for index in 0..BLOCKS_PER_SECOND * args.seconds {
        let block = rig.block(args.stream_seed(TIMED, index));
        for request in &block {
            tally.add(&request.reference, request.label);
            let quantized = rig.tenants[request.tenant].engine.quantized();
            repeats.observe(tenant_id(request.tenant), quantized, &request.sample);
        }
        let (ok, secs, _) = serve_block(
            &rig.registry,
            &block,
            &mut Off,
            index * BLOCK as u64,
            |nanos| {
                percentiles.push(nanos);
                window_ns += nanos;
                if percentiles.pending() == 0 {
                    rates.push(WINDOW as f64 / (window_ns as f64 / 1e9));
                    window_ns = 0;
                }
            },
        );
        if index == 0 {
            info.push(("threads", host::threads().to_string()));
        }
        timed_s += secs;
        matched += ok;
        attempted += BLOCK as u64;
    }
    info.push(("steal_frac", host::CpuTimes::steal_since(before)));
    let (_, stats, pool_ok) = rig.finish();
    info.push(("requests", attempted.to_string()));
    info.push(("mean_rps", format!("{:.0}", attempted as f64 / timed_s)));
    info.push(("evidence_repeat_frac", format!("{:.5}", repeats.frac())));
    info.push(("tie_frac", format!("{:.5}", tally.tie_frac())));
    info.push(("swaps", stats.swaps.to_string()));
    metrics.set("setup_s", setup_s);
    metrics.set("throughput_rps", median(&mut rates));
    metrics.set("latency_p50_us", percentiles.p50_us());
    metrics.set("latency_p99_us", percentiles.p99_us());
    metrics.set("served_frac", matched as f64 / attempted as f64);
    tally.report(&mut metrics);
    // Registration installs are priced as swaps too, so the bank's swap
    // totals already hold the set-up programming.
    metrics.set("model_write_pulses", stats.swap_pulses as f64);
    metrics.set("model_write_energy_nj", stats.swap_energy_j * 1e9);
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
/// engine layers replayed on the dedicated engines once the bank is down.
fn layers(
    args: &Args,
    mut rig: Rig,
    mut tracer: Tracer,
    mut info: Vec<(&'static str, String)>,
) -> Report {
    let mut metrics = Metrics::new(&PER_LAYER);
    let (mut attempted, mut matched, mut faults) = (0u64, 0u64, 0u64);
    // Alternating which pass goes first: the difference is the tracing's
    // own cost.
    let mut walls = [0.0f64; 2];
    for index in 0..TRACED_BLOCKS {
        let block = rig.block(args.stream_seed(TRACED, index));
        let first = index * BLOCK as u64;
        for traced in [index % 2 == 1, index % 2 == 0] {
            let (ok, secs, seen) = if traced {
                serve_block(&rig.registry, &block, &mut tracer, first, |_| {})
            } else {
                serve_block(&rig.registry, &block, &mut Off, first, |_| {})
            };
            walls[usize::from(traced)] += secs;
            faults += seen;
            matched += ok;
            attempted += BLOCK as u64;
        }
    }
    metrics.set("trace.overhead_frac", walls[1] / walls[0] - 1.0);
    metrics.set(
        "registry.hit_us",
        median(&mut tracer.durations("registry.hit")) / 1e3,
    );
    metrics.set(
        "registry.fault_in_us",
        median(&mut tracer.durations("registry.fault_in")) / 1e3,
    );
    metrics.set(
        "registry.fault_in_frac",
        faults as f64 / (TRACED_BLOCKS * BLOCK as u64) as f64,
    );
    let block = rig.block(args.stream_seed(TRACED, 0));
    let (tenants, stats, pool_ok) = rig.finish();
    metrics.set("registry.swap_pulses", stats.swap_pulses as f64);
    metrics.set("registry.swap_energy_nj", stats.swap_energy_j * 1e9);
    metrics.set("registry.unrouted", stats.unrouted as f64);
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
        stats.mean_batch_size / ServingConfig::default().max_batch as f64,
    );
    metrics.set("serving.failed", stats.failed_requests as f64);

    let mut repeats = EvidenceRepeats::default();
    for request in &block {
        let quantized = tenants[request.tenant].engine.quantized();
        repeats.observe(tenant_id(request.tenant), quantized, &request.sample);
    }
    metrics.set("quant.evidence_repeat_frac", repeats.frac());
    let mut replayer = Replayer::default();
    let replayed = &block[..REPLAY_REQUESTS.min(block.len())];
    for (index, request) in replayed.iter().enumerate() {
        let engine = &tenants[request.tenant].engine;
        replayer.grid_single(engine, &request.sample, &mut tracer, index as u64);
    }
    attempted += replayer.reads;
    matched += replayer.reads - replayer.mismatches;
    let packed =
        replayed.iter().filter(|r| r.tenant % 2 == 1).count() as f64 / replayed.len() as f64;
    replay::report(
        &tracer,
        &[(replay::grid(1), 1.0 - packed), (replay::PACKED, packed)],
        &mut metrics,
    );
    report_setup(&tracer, &mut metrics);
    let pulses: u64 = tenants
        .iter()
        .filter_map(|tenant| tenant.engine.program_cost())
        .map(|cost| cost.pulses)
        .sum();
    metrics.set("device.program_pulses", pulses as f64);
    crate::write_trace(&tracer, args, &mut info);
    Report {
        correct: matched == attempted && pool_ok,
        attempted,
        failed: attempted - matched,
        metrics,
        info,
    }
}
