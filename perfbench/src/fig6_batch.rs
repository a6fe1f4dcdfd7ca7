//! `fig6-batch`: offline batched inference at Fig. 6 scale, on both fabrics.
//!
//! One thread, no pool. Fresh 64-class × 32-feature samples (a 64×512
//! one-hot program) go through `infer_batch_into` in batches of [`BATCH`]:
//! each batch runs on the monolithic engine, then on the same training
//! split compiled to a 2×4 grid of 32×128 tiles. The read kernel, sensing
//! and WTA dominate. Every answer is checked against sequential
//! `infer_into` on its own fabric, and tiled against monolithic.

use std::time::Instant;

use febim_core::{
    CrossbarBackend, EngineConfig, EvalScratch, FebimEngine, InferenceStep, TiledFabricBackend,
};
use febim_crossbar::TileShape;
use febim_data::rng::seeded_rng;
use febim_data::synthetic::{gaussian_blobs, ClassSpec};
use febim_data::Dataset;

use crate::common::{
    array_write_cost, build_engine, fit_and_quantize, report_setup, secs_since, Args,
    EvidenceRepeats, Metrics, ModelTally, Report, SplitMix64, END_TO_END, MODEL_SEED, PER_LAYER,
};
use crate::host;
use crate::replay::{self, Replayer};
use crate::stats::{median, BlockPercentiles};
use crate::trace::{Off, Probe, Tracer, ROOT};

const CLASSES: usize = 64;
const FEATURES: usize = 32;
/// Class `c` is centred at `c * SEPARATION` in every feature, unit spread.
const SEPARATION: f64 = 3.0;
const TRAIN_PER_CLASS: usize = 12;
const TILE_ROWS: usize = 32;
const TILE_COLUMNS: usize = 128;
const BATCH: usize = 32;
/// Batches per block of generated inputs.
const BLOCK_BATCHES: usize = 64;
/// Timed blocks per `--seconds`: about 1.1 s of batched inference on a
/// 2-vCPU host, whose single-core speed drifts by ±20% over seconds, so a
/// long timed phase averages the drift; the sequential references take
/// about as long again.
const BLOCKS_PER_SECOND: u64 = 72;
const WARMUP_BLOCKS: u64 = 4;
const SETUP_BUILDS: usize = 21;
const TRACED_BLOCKS: u64 = 8;
const REPLAY_BATCHES: usize = 64;

const WARMUP: u64 = 1;
const TIMED: u64 = 2;
const TRACED: u64 = 3;

struct Engines {
    mono: FebimEngine<CrossbarBackend>,
    tiled: FebimEngine<TiledFabricBackend>,
    mono_scratch: EvalScratch,
    tiled_scratch: EvalScratch,
    mono_steps: Vec<InferenceStep>,
    tiled_steps: Vec<InferenceStep>,
}

struct Block {
    samples: Vec<Vec<f64>>,
    labels: Vec<usize>,
    mono: Vec<InferenceStep>,
    tiled: Vec<InferenceStep>,
}

fn class_specs() -> Vec<ClassSpec> {
    (0..CLASSES)
        .map(|class| {
            ClassSpec::new(
                vec![class as f64 * SEPARATION; FEATURES],
                vec![1.0; FEATURES],
                1,
            )
        })
        .collect()
}

/// Fresh samples with their sequential references on both fabrics.
fn make_block(seed: u64, classes: &[ClassSpec], engines: &mut Engines) -> Block {
    let mut rng = SplitMix64(seed);
    let labels: Vec<usize> = (0..BATCH * BLOCK_BATCHES)
        .map(|_| rng.below(classes.len()))
        .collect();
    let samples: Vec<Vec<f64>> = labels
        .iter()
        .map(|&label| rng.sample(&classes[label]))
        .collect();
    let mono = samples
        .iter()
        .map(|sample| {
            engines
                .mono
                .infer_into(sample, &mut engines.mono_scratch)
                .expect("reference inference")
        })
        .collect();
    let tiled = samples
        .iter()
        .map(|sample| {
            engines
                .tiled
                .infer_into(sample, &mut engines.tiled_scratch)
                .expect("reference inference")
        })
        .collect();
    Block {
        samples,
        labels,
        mono,
        tiled,
    }
}

/// Runs a block batch by batch on both fabrics. Returns the inferences
/// that kept every contract and the timed seconds; `latency` receives the
/// time of every `infer_batch_into` call.
fn run_block<P: Probe>(
    engines: &mut Engines,
    block: &Block,
    probe: &mut P,
    first_request: u64,
    mut latency: impl FnMut(u64),
) -> (u64, f64) {
    let (mut matched, mut secs) = (0, 0.0);
    for (index, batch) in block.samples.chunks(BATCH).enumerate() {
        let offset = index * BATCH;
        let request = first_request + offset as u64;
        let span = probe.open("client.batch", ROOT, request);
        let fabric = probe.open("fabric.array", span, request);
        let start = Instant::now();
        let mono = engines.mono.infer_batch_into(
            batch,
            &mut engines.mono_scratch,
            &mut engines.mono_steps,
        );
        let mono_time = start.elapsed();
        probe.close(fabric);
        let fabric = probe.open("fabric.grid", span, request);
        let start = Instant::now();
        let tiled = engines.tiled.infer_batch_into(
            batch,
            &mut engines.tiled_scratch,
            &mut engines.tiled_steps,
        );
        let tiled_time = start.elapsed();
        probe.close(fabric);
        probe.close(span);
        secs += (mono_time + tiled_time).as_secs_f64();
        latency(mono_time.as_nanos() as u64);
        latency(tiled_time.as_nanos() as u64);
        if mono.is_err() || tiled.is_err() {
            continue;
        }
        let want_mono = &block.mono[offset..offset + batch.len()];
        let want_tiled = &block.tiled[offset..offset + batch.len()];
        for (read, (mono, tiled)) in engines
            .mono_steps
            .iter()
            .zip(&engines.tiled_steps)
            .enumerate()
        {
            matched += u64::from(*mono == want_mono[read]);
            matched += u64::from(
                *tiled == want_tiled[read]
                    && tiled.prediction == mono.prediction
                    && tiled.tie_broken == mono.tie_broken,
            );
        }
    }
    (matched, secs)
}

/// One build: fit, quantize, then compile + program both fabrics from the
/// same parts.
fn build<P: Probe>(train: &Dataset, config: &EngineConfig, probe: &mut P) -> (Engines, f64) {
    let start = Instant::now();
    let parent = probe.open("setup.build", ROOT, 0);
    let parts = fit_and_quantize(train, config, probe, parent);
    let mono = build_engine(&parts, config, probe, parent, CrossbarBackend::new);
    let shape = TileShape::new(TILE_ROWS, TILE_COLUMNS).expect("tile shape");
    let tiled = build_engine(&parts, config, probe, parent, |quantized, config| {
        TiledFabricBackend::new(quantized, config, shape)
    });
    probe.close(parent);
    let secs = secs_since(start);
    let engines = Engines {
        mono_scratch: mono.make_scratch(),
        tiled_scratch: tiled.make_scratch(),
        mono,
        tiled,
        mono_steps: Vec::with_capacity(BATCH),
        tiled_steps: Vec::with_capacity(BATCH),
    };
    (engines, secs)
}

pub fn run(args: &Args) -> Report {
    let config = EngineConfig::febim_default();
    let train = gaussian_blobs(
        CLASSES,
        FEATURES,
        TRAIN_PER_CLASS,
        SEPARATION,
        &mut seeded_rng(MODEL_SEED),
    )
    .expect("fig6-scale training set");
    let classes = class_specs();
    let mut tracer = Tracer::new(if args.trace { 1 << 17 } else { 0 });

    let mut setup = Vec::with_capacity(SETUP_BUILDS);
    let mut engines: Option<Engines> = None;
    for _ in 0..SETUP_BUILDS {
        // The previous build goes first, so the peak memory holds one.
        drop(engines.take());
        let (built, secs) = if args.trace {
            build(&train, &config, &mut tracer)
        } else {
            build(&train, &config, &mut Off)
        };
        setup.push(secs);
        engines = Some(built);
    }
    let mut engines = engines.expect("at least one build");
    for index in 0..WARMUP_BLOCKS {
        let block = make_block(args.stream_seed(WARMUP, index), &classes, &mut engines);
        run_block(&mut engines, &block, &mut Off, 0, |_| {});
    }
    let info = vec![
        ("batch", BATCH.to_string()),
        ("tiles", format!("2x4 of {TILE_ROWS}x{TILE_COLUMNS}")),
        ("threads_planned", "1".to_string()),
    ];
    if args.trace {
        layers(args, engines, &classes, tracer, info)
    } else {
        end_to_end(args, engines, &classes, median(&mut setup), info)
    }
}

/// Inferences per block: every sample on both fabrics.
const PER_BLOCK: u64 = (2 * BATCH * BLOCK_BATCHES) as u64;

/// The end-to-end run: fixed inference count, tracing off.
fn end_to_end(
    args: &Args,
    mut engines: Engines,
    classes: &[ClassSpec],
    setup_s: f64,
    mut info: Vec<(&'static str, String)>,
) -> Report {
    let mut metrics = Metrics::new(&END_TO_END);
    let (mut attempted, mut matched) = (0u64, 0u64);
    let mut tally = ModelTally::default();
    let mut repeats = EvidenceRepeats::default();
    let mut percentiles = BlockPercentiles::default();
    let mut timed_s = 0.0;
    let mut rates = Vec::new();
    let before = host::CpuTimes::now();
    for index in 0..BLOCKS_PER_SECOND * args.seconds {
        let block = make_block(args.stream_seed(TIMED, index), classes, &mut engines);
        for ((mono, tiled), &label) in block.mono.iter().zip(&block.tiled).zip(&block.labels) {
            tally.add(mono, label);
            tally.add(tiled, label);
        }
        for sample in &block.samples {
            repeats.observe(0, engines.mono.quantized(), sample);
        }
        let (ok, secs) = run_block(&mut engines, &block, &mut Off, index * PER_BLOCK, |nanos| {
            percentiles.push(nanos)
        });
        if index == 0 {
            info.push(("threads", host::threads().to_string()));
        }
        timed_s += secs;
        rates.push(PER_BLOCK as f64 / secs);
        matched += ok;
        attempted += PER_BLOCK;
    }
    info.push(("steal_frac", host::CpuTimes::steal_since(before)));
    let (pulses, energy_j) = array_write_cost(&engines.mono);
    let tiled_cost = engines.tiled.program_cost().unwrap_or_default();
    info.push(("inferences", attempted.to_string()));
    info.push(("mean_rps", format!("{:.0}", attempted as f64 / timed_s)));
    info.push(("evidence_repeat_frac", format!("{:.5}", repeats.frac())));
    info.push(("tie_frac", format!("{:.5}", tally.tie_frac())));
    metrics.set("setup_s", setup_s);
    metrics.set("throughput_rps", median(&mut rates));
    metrics.set("latency_p50_us", percentiles.p50_us());
    metrics.set("latency_p99_us", percentiles.p99_us());
    metrics.set("served_frac", matched as f64 / attempted as f64);
    tally.report(&mut metrics);
    metrics.set("model_write_pulses", (pulses + tiled_cost.pulses) as f64);
    metrics.set(
        "model_write_energy_nj",
        (energy_j + tiled_cost.energy_j) * 1e9,
    );
    metrics.set("peak_rss_mb", host::peak_rss_mb());
    Report {
        correct: matched == attempted,
        attempted,
        failed: attempted - matched,
        metrics,
        info,
    }
}

/// The traced run: each block run untraced and traced, then the engine
/// layers of both fabrics replayed.
fn layers(
    args: &Args,
    mut engines: Engines,
    classes: &[ClassSpec],
    mut tracer: Tracer,
    mut info: Vec<(&'static str, String)>,
) -> Report {
    let mut metrics = Metrics::new(&PER_LAYER);
    let (mut attempted, mut matched) = (0u64, 0u64);
    // Alternating which pass goes first: the difference is the tracing's
    // own cost.
    let mut walls = [0.0f64; 2];
    for index in 0..TRACED_BLOCKS {
        let block = make_block(args.stream_seed(TRACED, index), classes, &mut engines);
        let first = index * PER_BLOCK;
        for traced in [index % 2 == 1, index % 2 == 0] {
            let (ok, secs) = if traced {
                run_block(&mut engines, &block, &mut tracer, first, |_| {})
            } else {
                run_block(&mut engines, &block, &mut Off, first, |_| {})
            };
            walls[usize::from(traced)] += secs;
            matched += ok;
            attempted += PER_BLOCK;
        }
    }
    metrics.set("trace.overhead_frac", walls[1] / walls[0] - 1.0);

    let block = make_block(args.stream_seed(TRACED, 0), classes, &mut engines);
    let mut repeats = EvidenceRepeats::default();
    for sample in &block.samples {
        repeats.observe(0, engines.mono.quantized(), sample);
    }
    metrics.set("quant.evidence_repeat_frac", repeats.frac());
    let mut replayer = Replayer::default();
    for (index, batch) in block.samples.chunks(BATCH).take(REPLAY_BATCHES).enumerate() {
        let request = (index * BATCH) as u64;
        replayer.array_batch(&engines.mono, batch, &mut tracer, request);
        replayer.grid_batch(&engines.tiled, batch, &mut tracer, request);
    }
    attempted += replayer.reads;
    matched += replayer.reads - replayer.mismatches;
    replay::report(
        &tracer,
        &[(replay::array(BATCH), 0.5), (replay::grid(BATCH), 0.5)],
        &mut metrics,
    );
    report_setup(&tracer, &mut metrics);
    let tiled_pulses = engines.tiled.program_cost().map_or(0, |cost| cost.pulses);
    metrics.set(
        "device.program_pulses",
        (array_write_cost(&engines.mono).0 + tiled_pulses) as f64,
    );
    crate::write_trace(&tracer, args, &mut info);
    Report {
        correct: matched == attempted,
        attempted,
        failed: attempted - matched,
        metrics,
        info,
    }
}
