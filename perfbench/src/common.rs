//! Pieces every workload shares: arguments, the metric tables, seeded input
//! generation, the model-cost tally and the evidence-repeat counter.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use febim_bayes::GaussianNaiveBayes;
use febim_core::{
    CrossbarBackend, EngineConfig, FebimEngine, InferenceBackend, InferenceStep, ServeOutcome,
};
use febim_data::synthetic::ClassSpec;
use febim_data::Dataset;
use febim_quant::QuantizedGnbc;

use crate::stats::median;
use crate::trace::{Probe, SpanId, Tracer};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = Self {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|err| format!("{flag} {value}: {err}"))
            };
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = number()?,
                "--seconds" => parsed.seconds = number()?.max(1),
                "--trace" => parsed.trace = number()? != 0,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if parsed.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        Ok(parsed)
    }

    /// A seed for one phase (`tag`) and block of this run's input stream.
    pub fn stream_seed(&self, tag: u64, block: u64) -> u64 {
        let mut rng = SplitMix64(self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64() ^ block.wrapping_mul(0xD1B5_4A32_D192_ED03)
    }
}

/// Seed of every training set. The models stay the same across runs, so
/// properties of the model (tie-break rate, program size) do not move with
/// `--seed`; the seed varies only the request stream.
pub const MODEL_SEED: u64 = 1;

/// End-to-end metrics (name, unit), reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("served_frac", "ratio"),
    ("accuracy", "ratio"),
    ("model_delay_ns", "model-ns"),
    ("model_energy_pj", "pJ"),
    ("model_write_pulses", "count"),
    ("model_write_energy_nj", "nJ"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported with `--trace 1`. A layer that
/// does not run on a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("bayes.fit_ms", "ms"),
    ("quant.quantize_ms", "ms"),
    ("quant.discretize_ns", "ns"),
    ("quant.evidence_repeat_frac", "ratio"),
    ("core.build_ms", "ms"),
    ("device.program_pulses", "count"),
    ("crossbar.activation_ns", "ns"),
    ("crossbar.array_read_ns", "ns"),
    ("crossbar.grid_read_ns", "ns"),
    ("crossbar.plane_read_ns", "ns"),
    ("circuit.sense_ns", "ns"),
    ("circuit.shift_add_ns", "ns"),
    ("circuit.wta_ns", "ns"),
    ("core.infer_ns", "ns"),
    ("core.infer_batch_ns", "ns"),
    ("core.unattributed_frac", "ratio"),
    ("serving.submit_ns", "ns"),
    ("serving.queue_wait_p50_us", "us"),
    ("serving.end_to_end_p50_us", "us"),
    ("serving.batches", "count"),
    ("serving.batch_fill", "ratio"),
    ("serving.failed", "count"),
    ("registry.hit_us", "us"),
    ("registry.fault_in_us", "us"),
    ("registry.fault_in_frac", "ratio"),
    ("registry.swap_pulses", "count"),
    ("registry.swap_energy_nj", "nJ"),
    ("registry.unrouted", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// One table of named metrics, every entry present from the start.
#[derive(Debug, Clone)]
pub struct Metrics {
    entries: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    pub fn new(table: &[(&'static str, &'static str)]) -> Self {
        Self {
            entries: table
                .iter()
                .map(|&(name, unit)| (name, unit, 0.0))
                .collect(),
        }
    }

    /// Sets a metric; the name must be in the table.
    pub fn set(&mut self, name: &str, value: f64) {
        let entry = self
            .entries
            .iter_mut()
            .find(|(known, _, _)| *known == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        entry.2 = if value.is_finite() { value } else { 0.0 };
    }

    pub fn entries(&self) -> &[(&'static str, &'static str, f64)] {
        &self.entries
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Ungated facts about the run (host, load shape, input properties),
    /// as `(key, value)` pairs printed on the `run-info` line.
    pub info: Vec<(&'static str, String)>,
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.uniform() * n as f64) as usize).min(n - 1)
    }

    /// Standard normal draw (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let radius = (-2.0 * (1.0 - self.uniform()).ln()).sqrt();
        radius * (std::f64::consts::TAU * self.uniform()).cos()
    }

    /// A fresh sample of `class` from its Gaussian description.
    pub fn sample(&mut self, class: &ClassSpec) -> Vec<f64> {
        class
            .means
            .iter()
            .zip(&class.std_devs)
            .map(|(mean, std)| mean + std * self.normal())
            .collect()
    }
}

/// Accuracy and modeled read cost of the answered inferences, summed in
/// request order so the totals repeat bit for bit.
#[derive(Debug, Default, Clone)]
pub struct ModelTally {
    inferences: u64,
    right: u64,
    ties: u64,
    delay_s: f64,
    energy_j: f64,
}

impl ModelTally {
    pub fn add(&mut self, step: &InferenceStep, label: usize) {
        self.inferences += 1;
        self.right += u64::from(step.prediction == label);
        self.ties += u64::from(step.tie_broken);
        self.delay_s += step.delay.total();
        self.energy_j += step.energy.total();
    }

    /// Share of inferences whose winner was decided by tie-breaking.
    pub fn tie_frac(&self) -> f64 {
        self.ties as f64 / self.inferences.max(1) as f64
    }

    /// Writes `accuracy`, `model_delay_ns` and `model_energy_pj`.
    pub fn report(&self, metrics: &mut Metrics) {
        let n = self.inferences.max(1) as f64;
        metrics.set("accuracy", self.right as f64 / n);
        metrics.set("model_delay_ns", self.delay_s / n * 1e9);
        metrics.set("model_energy_pj", self.energy_j / n * 1e12);
    }
}

/// Counts requests whose discretized evidence repeats an earlier request's
/// (the hit rate an evidence cache would see), over the first
/// [`EvidenceRepeats::WINDOW`] requests so its memory stays bounded.
#[derive(Debug, Default)]
pub struct EvidenceRepeats {
    seen: HashSet<u64>,
    checked: u64,
    repeats: u64,
    evidence: Vec<usize>,
}

impl EvidenceRepeats {
    pub const WINDOW: u64 = 1 << 18;

    /// Discretizes one request with its model's tables and records the
    /// evidence; `model` separates tenants.
    pub fn observe(&mut self, model: u64, quantized: &QuantizedGnbc, sample: &[f64]) {
        if self.checked >= Self::WINDOW {
            return;
        }
        quantized
            .discretize_sample_into(sample, &mut self.evidence)
            .expect("sample has the model's features");
        let mut hasher = DefaultHasher::new();
        (model, &self.evidence).hash(&mut hasher);
        self.repeats += u64::from(!self.seen.insert(hasher.finish()));
        self.checked += 1;
    }

    pub fn frac(&self) -> f64 {
        self.repeats as f64 / self.checked.max(1) as f64
    }
}

/// Preisach-priced cost of programming a monolithic engine's program onto
/// erased cells, `(pulses, joules)`: the same pricing the tiled backend's
/// `program_cost()` applies, taken from the device layer's programmer.
pub fn array_write_cost(engine: &FebimEngine<CrossbarBackend>) -> (u64, f64) {
    let programmer = engine.array().programmer();
    let mut pulses = 0;
    let mut energy_j = 0.0;
    for level in engine.program().levels().iter().flatten().flatten() {
        let state = programmer
            .state_for_level(*level)
            .expect("compiled levels are programmable");
        pulses += u64::from(state.write_config.pulse_count) + 1;
        energy_j += programmer
            .write_energy(*level)
            .expect("compiled levels are programmable");
    }
    (pulses, energy_j)
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Fits the GNBC and quantizes it, each step in its own span.
pub fn fit_and_quantize<P: Probe>(
    train: &Dataset,
    config: &EngineConfig,
    probe: &mut P,
    parent: SpanId,
) -> (Arc<GaussianNaiveBayes>, Arc<QuantizedGnbc>) {
    let span = probe.open("bayes.fit", parent, 0);
    let model = GaussianNaiveBayes::fit(train).expect("training split fits");
    probe.close(span);
    let span = probe.open("quant.quantize", parent, 0);
    let quantized = QuantizedGnbc::quantize(&model, train, config.quant).expect("model quantizes");
    probe.close(span);
    (Arc::new(model), Arc::new(quantized))
}

/// Compiles and programs one engine from fitted parts (`core.build`).
pub fn build_engine<B: InferenceBackend, P: Probe>(
    parts: &(Arc<GaussianNaiveBayes>, Arc<QuantizedGnbc>),
    config: &EngineConfig,
    probe: &mut P,
    parent: SpanId,
    backend: impl FnOnce(Arc<QuantizedGnbc>, &EngineConfig) -> febim_core::Result<B>,
) -> FebimEngine<B> {
    let span = probe.open("core.build", parent, 0);
    let engine = FebimEngine::from_parts(
        Arc::clone(&parts.0),
        Arc::clone(&parts.1),
        config.clone(),
        backend,
    )
    .expect("engine compiles and programs");
    probe.close(span);
    engine
}

/// Writes the set-up layer metrics: for each layer, the median over builds
/// of the layer's total time within one build (`setup.build` spans).
pub fn report_setup(tracer: &Tracer, metrics: &mut Metrics) {
    for (metric, span) in [
        ("bayes.fit_ms", "bayes.fit"),
        ("quant.quantize_ms", "quant.quantize"),
        ("core.build_ms", "core.build"),
    ] {
        let mut per_build = tracer.child_sums("setup.build", &[span]);
        metrics.set(metric, median(&mut per_build) / 1e6);
    }
}

/// Whether a served answer is bit-identical to its reference step.
pub fn same_answer(outcome: &ServeOutcome, step: &InferenceStep) -> bool {
    outcome.prediction == step.prediction
        && outcome.tie_broken == step.tie_broken
        && outcome.delay == step.delay
        && outcome.energy == step.energy
}
