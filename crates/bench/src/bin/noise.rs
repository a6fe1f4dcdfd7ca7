//! Time-varying non-ideality benchmark: the cost of physical realism and
//! the drift-resilience campaign.
//!
//! Three questions, one record:
//!
//! 1. **What does the ideal mode cost?** An engine configured with
//!    `NonIdealityStack::ideal()` must read through the same epoch-versioned
//!    conductance cache as one with no stack at all — the ideal read path is
//!    the product's hot loop, so its ns/inference is gated against the
//!    checked-in `ideal_ns_per_inference_budget` of `NOISE_BUDGET.json`.
//! 2. **What does realism cost?** The same workload runs with a full
//!    drift + read-disturb + IR-drop stack; the slowdown factor is recorded
//!    (not gated — it is allowed to cost more, it just has to be honest).
//! 3. **Does recalibration work?** A Monte-Carlo noise campaign
//!    (`febim_core::noise_campaign`) measures fresh/aged/recovered accuracy
//!    per severity scenario, and the run asserts the recalibrated array
//!    recovers its fresh accuracy exactly (σ_VTH = 0 reprogramming is
//!    bit-exact) while doing real refresh work.
//!
//! Everything lands in `BENCH_noise.json`: the measured throughputs, the
//! realism overhead factor and the drift-resilience comparison table.
//!
//! Usage:
//!
//! ```console
//! cargo run --release -p febim-bench --bin noise \
//!     [-- --quick] [--out PATH] [--budget PATH]
//! ```
//!
//! `--quick` shortens the measurement (used by the CI bench-smoke step);
//! `--out` overrides the output path (default `BENCH_noise.json`);
//! `--budget` overrides the budget file path (default `NOISE_BUDGET.json`).

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde::Serialize;

use febim_bench::load_budget;
use febim_compare::ResilienceComparison;
use febim_core::{noise_campaign, EngineConfig, FebimEngine, InferenceBackend, NoiseScenario};
use febim_data::rng::seeded_rng;
use febim_data::split::stratified_split;
use febim_data::synthetic::iris_like;
use febim_data::Dataset;
use febim_device::{NonIdealityStack, ReadDisturb, RetentionDrift, WireResistance};
use febim_quant::QuantConfig;

/// The persisted record tracking the realism-cost trajectory.
#[derive(Debug, Serialize)]
struct NoiseRecord {
    bench: &'static str,
    generated_unix_s: u64,
    quick: bool,
    /// Inferences timed per measurement pass.
    inferences: usize,
    /// ns/inference of the ideal-stack engine — the gated hot path.
    ideal_ns_per_inference: f64,
    /// The `ideal_ns_per_inference_budget` the ideal path was gated against.
    ideal_ns_per_inference_budget: f64,
    /// ns/inference with the full drift + disturb + IR-drop stack active.
    noisy_ns_per_inference: f64,
    /// `noisy / ideal` — what physical realism costs on the read path.
    realism_overhead: f64,
    /// Worst accuracy retention across the campaign without recalibration.
    worst_retention_without_refresh: f64,
    /// Worst accuracy retention across the campaign with recalibration
    /// (asserted to be exactly 1.0: σ_VTH = 0 refresh is bit-exact).
    worst_retention_with_refresh: f64,
    /// The drift-resilience campaign table.
    resilience: ResilienceComparison,
}

/// The full-severity stack: retention drift, tier-quantized read disturb and
/// wordline/bitline IR-drop together.
fn severe_stack() -> NonIdealityStack {
    NonIdealityStack::ideal()
        .with_drift(RetentionDrift::new(0.05, 100))
        .with_disturb(ReadDisturb::new(64, 0.002))
        .with_wire(WireResistance::uniform(2.0))
}

/// ns/inference of `engine` over `samples`, best of `passes` passes.
fn measure_reads<B: InferenceBackend>(
    engine: &FebimEngine<B>,
    samples: &[Vec<f64>],
    passes: usize,
) -> f64 {
    let mut scratch = engine.make_scratch();
    let mut best_ns = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        for sample in samples {
            engine.infer_into(sample, &mut scratch).expect("infer");
        }
        best_ns = best_ns.min(start.elapsed().as_nanos() as f64 / samples.len() as f64);
    }
    best_ns
}

/// Request stream: the test split cycled up to `count` samples.
fn request_stream(test: &Dataset, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|index| {
            test.sample(index % test.n_samples())
                .expect("sample")
                .to_vec()
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_noise.json".to_string());
    let budget_path = args
        .iter()
        .position(|a| a == "--budget")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "NOISE_BUDGET.json".to_string());
    let inferences = if quick { 4_000 } else { 20_000 };
    let passes = if quick { 3 } else { 5 };
    let epochs = if quick { 2 } else { 8 };

    println!(
        "noise: timing the ideal vs non-ideal read path over {inferences} inferences \
         and running a {epochs}-epoch drift-resilience campaign ({} mode)\n",
        if quick { "quick" } else { "full" }
    );

    let dataset = iris_like(42).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(42)).expect("split");
    let samples = request_stream(&split.test, inferences);

    // 1. The gated hot path: an ideal-stack engine reads through the cached
    //    conductances with zero non-ideality bookkeeping on the hot loop.
    let ideal_config = EngineConfig::febim_default().with_non_idealities(NonIdealityStack::ideal());
    let ideal_engine = FebimEngine::fit(&split.train, ideal_config).expect("ideal engine");
    let mut ideal_ns = measure_reads(&ideal_engine, &samples, passes);

    // 2. The realism cost: the same reads with the full severity stack, aged
    //    far enough that drift, disturb tiers and IR-drop are all active.
    let noisy_config = EngineConfig::febim_default().with_non_idealities(severe_stack());
    let mut noisy_engine = FebimEngine::fit(&split.train, noisy_config).expect("noisy engine");
    noisy_engine.advance_time(100_000);
    let noisy_ns = measure_reads(&noisy_engine, &samples, passes);

    // 3. The drift-resilience campaign: fresh vs aged vs recovered accuracy
    //    per severity scenario, with the refresh work priced by the Preisach
    //    programming model.
    let scenarios = [
        NoiseScenario::new("ideal", NonIdealityStack::ideal(), 100_000),
        NoiseScenario::new(
            "drift-only",
            NonIdealityStack::ideal().with_drift(RetentionDrift::new(0.05, 100)),
            100_000,
        ),
        NoiseScenario::new("drift+disturb+ir", severe_stack(), 100_000),
    ];
    let points = noise_campaign(
        &dataset,
        &EngineConfig::febim_default(),
        &[QuantConfig::febim_optimal()],
        &scenarios,
        1e-6,
        0.7,
        epochs,
        42,
    )
    .expect("noise campaign");
    let resilience = ResilienceComparison::from_points(&points);
    println!("{}", resilience.to_table().to_pretty());

    let worst_without = resilience
        .worst_retention_without_refresh()
        .expect("campaign rows");
    let worst_with = resilience
        .worst_retention_with_refresh()
        .expect("campaign rows");
    println!(
        "resilience: worst retention {worst_without:.4} unrefreshed, {worst_with:.4} recalibrated"
    );
    assert!(
        (worst_with - 1.0).abs() < 1e-12,
        "recalibration must restore the fresh accuracy exactly under sigma=0 reprogramming \
         (measured {worst_with})"
    );
    assert!(
        points
            .iter()
            .filter(|point| point.label != "ideal")
            .all(|point| point.refresh.cells_refreshed > 0),
        "every drifted scenario must do real refresh work"
    );

    // Throughput gate: the ideal read path is the product's hot loop, so it
    // must hold the checked-in ns/inference budget. Re-measure with fresh
    // passes before failing a noisy run on a loaded host.
    let budget = load_budget(&budget_path, "ideal_ns_per_inference_budget").unwrap_or_else(|| {
        eprintln!(
            "could not read ideal_ns_per_inference_budget from {budget_path}; \
             regenerate NOISE_BUDGET.json or pass --budget PATH"
        );
        std::process::exit(1);
    });
    for attempt in 0..3 {
        if ideal_ns <= budget {
            break;
        }
        println!(
            "re-measuring the ideal read path (attempt {}, {:.1} ns vs {:.1} ns budget)",
            attempt + 1,
            ideal_ns,
            budget
        );
        ideal_ns = ideal_ns.min(measure_reads(&ideal_engine, &samples, passes + 1));
    }
    let realism_overhead = noisy_ns / ideal_ns;
    println!(
        "throughput: ideal {ideal_ns:.1} ns/inference (budget {budget:.1} ns), \
         full stack {noisy_ns:.1} ns/inference ({realism_overhead:.2}x)"
    );
    assert!(
        ideal_ns <= budget,
        "the ideal-mode read throughput regressed past the checked-in budget \
         ({ideal_ns:.1} ns > {budget:.1} ns); fix the regression or re-baseline NOISE_BUDGET.json"
    );

    let record = NoiseRecord {
        bench: "noise",
        generated_unix_s: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        quick,
        inferences,
        ideal_ns_per_inference: ideal_ns,
        ideal_ns_per_inference_budget: budget,
        noisy_ns_per_inference: noisy_ns,
        realism_overhead,
        worst_retention_without_refresh: worst_without,
        worst_retention_with_refresh: worst_with,
        resilience,
    };
    match std::fs::write(&out_path, serde::json::to_string_pretty(&record) + "\n") {
        Ok(()) => println!("(written to {out_path})"),
        Err(err) => {
            eprintln!("could not write {out_path}: {err}");
            std::process::exit(1);
        }
    }
}
