//! # febim-core
//!
//! The FeBiM engine — the paper's primary contribution: an in-memory Bayesian
//! inference engine built on a multi-level-cell FeFET crossbar.
//!
//! A trained Gaussian naive Bayes classifier is quantized
//! (`febim-quant`), compiled into a crossbar program, programmed into a
//! behavioural FeFET array (`febim-device`, `febim-crossbar`) and read out
//! through a current-mirror + winner-take-all sensing chain
//! (`febim-circuit`). The crate also provides the Monte-Carlo robustness
//! study, the array-scalability sweeps and the density/efficiency metrics
//! behind the paper's evaluation section.
//!
//! # Example
//!
//! ```
//! use febim_core::{EngineConfig, FebimEngine};
//! use febim_data::{rng::seeded_rng, split::stratified_split, synthetic::iris_like};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = iris_like(7)?;
//! let split = stratified_split(&dataset, 0.7, &mut seeded_rng(7))?;
//! let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default())?;
//! let report = engine.evaluate(&split.test)?;
//! assert!(report.accuracy > 0.85);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod compiler;
pub mod config;
pub mod engine;
pub mod errors;
pub mod maintenance;
pub mod metrics;
pub mod monte_carlo;
pub mod registry;
pub mod report;
pub mod scaling;
pub mod serving;

pub use backend::{
    BackendInfo, BackendKind, BatchTelemetry, CrossbarBackend, FabricBackend, InferenceBackend,
    MonolithicPricing, ReadPricing, SoftwareBackend, SwapCost, TiledFabricBackend, TiledPricing,
};
pub use compiler::{compile, compile_tiled, CrossbarProgram, TiledProgram};
pub use config::EngineConfig;
pub use engine::{EvalScratch, EvaluationReport, FebimEngine, InferenceOutcome, InferenceStep};
pub use errors::{CoreError, Result};
pub use maintenance::{Maintenance, MaintenancePolicy, MaintenanceReport, ReplicaHealth};
pub use metrics::{ops_per_inference, performance_metrics, MetricsConfig, PerformanceMetrics};
pub use monte_carlo::{
    epoch_accuracy, noise_campaign, variation_sweep, EpochAccuracy, MonteCarlo, NoisePoint,
    NoiseScenario, VariationPoint,
};
pub use registry::{ModelRegistry, RegistryConfig, RegistryError, RegistryReport, TenantPlacement};
pub use report::{default_experiment_dir, Table};
pub use scaling::{
    column_sweep, figure6_columns, figure6_rows, measure_geometry, row_sweep, ScalingPoint,
};
/// JSON emission entry points (`to_string` / `to_string_pretty`) for every
/// `Serialize`-deriving result type (e.g. [`EvaluationReport`],
/// [`febim_crossbar::TilePlan`]) — the machinery behind `BENCH_*.json`.
pub use serde::json;
pub use serving::{
    LatencyHistogram, PoolStats, ServeOutcome, ServingConfig, ServingError, ServingPool,
    SwapReport, SwapTicket, Ticket,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use febim_data::rng::seeded_rng;
    use febim_data::split::stratified_split;
    use febim_data::synthetic::iris_like;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The in-memory prediction agrees with the quantized software model
        /// for any test sample: the crossbar is an exact analogue of the
        /// quantized sum when devices are ideal (up to exact ties).
        #[test]
        fn crossbar_matches_quantized_software(seed in 0u64..50, index in 0usize..105) {
            let dataset = iris_like(seed).unwrap();
            let split = stratified_split(&dataset, 0.7, &mut seeded_rng(seed)).unwrap();
            let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default()).unwrap();
            let sample = split.test.sample(index % split.test.n_samples()).unwrap();
            let outcome = engine.infer(sample).unwrap();
            let software = engine.quantized().predict(sample).unwrap();
            if !outcome.tie_broken {
                let scores = engine.quantized().log_posterior_scores(sample).unwrap();
                let sorted = {
                    let mut s = scores.clone();
                    s.sort_by(|a, b| b.partial_cmp(a).unwrap());
                    s
                };
                // Only compare when the software scores are not themselves tied.
                if (sorted[0] - sorted[1]).abs() > 1e-9 {
                    prop_assert_eq!(outcome.prediction, software);
                }
            }
        }

        /// A model sharded across a tiled fabric of any tile shape infers
        /// bit-identically to the monolithic single-array backend — same
        /// wordline currents, same winners, same tie-breaks — across random
        /// programs (seeds) and device variations.
        #[test]
        fn tiled_backend_is_bit_identical_to_monolithic(
            seed in 0u64..30,
            tile_rows in 1usize..4,
            tile_columns in 1usize..80,
            sigma_mv in 0.0f64..60.0,
            variation_seed in 0u64..1000,
        ) {
            let dataset = iris_like(seed).unwrap();
            let split = stratified_split(&dataset, 0.7, &mut seeded_rng(seed)).unwrap();
            let config = EngineConfig::febim_default().with_variation(
                febim_device::VariationModel::from_millivolts(sigma_mv),
                variation_seed,
            );
            let monolithic = FebimEngine::fit(&split.train, config.clone()).unwrap();
            let shape = febim_crossbar::TileShape::new(tile_rows, tile_columns).unwrap();
            let tiled = FebimEngine::fit_tiled(&split.train, config, shape).unwrap();
            let mut mono_scratch = monolithic.make_scratch();
            let mut tiled_scratch = tiled.make_scratch();
            for index in 0..split.test.n_samples() {
                let sample = split.test.sample(index).unwrap();
                let a = monolithic.infer_into(sample, &mut mono_scratch).unwrap();
                let b = tiled.infer_into(sample, &mut tiled_scratch).unwrap();
                prop_assert_eq!(a.prediction, b.prediction);
                prop_assert_eq!(a.tie_broken, b.tie_broken);
                prop_assert_eq!(
                    mono_scratch.wordline_currents(),
                    tiled_scratch.wordline_currents()
                );
            }
        }

        /// A bit-plane-packed engine of any legal cell width infers
        /// bit-identically on the monolithic array and on any tiled fabric,
        /// and its merged shift-add scores reproduce the unpacked level-sum
        /// oracle exactly — the engine-level round-trip contract of the
        /// packed encoding.
        #[test]
        fn packed_engines_match_the_unpacked_oracle(
            seed in 0u64..20,
            bits in 2u32..9,
            tile_rows in 1usize..4,
            tile_columns in 1usize..40,
        ) {
            let dataset = iris_like(seed).unwrap();
            let split = stratified_split(&dataset, 0.7, &mut seeded_rng(seed)).unwrap();
            let config = EngineConfig::febim_default()
                .with_encoding(febim_quant::Encoding::BitPlane { bits });
            let monolithic = FebimEngine::fit(&split.train, config.clone()).unwrap();
            let shape = febim_crossbar::TileShape::new(tile_rows, tile_columns).unwrap();
            let tiled = FebimEngine::fit_tiled(&split.train, config, shape).unwrap();
            let lsb = febim_device::programming::DEFAULT_MIN_READ_CURRENT;
            let quantized = monolithic.quantized();
            let mut mono_scratch = monolithic.make_scratch();
            let mut tiled_scratch = tiled.make_scratch();
            let mut evidence = Vec::new();
            for index in 0..split.test.n_samples() {
                let sample = split.test.sample(index).unwrap();
                let a = monolithic.infer_into(sample, &mut mono_scratch).unwrap();
                let b = tiled.infer_into(sample, &mut tiled_scratch).unwrap();
                prop_assert_eq!(a.prediction, b.prediction);
                prop_assert_eq!(a.tie_broken, b.tie_broken);
                prop_assert_eq!(
                    mono_scratch.wordline_currents(),
                    tiled_scratch.wordline_currents()
                );
                quantized.discretize_sample_into(sample, &mut evidence).unwrap();
                for class in 0..quantized.n_classes() {
                    let score: usize = evidence
                        .iter()
                        .enumerate()
                        .map(|(feature, &bin)| {
                            quantized.likelihood_level(class, feature, bin).unwrap()
                        })
                        .sum();
                    prop_assert_eq!(
                        mono_scratch.wordline_currents()[class],
                        lsb * score as f64
                    );
                }
            }
        }

        /// Operation counts grow monotonically with both array dimensions.
        #[test]
        fn ops_monotone(events in 1usize..32, columns in 1usize..64) {
            let base = ops_per_inference(events, columns);
            prop_assert!(ops_per_inference(events + 1, columns) >= base);
            prop_assert!(ops_per_inference(events, columns + 1) >= base);
        }

        /// Scaling measurements stay finite and positive over a wide geometry range.
        #[test]
        fn scaling_points_are_sane(rows in 1usize..16, cols in 1usize..128) {
            let chain = febim_circuit::SensingChain::febim_calibrated();
            let point = measure_geometry(rows, cols, &chain, 10).unwrap();
            prop_assert!(point.delay > 0.0 && point.delay.is_finite());
            prop_assert!(point.energy_total() > 0.0 && point.energy_total().is_finite());
        }
    }
}
