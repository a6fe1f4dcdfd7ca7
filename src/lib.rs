//! # febim-suite
//!
//! Umbrella crate of the FeBiM reproduction. It re-exports the public
//! surface of every member crate so the runnable examples and the
//! cross-crate integration tests can use one coherent namespace, and it
//! provides a [`prelude`] for quick starts.
//!
//! See the workspace `README.md` for the project overview, `DESIGN.md` for
//! the system inventory and `EXPERIMENTS.md` for the paper-vs-measured
//! results of every regenerated figure and table.
//!
//! # Example
//!
//! ```
//! use febim_suite::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = iris_like(3)?;
//! let split = stratified_split(&dataset, 0.7, &mut seeded_rng(3))?;
//! let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default())?;
//! assert!(engine.evaluate(&split.test)?.accuracy > 0.85);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use febim_bayes as bayes;
pub use febim_circuit as circuit;
pub use febim_compare as compare;
pub use febim_core as core;
pub use febim_crossbar as crossbar;
pub use febim_data as data;
pub use febim_device as device;
pub use febim_quant as quant;

/// Commonly used items for examples and quick experiments.
///
/// The serving surface is re-exported here too — an engine becomes a
/// concurrent batch-serving pool in one call:
///
/// ```
/// use febim_suite::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = iris_like(11)?;
/// let split = stratified_split(&dataset, 0.7, &mut seeded_rng(11))?;
/// let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default())?;
/// let pool = ServingPool::replicate(&engine, 2, ServingConfig::febim_default())?;
/// let sample = split.test.sample(0).expect("sample").to_vec();
/// let outcome = pool.submit(sample)?.wait()?;
/// assert_eq!(outcome.prediction, engine.predict(split.test.sample(0).unwrap())?);
/// assert!(outcome.batch.reads >= 1);
/// let stats = pool.shutdown();
/// assert_eq!(stats.requests, 1);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use febim_bayes::{CategoricalNaiveBayes, GaussianNaiveBayes};
    pub use febim_compare::ComparisonTable;
    pub use febim_core::{
        epoch_accuracy, noise_campaign, performance_metrics, variation_sweep, BackendInfo,
        BackendKind, BatchTelemetry, CrossbarBackend, EngineConfig, FebimEngine, InferenceBackend,
        MetricsConfig, MonteCarlo, NoisePoint, NoiseScenario, PoolStats, RecalibrationPolicy,
        RecalibrationScheduler, ReplicaHealth, ScrubPolicy, ScrubReport, ScrubScheduler,
        ServeOutcome, ServingConfig, ServingError, ServingPool, SoftwareBackend, Ticket,
        TiledFabricBackend, WorkerReport,
    };
    pub use febim_crossbar::{FaultKind, FaultSchedule, ScheduledFault, ScrubOutcome, TileShape};
    pub use febim_data::rng::seeded_rng;
    pub use febim_data::split::{stratified_split, train_test_split};
    pub use febim_data::synthetic::{cancer_like, iris_like, wine_like};
    pub use febim_device::{
        NonIdealityStack, ReadDisturb, RetentionDrift, VariationModel, WireResistance,
    };
    pub use febim_quant::{QuantConfig, QuantizedGnbc};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let dataset = iris_like(1).expect("dataset");
        assert_eq!(dataset.n_samples(), 150);
        let _ = EngineConfig::febim_default();
        let _ = QuantConfig::febim_optimal();
        let _ = VariationModel::ideal();
        let _ = ComparisonTable::published();
    }
}
