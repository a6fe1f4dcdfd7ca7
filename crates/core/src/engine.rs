//! The FeBiM inference engine: a trained + quantized Bayesian model wired to
//! a pluggable [`InferenceBackend`] — the exact software reference, the
//! paper's single crossbar array, or a tiled multi-array fabric — exposed
//! through one classifier-style API.

use std::sync::Arc;

use serde::Serialize;

use febim_circuit::{DelayBreakdown, InferenceEnergy, SensingChain, TileGeometry};
use febim_crossbar::{
    Activation, FaultSchedule, RefreshOutcome, ScrubOutcome, TileGrid, TileShape,
};

use febim_bayes::GaussianNaiveBayes;
use febim_data::Dataset;
use febim_quant::QuantizedGnbc;

use crate::backend::{
    BackendInfo, BatchTelemetry, CrossbarBackend, FabricBackend, InferenceBackend, ReadPricing,
    SoftwareBackend, TiledFabricBackend,
};
use crate::compiler::{CrossbarProgram, TiledProgram};
use crate::config::EngineConfig;
use crate::errors::{CoreError, Result};

/// Result of one in-memory inference.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct InferenceOutcome {
    /// Predicted class (the wordline selected by the WTA circuit).
    pub prediction: usize,
    /// Accumulated wordline currents, in amperes (unnormalized log-posterior
    /// scores for the software backend).
    pub wordline_currents: Vec<f64>,
    /// Worst-case delay estimate of this inference.
    pub delay: DelayBreakdown,
    /// Energy estimate of this inference.
    pub energy: InferenceEnergy,
    /// Whether two or more wordlines tied for the maximum (on a physical
    /// backend, their mirror copies did) and the tie was broken
    /// deterministically: the first maximum of the scores wins.
    pub tie_broken: bool,
}

/// Result of one scratch-based inference (the allocation-free variant of
/// [`InferenceOutcome`]): the wordline currents stay in the caller's
/// [`EvalScratch`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InferenceStep {
    /// Predicted class (the wordline selected by the WTA circuit).
    pub prediction: usize,
    /// Worst-case delay estimate of this inference.
    pub delay: DelayBreakdown,
    /// Energy estimate of this inference.
    pub energy: InferenceEnergy,
    /// Whether the winner was decided by deterministic tie-breaking.
    pub tie_broken: bool,
}

/// Reusable buffers of the inference path: discretized evidence, one
/// activation pattern per read, the read kernel's output, the last read's
/// scores, the mirrored currents of the sensing chain, and (for fabric
/// pricing) the per-tile read geometries. A sequential read is a group of
/// one, so one scratch serves any number of [`FebimEngine::infer_into`] and
/// [`FebimEngine::infer_batch_into`] calls without allocating once its
/// buffers have grown to the largest batch.
///
/// Create with [`FebimEngine::make_scratch`]; a scratch can be reused across
/// engines and backends that share a geometry (buffers are resized on
/// demand).
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    pub(crate) evidence: Vec<usize>,
    /// One activation per read of a call (physical backends only).
    pub(crate) activations: Vec<Activation>,
    /// The read kernel's output for every read of a call, read-major: each
    /// read's wordline currents, or for a bit-plane program its per-plane
    /// integer partial sums (`[(read * rows + row) * planes + plane]`).
    pub(crate) kernel_out: Vec<f64>,
    /// The scores of the call's last read.
    pub(crate) currents: Vec<f64>,
    pub(crate) mirrored: Vec<f64>,
    /// Per-tile occupied geometry + activated-bitline count of the current
    /// read (fabric pricing only, grid row-major).
    pub(crate) tiles: Vec<TileGeometry>,
    /// Packed-column evidence of the current read (bit-plane encoding only):
    /// the discretized bin of each feature mapped to its packed column.
    pub(crate) packed_evidence: Vec<usize>,
    /// Per-activated-column digit bit offsets of a packed read (bit-plane
    /// encoding only), concatenated read after read.
    pub(crate) bit_offsets: Vec<u8>,
    /// Digitized per-column cell levels of one packed wordline read.
    pub(crate) level_scratch: Vec<usize>,
}

impl EvalScratch {
    /// The per-class scores of the most recent read — of a
    /// [`FebimEngine::infer_into`] call, or the last sample of a
    /// [`FebimEngine::infer_batch_into`] call: accumulated wordline
    /// currents in amperes for the physical backends, unnormalized log
    /// posteriors for the software backend.
    pub fn wordline_currents(&self) -> &[f64] {
        &self.currents
    }
}

/// Aggregated evaluation of the engine on a labelled dataset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EvaluationReport {
    /// Classification accuracy.
    pub accuracy: f64,
    /// Per-sample predictions, in dataset order.
    pub predictions: Vec<usize>,
    /// Mean inference delay in seconds.
    pub mean_delay: f64,
    /// Mean total inference energy in joules.
    pub mean_energy: f64,
    /// Mean array (drivers + conduction) energy in joules.
    pub mean_array_energy: f64,
    /// Mean sensing (mirrors + WTA) energy in joules.
    pub mean_sensing_energy: f64,
    /// Number of evaluated samples.
    pub samples: usize,
    /// Number of inferences whose winner was decided by tie-breaking.
    pub ties: usize,
}

/// The FeBiM engine, generic over its [`InferenceBackend`].
///
/// The default backend is the paper's single-array crossbar
/// ([`CrossbarBackend`]); [`FebimEngine::fit_tiled`] builds a tiled-fabric
/// engine and [`FebimEngine::fit_software`] the exact software reference.
/// All dataset-level APIs (`infer`, `evaluate`, Monte-Carlo entry points)
/// are backend-agnostic.
#[derive(Debug, Clone)]
pub struct FebimEngine<B: InferenceBackend = CrossbarBackend> {
    config: EngineConfig,
    model: Arc<GaussianNaiveBayes>,
    quantized: Arc<QuantizedGnbc>,
    backend: B,
}

/// Trains + quantizes a model and hands the quantized tables to `build`.
/// Engine and backend share the model and the quantized tables by `Arc`, so
/// building an engine never deep-clones either (the Monte-Carlo sweeps build
/// one engine per epoch).
fn build_engine<B: InferenceBackend>(
    model: Arc<GaussianNaiveBayes>,
    train_data: &Dataset,
    config: EngineConfig,
    build: impl FnOnce(Arc<QuantizedGnbc>, &EngineConfig) -> Result<B>,
) -> Result<FebimEngine<B>> {
    config.validate()?;
    let quantized = Arc::new(QuantizedGnbc::quantize(&model, train_data, config.quant)?);
    let backend = build(Arc::clone(&quantized), &config)?;
    Ok(FebimEngine {
        config,
        model,
        quantized,
        backend,
    })
}

impl FebimEngine<CrossbarBackend> {
    /// Trains a GNBC on the training data, quantizes it, compiles it to a
    /// crossbar program and programs a (possibly variation-affected) array.
    ///
    /// # Errors
    ///
    /// Propagates configuration, training, quantization, compilation and
    /// programming errors.
    pub fn fit(train_data: &Dataset, config: EngineConfig) -> Result<Self> {
        let model = GaussianNaiveBayes::fit(train_data)?;
        build_engine(Arc::new(model), train_data, config, CrossbarBackend::new)
    }

    /// The programmed crossbar array: a one-tile [`TileGrid`] (the same as
    /// [`FebimEngine::grid`]).
    pub fn array(&self) -> &TileGrid {
        self.backend.grid()
    }
}

impl FebimEngine<TiledFabricBackend> {
    /// Trains a GNBC and deploys it across a grid of `shape`-sized crossbar
    /// tiles (row-wise class sharding × column-wise evidence splitting).
    ///
    /// # Errors
    ///
    /// Propagates configuration, training, quantization, tile-planning and
    /// programming errors.
    pub fn fit_tiled(train_data: &Dataset, config: EngineConfig, shape: TileShape) -> Result<Self> {
        let model = GaussianNaiveBayes::fit(train_data)?;
        build_engine(Arc::new(model), train_data, config, |quantized, config| {
            TiledFabricBackend::new(quantized, config, shape)
        })
    }
}

impl<P: ReadPricing> FebimEngine<FabricBackend<P>> {
    /// The compiled crossbar program.
    pub fn program(&self) -> &CrossbarProgram {
        self.backend.program()
    }

    /// The compiled program together with its tile plan.
    pub fn tiled_program(&self) -> &TiledProgram {
        self.backend.tiled_program()
    }

    /// The programmed grid.
    pub fn grid(&self) -> &TileGrid {
        self.backend.grid()
    }

    /// The sensing chain (mirrors, WTA, delay and energy models).
    pub fn sensing(&self) -> &SensingChain {
        self.backend.sensing()
    }

    /// Replaces the sensing chain (e.g. to study mirror mismatch).
    pub fn set_sensing(&mut self, sensing: SensingChain) {
        self.backend.set_sensing(sensing);
    }

    /// Read-current map of the programmed cells in logical row-major order,
    /// in amperes (the data behind the Fig. 8(b) state map).
    ///
    /// This is the allocating convenience wrapper around
    /// [`FebimEngine::current_map_into`], which reuses an [`EvalScratch`]
    /// buffer and reads through the conductance cache.
    pub fn current_map(&self) -> Vec<Vec<f64>> {
        let mut scratch = EvalScratch::default();
        let flat = self
            .current_map_into(&mut scratch)
            .expect("physical backend has a state map");
        flat.chunks(self.grid().layout().columns())
            .map(<[f64]>::to_vec)
            .collect()
    }
}

impl FebimEngine<SoftwareBackend> {
    /// Trains a GNBC and serves it through the exact FP64 software backend
    /// (no quantization error, no devices, zero delay/energy) — the ground
    /// truth the physical backends are compared against.
    ///
    /// # Errors
    ///
    /// Propagates configuration, training and quantization errors (the model
    /// is still quantized so [`FebimEngine::quantized`] stays comparable
    /// across backends).
    pub fn fit_software(train_data: &Dataset, config: EngineConfig) -> Result<Self> {
        let model = Arc::new(GaussianNaiveBayes::fit(train_data)?);
        build_engine(Arc::clone(&model), train_data, config, move |_, _| {
            Ok(SoftwareBackend::new(model))
        })
    }
}

impl<B: InferenceBackend> FebimEngine<B> {
    /// Builds an engine around a **custom** backend implementation: the
    /// model is trained and quantized exactly as for the built-in backends,
    /// then `build` receives the shared quantized tables and the validated
    /// configuration and returns the backend. This is the extension point
    /// for out-of-crate [`InferenceBackend`] implementations (instrumented
    /// wrappers, alternative physics) so they can ride the full engine and
    /// serving APIs.
    ///
    /// # Errors
    ///
    /// Propagates configuration, training and quantization errors, plus
    /// whatever `build` returns.
    pub fn fit_with(
        train_data: &Dataset,
        config: EngineConfig,
        build: impl FnOnce(Arc<QuantizedGnbc>, &EngineConfig) -> Result<B>,
    ) -> Result<Self> {
        let model = GaussianNaiveBayes::fit(train_data)?;
        build_engine(Arc::new(model), train_data, config, build)
    }

    /// Builds an engine from **already materialized** parts: a trained
    /// model and its quantized tables are handed straight to `build`
    /// without retraining or requantizing, so no training data is needed.
    /// Registry restore passes tables it rebuilt with
    /// [`QuantizedGnbc::with_discretizer`], and the registry's fault-in the
    /// tables of an engine it catalogued. The caller owns the contract that
    /// `quantized` was produced from `model` under `config.quant`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors and whatever `build`
    /// returns.
    pub fn from_parts(
        model: Arc<GaussianNaiveBayes>,
        quantized: Arc<QuantizedGnbc>,
        config: EngineConfig,
        build: impl FnOnce(Arc<QuantizedGnbc>, &EngineConfig) -> Result<B>,
    ) -> Result<Self> {
        config.validate()?;
        let backend = build(Arc::clone(&quantized), &config)?;
        Ok(Self {
            config,
            model,
            quantized,
            backend,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The FP64 software model the engine was built from.
    pub fn software_model(&self) -> &GaussianNaiveBayes {
        self.model.as_ref()
    }

    /// The quantized model.
    pub fn quantized(&self) -> &QuantizedGnbc {
        self.quantized.as_ref()
    }

    /// Borrow the inference backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Descriptive metadata of the active backend.
    pub fn backend_info(&self) -> BackendInfo {
        self.backend.info()
    }

    /// Re-programs the backend's physical state from the compiled model and
    /// re-applies the configured device variation (fresh sample from the
    /// configured seed). A no-op for the software backend.
    ///
    /// # Errors
    ///
    /// Propagates programming errors.
    pub fn reprogram(&mut self) -> Result<()> {
        self.backend.reprogram()
    }

    /// Preisach-priced cost of programming this engine's compiled model
    /// onto erased cells (see [`InferenceBackend::program_cost`]); `None`
    /// for backends without a physical program.
    pub fn program_cost(&self) -> Option<crate::backend::SwapCost> {
        self.backend.program_cost()
    }

    /// Erases the backend's programmed region back to the blank state and
    /// returns the erase cost (see [`InferenceBackend::decommission`]);
    /// `Ok(None)` for backends without physical state.
    ///
    /// # Errors
    ///
    /// Propagates erase/programming errors.
    pub fn decommission(&mut self) -> Result<Option<crate::backend::SwapCost>> {
        self.backend.decommission()
    }

    /// The trained model behind this engine, by shared handle (the registry
    /// snapshots it without deep-cloning).
    pub(crate) fn shared_model(&self) -> Arc<GaussianNaiveBayes> {
        Arc::clone(&self.model)
    }

    /// The quantized tables behind this engine, by shared handle.
    pub(crate) fn shared_quantized(&self) -> Arc<QuantizedGnbc> {
        Arc::clone(&self.quantized)
    }

    /// Advances the backend's physical clock by `ticks`, aging every cell
    /// under the configured retention-drift model. A no-op for the software
    /// backend.
    pub fn advance_time(&mut self, ticks: u64) {
        self.backend.advance_time(ticks);
    }

    /// The backend's physical clock in ticks (0 for the software backend).
    pub fn clock(&self) -> u64 {
        self.backend.clock()
    }

    /// Monotone version counter of the backend's physical state (see
    /// [`InferenceBackend::state_epoch`]).
    pub fn state_epoch(&self) -> u64 {
        self.backend.state_epoch()
    }

    /// The largest effective threshold-voltage shift (drift plus disturb,
    /// in volts) currently degrading any programmed cell.
    pub fn worst_effective_shift(&self) -> f64 {
        self.backend.worst_effective_shift()
    }

    /// Reprograms every cell whose effective threshold shift exceeds
    /// `max_vth_shift` volts back to its target level and returns the work
    /// done. A zero-work no-op for the software backend.
    ///
    /// # Errors
    ///
    /// Propagates programming errors.
    pub fn recalibrate(&mut self, max_vth_shift: f64) -> Result<RefreshOutcome> {
        self.backend.recalibrate(max_vth_shift)
    }

    /// BIST-style scrub pass over the backend's cells: read-verifies every
    /// programmed cell against its target signature, repairs transient
    /// defects in place and — on the tiled fabric — remaps rows with stuck
    /// cells onto spare physical rows. A clean no-op for the software
    /// backend.
    ///
    /// # Errors
    ///
    /// Propagates programming errors from repair writes.
    pub fn scrub(&mut self, max_vth_shift: f64) -> Result<ScrubOutcome> {
        self.backend.scrub(max_vth_shift)
    }

    /// Installs a deterministic chaos schedule on the backend: events strike
    /// as [`FebimEngine::advance_time`] moves the clock past their tick. A
    /// no-op for the software backend.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.backend.set_fault_schedule(schedule);
    }

    /// Scheduled chaos events not yet delivered.
    pub fn pending_faults(&self) -> usize {
        self.backend.pending_faults()
    }

    /// Builds the exact software-reference twin of this engine: the same
    /// trained model, quantized tables and configuration, served through a
    /// [`SoftwareBackend`]. This is the graceful-degradation fallback a
    /// serving pool switches to when every physical replica has been
    /// quarantined.
    pub fn software_fallback(&self) -> FebimEngine<SoftwareBackend> {
        FebimEngine {
            config: self.config.clone(),
            model: Arc::clone(&self.model),
            quantized: Arc::clone(&self.quantized),
            backend: SoftwareBackend::new(Arc::clone(&self.model)),
        }
    }

    /// Creates a scratch sized for this engine's geometry, for use with
    /// [`FebimEngine::infer_into`].
    pub fn make_scratch(&self) -> EvalScratch {
        self.backend.make_scratch()
    }

    /// Runs one inference for a continuous sample, reusing the caller's
    /// scratch buffers: after the first call on a given geometry the hot
    /// path performs no heap allocation. The per-class scores remain
    /// available through [`EvalScratch::wordline_currents`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DatasetMismatch`] for a sample with the wrong
    /// number of features and propagates backend errors.
    pub fn infer_into(&self, sample: &[f64], scratch: &mut EvalScratch) -> Result<InferenceStep> {
        if sample.len() != self.quantized.n_features() {
            return Err(CoreError::DatasetMismatch {
                expected_features: self.quantized.n_features(),
                found_features: sample.len(),
            });
        }
        self.backend.infer_into(sample, scratch)
    }

    /// Runs one inference for every sample of a batch, reusing the caller's
    /// scratch and writing one [`InferenceStep`] per sample into `steps`
    /// (cleared first). Per-sample results are **bit-identical** to
    /// sequential [`FebimEngine::infer_into`] calls on the same backend; the
    /// returned [`BatchTelemetry`] prices the whole group, with backends
    /// that support grouped reads (the crossbar and the tiled fabric)
    /// amortizing array settling and wordline drivers across the batch.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DatasetMismatch`] if any sample has the wrong
    /// number of features (before any inference runs) and propagates backend
    /// errors.
    pub fn infer_batch_into(
        &self,
        samples: &[Vec<f64>],
        scratch: &mut EvalScratch,
        steps: &mut Vec<InferenceStep>,
    ) -> Result<BatchTelemetry> {
        for sample in samples {
            if sample.len() != self.quantized.n_features() {
                return Err(CoreError::DatasetMismatch {
                    expected_features: self.quantized.n_features(),
                    found_features: sample.len(),
                });
            }
        }
        self.backend.infer_batch_into(samples, scratch, steps)
    }

    /// Runs one inference for a continuous sample.
    ///
    /// This is the allocating convenience wrapper around
    /// [`FebimEngine::infer_into`]; batched callers should create one
    /// [`EvalScratch`] and call `infer_into` directly.
    ///
    /// # Errors
    ///
    /// Same as [`FebimEngine::infer_into`].
    pub fn infer(&self, sample: &[f64]) -> Result<InferenceOutcome> {
        let mut scratch = self.make_scratch();
        let step = self.infer_into(sample, &mut scratch)?;
        Ok(InferenceOutcome {
            prediction: step.prediction,
            wordline_currents: scratch.currents,
            delay: step.delay,
            energy: step.energy,
            tie_broken: step.tie_broken,
        })
    }

    /// Predicts the class of one sample (discarding the circuit telemetry).
    ///
    /// # Errors
    ///
    /// Propagates [`FebimEngine::infer`] errors.
    pub fn predict(&self, sample: &[f64]) -> Result<usize> {
        Ok(self.infer(sample)?.prediction)
    }

    /// Evaluates the engine on a labelled dataset.
    ///
    /// The whole batch runs through one [`EvalScratch`], so per-sample work
    /// allocates nothing beyond the returned prediction vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DatasetMismatch`] when the dataset has the wrong
    /// number of features and propagates inference errors.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<EvaluationReport> {
        if dataset.n_features() != self.quantized.n_features() {
            return Err(CoreError::DatasetMismatch {
                expected_features: self.quantized.n_features(),
                found_features: dataset.n_features(),
            });
        }
        let mut scratch = self.make_scratch();
        let mut predictions = Vec::with_capacity(dataset.n_samples());
        let mut correct = 0usize;
        let mut ties = 0usize;
        let mut delay_sum = 0.0;
        let mut energy_sum = 0.0;
        let mut array_energy_sum = 0.0;
        let mut sensing_energy_sum = 0.0;
        for (sample, label) in dataset.iter() {
            let step = self.infer_into(sample, &mut scratch)?;
            if step.prediction == label {
                correct += 1;
            }
            if step.tie_broken {
                ties += 1;
            }
            delay_sum += step.delay.total();
            energy_sum += step.energy.total();
            array_energy_sum += step.energy.array;
            sensing_energy_sum += step.energy.sensing;
            predictions.push(step.prediction);
        }
        let samples = dataset.n_samples();
        Ok(EvaluationReport {
            accuracy: correct as f64 / samples as f64,
            predictions,
            mean_delay: delay_sum / samples as f64,
            mean_energy: energy_sum / samples as f64,
            mean_array_energy: array_energy_sum / samples as f64,
            mean_sensing_energy: sensing_energy_sum / samples as f64,
            samples,
            ties,
        })
    }

    /// Read-current state map of the backend's cells, flattened row-major
    /// into the scratch's score buffer (no fresh allocation after the first
    /// call on a given geometry).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsupportedOperation`] for backends without
    /// physical state (the software backend).
    pub fn current_map_into<'a>(&self, scratch: &'a mut EvalScratch) -> Result<&'a [f64]> {
        self.backend.current_map_into(&mut scratch.currents)?;
        Ok(&scratch.currents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use febim_data::rng::seeded_rng;
    use febim_data::split::stratified_split;
    use febim_data::synthetic::iris_like;
    use febim_device::VariationModel;

    fn iris_engine() -> (FebimEngine, Dataset, Dataset) {
        let dataset = iris_like(40).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(40)).unwrap();
        let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default()).unwrap();
        (engine, split.train, split.test)
    }

    #[test]
    fn engine_builds_the_paper_geometry() {
        let (engine, _, _) = iris_engine();
        assert_eq!(engine.array().layout().rows(), 3);
        assert_eq!(engine.array().layout().columns(), 64);
        assert_eq!(engine.program().state_count(), 4);
        assert!(engine.quantized().has_uniform_prior());
        let info = engine.backend_info();
        assert_eq!(info.events, 3);
        assert_eq!(info.tiles, 1);
    }

    #[test]
    fn in_memory_accuracy_tracks_the_software_baseline() {
        let (engine, _, test) = iris_engine();
        let software = engine.software_model().score(&test).unwrap();
        let report = engine.evaluate(&test).unwrap();
        assert!(
            software - report.accuracy < 0.06,
            "software {software} in-memory {}",
            report.accuracy
        );
        assert!(
            report.accuracy > 0.85,
            "in-memory accuracy {}",
            report.accuracy
        );
        assert_eq!(report.predictions.len(), test.n_samples());
        assert_eq!(report.samples, test.n_samples());
    }

    #[test]
    fn inference_reports_positive_delay_and_energy() {
        let (engine, _, test) = iris_engine();
        let outcome = engine.infer(test.sample(0).unwrap()).unwrap();
        assert!(outcome.delay.total() > 0.0);
        assert!(outcome.energy.total() > 0.0);
        assert_eq!(outcome.wordline_currents.len(), 3);
        // Wordline currents sit in the microampere regime expected from the
        // 0.1 µA – 1.0 µA per-cell window with four activated columns.
        for &current in &outcome.wordline_currents {
            assert!(current > 0.1e-6 && current < 8.0e-6, "current {current}");
        }
    }

    #[test]
    fn predictions_match_infer_outcomes() {
        let (engine, _, test) = iris_engine();
        for index in 0..5 {
            let sample = test.sample(index).unwrap();
            assert_eq!(
                engine.predict(sample).unwrap(),
                engine.infer(sample).unwrap().prediction
            );
        }
    }

    #[test]
    fn scratch_based_inference_matches_the_allocating_path() {
        let (engine, _, test) = iris_engine();
        let mut scratch = engine.make_scratch();
        for index in 0..test.n_samples() {
            let sample = test.sample(index).unwrap();
            let outcome = engine.infer(sample).unwrap();
            let step = engine.infer_into(sample, &mut scratch).unwrap();
            assert_eq!(step.prediction, outcome.prediction);
            assert_eq!(step.tie_broken, outcome.tie_broken);
            assert_eq!(step.delay, outcome.delay);
            assert_eq!(step.energy, outcome.energy);
            assert_eq!(scratch.wordline_currents(), &outcome.wordline_currents[..]);
        }
    }

    #[test]
    fn a_default_scratch_is_usable() {
        let (engine, _, test) = iris_engine();
        let sample = test.sample(0).unwrap();
        let mut scratch = EvalScratch::default();
        let step = engine.infer_into(sample, &mut scratch).unwrap();
        assert_eq!(step.prediction, engine.predict(sample).unwrap());
    }

    #[test]
    fn infer_into_rejects_wrong_feature_count() {
        let (engine, _, _) = iris_engine();
        let mut scratch = engine.make_scratch();
        assert!(matches!(
            engine.infer_into(&[1.0, 2.0], &mut scratch),
            Err(CoreError::DatasetMismatch { .. })
        ));
    }

    #[test]
    fn wrong_feature_count_rejected() {
        let (engine, _, _) = iris_engine();
        assert!(matches!(
            engine.infer(&[1.0, 2.0]),
            Err(CoreError::DatasetMismatch { .. })
        ));
        let wine = febim_data::synthetic::wine_like(2).unwrap();
        assert!(engine.evaluate(&wine).is_err());
    }

    #[test]
    fn variation_degrades_accuracy_gracefully() {
        let dataset = iris_like(41).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(41)).unwrap();
        let ideal = FebimEngine::fit(&split.train, EngineConfig::febim_default()).unwrap();
        let noisy = FebimEngine::fit(
            &split.train,
            EngineConfig::febim_default().with_variation(VariationModel::from_millivolts(45.0), 9),
        )
        .unwrap();
        let ideal_accuracy = ideal.evaluate(&split.test).unwrap().accuracy;
        let noisy_accuracy = noisy.evaluate(&split.test).unwrap().accuracy;
        // Fig. 8(c): the mean drop at 45 mV is only a few percent; allow a
        // generous bound for a single seed.
        assert!(noisy_accuracy > ideal_accuracy - 0.25);
        assert!(noisy_accuracy > 0.6);
    }

    #[test]
    fn pulse_programming_matches_ideal_closely() {
        let dataset = iris_like(42).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(42)).unwrap();
        let ideal = FebimEngine::fit(&split.train, EngineConfig::febim_default()).unwrap();
        let pulsed = FebimEngine::fit(
            &split.train,
            EngineConfig::febim_default().with_pulse_programming(),
        )
        .unwrap();
        let a = ideal.evaluate(&split.test).unwrap().accuracy;
        let b = pulsed.evaluate(&split.test).unwrap().accuracy;
        assert!((a - b).abs() < 0.08, "ideal {a} pulsed {b}");
    }

    #[test]
    fn current_map_matches_programmed_geometry() {
        let (engine, _, _) = iris_engine();
        let map = engine.current_map();
        assert_eq!(map.len(), 3);
        assert_eq!(map[0].len(), 64);
        // Every programmed cell reads inside the mapped window (with a little
        // slack for quantizer boundary states).
        for row in &map {
            for &current in row {
                assert!(current > 0.05e-6 && current < 1.2e-6, "current {current}");
            }
        }
        // The scratch-reusing path sees the same flattened values.
        let mut scratch = engine.make_scratch();
        let flat = engine.current_map_into(&mut scratch).unwrap();
        assert_eq!(flat.len(), 3 * 64);
        for (index, &value) in flat.iter().enumerate() {
            assert_eq!(value, map[index / 64][index % 64]);
        }
    }

    #[test]
    fn reprogram_is_idempotent_for_ideal_devices() {
        let (mut engine, _, test) = iris_engine();
        let before = engine.evaluate(&test).unwrap().accuracy;
        engine.reprogram().unwrap();
        let after = engine.evaluate(&test).unwrap().accuracy;
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn tiled_engine_matches_the_monolithic_engine() {
        let dataset = iris_like(43).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(43)).unwrap();
        let config = EngineConfig::febim_default();
        let monolithic = FebimEngine::fit(&split.train, config.clone()).unwrap();
        let tiled =
            FebimEngine::fit_tiled(&split.train, config, TileShape::new(2, 48).unwrap()).unwrap();
        assert!(tiled.tiled_program().plan().is_multi_tile());
        assert_eq!(tiled.backend_info().tiles, 4);
        let mono_report = monolithic.evaluate(&split.test).unwrap();
        let tiled_report = tiled.evaluate(&split.test).unwrap();
        assert_eq!(mono_report.predictions, tiled_report.predictions);
        assert_eq!(mono_report.accuracy, tiled_report.accuracy);
        assert_eq!(mono_report.ties, tiled_report.ties);
        // Same cells, same programmed currents.
        assert_eq!(monolithic.current_map(), tiled.current_map());
    }

    #[test]
    fn software_engine_is_the_exact_model() {
        let dataset = iris_like(44).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(44)).unwrap();
        let engine =
            FebimEngine::fit_software(&split.train, EngineConfig::febim_default()).unwrap();
        let report = engine.evaluate(&split.test).unwrap();
        let software = engine.software_model().score(&split.test).unwrap();
        assert_eq!(report.accuracy, software);
        assert_eq!(report.mean_delay, 0.0);
        assert_eq!(report.mean_energy, 0.0);
        let mut scratch = engine.make_scratch();
        assert!(matches!(
            engine.current_map_into(&mut scratch),
            Err(CoreError::UnsupportedOperation { .. })
        ));
    }
}
