//! Monte-Carlo robustness analysis against FeFET threshold-voltage variation
//! (Fig. 8(c)) and multi-epoch accuracy evaluation (Fig. 7 / Fig. 8(a)).
//!
//! All sweeps take one [`MonteCarlo`] options value: the split ratio, the
//! epoch count, the seed, the worker-thread count and the per-epoch engine
//! builder. The builder makes every sweep generic over the engine's
//! [`InferenceBackend`], so the same epoch-parallel harness drives the
//! single-array crossbar (the default), the tiled multi-array fabric (each
//! epoch worker builds and caches its own fabric, so fabrics parallelize
//! across the epoch grid) or the exact software reference.

use serde::Serialize;

use febim_crossbar::RefreshOutcome;
use febim_data::rng::seeded_rng;
use febim_data::split::{stratified_split, TrainTestSplit};
use febim_data::{AccuracyStats, Dataset};
use febim_device::{NonIdealityStack, VariationModel};
use febim_quant::QuantConfig;

use crate::backend::{CrossbarBackend, InferenceBackend};
use crate::config::EngineConfig;
use crate::engine::FebimEngine;
use crate::errors::{CoreError, Result};

/// Accuracy statistics of one variation level.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VariationPoint {
    /// Threshold-voltage variation in millivolts.
    pub sigma_vth_mv: f64,
    /// Accuracy statistics over the Monte-Carlo epochs.
    pub stats: AccuracyStats,
    /// Individual per-epoch accuracies (for distribution plots).
    pub accuracies: Vec<f64>,
}

/// Accuracy statistics of one epoch-averaged evaluation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EpochAccuracy {
    /// Mean FP64 software-baseline accuracy over the epochs.
    pub software: AccuracyStats,
    /// Mean quantized-software accuracy over the epochs.
    pub quantized: AccuracyStats,
    /// Mean in-memory (crossbar + WTA) accuracy over the epochs.
    pub in_memory: AccuracyStats,
}

/// One non-ideality severity scenario of the noise campaign: a stack of
/// physical non-idealities plus how long the array serves before the aged
/// accuracy is measured.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NoiseScenario {
    /// Human-readable severity label (e.g. `"mild-drift"`).
    pub label: String,
    /// The non-ideality stack applied to every epoch's array.
    pub stack: NonIdealityStack,
    /// Physical ticks the array ages between programming and the aged
    /// evaluation.
    pub age_ticks: u64,
}

impl NoiseScenario {
    /// Creates a scenario.
    pub fn new(label: impl Into<String>, stack: NonIdealityStack, age_ticks: u64) -> Self {
        Self {
            label: label.into(),
            stack,
            age_ticks,
        }
    }
}

/// Accuracy of one (array scale × severity) cell of the noise campaign:
/// the accuracy floor before ageing, after ageing, and after an online
/// recalibration pass.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NoisePoint {
    /// Severity label of the scenario.
    pub label: String,
    /// Quantization configuration setting the array scale.
    pub quant: QuantConfig,
    /// Realized evidence columns of the programmed array (the scale axis).
    pub columns: usize,
    /// Ticks the array aged before the aged evaluation.
    pub age_ticks: u64,
    /// Accuracy of the freshly programmed array.
    pub fresh: AccuracyStats,
    /// Accuracy after ageing (drift plus accumulated read disturb).
    pub aged: AccuracyStats,
    /// Accuracy after the recalibration pass.
    pub recovered: AccuracyStats,
    /// Refresh work of the recalibration passes, merged over the epochs.
    pub refresh: RefreshOutcome,
}

fn check_epochs(epochs: usize) -> Result<()> {
    if epochs == 0 {
        return Err(CoreError::InvalidConfig {
            name: "epochs",
            reason: "at least one training/inference epoch is required".to_string(),
        });
    }
    Ok(())
}

/// Runs `run(epoch)` for every epoch in `0..epochs` across up to `threads`
/// scoped worker threads and returns the per-epoch values **in epoch order**.
///
/// Each epoch derives its RNG state from its own index, so epochs are
/// independent; splitting them into contiguous chunks and re-concatenating
/// the chunk outputs reproduces the serial result byte for byte. On failure
/// the error of the earliest failing epoch is returned, matching the error a
/// serial loop would surface.
fn epoch_values<T, F>(epochs: usize, threads: usize, run: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let threads = threads.max(1).min(epochs.max(1));
    if threads == 1 {
        return (0..epochs).map(run).collect();
    }
    let chunk = epochs.div_ceil(threads);
    let mut per_epoch: Vec<std::result::Result<T, CoreError>> = Vec::with_capacity(epochs);
    std::thread::scope(|scope| {
        let run = &run;
        let workers: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    let start = worker * chunk;
                    let end = epochs.min(start + chunk);
                    (start..end).map(run).collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            per_epoch.extend(worker.join().expect("Monte-Carlo worker panicked"));
        }
    });
    per_epoch.into_iter().collect()
}

/// Builds one epoch's engine from its training split and epoch config.
type FitFn<B> = fn(&Dataset, EngineConfig) -> Result<FebimEngine<B>>;

/// The Monte-Carlo protocol [`epoch_accuracy`], [`variation_sweep`] and
/// [`noise_campaign`] share.
///
/// Every epoch draws a fresh stratified split and retrains, as in the
/// paper's 100-epoch protocol, and seeds its RNGs from `seed` and its own
/// index. Epochs therefore run in parallel across `threads` workers and
/// still return statistics byte-identical to a serial run (`threads == 1`).
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo<F = FitFn<CrossbarBackend>> {
    /// Fraction of every epoch's split held out for testing.
    pub test_ratio: f64,
    /// Train/test epochs; at least one.
    pub epochs: usize,
    /// Base seed of every epoch's split and device-variation RNGs.
    pub seed: u64,
    /// Worker threads the epochs spread across.
    pub threads: usize,
    /// Builds each epoch's engine (`FebimEngine::fit` by default).
    pub build: F,
}

impl MonteCarlo {
    /// `epochs` epochs with `test_ratio` held out and seeded from `seed`, on
    /// the paper's single-array engine across every available core.
    pub fn new(test_ratio: f64, epochs: usize, seed: u64) -> Self {
        Self {
            test_ratio,
            epochs,
            seed,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            build: FebimEngine::fit,
        }
    }
}

impl<F> MonteCarlo<F> {
    /// The same protocol on `threads` workers (`1` forces the serial
    /// reference execution).
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }

    /// The same protocol with `build` constructing each epoch's engine,
    /// e.g. a closure capturing a [`febim_crossbar::TileShape`] that calls
    /// [`FebimEngine::fit_tiled`].
    pub fn with_backend<B, G>(self, build: G) -> MonteCarlo<G>
    where
        B: InferenceBackend,
        G: Fn(&Dataset, EngineConfig) -> Result<FebimEngine<B>>,
    {
        MonteCarlo {
            test_ratio: self.test_ratio,
            epochs: self.epochs,
            seed: self.seed,
            threads: self.threads,
            build,
        }
    }

    /// Runs `run(epoch, split)` for every epoch over that epoch's fresh
    /// stratified split, returning the values in epoch order.
    fn run_epochs<T, R>(&self, dataset: &Dataset, run: R) -> Result<Vec<T>>
    where
        T: Send,
        R: Fn(usize, TrainTestSplit) -> Result<T> + Sync,
    {
        let (seed, test_ratio) = (self.seed, self.test_ratio);
        epoch_values(self.epochs, self.threads, |epoch| {
            let mut rng = seeded_rng(seed.wrapping_add(epoch as u64));
            run(epoch, stratified_split(dataset, test_ratio, &mut rng)?)
        })
    }
}

/// Runs the epochs of `options` and reports the accuracy of the software
/// baseline, the quantized software model and the in-memory engine.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for zero epochs or an invalid test
/// ratio and propagates training/inference errors, including whatever the
/// builder returns.
pub fn epoch_accuracy<B, F>(
    dataset: &Dataset,
    config: &EngineConfig,
    options: &MonteCarlo<F>,
) -> Result<EpochAccuracy>
where
    B: InferenceBackend,
    F: Fn(&Dataset, EngineConfig) -> Result<FebimEngine<B>> + Sync,
{
    check_epochs(options.epochs)?;
    let per_epoch = options.run_epochs(dataset, |epoch, split| {
        let epoch_config = EngineConfig {
            variation_seed: options
                .seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(epoch as u64),
            ..config.clone()
        };
        let engine = (options.build)(&split.train, epoch_config)?;
        Ok((
            engine.software_model().score(&split.test)?,
            engine.quantized().score(&split.test)?,
            engine.evaluate(&split.test)?.accuracy,
        ))
    })?;
    let mut software = Vec::with_capacity(options.epochs);
    let mut quantized = Vec::with_capacity(options.epochs);
    let mut in_memory = Vec::with_capacity(options.epochs);
    for (software_accuracy, quantized_accuracy, in_memory_accuracy) in per_epoch {
        software.push(software_accuracy);
        quantized.push(quantized_accuracy);
        in_memory.push(in_memory_accuracy);
    }
    Ok(EpochAccuracy {
        software: AccuracyStats::from_values(&software)?,
        quantized: AccuracyStats::from_values(&quantized)?,
        in_memory: AccuracyStats::from_values(&in_memory)?,
    })
}

/// Sweeps the FeFET variation level and reports the in-memory accuracy
/// distribution at each σ_VTH (the Fig. 8(c) experiment), running the
/// epochs of `options` at every level.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for zero epochs and propagates
/// training/inference errors, including whatever the builder returns.
pub fn variation_sweep<B, F>(
    dataset: &Dataset,
    config: &EngineConfig,
    sigmas_mv: &[f64],
    options: &MonteCarlo<F>,
) -> Result<Vec<VariationPoint>>
where
    B: InferenceBackend,
    F: Fn(&Dataset, EngineConfig) -> Result<FebimEngine<B>> + Sync,
{
    check_epochs(options.epochs)?;
    let mut points = Vec::with_capacity(sigmas_mv.len());
    for &sigma_mv in sigmas_mv {
        let accuracies = options.run_epochs(dataset, |epoch, split| {
            let epoch_config = config.clone().with_variation(
                VariationModel::from_millivolts(sigma_mv),
                options
                    .seed
                    .wrapping_mul(31)
                    .wrapping_add((epoch as u64) << 8)
                    .wrapping_add(sigma_mv as u64),
            );
            let engine = (options.build)(&split.train, epoch_config)?;
            Ok(engine.evaluate(&split.test)?.accuracy)
        })?;
        points.push(VariationPoint {
            sigma_vth_mv: sigma_mv,
            stats: AccuracyStats::from_values(&accuracies)?,
            accuracies,
        });
    }
    Ok(points)
}

/// The time-varying non-ideality campaign: for every array scale (a
/// [`QuantConfig`]) × severity scenario, the epochs of `options` measure the
/// accuracy floor of a freshly programmed array, the same array after
/// ageing under the scenario's stack (retention drift plus the read
/// disturb accumulated by the fresh evaluation itself), and after one
/// recalibration pass at `max_vth_shift` tolerance.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for zero epochs and propagates
/// training, programming and recalibration errors, including whatever the
/// builder returns.
pub fn noise_campaign<B, F>(
    dataset: &Dataset,
    config: &EngineConfig,
    scales: &[QuantConfig],
    scenarios: &[NoiseScenario],
    max_vth_shift: f64,
    options: &MonteCarlo<F>,
) -> Result<Vec<NoisePoint>>
where
    B: InferenceBackend,
    F: Fn(&Dataset, EngineConfig) -> Result<FebimEngine<B>> + Sync,
{
    check_epochs(options.epochs)?;
    let mut points = Vec::with_capacity(scales.len() * scenarios.len());
    for (scale_index, &quant) in scales.iter().enumerate() {
        for (scenario_index, scenario) in scenarios.iter().enumerate() {
            let per_epoch = options.run_epochs(dataset, |epoch, split| {
                let epoch_config = EngineConfig {
                    quant,
                    non_idealities: scenario.stack,
                    variation_seed: options
                        .seed
                        .wrapping_mul(0x9e37_79b9)
                        .wrapping_add((scale_index as u64) << 24)
                        .wrapping_add((scenario_index as u64) << 16)
                        .wrapping_add(epoch as u64),
                    ..config.clone()
                };
                let mut engine = (options.build)(&split.train, epoch_config)?;
                let columns = engine.backend_info().columns;
                let fresh = engine.evaluate(&split.test)?.accuracy;
                engine.advance_time(scenario.age_ticks);
                let aged = engine.evaluate(&split.test)?.accuracy;
                let refresh = engine.recalibrate(max_vth_shift)?;
                let recovered = engine.evaluate(&split.test)?.accuracy;
                Ok((columns, fresh, aged, recovered, refresh))
            })?;
            let mut columns = 0usize;
            let mut fresh = Vec::with_capacity(options.epochs);
            let mut aged = Vec::with_capacity(options.epochs);
            let mut recovered = Vec::with_capacity(options.epochs);
            let mut refresh = RefreshOutcome::default();
            for (epoch_columns, f, a, r, outcome) in per_epoch {
                columns = columns.max(epoch_columns);
                fresh.push(f);
                aged.push(a);
                recovered.push(r);
                refresh.merge(&outcome);
            }
            points.push(NoisePoint {
                label: scenario.label.clone(),
                quant,
                columns,
                age_ticks: scenario.age_ticks,
                fresh: AccuracyStats::from_values(&fresh)?,
                aged: AccuracyStats::from_values(&aged)?,
                recovered: AccuracyStats::from_values(&recovered)?,
                refresh,
            });
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use febim_data::synthetic::iris_like;

    #[test]
    fn options_default_to_every_core_and_keep_their_protocol_across_builders() {
        let options = MonteCarlo::new(0.6, 3, 17);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(options.threads, cores);
        let shape = febim_crossbar::TileShape::new(2, 24).unwrap();
        let tiled = options
            .with_threads(5)
            .with_backend(|train, epoch_config| FebimEngine::fit_tiled(train, epoch_config, shape));
        assert_eq!(
            (tiled.test_ratio, tiled.epochs, tiled.seed, tiled.threads),
            (0.6, 3, 17, 5)
        );
    }

    #[test]
    fn zero_epochs_rejected() {
        let dataset = iris_like(60).unwrap();
        let config = EngineConfig::febim_default();
        assert!(epoch_accuracy(&dataset, &config, &MonteCarlo::new(0.7, 0, 1)).is_err());
        assert!(variation_sweep(&dataset, &config, &[0.0], &MonteCarlo::new(0.7, 0, 1)).is_err());
    }

    #[test]
    fn epoch_accuracy_tracks_baseline() {
        let dataset = iris_like(61).unwrap();
        let config = EngineConfig::febim_default();
        let result = epoch_accuracy(&dataset, &config, &MonteCarlo::new(0.7, 5, 61)).unwrap();
        assert_eq!(result.software.count, 5);
        assert!(
            result.software.mean > 0.88,
            "software {}",
            result.software.mean
        );
        assert!(
            result.software.mean - result.in_memory.mean < 0.05,
            "software {} in-memory {}",
            result.software.mean,
            result.in_memory.mean
        );
        assert!(
            (result.quantized.mean - result.in_memory.mean).abs() < 0.05,
            "quantized {} in-memory {}",
            result.quantized.mean,
            result.in_memory.mean
        );
    }

    #[test]
    fn variation_sweep_degrades_gracefully() {
        let dataset = iris_like(62).unwrap();
        let config = EngineConfig::febim_default();
        let points = variation_sweep(
            &dataset,
            &config,
            &[0.0, 45.0],
            &MonteCarlo::new(0.7, 4, 62),
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].sigma_vth_mv, 0.0);
        assert_eq!(points[1].accuracies.len(), 4);
        // Fig. 8(c): the mean accuracy drop at 45 mV is around 5 %; allow a
        // generous bound for the small epoch count used in this test.
        let drop = points[0].stats.mean - points[1].stats.mean;
        assert!(drop < 0.20, "accuracy drop {drop}");
        assert!(points[1].stats.mean > 0.6);
    }

    #[test]
    fn results_are_deterministic_for_a_seed() {
        let dataset = iris_like(63).unwrap();
        let config = EngineConfig::febim_default();
        let a = epoch_accuracy(&dataset, &config, &MonteCarlo::new(0.7, 3, 7)).unwrap();
        let b = epoch_accuracy(&dataset, &config, &MonteCarlo::new(0.7, 3, 7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_epochs_are_byte_identical_to_serial() {
        let dataset = iris_like(64).unwrap();
        let config = EngineConfig::febim_default()
            .with_variation(febim_device::VariationModel::from_millivolts(30.0), 5);
        // Five epochs across 1 (serial reference), 2 (uneven chunks), 3
        // (chunk boundary mid-range) and 8 (more workers than epochs) threads
        // must agree bit for bit, and the default-thread public entry point
        // must match the serial reference too.
        let options = MonteCarlo::new(0.7, 5, 11);
        let serial = epoch_accuracy(&dataset, &config, &options.with_threads(1)).unwrap();
        for threads in [2, 3, 8] {
            let parallel =
                epoch_accuracy(&dataset, &config, &options.with_threads(threads)).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        assert_eq!(serial, epoch_accuracy(&dataset, &config, &options).unwrap());
    }

    #[test]
    fn parallel_variation_sweep_is_byte_identical_to_serial() {
        let dataset = iris_like(65).unwrap();
        let config = EngineConfig::febim_default();
        let sigmas = [0.0, 45.0];
        let options = MonteCarlo::new(0.7, 4, 9);
        let serial = variation_sweep(&dataset, &config, &sigmas, &options.with_threads(1)).unwrap();
        for threads in [2, 4, 7] {
            let parallel =
                variation_sweep(&dataset, &config, &sigmas, &options.with_threads(threads))
                    .unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        assert_eq!(
            serial,
            variation_sweep(&dataset, &config, &sigmas, &options).unwrap()
        );
    }

    #[test]
    fn tiled_backend_sweeps_match_the_monolithic_backend() {
        // The tiled fabric's reads are bit-identical to the single array's,
        // so every Monte-Carlo statistic must match byte for byte — including
        // under device variation (same RNG consumption order).
        let dataset = iris_like(67).unwrap();
        let config = EngineConfig::febim_default();
        let shape = febim_crossbar::TileShape::new(2, 24).unwrap();
        let build_tiled = |train: &Dataset, epoch_config: EngineConfig| {
            FebimEngine::fit_tiled(train, epoch_config, shape)
        };
        let epochs = MonteCarlo::new(0.7, 3, 13).with_threads(2);
        let monolithic = epoch_accuracy(&dataset, &config, &epochs).unwrap();
        let tiled = epoch_accuracy(&dataset, &config, &epochs.with_backend(build_tiled)).unwrap();
        assert_eq!(monolithic, tiled);
        let sweep = MonteCarlo::new(0.7, 2, 5).with_threads(2);
        let sweep_monolithic = variation_sweep(&dataset, &config, &[45.0], &sweep).unwrap();
        let sweep_tiled =
            variation_sweep(&dataset, &config, &[45.0], &sweep.with_backend(build_tiled)).unwrap();
        assert_eq!(sweep_monolithic, sweep_tiled);
    }

    fn drifted_scenarios() -> Vec<NoiseScenario> {
        use febim_device::{ReadDisturb, RetentionDrift};
        vec![
            NoiseScenario::new("ideal", NonIdealityStack::ideal(), 100_000),
            NoiseScenario::new(
                "drift+disturb",
                NonIdealityStack::ideal()
                    .with_drift(RetentionDrift::new(0.05, 100))
                    .with_disturb(ReadDisturb::new(64, 0.002)),
                100_000,
            ),
        ]
    }

    #[test]
    fn noise_campaign_recovers_fresh_accuracy_and_counts_refresh_work() {
        let dataset = iris_like(68).unwrap();
        let config = EngineConfig::febim_default();
        let scales = [QuantConfig::febim_optimal()];
        let points = noise_campaign(
            &dataset,
            &config,
            &scales,
            &drifted_scenarios(),
            1e-6,
            &MonteCarlo::new(0.7, 3, 68),
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        let ideal = &points[0];
        let noisy = &points[1];
        assert!(ideal.columns > 0);
        // Ideal arrays never drift, so ageing is a no-op and recalibration
        // finds nothing to refresh.
        assert_eq!(ideal.fresh, ideal.aged);
        assert_eq!(ideal.fresh, ideal.recovered);
        assert_eq!(ideal.refresh.cells_refreshed, 0);
        // The drifted scenario does real refresh work, and with σ_VTH = 0 the
        // refreshed array reproduces the fresh accuracy exactly.
        assert!(noisy.refresh.cells_refreshed > 0);
        assert!(noisy.refresh.pulses_applied > 0);
        assert!(noisy.refresh.energy_joules > 0.0);
        assert_eq!(noisy.fresh, noisy.recovered);
    }

    #[test]
    fn parallel_noise_campaign_is_byte_identical_to_serial() {
        let dataset = iris_like(69).unwrap();
        let config = EngineConfig::febim_default();
        let scales = [QuantConfig::febim_optimal()];
        let scenarios = drifted_scenarios();
        let options = MonteCarlo::new(0.7, 4, 69);
        let serial = noise_campaign(
            &dataset,
            &config,
            &scales,
            &scenarios,
            1e-6,
            &options.with_threads(1),
        )
        .unwrap();
        for threads in [2, 3, 8] {
            let parallel = noise_campaign(
                &dataset,
                &config,
                &scales,
                &scenarios,
                1e-6,
                &options.with_threads(threads),
            )
            .unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn tiled_noise_campaign_matches_the_monolithic_backend() {
        let dataset = iris_like(70).unwrap();
        let config = EngineConfig::febim_default();
        let scales = [QuantConfig::febim_optimal()];
        let scenarios = drifted_scenarios();
        let shape = febim_crossbar::TileShape::new(2, 24).unwrap();
        let build_tiled = |train: &Dataset, epoch_config: EngineConfig| {
            FebimEngine::fit_tiled(train, epoch_config, shape)
        };
        let options = MonteCarlo::new(0.7, 3, 70).with_threads(2);
        let monolithic =
            noise_campaign(&dataset, &config, &scales, &scenarios, 1e-6, &options).unwrap();
        let tiled = noise_campaign(
            &dataset,
            &config,
            &scales,
            &scenarios,
            1e-6,
            &options.with_backend(build_tiled),
        )
        .unwrap();
        assert_eq!(monolithic, tiled);
    }

    #[test]
    fn epoch_errors_surface_in_epoch_order() {
        // A failing epoch must report the earliest epoch's error regardless
        // of thread interleaving; here every epoch fails identically with an
        // invalid test ratio.
        let dataset = iris_like(66).unwrap();
        let config = EngineConfig::febim_default();
        let options = MonteCarlo::new(2.0, 4, 3);
        let serial = epoch_accuracy(&dataset, &config, &options.with_threads(1)).unwrap_err();
        let parallel = epoch_accuracy(&dataset, &config, &options.with_threads(4)).unwrap_err();
        assert_eq!(serial.to_string(), parallel.to_string());
    }
}
