//! Behavioural model of the memristor-based Bayesian machine of Harabi et
//! al. (Nature Electronics 2023) — the state-of-the-art baseline FeBiM is
//! compared against in Table 1.
//!
//! That design stores 8-bit quantized likelihoods in digital memristor
//! memory and computes posterior products with near-memory *stochastic
//! computing*: each probability is turned into a Bernoulli bitstream by
//! comparing an LFSR sample against the stored value, and the product of
//! probabilities becomes the AND of the bitstreams. The posterior estimate
//! therefore needs one clock cycle per bitstream sample (1–255 cycles
//! depending on the operating scheme), whereas FeBiM produces the exact
//! log-domain sum in a single cycle.
//!
//! The model here reproduces that behaviour functionally (LFSRs, bitstream
//! AND, majority read-out) so the accuracy-vs-cycles and cycles-per-inference
//! trade-off behind Table 1 can be measured rather than quoted.

use serde::Serialize;

use febim_bayes::{argmax, GaussianNaiveBayes};
use febim_data::Dataset;
use febim_quant::{FeatureDiscretizer, QuantError};

/// 8-bit Galois linear-feedback shift register (maximal length, period 255).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Lfsr {
    state: u8,
}

impl Lfsr {
    /// Creates an LFSR from a non-zero seed (a zero seed is mapped to 1, the
    /// all-zero state being the single lock-up state of a Galois LFSR).
    pub fn new(seed: u8) -> Self {
        Self {
            state: if seed == 0 { 1 } else { seed },
        }
    }

    /// Advances the register and returns the new 8-bit state.
    pub fn next_sample(&mut self) -> u8 {
        let lsb = self.state & 1;
        self.state >>= 1;
        if lsb == 1 {
            // Taps for the maximal-length polynomial x^8 + x^6 + x^5 + x^4 + 1.
            self.state ^= 0xB8;
        }
        self.state
    }
}

/// Configuration of the stochastic-computing Bayesian machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BayesianMachineConfig {
    /// Feature quantization precision in bits (the published design uses
    /// 8-bit quantized likelihoods addressed by discretized observations).
    pub feature_bits: u32,
    /// Bitstream length, i.e. clock cycles per inference (1–255).
    pub cycles_per_inference: u16,
    /// Energy per clock cycle and per likelihood column, in joules. The
    /// published machine dissipates on the order of a picojoule per full
    /// inference at 255 cycles; the default reproduces that order.
    pub energy_per_cycle_per_column: f64,
}

impl BayesianMachineConfig {
    /// The maximum-accuracy operating scheme (255-cycle bitstreams).
    pub fn full_precision() -> Self {
        Self {
            feature_bits: 4,
            cycles_per_inference: 255,
            energy_per_cycle_per_column: 1.0e-15,
        }
    }

    /// A fast, lower-accuracy scheme with short bitstreams.
    pub fn fast(cycles: u16) -> Self {
        Self {
            cycles_per_inference: cycles.clamp(1, 255),
            ..Self::full_precision()
        }
    }
}

impl Default for BayesianMachineConfig {
    fn default() -> Self {
        Self::full_precision()
    }
}

/// Result of one stochastic inference.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StochasticInference {
    /// Predicted class.
    pub prediction: usize,
    /// Number of asserted cycles counted for each class (the posterior
    /// estimate numerators).
    pub counts: Vec<u32>,
    /// Clock cycles spent.
    pub cycles: u16,
    /// Energy estimate for this inference, in joules.
    pub energy: f64,
}

/// Behavioural stochastic-computing Bayesian machine.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BayesianMachine {
    config: BayesianMachineConfig,
    discretizer: FeatureDiscretizer,
    /// `likelihood_p255[class][feature][bin]`: probability scaled to 0–255.
    likelihood_p255: Vec<Vec<Vec<u8>>>,
    /// `prior_p255[class]`.
    prior_p255: Vec<u8>,
    n_classes: usize,
    n_features: usize,
}

impl BayesianMachine {
    /// Builds the machine from a trained GNBC, mirroring how its likelihood
    /// memory would be programmed: per-column probabilities are normalized to
    /// the column maximum and stored with 8-bit precision.
    ///
    /// # Errors
    ///
    /// Propagates discretizer errors.
    pub fn from_gnbc(
        model: &GaussianNaiveBayes,
        train_data: &Dataset,
        config: BayesianMachineConfig,
    ) -> Result<Self, QuantError> {
        let discretizer = FeatureDiscretizer::fit(train_data, config.feature_bits)?;
        let n_classes = model.n_classes();
        let n_features = model.n_features();
        let bins = discretizer.bins();
        let mut likelihood_p255 = vec![vec![vec![0u8; bins]; n_features]; n_classes];
        // Columns are naturally (feature, bin)-major while the table is
        // class-major, so the write below scatters across the outer axis.
        #[allow(clippy::needless_range_loop)]
        for feature in 0..n_features {
            let width = discretizer.bin_width(feature)?;
            for bin in 0..bins {
                let center = discretizer.bin_center(feature, bin)?;
                let raw: Vec<f64> = (0..n_classes)
                    .map(|class| {
                        let log_pdf = model
                            .feature_log_likelihood(class, feature, center)
                            .expect("validated indices");
                        (log_pdf.exp() * width.max(f64::MIN_POSITIVE)).min(1.0)
                    })
                    .collect();
                let max = raw.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
                for (class, &p) in raw.iter().enumerate() {
                    let scaled = ((p / max) * 255.0).round().clamp(1.0, 255.0);
                    likelihood_p255[class][feature][bin] = scaled as u8;
                }
            }
        }
        let prior_max = model
            .classes()
            .iter()
            .map(|c| c.prior)
            .fold(f64::MIN_POSITIVE, f64::max);
        let prior_p255 = model
            .classes()
            .iter()
            .map(|c| ((c.prior / prior_max) * 255.0).round().clamp(1.0, 255.0) as u8)
            .collect();
        Ok(Self {
            config,
            discretizer,
            likelihood_p255,
            prior_p255,
            n_classes,
            n_features,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &BayesianMachineConfig {
        &self.config
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Clock cycles per inference (the Table 1 "clk./inf." column).
    pub fn cycles_per_inference(&self) -> u16 {
        self.config.cycles_per_inference
    }

    /// Runs one stochastic inference for a continuous sample.
    ///
    /// Each (feature, class) pair owns an independent LFSR; at every cycle a
    /// class's bit is the AND over the prior bit and all feature bits, and
    /// the per-class counters accumulate the asserted cycles. The class with
    /// the highest count wins.
    ///
    /// # Errors
    ///
    /// Propagates discretizer errors for malformed samples.
    pub fn infer(&self, sample: &[f64]) -> Result<StochasticInference, QuantError> {
        let bins = self.discretizer.discretize_sample(sample)?;
        let cycles = self.config.cycles_per_inference.max(1);
        let mut counts = vec![0u32; self.n_classes];
        for (class, count) in counts.iter_mut().enumerate() {
            // Deterministic but decorrelated seeds per class/feature pair.
            let mut prior_lfsr = Lfsr::new((class as u8).wrapping_mul(37).wrapping_add(11));
            let mut feature_lfsrs: Vec<Lfsr> = (0..self.n_features)
                .map(|feature| {
                    Lfsr::new(
                        (class as u8)
                            .wrapping_mul(53)
                            .wrapping_add((feature as u8).wrapping_mul(101))
                            .wrapping_add(29),
                    )
                })
                .collect();
            for _ in 0..cycles {
                let mut bit = prior_lfsr.next_sample() < self.prior_p255[class];
                for (feature, lfsr) in feature_lfsrs.iter_mut().enumerate() {
                    let threshold = self.likelihood_p255[class][feature][bins[feature]];
                    bit &= lfsr.next_sample() < threshold;
                }
                if bit {
                    *count += 1;
                }
            }
        }
        let prediction = argmax(&counts.iter().map(|&c| c as f64).collect::<Vec<_>>())
            .expect("at least one class");
        let columns = self.n_features + 1;
        let energy = self.config.energy_per_cycle_per_column * columns as f64 * f64::from(cycles);
        Ok(StochasticInference {
            prediction,
            counts,
            cycles,
            energy,
        })
    }

    /// Classification accuracy on a labelled dataset.
    ///
    /// # Errors
    ///
    /// Propagates per-sample inference errors.
    pub fn score(&self, dataset: &Dataset) -> Result<f64, QuantError> {
        let mut correct = 0usize;
        for (sample, label) in dataset.iter() {
            if self.infer(sample)?.prediction == label {
                correct += 1;
            }
        }
        Ok(correct as f64 / dataset.n_samples() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use febim_data::rng::seeded_rng;
    use febim_data::split::stratified_split;
    use febim_data::synthetic::iris_like;

    fn trained() -> (GaussianNaiveBayes, Dataset, Dataset) {
        let dataset = iris_like(90).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(90)).unwrap();
        let model = GaussianNaiveBayes::fit(&split.train).unwrap();
        (model, split.train, split.test)
    }

    #[test]
    fn lfsr_has_maximal_period() {
        let mut lfsr = Lfsr::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..255 {
            assert!(seen.insert(lfsr.next_sample()));
        }
        // After 255 steps the sequence repeats.
        let mut repeat = Lfsr::new(1);
        let first: Vec<u8> = (0..10).map(|_| repeat.next_sample()).collect();
        for _ in 10..255 {
            repeat.next_sample();
        }
        let again: Vec<u8> = (0..10).map(|_| repeat.next_sample()).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut lfsr = Lfsr::new(0);
        assert_ne!(lfsr.next_sample(), 0u8.wrapping_sub(1));
        // The register never locks up at zero over a full period.
        let mut any_zero = false;
        for _ in 0..255 {
            any_zero |= lfsr.next_sample() == 0;
        }
        assert!(!any_zero);
    }

    #[test]
    fn bitstream_frequency_tracks_the_stored_probability() {
        // Comparing the LFSR stream against a threshold yields a bitstream
        // whose duty cycle approximates the stored probability.
        for threshold in [32u8, 128, 224] {
            let mut lfsr = Lfsr::new(77);
            let ones = (0..255).filter(|_| lfsr.next_sample() < threshold).count();
            let duty = ones as f64 / 255.0;
            let expected = f64::from(threshold) / 255.0;
            assert!(
                (duty - expected).abs() < 0.02,
                "threshold {threshold}: duty {duty} expected {expected}"
            );
        }
    }

    #[test]
    fn machine_matches_gnbc_accuracy_at_full_bitstream_length() {
        let (model, train, test) = trained();
        let machine =
            BayesianMachine::from_gnbc(&model, &train, BayesianMachineConfig::full_precision())
                .unwrap();
        let software = model.score(&test).unwrap();
        let stochastic = machine.score(&test).unwrap();
        assert!(
            software - stochastic < 0.1,
            "software {software} vs stochastic {stochastic}"
        );
        assert_eq!(machine.cycles_per_inference(), 255);
    }

    #[test]
    fn short_bitstreams_lose_accuracy() {
        let (model, train, test) = trained();
        let full =
            BayesianMachine::from_gnbc(&model, &train, BayesianMachineConfig::full_precision())
                .unwrap()
                .score(&test)
                .unwrap();
        let short = BayesianMachine::from_gnbc(&model, &train, BayesianMachineConfig::fast(4))
            .unwrap()
            .score(&test)
            .unwrap();
        assert!(
            full >= short - 0.02,
            "255-cycle accuracy {full} vs 4-cycle accuracy {short}"
        );
    }

    #[test]
    fn inference_reports_cycles_and_energy() {
        let (model, train, test) = trained();
        let machine =
            BayesianMachine::from_gnbc(&model, &train, BayesianMachineConfig::fast(64)).unwrap();
        let outcome = machine.infer(test.sample(0).unwrap()).unwrap();
        assert_eq!(outcome.cycles, 64);
        assert_eq!(outcome.counts.len(), 3);
        assert!(outcome.energy > 0.0);
        // Many clock cycles per inference versus FeBiM's single cycle.
        assert!(machine.cycles_per_inference() > 1);
    }

    #[test]
    fn malformed_samples_rejected() {
        let (model, train, _) = trained();
        let machine =
            BayesianMachine::from_gnbc(&model, &train, BayesianMachineConfig::default()).unwrap();
        assert!(machine.infer(&[1.0]).is_err());
    }

    #[test]
    fn clamped_cycle_count() {
        let config = BayesianMachineConfig::fast(0);
        assert_eq!(config.cycles_per_inference, 1);
        let config = BayesianMachineConfig::fast(900);
        assert_eq!(config.cycles_per_inference, 255);
    }
}
