//! The full probability quantization pipeline of Sec. 3.3: truncation,
//! logarithm, column normalization (Eq. 6), feature discretization and
//! uniform quantization of the resulting log-likelihood table.
//!
//! The output, [`QuantizedGnbc`], is both a software model (used to evaluate
//! the pure quantization loss of Fig. 7 / Fig. 8(a)) and the programming
//! source for the FeFET crossbar (via its level tables).

use serde::{Deserialize, Serialize};

use febim_bayes::{argmax, GaussianNaiveBayes};
use febim_data::Dataset;

use crate::discretize::FeatureDiscretizer;
use crate::errors::{QuantError, Result};
use crate::quantizer::UniformQuantizer;
use crate::transform::{column_normalized, truncated_log};

/// Configuration of the quantization pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantConfig {
    /// Feature (evidence) quantization precision `Q_f` in bits; each evidence
    /// node gets `2^Q_f` bitlines.
    pub feature_bits: u32,
    /// Likelihood quantization precision `Q_l` in bits; probabilities map to
    /// `2^Q_l` FeFET states.
    pub likelihood_bits: u32,
    /// Truncation floor applied to the likelihoods of each column *relative
    /// to the column maximum* before the log transform (the `P < 0.1 -> 0.1`
    /// step of Fig. 4(a)). A floor of `0.01` clips any probability below 1 %
    /// of the most likely class for that evidence value, bounding the
    /// log-domain dynamic range that has to be quantized to `ln(1/floor)`.
    pub probability_floor: f64,
    /// Whether the column normalization of Eq. (6) is applied. Disabling it
    /// is an ablation knob: the paper argues normalization enhances the
    /// contrast between posteriors and mitigates quantization loss.
    pub column_normalization: bool,
}

impl QuantConfig {
    /// The paper's chosen operating point for iris: `Q_f = 4` bit,
    /// `Q_l = 2` bit.
    pub fn febim_optimal() -> Self {
        Self {
            feature_bits: 4,
            likelihood_bits: 2,
            probability_floor: 0.01,
            column_normalization: true,
        }
    }

    /// Creates a configuration with the default truncation floor.
    pub fn new(feature_bits: u32, likelihood_bits: u32) -> Self {
        Self {
            feature_bits,
            likelihood_bits,
            probability_floor: 0.01,
            column_normalization: true,
        }
    }

    /// Returns a copy with a different truncation floor.
    pub fn with_floor(mut self, floor: f64) -> Self {
        self.probability_floor = floor;
        self
    }

    /// Returns a copy with the Eq. (6) column normalization disabled
    /// (ablation study).
    pub fn without_column_normalization(mut self) -> Self {
        self.column_normalization = false;
        self
    }

    /// Number of discretized evidence levels (`2^Q_f`).
    pub fn feature_levels(&self) -> usize {
        1usize << self.feature_bits
    }

    /// Number of quantized likelihood levels (`2^Q_l`).
    pub fn likelihood_levels(&self) -> usize {
        1usize << self.likelihood_bits
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidPrecision`] for zero or more than 16 bits
    /// and [`QuantError::InvalidParameter`] for a floor outside `(0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.feature_bits == 0 || self.feature_bits > 16 {
            return Err(QuantError::InvalidPrecision {
                kind: "feature",
                bits: self.feature_bits,
            });
        }
        if self.likelihood_bits == 0 || self.likelihood_bits > 16 {
            return Err(QuantError::InvalidPrecision {
                kind: "likelihood",
                bits: self.likelihood_bits,
            });
        }
        if !(self.probability_floor > 0.0 && self.probability_floor <= 1.0) {
            return Err(QuantError::InvalidParameter {
                name: "probability_floor",
                reason: format!("floor {} must lie in (0, 1]", self.probability_floor),
            });
        }
        Ok(())
    }
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self::febim_optimal()
    }
}

/// A Gaussian naive Bayes model quantized for in-memory deployment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuantizedGnbc {
    config: QuantConfig,
    discretizer: FeatureDiscretizer,
    quantizer: UniformQuantizer,
    /// `likelihood_levels[class][feature][bin]`.
    likelihood_levels: Vec<Vec<Vec<usize>>>,
    /// `prior_levels[class]`.
    prior_levels: Vec<usize>,
    uniform_prior: bool,
    n_classes: usize,
    n_features: usize,
}

impl QuantizedGnbc {
    /// Quantizes a trained GNBC using the training dataset to fit the feature
    /// discretizer.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation, discretizer and Bayesian-model
    /// errors, and returns [`QuantError::InvalidParameter`] when the model and
    /// dataset disagree on the number of features.
    pub fn quantize(
        model: &GaussianNaiveBayes,
        train_data: &Dataset,
        config: QuantConfig,
    ) -> Result<Self> {
        let discretizer = FeatureDiscretizer::fit(train_data, config.feature_bits)?;
        Self::with_discretizer(model, discretizer, config)
    }

    /// Quantizes a trained GNBC over an already fitted feature discretizer:
    /// the deterministic remainder of [`QuantizedGnbc::quantize`], so a model
    /// and its feature ranges rebuild exactly the tables the training data
    /// produced.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and Bayesian-model errors, and
    /// returns [`QuantError::InvalidParameter`] when the model and the
    /// discretizer disagree on the number of features, or the discretizer's
    /// bin count is not `2^config.feature_bits`.
    pub fn with_discretizer(
        model: &GaussianNaiveBayes,
        discretizer: FeatureDiscretizer,
        config: QuantConfig,
    ) -> Result<Self> {
        config.validate()?;
        if model.n_features() != discretizer.n_features() {
            return Err(QuantError::InvalidParameter {
                name: "discretizer",
                reason: format!(
                    "model has {} features but the feature ranges cover {}",
                    model.n_features(),
                    discretizer.n_features()
                ),
            });
        }
        if discretizer.bins() != config.feature_levels() {
            return Err(QuantError::InvalidParameter {
                name: "discretizer",
                reason: format!(
                    "{} bins per feature, but Q_f = {} needs {}",
                    discretizer.bins(),
                    config.feature_bits,
                    config.feature_levels()
                ),
            });
        }
        let n_classes = model.n_classes();
        let n_features = model.n_features();
        let bins = discretizer.bins();

        // Normalized log-likelihood columns: for each (feature, bin) column,
        // the per-class log bin-probabilities are clipped to within
        // `ln(floor)` of the column maximum (truncation), then shifted so the
        // per-column maximum is exactly one (Eq. 6). The relative clipping
        // keeps the pipeline invariant to the bin width, so increasing the
        // feature precision never erases likelihood information.
        let floor_log = config.probability_floor.ln();
        let mut normalized_likelihoods = vec![vec![vec![0.0f64; bins]; n_features]; n_classes];
        // Columns are naturally (feature, bin)-major while the table is
        // class-major, so the write below scatters across the outer axis.
        #[allow(clippy::needless_range_loop)]
        for feature in 0..n_features {
            let width = discretizer.bin_width(feature)?;
            // A feature with a single distinct training value has zero-width
            // bins; `ln(width)` would collapse toward -744 and poison the
            // global quantization range (catastrophically so on the
            // unnormalized ablation path). Such a feature carries no
            // discriminative signal, so it gets the degenerate single-level
            // mapping: every class reads the ln(1) cap in every bin.
            let degenerate = discretizer.is_degenerate(feature)?;
            for bin in 0..bins {
                let center = discretizer.bin_center(feature, bin)?;
                let column: Vec<f64> = (0..n_classes)
                    .map(|class| {
                        if degenerate {
                            return 0.0;
                        }
                        let log_pdf = model
                            .feature_log_likelihood(class, feature, center)
                            .expect("validated indices");
                        // Log bin probability ≈ ln(pdf(center) * bin width),
                        // capped at ln(1).
                        (log_pdf + width.max(f64::MIN_POSITIVE).ln()).min(0.0)
                    })
                    .collect();
                let column_max = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let clipped: Vec<f64> = column
                    .iter()
                    .map(|&v| v.max(column_max + floor_log))
                    .collect();
                let transformed = if config.column_normalization {
                    column_normalized(&clipped)
                } else {
                    clipped
                };
                for (class, value) in transformed.into_iter().enumerate() {
                    normalized_likelihoods[class][feature][bin] = value;
                }
            }
        }

        // Normalized log-priors (their own column in the crossbar), clipped
        // relative to the most probable class like every other column.
        let prior_logs: Vec<f64> = model
            .classes()
            .iter()
            .map(|c| truncated_log(c.prior, f64::MIN_POSITIVE))
            .collect();
        let prior_max = prior_logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let prior_column: Vec<f64> = prior_logs
            .iter()
            .map(|&v| v.max(prior_max + floor_log))
            .collect();
        let normalized_priors = if config.column_normalization {
            column_normalized(&prior_column)
        } else {
            prior_column
        };
        let uniform_prior = model.has_uniform_prior();

        // Global quantization range. With the Eq. (6) normalization the
        // per-column maxima are all 1; without it (ablation) the range spans
        // whatever the clipped log-probabilities cover.
        let mut low = f64::INFINITY;
        let mut high = f64::NEG_INFINITY;
        for value in normalized_likelihoods.iter().flatten().flatten().copied() {
            low = low.min(value);
            high = high.max(value);
        }
        for &value in &normalized_priors {
            low = low.min(value);
            high = high.max(value);
        }
        if config.column_normalization {
            high = 1.0;
        }
        // `partial_cmp` keeps NaN bounds (no ordering) on the degenerate
        // path, exactly like the old `!(low < high)`.
        if low.partial_cmp(&high) != Some(std::cmp::Ordering::Less) {
            // Fully uniform model (every column identical): give the quantizer
            // a non-degenerate range one natural-log unit wide.
            low = high - 1.0;
        }
        let quantizer = UniformQuantizer::with_bits(low, high, config.likelihood_bits)?;

        let likelihood_levels: Vec<Vec<Vec<usize>>> = normalized_likelihoods
            .iter()
            .map(|per_feature| {
                per_feature
                    .iter()
                    .map(|per_bin| per_bin.iter().map(|&v| quantizer.quantize(v)).collect())
                    .collect()
            })
            .collect();
        let prior_levels: Vec<usize> = normalized_priors
            .iter()
            .map(|&v| quantizer.quantize(v))
            .collect();

        Ok(Self {
            config,
            discretizer,
            quantizer,
            likelihood_levels,
            prior_levels,
            uniform_prior,
            n_classes,
            n_features,
        })
    }

    /// The quantization configuration.
    pub fn config(&self) -> &QuantConfig {
        &self.config
    }

    /// The fitted feature discretizer.
    pub fn discretizer(&self) -> &FeatureDiscretizer {
        &self.discretizer
    }

    /// The fitted likelihood quantizer.
    pub fn quantizer(&self) -> &UniformQuantizer {
        &self.quantizer
    }

    /// Number of classes (events).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of features (evidence nodes).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Whether the underlying model has a uniform class prior, in which case
    /// the crossbar's prior column can be omitted (Fig. 8(b)).
    pub fn has_uniform_prior(&self) -> bool {
        self.uniform_prior
    }

    /// Quantized level stored for `(class, feature, bin)`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnknownIndex`] for out-of-range indices.
    pub fn likelihood_level(&self, class: usize, feature: usize, bin: usize) -> Result<usize> {
        self.likelihood_levels
            .get(class)
            .ok_or(QuantError::UnknownIndex {
                kind: "class",
                index: class,
            })?
            .get(feature)
            .ok_or(QuantError::UnknownIndex {
                kind: "feature",
                index: feature,
            })?
            .get(bin)
            .copied()
            .ok_or(QuantError::UnknownIndex {
                kind: "bin",
                index: bin,
            })
    }

    /// Quantized level stored for the prior of one class.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnknownIndex`] for an out-of-range class.
    pub fn prior_level(&self, class: usize) -> Result<usize> {
        self.prior_levels
            .get(class)
            .copied()
            .ok_or(QuantError::UnknownIndex {
                kind: "class",
                index: class,
            })
    }

    /// Discretizes a continuous sample into per-feature bin indices (which
    /// bitline of each likelihood block to activate).
    ///
    /// # Errors
    ///
    /// Propagates discretizer errors.
    pub fn discretize_sample(&self, sample: &[f64]) -> Result<Vec<usize>> {
        self.discretizer.discretize_sample(sample)
    }

    /// Discretizes a continuous sample into `out` (cleared first), reusing
    /// the caller's allocation across samples.
    ///
    /// # Errors
    ///
    /// Propagates discretizer errors.
    pub fn discretize_sample_into(&self, sample: &[f64], out: &mut Vec<usize>) -> Result<()> {
        self.discretizer.discretize_sample_into(sample, out)
    }

    /// Quantized log-posterior score of every class for one sample, computed
    /// in software (the idealized version of the crossbar accumulation).
    ///
    /// # Errors
    ///
    /// Propagates discretization and lookup errors.
    pub fn log_posterior_scores(&self, sample: &[f64]) -> Result<Vec<f64>> {
        let bins = self.discretize_sample(sample)?;
        let mut scores = Vec::with_capacity(self.n_classes);
        for class in 0..self.n_classes {
            let mut score = self.quantizer.dequantize(self.prior_levels[class])?;
            for (feature, &bin) in bins.iter().enumerate() {
                let level = self.likelihood_level(class, feature, bin)?;
                score += self.quantizer.dequantize(level)?;
            }
            scores.push(score);
        }
        Ok(scores)
    }

    /// Predicts the maximum-posterior class for one sample.
    ///
    /// # Errors
    ///
    /// Propagates [`QuantizedGnbc::log_posterior_scores`] errors.
    pub fn predict(&self, sample: &[f64]) -> Result<usize> {
        let scores = self.log_posterior_scores(sample)?;
        Ok(argmax(&scores).expect("at least one class"))
    }

    /// Classification accuracy of the quantized software model on a dataset.
    ///
    /// # Errors
    ///
    /// Propagates per-sample prediction errors.
    pub fn score(&self, dataset: &Dataset) -> Result<f64> {
        let mut correct = 0usize;
        for (sample, label) in dataset.iter() {
            if self.predict(sample)? == label {
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

    fn trained_iris() -> (GaussianNaiveBayes, Dataset, Dataset) {
        let dataset = iris_like(21).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(21)).unwrap();
        let model = GaussianNaiveBayes::fit(&split.train).unwrap();
        (model, split.train, split.test)
    }

    #[test]
    fn config_validation() {
        assert!(QuantConfig::new(0, 2).validate().is_err());
        assert!(QuantConfig::new(4, 0).validate().is_err());
        assert!(QuantConfig::new(17, 2).validate().is_err());
        assert!(QuantConfig::new(4, 2).with_floor(0.0).validate().is_err());
        assert!(QuantConfig::new(4, 2).with_floor(1.5).validate().is_err());
        assert!(QuantConfig::febim_optimal().validate().is_ok());
        assert_eq!(QuantConfig::febim_optimal().feature_levels(), 16);
        assert_eq!(QuantConfig::febim_optimal().likelihood_levels(), 4);
    }

    #[test]
    fn quantized_model_has_expected_shape() {
        let (model, train, _) = trained_iris();
        let quantized =
            QuantizedGnbc::quantize(&model, &train, QuantConfig::febim_optimal()).unwrap();
        assert_eq!(quantized.n_classes(), 3);
        assert_eq!(quantized.n_features(), 4);
        assert!(quantized.has_uniform_prior());
        assert_eq!(quantized.quantizer().levels(), 4);
        assert_eq!(quantized.discretizer().bins(), 16);
        // Every stored level is a valid quantizer level.
        for class in 0..3 {
            assert!(quantized.prior_level(class).unwrap() < 4);
            for feature in 0..4 {
                for bin in 0..16 {
                    assert!(quantized.likelihood_level(class, feature, bin).unwrap() < 4);
                }
            }
        }
    }

    #[test]
    fn paper_operating_point_keeps_accuracy_close_to_baseline() {
        // Fig. 8(a): Q_f = 4 bit, Q_l = 2 bit loses less than ~1 % accuracy
        // relative to the FP64 software baseline. Allow a slightly wider
        // margin for the synthetic dataset.
        let (model, train, test) = trained_iris();
        let baseline = model.score(&test).unwrap();
        let quantized =
            QuantizedGnbc::quantize(&model, &train, QuantConfig::febim_optimal()).unwrap();
        let quantized_accuracy = quantized.score(&test).unwrap();
        assert!(
            baseline - quantized_accuracy < 0.05,
            "baseline {baseline} quantized {quantized_accuracy}"
        );
        assert!(quantized_accuracy > 0.85, "quantized {quantized_accuracy}");
    }

    #[test]
    fn higher_precision_does_not_hurt() {
        let (model, train, test) = trained_iris();
        let coarse = QuantizedGnbc::quantize(&model, &train, QuantConfig::new(2, 2))
            .unwrap()
            .score(&test)
            .unwrap();
        let fine = QuantizedGnbc::quantize(&model, &train, QuantConfig::new(8, 8))
            .unwrap()
            .score(&test)
            .unwrap();
        assert!(fine + 1e-9 >= coarse - 0.1, "coarse {coarse} fine {fine}");
        assert!(fine > 0.85);
    }

    #[test]
    fn mismatched_dataset_rejected() {
        let (model, _, _) = trained_iris();
        let other = febim_data::synthetic::wine_like(3).unwrap();
        assert!(matches!(
            QuantizedGnbc::quantize(&model, &other, QuantConfig::febim_optimal()),
            Err(QuantError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn with_discretizer_rebuilds_the_quantized_tables_exactly() {
        let (model, train, _) = trained_iris();
        for config in [
            QuantConfig::febim_optimal(),
            QuantConfig::new(3, 4).without_column_normalization(),
        ] {
            let quantized = QuantizedGnbc::quantize(&model, &train, config).unwrap();
            let (minimums, maximums) = quantized.discretizer().ranges();
            let discretizer = FeatureDiscretizer::from_ranges(
                minimums.to_vec(),
                maximums.to_vec(),
                config.feature_bits,
            )
            .unwrap();
            let rebuilt = QuantizedGnbc::with_discretizer(&model, discretizer, config).unwrap();
            assert_eq!(rebuilt, quantized);
        }
        // The discretizer must match the model's features and Q_f.
        let narrow = FeatureDiscretizer::from_ranges(vec![0.0], vec![1.0], 4).unwrap();
        assert!(matches!(
            QuantizedGnbc::with_discretizer(&model, narrow, QuantConfig::febim_optimal()),
            Err(QuantError::InvalidParameter { .. })
        ));
        let coarse = FeatureDiscretizer::fit(&train, 3).unwrap();
        assert!(matches!(
            QuantizedGnbc::with_discretizer(&model, coarse, QuantConfig::febim_optimal()),
            Err(QuantError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn unknown_indices_rejected() {
        let (model, train, _) = trained_iris();
        let quantized =
            QuantizedGnbc::quantize(&model, &train, QuantConfig::febim_optimal()).unwrap();
        assert!(quantized.likelihood_level(9, 0, 0).is_err());
        assert!(quantized.likelihood_level(0, 9, 0).is_err());
        assert!(quantized.likelihood_level(0, 0, 99).is_err());
        assert!(quantized.prior_level(9).is_err());
        assert!(quantized.predict(&[1.0]).is_err());
    }

    #[test]
    fn level_matrix_shapes() {
        let (model, train, _) = trained_iris();
        let quantized =
            QuantizedGnbc::quantize(&model, &train, QuantConfig::febim_optimal()).unwrap();
        // 3 classes, each with 4 features x 16 bins of likelihood levels.
        assert_eq!(quantized.n_classes(), 3);
        assert_eq!(quantized.n_features(), 4);
        assert_eq!(quantized.discretizer().bins(), 16);
        for class in 0..3 {
            for feature in 0..4 {
                for bin in 0..16 {
                    let level = quantized.likelihood_level(class, feature, bin).unwrap();
                    assert!(level < quantized.quantizer().levels());
                }
            }
        }
        // A uniform-prior model stores the same prior level for every class.
        let prior_levels: Vec<usize> = (0..3)
            .map(|class| quantized.prior_level(class).unwrap())
            .collect();
        assert!(prior_levels.iter().all(|&l| l == prior_levels[0]));
    }

    #[test]
    fn normalization_ablation_runs_and_costs_accuracy_at_low_precision() {
        // The paper argues the Eq. (6) column normalization enhances the
        // contrast between posteriors under aggressive quantization. The
        // ablation path must work, and with 2-bit likelihoods the normalized
        // variant should be at least as accurate (up to noise) as the
        // unnormalized one.
        let (model, train, test) = trained_iris();
        let normalized = QuantizedGnbc::quantize(&model, &train, QuantConfig::new(4, 2))
            .unwrap()
            .score(&test)
            .unwrap();
        let ablated = QuantizedGnbc::quantize(
            &model,
            &train,
            QuantConfig::new(4, 2).without_column_normalization(),
        )
        .unwrap()
        .score(&test)
        .unwrap();
        assert!(ablated > 0.3, "ablated accuracy {ablated}");
        assert!(
            normalized >= ablated - 0.05,
            "normalized {normalized} vs ablated {ablated}"
        );
    }

    #[test]
    fn single_valued_feature_gets_a_degenerate_mapping() {
        // Regression: a constant feature used to feed ln(0-width) ≈ -744
        // into the quantizer range, flattening every other feature's levels
        // on the unnormalized path. It must instead map to one neutral level
        // and leave the discriminative features intact.
        let (model_src, train_src, test_src) = trained_iris();
        let widen = |data: &Dataset| {
            let samples: Vec<Vec<f64>> = data
                .samples()
                .iter()
                .map(|s| {
                    let mut s = s.clone();
                    s.push(42.0);
                    s
                })
                .collect();
            let mut names: Vec<String> = (0..data.n_features()).map(|f| format!("f{f}")).collect();
            names.push("constant".to_string());
            Dataset::new(
                "widened",
                names,
                data.n_classes(),
                samples,
                data.labels().to_vec(),
            )
            .unwrap()
        };
        let train = widen(&train_src);
        let test = widen(&test_src);
        let model = GaussianNaiveBayes::fit(&train).unwrap();
        for config in [
            QuantConfig::febim_optimal(),
            QuantConfig::febim_optimal().without_column_normalization(),
        ] {
            let quantized = QuantizedGnbc::quantize(&model, &train, config).unwrap();
            // The degenerate feature maps every class to one shared level in
            // every bin: no discrimination, no range damage.
            let constant = quantized.n_features() - 1;
            let level = quantized.likelihood_level(0, constant, 0).unwrap();
            for class in 0..quantized.n_classes() {
                for bin in 0..quantized.discretizer().bins() {
                    assert_eq!(
                        quantized.likelihood_level(class, constant, bin).unwrap(),
                        level
                    );
                }
            }
            // The quantizer range stays in the truncated-log regime instead
            // of collapsing to ln(f64::MIN_POSITIVE) ≈ -744.
            assert!(
                quantized.quantizer().low() > -50.0,
                "quantizer low {} poisoned by the zero-width bin",
                quantized.quantizer().low()
            );
            // The other features still discriminate.
            let accuracy = quantized.score(&test).unwrap();
            assert!(accuracy > 0.8, "accuracy collapsed to {accuracy}");
        }
        // Baseline: same data without the constant feature scores the same.
        let baseline =
            QuantizedGnbc::quantize(&model_src, &train_src, QuantConfig::febim_optimal())
                .unwrap()
                .score(&test_src)
                .unwrap();
        let widened = QuantizedGnbc::quantize(&model, &train, QuantConfig::febim_optimal())
            .unwrap()
            .score(&test)
            .unwrap();
        assert!(
            (baseline - widened).abs() < 0.05,
            "baseline {baseline} vs widened {widened}"
        );
    }

    #[test]
    fn quantized_predictions_follow_discretized_evidence() {
        let (model, train, test) = trained_iris();
        let quantized =
            QuantizedGnbc::quantize(&model, &train, QuantConfig::febim_optimal()).unwrap();
        let sample = test.sample(0).unwrap();
        let bins = quantized.discretize_sample(sample).unwrap();
        assert_eq!(bins.len(), 4);
        for &bin in &bins {
            assert!(bin < 16);
        }
        let scores = quantized.log_posterior_scores(sample).unwrap();
        assert_eq!(scores.len(), 3);
        let prediction = quantized.predict(sample).unwrap();
        assert_eq!(prediction, argmax(&scores).unwrap());
    }
}
