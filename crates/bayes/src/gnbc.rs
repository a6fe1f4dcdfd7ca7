//! Gaussian naive Bayes classifier (GNBC).
//!
//! This is the software model the paper trains with scikit-learn and then
//! maps onto the FeFET crossbar: per-class feature means and variances, a
//! Gaussian likelihood per feature, conditional independence across features
//! and a class prior estimated from the class frequencies (Sec. 4.2).

use serde::{Deserialize, Serialize};

use febim_data::Dataset;

use crate::errors::{BayesError, Result};
use crate::prob::argmax;

/// Per-class, per-feature Gaussian parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassGaussians {
    /// Mean of each feature given this class.
    pub means: Vec<f64>,
    /// Variance of each feature given this class (after smoothing).
    pub variances: Vec<f64>,
    /// Prior probability of this class.
    pub prior: f64,
}

/// A trained Gaussian naive Bayes classifier.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaussianNaiveBayes {
    classes: Vec<ClassGaussians>,
    n_features: usize,
    var_smoothing: f64,
}

impl GaussianNaiveBayes {
    /// Default portion of the largest feature variance added to every
    /// variance for numerical stability (same default as scikit-learn).
    pub const DEFAULT_VAR_SMOOTHING: f64 = 1e-9;

    /// Fits a GNBC to a dataset using the default variance smoothing.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidTrainingData`] when a class has no
    /// samples in the dataset.
    pub fn fit(dataset: &Dataset) -> Result<Self> {
        Self::fit_with_smoothing(dataset, Self::DEFAULT_VAR_SMOOTHING)
    }

    /// Fits a GNBC with an explicit variance-smoothing fraction.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidTrainingData`] when a class has no
    /// samples, the smoothing value is negative, or the fitted parameters
    /// fail [`GaussianNaiveBayes::from_classes`]'s checks: training data
    /// holding a NaN or an infinity (or values whose variance overflows)
    /// fails here instead of fitting a NaN or infinite parameter.
    pub fn fit_with_smoothing(dataset: &Dataset, var_smoothing: f64) -> Result<Self> {
        let n_features = dataset.n_features();
        let n_samples = dataset.n_samples() as f64;

        // Largest per-feature variance over the whole training set, used to
        // scale the smoothing term exactly like scikit-learn's GaussianNB.
        let mut max_variance = 0.0f64;
        for feature in 0..n_features {
            let column = dataset.feature_column(feature);
            let mean = column.iter().sum::<f64>() / n_samples;
            let variance = column.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n_samples;
            max_variance = max_variance.max(variance);
        }
        let epsilon = var_smoothing * max_variance;

        let mut classes = Vec::with_capacity(dataset.n_classes());
        for class in 0..dataset.n_classes() {
            let indices = dataset.class_indices(class);
            if indices.is_empty() {
                return Err(BayesError::InvalidTrainingData {
                    reason: format!("class {class} has no training samples"),
                });
            }
            let count = indices.len() as f64;
            let mut means = vec![0.0; n_features];
            for &index in &indices {
                let sample = dataset.sample(index).expect("valid index");
                for (feature, &value) in sample.iter().enumerate() {
                    means[feature] += value;
                }
            }
            for mean in &mut means {
                *mean /= count;
            }
            let mut variances = vec![0.0; n_features];
            for &index in &indices {
                let sample = dataset.sample(index).expect("valid index");
                for (feature, &value) in sample.iter().enumerate() {
                    variances[feature] += (value - means[feature]).powi(2);
                }
            }
            for variance in &mut variances {
                *variance = *variance / count + epsilon;
                if *variance <= 0.0 {
                    // Degenerate constant feature with zero smoothing: fall
                    // back to a tiny positive variance so the log-pdf stays
                    // finite.
                    *variance = f64::MIN_POSITIVE.sqrt();
                }
            }
            classes.push(ClassGaussians {
                means,
                variances,
                prior: count / n_samples,
            });
        }
        Self::from_classes(classes, var_smoothing)
    }

    /// Rebuilds a trained GNBC from its per-class Gaussian parameters and
    /// the smoothing fraction it was fitted with (e.g. a model loaded from
    /// bytes). The feature count is the length of the class vectors.
    /// [`GaussianNaiveBayes::fit`] ends here too, so a fitted model passes
    /// the same checks as a loaded one.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidTrainingData`] when there is no class,
    /// when a class's means and variances do not all have the first class's
    /// feature count, when the smoothing value is negative or not finite,
    /// or when a value is meaningless: every prior must lie in (0, 1], every
    /// mean must be finite, and every variance finite and positive. Finite
    /// extremes, such as a mean of ±1e300, are accepted.
    pub fn from_classes(classes: Vec<ClassGaussians>, var_smoothing: f64) -> Result<Self> {
        if var_smoothing < 0.0 || !var_smoothing.is_finite() {
            return Err(BayesError::InvalidTrainingData {
                reason: format!("variance smoothing {var_smoothing} must be non-negative"),
            });
        }
        let Some(first) = classes.first() else {
            return Err(BayesError::InvalidTrainingData {
                reason: "a model needs at least one class".to_string(),
            });
        };
        let n_features = first.means.len();
        for (class, params) in classes.iter().enumerate() {
            let invalid = |reason: String| {
                Err(BayesError::InvalidTrainingData {
                    reason: format!("class {class} {reason}"),
                })
            };
            if params.means.len() != n_features || params.variances.len() != n_features {
                return invalid(format!(
                    "has {} means and {} variances, expected {n_features} of each",
                    params.means.len(),
                    params.variances.len()
                ));
            }
            if !(params.prior > 0.0 && params.prior <= 1.0) {
                return invalid(format!("has prior {}, outside (0, 1]", params.prior));
            }
            if let Some(mean) = params.means.iter().find(|mean| !mean.is_finite()) {
                return invalid(format!("has a non-finite mean {mean}"));
            }
            if let Some(variance) = params
                .variances
                .iter()
                .find(|variance| !(variance.is_finite() && **variance > 0.0))
            {
                return invalid(format!("has variance {variance}, not finite and positive"));
            }
        }
        Ok(Self {
            classes,
            n_features,
            var_smoothing,
        })
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Per-class Gaussian parameters.
    pub fn classes(&self) -> &[ClassGaussians] {
        &self.classes
    }

    /// The variance-smoothing fraction used during fitting.
    pub fn var_smoothing(&self) -> f64 {
        self.var_smoothing
    }

    /// Whether every class has the same prior (within tolerance), in which
    /// case the FeBiM crossbar can omit the prior column (as in Fig. 8(b)).
    pub fn has_uniform_prior(&self) -> bool {
        let expected = 1.0 / self.classes.len() as f64;
        self.classes
            .iter()
            .all(|c| (c.prior - expected).abs() < 1e-9)
    }

    /// Natural-log Gaussian likelihood `ln p(x | class)` of one feature value.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::UnknownIndex`] for class or feature indices out
    /// of range.
    pub fn feature_log_likelihood(&self, class: usize, feature: usize, value: f64) -> Result<f64> {
        let params = self.classes.get(class).ok_or(BayesError::UnknownIndex {
            kind: "class",
            index: class,
        })?;
        if feature >= self.n_features {
            return Err(BayesError::UnknownIndex {
                kind: "feature",
                index: feature,
            });
        }
        let mean = params.means[feature];
        let variance = params.variances[feature];
        Ok(gaussian_log_pdf(value, mean, variance))
    }

    /// Log-posterior score `ln P(class) + Σ ln p(x_i | class)` of every class
    /// for one sample (unnormalized; the evidence term is omitted exactly as
    /// in Eq. (2) of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::FeatureCountMismatch`] when the sample length is
    /// wrong.
    pub fn log_posteriors(&self, sample: &[f64]) -> Result<Vec<f64>> {
        if sample.len() != self.n_features {
            return Err(BayesError::FeatureCountMismatch {
                expected: self.n_features,
                found: sample.len(),
            });
        }
        Ok(self
            .classes
            .iter()
            .map(|params| {
                let mut score = params.prior.ln();
                for (feature, &value) in sample.iter().enumerate() {
                    score +=
                        gaussian_log_pdf(value, params.means[feature], params.variances[feature]);
                }
                score
            })
            .collect())
    }

    /// Unnormalized log posterior of every class, written into `out`
    /// (cleared first) — the allocation-reusing variant of
    /// [`GaussianNaiveBayes::log_posteriors`] used by the software inference
    /// backend's batched hot path.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::FeatureCountMismatch`] when the sample length is
    /// wrong.
    pub fn log_posteriors_into(&self, sample: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if sample.len() != self.n_features {
            return Err(BayesError::FeatureCountMismatch {
                expected: self.n_features,
                found: sample.len(),
            });
        }
        out.clear();
        out.reserve(self.classes.len());
        for params in &self.classes {
            let mut score = params.prior.ln();
            for (feature, &value) in sample.iter().enumerate() {
                score += gaussian_log_pdf(value, params.means[feature], params.variances[feature]);
            }
            out.push(score);
        }
        Ok(())
    }

    /// Predicts the class with the maximum posterior for one sample.
    ///
    /// # Errors
    ///
    /// Propagates [`GaussianNaiveBayes::log_posteriors`] errors.
    pub fn predict(&self, sample: &[f64]) -> Result<usize> {
        let scores = self.log_posteriors(sample)?;
        Ok(argmax(&scores).expect("at least one class"))
    }

    /// Predicts every sample of a dataset.
    ///
    /// # Errors
    ///
    /// Propagates per-sample prediction errors.
    pub fn predict_dataset(&self, dataset: &Dataset) -> Result<Vec<usize>> {
        dataset
            .samples()
            .iter()
            .map(|sample| self.predict(sample))
            .collect()
    }

    /// Classification accuracy on a labelled dataset.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn score(&self, dataset: &Dataset) -> Result<f64> {
        let predictions = self.predict_dataset(dataset)?;
        febim_data::accuracy(&predictions, dataset.labels()).map_err(|_| {
            BayesError::InvalidTrainingData {
                reason: "dataset has no samples".to_string(),
            }
        })
    }
}

/// Natural-log probability density of a Gaussian.
pub fn gaussian_log_pdf(value: f64, mean: f64, variance: f64) -> f64 {
    let variance = variance.max(f64::MIN_POSITIVE);
    -0.5 * ((value - mean).powi(2) / variance + variance.ln() + (2.0 * std::f64::consts::PI).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use febim_data::rng::seeded_rng;
    use febim_data::split::stratified_split;
    use febim_data::synthetic::{iris_like, wine_like};

    fn toy_dataset() -> Dataset {
        // Two well-separated classes on one feature.
        Dataset::new(
            "toy",
            vec!["x".to_string()],
            2,
            vec![
                vec![0.0],
                vec![0.2],
                vec![-0.1],
                vec![5.0],
                vec![5.2],
                vec![4.9],
            ],
            vec![0, 0, 0, 1, 1, 1],
        )
        .unwrap()
    }

    #[test]
    fn gaussian_log_pdf_peaks_at_mean() {
        let at_mean = gaussian_log_pdf(0.0, 0.0, 1.0);
        let off_mean = gaussian_log_pdf(2.0, 0.0, 1.0);
        assert!(at_mean > off_mean);
        // Standard normal density at the mean is 1/sqrt(2π).
        assert!((at_mean.exp() - 1.0 / (2.0 * std::f64::consts::PI).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn fit_recovers_class_statistics() {
        let model = GaussianNaiveBayes::fit(&toy_dataset()).unwrap();
        assert_eq!(model.n_classes(), 2);
        assert_eq!(model.n_features(), 1);
        let class0 = &model.classes()[0];
        let class1 = &model.classes()[1];
        assert!((class0.means[0] - 0.0333).abs() < 1e-3);
        assert!((class1.means[0] - 5.0333).abs() < 1e-3);
        assert!((class0.prior - 0.5).abs() < 1e-12);
        assert!(model.has_uniform_prior());
    }

    #[test]
    fn predicts_separated_classes_perfectly() {
        let model = GaussianNaiveBayes::fit(&toy_dataset()).unwrap();
        assert_eq!(model.predict(&[0.1]).unwrap(), 0);
        assert_eq!(model.predict(&[5.1]).unwrap(), 1);
        assert!((model.score(&toy_dataset()).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_class_rejected() {
        let dataset = Dataset::new(
            "missing-class",
            vec!["x".to_string()],
            3,
            vec![vec![0.0], vec![1.0]],
            vec![0, 1],
        )
        .unwrap();
        assert!(matches!(
            GaussianNaiveBayes::fit(&dataset),
            Err(BayesError::InvalidTrainingData { .. })
        ));
    }

    #[test]
    fn from_classes_rebuilds_a_fitted_model_and_checks_its_shape() {
        let model = GaussianNaiveBayes::fit(&toy_dataset()).unwrap();
        let rebuilt =
            GaussianNaiveBayes::from_classes(model.classes().to_vec(), model.var_smoothing())
                .unwrap();
        assert_eq!(rebuilt, model);
        assert!(GaussianNaiveBayes::from_classes(Vec::new(), 1e-9).is_err());
        assert!(GaussianNaiveBayes::from_classes(model.classes().to_vec(), -1.0).is_err());
        let mut short = model.classes().to_vec();
        short[1].variances.pop();
        assert!(matches!(
            GaussianNaiveBayes::from_classes(short, 1e-9),
            Err(BayesError::InvalidTrainingData { .. })
        ));
        let mut long = model.classes().to_vec();
        long[1].means.push(0.0);
        long[1].variances.push(1.0);
        assert!(GaussianNaiveBayes::from_classes(long, 1e-9).is_err());
    }

    #[test]
    fn from_classes_rejects_meaningless_values() {
        let model = GaussianNaiveBayes::fit(&toy_dataset()).unwrap();
        type Edit = fn(&mut ClassGaussians);
        let cases: [(&str, Edit); 11] = [
            ("prior -1", |class| class.prior = -1.0),
            ("prior 0", |class| class.prior = 0.0),
            ("prior 1e300", |class| class.prior = 1e300),
            ("prior NaN", |class| class.prior = f64::NAN),
            ("mean NaN", |class| class.means[0] = f64::NAN),
            ("mean -inf", |class| class.means[0] = f64::NEG_INFINITY),
            ("variance -1", |class| class.variances[0] = -1.0),
            ("variance 0", |class| class.variances[0] = 0.0),
            ("variance -1e300", |class| class.variances[0] = -1e300),
            ("variance inf", |class| class.variances[0] = f64::INFINITY),
            ("variance NaN", |class| class.variances[0] = f64::NAN),
        ];
        for (label, edit) in cases {
            let mut classes = model.classes().to_vec();
            edit(&mut classes[1]);
            assert!(
                matches!(
                    GaussianNaiveBayes::from_classes(classes, 1e-9),
                    Err(BayesError::InvalidTrainingData { .. })
                ),
                "{label} was accepted"
            );
        }
        // Finite extremes are meaningful and stay accepted.
        let mut classes = model.classes().to_vec();
        classes[0].means[0] = 1e300;
        classes[1].means[0] = -1e300;
        classes[1].variances[0] = 1e300;
        classes[1].prior = 1.0;
        assert!(GaussianNaiveBayes::from_classes(classes, 1e-9).is_ok());
    }

    #[test]
    fn training_data_with_a_nan_fails_typed() {
        let dataset = Dataset::new(
            "nan",
            vec!["x".to_string()],
            2,
            vec![vec![0.0], vec![f64::NAN], vec![5.0], vec![5.2]],
            vec![0, 0, 1, 1],
        )
        .unwrap();
        assert!(matches!(
            GaussianNaiveBayes::fit(&dataset),
            Err(BayesError::InvalidTrainingData { .. })
        ));
    }

    #[test]
    fn negative_smoothing_rejected() {
        assert!(GaussianNaiveBayes::fit_with_smoothing(&toy_dataset(), -1.0).is_err());
    }

    #[test]
    fn wrong_feature_count_rejected() {
        let model = GaussianNaiveBayes::fit(&toy_dataset()).unwrap();
        assert!(matches!(
            model.predict(&[1.0, 2.0]),
            Err(BayesError::FeatureCountMismatch { .. })
        ));
    }

    #[test]
    fn unknown_indices_rejected() {
        let model = GaussianNaiveBayes::fit(&toy_dataset()).unwrap();
        assert!(model.feature_log_likelihood(5, 0, 1.0).is_err());
        assert!(model.feature_log_likelihood(0, 5, 1.0).is_err());
        assert!(model.feature_log_likelihood(0, 0, 1.0).is_ok());
    }

    #[test]
    fn iris_like_accuracy_matches_software_baseline() {
        // The paper's FP64 software baseline sits in the mid-90s % for iris;
        // the synthetic stand-in should land in the same band.
        let dataset = iris_like(11).unwrap();
        let mut rng = seeded_rng(11);
        let split = stratified_split(&dataset, 0.7, &mut rng).unwrap();
        let model = GaussianNaiveBayes::fit(&split.train).unwrap();
        let accuracy = model.score(&split.test).unwrap();
        assert!(accuracy > 0.88, "iris-like accuracy {accuracy}");
    }

    #[test]
    fn wine_like_accuracy_is_high() {
        let dataset = wine_like(13).unwrap();
        let mut rng = seeded_rng(13);
        let split = stratified_split(&dataset, 0.7, &mut rng).unwrap();
        let model = GaussianNaiveBayes::fit(&split.train).unwrap();
        let accuracy = model.score(&split.test).unwrap();
        assert!(accuracy > 0.85, "wine-like accuracy {accuracy}");
    }

    #[test]
    fn unbalanced_prior_detected() {
        let dataset = Dataset::new(
            "unbalanced",
            vec!["x".to_string()],
            2,
            vec![vec![0.0], vec![0.1], vec![0.2], vec![5.0]],
            vec![0, 0, 0, 1],
        )
        .unwrap();
        let model = GaussianNaiveBayes::fit(&dataset).unwrap();
        assert!(!model.has_uniform_prior());
        assert!((model.classes()[0].prior - 0.75).abs() < 1e-12);
    }

    #[test]
    fn log_posteriors_order_matches_prediction() {
        let model = GaussianNaiveBayes::fit(&toy_dataset()).unwrap();
        let scores = model.log_posteriors(&[4.5]).unwrap();
        assert_eq!(scores.len(), 2);
        assert!(scores[1] > scores[0]);
        assert_eq!(model.predict(&[4.5]).unwrap(), 1);
    }

    #[test]
    fn log_posteriors_into_matches_the_allocating_path() {
        let model = GaussianNaiveBayes::fit(&toy_dataset()).unwrap();
        let mut scores = vec![9.9; 7];
        model.log_posteriors_into(&[4.5], &mut scores).unwrap();
        assert_eq!(scores, model.log_posteriors(&[4.5]).unwrap());
        assert!(model.log_posteriors_into(&[1.0, 2.0], &mut scores).is_err());
    }
}
