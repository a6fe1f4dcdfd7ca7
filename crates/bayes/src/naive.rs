//! Categorical naive Bayes classifier for discrete evidence values.
//!
//! FeBiM ultimately stores *discretized* likelihoods, so a categorical naive
//! Bayes model over binned features is the most direct software analogue of
//! what the crossbar computes. It is also the model used by the spam-filter
//! example, where evidence values are inherently categorical.

use serde::Serialize;

use crate::errors::{BayesError, Result};
use crate::prob::argmax;

/// A trained categorical naive Bayes classifier.
///
/// Feature `i` takes values in `0..cardinalities[i]`; likelihoods are
/// estimated with Laplace (add-alpha) smoothing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CategoricalNaiveBayes {
    /// `log_likelihoods[class][feature][value]`.
    log_likelihoods: Vec<Vec<Vec<f64>>>,
    /// `log_priors[class]`.
    log_priors: Vec<f64>,
    /// Number of distinct values per feature.
    cardinalities: Vec<usize>,
}

impl CategoricalNaiveBayes {
    /// Fits the classifier.
    ///
    /// * `samples[s][f]` is the discrete value of feature `f` in sample `s`;
    /// * `labels[s]` is the class of sample `s`;
    /// * `n_classes` is the number of classes;
    /// * `cardinalities[f]` is the number of values feature `f` can take;
    /// * `alpha` is the Laplace smoothing constant (> 0 recommended).
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::InvalidTrainingData`] for empty or inconsistent
    /// training data, out-of-range labels/values or a negative `alpha`.
    pub fn fit(
        samples: &[Vec<usize>],
        labels: &[usize],
        n_classes: usize,
        cardinalities: &[usize],
        alpha: f64,
    ) -> Result<Self> {
        if samples.is_empty() {
            return Err(BayesError::InvalidTrainingData {
                reason: "no training samples".to_string(),
            });
        }
        if samples.len() != labels.len() {
            return Err(BayesError::InvalidTrainingData {
                reason: format!("{} samples but {} labels", samples.len(), labels.len()),
            });
        }
        if n_classes == 0 {
            return Err(BayesError::InvalidTrainingData {
                reason: "at least one class is required".to_string(),
            });
        }
        if alpha < 0.0 || !alpha.is_finite() {
            return Err(BayesError::InvalidTrainingData {
                reason: format!("smoothing constant {alpha} must be non-negative"),
            });
        }
        if cardinalities.contains(&0) {
            return Err(BayesError::InvalidTrainingData {
                reason: "every feature needs at least one value".to_string(),
            });
        }
        let n_features = cardinalities.len();
        let mut counts: Vec<Vec<Vec<f64>>> = (0..n_classes)
            .map(|_| cardinalities.iter().map(|&c| vec![0.0; c]).collect())
            .collect();
        let mut class_counts = vec![0.0f64; n_classes];
        for (sample, &label) in samples.iter().zip(labels.iter()) {
            if label >= n_classes {
                return Err(BayesError::InvalidTrainingData {
                    reason: format!("label {label} out of range for {n_classes} classes"),
                });
            }
            if sample.len() != n_features {
                return Err(BayesError::InvalidTrainingData {
                    reason: format!(
                        "sample has {} features, expected {n_features}",
                        sample.len()
                    ),
                });
            }
            class_counts[label] += 1.0;
            for (feature, &value) in sample.iter().enumerate() {
                if value >= cardinalities[feature] {
                    return Err(BayesError::InvalidTrainingData {
                        reason: format!(
                            "feature {feature} value {value} exceeds cardinality {}",
                            cardinalities[feature]
                        ),
                    });
                }
                counts[label][feature][value] += 1.0;
            }
        }
        let total = samples.len() as f64;
        let log_priors: Vec<f64> = class_counts
            .iter()
            .map(|&count| ((count + alpha) / (total + alpha * n_classes as f64)).ln())
            .collect();
        let log_likelihoods: Vec<Vec<Vec<f64>>> = (0..n_classes)
            .map(|class| {
                (0..n_features)
                    .map(|feature| {
                        let denominator =
                            class_counts[class] + alpha * cardinalities[feature] as f64;
                        counts[class][feature]
                            .iter()
                            .map(|&count| {
                                ((count + alpha) / denominator.max(f64::MIN_POSITIVE)).ln()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Ok(Self {
            log_likelihoods,
            log_priors,
            cardinalities: cardinalities.to_vec(),
        })
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.log_priors.len()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.cardinalities.len()
    }

    /// Value cardinality of each feature.
    pub fn cardinalities(&self) -> &[usize] {
        &self.cardinalities
    }

    /// Log prior of one class.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::UnknownIndex`] for an out-of-range class.
    pub fn log_prior(&self, class: usize) -> Result<f64> {
        self.log_priors
            .get(class)
            .copied()
            .ok_or(BayesError::UnknownIndex {
                kind: "class",
                index: class,
            })
    }

    /// Log likelihood `ln P(feature = value | class)`.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::UnknownIndex`] for out-of-range indices.
    pub fn log_likelihood(&self, class: usize, feature: usize, value: usize) -> Result<f64> {
        self.log_likelihoods
            .get(class)
            .ok_or(BayesError::UnknownIndex {
                kind: "class",
                index: class,
            })?
            .get(feature)
            .ok_or(BayesError::UnknownIndex {
                kind: "feature",
                index: feature,
            })?
            .get(value)
            .copied()
            .ok_or(BayesError::UnknownIndex {
                kind: "value",
                index: value,
            })
    }

    /// Unnormalized log-posterior of every class for one discrete sample.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::FeatureCountMismatch`] or
    /// [`BayesError::UnknownIndex`] for malformed samples.
    pub fn log_posteriors(&self, sample: &[usize]) -> Result<Vec<f64>> {
        if sample.len() != self.n_features() {
            return Err(BayesError::FeatureCountMismatch {
                expected: self.n_features(),
                found: sample.len(),
            });
        }
        let mut scores = Vec::with_capacity(self.n_classes());
        for class in 0..self.n_classes() {
            let mut score = self.log_priors[class];
            for (feature, &value) in sample.iter().enumerate() {
                score += self.log_likelihood(class, feature, value)?;
            }
            scores.push(score);
        }
        Ok(scores)
    }

    /// Predicts the maximum-posterior class for one discrete sample.
    ///
    /// # Errors
    ///
    /// Propagates [`CategoricalNaiveBayes::log_posteriors`] errors.
    pub fn predict(&self, sample: &[usize]) -> Result<usize> {
        let scores = self.log_posteriors(sample)?;
        Ok(argmax(&scores).expect("at least one class"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny spam-detection corpus: features = (contains_link, contains_offer).
    fn spam_data() -> (Vec<Vec<usize>>, Vec<usize>) {
        let samples = vec![
            vec![1, 1],
            vec![1, 1],
            vec![1, 0],
            vec![0, 1],
            vec![0, 0],
            vec![0, 0],
            vec![0, 0],
            vec![1, 0],
        ];
        let labels = vec![1, 1, 1, 1, 0, 0, 0, 0];
        (samples, labels)
    }

    #[test]
    fn fit_and_predict_spam() {
        let (samples, labels) = spam_data();
        let model = CategoricalNaiveBayes::fit(&samples, &labels, 2, &[2, 2], 1.0).unwrap();
        assert_eq!(model.n_classes(), 2);
        assert_eq!(model.n_features(), 2);
        assert_eq!(model.cardinalities(), &[2, 2]);
        // A message with both a link and an offer is classified as spam.
        assert_eq!(model.predict(&[1, 1]).unwrap(), 1);
        // A plain message is classified as ham.
        assert_eq!(model.predict(&[0, 0]).unwrap(), 0);
    }

    #[test]
    fn priors_reflect_class_balance() {
        let (samples, labels) = spam_data();
        let model = CategoricalNaiveBayes::fit(&samples, &labels, 2, &[2, 2], 0.0).unwrap();
        assert!((model.log_prior(0).unwrap().exp() - 0.5).abs() < 1e-12);
        assert!(model.log_prior(5).is_err());
    }

    #[test]
    fn laplace_smoothing_avoids_zero_probabilities() {
        let samples = vec![vec![0], vec![0]];
        let labels = vec![0, 1];
        let model = CategoricalNaiveBayes::fit(&samples, &labels, 2, &[2], 1.0).unwrap();
        // Value 1 was never observed but still has finite log-likelihood.
        let ll = model.log_likelihood(0, 0, 1).unwrap();
        assert!(ll.is_finite());
        assert!(ll < model.log_likelihood(0, 0, 0).unwrap());
    }

    #[test]
    fn invalid_training_data_rejected() {
        assert!(CategoricalNaiveBayes::fit(&[], &[], 2, &[2], 1.0).is_err());
        assert!(CategoricalNaiveBayes::fit(&[vec![0]], &[0, 1], 2, &[2], 1.0).is_err());
        assert!(CategoricalNaiveBayes::fit(&[vec![0]], &[0], 0, &[2], 1.0).is_err());
        assert!(CategoricalNaiveBayes::fit(&[vec![0]], &[0], 2, &[0], 1.0).is_err());
        assert!(CategoricalNaiveBayes::fit(&[vec![0]], &[5], 2, &[2], 1.0).is_err());
        assert!(CategoricalNaiveBayes::fit(&[vec![7]], &[0], 2, &[2], 1.0).is_err());
        assert!(CategoricalNaiveBayes::fit(&[vec![0]], &[0], 2, &[2], -1.0).is_err());
        assert!(CategoricalNaiveBayes::fit(&[vec![0, 1]], &[0], 2, &[2], 1.0).is_err());
    }

    #[test]
    fn malformed_samples_rejected_at_prediction() {
        let (samples, labels) = spam_data();
        let model = CategoricalNaiveBayes::fit(&samples, &labels, 2, &[2, 2], 1.0).unwrap();
        assert!(model.predict(&[0]).is_err());
        assert!(model.predict(&[0, 5]).is_err());
        assert!(model.log_likelihood(0, 9, 0).is_err());
    }

    #[test]
    fn posteriors_have_one_score_per_class() {
        let (samples, labels) = spam_data();
        let model = CategoricalNaiveBayes::fit(&samples, &labels, 2, &[2, 2], 1.0).unwrap();
        let scores = model.log_posteriors(&[1, 0]).unwrap();
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}
