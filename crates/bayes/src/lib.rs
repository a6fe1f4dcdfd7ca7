//! # febim-bayes
//!
//! Bayesian inference substrate and software baseline for the FeBiM
//! reproduction:
//!
//! * [`Probability`] / [`LogProb`] newtypes and log-domain helpers;
//! * [`CategoricalNaiveBayes`] — naive Bayes over discrete evidence values;
//! * [`GaussianNaiveBayes`] — the Gaussian naive Bayes classifier (GNBC)
//!   trained in FP64, serving as the paper's software baseline (Fig. 7/8).
//!
//! # Example
//!
//! ```
//! use febim_bayes::GaussianNaiveBayes;
//! use febim_data::{rng::seeded_rng, split::stratified_split, synthetic::iris_like};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = iris_like(1)?;
//! let split = stratified_split(&dataset, 0.7, &mut seeded_rng(1))?;
//! let model = GaussianNaiveBayes::fit(&split.train)?;
//! let accuracy = model.score(&split.test)?;
//! assert!(accuracy > 0.85);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod errors;
pub mod gnbc;
pub mod naive;
pub mod prob;

pub use errors::{BayesError, Result};
pub use gnbc::{gaussian_log_pdf, ClassGaussians, GaussianNaiveBayes};
pub use naive::CategoricalNaiveBayes;
pub use prob::{argmax, log_scores_to_probabilities, LogProb, Probability};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Gaussian log-pdf is maximal at the mean for any variance.
        #[test]
        fn gaussian_peaks_at_mean(
            mean in -10.0f64..10.0,
            variance in 1e-3f64..10.0,
            offset in 1e-3f64..10.0,
        ) {
            let at_mean = gaussian_log_pdf(mean, mean, variance);
            let off = gaussian_log_pdf(mean + offset, mean, variance);
            prop_assert!(at_mean > off);
        }

        /// Posterior normalization never changes the argmax.
        #[test]
        fn normalization_preserves_argmax(
            scores in proptest::collection::vec(-50.0f64..0.0, 2..8)
        ) {
            let normalized = log_scores_to_probabilities(&scores);
            let a = argmax(&scores);
            let b = argmax(&normalized);
            prop_assert_eq!(a, b);
        }

        /// Probability validation accepts exactly the unit interval.
        #[test]
        fn probability_validation(value in -2.0f64..3.0) {
            let result = Probability::new(value);
            if (0.0..=1.0).contains(&value) {
                prop_assert!(result.is_ok());
            } else {
                prop_assert!(result.is_err());
            }
        }

        /// GNBC predictions are invariant to adding a constant to every
        /// class's log-posterior (the property Eq. (6)'s normalization relies
        /// on).
        #[test]
        fn log_posterior_shift_invariance(
            sample_index in 0usize..150,
            shift in -5.0f64..5.0,
        ) {
            let dataset = febim_data::synthetic::iris_like(3).unwrap();
            let model = GaussianNaiveBayes::fit(&dataset).unwrap();
            let sample = dataset.sample(sample_index % dataset.n_samples()).unwrap();
            let scores = model.log_posteriors(sample).unwrap();
            let shifted: Vec<f64> = scores.iter().map(|s| s + shift).collect();
            prop_assert_eq!(argmax(&scores), argmax(&shifted));
        }
    }
}
