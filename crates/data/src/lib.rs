//! # febim-data
//!
//! Dataset substrate for the FeBiM reproduction: deterministic synthetic
//! stand-ins for the iris / wine / breast-cancer datasets used in the paper's
//! application benchmarking, plus train/test splitting and classification
//! metrics.
//!
//! The original UCI tables are not redistributed; instead
//! [`synthetic::iris_like`], [`synthetic::wine_like`] and
//! [`synthetic::cancer_like`] draw class-conditional Gaussian samples whose
//! dimensionality, class balance and separability are modelled on the
//! originals (see `DESIGN.md` for the substitution rationale).
//!
//! # Example
//!
//! ```
//! use febim_data::{rng::seeded_rng, split::train_test_split, synthetic::iris_like};
//!
//! # fn main() -> Result<(), febim_data::DataError> {
//! let dataset = iris_like(42)?;
//! let mut rng = seeded_rng(42);
//! let split = train_test_split(&dataset, 0.7, &mut rng)?;
//! assert_eq!(split.train.n_samples() + split.test.n_samples(), 150);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod errors;
pub mod metrics;
pub mod rng;
pub mod split;
pub mod synthetic;

pub use dataset::Dataset;
pub use errors::{DataError, Result};
pub use metrics::{accuracy, AccuracyStats};
pub use split::{stratified_split, train_test_split, TrainTestSplit};
pub use synthetic::{cancer_like, gaussian_blobs, iris_like, wine_like, ClassSpec, SyntheticSpec};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Accuracy always lies in [0, 1].
        #[test]
        fn accuracy_is_a_fraction(
            pairs in proptest::collection::vec((0usize..4, 0usize..4), 1..64)
        ) {
            let predictions: Vec<usize> = pairs.iter().map(|(p, _)| *p).collect();
            let labels: Vec<usize> = pairs.iter().map(|(_, l)| *l).collect();
            let acc = accuracy(&predictions, &labels).unwrap();
            prop_assert!((0.0..=1.0).contains(&acc));
        }

        /// Splits partition the dataset for any valid ratio.
        #[test]
        fn splits_partition_dataset(seed in 0u64..500, ratio in 0.1f64..0.9) {
            let dataset = synthetic::iris_like(seed).unwrap();
            let mut rng = rng::seeded_rng(seed);
            let split = train_test_split(&dataset, ratio, &mut rng).unwrap();
            prop_assert_eq!(
                split.train.n_samples() + split.test.n_samples(),
                dataset.n_samples()
            );
        }
    }
}
