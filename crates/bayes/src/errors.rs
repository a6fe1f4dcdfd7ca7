//! Error types for the Bayesian inference substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by Bayesian model construction, training and inference.
#[derive(Debug, Clone, PartialEq)]
pub enum BayesError {
    /// A model was asked to predict before being trained.
    NotTrained,
    /// The training data is unusable (empty, missing classes, ...).
    InvalidTrainingData {
        /// Explanation of the problem.
        reason: String,
    },
    /// A sample has the wrong number of features for the trained model.
    FeatureCountMismatch {
        /// Expected number of features.
        expected: usize,
        /// Number of features in the offending sample.
        found: usize,
    },
    /// A referenced variable, class or state does not exist.
    UnknownIndex {
        /// What kind of index was out of range (`"variable"`, `"class"`, ...).
        kind: &'static str,
        /// The offending index.
        index: usize,
    },
}

impl fmt::Display for BayesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BayesError::NotTrained => write!(f, "model has not been trained"),
            BayesError::InvalidTrainingData { reason } => {
                write!(f, "invalid training data: {reason}")
            }
            BayesError::FeatureCountMismatch { expected, found } => {
                write!(f, "sample has {found} features, model expects {expected}")
            }
            BayesError::UnknownIndex { kind, index } => {
                write!(f, "unknown {kind} index {index}")
            }
        }
    }
}

impl Error for BayesError {}

/// Convenience result alias used throughout the Bayes crate.
pub type Result<T> = std::result::Result<T, BayesError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(BayesError::NotTrained
            .to_string()
            .contains("not been trained"));
        assert!(BayesError::InvalidTrainingData {
            reason: "empty".to_string()
        }
        .to_string()
        .contains("empty"));
        assert!(BayesError::FeatureCountMismatch {
            expected: 4,
            found: 2
        }
        .to_string()
        .contains("expects 4"));
        assert!(BayesError::UnknownIndex {
            kind: "class",
            index: 7
        }
        .to_string()
        .contains("class index 7"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BayesError>();
    }
}
