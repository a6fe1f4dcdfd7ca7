//! Error types for the dataset substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by dataset construction, splitting and metric helpers.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// The dataset has no samples.
    EmptyDataset,
    /// Feature vectors have inconsistent lengths.
    InconsistentFeatureCount {
        /// Expected number of features.
        expected: usize,
        /// Number of features found in the offending sample.
        found: usize,
        /// Index of the offending sample.
        sample: usize,
    },
    /// A label refers to a class index beyond the declared class count.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes declared for the dataset.
        classes: usize,
    },
    /// The number of labels differs from the number of samples.
    LabelCountMismatch {
        /// Number of samples.
        samples: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A split ratio is outside the open interval (0, 1).
    InvalidSplitRatio(f64),
    /// Prediction and label vectors differ in length.
    PredictionLengthMismatch {
        /// Number of predictions.
        predictions: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A generator parameter or a sample index is invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Explanation of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::EmptyDataset => write!(f, "dataset contains no samples"),
            DataError::InconsistentFeatureCount {
                expected,
                found,
                sample,
            } => write!(
                f,
                "sample {sample} has {found} features, expected {expected}"
            ),
            DataError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            DataError::LabelCountMismatch { samples, labels } => {
                write!(f, "{labels} labels provided for {samples} samples")
            }
            DataError::InvalidSplitRatio(ratio) => {
                write!(f, "split ratio {ratio} must lie strictly between 0 and 1")
            }
            DataError::PredictionLengthMismatch {
                predictions,
                labels,
            } => write!(
                f,
                "{predictions} predictions compared against {labels} labels"
            ),
            DataError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
        }
    }
}

impl Error for DataError {}

/// Convenience result alias used throughout the data crate.
pub type Result<T> = std::result::Result<T, DataError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(DataError::EmptyDataset.to_string().contains("no samples"));
        assert!(DataError::InconsistentFeatureCount {
            expected: 4,
            found: 3,
            sample: 7
        }
        .to_string()
        .contains("sample 7"));
        assert!(DataError::LabelOutOfRange {
            label: 5,
            classes: 3
        }
        .to_string()
        .contains("label 5"));
        assert!(DataError::LabelCountMismatch {
            samples: 10,
            labels: 9
        }
        .to_string()
        .contains("9 labels"));
        assert!(DataError::InvalidSplitRatio(1.5)
            .to_string()
            .contains("1.5"));
        assert!(DataError::PredictionLengthMismatch {
            predictions: 3,
            labels: 4
        }
        .to_string()
        .contains("3 predictions"));
        assert!(DataError::InvalidParameter {
            name: "std",
            reason: "must be positive".to_string()
        }
        .to_string()
        .contains("std"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataError>();
    }
}
