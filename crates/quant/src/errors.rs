//! Error types for the quantization and mapping pipeline.

use std::error::Error;
use std::fmt;

use febim_bayes::BayesError;

/// Errors produced by the quantization and mapping pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// A quantization precision is outside the supported range.
    InvalidPrecision {
        /// Which precision was invalid (`"feature"` or `"likelihood"`).
        kind: &'static str,
        /// The offending number of bits.
        bits: u32,
    },
    /// A pipeline parameter is invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Explanation of the violated constraint.
        reason: String,
    },
    /// A sample has the wrong number of features.
    FeatureCountMismatch {
        /// Expected number of features.
        expected: usize,
        /// Number found.
        found: usize,
    },
    /// A referenced class, feature or bin does not exist.
    UnknownIndex {
        /// Kind of index (`"class"`, `"feature"`, `"bin"`, `"level"`).
        kind: &'static str,
        /// The offending index.
        index: usize,
    },
    /// An underlying Bayesian-model error.
    Bayes(BayesError),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::InvalidPrecision { kind, bits } => {
                write!(
                    f,
                    "{kind} quantization precision of {bits} bits unsupported"
                )
            }
            QuantError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            QuantError::FeatureCountMismatch { expected, found } => {
                write!(f, "sample has {found} features, expected {expected}")
            }
            QuantError::UnknownIndex { kind, index } => write!(f, "unknown {kind} index {index}"),
            QuantError::Bayes(err) => write!(f, "bayes error: {err}"),
        }
    }
}

impl Error for QuantError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QuantError::Bayes(err) => Some(err),
            _ => None,
        }
    }
}

impl From<BayesError> for QuantError {
    fn from(err: BayesError) -> Self {
        QuantError::Bayes(err)
    }
}

/// Convenience result alias used throughout the quant crate.
pub type Result<T> = std::result::Result<T, QuantError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(QuantError::InvalidPrecision {
            kind: "feature",
            bits: 0
        }
        .to_string()
        .contains("feature"));
        assert!(QuantError::InvalidParameter {
            name: "floor",
            reason: "must be positive".to_string()
        }
        .to_string()
        .contains("floor"));
        assert!(QuantError::FeatureCountMismatch {
            expected: 4,
            found: 3
        }
        .to_string()
        .contains("expected 4"));
        assert!(QuantError::UnknownIndex {
            kind: "bin",
            index: 9
        }
        .to_string()
        .contains("bin index 9"));
    }

    #[test]
    fn conversions_preserve_sources() {
        let bayes = BayesError::NotTrained;
        let err: QuantError = bayes.into();
        assert!(Error::source(&err).is_some());
    }
}
