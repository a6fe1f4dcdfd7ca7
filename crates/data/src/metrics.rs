//! Classification metrics.

use serde::Serialize;

use crate::errors::{DataError, Result};

/// Fraction of predictions that match the true labels.
///
/// # Errors
///
/// Returns [`DataError::PredictionLengthMismatch`] when the slices differ in
/// length and [`DataError::EmptyDataset`] when they are empty.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> Result<f64> {
    if predictions.len() != labels.len() {
        return Err(DataError::PredictionLengthMismatch {
            predictions: predictions.len(),
            labels: labels.len(),
        });
    }
    if predictions.is_empty() {
        return Err(DataError::EmptyDataset);
    }
    let correct = predictions
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    Ok(correct as f64 / predictions.len() as f64)
}

/// Summary statistics of a collection of accuracy measurements (one per
/// train/inference epoch, as in the paper's 100-epoch evaluations).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AccuracyStats {
    /// Mean accuracy.
    pub mean: f64,
    /// Standard deviation of the accuracy.
    pub std_dev: f64,
    /// Minimum observed accuracy.
    pub min: f64,
    /// Maximum observed accuracy.
    pub max: f64,
    /// Number of measurements.
    pub count: usize,
}

impl AccuracyStats {
    /// Computes the statistics of a set of accuracy values.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::EmptyDataset`] when `values` is empty.
    pub fn from_values(values: &[f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(DataError::EmptyDataset);
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Ok(Self {
            mean,
            std_dev: variance.sqrt(),
            min,
            max,
            count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        let acc = accuracy(&[0, 1, 2, 1], &[0, 1, 1, 1]).unwrap();
        assert!((acc - 0.75).abs() < 1e-12);
    }

    #[test]
    fn accuracy_validates_inputs() {
        assert!(accuracy(&[0, 1], &[0]).is_err());
        assert!(accuracy(&[], &[]).is_err());
    }

    #[test]
    fn perfect_and_zero_accuracy() {
        assert_eq!(accuracy(&[1, 1], &[1, 1]).unwrap(), 1.0);
        assert_eq!(accuracy(&[0, 0], &[1, 1]).unwrap(), 0.0);
    }

    #[test]
    fn accuracy_stats_summarize() {
        let stats = AccuracyStats::from_values(&[0.9, 0.95, 1.0]).unwrap();
        assert!((stats.mean - 0.95).abs() < 1e-12);
        assert_eq!(stats.min, 0.9);
        assert_eq!(stats.max, 1.0);
        assert_eq!(stats.count, 3);
        assert!(stats.std_dev > 0.0);
    }

    #[test]
    fn accuracy_stats_reject_empty() {
        assert!(AccuracyStats::from_values(&[]).is_err());
    }

    #[test]
    fn accuracy_stats_single_value_has_zero_std() {
        let stats = AccuracyStats::from_values(&[0.8]).unwrap();
        assert_eq!(stats.std_dev, 0.0);
        assert_eq!(stats.mean, 0.8);
    }
}
