//! In-memory tabular dataset with continuous features and integer class labels.

use serde::Serialize;

use crate::errors::{DataError, Result};

/// A labelled dataset of continuous feature vectors.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dataset {
    /// Human-readable dataset name (e.g. `"iris-like"`).
    name: String,
    /// One name per feature column.
    feature_names: Vec<String>,
    /// Number of distinct classes.
    n_classes: usize,
    /// Feature vectors, one per sample.
    samples: Vec<Vec<f64>>,
    /// Class label of each sample.
    labels: Vec<usize>,
}

impl Dataset {
    /// Builds a dataset and validates its internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::EmptyDataset`] when there are no samples,
    /// [`DataError::LabelCountMismatch`] when labels and samples disagree in
    /// length, [`DataError::InconsistentFeatureCount`] when any sample has a
    /// different number of features than the first, and
    /// [`DataError::LabelOutOfRange`] when a label exceeds `n_classes`.
    pub fn new(
        name: impl Into<String>,
        feature_names: Vec<String>,
        n_classes: usize,
        samples: Vec<Vec<f64>>,
        labels: Vec<usize>,
    ) -> Result<Self> {
        if samples.is_empty() {
            return Err(DataError::EmptyDataset);
        }
        if samples.len() != labels.len() {
            return Err(DataError::LabelCountMismatch {
                samples: samples.len(),
                labels: labels.len(),
            });
        }
        let expected = feature_names.len();
        for (index, sample) in samples.iter().enumerate() {
            if sample.len() != expected {
                return Err(DataError::InconsistentFeatureCount {
                    expected,
                    found: sample.len(),
                    sample: index,
                });
            }
        }
        for &label in &labels {
            if label >= n_classes {
                return Err(DataError::LabelOutOfRange {
                    label,
                    classes: n_classes,
                });
            }
        }
        Ok(Self {
            name: name.into(),
            feature_names,
            n_classes,
            samples,
            labels,
        })
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Names of the feature columns.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Number of samples.
    pub fn n_samples(&self) -> usize {
        self.samples.len()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Borrow all feature vectors.
    pub fn samples(&self) -> &[Vec<f64>] {
        &self.samples
    }

    /// Borrow all labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Feature vector of one sample.
    pub fn sample(&self, index: usize) -> Option<&[f64]> {
        self.samples.get(index).map(|s| s.as_slice())
    }

    /// Label of one sample.
    pub fn label(&self, index: usize) -> Option<usize> {
        self.labels.get(index).copied()
    }

    /// Number of samples in each class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &label in &self.labels {
            counts[label] += 1;
        }
        counts
    }

    /// All values of one feature column.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of range.
    pub fn feature_column(&self, feature: usize) -> Vec<f64> {
        assert!(feature < self.n_features(), "feature index out of range");
        self.samples.iter().map(|s| s[feature]).collect()
    }

    /// Minimum and maximum of one feature column.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of range.
    pub fn feature_range(&self, feature: usize) -> (f64, f64) {
        let column = self.feature_column(feature);
        let min = column.iter().copied().fold(f64::INFINITY, f64::min);
        let max = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (min, max)
    }

    /// Indices of the samples belonging to one class.
    pub fn class_indices(&self, class: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, &label)| label == class)
            .map(|(index, _)| index)
            .collect()
    }

    /// Builds a new dataset containing only the given sample indices.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::EmptyDataset`] when `indices` is empty and
    /// [`DataError::InvalidParameter`] when an index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset> {
        if indices.is_empty() {
            return Err(DataError::EmptyDataset);
        }
        let mut samples = Vec::with_capacity(indices.len());
        let mut labels = Vec::with_capacity(indices.len());
        for &index in indices {
            let sample = self.samples.get(index).ok_or(DataError::InvalidParameter {
                name: "indices",
                reason: format!(
                    "index {index} out of range for {} samples",
                    self.n_samples()
                ),
            })?;
            samples.push(sample.clone());
            labels.push(self.labels[index]);
        }
        Dataset::new(
            self.name.clone(),
            self.feature_names.clone(),
            self.n_classes,
            samples,
            labels,
        )
    }

    /// Iterates over `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], usize)> + '_ {
        self.samples
            .iter()
            .map(|s| s.as_slice())
            .zip(self.labels.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            "toy",
            vec!["a".to_string(), "b".to_string()],
            2,
            vec![
                vec![0.0, 1.0],
                vec![1.0, 2.0],
                vec![2.0, 3.0],
                vec![3.0, 4.0],
            ],
            vec![0, 0, 1, 1],
        )
        .unwrap()
    }

    #[test]
    fn accessors_report_shapes() {
        let d = toy();
        assert_eq!(d.name(), "toy");
        assert_eq!(d.n_samples(), 4);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.feature_names().len(), 2);
        assert_eq!(d.sample(1), Some(&[1.0, 2.0][..]));
        assert_eq!(d.label(2), Some(1));
        assert_eq!(d.sample(9), None);
        assert_eq!(d.label(9), None);
    }

    #[test]
    fn empty_dataset_rejected() {
        let err = Dataset::new("x", vec![], 1, vec![], vec![]).unwrap_err();
        assert_eq!(err, DataError::EmptyDataset);
    }

    #[test]
    fn label_count_mismatch_rejected() {
        let err =
            Dataset::new("x", vec!["a".to_string()], 1, vec![vec![1.0]], vec![0, 0]).unwrap_err();
        assert!(matches!(err, DataError::LabelCountMismatch { .. }));
    }

    #[test]
    fn inconsistent_features_rejected() {
        let err = Dataset::new(
            "x",
            vec!["a".to_string(), "b".to_string()],
            1,
            vec![vec![1.0, 2.0], vec![1.0]],
            vec![0, 0],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DataError::InconsistentFeatureCount { sample: 1, .. }
        ));
    }

    #[test]
    fn label_out_of_range_rejected() {
        let err = Dataset::new(
            "x",
            vec!["a".to_string()],
            2,
            vec![vec![1.0], vec![2.0]],
            vec![0, 2],
        )
        .unwrap_err();
        assert!(matches!(err, DataError::LabelOutOfRange { label: 2, .. }));
    }

    #[test]
    fn class_counts_and_indices() {
        let d = toy();
        assert_eq!(d.class_counts(), vec![2, 2]);
        assert_eq!(d.class_indices(0), vec![0, 1]);
        assert_eq!(d.class_indices(1), vec![2, 3]);
    }

    #[test]
    fn feature_column_and_range() {
        let d = toy();
        assert_eq!(d.feature_column(1), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.feature_range(0), (0.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "feature index out of range")]
    fn feature_column_out_of_range_panics() {
        toy().feature_column(5);
    }

    #[test]
    fn subset_selects_requested_rows() {
        let d = toy();
        let s = d.subset(&[0, 3]).unwrap();
        assert_eq!(s.n_samples(), 2);
        assert_eq!(s.labels(), &[0, 1]);
        assert!(d.subset(&[]).is_err());
        assert!(d.subset(&[42]).is_err());
    }

    #[test]
    fn iter_yields_pairs_in_order() {
        let d = toy();
        let pairs: Vec<(Vec<f64>, usize)> = d.iter().map(|(s, l)| (s.to_vec(), l)).collect();
        assert_eq!(pairs.len(), 4);
        assert_eq!(pairs[2], (vec![2.0, 3.0], 1));
    }
}
