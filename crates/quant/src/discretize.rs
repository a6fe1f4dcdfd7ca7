//! Feature discretization: mapping continuous evidence values onto the
//! `2^Q_f` bitlines of each likelihood block.

use serde::Serialize;

use febim_data::Dataset;

use crate::errors::{QuantError, Result};

/// Per-feature uniform binning fitted on training data.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FeatureDiscretizer {
    minimums: Vec<f64>,
    maximums: Vec<f64>,
    bins: usize,
}

impl FeatureDiscretizer {
    /// Fits the discretizer on the feature ranges of a training dataset,
    /// using `2^feature_bits` uniform bins per feature.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidPrecision`] for zero or more than 16 bits.
    pub fn fit(dataset: &Dataset, feature_bits: u32) -> Result<Self> {
        let (minimums, maximums) = (0..dataset.n_features())
            .map(|feature| dataset.feature_range(feature))
            .unzip();
        Self::from_ranges(minimums, maximums, feature_bits)
    }

    /// Rebuilds a discretizer from its per-feature minimums and maximums
    /// (the ranges [`FeatureDiscretizer::fit`] reads off the training data),
    /// using `2^feature_bits` uniform bins per feature.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidPrecision`] for zero or more than 16 bits
    /// and [`QuantError::InvalidParameter`] when the two vectors differ in
    /// length.
    pub fn from_ranges(minimums: Vec<f64>, maximums: Vec<f64>, feature_bits: u32) -> Result<Self> {
        if feature_bits == 0 || feature_bits > 16 {
            return Err(QuantError::InvalidPrecision {
                kind: "feature",
                bits: feature_bits,
            });
        }
        if minimums.len() != maximums.len() {
            return Err(QuantError::InvalidParameter {
                name: "maximums",
                reason: format!(
                    "{} minimums but {} maximums",
                    minimums.len(),
                    maximums.len()
                ),
            });
        }
        Ok(Self {
            minimums,
            maximums,
            bins: 1usize << feature_bits,
        })
    }

    /// The fitted per-feature `(minimums, maximums)`.
    pub fn ranges(&self) -> (&[f64], &[f64]) {
        (&self.minimums, &self.maximums)
    }

    /// Number of bins (bitlines) per feature.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Number of features the discretizer was fitted on.
    pub fn n_features(&self) -> usize {
        self.minimums.len()
    }

    /// Whether a feature's fitted range is degenerate: a single distinct
    /// training value (or NaN bounds) leaves every bin zero-width, so all
    /// values collapse onto bin 0. The quantization pipeline gives such
    /// features a neutral single-level mapping instead of letting the
    /// zero bin width poison the log-domain dynamic range.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnknownIndex`] when the feature does not exist.
    pub fn is_degenerate(&self, feature: usize) -> Result<bool> {
        if feature >= self.n_features() {
            return Err(QuantError::UnknownIndex {
                kind: "feature",
                index: feature,
            });
        }
        let min = self.minimums[feature];
        let max = self.maximums[feature];
        Ok(max.partial_cmp(&min) != Some(std::cmp::Ordering::Greater))
    }

    /// Bin index of one feature value; values outside the fitted range clamp
    /// to the first/last bin (as happens for unseen test samples).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnknownIndex`] when the feature does not exist.
    pub fn bin(&self, feature: usize, value: f64) -> Result<usize> {
        if feature >= self.n_features() {
            return Err(QuantError::UnknownIndex {
                kind: "feature",
                index: feature,
            });
        }
        let min = self.minimums[feature];
        let max = self.maximums[feature];
        // `partial_cmp` keeps the NaN-bounds case (no ordering) on the
        // degenerate path, exactly like the old `!(max > min)`.
        if max.partial_cmp(&min) != Some(std::cmp::Ordering::Greater) || value.is_nan() {
            return Ok(0);
        }
        let normalized = ((value - min) / (max - min)).clamp(0.0, 1.0);
        let bin = (normalized * self.bins as f64) as usize;
        Ok(bin.min(self.bins - 1))
    }

    /// Centre value of one bin in the original feature units.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnknownIndex`] for a bad feature or bin index.
    pub fn bin_center(&self, feature: usize, bin: usize) -> Result<f64> {
        if feature >= self.n_features() {
            return Err(QuantError::UnknownIndex {
                kind: "feature",
                index: feature,
            });
        }
        if bin >= self.bins {
            return Err(QuantError::UnknownIndex {
                kind: "bin",
                index: bin,
            });
        }
        let min = self.minimums[feature];
        let max = self.maximums[feature];
        let width = (max - min) / self.bins as f64;
        Ok(min + (bin as f64 + 0.5) * width)
    }

    /// Width of each bin for one feature.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnknownIndex`] for a bad feature index.
    pub fn bin_width(&self, feature: usize) -> Result<f64> {
        if feature >= self.n_features() {
            return Err(QuantError::UnknownIndex {
                kind: "feature",
                index: feature,
            });
        }
        Ok((self.maximums[feature] - self.minimums[feature]) / self.bins as f64)
    }

    /// Discretizes a whole sample into per-feature bin indices.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::FeatureCountMismatch`] for a sample of the wrong
    /// length.
    pub fn discretize_sample(&self, sample: &[f64]) -> Result<Vec<usize>> {
        let mut bins = Vec::with_capacity(sample.len());
        self.discretize_sample_into(sample, &mut bins)?;
        Ok(bins)
    }

    /// Discretizes a whole sample into per-feature bin indices, written into
    /// `out` (cleared first) so batched callers reuse one allocation.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::FeatureCountMismatch`] for a sample of the wrong
    /// length.
    pub fn discretize_sample_into(&self, sample: &[f64], out: &mut Vec<usize>) -> Result<()> {
        if sample.len() != self.n_features() {
            return Err(QuantError::FeatureCountMismatch {
                expected: self.n_features(),
                found: sample.len(),
            });
        }
        out.clear();
        out.reserve(sample.len());
        for (feature, &value) in sample.iter().enumerate() {
            out.push(self.bin(feature, value)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use febim_data::synthetic::iris_like;

    fn toy() -> Dataset {
        Dataset::new(
            "toy",
            vec!["a".to_string(), "b".to_string()],
            2,
            vec![vec![0.0, -1.0], vec![10.0, 1.0], vec![5.0, 0.0]],
            vec![0, 1, 0],
        )
        .unwrap()
    }

    #[test]
    fn precision_validation() {
        assert!(FeatureDiscretizer::fit(&toy(), 0).is_err());
        assert!(FeatureDiscretizer::fit(&toy(), 17).is_err());
        assert_eq!(FeatureDiscretizer::fit(&toy(), 4).unwrap().bins(), 16);
    }

    #[test]
    fn from_ranges_rebuilds_a_fitted_discretizer() {
        let fitted = FeatureDiscretizer::fit(&toy(), 3).unwrap();
        let (minimums, maximums) = fitted.ranges();
        let rebuilt =
            FeatureDiscretizer::from_ranges(minimums.to_vec(), maximums.to_vec(), 3).unwrap();
        assert_eq!(rebuilt, fitted);
        assert!(FeatureDiscretizer::from_ranges(vec![0.0], vec![1.0], 0).is_err());
        assert!(matches!(
            FeatureDiscretizer::from_ranges(vec![0.0, 1.0], vec![1.0], 3),
            Err(QuantError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn bins_cover_the_fitted_range() {
        let d = FeatureDiscretizer::fit(&toy(), 2).unwrap();
        assert_eq!(d.bins(), 4);
        assert_eq!(d.bin(0, 0.0).unwrap(), 0);
        assert_eq!(d.bin(0, 10.0).unwrap(), 3);
        assert_eq!(d.bin(0, 4.9).unwrap(), 1);
        assert_eq!(d.bin(0, 5.1).unwrap(), 2);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let d = FeatureDiscretizer::fit(&toy(), 2).unwrap();
        assert_eq!(d.bin(0, -100.0).unwrap(), 0);
        assert_eq!(d.bin(0, 100.0).unwrap(), 3);
        assert_eq!(d.bin(0, f64::NAN).unwrap(), 0);
    }

    #[test]
    fn invalid_indices_rejected() {
        let d = FeatureDiscretizer::fit(&toy(), 2).unwrap();
        assert!(d.bin(5, 1.0).is_err());
        assert!(d.bin_center(5, 0).is_err());
        assert!(d.bin_center(0, 9).is_err());
        assert!(d.bin_width(5).is_err());
    }

    #[test]
    fn bin_centers_lie_inside_their_bins() {
        let d = FeatureDiscretizer::fit(&toy(), 3).unwrap();
        for bin in 0..d.bins() {
            let center = d.bin_center(0, bin).unwrap();
            assert_eq!(d.bin(0, center).unwrap(), bin);
        }
    }

    #[test]
    fn bin_width_matches_range() {
        let d = FeatureDiscretizer::fit(&toy(), 2).unwrap();
        assert!((d.bin_width(0).unwrap() - 2.5).abs() < 1e-12);
        assert!((d.bin_width(1).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn discretize_sample_validates_length() {
        let d = FeatureDiscretizer::fit(&toy(), 2).unwrap();
        assert!(d.discretize_sample(&[1.0]).is_err());
        let bins = d.discretize_sample(&[10.0, -1.0]).unwrap();
        assert_eq!(bins, vec![3, 0]);
    }

    #[test]
    fn constant_feature_maps_to_bin_zero() {
        let dataset = Dataset::new(
            "const",
            vec!["a".to_string()],
            1,
            vec![vec![2.0], vec![2.0]],
            vec![0, 0],
        )
        .unwrap();
        let d = FeatureDiscretizer::fit(&dataset, 3).unwrap();
        assert_eq!(d.bin(0, 2.0).unwrap(), 0);
        assert_eq!(d.bin(0, 100.0).unwrap(), 0);
        assert!(d.is_degenerate(0).unwrap());
        assert_eq!(d.bin_width(0).unwrap(), 0.0);
    }

    #[test]
    fn degeneracy_detection_matches_bin_widths() {
        let d = FeatureDiscretizer::fit(&toy(), 2).unwrap();
        assert!(!d.is_degenerate(0).unwrap());
        assert!(!d.is_degenerate(1).unwrap());
        assert!(d.is_degenerate(5).is_err());
    }

    #[test]
    fn iris_discretization_uses_all_bins() {
        let dataset = iris_like(2).unwrap();
        let d = FeatureDiscretizer::fit(&dataset, 4).unwrap();
        let mut used = vec![false; d.bins()];
        for sample in dataset.samples() {
            let bins = d.discretize_sample(sample).unwrap();
            for b in bins {
                used[b] = true;
            }
        }
        let used_count = used.iter().filter(|&&u| u).count();
        assert!(used_count > d.bins() / 2, "only {used_count} bins used");
    }
}
