//! Synthetic dataset generators.
//!
//! The paper evaluates FeBiM on the classic `iris`, `wine` and
//! `breast-cancer` datasets loaded through scikit-learn. Redistributing the
//! original UCI tables is unnecessary for reproducing the paper's *trends*
//! (accuracy plateaus under quantization, robustness under device variation),
//! which depend only on the class-conditional Gaussian structure of the data.
//! These generators therefore synthesise datasets whose dimensionality, class
//! balance and class separability are modelled on the originals; the
//! substitution is documented in `DESIGN.md`.

use rand::Rng;
use serde::Serialize;

use crate::dataset::Dataset;
use crate::errors::{DataError, Result};
use crate::rng::{normal, seeded_rng};

/// Gaussian description of one class: per-feature means and standard
/// deviations plus the number of samples to draw.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassSpec {
    /// Per-feature means.
    pub means: Vec<f64>,
    /// Per-feature standard deviations (must be positive).
    pub std_devs: Vec<f64>,
    /// Number of samples to draw for this class.
    pub count: usize,
}

impl ClassSpec {
    /// Creates a class specification.
    pub fn new(means: Vec<f64>, std_devs: Vec<f64>, count: usize) -> Self {
        Self {
            means,
            std_devs,
            count,
        }
    }
}

/// Full specification of a synthetic class-conditional Gaussian dataset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SyntheticSpec {
    /// Dataset name.
    pub name: String,
    /// Feature names (defines the dimensionality).
    pub feature_names: Vec<String>,
    /// One specification per class.
    pub classes: Vec<ClassSpec>,
}

impl SyntheticSpec {
    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] when the spec has no classes,
    /// a class has mismatched means/std-devs, a non-positive standard
    /// deviation, or zero samples.
    pub fn validate(&self) -> Result<()> {
        if self.classes.is_empty() {
            return Err(DataError::InvalidParameter {
                name: "classes",
                reason: "at least one class is required".to_string(),
            });
        }
        let features = self.feature_names.len();
        for (index, class) in self.classes.iter().enumerate() {
            if class.means.len() != features || class.std_devs.len() != features {
                return Err(DataError::InvalidParameter {
                    name: "classes",
                    reason: format!(
                        "class {index} has {} means and {} std-devs for {features} features",
                        class.means.len(),
                        class.std_devs.len()
                    ),
                });
            }
            if class.count == 0 {
                return Err(DataError::InvalidParameter {
                    name: "classes",
                    reason: format!("class {index} has zero samples"),
                });
            }
            if class.std_devs.iter().any(|&s| !(s > 0.0 && s.is_finite())) {
                return Err(DataError::InvalidParameter {
                    name: "classes",
                    reason: format!("class {index} has a non-positive standard deviation"),
                });
            }
        }
        Ok(())
    }

    /// Generates the dataset deterministically from a seed.
    ///
    /// # Errors
    ///
    /// Propagates [`SyntheticSpec::validate`] failures and dataset
    /// construction errors.
    pub fn generate(&self, seed: u64) -> Result<Dataset> {
        self.validate()?;
        let mut rng = seeded_rng(seed);
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for (class_index, class) in self.classes.iter().enumerate() {
            for _ in 0..class.count {
                let sample: Vec<f64> = class
                    .means
                    .iter()
                    .zip(class.std_devs.iter())
                    .map(|(&mean, &std)| normal(&mut rng, mean, std))
                    .collect();
                samples.push(sample);
                labels.push(class_index);
            }
        }
        // Shuffle so train/test splits do not accidentally follow class order.
        let order = crate::rng::permutation(&mut rng, samples.len());
        let samples: Vec<Vec<f64>> = order.iter().map(|&i| samples[i].clone()).collect();
        let labels: Vec<usize> = order.iter().map(|&i| labels[i]).collect();
        Dataset::new(
            self.name.clone(),
            self.feature_names.clone(),
            self.classes.len(),
            samples,
            labels,
        )
    }
}

fn names(prefix: &str, count: usize) -> Vec<String> {
    (0..count).map(|i| format!("{prefix}_{i}")).collect()
}

/// Specification modelled on the iris dataset: 4 features, 3 balanced classes
/// of 50 samples each, with one linearly separable class and two overlapping
/// ones (software GNBC accuracy in the mid-90s %).
pub fn iris_like_spec() -> SyntheticSpec {
    SyntheticSpec {
        name: "iris-like".to_string(),
        feature_names: vec![
            "sepal_length".to_string(),
            "sepal_width".to_string(),
            "petal_length".to_string(),
            "petal_width".to_string(),
        ],
        classes: vec![
            // setosa-like: well separated in the petal dimensions.
            ClassSpec::new(
                vec![5.01, 3.43, 1.46, 0.25],
                vec![0.35, 0.38, 0.17, 0.11],
                50,
            ),
            // versicolor-like.
            ClassSpec::new(
                vec![5.94, 2.77, 4.26, 1.33],
                vec![0.52, 0.31, 0.47, 0.20],
                50,
            ),
            // virginica-like: overlaps versicolor.
            ClassSpec::new(
                vec![6.59, 2.97, 5.55, 2.03],
                vec![0.64, 0.32, 0.55, 0.27],
                50,
            ),
        ],
    }
}

/// Specification modelled on the wine dataset: 13 features, 3 classes with the
/// original 59/71/48 class balance and moderate separability.
pub fn wine_like_spec() -> SyntheticSpec {
    let features = 13;
    // Base feature scales loosely follow the wine chemistry measurements
    // (alcohol ~13, malic acid ~2, ash ~2.4, alcalinity ~19, magnesium ~100,
    // phenols ~2.3, flavanoids ~2, nonflavanoid ~0.4, proanthocyanins ~1.6,
    // color intensity ~5, hue ~1, OD280 ~2.6, proline ~750).
    let base = [
        13.0, 2.34, 2.37, 19.5, 99.7, 2.30, 2.03, 0.36, 1.59, 5.06, 0.96, 2.61, 746.0,
    ];
    let spread = [
        0.81, 1.12, 0.27, 3.34, 14.3, 0.63, 1.00, 0.12, 0.57, 2.32, 0.23, 0.71, 315.0,
    ];
    // Class-dependent offsets expressed in units of the feature spread;
    // class 0 (barolo-like) is high-alcohol/high-proline, class 2 has high
    // colour intensity and low flavanoids, class 1 sits in between.
    let offsets = [
        [
            0.9, -0.3, 0.3, -0.8, 0.5, 0.9, 1.0, -0.6, 0.6, 0.2, 0.5, 0.8, 1.2,
        ],
        [
            -0.9, -0.4, -0.5, 0.2, -0.4, 0.0, 0.1, 0.0, 0.1, -0.9, 0.3, 0.3, -0.8,
        ],
        [
            0.2, 0.9, 0.3, 0.6, 0.0, -0.9, -1.3, 0.8, -0.7, 1.0, -1.1, -1.3, -0.4,
        ],
    ];
    let counts = [59usize, 71, 48];
    let classes = (0..3)
        .map(|class| {
            let means = (0..features)
                .map(|f| base[f] + offsets[class][f] * spread[f])
                .collect();
            let std_devs = (0..features).map(|f| spread[f] * 0.75).collect();
            ClassSpec::new(means, std_devs, counts[class])
        })
        .collect();
    SyntheticSpec {
        name: "wine-like".to_string(),
        feature_names: names("chem", features),
        classes,
    }
}

/// Specification modelled on the breast-cancer (WDBC) dataset: 30 features,
/// 2 classes with the original 212/357 malignant/benign balance and strongly
/// correlated mean shifts between the classes.
pub fn cancer_like_spec() -> SyntheticSpec {
    let features = 30;
    // Benign baseline scales per feature group (mean radius ~12, texture ~18,
    // perimeter ~78, area ~460, smoothness ~0.09, ... repeated across the
    // mean / standard-error / worst feature groups of WDBC).
    let mut benign_means = Vec::with_capacity(features);
    let mut malignant_means = Vec::with_capacity(features);
    let mut std_devs = Vec::with_capacity(features);
    let group_base = [
        12.1, 17.9, 78.1, 462.8, 0.092, 0.080, 0.046, 0.026, 0.174, 0.063,
    ];
    let group_spread = [
        1.8, 4.0, 11.8, 134.0, 0.013, 0.034, 0.044, 0.016, 0.025, 0.007,
    ];
    // Malignant shift in units of the benign spread; geometry features shift
    // strongly, texture/symmetry features less so.
    let group_shift = [1.9, 0.9, 2.0, 1.9, 0.9, 1.4, 1.8, 2.2, 0.6, 0.2];
    for group in 0..3 {
        // Group 0: mean values, group 1: standard errors (scaled down),
        // group 2: "worst" values (scaled up).
        let scale = match group {
            0 => 1.0,
            1 => 0.12,
            _ => 1.25,
        };
        for f in 0..10 {
            let base = group_base[f] * scale;
            let spread = group_spread[f] * scale;
            benign_means.push(base);
            malignant_means.push(base + group_shift[f] * spread);
            std_devs.push(spread);
        }
    }
    SyntheticSpec {
        name: "cancer-like".to_string(),
        feature_names: names("cell", features),
        classes: vec![
            ClassSpec::new(malignant_means, std_devs.clone(), 212),
            ClassSpec::new(benign_means, std_devs, 357),
        ],
    }
}

/// Generates the iris-like dataset with a fixed seed.
///
/// # Errors
///
/// Propagates generation errors (the built-in spec never triggers them).
pub fn iris_like(seed: u64) -> Result<Dataset> {
    iris_like_spec().generate(seed)
}

/// Generates the wine-like dataset with a fixed seed.
///
/// # Errors
///
/// Propagates generation errors (the built-in spec never triggers them).
pub fn wine_like(seed: u64) -> Result<Dataset> {
    wine_like_spec().generate(seed)
}

/// Generates the cancer-like dataset with a fixed seed.
///
/// # Errors
///
/// Propagates generation errors (the built-in spec never triggers them).
pub fn cancer_like(seed: u64) -> Result<Dataset> {
    cancer_like_spec().generate(seed)
}

/// Generates a generic set of Gaussian blobs, useful for scalability studies
/// where the number of classes and features must be swept freely.
///
/// Class `c` is centred at `c * separation` in every feature dimension with
/// unit standard deviation.
///
/// # Errors
///
/// Returns [`DataError::InvalidParameter`] for zero classes, features or
/// samples per class, or a non-positive separation.
pub fn gaussian_blobs<R: Rng + ?Sized>(
    classes: usize,
    features: usize,
    samples_per_class: usize,
    separation: f64,
    rng: &mut R,
) -> Result<Dataset> {
    if classes == 0 || features == 0 || samples_per_class == 0 {
        return Err(DataError::InvalidParameter {
            name: "classes/features/samples_per_class",
            reason: "must all be non-zero".to_string(),
        });
    }
    if !(separation > 0.0 && separation.is_finite()) {
        return Err(DataError::InvalidParameter {
            name: "separation",
            reason: "must be positive and finite".to_string(),
        });
    }
    let mut samples = Vec::with_capacity(classes * samples_per_class);
    let mut labels = Vec::with_capacity(classes * samples_per_class);
    for class in 0..classes {
        let centre = class as f64 * separation;
        for _ in 0..samples_per_class {
            samples.push((0..features).map(|_| normal(rng, centre, 1.0)).collect());
            labels.push(class);
        }
    }
    Dataset::new(
        format!("blobs-{classes}x{features}"),
        names("x", features),
        classes,
        samples,
        labels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iris_like_has_paper_shape() {
        let d = iris_like(1).unwrap();
        assert_eq!(d.n_samples(), 150);
        assert_eq!(d.n_features(), 4);
        assert_eq!(d.n_classes(), 3);
        assert_eq!(d.class_counts(), vec![50, 50, 50]);
    }

    #[test]
    fn wine_like_has_paper_shape() {
        let d = wine_like(1).unwrap();
        assert_eq!(d.n_samples(), 178);
        assert_eq!(d.n_features(), 13);
        assert_eq!(d.n_classes(), 3);
        assert_eq!(d.class_counts(), vec![59, 71, 48]);
    }

    #[test]
    fn cancer_like_has_paper_shape() {
        let d = cancer_like(1).unwrap();
        assert_eq!(d.n_samples(), 569);
        assert_eq!(d.n_features(), 30);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.class_counts(), vec![212, 357]);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = iris_like(7).unwrap();
        let b = iris_like(7).unwrap();
        let c = iris_like(8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn class_means_match_spec_roughly() {
        let spec = iris_like_spec();
        let d = spec.generate(3).unwrap();
        for (class_index, class_spec) in spec.classes.iter().enumerate() {
            let indices = d.class_indices(class_index);
            for feature in 0..d.n_features() {
                let mean: f64 = indices
                    .iter()
                    .map(|&i| d.sample(i).unwrap()[feature])
                    .sum::<f64>()
                    / indices.len() as f64;
                let expected = class_spec.means[feature];
                let tolerance =
                    3.0 * class_spec.std_devs[feature] / (indices.len() as f64).sqrt() + 1e-9;
                assert!(
                    (mean - expected).abs() < tolerance.max(0.2),
                    "class {class_index} feature {feature}: mean {mean} expected {expected}"
                );
            }
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut spec = iris_like_spec();
        spec.classes.clear();
        assert!(spec.generate(0).is_err());

        let mut spec = iris_like_spec();
        spec.classes[0].std_devs[0] = 0.0;
        assert!(spec.generate(0).is_err());

        let mut spec = iris_like_spec();
        spec.classes[0].count = 0;
        assert!(spec.generate(0).is_err());

        let mut spec = iris_like_spec();
        spec.classes[0].means.pop();
        assert!(spec.generate(0).is_err());
    }

    #[test]
    fn blobs_generator_validates_and_generates() {
        let mut rng = seeded_rng(1);
        assert!(gaussian_blobs(0, 2, 5, 3.0, &mut rng).is_err());
        assert!(gaussian_blobs(2, 2, 5, 0.0, &mut rng).is_err());
        let d = gaussian_blobs(4, 3, 10, 5.0, &mut rng).unwrap();
        assert_eq!(d.n_samples(), 40);
        assert_eq!(d.n_classes(), 4);
        assert_eq!(d.n_features(), 3);
    }

    #[test]
    fn labels_are_shuffled() {
        // The generated labels should not be sorted by class.
        let d = iris_like(5).unwrap();
        let labels = d.labels();
        let sorted = {
            let mut s = labels.to_vec();
            s.sort_unstable();
            s
        };
        assert_ne!(labels, sorted.as_slice());
    }
}
