//! # febim-quant
//!
//! The probability quantization pipeline of FeBiM (Sec. 3.3 and Fig. 4 of
//! the paper): probabilities are truncated, converted to the log domain,
//! column-normalized (Eq. 6) and uniformly quantized. The device crate's
//! `LevelProgrammer` maps each level linearly to a FeFET read current.
//!
//! The central type is [`QuantizedGnbc`], the quantized form of a trained
//! Gaussian naive Bayes classifier. It serves both as a software model (to
//! measure pure quantization loss, Fig. 7 / Fig. 8(a)) and as the programming
//! source for the crossbar in `febim-core`.
//!
//! # Example
//!
//! ```
//! use febim_bayes::GaussianNaiveBayes;
//! use febim_data::{rng::seeded_rng, split::stratified_split, synthetic::iris_like};
//! use febim_quant::{QuantConfig, QuantizedGnbc};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = iris_like(1)?;
//! let split = stratified_split(&dataset, 0.7, &mut seeded_rng(1))?;
//! let model = GaussianNaiveBayes::fit(&split.train)?;
//! let quantized = QuantizedGnbc::quantize(&model, &split.train, QuantConfig::febim_optimal())?;
//! let accuracy = quantized.score(&split.test)?;
//! assert!(accuracy > 0.8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod discretize;
pub mod encoding;
pub mod errors;
pub mod pipeline;
pub mod quantizer;
pub mod transform;

pub use discretize::FeatureDiscretizer;
pub use encoding::{
    bit_offset_of, digit_slot_of, pack_digits, pack_feature_levels, packed_column_of, unpack_digit,
    Encoding, MAX_BITPLANE_BITS,
};
pub use errors::{QuantError, Result};
pub use pipeline::{QuantConfig, QuantizedGnbc};
pub use quantizer::UniformQuantizer;
pub use transform::{column_normalize, column_normalized, truncate_probability, truncated_log};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Truncated probabilities always stay inside [floor, 1].
        #[test]
        fn truncation_is_bounded(p in -1.0f64..2.0, floor in 1e-6f64..1.0) {
            let t = truncate_probability(p, floor);
            prop_assert!(t >= floor);
            prop_assert!(t <= 1.0);
        }

        /// Column normalization makes the maximum exactly one and preserves
        /// pairwise differences.
        #[test]
        fn normalization_invariants(
            column in proptest::collection::vec(-20.0f64..0.0, 1..8)
        ) {
            let normalized = column_normalized(&column);
            let max = normalized.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((max - 1.0).abs() < 1e-9);
            for i in 0..column.len() {
                for j in 0..column.len() {
                    let original = column[i] - column[j];
                    let shifted = normalized[i] - normalized[j];
                    prop_assert!((original - shifted).abs() < 1e-9);
                }
            }
        }

        /// Quantize / dequantize error never exceeds half a step.
        #[test]
        fn quantizer_round_trip(
            low in -10.0f64..0.0,
            width in 0.5f64..10.0,
            bits in 1u32..8,
            value in -12.0f64..12.0,
        ) {
            let q = UniformQuantizer::with_bits(low, low + width, bits).unwrap();
            let reconstructed = q.reconstruct(value);
            let clamped = value.clamp(q.low(), q.high());
            prop_assert!((reconstructed - clamped).abs() <= q.step() / 2.0 + 1e-9);
        }

        /// Discretized bins are always inside the configured range.
        #[test]
        fn discretizer_bins_in_range(seed in 0u64..100, bits in 1u32..6, value in -10.0f64..20.0) {
            let dataset = febim_data::synthetic::iris_like(seed).unwrap();
            let discretizer = FeatureDiscretizer::fit(&dataset, bits).unwrap();
            for feature in 0..dataset.n_features() {
                let bin = discretizer.bin(feature, value).unwrap();
                prop_assert!(bin < discretizer.bins());
            }
        }

        /// Discretize → level round trip: for any sample, the allocating and
        /// the buffer-reusing discretizers agree, and each feature's bin is
        /// the discretizer's bin of that feature's value and addresses a
        /// stored likelihood level of every class. Which crossbar column
        /// holds that level is the compiler's to pin (core's
        /// `levels_match_the_quantized_tables`).
        #[test]
        fn discretized_samples_activate_the_right_levels(
            seed in 0u64..20,
            feature_bits in 1u32..5,
            likelihood_bits in 1u32..4,
            index in 0usize..105,
        ) {
            let dataset = febim_data::synthetic::iris_like(seed).unwrap();
            let split = febim_data::split::stratified_split(
                &dataset, 0.7, &mut febim_data::rng::seeded_rng(seed)).unwrap();
            let model = febim_bayes::GaussianNaiveBayes::fit(&split.train).unwrap();
            let quantized = QuantizedGnbc::quantize(
                &model, &split.train, QuantConfig::new(feature_bits, likelihood_bits)).unwrap();
            let sample = split.test.sample(index % split.test.n_samples()).unwrap();
            let bins = quantized.discretize_sample(sample).unwrap();
            let mut reused = vec![99; 1];
            quantized.discretize_sample_into(sample, &mut reused).unwrap();
            prop_assert_eq!(&bins, &reused);
            prop_assert_eq!(bins.len(), quantized.n_features());
            let bin_count = quantized.discretizer().bins();
            for (feature, &bin) in bins.iter().enumerate() {
                prop_assert!(bin < bin_count);
                prop_assert_eq!(bin, quantized.discretizer().bin(feature, sample[feature]).unwrap());
                for class in 0..quantized.n_classes() {
                    let level = quantized.likelihood_level(class, feature, bin).unwrap();
                    prop_assert!(level < quantized.quantizer().levels());
                }
            }
        }
    }
}
