//! Uniform scalar quantizer for normalized log-probabilities.

use serde::Serialize;

use crate::errors::{QuantError, Result};

/// Uniform quantizer mapping a real interval `[low, high]` onto
/// `levels` discrete steps.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UniformQuantizer {
    low: f64,
    high: f64,
    levels: usize,
}

impl UniformQuantizer {
    /// Creates a quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] when the interval is empty or
    /// not finite, or fewer than two levels are requested.
    pub fn new(low: f64, high: f64, levels: usize) -> Result<Self> {
        if !(low.is_finite() && high.is_finite()) || high <= low {
            return Err(QuantError::InvalidParameter {
                name: "low/high",
                reason: format!("interval [{low}, {high}] must be finite and non-empty"),
            });
        }
        if levels < 2 {
            return Err(QuantError::InvalidParameter {
                name: "levels",
                reason: "at least two quantization levels are required".to_string(),
            });
        }
        Ok(Self { low, high, levels })
    }

    /// Creates a quantizer for a precision expressed in bits (`2^bits` levels).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidPrecision`] for zero or more than 16 bits,
    /// plus the interval errors of [`UniformQuantizer::new`].
    pub fn with_bits(low: f64, high: f64, bits: u32) -> Result<Self> {
        if bits == 0 || bits > 16 {
            return Err(QuantError::InvalidPrecision {
                kind: "likelihood",
                bits,
            });
        }
        Self::new(low, high, 1usize << bits)
    }

    /// Lower bound of the quantization interval.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Upper bound of the quantization interval.
    pub fn high(&self) -> f64 {
        self.high
    }

    /// Number of discrete levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Width of one quantization step.
    pub fn step(&self) -> f64 {
        (self.high - self.low) / (self.levels - 1) as f64
    }

    /// Quantizes a value to its nearest level index, clamping values outside
    /// the interval to the boundary levels.
    pub fn quantize(&self, value: f64) -> usize {
        if value.is_nan() {
            return 0;
        }
        let clamped = value.clamp(self.low, self.high);
        let index = ((clamped - self.low) / self.step()).round() as usize;
        index.min(self.levels - 1)
    }

    /// Reconstruction value of a level index.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnknownIndex`] when the level does not exist.
    pub fn dequantize(&self, level: usize) -> Result<f64> {
        if level >= self.levels {
            return Err(QuantError::UnknownIndex {
                kind: "level",
                index: level,
            });
        }
        Ok(self.low + level as f64 * self.step())
    }

    /// Quantization followed by reconstruction.
    pub fn reconstruct(&self, value: f64) -> f64 {
        self.dequantize(self.quantize(value))
            .expect("quantize returns an in-range level")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(UniformQuantizer::new(0.0, 1.0, 4).is_ok());
        assert!(UniformQuantizer::new(1.0, 0.0, 4).is_err());
        assert!(UniformQuantizer::new(0.0, 1.0, 1).is_err());
        assert!(UniformQuantizer::new(f64::NAN, 1.0, 4).is_err());
        assert!(UniformQuantizer::with_bits(0.0, 1.0, 0).is_err());
        assert!(UniformQuantizer::with_bits(0.0, 1.0, 17).is_err());
        assert_eq!(
            UniformQuantizer::with_bits(0.0, 1.0, 3).unwrap().levels(),
            8
        );
    }

    #[test]
    fn paper_example_ten_levels() {
        // Fig. 4(a): P' in [-1.3, 1.0] quantized to 10 levels.
        let q = UniformQuantizer::new(-1.3, 1.0, 10).unwrap();
        assert_eq!(q.quantize(-1.3), 0);
        assert_eq!(q.quantize(1.0), 9);
        assert!((q.step() - 2.3 / 9.0).abs() < 1e-12);
        assert!((q.dequantize(9).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantization_clamps_out_of_range() {
        let q = UniformQuantizer::new(0.0, 1.0, 4).unwrap();
        assert_eq!(q.quantize(-5.0), 0);
        assert_eq!(q.quantize(7.0), 3);
        assert_eq!(q.quantize(f64::NAN), 0);
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let q = UniformQuantizer::new(-2.0, 1.0, 16).unwrap();
        let mut value = -2.0;
        while value <= 1.0 {
            let error = (q.reconstruct(value) - value).abs();
            assert!(error <= q.step() / 2.0 + 1e-12, "error {error} at {value}");
            value += 0.01;
        }
    }

    #[test]
    fn dequantize_validates_level() {
        let q = UniformQuantizer::new(0.0, 1.0, 4).unwrap();
        assert!(q.dequantize(4).is_err());
        assert_eq!(q.dequantize(0).unwrap(), 0.0);
    }

    #[test]
    fn quantization_is_monotone() {
        let q = UniformQuantizer::new(-1.0, 1.0, 8).unwrap();
        let mut previous = 0;
        let mut value = -1.0;
        while value <= 1.0 {
            let level = q.quantize(value);
            assert!(level >= previous);
            previous = level;
            value += 0.005;
        }
    }

    #[test]
    fn accessors() {
        let q = UniformQuantizer::new(-1.5, 0.5, 4).unwrap();
        assert_eq!(q.low(), -1.5);
        assert_eq!(q.high(), 0.5);
        assert_eq!(q.levels(), 4);
    }
}
