//! Behavioural current mirror used to feed the wordline currents into the
//! winner-take-all sensing stage.

use serde::Serialize;

use crate::errors::{CircuitError, Result};

/// A current mirror with a nominal gain and an optional systematic gain error.
///
/// The FeBiM sensing module copies (and in our calibration attenuates) every
/// wordline current `I_WL` into a WTA input current `I_CM`. Attenuation keeps
/// the sensing power low when many bitlines are activated simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CurrentMirror {
    /// Nominal current gain `I_out / I_in` (dimensionless, > 0).
    pub gain: f64,
    /// Relative systematic gain error (e.g. `0.01` for +1 %).
    pub gain_error: f64,
    /// Voltage headroom across the mirror output branch, in volts.
    pub headroom: f64,
}

impl CurrentMirror {
    /// Creates a mirror with the given gain, no gain error and 1 V headroom.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] if the gain is not positive
    /// and finite.
    pub fn new(gain: f64) -> Result<Self> {
        if !(gain > 0.0 && gain.is_finite()) {
            return Err(CircuitError::InvalidParameter {
                name: "gain",
                reason: format!("gain must be positive and finite, got {gain}"),
            });
        }
        Ok(Self {
            gain,
            gain_error: 0.0,
            headroom: 1.0,
        })
    }

    /// The attenuating 0.1× mirror used in the FeBiM sensing-module calibration.
    pub fn febim_sensing() -> Self {
        Self {
            gain: 0.1,
            gain_error: 0.0,
            headroom: 1.0,
        }
    }

    /// Returns a copy with the given relative systematic gain error.
    pub fn with_gain_error(mut self, gain_error: f64) -> Self {
        self.gain_error = gain_error;
        self
    }

    /// Returns a copy with the given output-branch voltage headroom (volts).
    pub fn with_headroom(mut self, headroom: f64) -> Self {
        self.headroom = headroom;
        self
    }

    /// Mirrors one input current (amperes) to the output branch.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidCurrent`] for negative or non-finite
    /// input currents.
    pub fn copy(&self, input: f64) -> Result<f64> {
        if !(input >= 0.0 && input.is_finite()) {
            return Err(CircuitError::InvalidCurrent {
                index: 0,
                value: input,
            });
        }
        Ok(input * self.gain * (1.0 + self.gain_error))
    }

    /// Mirrors a whole vector of wordline currents.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidCurrent`] identifying the first
    /// offending entry.
    pub fn copy_all(&self, inputs: &[f64]) -> Result<Vec<f64>> {
        let mut outputs = Vec::with_capacity(inputs.len());
        self.copy_all_into(inputs, &mut outputs)?;
        Ok(outputs)
    }

    /// Mirrors a whole vector of wordline currents into `out` (cleared
    /// first), reusing the caller's allocation. On error the contents of
    /// `out` are unspecified.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidCurrent`] identifying the first
    /// offending entry.
    pub fn copy_all_into(&self, inputs: &[f64], out: &mut Vec<f64>) -> Result<()> {
        out.clear();
        out.reserve(inputs.len());
        for (index, &input) in inputs.iter().enumerate() {
            let mirrored = self.copy(input).map_err(|_| CircuitError::InvalidCurrent {
                index,
                value: input,
            })?;
            out.push(mirrored);
        }
        Ok(())
    }

    /// Static power dissipated by the mirror output branch while conducting
    /// `input` amperes at the input, in watts.
    ///
    /// Only the output branch is charged to the mirror headroom; the
    /// diode-connected input branch is accounted for in the array conduction
    /// energy of the wordline it loads.
    pub fn power(&self, input: f64) -> f64 {
        input.max(0.0) * self.gain * (1.0 + self.gain_error) * self.headroom
    }

    /// Energy dissipated over `duration` seconds while conducting `input`
    /// amperes, in joules.
    pub fn energy(&self, input: f64, duration: f64) -> f64 {
        self.power(input) * duration.max(0.0)
    }
}

impl Default for CurrentMirror {
    fn default() -> Self {
        Self::febim_sensing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unity_mirror_copies_exactly() {
        let mirror = CurrentMirror::new(1.0).unwrap();
        assert!((mirror.copy(2.5e-6).unwrap() - 2.5e-6).abs() < 1e-18);
    }

    #[test]
    fn default_mirror_attenuates_by_ten() {
        let mirror = CurrentMirror::default();
        assert!((mirror.copy(1.0e-6).unwrap() - 0.1e-6).abs() < 1e-15);
    }

    #[test]
    fn invalid_gain_rejected() {
        assert!(CurrentMirror::new(0.0).is_err());
        assert!(CurrentMirror::new(-1.0).is_err());
        assert!(CurrentMirror::new(f64::NAN).is_err());
    }

    #[test]
    fn gain_error_applies() {
        let mirror = CurrentMirror::new(1.0).unwrap().with_gain_error(0.05);
        assert!((mirror.copy(1.0e-6).unwrap() - 1.05e-6).abs() < 1e-15);
    }

    #[test]
    fn negative_current_rejected() {
        let mirror = CurrentMirror::default();
        assert!(matches!(
            mirror.copy(-1.0e-6),
            Err(CircuitError::InvalidCurrent { .. })
        ));
    }

    #[test]
    fn copy_all_reports_offending_index() {
        let mirror = CurrentMirror::default();
        let err = mirror.copy_all(&[1e-6, 2e-6, f64::NAN]).unwrap_err();
        assert!(matches!(err, CircuitError::InvalidCurrent { index: 2, .. }));
    }

    #[test]
    fn copy_all_preserves_order() {
        let mirror = CurrentMirror::new(2.0).unwrap();
        let out = mirror.copy_all(&[1e-6, 3e-6]).unwrap();
        assert!((out[0] - 2e-6).abs() < 1e-15);
        assert!((out[1] - 6e-6).abs() < 1e-15);
    }

    #[test]
    fn power_and_energy_scale_with_current_and_time() {
        let mirror = CurrentMirror::new(1.0).unwrap().with_headroom(0.5);
        let p = mirror.power(2.0e-6);
        assert!((p - 2.0e-6 * 0.5).abs() < 1e-15);
        let e = mirror.energy(2.0e-6, 1e-9);
        assert!((e - p * 1e-9).abs() < 1e-24);
        assert_eq!(mirror.energy(2.0e-6, -1.0), 0.0);
    }
}
