//! Inference-delay model of the FeBiM crossbar plus sensing module.
//!
//! The paper measures the inference delay as the time between activating the
//! bitlines and the winner output of the WTA circuit becoming identifiable,
//! in the worst case (minimum gap between adjacent wordline currents). The
//! delay therefore has two contributions: the array settling time, which
//! grows with the number of bitlines loading each wordline, and the WTA
//! resolution time, which grows with the number of competing rows and shrinks
//! with the current gap (Fig. 6(a)/(c)).

use serde::Serialize;

use crate::errors::{CircuitError, Result};
use crate::wta::WtaCircuit;

/// Parameters of the array-settling part of the delay model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DelayParams {
    /// Fixed array settling time (drivers, clocking), in seconds.
    pub array_base: f64,
    /// Additional wordline settling time per attached bitline, in seconds.
    pub per_column: f64,
    /// Worst-case gap between adjacent wordline currents, in amperes,
    /// referenced to the wordline (pre-mirror) domain.
    pub worst_case_gap: f64,
}

impl DelayParams {
    /// Calibration reproducing the delay ranges of Fig. 6: roughly 200 ps for
    /// a 2×2 array, 800 ps for 2 rows × 256 columns and 1 ns for 32 rows ×
    /// 32 columns.
    pub fn febim_calibrated() -> Self {
        Self {
            array_base: 120e-12,
            per_column: 2.36e-12,
            worst_case_gap: 0.1e-6,
        }
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] for non-positive entries.
    pub fn validate(&self) -> Result<()> {
        let positive: [(&'static str, f64); 3] = [
            ("array_base", self.array_base),
            ("per_column", self.per_column),
            ("worst_case_gap", self.worst_case_gap),
        ];
        for (name, value) in positive {
            if !(value > 0.0 && value.is_finite()) {
                return Err(CircuitError::InvalidParameter {
                    name,
                    reason: format!("must be positive and finite, got {value}"),
                });
            }
        }
        Ok(())
    }
}

impl Default for DelayParams {
    fn default() -> Self {
        Self::febim_calibrated()
    }
}

/// Breakdown of one inference delay estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DelayBreakdown {
    /// Array (wordline/bitline) settling time, in seconds.
    pub array: f64,
    /// Sensing (current mirror + WTA) resolution time, in seconds.
    pub sensing: f64,
}

impl DelayBreakdown {
    /// Total inference delay in seconds.
    pub fn total(&self) -> f64 {
        self.array + self.sensing
    }
}

/// Inference-delay model combining array settling and WTA resolution.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct DelayModel {
    params: DelayParams,
}

impl DelayModel {
    /// Creates a delay model after validating the parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`DelayParams::validate`] failures.
    pub fn new(params: DelayParams) -> Result<Self> {
        params.validate()?;
        Ok(Self { params })
    }

    /// Delay model with the FeBiM calibration.
    pub fn febim_calibrated() -> Self {
        Self {
            params: DelayParams::febim_calibrated(),
        }
    }

    /// Borrow the model parameters.
    pub fn params(&self) -> &DelayParams {
        &self.params
    }

    /// Worst-case inference delay for an array with `rows` wordlines and
    /// `columns` bitlines, using `wta` for the sensing stage and
    /// `mirror_gain` as the wordline-to-WTA current attenuation.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] when `rows` or `columns`
    /// is zero or the mirror gain is not positive.
    pub fn worst_case(
        &self,
        rows: usize,
        columns: usize,
        wta: &WtaCircuit,
        mirror_gain: f64,
    ) -> Result<DelayBreakdown> {
        if rows == 0 {
            return Err(CircuitError::InvalidParameter {
                name: "rows",
                reason: "array must have at least one row".to_string(),
            });
        }
        if columns == 0 {
            return Err(CircuitError::InvalidParameter {
                name: "columns",
                reason: "array must have at least one column".to_string(),
            });
        }
        if !(mirror_gain > 0.0 && mirror_gain.is_finite()) {
            return Err(CircuitError::InvalidParameter {
                name: "mirror_gain",
                reason: format!("must be positive and finite, got {mirror_gain}"),
            });
        }
        let array = self.params.array_base + self.params.per_column * columns as f64;
        let sensing = wta.settling_time(rows, self.params.worst_case_gap * mirror_gain);
        Ok(DelayBreakdown { array, sensing })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mirror::CurrentMirror;

    fn model() -> DelayModel {
        DelayModel::febim_calibrated()
    }

    fn gain() -> f64 {
        CurrentMirror::febim_sensing().gain
    }

    #[test]
    fn default_params_validate() {
        DelayParams::default().validate().unwrap();
    }

    #[test]
    fn invalid_params_rejected() {
        let p = DelayParams {
            per_column: 0.0,
            ..DelayParams::default()
        };
        assert!(DelayModel::new(p).is_err());
    }

    #[test]
    fn zero_sized_arrays_rejected() {
        let wta = WtaCircuit::febim_calibrated();
        assert!(model().worst_case(0, 4, &wta, gain()).is_err());
        assert!(model().worst_case(4, 0, &wta, gain()).is_err());
        assert!(model().worst_case(4, 4, &wta, 0.0).is_err());
    }

    #[test]
    fn small_array_lands_near_200ps() {
        let wta = WtaCircuit::febim_calibrated();
        let delay = model().worst_case(2, 2, &wta, gain()).unwrap().total();
        assert!(delay > 150e-12 && delay < 300e-12, "delay {delay}");
    }

    #[test]
    fn wide_array_lands_near_800ps() {
        let wta = WtaCircuit::febim_calibrated();
        let delay = model().worst_case(2, 256, &wta, gain()).unwrap().total();
        assert!(delay > 600e-12 && delay < 1000e-12, "delay {delay}");
    }

    #[test]
    fn tall_array_lands_near_1ns() {
        let wta = WtaCircuit::febim_calibrated();
        let delay = model().worst_case(32, 32, &wta, gain()).unwrap().total();
        assert!(delay > 800e-12 && delay < 1300e-12, "delay {delay}");
    }

    #[test]
    fn delay_monotone_in_columns() {
        let wta = WtaCircuit::febim_calibrated();
        let mut previous = 0.0;
        for columns in [2usize, 4, 8, 16, 32, 64, 128, 256] {
            let delay = model()
                .worst_case(2, columns, &wta, gain())
                .unwrap()
                .total();
            assert!(delay > previous);
            previous = delay;
        }
    }

    #[test]
    fn delay_monotone_in_rows() {
        let wta = WtaCircuit::febim_calibrated();
        let mut previous = 0.0;
        for rows in [2usize, 4, 8, 16, 32] {
            let delay = model().worst_case(rows, 32, &wta, gain()).unwrap().total();
            assert!(delay > previous);
            previous = delay;
        }
    }

    #[test]
    fn breakdown_total_is_sum() {
        let wta = WtaCircuit::febim_calibrated();
        let breakdown = model().worst_case(4, 16, &wta, gain()).unwrap();
        assert!((breakdown.total() - (breakdown.array + breakdown.sensing)).abs() < 1e-18);
    }
}
