//! Device parameter set for the behavioural multi-level FeFET model.
//!
//! The defaults are calibrated so that the read window reproduces the
//! characteristics reported in the FeBiM paper: ten distinguishable states
//! whose read currents at `V_on = 0.5 V` span 0.1 µA to 1.0 µA, reached with
//! roughly 40–70 write pulses of 4 V / 300 ns (Fig. 4), and a clean cut-off at
//! `V_off = -0.5 V`.

use serde::{Deserialize, Serialize};

use crate::errors::{DeviceError, Result};

/// Boltzmann thermal voltage at 300 K in volts.
pub const THERMAL_VOLTAGE: f64 = 0.02585;

/// Full set of parameters describing one FeFET device instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeFetParams {
    /// Threshold voltage of the fully erased (high-V_TH) state, in volts.
    pub vth_high: f64,
    /// Threshold voltage of the fully programmed (low-V_TH) state, in volts.
    pub vth_low: f64,
    /// Transconductance-like factor of the saturation current law, in A/V².
    pub k_sat: f64,
    /// Subthreshold ideality factor (dimensionless, ≥ 1).
    pub ideality: f64,
    /// Gate read voltage that activates the device, in volts (paper: 0.5 V).
    pub v_on: f64,
    /// Gate inhibit voltage that cuts the device off, in volts (paper: -0.5 V).
    pub v_off: f64,
    /// Nominal write pulse amplitude, in volts (paper: 4 V).
    pub write_amplitude: f64,
    /// Nominal write pulse width, in seconds (paper: 300 ns).
    pub write_width: f64,
    /// Fraction of the remaining unswitched polarization flipped by one
    /// nominal write pulse (Preisach-style accumulation rate).
    pub switch_rate: f64,
    /// Exponential voltage sensitivity of the switching rate, in volts.
    ///
    /// The per-pulse switching fraction scales as
    /// `switch_rate * exp((amplitude - write_amplitude) / switch_voltage_slope)`.
    pub switch_voltage_slope: f64,
    /// Power-law exponent of the pulse-width dependence of the switching rate.
    pub switch_width_exponent: f64,
    /// Ferroelectric switching energy per nominal pulse, in joules
    /// (order of fJ per bit as reported for FeFET write operations).
    pub write_energy_per_pulse: f64,
    /// Drain bias applied during read accumulation, in volts.
    pub v_drain_read: f64,
}

impl FeFetParams {
    /// Parameter set calibrated to the FeBiM paper's operating point.
    ///
    /// # Examples
    ///
    /// ```
    /// use febim_device::FeFetParams;
    ///
    /// let params = FeFetParams::febim_calibrated();
    /// assert!(params.vth_high > params.vth_low);
    /// ```
    pub fn febim_calibrated() -> Self {
        Self {
            vth_high: 1.1,
            vth_low: -0.3,
            k_sat: 5.0e-6,
            ideality: 1.5,
            v_on: 0.5,
            v_off: -0.5,
            write_amplitude: 4.0,
            write_width: 300e-9,
            switch_rate: 0.019,
            switch_voltage_slope: 0.25,
            switch_width_exponent: 0.5,
            write_energy_per_pulse: 1.0e-15,
            v_drain_read: 0.1,
        }
    }

    /// Validates the physical consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if any value is not finite
    /// or is outside its physically meaningful range (for example
    /// `vth_high <= vth_low`, a non-positive transconductance, or a
    /// switching rate outside `(0, 1)`).
    pub fn validate(&self) -> Result<()> {
        let fields = [
            ("vth_high", self.vth_high),
            ("vth_low", self.vth_low),
            ("k_sat", self.k_sat),
            ("ideality", self.ideality),
            ("v_on", self.v_on),
            ("v_off", self.v_off),
            ("write_amplitude", self.write_amplitude),
            ("write_width", self.write_width),
            ("switch_rate", self.switch_rate),
            ("switch_voltage_slope", self.switch_voltage_slope),
            ("switch_width_exponent", self.switch_width_exponent),
            ("write_energy_per_pulse", self.write_energy_per_pulse),
            ("v_drain_read", self.v_drain_read),
        ];
        if let Some((name, value)) = fields.into_iter().find(|(_, value)| !value.is_finite()) {
            return Err(DeviceError::InvalidParameter {
                name,
                reason: format!("{value} is not finite"),
            });
        }
        if self.vth_high <= self.vth_low {
            return Err(DeviceError::InvalidParameter {
                name: "vth_high",
                reason: format!(
                    "must exceed vth_low ({} <= {})",
                    self.vth_high, self.vth_low
                ),
            });
        }
        if self.k_sat <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "k_sat",
                reason: "saturation transconductance must be positive".to_string(),
            });
        }
        if self.ideality < 1.0 {
            return Err(DeviceError::InvalidParameter {
                name: "ideality",
                reason: "subthreshold ideality factor must be >= 1".to_string(),
            });
        }
        if self.v_on <= self.v_off {
            return Err(DeviceError::InvalidParameter {
                name: "v_on",
                reason: "activation voltage must exceed inhibit voltage".to_string(),
            });
        }
        if !(0.0 < self.switch_rate && self.switch_rate < 1.0) {
            return Err(DeviceError::InvalidParameter {
                name: "switch_rate",
                reason: "per-pulse switching fraction must be in (0, 1)".to_string(),
            });
        }
        if self.switch_voltage_slope <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "switch_voltage_slope",
                reason: "voltage slope must be positive".to_string(),
            });
        }
        if self.write_width <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "write_width",
                reason: "pulse width must be positive".to_string(),
            });
        }
        if self.write_amplitude <= 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "write_amplitude",
                reason: "write amplitude must be positive".to_string(),
            });
        }
        if self.write_energy_per_pulse < 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "write_energy_per_pulse",
                reason: "energy per pulse cannot be negative".to_string(),
            });
        }
        if self.v_drain_read <= 0.0 {
            // Wire-resistance IR-drop models divide by the read drain bias.
            return Err(DeviceError::InvalidParameter {
                name: "v_drain_read",
                reason: "read drain bias must be positive".to_string(),
            });
        }
        Ok(())
    }

    /// The thermal slope `n * V_T` of the subthreshold region, in volts.
    pub fn thermal_slope(&self) -> f64 {
        self.ideality * THERMAL_VOLTAGE
    }

    /// Total programmable threshold window `vth_high - vth_low`, in volts.
    pub fn vth_window(&self) -> f64 {
        self.vth_high - self.vth_low
    }
}

impl Default for FeFetParams {
    fn default() -> Self {
        Self::febim_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_validate() {
        FeFetParams::default().validate().expect("defaults valid");
    }

    #[test]
    fn swapped_thresholds_rejected() {
        let p = FeFetParams {
            vth_high: -1.0,
            vth_low: 1.0,
            ..FeFetParams::default()
        };
        assert!(matches!(
            p.validate(),
            Err(DeviceError::InvalidParameter {
                name: "vth_high",
                ..
            })
        ));
    }

    #[test]
    fn non_positive_k_rejected() {
        let p = FeFetParams {
            k_sat: 0.0,
            ..FeFetParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn switch_rate_out_of_range_rejected() {
        let mut p = FeFetParams {
            switch_rate: 1.5,
            ..FeFetParams::default()
        };
        assert!(p.validate().is_err());
        p.switch_rate = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn v_on_below_v_off_rejected() {
        let p = FeFetParams {
            v_on: -1.0,
            ..FeFetParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn ideality_below_one_rejected() {
        let p = FeFetParams {
            ideality: 0.5,
            ..FeFetParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn non_positive_drain_bias_rejected() {
        let p = FeFetParams {
            v_drain_read: 0.0,
            ..FeFetParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn every_non_finite_field_rejected() {
        type Field = fn(&mut FeFetParams) -> &mut f64;
        let fields: [(&str, Field); 13] = [
            ("vth_high", |p| &mut p.vth_high),
            ("vth_low", |p| &mut p.vth_low),
            ("k_sat", |p| &mut p.k_sat),
            ("ideality", |p| &mut p.ideality),
            ("v_on", |p| &mut p.v_on),
            ("v_off", |p| &mut p.v_off),
            ("write_amplitude", |p| &mut p.write_amplitude),
            ("write_width", |p| &mut p.write_width),
            ("switch_rate", |p| &mut p.switch_rate),
            ("switch_voltage_slope", |p| &mut p.switch_voltage_slope),
            ("switch_width_exponent", |p| &mut p.switch_width_exponent),
            ("write_energy_per_pulse", |p| &mut p.write_energy_per_pulse),
            ("v_drain_read", |p| &mut p.v_drain_read),
        ];
        for (field, value_of) in fields {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut p = FeFetParams::default();
                *value_of(&mut p) = bad;
                match p.validate() {
                    Err(DeviceError::InvalidParameter { name, .. }) => assert_eq!(name, field),
                    other => panic!("{field} = {bad} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn thermal_slope_positive() {
        let p = FeFetParams::default();
        assert!(p.thermal_slope() > 0.0);
        assert!(p.thermal_slope() < 0.1);
    }

    #[test]
    fn vth_window_matches_difference() {
        let p = FeFetParams::default();
        assert!((p.vth_window() - (p.vth_high - p.vth_low)).abs() < 1e-12);
    }

    #[test]
    fn clone_preserves_equality() {
        let p = FeFetParams::default();
        assert_eq!(p.clone(), p);
    }
}
