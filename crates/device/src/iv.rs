//! I_D–V_G characterization sweeps used to regenerate Fig. 1(c).

use serde::Serialize;

use crate::errors::{DeviceError, Result};
use crate::fefet::FeFet;
use crate::params::FeFetParams;
use crate::programming::LevelProgrammer;

/// One point of an I_D–V_G curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct IvPoint {
    /// Gate voltage in volts.
    pub vg: f64,
    /// Drain-source current in amperes.
    pub ids: f64,
}

/// A complete I_D–V_G curve for one programmed multi-level state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IvCurve {
    /// Zero-based multi-level state index.
    pub level: usize,
    /// Threshold voltage of the programmed state in volts.
    pub vth: f64,
    /// Sweep points in increasing gate voltage order.
    pub points: Vec<IvPoint>,
}

impl IvCurve {
    /// The current read at the activation voltage `V_on`.
    pub fn current_at(&self, vg: f64) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| {
                (a.vg - vg)
                    .abs()
                    .partial_cmp(&(b.vg - vg).abs())
                    .expect("finite sweep voltages")
            })
            .map(|p| p.ids)
    }
}

/// Configuration of an I_D–V_G sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SweepConfig {
    /// Sweep start gate voltage in volts (paper: −0.4 V).
    pub vg_start: f64,
    /// Sweep stop gate voltage in volts (paper: 1.2 V).
    pub vg_stop: f64,
    /// Number of evenly spaced sweep points (≥ 2).
    pub points: usize,
}

impl SweepConfig {
    /// The sweep window used in Fig. 1(c): −0.4 V to 1.2 V.
    pub fn febim_figure1() -> Self {
        Self {
            vg_start: -0.4,
            vg_stop: 1.2,
            points: 161,
        }
    }

    /// Validates the sweep configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] when the window is empty or
    /// fewer than two points are requested.
    pub fn validate(&self) -> Result<()> {
        if self.vg_stop <= self.vg_start {
            return Err(DeviceError::InvalidParameter {
                name: "vg_stop",
                reason: "sweep stop voltage must exceed start voltage".to_string(),
            });
        }
        if self.points < 2 {
            return Err(DeviceError::InvalidParameter {
                name: "points",
                reason: "sweep needs at least two points".to_string(),
            });
        }
        Ok(())
    }

    /// The gate voltages of the sweep, evenly spaced and inclusive of both ends.
    pub fn voltages(&self) -> Vec<f64> {
        let step = (self.vg_stop - self.vg_start) / (self.points - 1) as f64;
        (0..self.points)
            .map(|i| self.vg_start + i as f64 * step)
            .collect()
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self::febim_figure1()
    }
}

/// Sweeps a single device across the configured gate-voltage window.
///
/// # Errors
///
/// Returns [`DeviceError::InvalidParameter`] when the sweep configuration is
/// invalid.
pub fn sweep_device(device: &FeFet, config: &SweepConfig) -> Result<Vec<IvPoint>> {
    config.validate()?;
    Ok(config
        .voltages()
        .into_iter()
        .map(|vg| IvPoint {
            vg,
            ids: device.ids(vg),
        })
        .collect())
}

/// Generates the family of I_D–V_G curves for a multi-level configuration,
/// reproducing the data behind Fig. 1(c).
///
/// `levels` is the number of distinct programmed states (4 in the 2-bit
/// example of the paper).
///
/// # Errors
///
/// Propagates parameter and programming errors from [`LevelProgrammer`] and
/// sweep-configuration errors from [`SweepConfig::validate`].
pub fn multilevel_iv_curves(
    params: &FeFetParams,
    levels: usize,
    config: &SweepConfig,
) -> Result<Vec<IvCurve>> {
    config.validate()?;
    let programmer = LevelProgrammer::new(
        params.clone(),
        levels,
        crate::programming::DEFAULT_MIN_READ_CURRENT,
        crate::programming::DEFAULT_MAX_READ_CURRENT,
    )?;
    let mut curves = Vec::with_capacity(levels);
    for level in 0..levels {
        let mut device = FeFet::new(params.clone());
        programmer.program_ideal(device.state_mut(), level)?;
        let points = sweep_device(&device, config)?;
        curves.push(IvCurve {
            level,
            vth: device.vth(),
            points,
        });
    }
    Ok(curves)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_matches_figure_window() {
        let config = SweepConfig::default();
        assert!((config.vg_start + 0.4).abs() < 1e-12);
        assert!((config.vg_stop - 1.2).abs() < 1e-12);
        let voltages = config.voltages();
        assert_eq!(voltages.len(), config.points);
        assert!((voltages[0] - config.vg_start).abs() < 1e-12);
        assert!((voltages.last().unwrap() - config.vg_stop).abs() < 1e-9);
    }

    #[test]
    fn invalid_sweeps_rejected() {
        let config = SweepConfig {
            points: 1,
            ..SweepConfig::default()
        };
        assert!(config.validate().is_err());
        let defaults = SweepConfig::default();
        let config = SweepConfig {
            vg_stop: defaults.vg_start,
            ..defaults
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn sweep_points_are_monotone_in_current() {
        let device = FeFet::new(FeFetParams::febim_calibrated());
        let points = sweep_device(&device, &SweepConfig::default()).unwrap();
        for pair in points.windows(2) {
            assert!(pair[1].ids >= pair[0].ids);
        }
    }

    #[test]
    fn four_state_family_is_ordered() {
        let params = FeFetParams::febim_calibrated();
        let curves = multilevel_iv_curves(&params, 4, &SweepConfig::default()).unwrap();
        assert_eq!(curves.len(), 4);
        // Higher levels have lower V_TH and therefore higher current at V_on.
        for pair in curves.windows(2) {
            assert!(pair[1].vth < pair[0].vth);
            let on_low = pair[0].current_at(params.v_on).unwrap();
            let on_high = pair[1].current_at(params.v_on).unwrap();
            assert!(on_high > on_low);
        }
    }

    #[test]
    fn on_off_ratio_is_large() {
        // Fig. 1(c) shows an ON/OFF window of several orders of magnitude
        // between V_off and strong activation.
        let params = FeFetParams::febim_calibrated();
        let curves = multilevel_iv_curves(&params, 4, &SweepConfig::default()).unwrap();
        for curve in &curves {
            let on = curve.current_at(params.v_on).unwrap();
            let off = curve.current_at(params.v_off).unwrap();
            assert!(on / off > 1e4, "level {} ratio {}", curve.level, on / off);
        }
    }

    #[test]
    fn current_at_picks_nearest_point() {
        let device = FeFet::new(FeFetParams::febim_calibrated());
        let points = sweep_device(&device, &SweepConfig::default()).unwrap();
        let curve = IvCurve {
            level: 0,
            vth: device.vth(),
            points,
        };
        let exact = device.ids(0.5);
        let sampled = curve.current_at(0.5).unwrap();
        assert!((exact - sampled).abs() / exact.max(1e-30) < 0.2);
    }
}
