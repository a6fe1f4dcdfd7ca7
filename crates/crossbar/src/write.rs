//! Write scheme with half-bias disturb modelling.
//!
//! Programming a FeBiM cell grounds the target wordline/sourceline and
//! applies the 4 V pulse train to the target bitline. Unselected rows see a
//! `V_w/2` bias (the half-bias inhibit scheme of Ni et al., EDL 2018), which
//! still causes a tiny amount of unwanted partial polarization switching.
//! This module models that disturbance so robustness studies can quantify it.

use serde::Serialize;

use febim_device::{FeFetParams, Polarization, PreisachModel, Pulse};

use crate::cell::Cell;

/// Configuration of the half-bias write scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WriteScheme {
    /// Full write amplitude `V_w` in volts.
    pub write_voltage: f64,
    /// Write pulse width in seconds.
    pub pulse_width: f64,
    /// Whether unselected cells accumulate half-bias disturbance.
    pub model_disturb: bool,
}

impl WriteScheme {
    /// The paper's write scheme: 4 V / 300 ns pulses with `V_w/2` inhibit.
    pub fn febim_default() -> Self {
        Self {
            write_voltage: 4.0,
            pulse_width: 300e-9,
            model_disturb: true,
        }
    }

    /// The half-bias voltage applied to unselected rows.
    pub fn half_bias(&self) -> f64 {
        self.write_voltage / 2.0
    }

    /// The disturb pulse experienced by unselected cells in the programmed
    /// column.
    pub fn disturb_pulse(&self) -> Pulse {
        Pulse::new(self.half_bias(), self.pulse_width)
    }

    /// Applies `pulses` half-bias disturb pulses to a cell of a grid whose
    /// devices follow `params` (bookkeeping plus the corresponding tiny
    /// polarization drift).
    pub fn apply_disturb(&self, params: &FeFetParams, cell: &mut Cell, pulses: u64) {
        if !self.model_disturb || pulses == 0 {
            return;
        }
        cell.add_disturb_pulses(pulses);
        // The per-pulse disturbance is tiny; apply the closed-form compound
        // update instead of iterating potentially millions of pulses.
        let alpha = PreisachModel::switching_fraction(params, self.disturb_pulse());
        if alpha > 0.0 {
            let polarization = cell.device().polarization();
            let remaining = (1.0 - polarization.value()) * (1.0 - alpha).powf(pulses as f64);
            cell.device_mut()
                .set_polarization(Polarization::new(1.0 - remaining));
        }
    }
}

impl Default for WriteScheme {
    fn default() -> Self {
        Self::febim_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_bias_is_half_the_write_voltage() {
        let scheme = WriteScheme::febim_default();
        assert!((scheme.half_bias() - 2.0).abs() < 1e-12);
        assert!((scheme.disturb_pulse().amplitude - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disturb_is_much_weaker_than_programming() {
        let scheme = WriteScheme::febim_default();
        let params = FeFetParams::febim_calibrated();
        let program_alpha = PreisachModel::switching_fraction(
            &params,
            Pulse::new(scheme.write_voltage, scheme.pulse_width),
        );
        let disturb_alpha = PreisachModel::switching_fraction(&params, scheme.disturb_pulse());
        assert!(disturb_alpha < program_alpha / 100.0);
    }

    #[test]
    fn disturb_accumulates_polarization_slowly() {
        let scheme = WriteScheme::febim_default();
        let params = FeFetParams::febim_calibrated();
        let mut cell = Cell::default();
        cell.device_mut().set_polarization(Polarization::new(0.5));
        let before = cell.device().polarization().value();
        scheme.apply_disturb(&params, &mut cell, 100);
        let after = cell.device().polarization().value();
        assert!(after >= before);
        assert!(after - before < 0.05, "disturb drift {}", after - before);
        assert_eq!(cell.disturb_pulses(), 100);
    }

    #[test]
    fn disturb_can_be_disabled() {
        let mut scheme = WriteScheme::febim_default();
        scheme.model_disturb = false;
        let params = FeFetParams::febim_calibrated();
        let mut cell = Cell::default();
        cell.device_mut().set_polarization(Polarization::new(0.5));
        scheme.apply_disturb(&params, &mut cell, 1_000_000);
        assert_eq!(cell.disturb_pulses(), 0);
        assert!((cell.device().polarization().value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_pulses_is_a_no_op() {
        let scheme = WriteScheme::febim_default();
        let params = FeFetParams::febim_calibrated();
        let mut cell = Cell::default();
        scheme.apply_disturb(&params, &mut cell, 0);
        assert_eq!(cell.disturb_pulses(), 0);
    }

    #[test]
    fn heavy_disturb_eventually_matters() {
        // Sanity check that the model is not a no-op: an absurd number of
        // disturb pulses visibly moves the state.
        let scheme = WriteScheme::febim_default();
        let params = FeFetParams::febim_calibrated();
        let mut cell = Cell::default();
        cell.device_mut().set_polarization(Polarization::new(0.2));
        scheme.apply_disturb(&params, &mut cell, 10_000_000);
        assert!(cell.device().polarization().value() > 0.25);
    }
}
