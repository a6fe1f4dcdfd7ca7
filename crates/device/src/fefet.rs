//! The multi-level FeFET device: polarization state, threshold voltage and
//! drain-source current model.
//!
//! The channel current uses a smooth EKV-like interpolation between the
//! subthreshold exponential and the square-law saturation region, which keeps
//! the model monotone and differentiable across the whole gate-voltage sweep
//! used to reproduce Fig. 1(c).
//!
//! A device's parameters are the same for every device of an array, while
//! its state is its own. [`FeFetState`] is the state alone, evaluated
//! against a borrowed [`FeFetParams`], so an array stores one parameter set
//! for all its cells. [`FeFet`] is one standalone device: a parameter set
//! and a state.

use crate::params::FeFetParams;
use crate::preisach::{Polarization, PreisachModel, Pulse};

/// The state of one FeFET: its polarization and an additive
/// threshold-voltage offset that models device-to-device variation (see
/// [`crate::variation::VariationModel`]). The default is a freshly erased
/// device with no offset.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FeFetState {
    polarization: Polarization,
    vth_offset: f64,
}

impl FeFetState {
    /// A device with an explicit polarization state and no offset.
    pub fn with_polarization(polarization: Polarization) -> Self {
        Self {
            polarization,
            vth_offset: 0.0,
        }
    }

    /// Current normalized polarization state.
    pub fn polarization(&self) -> Polarization {
        self.polarization
    }

    /// Overwrites the polarization state directly (used by fast programming
    /// paths that precompute the target state).
    pub fn set_polarization(&mut self, polarization: Polarization) {
        self.polarization = polarization;
    }

    /// Additive threshold-voltage offset in volts (variation model).
    pub fn vth_offset(&self) -> f64 {
        self.vth_offset
    }

    /// Sets the additive threshold-voltage offset in volts.
    pub fn set_vth_offset(&mut self, offset_volts: f64) {
        self.vth_offset = offset_volts;
    }

    /// Effective threshold voltage for the current polarization state, in
    /// volts, including the variation offset.
    ///
    /// The threshold moves linearly from `vth_high` (erased) to `vth_low`
    /// (fully programmed) as polarization accumulates.
    pub fn vth(&self, params: &FeFetParams) -> f64 {
        params.vth_high - self.polarization.value() * params.vth_window() + self.vth_offset
    }

    /// Drain-source current for a gate voltage `vg`, in amperes.
    ///
    /// Uses a smooth interpolation `I = k (n V_T ln(1 + e^{(vg - vth)/(n V_T)}))²`
    /// which reduces to the square law `k (vg - vth)²` far above threshold and
    /// to an exponential subthreshold current below threshold.
    pub fn ids(&self, params: &FeFetParams, vg: f64) -> f64 {
        self.ids_with_vth_shift(params, vg, 0.0)
    }

    /// Drain-source current with an additional threshold-voltage shift, in
    /// amperes.
    ///
    /// The shift is added on top of the polarization-derived threshold and
    /// the static variation offset; time-varying non-ideality models
    /// (retention drift, read disturb) evaluate the device through this
    /// entry point. A zero shift is bit-identical to [`FeFetState::ids`].
    pub fn ids_with_vth_shift(&self, params: &FeFetParams, vg: f64, vth_shift: f64) -> f64 {
        let slope = params.thermal_slope();
        let overdrive = (vg - (self.vth(params) + vth_shift)) / slope;
        // Numerically stable softplus.
        let softplus = if overdrive > 30.0 {
            overdrive
        } else {
            overdrive.exp().ln_1p()
        };
        let v_eff = slope * softplus;
        params.k_sat * v_eff * v_eff
    }

    /// Read current with the activation voltage `V_on` applied to the gate.
    pub fn read_current_on(&self, params: &FeFetParams) -> f64 {
        self.ids(params, params.v_on)
    }

    /// Leakage current with the inhibit voltage `V_off` applied to the gate.
    pub fn read_current_off(&self, params: &FeFetParams) -> f64 {
        self.ids(params, params.v_off)
    }

    /// Applies a train of identical gate pulses through the Preisach
    /// switching model.
    pub fn apply_pulse_train(&mut self, params: &FeFetParams, pulse: Pulse, count: u32) {
        self.polarization =
            PreisachModel::apply_pulse_train(params, self.polarization, pulse, count);
    }

    /// Fully erases the device (one nominal negative pulse).
    pub fn erase(&mut self, params: &FeFetParams) {
        self.polarization =
            PreisachModel::apply_pulse(params, self.polarization, Pulse::nominal_erase(params));
    }
}

/// One standalone FeFET storage device: its parameters and its
/// [`FeFetState`]. Every method evaluates the state against the device's
/// own parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FeFet {
    params: FeFetParams,
    state: FeFetState,
}

impl FeFet {
    /// Creates a freshly erased device with the given parameters.
    ///
    /// # Examples
    ///
    /// ```
    /// use febim_device::{FeFet, FeFetParams};
    ///
    /// let device = FeFet::new(FeFetParams::febim_calibrated());
    /// assert!(device.vth() > 1.0); // erased devices sit at the high-V_TH state
    /// ```
    pub fn new(params: FeFetParams) -> Self {
        Self {
            params,
            state: FeFetState::default(),
        }
    }

    /// Creates a device with an explicit polarization state.
    pub fn with_polarization(params: FeFetParams, polarization: Polarization) -> Self {
        Self {
            params,
            state: FeFetState::with_polarization(polarization),
        }
    }

    /// Borrow the device parameters.
    pub fn params(&self) -> &FeFetParams {
        &self.params
    }

    /// Borrow the device state.
    pub fn state(&self) -> &FeFetState {
        &self.state
    }

    /// Mutably borrow the device state, e.g. to program it with a
    /// [`crate::LevelProgrammer`] built from the same parameters.
    pub fn state_mut(&mut self) -> &mut FeFetState {
        &mut self.state
    }

    /// Current normalized polarization state.
    pub fn polarization(&self) -> Polarization {
        self.state.polarization()
    }

    /// Overwrites the polarization state directly.
    pub fn set_polarization(&mut self, polarization: Polarization) {
        self.state.set_polarization(polarization);
    }

    /// Additive threshold-voltage offset in volts (variation model).
    pub fn vth_offset(&self) -> f64 {
        self.state.vth_offset()
    }

    /// Sets the additive threshold-voltage offset in volts.
    pub fn set_vth_offset(&mut self, offset_volts: f64) {
        self.state.set_vth_offset(offset_volts);
    }

    /// Effective threshold voltage in volts (see [`FeFetState::vth`]).
    pub fn vth(&self) -> f64 {
        self.state.vth(&self.params)
    }

    /// Drain-source current for a gate voltage `vg`, in amperes (see
    /// [`FeFetState::ids`]).
    pub fn ids(&self, vg: f64) -> f64 {
        self.state.ids(&self.params, vg)
    }

    /// Read current with the activation voltage `V_on` applied to the gate.
    pub fn read_current_on(&self) -> f64 {
        self.state.read_current_on(&self.params)
    }

    /// Leakage current with the inhibit voltage `V_off` applied to the gate.
    pub fn read_current_off(&self) -> f64 {
        self.state.read_current_off(&self.params)
    }

    /// Applies a train of identical gate pulses.
    pub fn apply_pulse_train(&mut self, pulse: Pulse, count: u32) {
        self.state.apply_pulse_train(&self.params, pulse, count);
    }

    /// Fully erases the device (nominal negative pulse).
    pub fn erase(&mut self) {
        self.state.erase(&self.params);
    }

    /// The threshold voltage (volts) that yields the requested read current at
    /// `V_on`, ignoring the variation offset.
    ///
    /// This inverts the saturation square law, which is accurate in the
    /// 0.1 µA – 1.0 µA read window used by the paper's mapping scheme.
    pub fn vth_for_read_current(params: &FeFetParams, target_amps: f64) -> f64 {
        let v_eff = (target_amps / params.k_sat).sqrt();
        // Invert the softplus: vg - vth = slope * ln(e^{v_eff/slope} - 1).
        let slope = params.thermal_slope();
        let x = v_eff / slope;
        let inv_softplus = if x > 30.0 { x } else { (x.exp() - 1.0).ln() };
        params.v_on - slope * inv_softplus
    }

    /// The polarization value that produces the requested threshold voltage.
    pub fn polarization_for_vth(params: &FeFetParams, vth: f64) -> Polarization {
        Polarization::new((params.vth_high - vth) / params.vth_window())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> FeFet {
        FeFet::new(FeFetParams::febim_calibrated())
    }

    #[test]
    fn erased_device_sits_at_high_vth() {
        let d = device();
        assert!((d.vth() - d.params().vth_high).abs() < 1e-12);
    }

    #[test]
    fn fully_programmed_device_sits_at_low_vth() {
        let params = FeFetParams::febim_calibrated();
        let d = FeFet::with_polarization(params.clone(), Polarization::SATURATED);
        assert!((d.vth() - params.vth_low).abs() < 1e-12);
    }

    #[test]
    fn vth_decreases_monotonically_with_polarization() {
        let params = FeFetParams::febim_calibrated();
        let mut previous = f64::INFINITY;
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let d = FeFet::with_polarization(params.clone(), Polarization::new(p));
            assert!(d.vth() < previous);
            previous = d.vth();
        }
    }

    #[test]
    fn ids_increases_with_gate_voltage() {
        let d = device();
        let mut previous = -1.0;
        let mut vg = -0.4;
        while vg <= 1.2 {
            let i = d.ids(vg);
            assert!(i > previous, "non-monotone at vg={vg}");
            previous = i;
            vg += 0.05;
        }
    }

    #[test]
    fn erased_device_is_cut_off_at_v_on() {
        let d = device();
        // The erased (high-V_TH) state must read far below the 0.1 µA level.
        assert!(d.read_current_on() < 1e-9);
    }

    #[test]
    fn inhibited_devices_are_cut_off_even_when_programmed() {
        let params = FeFetParams::febim_calibrated();
        let d = FeFet::with_polarization(params, Polarization::new(0.75));
        assert!(d.read_current_off() < 1e-9);
    }

    #[test]
    fn read_window_spans_point_one_to_one_microamp() {
        // The paper's mapping uses read currents between 0.1 µA and 1.0 µA.
        // Verify those currents correspond to reachable polarization states.
        let params = FeFetParams::febim_calibrated();
        for target in [0.1e-6, 0.5e-6, 1.0e-6] {
            let vth = FeFet::vth_for_read_current(&params, target);
            let pol = FeFet::polarization_for_vth(&params, vth);
            assert!(
                pol.value() > 0.0 && pol.value() < 1.0,
                "target {target} unreachable"
            );
            let d = FeFet::with_polarization(params.clone(), pol);
            let relative_error = (d.read_current_on() - target).abs() / target;
            assert!(
                relative_error < 0.02,
                "round trip error {relative_error} for target {target}"
            );
        }
    }

    #[test]
    fn vth_offset_shifts_read_current() {
        let params = FeFetParams::febim_calibrated();
        let vth = FeFet::vth_for_read_current(&params, 0.5e-6);
        let pol = FeFet::polarization_for_vth(&params, vth);
        let mut d = FeFet::with_polarization(params, pol);
        let nominal = d.read_current_on();
        d.set_vth_offset(0.045);
        assert!(d.read_current_on() < nominal);
        d.set_vth_offset(-0.045);
        assert!(d.read_current_on() > nominal);
        assert!((d.vth_offset() + 0.045).abs() < 1e-12);
    }

    #[test]
    fn pulse_train_lowers_vth_and_raises_current() {
        let mut d = device();
        let initial_vth = d.vth();
        let initial_current = d.read_current_on();
        d.apply_pulse_train(Pulse::nominal_write(d.params()), 60);
        assert!(d.vth() < initial_vth);
        assert!(d.read_current_on() > initial_current);
    }

    #[test]
    fn erase_restores_initial_state() {
        let mut d = device();
        d.apply_pulse_train(Pulse::nominal_write(d.params()), 50);
        d.erase();
        assert_eq!(d.polarization(), Polarization::ERASED);
    }

    #[test]
    fn zero_shift_is_bit_identical() {
        let params = FeFetParams::febim_calibrated();
        let d = FeFetState::with_polarization(Polarization::new(0.6));
        for vg in [-0.5, 0.0, 0.5, 1.2] {
            assert_eq!(d.ids(&params, vg), d.ids_with_vth_shift(&params, vg, 0.0));
        }
        let on = d.read_current_on(&params);
        // A positive shift lowers the read current like raising V_TH does.
        assert!(d.ids_with_vth_shift(&params, params.v_on, 0.05) < on);
        assert!(d.ids_with_vth_shift(&params, params.v_on, -0.05) > on);
    }

    #[test]
    fn a_device_evaluates_its_state_against_its_params() {
        let params = FeFetParams::febim_calibrated();
        let mut d = FeFet::with_polarization(params.clone(), Polarization::new(0.4));
        d.set_vth_offset(0.01);
        let state = *d.state();
        assert_eq!(d.vth(), state.vth(&params));
        assert_eq!(d.read_current_on(), state.read_current_on(&params));
        assert_eq!(d.read_current_off(), state.read_current_off(&params));
        d.state_mut().erase(&params);
        assert_eq!(d.polarization(), Polarization::ERASED);
    }

    #[test]
    fn set_polarization_round_trips() {
        let mut d = device();
        d.set_polarization(Polarization::new(0.33));
        assert!((d.polarization().value() - 0.33).abs() < 1e-12);
    }
}
