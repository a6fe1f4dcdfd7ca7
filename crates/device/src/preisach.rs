//! Preisach-style partial polarization switching model.
//!
//! The ferroelectric layer of a FeFET is modelled as an ensemble of
//! independent switching domains. Applying a positive gate pulse flips a
//! fraction of the domains that are still pointing towards the gate metal;
//! the flipped fraction per pulse grows strongly with pulse amplitude and
//! sub-linearly with pulse width. Accumulating pulses therefore produces the
//! saturating multi-level programming trajectory of Fig. 1(b) / Fig. 4(b) of
//! the FeBiM paper. A sufficiently strong negative pulse erases the device
//! back to the fully unswitched state.

use serde::Serialize;

use crate::params::FeFetParams;

/// One gate voltage pulse applied to the ferroelectric gate stack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Pulse {
    /// Pulse amplitude in volts. Positive values program (lower V_TH),
    /// negative values erase (raise V_TH).
    pub amplitude: f64,
    /// Pulse width in seconds.
    pub width: f64,
}

impl Pulse {
    /// Creates a pulse with the given amplitude (volts) and width (seconds).
    ///
    /// # Examples
    ///
    /// ```
    /// use febim_device::Pulse;
    ///
    /// let p = Pulse::new(4.0, 300e-9);
    /// assert_eq!(p.amplitude, 4.0);
    /// ```
    pub fn new(amplitude: f64, width: f64) -> Self {
        Self { amplitude, width }
    }

    /// The nominal programming pulse for the given parameter set.
    pub fn nominal_write(params: &FeFetParams) -> Self {
        Self::new(params.write_amplitude, params.write_width)
    }

    /// The nominal erase pulse (full negative amplitude) for the parameter set.
    pub fn nominal_erase(params: &FeFetParams) -> Self {
        Self::new(-params.write_amplitude, params.write_width)
    }
}

/// Normalized polarization state of the ferroelectric layer.
///
/// `0.0` corresponds to the fully erased (high-V_TH) state and `1.0` to the
/// fully programmed (low-V_TH) state.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize)]
pub struct Polarization(f64);

impl Polarization {
    /// Fully erased state (all domains pointing towards the gate metal).
    pub const ERASED: Polarization = Polarization(0.0);
    /// Fully programmed state (all domains switched towards the channel).
    pub const SATURATED: Polarization = Polarization(1.0);

    /// Creates a polarization value, clamping into the physical range `[0, 1]`.
    pub fn new(value: f64) -> Self {
        if value.is_nan() {
            Polarization(0.0)
        } else {
            Polarization(value.clamp(0.0, 1.0))
        }
    }

    /// Returns the normalized polarization as a plain `f64` in `[0, 1]`.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Default for Polarization {
    fn default() -> Self {
        Polarization::ERASED
    }
}

impl From<f64> for Polarization {
    fn from(value: f64) -> Self {
        Polarization::new(value)
    }
}

/// Preisach-style accumulation model: the switching physics every FeFET
/// evaluates against its own [`FeFetParams`], borrowed per call so a device
/// never clones its parameters on a pulse.
#[derive(Debug)]
pub struct PreisachModel;

impl PreisachModel {
    /// Per-pulse switching fraction for a pulse of the given amplitude and
    /// width.
    ///
    /// The fraction is referenced to the nominal write pulse and scales
    /// exponentially with amplitude (field-driven nucleation) and as a
    /// power law with width, clamped to `[0, 1]`.
    pub fn switching_fraction(params: &FeFetParams, pulse: Pulse) -> f64 {
        if pulse.amplitude <= 0.0 || pulse.width <= 0.0 {
            return 0.0;
        }
        let voltage_factor =
            ((pulse.amplitude - params.write_amplitude) / params.switch_voltage_slope).exp();
        let width_factor = (pulse.width / params.write_width).powf(params.switch_width_exponent);
        (params.switch_rate * voltage_factor * width_factor).clamp(0.0, 1.0)
    }

    /// Applies a single pulse to a polarization state and returns the new state.
    ///
    /// Positive pulses move the state towards [`Polarization::SATURATED`];
    /// negative pulses with at least half the nominal amplitude move it back
    /// towards [`Polarization::ERASED`] (modelling the full erase used in the
    /// paper before multi-level programming), while weak negative pulses
    /// partially de-program symmetrically to programming.
    pub fn apply_pulse(params: &FeFetParams, state: Polarization, pulse: Pulse) -> Polarization {
        if pulse.amplitude > 0.0 {
            let alpha = Self::switching_fraction(params, pulse);
            Polarization::new(state.value() + alpha * (1.0 - state.value()))
        } else if pulse.amplitude < 0.0 {
            let erase_pulse = Pulse::new(-pulse.amplitude, pulse.width);
            let alpha = Self::switching_fraction(params, erase_pulse);
            // A full-amplitude erase pulse removes essentially all switched
            // polarization in one shot, consistent with the "full erase"
            // operation that precedes multi-level programming.
            if -pulse.amplitude >= params.write_amplitude {
                Polarization::ERASED
            } else {
                Polarization::new(state.value() - alpha * state.value())
            }
        } else {
            state
        }
    }

    /// Applies `count` identical pulses and returns the final state.
    pub fn apply_pulse_train(
        params: &FeFetParams,
        state: Polarization,
        pulse: Pulse,
        count: u32,
    ) -> Polarization {
        let mut s = state;
        for _ in 0..count {
            s = Self::apply_pulse(params, s, pulse);
        }
        s
    }

    /// Closed-form polarization reached after `count` nominal write pulses
    /// starting from the erased state: `1 - (1 - alpha)^count`.
    pub fn polarization_after_nominal_pulses(params: &FeFetParams, count: u32) -> Polarization {
        let alpha = Self::switching_fraction(params, Pulse::nominal_write(params));
        Polarization::new(1.0 - (1.0 - alpha).powi(count as i32))
    }

    /// Number of nominal write pulses (rounded up) required to reach at least
    /// the requested polarization starting from the erased state.
    ///
    /// Returns `None` if the target is unreachable (e.g. exactly 1.0, which is
    /// only approached asymptotically, is capped at a large pulse count).
    pub fn pulses_to_reach(params: &FeFetParams, target: Polarization) -> Option<u32> {
        let alpha = Self::switching_fraction(params, Pulse::nominal_write(params));
        if alpha <= 0.0 {
            return None;
        }
        let t = target.value();
        if t <= 0.0 {
            return Some(0);
        }
        if t >= 1.0 {
            return None;
        }
        let n = (1.0 - t).ln() / (1.0 - alpha).ln();
        Some(n.ceil().max(0.0) as u32)
    }

    /// Number of nominal write pulses (rounded up) required to raise the
    /// polarization from `from` to at least `target` — the minimal top-up
    /// train a recalibration pass applies to a cell that has only partially
    /// decayed, instead of paying the full erase-and-retrain cost.
    ///
    /// Returns `Some(0)` when the state is already at or above the target
    /// and `None` when the target is unreachable (≥ 1.0).
    pub fn pulses_to_reach_from(
        params: &FeFetParams,
        from: Polarization,
        target: Polarization,
    ) -> Option<u32> {
        let alpha = Self::switching_fraction(params, Pulse::nominal_write(params));
        if alpha <= 0.0 {
            return None;
        }
        let s = from.value();
        let t = target.value();
        if t <= s {
            return Some(0);
        }
        if t >= 1.0 {
            return None;
        }
        // Each pulse leaves a (1 - alpha) fraction of the unswitched
        // remainder: (1 - t) = (1 - s)(1 - alpha)^n.
        let n = ((1.0 - t) / (1.0 - s)).ln() / (1.0 - alpha).ln();
        Some(n.ceil().max(0.0) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calibrated() -> FeFetParams {
        FeFetParams::febim_calibrated()
    }

    #[test]
    fn polarization_clamps_to_physical_range() {
        assert_eq!(Polarization::new(-0.5).value(), 0.0);
        assert_eq!(Polarization::new(1.5).value(), 1.0);
        assert_eq!(Polarization::new(f64::NAN).value(), 0.0);
        assert_eq!(Polarization::from(0.25).value(), 0.25);
    }

    #[test]
    fn nominal_pulse_switching_fraction_matches_calibration() {
        let params = calibrated();
        let alpha = PreisachModel::switching_fraction(&params, Pulse::nominal_write(&params));
        assert!((alpha - 0.019).abs() < 1e-12);
    }

    #[test]
    fn zero_or_negative_geometry_pulses_do_not_switch() {
        let params = calibrated();
        assert_eq!(
            PreisachModel::switching_fraction(&params, Pulse::new(4.0, 0.0)),
            0.0
        );
        assert_eq!(
            PreisachModel::switching_fraction(&params, Pulse::new(0.0, 300e-9)),
            0.0
        );
    }

    #[test]
    fn higher_amplitude_switches_more() {
        let params = calibrated();
        let low = PreisachModel::switching_fraction(&params, Pulse::new(3.0, 300e-9));
        let nominal = PreisachModel::switching_fraction(&params, Pulse::new(4.0, 300e-9));
        let high = PreisachModel::switching_fraction(&params, Pulse::new(4.5, 300e-9));
        assert!(low < nominal);
        assert!(nominal < high);
    }

    #[test]
    fn longer_pulse_switches_more() {
        let params = calibrated();
        let short = PreisachModel::switching_fraction(&params, Pulse::new(4.0, 100e-9));
        let long = PreisachModel::switching_fraction(&params, Pulse::new(4.0, 900e-9));
        assert!(short < long);
    }

    #[test]
    fn pulse_train_saturates_towards_one() {
        let params = calibrated();
        let p = PreisachModel::apply_pulse_train(
            &params,
            Polarization::ERASED,
            Pulse::nominal_write(&params),
            500,
        );
        assert!(p.value() > 0.99);
        assert!(p.value() <= 1.0);
    }

    #[test]
    fn closed_form_matches_iterative_train() {
        let params = calibrated();
        for count in [0u32, 1, 5, 40, 70, 120] {
            let iterative = PreisachModel::apply_pulse_train(
                &params,
                Polarization::ERASED,
                Pulse::nominal_write(&params),
                count,
            );
            let closed = PreisachModel::polarization_after_nominal_pulses(&params, count);
            assert!(
                (iterative.value() - closed.value()).abs() < 1e-9,
                "mismatch at {count} pulses"
            );
        }
    }

    #[test]
    fn full_erase_resets_state() {
        let params = calibrated();
        let programmed = PreisachModel::apply_pulse_train(
            &params,
            Polarization::ERASED,
            Pulse::nominal_write(&params),
            60,
        );
        assert!(programmed.value() > 0.5);
        let erased = PreisachModel::apply_pulse(&params, programmed, Pulse::nominal_erase(&params));
        assert_eq!(erased, Polarization::ERASED);
    }

    #[test]
    fn weak_negative_pulse_partially_deprograms() {
        let params = calibrated();
        let programmed = Polarization::new(0.6);
        let after = PreisachModel::apply_pulse(&params, programmed, Pulse::new(-3.0, 300e-9));
        assert!(after.value() < 0.6);
        assert!(after.value() > 0.0);
    }

    #[test]
    fn zero_amplitude_pulse_is_identity() {
        let params = calibrated();
        let state = Polarization::new(0.42);
        assert_eq!(
            PreisachModel::apply_pulse(&params, state, Pulse::new(0.0, 300e-9)),
            state
        );
    }

    #[test]
    fn pulses_to_reach_brackets_the_target() {
        let params = calibrated();
        for target in [0.1, 0.3, 0.529, 0.748, 0.9] {
            let n = PreisachModel::pulses_to_reach(&params, Polarization::new(target))
                .expect("reachable");
            let reached = PreisachModel::polarization_after_nominal_pulses(&params, n).value();
            assert!(
                reached >= target - 1e-9,
                "target {target} not reached at {n}"
            );
            if n > 0 {
                let before =
                    PreisachModel::polarization_after_nominal_pulses(&params, n - 1).value();
                assert!(
                    before < target,
                    "target {target} already reached before {n}"
                );
            }
        }
    }

    #[test]
    fn pulses_to_reach_paper_window_is_roughly_40_to_70() {
        // The paper's Fig. 4(b) shows the 0.1 µA..1.0 µA states being reached
        // with roughly 40 to 70 pulses; the calibration targets p ≈ 0.53 and
        // p ≈ 0.75 for those two extreme states.
        let params = calibrated();
        let low_state = PreisachModel::pulses_to_reach(&params, Polarization::new(0.529)).unwrap();
        let high_state = PreisachModel::pulses_to_reach(&params, Polarization::new(0.748)).unwrap();
        assert!(
            (35..=45).contains(&low_state),
            "low state pulses {low_state}"
        );
        assert!(
            (65..=80).contains(&high_state),
            "high state pulses {high_state}"
        );
    }

    #[test]
    fn top_up_trains_are_minimal_and_bracket_the_target() {
        let params = calibrated();
        for (from, target) in [(0.0, 0.3), (0.2, 0.529), (0.5, 0.748), (0.74, 0.748)] {
            let from = Polarization::new(from);
            let target = Polarization::new(target);
            let n = PreisachModel::pulses_to_reach_from(&params, from, target).expect("reachable");
            let reached =
                PreisachModel::apply_pulse_train(&params, from, Pulse::nominal_write(&params), n)
                    .value();
            assert!(
                reached >= target.value() - 1e-9,
                "target not reached at {n}"
            );
            if n > 0 {
                let before = PreisachModel::apply_pulse_train(
                    &params,
                    from,
                    Pulse::nominal_write(&params),
                    n - 1,
                )
                .value();
                assert!(before < target.value(), "train of {n} not minimal");
            }
        }
        // Topping up from erased matches the from-scratch count.
        let target = Polarization::new(0.6);
        assert_eq!(
            PreisachModel::pulses_to_reach_from(&params, Polarization::ERASED, target),
            PreisachModel::pulses_to_reach(&params, target)
        );
        // A decayed-but-close state needs far fewer pulses than a retrain.
        let close = PreisachModel::pulses_to_reach_from(
            &params,
            Polarization::new(0.72),
            Polarization::new(0.748),
        )
        .unwrap();
        let scratch = PreisachModel::pulses_to_reach(&params, Polarization::new(0.748)).unwrap();
        assert!(close < scratch / 4, "top-up {close} vs retrain {scratch}");
    }

    #[test]
    fn top_up_handles_degenerate_inputs() {
        let params = calibrated();
        assert_eq!(
            PreisachModel::pulses_to_reach_from(
                &params,
                Polarization::new(0.8),
                Polarization::new(0.5)
            ),
            Some(0)
        );
        assert_eq!(
            PreisachModel::pulses_to_reach_from(
                &params,
                Polarization::new(0.3),
                Polarization::SATURATED
            ),
            None
        );
    }

    #[test]
    fn unreachable_targets_reported() {
        let params = calibrated();
        assert_eq!(
            PreisachModel::pulses_to_reach(&params, Polarization::SATURATED),
            None
        );
        assert_eq!(
            PreisachModel::pulses_to_reach(&params, Polarization::ERASED),
            Some(0)
        );
    }
}
