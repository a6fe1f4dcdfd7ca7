//! Current-mode winner-take-all (WTA) sensing circuit.
//!
//! FeBiM detects the wordline with the maximum accumulated current — i.e. the
//! event with the maximum posterior — with a compact, scalable current-mode
//! WTA (the paper adopts the design of Liu et al., ICCAD 2022). We model the
//! competition behaviourally: the output branch of the cell with the largest
//! input current charges towards the bias current while all other branches
//! collapse to (near) zero, with a settling time set by the load capacitance,
//! the output swing and the gap between the two largest input currents.

use serde::Serialize;

use crate::errors::{CircuitError, Result};
use crate::transient::{first_order_settling, TransientConfig, Waveform};

/// Parameters of the behavioural WTA model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WtaParams {
    /// Output bias current delivered by the winning branch, in amperes
    /// (Fig. 5(c) shows winner output currents of a few µA).
    pub bias_current: f64,
    /// Fixed part of the competition node capacitance, in farads.
    pub base_capacitance: f64,
    /// Additional competition node capacitance per connected row, in farads.
    pub capacitance_per_row: f64,
    /// Output voltage swing that must be charged before the decision is
    /// resolved, in volts.
    pub output_swing: f64,
    /// Supply voltage of the WTA cells, in volts.
    pub supply: f64,
    /// Fraction of the full output swing at which the decision is considered
    /// resolved (e.g. 0.9 for 90 %).
    pub decision_threshold: f64,
}

impl WtaParams {
    /// Parameter set calibrated so that a two-row WTA with a worst-case
    /// 0.1 µA input gap resolves in roughly 200–300 ps (Fig. 5(c)) and the
    /// sensing delay grows to roughly 1 ns at 32 rows (Fig. 6(c)).
    pub fn febim_calibrated() -> Self {
        Self {
            bias_current: 2.0e-6,
            base_capacitance: 0.63e-18,
            capacitance_per_row: 0.486e-18,
            output_swing: 0.5,
            supply: 1.0,
            decision_threshold: 0.9,
        }
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] if any field is outside its
    /// meaningful range.
    pub fn validate(&self) -> Result<()> {
        let positive: [(&'static str, f64); 5] = [
            ("bias_current", self.bias_current),
            ("base_capacitance", self.base_capacitance),
            ("capacitance_per_row", self.capacitance_per_row),
            ("output_swing", self.output_swing),
            ("supply", self.supply),
        ];
        for (name, value) in positive {
            if !(value > 0.0 && value.is_finite()) {
                return Err(CircuitError::InvalidParameter {
                    name,
                    reason: format!("must be positive and finite, got {value}"),
                });
            }
        }
        if !(0.0 < self.decision_threshold && self.decision_threshold < 1.0) {
            return Err(CircuitError::InvalidParameter {
                name: "decision_threshold",
                reason: "must lie strictly between 0 and 1".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for WtaParams {
    fn default() -> Self {
        Self::febim_calibrated()
    }
}

/// Result of one WTA competition.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WtaDecision {
    /// Index of the winning input (the wordline with the maximum current).
    pub winner: usize,
    /// Gap between the winner and the runner-up input currents, in amperes.
    pub margin: f64,
    /// Time for the winner output to cross the decision threshold, in seconds.
    pub settling_time: f64,
    /// Energy dissipated by the WTA cells during the competition, in joules.
    pub energy: f64,
}

/// Transient waveforms of one WTA competition (Fig. 5(c)).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WtaTransient {
    /// The decision summary.
    pub decision: WtaDecision,
    /// Output-current waveform of each branch, indexed like the inputs.
    pub outputs: Vec<Waveform>,
}

/// Behavioural winner-take-all circuit.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct WtaCircuit {
    params: WtaParams,
}

impl WtaCircuit {
    /// Creates a WTA circuit after validating the parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`WtaParams::validate`] failures.
    pub fn new(params: WtaParams) -> Result<Self> {
        params.validate()?;
        Ok(Self { params })
    }

    /// WTA circuit with the FeBiM calibration.
    pub fn febim_calibrated() -> Self {
        Self {
            params: WtaParams::febim_calibrated(),
        }
    }

    /// Borrow the model parameters.
    pub fn params(&self) -> &WtaParams {
        &self.params
    }

    /// Validates the inputs and finds the winner and its margin in one
    /// pass, tracking the first maximum, a tie flag and the runner-up.
    ///
    /// The first invalid input is reported before any tie. Only a tie
    /// scans again, to list the tied indices (the winner first, then the
    /// others ascending). The margin is `best - runner_up`, or `best` for a
    /// single input.
    fn winner_and_margin(inputs: &[f64]) -> Result<(usize, f64)> {
        if inputs.is_empty() {
            return Err(CircuitError::EmptyInput);
        }
        let (mut winner, mut best, mut runner_up) = (0, f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut tied = false;
        for (index, &value) in inputs.iter().enumerate() {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(CircuitError::InvalidCurrent { index, value });
            }
            if value > best {
                (winner, best, runner_up, tied) = (index, value, best, false);
            } else if value == best {
                tied = true;
            } else if value > runner_up {
                runner_up = value;
            }
        }
        if tied {
            let mut indices = vec![winner];
            indices.extend(
                (0..inputs.len()).filter(|&index| index != winner && inputs[index] == best),
            );
            return Err(CircuitError::AmbiguousWinner { indices });
        }
        let margin = if inputs.len() == 1 {
            best
        } else {
            best - runner_up
        };
        Ok((winner, margin))
    }

    /// Capacitance loading the competition node for `rows` connected branches,
    /// in farads.
    pub fn load_capacitance(&self, rows: usize) -> f64 {
        self.params.base_capacitance + self.params.capacitance_per_row * rows as f64
    }

    /// Settling time (seconds) for a competition between `rows` branches whose
    /// two largest input currents differ by `margin` amperes.
    ///
    /// The winning branch must slew the competition node by the output swing
    /// using only the current margin, so the delay scales as `C · ΔV / ΔI`.
    pub fn settling_time(&self, rows: usize, margin: f64) -> f64 {
        let margin = margin.max(1e-12);
        self.load_capacitance(rows) * self.params.output_swing / margin
    }

    /// Resolves a competition and returns the decision summary.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyInput`] for an empty input vector,
    /// [`CircuitError::InvalidCurrent`] for negative or non-finite inputs and
    /// [`CircuitError::AmbiguousWinner`] when the maximum is not unique.
    pub fn resolve(&self, inputs: &[f64]) -> Result<WtaDecision> {
        let (winner, margin) = Self::winner_and_margin(inputs)?;
        let settling_time = self.settling_time(inputs.len(), margin);
        let energy = self.energy(inputs, settling_time);
        Ok(WtaDecision {
            winner,
            margin,
            settling_time,
            energy,
        })
    }

    /// Energy dissipated by the WTA cells while resolving for `duration`
    /// seconds, in joules.
    ///
    /// Every competing cell burns its bias branch from the supply for the
    /// whole resolution window; the input currents themselves are charged to
    /// the current mirrors feeding the WTA, not double counted here.
    pub fn energy(&self, inputs: &[f64], duration: f64) -> f64 {
        inputs.len() as f64 * self.params.bias_current * self.params.supply * duration.max(0.0)
    }

    /// Simulates the output-current transients of one competition
    /// (the data behind Fig. 5(c)).
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`WtaCircuit::resolve`], plus configuration
    /// errors from the transient solver.
    pub fn transient(&self, inputs: &[f64], config: &TransientConfig) -> Result<WtaTransient> {
        let decision = self.resolve(inputs)?;
        let tau = self.settling_time(inputs.len(), decision.margin)
            / (-(1.0 - self.params.decision_threshold).ln());
        let mut outputs = Vec::with_capacity(inputs.len());
        for index in 0..inputs.len() {
            let target = if index == decision.winner {
                self.params.bias_current
            } else {
                0.0
            };
            // Every branch starts from an equal share of the bias current and
            // either wins it all or collapses to zero.
            let initial = self.params.bias_current / inputs.len() as f64;
            outputs.push(first_order_settling(initial, target, tau, config)?);
        }
        Ok(WtaTransient { decision, outputs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn wta() -> WtaCircuit {
        WtaCircuit::febim_calibrated()
    }

    #[test]
    fn default_params_validate() {
        WtaParams::default().validate().unwrap();
    }

    #[test]
    fn invalid_params_rejected() {
        let p = WtaParams {
            bias_current: -1.0,
            ..WtaParams::default()
        };
        assert!(WtaCircuit::new(p).is_err());
        let p = WtaParams {
            decision_threshold: 1.5,
            ..WtaParams::default()
        };
        assert!(WtaCircuit::new(p).is_err());
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(matches!(wta().resolve(&[]), Err(CircuitError::EmptyInput)));
    }

    #[test]
    fn negative_input_rejected() {
        assert!(matches!(
            wta().resolve(&[1e-6, -1e-6]),
            Err(CircuitError::InvalidCurrent { index: 1, .. })
        ));
    }

    #[test]
    fn exact_tie_is_ambiguous() {
        let err = wta().resolve(&[1e-6, 1e-6, 0.5e-6]).unwrap_err();
        assert!(matches!(err, CircuitError::AmbiguousWinner { .. }));
    }

    #[test]
    fn picks_the_largest_current() {
        let decision = wta().resolve(&[0.4e-6, 1.2e-6, 0.9e-6]).unwrap();
        assert_eq!(decision.winner, 1);
        assert!((decision.margin - 0.3e-6).abs() < 1e-12);
    }

    #[test]
    fn single_input_wins_trivially() {
        let decision = wta().resolve(&[0.7e-6]).unwrap();
        assert_eq!(decision.winner, 0);
    }

    #[test]
    fn smaller_margin_takes_longer() {
        let circuit = wta();
        let tight = circuit.resolve(&[1.0e-6, 0.95e-6]).unwrap();
        let loose = circuit.resolve(&[1.0e-6, 0.2e-6]).unwrap();
        assert!(tight.settling_time > loose.settling_time);
    }

    #[test]
    fn two_row_worst_case_resolves_within_300ps() {
        // Fig. 5(c): winner and loser are clearly distinguishable in < 300 ps
        // for wordline currents between 0.2 µA and 2.0 µA. The worst case in
        // that experiment is a 0.1x-mirrored gap of one quantization level.
        let circuit = wta();
        let decision = circuit.resolve(&[0.2e-6 * 0.1, 0.3e-6 * 0.1]).unwrap();
        assert!(
            decision.settling_time < 300e-12,
            "settling {}",
            decision.settling_time
        );
    }

    #[test]
    fn settling_time_grows_with_rows() {
        let circuit = wta();
        let few = circuit.settling_time(2, 0.1e-6);
        let many = circuit.settling_time(32, 0.1e-6);
        assert!(many > few);
    }

    #[test]
    fn energy_scales_with_duration_and_cell_count() {
        let circuit = wta();
        let short = circuit.energy(&[1e-6, 2e-6], 100e-12);
        let long = circuit.energy(&[1e-6, 2e-6], 200e-12);
        assert!((long - 2.0 * short).abs() < 1e-20);
        let more_cells = circuit.energy(&[1e-6, 2e-6, 3e-6, 4e-6], 100e-12);
        assert!((more_cells - 2.0 * short).abs() < 1e-20);
        assert_eq!(circuit.energy(&[1e-6], -1.0), 0.0);
    }

    #[test]
    fn transient_winner_rises_and_loser_falls() {
        let circuit = wta();
        let result = circuit
            .transient(&[1.5e-6, 0.5e-6], &TransientConfig::febim_wta())
            .unwrap();
        assert_eq!(result.decision.winner, 0);
        let winner_final = result.outputs[0].final_value().unwrap();
        let loser_final = result.outputs[1].final_value().unwrap();
        assert!(winner_final > 0.8 * circuit.params().bias_current);
        assert!(loser_final < 0.2 * circuit.params().bias_current);
    }

    #[test]
    fn transient_decision_matches_resolve() {
        let circuit = wta();
        let inputs = [0.9e-6, 1.1e-6, 0.3e-6];
        let resolve = circuit.resolve(&inputs).unwrap();
        let transient = circuit
            .transient(&inputs, &TransientConfig::febim_wta())
            .unwrap();
        assert_eq!(resolve.winner, transient.decision.winner);
        assert_eq!(transient.outputs.len(), inputs.len());
    }
    /// The three-pass resolver the one-pass `winner_and_margin` replaced:
    /// validate every input, take the first maximum, then collect ties and
    /// the runner-up.
    fn three_pass(inputs: &[f64]) -> Result<(usize, f64)> {
        if inputs.is_empty() {
            return Err(CircuitError::EmptyInput);
        }
        for (index, &value) in inputs.iter().enumerate() {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(CircuitError::InvalidCurrent { index, value });
            }
        }
        let mut winner = 0usize;
        for (index, &value) in inputs.iter().enumerate() {
            if value > inputs[winner] {
                winner = index;
            }
        }
        let ties: Vec<usize> = inputs
            .iter()
            .enumerate()
            .filter(|(index, &value)| *index != winner && value == inputs[winner])
            .map(|(index, _)| index)
            .collect();
        if !ties.is_empty() {
            let mut indices = vec![winner];
            indices.extend(ties);
            return Err(CircuitError::AmbiguousWinner { indices });
        }
        let margin = if inputs.len() == 1 {
            inputs[winner]
        } else {
            let runner_up = inputs
                .iter()
                .enumerate()
                .filter(|(index, _)| *index != winner)
                .map(|(_, &value)| value)
                .fold(f64::NEG_INFINITY, f64::max);
            inputs[winner] - runner_up
        };
        Ok((winner, margin))
    }

    /// One drawn input: mostly values from a small pool (so ties, ties a
    /// later larger value breaks, and `0.0` against `-0.0` are common),
    /// otherwise a fresh value, and now and then an invalid one (negative,
    /// NaN or ±inf).
    fn drawn_input((kind, pick, fresh): (u32, usize, f64)) -> f64 {
        const POOL: [f64; 5] = [0.0, -0.0, 0.5e-6, 1.0e-6, 1.5e-6];
        const INVALID: [f64; 4] = [-1.0e-6, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        match kind {
            0..=59 => POOL[pick % POOL.len()],
            60..=97 => fresh,
            _ => INVALID[pick % INVALID.len()],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The one-pass resolver returns exactly what the three-pass one
        /// did: the same error (first invalid index, then the tied indices
        /// in the same order) or the same winner and a bit-identical margin.
        #[test]
        fn one_pass_matches_three_pass(
            drawn in proptest::collection::vec((0u32..100, 0usize..20, 0.0f64..2.0e-6), 0..12),
        ) {
            let inputs: Vec<f64> = drawn.into_iter().map(drawn_input).collect();
            let circuit = wta();
            let expected = three_pass(&inputs).map(|(winner, margin)| {
                let settling_time = circuit.settling_time(inputs.len(), margin);
                let energy = circuit.energy(&inputs, settling_time);
                WtaDecision { winner, margin, settling_time, energy }
            });
            let resolved = circuit.resolve(&inputs);
            // Debug prints every float exactly (shortest round trip, signed
            // zeros); the margin is compared by its bits as well.
            prop_assert_eq!(format!("{resolved:?}"), format!("{expected:?}"));
            if let (Ok(resolved), Ok(expected)) = (&resolved, &expected) {
                prop_assert_eq!(resolved.margin.to_bits(), expected.margin.to_bits());
            }
        }
    }
}
