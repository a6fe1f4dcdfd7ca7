//! # febim-circuit
//!
//! Behavioural analog circuit substrate for the FeBiM reproduction. It plays
//! the role that SPECTRE plus the 45 nm PTM MOSFET models play in the paper:
//! turning wordline currents produced by the FeFET crossbar into a
//! winner-take-all (WTA) decision, and estimating the delay and energy of
//! that sensing operation.
//!
//! Components:
//!
//! * [`CurrentMirror`] — per-row current mirrors feeding the WTA;
//! * [`WtaCircuit`] — current-mode winner-take-all with settling dynamics
//!   (Fig. 5(c));
//! * [`DelayModel`] / [`EnergyModel`] — calibrated inference delay and energy
//!   estimates as a function of array geometry (Fig. 6);
//! * [`SensingChain`] — the composed sensing module, whose
//!   [`SensingChain::price`] is the one cost model of a read on any
//!   [`ReadGeometry`] (monolithic array or tiled fabric, one-hot or
//!   bit-plane);
//! * [`transient`] — a small fixed-step transient solver used for the WTA
//!   waveforms.
//!
//! # Example
//!
//! ```
//! use febim_circuit::SensingChain;
//!
//! # fn main() -> Result<(), febim_circuit::CircuitError> {
//! let chain = SensingChain::febim_calibrated();
//! // Three wordlines carrying accumulated posterior currents.
//! let outcome = chain.sense(&[0.9e-6, 1.4e-6, 0.6e-6], 5)?;
//! assert_eq!(outcome.winner, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod delay;
pub mod energy;
pub mod errors;
pub mod fabric;
pub mod mirror;
pub mod sense;
pub mod shift_add;
pub mod transient;
pub mod wta;

pub use batch::ReadGroup;
pub use delay::{DelayBreakdown, DelayModel, DelayParams};
pub use energy::{EnergyModel, EnergyParams, InferenceEnergy};
pub use errors::{CircuitError, Result};
pub use fabric::TileGeometry;
pub use mirror::CurrentMirror;
pub use sense::{ReadGeometry, SenseOutcome, SenseReadout, SensingChain};
pub use shift_add::merge_plane_sums_into;
pub use transient::{first_order_settling, integrate, TransientConfig, Waveform, WaveformPoint};
pub use wta::{WtaCircuit, WtaDecision, WtaParams, WtaTransient};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn current_vector() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(1e-8f64..5e-6, 2..16)
    }

    proptest! {
        /// The WTA always picks the index of the maximum input current
        /// whenever that maximum is unique.
        #[test]
        fn wta_picks_argmax(currents in current_vector()) {
            let wta = WtaCircuit::febim_calibrated();
            let expected = currents
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            match wta.resolve(&currents) {
                Ok(decision) => prop_assert_eq!(decision.winner, expected),
                Err(CircuitError::AmbiguousWinner { .. }) => {
                    // Exact float ties are legitimately ambiguous.
                }
                Err(other) => return Err(TestCaseError::fail(format!("unexpected error {other}"))),
            }
        }

        /// Mirroring preserves the ordering of currents.
        #[test]
        fn mirror_preserves_order(currents in current_vector()) {
            let mirror = CurrentMirror::febim_sensing();
            let mirrored = mirror.copy_all(&currents).unwrap();
            for i in 0..currents.len() {
                for j in 0..currents.len() {
                    if currents[i] < currents[j] {
                        prop_assert!(mirrored[i] < mirrored[j]);
                    }
                }
            }
        }

        /// Delay and energy are finite and positive for any sane geometry.
        #[test]
        fn delay_and_energy_are_finite(rows in 1usize..64, cols in 1usize..512) {
            let chain = SensingChain::febim_calibrated();
            let currents: Vec<f64> = (0..rows).map(|r| 0.1e-6 * (r + 1) as f64).collect();
            let outcome = chain.sense(&currents, cols).unwrap();
            prop_assert!(outcome.delay.total().is_finite() && outcome.delay.total() > 0.0);
            prop_assert!(outcome.energy.total().is_finite() && outcome.energy.total() > 0.0);
        }

        /// WTA settling time decreases (weakly) as the margin grows.
        #[test]
        fn settling_monotone_in_margin(margin_a in 1e-9f64..1e-6, margin_b in 1e-9f64..1e-6) {
            let wta = WtaCircuit::febim_calibrated();
            let (small, large) = if margin_a < margin_b {
                (margin_a, margin_b)
            } else {
                (margin_b, margin_a)
            };
            prop_assert!(wta.settling_time(4, large) <= wta.settling_time(4, small));
        }
    }
}
