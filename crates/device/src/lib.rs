//! # febim-device
//!
//! Behavioural compact model of a multi-level-cell (MLC) ferroelectric
//! field-effect transistor (FeFET), the storage and compute device underlying
//! the FeBiM in-memory Bayesian inference engine (Li et al., DAC 2024).
//!
//! The crate provides:
//!
//! * a Preisach-style partial polarization switching model
//!   ([`PreisachModel`]) that turns gate pulse trains into accumulated
//!   polarization, reproducing the saturating multi-level programming
//!   trajectory of the paper's Fig. 1(b) and Fig. 4(b);
//! * the FeFET device itself ([`FeFet`]) with a smooth, monotone
//!   I_D-V_G model used to regenerate the multi-level transfer curves of
//!   Fig. 1(c), and its state alone ([`FeFetState`]), which an array of
//!   devices evaluates against one shared parameter set;
//! * the level programmer ([`LevelProgrammer`]) that maps discrete states to
//!   target read currents (0.1 uA - 1.0 uA at `V_on = 0.5 V`) and the write
//!   pulse counts needed to reach them;
//! * a Gaussian threshold-voltage variation model ([`VariationModel`]) for
//!   Monte-Carlo robustness studies (Fig. 8(c)).
//!
//! # Example
//!
//! ```
//! use febim_device::{FeFet, FeFetParams, LevelProgrammer};
//!
//! # fn main() -> Result<(), febim_device::DeviceError> {
//! // Ten-level programming across the paper's 0.1 uA - 1.0 uA read window.
//! let programmer = LevelProgrammer::febim_default(10)?;
//! let mut device = FeFet::new(FeFetParams::febim_calibrated());
//! let state = programmer.program_with_pulses(device.state_mut(), 7)?;
//! assert!(state.write_config.pulse_count > 0);
//! assert!(device.read_current_on() > 1e-7);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod errors;
pub mod fefet;
pub mod iv;
pub mod nonideality;
pub mod params;
pub mod preisach;
pub mod programming;
pub mod variation;

pub use errors::{DeviceError, Result};
pub use fefet::{FeFet, FeFetState};
pub use iv::{multilevel_iv_curves, IvCurve, IvPoint, SweepConfig};
pub use nonideality::{
    CellContext, NonIdeality, NonIdealityStack, ReadDisturb, RetentionDrift, WireResistance,
};
pub use params::FeFetParams;
pub use preisach::{Polarization, PreisachModel, Pulse};
pub use programming::{LevelProgrammer, ProgrammedState, WriteConfig};
pub use variation::{standard_normal, VariationModel, VthDistribution};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    proptest! {
        /// Polarization never leaves the physical range whatever pulse is applied.
        #[test]
        fn polarization_stays_physical(
            start in 0.0f64..=1.0,
            amplitude in -6.0f64..6.0,
            width in 1e-9f64..1e-6,
            count in 0u32..200,
        ) {
            let params = FeFetParams::febim_calibrated();
            let state = PreisachModel::apply_pulse_train(
                &params,
                Polarization::new(start),
                Pulse::new(amplitude, width),
                count,
            );
            prop_assert!(state.value() >= 0.0);
            prop_assert!(state.value() <= 1.0);
        }

        /// Positive pulse trains are monotone: more pulses never reduce polarization.
        #[test]
        fn positive_trains_are_monotone(count in 0u32..150) {
            let params = FeFetParams::febim_calibrated();
            let pulse = Pulse::nominal_write(&params);
            let shorter = PreisachModel::apply_pulse_train(&params, Polarization::ERASED, pulse, count);
            let longer =
                PreisachModel::apply_pulse_train(&params, Polarization::ERASED, pulse, count + 1);
            prop_assert!(longer.value() >= shorter.value());
        }

        /// The I_D-V_G characteristic is monotone non-decreasing in V_G for any state.
        #[test]
        fn ids_monotone_in_gate_voltage(
            polarization in 0.0f64..=1.0,
            vg_low in -0.5f64..1.0,
            delta in 0.0f64..0.5,
        ) {
            let device = FeFet::with_polarization(
                FeFetParams::febim_calibrated(),
                Polarization::new(polarization),
            );
            let low = device.ids(vg_low);
            let high = device.ids(vg_low + delta);
            prop_assert!(high >= low);
        }

        /// Read current is monotone in the programmed level.
        #[test]
        fn read_current_monotone_in_level(level in 0usize..9) {
            let programmer = LevelProgrammer::febim_default(10).unwrap();
            let mut low = FeFet::new(programmer.params().clone());
            let mut high = FeFet::new(programmer.params().clone());
            programmer.program_ideal(low.state_mut(), level).unwrap();
            programmer.program_ideal(high.state_mut(), level + 1).unwrap();
            prop_assert!(high.read_current_on() > low.read_current_on());
        }

        /// Variation sampling stays within a few sigma almost always and is symmetric on average.
        #[test]
        fn variation_samples_are_bounded(seed in 0u64..1000) {
            let model = VariationModel::from_millivolts(45.0);
            let mut rng = VariationModel::seeded_rng(seed);
            let sample = model.sample_offset(&mut rng);
            // 8 sigma bound: astronomically unlikely to fail for a correct
            // Gaussian sampler.
            prop_assert!(sample.abs() < 8.0 * model.sigma_vth);
        }

        /// Zero-sigma variation of either family is byte-identical to having
        /// no variation model at all: every offset is exactly 0.0 and the RNG
        /// stream is left untouched.
        #[test]
        fn ideal_variation_is_byte_identical(
            seed in 0u64..1000,
            shape in 1e-6f64..2.0,
            draws in 1usize..32,
        ) {
            for model in [VariationModel::ideal(), VariationModel::lognormal(0.0, shape)] {
                let mut sampled = VariationModel::seeded_rng(seed);
                let mut untouched = VariationModel::seeded_rng(seed);
                for _ in 0..draws {
                    let offset = model.sample_offset(&mut sampled);
                    prop_assert_eq!(offset.to_bits(), 0.0f64.to_bits());
                }
                prop_assert_eq!(sampled.gen::<u64>(), untouched.gen::<u64>());
            }
        }

        /// The ideal non-ideality stack is inert for any cell context: zero
        /// threshold shift and a unit current factor, bitwise.
        #[test]
        fn ideal_stack_is_inert(
            row in 0usize..64,
            column in 0usize..64,
            age in 0u64..1_000_000,
            reads in 0u64..1_000_000,
            current in 1e-9f64..1e-5,
        ) {
            let stack = NonIdealityStack::ideal();
            let ctx = CellContext {
                row,
                column,
                rows: 64,
                columns: 64,
                age_ticks: age,
                disturb_pulses: reads / 7,
                row_reads: reads,
            };
            prop_assert_eq!(stack.vth_shift(&ctx).to_bits(), 0.0f64.to_bits());
            prop_assert_eq!(stack.current_factor(&ctx, current, 0.1).to_bits(), 1.0f64.to_bits());
        }
    }
}
