//! The complete sensing module: per-row current mirrors feeding the
//! winner-take-all circuit (the right-hand side of Fig. 3 in the paper).

use serde::{Deserialize, Serialize};

use crate::delay::{DelayBreakdown, DelayModel};
use crate::energy::{EnergyModel, InferenceEnergy};
use crate::errors::Result;
use crate::mirror::CurrentMirror;
use crate::transient::TransientConfig;
use crate::wta::{WtaCircuit, WtaDecision, WtaTransient};

/// Outcome of pushing one set of wordline currents through the sensing module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SenseOutcome {
    /// Index of the wordline identified as carrying the maximum current.
    pub winner: usize,
    /// The mirrored currents that entered the WTA, in amperes.
    pub mirrored_currents: Vec<f64>,
    /// The WTA decision details.
    pub decision: WtaDecision,
    /// Worst-case delay estimate for this array geometry.
    pub delay: DelayBreakdown,
    /// Energy estimate for this inference.
    pub energy: InferenceEnergy,
}

/// Outcome of one sensing operation when the mirrored currents stay in a
/// caller-owned scratch buffer (the allocation-free variant of
/// [`SenseOutcome`], returned by [`SensingChain::sense_into`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SenseReadout {
    /// Index of the wordline identified as carrying the maximum current.
    pub winner: usize,
    /// The WTA decision details.
    pub decision: WtaDecision,
    /// Worst-case delay estimate for this array geometry.
    pub delay: DelayBreakdown,
    /// Energy estimate for this inference.
    pub energy: InferenceEnergy,
}

/// The sensing chain: current mirrors, WTA, plus the delay and energy models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensingChain {
    mirror: CurrentMirror,
    wta: WtaCircuit,
    delay_model: DelayModel,
    energy_model: EnergyModel,
}

impl SensingChain {
    /// Builds a sensing chain from its components.
    pub fn new(
        mirror: CurrentMirror,
        wta: WtaCircuit,
        delay_model: DelayModel,
        energy_model: EnergyModel,
    ) -> Self {
        Self {
            mirror,
            wta,
            delay_model,
            energy_model,
        }
    }

    /// Sensing chain with the FeBiM calibration of every component.
    pub fn febim_calibrated() -> Self {
        Self {
            mirror: CurrentMirror::febim_sensing(),
            wta: WtaCircuit::febim_calibrated(),
            delay_model: DelayModel::febim_calibrated(),
            energy_model: EnergyModel::febim_calibrated(),
        }
    }

    /// Borrow the current-mirror model.
    pub fn mirror(&self) -> &CurrentMirror {
        &self.mirror
    }

    /// Borrow the WTA model.
    pub fn wta(&self) -> &WtaCircuit {
        &self.wta
    }

    /// Borrow the delay model.
    pub fn delay_model(&self) -> &DelayModel {
        &self.delay_model
    }

    /// Borrow the energy model.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// Senses one set of wordline currents.
    ///
    /// `activated_columns` is the number of bitlines driven during the read
    /// (used by the energy model).
    ///
    /// # Errors
    ///
    /// Propagates mirror, WTA, delay-model and energy-model errors
    /// (empty/invalid currents, degenerate geometries, exact ties).
    pub fn sense(
        &self,
        wordline_currents: &[f64],
        activated_columns: usize,
    ) -> Result<SenseOutcome> {
        let mut mirrored_currents = Vec::with_capacity(wordline_currents.len());
        let readout =
            self.sense_into(wordline_currents, activated_columns, &mut mirrored_currents)?;
        Ok(SenseOutcome {
            winner: readout.winner,
            mirrored_currents,
            decision: readout.decision,
            delay: readout.delay,
            energy: readout.energy,
        })
    }

    /// Senses one set of wordline currents without allocating: the mirrored
    /// currents are written into `mirrored_scratch` (cleared first) and stay
    /// there, so batched callers reuse one buffer across samples. On error
    /// the scratch contents are unspecified.
    ///
    /// # Errors
    ///
    /// Same as [`SensingChain::sense`].
    pub fn sense_into(
        &self,
        wordline_currents: &[f64],
        activated_columns: usize,
        mirrored_scratch: &mut Vec<f64>,
    ) -> Result<SenseReadout> {
        self.mirror
            .copy_all_into(wordline_currents, mirrored_scratch)?;
        let decision = self.wta.resolve(mirrored_scratch)?;
        let delay = self.delay_model.worst_case(
            wordline_currents.len(),
            activated_columns.max(1),
            &self.wta,
            self.mirror.gain,
        )?;
        let energy = self.energy_model.inference_with_mirrored(
            wordline_currents,
            mirrored_scratch,
            activated_columns,
            delay.total(),
            &self.mirror,
            &self.wta,
        )?;
        Ok(SenseReadout {
            winner: decision.winner,
            decision,
            delay,
            energy,
        })
    }

    /// Simulates the WTA output transients for one set of wordline currents
    /// (the data behind Fig. 5(c)).
    ///
    /// # Errors
    ///
    /// Propagates mirror and WTA errors.
    pub fn transient(
        &self,
        wordline_currents: &[f64],
        config: &TransientConfig,
    ) -> Result<WtaTransient> {
        let mirrored = self.mirror.copy_all(wordline_currents)?;
        self.wta.transient(&mirrored, config)
    }
}

impl Default for SensingChain {
    fn default() -> Self {
        Self::febim_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn senses_the_maximum_wordline() {
        let chain = SensingChain::febim_calibrated();
        let outcome = chain.sense(&[0.8e-6, 1.6e-6, 1.2e-6], 5).unwrap();
        assert_eq!(outcome.winner, 1);
        assert_eq!(outcome.mirrored_currents.len(), 3);
        assert!(outcome.delay.total() > 0.0);
        assert!(outcome.energy.total() > 0.0);
    }

    #[test]
    fn mirrored_currents_are_attenuated() {
        let chain = SensingChain::febim_calibrated();
        let outcome = chain.sense(&[1.0e-6, 2.0e-6], 2).unwrap();
        assert!((outcome.mirrored_currents[0] - 0.1e-6).abs() < 1e-15);
        assert!((outcome.mirrored_currents[1] - 0.2e-6).abs() < 1e-15);
    }

    #[test]
    fn errors_propagate_from_components() {
        let chain = SensingChain::febim_calibrated();
        assert!(chain.sense(&[], 2).is_err());
        assert!(chain.sense(&[1e-6, 1e-6], 2).is_err());
        assert!(chain.sense(&[1e-6, f64::NAN], 2).is_err());
    }

    #[test]
    fn transient_matches_sense_decision() {
        let chain = SensingChain::febim_calibrated();
        let currents = [0.5e-6, 1.5e-6];
        let outcome = chain.sense(&currents, 2).unwrap();
        let transient = chain
            .transient(&currents, &TransientConfig::febim_wta())
            .unwrap();
        assert_eq!(outcome.winner, transient.decision.winner);
    }

    #[test]
    fn sense_into_matches_sense_and_reuses_the_buffer() {
        let chain = SensingChain::febim_calibrated();
        let currents = [0.8e-6, 1.6e-6, 1.2e-6];
        let outcome = chain.sense(&currents, 5).unwrap();
        let mut scratch = vec![9.9; 1];
        let readout = chain.sense_into(&currents, 5, &mut scratch).unwrap();
        assert_eq!(readout.winner, outcome.winner);
        assert_eq!(readout.decision, outcome.decision);
        assert_eq!(readout.delay, outcome.delay);
        assert_eq!(readout.energy, outcome.energy);
        assert_eq!(scratch, outcome.mirrored_currents);
    }

    #[test]
    fn component_accessors_expose_models() {
        let chain = SensingChain::default();
        assert!(chain.mirror().gain > 0.0);
        assert!(chain.wta().params().bias_current > 0.0);
        assert!(chain.delay_model().params().per_column > 0.0);
        assert!(chain.energy_model().params().read_drain_bias > 0.0);
    }
}
