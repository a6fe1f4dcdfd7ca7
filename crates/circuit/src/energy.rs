//! Inference-energy model of the FeBiM crossbar plus sensing module.
//!
//! The paper splits the inference energy into the array part (wordline and
//! bitline drivers plus the conduction of the activated cells) and the
//! sensing part (current mirrors and the WTA circuit), see Fig. 6(b)/(d).

use serde::Serialize;

use crate::errors::{CircuitError, Result};
use crate::mirror::CurrentMirror;
use crate::wta::WtaCircuit;

/// Parameters of the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EnergyParams {
    /// Switching energy of one activated bitline driver, in joules.
    pub bitline_driver_energy: f64,
    /// Switching energy of one wordline driver, in joules.
    pub wordline_driver_energy: f64,
    /// Drain bias seen by the conducting cells during a read, in volts.
    pub read_drain_bias: f64,
    /// Energy of one multi-level sensing refinement step, in joules: one
    /// SAR/ladder comparison resolving the next stored bit of a multi-bit
    /// cell during a packed read. One-hot reads never pay it.
    pub level_refine_energy: f64,
}

impl EnergyParams {
    /// Calibration reproducing the tens-of-femtojoule array energies and the
    /// row-dominated sensing energies of Fig. 6(b)/(d).
    pub fn febim_calibrated() -> Self {
        Self {
            bitline_driver_energy: 0.08e-15,
            wordline_driver_energy: 0.05e-15,
            read_drain_bias: 0.1,
            // Half a bitline-driver switch per comparison: a sense-amp
            // strobe against one ladder reference.
            level_refine_energy: 0.04e-15,
        }
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] for non-positive entries.
    pub fn validate(&self) -> Result<()> {
        let positive: [(&'static str, f64); 4] = [
            ("bitline_driver_energy", self.bitline_driver_energy),
            ("wordline_driver_energy", self.wordline_driver_energy),
            ("read_drain_bias", self.read_drain_bias),
            ("level_refine_energy", self.level_refine_energy),
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

impl Default for EnergyParams {
    fn default() -> Self {
        Self::febim_calibrated()
    }
}

/// Breakdown of one inference-energy estimate, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct InferenceEnergy {
    /// Bitline/wordline driver plus cell-conduction energy.
    pub array: f64,
    /// Current-mirror plus WTA energy.
    pub sensing: f64,
}

impl InferenceEnergy {
    /// Total inference energy in joules.
    pub fn total(&self) -> f64 {
        self.array + self.sensing
    }
}

/// Inference-energy model of the crossbar plus sensing module.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// Creates an energy model after validating the parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`EnergyParams::validate`] failures.
    pub fn new(params: EnergyParams) -> Result<Self> {
        params.validate()?;
        Ok(Self { params })
    }

    /// Energy model with the FeBiM calibration.
    pub fn febim_calibrated() -> Self {
        Self {
            params: EnergyParams::febim_calibrated(),
        }
    }

    /// Borrow the model parameters.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Energy of one inference.
    ///
    /// * `wordline_currents` — accumulated current per wordline, in amperes;
    /// * `activated_columns` — number of bitlines driven during the read;
    /// * `duration` — inference delay in seconds;
    /// * `mirror` / `wta` — the sensing stage models.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyInput`] when no wordline currents are
    /// given and [`CircuitError::InvalidCurrent`] for negative or non-finite
    /// currents.
    pub fn inference(
        &self,
        wordline_currents: &[f64],
        activated_columns: usize,
        duration: f64,
        mirror: &CurrentMirror,
        wta: &WtaCircuit,
    ) -> Result<InferenceEnergy> {
        let mirrored = mirror.copy_all(wordline_currents)?;
        self.inference_with_mirrored(
            wordline_currents,
            &mirrored,
            activated_columns,
            duration,
            mirror,
            wta,
        )
    }

    /// Energy of one inference when the mirrored currents have already been
    /// computed (the allocation-free path used by
    /// [`crate::SensingChain::price`], whose callers mirror the currents once
    /// into a scratch buffer). `mirrored_currents` must be the output of
    /// `mirror.copy_all(wordline_currents)`.
    ///
    /// # Errors
    ///
    /// Same as [`EnergyModel::inference`].
    pub fn inference_with_mirrored(
        &self,
        wordline_currents: &[f64],
        mirrored_currents: &[f64],
        activated_columns: usize,
        duration: f64,
        mirror: &CurrentMirror,
        wta: &WtaCircuit,
    ) -> Result<InferenceEnergy> {
        let drivers = activated_columns as f64 * self.params.bitline_driver_energy
            + wordline_currents.len() as f64 * self.params.wordline_driver_energy;
        self.with_drivers(
            drivers,
            wordline_currents,
            mirrored_currents,
            duration,
            mirror,
            wta,
        )
    }

    /// Energy of one inference whose driver energy, `drivers` joules, the
    /// caller has already summed for its geometry: adds the conduction of the
    /// wordline currents to the array part and the mirror and WTA energy as
    /// the sensing part.
    ///
    /// # Errors
    ///
    /// Same as [`EnergyModel::inference`].
    pub(crate) fn with_drivers(
        &self,
        drivers: f64,
        wordline_currents: &[f64],
        mirrored_currents: &[f64],
        duration: f64,
        mirror: &CurrentMirror,
        wta: &WtaCircuit,
    ) -> Result<InferenceEnergy> {
        if wordline_currents.is_empty() {
            return Err(CircuitError::EmptyInput);
        }
        for (index, &value) in wordline_currents.iter().enumerate() {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(CircuitError::InvalidCurrent { index, value });
            }
        }
        let duration = duration.max(0.0);
        let total_current: f64 = wordline_currents.iter().sum();
        let conduction = total_current * self.params.read_drain_bias * duration;
        let array = drivers + conduction;

        let mirror_energy: f64 = wordline_currents
            .iter()
            .map(|&current| mirror.energy(current, duration))
            .sum();
        let wta_energy = wta.energy(mirrored_currents, duration);
        let sensing = mirror_energy + wta_energy;

        Ok(InferenceEnergy { array, sensing })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (EnergyModel, CurrentMirror, WtaCircuit) {
        (
            EnergyModel::febim_calibrated(),
            CurrentMirror::febim_sensing(),
            WtaCircuit::febim_calibrated(),
        )
    }

    #[test]
    fn default_params_validate() {
        EnergyParams::default().validate().unwrap();
    }

    #[test]
    fn invalid_params_rejected() {
        let p = EnergyParams {
            read_drain_bias: 0.0,
            ..EnergyParams::default()
        };
        assert!(EnergyModel::new(p).is_err());
    }

    #[test]
    fn empty_input_rejected() {
        let (model, mirror, wta) = setup();
        assert!(matches!(
            model.inference(&[], 4, 1e-9, &mirror, &wta),
            Err(CircuitError::EmptyInput)
        ));
    }

    #[test]
    fn negative_current_rejected() {
        let (model, mirror, wta) = setup();
        assert!(model
            .inference(&[1e-6, -1e-6], 4, 1e-9, &mirror, &wta)
            .is_err());
    }

    #[test]
    fn wide_shallow_array_is_array_dominated() {
        // Fig. 6(b): with only 2 rows the array (bitline-driver) energy
        // exceeds the sensing energy even at 256 columns.
        let (model, mirror, wta) = setup();
        let currents = vec![256.0 * 0.5e-6; 2];
        let energy = model
            .inference(&currents, 256, 800e-12, &mirror, &wta)
            .unwrap();
        assert!(energy.array > energy.sensing, "{energy:?}");
        assert!(
            energy.total() > 10e-15 && energy.total() < 200e-15,
            "{energy:?}"
        );
    }

    #[test]
    fn tall_array_is_sensing_dominated() {
        // Fig. 6(d): with 32 rows the per-row mirrors and WTA cells dominate.
        let (model, mirror, wta) = setup();
        let currents = vec![32.0 * 0.5e-6; 32];
        let energy = model
            .inference(&currents, 32, 1000e-12, &mirror, &wta)
            .unwrap();
        assert!(energy.sensing > energy.array, "{energy:?}");
        assert!(
            energy.total() > 50e-15 && energy.total() < 500e-15,
            "{energy:?}"
        );
    }

    #[test]
    fn energy_grows_with_columns() {
        let (model, mirror, wta) = setup();
        let mut previous = 0.0;
        for columns in [2usize, 8, 32, 128, 256] {
            let currents = vec![columns as f64 * 0.5e-6; 2];
            let total = model
                .inference(&currents, columns, 500e-12, &mirror, &wta)
                .unwrap()
                .total();
            assert!(total > previous);
            previous = total;
        }
    }

    #[test]
    fn energy_grows_with_rows() {
        let (model, mirror, wta) = setup();
        let mut previous = 0.0;
        for rows in [2usize, 4, 8, 16, 32] {
            let currents = vec![32.0 * 0.5e-6; rows];
            let total = model
                .inference(&currents, 32, 500e-12, &mirror, &wta)
                .unwrap()
                .total();
            assert!(total > previous);
            previous = total;
        }
    }

    #[test]
    fn zero_duration_leaves_only_driver_energy() {
        let (model, mirror, wta) = setup();
        let energy = model
            .inference(&[1e-6, 2e-6], 4, 0.0, &mirror, &wta)
            .unwrap();
        let expected_drivers = 4.0 * model.params().bitline_driver_energy
            + 2.0 * model.params().wordline_driver_energy;
        assert!((energy.array - expected_drivers).abs() < 1e-24);
        assert_eq!(energy.sensing, 0.0);
    }

    #[test]
    fn iris_scale_inference_is_tens_of_femtojoules() {
        // The paper reports 17.2 fJ per inference for the 3×64 iris crossbar
        // with 5 activated bitlines (4 features + prior); our calibrated
        // model should land in the same order of magnitude.
        let (model, mirror, wta) = setup();
        let currents = vec![5.0 * 0.5e-6; 3];
        let delay = 300e-12;
        let energy = model.inference(&currents, 5, delay, &mirror, &wta).unwrap();
        assert!(
            energy.total() > 1e-15 && energy.total() < 60e-15,
            "total {}",
            energy.total()
        );
    }
}
