//! Inference-energy model of the FeBiM crossbar plus sensing module.
//!
//! The paper splits the inference energy into the array part (wordline and
//! bitline drivers plus the conduction of the activated cells) and the
//! sensing part (current mirrors and the WTA circuit), see Fig. 6(b)/(d).
//! [`crate::SensingChain::decide_and_price`] prices every read with these
//! parameters, in the same pass that decides it.

use serde::Serialize;

use crate::errors::{CircuitError, Result};

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

/// Inference-energy model of the crossbar plus sensing module: the
/// calibrated [`EnergyParams`] a [`crate::SensingChain`] prices reads with.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sense::{ReadGeometry, SensedRead, SensingChain};

    /// Senses one read of `currents` on a monolithic array driving
    /// `activated` bitlines.
    fn read(currents: &[f64], activated: usize) -> Result<SensedRead> {
        let geometry = ReadGeometry::Array { activated };
        SensingChain::febim_calibrated().decide_and_price(geometry, None, currents, &mut Vec::new())
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
        assert!(matches!(read(&[], 4), Err(CircuitError::EmptyInput)));
    }

    #[test]
    fn negative_current_rejected() {
        assert!(matches!(
            read(&[1e-6, -1e-6], 4),
            Err(CircuitError::InvalidCurrent { index: 1, .. })
        ));
    }

    #[test]
    fn wide_shallow_array_is_array_dominated() {
        // Fig. 6(b): with only 2 rows the array (bitline-driver) energy
        // exceeds the sensing energy even at 256 columns.
        let currents = vec![256.0 * 0.5e-6; 2];
        let energy = read(&currents, 256).unwrap().energy;
        assert!(energy.array > energy.sensing, "{energy:?}");
        assert!(
            energy.total() > 10e-15 && energy.total() < 200e-15,
            "{energy:?}"
        );
    }

    #[test]
    fn tall_array_is_sensing_dominated() {
        // Fig. 6(d): with 32 rows the per-row mirrors and WTA cells dominate.
        let currents = vec![32.0 * 0.5e-6; 32];
        let energy = read(&currents, 32).unwrap().energy;
        assert!(energy.sensing > energy.array, "{energy:?}");
        assert!(
            energy.total() > 50e-15 && energy.total() < 500e-15,
            "{energy:?}"
        );
    }

    #[test]
    fn energy_grows_with_columns() {
        let mut previous = 0.0;
        for columns in [2usize, 8, 32, 128, 256] {
            let currents = vec![columns as f64 * 0.5e-6; 2];
            let total = read(&currents, columns).unwrap().energy.total();
            assert!(total > previous);
            previous = total;
        }
    }

    #[test]
    fn energy_grows_with_rows() {
        let mut previous = 0.0;
        for rows in [2usize, 4, 8, 16, 32] {
            let currents = vec![32.0 * 0.5e-6; rows];
            let total = read(&currents, 32).unwrap().energy.total();
            assert!(total > previous);
            previous = total;
        }
    }

    #[test]
    fn zero_currents_leave_only_driver_and_wta_energy() {
        // No conduction and no mirror current: the array part is exactly
        // the drivers, the sensing part exactly the WTA bias.
        let chain = SensingChain::febim_calibrated();
        let sensed = read(&[0.0, 0.0], 4).unwrap();
        let params = chain.energy_model().params();
        let drivers = 4.0 * params.bitline_driver_energy + 2.0 * params.wordline_driver_energy;
        assert_eq!(sensed.energy.array, drivers);
        let wta = chain.wta().energy(&[0.0, 0.0], sensed.delay.total());
        assert_eq!(sensed.energy.sensing, wta);
    }

    #[test]
    fn iris_scale_inference_is_tens_of_femtojoules() {
        // The paper reports 17.2 fJ per inference for the 3×64 iris crossbar
        // with 5 activated bitlines (4 features + prior); our calibrated
        // model should land in the same order of magnitude.
        let currents = vec![5.0 * 0.5e-6; 3];
        let energy = read(&currents, 5).unwrap().energy;
        assert!(
            energy.total() > 1e-15 && energy.total() < 60e-15,
            "total {}",
            energy.total()
        );
    }
}
