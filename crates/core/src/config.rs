//! Engine configuration.

use serde::{Deserialize, Serialize};

use febim_crossbar::ProgrammingMode;
use febim_device::{FeFetParams, NonIdealityStack, VariationModel, VthDistribution};
use febim_quant::{Encoding, QuantConfig};

use crate::errors::{CoreError, Result};

/// Full configuration of a FeBiM engine instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Probability quantization configuration (`Q_f`, `Q_l`, truncation).
    pub quant: QuantConfig,
    /// FeFET device parameters.
    pub device: FeFetParams,
    /// Threshold-voltage variation applied when the crossbar is programmed.
    pub variation: VariationModel,
    /// Time-varying and spatial non-idealities of the physical arrays (wire
    /// IR drop, retention drift, read disturb). The default is the ideal
    /// stack, whose reads are bit-identical to a stack-free build.
    pub non_idealities: NonIdealityStack,
    /// How cells are programmed (ideal polarization vs. full pulse trains).
    pub programming_mode: ProgrammingMode,
    /// How quantized log-likelihoods map onto crossbar columns: the paper's
    /// one-hot layout (one column per bin), or bit-plane packing (several
    /// bin digits share one multi-level column, read back with a shift-add
    /// merge). The default is one-hot.
    pub encoding: Encoding,
    /// Whether to emit a prior column even when the prior is uniform.
    pub force_prior_column: bool,
    /// RNG seed used for variation sampling.
    pub variation_seed: u64,
}

impl EngineConfig {
    /// The paper's iris operating point: `Q_f = 4`, `Q_l = 2`, no device
    /// variation, ideal programming.
    pub fn febim_default() -> Self {
        Self {
            quant: QuantConfig::febim_optimal(),
            device: FeFetParams::febim_calibrated(),
            variation: VariationModel::ideal(),
            non_idealities: NonIdealityStack::ideal(),
            programming_mode: ProgrammingMode::Ideal,
            encoding: Encoding::OneHot,
            force_prior_column: false,
            variation_seed: 0,
        }
    }

    /// Returns a copy with a different column encoding.
    pub fn with_encoding(mut self, encoding: Encoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Returns a copy with a different quantization configuration.
    pub fn with_quant(mut self, quant: QuantConfig) -> Self {
        self.quant = quant;
        self
    }

    /// Returns a copy with the given device variation and seed.
    pub fn with_variation(mut self, variation: VariationModel, seed: u64) -> Self {
        self.variation = variation;
        self.variation_seed = seed;
        self
    }

    /// Returns a copy using full pulse-train programming.
    pub fn with_pulse_programming(mut self) -> Self {
        self.programming_mode = ProgrammingMode::PulseTrain;
        self
    }

    /// Returns a copy with the given non-ideality stack (wire IR drop,
    /// retention drift, read disturb).
    pub fn with_non_idealities(mut self, stack: NonIdealityStack) -> Self {
        self.non_idealities = stack;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the quantization or device
    /// parameters fail their own validation, or the variation model is not
    /// a finite, non-negative σ no wider than the device's threshold window
    /// (with a finite, positive lognormal shape).
    pub fn validate(&self) -> Result<()> {
        self.quant
            .validate()
            .map_err(|err| CoreError::InvalidConfig {
                name: "quant",
                reason: err.to_string(),
            })?;
        self.device
            .validate()
            .map_err(|err| CoreError::InvalidConfig {
                name: "device",
                reason: err.to_string(),
            })?;
        self.validate_variation()?;
        self.non_idealities
            .validate()
            .map_err(|err| CoreError::InvalidConfig {
                name: "non_idealities",
                reason: err.to_string(),
            })?;
        self.encoding
            .validate(self.quant.likelihood_bits)
            .map_err(|err| CoreError::InvalidConfig {
                name: "encoding",
                reason: err.to_string(),
            })?;
        Ok(())
    }

    /// The variation checks of [`EngineConfig::validate`]; the device
    /// parameters are already valid, so the threshold window is finite.
    fn validate_variation(&self) -> Result<()> {
        let sigma = self.variation.sigma_vth;
        let window = self.device.vth_window();
        if !(0.0..=window).contains(&sigma) {
            return Err(CoreError::InvalidConfig {
                name: "variation",
                reason: format!("sigma_vth {sigma} V must lie in [0, {window}] V"),
            });
        }
        if let VthDistribution::Lognormal { shape } = self.variation.distribution {
            if !(shape.is_finite() && shape > 0.0) {
                return Err(CoreError::InvalidConfig {
                    name: "variation",
                    reason: format!("lognormal shape {shape} must be finite and positive"),
                });
            }
        }
        Ok(())
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::febim_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        EngineConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_methods_compose() {
        let config = EngineConfig::febim_default()
            .with_quant(QuantConfig::new(3, 3))
            .with_variation(VariationModel::from_millivolts(30.0), 7)
            .with_pulse_programming();
        assert_eq!(config.quant.feature_bits, 3);
        assert!((config.variation.sigma_millivolts() - 30.0).abs() < 1e-9);
        assert_eq!(config.variation_seed, 7);
        assert_eq!(config.programming_mode, ProgrammingMode::PulseTrain);
    }

    #[test]
    fn invalid_quant_rejected() {
        let config = EngineConfig::febim_default().with_quant(QuantConfig::new(0, 2));
        assert!(matches!(
            config.validate(),
            Err(CoreError::InvalidConfig { name: "quant", .. })
        ));
    }

    #[test]
    fn invalid_non_ideality_stack_rejected() {
        use febim_device::RetentionDrift;
        let config = EngineConfig::febim_default().with_non_idealities(
            NonIdealityStack::ideal().with_drift(RetentionDrift {
                volts_per_decade: f64::NAN,
                time_scale_ticks: 100,
            }),
        );
        assert!(matches!(
            config.validate(),
            Err(CoreError::InvalidConfig {
                name: "non_idealities",
                ..
            })
        ));
    }

    #[test]
    fn non_ideality_builder_composes() {
        use febim_device::{ReadDisturb, RetentionDrift, WireResistance};
        let stack = NonIdealityStack::ideal()
            .with_wire(WireResistance::uniform(2.0))
            .with_drift(RetentionDrift::new(0.01, 100))
            .with_disturb(ReadDisturb::new(50, 0.001));
        let config = EngineConfig::febim_default().with_non_idealities(stack);
        assert_eq!(config.non_idealities, stack);
        assert!(!config.non_idealities.is_ideal());
        config.validate().unwrap();
        // The default stack stays ideal.
        assert!(EngineConfig::febim_default().non_idealities.is_ideal());
    }

    #[test]
    fn encoding_defaults_to_one_hot_and_validates_bit_budget() {
        let config = EngineConfig::febim_default();
        assert_eq!(config.encoding, Encoding::OneHot);
        let packed = config.clone().with_encoding(Encoding::BitPlane { bits: 4 });
        packed.validate().unwrap();
        // Q_l = 2 digits cannot fit into a 1-bit cell.
        let starved = config.clone().with_encoding(Encoding::BitPlane { bits: 1 });
        assert!(matches!(
            starved.validate(),
            Err(CoreError::InvalidConfig {
                name: "encoding",
                ..
            })
        ));
        // More than eight bits per cell is out of the device envelope.
        let oversized = config.with_encoding(Encoding::BitPlane { bits: 9 });
        assert!(matches!(
            oversized.validate(),
            Err(CoreError::InvalidConfig {
                name: "encoding",
                ..
            })
        ));
    }

    #[test]
    fn invalid_variation_rejected() {
        let window = FeFetParams::febim_calibrated().vth_window();
        let mut lognormal = VariationModel::lognormal(0.03, 0.5);
        for (sigma, shape) in [
            (f64::NAN, None),
            (1e300, None),
            (f64::INFINITY, None),
            (-1e-3, None),
            (window * 1.01, None),
            (0.03, Some(f64::NAN)),
            (0.03, Some(0.0)),
            (0.03, Some(-0.5)),
            (0.03, Some(f64::INFINITY)),
        ] {
            let variation = match shape {
                Some(shape) => {
                    lognormal.distribution = VthDistribution::Lognormal { shape };
                    lognormal
                }
                None => VariationModel {
                    sigma_vth: sigma,
                    ..VariationModel::ideal()
                },
            };
            let config = EngineConfig::febim_default().with_variation(variation, 1);
            assert!(
                matches!(
                    config.validate(),
                    Err(CoreError::InvalidConfig {
                        name: "variation",
                        ..
                    })
                ),
                "sigma {sigma} shape {shape:?} passed"
            );
        }
        // The whole threshold window, and a lognormal tail, are fine.
        let wide = VariationModel::new(window);
        EngineConfig::febim_default()
            .with_variation(wide, 1)
            .validate()
            .unwrap();
        lognormal.distribution = VthDistribution::Lognormal { shape: 0.5 };
        EngineConfig::febim_default()
            .with_variation(lognormal, 1)
            .validate()
            .unwrap();
    }

    #[test]
    fn invalid_device_rejected() {
        type Field = fn(&mut FeFetParams) -> &mut f64;
        let k_sat: Field = |p| &mut p.k_sat;
        let v_off: Field = |p| &mut p.v_off;
        let ideality: Field = |p| &mut p.ideality;
        let exponent: Field = |p| &mut p.switch_width_exponent;
        let width: Field = |p| &mut p.write_width;
        // A negative k_sat, and NaNs that passed `validate` and then failed
        // every read.
        for (field, value) in [
            (k_sat, -1.0),
            (v_off, f64::NAN),
            (ideality, f64::NAN),
            (exponent, f64::NAN),
            (width, f64::NAN),
        ] {
            let mut config = EngineConfig::febim_default();
            *field(&mut config.device) = value;
            assert!(matches!(
                config.validate(),
                Err(CoreError::InvalidConfig { name: "device", .. })
            ));
        }
    }
}
