//! Fixed-step transient solver for small behavioural circuits.
//!
//! The solver integrates a first-order state-space system with an explicit
//! Euler scheme, which is sufficient for the single-pole settling behaviour
//! of the wordlines and the WTA output branches that FeBiM relies on.

use serde::Serialize;

use crate::errors::{CircuitError, Result};

/// One sampled point of a transient waveform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WaveformPoint {
    /// Simulation time in seconds.
    pub time: f64,
    /// Signal value (units depend on the simulated quantity).
    pub value: f64,
}

/// A sampled transient waveform for one circuit node.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct Waveform {
    /// Sampled points in increasing time order.
    pub points: Vec<WaveformPoint>,
}

impl Waveform {
    /// Creates an empty waveform.
    pub fn new() -> Self {
        Self::default()
    }

    /// The final sampled value, if any.
    pub fn final_value(&self) -> Option<f64> {
        self.points.last().map(|p| p.value)
    }

    /// The first time at which the waveform reaches at least `threshold`,
    /// if it ever does.
    pub fn time_to_reach(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.value >= threshold)
            .map(|p| p.time)
    }

    /// Number of sampled points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the waveform holds no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Configuration of a fixed-step transient run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TransientConfig {
    /// Integration time step in seconds.
    pub time_step: f64,
    /// Total simulated time in seconds.
    pub duration: f64,
}

impl TransientConfig {
    /// Creates a transient configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] when the step or duration is
    /// not positive, or when the step exceeds the duration.
    pub fn new(time_step: f64, duration: f64) -> Result<Self> {
        if !(time_step > 0.0 && time_step.is_finite()) {
            return Err(CircuitError::InvalidParameter {
                name: "time_step",
                reason: "must be positive and finite".to_string(),
            });
        }
        if !(duration > 0.0 && duration.is_finite()) {
            return Err(CircuitError::InvalidParameter {
                name: "duration",
                reason: "must be positive and finite".to_string(),
            });
        }
        if time_step > duration {
            return Err(CircuitError::InvalidParameter {
                name: "time_step",
                reason: "must not exceed the total duration".to_string(),
            });
        }
        Ok(Self {
            time_step,
            duration,
        })
    }

    /// 1 ps steps over 500 ps: the window used for the WTA transient of Fig. 5(c).
    pub fn febim_wta() -> Self {
        Self {
            time_step: 1e-12,
            duration: 500e-12,
        }
    }

    /// Number of integration steps.
    pub fn steps(&self) -> usize {
        (self.duration / self.time_step).round() as usize
    }
}

/// Integrates `d state / dt = derivative(t, state)` with explicit Euler steps,
/// recording one waveform per state element.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidParameter`] if `initial` is empty.
pub fn integrate<F>(
    initial: &[f64],
    config: &TransientConfig,
    mut derivative: F,
) -> Result<Vec<Waveform>>
where
    F: FnMut(f64, &[f64]) -> Vec<f64>,
{
    if initial.is_empty() {
        return Err(CircuitError::InvalidParameter {
            name: "initial",
            reason: "state vector must not be empty".to_string(),
        });
    }
    let mut state = initial.to_vec();
    let mut waveforms: Vec<Waveform> = (0..state.len()).map(|_| Waveform::new()).collect();
    let steps = config.steps();
    for step in 0..=steps {
        let time = step as f64 * config.time_step;
        for (node, waveform) in waveforms.iter_mut().enumerate() {
            waveform.points.push(WaveformPoint {
                time,
                value: state[node],
            });
        }
        if step == steps {
            break;
        }
        let rates = derivative(time, &state);
        debug_assert_eq!(rates.len(), state.len());
        for (value, rate) in state.iter_mut().zip(rates.iter()) {
            *value += rate * config.time_step;
        }
    }
    Ok(waveforms)
}

/// First-order settling of a single node towards `target` with time constant
/// `tau` seconds, starting from `initial`.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidParameter`] if `tau` is not positive or the
/// configuration is invalid.
pub fn first_order_settling(
    initial: f64,
    target: f64,
    tau: f64,
    config: &TransientConfig,
) -> Result<Waveform> {
    if !(tau > 0.0 && tau.is_finite()) {
        return Err(CircuitError::InvalidParameter {
            name: "tau",
            reason: "time constant must be positive and finite".to_string(),
        });
    }
    // The single-pole response has a closed form; evaluating it directly keeps
    // the waveform exact even when the sampling step is much larger than the
    // time constant (explicit Euler would go unstable there).
    let mut waveform = Waveform::new();
    for step in 0..=config.steps() {
        let time = step as f64 * config.time_step;
        let value = target + (initial - target) * (-time / tau).exp();
        waveform.points.push(WaveformPoint { time, value });
    }
    Ok(waveform)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(TransientConfig::new(0.0, 1e-9).is_err());
        assert!(TransientConfig::new(1e-12, 0.0).is_err());
        assert!(TransientConfig::new(1e-9, 1e-12).is_err());
        assert!(TransientConfig::new(1e-12, 1e-9).is_ok());
    }

    #[test]
    fn febim_wta_window_is_500ps() {
        let config = TransientConfig::febim_wta();
        assert_eq!(config.steps(), 500);
    }

    #[test]
    fn empty_state_rejected() {
        let config = TransientConfig::febim_wta();
        assert!(matches!(
            integrate(&[], &config, |_, _| vec![]),
            Err(CircuitError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn first_order_settling_approaches_target() {
        let config = TransientConfig::new(1e-12, 1e-9).unwrap();
        let waveform = first_order_settling(0.0, 1.0, 100e-12, &config).unwrap();
        let last = waveform.final_value().unwrap();
        // After ten time constants the node is fully settled.
        assert!((last - 1.0).abs() < 1e-3, "final value {last}");
    }

    #[test]
    fn settling_time_matches_analytic_estimate() {
        let config = TransientConfig::new(0.1e-12, 1e-9).unwrap();
        let tau = 50e-12;
        let waveform = first_order_settling(0.0, 1.0, tau, &config).unwrap();
        // The 63 % point should land near one time constant.
        let t63 = waveform.time_to_reach(0.632).unwrap();
        assert!((t63 - tau).abs() < 5e-12, "t63 {t63}");
    }

    #[test]
    fn invalid_tau_rejected() {
        let config = TransientConfig::febim_wta();
        assert!(first_order_settling(0.0, 1.0, 0.0, &config).is_err());
    }

    #[test]
    fn waveform_helpers() {
        let waveform = Waveform {
            points: vec![
                WaveformPoint {
                    time: 0.0,
                    value: 0.0,
                },
                WaveformPoint {
                    time: 1e-12,
                    value: 0.5,
                },
                WaveformPoint {
                    time: 2e-12,
                    value: 0.9,
                },
            ],
        };
        assert_eq!(waveform.len(), 3);
        assert!(!waveform.is_empty());
        assert_eq!(waveform.final_value(), Some(0.9));
        assert_eq!(waveform.time_to_reach(0.4), Some(1e-12));
        assert_eq!(waveform.time_to_reach(2.0), None);
        assert!(Waveform::new().is_empty());
    }

    #[test]
    fn integrator_tracks_two_independent_nodes() {
        let config = TransientConfig::new(1e-12, 200e-12).unwrap();
        let waveforms = integrate(&[0.0, 1.0], &config, |_t, state| {
            vec![(1.0 - state[0]) / 20e-12, (0.0 - state[1]) / 20e-12]
        })
        .unwrap();
        assert_eq!(waveforms.len(), 2);
        assert!(waveforms[0].final_value().unwrap() > 0.99);
        assert!(waveforms[1].final_value().unwrap() < 0.01);
    }
}
