//! Multi-level programming: turning target read currents into write-pulse
//! configurations (Fig. 4(b) of the paper) and applying them to devices.

use std::sync::Arc;

use serde::Serialize;

use crate::errors::{DeviceError, Result};
use crate::fefet::{FeFet, FeFetState};
use crate::params::FeFetParams;
use crate::preisach::{Polarization, PreisachModel, Pulse};

/// A write configuration: how many nominal pulses program one multi-level state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WriteConfig {
    /// Number of nominal write pulses applied after a full erase.
    pub pulse_count: u32,
}

impl WriteConfig {
    /// Creates a write configuration with the given pulse count.
    pub fn new(pulse_count: u32) -> Self {
        Self { pulse_count }
    }
}

/// A discrete multi-level state of the device together with everything needed
/// to program and read it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ProgrammedState {
    /// Zero-based level index (0 = lowest read current).
    pub level: usize,
    /// Target read current at `V_on`, in amperes.
    pub target_current: f64,
    /// Polarization that realizes the target current.
    pub polarization: Polarization,
    /// Write configuration (pulse count) that reaches the polarization.
    pub write_config: WriteConfig,
}

/// One level of a programmer's table: the state and the write energy of
/// programming it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Level {
    state: ProgrammedState,
    write_energy: f64,
}

/// Programmer that maps discrete levels to target currents, polarizations and
/// pulse counts for a given parameter set.
///
/// Every level's state and write energy are derived once, by
/// [`LevelProgrammer::new`], into a table that clones share, so every
/// lookup, program, top-up and refresh reads it instead of re-deriving the
/// chain.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelProgrammer {
    params: FeFetParams,
    /// Read current of the lowest level, in amperes (paper: 0.1 µA).
    min_current: f64,
    /// Read current of the highest level, in amperes (paper: 1.0 µA).
    max_current: f64,
    /// One entry per level, in level order.
    table: Arc<[Level]>,
}

/// Default lowest mapped read current (0.1 µA), matching Fig. 4(a).
pub const DEFAULT_MIN_READ_CURRENT: f64 = 0.1e-6;
/// Default highest mapped read current (1.0 µA), matching Fig. 4(a).
pub const DEFAULT_MAX_READ_CURRENT: f64 = 1.0e-6;

/// The polarization whose threshold voltage reads `current` at `V_on`.
fn polarization_for_current(params: &FeFetParams, current: f64) -> Polarization {
    let vth = FeFet::vth_for_read_current(params, current);
    FeFet::polarization_for_vth(params, vth)
}

/// The closed-form chain behind one table entry: the level's target
/// current (linearly spaced over the window), the V_TH and polarization
/// that read it, the pulse count that reaches that polarization, and the
/// write energy of an erase plus that train.
fn derive_level(
    params: &FeFetParams,
    levels: usize,
    (min_current, max_current): (f64, f64),
    level: usize,
) -> Result<Level> {
    let fraction = level as f64 / (levels - 1) as f64;
    let target_current = min_current + fraction * (max_current - min_current);
    let polarization = polarization_for_current(params, target_current);
    let pulse_count = PreisachModel::pulses_to_reach(params, polarization).ok_or(
        DeviceError::ProgrammingDidNotConverge {
            max_pulses: u32::MAX,
            target_amps: target_current,
        },
    )?;
    Ok(Level {
        state: ProgrammedState {
            level,
            target_current,
            polarization,
            write_config: WriteConfig::new(pulse_count),
        },
        // One erase pulse plus the programming pulse train.
        write_energy: params.write_energy_per_pulse * (pulse_count as f64 + 1.0),
    })
}

impl LevelProgrammer {
    /// Creates a programmer with `levels` states whose read currents are
    /// linearly spaced between `min_current` and `max_current` (amperes),
    /// and derives every level's state and write energy once.
    ///
    /// The table costs 40 bytes and roughly 0.1–0.15 µs per level (measured
    /// on a 2-vCPU Xeon VM): a 16-level (4-bit) programmer builds in about
    /// 2 µs and a 256-level one, the most any figure or 8-bit cell uses, in
    /// about 30 µs. The largest one-hot program `QuantConfig` allows
    /// (`Q_l` = 16, 65,536 states) takes about 10 ms and 2.6 MB per
    /// programmer.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if the current window is
    /// empty or non-positive, [`DeviceError::TooManyLevels`] if fewer than two
    /// levels are requested, [`DeviceError::TargetUnreachable`] if either
    /// end of the window cannot be realized by a physical polarization state,
    /// and [`DeviceError::ProgrammingDidNotConverge`] if some level's pulse
    /// count has no solution. A programmer that exists therefore programs
    /// every level: only an out-of-range level fails a lookup.
    pub fn new(
        params: FeFetParams,
        levels: usize,
        min_current: f64,
        max_current: f64,
    ) -> Result<Self> {
        params.validate()?;
        if levels < 2 {
            return Err(DeviceError::TooManyLevels {
                requested: levels,
                supported: 2,
            });
        }
        if !(min_current > 0.0 && max_current > min_current) {
            return Err(DeviceError::InvalidParameter {
                name: "min_current/max_current",
                reason: "current window must satisfy 0 < min < max".to_string(),
            });
        }
        // Both window ends must correspond to programmable polarizations.
        for current in [min_current, max_current] {
            let pol = polarization_for_current(&params, current);
            if pol.value() <= 0.0 || pol.value() >= 1.0 {
                return Err(DeviceError::TargetUnreachable {
                    target_amps: current,
                    min_amps: 0.0,
                    max_amps: f64::INFINITY,
                });
            }
        }
        let table = (0..levels)
            .map(|level| derive_level(&params, levels, (min_current, max_current), level))
            .collect::<Result<_>>()?;
        Ok(Self {
            params,
            min_current,
            max_current,
            table,
        })
    }

    /// Programmer calibrated to the paper's ten-level 0.1 µA – 1.0 µA window.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`LevelProgrammer::new`]; the
    /// calibrated defaults never trigger them.
    pub fn febim_default(levels: usize) -> Result<Self> {
        Self::new(
            FeFetParams::febim_calibrated(),
            levels,
            DEFAULT_MIN_READ_CURRENT,
            DEFAULT_MAX_READ_CURRENT,
        )
    }

    /// Number of discrete levels.
    pub fn levels(&self) -> usize {
        self.table.len()
    }

    /// Borrow the parameter set used by this programmer.
    pub fn params(&self) -> &FeFetParams {
        &self.params
    }

    /// The lowest mapped read current in amperes.
    pub fn min_current(&self) -> f64 {
        self.min_current
    }

    /// The highest mapped read current in amperes.
    pub fn max_current(&self) -> f64 {
        self.max_current
    }

    /// The table entry of a level.
    fn level(&self, level: usize) -> Result<&Level> {
        self.table.get(level).ok_or(DeviceError::TooManyLevels {
            requested: level.saturating_add(1),
            supported: self.table.len(),
        })
    }

    /// Target read current for a level index.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::TooManyLevels`] if `level >= self.levels()`.
    pub fn target_current(&self, level: usize) -> Result<f64> {
        Ok(self.level(level)?.state.target_current)
    }

    /// Full programmed-state descriptor for a level index.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`LevelProgrammer::target_current`].
    pub fn state_for_level(&self, level: usize) -> Result<ProgrammedState> {
        Ok(self.level(level)?.state)
    }

    /// Descriptors for every level, in level order (the data behind Fig. 4(b)).
    ///
    /// # Errors
    ///
    /// Never fails: every level was derived by [`LevelProgrammer::new`].
    pub fn all_states(&self) -> Result<Vec<ProgrammedState>> {
        Ok(self.table.iter().map(|level| level.state).collect())
    }

    /// Programs a device to the requested level using an erase followed by the
    /// level's pulse train, mimicking the physical write sequence.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`LevelProgrammer::state_for_level`].
    pub fn program_with_pulses(
        &self,
        device: &mut FeFetState,
        level: usize,
    ) -> Result<ProgrammedState> {
        let state = self.state_for_level(level)?;
        device.erase(&self.params);
        device.apply_pulse_train(
            &self.params,
            Pulse::nominal_write(&self.params),
            state.write_config.pulse_count,
        );
        Ok(state)
    }

    /// Programs a device to the requested level by directly installing the
    /// target polarization (fast path used by large array simulations).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`LevelProgrammer::state_for_level`].
    pub fn program_ideal(&self, device: &mut FeFetState, level: usize) -> Result<ProgrammedState> {
        let state = self.state_for_level(level)?;
        device.set_polarization(state.polarization);
        Ok(state)
    }

    /// Total write energy (joules) spent programming the given level with a
    /// full erase plus the level's pulse train.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`LevelProgrammer::state_for_level`].
    pub fn write_energy(&self, level: usize) -> Result<f64> {
        Ok(self.level(level)?.write_energy)
    }

    /// Minimal pulse train that tops a partially relaxed device back up to the
    /// target polarization of `level` without an erase.
    ///
    /// Returns `Some(pulses)` when the device sits at or below the target
    /// (retention drift and read disturb only ever relax polarization toward
    /// the erased state, so this is the common recalibration case) and `None`
    /// when the device has overshot the target and needs a full erase +
    /// retrain instead.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`LevelProgrammer::state_for_level`].
    pub fn top_up_pulses(&self, device: &FeFetState, level: usize) -> Result<Option<u32>> {
        let target = self.level(level)?.state.polarization;
        let current = device.polarization();
        if current.value() > target.value() {
            return Ok(None);
        }
        Ok(PreisachModel::pulses_to_reach_from(
            &self.params,
            current,
            target,
        ))
    }

    /// Refreshes a drifted device back to `level` with the cheapest physical
    /// pulse sequence: a minimal top-up train when the device relaxed below
    /// the target, or a full erase + retrain when it overshot.
    ///
    /// Returns the total pulse count applied (including the erase pulse when
    /// one was needed), which prices the refresh at
    /// `pulses * write_energy_per_pulse` joules.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`LevelProgrammer::state_for_level`].
    pub fn refresh_with_pulses(&self, device: &mut FeFetState, level: usize) -> Result<u32> {
        match self.top_up_pulses(device, level)? {
            Some(pulses) => {
                device.apply_pulse_train(&self.params, Pulse::nominal_write(&self.params), pulses);
                Ok(pulses)
            }
            None => {
                let state = self.program_with_pulses(device, level)?;
                Ok(state.write_config.pulse_count + 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn programmer() -> LevelProgrammer {
        LevelProgrammer::febim_default(10).expect("calibrated programmer")
    }

    #[test]
    fn default_window_matches_paper() {
        let p = programmer();
        assert_eq!(p.levels(), 10);
        assert!((p.min_current() - 0.1e-6).abs() < 1e-12);
        assert!((p.max_current() - 1.0e-6).abs() < 1e-12);
    }

    #[test]
    fn too_few_levels_rejected() {
        let err = LevelProgrammer::febim_default(1).unwrap_err();
        assert!(matches!(err, DeviceError::TooManyLevels { .. }));
    }

    #[test]
    fn empty_current_window_rejected() {
        let err = LevelProgrammer::new(FeFetParams::febim_calibrated(), 4, 1e-6, 1e-7).unwrap_err();
        assert!(matches!(err, DeviceError::InvalidParameter { .. }));
    }

    #[test]
    fn unreachable_window_rejected() {
        // 1 A is far above anything the device can deliver at V_on = 0.5 V.
        let err = LevelProgrammer::new(FeFetParams::febim_calibrated(), 4, 0.5, 1.0).unwrap_err();
        assert!(matches!(err, DeviceError::TargetUnreachable { .. }));
    }

    #[test]
    fn target_currents_are_linearly_spaced() {
        let p = programmer();
        let step = (p.max_current() - p.min_current()) / 9.0;
        for level in 0..10 {
            let expected = p.min_current() + level as f64 * step;
            assert!((p.target_current(level).unwrap() - expected).abs() < 1e-15);
        }
    }

    #[test]
    fn out_of_range_level_rejected() {
        let p = programmer();
        assert!(p.target_current(10).is_err());
        assert!(p.state_for_level(99).is_err());
        // The largest level is an error too, not an overflow panic.
        assert!(matches!(
            p.target_current(usize::MAX),
            Err(DeviceError::TooManyLevels {
                requested: usize::MAX,
                supported: 10
            })
        ));
        for level in [10, 11, usize::MAX] {
            let expected = DeviceError::TooManyLevels {
                requested: level.saturating_add(1),
                supported: 10,
            };
            assert_eq!(p.state_for_level(level), Err(expected.clone()));
            assert_eq!(p.write_energy(level), Err(expected.clone()));
            let mut device = FeFetState::default();
            assert_eq!(p.program_ideal(&mut device, level), Err(expected.clone()));
            assert_eq!(p.top_up_pulses(&device, level), Err(expected));
        }
    }

    #[test]
    fn table_entries_equal_the_closed_form_chain_bit_for_bit() {
        for levels in [2, 3, 10, 16, 256] {
            let p = LevelProgrammer::febim_default(levels).unwrap();
            assert_eq!(p.levels(), levels);
            let window = (p.min_current(), p.max_current());
            for level in 0..levels {
                let chain = derive_level(p.params(), levels, window, level).unwrap();
                let state = p.state_for_level(level).unwrap();
                assert_eq!(state.level, level);
                assert_eq!(
                    state.target_current.to_bits(),
                    chain.state.target_current.to_bits()
                );
                assert_eq!(
                    state.polarization.value().to_bits(),
                    chain.state.polarization.value().to_bits()
                );
                assert_eq!(state.write_config, chain.state.write_config);
                assert_eq!(
                    p.write_energy(level).unwrap().to_bits(),
                    chain.write_energy.to_bits()
                );
                assert_eq!(
                    p.target_current(level).unwrap().to_bits(),
                    chain.state.target_current.to_bits()
                );
            }
            assert_eq!(p.all_states().unwrap().len(), levels);
        }
    }

    #[test]
    fn clones_share_one_table() {
        let p = programmer();
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.table, &q.table));
        assert_eq!(p, q);
        // Equal inputs build equal tables.
        assert_eq!(p, programmer());
    }

    #[test]
    fn pulse_counts_increase_with_level() {
        let p = programmer();
        let states = p.all_states().unwrap();
        assert_eq!(states.len(), 10);
        for pair in states.windows(2) {
            assert!(
                pair[1].write_config.pulse_count > pair[0].write_config.pulse_count,
                "pulse count not strictly increasing between levels {} and {}",
                pair[0].level,
                pair[1].level
            );
        }
    }

    #[test]
    fn pulse_counts_lie_in_paper_reported_range() {
        // Fig. 4(b): roughly 40 pulses for the 0.1 µA state and roughly 70 for
        // the 1.0 µA state.
        let p = programmer();
        let states = p.all_states().unwrap();
        let first = states.first().unwrap().write_config.pulse_count;
        let last = states.last().unwrap().write_config.pulse_count;
        assert!((30..=50).contains(&first), "first level pulses {first}");
        assert!((60..=85).contains(&last), "last level pulses {last}");
    }

    #[test]
    fn pulse_programming_hits_target_current() {
        let p = programmer();
        for level in [0, 4, 9] {
            let mut device = FeFet::new(p.params().clone());
            let state = p.program_with_pulses(device.state_mut(), level).unwrap();
            let read = device.read_current_on();
            let relative_error = (read - state.target_current).abs() / state.target_current;
            // Pulse quantization leaves a small overshoot relative to the
            // ideal target, bounded by one pulse worth of polarization, which
            // is proportionally largest for the lowest-current level.
            assert!(
                relative_error < 0.2,
                "level {level}: read {read:.3e} target {:.3e}",
                state.target_current
            );
        }
    }

    #[test]
    fn ideal_programming_is_exact() {
        let p = programmer();
        for level in 0..10 {
            let mut device = FeFet::new(p.params().clone());
            let state = p.program_ideal(device.state_mut(), level).unwrap();
            let read = device.read_current_on();
            let relative_error = (read - state.target_current).abs() / state.target_current;
            assert!(
                relative_error < 0.02,
                "level {level} error {relative_error}"
            );
        }
    }

    #[test]
    fn programmed_levels_are_monotone_in_read_current() {
        let p = programmer();
        let mut previous = 0.0;
        for level in 0..10 {
            let mut device = FeFet::new(p.params().clone());
            p.program_ideal(device.state_mut(), level).unwrap();
            let read = device.read_current_on();
            assert!(read > previous);
            previous = read;
        }
    }

    #[test]
    fn top_up_refresh_is_cheaper_than_retrain() {
        let p = programmer();
        let level = 6;
        let state = p.state_for_level(level).unwrap();
        let mut device = FeFet::new(p.params().clone());
        p.program_ideal(device.state_mut(), level).unwrap();
        // Relax the device slightly below target, as retention drift would.
        device.set_polarization(Polarization::new(state.polarization.value() * 0.97));
        let top_up = p
            .top_up_pulses(device.state(), level)
            .unwrap()
            .expect("reachable");
        assert!(top_up > 0);
        assert!(
            top_up < state.write_config.pulse_count / 4,
            "top-up {top_up} vs full retrain {}",
            state.write_config.pulse_count
        );
        let applied = p.refresh_with_pulses(device.state_mut(), level).unwrap();
        assert_eq!(applied, top_up);
        assert!(device.polarization().value() >= state.polarization.value());
        let relative_error =
            (device.read_current_on() - state.target_current).abs() / state.target_current;
        assert!(relative_error < 0.1, "post-refresh error {relative_error}");
    }

    #[test]
    fn overshoot_falls_back_to_full_retrain() {
        let p = programmer();
        let level = 2;
        let state = p.state_for_level(level).unwrap();
        let mut device = FeFet::new(p.params().clone());
        device.set_polarization(Polarization::new(state.polarization.value() + 0.1));
        assert!(p.top_up_pulses(device.state(), level).unwrap().is_none());
        let applied = p.refresh_with_pulses(device.state_mut(), level).unwrap();
        assert_eq!(applied, state.write_config.pulse_count + 1);
        let relative_error =
            (device.read_current_on() - state.target_current).abs() / state.target_current;
        assert!(relative_error < 0.2, "post-retrain error {relative_error}");
    }

    #[test]
    fn write_energy_scales_with_pulse_count() {
        let p = programmer();
        let low = p.write_energy(0).unwrap();
        let high = p.write_energy(9).unwrap();
        assert!(high > low);
        // Order of femtojoules per programmed state.
        assert!(low > 1e-15 && high < 1e-12);
    }
}
