//! One crossbar cell: the state of a single multi-level FeFET plus
//! programming metadata. A cell holds no device parameters: its grid
//! evaluates every cell against its programmer's one [`FeFetParams`].

use febim_device::{FeFetParams, FeFetState};

/// One 1-FeFET crossbar cell. The default is an erased, never-programmed
/// cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cell {
    device: FeFetState,
    programmed_level: Option<usize>,
    disturb_pulses: u64,
    /// Array clock tick at which the cell was last (re)programmed; retention
    /// drift ages the cell relative to this instant.
    programmed_at: u64,
    /// Whether the ferroelectric stack is permanently stuck: write pulses no
    /// longer move the polarization, so reprogramming cannot repair the cell
    /// (spare-row remapping can route around it).
    stuck: bool,
}

impl Cell {
    /// Borrow the device state.
    pub fn device(&self) -> &FeFetState {
        &self.device
    }

    /// Mutably borrow the device state.
    pub fn device_mut(&mut self) -> &mut FeFetState {
        &mut self.device
    }

    /// The multi-level state the cell was last programmed to, if any.
    pub fn programmed_level(&self) -> Option<usize> {
        self.programmed_level
    }

    /// Records the level the cell was programmed to.
    pub fn set_programmed_level(&mut self, level: usize) {
        self.programmed_level = Some(level);
    }

    /// Forgets the programmed level (the cell reads as erased bookkeeping;
    /// callers erase the device separately).
    pub fn clear_programmed_level(&mut self) {
        self.programmed_level = None;
    }

    /// Number of half-bias disturb pulses the cell has absorbed since it was
    /// last programmed.
    pub fn disturb_pulses(&self) -> u64 {
        self.disturb_pulses
    }

    /// Registers `count` additional half-bias disturb pulses.
    pub fn add_disturb_pulses(&mut self, count: u64) {
        self.disturb_pulses = self.disturb_pulses.saturating_add(count);
    }

    /// Clears the disturb counter (called after a fresh program operation).
    pub fn reset_disturb(&mut self) {
        self.disturb_pulses = 0;
    }

    /// Array clock tick at which the cell was last (re)programmed.
    pub fn programmed_at(&self) -> u64 {
        self.programmed_at
    }

    /// Records the array clock tick of a (re)program; retention drift ages
    /// the cell from this instant.
    pub fn set_programmed_at(&mut self, tick: u64) {
        self.programmed_at = tick;
    }

    /// Whether the cell is permanently stuck (programming pulses no longer
    /// move its polarization).
    pub fn is_stuck(&self) -> bool {
        self.stuck
    }

    /// Marks the cell as permanently stuck in its current polarization state.
    pub fn set_stuck(&mut self, stuck: bool) {
        self.stuck = stuck;
    }

    /// Read current of the cell when its bitline is activated with `V_on`.
    pub fn read_current_on(&self, params: &FeFetParams) -> f64 {
        self.device.read_current_on(params)
    }

    /// Leakage current of the cell when its bitline is inhibited with `V_off`.
    pub fn read_current_off(&self, params: &FeFetParams) -> f64 {
        self.device.read_current_off(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cell_is_erased_and_unprogrammed() {
        let cell = Cell::default();
        assert_eq!(cell.programmed_level(), None);
        assert_eq!(cell.disturb_pulses(), 0);
        assert!(cell.read_current_on(&FeFetParams::febim_calibrated()) < 1e-9);
    }

    #[test]
    fn a_cell_holds_state_not_parameters() {
        // A per-cell copy of the grid's `FeFetParams` alone is 104 bytes.
        assert!(std::mem::size_of::<Cell>() <= 56);
    }

    #[test]
    fn programmed_level_bookkeeping() {
        let mut cell = Cell::default();
        cell.set_programmed_level(5);
        assert_eq!(cell.programmed_level(), Some(5));
    }

    #[test]
    fn disturb_counter_accumulates_and_resets() {
        let mut cell = Cell::default();
        cell.add_disturb_pulses(10);
        cell.add_disturb_pulses(7);
        assert_eq!(cell.disturb_pulses(), 17);
        cell.reset_disturb();
        assert_eq!(cell.disturb_pulses(), 0);
    }

    #[test]
    fn disturb_counter_saturates() {
        let mut cell = Cell::default();
        cell.add_disturb_pulses(u64::MAX);
        cell.add_disturb_pulses(5);
        assert_eq!(cell.disturb_pulses(), u64::MAX);
    }

    #[test]
    fn programmed_at_round_trips() {
        let mut cell = Cell::default();
        assert_eq!(cell.programmed_at(), 0);
        cell.set_programmed_at(1234);
        assert_eq!(cell.programmed_at(), 1234);
    }

    #[test]
    fn stuck_flag_round_trips() {
        let mut cell = Cell::default();
        assert!(!cell.is_stuck());
        cell.set_stuck(true);
        assert!(cell.is_stuck());
        cell.set_stuck(false);
        assert!(!cell.is_stuck());
    }

    #[test]
    fn off_current_is_negligible() {
        let params = FeFetParams::febim_calibrated();
        let cell = Cell::default();
        assert!(cell.read_current_off(&params) < cell.read_current_on(&params) + 1e-12);
    }
}
