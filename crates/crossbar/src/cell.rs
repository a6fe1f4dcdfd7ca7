//! One crossbar cell: a single multi-level FeFET plus programming metadata.

use serde::Serialize;

use febim_device::{FeFet, FeFetParams};

/// One 1-FeFET crossbar cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Cell {
    device: FeFet,
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
    /// Creates an erased cell with the given device parameters.
    pub fn new(params: FeFetParams) -> Self {
        Self {
            device: FeFet::new(params),
            programmed_level: None,
            disturb_pulses: 0,
            programmed_at: 0,
            stuck: false,
        }
    }

    /// Borrow the underlying device.
    pub fn device(&self) -> &FeFet {
        &self.device
    }

    /// Mutably borrow the underlying device.
    pub fn device_mut(&mut self) -> &mut FeFet {
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
    pub fn read_current_on(&self) -> f64 {
        self.device.read_current_on()
    }

    /// Leakage current of the cell when its bitline is inhibited with `V_off`.
    pub fn read_current_off(&self) -> f64 {
        self.device.read_current_off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cell_is_erased_and_unprogrammed() {
        let cell = Cell::new(FeFetParams::febim_calibrated());
        assert_eq!(cell.programmed_level(), None);
        assert_eq!(cell.disturb_pulses(), 0);
        assert!(cell.read_current_on() < 1e-9);
    }

    #[test]
    fn programmed_level_bookkeeping() {
        let mut cell = Cell::new(FeFetParams::febim_calibrated());
        cell.set_programmed_level(5);
        assert_eq!(cell.programmed_level(), Some(5));
    }

    #[test]
    fn disturb_counter_accumulates_and_resets() {
        let mut cell = Cell::new(FeFetParams::febim_calibrated());
        cell.add_disturb_pulses(10);
        cell.add_disturb_pulses(7);
        assert_eq!(cell.disturb_pulses(), 17);
        cell.reset_disturb();
        assert_eq!(cell.disturb_pulses(), 0);
    }

    #[test]
    fn disturb_counter_saturates() {
        let mut cell = Cell::new(FeFetParams::febim_calibrated());
        cell.add_disturb_pulses(u64::MAX);
        cell.add_disturb_pulses(5);
        assert_eq!(cell.disturb_pulses(), u64::MAX);
    }

    #[test]
    fn programmed_at_round_trips() {
        let mut cell = Cell::new(FeFetParams::febim_calibrated());
        assert_eq!(cell.programmed_at(), 0);
        cell.set_programmed_at(1234);
        assert_eq!(cell.programmed_at(), 1234);
    }

    #[test]
    fn stuck_flag_round_trips() {
        let mut cell = Cell::new(FeFetParams::febim_calibrated());
        assert!(!cell.is_stuck());
        cell.set_stuck(true);
        assert!(cell.is_stuck());
        cell.set_stuck(false);
        assert!(!cell.is_stuck());
    }

    #[test]
    fn off_current_is_negligible() {
        let cell = Cell::new(FeFetParams::febim_calibrated());
        assert!(cell.read_current_off() < cell.read_current_on() + 1e-12);
    }
}
