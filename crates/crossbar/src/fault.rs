//! Fault injection for reliability studies.
//!
//! Beyond the Gaussian V_TH variation studied in Fig. 8(c), realistic FeFET
//! arrays suffer hard defects: cells stuck in the erased state (open defects,
//! endurance failures) or stuck at a fixed programmed level (ferroelectric
//! imprint). This module injects such defects into a programmed crossbar so
//! the classification robustness against hard faults can be quantified.
//!
//! Two injection surfaces exist:
//!
//! * **Program-time** — [`FaultModel::inject`] defects a fabric once, right
//!   after programming (its RNG draw order is frozen).
//! * **Time-indexed** — a [`FaultSchedule`] holds faults stamped with the
//!   array-clock tick at which they strike, so a serving pool can be
//!   chaos-tested with defects landing *mid-traffic*. Scheduled faults may
//!   be **transient** (the polarization is corrupted but the cell still
//!   accepts write pulses — a refresh heals it) or **permanent** (the cell
//!   is [`Cell::is_stuck`](crate::Cell::is_stuck) afterwards and only
//!   spare-row remapping can route around it).
//!
//! Detection and repair live next door: [`TileGrid::scrub`] classifies
//! defective cells against the program's expected conductance pattern and
//! reports the unrepairable ones as typed [`FaultReport`]s inside a
//! [`ScrubOutcome`].

use rand::Rng;
use serde::Serialize;

use febim_device::Polarization;

use crate::errors::{CrossbarError, Result};
use crate::tiling::TileGrid;

/// The kind of hard defect injected into a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultKind {
    /// The cell reads as fully erased (no current contribution).
    StuckErased,
    /// The cell reads as fully programmed (maximum polarization), regardless
    /// of the level it should store.
    StuckProgrammed,
}

/// A fault injected at a specific cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct InjectedFault {
    /// Row (wordline) of the faulty cell.
    pub row: usize,
    /// Column (bitline) of the faulty cell.
    pub column: usize,
    /// The defect type.
    pub kind: FaultKind,
}

/// Random hard-fault model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultModel {
    /// Probability that any given cell is defective.
    pub cell_fault_rate: f64,
    /// Fraction of defective cells that are stuck erased (the rest are stuck
    /// programmed).
    pub stuck_erased_fraction: f64,
}

impl FaultModel {
    /// Creates a fault model.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidLayout`] when either fraction is
    /// outside `[0, 1]`.
    pub fn new(cell_fault_rate: f64, stuck_erased_fraction: f64) -> Result<Self> {
        for (name, value) in [
            ("cell_fault_rate", cell_fault_rate),
            ("stuck_erased_fraction", stuck_erased_fraction),
        ] {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(CrossbarError::InvalidLayout {
                    reason: format!("{name} must lie in [0, 1], got {value}"),
                });
            }
        }
        Ok(Self {
            cell_fault_rate,
            stuck_erased_fraction,
        })
    }

    /// A defect-free model.
    pub fn none() -> Self {
        Self {
            cell_fault_rate: 0.0,
            stuck_erased_fraction: 1.0,
        }
    }

    /// Injects faults into every cell of a fabric independently with the
    /// configured probability and returns the list of injected defects.
    /// Cells are drawn in **logical row-major order**, whatever the tile
    /// plan, so a shared seed defects exactly the same logical coordinates
    /// on a single array and on any sharded fabric.
    pub fn inject<R: Rng + ?Sized>(
        &self,
        grid: &mut TileGrid,
        rng: &mut R,
    ) -> Result<Vec<InjectedFault>> {
        let mut faults = Vec::new();
        for row in 0..grid.layout().rows() {
            for column in 0..grid.layout().columns() {
                if self.cell_fault_rate == 0.0 || rng.gen::<f64>() >= self.cell_fault_rate {
                    continue;
                }
                let kind = if rng.gen::<f64>() < self.stuck_erased_fraction {
                    FaultKind::StuckErased
                } else {
                    FaultKind::StuckProgrammed
                };
                apply_fault(grid, row, column, kind)?;
                faults.push(InjectedFault { row, column, kind });
            }
        }
        Ok(faults)
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        Self::none()
    }
}

/// One fault scheduled to strike at a specific array-clock tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ScheduledFault {
    /// Array-clock tick at which the defect manifests.
    pub at_tick: u64,
    /// Row (wordline) of the faulty cell.
    pub row: usize,
    /// Column (bitline) of the faulty cell.
    pub column: usize,
    /// The defect type.
    pub kind: FaultKind,
    /// Whether the cell is permanently stuck afterwards (reprogramming
    /// cannot heal it) or merely corrupted (a refresh restores it).
    pub permanent: bool,
}

/// A deterministic, time-ordered queue of faults to inject as the array
/// clock advances — the chaos-injection surface of the self-healing tests
/// and benches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
pub struct FaultSchedule {
    /// Faults sorted by [`ScheduledFault::at_tick`] (stable for equal ticks).
    events: Vec<ScheduledFault>,
    /// Index of the first not-yet-delivered event.
    next: usize,
}

impl FaultSchedule {
    /// Builds a schedule from an arbitrary event list (sorted by strike
    /// tick, stable for equal ticks, so delivery order is deterministic).
    pub fn new(mut events: Vec<ScheduledFault>) -> Self {
        events.sort_by_key(|event| event.at_tick);
        Self { events, next: 0 }
    }

    /// An empty schedule.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Every scheduled event, delivered or not, in strike order.
    pub fn events(&self) -> &[ScheduledFault] {
        &self.events
    }

    /// Number of events not yet delivered.
    pub fn pending(&self) -> usize {
        self.events.len() - self.next
    }

    /// Removes and returns every event due at or before `now` (array-clock
    /// ticks), in strike order. Subsequent calls never re-deliver an event.
    pub fn take_due(&mut self, now: u64) -> Vec<ScheduledFault> {
        let start = self.next;
        while self.next < self.events.len() && self.events[self.next].at_tick <= now {
            self.next += 1;
        }
        self.events[start..self.next].to_vec()
    }
}

/// One defective cell found by a scrub pass, in logical coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FaultReport {
    /// Logical row (wordline) of the defective cell.
    pub row: usize,
    /// Logical column (bitline) of the defective cell.
    pub column: usize,
    /// Defect classification from the read signature (a stuck cell reading
    /// far above its target is [`FaultKind::StuckProgrammed`]; far below,
    /// [`FaultKind::StuckErased`]).
    pub kind: FaultKind,
    /// Whether the scrub repaired the cell (refresh or spare-row remap).
    /// `false` marks an unrepairable defect the owner must route around —
    /// a serving pool quarantines the replica.
    pub repaired: bool,
}

/// The result of one BIST-style scrub pass over an array or fabric.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
#[must_use = "maintenance outcomes carry repair counters and energy costs that must be merged into reports"]
pub struct ScrubOutcome {
    /// Programmed cells whose read signature was checked.
    pub cells_checked: u64,
    /// Defective cells healed in place by reprogramming (transient faults).
    pub cells_repaired: u64,
    /// Logical rows remapped onto spare physical rows (tiled fabrics only).
    pub rows_remapped: u64,
    /// Defective cells that survived a repair attempt (stuck).
    pub stuck_cells: u64,
    /// Total programming pulses spent on repairs.
    pub pulses_applied: u64,
    /// Total repair write energy in joules.
    pub energy_joules: f64,
    /// One report per defective cell found, repaired or not.
    pub reports: Vec<FaultReport>,
}

impl ScrubOutcome {
    /// Whether the pass found no defective cells at all.
    pub fn is_clean(&self) -> bool {
        self.reports.is_empty()
    }

    /// Whether every defect found was repaired (vacuously true when clean).
    pub fn fully_repaired(&self) -> bool {
        self.reports.iter().all(|report| report.repaired)
    }

    /// The unrepairable defects (empty when the fabric healed completely).
    pub fn unrepaired(&self) -> impl Iterator<Item = &FaultReport> {
        self.reports.iter().filter(|report| !report.repaired)
    }

    /// Folds another pass's counters and reports into this one.
    pub fn merge(&mut self, other: &ScrubOutcome) {
        self.cells_checked += other.cells_checked;
        self.cells_repaired += other.cells_repaired;
        self.rows_remapped += other.rows_remapped;
        self.stuck_cells += other.stuck_cells;
        self.pulses_applied += other.pulses_applied;
        self.energy_joules += other.energy_joules;
        self.reports.extend_from_slice(&other.reports);
    }
}

/// Applies a single hard fault to one cell, addressed by its logical
/// coordinates (the defect lands in whichever tile owns the cell).
///
/// # Errors
///
/// Returns [`CrossbarError::IndexOutOfBounds`] for coordinates outside the
/// fabric's logical layout.
pub fn apply_fault(grid: &mut TileGrid, row: usize, column: usize, kind: FaultKind) -> Result<()> {
    apply_scheduled_fault(grid, row, column, kind, false)
}

/// Applies one [`ScheduledFault`] (minus its timestamp): the transient
/// device corruption of [`apply_fault`], plus the permanent
/// [`Cell::is_stuck`](crate::Cell::is_stuck) latch when the fault is
/// permanent.
///
/// # Errors
///
/// Returns [`CrossbarError::IndexOutOfBounds`] for coordinates outside the
/// fabric's logical layout.
pub fn apply_scheduled_fault(
    grid: &mut TileGrid,
    row: usize,
    column: usize,
    kind: FaultKind,
    permanent: bool,
) -> Result<()> {
    let cell = grid.cell_mut(row, column)?;
    let polarization = match kind {
        FaultKind::StuckErased => Polarization::ERASED,
        FaultKind::StuckProgrammed => Polarization::SATURATED,
    };
    cell.device_mut().set_polarization(polarization);
    cell.device_mut().set_vth_offset(0.0);
    if permanent {
        cell.set_stuck(true);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ProgrammingMode;
    use crate::layout::CrossbarLayout;
    use crate::read::Activation;
    use crate::tiling::{TilePlan, TileShape};
    use febim_device::{LevelProgrammer, VariationModel};

    /// A programmed monolithic array (a one-tile grid).
    fn programmed_array() -> TileGrid {
        let layout = CrossbarLayout::new(2, 4, 4, false).unwrap();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer);
        for row in 0..2 {
            for column in 0..16 {
                array
                    .program_cell(row, column, (row + column) % 10, ProgrammingMode::Ideal)
                    .unwrap();
            }
        }
        array
    }

    #[test]
    fn invalid_rates_rejected() {
        assert!(FaultModel::new(-0.1, 0.5).is_err());
        assert!(FaultModel::new(0.1, 1.5).is_err());
        assert!(FaultModel::new(f64::NAN, 0.5).is_err());
        assert!(FaultModel::new(0.05, 0.5).is_ok());
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mut array = programmed_array();
        let (mut before, mut after) = (Vec::new(), Vec::new());
        array.current_map_into(&mut before);
        let mut rng = VariationModel::seeded_rng(1);
        let faults = FaultModel::none().inject(&mut array, &mut rng).unwrap();
        assert!(faults.is_empty());
        array.current_map_into(&mut after);
        assert_eq!(after, before);
    }

    #[test]
    fn full_rate_faults_every_cell() {
        let mut array = programmed_array();
        let mut rng = VariationModel::seeded_rng(2);
        let faults = FaultModel::new(1.0, 1.0)
            .unwrap()
            .inject(&mut array, &mut rng)
            .unwrap();
        assert_eq!(faults.len(), 32);
        // Every stuck-erased cell stops conducting.
        let activation = Activation::all_columns(array.layout());
        for current in array.wordline_currents(&activation).unwrap() {
            assert!(current < 1e-8, "current {current}");
        }
    }

    #[test]
    fn stuck_programmed_cells_read_above_the_mapped_window() {
        let mut array = programmed_array();
        apply_fault(&mut array, 0, 3, FaultKind::StuckProgrammed).unwrap();
        let current = array
            .cell(0, 3)
            .unwrap()
            .read_current_on(array.programmer().params());
        // Fully saturated polarization exceeds the 1.0 uA top of the window.
        assert!(current > 1.0e-6);
    }

    #[test]
    fn stuck_erased_cells_stop_conducting() {
        let mut array = programmed_array();
        let before = array
            .cell(1, 5)
            .unwrap()
            .read_current_on(array.programmer().params());
        assert!(before > 1e-7);
        apply_fault(&mut array, 1, 5, FaultKind::StuckErased).unwrap();
        assert!(
            array
                .cell(1, 5)
                .unwrap()
                .read_current_on(array.programmer().params())
                < 1e-9
        );
    }

    #[test]
    fn out_of_bounds_fault_rejected() {
        let mut array = programmed_array();
        assert!(apply_fault(&mut array, 9, 0, FaultKind::StuckErased).is_err());
    }

    #[test]
    fn grid_injection_matches_monolithic_injection_per_seed() {
        let layout = CrossbarLayout::new(3, 4, 4, false).unwrap();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let plan = TilePlan::new(layout, TileShape::new(2, 9).unwrap()).unwrap();
        let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer.clone());
        let mut grid = TileGrid::new(plan, programmer);
        let levels: Vec<Vec<Option<usize>>> = (0..layout.rows())
            .map(|row| {
                (0..layout.columns())
                    .map(|column| Some((row + column) % 10))
                    .collect()
            })
            .collect();
        array
            .program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        grid.program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        let model = FaultModel::new(0.25, 0.5).unwrap();
        let array_faults = model
            .inject(&mut array, &mut VariationModel::seeded_rng(9))
            .unwrap();
        let grid_faults = model
            .inject(&mut grid, &mut VariationModel::seeded_rng(9))
            .unwrap();
        // Same seed, same row-major draw order → same defects, and the two
        // faulty deployments read identically everywhere.
        assert_eq!(array_faults, grid_faults);
        assert!(!grid_faults.is_empty());
        let activation = Activation::all_columns(&layout);
        assert_eq!(
            array.wordline_currents(&activation).unwrap(),
            grid.wordline_currents(&activation).unwrap()
        );
        assert!(apply_fault(&mut grid, 9, 0, FaultKind::StuckErased).is_err());
    }

    #[test]
    fn injection_is_reproducible_per_seed() {
        let model = FaultModel::new(0.2, 0.5).unwrap();
        let mut a = programmed_array();
        let mut b = programmed_array();
        let faults_a = model
            .inject(&mut a, &mut VariationModel::seeded_rng(7))
            .unwrap();
        let faults_b = model
            .inject(&mut b, &mut VariationModel::seeded_rng(7))
            .unwrap();
        assert_eq!(faults_a, faults_b);
        assert!(!faults_a.is_empty());
    }

    /// The program-time injection RNG order is frozen: re-deriving the draw
    /// loop by hand from the same seed must reproduce `inject` exactly, so
    /// adding the time-indexed schedule surface cannot have shifted a single
    /// draw for old call sites.
    #[test]
    fn inject_rng_order_is_frozen() {
        let model = FaultModel::new(0.2, 0.5).unwrap();
        let mut array = programmed_array();
        let faults = model
            .inject(&mut array, &mut VariationModel::seeded_rng(7))
            .unwrap();
        let mut rng = VariationModel::seeded_rng(7);
        let mut expected = Vec::new();
        for row in 0..2 {
            for column in 0..16 {
                if rng.gen::<f64>() >= model.cell_fault_rate {
                    continue;
                }
                let kind = if rng.gen::<f64>() < model.stuck_erased_fraction {
                    FaultKind::StuckErased
                } else {
                    FaultKind::StuckProgrammed
                };
                expected.push(InjectedFault { row, column, kind });
            }
        }
        assert_eq!(faults, expected);
    }

    #[test]
    fn take_due_delivers_each_event_exactly_once() {
        let events = vec![
            ScheduledFault {
                at_tick: 50,
                row: 1,
                column: 2,
                kind: FaultKind::StuckErased,
                permanent: true,
            },
            ScheduledFault {
                at_tick: 10,
                row: 0,
                column: 0,
                kind: FaultKind::StuckProgrammed,
                permanent: false,
            },
            ScheduledFault {
                at_tick: 50,
                row: 0,
                column: 1,
                kind: FaultKind::StuckErased,
                permanent: false,
            },
        ];
        let mut schedule = FaultSchedule::new(events);
        assert_eq!(schedule.pending(), 3);
        assert!(schedule.take_due(9).is_empty());
        let first = schedule.take_due(10);
        assert_eq!(first.len(), 1);
        assert_eq!((first[0].row, first[0].column), (0, 0));
        assert_eq!(schedule.pending(), 2);
        // Equal ticks deliver in insertion order (stable sort).
        let due = schedule.take_due(1_000);
        assert_eq!(due.len(), 2);
        assert_eq!((due[0].row, due[0].column), (1, 2));
        assert_eq!((due[1].row, due[1].column), (0, 1));
        assert_eq!(schedule.pending(), 0);
        assert!(schedule.take_due(u64::MAX).is_empty());
    }

    #[test]
    fn permanent_faults_latch_the_stuck_flag() {
        let mut array = programmed_array();
        apply_scheduled_fault(&mut array, 0, 3, FaultKind::StuckErased, false).unwrap();
        assert!(!array.cell(0, 3).unwrap().is_stuck());
        apply_scheduled_fault(&mut array, 1, 4, FaultKind::StuckProgrammed, true).unwrap();
        assert!(array.cell(1, 4).unwrap().is_stuck());
        assert!(apply_scheduled_fault(&mut array, 9, 0, FaultKind::StuckErased, true).is_err());
    }

    #[test]
    fn scrub_outcome_merges_and_classifies() {
        let mut outcome = ScrubOutcome {
            cells_checked: 10,
            cells_repaired: 1,
            reports: vec![FaultReport {
                row: 0,
                column: 1,
                kind: FaultKind::StuckErased,
                repaired: true,
            }],
            ..ScrubOutcome::default()
        };
        assert!(!outcome.is_clean());
        assert!(outcome.fully_repaired());
        let other = ScrubOutcome {
            cells_checked: 5,
            stuck_cells: 1,
            pulses_applied: 7,
            energy_joules: 1e-12,
            reports: vec![FaultReport {
                row: 2,
                column: 3,
                kind: FaultKind::StuckProgrammed,
                repaired: false,
            }],
            ..ScrubOutcome::default()
        };
        outcome.merge(&other);
        assert_eq!(outcome.cells_checked, 15);
        assert_eq!(outcome.reports.len(), 2);
        assert!(!outcome.fully_repaired());
        assert_eq!(outcome.unrepaired().count(), 1);
        assert!(ScrubOutcome::default().is_clean());
    }
}
