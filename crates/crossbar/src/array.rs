//! Cell- and wordline-granular programming and cache bookkeeping.
//!
//! The paper's monolithic FeFET crossbar is a [`TileGrid`](crate::TileGrid)
//! over a one-tile plan ([`TilePlan::monolithic`](crate::TilePlan::monolithic)),
//! so one implementation programs, reads, ages, recalibrates and scrubs both
//! the single array and a sharded fabric. This module holds the pieces that
//! concern cells and wordlines rather than tiles: the programming mode, the
//! outcome of a recalibration pass and the bookkeeping of the conductance
//! cache.
//!
//! ## Epoch-versioned conductance cache
//!
//! Conductances are functions of time and read history once a
//! [`NonIdealityStack`](febim_device::NonIdealityStack) is configured:
//! retention drift depends on the clock, read disturb on per-wordline read
//! counters, IR-drop on the cell's position. A fabric therefore versions its
//! derived state with a monotonic `state_epoch` — bumped by every write,
//! drift tick and disturb-tier crossing — and keeps a dirty set describing
//! *which* cells and wordlines changed since the cache last matched the
//! epoch.
//! Bringing the cache current re-evaluates only the dirty cells (plus their
//! rows' off-sums, re-accumulated in full column order so a partial refresh
//! is bit-identical to a full rebuild); the dirty set degrades to a full
//! rebuild when the sparse work would approach the cost of one.

use serde::{Deserialize, Serialize};

/// How cells are programmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ProgrammingMode {
    /// Install the exact target polarization (fast, used for large sweeps).
    #[default]
    Ideal,
    /// Apply the erase-then-pulse-train sequence through the Preisach model,
    /// including half-bias disturbance of the other cells in the column.
    PulseTrain,
}

/// Cache maintenance counters: how the conductance cache was kept current.
///
/// `cells_recomputed` counts device-model evaluations (the expensive part of
/// a rebuild); the regression tests pin that a single-cell mutation
/// recomputes a single cell, not the whole array or tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct RebuildStats {
    /// Times the whole cache was rebuilt from scratch.
    pub full_rebuilds: u64,
    /// Times the cache was brought current by a sparse patch.
    pub partial_refreshes: u64,
    /// Total cells whose on/off currents were re-evaluated.
    pub cells_recomputed: u64,
}

/// Outcome of one recalibration pass (see
/// [`TileGrid::recalibrate`](crate::TileGrid::recalibrate)): how much was
/// checked, refreshed, and what the refresh cost in pulses and energy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
#[must_use = "maintenance outcomes carry repair counters and energy costs that must be merged into reports"]
pub struct RefreshOutcome {
    /// Programmed cells whose effective threshold shift was evaluated.
    pub cells_checked: u64,
    /// Wordlines that were rewritten.
    pub rows_refreshed: u64,
    /// Programmed cells that were rewritten.
    pub cells_refreshed: u64,
    /// Write pulses applied (minimal Preisach top-up trains where possible).
    pub pulses_applied: u64,
    /// Write energy spent by the pass, in joules.
    pub energy_joules: f64,
}

impl RefreshOutcome {
    /// Folds another pass's counters into this one.
    pub fn merge(&mut self, other: &RefreshOutcome) {
        self.cells_checked += other.cells_checked;
        self.rows_refreshed += other.rows_refreshed;
        self.cells_refreshed += other.cells_refreshed;
        self.pulses_applied += other.pulses_applied;
        self.energy_joules += other.energy_joules;
    }
}

/// What changed since the conductance cache last matched the state epoch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DirtyState {
    /// Nothing: the cache (if built) is current.
    Clean,
    /// Only the listed cell indices and whole rows changed.
    Sparse {
        /// Row-major cell indices with stale conductances.
        cells: Vec<usize>,
        /// Rows whose every cell is stale (disturb-tier crossings, refreshes).
        rows: Vec<usize>,
    },
    /// Everything is stale (or the sparse set overflowed its budget).
    All,
}

impl DirtyState {
    /// Marks one cell (`cell = Some(index)`) or one whole row
    /// (`row = Some(row)`) stale, degrading to `All` when the sparse set
    /// would cost a significant fraction of a full rebuild.
    fn mark(
        &mut self,
        cell: Option<usize>,
        row: Option<usize>,
        total_cells: usize,
        columns: usize,
    ) {
        let overflow = match self {
            DirtyState::All => false,
            DirtyState::Clean => {
                *self = DirtyState::Sparse {
                    cells: cell.into_iter().collect(),
                    rows: row.into_iter().collect(),
                };
                false
            }
            DirtyState::Sparse { cells, rows } => {
                cells.extend(cell);
                rows.extend(row);
                (cells.len() + rows.len() * columns) * 2 >= total_cells
            }
        };
        if overflow {
            *self = DirtyState::All;
        }
    }

    /// Marks one row-major cell index stale.
    pub(crate) fn mark_cell(&mut self, index: usize, total_cells: usize, columns: usize) {
        self.mark(Some(index), None, total_cells, columns);
    }

    /// Marks one whole row stale (same overflow rule as
    /// [`DirtyState::mark_cell`]).
    pub(crate) fn mark_row(&mut self, row: usize, total_cells: usize, columns: usize) {
        self.mark(None, Some(row), total_cells, columns);
    }
}

#[cfg(test)]
mod tests {
    //! The paper's single array is a one-tile grid: these tests pin its
    //! cell- and row-granular behaviour through [`TilePlan::monolithic`].

    use super::*;
    use crate::{
        Activation, CrossbarError, CrossbarLayout, FaultKind, FaultReport, LevelLadder, TileGrid,
        TilePlan,
    };
    use febim_device::{
        LevelProgrammer, NonIdealityStack, ReadDisturb, RetentionDrift, VariationModel,
        WireResistance,
    };

    fn small_array() -> TileGrid {
        let layout = CrossbarLayout::new(2, 2, 4, true).unwrap();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        TileGrid::new(TilePlan::monolithic(layout), programmer)
    }

    fn noisy_stack() -> NonIdealityStack {
        NonIdealityStack::ideal()
            .with_wire(WireResistance::uniform(50.0))
            .with_drift(RetentionDrift::new(0.004, 100))
            .with_disturb(ReadDisturb::new(10, 0.001))
    }

    #[test]
    fn fresh_array_has_negligible_currents() {
        let array = small_array();
        let activation = Activation::all_columns(array.layout());
        let currents = array.wordline_currents(&activation).unwrap();
        assert_eq!(currents.len(), 2);
        for current in currents {
            assert!(current < 1e-8);
        }
    }

    #[test]
    fn programming_raises_wordline_current() {
        let mut array = small_array();
        array.program_cell(0, 1, 9, ProgrammingMode::Ideal).unwrap();
        let activation = Activation::from_columns(array.layout(), &[1]).unwrap();
        let currents = array.wordline_currents(&activation).unwrap();
        assert!(currents[0] > 0.9e-6);
        assert!(currents[1] < 1e-8);
        assert_eq!(array.cell(0, 1).unwrap().programmed_level(), Some(9));
        assert!(array.write_energy() > 0.0);
    }

    #[test]
    fn accumulation_is_additive_across_columns() {
        let mut array = small_array();
        array.program_cell(0, 1, 4, ProgrammingMode::Ideal).unwrap();
        array.program_cell(0, 5, 9, ProgrammingMode::Ideal).unwrap();
        let single_a = array
            .wordline_current(0, &Activation::from_columns(array.layout(), &[1]).unwrap())
            .unwrap();
        let single_b = array
            .wordline_current(0, &Activation::from_columns(array.layout(), &[5]).unwrap())
            .unwrap();
        let both = array
            .wordline_current(
                0,
                &Activation::from_columns(array.layout(), &[1, 5]).unwrap(),
            )
            .unwrap();
        // The off-state leakage of the remaining columns is shared between the
        // measurements, so additivity holds to well below one percent.
        let expected = single_a + single_b;
        assert!((both - expected).abs() / expected < 1e-2);
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let mut array = small_array();
        assert!(array.cell(5, 0).is_err());
        assert!(array.cell(0, 99).is_err());
        assert!(array.program_cell(5, 0, 1, ProgrammingMode::Ideal).is_err());
        assert!(array
            .wordline_current(7, &Activation::all_columns(array.layout()))
            .is_err());
        assert!(array
            .wordline_current_reference(7, &Activation::all_columns(array.layout()))
            .is_err());
        assert!(array.row_reads(7).is_err());
    }

    #[test]
    fn unreachable_level_propagates_device_error() {
        let mut array = small_array();
        let err = array
            .program_cell(0, 0, 99, ProgrammingMode::Ideal)
            .unwrap_err();
        assert!(matches!(err, CrossbarError::Device(_)));
        let err = array
            .program_cell(0, 0, usize::MAX, ProgrammingMode::Ideal)
            .unwrap_err();
        assert!(matches!(err, CrossbarError::Device(_)));
    }

    #[test]
    fn activation_from_other_layout_rejected() {
        let array = small_array();
        let other_layout = CrossbarLayout::new(2, 3, 4, false).unwrap();
        let activation = Activation::all_columns(&other_layout);
        assert!(matches!(
            array.wordline_currents(&activation),
            Err(CrossbarError::ActivationLengthMismatch { .. })
        ));
        assert!(matches!(
            array.wordline_currents_reference(&activation),
            Err(CrossbarError::ActivationLengthMismatch { .. })
        ));
    }

    #[test]
    fn program_matrix_validates_shape() {
        let mut array = small_array();
        let wrong_rows = vec![vec![None; array.layout().columns()]];
        assert!(array
            .program_matrix(&wrong_rows, ProgrammingMode::Ideal)
            .is_err());
        let wrong_columns = vec![vec![None; 3]; array.layout().rows()];
        assert!(array
            .program_matrix(&wrong_columns, ProgrammingMode::Ideal)
            .is_err());
    }

    #[test]
    fn program_matrix_programs_and_maps_back() {
        let mut array = small_array();
        let mut levels = vec![vec![None; array.layout().columns()]; array.layout().rows()];
        levels[0][0] = Some(3);
        levels[1][8] = Some(7);
        array
            .program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        assert_eq!(array.level_map(), levels);
        let mut currents = Vec::new();
        array.current_map_into(&mut currents);
        let columns = array.layout().columns();
        assert!(currents[0] > currents[1]);
        assert!(currents[columns + 8] > currents[columns + 7]);
    }

    #[test]
    fn pulse_train_mode_disturbs_other_rows() {
        let mut array = small_array();
        array
            .program_cell(0, 2, 5, ProgrammingMode::PulseTrain)
            .unwrap();
        // The unselected row in the same column absorbed disturb pulses.
        assert!(array.cell(1, 2).unwrap().disturb_pulses() > 0);
        // The programmed cell's disturb counter was reset.
        assert_eq!(array.cell(0, 2).unwrap().disturb_pulses(), 0);
    }

    #[test]
    fn pulse_train_and_ideal_agree_closely() {
        let layout = CrossbarLayout::new(1, 1, 4, false).unwrap();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let mut ideal = TileGrid::new(TilePlan::monolithic(layout), programmer.clone());
        let mut pulsed = TileGrid::new(TilePlan::monolithic(layout), programmer);
        ideal.program_cell(0, 0, 6, ProgrammingMode::Ideal).unwrap();
        pulsed
            .program_cell(0, 0, 6, ProgrammingMode::PulseTrain)
            .unwrap();
        let a = ideal
            .cell(0, 0)
            .unwrap()
            .read_current_on(ideal.programmer().params());
        let b = pulsed
            .cell(0, 0)
            .unwrap()
            .read_current_on(pulsed.programmer().params());
        assert!((a - b).abs() / a < 0.1, "ideal {a:.3e} pulsed {b:.3e}");
    }

    #[test]
    fn variation_perturbs_read_currents() {
        let mut array = small_array();
        array.program_cell(0, 0, 5, ProgrammingMode::Ideal).unwrap();
        let nominal = array
            .cell(0, 0)
            .unwrap()
            .read_current_on(array.programmer().params());
        let variation = VariationModel::from_millivolts(45.0);
        let mut rng = VariationModel::seeded_rng(3);
        array.apply_variation(&variation, &mut rng);
        let perturbed = array
            .cell(0, 0)
            .unwrap()
            .read_current_on(array.programmer().params());
        assert_ne!(nominal, perturbed);
    }

    #[test]
    fn cached_reads_track_every_mutation_path() {
        let mut array = small_array();
        let activation = Activation::all_columns(array.layout());

        // Fresh array: warm the cache, then program and read again.
        let erased = array.wordline_currents(&activation).unwrap();
        array.program_cell(0, 3, 9, ProgrammingMode::Ideal).unwrap();
        let programmed = array.wordline_currents(&activation).unwrap();
        assert!(programmed[0] > erased[0] + 0.9e-6);
        assert_eq!(
            programmed,
            array.wordline_currents_reference(&activation).unwrap()
        );

        // Variation invalidates the cache.
        let variation = VariationModel::from_millivolts(45.0);
        let mut rng = VariationModel::seeded_rng(7);
        array.apply_variation(&variation, &mut rng);
        assert_eq!(
            array.wordline_currents(&activation).unwrap(),
            array.wordline_currents_reference(&activation).unwrap()
        );

        // Direct cell mutation through `cell_mut` invalidates the cache.
        array
            .cell_mut(0, 3)
            .unwrap()
            .device_mut()
            .set_vth_offset(0.1);
        assert_eq!(
            array.wordline_currents(&activation).unwrap(),
            array.wordline_currents_reference(&activation).unwrap()
        );
    }

    #[test]
    fn single_cell_mutation_refreshes_a_single_cell() {
        let mut array = small_array();
        let activation = Activation::all_columns(array.layout());
        array.wordline_currents(&activation).unwrap(); // warm: one full build
        let before = array.rebuild_stats();
        assert_eq!(before.full_rebuilds, 1);

        array
            .cell_mut(1, 3)
            .unwrap()
            .device_mut()
            .set_vth_offset(0.05);
        array.wordline_currents(&activation).unwrap();
        let after = array.rebuild_stats();
        assert_eq!(after.full_rebuilds, 1, "no second full rebuild");
        assert_eq!(after.partial_refreshes, before.partial_refreshes + 1);
        assert_eq!(
            after.cells_recomputed,
            before.cells_recomputed + 1,
            "exactly one cell re-evaluated"
        );
        // And the patched cache still matches the oracle bit for bit.
        assert_eq!(
            array.wordline_currents(&activation).unwrap(),
            array.wordline_currents_reference(&activation).unwrap()
        );
    }

    #[test]
    fn epoch_advances_with_every_mutation() {
        let mut array = small_array();
        let e0 = array.state_epoch();
        array.program_cell(0, 0, 3, ProgrammingMode::Ideal).unwrap();
        let e1 = array.state_epoch();
        assert!(e1 > e0);
        array.cell_mut(0, 0).unwrap();
        let e2 = array.state_epoch();
        assert!(e2 > e1);
        // Without a drift model, time does not invalidate anything.
        array.advance_time(50);
        assert_eq!(array.state_epoch(), e2);
        assert_eq!(array.clock(), 50);
        // With one, it does.
        let mut drifting = TileGrid::with_non_idealities(
            TilePlan::monolithic(*array.layout()),
            array.programmer().clone(),
            NonIdealityStack::ideal().with_drift(RetentionDrift::new(0.004, 100)),
        )
        .unwrap();
        let e3 = drifting.state_epoch();
        drifting.advance_time(50);
        assert!(drifting.state_epoch() > e3);
    }

    #[test]
    fn drift_lowers_read_currents_over_time() {
        let layout = CrossbarLayout::new(1, 1, 4, false).unwrap();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let stack = NonIdealityStack::ideal().with_drift(RetentionDrift::new(0.010, 100));
        let mut array =
            TileGrid::with_non_idealities(TilePlan::monolithic(layout), programmer, stack).unwrap();
        array.program_cell(0, 0, 9, ProgrammingMode::Ideal).unwrap();
        let activation = Activation::from_columns(array.layout(), &[0]).unwrap();
        let fresh = array.wordline_current(0, &activation).unwrap();
        array.advance_time(10_000);
        let aged = array.wordline_current(0, &activation).unwrap();
        assert!(aged < fresh, "aged {aged:.3e} fresh {fresh:.3e}");
        // The cached read still matches the oracle after aging.
        assert_eq!(
            aged,
            array.wordline_current_reference(0, &activation).unwrap()
        );
    }

    #[test]
    fn read_disturb_accumulates_per_wordline() {
        let layout = CrossbarLayout::new(2, 1, 4, false).unwrap();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let stack = NonIdealityStack::ideal().with_disturb(ReadDisturb::new(5, 0.005));
        let mut array =
            TileGrid::with_non_idealities(TilePlan::monolithic(layout), programmer, stack).unwrap();
        array.program_cell(0, 0, 9, ProgrammingMode::Ideal).unwrap();
        let activation = Activation::from_columns(array.layout(), &[0]).unwrap();
        let first = array.wordline_current(0, &activation).unwrap();
        // Hammer row 0 across a tier boundary; row 1 is never read.
        let mut last = first;
        for _ in 0..10 {
            last = array.wordline_current(0, &activation).unwrap();
        }
        assert!(last < first, "disturbed {last:.3e} first {first:.3e}");
        assert_eq!(array.row_reads(0).unwrap(), 11);
        assert_eq!(array.row_reads(1).unwrap(), 0);
        // Oracle agreement after the tier crossing.
        assert_eq!(
            last,
            array.wordline_current_reference(0, &activation).unwrap()
        );
    }

    #[test]
    fn wire_resistance_attenuates_far_cells() {
        let layout = CrossbarLayout::new(1, 2, 8, false).unwrap();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let ideal = {
            let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer.clone());
            array
                .program_cell(0, 15, 9, ProgrammingMode::Ideal)
                .unwrap();
            array
        };
        let resistive = {
            let stack = NonIdealityStack::ideal().with_wire(WireResistance::uniform(200.0));
            let mut array =
                TileGrid::with_non_idealities(TilePlan::monolithic(layout), programmer, stack)
                    .unwrap();
            array
                .program_cell(0, 15, 9, ProgrammingMode::Ideal)
                .unwrap();
            array
        };
        let activation = Activation::from_columns(&layout, &[15]).unwrap();
        let clean = ideal.wordline_current(0, &activation).unwrap();
        let dropped = resistive.wordline_current(0, &activation).unwrap();
        assert!(dropped < clean, "IR drop must attenuate: {dropped:.3e}");
        assert_eq!(
            dropped,
            resistive
                .wordline_current_reference(0, &activation)
                .unwrap()
        );
    }

    #[test]
    fn batched_reads_match_sequential_under_disturb() {
        let layout = CrossbarLayout::new(2, 2, 4, false).unwrap();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let stack = NonIdealityStack::ideal().with_disturb(ReadDisturb::new(3, 0.002));
        let mut batched =
            TileGrid::with_non_idealities(TilePlan::monolithic(layout), programmer, stack).unwrap();
        let mut levels = vec![vec![None; layout.columns()]; layout.rows()];
        for (row, row_levels) in levels.iter_mut().enumerate() {
            for (column, level) in row_levels.iter_mut().enumerate() {
                *level = Some((row * 3 + column) % 10);
            }
        }
        batched
            .program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        let sequential = batched.clone();

        let activations: Vec<Activation> = (0..8)
            .map(|i| Activation::from_observation(&layout, &[i % 4, (i + 1) % 4]).unwrap())
            .collect();
        let mut batch_out = Vec::new();
        batched
            .wordline_currents_batch_into(&activations, &mut batch_out)
            .unwrap();
        let mut seq_out = Vec::new();
        let mut scratch = Vec::new();
        for activation in &activations {
            sequential
                .wordline_currents_into(activation, &mut scratch)
                .unwrap();
            seq_out.extend_from_slice(&scratch);
        }
        // 8 reads × 3-read tiers: several tier crossings inside the batch.
        assert_eq!(batch_out, seq_out);
        assert_eq!(batched.row_reads(0).unwrap(), 8);
    }

    #[test]
    fn recalibration_restores_drifted_currents() {
        let layout = CrossbarLayout::new(2, 1, 4, false).unwrap();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let stack = NonIdealityStack::ideal().with_drift(RetentionDrift::new(0.012, 100));
        let mut array =
            TileGrid::with_non_idealities(TilePlan::monolithic(layout), programmer, stack).unwrap();
        // Program every cell: recalibration can only restore programmed
        // cells (erased cells have no target level to refresh towards).
        let levels = vec![
            vec![Some(9), Some(1), Some(2), Some(3)],
            vec![Some(4), Some(5), Some(6), Some(7)],
        ];
        array
            .program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        let activation = Activation::all_columns(array.layout());
        let fresh = array.wordline_currents(&activation).unwrap();

        array.advance_time(100_000);
        let aged = array.wordline_currents(&activation).unwrap();
        assert!(aged[0] < fresh[0]);
        assert!(array.worst_effective_shift() > 0.01);

        // Within-tolerance pass is a no-op.
        let lax = array.recalibrate(1.0, ProgrammingMode::Ideal).unwrap();
        assert_eq!(lax.rows_refreshed, 0);
        assert_eq!(lax.cells_refreshed, 0);

        // A tight pass rewrites both rows and restores the fresh currents.
        let energy_before = array.write_energy();
        let outcome = array.recalibrate(0.005, ProgrammingMode::Ideal).unwrap();
        assert_eq!(outcome.rows_refreshed, 2);
        assert_eq!(outcome.cells_refreshed, 8);
        assert!(outcome.pulses_applied > 0);
        assert!(outcome.energy_joules > 0.0);
        assert!(array.write_energy() > energy_before);
        let restored = array.wordline_currents(&activation).unwrap();
        assert_eq!(restored, fresh, "refresh restores the fresh read bitwise");
        assert!(array.worst_effective_shift() < 1e-12);
        // And the patched cache still matches the oracle.
        assert_eq!(
            restored,
            array.wordline_currents_reference(&activation).unwrap()
        );
    }

    #[test]
    fn pulse_train_recalibration_uses_minimal_topups() {
        let layout = CrossbarLayout::new(1, 1, 4, false).unwrap();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer);
        array
            .program_cell(0, 0, 8, ProgrammingMode::PulseTrain)
            .unwrap();
        // Relax the polarization slightly, as accumulated disturb would.
        let pol = array.cell(0, 0).unwrap().device().polarization().value();
        array
            .cell_mut(0, 0)
            .unwrap()
            .device_mut()
            .set_polarization(febim_device::Polarization::new(pol * 0.96));
        let full_train = u64::from(
            array
                .programmer()
                .state_for_level(8)
                .unwrap()
                .write_config
                .pulse_count,
        );
        let outcome = array
            .recalibrate(0.005, ProgrammingMode::PulseTrain)
            .unwrap();
        assert_eq!(outcome.cells_refreshed, 1);
        assert!(
            outcome.pulses_applied < full_train / 4,
            "top-up {} vs full train {}",
            outcome.pulses_applied,
            full_train
        );
    }

    #[test]
    fn recalibrate_rejects_bad_tolerance() {
        let mut array = small_array();
        assert!(array.recalibrate(0.0, ProgrammingMode::Ideal).is_err());
        assert!(array.recalibrate(f64::NAN, ProgrammingMode::Ideal).is_err());
    }

    #[test]
    fn invalid_stack_rejected() {
        let layout = CrossbarLayout::new(1, 1, 4, false).unwrap();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let bad = NonIdealityStack::ideal().with_wire(WireResistance {
            wordline_ohm_per_cell: f64::NAN,
            bitline_ohm_per_cell: 0.0,
        });
        assert!(
            TileGrid::with_non_idealities(TilePlan::monolithic(layout), programmer, bad).is_err()
        );
    }

    #[test]
    fn noisy_cached_reads_match_oracle() {
        let layout = CrossbarLayout::new(3, 2, 4, true).unwrap();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let mut array =
            TileGrid::with_non_idealities(TilePlan::monolithic(layout), programmer, noisy_stack())
                .unwrap();
        let mut levels = vec![vec![None; layout.columns()]; layout.rows()];
        for (row, row_levels) in levels.iter_mut().enumerate() {
            for (column, level) in row_levels.iter_mut().enumerate() {
                *level = Some((row * 5 + column) % 10);
            }
        }
        array
            .program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        let activation = Activation::all_columns(array.layout());
        array.advance_time(777);
        for _ in 0..25 {
            let cached = array.wordline_currents(&activation).unwrap();
            let oracle = array.wordline_currents_reference(&activation).unwrap();
            assert_eq!(cached, oracle);
        }
    }

    #[test]
    fn wordline_currents_into_reuses_the_buffer() {
        let mut array = small_array();
        array.program_cell(1, 2, 8, ProgrammingMode::Ideal).unwrap();
        let activation = Activation::from_columns(array.layout(), &[2]).unwrap();
        let mut buffer = vec![42.0; 7];
        array
            .wordline_currents_into(&activation, &mut buffer)
            .unwrap();
        assert_eq!(buffer.len(), array.layout().rows());
        assert_eq!(buffer, array.wordline_currents(&activation).unwrap());
    }

    #[test]
    fn equality_ignores_cache_state() {
        let mut warm = small_array();
        warm.program_cell(0, 0, 5, ProgrammingMode::Ideal).unwrap();
        let mut cold = small_array();
        cold.program_cell(0, 0, 5, ProgrammingMode::Ideal).unwrap();
        // Warm one array's cache but not the other's.
        let activation = Activation::all_columns(warm.layout());
        warm.wordline_currents(&activation).unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn scrub_rejects_bad_tolerance() {
        let mut array = small_array();
        assert!(array.scrub(0.0, ProgrammingMode::Ideal).is_err());
        assert!(array.scrub(-1.0, ProgrammingMode::Ideal).is_err());
        assert!(array.scrub(f64::NAN, ProgrammingMode::Ideal).is_err());
    }

    #[test]
    fn scrub_on_clean_array_is_clean() {
        let mut array = small_array();
        array.program_cell(0, 1, 9, ProgrammingMode::Ideal).unwrap();
        array.program_cell(1, 3, 4, ProgrammingMode::Ideal).unwrap();
        let outcome = array.scrub(0.05, ProgrammingMode::Ideal).unwrap();
        assert!(outcome.is_clean());
        assert!(outcome.fully_repaired());
        assert_eq!(outcome.cells_checked, 2);
        assert_eq!(outcome.pulses_applied, 0);
        assert_eq!(outcome.energy_joules, 0.0);
    }

    #[test]
    fn scrub_repairs_transient_fault_bit_exactly() {
        let mut array = small_array();
        array.program_cell(0, 1, 9, ProgrammingMode::Ideal).unwrap();
        array.program_cell(1, 3, 4, ProgrammingMode::Ideal).unwrap();
        let activation = Activation::all_columns(array.layout());
        let reference = array.wordline_currents(&activation).unwrap();

        crate::fault::apply_scheduled_fault(&mut array, 0, 1, FaultKind::StuckErased, false)
            .unwrap();
        let faulted = array.wordline_currents(&activation).unwrap();
        assert_ne!(faulted, reference);

        let outcome = array.scrub(0.05, ProgrammingMode::Ideal).unwrap();
        assert!(!outcome.is_clean());
        assert!(outcome.fully_repaired());
        assert_eq!(outcome.cells_repaired, 1);
        assert_eq!(outcome.stuck_cells, 0);
        assert!(outcome.pulses_applied > 0);
        assert!(outcome.energy_joules > 0.0);
        assert_eq!(
            outcome.reports,
            vec![FaultReport {
                row: 0,
                column: 1,
                kind: FaultKind::StuckErased,
                repaired: true,
            }]
        );
        let healed = array.wordline_currents(&activation).unwrap();
        assert_eq!(healed, reference);
    }

    #[test]
    fn scrub_flags_permanent_fault_as_stuck() {
        let mut array = small_array();
        array.program_cell(0, 1, 2, ProgrammingMode::Ideal).unwrap();
        array.program_cell(1, 3, 4, ProgrammingMode::Ideal).unwrap();
        crate::fault::apply_scheduled_fault(&mut array, 0, 1, FaultKind::StuckProgrammed, true)
            .unwrap();

        let outcome = array.scrub(0.05, ProgrammingMode::Ideal).unwrap();
        assert_eq!(outcome.stuck_cells, 1);
        assert_eq!(outcome.cells_repaired, 0);
        assert!(!outcome.fully_repaired());
        let unrepaired: Vec<&FaultReport> = outcome.unrepaired().collect();
        assert_eq!(unrepaired.len(), 1);
        assert_eq!(unrepaired[0].row, 0);
        assert_eq!(unrepaired[0].column, 1);
        assert_eq!(unrepaired[0].kind, FaultKind::StuckProgrammed);
        assert!(array.cell(0, 1).unwrap().is_stuck());

        // Detection is read-driven: a second scrub still checks and still
        // reports the stuck cell instead of trusting the latched flag.
        let again = array.scrub(0.05, ProgrammingMode::Ideal).unwrap();
        assert_eq!(again.cells_checked, 2);
        assert_eq!(again.stuck_cells, 1);
        assert_eq!(again.pulses_applied, 0);

        // Recalibration leaves stuck cells to the scrub/repair subsystem.
        assert_eq!(array.worst_effective_shift(), 0.0);
        let refresh = array.recalibrate(0.05, ProgrammingMode::Ideal).unwrap();
        assert_eq!(refresh.rows_refreshed, 0);
    }

    #[test]
    fn stuck_cell_ignores_programming() {
        let mut array = small_array();
        array.cell_mut(0, 1).unwrap().set_stuck(true);
        let before = array.cell(0, 1).unwrap().device().polarization().value();
        array.program_cell(0, 1, 9, ProgrammingMode::Ideal).unwrap();
        let after = array.cell(0, 1).unwrap().device().polarization().value();
        assert_eq!(before, after);
        assert_eq!(array.cell(0, 1).unwrap().programmed_level(), Some(9));
        assert!(array.write_energy() > 0.0);

        array
            .program_cell(0, 1, 9, ProgrammingMode::PulseTrain)
            .unwrap();
        let after_train = array.cell(0, 1).unwrap().device().polarization().value();
        assert_eq!(before, after_train);
        // Column neighbours still absorb the half-bias train.
        assert!(array.cell(1, 1).unwrap().disturb_pulses() > 0);
    }

    /// A 2-row array with 16-level cells, programmed so each column stores a
    /// known packed state, plus the flash-ADC ladder matching the
    /// programmer's current window.
    fn packed_array(levels: &[Vec<Option<usize>>]) -> (TileGrid, LevelLadder) {
        let layout = CrossbarLayout::new(2, 2, 2, false).unwrap();
        let programmer = LevelProgrammer::febim_default(16).unwrap();
        let ladder = LevelLadder::new(
            programmer.min_current(),
            programmer.max_current(),
            programmer.levels(),
        )
        .unwrap();
        let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer);
        array
            .program_matrix(levels, ProgrammingMode::Ideal)
            .unwrap();
        (array, ladder)
    }

    #[test]
    fn packed_partials_count_the_programmed_bits() {
        // Row 0 stores 0b0110, 0b0001, 0b1111, 0b1000; row 1 the reverse.
        let levels = vec![
            vec![Some(0b0110), Some(0b0001), Some(0b1111), Some(0b1000)],
            vec![Some(0b1000), Some(0b1111), Some(0b0001), Some(0b0110)],
        ];
        let (array, ladder) = packed_array(&levels);
        let activation = Activation::from_columns(array.layout(), &[0, 1, 2]).unwrap();
        // Column 0 contributes digit bits 2..4, columns 1 and 2 bits 0..2.
        let bit_offsets = [2, 0, 0];
        let mut scratch = Vec::new();
        let mut partials = Vec::new();
        array
            .plane_partial_sums_into(
                &activation,
                &bit_offsets,
                2,
                &ladder,
                &mut scratch,
                &mut partials,
            )
            .unwrap();
        // Row 0 plane 0: bit2(0b0110)=1, bit0(0b0001)=1, bit0(0b1111)=1.
        // Row 0 plane 1: bit3(0b0110)=0, bit1(0b0001)=0, bit1(0b1111)=1.
        // Row 1 plane 0: bit2(0b1000)=0, bit0(0b1111)=1, bit0(0b0001)=1.
        // Row 1 plane 1: bit3(0b1000)=1, bit1(0b1111)=1, bit1(0b0001)=0.
        assert_eq!(partials, vec![3.0, 1.0, 2.0, 2.0]);
        let reference = array
            .plane_partial_sums_reference(&activation, &bit_offsets, 2, &ladder)
            .unwrap();
        assert_eq!(partials, reference);
    }

    #[test]
    fn packed_partials_validate_their_inputs() {
        let levels = vec![vec![Some(1); 4]; 2];
        let (array, ladder) = packed_array(&levels);
        let activation = Activation::from_columns(array.layout(), &[0, 1]).unwrap();
        let mut scratch = Vec::new();
        let mut partials = Vec::new();
        // One offset for two activated columns.
        assert!(matches!(
            array.plane_partial_sums_into(
                &activation,
                &[0],
                2,
                &ladder,
                &mut scratch,
                &mut partials,
            ),
            Err(CrossbarError::ActivationLengthMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert!(array
            .plane_partial_sums_reference(&activation, &[0], 2, &ladder)
            .is_err());
        // Activation built for a different layout.
        let other_layout = CrossbarLayout::new(2, 3, 2, false).unwrap();
        let foreign = Activation::all_columns(&other_layout);
        assert!(array
            .plane_partial_sums_reference(&foreign, &[0; 6], 2, &ladder)
            .is_err());
        // Batch offsets must cover every read exactly.
        assert!(matches!(
            array.plane_partial_sums_batch_into(
                &[activation.clone(), activation],
                &[0; 3],
                2,
                &ladder,
                &mut scratch,
                &mut partials,
            ),
            Err(CrossbarError::ActivationLengthMismatch {
                expected: 4,
                found: 3
            })
        ));
    }

    #[test]
    fn noisy_packed_partials_match_the_oracle_and_register_disturb() {
        let layout = CrossbarLayout::new(2, 2, 2, false).unwrap();
        let programmer = LevelProgrammer::febim_default(16).unwrap();
        let ladder = LevelLadder::new(
            programmer.min_current(),
            programmer.max_current(),
            programmer.levels(),
        )
        .unwrap();
        let mut array =
            TileGrid::with_non_idealities(TilePlan::monolithic(layout), programmer, noisy_stack())
                .unwrap();
        let levels = vec![
            vec![Some(3), Some(12), Some(7), Some(15)],
            vec![Some(8), Some(1), Some(14), Some(5)],
        ];
        array
            .program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        array.advance_time(555);
        let activation = Activation::all_columns(array.layout());
        let bit_offsets = [0u8, 2, 0, 2];
        let mut scratch = Vec::new();
        let mut partials = Vec::new();
        for _ in 0..20 {
            array
                .plane_partial_sums_into(
                    &activation,
                    &bit_offsets,
                    2,
                    &ladder,
                    &mut scratch,
                    &mut partials,
                )
                .unwrap();
            let oracle = array
                .plane_partial_sums_reference(&activation, &bit_offsets, 2, &ladder)
                .unwrap();
            assert_eq!(partials, oracle);
        }
        // Packed reads feed the read-disturb model like ordinary wordline
        // reads.
        assert_eq!(array.row_reads(0).unwrap(), 20);
    }

    #[test]
    fn batched_packed_partials_match_sequential_reads() {
        for stack in [
            NonIdealityStack::ideal(),
            NonIdealityStack::ideal().with_disturb(ReadDisturb::new(3, 0.002)),
        ] {
            let layout = CrossbarLayout::new(2, 2, 2, false).unwrap();
            let programmer = LevelProgrammer::febim_default(16).unwrap();
            let ladder = LevelLadder::new(
                programmer.min_current(),
                programmer.max_current(),
                programmer.levels(),
            )
            .unwrap();
            let mut batched = TileGrid::with_non_idealities(
                TilePlan::monolithic(layout),
                programmer.clone(),
                stack,
            )
            .unwrap();
            let mut sequential =
                TileGrid::with_non_idealities(TilePlan::monolithic(layout), programmer, stack)
                    .unwrap();
            let levels = vec![
                vec![Some(9), Some(2), Some(13), Some(6)],
                vec![Some(4), Some(11), Some(0), Some(15)],
            ];
            for array in [&mut batched, &mut sequential] {
                array
                    .program_matrix(&levels, ProgrammingMode::Ideal)
                    .unwrap();
            }
            let reads = [
                (
                    Activation::from_columns(batched.layout(), &[0, 2]).unwrap(),
                    vec![0u8, 2],
                ),
                (Activation::all_columns(batched.layout()), vec![2, 0, 2, 0]),
                (
                    Activation::from_columns(batched.layout(), &[3]).unwrap(),
                    vec![0],
                ),
            ];
            let activations: Vec<Activation> = reads.iter().map(|(a, _)| a.clone()).collect();
            let flat_offsets: Vec<u8> = reads.iter().flat_map(|(_, o)| o.clone()).collect();
            let mut scratch = Vec::new();
            let mut batch_out = Vec::new();
            batched
                .plane_partial_sums_batch_into(
                    &activations,
                    &flat_offsets,
                    2,
                    &ladder,
                    &mut scratch,
                    &mut batch_out,
                )
                .unwrap();
            let mut sequential_out = Vec::new();
            for (activation, offsets) in &reads {
                let mut one = Vec::new();
                sequential
                    .plane_partial_sums_into(
                        activation,
                        offsets,
                        2,
                        &ladder,
                        &mut scratch,
                        &mut one,
                    )
                    .unwrap();
                sequential_out.extend_from_slice(&one);
            }
            assert_eq!(batch_out, sequential_out);
            assert_eq!(
                batched.row_reads(0).unwrap(),
                sequential.row_reads(0).unwrap()
            );
        }
    }
}
