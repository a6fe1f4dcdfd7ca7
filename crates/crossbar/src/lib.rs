//! # febim-crossbar
//!
//! Model of the FeBiM FeFET crossbar array (Fig. 3 of the paper): one
//! multi-level FeFET per cell, wordlines accumulating the drain currents of
//! the activated cells, a half-bias write scheme with disturb tracking, and
//! activation patterns that select the prior column plus one likelihood
//! column per evidence node. One type, [`TileGrid`], models both the
//! paper's single array (over [`TilePlan::monolithic`]) and a model sharded
//! across fixed-size tiles.
//!
//! # Example
//!
//! ```
//! use febim_crossbar::{Activation, CrossbarLayout, ProgrammingMode, TileGrid, TilePlan};
//! use febim_device::LevelProgrammer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 2 events, 1 evidence node with 4 levels, no prior column, on one array.
//! let layout = CrossbarLayout::new(2, 1, 4, false)?;
//! let programmer = LevelProgrammer::febim_default(10)?;
//! let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer);
//! array.program_cell(0, 2, 9, ProgrammingMode::Ideal)?;
//! array.program_cell(1, 2, 3, ProgrammingMode::Ideal)?;
//!
//! let activation = Activation::from_observation(array.layout(), &[2])?;
//! let currents = array.wordline_currents(&activation)?;
//! assert!(currents[0] > currents[1]);
//!
//! // Batched reads reuse one activation and one current buffer: rebuild the
//! // activation in place per sample and read into the same vector. The read
//! // is served from the conductance cache — O(rows × activated columns)
//! // with no per-cell device-model evaluation.
//! let mut scratch_activation = Activation::empty(array.layout());
//! let mut scratch_currents = Vec::new();
//! for observation in [[0usize], [2], [3]] {
//!     scratch_activation.set_observation(array.layout(), &observation)?;
//!     array.wordline_currents_into(&scratch_activation, &mut scratch_currents)?;
//!     assert_eq!(scratch_currents.len(), 2);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod array;
mod cache;
pub mod cell;
pub mod errors;
pub mod fault;
pub mod layout;
pub mod read;
pub mod tiling;
pub mod write;

pub use array::{ProgrammingMode, RebuildStats, RefreshOutcome};
pub use cell::Cell;
pub use errors::{CrossbarError, Result};
pub use fault::{
    apply_fault, apply_scheduled_fault, FaultKind, FaultModel, FaultReport, FaultSchedule,
    InjectedFault, ScheduledFault, ScrubOutcome,
};
pub use layout::{ColumnRole, CrossbarLayout};
pub use read::{Activation, LevelLadder};
pub use tiling::{RegionWriteOutcome, TileGrid, TilePlan, TileShape};
pub use write::WriteScheme;

// Re-exported so downstream crates can configure fabrics without a direct
// `febim-device` dependency on the non-ideality types.
pub use febim_device::{NonIdealityStack, ReadDisturb, RetentionDrift, WireResistance};

#[cfg(test)]
mod proptests {
    use super::*;
    use febim_device::{LevelProgrammer, VariationModel};
    use proptest::prelude::*;
    use rand::Rng;

    /// Programs a random level matrix (with random erased holes) drawn from
    /// the given RNG.
    fn program_random<R: Rng>(array: &mut TileGrid, rng: &mut R) {
        let rows = array.layout().rows();
        let columns = array.layout().columns();
        let levels: Vec<Vec<Option<usize>>> = (0..rows)
            .map(|_| {
                (0..columns)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.25 {
                            None
                        } else {
                            Some((rng.gen::<u64>() % 10) as usize)
                        }
                    })
                    .collect()
            })
            .collect();
        array
            .program_matrix(&levels, ProgrammingMode::Ideal)
            .expect("in-range levels");
    }

    /// A wordline count on each path of the all-rows read kernel, picked by
    /// `case`: fewer rows than one block, exactly one block, or two blocks
    /// and a partial one (`spare` sizes the short layout or partial block).
    fn rows_around_block(case: usize, spare: usize) -> usize {
        let partial = 1 + spare % (cache::BLOCK_ROWS - 1);
        match case {
            0 => partial,
            1 => cache::BLOCK_ROWS,
            _ => 2 * cache::BLOCK_ROWS + partial,
        }
    }

    /// Asserts the cached sparse read equals the uncached reference path
    /// bit-for-bit: for a sparse observation, for the all-columns stress
    /// pattern, and for every activation prefix length up to nine columns —
    /// the latter walks the 4-lane kernel through every `chunks_exact(4)`
    /// remainder case (0–3 trailing columns) on both full and partial lanes.
    fn assert_reads_match<R: Rng>(array: &TileGrid, rng: &mut R) {
        let nodes = array.layout().evidence_nodes();
        let levels = array.layout().evidence_levels();
        let evidence: Vec<usize> = (0..nodes)
            .map(|_| (rng.gen::<u64>() as usize) % levels)
            .collect();
        let sparse = Activation::from_observation(array.layout(), &evidence).unwrap();
        assert_eq!(
            array.wordline_currents(&sparse).unwrap(),
            array.wordline_currents_reference(&sparse).unwrap(),
        );
        let all = Activation::all_columns(array.layout());
        assert_eq!(
            array.wordline_currents(&all).unwrap(),
            array.wordline_currents_reference(&all).unwrap(),
        );
        let columns = array.layout().columns();
        for active in 0..=columns.min(9) {
            let picks: Vec<usize> = (0..active).map(|index| columns - 1 - index).collect();
            let prefix = Activation::from_columns(array.layout(), &picks).unwrap();
            assert_eq!(
                array.wordline_currents(&prefix).unwrap(),
                array.wordline_currents_reference(&prefix).unwrap(),
                "active={active}",
            );
        }
    }

    proptest! {
        /// Column index maps are a bijection between (node, level) pairs and
        /// likelihood columns.
        #[test]
        fn layout_columns_are_bijective(
            events in 1usize..8,
            nodes in 1usize..6,
            levels in 1usize..16,
            has_prior in proptest::bool::ANY,
        ) {
            let layout = CrossbarLayout::new(events, nodes, levels, has_prior).unwrap();
            let mut seen = std::collections::HashSet::new();
            for node in 0..nodes {
                for level in 0..levels {
                    let column = layout.likelihood_column(node, level).unwrap();
                    prop_assert!(column < layout.columns());
                    prop_assert!(seen.insert(column), "column {column} reused");
                    prop_assert_eq!(
                        layout.column_role(column).unwrap(),
                        ColumnRole::Likelihood { node, level }
                    );
                }
            }
            if has_prior {
                prop_assert!(!seen.contains(&0));
            }
        }

        /// Wordline currents scale monotonically with the programmed level.
        #[test]
        fn higher_levels_give_higher_currents(level_low in 0usize..9) {
            let layout = CrossbarLayout::new(1, 1, 2, false).unwrap();
            let programmer = LevelProgrammer::febim_default(10).unwrap();
            let mut low = TileGrid::new(TilePlan::monolithic(layout), programmer.clone());
            let mut high = TileGrid::new(TilePlan::monolithic(layout), programmer);
            low.program_cell(0, 0, level_low, ProgrammingMode::Ideal).unwrap();
            high.program_cell(0, 0, level_low + 1, ProgrammingMode::Ideal).unwrap();
            let activation = Activation::from_columns(low.layout(), &[0]).unwrap();
            let current_low = low.wordline_current(0, &activation).unwrap();
            let current_high = high.wordline_current(0, &activation).unwrap();
            prop_assert!(current_high > current_low);
        }

        /// Wordline accumulation equals the sum of the activated cell read
        /// currents plus negligible leakage, for arbitrary level patterns.
        #[test]
        fn accumulation_matches_cell_sum(
            levels in proptest::collection::vec(0usize..10, 1..8),
        ) {
            let nodes = levels.len();
            let layout = CrossbarLayout::new(1, nodes, 1, false).unwrap();
            let programmer = LevelProgrammer::febim_default(10).unwrap();
            let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer);
            let mut expected = 0.0;
            for (column, &level) in levels.iter().enumerate() {
                array.program_cell(0, column, level, ProgrammingMode::Ideal).unwrap();
                expected += array.cell(0, column).unwrap().read_current_on(array.programmer().params());
            }
            let activation = Activation::all_columns(array.layout());
            let measured = array.wordline_current(0, &activation).unwrap();
            prop_assert!((measured - expected).abs() / expected < 1e-6);
        }

        /// The conductance-cached sparse read path is bit-for-bit identical to
        /// the uncached dense reference path across random layouts (shorter
        /// than one kernel block, one block, several blocks), programs,
        /// variations, reprogramming cycles and direct cell mutations.
        #[test]
        fn cached_sparse_reads_match_reference_path(
            rows_case in 0usize..3,
            rows_spare in 0usize..64,
            nodes in 1usize..5,
            levels_per_node in 1usize..6,
            has_prior in proptest::bool::ANY,
            program_seed in 0u64..1_000_000,
            sigma_mv in 0.0f64..60.0,
            variation_seed in 0u64..1_000_000,
        ) {
            let events = rows_around_block(rows_case, rows_spare);
            let layout = CrossbarLayout::new(events, nodes, levels_per_node, has_prior).unwrap();
            let programmer = LevelProgrammer::febim_default(10).unwrap();
            let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer);
            let mut rng = VariationModel::seeded_rng(program_seed);

            // Freshly programmed array.
            program_random(&mut array, &mut rng);
            assert_reads_match(&array, &mut rng);

            // After Gaussian threshold-voltage variation.
            let variation = VariationModel::from_millivolts(sigma_mv);
            let mut variation_rng = VariationModel::seeded_rng(variation_seed);
            array.apply_variation(&variation, &mut variation_rng);
            assert_reads_match(&array, &mut rng);

            // After reprogramming the whole array on top of the variation.
            program_random(&mut array, &mut rng);
            assert_reads_match(&array, &mut rng);

            // After a single-cell reprogram and a direct device mutation.
            let row = (rng.gen::<u64>() as usize) % layout.rows();
            let column = (rng.gen::<u64>() as usize) % layout.columns();
            array.program_cell(row, column, 9, ProgrammingMode::Ideal).unwrap();
            assert_reads_match(&array, &mut rng);
            array.cell_mut(row, column).unwrap().device_mut().set_vth_offset(0.02);
            assert_reads_match(&array, &mut rng);
        }

        /// The committed summation order of the sparse read kernel, pinned
        /// against an independent in-test evaluation: off currents in column
        /// order, then four delta lanes striped over the activation order,
        /// combined `((l0+l1)+(l2+l3)) + tail`. Swept over every activation
        /// length up to the full layout so all `chunks_exact(4)` remainder
        /// cases are exercised, on layouts that put the all-rows kernel on
        /// its row-by-row path, one block and several blocks; this keeps
        /// both loop orders and the reference oracle from ever drifting
        /// together.
        #[test]
        fn kernel_summation_order_is_pinned(
            rows_case in 0usize..3,
            rows_spare in 0usize..64,
            nodes in 1usize..4,
            levels_per_node in 1usize..5,
            has_prior in proptest::bool::ANY,
            program_seed in 0u64..1_000_000,
            sigma_mv in 0.0f64..60.0,
        ) {
            let events = rows_around_block(rows_case, rows_spare);
            let layout = CrossbarLayout::new(events, nodes, levels_per_node, has_prior).unwrap();
            let programmer = LevelProgrammer::febim_default(10).unwrap();
            let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer);
            let mut rng = VariationModel::seeded_rng(program_seed);
            program_random(&mut array, &mut rng);
            let variation = VariationModel::from_millivolts(sigma_mv);
            array.apply_variation(&variation, &mut rng);

            let columns = layout.columns();
            for active in 0..=columns {
                // Reversed column order so activation order ≠ column order.
                let picks: Vec<usize> = (0..active).map(|index| columns - 1 - index).collect();
                let activation = Activation::from_columns(&layout, &picks).unwrap();
                let measured = array.wordline_currents(&activation).unwrap();
                let params = array.programmer().params();
                for (row, &value) in measured.iter().enumerate() {
                    let mut off_sum = 0.0;
                    for column in 0..columns {
                        off_sum += array.cell(row, column).unwrap().read_current_off(params);
                    }
                    let deltas: Vec<f64> = picks
                        .iter()
                        .map(|&column| {
                            let cell = array.cell(row, column).unwrap();
                            cell.read_current_on(params) - cell.read_current_off(params)
                        })
                        .collect();
                    let mut lanes = [0.0f64; 4];
                    let full = active / 4 * 4;
                    for (slot, delta) in deltas[..full].iter().enumerate() {
                        lanes[slot % 4] += delta;
                    }
                    let mut tail = 0.0;
                    for delta in &deltas[full..] {
                        tail += delta;
                    }
                    let expected =
                        off_sum + (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail);
                    prop_assert_eq!(
                        value, expected,
                        "row {} with {} active columns", row, active
                    );
                }
            }
        }

        /// A tiled fabric holding the same program as a monolithic array
        /// produces bit-for-bit identical wordline currents across random
        /// layouts, tile shapes, programs and device variations, and both
        /// agree with the uncached fabric reference oracle.
        #[test]
        fn tiled_fabric_reads_match_monolithic(
            events in 1usize..7,
            nodes in 1usize..5,
            levels_per_node in 1usize..5,
            has_prior in proptest::bool::ANY,
            tile_rows in 1usize..4,
            tile_columns in 1usize..8,
            program_seed in 0u64..1_000_000,
            sigma_mv in 0.0f64..60.0,
            variation_seed in 0u64..1_000_000,
        ) {
            let layout = CrossbarLayout::new(events, nodes, levels_per_node, has_prior).unwrap();
            let shape = TileShape::new(tile_rows, tile_columns).unwrap();
            let plan = TilePlan::new(layout, shape).unwrap();
            let programmer = LevelProgrammer::febim_default(10).unwrap();
            let mut grid = TileGrid::new(plan, programmer.clone());
            let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer);

            // Identical random program on both fabrics.
            let mut rng = VariationModel::seeded_rng(program_seed);
            let levels: Vec<Vec<Option<usize>>> = (0..layout.rows())
                .map(|_| {
                    (0..layout.columns())
                        .map(|_| {
                            if rng.gen::<f64>() < 0.25 {
                                None
                            } else {
                                Some((rng.gen::<u64>() % 10) as usize)
                            }
                        })
                        .collect()
                })
                .collect();
            grid.program_matrix(&levels, ProgrammingMode::Ideal).unwrap();
            array.program_matrix(&levels, ProgrammingMode::Ideal).unwrap();

            let evidence: Vec<usize> = (0..nodes)
                .map(|_| (rng.gen::<u64>() as usize) % levels_per_node)
                .collect();
            let sparse = Activation::from_observation(&layout, &evidence).unwrap();
            let all = Activation::all_columns(&layout);
            for activation in [&sparse, &all] {
                let merged = grid.wordline_currents(activation).unwrap();
                prop_assert_eq!(&merged, &array.wordline_currents(activation).unwrap());
                prop_assert_eq!(&merged, &grid.wordline_currents_reference(activation).unwrap());
            }

            // Every activation length up to nine columns keeps the fabric in
            // lockstep with the monolithic array through all 4-lane
            // remainder cases.
            for active in 0..=layout.columns().min(9) {
                let picks: Vec<usize> =
                    (0..active).map(|index| layout.columns() - 1 - index).collect();
                let prefix = Activation::from_columns(&layout, &picks).unwrap();
                prop_assert_eq!(
                    grid.wordline_currents(&prefix).unwrap(),
                    array.wordline_currents(&prefix).unwrap()
                );
            }

            // Identically seeded variation keeps the fabrics in lockstep.
            let variation = VariationModel::from_millivolts(sigma_mv);
            let mut grid_rng = VariationModel::seeded_rng(variation_seed);
            let mut array_rng = VariationModel::seeded_rng(variation_seed);
            grid.apply_variation(&variation, &mut grid_rng);
            array.apply_variation(&variation, &mut array_rng);
            for activation in [&sparse, &all] {
                prop_assert_eq!(
                    grid.wordline_currents(activation).unwrap(),
                    array.wordline_currents(activation).unwrap()
                );
            }
        }

        /// Under a randomized schedule of drift ticks, reads (disturb-tier
        /// crossings), reprogramming and recalibration passes, the
        /// epoch-versioned caches of both the monolithic array and the tiled
        /// fabric stay bit-for-bit identical to the uncached reference
        /// oracles — and to each other — for every non-ideality
        /// configuration (IR-drop, retention drift, read disturb, and their
        /// composition).
        #[test]
        fn noisy_schedules_keep_caches_bit_exact(
            events in 1usize..5,
            nodes in 1usize..4,
            levels_per_node in 1usize..5,
            has_prior in proptest::bool::ANY,
            tile_rows in 1usize..3,
            tile_columns in 1usize..6,
            schedule_seed in 0u64..1_000_000,
            wire_ohm in 0.0f64..100.0,
            drift_millivolts in 0.0f64..15.0,
            reads_per_tier in 1u64..6,
            disturb_millivolts in 0.0f64..3.0,
        ) {
            let layout = CrossbarLayout::new(events, nodes, levels_per_node, has_prior).unwrap();
            let stack = NonIdealityStack::ideal()
                .with_wire(WireResistance::uniform(wire_ohm))
                .with_drift(RetentionDrift::new(drift_millivolts * 1e-3, 50))
                .with_disturb(ReadDisturb::new(reads_per_tier, disturb_millivolts * 1e-3));
            let programmer = LevelProgrammer::febim_default(10).unwrap();
            let mut array = TileGrid::with_non_idealities(
                TilePlan::monolithic(layout),
                programmer.clone(),
                stack,
            )
            .unwrap();
            let plan =
                TilePlan::new(layout, TileShape::new(tile_rows, tile_columns).unwrap()).unwrap();
            let mut grid = TileGrid::with_non_idealities(plan, programmer, stack).unwrap();

            let mut rng = VariationModel::seeded_rng(schedule_seed);
            let levels: Vec<Vec<Option<usize>>> = (0..layout.rows())
                .map(|_| {
                    (0..layout.columns())
                        .map(|_| Some((rng.gen::<u64>() % 10) as usize))
                        .collect()
                })
                .collect();
            array.program_matrix(&levels, ProgrammingMode::Ideal).unwrap();
            grid.program_matrix(&levels, ProgrammingMode::Ideal).unwrap();

            for step in 0..10u32 {
                match rng.gen::<u64>() % 4 {
                    0 => {
                        let ticks = rng.gen::<u64>() % 500;
                        array.advance_time(ticks);
                        grid.advance_time(ticks);
                    }
                    1 => {
                        let row = (rng.gen::<u64>() as usize) % layout.rows();
                        let column = (rng.gen::<u64>() as usize) % layout.columns();
                        let level = (rng.gen::<u64>() % 10) as usize;
                        array.program_cell(row, column, level, ProgrammingMode::Ideal).unwrap();
                        grid.program_cell(row, column, level, ProgrammingMode::Ideal).unwrap();
                    }
                    2 => {
                        let a = array.recalibrate(0.02, ProgrammingMode::Ideal).unwrap();
                        let g = grid.recalibrate(0.02, ProgrammingMode::Ideal).unwrap();
                        prop_assert_eq!(a.rows_refreshed, g.rows_refreshed, "step {}", step);
                        prop_assert_eq!(a.cells_refreshed, g.cells_refreshed, "step {}", step);
                    }
                    _ => {}
                }
                let evidence: Vec<usize> = (0..nodes)
                    .map(|_| (rng.gen::<u64>() as usize) % levels_per_node)
                    .collect();
                let activation = Activation::from_observation(&layout, &evidence).unwrap();
                // One cached read per fabric per step: read counters advance
                // in lockstep, so cached, reference and cross-fabric values
                // must all coincide exactly.
                let from_array = array.wordline_currents(&activation).unwrap();
                let from_grid = grid.wordline_currents(&activation).unwrap();
                prop_assert_eq!(&from_array, &from_grid, "step {}", step);
                prop_assert_eq!(
                    &from_array,
                    &array.wordline_currents_reference(&activation).unwrap(),
                    "step {}",
                    step
                );
                prop_assert_eq!(
                    &from_grid,
                    &grid.wordline_currents_reference(&activation).unwrap(),
                    "step {}",
                    step
                );
            }
        }

        /// Spare-row self-repair is read-transparent: after injecting
        /// permanent stuck-at faults at random coordinates and scrubbing, a
        /// fabric provisioned with enough spare rows serves every activation
        /// bit-identically to an unfaulted fabric holding the same program —
        /// including under a position-dependent (IR-drop) stack, because
        /// non-idealities are evaluated in logical coordinates.
        #[test]
        fn remapped_spare_reads_are_bit_identical(
            events in 1usize..6,
            nodes in 1usize..5,
            levels_per_node in 1usize..5,
            has_prior in proptest::bool::ANY,
            tile_rows in 1usize..4,
            tile_columns in 1usize..8,
            fault_seed in 0u64..1_000_000,
            wire_ohm in 0.0f64..80.0,
        ) {
            let layout = CrossbarLayout::new(events, nodes, levels_per_node, has_prior).unwrap();
            // Enough spares for the worst case: every logical row of every
            // tile remapped.
            let shape = TileShape::new(tile_rows, tile_columns)
                .unwrap()
                .with_spare_rows(tile_rows);
            let plan = TilePlan::new(layout, shape).unwrap();
            let stack = NonIdealityStack::ideal().with_wire(WireResistance::uniform(wire_ohm));
            let programmer = LevelProgrammer::febim_default(10).unwrap();
            let mut grid =
                TileGrid::with_non_idealities(plan, programmer.clone(), stack).unwrap();
            let mut pristine = TileGrid::with_non_idealities(
                TilePlan::new(layout, TileShape::new(tile_rows, tile_columns).unwrap()).unwrap(),
                programmer,
                stack,
            )
            .unwrap();

            let mut rng = VariationModel::seeded_rng(fault_seed);
            let levels: Vec<Vec<Option<usize>>> = (0..layout.rows())
                .map(|_| {
                    (0..layout.columns())
                        .map(|_| Some((rng.gen::<u64>() % 10) as usize))
                        .collect()
                })
                .collect();
            grid.program_matrix(&levels, ProgrammingMode::Ideal).unwrap();
            pristine.program_matrix(&levels, ProgrammingMode::Ideal).unwrap();

            // Permanent stuck-at faults at up to four random coordinates.
            for _ in 0..=(rng.gen::<u64>() % 4) {
                let row = (rng.gen::<u64>() as usize) % layout.rows();
                let column = (rng.gen::<u64>() as usize) % layout.columns();
                let kind = if rng.gen::<f64>() < 0.5 {
                    FaultKind::StuckErased
                } else {
                    FaultKind::StuckProgrammed
                };
                apply_scheduled_fault(&mut grid, row, column, kind, true).unwrap();
            }

            // A tight tolerance: healthy cells sit exactly on target under
            // Ideal programming and a wire-only stack, while any stuck-at
            // polarization flip is macroscopic.
            let outcome = grid.scrub(1e-6, ProgrammingMode::Ideal).unwrap();
            prop_assert!(outcome.fully_repaired(), "spares were provisioned for every row");

            let all = Activation::all_columns(&layout);
            prop_assert_eq!(
                grid.wordline_currents(&all).unwrap(),
                pristine.wordline_currents(&all).unwrap()
            );
            for active in 0..=layout.columns().min(9) {
                let picks: Vec<usize> =
                    (0..active).map(|index| layout.columns() - 1 - index).collect();
                let prefix = Activation::from_columns(&layout, &picks).unwrap();
                prop_assert_eq!(
                    grid.wordline_currents(&prefix).unwrap(),
                    pristine.wordline_currents(&prefix).unwrap()
                );
            }
        }

        /// Packed bit-plane reads are bit-identical across the cached
        /// monolithic kernel, the cached tiled fabric (including through a
        /// spare-row remap after scrub), their uncached reference oracles,
        /// and an independent in-test unpack oracle computed from the public
        /// per-cell read currents — for random bit widths (1–8), plane
        /// counts, tile shapes, programs and IR-drop strengths.
        #[test]
        fn packed_plane_reads_match_unpacked_oracles(
            events in 1usize..5,
            nodes in 1usize..4,
            levels_per_node in 1usize..5,
            bits in 1u32..9,
            planes_hint in 1usize..9,
            tile_rows in 1usize..4,
            tile_columns in 1usize..8,
            program_seed in 0u64..1_000_000,
            wire_ohm in 0.0f64..80.0,
        ) {
            let layout = CrossbarLayout::new(events, nodes, levels_per_node, false).unwrap();
            let state_count = 1usize << bits;
            let programmer = LevelProgrammer::febim_default(state_count).unwrap();
            let ladder = LevelLadder::new(
                programmer.min_current(),
                programmer.max_current(),
                state_count,
            )
            .unwrap();
            let planes = planes_hint.min(bits as usize);
            let stack = NonIdealityStack::ideal().with_wire(WireResistance::uniform(wire_ohm));
            let mut array = TileGrid::with_non_idealities(
                TilePlan::monolithic(layout),
                programmer.clone(),
                stack,
            )
            .unwrap();
            let shape = TileShape::new(tile_rows, tile_columns)
                .unwrap()
                .with_spare_rows(tile_rows);
            let plan = TilePlan::new(layout, shape).unwrap();
            let mut grid =
                TileGrid::with_non_idealities(plan, programmer.clone(), stack).unwrap();
            // An ideal-stack twin whose cell currents are publicly readable:
            // the independent unpack oracle below digitizes those directly,
            // keeping the check decoupled from the shared kernel helper.
            let mut ideal = TileGrid::new(TilePlan::monolithic(layout), programmer);

            let mut rng = VariationModel::seeded_rng(program_seed);
            let levels: Vec<Vec<Option<usize>>> = (0..layout.rows())
                .map(|_| {
                    (0..layout.columns())
                        .map(|_| Some((rng.gen::<u64>() as usize) % state_count))
                        .collect()
                })
                .collect();
            array.program_matrix(&levels, ProgrammingMode::Ideal).unwrap();
            grid.program_matrix(&levels, ProgrammingMode::Ideal).unwrap();
            ideal.program_matrix(&levels, ProgrammingMode::Ideal).unwrap();

            // A permanent fault plus a scrub routes one wordline segment of
            // the fabric through a spare row; packed reads must not notice.
            let fault_row = (rng.gen::<u64>() as usize) % layout.rows();
            let fault_col = (rng.gen::<u64>() as usize) % layout.columns();
            apply_scheduled_fault(
                &mut grid,
                fault_row,
                fault_col,
                FaultKind::StuckErased,
                true,
            )
            .unwrap();
            let outcome = grid.scrub(1e-6, ProgrammingMode::Ideal).unwrap();
            prop_assert!(outcome.fully_repaired());

            let evidence: Vec<usize> = (0..nodes)
                .map(|_| (rng.gen::<u64>() as usize) % levels_per_node)
                .collect();
            let sparse = Activation::from_observation(&layout, &evidence).unwrap();
            let all = Activation::all_columns(&layout);
            let mut scratch = Vec::new();
            let mut from_array = Vec::new();
            let mut from_grid = Vec::new();
            let mut from_ideal = Vec::new();
            for activation in [&sparse, &all] {
                let offsets: Vec<u8> = (0..activation.len())
                    .map(|_| {
                        ((rng.gen::<u64>() as usize) % (bits as usize - planes + 1)) as u8
                    })
                    .collect();
                array
                    .plane_partial_sums_into(
                        activation, &offsets, planes, &ladder, &mut scratch, &mut from_array,
                    )
                    .unwrap();
                grid.plane_partial_sums_into(
                    activation, &offsets, planes, &ladder, &mut scratch, &mut from_grid,
                )
                .unwrap();
                prop_assert_eq!(&from_array, &from_grid);
                prop_assert_eq!(
                    &from_array,
                    &array
                        .plane_partial_sums_reference(activation, &offsets, planes, &ladder)
                        .unwrap()
                );
                prop_assert_eq!(
                    &from_grid,
                    &grid
                        .plane_partial_sums_reference(activation, &offsets, planes, &ladder)
                        .unwrap()
                );
                // Independent unpack oracle (partials are exact integers, so
                // plain left-to-right accumulation must coincide exactly).
                ideal
                    .plane_partial_sums_into(
                        activation, &offsets, planes, &ladder, &mut scratch, &mut from_ideal,
                    )
                    .unwrap();
                for row in 0..layout.rows() {
                    for plane in 0..planes {
                        let mut count = 0.0;
                        for (slot, &column) in activation.active_columns().iter().enumerate() {
                            let level = ladder.level_for_current(
                                ideal.cell(row, column).unwrap().read_current_on(ideal.programmer().params()),
                            );
                            count +=
                                f64::from(((level >> (offsets[slot] as usize + plane)) & 1) as u32);
                        }
                        prop_assert_eq!(
                            from_ideal[row * planes + plane],
                            count,
                            "row {} plane {}",
                            row,
                            plane
                        );
                    }
                }
            }
        }

        /// The O(1) activation mask agrees with a linear scan of the column
        /// list for every column of the layout.
        #[test]
        fn activation_mask_matches_column_list(
            nodes in 1usize..8,
            levels in 1usize..6,
            has_prior in proptest::bool::ANY,
            column_seed in 0u64..1_000_000,
        ) {
            let layout = CrossbarLayout::new(2, nodes, levels, has_prior).unwrap();
            let mut rng = VariationModel::seeded_rng(column_seed);
            let picks: Vec<usize> = (0..nodes)
                .map(|_| (rng.gen::<u64>() as usize) % layout.columns())
                .collect();
            let activation = Activation::from_columns(&layout, &picks).unwrap();
            for column in 0..layout.columns() + 2 {
                prop_assert_eq!(
                    activation.is_active(column),
                    activation.active_columns().contains(&column)
                );
            }
        }
    }
}
