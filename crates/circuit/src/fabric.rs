//! Sensing aggregation for a tiled crossbar fabric.
//!
//! A model sharded across a grid of fixed-size tiles reads differently from
//! a monolithic array: every tile settles its own (smaller) bitline load in
//! parallel, each tile's per-row current mirrors copy the partial wordline
//! currents onto a merge bus that forms the full log-posterior currents, and
//! a single fabric-level WTA resolves the winner over the merged rows. This
//! module extends [`SensingChain`] with that read path:
//!
//! * [`TileGeometry`] describes one tile's occupied geometry and how many of
//!   its bitlines a given read activates;
//! * [`SensingChain::fabric_delay`] prices the parallel tile settling, the
//!   partial-sum merge and the fabric WTA;
//! * [`SensingChain::fabric_energy`] sums the per-tile driver energies (each
//!   tile row re-drives its activated bitlines — the intrinsic overhead of
//!   row sharding) on top of conduction, mirror and WTA energy;
//! * [`SensingChain::sense_fabric_into`] is the allocation-free composed
//!   read, the tiled counterpart of [`SensingChain::sense_into`].
//!
//! The decision path is identical to the monolithic one — the same mirror
//! copies and the same WTA resolve over the merged currents — so a fabric
//! whose merged currents are bit-identical to a monolithic array's produces
//! bit-identical winners; only delay and energy reflect the tiling.

use serde::{Deserialize, Serialize};

use crate::delay::DelayBreakdown;
use crate::energy::InferenceEnergy;
use crate::errors::{CircuitError, Result};
use crate::sense::{SenseReadout, SensingChain};

/// Occupied geometry of one fabric tile during a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileGeometry {
    /// Occupied wordlines of the tile.
    pub rows: usize,
    /// Occupied bitlines of the tile.
    pub columns: usize,
    /// Bitlines of this tile driven during the read (0 when no activated
    /// column falls into the tile's column range).
    pub activated_columns: usize,
}

fn validate_tiles(tiles: &[TileGeometry], col_tiles: usize) -> Result<()> {
    if tiles.is_empty() {
        return Err(CircuitError::EmptyInput);
    }
    if col_tiles == 0 || !tiles.len().is_multiple_of(col_tiles) {
        return Err(CircuitError::InvalidParameter {
            name: "col_tiles",
            reason: format!(
                "{col_tiles} tile columns cannot partition {} tiles",
                tiles.len()
            ),
        });
    }
    for (index, tile) in tiles.iter().enumerate() {
        if tile.rows == 0 || tile.columns == 0 {
            return Err(CircuitError::InvalidParameter {
                name: "tile_geometry",
                reason: format!(
                    "tile {index} has zero occupied geometry ({}x{})",
                    tile.rows, tile.columns
                ),
            });
        }
        if tile.activated_columns > tile.columns {
            return Err(CircuitError::InvalidParameter {
                name: "tile_geometry",
                reason: format!(
                    "tile {index} activates {} of {} bitlines",
                    tile.activated_columns, tile.columns
                ),
            });
        }
    }
    Ok(())
}

impl SensingChain {
    /// Worst-case delay of one tiled read.
    ///
    /// All tiles settle in parallel, so the array component is the maximum
    /// per-tile settling time; the partial-sum merge bus adds one per-column
    /// load per tile column it collects; the fabric WTA then resolves over
    /// the merged rows with the calibrated worst-case current gap.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyInput`] for an empty tile list,
    /// [`CircuitError::InvalidParameter`] for inconsistent grid dimensions or
    /// degenerate tiles, and propagates delay-model errors.
    pub fn fabric_delay(
        &self,
        tiles: &[TileGeometry],
        col_tiles: usize,
        merged_rows: usize,
    ) -> Result<DelayBreakdown> {
        validate_tiles(tiles, col_tiles)?;
        let params = self.delay_model().params();
        let slowest_tile = tiles
            .iter()
            .map(|tile| params.array_base + params.per_column * tile.columns as f64)
            .fold(f64::NEG_INFINITY, f64::max);
        let merge = params.per_column * col_tiles as f64;
        let sensing = self.wta().settling_time(
            merged_rows.max(1),
            params.worst_case_gap * self.mirror().gain,
        );
        Ok(DelayBreakdown {
            array: slowest_tile + merge,
            sensing,
        })
    }

    /// Energy of one tiled read.
    ///
    /// Driver energy accumulates per tile — each tile row re-drives the
    /// activated bitlines that fall into its column range, the intrinsic
    /// cost of row sharding — while conduction and mirror energy are priced
    /// on the merged currents (both are linear in current, so the per-tile
    /// partial sums and the merged totals are interchangeable) and the WTA
    /// burns its bias branches over the merged rows.
    ///
    /// `mirrored_currents` must be `mirror().copy_all` of `merged_currents`.
    ///
    /// # Errors
    ///
    /// Returns the tile-validation errors of
    /// [`SensingChain::fabric_delay`] plus [`CircuitError::EmptyInput`] /
    /// [`CircuitError::InvalidCurrent`] for bad merged currents.
    pub fn fabric_energy(
        &self,
        merged_currents: &[f64],
        mirrored_currents: &[f64],
        tiles: &[TileGeometry],
        col_tiles: usize,
        duration: f64,
    ) -> Result<InferenceEnergy> {
        validate_tiles(tiles, col_tiles)?;
        if merged_currents.is_empty() {
            return Err(CircuitError::EmptyInput);
        }
        for (index, &value) in merged_currents.iter().enumerate() {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(CircuitError::InvalidCurrent { index, value });
            }
        }
        let duration = duration.max(0.0);
        let energy_params = self.energy_model().params();
        let drivers: f64 = tiles
            .iter()
            .map(|tile| {
                tile.activated_columns as f64 * energy_params.bitline_driver_energy
                    + tile.rows as f64 * energy_params.wordline_driver_energy
            })
            .sum();
        let total_current: f64 = merged_currents.iter().sum();
        let conduction = total_current * energy_params.read_drain_bias * duration;
        let mirror_energy: f64 = merged_currents
            .iter()
            .map(|&current| self.mirror().energy(current, duration))
            .sum();
        let wta_energy = self.wta().energy(mirrored_currents, duration);
        Ok(InferenceEnergy {
            array: drivers + conduction,
            sensing: mirror_energy + wta_energy,
        })
    }

    /// Senses one tiled read without allocating: mirrors the merged
    /// wordline currents into `mirrored_scratch` (cleared first), resolves
    /// the fabric WTA and prices the tiled delay and energy.
    ///
    /// The winner decision is computed exactly as in
    /// [`SensingChain::sense_into`] — same mirror, same WTA, same inputs —
    /// so tiling never changes a prediction, only its telemetry.
    ///
    /// # Errors
    ///
    /// Propagates mirror, WTA (including
    /// [`CircuitError::AmbiguousWinner`] for exact ties), delay and energy
    /// errors.
    pub fn sense_fabric_into(
        &self,
        merged_currents: &[f64],
        tiles: &[TileGeometry],
        col_tiles: usize,
        mirrored_scratch: &mut Vec<f64>,
    ) -> Result<SenseReadout> {
        self.mirror()
            .copy_all_into(merged_currents, mirrored_scratch)?;
        let decision = self.wta().resolve(mirrored_scratch)?;
        let delay = self.fabric_delay(tiles, col_tiles, merged_currents.len())?;
        let energy = self.fabric_energy(
            merged_currents,
            mirrored_scratch,
            tiles,
            col_tiles,
            delay.total(),
        )?;
        Ok(SenseReadout {
            winner: decision.winner,
            decision,
            delay,
            energy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> SensingChain {
        SensingChain::febim_calibrated()
    }

    fn grid_2x2() -> Vec<TileGeometry> {
        vec![
            TileGeometry {
                rows: 2,
                columns: 9,
                activated_columns: 3,
            },
            TileGeometry {
                rows: 2,
                columns: 7,
                activated_columns: 1,
            },
            TileGeometry {
                rows: 1,
                columns: 9,
                activated_columns: 3,
            },
            TileGeometry {
                rows: 1,
                columns: 7,
                activated_columns: 1,
            },
        ]
    }

    #[test]
    fn tile_validation_rejects_degenerate_grids() {
        let chain = chain();
        assert!(matches!(
            chain.fabric_delay(&[], 1, 3),
            Err(CircuitError::EmptyInput)
        ));
        assert!(chain.fabric_delay(&grid_2x2(), 3, 3).is_err());
        assert!(chain.fabric_delay(&grid_2x2(), 0, 3).is_err());
        let mut zero = grid_2x2();
        zero[1].rows = 0;
        assert!(chain.fabric_delay(&zero, 2, 3).is_err());
        let mut over = grid_2x2();
        over[0].activated_columns = 99;
        assert!(chain.fabric_delay(&over, 2, 3).is_err());
    }

    #[test]
    fn fabric_delay_tracks_the_slowest_tile_not_the_sum() {
        let chain = chain();
        let tiled = chain.fabric_delay(&grid_2x2(), 2, 3).unwrap();
        // The widest tile has 9 columns; the monolithic equivalent has 16.
        let monolithic = chain
            .delay_model()
            .worst_case(3, 16, chain.wta(), chain.mirror().gain)
            .unwrap();
        assert!(tiled.array < monolithic.array);
        assert_eq!(tiled.sensing, monolithic.sensing);
        assert!(tiled.total() > 0.0);
    }

    #[test]
    fn fabric_energy_charges_every_tile_row_for_its_drivers() {
        let chain = chain();
        let merged = [1.0e-6, 1.4e-6, 0.8e-6];
        let mirrored = chain.mirror().copy_all(&merged).unwrap();
        let tiles = grid_2x2();
        let energy = chain
            .fabric_energy(&merged, &mirrored, &tiles, 2, 500e-12)
            .unwrap();
        let params = chain.energy_model().params();
        let monolithic = chain
            .energy_model()
            .inference(&merged, 4, 500e-12, chain.mirror(), chain.wta())
            .unwrap();
        // The grid drives 3+1+3+1 = 8 bitlines across 2+2+1+1 = 6 tile rows;
        // the monolithic array drives 4 bitlines across 3 rows. Conduction is
        // identical, so the gap is exactly the extra driver energy.
        let extra_drivers =
            4.0 * params.bitline_driver_energy + 3.0 * params.wordline_driver_energy;
        assert!((energy.array - monolithic.array - extra_drivers).abs() < 1e-24);
        assert_eq!(energy.sensing, monolithic.sensing);
        assert!(energy.total() > 0.0);
    }

    #[test]
    fn sense_fabric_matches_monolithic_winner() {
        let chain = chain();
        let merged = [0.8e-6, 1.6e-6, 1.2e-6];
        let mut scratch = Vec::new();
        let fabric = chain
            .sense_fabric_into(&merged, &grid_2x2(), 2, &mut scratch)
            .unwrap();
        let monolithic = chain.sense(&merged, 4).unwrap();
        assert_eq!(fabric.winner, monolithic.winner);
        assert_eq!(scratch, monolithic.mirrored_currents);
        assert!(fabric.delay.total() > 0.0);
        assert!(fabric.energy.total() > 0.0);
    }

    #[test]
    fn exact_ties_still_surface_as_ambiguous() {
        let chain = chain();
        let mut scratch = Vec::new();
        assert!(matches!(
            chain.sense_fabric_into(&[1e-6, 1e-6], &grid_2x2(), 2, &mut scratch),
            Err(CircuitError::AmbiguousWinner { .. })
        ));
    }

    #[test]
    fn invalid_merged_currents_rejected() {
        let chain = chain();
        let mirrored = [0.1e-6];
        assert!(chain
            .fabric_energy(&[], &mirrored, &grid_2x2(), 2, 1e-9)
            .is_err());
        assert!(chain
            .fabric_energy(&[f64::NAN], &mirrored, &grid_2x2(), 2, 1e-9)
            .is_err());
    }
}
