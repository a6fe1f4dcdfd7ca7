//! Sensing for a tiled crossbar fabric.
//!
//! A model sharded across a grid of fixed-size tiles reads differently from
//! a monolithic array: every tile settles its own (smaller) bitline load in
//! parallel, each tile's per-row current mirrors copy the partial wordline
//! currents onto a merge bus that forms the full log-posterior currents, and
//! a single fabric-level WTA resolves the winner over the merged rows. This
//! module holds that read path's pieces:
//!
//! * [`TileGeometry`] describes one tile's occupied geometry and how many of
//!   its bitlines a given read activates; a read's tiles form a
//!   [`ReadGeometry::Fabric`], which [`SensingChain::decide_and_price`]
//!   senses and prices;
//! * [`SensingChain::sense_fabric_into`] is the allocation-free composed
//!   read, the tiled counterpart of [`SensingChain::sense_into`].
//!
//! The decision path is identical to the monolithic one — the same mirror
//! copies and the same WTA resolve over the merged currents — so a fabric
//! whose merged currents are bit-identical to a monolithic array's produces
//! bit-identical winners; only delay and energy reflect the tiling.

use serde::Serialize;

use crate::errors::{CircuitError, Result};
use crate::sense::{ReadGeometry, SenseReadout, SensingChain};

/// Occupied geometry of one fabric tile during a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TileGeometry {
    /// Occupied wordlines of the tile.
    pub rows: usize,
    /// Occupied bitlines of the tile.
    pub columns: usize,
    /// Bitlines of this tile driven during the read (0 when no activated
    /// column falls into the tile's column range).
    pub activated_columns: usize,
}

/// Checks that `tiles` is a non-empty grid of `col_tiles` tile columns whose
/// tiles are occupied and activate no more bitlines than they hold.
pub(crate) fn validate_tiles(tiles: &[TileGeometry], col_tiles: usize) -> Result<()> {
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
    /// The errors of [`SensingChain::decide_and_price`] on a
    /// [`ReadGeometry::Fabric`], in its order; then
    /// [`CircuitError::AmbiguousWinner`] when the mirror copies tie.
    pub fn sense_fabric_into(
        &self,
        merged_currents: &[f64],
        tiles: &[TileGeometry],
        col_tiles: usize,
        mirrored_scratch: &mut Vec<f64>,
    ) -> Result<SenseReadout> {
        let geometry = ReadGeometry::Fabric { tiles, col_tiles };
        let read = self.decide_and_price(geometry, None, merged_currents, mirrored_scratch)?;
        self.readout(read, mirrored_scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sense::{reference, SensedRead};

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

    const MERGED: [f64; 3] = [1.0e-6, 1.4e-6, 0.8e-6];

    /// Senses a one-hot read of [`MERGED`] on `tiles`.
    fn sense_grid(tiles: &[TileGeometry], col_tiles: usize) -> Result<SensedRead> {
        let geometry = ReadGeometry::Fabric { tiles, col_tiles };
        chain().decide_and_price(geometry, None, &MERGED, &mut Vec::new())
    }

    #[test]
    fn tile_validation_rejects_degenerate_grids() {
        assert!(matches!(sense_grid(&[], 1), Err(CircuitError::EmptyInput)));
        assert!(sense_grid(&grid_2x2(), 3).is_err());
        assert!(sense_grid(&grid_2x2(), 0).is_err());
        let mut zero = grid_2x2();
        zero[1].rows = 0;
        assert!(sense_grid(&zero, 2).is_err());
        let mut over = grid_2x2();
        over[0].activated_columns = 99;
        assert!(sense_grid(&over, 2).is_err());
    }

    #[test]
    fn fabric_delay_tracks_the_slowest_tile_not_the_sum() {
        let chain = chain();
        let tiled = sense_grid(&grid_2x2(), 2).unwrap().delay;
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
        let SensedRead { delay, energy, .. } = sense_grid(&grid_2x2(), 2).unwrap();
        let params = chain.energy_model().params();
        let monolithic = reference::inference(&chain, &MERGED, 4, delay.total()).unwrap();
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
        let mut mirrored = Vec::new();
        let tiles = grid_2x2();
        let geometry = ReadGeometry::Fabric {
            tiles: &tiles,
            col_tiles: 2,
        };
        assert!(matches!(
            chain.decide_and_price(geometry, None, &[], &mut mirrored),
            Err(CircuitError::EmptyInput)
        ));
        assert!(matches!(
            chain.decide_and_price(geometry, None, &[1e-6, f64::NAN], &mut mirrored),
            Err(CircuitError::InvalidCurrent { index: 1, .. })
        ));
    }
}
