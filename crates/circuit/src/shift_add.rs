//! Shift-add sensing stage for packed bit-plane reads.
//!
//! A bit-plane-packed crossbar (see the quant crate's `Encoding::BitPlane`)
//! does not read log-posterior currents directly: one read cycle produces,
//! per wordline, one exact-integer partial sum per bit plane — the count of
//! activated columns whose selected digit has that plane's bit set. The
//! sensing module then merges the planes with a shift-add bus:
//!
//! ```text
//! score[row]  = Σ_plane 2^plane · partial[row][plane]      (exact integer)
//! current[row] = floor_current + lsb_current · score[row]  (one affine map)
//! ```
//!
//! Every summand is an exact integer in `f64` (bit counts times powers of
//! two), so the merged scores carry no floating-point reassociation hazard;
//! scaling into the current domain happens exactly once, at the end. The
//! merged currents then drive the very same mirror and WTA as a one-hot
//! read, so packing never changes the decision path — only the column
//! footprint and the read telemetry.
//!
//! Pricing: shift-add is one step of any packed read, so
//! [`SensingChain::price`] adds its surcharge on top of the base read of
//! either geometry, the monolithic array or a tiled fabric. The merge bus
//! re-uses the array's column-settling constant once per plane on top of
//! the (much narrower) packed-column settling, charges one bitline-driver
//! switch per merged row per plane for the shift-add accumulators, and
//! digitizes every driven multi-bit cell with `cell_bits` ladder
//! comparisons.

use crate::errors::{CircuitError, Result};
use crate::fabric::TileGeometry;
use crate::sense::{ReadGeometry, SenseReadout, SensingChain};

/// Merges per-plane partial sums into wordline currents, written into
/// `merged` (cleared first).
///
/// `plane_sums` holds `rows × planes` entries laid out
/// `plane_sums[row * planes + plane]`; each entry must be a non-negative
/// finite count. `lsb_current` is the current step of one least-significant
/// score unit and `floor_current` the shared per-row offset (both in
/// amperes).
///
/// # Errors
///
/// Returns [`CircuitError::EmptyInput`] for no partial sums,
/// [`CircuitError::InvalidParameter`] for a zero plane count, a partial-sum
/// length that does not tile into planes, a non-positive `lsb_current` or a
/// negative `floor_current`, and [`CircuitError::InvalidCurrent`] for a
/// negative or non-finite partial sum.
pub fn merge_plane_sums_into(
    plane_sums: &[f64],
    planes: usize,
    lsb_current: f64,
    floor_current: f64,
    merged: &mut Vec<f64>,
) -> Result<()> {
    if plane_sums.is_empty() {
        return Err(CircuitError::EmptyInput);
    }
    check_planes(planes)?;
    if !plane_sums.len().is_multiple_of(planes) {
        return Err(CircuitError::InvalidParameter {
            name: "plane_sums",
            reason: format!(
                "{} partial sums cannot tile into {planes} planes",
                plane_sums.len()
            ),
        });
    }
    if !(lsb_current > 0.0 && lsb_current.is_finite()) {
        return Err(CircuitError::InvalidParameter {
            name: "lsb_current",
            reason: format!("must be positive and finite, got {lsb_current}"),
        });
    }
    if !(floor_current >= 0.0 && floor_current.is_finite()) {
        return Err(CircuitError::InvalidParameter {
            name: "floor_current",
            reason: format!("must be non-negative and finite, got {floor_current}"),
        });
    }
    for (index, &value) in plane_sums.iter().enumerate() {
        if !(value >= 0.0 && value.is_finite()) {
            return Err(CircuitError::InvalidCurrent { index, value });
        }
    }
    let rows = plane_sums.len() / planes;
    merged.clear();
    merged.reserve(rows);
    for row in 0..rows {
        let base = row * planes;
        // Integer partial sums times exact powers of two: the score is an
        // exact integer in f64 however the terms associate.
        let mut score = 0.0;
        for (plane, &partial) in plane_sums[base..base + planes].iter().enumerate() {
            score += partial * (1u64 << plane) as f64;
        }
        merged.push(floor_current + lsb_current * score);
    }
    Ok(())
}

/// Rejects a packed read without bit planes.
pub(crate) fn check_planes(planes: usize) -> Result<()> {
    if planes == 0 {
        return Err(CircuitError::InvalidParameter {
            name: "planes",
            reason: "a packed read carries at least one bit plane".to_string(),
        });
    }
    Ok(())
}

/// Rejects a packed cell that stores no bit.
pub(crate) fn check_cell_bits(cell_bits: usize) -> Result<()> {
    if cell_bits == 0 {
        return Err(CircuitError::InvalidParameter {
            name: "cell_bits",
            reason: "a packed cell stores at least one bit".to_string(),
        });
    }
    Ok(())
}

impl SensingChain {
    /// Senses one packed shift-add read on a tiled fabric without
    /// allocating: merges the plane partials into `merged_scratch`, mirrors
    /// them into `mirrored_scratch` (both cleared first), resolves the WTA
    /// and prices the packed fabric delay and energy.
    ///
    /// The decision runs over the merged currents through the exact mirror
    /// and WTA a one-hot read uses. Packed integer scores tie far more often
    /// than analog sums, so callers should expect and handle
    /// [`CircuitError::AmbiguousWinner`]; [`SensingChain::price`] lets a tie
    /// fallback price the read identically.
    ///
    /// # Errors
    ///
    /// Propagates merge, mirror, WTA (including
    /// [`CircuitError::AmbiguousWinner`] for tied integer scores), delay and
    /// energy errors.
    #[allow(clippy::too_many_arguments)]
    pub fn sense_shift_add_fabric_into(
        &self,
        plane_sums: &[f64],
        planes: usize,
        cell_bits: usize,
        lsb_current: f64,
        floor_current: f64,
        tiles: &[TileGeometry],
        col_tiles: usize,
        merged_scratch: &mut Vec<f64>,
        mirrored_scratch: &mut Vec<f64>,
    ) -> Result<SenseReadout> {
        merge_plane_sums_into(
            plane_sums,
            planes,
            lsb_current,
            floor_current,
            merged_scratch,
        )?;
        let geometry = ReadGeometry::Fabric { tiles, col_tiles };
        self.read_into(
            geometry,
            Some((planes, cell_bits)),
            merged_scratch,
            mirrored_scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> SensingChain {
        SensingChain::febim_calibrated()
    }

    const LSB: f64 = 0.1e-6;

    /// A fabric of one tile with every column activated.
    fn one_tile(rows: usize, columns: usize) -> TileGeometry {
        TileGeometry {
            rows,
            columns,
            activated_columns: columns,
        }
    }

    #[test]
    fn merge_weighs_planes_by_powers_of_two() {
        // Two rows, three planes: scores 1·1 + 2·2 + 4·3 = 17 and
        // 1·4 + 2·0 + 4·1 = 8.
        let sums = [1.0, 2.0, 3.0, 4.0, 0.0, 1.0];
        let mut merged = vec![9.9; 1];
        merge_plane_sums_into(&sums, 3, LSB, 0.0, &mut merged).unwrap();
        assert_eq!(merged, vec![17.0 * LSB, 8.0 * LSB]);
        // A floor offsets every row equally.
        merge_plane_sums_into(&sums, 3, LSB, 0.05e-6, &mut merged).unwrap();
        assert_eq!(merged, vec![0.05e-6 + 17.0 * LSB, 0.05e-6 + 8.0 * LSB]);
    }

    #[test]
    fn merge_validates_its_inputs() {
        let mut merged = Vec::new();
        assert!(matches!(
            merge_plane_sums_into(&[], 2, LSB, 0.0, &mut merged),
            Err(CircuitError::EmptyInput)
        ));
        assert!(merge_plane_sums_into(&[1.0, 2.0], 0, LSB, 0.0, &mut merged).is_err());
        assert!(merge_plane_sums_into(&[1.0, 2.0, 3.0], 2, LSB, 0.0, &mut merged).is_err());
        assert!(merge_plane_sums_into(&[1.0, 2.0], 2, 0.0, 0.0, &mut merged).is_err());
        assert!(merge_plane_sums_into(&[1.0, 2.0], 2, LSB, -1.0, &mut merged).is_err());
        assert!(matches!(
            merge_plane_sums_into(&[1.0, f64::NAN], 2, LSB, 0.0, &mut merged),
            Err(CircuitError::InvalidCurrent { index: 1, .. })
        ));
    }

    #[test]
    fn shift_add_read_picks_the_largest_merged_score() {
        let chain = chain();
        // Scores: 5, 14, 9 over two planes.
        let sums = [1.0, 2.0, 4.0, 5.0, 1.0, 4.0];
        let mut merged = Vec::new();
        let mut mirrored = Vec::new();
        let readout = chain
            .sense_shift_add_fabric_into(
                &sums,
                2,
                2,
                LSB,
                0.0,
                &[one_tile(3, 8)],
                1,
                &mut merged,
                &mut mirrored,
            )
            .unwrap();
        assert_eq!(readout.winner, 1);
        assert_eq!(merged, vec![5.0 * LSB, 14.0 * LSB, 9.0 * LSB]);
        assert_eq!(mirrored.len(), 3);
        assert!(readout.delay.total() > 0.0);
        assert!(readout.energy.total() > 0.0);
    }

    #[test]
    fn tied_integer_scores_surface_as_ambiguous() {
        let chain = chain();
        // Both rows merge to score 6.
        let sums = [2.0, 2.0, 0.0, 3.0];
        let mut merged = Vec::new();
        let mut mirrored = Vec::new();
        assert!(matches!(
            chain.sense_shift_add_fabric_into(
                &sums,
                2,
                2,
                LSB,
                0.0,
                &[one_tile(2, 4)],
                1,
                &mut merged,
                &mut mirrored
            ),
            Err(CircuitError::AmbiguousWinner { .. })
        ));
        // The tie fallback can still price the read.
        let (delay, energy) = chain
            .price(
                ReadGeometry::Array { activated: 4 },
                Some((2, 2)),
                &merged,
                &mirrored,
            )
            .unwrap();
        assert!(delay.total() > 0.0 && energy.total() > 0.0);
    }

    #[test]
    fn shift_add_pricing_adds_the_merge_pass_on_top_of_the_base_read() {
        let chain = chain();
        let merged = [0.5e-6, 1.4e-6, 0.9e-6];
        let mirrored = chain.mirror().copy_all(&merged).unwrap();
        let planes = 2;
        let cell_bits = 4;
        let base_delay = chain
            .delay_model()
            .worst_case(3, 8, chain.wta(), chain.mirror().gain)
            .unwrap();
        let (packed_delay, packed_energy) = chain
            .price(
                ReadGeometry::Array { activated: 8 },
                Some((planes, cell_bits)),
                &merged,
                &mirrored,
            )
            .unwrap();
        let per_column = chain.delay_model().params().per_column;
        assert!((packed_delay.array - base_delay.array - per_column * planes as f64).abs() < 1e-24);
        assert_eq!(packed_delay.sensing, base_delay.sensing);

        let duration = packed_delay.total();
        let base_energy = chain
            .energy_model()
            .inference(&merged, 8, duration, chain.mirror(), chain.wta())
            .unwrap();
        let per_driver = chain.energy_model().params().bitline_driver_energy;
        assert!(
            (packed_energy.array - base_energy.array - (planes * 3) as f64 * per_driver).abs()
                < 1e-24
        );
        // Multi-level refinement: `cell_bits` ladder comparisons for each of
        // the 8 activated multi-bit cells, priced on the sensing side.
        let per_refine = chain.energy_model().params().level_refine_energy;
        assert!(per_refine > 0.0);
        assert!(
            (packed_energy.sensing - base_energy.sensing - (cell_bits * 8) as f64 * per_refine)
                .abs()
                < 1e-24
        );
    }

    #[test]
    fn fabric_shift_add_matches_the_monolithic_decision() {
        let chain = chain();
        let sums = [1.0, 2.0, 4.0, 5.0, 1.0, 4.0];
        let tiles = vec![
            TileGeometry {
                rows: 2,
                columns: 4,
                activated_columns: 3,
            },
            TileGeometry {
                rows: 1,
                columns: 4,
                activated_columns: 3,
            },
        ];
        let mut merged = Vec::new();
        let mut mirrored = Vec::new();
        let fabric = chain
            .sense_shift_add_fabric_into(
                &sums,
                2,
                2,
                LSB,
                0.0,
                &tiles,
                1,
                &mut merged,
                &mut mirrored,
            )
            .unwrap();
        let mut merged_mono = Vec::new();
        merge_plane_sums_into(&sums, 2, LSB, 0.0, &mut merged_mono).unwrap();
        let monolithic = chain.sense(&merged_mono, 6).unwrap();
        assert_eq!(fabric.winner, monolithic.winner);
        assert_eq!(merged, merged_mono);
        // Fabric pricing layers the per-plane merge pass on the fabric base.
        let fabric_geometry = ReadGeometry::Fabric {
            tiles: &tiles,
            col_tiles: 1,
        };
        let (base, _) = chain
            .price(fabric_geometry, None, &merged, &mirrored)
            .unwrap();
        assert!(
            (fabric.delay.array - base.array - chain.delay_model().params().per_column * 2.0).abs()
                < 1e-24
        );
        // Zero planes and zero cell bits are rejected on either geometry.
        for geometry in [ReadGeometry::Array { activated: 6 }, fabric_geometry] {
            assert!(chain
                .price(geometry, Some((0, 2)), &merged, &mirrored)
                .is_err());
            assert!(chain
                .price(geometry, Some((2, 0)), &merged, &mirrored)
                .is_err());
        }
    }

    #[test]
    fn fabric_refinement_charges_every_activated_tile_column() {
        let chain = chain();
        let merged = [0.5e-6, 1.4e-6, 0.9e-6];
        let mirrored = chain.mirror().copy_all(&merged).unwrap();
        let tiles = vec![
            TileGeometry {
                rows: 2,
                columns: 4,
                activated_columns: 3,
            },
            TileGeometry {
                rows: 1,
                columns: 4,
                activated_columns: 2,
            },
        ];
        let cell_bits = 3;
        let geometry = ReadGeometry::Fabric {
            tiles: &tiles,
            col_tiles: 1,
        };
        let (delay, packed) = chain
            .price(geometry, Some((2, cell_bits)), &merged, &mirrored)
            .unwrap();
        // Stacked in one tile column, the tiles drive 3 + 2 bitlines over
        // 2 + 1 wordlines, the drivers of a 3-row array driving 5 bitlines:
        // that array's energy at the packed duration is the one-hot base.
        let base = chain
            .energy_model()
            .inference(&merged, 5, delay.total(), chain.mirror(), chain.wta())
            .unwrap();
        let params = *chain.energy_model().params();
        // 5 activated cells across both tiles × 3 refinement comparisons.
        assert!(
            (packed.sensing - base.sensing - (cell_bits * 5) as f64 * params.level_refine_energy)
                .abs()
                < 1e-24
        );
        assert!(
            (packed.array - base.array - (2 * merged.len()) as f64 * params.bitline_driver_energy)
                .abs()
                < 1e-24
        );
    }
}
