//! The complete sensing module: per-row current mirrors feeding the
//! winner-take-all circuit (the right-hand side of Fig. 3 in the paper),
//! and the one cost model every read is priced by.
//!
//! [`SensingChain::price`] prices one read on its [`ReadGeometry`]: the
//! base read of the paper's monolithic array or of a tiled fabric, plus the
//! shift-add surcharge of a bit-plane read on either geometry.

use serde::Serialize;

use crate::delay::{DelayBreakdown, DelayModel};
use crate::energy::{EnergyModel, InferenceEnergy};
use crate::errors::Result;
use crate::fabric::{validate_tiles, TileGeometry};
use crate::mirror::CurrentMirror;
use crate::shift_add::{check_cell_bits, check_planes};
use crate::transient::TransientConfig;
use crate::wta::{WtaCircuit, WtaDecision, WtaTransient};

/// The geometry one read is priced on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadGeometry<'a> {
    /// The paper's monolithic array: every wordline settles over the
    /// bitlines the read drives (at least one).
    Array {
        /// Bitlines driven during the read.
        activated: usize,
    },
    /// A tiled fabric: the tiles settle in parallel, a merge bus collects
    /// the partial sums of every tile column, and every tile row re-drives
    /// its activated bitlines and occupied wordlines.
    Fabric {
        /// Occupied geometry of every tile, grid row-major.
        tiles: &'a [TileGeometry],
        /// Tile columns of the grid.
        col_tiles: usize,
    },
}

impl ReadGeometry<'_> {
    /// Bitlines driven by the read, summed over every tile.
    fn activated(&self) -> usize {
        match *self {
            Self::Array { activated } => activated,
            Self::Fabric { tiles, .. } => tiles.iter().map(|tile| tile.activated_columns).sum(),
        }
    }
}

/// Outcome of pushing one set of wordline currents through the sensing module.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SenseOutcome {
    /// Index of the wordline identified as carrying the maximum current.
    pub winner: usize,
    /// The mirrored currents that entered the WTA, in amperes.
    pub mirrored_currents: Vec<f64>,
    /// The WTA decision details.
    pub decision: WtaDecision,
    /// Worst-case delay estimate for this array geometry.
    pub delay: DelayBreakdown,
    /// Energy estimate for this inference.
    pub energy: InferenceEnergy,
}

/// Outcome of one sensing operation when the mirrored currents stay in a
/// caller-owned scratch buffer (the allocation-free variant of
/// [`SenseOutcome`], returned by [`SensingChain::sense_into`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SenseReadout {
    /// Index of the wordline identified as carrying the maximum current.
    pub winner: usize,
    /// The WTA decision details.
    pub decision: WtaDecision,
    /// Worst-case delay estimate for this array geometry.
    pub delay: DelayBreakdown,
    /// Energy estimate for this inference.
    pub energy: InferenceEnergy,
}

/// The sensing chain: current mirrors, WTA, plus the delay and energy models.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SensingChain {
    mirror: CurrentMirror,
    wta: WtaCircuit,
    delay_model: DelayModel,
    energy_model: EnergyModel,
}

impl SensingChain {
    /// Builds a sensing chain from its components.
    pub fn new(
        mirror: CurrentMirror,
        wta: WtaCircuit,
        delay_model: DelayModel,
        energy_model: EnergyModel,
    ) -> Self {
        Self {
            mirror,
            wta,
            delay_model,
            energy_model,
        }
    }

    /// Sensing chain with the FeBiM calibration of every component.
    pub fn febim_calibrated() -> Self {
        Self {
            mirror: CurrentMirror::febim_sensing(),
            wta: WtaCircuit::febim_calibrated(),
            delay_model: DelayModel::febim_calibrated(),
            energy_model: EnergyModel::febim_calibrated(),
        }
    }

    /// Borrow the current-mirror model.
    pub fn mirror(&self) -> &CurrentMirror {
        &self.mirror
    }

    /// Borrow the WTA model.
    pub fn wta(&self) -> &WtaCircuit {
        &self.wta
    }

    /// Borrow the delay model.
    pub fn delay_model(&self) -> &DelayModel {
        &self.delay_model
    }

    /// Borrow the energy model.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// Senses one set of wordline currents.
    ///
    /// `activated_columns` is the number of bitlines driven during the read
    /// (used by the energy model).
    ///
    /// # Errors
    ///
    /// Propagates mirror, WTA, delay-model and energy-model errors
    /// (empty/invalid currents, degenerate geometries, exact ties).
    pub fn sense(
        &self,
        wordline_currents: &[f64],
        activated_columns: usize,
    ) -> Result<SenseOutcome> {
        let mut mirrored_currents = Vec::with_capacity(wordline_currents.len());
        let readout =
            self.sense_into(wordline_currents, activated_columns, &mut mirrored_currents)?;
        Ok(SenseOutcome {
            winner: readout.winner,
            mirrored_currents,
            decision: readout.decision,
            delay: readout.delay,
            energy: readout.energy,
        })
    }

    /// Senses one set of wordline currents without allocating: the mirrored
    /// currents are written into `mirrored_scratch` (cleared first) and stay
    /// there, so batched callers reuse one buffer across samples. On error
    /// the scratch contents are unspecified.
    ///
    /// # Errors
    ///
    /// Same as [`SensingChain::sense`].
    pub fn sense_into(
        &self,
        wordline_currents: &[f64],
        activated_columns: usize,
        mirrored_scratch: &mut Vec<f64>,
    ) -> Result<SenseReadout> {
        let geometry = ReadGeometry::Array {
            activated: activated_columns,
        };
        self.read_into(geometry, None, wordline_currents, mirrored_scratch)
    }

    /// The step behind every composite read: mirrors `currents` into
    /// `mirrored_scratch` (cleared first), resolves the WTA over the mirror
    /// copies and prices the read with [`SensingChain::price`].
    pub(crate) fn read_into(
        &self,
        geometry: ReadGeometry<'_>,
        planes: Option<(usize, usize)>,
        currents: &[f64],
        mirrored_scratch: &mut Vec<f64>,
    ) -> Result<SenseReadout> {
        self.mirror.copy_all_into(currents, mirrored_scratch)?;
        let decision = self.wta.resolve(mirrored_scratch)?;
        let (delay, energy) = self.price(geometry, planes, currents, mirrored_scratch)?;
        Ok(SenseReadout {
            winner: decision.winner,
            decision,
            delay,
            energy,
        })
    }

    /// Worst-case delay and energy of one read of the merged wordline
    /// `currents` (`mirrored` holds their mirror copies) on `geometry`: the
    /// paper's cost model, array settling plus WTA resolution and array plus
    /// sensing energy.
    ///
    /// A [`ReadGeometry::Array`] settles every wordline over its driven
    /// bitlines ([`DelayModel::worst_case`]) and drives each bitline and
    /// wordline once ([`EnergyModel::inference_with_mirrored`]). A
    /// [`ReadGeometry::Fabric`] settles as slowly as its widest tile plus one
    /// merge-bus load per tile column, and every tile row re-drives its
    /// activated bitlines and occupied wordlines. Either way the WTA
    /// resolves the merged rows, and conduction, mirror and WTA energy are
    /// priced on the merged currents.
    ///
    /// A bit-plane read (`planes` = `Some((planes, cell_bits))`) adds the
    /// shift-add surcharge on either geometry: one merge-bus pass per plane
    /// on the array delay, one bitline-driver switch per merged row per
    /// plane, and `cell_bits` ladder comparisons
    /// ([`crate::EnergyParams::level_refine_energy`]) per driven bitline.
    ///
    /// # Errors
    ///
    /// Checked in this order, as [`crate::CircuitError`]s: a zero plane
    /// count; the geometry (an empty tile list, an inconsistent grid, a
    /// degenerate tile, no wordline on an array); a zero cell-bit count;
    /// then empty or invalid currents.
    pub fn price(
        &self,
        geometry: ReadGeometry<'_>,
        planes: Option<(usize, usize)>,
        currents: &[f64],
        mirrored: &[f64],
    ) -> Result<(DelayBreakdown, InferenceEnergy)> {
        if let Some((planes, _)) = planes {
            check_planes(planes)?;
        }
        let delay_params = self.delay_model.params();
        let mut delay = match geometry {
            ReadGeometry::Array { activated } => self.delay_model.worst_case(
                currents.len(),
                activated.max(1),
                &self.wta,
                self.mirror.gain,
            )?,
            ReadGeometry::Fabric { tiles, col_tiles } => {
                validate_tiles(tiles, col_tiles)?;
                let slowest_tile = tiles
                    .iter()
                    .map(|tile| {
                        delay_params.array_base + delay_params.per_column * tile.columns as f64
                    })
                    .fold(f64::NEG_INFINITY, f64::max);
                DelayBreakdown {
                    array: slowest_tile + delay_params.per_column * col_tiles as f64,
                    sensing: self.wta.settling_time(
                        currents.len().max(1),
                        delay_params.worst_case_gap * self.mirror.gain,
                    ),
                }
            }
        };
        if let Some((planes, cell_bits)) = planes {
            delay.array += delay_params.per_column * planes as f64;
            check_cell_bits(cell_bits)?;
        }
        let energy_params = self.energy_model.params();
        let mut energy = match geometry {
            ReadGeometry::Array { activated } => self.energy_model.inference_with_mirrored(
                currents,
                mirrored,
                activated,
                delay.total(),
                &self.mirror,
                &self.wta,
            )?,
            ReadGeometry::Fabric { tiles, .. } => {
                let drivers = tiles
                    .iter()
                    .map(|tile| {
                        tile.activated_columns as f64 * energy_params.bitline_driver_energy
                            + tile.rows as f64 * energy_params.wordline_driver_energy
                    })
                    .sum();
                self.energy_model.with_drivers(
                    drivers,
                    currents,
                    mirrored,
                    delay.total(),
                    &self.mirror,
                    &self.wta,
                )?
            }
        };
        if let Some((planes, cell_bits)) = planes {
            energy.array += (planes * currents.len()) as f64 * energy_params.bitline_driver_energy;
            energy.sensing +=
                (cell_bits * geometry.activated()) as f64 * energy_params.level_refine_energy;
        }
        Ok((delay, energy))
    }

    /// Wordline-driver energy of one read of `rows` merged wordlines on
    /// `geometry`, in joules: the part of the read's array energy that a
    /// group of reads pays only once. A fabric's tile rows each drive their
    /// own wordlines, so its share sums over every tile.
    pub fn wordline_share(&self, geometry: ReadGeometry<'_>, rows: usize) -> f64 {
        let per_wordline = self.energy_model.params().wordline_driver_energy;
        match geometry {
            ReadGeometry::Array { .. } => rows as f64 * per_wordline,
            ReadGeometry::Fabric { tiles, .. } => tiles
                .iter()
                .map(|tile| tile.rows as f64 * per_wordline)
                .sum(),
        }
    }

    /// Simulates the WTA output transients for one set of wordline currents
    /// (the data behind Fig. 5(c)).
    ///
    /// # Errors
    ///
    /// Propagates mirror and WTA errors.
    pub fn transient(
        &self,
        wordline_currents: &[f64],
        config: &TransientConfig,
    ) -> Result<WtaTransient> {
        let mirrored = self.mirror.copy_all(wordline_currents)?;
        self.wta.transient(&mirrored, config)
    }
}

impl Default for SensingChain {
    fn default() -> Self {
        Self::febim_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn senses_the_maximum_wordline() {
        let chain = SensingChain::febim_calibrated();
        let outcome = chain.sense(&[0.8e-6, 1.6e-6, 1.2e-6], 5).unwrap();
        assert_eq!(outcome.winner, 1);
        assert_eq!(outcome.mirrored_currents.len(), 3);
        assert!(outcome.delay.total() > 0.0);
        assert!(outcome.energy.total() > 0.0);
    }

    #[test]
    fn mirrored_currents_are_attenuated() {
        let chain = SensingChain::febim_calibrated();
        let outcome = chain.sense(&[1.0e-6, 2.0e-6], 2).unwrap();
        assert!((outcome.mirrored_currents[0] - 0.1e-6).abs() < 1e-15);
        assert!((outcome.mirrored_currents[1] - 0.2e-6).abs() < 1e-15);
    }

    #[test]
    fn errors_propagate_from_components() {
        let chain = SensingChain::febim_calibrated();
        assert!(chain.sense(&[], 2).is_err());
        assert!(chain.sense(&[1e-6, 1e-6], 2).is_err());
        assert!(chain.sense(&[1e-6, f64::NAN], 2).is_err());
    }

    #[test]
    fn transient_matches_sense_decision() {
        let chain = SensingChain::febim_calibrated();
        let currents = [0.5e-6, 1.5e-6];
        let outcome = chain.sense(&currents, 2).unwrap();
        let transient = chain
            .transient(&currents, &TransientConfig::febim_wta())
            .unwrap();
        assert_eq!(outcome.winner, transient.decision.winner);
    }

    #[test]
    fn sense_into_matches_sense_and_reuses_the_buffer() {
        let chain = SensingChain::febim_calibrated();
        let currents = [0.8e-6, 1.6e-6, 1.2e-6];
        let outcome = chain.sense(&currents, 5).unwrap();
        let mut scratch = vec![9.9; 1];
        let readout = chain.sense_into(&currents, 5, &mut scratch).unwrap();
        assert_eq!(readout.winner, outcome.winner);
        assert_eq!(readout.decision, outcome.decision);
        assert_eq!(readout.delay, outcome.delay);
        assert_eq!(readout.energy, outcome.energy);
        assert_eq!(scratch, outcome.mirrored_currents);
    }

    /// Bit patterns of one readout's delay and energy parts, in the order
    /// delay array, delay sensing, energy array, energy sensing.
    fn cost_bits(readout: &SenseReadout) -> [u64; 4] {
        [
            readout.delay.array.to_bits(),
            readout.delay.sensing.to_bits(),
            readout.energy.array.to_bits(),
            readout.energy.sensing.to_bits(),
        ]
    }

    /// Golden read costs: fixed synthetic currents, tile lists and plane
    /// counts through the three composite reads, every delay and energy part
    /// pinned to its IEEE bits. The inputs bypass the device model, so the
    /// figures are plain floating-point arithmetic and hold on any host; a
    /// refactor of the cost model must reproduce them exactly.
    #[test]
    fn composite_read_costs_are_pinned_bit_for_bit() {
        use crate::fabric::TileGeometry;
        let chain = SensingChain::febim_calibrated();
        let tile = |rows, columns, activated_columns| TileGeometry {
            rows,
            columns,
            activated_columns,
        };
        let grid = [
            tile(3, 32, 5),
            tile(3, 20, 2),
            tile(1, 32, 5),
            tile(1, 20, 2),
        ];
        let currents = [0.8e-6, 1.6e-6, 1.2e-6, 0.35e-6];
        let mut mirrored = Vec::new();
        let mut merged = Vec::new();
        let mut observed = Vec::new();
        for activated in [7, 0] {
            let readout = chain
                .sense_into(&currents, activated, &mut mirrored)
                .unwrap();
            observed.push(cost_bits(&readout));
        }
        for (tiles, col_tiles) in [(&grid[..], 2), (&grid[..1], 1)] {
            let merged_rows = &currents[..tiles.iter().step_by(col_tiles).map(|t| t.rows).sum()];
            let readout = chain
                .sense_fabric_into(merged_rows, tiles, col_tiles, &mut mirrored)
                .unwrap();
            observed.push(cost_bits(&readout));
        }
        // Four rows, three planes (scores 17, 8, 18, 5), then three rows of
        // one plane over a single tile.
        let sums = [1.0, 2.0, 3.0, 4.0, 0.0, 1.0, 2.0, 2.0, 3.0, 5.0, 0.0, 0.0];
        let packed = [
            (&sums[..], 3, 4, &grid[..], 2),
            (&sums[..3], 1, 2, &[tile(3, 8, 8)][..], 1),
        ];
        for (sums, planes, cell_bits, tiles, col_tiles) in packed {
            let readout = chain
                .sense_shift_add_fabric_into(
                    sums,
                    planes,
                    cell_bits,
                    0.1e-6,
                    0.05e-6,
                    tiles,
                    col_tiles,
                    &mut merged,
                    &mut mirrored,
                )
                .unwrap();
            observed.push(cost_bits(&readout));
        }
        let golden: [[u64; 4]; 6] = [
            // Array, 7 bitlines.
            [
                0x3de2_c35e_d79e_2ba6,
                0x3de1_b03a_8b49_2a59,
                0x3ccf_2805_4e5d_5001,
                0x3ce4_0e02_8c9b_1e15,
            ],
            // Array, no bitline driven (settles one).
            [
                0x3de0_d128_e69b_7dc1,
                0x3de1_b03a_8b49_2a59,
                0x3cb5_8eb0_3dd9_bd31,
                0x3ce2_fbe8_3283_6e3e,
            ],
            // 2x2 fabric.
            [
                0x3deb_8551_942a_3a2c,
                0x3de1_b03a_8b49_2a59,
                0x3cdd_b8f7_114a_42dc,
                0x3ce8_df79_2205_b550,
            ],
            // One-tile fabric.
            [
                0x3deb_3248_96a9_c7db,
                0x3ddc_b27f_3452_e5d2,
                0x3cc7_bc8c_a1cf_40d3,
                0x3ce1_50fc_2aeb_3167,
            ],
            // 2x2 fabric, three planes of 4-bit cells.
            [
                0x3dec_7e6c_8cab_911e,
                0x3de1_b03a_8b49_2a59,
                0x3ce7_d9e5_3573_20a4,
                0x3cf6_f37b_e662_53e8,
            ],
            // One-tile fabric, one plane of 2-bit cells.
            [
                0x3de3_bc79_d01f_8298,
                0x3ddc_b27f_3452_e5d2,
                0x3cd2_e3d0_5f9c_aa66,
                0x3ce3_55b8_fc8c_4ffa,
            ],
        ];
        assert_eq!(observed, golden);
    }

    #[test]
    fn component_accessors_expose_models() {
        let chain = SensingChain::default();
        assert!(chain.mirror().gain > 0.0);
        assert!(chain.wta().params().bias_current > 0.0);
        assert!(chain.delay_model().params().per_column > 0.0);
        assert!(chain.energy_model().params().read_drain_bias > 0.0);
    }
}
