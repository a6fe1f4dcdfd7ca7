//! The complete sensing module: per-row current mirrors feeding the
//! winner-take-all circuit (the right-hand side of Fig. 3 in the paper),
//! and the one cost model every read is priced by.
//!
//! [`SensingChain::decide_and_price`] senses one read in one pass over its
//! wordline currents: it mirrors them, resolves the WTA over the copies and
//! prices the read on its [`ReadGeometry`] — the base read of the paper's
//! monolithic array or of a tiled fabric, plus the shift-add surcharge of a
//! bit-plane read on either geometry. The engine senses every read through
//! it, and so do the composite reads ([`SensingChain::sense`] and its
//! allocation-free and fabric variants).

use serde::Serialize;

use crate::delay::{DelayBreakdown, DelayModel};
use crate::energy::{EnergyModel, InferenceEnergy};
use crate::errors::{CircuitError, Result};
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

/// One read decided and priced by [`SensingChain::decide_and_price`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SensedRead {
    /// Index of the winning wordline.
    pub winner: usize,
    /// Whether the mirror copies tied at the maximum. The winner is then the
    /// first maximum of the unmirrored currents: physical mismatch would
    /// break the tie, the model breaks it deterministically.
    pub tie_broken: bool,
    /// WTA margin in amperes: the winner's mirror copy minus the runner-up's
    /// (the copy itself for a single row, zero for a tie).
    pub margin: f64,
    /// Worst-case delay of the read.
    pub delay: DelayBreakdown,
    /// Energy of the read.
    pub energy: InferenceEnergy,
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
    /// Same as [`SensingChain::sense_into`].
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
    /// The errors of [`SensingChain::decide_and_price`] on a
    /// [`ReadGeometry::Array`], in its order; then
    /// [`CircuitError::AmbiguousWinner`] when the mirror copies tie.
    pub fn sense_into(
        &self,
        wordline_currents: &[f64],
        activated_columns: usize,
        mirrored_scratch: &mut Vec<f64>,
    ) -> Result<SenseReadout> {
        let geometry = ReadGeometry::Array {
            activated: activated_columns,
        };
        let read = self.decide_and_price(geometry, None, wordline_currents, mirrored_scratch)?;
        self.readout(read, mirrored_scratch)
    }

    /// A composite read's view of `read`, whose copies are `mirrored`: the
    /// WTA decision with the settling time and energy that
    /// [`WtaCircuit::resolve`] derives from the margin.
    ///
    /// # Errors
    ///
    /// A tie is [`CircuitError::AmbiguousWinner`], listing the tied copies
    /// in ascending order, as [`WtaCircuit::resolve`] does.
    pub(crate) fn readout(&self, read: SensedRead, mirrored: &[f64]) -> Result<SenseReadout> {
        if read.tie_broken {
            let best = mirrored.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let indices = (0..mirrored.len())
                .filter(|&index| mirrored[index] == best)
                .collect();
            return Err(CircuitError::AmbiguousWinner { indices });
        }
        let settling_time = self.wta.settling_time(mirrored.len(), read.margin);
        Ok(SenseReadout {
            winner: read.winner,
            decision: WtaDecision {
                winner: read.winner,
                margin: read.margin,
                settling_time,
                energy: self.wta.energy(mirrored, settling_time),
            },
            delay: read.delay,
            energy: read.energy,
        })
    }

    /// Decides and prices one read of the merged wordline `currents` on
    /// `geometry` in one pass: the paper's mirror bank and WTA, and its cost
    /// model (array settling plus WTA resolution, array plus sensing
    /// energy). The mirror copies go into `mirrored` (cleared first; on
    /// error its contents are unspecified).
    ///
    /// A read's worst-case delay depends on its geometry alone, so that is
    /// priced first: a [`ReadGeometry::Array`] settles over its driven
    /// bitlines ([`DelayModel::worst_case`]) and drives each bitline and
    /// wordline once; a [`ReadGeometry::Fabric`] settles over its widest
    /// tile plus one merge-bus load per tile column, and every tile row
    /// re-drives its activated bitlines and occupied wordlines. A bit-plane
    /// read (`planes` = `Some((planes, cell_bits))`) adds one merge-bus pass
    /// per plane to the array delay, one bitline-driver switch per merged
    /// row per plane, and `cell_bits` ladder comparisons
    /// ([`crate::EnergyParams::level_refine_energy`]) per driven bitline.
    /// One loop over the currents then validates and mirrors them, runs the
    /// WTA over the copies and sums the conduction and mirror energy.
    ///
    /// The copies decide. When they tie at the maximum, the winner is the
    /// first maximum of the unmirrored currents, which need not be the
    /// first maximal copy: the mirror can merge two distinct currents.
    ///
    /// # Errors
    ///
    /// Checked in this order, as [`CircuitError`]s:
    /// [`CircuitError::EmptyInput`] for no rows; a zero plane count; the
    /// geometry (an empty tile list, an inconsistent grid, a degenerate
    /// tile, a mirror gain [`DelayModel::worst_case`] rejects); a zero
    /// cell-bit count; then [`CircuitError::InvalidCurrent`] at the first
    /// row whose current or mirror copy is negative or not finite.
    pub fn decide_and_price(
        &self,
        geometry: ReadGeometry<'_>,
        planes: Option<(usize, usize)>,
        currents: &[f64],
        mirrored: &mut Vec<f64>,
    ) -> Result<SensedRead> {
        if currents.is_empty() {
            return Err(CircuitError::EmptyInput);
        }
        let (delay, drivers, surcharge) = self.price_geometry(geometry, planes, currents.len())?;
        let duration = delay.total();
        mirrored.clear();
        mirrored.reserve(currents.len());
        // The WTA over the copies, as `WtaCircuit::resolve` runs it, and
        // the first maximum of the currents, which breaks a tie.
        let (mut winner, mut best, mut runner_up) = (0, f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut tied = false;
        let (mut first_max, mut max_current) = (0, f64::NEG_INFINITY);
        let (mut total_current, mut mirror_energy) = (0.0, 0.0);
        for (index, &current) in currents.iter().enumerate() {
            // An invalid current fails `copy` and stands in for its copy,
            // so the check reports whichever of the two is invalid.
            let copy = self.mirror.copy(current).unwrap_or(current);
            if !(copy >= 0.0 && copy.is_finite()) {
                return Err(CircuitError::InvalidCurrent { index, value: copy });
            }
            mirrored.push(copy);
            total_current += current;
            mirror_energy += self.mirror.energy(current, duration);
            if copy > best {
                (winner, best, runner_up, tied) = (index, copy, best, false);
            } else if copy == best {
                tied = true;
            } else if copy > runner_up {
                runner_up = copy;
            }
            if current > max_current {
                (first_max, max_current) = (index, current);
            }
        }
        let margin = match (tied, currents.len()) {
            (true, _) => 0.0,
            (false, 1) => best,
            (false, _) => best - runner_up,
        };
        let conduction = total_current * self.energy_model.params().read_drain_bias * duration;
        let mut energy = InferenceEnergy {
            array: drivers + conduction,
            sensing: mirror_energy + self.wta.energy(mirrored, duration),
        };
        if let Some(surcharge) = surcharge {
            energy.array += surcharge.array;
            energy.sensing += surcharge.sensing;
        }
        Ok(SensedRead {
            winner: if tied { first_max } else { winner },
            tie_broken: tied,
            margin,
            delay,
            energy,
        })
    }

    /// Prices what `geometry` fixes for a read of `rows` (at least one)
    /// merged wordlines: its delay, its driver energy and, for a bit-plane
    /// read, the shift-add energy surcharge. Checks a zero plane count, then
    /// the geometry, then a zero cell-bit count.
    fn price_geometry(
        &self,
        geometry: ReadGeometry<'_>,
        planes: Option<(usize, usize)>,
        rows: usize,
    ) -> Result<(DelayBreakdown, f64, Option<InferenceEnergy>)> {
        if let Some((planes, _)) = planes {
            check_planes(planes)?;
        }
        let params = self.energy_model.params();
        let (columns, activated, drivers) = match geometry {
            ReadGeometry::Array { activated } => (
                activated.max(1),
                activated,
                activated as f64 * params.bitline_driver_energy
                    + rows as f64 * params.wordline_driver_energy,
            ),
            ReadGeometry::Fabric { tiles, col_tiles } => {
                validate_tiles(tiles, col_tiles)?;
                let (mut widest, mut activated, mut drivers) = (0, 0, 0.0);
                for tile in tiles {
                    widest = widest.max(tile.columns);
                    activated += tile.activated_columns;
                    drivers += tile.activated_columns as f64 * params.bitline_driver_energy
                        + tile.rows as f64 * params.wordline_driver_energy;
                }
                (widest, activated, drivers)
            }
        };
        let mut delay = self
            .delay_model
            .worst_case(rows, columns, &self.wta, self.mirror.gain)?;
        let per_column = self.delay_model.params().per_column;
        if let ReadGeometry::Fabric { col_tiles, .. } = geometry {
            delay.array += per_column * col_tiles as f64;
        }
        let surcharge = match planes {
            Some((planes, cell_bits)) => {
                delay.array += per_column * planes as f64;
                check_cell_bits(cell_bits)?;
                Some(InferenceEnergy {
                    array: (planes * rows) as f64 * params.bitline_driver_energy,
                    sensing: (cell_bits * activated) as f64 * params.level_refine_energy,
                })
            }
            None => None,
        };
        Ok((delay, drivers, surcharge))
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
pub(crate) mod reference {
    //! The sensing composition [`SensingChain::decide_and_price`] replaced,
    //! kept as an independent oracle for it: mirror every current
    //! ([`CurrentMirror::copy_all`]), resolve the WTA over the copies
    //! ([`WtaCircuit::resolve`]) and break a tie on the first maximum of the
    //! currents as the engine did, then price the read in passes of its own
    //! (the arithmetic of the former `SensingChain::price` and
    //! `EnergyModel::inference`).

    use super::*;

    /// What the reference makes of one read.
    pub(crate) struct Reference {
        /// The read as [`SensingChain::decide_and_price`] reports it.
        pub(crate) read: SensedRead,
        /// The WTA's own decision over the copies, which the composite
        /// reads report.
        pub(crate) decision: Result<WtaDecision>,
        /// The mirror copies.
        pub(crate) mirrored: Vec<f64>,
    }

    /// Senses one read the way every read was sensed before the one-pass
    /// call. Errors come in the old order: an invalid current, then no
    /// rows, then the pricing's own checks.
    pub(crate) fn sense(
        chain: &SensingChain,
        geometry: ReadGeometry<'_>,
        planes: Option<(usize, usize)>,
        currents: &[f64],
    ) -> Result<Reference> {
        let mirrored = chain.mirror().copy_all(currents)?;
        let decision = chain.wta().resolve(&mirrored);
        let (winner, tie_broken, margin) = match &decision {
            Ok(decision) => (decision.winner, false, decision.margin),
            Err(CircuitError::AmbiguousWinner { .. }) => (first_maximum(currents), true, 0.0),
            Err(err) => return Err(err.clone()),
        };
        let (delay, energy) = price(chain, geometry, planes, currents, &mirrored)?;
        Ok(Reference {
            read: SensedRead {
                winner,
                tie_broken,
                margin,
                delay,
                energy,
            },
            decision,
            mirrored,
        })
    }

    /// The engine's tie-break, `febim_bayes::argmax`: the first maximum.
    fn first_maximum(values: &[f64]) -> usize {
        let mut best = 0;
        for (index, &value) in values.iter().enumerate() {
            if value > values[best] {
                best = index;
            }
        }
        best
    }

    /// Worst-case delay and energy of one read whose copies are `mirrored`.
    fn price(
        chain: &SensingChain,
        geometry: ReadGeometry<'_>,
        planes: Option<(usize, usize)>,
        currents: &[f64],
        mirrored: &[f64],
    ) -> Result<(DelayBreakdown, InferenceEnergy)> {
        if let Some((planes, _)) = planes {
            check_planes(planes)?;
        }
        let (wta, gain) = (chain.wta(), chain.mirror().gain);
        let delay_params = chain.delay_model().params();
        let mut delay = match geometry {
            ReadGeometry::Array { activated } => {
                chain
                    .delay_model()
                    .worst_case(currents.len(), activated.max(1), wta, gain)?
            }
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
                    sensing: wta
                        .settling_time(currents.len().max(1), delay_params.worst_case_gap * gain),
                }
            }
        };
        if let Some((planes, cell_bits)) = planes {
            delay.array += delay_params.per_column * planes as f64;
            check_cell_bits(cell_bits)?;
        }
        let params = chain.energy_model().params();
        let drivers = match geometry {
            ReadGeometry::Array { activated } => {
                activated as f64 * params.bitline_driver_energy
                    + currents.len() as f64 * params.wordline_driver_energy
            }
            ReadGeometry::Fabric { tiles, .. } => tiles
                .iter()
                .map(|tile| {
                    tile.activated_columns as f64 * params.bitline_driver_energy
                        + tile.rows as f64 * params.wordline_driver_energy
                })
                .sum(),
        };
        let mut energy = with_drivers(chain, drivers, currents, mirrored, delay.total())?;
        if let Some((planes, cell_bits)) = planes {
            let activated: usize = match geometry {
                ReadGeometry::Array { activated } => activated,
                ReadGeometry::Fabric { tiles, .. } => {
                    tiles.iter().map(|tile| tile.activated_columns).sum()
                }
            };
            energy.array += (planes * currents.len()) as f64 * params.bitline_driver_energy;
            energy.sensing += (cell_bits * activated) as f64 * params.level_refine_energy;
        }
        Ok((delay, energy))
    }

    /// Energy of one monolithic read of `currents` over `activated`
    /// bitlines that lasts `duration` seconds.
    pub(crate) fn inference(
        chain: &SensingChain,
        currents: &[f64],
        activated: usize,
        duration: f64,
    ) -> Result<InferenceEnergy> {
        let mirrored = chain.mirror().copy_all(currents)?;
        let params = chain.energy_model().params();
        let drivers = activated as f64 * params.bitline_driver_energy
            + currents.len() as f64 * params.wordline_driver_energy;
        with_drivers(chain, drivers, currents, &mirrored, duration)
    }

    /// Adds the conduction of `currents` to `drivers` joules as the array
    /// part, and the mirror and WTA energy as the sensing part.
    fn with_drivers(
        chain: &SensingChain,
        drivers: f64,
        currents: &[f64],
        mirrored: &[f64],
        duration: f64,
    ) -> Result<InferenceEnergy> {
        if currents.is_empty() {
            return Err(CircuitError::EmptyInput);
        }
        for (index, &value) in currents.iter().enumerate() {
            if !(value >= 0.0 && value.is_finite()) {
                return Err(CircuitError::InvalidCurrent { index, value });
            }
        }
        let duration = duration.max(0.0);
        let total_current: f64 = currents.iter().sum();
        let conduction = total_current * chain.energy_model().params().read_drain_bias * duration;
        let mirror_energy: f64 = currents
            .iter()
            .map(|&current| chain.mirror().energy(current, duration))
            .sum();
        let wta_energy = chain.wta().energy(mirrored, duration);
        Ok(InferenceEnergy {
            array: drivers + conduction,
            sensing: mirror_energy + wta_energy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A chain around `mirror` with every other component calibrated.
    fn chain_with(mirror: CurrentMirror) -> SensingChain {
        SensingChain::new(
            mirror,
            WtaCircuit::febim_calibrated(),
            DelayModel::febim_calibrated(),
            EnergyModel::febim_calibrated(),
        )
    }

    /// Bit patterns of a read's margin and its delay and energy parts.
    fn read_bits(read: &SensedRead) -> [u64; 5] {
        [
            read.margin,
            read.delay.array,
            read.delay.sensing,
            read.energy.array,
            read.energy.sensing,
        ]
        .map(f64::to_bits)
    }

    /// The currents of one drawn read: `rows` of `values` (all below
    /// `candidates`), then by `case`
    /// 1. an exact tie at the maximum,
    /// 2. an adjacent pair `x`, `x.next_up()` the mirror merges, at the
    ///    maximum, the lower one first,
    /// 3. that pair the other way round,
    /// 4. one negative or non-finite entry,
    ///
    /// at the drawn positions, and otherwise the values as they are.
    fn drawn_currents(
        mirror: &CurrentMirror,
        case: u32,
        values: &[f64],
        candidates: &[f64],
        (first, second, pick): (usize, usize, usize),
    ) -> Vec<f64> {
        let mut currents = values.to_vec();
        let rows = currents.len();
        let i = first % rows;
        let j = (i + 1 + second % (rows - 1).max(1)) % rows;
        match case {
            1 => (currents[i], currents[j]) = (candidates[0], candidates[0]),
            2 | 3 => {
                let low = *candidates
                    .iter()
                    .find(|&&x| mirror.copy(x).unwrap() == mirror.copy(x.next_up()).unwrap())
                    .expect("one candidate pair merges");
                let pair = (low, low.next_up());
                (currents[i], currents[j]) = if case == 2 { pair } else { (pair.1, pair.0) };
            }
            4 => currents[i] = [-1.0e-6, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][pick % 4],
            _ => {}
        }
        currents
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The one pass decides, prices and fails exactly as the reference
        /// composition does (winner, tie flag, margin, every delay and
        /// energy part and the mirror copies bit for bit, or the same
        /// error), and the composite reads report what the reference's WTA
        /// decides. Drawn: 1 to 70 rows, a tie case or an invalid entry
        /// (see `drawn_currents`), an array driving 0 to 8 bitlines or a
        /// valid grid of up to 3x3 tiles, no planes or 1 to 4 planes of 1
        /// to 8 cell bits, and the calibrated mirror or one with a gain
        /// error of up to 2%.
        #[test]
        fn decide_and_price_matches_the_reference(
            read in (0u32..5, 1usize..=70, (0usize..70, 0usize..70, 0usize..4)),
            values in proptest::collection::vec(1e-8f64..3e-6, 70),
            candidates in proptest::collection::vec(3e-6f64..5e-6, 256),
            shape in (proptest::bool::ANY, 0usize..=8, 1usize..=3, 1usize..=3),
            tile_seeds in proptest::collection::vec((1usize..=8, 1usize..=32, 0usize..=32), 9),
            sensing in (0usize..=4, 1usize..=8, proptest::bool::ANY, -0.02f64..0.02),
        ) {
            let (case, rows, positions) = read;
            let (fabric, activated, row_tiles, col_tiles) = shape;
            let (planes, cell_bits, skewed, gain_error) = sensing;
            let mirror = if skewed {
                CurrentMirror::febim_sensing().with_gain_error(gain_error)
            } else {
                CurrentMirror::febim_sensing()
            };
            let chain = chain_with(mirror);
            let rows = if (1..=3).contains(&case) { rows.max(2) } else { rows };
            let currents = drawn_currents(&mirror, case, &values[..rows], &candidates, positions);
            let tiles: Vec<TileGeometry> = tile_seeds[..row_tiles * col_tiles]
                .iter()
                .map(|&(rows, columns, activated)| TileGeometry {
                    rows,
                    columns,
                    activated_columns: activated % (columns + 1),
                })
                .collect();
            let geometry = if fabric {
                ReadGeometry::Fabric { tiles: &tiles, col_tiles }
            } else {
                ReadGeometry::Array { activated }
            };
            let planes = (planes > 0).then_some((planes, cell_bits));

            let expected = reference::sense(&chain, geometry, planes, &currents);
            let mut mirrored = vec![9.9];
            let sensed = chain.decide_and_price(geometry, planes, &currents, &mut mirrored);
            // Debug prints every float exactly (shortest round trip).
            prop_assert_eq!(
                format!("{sensed:?}"),
                format!("{:?}", expected.as_ref().map(|reference| reference.read))
            );
            if let (Ok(sensed), Ok(expected)) = (&sensed, &expected) {
                prop_assert_eq!(read_bits(sensed), read_bits(&expected.read));
                let bits = |copies: &[f64]| copies.iter().map(|copy| copy.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&mirrored), bits(&expected.mirrored));
            }

            let expected = expected.and_then(|reference| {
                reference.decision.map(|decision| SenseReadout {
                    winner: decision.winner,
                    decision,
                    delay: reference.read.delay,
                    energy: reference.read.energy,
                })
            });
            let readout = sensed.and_then(|read| chain.readout(read, &mirrored));
            prop_assert_eq!(format!("{readout:?}"), format!("{expected:?}"));
            if planes.is_none() {
                let composite = match geometry {
                    ReadGeometry::Array { activated } => {
                        chain.sense_into(&currents, activated, &mut mirrored)
                    }
                    ReadGeometry::Fabric { tiles, col_tiles } => {
                        chain.sense_fabric_into(&currents, tiles, col_tiles, &mut mirrored)
                    }
                };
                prop_assert_eq!(format!("{composite:?}"), format!("{expected:?}"));
            }
        }
    }

    /// One tile whose grid every geometry check accepts, unless it is
    /// split into zero tile columns.
    const TILE: [TileGeometry; 1] = [TileGeometry {
        rows: 2,
        columns: 4,
        activated_columns: 2,
    }];

    #[test]
    fn no_rows_is_reported_before_the_planes_and_the_geometry() {
        let chain = SensingChain::febim_calibrated();
        let bad_grid = ReadGeometry::Fabric {
            tiles: &TILE,
            col_tiles: 0,
        };
        assert_eq!(
            chain.decide_and_price(bad_grid, Some((0, 0)), &[], &mut Vec::new()),
            Err(CircuitError::EmptyInput)
        );
    }

    #[test]
    fn a_zero_plane_count_is_reported_before_the_geometry() {
        let chain = SensingChain::febim_calibrated();
        let bad_grid = ReadGeometry::Fabric {
            tiles: &TILE,
            col_tiles: 0,
        };
        assert!(matches!(
            chain.decide_and_price(bad_grid, Some((0, 0)), &[f64::NAN], &mut Vec::new()),
            Err(CircuitError::InvalidParameter { name: "planes", .. })
        ));
    }

    #[test]
    fn geometry_errors_are_reported_before_the_cell_bits_and_the_currents() {
        let chain = SensingChain::febim_calibrated();
        let degenerate = [TileGeometry { rows: 0, ..TILE[0] }];
        let over_driven = [TileGeometry {
            activated_columns: 5,
            ..TILE[0]
        }];
        let fabric = |tiles, col_tiles| ReadGeometry::Fabric { tiles, col_tiles };
        let currents = [1e-6, f64::NAN];
        let mut mirrored = Vec::new();
        let mut error = |chain: &SensingChain, geometry| {
            chain
                .decide_and_price(geometry, Some((2, 0)), &currents, &mut mirrored)
                .unwrap_err()
        };
        assert_eq!(error(&chain, fabric(&[], 1)), CircuitError::EmptyInput);
        for (geometry, name) in [
            (fabric(&TILE, 0), "col_tiles"),
            (fabric(&degenerate, 1), "tile_geometry"),
            (fabric(&over_driven, 1), "tile_geometry"),
        ] {
            assert!(
                matches!(
                    error(&chain, geometry),
                    CircuitError::InvalidParameter { name: found, .. } if found == name
                ),
                "{name}"
            );
        }
        let dead_mirror = chain_with(CurrentMirror {
            gain: 0.0,
            ..CurrentMirror::febim_sensing()
        });
        assert!(matches!(
            error(&dead_mirror, ReadGeometry::Array { activated: 2 }),
            CircuitError::InvalidParameter {
                name: "mirror_gain",
                ..
            }
        ));
        // The composites check in the same order.
        assert!(matches!(
            chain.sense_fabric_into(&currents, &TILE, 0, &mut mirrored),
            Err(CircuitError::InvalidParameter {
                name: "col_tiles",
                ..
            })
        ));
    }

    #[test]
    fn a_zero_cell_bit_count_is_reported_before_the_currents() {
        let chain = SensingChain::febim_calibrated();
        for geometry in [
            ReadGeometry::Array { activated: 2 },
            ReadGeometry::Fabric {
                tiles: &TILE,
                col_tiles: 1,
            },
        ] {
            assert!(matches!(
                chain.decide_and_price(geometry, Some((2, 0)), &[f64::NAN], &mut Vec::new()),
                Err(CircuitError::InvalidParameter {
                    name: "cell_bits",
                    ..
                })
            ));
        }
    }

    #[test]
    fn the_first_invalid_current_or_copy_is_reported_last() {
        let geometry = ReadGeometry::Array { activated: 2 };
        let chain = SensingChain::febim_calibrated();
        assert_eq!(
            chain.decide_and_price(geometry, None, &[1e-6, -1e-6, f64::NAN], &mut Vec::new()),
            Err(CircuitError::InvalidCurrent {
                index: 1,
                value: -1e-6
            })
        );
        // A valid current whose copy overflows is reported at its index,
        // with the copy's value.
        let amplifier = chain_with(CurrentMirror::new(1e300).unwrap());
        assert_eq!(
            amplifier.decide_and_price(geometry, None, &[1e-6, 1e10, -1e-6], &mut Vec::new()),
            Err(CircuitError::InvalidCurrent {
                index: 1,
                value: f64::INFINITY
            })
        );
    }

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
