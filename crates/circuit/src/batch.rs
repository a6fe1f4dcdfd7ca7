//! Amortized cost model for grouped (batched) reads.
//!
//! A serving workload answers many posterior queries against the *same*
//! programmed conductances. When those reads are issued back to back, the
//! array does not start cold every time: the wordlines stay biased across
//! the group, so the array settling delay and the wordline-driver energy are
//! paid once per group instead of once per read, while every read still pays
//! its own bitline drivers, conduction and sensing (mirror + WTA) — the
//! amortization charge-domain FeFET fabrics exploit for grouped reads.
//!
//! [`ReadGroup`] accumulates that pricing from per-read [`DelayBreakdown`] /
//! [`InferenceEnergy`] figures (the exact ones the sequential path reports),
//! so a batched read group is priced consistently with — and never cheaper
//! than the physics allows relative to — the sequential baseline:
//!
//! * group array delay = the slowest read's array settling (paid once),
//! * group sensing delay = Σ per-read sensing delays (each read resolves its
//!   own WTA competition),
//! * group array energy = wordline drivers once + Σ per-read (bitline
//!   drivers + conduction),
//! * group sensing energy = Σ per-read sensing energies.
//!
//! [`crate::SensingChain::wordline_share`] computes the per-read
//! wordline-driver share the group refunds on repeats, from the same
//! [`crate::ReadGeometry`] the read was priced on.

use serde::Serialize;

use crate::delay::DelayBreakdown;
use crate::energy::InferenceEnergy;
use crate::errors::{CircuitError, Result};

/// Accumulated amortized cost of a group of reads issued back to back
/// against the same programmed wordlines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReadGroup {
    reads: usize,
    /// Slowest array settling across the group, paid once.
    settle: f64,
    /// Largest per-read wordline-driver energy across the group, paid once.
    wordline_energy: f64,
    /// Accumulated per-read sensing delays.
    sensing_delay: f64,
    /// Accumulated per-read array energies minus their wordline-driver share.
    array_energy: f64,
    /// Accumulated per-read sensing energies.
    sensing_energy: f64,
    /// Σ per-read total delays (the sequential baseline).
    sequential_delay: f64,
    /// Σ per-read total energies (the sequential baseline).
    sequential_energy: f64,
}

impl ReadGroup {
    /// An empty group (zero reads, zero cost).
    pub fn new() -> Self {
        Self {
            reads: 0,
            settle: 0.0,
            wordline_energy: 0.0,
            sensing_delay: 0.0,
            array_energy: 0.0,
            sensing_energy: 0.0,
            sequential_delay: 0.0,
            sequential_energy: 0.0,
        }
    }

    /// Adds one read to the group from its individually priced delay and
    /// energy. `wordline_share` is the per-read wordline-driver energy the
    /// group pays only once (compute it with
    /// [`crate::SensingChain::wordline_share`]).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] when `wordline_share` is
    /// negative, non-finite or exceeds the read's array energy (the share
    /// must be a component of it).
    pub fn add(
        &mut self,
        delay: &DelayBreakdown,
        energy: &InferenceEnergy,
        wordline_share: f64,
    ) -> Result<()> {
        if !(wordline_share >= 0.0 && wordline_share.is_finite()) {
            return Err(CircuitError::InvalidParameter {
                name: "wordline_share",
                reason: format!("must be non-negative and finite, got {wordline_share}"),
            });
        }
        if wordline_share > energy.array {
            return Err(CircuitError::InvalidParameter {
                name: "wordline_share",
                reason: format!(
                    "wordline-driver share {wordline_share} exceeds the read's array energy {}",
                    energy.array
                ),
            });
        }
        self.reads += 1;
        self.settle = self.settle.max(delay.array);
        self.wordline_energy = self.wordline_energy.max(wordline_share);
        self.sensing_delay += delay.sensing;
        self.array_energy += energy.array - wordline_share;
        self.sensing_energy += energy.sensing;
        self.sequential_delay += delay.total();
        self.sequential_energy += energy.total();
        Ok(())
    }

    /// Number of reads priced so far.
    pub fn reads(&self) -> usize {
        self.reads
    }

    /// Whether no read has been added yet.
    pub fn is_empty(&self) -> bool {
        self.reads == 0
    }

    /// Amortized delay of the whole group: one array settling plus the
    /// accumulated per-read sensing resolutions.
    pub fn delay(&self) -> DelayBreakdown {
        DelayBreakdown {
            array: self.settle,
            sensing: self.sensing_delay,
        }
    }

    /// Amortized energy of the whole group: wordline drivers once, per-read
    /// bitline drivers + conduction + sensing accumulated.
    pub fn energy(&self) -> InferenceEnergy {
        InferenceEnergy {
            array: self.wordline_energy + self.array_energy,
            sensing: self.sensing_energy,
        }
    }

    /// Σ per-read total delays: what the same reads cost issued one by one.
    pub fn sequential_delay(&self) -> f64 {
        self.sequential_delay
    }

    /// Σ per-read total energies of the sequential baseline.
    pub fn sequential_energy(&self) -> f64 {
        self.sequential_energy
    }
}

impl Default for ReadGroup {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::TileGeometry;
    use crate::sense::{ReadGeometry, SensingChain};

    fn chain() -> SensingChain {
        SensingChain::febim_calibrated()
    }

    #[test]
    fn empty_group_costs_nothing() {
        let group = ReadGroup::default();
        assert!(group.is_empty());
        assert_eq!(group.reads(), 0);
        assert_eq!(group.delay().total(), 0.0);
        assert_eq!(group.energy().total(), 0.0);
    }

    #[test]
    fn grouped_reads_amortize_settling_and_wordline_drivers() {
        let chain = chain();
        let currents = [0.8e-6, 1.6e-6, 1.2e-6];
        let readout = chain.sense(&currents, 5).unwrap();
        let share = chain.wordline_share(ReadGeometry::Array { activated: 5 }, currents.len());
        let mut group = ReadGroup::new();
        for _ in 0..8 {
            group.add(&readout.delay, &readout.energy, share).unwrap();
        }
        assert_eq!(group.reads(), 8);
        // Delay: settling once + 8 WTA resolutions, strictly below 8 full reads.
        let batched = group.delay();
        assert_eq!(batched.array, readout.delay.array);
        assert!((batched.sensing - 8.0 * readout.delay.sensing).abs() < 1e-21);
        assert!(batched.total() < group.sequential_delay());
        assert!((group.sequential_delay() - 8.0 * readout.delay.total()).abs() < 1e-18);
        // Energy: wordline drivers once, everything else per read.
        let energy = group.energy();
        let expected_array = share + 8.0 * (readout.energy.array - share);
        assert!((energy.array - expected_array).abs() < 1e-27);
        assert!((energy.sensing - 8.0 * readout.energy.sensing).abs() < 1e-27);
        assert!(energy.total() < group.sequential_energy());
    }

    #[test]
    fn single_read_group_matches_the_read_exactly() {
        let chain = chain();
        let readout = chain.sense(&[1.0e-6, 0.4e-6], 3).unwrap();
        let share = chain.wordline_share(ReadGeometry::Array { activated: 3 }, 2);
        let mut group = ReadGroup::new();
        group.add(&readout.delay, &readout.energy, share).unwrap();
        assert_eq!(group.delay(), readout.delay);
        assert_eq!(group.energy(), readout.energy);
        assert_eq!(group.sequential_delay(), readout.delay.total());
        assert_eq!(group.sequential_energy(), readout.energy.total());
    }

    #[test]
    fn fabric_wordline_share_sums_over_tiles() {
        let chain = chain();
        let params = chain.energy_model().params();
        let tiles = [
            TileGeometry {
                rows: 2,
                columns: 9,
                activated_columns: 3,
            },
            TileGeometry {
                rows: 1,
                columns: 7,
                activated_columns: 1,
            },
        ];
        let fabric = ReadGeometry::Fabric {
            tiles: &tiles,
            col_tiles: 1,
        };
        let share = chain.wordline_share(fabric, 3);
        assert!((share - 3.0 * params.wordline_driver_energy).abs() < 1e-30);
        assert_eq!(
            chain.wordline_share(ReadGeometry::Array { activated: 4 }, 3),
            share
        );
    }

    #[test]
    fn invalid_wordline_share_rejected() {
        let delay = DelayBreakdown {
            array: 1e-10,
            sensing: 1e-10,
        };
        let energy = InferenceEnergy {
            array: 1e-15,
            sensing: 1e-15,
        };
        let mut group = ReadGroup::new();
        assert!(group.add(&delay, &energy, -1.0).is_err());
        assert!(group.add(&delay, &energy, f64::NAN).is_err());
        assert!(group.add(&delay, &energy, 2e-15).is_err());
        assert!(group.is_empty());
        group.add(&delay, &energy, 0.5e-15).unwrap();
        assert_eq!(group.reads(), 1);
    }
}
