//! Read operation: bitline activation patterns and wordline accumulation.

use serde::Serialize;

use febim_device::DeviceError;

use crate::errors::{CrossbarError, Result};
use crate::layout::CrossbarLayout;

/// Flash-ADC style quantizer mapping an effective cell read current back to
/// the nearest programmed multi-level state — the digitizing front end of
/// the packed bit-plane read path.
///
/// The level programmer targets currents linearly spaced over
/// `[min_current, max_current]`, so the ladder's `round()` recovers the
/// programmed level exactly on an ideal array; under non-idealities it
/// digitizes whatever effective current the epoch-versioned cache (or the
/// uncached oracle — both funnel through the same per-cell evaluation)
/// reports, so the cached and reference packed reads can never diverge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LevelLadder {
    min_current: f64,
    max_current: f64,
    levels: usize,
}

impl LevelLadder {
    /// A ladder with `levels` thresholds linearly spaced over the read
    /// window `[min_current, max_current]` (amperes).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::Device`] for fewer than two levels or a
    /// non-finite / inverted current window.
    pub fn new(min_current: f64, max_current: f64, levels: usize) -> Result<Self> {
        if levels < 2 {
            return Err(CrossbarError::Device(DeviceError::InvalidParameter {
                name: "levels",
                reason: format!("a level ladder needs at least 2 levels, got {levels}"),
            }));
        }
        if !(min_current.is_finite() && max_current.is_finite() && max_current > min_current) {
            return Err(CrossbarError::Device(DeviceError::InvalidParameter {
                name: "current_window",
                reason: format!(
                    "read window [{min_current:e}, {max_current:e}] must be finite and increasing"
                ),
            }));
        }
        Ok(Self {
            min_current,
            max_current,
            levels,
        })
    }

    /// Number of distinguishable levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Low end of the read window, in amperes.
    pub fn min_current(&self) -> f64 {
        self.min_current
    }

    /// High end of the read window, in amperes.
    pub fn max_current(&self) -> f64 {
        self.max_current
    }

    /// The level whose target current is nearest to `current`, clamped to
    /// the ladder's range (currents outside the window saturate, exactly
    /// like a flash ADC).
    pub fn level_for_current(&self, current: f64) -> usize {
        let span = self.max_current - self.min_current;
        let normalized = (current - self.min_current) / span * (self.levels - 1) as f64;
        // NaN rounds to 0 through the max() (f64::max ignores a NaN self).
        let level = normalized.round().max(0.0) as usize;
        level.min(self.levels - 1)
    }
}

/// Which bitlines are driven with `V_on` during one inference.
///
/// FeBiM activates the prior column (if present) plus exactly one column per
/// evidence block, selected by the discretized evidence value of the sample.
///
/// Membership is tracked both as an ordered column list (for the sparse read
/// path, which only visits activated columns) and as a dense mask (so
/// [`Activation::is_active`] is O(1) instead of scanning the list). An
/// `Activation` can be rebuilt in place with [`Activation::set_observation`],
/// so batched inference reuses one allocation across samples.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Activation {
    active_columns: Vec<usize>,
    active_mask: Vec<bool>,
    total_columns: usize,
}

impl Activation {
    /// An activation with no driven bitlines, sized for the given layout.
    ///
    /// Use this to pre-allocate a scratch activation that is then filled with
    /// [`Activation::set_observation`] once per sample.
    pub fn empty(layout: &CrossbarLayout) -> Self {
        Self {
            active_columns: Vec::with_capacity(layout.activated_columns()),
            active_mask: vec![false; layout.columns()],
            total_columns: layout.columns(),
        }
    }

    /// Builds the activation for a discretized observation.
    ///
    /// `evidence_levels[i]` is the discretized level of evidence node `i` and
    /// must be smaller than the layout's `evidence_levels`.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::EvidenceCountMismatch`] when the number of
    /// evidence values does not match the layout's evidence nodes and
    /// [`CrossbarError::InvalidEvidence`] when a level is out of range.
    pub fn from_observation(layout: &CrossbarLayout, evidence_levels: &[usize]) -> Result<Self> {
        let mut activation = Self::empty(layout);
        activation.set_observation(layout, evidence_levels)?;
        Ok(activation)
    }

    /// Rebuilds the activation in place for a new discretized observation,
    /// reusing the existing column list and mask allocations.
    ///
    /// On error the activation is left empty (no column driven).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::EvidenceCountMismatch`] when the number of
    /// evidence values does not match the layout's evidence nodes and
    /// [`CrossbarError::InvalidEvidence`] when a level is out of range.
    pub fn set_observation(
        &mut self,
        layout: &CrossbarLayout,
        evidence_levels: &[usize],
    ) -> Result<()> {
        if evidence_levels.len() != layout.evidence_nodes() {
            return Err(CrossbarError::EvidenceCountMismatch {
                expected: layout.evidence_nodes(),
                found: evidence_levels.len(),
            });
        }
        self.clear();
        self.resize_for(layout);
        let filled = (|| {
            if let Some(prior) = layout.prior_column() {
                self.push_column(prior);
            }
            for (node, &level) in evidence_levels.iter().enumerate() {
                let column = layout.likelihood_column(node, level)?;
                self.push_column(column);
            }
            Ok(())
        })();
        if filled.is_err() {
            self.clear();
        }
        filled
    }

    /// Activation driving every bitline simultaneously (the stress pattern
    /// used for the scalability study of Fig. 6).
    pub fn all_columns(layout: &CrossbarLayout) -> Self {
        Self {
            active_columns: (0..layout.columns()).collect(),
            active_mask: vec![true; layout.columns()],
            total_columns: layout.columns(),
        }
    }

    /// Activation driving an explicit list of columns. Duplicate entries are
    /// collapsed: each column is driven (and accumulated) at most once.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] when a column index is
    /// outside the layout.
    pub fn from_columns(layout: &CrossbarLayout, columns: &[usize]) -> Result<Self> {
        for &column in columns {
            if column >= layout.columns() {
                return Err(CrossbarError::IndexOutOfBounds {
                    row: 0,
                    column,
                    rows: layout.rows(),
                    columns: layout.columns(),
                });
            }
        }
        let mut activation = Self::empty(layout);
        for &column in columns {
            activation.push_column(column);
        }
        Ok(activation)
    }

    /// Removes every driven column, keeping the allocations.
    fn clear(&mut self) {
        for &column in &self.active_columns {
            self.active_mask[column] = false;
        }
        self.active_columns.clear();
    }

    /// Adapts the mask length to a (possibly different) layout. Must only be
    /// called on an empty activation.
    fn resize_for(&mut self, layout: &CrossbarLayout) {
        if self.total_columns != layout.columns() {
            self.active_mask.clear();
            self.active_mask.resize(layout.columns(), false);
            self.total_columns = layout.columns();
        }
    }

    /// Marks one in-range column as driven (idempotent).
    fn push_column(&mut self, column: usize) {
        if !self.active_mask[column] {
            self.active_mask[column] = true;
            self.active_columns.push(column);
        }
    }

    /// The activated column indices, in activation order.
    pub fn active_columns(&self) -> &[usize] {
        &self.active_columns
    }

    /// Number of activated columns.
    pub fn len(&self) -> usize {
        self.active_columns.len()
    }

    /// Whether no column is activated.
    pub fn is_empty(&self) -> bool {
        self.active_columns.is_empty()
    }

    /// Whether a given column is activated (O(1) mask lookup).
    pub fn is_active(&self, column: usize) -> bool {
        self.active_mask.get(column).copied().unwrap_or(false)
    }

    /// Total number of columns in the layout the activation was built for.
    pub fn total_columns(&self) -> usize {
        self.total_columns
    }
}

/// Per-wordline read counters with interior mutability.
///
/// Read paths take `&self` on the owning fabric, so the counters live in
/// [`std::cell::Cell`]s; [`crate::TileGrid`] uses them to drive the
/// read-disturb tier model. The
/// counters are derived read-history state: they are skipped by
/// serialization but participate in equality (read history is physical
/// state once a disturb model is configured).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ReadCounters {
    counts: Vec<std::cell::Cell<u64>>,
}

impl ReadCounters {
    /// Zeroed counters for `rows` wordlines.
    pub(crate) fn new(rows: usize) -> Self {
        Self {
            counts: vec![std::cell::Cell::new(0); rows],
        }
    }

    /// Reads accumulated by one wordline since its last reset.
    pub(crate) fn get(&self, row: usize) -> u64 {
        self.counts[row].get()
    }

    /// Registers one read of `row`, returning `(before, after)` so the
    /// caller can detect disturb-tier crossings.
    pub(crate) fn bump(&self, row: usize) -> (u64, u64) {
        let before = self.counts[row].get();
        let after = before.saturating_add(1);
        self.counts[row].set(after);
        (before, after)
    }

    /// Clears one wordline's counter (called after a row refresh).
    pub(crate) fn reset_row(&self, row: usize) {
        self.counts[row].set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> CrossbarLayout {
        CrossbarLayout::new(3, 2, 4, true).unwrap()
    }

    #[test]
    fn observation_activates_prior_and_one_column_per_node() {
        let layout = layout();
        let activation = Activation::from_observation(&layout, &[1, 3]).unwrap();
        assert_eq!(activation.len(), 3);
        assert!(activation.is_active(0)); // prior
        assert!(activation.is_active(2)); // node 0, level 1
        assert!(activation.is_active(8)); // node 1, level 3
        assert!(!activation.is_active(1));
        assert_eq!(activation.total_columns(), layout.columns());
    }

    #[test]
    fn observation_without_prior_column() {
        let layout = CrossbarLayout::new(3, 2, 4, false).unwrap();
        let activation = Activation::from_observation(&layout, &[0, 0]).unwrap();
        assert_eq!(activation.len(), 2);
        assert_eq!(activation.active_columns(), &[0, 4]);
    }

    #[test]
    fn wrong_number_of_evidence_values_rejected() {
        let layout = layout();
        assert!(matches!(
            Activation::from_observation(&layout, &[1]),
            Err(CrossbarError::EvidenceCountMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert!(matches!(
            Activation::from_observation(&layout, &[1, 2, 3]),
            Err(CrossbarError::EvidenceCountMismatch {
                expected: 2,
                found: 3
            })
        ));
    }

    #[test]
    fn out_of_range_level_rejected() {
        let layout = layout();
        assert!(Activation::from_observation(&layout, &[1, 4]).is_err());
    }

    #[test]
    fn all_columns_activates_everything() {
        let layout = layout();
        let activation = Activation::all_columns(&layout);
        assert_eq!(activation.len(), layout.columns());
        assert!(!activation.is_empty());
    }

    #[test]
    fn explicit_columns_validated() {
        let layout = layout();
        let activation = Activation::from_columns(&layout, &[0, 5]).unwrap();
        assert_eq!(activation.active_columns(), &[0, 5]);
        assert!(Activation::from_columns(&layout, &[99]).is_err());
        let empty = Activation::from_columns(&layout, &[]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn duplicate_columns_collapse() {
        let layout = layout();
        let activation = Activation::from_columns(&layout, &[5, 0, 5, 0]).unwrap();
        assert_eq!(activation.active_columns(), &[5, 0]);
        assert_eq!(activation.len(), 2);
    }

    #[test]
    fn set_observation_reuses_and_resets() {
        let layout = layout();
        let mut activation = Activation::empty(&layout);
        assert!(activation.is_empty());
        activation.set_observation(&layout, &[1, 3]).unwrap();
        assert_eq!(activation.len(), 3);
        assert!(activation.is_active(8));
        activation.set_observation(&layout, &[0, 0]).unwrap();
        assert_eq!(activation.len(), 3);
        assert!(activation.is_active(1)); // node 0, level 0
        assert!(!activation.is_active(8)); // previous column unset

        // A failed rebuild leaves the activation empty.
        assert!(activation.set_observation(&layout, &[0, 99]).is_err());
        assert!(activation.is_empty());
        assert!(!activation.is_active(1));
    }

    #[test]
    fn set_observation_adapts_to_a_new_layout() {
        let small = CrossbarLayout::new(2, 1, 2, false).unwrap();
        let large = layout();
        let mut activation = Activation::empty(&small);
        activation.set_observation(&small, &[1]).unwrap();
        assert_eq!(activation.total_columns(), small.columns());
        activation.set_observation(&large, &[1, 3]).unwrap();
        assert_eq!(activation.total_columns(), large.columns());
        assert!(activation.is_active(8));
    }

    #[test]
    fn is_active_is_false_outside_the_layout() {
        let layout = layout();
        let activation = Activation::all_columns(&layout);
        assert!(!activation.is_active(layout.columns()));
        assert!(!activation.is_active(usize::MAX));
    }

    #[test]
    fn level_ladder_round_trips_the_programmed_targets() {
        let ladder = LevelLadder::new(0.1e-6, 1.0e-6, 16).unwrap();
        assert_eq!(ladder.levels(), 16);
        let span = ladder.max_current() - ladder.min_current();
        for level in 0..16 {
            let target = ladder.min_current() + level as f64 / 15.0 * span;
            assert_eq!(ladder.level_for_current(target), level);
            // Half-a-step perturbations still land on the same level.
            assert_eq!(ladder.level_for_current(target + 0.4 * span / 15.0), level);
            assert_eq!(ladder.level_for_current(target - 0.4 * span / 15.0), level);
        }
        // Out-of-window currents saturate like a flash ADC.
        assert_eq!(ladder.level_for_current(-1.0), 0);
        assert_eq!(ladder.level_for_current(1.0), 15);
        assert_eq!(ladder.level_for_current(f64::NAN), 0);
    }

    #[test]
    fn level_ladder_validates_its_window() {
        assert!(LevelLadder::new(0.1e-6, 1.0e-6, 1).is_err());
        assert!(LevelLadder::new(1.0e-6, 0.1e-6, 4).is_err());
        assert!(LevelLadder::new(0.0, f64::INFINITY, 4).is_err());
        assert!(LevelLadder::new(0.1e-6, 1.0e-6, 2).is_ok());
    }

    #[test]
    fn read_counters_bump_and_reset() {
        let counters = ReadCounters::new(3);
        assert_eq!(counters.get(1), 0);
        assert_eq!(counters.bump(1), (0, 1));
        assert_eq!(counters.bump(1), (1, 2));
        assert_eq!(counters.bump(0), (0, 1));
        assert_eq!(counters.get(1), 2);
        counters.reset_row(1);
        assert_eq!(counters.get(1), 0);
        assert_eq!(counters.get(0), 1);
        // Equality follows the counter values.
        let other = ReadCounters::new(3);
        other.bump(0);
        assert_eq!(counters, other);
    }
}
