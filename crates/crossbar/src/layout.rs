//! Logical layout of the FeBiM crossbar.
//!
//! The array stores one Bayesian model with `k` events (one wordline each),
//! `n` evidence nodes and `m` discretized levels per evidence value. The
//! first bitline holds the quantized priors; each evidence node then owns a
//! block of `m` bitlines holding its quantized likelihoods (Fig. 3).

use serde::Serialize;

use crate::errors::{CrossbarError, Result};

/// Logical position of a crossbar column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ColumnRole {
    /// The single prior column (only present when the layout has a prior).
    Prior,
    /// A likelihood column for `(evidence node, discretized level)`.
    Likelihood {
        /// Evidence node index.
        node: usize,
        /// Discretized evidence level within the node's block.
        level: usize,
    },
}

/// Geometry of a FeBiM crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CrossbarLayout {
    /// Number of events / classes (wordlines).
    events: usize,
    /// Number of evidence nodes (features).
    evidence_nodes: usize,
    /// Number of discretized levels per evidence node (bitlines per block).
    evidence_levels: usize,
    /// Whether a dedicated prior column is present. The paper omits it when
    /// the prior is uniform (e.g. the balanced iris dataset).
    has_prior: bool,
}

impl CrossbarLayout {
    /// Creates a layout.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidLayout`] when any dimension is zero.
    pub fn new(
        events: usize,
        evidence_nodes: usize,
        evidence_levels: usize,
        has_prior: bool,
    ) -> Result<Self> {
        if events == 0 {
            return Err(CrossbarError::InvalidLayout {
                reason: "layout needs at least one event (wordline)".to_string(),
            });
        }
        if evidence_nodes == 0 {
            return Err(CrossbarError::InvalidLayout {
                reason: "layout needs at least one evidence node".to_string(),
            });
        }
        if evidence_levels == 0 {
            return Err(CrossbarError::InvalidLayout {
                reason: "layout needs at least one level per evidence node".to_string(),
            });
        }
        Ok(Self {
            events,
            evidence_nodes,
            evidence_levels,
            has_prior,
        })
    }

    /// Number of events (wordlines / rows).
    pub fn events(&self) -> usize {
        self.events
    }

    /// Number of evidence nodes (features).
    pub fn evidence_nodes(&self) -> usize {
        self.evidence_nodes
    }

    /// Number of discretized levels per evidence node.
    pub fn evidence_levels(&self) -> usize {
        self.evidence_levels
    }

    /// Whether the layout has a dedicated prior column.
    pub fn has_prior(&self) -> bool {
        self.has_prior
    }

    /// Total number of rows (same as [`CrossbarLayout::events`]).
    pub fn rows(&self) -> usize {
        self.events
    }

    /// Total number of columns: one optional prior column plus one block of
    /// `evidence_levels` columns per evidence node.
    pub fn columns(&self) -> usize {
        usize::from(self.has_prior) + self.evidence_nodes * self.evidence_levels
    }

    /// Total number of cells in the array.
    pub fn cells(&self) -> usize {
        self.rows() * self.columns()
    }

    /// Number of columns activated during one inference (the prior column, if
    /// present, plus exactly one column per evidence node).
    pub fn activated_columns(&self) -> usize {
        usize::from(self.has_prior) + self.evidence_nodes
    }

    /// Column index of the prior column, if present.
    pub fn prior_column(&self) -> Option<usize> {
        self.has_prior.then_some(0)
    }

    /// Column index holding the likelihood of `(node, level)`.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidEvidence`] when the node or level is
    /// outside the layout.
    pub fn likelihood_column(&self, node: usize, level: usize) -> Result<usize> {
        if node >= self.evidence_nodes || level >= self.evidence_levels {
            return Err(CrossbarError::InvalidEvidence { node, level });
        }
        Ok(usize::from(self.has_prior) + node * self.evidence_levels + level)
    }

    /// Whether the whole layout fits inside a single physical tile of
    /// `rows × columns` cells.
    pub fn fits_within(&self, rows: usize, columns: usize) -> bool {
        self.rows() <= rows && self.columns() <= columns
    }

    /// Number of `(row, column)` tiles of the given fixed size needed to
    /// cover the layout (the grid dimensions of a tiled fabric).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidLayout`] for a zero-sized tile.
    pub fn tiles_needed(&self, tile_rows: usize, tile_columns: usize) -> Result<(usize, usize)> {
        if tile_rows == 0 || tile_columns == 0 {
            return Err(CrossbarError::InvalidLayout {
                reason: format!("tile shape {tile_rows}x{tile_columns} has a zero dimension"),
            });
        }
        Ok((
            self.rows().div_ceil(tile_rows),
            self.columns().div_ceil(tile_columns),
        ))
    }

    /// The role of a column index.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] when the column is outside
    /// the layout.
    pub fn column_role(&self, column: usize) -> Result<ColumnRole> {
        if column >= self.columns() {
            return Err(CrossbarError::IndexOutOfBounds {
                row: 0,
                column,
                rows: self.rows(),
                columns: self.columns(),
            });
        }
        if self.has_prior && column == 0 {
            return Ok(ColumnRole::Prior);
        }
        let offset = column - usize::from(self.has_prior);
        Ok(ColumnRole::Likelihood {
            node: offset / self.evidence_levels,
            level: offset % self.evidence_levels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_dimensions_rejected() {
        assert!(CrossbarLayout::new(0, 4, 16, true).is_err());
        assert!(CrossbarLayout::new(3, 0, 16, true).is_err());
        assert!(CrossbarLayout::new(3, 4, 0, true).is_err());
    }

    #[test]
    fn iris_layout_matches_paper() {
        // Fig. 8(b): 3 wordlines, 4 features at Q_f = 4 bit (16 levels) and
        // no prior column because the iris prior is uniform => 64 bitlines.
        let layout = CrossbarLayout::new(3, 4, 16, false).unwrap();
        assert_eq!(layout.rows(), 3);
        assert_eq!(layout.columns(), 64);
        assert_eq!(layout.cells(), 192);
        assert_eq!(layout.activated_columns(), 4);
        assert_eq!(layout.prior_column(), None);
    }

    #[test]
    fn prior_column_shifts_likelihood_blocks() {
        let layout = CrossbarLayout::new(2, 2, 4, true).unwrap();
        assert_eq!(layout.columns(), 9);
        assert_eq!(layout.activated_columns(), 3);
        assert_eq!(layout.prior_column(), Some(0));
        assert_eq!(layout.likelihood_column(0, 0).unwrap(), 1);
        assert_eq!(layout.likelihood_column(0, 3).unwrap(), 4);
        assert_eq!(layout.likelihood_column(1, 0).unwrap(), 5);
        assert_eq!(layout.likelihood_column(1, 3).unwrap(), 8);
    }

    #[test]
    fn likelihood_column_without_prior() {
        let layout = CrossbarLayout::new(2, 3, 4, false).unwrap();
        assert_eq!(layout.likelihood_column(0, 0).unwrap(), 0);
        assert_eq!(layout.likelihood_column(2, 3).unwrap(), 11);
    }

    #[test]
    fn out_of_range_evidence_rejected() {
        let layout = CrossbarLayout::new(2, 2, 4, true).unwrap();
        assert!(layout.likelihood_column(2, 0).is_err());
        assert!(layout.likelihood_column(0, 4).is_err());
    }

    #[test]
    fn column_role_round_trips() {
        let layout = CrossbarLayout::new(2, 3, 5, true).unwrap();
        assert_eq!(layout.column_role(0).unwrap(), ColumnRole::Prior);
        for node in 0..3 {
            for level in 0..5 {
                let column = layout.likelihood_column(node, level).unwrap();
                assert_eq!(
                    layout.column_role(column).unwrap(),
                    ColumnRole::Likelihood { node, level }
                );
            }
        }
        assert!(layout.column_role(layout.columns()).is_err());
    }
}
