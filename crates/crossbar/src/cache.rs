//! Precomputed per-cell conductances for the sparse read path.
//!
//! FeBiM's efficiency claim rests on the crossbar accumulating quantized
//! log-posteriors in a single read cycle; evaluating the FeFET I-V equation
//! (a transcendental softplus) for every cell on every inference throws that
//! away in software. This cache mirrors the hardware instead: the on/off read
//! current of every cell is computed once per programming/variation event,
//! and a read becomes a sparse sum over the activated columns only:
//!
//! ```text
//! I_row = Σ_all off[row][c]  +  Σ_active (on[row][c] - off[row][c])
//!       = row_off_sum[row]   +  Σ_active delta
//! ```
//!
//! so one inference is O(rows × activated columns) with no device-model
//! calls. [`crate::TileGrid`] keeps one cache in logical coordinates and
//! brings it current lazily after any mutation (programming, variation
//! injection, direct cell access, ageing), re-evaluating only the cells
//! that changed.
//!
//! ## The committed summation order
//!
//! A wordline's delta sum runs four independent accumulator lanes striped
//! over the activation order in chunks of four, plus a scalar tail for the
//! remainder, combined as
//!
//! ```text
//! ((lane0 + lane1) + (lane2 + lane3)) + tail
//! ```
//!
//! and finally added onto `row_off_sum`. Floating-point addition is not
//! associative, so this order **is** the bit-exactness contract.
//!
//! ## Bitline-major deltas
//!
//! The deltas are stored bitline-major (`delta[column * rows + row]`), the
//! way the hardware reads: one activated bitline drives its current into
//! every wordline at once. [`ConductanceCache::wordline_currents_into`]
//! reads all wordlines of a read together, adding whole activated columns
//! into fixed-size blocks of per-row lane accumulators. A single wordline,
//! and each row past the last full block (every row of a layout shorter
//! than one block), gathers its deltas with a stride through
//! [`lane_delta_sum`], which the uncached reference oracles also call. The
//! two loop orders perform the same additions in the same order for every
//! row, and the crate's property tests tie both to the one order above on
//! layouts shorter than a block, exactly one block and several blocks with
//! a partial last one, across every remainder case (0–3 trailing columns).

use crate::read::{Activation, LevelLadder};

/// Wordlines per block of the all-rows read kernel: a block's four lane
/// accumulators and its tail live on the stack. Eight rows keep them small
/// enough for the compiler to hold most of them in registers; 16-row
/// blocks read 64×512 about 1.5x slower.
pub(crate) const BLOCK_ROWS: usize = 8;

/// One wordline's on/off delta sum over the activated columns in the
/// committed 4-lane order (see the module docs): lanes striped over
/// activation order, combined as `((lane0 + lane1) + (lane2 + lane3)) +
/// tail`. `delta(column)` reads the wordline's delta at one column.
#[inline]
pub(crate) fn lane_delta_sum(active_columns: &[usize], delta: impl Fn(usize) -> f64) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = active_columns.chunks_exact(4);
    for chunk in &mut chunks {
        lanes[0] += delta(chunk[0]);
        lanes[1] += delta(chunk[1]);
        lanes[2] += delta(chunk[2]);
        lanes[3] += delta(chunk[3]);
    }
    let mut tail = 0.0;
    for &column in chunks.remainder() {
        tail += delta(column);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// Adds one column slice of a row block into one accumulator lane.
#[inline]
fn add_column(lane: &mut [f64; BLOCK_ROWS], deltas: &[f64]) {
    for (sum, &delta) in lane.iter_mut().zip(deltas) {
        *sum += delta;
    }
}

/// Bit-plane variant of [`lane_delta_sum`]: sums `bit(slot)` for slots
/// `0..count` in the committed 4-lane striping and
/// `((lane0 + lane1) + (lane2 + lane3)) + tail` combine. The closure lets
/// the cached kernel and the uncached oracle plug in their own per-slot
/// bit extraction while guaranteeing the identical summation structure —
/// the same contract [`lane_delta_sum`] pins for analog reads. The
/// summands are exact 0.0/1.0 values, so the partial sums are exact
/// integers in `f64`.
#[inline]
pub(crate) fn lane_bit_sum(count: usize, mut bit: impl FnMut(usize) -> f64) -> f64 {
    let mut lanes = [0.0f64; 4];
    let full = count / 4 * 4;
    let mut slot = 0;
    while slot < full {
        lanes[0] += bit(slot);
        lanes[1] += bit(slot + 1);
        lanes[2] += bit(slot + 2);
        lanes[3] += bit(slot + 3);
        slot += 4;
    }
    let mut tail = 0.0;
    for slot in full..count {
        tail += bit(slot);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// One wordline's per-plane partial sums of a packed bit-plane read,
/// appended to `out` (`planes` values, plane 0 = LSB first).
///
/// Every activated column's effective on-current is digitized **once**
/// through the ladder into `level_scratch` (the caller-provided hoist that
/// keeps the per-plane loops free of ladder arithmetic); plane `q` then
/// counts, in the committed 4-lane order, the activated columns whose
/// effective level has bit `bit_offsets[slot] + q` set. Both the cached
/// kernel and the uncached reference oracle funnel through this one
/// function with their own `on_current` accessor, so packed partial sums
/// can never diverge between them.
pub(crate) fn row_plane_partials(
    mut on_current: impl FnMut(usize) -> f64,
    active_columns: &[usize],
    bit_offsets: &[u8],
    planes: usize,
    ladder: &LevelLadder,
    level_scratch: &mut Vec<usize>,
    out: &mut Vec<f64>,
) {
    level_scratch.clear();
    level_scratch.reserve(active_columns.len());
    for &column in active_columns {
        level_scratch.push(ladder.level_for_current(on_current(column)));
    }
    for plane in 0..planes {
        out.push(lane_bit_sum(active_columns.len(), |slot| {
            f64::from(((level_scratch[slot] >> (bit_offsets[slot] as usize + plane)) & 1) as u32)
        }));
    }
}

/// Struct-of-arrays conductance snapshot of a programmed crossbar.
///
/// `on`/`off` hold one entry per cell, row-major; `delta = on - off` holds
/// one entry per cell too, precomputed so the read kernel is a pure sum,
/// and stored bitline-major (`delta[column * rows + row]`, see the module
/// docs); `row_off_sums` holds one entry per row (the accumulated leakage
/// of a fully inhibited wordline, summed in column order).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ConductanceCache {
    rows: usize,
    columns: usize,
    on: Vec<f64>,
    off: Vec<f64>,
    delta: Vec<f64>,
    row_off_sums: Vec<f64>,
}

impl ConductanceCache {
    /// Builds a cache from an arbitrary per-cell evaluation point
    /// `(row, column) -> (on, off)`, visiting cells in row-major order.
    ///
    /// This is the entry point the non-ideality-aware owner uses: the same
    /// evaluation point that builds the cache also drives the uncached
    /// reference oracles and the partial-refresh path, so all three see
    /// identical per-cell currents bit for bit.
    pub(crate) fn build_with(
        rows: usize,
        columns: usize,
        mut eval: impl FnMut(usize, usize) -> (f64, f64),
    ) -> Self {
        let cells = rows * columns;
        let mut on = Vec::with_capacity(cells);
        let mut off = Vec::with_capacity(cells);
        let mut delta = vec![0.0; cells];
        for row in 0..rows {
            for column in 0..columns {
                let (cell_on, cell_off) = eval(row, column);
                on.push(cell_on);
                off.push(cell_off);
                delta[column * rows + row] = cell_on - cell_off;
            }
        }
        let mut row_off_sums = Vec::with_capacity(rows);
        for row in 0..rows {
            let base = row * columns;
            let mut sum = 0.0;
            for column in 0..columns {
                sum += off[base + column];
            }
            row_off_sums.push(sum);
        }
        Self {
            rows,
            columns,
            on,
            off,
            delta,
            row_off_sums,
        }
    }

    /// Overwrites the snapshot of one cell with freshly evaluated currents.
    ///
    /// The owning fabric must call
    /// [`ConductanceCache::recompute_row_off_sum`] for the touched row
    /// afterwards; until then the row's off-sum is stale.
    pub(crate) fn refresh_cell(&mut self, row: usize, column: usize, on: f64, off: f64) {
        let index = row * self.columns + column;
        self.on[index] = on;
        self.off[index] = off;
        self.delta[column * self.rows + row] = on - off;
    }

    /// Recomputes one row's off-state leakage sum from the stored per-cell
    /// off currents, accumulating in column order — the exact order
    /// [`ConductanceCache::build_with`] uses, so a partial refresh is
    /// bit-identical to a full rebuild.
    pub(crate) fn recompute_row_off_sum(&mut self, row: usize) {
        let base = row * self.columns;
        let mut sum = 0.0;
        for column in 0..self.columns {
            sum += self.off[base + column];
        }
        self.row_off_sums[row] = sum;
    }

    /// Cached `V_on` read current of one cell.
    pub(crate) fn on_current(&self, row: usize, column: usize) -> f64 {
        self.on[row * self.columns + column]
    }

    /// Cached `V_on` read currents of every cell, row-major.
    pub(crate) fn on_currents(&self) -> &[f64] {
        &self.on
    }

    /// Accumulated current of one wordline: the row's full off-state leakage
    /// plus the activated columns' on/off deltas, gathered with a stride in
    /// the committed 4-lane order (see [`lane_delta_sum`]).
    pub(crate) fn wordline_current(&self, row: usize, activation: &Activation) -> f64 {
        self.row_off_sums[row]
            + lane_delta_sum(activation.active_columns(), |column| {
                self.delta[column * self.rows + row]
            })
    }

    /// Accumulated currents of every wordline for one activation, appended
    /// to `out` in row order.
    ///
    /// Rows are read in full blocks of [`BLOCK_ROWS`]: each chunk of four
    /// activated columns adds four contiguous column slices of the block,
    /// one into each lane accumulator, and the leftover columns add into
    /// the tail, so every row sees the additions of [`lane_delta_sum`] in
    /// its order. The rows past the last full block — all of them on a
    /// layout shorter than one block — gather one by one
    /// ([`ConductanceCache::wordline_current`]), which is cheaper for short
    /// columns.
    pub(crate) fn wordline_currents_into(&self, activation: &Activation, out: &mut Vec<f64>) {
        let rows = self.rows;
        let active_columns = activation.active_columns();
        let blocked = rows / BLOCK_ROWS * BLOCK_ROWS;
        for first in (0..blocked).step_by(BLOCK_ROWS) {
            let block = |column: usize| &self.delta[column * rows + first..][..BLOCK_ROWS];
            let mut lanes = [[0.0f64; BLOCK_ROWS]; 4];
            let mut tail = [0.0f64; BLOCK_ROWS];
            let mut chunks = active_columns.chunks_exact(4);
            for chunk in &mut chunks {
                for (lane, &column) in lanes.iter_mut().zip(chunk) {
                    add_column(lane, block(column));
                }
            }
            for &column in chunks.remainder() {
                add_column(&mut tail, block(column));
            }
            let off_sums = &self.row_off_sums[first..first + BLOCK_ROWS];
            for (row, &off_sum) in off_sums.iter().enumerate() {
                let lanes_sum = (lanes[0][row] + lanes[1][row]) + (lanes[2][row] + lanes[3][row]);
                out.push(off_sum + (lanes_sum + tail[row]));
            }
        }
        out.extend((blocked..rows).map(|row| self.wordline_current(row, activation)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::layout::CrossbarLayout;
    use febim_device::FeFetParams;

    /// Builds a cache straight from a cell bank (the ideal-stack evaluation
    /// the owning array uses when no non-ideality is configured).
    fn build(rows: usize, columns: usize, cells: &[Cell]) -> ConductanceCache {
        let params = FeFetParams::febim_calibrated();
        ConductanceCache::build_with(rows, columns, |row, column| {
            let cell = &cells[row * columns + column];
            (
                cell.read_current_on(&params),
                cell.read_current_off(&params),
            )
        })
    }

    #[test]
    fn cache_matches_fresh_device_evaluations() {
        let layout = CrossbarLayout::new(2, 3, 1, false).unwrap();
        let params = FeFetParams::febim_calibrated();
        let mut cells = vec![Cell::default(); layout.cells()];
        cells[1]
            .device_mut()
            .set_polarization(febim_device::Polarization::new(0.6));
        let cache = build(layout.rows(), layout.columns(), &cells);
        for (index, cell) in cells.iter().enumerate() {
            let row = index / layout.columns();
            let column = index % layout.columns();
            assert_eq!(cache.on_current(row, column), cell.read_current_on(&params));
            assert_eq!(cache.off[index], cell.read_current_off(&params));
            // Deltas are stored bitline-major.
            assert_eq!(
                cache.delta[column * layout.rows() + row],
                cell.read_current_on(&params) - cell.read_current_off(&params)
            );
        }
        // The row off-sum accumulates in column order.
        let expected: f64 = cells[..layout.columns()]
            .iter()
            .fold(0.0, |sum, cell| sum + cell.read_current_off(&params));
        assert_eq!(cache.row_off_sums[0], expected);
    }

    #[test]
    fn sparse_sum_visits_only_active_columns() {
        let layout = CrossbarLayout::new(1, 4, 1, false).unwrap();
        let mut cells = vec![Cell::default(); layout.cells()];
        for cell in &mut cells {
            cell.device_mut()
                .set_polarization(febim_device::Polarization::new(0.7));
        }
        let cache = build(1, 4, &cells);
        let none = Activation::from_columns(&layout, &[]).unwrap();
        let all = Activation::all_columns(&layout);
        assert_eq!(cache.wordline_current(0, &none), cache.row_off_sums[0]);
        assert!(cache.wordline_current(0, &all) > cache.wordline_current(0, &none));
    }

    #[test]
    fn partial_refresh_matches_full_rebuild_bit_for_bit() {
        let layout = CrossbarLayout::new(3, 2, 2, false).unwrap();
        let params = FeFetParams::febim_calibrated();
        let mut cells = vec![Cell::default(); layout.cells()];
        for (index, cell) in cells.iter_mut().enumerate() {
            cell.device_mut()
                .set_polarization(febim_device::Polarization::new(0.2 + 0.05 * (index as f64)));
        }
        let mut cache = build(layout.rows(), layout.columns(), &cells);
        // Mutate two cells of row 1 and refresh only those entries.
        for column in [0usize, 3] {
            let index = layout.columns() + column;
            cells[index]
                .device_mut()
                .set_polarization(febim_device::Polarization::new(0.9));
            cache.refresh_cell(
                1,
                column,
                cells[index].read_current_on(&params),
                cells[index].read_current_off(&params),
            );
        }
        cache.recompute_row_off_sum(1);
        let rebuilt = build(layout.rows(), layout.columns(), &cells);
        assert_eq!(cache, rebuilt);
    }

    #[test]
    fn bit_lane_sum_counts_exactly() {
        // 0/1 summands make every partial an exact integer regardless of
        // striping, but the committed lane structure must still be the one
        // an explicit lane-by-lane evaluation produces.
        let bits = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        for count in 0..=bits.len() {
            let measured = lane_bit_sum(count, |slot| bits[slot]);
            let expected: f64 = bits[..count].iter().sum();
            assert_eq!(measured, expected, "count={count}");
        }
    }

    #[test]
    fn row_plane_partials_count_set_bits_per_plane() {
        // Three packed columns whose effective currents decode to levels
        // 0b0110, 0b0001 and 0b1111 on a 16-level ladder; the digit of
        // interest sits at offset 0, 0 and 2 respectively.
        let ladder = crate::read::LevelLadder::new(0.1e-6, 1.0e-6, 16).unwrap();
        let span = 0.9e-6;
        let levels = [0b0110usize, 0b0001, 0b1111];
        let currents: Vec<f64> = levels
            .iter()
            .map(|&level| 0.1e-6 + level as f64 / 15.0 * span)
            .collect();
        let active = [0usize, 1, 2];
        let offsets = [0u8, 0, 2];
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        row_plane_partials(
            |column| currents[column],
            &active,
            &offsets,
            2,
            &ladder,
            &mut scratch,
            &mut out,
        );
        // Plane 0 (LSB): bits are 0, 1, 1 → 2. Plane 1: bits 1, 0, 1 → 2.
        assert_eq!(out, vec![2.0, 2.0]);
        assert_eq!(scratch, levels);
    }

    #[test]
    fn lane_sum_order_is_the_committed_one() {
        // Deltas chosen so reassociation visibly changes the result: the
        // committed order must match an explicit lane-by-lane evaluation.
        let deltas: Vec<f64> = (0..11)
            .map(|index| 1.0 + (index as f64) * 1e-16 + (index as f64).sin())
            .collect();
        for active in 0..=deltas.len() {
            let columns: Vec<usize> = (0..active).collect();
            let measured = lane_delta_sum(&columns, |column| deltas[column]);
            let mut lanes = [0.0f64; 4];
            let full = active / 4 * 4;
            for (slot, &column) in columns[..full].iter().enumerate() {
                lanes[slot % 4] += deltas[column];
            }
            let mut tail = 0.0;
            for &column in &columns[full..] {
                tail += deltas[column];
            }
            let expected = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail;
            assert_eq!(measured, expected, "active={active}");
        }
    }
}
