//! Tiled multi-array crossbar fabric — and, over a one-tile plan, the
//! paper's monolithic array.
//!
//! A physical FeFET macro has a fixed tile size; a Bayesian model whose
//! logical layout exceeds it must be sharded across a grid of tiles —
//! row-wise over events (classes) and column-wise over evidence columns,
//! the composition used by reconfigurable ferroelectric CIM fabrics. This
//! module provides:
//!
//! * [`TileShape`] — the fixed physical tile geometry,
//! * [`TilePlan`] — the mapping of a [`CrossbarLayout`] onto a tile grid
//!   ([`TilePlan::monolithic`] maps it onto one tile of its own size: the
//!   paper's single array),
//! * [`TileGrid`] — the programmed fabric itself: one cell bank per tile
//!   behind one conductance cache kept in logical coordinates.
//!
//! ## Bit-exactness
//!
//! A read does not depend on the plan, bit for bit: cells are programmed
//! identically (so per-cell on/off currents match), non-idealities are
//! evaluated in logical coordinates (a cell's IR-drop position, retention
//! age and wordline read count are the same whether the model sits on one
//! tile or many), and the conductance cache is kept in logical row-major
//! order, so a wordline's off-sum accumulates in global column order and
//! the activated deltas go through the committed 4-lane reduction (see the
//! `cache` module docs) whatever the tile boundaries.
//! Equivalence is proptest-enforced in this crate and at engine level.
//!
//! ## Cell-granular cache epochs
//!
//! The cache is versioned as described in [`crate::array`]: mutating one
//! cell marks that cell stale, a read-disturb tier crossing or a refresh
//! marks its wordline, so bringing the cache current re-evaluates only
//! those cells — one drifted cell invalidates neither its tile nor the
//! grid.
//!
//! The one intentional divergence between plans is
//! [`ProgrammingMode::PulseTrain`] disturb: half-bias inhibit pulses only
//! reach the rows of the tile being written — tiles are physically separate
//! arrays — so a one-tile plan disturbs every other row of the column, as
//! the paper's single array does, while a sharded fabric does not.

use std::cell::RefCell;
use std::ops::Range;

use rand::Rng;
use serde::{Deserialize, Serialize};

use febim_device::{
    CellContext, DeviceError, LevelProgrammer, NonIdealityStack, ProgrammedState, VariationModel,
};

use crate::array::{DirtyState, ProgrammingMode, RebuildStats, RefreshOutcome};
use crate::cache::{lane_delta_sum, row_plane_partials, ConductanceCache};
use crate::cell::Cell;
use crate::errors::{CrossbarError, Result};
use crate::fault::{FaultKind, FaultReport, ScrubOutcome};
use crate::layout::CrossbarLayout;
use crate::read::{Activation, LevelLadder, ReadCounters};
use crate::write::WriteScheme;

/// Fixed geometry of one physical crossbar tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileShape {
    /// Wordlines per tile.
    pub rows: usize,
    /// Bitlines per tile.
    pub columns: usize,
    /// Redundant spare wordlines fabricated below the logical rows of every
    /// tile. Spares carry no part of the program until a scrub pass remaps a
    /// logical row holding an unrepairable cell onto one (see
    /// [`TileGrid::scrub`]); they do not count towards [`TileShape::cells`]
    /// or the plan's utilization.
    #[serde(default)]
    pub spare_rows: usize,
}

impl TileShape {
    /// Creates a tile shape with no spare rows.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidLayout`] when either dimension is
    /// zero.
    pub fn new(rows: usize, columns: usize) -> Result<Self> {
        if rows == 0 || columns == 0 {
            return Err(CrossbarError::InvalidLayout {
                reason: format!("tile shape {rows}x{columns} has a zero dimension"),
            });
        }
        Ok(Self {
            rows,
            columns,
            spare_rows: 0,
        })
    }

    /// The same geometry with `spare_rows` redundant wordlines per tile.
    pub fn with_spare_rows(mut self, spare_rows: usize) -> Self {
        self.spare_rows = spare_rows;
        self
    }

    /// The 64×64 macro used for the fabric-scale studies (a 64-wordline
    /// tile matching the Fig. 6 scalability sweep's tallest array).
    pub fn febim_macro() -> Self {
        Self {
            rows: 64,
            columns: 64,
            spare_rows: 0,
        }
    }

    /// Logical (program-visible) cells per tile; spare rows excluded.
    pub fn cells(&self) -> usize {
        self.rows * self.columns
    }
}

/// The mapping of one logical crossbar layout onto a grid of fixed-size
/// tiles: `row_tiles × col_tiles` tiles, edge tiles partially filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TilePlan {
    layout: CrossbarLayout,
    shape: TileShape,
    row_tiles: usize,
    col_tiles: usize,
}

impl TilePlan {
    /// Plans the tiling of `layout` onto tiles of `shape`.
    ///
    /// # Errors
    ///
    /// Propagates zero-dimension tile shapes.
    pub fn new(layout: CrossbarLayout, shape: TileShape) -> Result<Self> {
        let (row_tiles, col_tiles) = layout.tiles_needed(shape.rows, shape.columns)?;
        Ok(Self {
            layout,
            shape,
            row_tiles,
            col_tiles,
        })
    }

    /// Plans `layout` onto one tile of exactly its size: the paper's
    /// monolithic array, a 1×1 grid with no spare rows.
    pub fn monolithic(layout: CrossbarLayout) -> Self {
        Self {
            layout,
            shape: TileShape {
                rows: layout.rows(),
                columns: layout.columns(),
                spare_rows: 0,
            },
            row_tiles: 1,
            col_tiles: 1,
        }
    }

    /// The logical layout being sharded.
    pub fn layout(&self) -> &CrossbarLayout {
        &self.layout
    }

    /// The physical tile geometry.
    pub fn shape(&self) -> TileShape {
        self.shape
    }

    /// Number of tile rows (event shards).
    pub fn row_tiles(&self) -> usize {
        self.row_tiles
    }

    /// Number of tile columns (evidence shards).
    pub fn col_tiles(&self) -> usize {
        self.col_tiles
    }

    /// Total number of tiles in the grid.
    pub fn tile_count(&self) -> usize {
        self.row_tiles * self.col_tiles
    }

    /// Whether the model actually spans more than one tile.
    pub fn is_multi_tile(&self) -> bool {
        self.tile_count() > 1
    }

    /// Fraction of the provisioned fabric cells the layout actually uses.
    pub fn utilization(&self) -> f64 {
        self.layout.cells() as f64 / (self.tile_count() * self.shape.cells()) as f64
    }

    fn check_tile(&self, tile_row: usize, tile_col: usize) -> Result<()> {
        if tile_row >= self.row_tiles || tile_col >= self.col_tiles {
            return Err(CrossbarError::IndexOutOfBounds {
                row: tile_row,
                column: tile_col,
                rows: self.row_tiles,
                columns: self.col_tiles,
            });
        }
        Ok(())
    }

    /// Global row range covered by one tile row (edge tiles are shorter).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] outside the grid.
    pub fn tile_row_range(&self, tile_row: usize) -> Result<Range<usize>> {
        self.check_tile(tile_row, 0)?;
        let start = tile_row * self.shape.rows;
        Ok(start..self.layout.rows().min(start + self.shape.rows))
    }

    /// Global column range covered by one tile column (edge tiles are
    /// narrower).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] outside the grid.
    pub fn tile_column_range(&self, tile_col: usize) -> Result<Range<usize>> {
        self.check_tile(0, tile_col)?;
        let start = tile_col * self.shape.columns;
        Ok(start..self.layout.columns().min(start + self.shape.columns))
    }

    /// The `(tile_row, tile_col)` owning a global cell coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] outside the layout.
    pub fn tile_of(&self, row: usize, column: usize) -> Result<(usize, usize)> {
        if row >= self.layout.rows() || column >= self.layout.columns() {
            return Err(CrossbarError::IndexOutOfBounds {
                row,
                column,
                rows: self.layout.rows(),
                columns: self.layout.columns(),
            });
        }
        Ok((row / self.shape.rows, column / self.shape.columns))
    }

    /// Occupied dimensions of one tile (`rows × columns` of mapped cells).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] outside the grid.
    pub fn tile_dims(&self, tile_row: usize, tile_col: usize) -> Result<(usize, usize)> {
        Ok((
            self.tile_row_range(tile_row)?.len(),
            self.tile_column_range(tile_col)?.len(),
        ))
    }
}

/// Cost of one region-scoped write ([`TileGrid::program_region`] /
/// [`TileGrid::erase_region`]): the pulse trains applied and their energy,
/// priced through the Preisach programming model like every other write.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct RegionWriteOutcome {
    /// Cells driven to a target level.
    pub cells_programmed: u64,
    /// Cells erased (programmed level forgotten, polarization reset).
    pub cells_erased: u64,
    /// Total program/erase pulses applied.
    pub pulses_applied: u64,
    /// Energy of those pulses, in joules.
    pub energy_joules: f64,
}

impl RegionWriteOutcome {
    /// Accumulates another outcome into this one.
    pub fn absorb(&mut self, other: &RegionWriteOutcome) {
        self.cells_programmed += other.cells_programmed;
        self.cells_erased += other.cells_erased;
        self.pulses_applied += other.pulses_applied;
        self.energy_joules += other.energy_joules;
    }
}

/// One physical tile: its occupied cell bank in local row-major order, the
/// provisioned spare rows appended below the logical rows, and the
/// logical-to-physical wordline remap table the self-repair path rewires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Tile {
    rows: usize,
    columns: usize,
    /// Spare physical wordlines appended after the `rows` logical ones.
    spare_rows: usize,
    /// `remap[logical local row] = physical backing row` — identity until a
    /// scrub pass routes a defective wordline onto a spare.
    remap: Vec<usize>,
    /// Spare rows consumed by repairs so far.
    spares_used: usize,
    /// `(rows + spare_rows) × columns` cells, physical row-major.
    cells: Vec<Cell>,
}

impl Tile {
    /// Physical cell index of a **logical** local coordinate, routed through
    /// the remap table. Every programming, variation, refresh and read path
    /// addresses cells through the remap table, so a repaired wordline is
    /// transparently served by its spare.
    fn index(&self, local_row: usize, local_col: usize) -> usize {
        self.remap[local_row] * self.columns + local_col
    }

    /// The cells backing one logical local row, in column order.
    fn row(&self, local_row: usize) -> &[Cell] {
        let start = self.index(local_row, 0);
        &self.cells[start..start + self.columns]
    }

    /// Mutable [`Tile::row`].
    fn row_mut(&mut self, local_row: usize) -> &mut [Cell] {
        let start = self.index(local_row, 0);
        &mut self.cells[start..start + self.columns]
    }

    /// Whether an unused spare wordline remains.
    fn has_free_spare(&self) -> bool {
        self.spares_used < self.spare_rows
    }
}

/// The tiles holding one logical wordline, in tile-column order, and the
/// wordline's local row inside them.
fn row_tiles(plan: &TilePlan, row: usize) -> (Range<usize>, usize) {
    let (shape, col_tiles) = (plan.shape(), plan.col_tiles());
    let tile_row = row / shape.rows;
    (
        tile_row * col_tiles..(tile_row + 1) * col_tiles,
        row % shape.rows,
    )
}

/// A programmed crossbar fabric: a model's logical layout sharded over the
/// tiles of a [`TilePlan`] — or, over [`TilePlan::monolithic`], the paper's
/// single array.
///
/// Rows are sharded across tile rows (each tile row senses a subset of the
/// events), columns across tile columns (each tile accumulates a partial
/// sum over its evidence columns). Reads go through an epoch-versioned
/// conductance cache in logical coordinates: the device I-V model is
/// evaluated per cell only when that cell's state changed (programming,
/// variation injection, direct cell access, retention-drift ticks or
/// read-disturb tier crossings), and every [`TileGrid::wordline_currents`]
/// call is a sparse accumulation over the activated columns only. The
/// uncached [`TileGrid::wordline_currents_reference`] path re-evaluates the
/// device model — including the configured [`NonIdealityStack`] — on every
/// call and serves as the equivalence oracle. See the module docs for the
/// bit-exactness guarantee.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TileGrid {
    plan: TilePlan,
    programmer: LevelProgrammer,
    write_scheme: WriteScheme,
    /// Tiles in grid row-major order (`tile_row * col_tiles + tile_col`).
    tiles: Vec<Tile>,
    write_energy: f64,
    /// Composable time-varying non-ideality models, evaluated in logical
    /// coordinates.
    stack: NonIdealityStack,
    /// Fabric clock in retention ticks.
    clock: u64,
    /// Per-logical-wordline read counters (read history is physical state
    /// once a disturb model is configured). Skipped by serialization.
    #[serde(skip)]
    row_reads: ReadCounters,
    /// Monotonic version of the physical state; bumped by every mutation
    /// that can change a read current.
    #[serde(skip)]
    state_epoch: std::cell::Cell<u64>,
    /// The state epoch the cache was last brought up to date with.
    #[serde(skip)]
    cache_epoch: std::cell::Cell<u64>,
    /// Which cells changed between `cache_epoch` and `state_epoch`.
    #[serde(skip)]
    dirty: RefCell<DirtyState>,
    /// Cache maintenance counters.
    #[serde(skip)]
    stats: std::cell::Cell<RebuildStats>,
    /// Derived state in logical row-major order: `None` means never built.
    /// Skipped by serialization and ignored by equality.
    #[serde(skip)]
    cache: RefCell<Option<ConductanceCache>>,
}

impl PartialEq for TileGrid {
    fn eq(&self, other: &Self) -> bool {
        // The conductance cache, dirty set and epochs are derived state; two
        // fabrics are equal when their physical state (cells, clock, read
        // history, non-ideality configuration, bookkeeping) is.
        self.plan == other.plan
            && self.programmer == other.programmer
            && self.write_scheme == other.write_scheme
            && self.tiles == other.tiles
            && self.write_energy == other.write_energy
            && self.stack == other.stack
            && self.clock == other.clock
            && self.row_reads == other.row_reads
    }
}

impl TileGrid {
    /// Creates an erased, ideal (no non-idealities) fabric for the given
    /// plan and level programmer.
    pub fn new(plan: TilePlan, programmer: LevelProgrammer) -> Self {
        // Build one template cell and clone it, instead of cloning the
        // device parameter struct once per cell.
        let template = Cell::new(programmer.params().clone());
        let tiles = (0..plan.row_tiles())
            .flat_map(|tile_row| (0..plan.col_tiles()).map(move |tile_col| (tile_row, tile_col)))
            .map(|(tile_row, tile_col)| {
                let (rows, columns) = plan.tile_dims(tile_row, tile_col).expect("in-grid tile");
                let spare_rows = plan.shape().spare_rows;
                Tile {
                    rows,
                    columns,
                    spare_rows,
                    remap: (0..rows).collect(),
                    spares_used: 0,
                    cells: vec![template.clone(); (rows + spare_rows) * columns],
                }
            })
            .collect();
        Self {
            plan,
            programmer,
            write_scheme: WriteScheme::febim_default(),
            tiles,
            write_energy: 0.0,
            stack: NonIdealityStack::ideal(),
            clock: 0,
            row_reads: ReadCounters::new(plan.layout().rows()),
            state_epoch: std::cell::Cell::new(0),
            cache_epoch: std::cell::Cell::new(0),
            dirty: RefCell::new(DirtyState::All),
            stats: std::cell::Cell::new(RebuildStats::default()),
            cache: RefCell::new(None),
        }
    }

    /// Creates an erased fabric with a configured non-ideality stack.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::Device`] when the stack parameters are
    /// unphysical (see [`NonIdealityStack::validate`]).
    pub fn with_non_idealities(
        plan: TilePlan,
        programmer: LevelProgrammer,
        stack: NonIdealityStack,
    ) -> Result<Self> {
        stack.validate()?;
        let mut grid = Self::new(plan, programmer);
        grid.stack = stack;
        Ok(grid)
    }

    /// Borrow the tile plan.
    pub fn plan(&self) -> &TilePlan {
        &self.plan
    }

    /// Borrow the logical layout.
    pub fn layout(&self) -> &CrossbarLayout {
        self.plan.layout()
    }

    /// Borrow the level programmer.
    pub fn programmer(&self) -> &LevelProgrammer {
        &self.programmer
    }

    /// Replaces the write scheme (half-bias configuration) of every tile.
    pub fn set_write_scheme(&mut self, scheme: WriteScheme) {
        self.write_scheme = scheme;
    }

    /// Total write energy spent programming the fabric so far, in joules.
    pub fn write_energy(&self) -> f64 {
        self.write_energy
    }

    /// The configured non-ideality stack.
    pub fn non_idealities(&self) -> &NonIdealityStack {
        &self.stack
    }

    /// Replaces the non-ideality stack; every cached conductance is stale
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::Device`] when the stack parameters are
    /// unphysical.
    pub fn set_non_idealities(&mut self, stack: NonIdealityStack) -> Result<()> {
        stack.validate()?;
        self.stack = stack;
        self.mark_all();
        Ok(())
    }

    /// Current fabric clock, in retention ticks.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Advances the fabric clock by `ticks`. With a retention-drift model
    /// configured this ages every cell, so the whole cache goes stale (one
    /// epoch bump, one full rebuild on the next read); without one the clock
    /// still advances but no conductance changes.
    pub fn advance_time(&mut self, ticks: u64) {
        if ticks == 0 {
            return;
        }
        self.clock = self.clock.saturating_add(ticks);
        if self.stack.is_time_varying() {
            self.mark_all();
        }
    }

    /// Monotonic version of the fabric's physical state. Two equal epochs
    /// guarantee no read-current-affecting mutation happened in between.
    pub fn state_epoch(&self) -> u64 {
        self.state_epoch.get()
    }

    /// Cache maintenance counters accumulated since construction.
    pub fn rebuild_stats(&self) -> RebuildStats {
        self.stats.get()
    }

    /// Reads accumulated by one logical wordline since its last refresh
    /// (zero unless a read-disturb model is configured).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a bad row.
    pub fn row_reads(&self, row: usize) -> Result<u64> {
        self.check_row(row)?;
        Ok(self.row_reads.get(row))
    }

    fn bump_epoch(&self) {
        self.state_epoch.set(self.state_epoch.get() + 1);
    }

    fn mark_all(&mut self) {
        *self.dirty.get_mut() = DirtyState::All;
        self.bump_epoch();
    }

    fn mark_cell(&mut self, row: usize, column: usize) {
        let layout = *self.plan.layout();
        self.dirty.get_mut().mark_cell(
            row * layout.columns() + column,
            layout.cells(),
            layout.columns(),
        );
        self.bump_epoch();
    }

    fn mark_row(&mut self, row: usize) {
        let layout = *self.plan.layout();
        self.dirty
            .get_mut()
            .mark_row(row, layout.cells(), layout.columns());
        self.bump_epoch();
    }

    /// Registers one read of a logical wordline for the disturb model; a
    /// tier crossing makes the row's conductances stale.
    fn note_row_read(&self, row: usize) {
        if !self.stack.tracks_reads() {
            return;
        }
        let (before, after) = self.row_reads.bump(row);
        if self.stack.read_tier(before) != self.stack.read_tier(after) {
            let layout = self.plan.layout();
            self.dirty
                .borrow_mut()
                .mark_row(row, layout.cells(), layout.columns());
            self.bump_epoch();
        }
    }

    /// The non-ideality evaluation context of one cell, in **logical**
    /// coordinates — a sharded fabric reads exactly like the single array
    /// it implements.
    fn cell_context(&self, row: usize, column: usize, cell: &Cell) -> CellContext {
        CellContext {
            row,
            column,
            rows: self.plan.layout().rows(),
            columns: self.plan.layout().columns(),
            age_ticks: self.clock.saturating_sub(cell.programmed_at()),
            disturb_pulses: cell.disturb_pulses(),
            row_reads: self.row_reads.get(row),
        }
    }

    /// The single per-cell evaluation point: `(on, off)` read currents of
    /// the cell at logical `(row, column)` under the configured non-ideality
    /// stack. Cache builds, partial refreshes and the uncached reference
    /// oracles all funnel through this function, so cached and reference
    /// reads can never diverge. An ideal stack takes the unshifted fast
    /// path, which is bit-identical to evaluating with a zero shift and a
    /// unit current factor.
    fn evaluate(&self, row: usize, column: usize, cell: &Cell) -> (f64, f64) {
        if self.stack.is_ideal() {
            return (cell.read_current_on(), cell.read_current_off());
        }
        let ctx = self.cell_context(row, column, cell);
        let shift = self.stack.vth_shift(&ctx);
        let v_drain = self.programmer.params().v_drain_read;
        let on = cell.device().read_current_on_shifted(shift);
        let off = cell.device().read_current_off_shifted(shift);
        (
            on * self.stack.current_factor(&ctx, on, v_drain),
            off * self.stack.current_factor(&ctx, off, v_drain),
        )
    }

    /// The cells of one logical wordline in column order, each read through
    /// its tile's remap table.
    fn row_cells(&self, row: usize) -> impl Iterator<Item = &Cell> + '_ {
        let (tiles, local_row) = row_tiles(&self.plan, row);
        self.tiles[tiles]
            .iter()
            .flat_map(move |tile| tile.row(local_row))
    }

    /// Brings the conductance cache up to the current state epoch: a sparse
    /// patch when the dirty set is sparse (recompute the dirty cells, then
    /// re-accumulate the touched rows' off-sums in full column order — bit
    /// identical to a full rebuild), a full rebuild otherwise.
    fn ensure_cache(&self) {
        if self.cache_epoch.get() == self.state_epoch.get() && self.cache.borrow().is_some() {
            return;
        }
        let layout = *self.plan.layout();
        let columns = layout.columns();
        let mut slot = self.cache.borrow_mut();
        let mut dirty = self.dirty.borrow_mut();
        let mut stats = self.stats.get();
        let patched = match (slot.as_mut(), &mut *dirty) {
            (Some(cache), DirtyState::Sparse { cells, rows }) => {
                rows.sort_unstable();
                rows.dedup();
                cells.sort_unstable();
                cells.dedup();
                let mut touched_rows = rows.clone();
                for &row in rows.iter() {
                    for (column, cell) in self.row_cells(row).enumerate() {
                        let (on, off) = self.evaluate(row, column, cell);
                        cache.refresh_cell(row, column, on, off);
                    }
                    stats.cells_recomputed += columns as u64;
                }
                for &index in cells.iter() {
                    let row = index / columns;
                    if rows.binary_search(&row).is_ok() {
                        continue; // already refreshed with its whole row
                    }
                    let column = index % columns;
                    let cell = self.cell(row, column).expect("in-range indices");
                    let (on, off) = self.evaluate(row, column, cell);
                    cache.refresh_cell(row, column, on, off);
                    stats.cells_recomputed += 1;
                    touched_rows.push(row);
                }
                touched_rows.sort_unstable();
                touched_rows.dedup();
                for &row in &touched_rows {
                    cache.recompute_row_off_sum(row);
                }
                stats.partial_refreshes += 1;
                true
            }
            _ => false,
        };
        if !patched {
            let mut cells = (0..layout.rows()).flat_map(|row| self.row_cells(row));
            *slot = Some(ConductanceCache::build_with(
                layout.rows(),
                columns,
                |row, column| {
                    let cell = cells.next().expect("one cell per logical coordinate");
                    self.evaluate(row, column, cell)
                },
            ));
            stats.full_rebuilds += 1;
            stats.cells_recomputed += layout.cells() as u64;
        }
        self.stats.set(stats);
        *dirty = DirtyState::Clean;
        self.cache_epoch.set(self.state_epoch.get());
    }

    /// Runs `reader` against an up-to-date conductance cache.
    fn with_cache<T>(&self, reader: impl FnOnce(&ConductanceCache) -> T) -> T {
        self.ensure_cache();
        let slot = self.cache.borrow();
        reader(slot.as_ref().expect("cache ensured"))
    }

    /// Runs `read` for each of `reads` reads of every wordline, in order,
    /// against an up-to-date cache. Without a read-disturb model the cache
    /// is borrowed **once** for the whole group; with one, each read
    /// registers its wordline reads and re-checks the cache first, so a
    /// mid-group tier crossing is reflected exactly as it would be by
    /// sequential reads — grouped and sequential reads stay bit-identical
    /// in every configuration.
    fn read_group(&self, reads: usize, mut read: impl FnMut(&ConductanceCache, usize)) {
        if !self.stack.tracks_reads() {
            self.with_cache(|cache| (0..reads).for_each(|index| read(cache, index)));
            return;
        }
        for index in 0..reads {
            for row in 0..self.plan.layout().rows() {
                self.note_row_read(row);
            }
            self.with_cache(|cache| read(cache, index));
        }
    }

    fn tile_index_of(&self, row: usize, column: usize) -> Result<usize> {
        let (tile_row, tile_col) = self.plan.tile_of(row, column)?;
        Ok(tile_row * self.plan.col_tiles() + tile_col)
    }

    /// Borrow a cell by its logical coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] outside the layout.
    pub fn cell(&self, row: usize, column: usize) -> Result<&Cell> {
        let tile_index = self.tile_index_of(row, column)?;
        let tile = &self.tiles[tile_index];
        let local = tile.index(
            row % self.plan.shape().rows,
            column % self.plan.shape().columns,
        );
        Ok(&tile.cells[local])
    }

    /// Mutably borrow a cell by its logical coordinates.
    ///
    /// Only the touched cell is marked stale, so the next read recomputes
    /// one cell (plus its row's off-sum), not its tile or the grid.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] outside the layout.
    pub fn cell_mut(&mut self, row: usize, column: usize) -> Result<&mut Cell> {
        let tile_index = self.tile_index_of(row, column)?;
        self.mark_cell(row, column);
        let shape = self.plan.shape();
        let tile = &mut self.tiles[tile_index];
        let local = tile.index(row % shape.rows, column % shape.columns);
        Ok(&mut tile.cells[local])
    }

    /// Programs one cell (logical coordinates) to a multi-level state and
    /// returns the write pulses applied (the Preisach train length, also
    /// counted under [`ProgrammingMode::Ideal`] for cost bookkeeping).
    ///
    /// With [`ProgrammingMode::PulseTrain`] the other rows of the same tile
    /// column absorb half-bias disturb pulses, mirroring the physical write
    /// scheme — tiles are physically separate arrays, so inhibit disturbance
    /// does not cross tile boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for bad coordinates and
    /// propagates device errors for unreachable levels.
    pub fn program_cell(
        &mut self,
        row: usize,
        column: usize,
        level: usize,
        mode: ProgrammingMode,
    ) -> Result<u64> {
        let tile_index = self.tile_index_of(row, column)?;
        let shape = self.plan.shape();
        self.program_in_tile(
            tile_index,
            (row % shape.rows, column % shape.columns),
            (row, column),
            level,
            mode,
        )
    }

    /// [`TileGrid::program_cell`] with the owning tile and the local
    /// coordinates already resolved.
    fn program_in_tile(
        &mut self,
        tile_index: usize,
        (local_row, local_col): (usize, usize),
        (row, column): (usize, usize),
        level: usize,
        mode: ProgrammingMode,
    ) -> Result<u64> {
        let clock = self.clock;
        let scheme = self.write_scheme;
        let tile = &mut self.tiles[tile_index];
        let local = tile.index(local_row, local_col);
        let state = if tile.cells[local].is_stuck() {
            // A stuck stack does not respond to the write; the target state
            // is still resolved for bookkeeping and energy.
            self.programmer.state_for_level(level)?
        } else {
            match mode {
                ProgrammingMode::Ideal => self
                    .programmer
                    .program_ideal(tile.cells[local].device_mut(), level)?,
                ProgrammingMode::PulseTrain => self
                    .programmer
                    .program_with_pulses(tile.cells[local].device_mut(), level)?,
            }
        };
        let pulses = u64::from(state.write_config.pulse_count) + 1;
        let disturbed = match mode {
            ProgrammingMode::Ideal => 0..0,
            ProgrammingMode::PulseTrain => 0..tile.rows,
        };
        // Unselected rows of the same tile column see V_w/2 pulses, even
        // when the selected stack is stuck and does not move.
        for other_row in disturbed.clone().filter(|&other| other != local_row) {
            let other = tile.index(other_row, local_col);
            scheme.apply_disturb(&mut tile.cells[other], pulses);
        }
        let cell = &mut tile.cells[local];
        cell.set_programmed_level(level);
        cell.reset_disturb();
        cell.set_programmed_at(clock);
        for other_row in disturbed.filter(|&other| other != local_row) {
            self.mark_cell(row - local_row + other_row, column);
        }
        self.mark_cell(row, column);
        self.write_energy += self.programmer.write_energy(state.level)?;
        Ok(pulses)
    }

    /// Programs the whole fabric from a logical level matrix
    /// (`levels[row][column] = Some(level)` or `None` to leave the cell
    /// erased).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] when the matrix shape
    /// does not match the layout, and propagates programming errors.
    pub fn program_matrix(
        &mut self,
        levels: &[Vec<Option<usize>>],
        mode: ProgrammingMode,
    ) -> Result<()> {
        let layout = *self.plan.layout();
        if levels.len() != layout.rows() {
            return Err(CrossbarError::IndexOutOfBounds {
                row: levels.len(),
                column: 0,
                rows: layout.rows(),
                columns: layout.columns(),
            });
        }
        let shape = self.plan.shape();
        for (row, row_levels) in levels.iter().enumerate() {
            if row_levels.len() != layout.columns() {
                return Err(CrossbarError::IndexOutOfBounds {
                    row,
                    column: row_levels.len(),
                    rows: layout.rows(),
                    columns: layout.columns(),
                });
            }
            let (tiles, local_row) = row_tiles(&self.plan, row);
            // Walk the row tile by tile so no cell pays a coordinate
            // division.
            for (tile_index, tile_levels) in tiles.zip(row_levels.chunks(shape.columns)) {
                let col0 = (tile_index % self.plan.col_tiles()) * shape.columns;
                for (local_col, level) in tile_levels.iter().enumerate() {
                    if let Some(level) = level {
                        self.program_in_tile(
                            tile_index,
                            (local_row, local_col),
                            (row, col0 + local_col),
                            *level,
                            mode,
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Programs a rectangular **region** of the fabric from a level block
    /// whose top-left corner lands on logical `(row0, col0)`, pricing the
    /// Preisach pulse trains, and returns the accumulated write cost.
    ///
    /// Only the written cells are invalidated; the cached conductances of
    /// every other cell survive the reprogramming.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] when the block (at its
    /// offset) does not fit the layout, and propagates programming errors.
    pub fn program_region(
        &mut self,
        row0: usize,
        col0: usize,
        levels: &[Vec<Option<usize>>],
        mode: ProgrammingMode,
    ) -> Result<RegionWriteOutcome> {
        let layout = *self.plan.layout();
        let energy_before = self.write_energy;
        let mut outcome = RegionWriteOutcome::default();
        for (block_row, row_levels) in levels.iter().enumerate() {
            let row = row0 + block_row;
            for (block_col, level) in row_levels.iter().enumerate() {
                let column = col0 + block_col;
                if row >= layout.rows() || column >= layout.columns() {
                    return Err(CrossbarError::IndexOutOfBounds {
                        row,
                        column,
                        rows: layout.rows(),
                        columns: layout.columns(),
                    });
                }
                if let Some(level) = level {
                    outcome.pulses_applied += self.program_cell(row, column, *level, mode)?;
                    outcome.cells_programmed += 1;
                }
            }
        }
        outcome.energy_joules = self.write_energy - energy_before;
        Ok(outcome)
    }

    /// Erases every cell of a rectangular **region** (logical coordinate
    /// ranges): one nominal Preisach erase pulse per non-stuck cell, the
    /// programmed level forgotten either way. Erase pulses are priced like
    /// write pulses and accumulated into [`TileGrid::write_energy`].
    ///
    /// Invalidation is scoped to the erased cells, exactly like
    /// [`TileGrid::program_region`].
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for out-of-range bounds.
    pub fn erase_region(
        &mut self,
        rows: Range<usize>,
        columns: Range<usize>,
    ) -> Result<RegionWriteOutcome> {
        let layout = *self.plan.layout();
        if rows.end > layout.rows() || columns.end > layout.columns() {
            return Err(CrossbarError::IndexOutOfBounds {
                row: rows.end.saturating_sub(1),
                column: columns.end.saturating_sub(1),
                rows: layout.rows(),
                columns: layout.columns(),
            });
        }
        let energy_per_pulse = self.programmer.params().write_energy_per_pulse;
        let clock = self.clock;
        let mut outcome = RegionWriteOutcome::default();
        for row in rows {
            for column in columns.clone() {
                let tile_index = self.tile_index_of(row, column)?;
                let shape = self.plan.shape();
                let tile = &mut self.tiles[tile_index];
                let local = tile.index(row % shape.rows, column % shape.columns);
                let cell = &mut tile.cells[local];
                if cell.programmed_level().is_none() && cell.disturb_pulses() == 0 {
                    continue;
                }
                if !cell.is_stuck() {
                    cell.device_mut().erase();
                }
                cell.clear_programmed_level();
                cell.reset_disturb();
                cell.set_programmed_at(clock);
                outcome.cells_erased += 1;
                outcome.pulses_applied += 1;
                outcome.energy_joules += energy_per_pulse;
                self.write_energy += energy_per_pulse;
                self.mark_cell(row, column);
            }
        }
        Ok(outcome)
    }

    /// Applies threshold-voltage variation to every occupied cell, drawing
    /// offsets in logical row-major order — the same RNG consumption order
    /// whatever the plan, so a shared seed produces identical per-cell
    /// offsets on every fabric.
    pub fn apply_variation<R: Rng + ?Sized>(&mut self, variation: &VariationModel, rng: &mut R) {
        self.mark_all();
        for row in 0..self.plan.layout().rows() {
            let (tiles, local_row) = row_tiles(&self.plan, row);
            for tile in &mut self.tiles[tiles] {
                for cell in tile.row_mut(local_row) {
                    cell.device_mut()
                        .set_vth_offset(variation.sample_offset(rng));
                }
            }
        }
    }

    fn check_activation(&self, activation: &Activation) -> Result<()> {
        if activation.total_columns() != self.plan.layout().columns() {
            return Err(CrossbarError::ActivationLengthMismatch {
                expected: self.plan.layout().columns(),
                found: activation.total_columns(),
            });
        }
        Ok(())
    }

    fn check_row(&self, row: usize) -> Result<()> {
        let layout = self.plan.layout();
        if row >= layout.rows() {
            return Err(CrossbarError::IndexOutOfBounds {
                row,
                column: 0,
                rows: layout.rows(),
                columns: layout.columns(),
            });
        }
        Ok(())
    }

    /// Accumulated current of one wordline for an activation pattern, in
    /// amperes: the row's off-state leakage plus the on/off delta of every
    /// activated column, served from the conductance cache. Counts as one
    /// read of that wordline only for the disturb model.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ActivationLengthMismatch`] when the
    /// activation was built for a different layout and
    /// [`CrossbarError::IndexOutOfBounds`] for a bad row.
    pub fn wordline_current(&self, row: usize, activation: &Activation) -> Result<f64> {
        self.check_activation(activation)?;
        self.check_row(row)?;
        self.note_row_read(row);
        Ok(self.with_cache(|cache| cache.wordline_current(row, activation)))
    }

    /// Accumulated currents of every wordline for an activation pattern,
    /// written into `out` (cleared first). This is the allocation-free read
    /// of the sequential inference path; it counts as one read of every
    /// wordline for the disturb model.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ActivationLengthMismatch`] when the
    /// activation was built for a different layout.
    pub fn wordline_currents_into(
        &self,
        activation: &Activation,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.wordline_currents_batch_into(std::slice::from_ref(activation), out)
    }

    /// Accumulated wordline currents for a whole group of activation
    /// patterns, written into `out` (cleared first) read after read:
    /// `out[read * rows + row]` is the current of `row` under
    /// `activations[read]`. Without a read-disturb model the cache is
    /// borrowed once for the whole group; with one, each read registers its
    /// wordline reads and re-checks the cache first, so grouped reads are
    /// bit-identical to sequential [`TileGrid::wordline_currents_into`]
    /// calls in every configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ActivationLengthMismatch`] when any
    /// activation was built for a different layout (before any current is
    /// written).
    pub fn wordline_currents_batch_into(
        &self,
        activations: &[Activation],
        out: &mut Vec<f64>,
    ) -> Result<()> {
        for activation in activations {
            self.check_activation(activation)?;
        }
        let rows = self.plan.layout().rows();
        out.clear();
        out.reserve(rows * activations.len());
        self.read_group(activations.len(), |cache, read| {
            for row in 0..rows {
                out.push(cache.wordline_current(row, &activations[read]));
            }
        });
        Ok(())
    }

    /// Accumulated currents of every wordline for an activation pattern
    /// (allocating wrapper of [`TileGrid::wordline_currents_into`]).
    ///
    /// # Errors
    ///
    /// Same as [`TileGrid::wordline_currents_into`].
    pub fn wordline_currents(&self, activation: &Activation) -> Result<Vec<f64>> {
        let mut currents = Vec::with_capacity(self.plan.layout().rows());
        self.wordline_currents_into(activation, &mut currents)?;
        Ok(currents)
    }

    /// Partial wordline currents of one tile for a logical activation
    /// pattern, written into `out` (cleared first): the tile's row off-sums
    /// over its own columns plus the deltas of the activated columns that
    /// fall inside the tile. Summing a tile row's partials across its tile
    /// columns reconstructs the merged currents up to floating-point
    /// reassociation. Does not count as wordline reads (it is a diagnostic
    /// sub-read of the same cycle).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a tile outside the
    /// grid and [`CrossbarError::ActivationLengthMismatch`] for a foreign
    /// activation.
    pub fn tile_partial_currents_into(
        &self,
        tile_row: usize,
        tile_col: usize,
        activation: &Activation,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_activation(activation)?;
        let columns = self.plan.tile_column_range(tile_col)?;
        let rows = self.plan.tile_row_range(tile_row)?;
        out.clear();
        out.reserve(rows.len());
        self.with_cache(|cache| {
            for row in rows {
                let mut current = 0.0;
                for column in columns.clone() {
                    current += cache.off_current(row, column);
                }
                for &column in activation.active_columns() {
                    if columns.contains(&column) {
                        current += cache.delta(row, column);
                    }
                }
                out.push(current);
            }
        });
        Ok(())
    }

    /// Number of activated columns that fall inside one tile column (the
    /// bitlines that tile column actually drives during a read).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::IndexOutOfBounds`] for a tile column outside
    /// the grid.
    pub fn tile_activated_columns(
        &self,
        tile_col: usize,
        activation: &Activation,
    ) -> Result<usize> {
        let columns = self.plan.tile_column_range(tile_col)?;
        Ok(activation
            .active_columns()
            .iter()
            .filter(|&&column| columns.contains(&column))
            .count())
    }

    /// Uncached single-wordline read: evaluates the FeFET I-V model — with
    /// the configured non-ideality stack — for every cell of the row on
    /// every call, accumulating in the exact same order as the cached sparse
    /// path: off-state leakage in column order, then the activated deltas in
    /// the committed 4-lane order (see the `cache` module docs). This
    /// is the reference oracle for the equivalence property tests; it does
    /// **not** register wordline reads, so calling it right after a cached
    /// read observes the same read history and returns bit-identical
    /// currents.
    ///
    /// # Errors
    ///
    /// Same as [`TileGrid::wordline_current`].
    pub fn wordline_current_reference(&self, row: usize, activation: &Activation) -> Result<f64> {
        self.check_activation(activation)?;
        self.check_row(row)?;
        let mut current = 0.0;
        let mut deltas = Vec::with_capacity(self.plan.layout().columns());
        for (column, cell) in self.row_cells(row).enumerate() {
            let (on, off) = self.evaluate(row, column, cell);
            current += off;
            deltas.push(on - off);
        }
        Ok(current + lane_delta_sum(&deltas, activation.active_columns()))
    }

    /// Uncached all-wordline read (see
    /// [`TileGrid::wordline_current_reference`]).
    ///
    /// # Errors
    ///
    /// Same as [`TileGrid::wordline_currents`].
    pub fn wordline_currents_reference(&self, activation: &Activation) -> Result<Vec<f64>> {
        (0..self.plan.layout().rows())
            .map(|row| self.wordline_current_reference(row, activation))
            .collect()
    }

    /// Validates the per-slot bit offsets of a packed read against the
    /// activations they annotate (concatenated in read order).
    fn check_bit_offsets(&self, activations: &[Activation], bit_offsets: &[u8]) -> Result<()> {
        let mut total = 0usize;
        for activation in activations {
            self.check_activation(activation)?;
            total += activation.len();
        }
        if bit_offsets.len() != total {
            return Err(CrossbarError::ActivationLengthMismatch {
                expected: total,
                found: bit_offsets.len(),
            });
        }
        Ok(())
    }

    /// Per-plane partial sums of one packed bit-plane read, written into
    /// `out` (cleared first) as `out[row * planes + plane]`: each activated
    /// column's effective on-current is digitized through `ladder` into its
    /// multi-level state, and plane `q` counts the activated columns whose
    /// state has bit `bit_offsets[slot] + q` set, in the committed 4-lane
    /// summation order (see the `cache` module docs).
    /// `bit_offsets[slot]` annotates `activation.active_columns()[slot]`
    /// with the bit position of that column's selected digit.
    ///
    /// `level_scratch` is the caller's reusable digitizing buffer; the
    /// partials are exact integers in `f64`, ready for the sensing chain's
    /// shift-add merge. Counts as one read of every wordline for the
    /// disturb model, exactly like [`TileGrid::wordline_currents_into`].
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ActivationLengthMismatch`] when the
    /// activation was built for a different layout or `bit_offsets` does not
    /// annotate every activated column.
    pub fn plane_partial_sums_into(
        &self,
        activation: &Activation,
        bit_offsets: &[u8],
        planes: usize,
        ladder: &LevelLadder,
        level_scratch: &mut Vec<usize>,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.plane_partial_sums_batch_into(
            std::slice::from_ref(activation),
            bit_offsets,
            planes,
            ladder,
            level_scratch,
            out,
        )
    }

    /// Uncached packed read: evaluates the FeFET I-V model — with the
    /// configured non-ideality stack — for every activated cell on every
    /// call and digitizes through the same ladder and summation order as
    /// [`TileGrid::plane_partial_sums_into`]. The reference oracle for the
    /// packed-read equivalence tests; does **not** register wordline reads.
    ///
    /// # Errors
    ///
    /// Same as [`TileGrid::plane_partial_sums_into`].
    pub fn plane_partial_sums_reference(
        &self,
        activation: &Activation,
        bit_offsets: &[u8],
        planes: usize,
        ladder: &LevelLadder,
    ) -> Result<Vec<f64>> {
        self.check_bit_offsets(std::slice::from_ref(activation), bit_offsets)?;
        let rows = self.plan.layout().rows();
        let mut out = Vec::with_capacity(rows * planes);
        let mut level_scratch = Vec::with_capacity(activation.len());
        for row in 0..rows {
            row_plane_partials(
                |column| self.evaluate_cell(row, column).0,
                activation.active_columns(),
                bit_offsets,
                planes,
                ladder,
                &mut level_scratch,
                &mut out,
            );
        }
        Ok(out)
    }

    /// Packed partial sums for a whole group of reads, written into `out`
    /// (cleared first) read after read:
    /// `out[(read * rows + row) * planes + plane]`. `bit_offsets` holds the
    /// per-read offset slices concatenated in read order. Grouped packed
    /// reads register disturb like grouped wordline reads (see
    /// [`TileGrid::wordline_currents_batch_into`]), so they stay
    /// bit-identical to sequential [`TileGrid::plane_partial_sums_into`]
    /// calls in every configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::ActivationLengthMismatch`] when any
    /// activation was built for a different layout or `bit_offsets` does
    /// not annotate exactly the activated columns of every read (before any
    /// partial is written).
    pub fn plane_partial_sums_batch_into(
        &self,
        activations: &[Activation],
        bit_offsets: &[u8],
        planes: usize,
        ladder: &LevelLadder,
        level_scratch: &mut Vec<usize>,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.check_bit_offsets(activations, bit_offsets)?;
        let rows = self.plan.layout().rows();
        out.clear();
        out.reserve(rows * planes * activations.len());
        let mut cursor = 0usize;
        self.read_group(activations.len(), |cache, read| {
            let activation = &activations[read];
            let offsets = &bit_offsets[cursor..cursor + activation.len()];
            cursor += activation.len();
            for row in 0..rows {
                row_plane_partials(
                    |column| cache.on_current(row, column),
                    activation.active_columns(),
                    offsets,
                    planes,
                    ladder,
                    level_scratch,
                    out,
                );
            }
        });
        Ok(())
    }

    /// The cell at logical `(row, column)` through its tile's remap table:
    /// the evaluation point of [`TileGrid::evaluate`] for one coordinate.
    fn evaluate_cell(&self, row: usize, column: usize) -> (f64, f64) {
        self.evaluate(
            row,
            column,
            self.cell(row, column).expect("in-range indices"),
        )
    }

    fn level_state<'a>(
        programmer: &LevelProgrammer,
        states: &'a mut Vec<Option<ProgrammedState>>,
        level: usize,
    ) -> Result<&'a ProgrammedState> {
        if level >= states.len() {
            states.resize(level + 1, None);
        }
        if states[level].is_none() {
            states[level] = Some(programmer.state_for_level(level)?);
        }
        Ok(states[level].as_ref().expect("just filled"))
    }

    /// Effective threshold error of one programmed cell, in volts: the
    /// stack's time/history-dependent shift plus the polarization deviation
    /// from the level target expressed through the threshold window.
    fn effective_shift(
        &self,
        row: usize,
        column: usize,
        cell: &Cell,
        target: &ProgrammedState,
        window: f64,
    ) -> f64 {
        let ctx = self.cell_context(row, column, cell);
        let pol_error =
            (target.polarization.value() - cell.device().polarization().value()) * window;
        self.stack.vth_shift(&ctx) + pol_error
    }

    /// The largest effective threshold error (volts) over all programmed
    /// cells — the quantity a recalibration scheduler compares against its
    /// tolerance. Cells already classified as stuck are excluded: their
    /// error is permanent by definition and belongs to the scrub/repair
    /// subsystem ([`TileGrid::scrub`]), not to drift recalibration.
    pub fn worst_effective_shift(&self) -> f64 {
        let window = self.programmer.params().vth_window();
        let mut states: Vec<Option<ProgrammedState>> = Vec::new();
        let mut worst = 0.0f64;
        for row in 0..self.plan.layout().rows() {
            for (column, cell) in self.row_cells(row).enumerate() {
                if cell.is_stuck() {
                    continue;
                }
                let Some(level) = cell.programmed_level() else {
                    continue;
                };
                let target = Self::level_state(&self.programmer, &mut states, level)
                    .expect("programmed level was validated at program time");
                worst = worst.max(
                    self.effective_shift(row, column, cell, target, window)
                        .abs(),
                );
            }
        }
        worst
    }

    /// One recalibration pass: every programmed cell's effective threshold
    /// error (drift + disturb + polarization relaxation) is checked against
    /// `max_vth_shift` (volts), and any wordline holding an out-of-tolerance
    /// cell is rewritten whole — with minimal Preisach top-up pulse trains
    /// under [`ProgrammingMode::PulseTrain`] (full erase + retrain only when
    /// a cell overshot its target), or a direct state install priced at the
    /// full train under [`ProgrammingMode::Ideal`]. Refreshed rows restart
    /// their retention age, disturb counters and read counters, and only
    /// their cells go stale in the cache.
    ///
    /// Recalibration writes are modelled disturb-free: a refresh pass is
    /// assumed to use a sequencing that does not half-bias neighbouring
    /// rows, so one pass cannot create the drift it is correcting.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::Device`] for a non-positive or non-finite
    /// tolerance, and propagates programming errors.
    pub fn recalibrate(
        &mut self,
        max_vth_shift: f64,
        mode: ProgrammingMode,
    ) -> Result<RefreshOutcome> {
        check_tolerance(max_vth_shift, "recalibration")?;
        let window = self.programmer.params().vth_window();
        let energy_per_pulse = self.programmer.params().write_energy_per_pulse;
        let mut states: Vec<Option<ProgrammedState>> = Vec::new();
        let mut outcome = RefreshOutcome::default();
        for row in 0..self.plan.layout().rows() {
            let mut refresh_row = false;
            for (column, cell) in self.row_cells(row).enumerate() {
                if cell.is_stuck() {
                    continue;
                }
                let Some(level) = cell.programmed_level() else {
                    continue;
                };
                outcome.cells_checked += 1;
                let target = Self::level_state(&self.programmer, &mut states, level)?;
                if self
                    .effective_shift(row, column, cell, target, window)
                    .abs()
                    > max_vth_shift
                {
                    refresh_row = true;
                    break;
                }
            }
            if !refresh_row {
                continue;
            }
            outcome.rows_refreshed += 1;
            let clock = self.clock;
            let (tiles, local_row) = row_tiles(&self.plan, row);
            for cell in self.tiles[tiles]
                .iter_mut()
                .flat_map(|tile| tile.row_mut(local_row))
            {
                if cell.is_stuck() {
                    continue;
                }
                let Some(level) = cell.programmed_level() else {
                    continue;
                };
                let pulses = match mode {
                    ProgrammingMode::Ideal => {
                        let target = Self::level_state(&self.programmer, &mut states, level)?;
                        cell.device_mut().set_polarization(target.polarization);
                        u64::from(target.write_config.pulse_count) + 1
                    }
                    ProgrammingMode::PulseTrain => u64::from(
                        self.programmer
                            .refresh_with_pulses(cell.device_mut(), level)?,
                    ),
                };
                outcome.cells_refreshed += 1;
                outcome.pulses_applied += pulses;
                let energy = energy_per_pulse * pulses as f64;
                outcome.energy_joules += energy;
                self.write_energy += energy;
                cell.set_programmed_at(clock);
                cell.reset_disturb();
            }
            self.row_reads.reset_row(row);
            self.mark_row(row);
        }
        Ok(outcome)
    }

    /// Total spare wordlines provisioned across all tiles.
    pub fn spare_rows_total(&self) -> usize {
        self.tiles.iter().map(|tile| tile.spare_rows).sum()
    }

    /// Spare wordlines consumed by repairs so far.
    pub fn spares_used(&self) -> usize {
        self.tiles.iter().map(|tile| tile.spares_used).sum()
    }

    /// Whether any tile serves `row` from a remapped spare wordline
    /// (`false` for rows outside the layout).
    pub fn is_row_remapped(&self, row: usize) -> bool {
        if row >= self.plan.layout().rows() {
            return false;
        }
        let (tiles, local_row) = row_tiles(&self.plan, row);
        self.tiles[tiles]
            .iter()
            .any(|tile| tile.remap[local_row] != local_row)
    }

    /// One BIST-style scrub pass: every programmed cell's effective
    /// threshold error is read back and compared against the program's
    /// expected signature (the memoized per-level target states — the same
    /// oracle the epoch-versioned cache is built from). A cell out of
    /// signature gets one in-place rewrite attempt and a re-read; a cell
    /// that still misses its target is unrepairable in place, and its
    /// wordline *segment* (the logical row within the owning tile) is
    /// repaired by reprogramming the segment's contents onto a free spare
    /// physical row — the minimal Preisach train from the erased spare
    /// under [`ProgrammingMode::PulseTrain`] — and rewiring the tile's remap
    /// table. Reads through the remap stay bit-identical to the pre-fault
    /// reference because non-idealities are evaluated in logical
    /// coordinates. When the tile has no free spare, the defective cells are
    /// latched stuck ([`Cell::is_stuck`]) and reported with
    /// `repaired == false`; the caller decides whether the fabric must be
    /// quarantined.
    ///
    /// Unlike [`TileGrid::recalibrate`] — which corrects *recoverable*
    /// drift row-wise and skips known-stuck cells — the scrub is purely
    /// read-driven: it checks every programmed cell including already-stuck
    /// ones, so detection never depends on the fault injector having
    /// annotated the cell. Like recalibration, repair writes are modelled
    /// disturb-free.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::Device`] for a non-positive or non-finite
    /// tolerance, and propagates programming errors.
    pub fn scrub(&mut self, max_vth_shift: f64, mode: ProgrammingMode) -> Result<ScrubOutcome> {
        check_tolerance(max_vth_shift, "scrub")?;
        let layout = *self.plan.layout();
        let shape = self.plan.shape();
        let window = self.programmer.params().vth_window();
        let energy_per_pulse = self.programmer.params().write_energy_per_pulse;
        let mut states: Vec<Option<ProgrammedState>> = Vec::new();
        let mut outcome = ScrubOutcome::default();
        for row in 0..layout.rows() {
            let (tiles, local_row) = row_tiles(&self.plan, row);
            let clock = self.clock;
            let mut row_touched = false;
            // Cells still out of signature after the in-place attempt, in
            // ascending column order (so tile groups are contiguous).
            let mut unrepaired: Vec<(usize, FaultKind)> = Vec::new();
            for column in 0..layout.columns() {
                let tile_index = tiles.start + column / shape.columns;
                let local = self.tiles[tile_index].index(local_row, column % shape.columns);
                let cell = &self.tiles[tile_index].cells[local];
                let Some(level) = cell.programmed_level() else {
                    continue;
                };
                outcome.cells_checked += 1;
                let target = Self::level_state(&self.programmer, &mut states, level)?;
                if self
                    .effective_shift(row, column, cell, target, window)
                    .abs()
                    <= max_vth_shift
                {
                    continue;
                }
                // Out of signature: classify the observed state, then try
                // one in-place rewrite. A stuck stack does not respond, so
                // the guard in the device mutation is the physics, not the
                // logic.
                let kind = if cell.device().polarization().value() >= 0.5 {
                    FaultKind::StuckProgrammed
                } else {
                    FaultKind::StuckErased
                };
                if !cell.is_stuck() {
                    let cell = &mut self.tiles[tile_index].cells[local];
                    let pulses = match mode {
                        ProgrammingMode::Ideal => {
                            cell.device_mut().set_polarization(target.polarization);
                            u64::from(target.write_config.pulse_count) + 1
                        }
                        ProgrammingMode::PulseTrain => u64::from(
                            self.programmer
                                .refresh_with_pulses(cell.device_mut(), level)?,
                        ),
                    };
                    cell.set_programmed_at(clock);
                    cell.reset_disturb();
                    outcome.pulses_applied += pulses;
                    let energy = energy_per_pulse * pulses as f64;
                    outcome.energy_joules += energy;
                    self.write_energy += energy;
                    // A rewrite re-settles the wordline's read history the
                    // same way a recalibration refresh does.
                    self.row_reads.reset_row(row);
                    row_touched = true;
                }
                // Re-read after the repair attempt.
                let cell = &self.tiles[tile_index].cells[local];
                if self
                    .effective_shift(row, column, cell, target, window)
                    .abs()
                    <= max_vth_shift
                {
                    outcome.cells_repaired += 1;
                    outcome.reports.push(FaultReport {
                        row,
                        column,
                        kind,
                        repaired: true,
                    });
                } else {
                    unrepaired.push((column, kind));
                }
            }
            // Spare-row repair, one tile segment at a time.
            for group in unrepaired.chunk_by(|a, b| a.0 / shape.columns == b.0 / shape.columns) {
                let tile_index = tiles.start + group[0].0 / shape.columns;
                let tile = &mut self.tiles[tile_index];
                if !tile.has_free_spare() {
                    for &(column, kind) in group {
                        let local = tile.index(local_row, column % shape.columns);
                        tile.cells[local].set_stuck(true);
                        outcome.stuck_cells += 1;
                        outcome.reports.push(FaultReport {
                            row,
                            column,
                            kind,
                            repaired: false,
                        });
                    }
                    continue;
                }
                // Reprogram the whole logical row segment onto the spare
                // physical row, then rewire the remap table.
                let spare_phys = tile.rows + tile.spares_used;
                for local_col in 0..tile.columns {
                    let old = tile.index(local_row, local_col);
                    let Some(level) = tile.cells[old].programmed_level() else {
                        continue;
                    };
                    let spare = &mut tile.cells[spare_phys * tile.columns + local_col];
                    let state = match mode {
                        ProgrammingMode::Ideal => {
                            self.programmer.program_ideal(spare.device_mut(), level)?
                        }
                        ProgrammingMode::PulseTrain => self
                            .programmer
                            .program_with_pulses(spare.device_mut(), level)?,
                    };
                    spare.set_programmed_level(level);
                    spare.reset_disturb();
                    spare.set_programmed_at(clock);
                    let pulses = u64::from(state.write_config.pulse_count) + 1;
                    outcome.pulses_applied += pulses;
                    let energy = energy_per_pulse * pulses as f64;
                    outcome.energy_joules += energy;
                    self.write_energy += energy;
                }
                tile.remap[local_row] = spare_phys;
                tile.spares_used += 1;
                outcome.rows_remapped += 1;
                self.row_reads.reset_row(row);
                row_touched = true;
                for &(column, kind) in group {
                    outcome.cells_repaired += 1;
                    outcome.reports.push(FaultReport {
                        row,
                        column,
                        kind,
                        repaired: true,
                    });
                }
            }
            if row_touched {
                self.mark_row(row);
            }
        }
        Ok(outcome)
    }

    /// The programmed level of every cell as a logical matrix (for
    /// Fig. 8(b)-style state maps).
    pub fn level_map(&self) -> Vec<Vec<Option<usize>>> {
        (0..self.plan.layout().rows())
            .map(|row| self.row_cells(row).map(Cell::programmed_level).collect())
            .collect()
    }

    /// The cached read current of every cell, flattened logical row-major
    /// into `out` (cleared first): the allocation-reusing state map. Does
    /// not count as wordline reads.
    pub fn current_map_into(&self, out: &mut Vec<f64>) {
        out.clear();
        self.with_cache(|cache| out.extend_from_slice(cache.on_currents()));
    }
}

/// Rejects a non-positive or non-finite maintenance tolerance.
fn check_tolerance(max_vth_shift: f64, pass: &str) -> Result<()> {
    if !max_vth_shift.is_finite() || max_vth_shift <= 0.0 {
        return Err(CrossbarError::Device(DeviceError::InvalidParameter {
            name: "max_vth_shift",
            reason: format!("{pass} tolerance must be positive and finite"),
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use febim_device::{ReadDisturb, RetentionDrift, WireResistance};

    fn plan_2x2() -> TilePlan {
        // 3 events × (4 nodes × 4 levels) = 3×16 layout on 2×9 tiles
        // → a 2 (row) × 2 (column) grid with ragged edge tiles.
        let layout = CrossbarLayout::new(3, 4, 4, false).unwrap();
        TilePlan::new(layout, TileShape::new(2, 9).unwrap()).unwrap()
    }

    fn checker_levels(layout: &CrossbarLayout) -> Vec<Vec<Option<usize>>> {
        let mut levels = vec![vec![None; layout.columns()]; layout.rows()];
        for (row, row_levels) in levels.iter_mut().enumerate() {
            for (column, level) in row_levels.iter_mut().enumerate() {
                *level = Some((3 * row + column) % 10);
            }
        }
        levels
    }

    /// The same program on the 2×2 grid and on a one-tile monolithic array.
    fn grid_and_array() -> (TileGrid, TileGrid) {
        let plan = plan_2x2();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let mut grid = TileGrid::new(plan, programmer.clone());
        let mut array = TileGrid::new(TilePlan::monolithic(*plan.layout()), programmer);
        let levels = checker_levels(plan.layout());
        grid.program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        array
            .program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        (grid, array)
    }

    fn noisy_stack() -> NonIdealityStack {
        NonIdealityStack::ideal()
            .with_wire(WireResistance::uniform(40.0))
            .with_drift(RetentionDrift::new(0.004, 100))
            .with_disturb(ReadDisturb::new(7, 0.001))
    }

    fn noisy_grid_and_array() -> (TileGrid, TileGrid) {
        let plan = plan_2x2();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let mut grid =
            TileGrid::with_non_idealities(plan, programmer.clone(), noisy_stack()).unwrap();
        let mut array = TileGrid::with_non_idealities(
            TilePlan::monolithic(*plan.layout()),
            programmer,
            noisy_stack(),
        )
        .unwrap();
        let levels = checker_levels(plan.layout());
        grid.program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        array
            .program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        (grid, array)
    }

    #[test]
    fn zero_tile_shape_rejected() {
        assert!(TileShape::new(0, 4).is_err());
        assert!(TileShape::new(4, 0).is_err());
        let layout = CrossbarLayout::new(3, 4, 4, false).unwrap();
        assert!(layout.tiles_needed(0, 9).is_err());
    }

    #[test]
    fn plan_covers_the_layout_exactly() {
        let plan = plan_2x2();
        assert_eq!(plan.row_tiles(), 2);
        assert_eq!(plan.col_tiles(), 2);
        assert_eq!(plan.tile_count(), 4);
        assert!(plan.is_multi_tile());
        assert_eq!(plan.tile_row_range(0).unwrap(), 0..2);
        assert_eq!(plan.tile_row_range(1).unwrap(), 2..3);
        assert_eq!(plan.tile_column_range(0).unwrap(), 0..9);
        assert_eq!(plan.tile_column_range(1).unwrap(), 9..16);
        assert_eq!(plan.tile_of(2, 10).unwrap(), (1, 1));
        assert_eq!(plan.tile_dims(1, 1).unwrap(), (1, 7));
        assert!(plan.tile_row_range(2).is_err());
        assert!(plan.tile_of(3, 0).is_err());
        let used = plan.utilization();
        assert!((used - 48.0 / (4.0 * 18.0)).abs() < 1e-12);
    }

    #[test]
    fn single_tile_plan_when_the_model_fits() {
        let layout = CrossbarLayout::new(3, 4, 16, false).unwrap();
        assert!(layout.fits_within(64, 64));
        let macro_tile = TileShape::febim_macro();
        assert_eq!((macro_tile.rows, macro_tile.columns), (64, 64));
        assert_eq!(macro_tile.cells(), 4096);
        let plan = TilePlan::new(layout, macro_tile).unwrap();
        assert_eq!(plan.tile_count(), 1);
        assert!(!plan.is_multi_tile());
    }

    #[test]
    fn fabric_reads_match_monolithic_bit_for_bit() {
        let (grid, array) = grid_and_array();
        let layout = *grid.layout();
        for evidence in [[0usize, 0, 0, 0], [1, 3, 2, 0], [3, 3, 3, 3]] {
            let activation = Activation::from_observation(&layout, &evidence).unwrap();
            assert_eq!(
                grid.wordline_currents(&activation).unwrap(),
                array.wordline_currents(&activation).unwrap()
            );
        }
        let all = Activation::all_columns(&layout);
        assert_eq!(
            grid.wordline_currents(&all).unwrap(),
            array.wordline_currents(&all).unwrap()
        );
        assert_eq!(
            grid.wordline_currents(&all).unwrap(),
            grid.wordline_currents_reference(&all).unwrap()
        );
    }

    #[test]
    fn noisy_fabric_reads_match_monolithic_bit_for_bit() {
        let (mut grid, mut array) = noisy_grid_and_array();
        let layout = *grid.layout();
        grid.advance_time(12_345);
        array.advance_time(12_345);
        let all = Activation::all_columns(&layout);
        // Many reads: drift is frozen in time but read-disturb tiers keep
        // crossing; the fabric and the monolithic array must agree on every
        // single read (their global read counters advance in lockstep).
        for _ in 0..30 {
            let tiled = grid.wordline_currents(&all).unwrap();
            let monolithic = array.wordline_currents(&all).unwrap();
            assert_eq!(tiled, monolithic);
            assert_eq!(tiled, grid.wordline_currents_reference(&all).unwrap());
        }
        assert_eq!(grid.row_reads(0).unwrap(), array.row_reads(0).unwrap());
    }

    #[test]
    fn variation_matches_monolithic_offsets() {
        let (mut grid, mut array) = grid_and_array();
        let variation = VariationModel::from_millivolts(45.0);
        let mut grid_rng = VariationModel::seeded_rng(11);
        let mut array_rng = VariationModel::seeded_rng(11);
        grid.apply_variation(&variation, &mut grid_rng);
        array.apply_variation(&variation, &mut array_rng);
        let activation = Activation::all_columns(grid.layout());
        assert_eq!(
            grid.wordline_currents(&activation).unwrap(),
            array.wordline_currents(&activation).unwrap()
        );
    }

    #[test]
    fn tile_partials_sum_to_the_merged_currents() {
        let (grid, _) = grid_and_array();
        let layout = *grid.layout();
        let activation = Activation::from_observation(&layout, &[1, 2, 3, 0]).unwrap();
        let merged = grid.wordline_currents(&activation).unwrap();
        let mut partial = Vec::new();
        for tile_row in 0..grid.plan().row_tiles() {
            let rows = grid.plan().tile_row_range(tile_row).unwrap();
            let mut sums = vec![0.0; rows.len()];
            for tile_col in 0..grid.plan().col_tiles() {
                grid.tile_partial_currents_into(tile_row, tile_col, &activation, &mut partial)
                    .unwrap();
                for (sum, value) in sums.iter_mut().zip(&partial) {
                    *sum += value;
                }
            }
            for (local_row, sum) in sums.iter().enumerate() {
                let merged_value = merged[rows.start + local_row];
                assert!(
                    (sum - merged_value).abs() <= merged_value.abs() * 1e-12,
                    "tile row {tile_row} local {local_row}: {sum} vs {merged_value}"
                );
            }
        }
        // Activated columns distribute across tile columns.
        let per_tile: usize = (0..grid.plan().col_tiles())
            .map(|tile_col| grid.tile_activated_columns(tile_col, &activation).unwrap())
            .sum();
        assert_eq!(per_tile, activation.len());
    }

    #[test]
    fn batched_reads_match_sequential_reads_bit_for_bit() {
        let (grid, array) = grid_and_array();
        let layout = *grid.layout();
        let activations: Vec<Activation> = [[0usize, 0, 0, 0], [1, 3, 2, 0], [3, 3, 3, 3]]
            .iter()
            .map(|evidence| Activation::from_observation(&layout, evidence).unwrap())
            .collect();
        let mut grid_batch = vec![7.7; 2];
        grid.wordline_currents_batch_into(&activations, &mut grid_batch)
            .unwrap();
        let mut array_batch = Vec::new();
        array
            .wordline_currents_batch_into(&activations, &mut array_batch)
            .unwrap();
        assert_eq!(grid_batch.len(), activations.len() * layout.rows());
        assert_eq!(grid_batch, array_batch);
        for (read, activation) in activations.iter().enumerate() {
            let sequential = grid.wordline_currents(activation).unwrap();
            let start = read * layout.rows();
            assert_eq!(&grid_batch[start..start + layout.rows()], &sequential[..]);
        }
        // Foreign activations are rejected before anything is written.
        let other = CrossbarLayout::new(2, 2, 4, false).unwrap();
        let mut mixed = activations.clone();
        mixed.push(Activation::all_columns(&other));
        assert!(grid
            .wordline_currents_batch_into(&mixed, &mut grid_batch)
            .is_err());
        assert!(array
            .wordline_currents_batch_into(&mixed, &mut array_batch)
            .is_err());
        // An empty group reads nothing.
        grid.wordline_currents_batch_into(&[], &mut grid_batch)
            .unwrap();
        assert!(grid_batch.is_empty());
    }

    #[test]
    fn batched_reads_match_sequential_under_disturb() {
        let (grid, _) = noisy_grid_and_array();
        let (sequential, _) = noisy_grid_and_array();
        let layout = *grid.layout();
        let activations: Vec<Activation> = (0..20)
            .map(|i| {
                Activation::from_observation(&layout, &[i % 4, (i + 1) % 4, (i + 2) % 4, i % 4])
                    .unwrap()
            })
            .collect();
        let mut batch_out = Vec::new();
        grid.wordline_currents_batch_into(&activations, &mut batch_out)
            .unwrap();
        let mut seq_out = Vec::new();
        let mut scratch = Vec::new();
        for activation in &activations {
            sequential
                .wordline_currents_into(activation, &mut scratch)
                .unwrap();
            seq_out.extend_from_slice(&scratch);
        }
        // 20 reads over 7-read tiers: tier crossings inside the batch.
        assert_eq!(batch_out, seq_out);
        assert_eq!(grid.row_reads(0).unwrap(), 20);
    }

    #[test]
    fn cell_access_and_mutation_track_the_cache() {
        let (mut grid, _) = grid_and_array();
        let activation = Activation::all_columns(grid.layout());
        let before = grid.wordline_currents(&activation).unwrap();
        grid.cell_mut(2, 10)
            .unwrap()
            .device_mut()
            .set_vth_offset(0.1);
        let after = grid.wordline_currents(&activation).unwrap();
        assert_ne!(before, after);
        assert_eq!(
            after,
            grid.wordline_currents_reference(&activation).unwrap()
        );
        assert!(grid.cell(3, 0).is_err());
        assert!(grid.cell_mut(0, 99).is_err());
    }

    #[test]
    fn single_cell_mutation_refreshes_a_single_fabric_cell() {
        let (mut grid, _) = grid_and_array();
        let activation = Activation::all_columns(grid.layout());
        grid.wordline_currents(&activation).unwrap(); // warm: one full build
        let before = grid.rebuild_stats();
        assert_eq!(before.full_rebuilds, 1);

        // (2, 10) lives in tile (1, 1), a 1×7 edge tile.
        grid.cell_mut(2, 10)
            .unwrap()
            .device_mut()
            .set_vth_offset(0.05);
        grid.wordline_currents(&activation).unwrap();
        let after = grid.rebuild_stats();
        assert_eq!(after.full_rebuilds, 1, "no second full rebuild");
        assert_eq!(after.partial_refreshes, before.partial_refreshes + 1);
        assert_eq!(
            after.cells_recomputed,
            before.cells_recomputed + 1,
            "only the mutated cell re-evaluated, not its tile"
        );
        assert_eq!(
            grid.wordline_currents(&activation).unwrap(),
            grid.wordline_currents_reference(&activation).unwrap()
        );
    }

    #[test]
    fn repeated_programs_into_one_tile_keep_other_tile_caches() {
        // Regression: the dirty set once counted duplicate marks, so
        // per-cell programming loops confined to ONE tile degraded it to
        // `All` after two writes and forced full fabric rebuilds even though
        // every other tile was untouched.
        let (mut grid, _) = grid_and_array();
        let activation = Activation::all_columns(grid.layout());
        grid.wordline_currents(&activation).unwrap(); // warm: one full build
        let before = grid.rebuild_stats();
        assert_eq!(before.full_rebuilds, 1);

        // Tile (0, 0) spans rows 0..2 × columns 0..9: 18 cells, far more
        // writes than the old duplicate-counting threshold tolerated.
        for row in 0..2 {
            for column in 0..9 {
                grid.program_cell(row, column, (row + column) % 10, ProgrammingMode::Ideal)
                    .unwrap();
            }
        }
        grid.wordline_currents(&activation).unwrap();
        let after = grid.rebuild_stats();
        assert_eq!(after.full_rebuilds, 1, "no spurious full rebuild");
        assert_eq!(after.partial_refreshes, before.partial_refreshes + 1);
        assert_eq!(
            after.cells_recomputed,
            before.cells_recomputed + 18,
            "only the reprogrammed 2x9 tile re-evaluated"
        );
        assert_eq!(
            grid.wordline_currents(&activation).unwrap(),
            grid.wordline_currents_reference(&activation).unwrap()
        );
    }

    #[test]
    fn region_program_prices_pulses_and_scopes_invalidation() {
        let (mut grid, _) = grid_and_array();
        let activation = Activation::all_columns(grid.layout());
        grid.wordline_currents(&activation).unwrap();
        let stats_before = grid.rebuild_stats();
        let energy_before = grid.write_energy();

        // A 2×3 block inside tile (0, 0).
        let block = vec![
            vec![Some(1), None, Some(3)],
            vec![Some(4), Some(5), Some(6)],
        ];
        let outcome = grid
            .program_region(0, 2, &block, ProgrammingMode::PulseTrain)
            .unwrap();
        assert_eq!(outcome.cells_programmed, 5);
        assert_eq!(outcome.cells_erased, 0);
        assert!(outcome.pulses_applied >= 5, "at least one pulse per cell");
        assert!(outcome.energy_joules > 0.0);
        assert!((grid.write_energy() - energy_before - outcome.energy_joules).abs() < 1e-24);

        grid.wordline_currents(&activation).unwrap();
        let stats_after = grid.rebuild_stats();
        assert_eq!(stats_after.full_rebuilds, stats_before.full_rebuilds);
        assert_eq!(
            stats_after.partial_refreshes,
            stats_before.partial_refreshes + 1
        );
        assert_eq!(
            grid.wordline_currents(&activation).unwrap(),
            grid.wordline_currents_reference(&activation).unwrap()
        );

        // A block hanging off the layout is rejected.
        assert!(grid
            .program_region(2, 14, &block, ProgrammingMode::Ideal)
            .is_err());
    }

    #[test]
    fn region_erase_forgets_levels_and_prices_one_pulse_per_cell() {
        let (mut grid, _) = grid_and_array();
        let activation = Activation::all_columns(grid.layout());
        grid.wordline_currents(&activation).unwrap();
        let stats_before = grid.rebuild_stats();

        // Erase the row-2 span of tile (1, 0) only (9 cells).
        let outcome = grid.erase_region(2..3, 0..9).unwrap();
        assert_eq!(outcome.cells_erased, 9);
        assert_eq!(outcome.cells_programmed, 0);
        assert_eq!(outcome.pulses_applied, 9);
        assert!(outcome.energy_joules > 0.0);
        for column in 0..9 {
            assert_eq!(grid.cell(2, column).unwrap().programmed_level(), None);
        }
        // Erasing an already-erased region is free.
        let again = grid.erase_region(2..3, 0..9).unwrap();
        assert_eq!(again.cells_erased, 0);
        assert_eq!(again.pulses_applied, 0);

        grid.wordline_currents(&activation).unwrap();
        let stats_after = grid.rebuild_stats();
        assert_eq!(stats_after.full_rebuilds, stats_before.full_rebuilds);
        assert_eq!(
            stats_after.partial_refreshes,
            stats_before.partial_refreshes + 1
        );
        assert_eq!(
            grid.wordline_currents(&activation).unwrap(),
            grid.wordline_currents_reference(&activation).unwrap()
        );
        assert!(grid.erase_region(0..4, 0..16).is_err());
        assert!(grid.erase_region(0..3, 0..17).is_err());
    }

    #[test]
    fn program_matrix_validates_shape_and_maps_back() {
        let plan = plan_2x2();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let mut grid = TileGrid::new(plan, programmer);
        let wrong_rows = vec![vec![None; plan.layout().columns()]];
        assert!(grid
            .program_matrix(&wrong_rows, ProgrammingMode::Ideal)
            .is_err());
        let wrong_columns = vec![vec![None; 3]; plan.layout().rows()];
        assert!(grid
            .program_matrix(&wrong_columns, ProgrammingMode::Ideal)
            .is_err());
        let mut levels = vec![vec![None; plan.layout().columns()]; plan.layout().rows()];
        levels[2][10] = Some(7);
        grid.program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        assert_eq!(grid.level_map(), levels);
        assert!(grid.write_energy() > 0.0);
    }

    #[test]
    fn pulse_disturb_stays_within_the_tile() {
        let plan = plan_2x2();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let mut grid = TileGrid::new(plan, programmer);
        // Row 0 and row 1 share a tile row; row 2 lives in the second tile
        // row, so programming (0, 0) must disturb (1, 0) but not (2, 0).
        grid.program_cell(0, 0, 5, ProgrammingMode::PulseTrain)
            .unwrap();
        assert!(grid.cell(1, 0).unwrap().disturb_pulses() > 0);
        assert_eq!(grid.cell(2, 0).unwrap().disturb_pulses(), 0);
        assert_eq!(grid.cell(0, 0).unwrap().disturb_pulses(), 0);
    }

    #[test]
    fn tiled_recalibration_restores_drifted_currents() {
        let plan = plan_2x2();
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let stack = NonIdealityStack::ideal().with_drift(RetentionDrift::new(0.012, 100));
        let mut grid = TileGrid::with_non_idealities(plan, programmer, stack).unwrap();
        let levels = checker_levels(plan.layout());
        grid.program_matrix(&levels, ProgrammingMode::Ideal)
            .unwrap();
        let activation = Activation::all_columns(grid.layout());
        let fresh = grid.wordline_currents(&activation).unwrap();

        grid.advance_time(100_000);
        let aged = grid.wordline_currents(&activation).unwrap();
        assert_ne!(aged, fresh);
        assert!(grid.worst_effective_shift() > 0.01);

        let outcome = grid.recalibrate(0.005, ProgrammingMode::Ideal).unwrap();
        assert_eq!(outcome.rows_refreshed as usize, grid.layout().rows());
        assert_eq!(outcome.cells_refreshed as usize, grid.layout().cells());
        assert!(outcome.energy_joules > 0.0);
        let restored = grid.wordline_currents(&activation).unwrap();
        assert_eq!(restored, fresh, "refresh restores the fresh read bitwise");
        assert!(grid.worst_effective_shift() < 1e-12);
        assert_eq!(
            restored,
            grid.wordline_currents_reference(&activation).unwrap()
        );
        assert!(grid.recalibrate(0.0, ProgrammingMode::Ideal).is_err());
    }

    #[test]
    fn current_map_into_reuses_the_buffer() {
        let (grid, array) = grid_and_array();
        let mut flat = vec![9.9; 3];
        grid.current_map_into(&mut flat);
        assert_eq!(flat.len(), grid.layout().cells());
        let mut reference = Vec::new();
        array.current_map_into(&mut reference);
        assert_eq!(flat, reference);
        for (index, value) in flat.iter().enumerate() {
            let row = index / grid.layout().columns();
            let column = index % grid.layout().columns();
            assert_eq!(*value, grid.cell(row, column).unwrap().read_current_on());
        }
    }

    #[test]
    fn foreign_activation_rejected() {
        let (grid, _) = grid_and_array();
        let other = CrossbarLayout::new(2, 2, 4, false).unwrap();
        let activation = Activation::all_columns(&other);
        assert!(matches!(
            grid.wordline_currents(&activation),
            Err(CrossbarError::ActivationLengthMismatch { .. })
        ));
        assert!(grid.wordline_currents_reference(&activation).is_err());
    }

    #[test]
    fn equality_ignores_cache_state() {
        let (warm, _) = grid_and_array();
        let (cold, _) = grid_and_array();
        let activation = Activation::all_columns(warm.layout());
        warm.wordline_currents(&activation).unwrap();
        assert_eq!(warm, cold);
    }

    fn spare_plan(spare_rows: usize) -> TilePlan {
        let layout = CrossbarLayout::new(3, 4, 4, false).unwrap();
        let shape = TileShape::new(2, 9).unwrap().with_spare_rows(spare_rows);
        TilePlan::new(layout, shape).unwrap()
    }

    fn spare_grid(spare_rows: usize) -> TileGrid {
        let plan = spare_plan(spare_rows);
        let programmer = LevelProgrammer::febim_default(10).unwrap();
        let mut grid = TileGrid::new(plan, programmer);
        grid.program_matrix(&checker_levels(plan.layout()), ProgrammingMode::Ideal)
            .unwrap();
        grid
    }

    #[test]
    fn spare_rows_do_not_change_logical_geometry() {
        let shape = TileShape::new(2, 9).unwrap().with_spare_rows(3);
        assert_eq!(shape.spare_rows, 3);
        assert_eq!(shape.cells(), 18, "spares excluded from logical cells");
        let plan = spare_plan(2);
        assert_eq!(plan.tile_count(), 4);
        let grid = spare_grid(2);
        assert_eq!(grid.spare_rows_total(), 8);
        assert_eq!(grid.spares_used(), 0);
        assert!(!grid.is_row_remapped(0));
        // Reads are unaffected by provisioned-but-unused spares.
        let (reference, _) = grid_and_array();
        let activation = Activation::all_columns(grid.layout());
        assert_eq!(
            grid.wordline_currents(&activation).unwrap(),
            reference.wordline_currents(&activation).unwrap()
        );
    }

    #[test]
    fn grid_scrub_repairs_transient_fault_in_place() {
        let mut grid = spare_grid(1);
        let activation = Activation::all_columns(grid.layout());
        let reference = grid.wordline_currents(&activation).unwrap();
        crate::fault::apply_scheduled_fault(&mut grid, 2, 10, FaultKind::StuckErased, false)
            .unwrap();
        assert_ne!(grid.wordline_currents(&activation).unwrap(), reference);

        let outcome = grid.scrub(0.05, ProgrammingMode::Ideal).unwrap();
        assert!(outcome.fully_repaired());
        assert_eq!(outcome.cells_repaired, 1);
        assert_eq!(outcome.rows_remapped, 0, "in-place repair needs no spare");
        assert_eq!(grid.spares_used(), 0);
        assert_eq!(grid.wordline_currents(&activation).unwrap(), reference);
    }

    #[test]
    fn grid_scrub_remaps_permanent_fault_onto_spare_bit_exactly() {
        let mut grid = spare_grid(1);
        let activation = Activation::all_columns(grid.layout());
        let reference = grid.wordline_currents(&activation).unwrap();
        crate::fault::apply_scheduled_fault(&mut grid, 2, 10, FaultKind::StuckProgrammed, true)
            .unwrap();
        assert_ne!(grid.wordline_currents(&activation).unwrap(), reference);

        let outcome = grid.scrub(0.05, ProgrammingMode::Ideal).unwrap();
        assert!(outcome.fully_repaired());
        assert_eq!(outcome.stuck_cells, 0);
        assert_eq!(outcome.rows_remapped, 1);
        assert!(outcome.pulses_applied > 0);
        assert_eq!(grid.spares_used(), 1);
        assert!(grid.is_row_remapped(2));
        assert!(!grid.is_row_remapped(0));
        let report = &outcome.reports[0];
        assert_eq!((report.row, report.column), (2, 10));
        assert_eq!(report.kind, FaultKind::StuckProgrammed);
        assert!(report.repaired);

        // Reads through the remap are bit-identical to the pre-fault
        // reference, on the cached path and the uncached oracle alike.
        let healed = grid.wordline_currents(&activation).unwrap();
        assert_eq!(healed, reference);
        assert_eq!(
            healed,
            grid.wordline_currents_reference(&activation).unwrap()
        );
        assert_eq!(grid.worst_effective_shift(), 0.0);

        // The repaired row keeps working as a programming target.
        grid.program_cell(2, 10, 9, ProgrammingMode::Ideal).unwrap();
        assert_eq!(grid.cell(2, 10).unwrap().programmed_level(), Some(9));
        assert!(!grid.cell(2, 10).unwrap().is_stuck());
    }

    #[test]
    fn grid_scrub_without_spares_reports_unrepairable_cells() {
        let mut grid = spare_grid(0);
        crate::fault::apply_scheduled_fault(&mut grid, 2, 10, FaultKind::StuckErased, true)
            .unwrap();
        let outcome = grid.scrub(0.05, ProgrammingMode::Ideal).unwrap();
        assert!(!outcome.fully_repaired());
        assert_eq!(outcome.stuck_cells, 1);
        assert_eq!(outcome.rows_remapped, 0);
        let unrepaired: Vec<&FaultReport> = outcome.unrepaired().collect();
        assert_eq!(unrepaired.len(), 1);
        assert_eq!((unrepaired[0].row, unrepaired[0].column), (2, 10));
        assert!(grid.cell(2, 10).unwrap().is_stuck());
        // Recalibration leaves the latched cell to the repair subsystem.
        assert_eq!(grid.worst_effective_shift(), 0.0);
        let refresh = grid.recalibrate(0.05, ProgrammingMode::Ideal).unwrap();
        assert_eq!(refresh.rows_refreshed, 0);
    }

    #[test]
    fn grid_scrub_exhausts_spares_then_degrades() {
        let mut grid = spare_grid(1);
        // Rows 0 and 1 share tile (0, 1): the single spare covers only one.
        crate::fault::apply_scheduled_fault(&mut grid, 0, 10, FaultKind::StuckErased, true)
            .unwrap();
        crate::fault::apply_scheduled_fault(&mut grid, 1, 10, FaultKind::StuckErased, true)
            .unwrap();
        let outcome = grid.scrub(0.05, ProgrammingMode::Ideal).unwrap();
        assert_eq!(outcome.rows_remapped, 1);
        assert_eq!(outcome.stuck_cells, 1);
        assert!(!outcome.fully_repaired());
        assert_eq!(grid.spares_used(), 1);
    }

    fn test_ladder(programmer: &LevelProgrammer) -> LevelLadder {
        LevelLadder::new(
            programmer.min_current(),
            programmer.max_current(),
            programmer.levels(),
        )
        .unwrap()
    }

    #[test]
    fn packed_fabric_partials_match_monolithic_and_oracle() {
        let (grid, array) = grid_and_array();
        let layout = *grid.layout();
        let ladder = test_ladder(grid.programmer());
        let activation = Activation::from_observation(&layout, &[1, 3, 2, 0]).unwrap();
        let bit_offsets = vec![0u8, 2, 0, 2];
        let mut scratch = Vec::new();
        let mut fabric = Vec::new();
        let mut monolithic = Vec::new();
        grid.plane_partial_sums_into(
            &activation,
            &bit_offsets,
            2,
            &ladder,
            &mut scratch,
            &mut fabric,
        )
        .unwrap();
        array
            .plane_partial_sums_into(
                &activation,
                &bit_offsets,
                2,
                &ladder,
                &mut scratch,
                &mut monolithic,
            )
            .unwrap();
        assert_eq!(fabric.len(), layout.rows() * 2);
        assert_eq!(fabric, monolithic);
        assert_eq!(
            fabric,
            grid.plane_partial_sums_reference(&activation, &bit_offsets, 2, &ladder)
                .unwrap()
        );
        // Offset slices shorter than the activation are rejected.
        assert!(grid
            .plane_partial_sums_reference(&activation, &bit_offsets[..2], 2, &ladder)
            .is_err());
    }

    #[test]
    fn noisy_packed_fabric_matches_monolithic_under_disturb() {
        let (grid, array) = noisy_grid_and_array();
        let layout = *grid.layout();
        let ladder = test_ladder(grid.programmer());
        let activation = Activation::all_columns(&layout);
        let bit_offsets = vec![1u8; activation.len()];
        let mut scratch = Vec::new();
        let mut fabric = Vec::new();
        let mut monolithic = Vec::new();
        // Read-disturb tiers keep crossing; the packed fabric path, the
        // packed monolithic path and the uncached oracle must stay in
        // lockstep on every single read.
        for _ in 0..20 {
            grid.plane_partial_sums_into(
                &activation,
                &bit_offsets,
                2,
                &ladder,
                &mut scratch,
                &mut fabric,
            )
            .unwrap();
            array
                .plane_partial_sums_into(
                    &activation,
                    &bit_offsets,
                    2,
                    &ladder,
                    &mut scratch,
                    &mut monolithic,
                )
                .unwrap();
            assert_eq!(fabric, monolithic);
            assert_eq!(
                fabric,
                grid.plane_partial_sums_reference(&activation, &bit_offsets, 2, &ladder)
                    .unwrap()
            );
        }
        assert_eq!(grid.row_reads(0).unwrap(), array.row_reads(0).unwrap());
    }

    #[test]
    fn batched_packed_fabric_matches_sequential_reads() {
        let (grid, _) = noisy_grid_and_array();
        let (sequential, _) = noisy_grid_and_array();
        let layout = *grid.layout();
        let ladder = test_ladder(grid.programmer());
        let reads: Vec<(Activation, Vec<u8>)> = (0..9)
            .map(|i| {
                let activation =
                    Activation::from_observation(&layout, &[i % 4, (i + 1) % 4, (i + 2) % 4, 0])
                        .unwrap();
                let offsets = vec![(i % 3) as u8; activation.len()];
                (activation, offsets)
            })
            .collect();
        let activations: Vec<Activation> = reads.iter().map(|(a, _)| a.clone()).collect();
        let flat_offsets: Vec<u8> = reads.iter().flat_map(|(_, o)| o.clone()).collect();
        let mut scratch = Vec::new();
        let mut batch_out = Vec::new();
        grid.plane_partial_sums_batch_into(
            &activations,
            &flat_offsets,
            2,
            &ladder,
            &mut scratch,
            &mut batch_out,
        )
        .unwrap();
        let mut seq_out = Vec::new();
        let mut one = Vec::new();
        for (activation, offsets) in &reads {
            sequential
                .plane_partial_sums_into(activation, offsets, 2, &ladder, &mut scratch, &mut one)
                .unwrap();
            seq_out.extend_from_slice(&one);
        }
        assert_eq!(batch_out, seq_out);
        assert_eq!(grid.row_reads(0).unwrap(), 9);
    }

    #[test]
    fn packed_fabric_reads_survive_spare_row_repair() {
        let mut grid = spare_grid(2);
        let layout = *grid.layout();
        let ladder = test_ladder(grid.programmer());
        let activation = Activation::all_columns(&layout);
        let bit_offsets = vec![0u8; activation.len()];
        let reference = grid
            .plane_partial_sums_reference(&activation, &bit_offsets, 2, &ladder)
            .unwrap();
        crate::fault::apply_scheduled_fault(&mut grid, 2, 10, FaultKind::StuckProgrammed, true)
            .unwrap();
        let outcome = grid.scrub(0.05, ProgrammingMode::Ideal).unwrap();
        assert_eq!(outcome.rows_remapped, 1);
        assert!(grid.is_row_remapped(2));
        // Packed reads through the remap are bit-identical to the pre-fault
        // reference, cached and uncached alike.
        let mut scratch = Vec::new();
        let mut healed = Vec::new();
        grid.plane_partial_sums_into(
            &activation,
            &bit_offsets,
            2,
            &ladder,
            &mut scratch,
            &mut healed,
        )
        .unwrap();
        assert_eq!(healed, reference);
        assert_eq!(
            healed,
            grid.plane_partial_sums_reference(&activation, &bit_offsets, 2, &ladder)
                .unwrap()
        );
    }
}
