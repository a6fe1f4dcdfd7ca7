//! Pluggable inference backends.
//!
//! The engine's physics is behind the [`InferenceBackend`] trait: a backend
//! owns whatever state it needs to answer "which class wins for this
//! sample?" and exposes the scratch-based inference contract the engine's
//! batched paths are built on. Three implementations ship with the crate:
//!
//! * [`SoftwareBackend`] — the exact FP64 [`GaussianNaiveBayes`] reference:
//!   no quantization, no devices, zero delay/energy. The ground truth every
//!   physical backend is compared against.
//! * [`CrossbarBackend`] — the paper's single-array engine: the program on
//!   a one-tile [`TileGrid`] plus the current-mirror / WTA
//!   [`SensingChain`], priced as one monolithic array
//!   ([`MonolithicPricing`]).
//! * [`TiledFabricBackend`] — a model sharded across a grid of fixed-size
//!   crossbar tiles: row-wise class sharding × column-wise evidence
//!   splitting, priced with parallel tile settling, a partial-sum merge bus
//!   and per-tile drivers ([`TiledPricing`]).
//!
//! The two physical backends are one implementation, [`FabricBackend`],
//! instantiated with two [`ReadPricing`] rules: they program, read, age,
//! recalibrate, scrub and decide identically — reads are bit-identical for
//! the same program — and only the delay and energy of a read differ.
//!
//! `FebimEngine<B>` dispatches through the trait, so swapping the physics —
//! or serving a model bigger than one physical array — is a type parameter,
//! not a rewrite.

use std::sync::Arc;

use febim_bayes::{argmax, GaussianNaiveBayes};
use febim_circuit::{
    merge_plane_sums_into, CircuitError, DelayBreakdown, InferenceEnergy, ReadGeometry, ReadGroup,
    SensingChain, TileGeometry,
};
use febim_crossbar::{
    apply_scheduled_fault, Activation, CrossbarError, FaultSchedule, LevelLadder, ProgrammingMode,
    RefreshOutcome, ScrubOutcome, TileGrid, TilePlan, TileShape,
};
use febim_device::{LevelProgrammer, VariationModel};
use febim_quant::{bit_offset_of, packed_column_of, QuantizedGnbc};
use serde::Serialize;

use crate::compiler::{compile, compile_tiled, CrossbarProgram, TiledProgram};
use crate::config::EngineConfig;
use crate::engine::{EvalScratch, InferenceStep};
use crate::errors::{CoreError, Result};

/// Which family of physics a backend implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BackendKind {
    /// Exact FP64 software evaluation (no devices).
    Software,
    /// One monolithic FeFET crossbar array.
    Crossbar,
    /// A grid of fixed-size FeFET crossbar tiles.
    TiledFabric,
}

/// Descriptive metadata of an inference backend.
///
/// Serialize-only: the `name` is a `&'static str` picked by the backend, so
/// the type is reporting output, never decoded back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BackendInfo {
    /// Backend family.
    pub kind: BackendKind,
    /// Stable human-readable backend name.
    pub name: &'static str,
    /// Events (classes) the backend decides between.
    pub events: usize,
    /// Evidence columns driven per read (0 for the software backend).
    pub columns: usize,
    /// Physical tiles backing the model (0 for the software backend).
    pub tiles: usize,
}

/// Per-batch telemetry of one grouped inference: how the batch prices as a
/// read group versus the same reads issued sequentially.
///
/// Per-sample [`InferenceStep`]s of a batch are always bit-identical to
/// sequential inference; the telemetry is where batching shows up. Backends
/// that support grouped reads (`amortized == true`) settle the array once
/// and hold the wordline bias across the group, so `delay`/`energy` price
/// below the `sequential_*` baselines; the default implementation simply
/// sums the per-read figures (`amortized == false`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BatchTelemetry {
    /// Number of inferences in the batch.
    pub reads: usize,
    /// Modeled delay of the whole batch.
    pub delay: DelayBreakdown,
    /// Modeled energy of the whole batch.
    pub energy: InferenceEnergy,
    /// Σ per-read total delays (what the batch costs issued one by one).
    pub sequential_delay: f64,
    /// Σ per-read total energies of the sequential baseline.
    pub sequential_energy: f64,
    /// Whether the backend amortized settling/drivers across the group.
    pub amortized: bool,
}

impl BatchTelemetry {
    /// Telemetry of an empty batch.
    pub fn empty(amortized: bool) -> Self {
        Self {
            reads: 0,
            delay: DelayBreakdown {
                array: 0.0,
                sensing: 0.0,
            },
            energy: InferenceEnergy {
                array: 0.0,
                sensing: 0.0,
            },
            sequential_delay: 0.0,
            sequential_energy: 0.0,
            amortized,
        }
    }

    /// Telemetry of an amortized read group.
    pub(crate) fn from_group(group: &ReadGroup) -> Self {
        Self {
            reads: group.reads(),
            delay: group.delay(),
            energy: group.energy(),
            sequential_delay: group.sequential_delay(),
            sequential_energy: group.sequential_energy(),
            amortized: true,
        }
    }

    /// Batched-over-sequential delay ratio (≤ 1 for amortized groups; 1.0
    /// for an empty or cost-free batch).
    pub fn delay_ratio(&self) -> f64 {
        if self.sequential_delay > 0.0 {
            self.delay.total() / self.sequential_delay
        } else {
            1.0
        }
    }

    /// Batched-over-sequential energy ratio (≤ 1 for amortized groups; 1.0
    /// for an empty or cost-free batch).
    pub fn energy_ratio(&self) -> f64 {
        if self.sequential_energy > 0.0 {
            self.energy.total() / self.sequential_energy
        } else {
            1.0
        }
    }
}

/// Write-pulse cost of moving a model on or off a physical backend: the
/// Preisach pulse-train length and the programming energy of either
/// programming a compiled model onto erased cells
/// ([`InferenceBackend::program_cost`]) or erasing its region back to the
/// blank state ([`InferenceBackend::decommission`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct SwapCost {
    /// Σ write/erase pulses applied (or required).
    pub pulses: u64,
    /// Σ programming energy in joules.
    pub energy_j: f64,
}

impl SwapCost {
    /// Adds another cost into this one.
    pub fn absorb(&mut self, other: SwapCost) {
        self.pulses += other.pulses;
        self.energy_j += other.energy_j;
    }
}

/// A pluggable inference engine core.
///
/// Implementations own their full physical (or mathematical) state; the
/// engine wraps one and adds dataset-level bookkeeping. The scratch-based
/// contract mirrors the engine API: [`InferenceBackend::make_scratch`] once,
/// then any number of allocation-free [`InferenceBackend::infer_into`] calls.
pub trait InferenceBackend {
    /// Descriptive metadata (kind, name, geometry).
    fn info(&self) -> BackendInfo;

    /// Creates a scratch sized for this backend's geometry.
    fn make_scratch(&self) -> EvalScratch;

    /// Runs one inference for a continuous sample, reusing the caller's
    /// scratch buffers. The per-class scores of the decision remain available
    /// through [`EvalScratch::wordline_currents`].
    ///
    /// # Errors
    ///
    /// Propagates discretization, read and sensing errors.
    fn infer_into(&self, sample: &[f64], scratch: &mut EvalScratch) -> Result<InferenceStep>;

    /// Runs one inference per sample of a batch, writing one
    /// [`InferenceStep`] per sample into `steps` (cleared first) and
    /// returning the batch-level telemetry.
    ///
    /// The contract every implementation must honor: per-sample steps (and
    /// the final [`EvalScratch::wordline_currents`], which reflect the last
    /// sample of the batch) are **bit-identical** to sequential
    /// [`InferenceBackend::infer_into`] calls on the same backend — batching
    /// may only change *how the group is priced*, never what it decides.
    ///
    /// The default implementation loops `infer_into` and sums the per-read
    /// telemetry. The physical backends run `infer_into` and this call on
    /// one read path, a sequential read being a group of one, and price the
    /// batch as one [`ReadGroup`] that amortizes array settling and
    /// wordline drivers across its reads.
    ///
    /// # Errors
    ///
    /// Propagates per-sample inference errors (the batch stops at the first
    /// failing sample; `steps` holds the completed prefix, which is empty
    /// on the physical backends when a sample fails to discretize, since
    /// they observe every sample before the first read).
    fn infer_batch_into(
        &self,
        samples: &[Vec<f64>],
        scratch: &mut EvalScratch,
        steps: &mut Vec<InferenceStep>,
    ) -> Result<BatchTelemetry> {
        steps.clear();
        let mut telemetry = BatchTelemetry::empty(false);
        for sample in samples {
            let step = self.infer_into(sample, scratch)?;
            telemetry.reads += 1;
            telemetry.delay.array += step.delay.array;
            telemetry.delay.sensing += step.delay.sensing;
            telemetry.energy.array += step.energy.array;
            telemetry.energy.sensing += step.energy.sensing;
            steps.push(step);
        }
        telemetry.sequential_delay = telemetry.delay.total();
        telemetry.sequential_energy = telemetry.energy.total();
        Ok(telemetry)
    }

    /// Re-establishes the backend's physical state from its compiled model
    /// (programming the cells and re-applying the configured device
    /// variation). A no-op for stateless backends.
    ///
    /// # Errors
    ///
    /// Propagates programming errors.
    fn reprogram(&mut self) -> Result<()>;

    /// Read-current state map of the backend's cells, flattened row-major
    /// into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsupportedOperation`] for backends without
    /// physical state.
    fn current_map_into(&self, out: &mut Vec<f64>) -> Result<()>;

    /// Advances the backend's physical clock by `ticks`, aging every cell
    /// under the configured retention-drift model. A no-op for backends
    /// without time-varying state.
    fn advance_time(&mut self, _ticks: u64) {}

    /// The backend's physical clock in ticks (0 for stateless backends).
    fn clock(&self) -> u64 {
        0
    }

    /// Monotone version counter of the backend's physical state. Any event
    /// that can change a cached conductance — programming, variation,
    /// aging, accumulated read disturb, recalibration — bumps it, so a
    /// scheduler can skip drift scans while the epoch is unchanged.
    fn state_epoch(&self) -> u64 {
        0
    }

    /// The largest effective threshold-voltage shift (drift plus disturb,
    /// in volts) currently degrading any programmed cell. Stateless
    /// backends report 0.
    fn worst_effective_shift(&self) -> f64 {
        0.0
    }

    /// Reprograms every cell whose effective threshold shift exceeds
    /// `max_vth_shift` volts back to its target level, resetting the cell's
    /// age and disturb counters. Returns the work done (pulses, energy,
    /// rows refreshed); stateless backends return an all-zero outcome.
    ///
    /// # Errors
    ///
    /// Propagates programming errors.
    fn recalibrate(&mut self, _max_vth_shift: f64) -> Result<RefreshOutcome> {
        Ok(RefreshOutcome::default())
    }

    /// BIST-style scrub pass: read-verifies every programmed cell against
    /// its target signature, repairs transient defects by reprogramming in
    /// place and — on tiled fabrics — remaps rows holding stuck cells onto
    /// spare physical rows. Unrepairable defects come back flagged in the
    /// outcome's reports so the owner (e.g. a serving pool) can quarantine
    /// the replica. Stateless backends have nothing to scrub and return a
    /// clean all-zero outcome.
    ///
    /// # Errors
    ///
    /// Propagates programming errors from repair writes.
    fn scrub(&mut self, _max_vth_shift: f64) -> Result<ScrubOutcome> {
        Ok(ScrubOutcome::default())
    }

    /// Installs a deterministic chaos schedule: as
    /// [`InferenceBackend::advance_time`] moves the physical clock past an
    /// event's strike tick, the event corrupts its cell (and latches it
    /// stuck when permanent). Replaces any previously installed schedule;
    /// a no-op for stateless backends.
    fn set_fault_schedule(&mut self, _schedule: FaultSchedule) {}

    /// Scheduled chaos events not yet delivered (0 for stateless backends
    /// or when no schedule is installed).
    fn pending_faults(&self) -> usize {
        0
    }

    /// Preisach-priced cost of programming this backend's compiled model
    /// onto erased cells: the pulse-train length and programming energy the
    /// registry charges when the model is hot-swapped onto a fleet region.
    /// `None` for backends without a physical program (software, mocks).
    fn program_cost(&self) -> Option<SwapCost> {
        None
    }

    /// Erases the backend's programmed region back to the blank state —
    /// the tear-down half of a hot swap: one nominal erase pulse per
    /// occupied cell, priced like write pulses, with cache invalidation
    /// scoped to the touched tiles. Returns the erase cost, or `Ok(None)`
    /// for backends without physical state.
    ///
    /// # Errors
    ///
    /// Propagates erase/programming errors.
    fn decommission(&mut self) -> Result<Option<SwapCost>> {
        Ok(None)
    }
}

/// The most cells one engine build may allocate: the entries of a quantized
/// table (one per one-hot cell) and the cells of a grid, spare rows
/// included. 32 times the paper's largest array (64×512). A registry
/// snapshot names both sizes, so this bounds what a restore allocates.
pub(crate) const MAX_CELLS: usize = 1 << 20;

/// Rejects a plan whose grid, spare rows included, would hold more than
/// [`MAX_CELLS`] cells. Every tile row provisions its spare rows across the
/// full layout width.
fn check_grid_size(plan: &TilePlan) -> Result<()> {
    let (layout, spare_rows) = (plan.layout(), plan.shape().spare_rows);
    let cells = plan
        .row_tiles()
        .checked_mul(spare_rows)
        .and_then(|spares| spares.checked_add(layout.rows()))
        .and_then(|rows| rows.checked_mul(layout.columns()));
    if cells.is_some_and(|cells| cells <= MAX_CELLS) {
        return Ok(());
    }
    let reason = format!(
        "{}x{} cells with {spare_rows} spare rows per tile row exceed the {MAX_CELLS}-cell cap",
        layout.rows(),
        layout.columns()
    );
    Err(CrossbarError::InvalidLayout { reason }.into())
}

/// Builds the level programmer shared by the physical backends.
fn level_programmer(config: &EngineConfig, state_count: usize) -> Result<LevelProgrammer> {
    Ok(LevelProgrammer::new(
        config.device.clone(),
        state_count,
        febim_device::programming::DEFAULT_MIN_READ_CURRENT,
        febim_device::programming::DEFAULT_MAX_READ_CURRENT,
    )?)
}

/// Precomputed geometry of the bit-plane read path. `None` on a backend
/// means it reads one-hot.
#[derive(Debug, Clone)]
struct PackedRead {
    /// Bins packed into one multi-bit cell (`r = bits / Q_l`).
    digits_per_cell: usize,
    /// Bits per likelihood digit (`Q_l`).
    digit_bits: u32,
    /// Bit planes sensed per read (`Q_l`).
    planes: usize,
    /// Flash-ADC ladder digitizing cell on-currents back into stored values.
    ladder: LevelLadder,
    /// Current step of one merged-score unit on the shift-add bus.
    lsb_current: f64,
    /// Shared per-row current offset of the merged read.
    floor_current: f64,
}

impl PackedRead {
    /// Builds the packed-read geometry for a configuration, or `None` for
    /// one-hot encodings. `state_count` is the compiled program's state
    /// count (`2^bits` for packed programs), which sizes the ladder.
    fn for_config(config: &EngineConfig, state_count: usize) -> Result<Option<Self>> {
        if !config.encoding.is_packed() {
            return Ok(None);
        }
        let digit_bits = config.quant.likelihood_bits;
        Ok(Some(Self {
            digits_per_cell: config.encoding.digits_per_cell(digit_bits),
            digit_bits,
            planes: config.encoding.planes(digit_bits),
            ladder: LevelLadder::new(
                febim_device::programming::DEFAULT_MIN_READ_CURRENT,
                febim_device::programming::DEFAULT_MAX_READ_CURRENT,
                state_count,
            )?,
            lsb_current: febim_device::programming::DEFAULT_MIN_READ_CURRENT,
            floor_current: 0.0,
        }))
    }

    /// Total stored bits per multi-bit cell (`log2` of the cell's state
    /// count) — the number of multi-level sensing refinement steps one
    /// activated cell needs during a packed read.
    fn cell_bits(&self) -> usize {
        self.digits_per_cell * self.digit_bits as usize
    }
}

/// The exact FP64 software reference backend.
///
/// Scores are unnormalized log posteriors (written into the scratch's score
/// buffer), the winner is their argmax, and delay/energy are zero — software
/// has no circuit to price.
#[derive(Debug, Clone)]
pub struct SoftwareBackend {
    model: Arc<GaussianNaiveBayes>,
}

impl SoftwareBackend {
    /// Wraps a trained model (shared with the engine by `Arc`).
    pub fn new(model: Arc<GaussianNaiveBayes>) -> Self {
        Self { model }
    }

    /// Borrow the wrapped model.
    pub fn model(&self) -> &GaussianNaiveBayes {
        self.model.as_ref()
    }
}

impl InferenceBackend for SoftwareBackend {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            kind: BackendKind::Software,
            name: "software-gnbc",
            events: self.model.n_classes(),
            columns: 0,
            tiles: 0,
        }
    }

    fn make_scratch(&self) -> EvalScratch {
        EvalScratch {
            currents: Vec::with_capacity(self.model.n_classes()),
            ..EvalScratch::default()
        }
    }

    fn infer_into(&self, sample: &[f64], scratch: &mut EvalScratch) -> Result<InferenceStep> {
        self.model
            .log_posteriors_into(sample, &mut scratch.currents)?;
        let winner = argmax(&scratch.currents).expect("at least one class");
        let best = scratch.currents[winner];
        let tie_broken = scratch
            .currents
            .iter()
            .filter(|&&score| score == best)
            .count()
            > 1;
        Ok(InferenceStep {
            prediction: winner,
            delay: DelayBreakdown {
                array: 0.0,
                sensing: 0.0,
            },
            energy: InferenceEnergy {
                array: 0.0,
                sensing: 0.0,
            },
            tie_broken,
        })
    }

    fn reprogram(&mut self) -> Result<()> {
        Ok(())
    }

    fn current_map_into(&self, _out: &mut Vec<f64>) -> Result<()> {
        Err(CoreError::UnsupportedOperation {
            backend: "software-gnbc",
            operation: "current_map",
        })
    }
}

/// How a physical backend prices one read: the only thing that tells the
/// paper's monolithic array apart from a tiled fabric.
///
/// Decisions never depend on the rule — every read senses the same merged
/// currents through the same mirror and WTA — only the modeled delay and
/// energy do. A rule only builds the [`ReadGeometry`] a read is priced on;
/// [`SensingChain::price`] does the pricing. The rule is a property of the
/// backend, not of its tile plan: priced as a fabric, even a one-tile plan
/// pays the merge bus that the paper's single array does not have.
pub trait ReadPricing: Clone + std::fmt::Debug {
    /// Backend family reported by [`InferenceBackend::info`].
    const KIND: BackendKind;
    /// Stable backend name reported by [`InferenceBackend::info`].
    const NAME: &'static str;

    /// The rule for a model programmed onto `plan`.
    ///
    /// # Errors
    ///
    /// Propagates tile-plan errors.
    fn for_plan(plan: &TilePlan) -> Result<Self>;

    /// The geometry one read of `activation` is priced on. `tiles` is
    /// scratch for whatever per-read geometry the rule needs.
    fn geometry<'a>(
        &self,
        activation: &Activation,
        tiles: &'a mut Vec<TileGeometry>,
    ) -> ReadGeometry<'a>;
}

/// The paper's pricing: one array settling all wordlines over the read's
/// driven bitlines, no merge bus ([`ReadGeometry::Array`]). Needs no
/// per-read tile geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonolithicPricing;

impl ReadPricing for MonolithicPricing {
    const KIND: BackendKind = BackendKind::Crossbar;
    const NAME: &'static str = "crossbar-single-array";

    fn for_plan(_plan: &TilePlan) -> Result<Self> {
        Ok(Self)
    }

    fn geometry<'a>(
        &self,
        activation: &Activation,
        _tiles: &'a mut Vec<TileGeometry>,
    ) -> ReadGeometry<'a> {
        ReadGeometry::Array {
            activated: activation.len(),
        }
    }
}

/// Fabric pricing: tiles settle in parallel, a merge bus collects the tile
/// columns' partial sums and every tile row re-drives its activated
/// bitlines ([`ReadGeometry::Fabric`]). Each read fills one
/// [`TileGeometry`] per tile.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledPricing {
    /// Occupied geometry of every tile (grid row-major), with
    /// `activated_columns` zeroed.
    base_tiles: Vec<TileGeometry>,
    /// Tile columns of the grid.
    col_tiles: usize,
    /// The tile column of every logical column: a lookup, because a
    /// division per activated column would cost more than the rest of the
    /// per-read geometry together.
    tile_col_of: Vec<usize>,
}

impl ReadPricing for TiledPricing {
    const KIND: BackendKind = BackendKind::TiledFabric;
    const NAME: &'static str = "tiled-fabric";

    fn for_plan(plan: &TilePlan) -> Result<Self> {
        let mut base_tiles = Vec::with_capacity(plan.tile_count());
        for tile_row in 0..plan.row_tiles() {
            for tile_col in 0..plan.col_tiles() {
                let (rows, columns) = plan.tile_dims(tile_row, tile_col)?;
                base_tiles.push(TileGeometry {
                    rows,
                    columns,
                    activated_columns: 0,
                });
            }
        }
        let width = plan.shape().columns;
        Ok(Self {
            base_tiles,
            col_tiles: plan.col_tiles(),
            tile_col_of: (0..plan.layout().columns()).map(|c| c / width).collect(),
        })
    }

    /// Counts the activated columns per tile column and repeats the counts
    /// down every tile row.
    fn geometry<'a>(
        &self,
        activation: &Activation,
        tiles: &'a mut Vec<TileGeometry>,
    ) -> ReadGeometry<'a> {
        tiles.clear();
        tiles.extend_from_slice(&self.base_tiles);
        for &column in activation.active_columns() {
            tiles[self.tile_col_of[column]].activated_columns += 1;
        }
        let (first_row, other_rows) = tiles.split_at_mut(self.col_tiles);
        for tile_row in other_rows.chunks_mut(self.col_tiles) {
            for (tile, first) in tile_row.iter_mut().zip(&*first_row) {
                tile.activated_columns = first.activated_columns;
            }
        }
        ReadGeometry::Fabric {
            tiles,
            col_tiles: self.col_tiles,
        }
    }
}

/// A physical in-memory backend: a compiled program on a [`TileGrid`], read
/// through the current-mirror / WTA [`SensingChain`] and priced by `P`.
///
/// [`CrossbarBackend`] and [`TiledFabricBackend`] are its two
/// instantiations. Both program, read, age, recalibrate, scrub and decide
/// through the same code, so their reads are bit-identical for the same
/// program; they differ only in their [`ReadPricing`] rule.
#[derive(Debug, Clone)]
pub struct FabricBackend<P: ReadPricing> {
    quantized: Arc<QuantizedGnbc>,
    tiled: TiledProgram,
    grid: TileGrid,
    sensing: SensingChain,
    pricing: P,
    programming_mode: ProgrammingMode,
    variation: VariationModel,
    variation_seed: u64,
    /// Bit-plane read geometry (`None` for one-hot programs).
    packed: Option<PackedRead>,
    /// Pending chaos events delivered by [`InferenceBackend::advance_time`].
    fault_schedule: Option<FaultSchedule>,
}

/// The paper's single-array in-memory backend: the program on one
/// monolithic array (a one-tile [`TileGrid`]), priced as that array.
pub type CrossbarBackend = FabricBackend<MonolithicPricing>;

/// The tiled multi-array fabric backend: the program sharded across a
/// [`TileGrid`] of fixed-size tiles, priced as a fabric.
pub type TiledFabricBackend = FabricBackend<TiledPricing>;

impl CrossbarBackend {
    /// Compiles the quantized model into a crossbar program and programs a
    /// (possibly variation-affected) monolithic array.
    ///
    /// # Errors
    ///
    /// Propagates compilation and programming errors.
    pub fn new(quantized: Arc<QuantizedGnbc>, config: &EngineConfig) -> Result<Self> {
        let program = compile(&quantized, config.force_prior_column, config.encoding)?;
        let programmer = level_programmer(config, program.state_count())?;
        Self::with_program(
            quantized,
            config,
            TiledProgram::monolithic(program),
            programmer,
        )
    }
}

impl TiledFabricBackend {
    /// Compiles the quantized model onto a grid of `shape`-sized tiles and
    /// programs the fabric.
    ///
    /// # Errors
    ///
    /// Propagates compilation, tile-planning and programming errors.
    pub fn new(
        quantized: Arc<QuantizedGnbc>,
        config: &EngineConfig,
        shape: TileShape,
    ) -> Result<Self> {
        let tiled = compile_tiled(
            &quantized,
            config.force_prior_column,
            shape,
            config.encoding,
        )?;
        let programmer = level_programmer(config, tiled.state_count())?;
        Self::with_program(quantized, config, tiled, programmer)
    }
}

impl<P: ReadPricing> FabricBackend<P> {
    /// Builds the backend around an **already compiled** program and plan
    /// and programs it onto a fresh grid through `programmer`. Only this
    /// crate compiles programs, so `tiled` was always compiled from
    /// `quantized` under `config`'s encoding, and `programmer` is the
    /// [`level_programmer`] of `config` for its state count: the two `new`
    /// constructors build both, and the registry's fault-in passes those of
    /// an engine it catalogued, which saves the recompile and the level
    /// table.
    ///
    /// # Errors
    ///
    /// Rejects a grid past [`MAX_CELLS`] cells before allocating it, and
    /// propagates grid-construction and programming errors.
    pub(crate) fn with_program(
        quantized: Arc<QuantizedGnbc>,
        config: &EngineConfig,
        tiled: TiledProgram,
        programmer: LevelProgrammer,
    ) -> Result<Self> {
        check_grid_size(tiled.plan())?;
        let mut backend = Self {
            packed: PackedRead::for_config(config, tiled.state_count())?,
            pricing: P::for_plan(tiled.plan())?,
            grid: TileGrid::with_non_idealities(*tiled.plan(), programmer, config.non_idealities)?,
            quantized,
            tiled,
            sensing: SensingChain::febim_calibrated(),
            programming_mode: config.programming_mode,
            variation: config.variation,
            variation_seed: config.variation_seed,
            fault_schedule: None,
        };
        backend.reprogram()?;
        Ok(backend)
    }

    /// The compiled crossbar program.
    pub fn program(&self) -> &CrossbarProgram {
        self.tiled.program()
    }

    /// The compiled program together with its tile plan.
    pub fn tiled_program(&self) -> &TiledProgram {
        &self.tiled
    }

    /// The programmed grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The sensing chain (mirrors, WTA, delay and energy models).
    pub fn sensing(&self) -> &SensingChain {
        &self.sensing
    }

    /// Replaces the sensing chain (e.g. to study mirror mismatch).
    pub fn set_sensing(&mut self, sensing: SensingChain) {
        self.sensing = sensing;
    }

    /// Drives `sample` onto the bitlines of read `index`: discretizes it
    /// and sets the observation of `scratch.activations[index]`. A
    /// bit-plane program observes each bin's packed column instead, and
    /// appends the activated columns' digit bit offsets to
    /// `scratch.bit_offsets` in activation order: the prior column first
    /// (offset zero) when the layout has one, then one per feature.
    fn observe(&self, sample: &[f64], index: usize, scratch: &mut EvalScratch) -> Result<()> {
        self.quantized
            .discretize_sample_into(sample, &mut scratch.evidence)?;
        let layout = self.grid.layout();
        let EvalScratch {
            evidence,
            activations,
            packed_evidence,
            bit_offsets,
            ..
        } = scratch;
        let observation = match &self.packed {
            Some(packed) => {
                let (digits, bits) = (packed.digits_per_cell, packed.digit_bits);
                packed_evidence.clear();
                if layout.has_prior() {
                    bit_offsets.push(0);
                }
                for &bin in evidence.iter() {
                    packed_evidence.push(packed_column_of(bin, digits));
                    bit_offsets.push(bit_offset_of(bin, digits, bits) as u8);
                }
                packed_evidence
            }
            None => evidence,
        };
        activations[index].set_observation(layout, observation)?;
        Ok(())
    }

    /// Decides and prices one read of `activation` straight from `read`,
    /// its slice of the kernel output: its wordline currents, or for a
    /// packed read its plane partial sums, which the shift-add bus first
    /// merges into `currents`. A read of a `group` is added to it with its
    /// wordline-driver share.
    fn sense(
        &self,
        activation: &Activation,
        read: &[f64],
        currents: &mut Vec<f64>,
        mirrored: &mut Vec<f64>,
        tiles: &mut Vec<TileGeometry>,
        group: Option<&mut ReadGroup>,
    ) -> Result<InferenceStep> {
        let (scores, planes) = match &self.packed {
            Some(packed) => {
                merge_plane_sums_into(
                    read,
                    packed.planes,
                    packed.lsb_current,
                    packed.floor_current,
                    currents,
                )?;
                (&currents[..], Some((packed.planes, packed.cell_bits())))
            }
            None => (read, None),
        };
        self.sensing.mirror().copy_all_into(scores, mirrored)?;
        let (prediction, tie_broken) = match self.sensing.wta().resolve(mirrored) {
            Ok(decision) => (decision.winner, false),
            // Quantized posteriors can tie exactly (integer packed scores
            // far more often than analog sums); physical mismatch would
            // break the tie, we do it deterministically instead.
            Err(CircuitError::AmbiguousWinner { .. }) => {
                (argmax(scores).expect("at least one wordline"), true)
            }
            Err(err) => return Err(err.into()),
        };
        let geometry = self.pricing.geometry(activation, tiles);
        let (delay, energy) = self.sensing.price(geometry, planes, scores, mirrored)?;
        if let Some(group) = group {
            let share = self.sensing.wordline_share(geometry, scores.len());
            group.add(&delay, &energy, share)?;
        }
        Ok(InferenceStep {
            prediction,
            delay,
            energy,
            tie_broken,
        })
    }

    /// The one read path, for a sequential read (one sample, no `group`)
    /// and a grouped one alike: observes every sample, reads them all in
    /// one kernel call, then senses each read from its slice of the kernel
    /// output and hands its step to `step`, in sample order. Afterwards
    /// [`EvalScratch::wordline_currents`] holds the last read's scores.
    fn read<S: AsRef<[f64]>>(
        &self,
        samples: &[S],
        scratch: &mut EvalScratch,
        mut group: Option<&mut ReadGroup>,
        mut step: impl FnMut(InferenceStep),
    ) -> Result<()> {
        let layout = self.grid.layout();
        if scratch.activations.len() < samples.len() {
            let template = Activation::empty(layout);
            scratch.activations.resize(samples.len(), template);
        }
        scratch.bit_offsets.clear();
        for (index, sample) in samples.iter().enumerate() {
            self.observe(sample.as_ref(), index, scratch)?;
        }
        let EvalScratch {
            activations,
            kernel_out,
            bit_offsets,
            level_scratch,
            currents,
            mirrored,
            tiles,
            ..
        } = scratch;
        let activations = &activations[..samples.len()];
        let stride = match &self.packed {
            Some(packed) => {
                self.grid.plane_partial_sums_batch_into(
                    activations,
                    bit_offsets,
                    packed.planes,
                    &packed.ladder,
                    level_scratch,
                    kernel_out,
                )?;
                layout.rows() * packed.planes
            }
            None => {
                self.grid
                    .wordline_currents_batch_into(activations, kernel_out)?;
                layout.rows()
            }
        };
        for (activation, read) in activations.iter().zip(kernel_out.chunks(stride)) {
            step(self.sense(
                activation,
                read,
                currents,
                mirrored,
                tiles,
                group.as_deref_mut(),
            )?);
        }
        // One-hot reads were sensed in place, so the scores kept are the
        // last read's currents; a packed read merged its own into
        // `currents` already.
        if let (None, Some(last)) = (&self.packed, kernel_out.rchunks(stride).next()) {
            currents.clear();
            currents.extend_from_slice(last);
        }
        Ok(())
    }
}

impl<P: ReadPricing> InferenceBackend for FabricBackend<P> {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            kind: P::KIND,
            name: P::NAME,
            events: self.grid.layout().rows(),
            columns: self.grid.layout().columns(),
            tiles: self.tiled.plan().tile_count(),
        }
    }

    fn make_scratch(&self) -> EvalScratch {
        let rows = self.grid.layout().rows();
        EvalScratch {
            evidence: Vec::with_capacity(self.quantized.n_features()),
            activations: vec![Activation::empty(self.grid.layout())],
            kernel_out: Vec::with_capacity(rows),
            currents: Vec::with_capacity(rows),
            mirrored: Vec::with_capacity(rows),
            tiles: Vec::with_capacity(self.tiled.plan().tile_count()),
            ..EvalScratch::default()
        }
    }

    fn infer_into(&self, sample: &[f64], scratch: &mut EvalScratch) -> Result<InferenceStep> {
        let mut last = None;
        self.read(&[sample], scratch, None, |step| last = Some(step))?;
        Ok(last.expect("one sample makes one read"))
    }

    fn infer_batch_into(
        &self,
        samples: &[Vec<f64>],
        scratch: &mut EvalScratch,
        steps: &mut Vec<InferenceStep>,
    ) -> Result<BatchTelemetry> {
        steps.clear();
        if samples.is_empty() {
            return Ok(BatchTelemetry::empty(true));
        }
        let mut group = ReadGroup::new();
        self.read(samples, scratch, Some(&mut group), |step| steps.push(step))?;
        Ok(BatchTelemetry::from_group(&group))
    }

    fn reprogram(&mut self) -> Result<()> {
        self.grid
            .program_matrix(self.tiled.program().levels(), self.programming_mode)?;
        if self.variation.sigma_vth > 0.0 {
            let mut rng = VariationModel::seeded_rng(self.variation_seed);
            self.grid.apply_variation(&self.variation, &mut rng);
        }
        Ok(())
    }

    fn program_cost(&self) -> Option<SwapCost> {
        let programmer = self.grid.programmer();
        let mut cost = SwapCost::default();
        for level in self.tiled.program().levels().iter().flatten().flatten() {
            let state = programmer.state_for_level(*level).ok()?;
            cost.pulses += u64::from(state.write_config.pulse_count) + 1;
            cost.energy_j += programmer.write_energy(*level).ok()?;
        }
        Some(cost)
    }

    fn decommission(&mut self) -> Result<Option<SwapCost>> {
        let layout = *self.grid.layout();
        let outcome = self
            .grid
            .erase_region(0..layout.rows(), 0..layout.columns())?;
        Ok(Some(SwapCost {
            pulses: outcome.pulses_applied,
            energy_j: outcome.energy_joules,
        }))
    }

    fn current_map_into(&self, out: &mut Vec<f64>) -> Result<()> {
        self.grid.current_map_into(out);
        Ok(())
    }

    fn advance_time(&mut self, ticks: u64) {
        self.grid.advance_time(ticks);
        if let Some(schedule) = self.fault_schedule.as_mut() {
            let now = self.grid.clock();
            for event in schedule.take_due(now) {
                // A schedule drawn for a different geometry can carry
                // out-of-range coordinates; dropping those events beats
                // panicking mid-serving.
                let _ = apply_scheduled_fault(
                    &mut self.grid,
                    event.row,
                    event.column,
                    event.kind,
                    event.permanent,
                );
            }
        }
    }

    fn clock(&self) -> u64 {
        self.grid.clock()
    }

    fn state_epoch(&self) -> u64 {
        self.grid.state_epoch()
    }

    fn worst_effective_shift(&self) -> f64 {
        self.grid.worst_effective_shift()
    }

    fn recalibrate(&mut self, max_vth_shift: f64) -> Result<RefreshOutcome> {
        Ok(self
            .grid
            .recalibrate(max_vth_shift, self.programming_mode)?)
    }

    fn scrub(&mut self, max_vth_shift: f64) -> Result<ScrubOutcome> {
        Ok(self.grid.scrub(max_vth_shift, self.programming_mode)?)
    }

    fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.fault_schedule = Some(schedule);
    }

    fn pending_faults(&self) -> usize {
        self.fault_schedule
            .as_ref()
            .map_or(0, FaultSchedule::pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use febim_data::rng::seeded_rng;
    use febim_data::split::stratified_split;
    use febim_data::synthetic::iris_like;
    use febim_device::NonIdealityStack;
    use febim_quant::{Encoding, QuantConfig};

    fn trained() -> (
        Arc<GaussianNaiveBayes>,
        Arc<QuantizedGnbc>,
        febim_data::Dataset,
    ) {
        let dataset = iris_like(90).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(90)).unwrap();
        let model = GaussianNaiveBayes::fit(&split.train).unwrap();
        let quantized =
            QuantizedGnbc::quantize(&model, &split.train, QuantConfig::febim_optimal()).unwrap();
        (Arc::new(model), Arc::new(quantized), split.test)
    }

    #[test]
    fn grids_past_the_cell_cap_are_rejected_before_allocating() {
        let (_, quantized, _) = trained();
        let config = EngineConfig::febim_default();
        let shape = TileShape::new(2, 24).unwrap();
        // 3x64 iris cells on two tile rows: the cap leaves room for
        // (MAX_CELLS / 64 - 3) / 2 spare rows per tile row.
        let fits = (MAX_CELLS / 64 - 3) / 2;
        assert!(TiledFabricBackend::new(Arc::clone(&quantized), &config, shape).is_ok());
        for spare_rows in [fits + 1, 1 << 32, usize::MAX] {
            let spared = shape.with_spare_rows(spare_rows);
            assert!(matches!(
                TiledFabricBackend::new(Arc::clone(&quantized), &config, spared),
                Err(CoreError::Crossbar(CrossbarError::InvalidLayout { .. }))
            ));
        }
    }

    #[test]
    fn software_backend_matches_the_model_exactly() {
        let (model, _, test) = trained();
        let backend = SoftwareBackend::new(Arc::clone(&model));
        let mut scratch = backend.make_scratch();
        for index in 0..test.n_samples() {
            let sample = test.sample(index).unwrap();
            let step = backend.infer_into(sample, &mut scratch).unwrap();
            assert_eq!(step.prediction, model.predict(sample).unwrap());
            assert_eq!(
                scratch.wordline_currents(),
                &model.log_posteriors(sample).unwrap()[..]
            );
            assert_eq!(step.delay.total(), 0.0);
            assert_eq!(step.energy.total(), 0.0);
        }
        let info = backend.info();
        assert_eq!(info.kind, BackendKind::Software);
        assert_eq!(info.events, 3);
        assert_eq!(info.tiles, 0);
        let mut out = Vec::new();
        assert!(matches!(
            backend.current_map_into(&mut out),
            Err(CoreError::UnsupportedOperation { .. })
        ));
    }

    #[test]
    fn crossbar_and_fabric_backends_agree_bit_for_bit() {
        let (_, quantized, test) = trained();
        let config = EngineConfig::febim_default();
        let crossbar = CrossbarBackend::new(quantized.clone(), &config).unwrap();
        let fabric =
            TiledFabricBackend::new(quantized, &config, TileShape::new(2, 24).unwrap()).unwrap();
        assert!(fabric.tiled_program().plan().is_multi_tile());
        let mut crossbar_scratch = crossbar.make_scratch();
        let mut fabric_scratch = fabric.make_scratch();
        for index in 0..test.n_samples() {
            let sample = test.sample(index).unwrap();
            let a = crossbar.infer_into(sample, &mut crossbar_scratch).unwrap();
            let b = fabric.infer_into(sample, &mut fabric_scratch).unwrap();
            assert_eq!(a.prediction, b.prediction);
            assert_eq!(a.tie_broken, b.tie_broken);
            assert_eq!(
                crossbar_scratch.wordline_currents(),
                fabric_scratch.wordline_currents()
            );
        }
        // State maps agree cell for cell as well.
        let mut flat_array = Vec::new();
        let mut flat_grid = Vec::new();
        crossbar.current_map_into(&mut flat_array).unwrap();
        fabric.current_map_into(&mut flat_grid).unwrap();
        assert_eq!(flat_array, flat_grid);
    }

    #[test]
    fn pricing_belongs_to_the_backend_not_the_plan() {
        // A fabric whose one tile is exactly the layout holds the same grid
        // as the paper's array and decides identically, yet still pays the
        // merge bus and fabric drivers of its pricing rule.
        let (_, quantized, test) = trained();
        let config = EngineConfig::febim_default();
        let crossbar = CrossbarBackend::new(quantized.clone(), &config).unwrap();
        let layout = *crossbar.grid().layout();
        let shape = TileShape::new(layout.rows(), layout.columns()).unwrap();
        let fabric = TiledFabricBackend::new(quantized, &config, shape).unwrap();
        assert_eq!(
            fabric.tiled_program().plan(),
            crossbar.tiled_program().plan()
        );
        let mut crossbar_scratch = crossbar.make_scratch();
        let mut fabric_scratch = fabric.make_scratch();
        for index in 0..test.n_samples() {
            let sample = test.sample(index).unwrap();
            let a = crossbar.infer_into(sample, &mut crossbar_scratch).unwrap();
            let b = fabric.infer_into(sample, &mut fabric_scratch).unwrap();
            assert_eq!((a.prediction, a.tie_broken), (b.prediction, b.tie_broken));
            assert_eq!(
                crossbar_scratch.wordline_currents(),
                fabric_scratch.wordline_currents()
            );
            assert!(b.delay.total() > a.delay.total());
            assert!(b.energy.total() > a.energy.total());
        }
        // Monolithic pricing reads no tile geometry, on single and grouped
        // reads alike.
        let mut steps = Vec::new();
        crossbar
            .infer_batch_into(&batch_of(&test), &mut crossbar_scratch, &mut steps)
            .unwrap();
        assert!(crossbar_scratch.tiles.is_empty());
        assert_eq!(fabric_scratch.tiles.len(), 1);
    }

    #[test]
    fn backend_info_reports_the_grid() {
        let (_, quantized, _) = trained();
        let config = EngineConfig::febim_default();
        let fabric =
            TiledFabricBackend::new(quantized, &config, TileShape::new(2, 48).unwrap()).unwrap();
        let info = fabric.info();
        assert_eq!(info.kind, BackendKind::TiledFabric);
        assert_eq!(info.events, 3);
        assert_eq!(info.columns, 64);
        assert_eq!(info.tiles, 4);
        assert_eq!(fabric.tiled_program().plan().row_tiles(), 2);
        assert_eq!(fabric.tiled_program().plan().col_tiles(), 2);
    }

    fn batch_of(test: &febim_data::Dataset) -> Vec<Vec<f64>> {
        (0..test.n_samples())
            .map(|index| test.sample(index).unwrap().to_vec())
            .collect()
    }

    /// Batched inference must be bit-identical to sequential inference —
    /// same steps (prediction, tie, delay, energy) and same final wordline
    /// currents — on every backend; only the batch telemetry may improve.
    /// Streams `samples` in batches of `size` through one twin of `backend`
    /// and one by one through another, so a stack that counts reads (read
    /// disturb) gives both paths the same read history. A batch of one is
    /// priced exactly as its step.
    fn assert_batch_matches_sequential<B: InferenceBackend + Clone>(
        backend: &B,
        samples: &[Vec<f64>],
        size: usize,
    ) {
        let (twin, batched) = (backend.clone(), backend.clone());
        let mut sequential_scratch = twin.make_scratch();
        let mut scratch = batched.make_scratch();
        let mut steps = Vec::new();
        for batch in samples.chunks(size) {
            let sequential: Vec<InferenceStep> = batch
                .iter()
                .map(|sample| twin.infer_into(sample, &mut sequential_scratch).unwrap())
                .collect();
            let telemetry = batched
                .infer_batch_into(batch, &mut scratch, &mut steps)
                .unwrap();
            assert_eq!(steps, sequential);
            assert_eq!(
                scratch.wordline_currents(),
                sequential_scratch.wordline_currents()
            );
            assert_eq!(telemetry.reads, batch.len());
            let sequential_delay: f64 = sequential.iter().map(|s| s.delay.total()).sum();
            let sequential_energy: f64 = sequential.iter().map(|s| s.energy.total()).sum();
            assert!(
                (telemetry.sequential_delay - sequential_delay).abs() <= sequential_delay * 1e-12
            );
            assert!(
                (telemetry.sequential_energy - sequential_energy).abs()
                    <= sequential_energy * 1e-12
            );
            if let [step] = sequential[..] {
                assert_eq!(
                    (telemetry.delay, telemetry.energy),
                    (step.delay, step.energy)
                );
            }
            if telemetry.amortized && batch.len() > 1 && sequential_delay > 0.0 {
                assert!(telemetry.delay.total() < telemetry.sequential_delay);
                assert!(telemetry.energy.total() < telemetry.sequential_energy);
                assert!(telemetry.delay_ratio() < 1.0);
                assert!(telemetry.energy_ratio() < 1.0);
            }
        }
    }

    /// The batch sizes every backend is checked at: one, two and the whole
    /// split.
    fn batch_sizes(samples: &[Vec<f64>]) -> [usize; 3] {
        [1, 2, samples.len()]
    }

    #[test]
    fn batched_inference_is_bit_identical_on_every_backend() {
        let (model, quantized, test) = trained();
        let config = EngineConfig::febim_default();
        let batch = batch_of(&test);
        let software = SoftwareBackend::new(model);
        let crossbar = CrossbarBackend::new(Arc::clone(&quantized), &config).unwrap();
        let fabric =
            TiledFabricBackend::new(quantized, &config, TileShape::new(2, 24).unwrap()).unwrap();
        for size in batch_sizes(&batch) {
            assert_batch_matches_sequential(&software, &batch, size);
            assert_batch_matches_sequential(&crossbar, &batch, size);
            assert_batch_matches_sequential(&fabric, &batch, size);
        }
        // The physical backends amortize; the software default path does not.
        let mut scratch = crossbar.make_scratch();
        let mut steps = Vec::new();
        let telemetry = crossbar
            .infer_batch_into(&batch, &mut scratch, &mut steps)
            .unwrap();
        assert!(telemetry.amortized);
    }

    /// The packed crossbar read must reproduce the software oracle exactly:
    /// unpacking the quantized tables and summing the observed bins' levels
    /// gives an integer score per class, and the merged shift-add current is
    /// that score times the LSB current, bit for bit.
    #[test]
    fn packed_crossbar_matches_the_level_sum_oracle() {
        let (_, quantized, test) = trained();
        let config = EngineConfig::febim_default().with_encoding(Encoding::BitPlane { bits: 4 });
        let backend = CrossbarBackend::new(Arc::clone(&quantized), &config).unwrap();
        // 4-bit cells pack two 2-bit bins: half the one-hot columns.
        assert_eq!(backend.program().layout().columns(), 32);
        assert_eq!(backend.program().state_count(), 16);
        let lsb = febim_device::programming::DEFAULT_MIN_READ_CURRENT;
        let mut scratch = backend.make_scratch();
        let mut evidence = Vec::new();
        for index in 0..test.n_samples() {
            let sample = test.sample(index).unwrap();
            backend.infer_into(sample, &mut scratch).unwrap();
            quantized
                .discretize_sample_into(sample, &mut evidence)
                .unwrap();
            for class in 0..quantized.n_classes() {
                let score: usize = evidence
                    .iter()
                    .enumerate()
                    .map(|(feature, &bin)| quantized.likelihood_level(class, feature, bin).unwrap())
                    .sum();
                assert_eq!(scratch.wordline_currents()[class], lsb * score as f64);
            }
        }
    }

    /// At sigma = 0 the packed read ranks classes by the same integer level
    /// sums the one-hot read accumulates in the analog domain, so untied
    /// predictions agree sample for sample and the accuracy is identical.
    #[test]
    fn packed_predictions_match_one_hot_at_zero_sigma() {
        let (_, quantized, test) = trained();
        let one_hot =
            CrossbarBackend::new(Arc::clone(&quantized), &EngineConfig::febim_default()).unwrap();
        for bits in [4u32, 8] {
            let config = EngineConfig::febim_default().with_encoding(Encoding::BitPlane { bits });
            let packed = CrossbarBackend::new(Arc::clone(&quantized), &config).unwrap();
            let mut one_hot_scratch = one_hot.make_scratch();
            let mut packed_scratch = packed.make_scratch();
            let mut agreements = 0usize;
            for index in 0..test.n_samples() {
                let sample = test.sample(index).unwrap();
                let a = one_hot.infer_into(sample, &mut one_hot_scratch).unwrap();
                let b = packed.infer_into(sample, &mut packed_scratch).unwrap();
                // Integer scores tie more often than analog sums; whenever
                // neither read tie-broke, the winners must coincide.
                if !a.tie_broken && !b.tie_broken {
                    assert_eq!(a.prediction, b.prediction);
                    agreements += 1;
                }
                // Packed reads price the narrower column count plus the
                // merge bus; both stay finite and positive.
                assert!(b.delay.total() > 0.0 && b.energy.total() > 0.0);
            }
            assert!(agreements > 0, "no untied sample to compare");
        }
    }

    /// Packed reads on the tiled fabric are bit-identical to the monolithic
    /// packed backend: same integer partials, same merged currents, same
    /// decisions.
    #[test]
    fn packed_fabric_matches_the_monolithic_packed_backend() {
        let (_, quantized, test) = trained();
        let config = EngineConfig::febim_default().with_encoding(Encoding::BitPlane { bits: 4 });
        let crossbar = CrossbarBackend::new(Arc::clone(&quantized), &config).unwrap();
        let fabric =
            TiledFabricBackend::new(quantized, &config, TileShape::new(2, 12).unwrap()).unwrap();
        assert!(fabric.tiled_program().plan().is_multi_tile());
        assert_eq!(fabric.info().columns, 32);
        let mut crossbar_scratch = crossbar.make_scratch();
        let mut fabric_scratch = fabric.make_scratch();
        for index in 0..test.n_samples() {
            let sample = test.sample(index).unwrap();
            let a = crossbar.infer_into(sample, &mut crossbar_scratch).unwrap();
            let b = fabric.infer_into(sample, &mut fabric_scratch).unwrap();
            assert_eq!(a.prediction, b.prediction);
            assert_eq!(a.tie_broken, b.tie_broken);
            assert_eq!(
                crossbar_scratch.wordline_currents(),
                fabric_scratch.wordline_currents()
            );
        }
    }

    /// The grouped packed read path obeys the same bit-identity contract as
    /// the one-hot batch paths, on both physical backends.
    #[test]
    fn packed_batched_inference_is_bit_identical() {
        let (_, quantized, test) = trained();
        let config = EngineConfig::febim_default().with_encoding(Encoding::BitPlane { bits: 4 });
        let batch = batch_of(&test);
        let crossbar = CrossbarBackend::new(Arc::clone(&quantized), &config).unwrap();
        let fabric =
            TiledFabricBackend::new(quantized, &config, TileShape::new(2, 12).unwrap()).unwrap();
        for size in batch_sizes(&batch) {
            assert_batch_matches_sequential(&crossbar, &batch, size);
            assert_batch_matches_sequential(&fabric, &batch, size);
        }
    }

    /// Under read disturb every tier crossing moves the cached currents, so
    /// a grouped read matches sequential reads only if each read of the
    /// group registers its disturb before the next one is read. A tier of
    /// three reads puts crossings inside every batch of the split, one-hot
    /// and bit-plane, on the array and the fabric.
    #[test]
    fn batched_inference_matches_sequential_under_read_disturb() {
        let (_, quantized, test) = trained();
        let batch = batch_of(&test);
        let stack =
            NonIdealityStack::ideal().with_disturb(febim_device::ReadDisturb::new(3, 0.002));
        for encoding in [Encoding::OneHot, Encoding::BitPlane { bits: 4 }] {
            let config = EngineConfig::febim_default()
                .with_encoding(encoding)
                .with_non_idealities(stack);
            let crossbar = CrossbarBackend::new(Arc::clone(&quantized), &config).unwrap();
            let fabric = TiledFabricBackend::new(
                Arc::clone(&quantized),
                &config,
                TileShape::new(2, 12).unwrap(),
            )
            .unwrap();
            let probe = crossbar.clone();
            let mut scratch = probe.make_scratch();
            let epoch = probe.state_epoch();
            for sample in &batch[..3] {
                probe.infer_into(sample, &mut scratch).unwrap();
            }
            assert!(probe.state_epoch() > epoch, "three reads cross a tier");
            for size in batch_sizes(&batch) {
                assert_batch_matches_sequential(&crossbar, &batch, size);
                assert_batch_matches_sequential(&fabric, &batch, size);
            }
        }
    }

    #[test]
    fn empty_batches_are_free() {
        let (model, quantized, _) = trained();
        let config = EngineConfig::febim_default();
        let crossbar = CrossbarBackend::new(quantized, &config).unwrap();
        let software = SoftwareBackend::new(model);
        for (telemetry, amortized) in [
            (
                {
                    let mut scratch = crossbar.make_scratch();
                    let mut steps = vec![InferenceStep {
                        prediction: 9,
                        delay: DelayBreakdown {
                            array: 1.0,
                            sensing: 1.0,
                        },
                        energy: InferenceEnergy {
                            array: 1.0,
                            sensing: 1.0,
                        },
                        tie_broken: false,
                    }];
                    let telemetry = crossbar
                        .infer_batch_into(&[], &mut scratch, &mut steps)
                        .unwrap();
                    assert!(steps.is_empty(), "steps must be cleared");
                    telemetry
                },
                true,
            ),
            (
                {
                    let mut scratch = software.make_scratch();
                    let mut steps = Vec::new();
                    software
                        .infer_batch_into(&[], &mut scratch, &mut steps)
                        .unwrap()
                },
                false,
            ),
        ] {
            assert_eq!(telemetry.reads, 0);
            assert_eq!(telemetry.delay.total(), 0.0);
            assert_eq!(telemetry.energy.total(), 0.0);
            assert_eq!(telemetry.amortized, amortized);
            assert_eq!(telemetry.delay_ratio(), 1.0);
            assert_eq!(telemetry.energy_ratio(), 1.0);
        }
    }

    #[test]
    fn stateless_backend_time_surface_is_inert() {
        let (model, _, _) = trained();
        let mut software = SoftwareBackend::new(model);
        assert_eq!(software.clock(), 0);
        assert_eq!(software.state_epoch(), 0);
        assert_eq!(software.worst_effective_shift(), 0.0);
        software.advance_time(1_000_000);
        assert_eq!(software.clock(), 0);
        let outcome = software.recalibrate(0.0).unwrap();
        assert_eq!(outcome, RefreshOutcome::default());
    }

    /// Aging drifts both physical backends off their programmed state and a
    /// recalibration pass restores the freshly programmed current map bit
    /// for bit, on the monolithic array and the tiled grid alike.
    #[test]
    fn physical_backends_age_and_recalibrate() {
        let (_, quantized, test) = trained();
        let stack = NonIdealityStack::ideal()
            .with_drift(febim_device::RetentionDrift::new(0.04, 50))
            .with_disturb(febim_device::ReadDisturb::new(64, 0.002));
        let config = EngineConfig::febim_default().with_non_idealities(stack);
        let crossbar = CrossbarBackend::new(Arc::clone(&quantized), &config).unwrap();
        let fabric = TiledFabricBackend::new(
            Arc::clone(&quantized),
            &config,
            TileShape::new(2, 24).unwrap(),
        )
        .unwrap();
        let sample = test.sample(0).unwrap().to_vec();
        for mut backend in [
            Box::new(crossbar) as Box<dyn InferenceBackend>,
            Box::new(fabric) as Box<dyn InferenceBackend>,
        ] {
            let mut fresh = Vec::new();
            backend.current_map_into(&mut fresh).unwrap();
            let epoch = backend.state_epoch();
            assert_eq!(backend.worst_effective_shift(), 0.0);

            backend.advance_time(5_000);
            assert_eq!(backend.clock(), 5_000);
            assert!(backend.state_epoch() > epoch, "aging must bump the epoch");
            assert!(backend.worst_effective_shift() > 0.0);
            let mut aged = Vec::new();
            backend.current_map_into(&mut aged).unwrap();
            assert_ne!(fresh, aged, "drift must move the read currents");
            // Reads keep flowing against the aged state.
            let mut scratch = backend.make_scratch();
            backend.infer_into(&sample, &mut scratch).unwrap();

            let outcome = backend.recalibrate(1e-6).unwrap();
            assert!(outcome.cells_refreshed > 0);
            assert!(outcome.rows_refreshed > 0);
            assert_eq!(backend.worst_effective_shift(), 0.0);
            let mut restored = Vec::new();
            backend.current_map_into(&mut restored).unwrap();
            assert_eq!(fresh, restored, "recalibration must restore bit-exact");

            // Nothing drifted ⇒ a second pass finds no work.
            let idle = backend.recalibrate(1e-6).unwrap();
            assert_eq!(idle.cells_refreshed, 0);
            assert_eq!(idle.pulses_applied, 0);
        }
    }

    /// The chaos surface end to end on both physical backends: scheduled
    /// faults strike as the clock advances past their tick, a scrub pass
    /// detects every defect, heals the transients in place, and — on the
    /// tiled fabric with spare rows — remaps the permanent defect onto a
    /// spare so the restored current map is bit-identical to fresh.
    #[test]
    fn scheduled_faults_strike_on_advance_and_scrub_heals() {
        use febim_crossbar::{FaultKind, ScheduledFault};
        let (_, quantized, _) = trained();
        let config = EngineConfig::febim_default();
        let crossbar = CrossbarBackend::new(Arc::clone(&quantized), &config).unwrap();
        let fabric = TiledFabricBackend::new(
            Arc::clone(&quantized),
            &config,
            TileShape::new(2, 24).unwrap().with_spare_rows(1),
        )
        .unwrap();
        let schedule = || {
            FaultSchedule::new(vec![
                ScheduledFault {
                    at_tick: 10,
                    row: 0,
                    column: 0,
                    kind: FaultKind::StuckErased,
                    permanent: false,
                },
                ScheduledFault {
                    at_tick: 20,
                    row: 1,
                    column: 5,
                    kind: FaultKind::StuckErased,
                    permanent: true,
                },
            ])
        };
        for (mut backend, has_spares) in [
            (Box::new(crossbar) as Box<dyn InferenceBackend>, false),
            (Box::new(fabric) as Box<dyn InferenceBackend>, true),
        ] {
            let mut fresh = Vec::new();
            backend.current_map_into(&mut fresh).unwrap();
            assert_eq!(backend.pending_faults(), 0);
            backend.set_fault_schedule(schedule());
            assert_eq!(backend.pending_faults(), 2);

            // Nothing strikes before its tick.
            backend.advance_time(9);
            assert_eq!(backend.pending_faults(), 2);
            let mut map = Vec::new();
            backend.current_map_into(&mut map).unwrap();
            assert_eq!(fresh, map, "no fault may strike before its tick");

            // The transient strikes at tick 10, the permanent at tick 20.
            backend.advance_time(6);
            assert_eq!(backend.pending_faults(), 1);
            backend.advance_time(10);
            assert_eq!(backend.pending_faults(), 0);
            backend.current_map_into(&mut map).unwrap();
            assert_ne!(fresh, map, "struck faults must corrupt the reads");

            let outcome = backend.scrub(1e-6).unwrap();
            assert_eq!(outcome.reports.len(), 2, "scrub must find both defects");
            if has_spares {
                // Transient healed in place + stuck cell healed by remap.
                assert_eq!(outcome.cells_repaired, 2);
                assert!(outcome.fully_repaired());
                assert_eq!(outcome.rows_remapped, 1);
                assert_eq!(outcome.stuck_cells, 0);
                backend.current_map_into(&mut map).unwrap();
                assert_eq!(fresh, map, "spare-row repair must restore bit-exact");
            } else {
                // Only the transient heals; the stuck cell has no spare.
                assert_eq!(outcome.cells_repaired, 1);
                assert!(!outcome.fully_repaired());
                assert_eq!(outcome.stuck_cells, 1);
                assert_eq!(outcome.unrepaired().count(), 1);
            }
            assert!(outcome.pulses_applied > 0);

            // A follow-up pass finds nothing new to repair.
            let idle = backend.scrub(1e-6).unwrap();
            assert_eq!(idle.cells_repaired, 0);
            assert_eq!(idle.rows_remapped, 0);
        }
    }

    /// Spare-row repair composes with bit-plane packing: after a permanent
    /// stuck fault strikes a packed fabric and a scrub remaps the row onto a
    /// spare, packed reads are again bit-identical to a pristine monolithic
    /// packed backend.
    #[test]
    fn packed_fabric_reads_survive_faults_and_scrub() {
        use febim_crossbar::{FaultKind, ScheduledFault};
        let (_, quantized, test) = trained();
        let config = EngineConfig::febim_default().with_encoding(Encoding::BitPlane { bits: 4 });
        let pristine = CrossbarBackend::new(Arc::clone(&quantized), &config).unwrap();
        // Strike a cell that actually stores a nonzero packed value, so the
        // stuck-erased fault is observable and forces a remap.
        let column = (0..pristine.program().layout().columns())
            .find(|&column| pristine.program().levels()[1][column].unwrap_or(0) != 0)
            .expect("a programmed packed cell");
        let mut fabric = TiledFabricBackend::new(
            quantized,
            &config,
            TileShape::new(2, 12).unwrap().with_spare_rows(1),
        )
        .unwrap();
        fabric.set_fault_schedule(FaultSchedule::new(vec![ScheduledFault {
            at_tick: 5,
            row: 1,
            column,
            kind: FaultKind::StuckErased,
            permanent: true,
        }]));
        fabric.advance_time(10);
        let outcome = fabric.scrub(1e-6).unwrap();
        assert!(outcome.fully_repaired());
        assert_eq!(outcome.rows_remapped, 1);
        let mut pristine_scratch = pristine.make_scratch();
        let mut fabric_scratch = fabric.make_scratch();
        for index in 0..test.n_samples() {
            let sample = test.sample(index).unwrap();
            let a = pristine.infer_into(sample, &mut pristine_scratch).unwrap();
            let b = fabric.infer_into(sample, &mut fabric_scratch).unwrap();
            assert_eq!(a.prediction, b.prediction);
            assert_eq!(
                pristine_scratch.wordline_currents(),
                fabric_scratch.wordline_currents()
            );
        }
    }

    /// The software backend's self-healing surface is inert.
    #[test]
    fn stateless_backend_fault_surface_is_inert() {
        let (model, _, _) = trained();
        let mut software = SoftwareBackend::new(model);
        software.set_fault_schedule(FaultSchedule::empty());
        assert_eq!(software.pending_faults(), 0);
        let outcome = software.scrub(0.0).unwrap();
        assert!(outcome.is_clean());
        assert!(outcome.fully_repaired());
    }

    #[test]
    fn fabric_tie_path_matches_the_crossbar_tie_path() {
        // Force an exact tie by scoring a two-class model whose rows are
        // programmed identically.
        let dataset = febim_data::Dataset::new(
            "tie",
            vec!["x".to_string()],
            2,
            vec![vec![0.0], vec![1.0], vec![0.0], vec![1.0]],
            vec![0, 0, 1, 1],
        )
        .unwrap();
        let model = GaussianNaiveBayes::fit(&dataset).unwrap();
        let quantized =
            Arc::new(QuantizedGnbc::quantize(&model, &dataset, QuantConfig::new(2, 2)).unwrap());
        let config = EngineConfig::febim_default();
        let crossbar = CrossbarBackend::new(Arc::clone(&quantized), &config).unwrap();
        let fabric =
            TiledFabricBackend::new(quantized, &config, TileShape::new(1, 2).unwrap()).unwrap();
        let mut a_scratch = crossbar.make_scratch();
        let mut b_scratch = fabric.make_scratch();
        let a = crossbar.infer_into(&[0.5], &mut a_scratch).unwrap();
        let b = fabric.infer_into(&[0.5], &mut b_scratch).unwrap();
        assert_eq!(a.prediction, b.prediction);
        assert_eq!(a.tie_broken, b.tie_broken);
    }

    /// The tile geometry of one read, computed from the plan alone: the
    /// activated columns counted per tile column, repeated down every tile
    /// row.
    fn plan_tiles(plan: &TilePlan, activation: &Activation) -> Vec<TileGeometry> {
        let mut counts = vec![0; plan.col_tiles()];
        for &column in activation.active_columns() {
            counts[column / plan.shape().columns] += 1;
        }
        let mut tiles = Vec::new();
        for tile_row in 0..plan.row_tiles() {
            for (tile_col, &activated_columns) in counts.iter().enumerate() {
                let (rows, columns) = plan.tile_dims(tile_row, tile_col).unwrap();
                tiles.push(TileGeometry {
                    rows,
                    columns,
                    activated_columns,
                });
            }
        }
        tiles
    }

    /// The circuit's composite reads price an engine read exactly as the
    /// backend does: handed the read's currents (or plane partial sums) and
    /// its tile geometry, each returns the read's winner, delay and energy.
    /// Tie-broken reads are skipped, since a composite reports the tie.
    #[test]
    fn circuit_composites_reprice_engine_reads_exactly() {
        let (_, quantized, test) = trained();
        let one_hot = EngineConfig::febim_default();
        let packed = one_hot
            .clone()
            .with_encoding(Encoding::BitPlane { bits: 4 });
        let crossbar = CrossbarBackend::new(Arc::clone(&quantized), &one_hot).unwrap();
        let fabric = TiledFabricBackend::new(
            Arc::clone(&quantized),
            &one_hot,
            TileShape::new(2, 24).unwrap(),
        )
        .unwrap();
        let packed_fabric =
            TiledFabricBackend::new(quantized, &packed, TileShape::new(2, 12).unwrap()).unwrap();
        let digit_bits = packed.quant.likelihood_bits;
        let planes = packed.encoding.planes(digit_bits);
        let cell_bits = packed.encoding.digits_per_cell(digit_bits) * digit_bits as usize;
        let lsb = febim_device::programming::DEFAULT_MIN_READ_CURRENT;
        let (mut mirrored, mut merged) = (Vec::new(), Vec::new());
        let mut compared = [0usize; 3];
        let mut scratches = [
            crossbar.make_scratch(),
            fabric.make_scratch(),
            packed_fabric.make_scratch(),
        ];
        for index in 0..test.n_samples() {
            let sample = test.sample(index).unwrap();
            let [array, grid, plane] = &mut scratches;
            let step = crossbar.infer_into(sample, array).unwrap();
            if !step.tie_broken {
                let activated = array.activations[0].len();
                let readout = crossbar
                    .sensing()
                    .sense_into(array.wordline_currents(), activated, &mut mirrored)
                    .unwrap();
                assert_eq!(
                    (readout.winner, readout.delay, readout.energy),
                    (step.prediction, step.delay, step.energy)
                );
                compared[0] += 1;
            }
            let step = fabric.infer_into(sample, grid).unwrap();
            if !step.tie_broken {
                let plan = fabric.tiled_program().plan();
                let tiles = plan_tiles(plan, &grid.activations[0]);
                let readout = fabric
                    .sensing()
                    .sense_fabric_into(
                        grid.wordline_currents(),
                        &tiles,
                        plan.col_tiles(),
                        &mut mirrored,
                    )
                    .unwrap();
                assert_eq!(
                    (readout.winner, readout.delay, readout.energy),
                    (step.prediction, step.delay, step.energy)
                );
                compared[1] += 1;
            }
            let step = packed_fabric.infer_into(sample, plane).unwrap();
            if !step.tie_broken {
                let plan = packed_fabric.tiled_program().plan();
                let tiles = plan_tiles(plan, &plane.activations[0]);
                let readout = packed_fabric
                    .sensing()
                    .sense_shift_add_fabric_into(
                        &plane.kernel_out,
                        planes,
                        cell_bits,
                        lsb,
                        0.0,
                        &tiles,
                        plan.col_tiles(),
                        &mut merged,
                        &mut mirrored,
                    )
                    .unwrap();
                assert_eq!(merged, plane.wordline_currents());
                assert_eq!(
                    (readout.winner, readout.delay, readout.energy),
                    (step.prediction, step.delay, step.energy)
                );
                compared[2] += 1;
            }
        }
        assert!(compared.iter().all(|&reads| reads > 0), "{compared:?}");
    }
}
