//! Engine-layer attribution by replay.
//!
//! The benchmark cannot put spans inside `infer_into`, so the traced run
//! replays a sample of the workload's inputs through the public layer calls
//! the engine makes, in its order: discretize, activation fill, read kernel
//! and sensing. Sensing contains the WTA, which is timed again on its own
//! and not added into the sum. One span covers a layer's calls for a whole
//! batch, so the clock's own cost stays small beside calls of a few
//! nanoseconds; a batch of one follows `infer_into`. The engine's own calls
//! on the same inputs are timed beside the replay, and every replayed
//! prediction must match the engine's, so the replay provably walks the
//! engine's path.

use std::hint::black_box;

use febim_circuit::{TileGeometry, WtaCircuit};
use febim_core::{
    CrossbarBackend, EvalScratch, FebimEngine, InferenceBackend, InferenceStep, TiledFabricBackend,
};
use febim_crossbar::{Activation, CrossbarLayout, LevelLadder, TilePlan};
use febim_device::programming::{DEFAULT_MAX_READ_CURRENT, DEFAULT_MIN_READ_CURRENT};
use febim_quant::encoding::bit_offset_of;
use febim_quant::QuantizedGnbc;

use crate::common::Metrics;
use crate::stats::median;
use crate::trace::{Probe, SpanId, Tracer, ROOT};

/// Span names of the engine layers summed against the engine's own call.
const ENGINE_LAYERS: [&str; 7] = [
    "quant.discretize",
    "crossbar.activation",
    "crossbar.array_read",
    "crossbar.grid_read",
    "crossbar.plane_read",
    "circuit.sense",
    "circuit.shift_add",
];

/// One read path a workload runs, with its replay spans.
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    /// Parent span of the layer-by-layer replay.
    replay: &'static str,
    /// Parent span of the engine's own calls.
    engine: &'static str,
    /// Reads per replayed engine call.
    batch: usize,
}

/// Monolithic one-hot array, read in batches of `batch`.
pub const fn array(batch: usize) -> Kind {
    Kind {
        replay: "replay.array",
        engine: "engine.array",
        batch,
    }
}

/// Tiled one-hot fabric, read in batches of `batch`.
pub const fn grid(batch: usize) -> Kind {
    Kind {
        replay: "replay.grid",
        engine: "engine.grid",
        batch,
    }
}

/// Tiled bit-plane fabric, read one sample at a time.
pub const PACKED: Kind = Kind {
    replay: "replay.packed",
    engine: "engine.packed",
    batch: 1,
};

/// Reusable buffers of the replay.
#[derive(Debug, Default)]
pub struct Replayer {
    evidence: Vec<Vec<usize>>,
    activations: Vec<Activation>,
    /// Wordline currents of every read of a batch, read after read.
    currents: Vec<f64>,
    mirrored: Vec<f64>,
    merged: Vec<f64>,
    /// Tile geometries of every read of a batch, read after read.
    tiles: Vec<TileGeometry>,
    tile_counts: Vec<usize>,
    packed_evidence: Vec<usize>,
    bit_offsets: Vec<u8>,
    plane_sums: Vec<f64>,
    level_scratch: Vec<usize>,
    winners: Vec<usize>,
    /// One warmed scratch per engine, keyed by the engine's address.
    scratches: Vec<(usize, EvalScratch)>,
    steps: Vec<InferenceStep>,
    /// Replayed reads whose prediction differed from the engine's.
    pub mismatches: u64,
    /// Replayed reads.
    pub reads: u64,
}

/// Index of the first largest value: the engine's tie-break.
fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (index, value) in values.iter().enumerate() {
        if *value > values[best] {
            best = index;
        }
    }
    best
}

/// Appends one read's tile geometries, computed the way the fabric backend
/// does.
fn push_tiles(
    plan: &TilePlan,
    activation: &Activation,
    tiles: &mut Vec<TileGeometry>,
    counts: &mut Vec<usize>,
) {
    counts.clear();
    counts.resize(plan.col_tiles(), 0);
    let width = plan.shape().columns;
    for &column in activation.active_columns() {
        counts[column / width] += 1;
    }
    for tile_row in 0..plan.row_tiles() {
        for (tile_col, &activated_columns) in counts.iter().enumerate() {
            let (rows, columns) = plan.tile_dims(tile_row, tile_col).expect("tile in plan");
            tiles.push(TileGeometry {
                rows,
                columns,
                activated_columns,
            });
        }
    }
}

impl Replayer {
    /// Discretizes every sample of the batch, then fills one activation per
    /// sample: one span per layer for the whole batch.
    fn discretize_and_fill(
        &mut self,
        quantized: &QuantizedGnbc,
        layout: &CrossbarLayout,
        batch: &[Vec<f64>],
        tracer: &mut Tracer,
        parent: SpanId,
        request: u64,
    ) {
        if self.evidence.len() < batch.len() {
            self.evidence.resize(batch.len(), Vec::new());
        }
        if self.activations.len() < batch.len() {
            self.activations
                .resize(batch.len(), Activation::empty(layout));
        }
        let span = tracer.open("quant.discretize", parent, request);
        for (sample, evidence) in batch.iter().zip(&mut self.evidence) {
            quantized
                .discretize_sample_into(sample, evidence)
                .expect("sample has the model's features");
        }
        tracer.close(span);
        let span = tracer.open("crossbar.activation", parent, request);
        for (evidence, activation) in self
            .evidence
            .iter()
            .zip(&mut self.activations[..batch.len()])
        {
            activation
                .set_observation(layout, evidence)
                .expect("evidence fits the layout");
        }
        tracer.close(span);
    }

    /// Times `WtaCircuit::resolve` on its own over the currents of every
    /// read of the batch, `rows` currents per read.
    fn wta(
        &self,
        wta: &WtaCircuit,
        currents: &[f64],
        rows: usize,
        tracer: &mut Tracer,
        parent: SpanId,
        request: u64,
    ) {
        let span = tracer.open("circuit.wta", parent, request);
        for read in currents.chunks(rows) {
            let _ = black_box(wta.resolve(black_box(read)));
        }
        tracer.close(span);
    }

    /// Counts replayed winners that differ from the engine's predictions.
    fn check(&mut self, expected: &[usize]) {
        self.reads += expected.len() as u64;
        self.mismatches += self
            .winners
            .iter()
            .zip(expected)
            .filter(|(winner, want)| winner != want)
            .count() as u64;
    }

    /// Times the engine's own calls on the same inputs: one
    /// `infer_batch_into` over the batch, then `infer_into` per sample.
    /// Each engine keeps its own scratch, warmed by an untimed call first.
    /// Returns the batch's predictions.
    fn engine_calls<B: InferenceBackend>(
        &mut self,
        engine: &FebimEngine<B>,
        kind: Kind,
        batch: &[Vec<f64>],
        tracer: &mut Tracer,
        request: u64,
    ) -> Vec<usize> {
        let key = engine as *const FebimEngine<B> as usize;
        let slot = match self.scratches.iter().position(|(owner, _)| *owner == key) {
            Some(slot) => slot,
            None => {
                let mut scratch = engine.make_scratch();
                engine
                    .infer_batch_into(batch, &mut scratch, &mut self.steps)
                    .expect("batched inference");
                self.scratches.push((key, scratch));
                self.scratches.len() - 1
            }
        };
        let scratch = &mut self.scratches[slot].1;
        let parent = tracer.open(kind.engine, ROOT, request);
        let span = tracer.open("core.infer_batch", parent, request);
        engine
            .infer_batch_into(batch, scratch, &mut self.steps)
            .expect("batched inference");
        tracer.close(span);
        for (index, sample) in batch.iter().enumerate() {
            let span = tracer.open("core.infer", parent, request + index as u64);
            black_box(engine.infer_into(sample, scratch).expect("inference"));
            tracer.close(span);
        }
        tracer.close(parent);
        self.steps.iter().map(|step| step.prediction).collect()
    }

    /// Replays one batch through the monolithic array's layers in
    /// `infer_batch_into` order (a batch of one in `infer_into` order).
    pub fn array_batch(
        &mut self,
        engine: &FebimEngine<CrossbarBackend>,
        batch: &[Vec<f64>],
        tracer: &mut Tracer,
        request: u64,
    ) {
        let kind = array(batch.len());
        let expected = self.engine_calls(engine, kind, batch, tracer, request);
        let array = engine.array();
        let rows = array.layout().rows();
        let parent = tracer.open(kind.replay, ROOT, request);
        self.discretize_and_fill(
            engine.quantized(),
            array.layout(),
            batch,
            tracer,
            parent,
            request,
        );
        let activations = &self.activations[..batch.len()];
        let span = tracer.open("crossbar.array_read", parent, request);
        match activations {
            // The engine's singleton fall-through reads one activation.
            [one] => array.wordline_currents_into(one, &mut self.currents),
            all => array.wordline_currents_batch_into(all, &mut self.currents),
        }
        .expect("array read");
        tracer.close(span);
        let span = tracer.open("circuit.sense", parent, request);
        self.winners.clear();
        for (currents, activation) in self.currents.chunks(rows).zip(activations) {
            let readout =
                engine
                    .sensing()
                    .sense_into(currents, activation.len(), &mut self.mirrored);
            self.winners
                .push(readout.map_or_else(|_| argmax(currents), |readout| readout.winner));
        }
        tracer.close(span);
        self.wta(
            engine.sensing().wta(),
            &self.currents,
            rows,
            tracer,
            parent,
            request,
        );
        tracer.close(parent);
        self.check(&expected);
    }

    /// Replays one batch through the tiled fabric's one-hot layers in
    /// `infer_batch_into` order (a batch of one in `infer_into` order).
    pub fn grid_batch(
        &mut self,
        engine: &FebimEngine<TiledFabricBackend>,
        batch: &[Vec<f64>],
        tracer: &mut Tracer,
        request: u64,
    ) {
        let kind = grid(batch.len());
        let expected = self.engine_calls(engine, kind, batch, tracer, request);
        let grid = engine.grid();
        let plan = engine.tiled_program().plan();
        let rows = grid.layout().rows();
        let parent = tracer.open(kind.replay, ROOT, request);
        self.discretize_and_fill(
            engine.quantized(),
            grid.layout(),
            batch,
            tracer,
            parent,
            request,
        );
        let activations = &self.activations[..batch.len()];
        let span = tracer.open("crossbar.grid_read", parent, request);
        match activations {
            // The engine's singleton fall-through reads one activation.
            [one] => grid.wordline_currents_into(one, &mut self.currents),
            all => grid.wordline_currents_batch_into(all, &mut self.currents),
        }
        .expect("grid read");
        tracer.close(span);
        self.tiles.clear();
        for activation in activations {
            push_tiles(plan, activation, &mut self.tiles, &mut self.tile_counts);
        }
        let span = tracer.open("circuit.sense", parent, request);
        self.winners.clear();
        let tiles = self.tiles.chunks(plan.tile_count());
        for (currents, tiles) in self.currents.chunks(rows).zip(tiles) {
            let readout = engine.sensing().sense_fabric_into(
                currents,
                tiles,
                plan.col_tiles(),
                &mut self.mirrored,
            );
            self.winners
                .push(readout.map_or_else(|_| argmax(currents), |readout| readout.winner));
        }
        tracer.close(span);
        self.wta(
            engine.sensing().wta(),
            &self.currents,
            rows,
            tracer,
            parent,
            request,
        );
        tracer.close(parent);
        self.check(&expected);
    }

    /// Replays one sample through a tiled engine's layers in `infer_into`
    /// order, one-hot or bit-plane as the engine is compiled.
    pub fn grid_single(
        &mut self,
        engine: &FebimEngine<TiledFabricBackend>,
        sample: &[f64],
        tracer: &mut Tracer,
        request: u64,
    ) {
        let config = engine.config();
        let batch = vec![sample.to_vec()];
        if !config.encoding.is_packed() {
            self.grid_batch(engine, &batch, tracer, request);
            return;
        }
        let expected = self.engine_calls(engine, PACKED, &batch, tracer, request);
        let digit_bits = config.quant.likelihood_bits;
        let digits_per_cell = config.encoding.digits_per_cell(digit_bits);
        let planes = config.encoding.planes(digit_bits);
        let ladder = LevelLadder::new(
            DEFAULT_MIN_READ_CURRENT,
            DEFAULT_MAX_READ_CURRENT,
            engine.tiled_program().state_count(),
        )
        .expect("ladder of a compiled program");
        let layout = engine.grid().layout();
        let plan = engine.tiled_program().plan();
        if self.evidence.is_empty() {
            self.evidence.push(Vec::new());
        }
        if self.activations.is_empty() {
            self.activations.push(Activation::empty(layout));
        }
        let parent = tracer.open(PACKED.replay, ROOT, request);
        let span = tracer.open("quant.discretize", parent, request);
        engine
            .quantized()
            .discretize_sample_into(sample, &mut self.evidence[0])
            .expect("sample has the model's features");
        tracer.close(span);
        // Map bins onto packed columns the way the backend does (not a
        // public layer: its cost lands in the unattributed share).
        self.packed_evidence.clear();
        self.bit_offsets.clear();
        if layout.has_prior() {
            self.bit_offsets.push(0);
        }
        for &bin in &self.evidence[0] {
            self.packed_evidence.push(bin / digits_per_cell);
            self.bit_offsets
                .push(bit_offset_of(bin, digits_per_cell, digit_bits) as u8);
        }
        let span = tracer.open("crossbar.activation", parent, request);
        self.activations[0]
            .set_observation(layout, &self.packed_evidence)
            .expect("packed evidence fits the layout");
        tracer.close(span);
        let span = tracer.open("crossbar.plane_read", parent, request);
        engine
            .grid()
            .plane_partial_sums_into(
                &self.activations[0],
                &self.bit_offsets,
                planes,
                &ladder,
                &mut self.level_scratch,
                &mut self.plane_sums,
            )
            .expect("plane read");
        tracer.close(span);
        self.tiles.clear();
        push_tiles(
            plan,
            &self.activations[0],
            &mut self.tiles,
            &mut self.tile_counts,
        );
        let span = tracer.open("circuit.shift_add", parent, request);
        let readout = engine.sensing().sense_shift_add_fabric_into(
            &self.plane_sums,
            planes,
            digits_per_cell * digit_bits as usize,
            DEFAULT_MIN_READ_CURRENT,
            0.0,
            &self.tiles,
            plan.col_tiles(),
            &mut self.merged,
            &mut self.mirrored,
        );
        tracer.close(span);
        self.winners.clear();
        self.winners
            .push(readout.map_or_else(|_| argmax(&self.merged), |readout| readout.winner));
        let rows = layout.rows();
        self.wta(
            engine.sensing().wta(),
            &self.merged,
            rows,
            tracer,
            parent,
            request,
        );
        tracer.close(parent);
        self.check(&expected);
    }
}

/// Median per read of `child` under `kind`'s parent span, if recorded.
fn per_read(tracer: &Tracer, parent: &str, child: &str, divisor: usize) -> Option<f64> {
    let mut durations = tracer.child_durations(parent, child);
    (!durations.is_empty()).then(|| median(&mut durations) / divisor as f64)
}

/// Share-weighted mean of `value` over the read paths that have it.
fn weighted(kinds: &[(Kind, f64)], value: impl Fn(Kind) -> Option<f64>) -> Option<f64> {
    let (mut sum, mut weight) = (0.0, 0.0);
    for &(kind, share) in kinds {
        if let Some(value) = value(kind) {
            sum += share * value;
            weight += share;
        }
    }
    (weight > 0.0).then(|| sum / weight)
}

/// Writes the engine-layer metrics from the replay spans. `kinds` are the
/// read paths the workload ran, each with its share of the workload's
/// inferences; a layer's figure is the share-weighted mean over the paths
/// that have it, and a layer no path has stays 0.
pub fn report(tracer: &Tracer, kinds: &[(Kind, f64)], metrics: &mut Metrics) {
    // Every replay span covers one batch of reads.
    let layers = [
        ("quant.discretize_ns", "quant.discretize"),
        ("crossbar.activation_ns", "crossbar.activation"),
        ("crossbar.array_read_ns", "crossbar.array_read"),
        ("crossbar.grid_read_ns", "crossbar.grid_read"),
        ("crossbar.plane_read_ns", "crossbar.plane_read"),
        ("circuit.sense_ns", "circuit.sense"),
        ("circuit.shift_add_ns", "circuit.shift_add"),
        ("circuit.wta_ns", "circuit.wta"),
    ];
    for (metric, span) in layers {
        if let Some(value) = weighted(kinds, |kind| {
            per_read(tracer, kind.replay, span, kind.batch)
        }) {
            metrics.set(metric, value);
        }
    }
    let single = |kind: Kind| per_read(tracer, kind.engine, "core.infer", 1);
    let batch = |kind: Kind| per_read(tracer, kind.engine, "core.infer_batch", kind.batch);
    if let Some(value) = weighted(kinds, single) {
        metrics.set("core.infer_ns", value);
    }
    if let Some(value) = weighted(kinds, batch) {
        metrics.set("core.infer_batch_ns", value);
    }
    // Layer sum against the engine call the workload makes.
    let layer_ns = weighted(kinds, |kind| {
        let mut sums = tracer.child_sums(kind.replay, &ENGINE_LAYERS);
        (!sums.is_empty()).then(|| median(&mut sums) / kind.batch as f64)
    });
    let engine_ns = weighted(kinds, |kind| {
        if kind.batch > 1 {
            batch(kind)
        } else {
            single(kind)
        }
    });
    if let (Some(layer_ns), Some(engine_ns)) = (layer_ns, engine_ns) {
        metrics.set("core.unattributed_frac", 1.0 - layer_ns / engine_ns);
    }
}
