//! Multi-tenant model registry: compiled/tiled programs registered under
//! model ids, placed onto a fleet of tile-grid banks by a capacity-aware
//! placer, and served with per-request model routing.
//!
//! Each bank is a one-worker [`ServingPool`] hosting its own
//! [`TileGrid`]-backed engines (one per resident tenant), budgeted in
//! *tiles*; each request goes to the bank hosting its model. Registering a
//! model compiles and programs it; when a bank runs out of tiles the
//! least-recently-served tenants are evicted and the freed tiles hot-swap
//! reprogrammed in place — the erase and programming pulse trains are
//! priced through the Preisach programmer, and the swap runs strictly
//! between batches on the target bank only, so other tenants never stall.
//! Every tenant is a slot in its bank's serving loop, so the
//! [`ServingConfig`] recalibration and scrub policies of
//! [`RegistryConfig::with_serving`] age, refresh and repair each tenant on
//! its own schedule, and a tenant quarantined by an unrepairable fault
//! answers through its exact software twin; an evicted tenant's
//! maintenance report stays counted in its bank's statistics. Evicted
//! models stay in the registry's catalog and fault back in transparently on
//! their next request; the fault-in rebuilds the engine with the registry
//! lock released, so other tenants' requests do not wait behind the build.
//! [`ModelRegistry::snapshot`] writes what training produced and how the
//! tenant is deployed (the per-class Gaussians, the feature ranges, the
//! engine configuration and the tile shape) as JSON;
//! [`ModelRegistry::restore`] rebuilds the quantized tables and the tiled
//! program from those through the constructors the fit path uses, so a model
//! reloads from bytes without its training data and no derived state is
//! taken on trust.
//!
//! [`TileGrid`]: febim_crossbar::TileGrid

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use serde::{json, Deserialize, Serialize};

use febim_bayes::{ClassGaussians, GaussianNaiveBayes};
use febim_crossbar::TileShape;
use febim_data::Dataset;
use febim_device::LevelProgrammer;
use febim_quant::{FeatureDiscretizer, QuantizedGnbc};

use crate::backend::{TiledFabricBackend, MAX_CELLS};
use crate::compiler::TiledProgram;
use crate::config::EngineConfig;
use crate::engine::FebimEngine;
use crate::errors::CoreError;
use crate::serving::{
    PoolStats, ServeOutcome, ServingConfig, ServingError, ServingPool, SwapQueue, SwapReport,
    SwapTicket, Ticket,
};

/// Requests that race a concurrent eviction of their model retry the
/// fault-in this many times before giving up.
const FAULT_IN_ATTEMPTS: usize = 4;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed errors of the model registry.
#[derive(Debug)]
pub enum RegistryError {
    /// The model id is not in the catalog.
    UnknownModel {
        /// The unknown id.
        model: u64,
    },
    /// The model id is already registered.
    DuplicateModel {
        /// The duplicated id.
        model: u64,
    },
    /// The program needs more tiles than one bank's entire budget.
    Capacity {
        /// Tiles the program needs.
        tiles: usize,
        /// Tiles one bank offers.
        budget: usize,
    },
    /// A configuration field failed validation.
    InvalidConfig {
        /// The offending field.
        name: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// The serving pool reported a typed error.
    Serving(ServingError),
    /// Building or programming an engine failed.
    Core(CoreError),
    /// A snapshot could not be decoded, or describes a model past the
    /// table-size cap.
    Snapshot(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownModel { model } => {
                write!(f, "model {model} is not registered")
            }
            Self::DuplicateModel { model } => {
                write!(f, "model {model} is already registered")
            }
            Self::Capacity { tiles, budget } => write!(
                f,
                "program needs {tiles} tiles but a bank holds at most {budget}"
            ),
            Self::InvalidConfig { name, reason } => {
                write!(f, "invalid registry config `{name}`: {reason}")
            }
            Self::Serving(err) => write!(f, "serving failed: {err}"),
            Self::Core(err) => write!(f, "engine build failed: {err}"),
            Self::Snapshot(reason) => write!(f, "snapshot failed: {reason}"),
        }
    }
}

impl Error for RegistryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Serving(err) => Some(err),
            Self::Core(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ServingError> for RegistryError {
    fn from(err: ServingError) -> Self {
        Self::Serving(err)
    }
}

impl From<CoreError> for RegistryError {
    fn from(err: CoreError) -> Self {
        Self::Core(err)
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of a [`ModelRegistry`]: the bank fleet and its serving
/// knobs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RegistryConfig {
    /// Banks, each a one-worker pool hosting its own tile grids.
    pub banks: usize,
    /// Tile budget of one bank; a tenant's tiled program must fit within
    /// it, and residents beyond it are evicted least-recently-served first.
    pub tiles_per_bank: usize,
    /// Serving configuration of every bank; each bank admits
    /// `queue_depth.div_ceil(banks)` of its queue depth.
    pub serving: ServingConfig,
}

impl RegistryConfig {
    /// A registry of `banks` banks holding `tiles_per_bank` tiles each,
    /// with default serving knobs.
    pub fn new(banks: usize, tiles_per_bank: usize) -> Self {
        Self {
            banks,
            tiles_per_bank,
            serving: ServingConfig::default(),
        }
    }

    /// Replaces the serving configuration.
    #[must_use]
    pub fn with_serving(mut self, serving: ServingConfig) -> Self {
        self.serving = serving;
        self
    }

    /// Validates the registry-specific fields (the serving fields validate
    /// when the pool is built).
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), RegistryError> {
        if self.banks == 0 {
            return Err(RegistryError::InvalidConfig {
                name: "banks",
                reason: "at least one bank is required".to_string(),
            });
        }
        if self.tiles_per_bank == 0 {
            return Err(RegistryError::InvalidConfig {
                name: "tiles_per_bank",
                reason: "a bank must hold at least one tile".to_string(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Catalog and placement state
// ---------------------------------------------------------------------------

/// Everything needed to rebuild a tenant's engine without its training
/// data: the trained model, the quantized tables, the engine configuration,
/// the tiled program compiled from them and the level programmer that
/// programs it (a fault-in clones both rather than recompiling the program
/// and re-deriving the programmer's level table, which clones share).
struct StoredModel {
    config: EngineConfig,
    model: Arc<GaussianNaiveBayes>,
    quantized: Arc<QuantizedGnbc>,
    program: TiledProgram,
    programmer: LevelProgrammer,
    tiles: usize,
}

/// Where a resident tenant lives.
#[derive(Debug, Clone, Copy)]
struct Placement {
    bank: usize,
    tiles: usize,
    /// Logical LRU stamp (bumped on every serve and install).
    last_used: u64,
}

struct RegistryState {
    catalog: HashMap<u64, StoredModel>,
    resident: HashMap<u64, Placement>,
    /// Tiles used per bank.
    used: Vec<usize>,
    /// Monotonic logical clock backing the LRU stamps.
    clock: u64,
}

impl RegistryState {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// Where a model ended up after a register/restore/fault-in, including the
/// hot-swap cost when tiles had to be reprogrammed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantPlacement {
    /// The placed model.
    pub model: u64,
    /// Bank hosting it.
    pub bank: usize,
    /// Tiles its program occupies.
    pub tiles: usize,
    /// Tenants evicted to make room, least-recently-served first.
    pub evicted: Vec<u64>,
    /// The serviced swap (erase + programming pulse trains priced through
    /// the Preisach programmer); `None` when the model was already
    /// resident.
    pub swap: Option<SwapReport>,
}

/// Occupancy snapshot of the registry, serializable for benches.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RegistryReport {
    /// Banks in the fleet.
    pub banks: usize,
    /// Tile budget of one bank.
    pub tiles_per_bank: usize,
    /// Models in the catalog (resident or evicted).
    pub registered: usize,
    /// Models currently resident on a bank.
    pub resident: usize,
    /// Tiles used per bank.
    pub tiles_used: Vec<usize>,
}

/// A tenant as [`ModelRegistry::snapshot`] writes it and
/// [`ModelRegistry::restore`] reads it: what training produced (the
/// per-class Gaussians with their smoothing fraction, the per-feature
/// ranges) and how the tenant is deployed (engine configuration and tile
/// shape). Counts are not carried: the feature count is the length of the
/// class vectors and the bin count comes from `config.quant.feature_bits`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ModelSnapshot {
    id: u64,
    config: EngineConfig,
    classes: Vec<ClassGaussians>,
    var_smoothing: f64,
    minimums: Vec<f64>,
    maximums: Vec<f64>,
    shape: TileShape,
}

impl ModelSnapshot {
    /// Rebuilds the tenant's engine through the constructors the fit path
    /// uses, each with its own checks: the configuration, the Gaussian
    /// model, the discretizer, the quantized tables, the tile shape, the
    /// compiled program and the programmed grid. Nothing allocates past
    /// [`MAX_CELLS`] cells.
    fn build(self) -> Result<FebimEngine<TiledFabricBackend>, RegistryError> {
        let Self {
            config,
            classes,
            var_smoothing,
            minimums,
            maximums,
            shape,
            ..
        } = self;
        config.validate()?;
        let model =
            GaussianNaiveBayes::from_classes(classes, var_smoothing).map_err(CoreError::from)?;
        let bins = config.quant.feature_levels();
        let table = model
            .n_classes()
            .checked_mul(model.n_features())
            .and_then(|entries| entries.checked_mul(bins));
        if table.is_none_or(|entries| entries > MAX_CELLS) {
            return Err(RegistryError::Snapshot(format!(
                "{} classes x {} features x {bins} bins exceed the {MAX_CELLS}-entry table cap",
                model.n_classes(),
                model.n_features()
            )));
        }
        let discretizer =
            FeatureDiscretizer::from_ranges(minimums, maximums, config.quant.feature_bits)
                .map_err(CoreError::from)?;
        let quantized = QuantizedGnbc::with_discretizer(&model, discretizer, config.quant)
            .map_err(CoreError::from)?;
        let shape = TileShape::new(shape.rows, shape.columns)
            .map_err(CoreError::from)?
            .with_spare_rows(shape.spare_rows);
        Ok(FebimEngine::from_parts(
            Arc::new(model),
            Arc::new(quantized),
            config,
            |quantized, config| TiledFabricBackend::new(quantized, config, shape),
        )?)
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// Multi-tenant registry over tile-grid banks, each a one-worker
/// [`ServingPool`]. See the [module docs](self) for the placement and
/// hot-swap semantics.
pub struct ModelRegistry {
    config: RegistryConfig,
    /// One pool per bank, with the typed hot-swap queue every eviction and
    /// install on that bank is posted through.
    banks: Vec<(ServingPool, SwapQueue<TiledFabricBackend>)>,
    state: Mutex<RegistryState>,
}

impl fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ModelRegistry {
    /// Builds an empty registry: `config.banks` empty bank pools, each with
    /// a `config.tiles_per_bank` tile budget.
    ///
    /// # Errors
    ///
    /// Configuration validation and pool construction errors.
    pub fn new(config: RegistryConfig) -> Result<Self, RegistryError> {
        config.validate()?;
        let depth = config.serving.queue_depth.div_ceil(config.banks);
        let serving = config.serving.with_queue_depth(depth);
        let banks = (0..config.banks)
            .map(|_| ServingPool::new_bank(Vec::new(), serving))
            .collect::<Result<_, _>>()?;
        let used = vec![0; config.banks];
        Ok(Self {
            config,
            banks,
            state: Mutex::new(RegistryState {
                catalog: HashMap::new(),
                resident: HashMap::new(),
                used,
                clock: 0,
            }),
        })
    }

    /// The registry configuration.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// Trains, compiles and registers a model under `id`, then places and
    /// programs it onto a bank (possibly evicting colder tenants).
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateModel`] for a reused id,
    /// [`RegistryError::Capacity`] when the program cannot fit even an
    /// empty bank, plus engine build and serving errors.
    pub fn register(
        &self,
        id: u64,
        train_data: &Dataset,
        config: EngineConfig,
        shape: TileShape,
    ) -> Result<TenantPlacement, RegistryError> {
        let engine = FebimEngine::fit_tiled(train_data, config, shape)?;
        self.register_engine(id, engine)
    }

    /// Registers a pre-built tiled engine under `id` and places it.
    ///
    /// # Errors
    ///
    /// Same as [`ModelRegistry::register`] minus the training errors.
    pub fn register_engine(
        &self,
        id: u64,
        engine: FebimEngine<TiledFabricBackend>,
    ) -> Result<TenantPlacement, RegistryError> {
        let stored = StoredModel {
            config: engine.config().clone(),
            model: engine.shared_model(),
            quantized: engine.shared_quantized(),
            tiles: engine.tiled_program().plan().tile_count(),
            program: engine.tiled_program().clone(),
            programmer: engine.grid().programmer().clone(),
        };
        if stored.tiles > self.config.tiles_per_bank {
            return Err(RegistryError::Capacity {
                tiles: stored.tiles,
                budget: self.config.tiles_per_bank,
            });
        }
        let mut state = self.lock_state();
        if state.catalog.contains_key(&id) {
            return Err(RegistryError::DuplicateModel { model: id });
        }
        state.catalog.insert(id, stored);
        let result = self.install(&mut state, id, engine);
        if result.is_err() {
            // A model that never placed is not registered.
            state.catalog.remove(&id);
        }
        Self::finish_install(state, result)
    }

    /// Drops the state lock, then waits out the posted swap (if any): the
    /// swap is serviced by the target bank's worker between batches and
    /// needs no registry state, so other tenants' serves proceed while it
    /// completes.
    fn finish_install(
        guard: std::sync::MutexGuard<'_, RegistryState>,
        result: Result<(TenantPlacement, Option<SwapTicket>), RegistryError>,
    ) -> Result<TenantPlacement, RegistryError> {
        drop(guard);
        let (mut placement, ticket) = result?;
        if let Some(ticket) = ticket {
            placement.swap = Some(ticket.wait()?);
        }
        Ok(placement)
    }

    /// Serves one routed request, transparently faulting the model back in
    /// (hot-swap reprogramming a bank) when it was evicted.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] for an unregistered id, plus
    /// serving/inference errors.
    pub fn serve(&self, model: u64, sample: &[f64]) -> Result<ServeOutcome, RegistryError> {
        for _ in 0..FAULT_IN_ATTEMPTS {
            let bank = self.ensure_resident(model)?.bank;
            match self.banks[bank]
                .0
                .submit_tenant_blocking(model, sample.to_vec())
                .and_then(Ticket::wait)
            {
                Ok(mut outcome) => {
                    outcome.worker = bank;
                    return Ok(outcome);
                }
                // The model was evicted between the fault-in and the
                // dispatch (another tenant's install raced it), so its bank
                // answered it unavailable: fault it back in and retry.
                Err(ServingError::ModelUnavailable { .. }) => continue,
                Err(err) => return Err(RegistryError::Serving(err)),
            }
        }
        Err(RegistryError::Serving(ServingError::ModelUnavailable {
            model,
        }))
    }

    /// Serves every sample against `model`, in order.
    pub fn serve_many(
        &self,
        model: u64,
        samples: &[Vec<f64>],
    ) -> Vec<Result<ServeOutcome, RegistryError>> {
        samples
            .iter()
            .map(|sample| self.serve(model, sample))
            .collect()
    }

    /// Explicitly evicts a resident model: its tiles are erased (the swap
    /// is priced and serviced between the bank's batches) and the model
    /// stays in the catalog for later fault-in.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] for an unregistered id. Evicting a
    /// model that is not resident is a no-op returning `None`.
    pub fn evict(&self, model: u64) -> Result<Option<SwapReport>, RegistryError> {
        let mut state = self.lock_state();
        if !state.catalog.contains_key(&model) {
            return Err(RegistryError::UnknownModel { model });
        }
        let Some(placement) = state.resident.remove(&model) else {
            return Ok(None);
        };
        state.used[placement.bank] -= placement.tiles;
        let ticket = self.banks[placement.bank].1.post(vec![model], None);
        drop(state);
        Ok(Some(ticket.wait()?))
    }

    /// Serializes a registered model to JSON: its id, engine configuration,
    /// per-class Gaussian parameters and smoothing fraction, per-feature
    /// minimums and maximums, and tile shape.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] for an unregistered id.
    pub fn snapshot(&self, model: u64) -> Result<String, RegistryError> {
        let state = self.lock_state();
        let stored = state
            .catalog
            .get(&model)
            .ok_or(RegistryError::UnknownModel { model })?;
        let (minimums, maximums) = stored.quantized.discretizer().ranges();
        let snapshot = ModelSnapshot {
            id: model,
            config: stored.config.clone(),
            classes: stored.model.classes().to_vec(),
            var_smoothing: stored.model.var_smoothing(),
            minimums: minimums.to_vec(),
            maximums: maximums.to_vec(),
            shape: stored.program.plan().shape(),
        };
        Ok(json::to_string(&snapshot))
    }

    /// Restores a model from a [`ModelRegistry::snapshot`] JSON string —
    /// no training data needed. The quantized tables and the tiled program
    /// are rebuilt through the fit path's constructors before any registry
    /// lock is taken, and the engine is registered under the embedded id
    /// with [`ModelRegistry::register_engine`].
    ///
    /// # Errors
    ///
    /// [`RegistryError::Snapshot`] for undecodable bytes or a model past the
    /// table cap, [`RegistryError::Core`] for a snapshot that fails a
    /// constructor's checks, [`RegistryError::DuplicateModel`] when the
    /// embedded id is already registered, plus placement errors.
    pub fn restore(&self, text: &str) -> Result<TenantPlacement, RegistryError> {
        let snapshot: ModelSnapshot =
            json::from_str(text).map_err(|err| RegistryError::Snapshot(err.to_string()))?;
        let id = snapshot.id;
        self.register_engine(id, snapshot.build()?)
    }

    /// Occupancy snapshot (banks, budgets, residents).
    pub fn report(&self) -> RegistryReport {
        let state = self.lock_state();
        RegistryReport {
            banks: self.config.banks,
            tiles_per_bank: self.config.tiles_per_bank,
            registered: state.catalog.len(),
            resident: state.resident.len(),
            tiles_used: state.used.clone(),
        }
    }

    /// Bank currently hosting `model`, if it is resident.
    pub fn residence_of(&self, model: u64) -> Option<usize> {
        self.lock_state().resident.get(&model).map(|p| p.bank)
    }

    /// Shuts every bank down gracefully and returns their merged serving
    /// statistics (hot-swap pulse and energy totals and every tenant's
    /// maintenance included): the merge of the banks' worker entries, which
    /// [`PoolStats::workers`] lists in bank order.
    pub fn shutdown(self) -> PoolStats {
        ServingPool::shutdown_banks(self.banks.into_iter().map(|(pool, _)| pool))
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, RegistryState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Makes `model` resident, faulting it in from the catalog if it was
    /// evicted. A fault-in clones the catalogued parts under the state lock,
    /// then rebuilds and reprograms the engine around the catalogued
    /// program (which this crate compiled) and programmer with the lock
    /// released, so other tenants' requests do not wait behind the build;
    /// it re-locks only to place the engine.
    fn ensure_resident(&self, model: u64) -> Result<TenantPlacement, RegistryError> {
        let (trained, quantized, config, program, programmer) = {
            let mut state = self.lock_state();
            if let Some(placement) = Self::touch(&mut state, model) {
                return Ok(placement);
            }
            let stored = state
                .catalog
                .get(&model)
                .ok_or(RegistryError::UnknownModel { model })?;
            (
                Arc::clone(&stored.model),
                Arc::clone(&stored.quantized),
                stored.config.clone(),
                stored.program.clone(),
                stored.programmer.clone(),
            )
        };
        let engine = FebimEngine::from_parts(trained, quantized, config, |quantized, config| {
            TiledFabricBackend::with_program(quantized, config, program, programmer)
        })?;
        let mut state = self.lock_state();
        let result = self.install(&mut state, model, engine);
        Self::finish_install(state, result)
    }

    /// Refreshes a resident model's LRU stamp and returns its placement;
    /// `None` when the model is not resident.
    fn touch(state: &mut RegistryState, model: u64) -> Option<TenantPlacement> {
        let placement = state.resident.get_mut(&model)?;
        state.clock += 1;
        placement.last_used = state.clock;
        Some(TenantPlacement {
            model,
            bank: placement.bank,
            tiles: placement.tiles,
            evicted: Vec::new(),
            swap: None,
        })
    }

    /// Places `model`'s built `engine` onto a bank, evicting
    /// least-recently-served tenants when the chosen bank is over budget,
    /// and posts the hot swap to the bank, returning its ticket for the
    /// caller to await *after* releasing the state lock (see
    /// [`ModelRegistry::finish_install`]). When a racing fault-in placed
    /// the model first, `engine` is dropped and the placement's LRU stamp
    /// refreshed instead.
    fn install(
        &self,
        state: &mut RegistryState,
        model: u64,
        engine: FebimEngine<TiledFabricBackend>,
    ) -> Result<(TenantPlacement, Option<SwapTicket>), RegistryError> {
        if let Some(placement) = Self::touch(state, model) {
            return Ok((placement, None));
        }
        let Some(stored) = state.catalog.get(&model) else {
            return Err(RegistryError::UnknownModel { model });
        };
        let tiles = stored.tiles;
        let budget = self.config.tiles_per_bank;
        if tiles > budget {
            return Err(RegistryError::Capacity { tiles, budget });
        }
        let stamp = state.tick();
        // Best fit: the serving bank with the least free budget that still
        // fits, so large future tenants keep a roomy bank available.
        let bank = (0..self.config.banks)
            .filter(|&bank| budget - state.used[bank] >= tiles)
            .min_by_key(|&bank| budget - state.used[bank]);
        let (bank, evicted) = match bank {
            Some(bank) => (bank, Vec::new()),
            None => {
                // Every bank is over budget for this program: evict the
                // least-recently-served tenants from the bank hosting the
                // globally coldest one until the program fits.
                let Some(coldest) = state
                    .resident
                    .values()
                    .min_by_key(|placement| placement.last_used)
                    .map(|placement| placement.bank)
                else {
                    // No residents yet means every bank is empty, so the
                    // filter above must have matched; keep the error typed
                    // rather than panicking if it ever does not.
                    return Err(RegistryError::Capacity { tiles, budget });
                };
                let mut tenants: Vec<(u64, u64, usize)> = state
                    .resident
                    .iter()
                    .filter(|(_, placement)| placement.bank == coldest)
                    .map(|(&id, placement)| (placement.last_used, id, placement.tiles))
                    .collect();
                tenants.sort_unstable();
                let mut evicted = Vec::new();
                for (_, id, freed) in tenants {
                    if budget - state.used[coldest] >= tiles {
                        break;
                    }
                    state.resident.remove(&id);
                    state.used[coldest] -= freed;
                    evicted.push(id);
                }
                if budget - state.used[coldest] < tiles {
                    return Err(RegistryError::Capacity { tiles, budget });
                }
                (coldest, evicted)
            }
        };
        state.used[bank] += tiles;
        state.resident.insert(
            model,
            Placement {
                bank,
                tiles,
                last_used: stamp,
            },
        );
        let ticket = self.banks[bank]
            .1
            .post(evicted.clone(), Some((model, engine)));
        Ok((
            TenantPlacement {
                model,
                bank,
                tiles,
                evicted,
                swap: None,
            },
            Some(ticket),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InferenceStep;
    use febim_data::rng::seeded_rng;
    use febim_data::split::stratified_split;
    use febim_data::synthetic::iris_like;
    use febim_quant::{Encoding, QuantConfig};
    use proptest::prelude::*;

    fn split_for(seed: u64) -> (Dataset, Dataset) {
        let dataset = iris_like(seed).unwrap();
        let split = stratified_split(&dataset, 0.7, &mut seeded_rng(seed)).unwrap();
        (split.train, split.test)
    }

    fn samples_of(test: &Dataset) -> Vec<Vec<f64>> {
        (0..test.n_samples())
            .map(|index| test.sample(index).unwrap().to_vec())
            .collect()
    }

    fn shape() -> TileShape {
        TileShape::new(2, 24).unwrap()
    }

    /// (engine, its test samples, its sequential per-sample reference).
    fn tenant(
        seed: u64,
    ) -> (
        FebimEngine<TiledFabricBackend>,
        Vec<Vec<f64>>,
        Vec<InferenceStep>,
    ) {
        tenant_encoded(seed, Encoding::OneHot)
    }

    /// [`tenant`] under a chosen column encoding.
    fn tenant_encoded(
        seed: u64,
        encoding: Encoding,
    ) -> (
        FebimEngine<TiledFabricBackend>,
        Vec<Vec<f64>>,
        Vec<InferenceStep>,
    ) {
        let (train, test) = split_for(seed);
        let config = EngineConfig::febim_default().with_encoding(encoding);
        let engine = FebimEngine::fit_tiled(&train, config, shape()).unwrap();
        let samples = samples_of(&test);
        let mut scratch = engine.make_scratch();
        let sequential = samples
            .iter()
            .map(|sample| engine.infer_into(sample, &mut scratch).unwrap())
            .collect();
        (engine, samples, sequential)
    }

    fn assert_bit_identical(
        answers: &[Result<ServeOutcome, RegistryError>],
        reference: &[InferenceStep],
    ) {
        assert_eq!(answers.len(), reference.len());
        for (answer, step) in answers.iter().zip(reference) {
            let outcome = answer.as_ref().unwrap();
            assert_eq!(outcome.prediction, step.prediction);
            assert_eq!(outcome.tie_broken, step.tie_broken);
            assert_eq!(outcome.delay, step.delay);
            assert_eq!(outcome.energy, step.energy);
        }
    }

    #[test]
    fn config_validation_and_error_display() {
        assert!(RegistryConfig::new(0, 4).validate().is_err());
        assert!(RegistryConfig::new(2, 0).validate().is_err());
        assert!(RegistryConfig::new(2, 4).validate().is_ok());
        assert!(RegistryError::UnknownModel { model: 9 }
            .to_string()
            .contains('9'));
        assert!(RegistryError::Capacity {
            tiles: 8,
            budget: 4
        }
        .to_string()
        .contains('8'));
        assert!(RegistryError::Serving(ServingError::ShutDown)
            .source()
            .is_some());
    }

    /// Tentpole acceptance: three tenants registered onto a two-bank fleet
    /// route by model id and answer bit-identically to their own
    /// single-tenant engines.
    #[test]
    fn registry_serves_three_tenants_bit_identically() {
        let (engine_a, samples_a, reference_a) = tenant(950);
        let (engine_b, samples_b, reference_b) = tenant(951);
        let (engine_c, samples_c, reference_c) = tenant(952);
        let tiles = engine_a.tiled_program().plan().tile_count();
        let registry = ModelRegistry::new(RegistryConfig::new(2, 2 * tiles)).unwrap();
        let placed = registry.register_engine(1, engine_a).unwrap();
        assert_eq!(placed.model, 1);
        assert!(placed.evicted.is_empty());
        let swap = placed.swap.unwrap();
        assert!(swap.program.pulses > 0);
        assert!(swap.program.energy_j > 0.0);
        registry.register_engine(2, engine_b).unwrap();
        registry.register_engine(3, engine_c).unwrap();
        let report = registry.report();
        assert_eq!(report.registered, 3);
        assert_eq!(report.resident, 3);
        assert_bit_identical(&registry.serve_many(1, &samples_a), &reference_a);
        assert_bit_identical(&registry.serve_many(2, &samples_b), &reference_b);
        assert_bit_identical(&registry.serve_many(3, &samples_c), &reference_c);
        assert!(matches!(
            registry.serve(99, &samples_a[0]),
            Err(RegistryError::UnknownModel { model: 99 })
        ));
        let stats = registry.shutdown();
        assert_eq!(stats.swaps, 3);
        assert_eq!(stats.failed_requests, 0);
        assert_eq!(stats.unrouted, 0);
    }

    #[test]
    fn duplicate_and_oversized_registrations_are_rejected() {
        let (engine, _, _) = tenant(953);
        let tiles = engine.tiled_program().plan().tile_count();
        let registry = ModelRegistry::new(RegistryConfig::new(1, tiles)).unwrap();
        registry.register_engine(1, engine.clone()).unwrap();
        assert!(matches!(
            registry.register_engine(1, engine.clone()),
            Err(RegistryError::DuplicateModel { model: 1 })
        ));
        let small = ModelRegistry::new(RegistryConfig::new(1, tiles - 1)).unwrap();
        assert!(matches!(
            small.register_engine(2, engine),
            Err(RegistryError::Capacity { .. })
        ));
    }

    /// Cold tenants are evicted least-recently-served first, their tiles
    /// erased in place, and they fault back in transparently on the next
    /// request — still bit-identical to a freshly programmed grid.
    #[test]
    fn lru_eviction_and_transparent_fault_in() {
        let (engine_a, samples_a, reference_a) = tenant(954);
        let (engine_b, samples_b, reference_b) = tenant(955);
        let (engine_c, samples_c, reference_c) = tenant(956);
        let tiles = engine_a.tiled_program().plan().tile_count();
        // Each bank holds exactly one tenant: the third registration must
        // evict the least-recently-served of the first two.
        let registry = ModelRegistry::new(RegistryConfig::new(2, tiles)).unwrap();
        registry.register_engine(1, engine_a).unwrap();
        registry.register_engine(2, engine_b).unwrap();
        let placed = registry.register_engine(3, engine_c).unwrap();
        assert_eq!(placed.evicted, vec![1]);
        let swap = placed.swap.unwrap();
        assert!(swap.erase.pulses > 0, "eviction must erase in place");
        assert!(swap.erase.energy_j > 0.0);
        assert_eq!(registry.residence_of(1), None);
        assert!(registry.residence_of(2).is_some());
        assert!(registry.residence_of(3).is_some());
        // Survivors read bit-identically after the swap.
        assert_bit_identical(&registry.serve_many(2, &samples_b), &reference_b);
        assert_bit_identical(&registry.serve_many(3, &samples_c), &reference_c);
        // The evicted tenant faults back in on its next request (evicting
        // the now-coldest resident) and reads bit-identically too.
        assert_bit_identical(&registry.serve_many(1, &samples_a), &reference_a);
        assert!(registry.residence_of(1).is_some());
        let report = registry.report();
        assert_eq!(report.registered, 3);
        assert_eq!(report.resident, 2);
        let stats = registry.shutdown();
        assert!(stats.swaps >= 4, "3 installs + ≥1 fault-in, got {stats:?}");
        assert!(stats.swap_pulses > 0);
        assert!(stats.swap_energy_j > 0.0);
        assert_eq!(stats.failed_requests, 0);
    }

    /// Two threads fault the same evicted tenant in at once. Both may
    /// build an engine with the lock released, but the tenant is installed
    /// once: a build that finds it already placed is dropped and only
    /// refreshes the LRU stamp. Both threads' answers match the dedicated
    /// engine.
    #[test]
    fn concurrent_fault_ins_of_one_evicted_tenant_install_it_once() {
        let (engine, samples, reference) = tenant(958);
        let tiles = engine.tiled_program().plan().tile_count();
        let registry = ModelRegistry::new(RegistryConfig::new(1, tiles)).unwrap();
        registry.register_engine(1, engine).unwrap();
        registry.evict(1).unwrap().unwrap();
        let start = std::sync::Barrier::new(2);
        let answers: Vec<_> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        registry.serve_many(1, &samples)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|client| client.join().unwrap())
                .collect()
        });
        for answer in &answers {
            assert_bit_identical(answer, &reference);
        }
        assert!(registry.residence_of(1).is_some());
        let stats = registry.shutdown();
        // The registration, the eviction and one fault-in.
        assert_eq!(stats.swaps, 3, "{stats:?}");
        assert_eq!(stats.failed_requests, 0);
    }

    /// An explicit evict prices the erase and leaves the model reloadable.
    #[test]
    fn explicit_evict_is_priced_and_reversible() {
        let (engine, samples, reference) = tenant(957);
        let tiles = engine.tiled_program().plan().tile_count();
        let registry = ModelRegistry::new(RegistryConfig::new(1, tiles)).unwrap();
        registry.register_engine(1, engine).unwrap();
        let swap = registry.evict(1).unwrap().unwrap();
        assert!(swap.erase.pulses > 0);
        assert_eq!(registry.residence_of(1), None);
        // Evicting a non-resident model is a no-op; unknown ids are typed.
        assert!(registry.evict(1).unwrap().is_none());
        assert!(matches!(
            registry.evict(42),
            Err(RegistryError::UnknownModel { model: 42 })
        ));
        assert_bit_identical(&registry.serve_many(1, &samples), &reference);
    }

    /// A model snapshot round-trips through the JSON serde shim under both
    /// encodings: it carries the trained model, its feature ranges and its
    /// tile shape but no derived tables, and restore on a fresh registry
    /// rebuilds the engine from bytes (no training data) that serves
    /// bit-identically to the original.
    #[test]
    fn snapshot_restore_round_trip_is_bit_identical() {
        for encoding in [Encoding::OneHot, Encoding::BitPlane { bits: 4 }] {
            let (engine, samples, reference) = tenant_encoded(958, encoding);
            let tiles = engine.tiled_program().plan().tile_count();
            let registry = ModelRegistry::new(RegistryConfig::new(1, tiles)).unwrap();
            registry.register_engine(7, engine).unwrap();
            let snapshot = registry.snapshot(7).unwrap();
            let keys: Vec<String> = match json::parse(&snapshot).unwrap() {
                json::Value::Object(fields) => fields.into_iter().map(|(key, _)| key).collect(),
                other => panic!("snapshot is not an object: {other:?}"),
            };
            assert_eq!(
                keys,
                [
                    "id",
                    "config",
                    "classes",
                    "var_smoothing",
                    "minimums",
                    "maximums",
                    "shape"
                ]
            );
            assert!(!snapshot.contains("\"program\"") && !snapshot.contains("\"quantized\""));
            assert!(matches!(
                registry.snapshot(8),
                Err(RegistryError::UnknownModel { model: 8 })
            ));
            let restored = ModelRegistry::new(RegistryConfig::new(1, tiles)).unwrap();
            let placed = restored.restore(&snapshot).unwrap();
            assert_eq!(placed.model, 7);
            assert!(placed.swap.unwrap().program.pulses > 0);
            assert_bit_identical(&restored.serve_many(7, &samples), &reference);
            // The restored tenant snapshots back to the same bytes.
            assert_eq!(restored.snapshot(7).unwrap(), snapshot);
            // A second restore of the same id is a duplicate; garbage is typed.
            assert!(matches!(
                restored.restore(&snapshot),
                Err(RegistryError::DuplicateModel { model: 7 })
            ));
            assert!(matches!(
                restored.restore("{not json"),
                Err(RegistryError::Snapshot(_))
            ));
        }
    }

    /// A restore whose engine cannot be built leaves nothing behind: the id
    /// is not registered, so the good snapshot restores and serves.
    #[test]
    fn failed_restore_leaves_the_id_unregistered() {
        let (engine, samples, reference) = tenant(959);
        let tiles = engine.tiled_program().plan().tile_count();
        let registry = ModelRegistry::new(RegistryConfig::new(1, tiles)).unwrap();
        registry.register_engine(1, engine).unwrap();
        let snapshot = registry.snapshot(1).unwrap();
        // A tile shape with no rows fails `TileShape::new`.
        let broken = snapshot.replacen("\"shape\":{\"rows\":2", "\"shape\":{\"rows\":0", 1);
        assert_ne!(broken, snapshot);
        let restored = ModelRegistry::new(RegistryConfig::new(1, tiles)).unwrap();
        assert!(matches!(
            restored.restore(&broken),
            Err(RegistryError::Core(_))
        ));
        assert_eq!(restored.report().registered, 0);
        assert!(matches!(
            restored.serve(1, &samples[0]),
            Err(RegistryError::UnknownModel { model: 1 })
        ));
        restored.restore(&snapshot).unwrap();
        assert_eq!(restored.report().registered, 1);
        assert_bit_identical(&restored.serve_many(1, &samples), &reference);
    }

    /// A snapshot whose quantized table would pass the cell cap is
    /// rejected before anything is quantized or allocated for it.
    #[test]
    fn oversized_snapshot_tables_are_rejected_before_quantizing() {
        let features = 16;
        let class = ClassGaussians {
            means: vec![0.0; features],
            variances: vec![1.0; features],
            prior: 0.5,
        };
        let snapshot = ModelSnapshot {
            id: 3,
            config: EngineConfig::febim_default().with_quant(QuantConfig::new(16, 2)),
            classes: vec![class.clone(), class],
            var_smoothing: 1e-9,
            minimums: vec![0.0; features],
            maximums: vec![1.0; features],
            shape: shape(),
        };
        // 2 classes x 16 features x 2^16 bins = 2^21 table entries.
        let registry = ModelRegistry::new(RegistryConfig::new(1, 4)).unwrap();
        assert!(matches!(
            registry.restore(&json::to_string(&snapshot)),
            Err(RegistryError::Snapshot(reason)) if reason.contains("table cap")
        ));
        assert_eq!(registry.report().registered, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Satellite pin: after an arbitrary evict/install churn, surviving
        /// tenants read bit-identically to freshly programmed grids — the
        /// region-scoped erase of a departing neighbour never corrupts (or
        /// even invalidates) a survivor's tiles.
        #[test]
        fn post_swap_reads_match_freshly_programmed_grids(seed in 0u64..12) {
            let (engine_a, samples_a, reference_a) = tenant(seed);
            let (engine_b, samples_b, reference_b) = tenant(seed + 100);
            let tiles = engine_a.tiled_program().plan().tile_count();
            let registry = ModelRegistry::new(RegistryConfig::new(1, tiles)).unwrap();
            registry.register_engine(1, engine_a).unwrap();
            // B evicts A; A's next serve evicts B; then B faults back in.
            let placed = registry.register_engine(2, engine_b).unwrap();
            prop_assert_eq!(&placed.evicted, &vec![1u64]);
            for (index, sample) in samples_a.iter().enumerate().take(3) {
                let outcome = registry.serve(1, sample).unwrap();
                prop_assert_eq!(outcome.prediction, reference_a[index].prediction);
                prop_assert_eq!(outcome.delay, reference_a[index].delay);
                prop_assert_eq!(outcome.energy, reference_a[index].energy);
            }
            for (index, sample) in samples_b.iter().enumerate().take(3) {
                let outcome = registry.serve(2, sample).unwrap();
                prop_assert_eq!(outcome.prediction, reference_b[index].prediction);
                prop_assert_eq!(outcome.delay, reference_b[index].delay);
                prop_assert_eq!(outcome.energy, reference_b[index].energy);
            }
            let stats = registry.shutdown();
            prop_assert_eq!(stats.failed_requests, 0);
            prop_assert!(stats.swaps >= 4);
        }
    }
}
