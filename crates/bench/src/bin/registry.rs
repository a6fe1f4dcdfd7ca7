//! Multi-tenant registry benchmark: a fleet of tile-grid banks hosting
//! more models than it has capacity for, served through per-request model
//! routing with hot-swap reprogramming.
//!
//! Five iris-scale tenants are registered onto a two-bank fleet sized for
//! four, so the fifth registration evicts the least-recently-served tenant
//! and later requests for cold models fault them back in — every install,
//! eviction and fault-in a priced pulse train on the fabric. The bench
//! measures, per tenant:
//!
//! * the **dedicated baseline** — the tenant's own engine answering its
//!   request stream one sample at a time (`infer_into`);
//! * the **registry path** — the same stream through
//!   `ModelRegistry::serve`, with routing, queueing, ticket completion and
//!   any fault-in swaps included;
//!
//! and verifies the two are **bit-identical** (prediction, tie-break,
//! delay and energy) before trusting any timing — the consolidation
//! contract: sharing the fleet never changes an answer. A concurrent
//! tenant-mix phase then serves every resident tenant from its own client
//! thread at once (distinct banks serve in parallel; same-bank tenants
//! interleave), and a snapshot/restore phase round-trips one tenant
//! through the JSON serde shim into a fresh fleet and re-verifies
//! bit-identity against the original engine.
//!
//! Three gates run on every invocation (CI included, via `--quick`):
//!
//! * **identity gate**: every tenant row must be bit-identical to its
//!   dedicated engine (no tolerance);
//! * **snapshot gate**: the restored tenant must serve bit-identically to
//!   the engine its snapshot was taken from;
//! * **budget gate**: the best per-tenant registry ns/request must stay at
//!   or under the checked-in `registry_ns_per_request_budget` of
//!   `REGISTRY_BUDGET.json`, re-measured with fresh passes before failing
//!   so one noisy sweep on a loaded host doesn't flake CI.
//!
//! The tenant table, the placements (with their swap pulse/energy prices),
//! the fleet's swap telemetry and the gate outcomes land in
//! `BENCH_registry.json`.
//!
//! Usage:
//!
//! ```console
//! cargo run --release -p febim-bench --bin registry \
//!     [-- --quick] [--out PATH] [--budget PATH]
//! ```

use std::time::Instant;

use serde::Serialize;

use febim_bench::{measure_reads, request_stream, Gate, Header, Record};
use febim_core::{
    EngineConfig, FebimEngine, InferenceStep, ModelRegistry, RegistryConfig, RegistryReport,
    TenantPlacement, TiledFabricBackend,
};
use febim_crossbar::TileShape;
use febim_data::rng::seeded_rng;
use febim_data::split::stratified_split;
use febim_data::synthetic::iris_like;

/// The persisted record tracking the multi-tenant serving trajectory.
#[derive(Debug, Serialize)]
struct RegistryRecord {
    header: Header,
    tenants: usize,
    banks: usize,
    tiles_per_bank: usize,
    requests_per_tenant: usize,
    /// Where each registration landed, with the swap (erase + program
    /// pulse trains) that placed it.
    placements: Vec<TenantPlacement>,
    /// One row per tenant of the serial sweep.
    rows: Vec<TenantRow>,
    /// Hot swaps (installs, evictions and fault-ins) the fleet ran.
    swaps: u64,
    /// Programming/erase pulses those swaps spent on the fabric.
    swap_pulses: u64,
    /// Energy (J) those pulse trains cost, priced through the Preisach
    /// programmer.
    swap_energy_j: f64,
    /// Fleet occupancy after the serial sweep (before shutdown).
    occupancy: RegistryReport,
    /// Wall-clock ns/request of the concurrent tenant mix (every resident
    /// tenant served from its own client thread at once).
    mixed_ns_per_request: f64,
    /// Resident tenants the concurrent mix spanned.
    mixed_tenants: usize,
    /// Smallest per-tenant registry ns/request — the budget-gate headline.
    best_registry_ns_per_request: f64,
    /// The `registry_ns_per_request_budget` the headline was gated against.
    registry_ns_per_request_budget: f64,
    /// Whether the snapshot/restore round trip served bit-identically.
    snapshot_round_trip_bit_identical: bool,
}

/// One tenant served through the shared fleet against its own engine.
#[derive(Debug, Serialize)]
struct TenantRow {
    model: u64,
    /// Tiles the tenant's compiled program occupies on its bank.
    tiles: usize,
    requests: u64,
    /// ns/request of the tenant's dedicated engine answering one request at
    /// a time — the consolidation baseline.
    dedicated_ns_per_request: f64,
    /// ns/request through the shared registry (routing, queueing and ticket
    /// completion included).
    registry_ns_per_request: f64,
    /// `registry / dedicated` — the price of sharing the fleet.
    overhead_ratio: f64,
    /// Whether every registry answer matched the dedicated engine
    /// bit-for-bit (prediction, tie-break, delay and energy).
    bit_identical: bool,
}

struct Tenant {
    id: u64,
    engine: FebimEngine<TiledFabricBackend>,
    samples: Vec<Vec<f64>>,
    reference: Vec<InferenceStep>,
    dedicated_ns: f64,
}

/// Fits one tenant and measures its dedicated sequential baseline (best of
/// `passes` passes), keeping the per-sample reference steps for the
/// bit-identity gate.
fn build_tenant(id: u64, seed: u64, requests: usize, passes: usize) -> Tenant {
    let dataset = iris_like(seed).expect("dataset");
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(seed)).expect("split");
    let engine = FebimEngine::fit_tiled(
        &split.train,
        EngineConfig::febim_default(),
        TileShape::new(2, 24).expect("tile shape"),
    )
    .expect("tiled engine");
    let samples = request_stream(&split.test, requests);
    let mut scratch = engine.make_scratch();
    let reference: Vec<InferenceStep> = samples
        .iter()
        .map(|sample| engine.infer_into(sample, &mut scratch).expect("infer"))
        .collect();
    let dedicated_ns = measure_reads(&engine, &samples, passes);
    Tenant {
        id,
        engine,
        samples,
        reference,
        dedicated_ns,
    }
}

/// Serves one tenant's stream through the registry (best of `passes`
/// passes), verifying every answer bit-for-bit against the dedicated
/// engine's reference steps.
fn measure_registry(registry: &ModelRegistry, tenant: &Tenant, passes: usize) -> (f64, bool) {
    let mut best_ns = f64::INFINITY;
    let mut identical = true;
    for _ in 0..passes {
        let start = Instant::now();
        let answers = registry.serve_many(tenant.id, &tenant.samples);
        best_ns = best_ns.min(start.elapsed().as_nanos() as f64 / tenant.samples.len() as f64);
        for (answer, step) in answers.iter().zip(&tenant.reference) {
            let outcome = answer.as_ref().expect("served answer");
            identical &= outcome.prediction == step.prediction
                && outcome.tie_broken == step.tie_broken
                && outcome.delay == step.delay
                && outcome.energy == step.energy;
        }
    }
    (best_ns, identical)
}

fn main() {
    let record = Record::gated("registry", "REGISTRY_BUDGET.json");
    let requests = record.pick(300, 2_000);
    let passes = record.pick(2, 3);
    const TENANTS: usize = 5;

    println!(
        "registry: {TENANTS} tenants on a 2-bank fleet sized for 4, {requests} requests/tenant \
         ({} mode)\n",
        record.mode()
    );

    let tenants: Vec<Tenant> = (0..TENANTS)
        .map(|index| build_tenant(index as u64 + 1, 1000 + index as u64, requests, passes))
        .collect();
    let tiles = tenants[0].engine.tiled_program().plan().tile_count();
    let banks = 2;
    let tiles_per_bank = 2 * tiles;

    // Register every tenant: the fleet holds four, so the fifth install
    // evicts the least-recently-served resident — a priced hot swap.
    let registry =
        ModelRegistry::new(RegistryConfig::new(banks, tiles_per_bank)).expect("registry");
    let mut placements = Vec::with_capacity(TENANTS);
    for tenant in &tenants {
        let placement = registry
            .register_engine(tenant.id, tenant.engine.clone())
            .expect("register");
        let swap = placement.swap.as_ref().expect("install swap");
        println!(
            "registered model {} -> bank {} ({} tiles, evicted {:?}, program {} pulses / {:.3e} J)",
            placement.model,
            placement.bank,
            placement.tiles,
            placement.evicted,
            swap.program.pulses,
            swap.program.energy_j
        );
        placements.push(placement);
    }
    assert!(
        placements.iter().any(|p| !p.evicted.is_empty()),
        "an over-subscribed fleet must evict at least once"
    );

    // Serial sweep: every tenant's stream through the shared fleet, cold
    // tenants faulting back in as their turn comes.
    let mut rows = Vec::with_capacity(TENANTS);
    for tenant in &tenants {
        let (registry_ns, identical) = measure_registry(&registry, tenant, passes);
        let row = TenantRow {
            model: tenant.id,
            tiles,
            requests: tenant.samples.len() as u64,
            dedicated_ns_per_request: tenant.dedicated_ns,
            registry_ns_per_request: registry_ns,
            overhead_ratio: registry_ns / tenant.dedicated_ns,
            bit_identical: identical,
        };
        println!(
            "model {:<2} dedicated {:>8.1} ns  registry {:>9.1} ns ({:>6.2}x)  bit-identical {}",
            row.model,
            row.dedicated_ns_per_request,
            row.registry_ns_per_request,
            row.overhead_ratio,
            row.bit_identical,
        );
        rows.push(row);
    }

    // Identity gate: consolidation must never change an answer.
    Gate::at_most("tenants diverged from their dedicated engine", 0.0)
        .check(rows.iter().filter(|row| !row.bit_identical).count() as f64);

    // Concurrent tenant mix: every currently resident tenant served from
    // its own client thread at once. Residents only — the mix measures
    // shared-fleet serving, not fault-in churn (the serial sweep above
    // already priced that).
    let resident: Vec<&Tenant> = tenants
        .iter()
        .filter(|tenant| registry.residence_of(tenant.id).is_some())
        .collect();
    let mixed_requests: usize = resident.iter().map(|t| t.samples.len()).sum();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for tenant in &resident {
            // Capture only the Sync parts: the engine itself (interior
            // tile-grid caches) stays on this thread.
            let (id, samples, reference) = (tenant.id, &tenant.samples, &tenant.reference);
            let registry = &registry;
            scope.spawn(move || {
                let answers = registry.serve_many(id, samples);
                for (answer, step) in answers.iter().zip(reference) {
                    let outcome = answer.as_ref().expect("mixed answer");
                    assert_eq!(
                        outcome.prediction, step.prediction,
                        "mixed-serve divergence"
                    );
                }
            });
        }
    });
    let mixed_ns_per_request = start.elapsed().as_nanos() as f64 / mixed_requests as f64;
    println!(
        "\ntenant mix: {} resident tenants served concurrently at {:.1} ns/request",
        resident.len(),
        mixed_ns_per_request
    );

    // Snapshot/restore round trip: one tenant through the JSON serde shim
    // into a fresh single-bank fleet, re-verified against the original
    // dedicated engine.
    let snapshot = registry.snapshot(tenants[0].id).expect("snapshot");
    let restored_fleet = ModelRegistry::new(RegistryConfig::new(1, tiles)).expect("fresh fleet");
    restored_fleet.restore(&snapshot).expect("restore");
    let (_, snapshot_identical) = measure_registry(&restored_fleet, &tenants[0], 1);
    restored_fleet.shutdown();
    // Snapshot gate: a restored model answers like the engine its snapshot
    // was taken from.
    Gate::at_most("restored tenants diverged from their original engine", 0.0)
        .check(if snapshot_identical { 0.0 } else { 1.0 });

    // Budget gate: the best per-tenant registry ns/request must hold the
    // checked-in budget. A re-measure serves every tenant again with fresh
    // passes.
    let budget = record.budget("registry_ns_per_request_budget");
    let best_ns = Gate::at_most("best tenant registry ns/request", budget)
        .remeasure(|| {
            let mut best_ns = f64::INFINITY;
            for tenant in &tenants {
                let (registry_ns, identical) = measure_registry(&registry, tenant, passes + 1);
                assert!(identical, "re-measured tenant diverged");
                best_ns = best_ns.min(registry_ns);
            }
            best_ns
        })
        .check(
            rows.iter()
                .map(|row| row.registry_ns_per_request)
                .fold(f64::INFINITY, f64::min),
        );

    let occupancy = registry.report();
    let stats = registry.shutdown();
    assert_eq!(stats.failed_requests, 0, "no request may fail in the sweep");
    assert_eq!(stats.unrouted, 0, "no request may lose its route mid-sweep");
    assert!(stats.swaps >= TENANTS as u64, "every install is a swap");
    assert!(stats.swap_pulses > 0 && stats.swap_energy_j > 0.0);
    println!(
        "fleet swap telemetry: {} swaps, {} pulses, {:.3e} J",
        stats.swaps, stats.swap_pulses, stats.swap_energy_j
    );

    record.write(&RegistryRecord {
        header: record.header(),
        tenants: TENANTS,
        banks,
        tiles_per_bank,
        requests_per_tenant: requests,
        placements,
        rows,
        swaps: stats.swaps,
        swap_pulses: stats.swap_pulses,
        swap_energy_j: stats.swap_energy_j,
        occupancy,
        mixed_ns_per_request,
        mixed_tenants: resident.len(),
        best_registry_ns_per_request: best_ns,
        registry_ns_per_request_budget: budget,
        snapshot_round_trip_bit_identical: snapshot_identical,
    });
}
