//! Tiled fabric: serve a model that is bigger than one physical crossbar.
//!
//! A real FeFET macro has a fixed tile size. When the compiled model's
//! layout exceeds it, `FebimEngine::fit_tiled` shards the program across a
//! grid of tiles — classes across tile rows, evidence columns across tile
//! columns — and merges the per-tile partial wordline currents before the
//! winner-take-all. The merged read is bit-identical to a monolithic array,
//! so tiling never changes a prediction; only delay and energy reflect the
//! physical split.
//!
//! Run with:
//!
//! ```text
//! cargo run --example tiled_fabric
//! ```

use febim_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train/test data and the paper's operating point.
    let dataset = iris_like(2025)?;
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(2025))?;
    let config = EngineConfig::febim_default();

    // 2. The reference deployment: one monolithic 3×64 array.
    let monolithic = FebimEngine::fit(&split.train, config.clone())?;
    println!(
        "monolithic: {} wordlines x {} bitlines on a single array",
        monolithic.array().layout().rows(),
        monolithic.array().layout().columns(),
    );

    // 3. The same model on 2×48 tiles. The layout exceeds the tile in both
    //    dimensions (3 > 2 classes, 64 > 48 columns), so the planner emits a
    //    2×2 grid with ragged edge tiles.
    let tile = TileShape::new(2, 48)?;
    let fabric = FebimEngine::fit_tiled(&split.train, config, tile)?;
    let plan = fabric.tiled_program().plan();
    println!(
        "fabric:     {}x{} grid of {}x{} tiles ({} tiles, {:.1} % utilized)",
        plan.row_tiles(),
        plan.col_tiles(),
        plan.shape().rows,
        plan.shape().columns,
        plan.tile_count(),
        plan.utilization() * 100.0,
    );
    let info = fabric.backend_info();
    println!(
        "backend:    kind {:?} (`{}`), {} events x {} columns on {} tiles",
        info.kind, info.name, info.events, info.columns, info.tiles,
    );

    // 4. Both deployments decide every test sample identically.
    let reference = monolithic.evaluate(&split.test)?;
    let sharded = fabric.evaluate(&split.test)?;
    assert_eq!(reference.predictions, sharded.predictions);
    println!(
        "\naccuracy:   {:.2} % on both deployments ({} samples, bit-identical reads)",
        sharded.accuracy * 100.0,
        sharded.samples,
    );

    // 5. What tiling costs: every tile row re-drives its activated bitlines
    //    and the merge bus adds a per-tile-column load.
    println!(
        "telemetry:  delay x{:.2}, energy x{:.2} vs. the monolithic array",
        sharded.mean_delay / reference.mean_delay,
        sharded.mean_energy / reference.mean_energy,
    );

    // 6. The tile plan serializes through the serde JSON emitters — the
    //    same machinery the record bins write their BENCH_*.json with.
    println!(
        "tile plan as JSON: {}",
        febim_suite::core::json::to_string(plan)
    );
    Ok(())
}
