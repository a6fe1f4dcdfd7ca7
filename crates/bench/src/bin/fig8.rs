//! Regenerates Fig. 8: (a) the iris accuracy heat map over the feature and
//! likelihood quantization precisions, (b) the programmed 3×64 crossbar state
//! map at the chosen Q_f = 4 / Q_l = 2 operating point, and (c) the accuracy
//! distribution under FeFET threshold-voltage variation.

use febim_bench::{emit, eng};
use febim_core::{epoch_accuracy, variation_sweep, EngineConfig, FebimEngine, MonteCarlo, Table};
use febim_data::rng::seeded_rng;
use febim_data::split::stratified_split;
use febim_data::synthetic::iris_like;
use febim_quant::QuantConfig;

fn epochs() -> usize {
    std::env::var("FEBIM_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = iris_like(8000)?;
    let epochs = epochs();
    println!("averaging over {epochs} train/inference epochs per point\n");

    // Fig. 8(a): accuracy heat map over (Q_f, Q_l) in [1, 8]^2 for the
    // in-memory iris classifier, plus the software baseline for the Δacc
    // comparison.
    let mut heatmap = Table::new(
        "fig8a_accuracy_heatmap",
        &[
            "qf_bits",
            "ql_bits",
            "in_memory_accuracy",
            "software_baseline",
            "delta_acc",
        ],
    );
    let mut baseline_at_operating_point = 0.0;
    let mut accuracy_at_operating_point = 0.0;
    for qf in 1..=8u32 {
        for ql in 1..=8u32 {
            let config = EngineConfig::febim_default().with_quant(QuantConfig::new(qf, ql));
            let seed = 8100 + (qf * 8 + ql) as u64;
            let result = epoch_accuracy(&dataset, &config, &MonteCarlo::new(0.7, epochs, seed))?;
            let delta = result.software.mean - result.in_memory.mean;
            heatmap.push_numeric_row(&[
                qf as f64,
                ql as f64,
                result.in_memory.mean,
                result.software.mean,
                delta,
            ]);
            if qf == 4 && ql == 2 {
                baseline_at_operating_point = result.software.mean;
                accuracy_at_operating_point = result.in_memory.mean;
            }
        }
    }
    emit(&heatmap);
    println!(
        "operating point Q_f = 4 bit / Q_l = 2 bit: in-memory accuracy {:.2} % vs software {:.2} % (paper: 94.64 %)",
        100.0 * accuracy_at_operating_point,
        100.0 * baseline_at_operating_point
    );

    // Fig. 8(b): programmed crossbar state map (read currents) at the chosen
    // operating point.
    let split = stratified_split(&dataset, 0.7, &mut seeded_rng(8000))?;
    let engine = FebimEngine::fit(&split.train, EngineConfig::febim_default())?;
    let map = engine.current_map();
    let mut state_map = Table::new(
        "fig8b_crossbar_state_map",
        &["row", "column", "ids_a", "level"],
    );
    let levels = engine.program().levels();
    for (row, currents) in map.iter().enumerate() {
        for (column, &current) in currents.iter().enumerate() {
            let level = levels[row][column].map(|l| l as f64).unwrap_or(-1.0);
            state_map.push_numeric_row(&[row as f64, column as f64, current, level]);
        }
    }
    emit(&state_map);
    println!(
        "crossbar geometry: {} rows x {} columns, read currents between {} and {}",
        map.len(),
        map[0].len(),
        eng(
            map.iter().flatten().copied().fold(f64::INFINITY, f64::min),
            "A"
        ),
        eng(
            map.iter()
                .flatten()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
            "A"
        )
    );

    // Fig. 8(c): accuracy distribution vs σ_VTH.
    let sigmas = [0.0, 15.0, 30.0, 45.0];
    let points = variation_sweep(
        &dataset,
        &EngineConfig::febim_default(),
        &sigmas,
        &MonteCarlo::new(0.7, epochs, 8300),
    )?;
    let mut variation = Table::new(
        "fig8c_accuracy_vs_variation",
        &[
            "sigma_vth_mv",
            "mean_accuracy",
            "std_accuracy",
            "min_accuracy",
            "max_accuracy",
        ],
    );
    for point in &points {
        variation.push_numeric_row(&[
            point.sigma_vth_mv,
            point.stats.mean,
            point.stats.std_dev,
            point.stats.min,
            point.stats.max,
        ]);
    }
    emit(&variation);
    let drop = points.first().unwrap().stats.mean - points.last().unwrap().stats.mean;
    println!(
        "mean accuracy drop at sigma_VTH = 45 mV: {:.2} percentage points (paper: ~5 %)",
        100.0 * drop
    );
    Ok(())
}
