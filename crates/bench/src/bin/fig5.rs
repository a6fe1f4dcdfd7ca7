//! Regenerates Fig. 5: (a)/(b) theoretical vs circuit-computed wordline
//! current for two cells storing P'_a and P'_b, and (c) the WTA transient
//! separating winner from loser in under 300 ps.

use febim_bench::{emit, eng};
use febim_circuit::{SensingChain, TransientConfig};
use febim_core::Table;
use febim_crossbar::{Activation, CrossbarLayout, ProgrammingMode, TileGrid, TilePlan};
use febim_device::LevelProgrammer;
use febim_quant::UniformQuantizer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fig. 5(a)/(b): sweep P'_a and P'_b over the paper's [-1.3, 1.0] range
    // (10 levels each), program two cells on the same wordline and compare the
    // accumulated wordline current against the sum of the target currents.
    let levels = 10usize;
    let quantizer = UniformQuantizer::new(-1.3, 1.0, levels)?;
    let programmer = LevelProgrammer::febim_default(levels)?;
    let layout = CrossbarLayout::new(1, 2, levels, false)?;

    let mut sweep = Table::new(
        "fig5ab_two_cell_accumulation",
        &[
            "p_prime_a",
            "p_prime_b",
            "iwl_theoretical_a",
            "iwl_simulated_a",
            "relative_error",
        ],
    );
    let mut worst_error = 0.0f64;
    for level_a in 0..levels {
        for level_b in 0..levels {
            let mut array = TileGrid::new(TilePlan::monolithic(layout), programmer.clone());
            array.program_cell(0, level_a, level_a, ProgrammingMode::Ideal)?;
            array.program_cell(0, levels + level_b, level_b, ProgrammingMode::Ideal)?;
            let activation =
                Activation::from_columns(array.layout(), &[level_a, levels + level_b])?;
            let simulated = array.wordline_current(0, &activation)?;
            let theoretical =
                programmer.target_current(level_a)? + programmer.target_current(level_b)?;
            let error = (simulated - theoretical).abs() / theoretical;
            worst_error = worst_error.max(error);
            sweep.push_numeric_row(&[
                quantizer.dequantize(level_a)?,
                quantizer.dequantize(level_b)?,
                theoretical,
                simulated,
                error,
            ]);
        }
    }
    emit(&sweep);
    println!(
        "worst-case relative mismatch between theoretical and simulated I_WL: {:.3} % (paper: exact match)",
        100.0 * worst_error
    );

    // Fig. 5(c): WTA transient for two wordlines at 0.2 uA and 2.0 uA (and the
    // reverse), sampled over 400 ps.
    let chain = SensingChain::febim_calibrated();
    let config = TransientConfig::new(5e-12, 400e-12)?;
    let mut transient = Table::new(
        "fig5c_wta_transient",
        &[
            "time_s",
            "iout_winner_case1_a",
            "iout_loser_case1_a",
            "iout_winner_case2_a",
            "iout_loser_case2_a",
        ],
    );
    let case1 = chain.transient(&[2.0e-6, 0.2e-6], &config)?;
    let case2 = chain.transient(&[0.2e-6, 2.0e-6], &config)?;
    for index in 0..case1.outputs[0].points.len() {
        transient.push_numeric_row(&[
            case1.outputs[0].points[index].time,
            case1.outputs[0].points[index].value,
            case1.outputs[1].points[index].value,
            case2.outputs[1].points[index].value,
            case2.outputs[0].points[index].value,
        ]);
    }
    emit(&transient);
    println!(
        "case 1 (I_WL1 > I_WL2): winner row {}, settling {}",
        case1.decision.winner,
        eng(case1.decision.settling_time, "s")
    );
    println!(
        "case 2 (I_WL2 > I_WL1): winner row {}, settling {}",
        case2.decision.winner,
        eng(case2.decision.settling_time, "s")
    );

    // Worst-case gap inside the Fig. 5(c) current range.
    let worst = chain.sense(&[0.2e-6, 0.3e-6], 2)?;
    println!(
        "worst-case (0.1 uA gap) WTA resolution: {} (paper: < 300 ps)",
        eng(worst.decision.settling_time, "s")
    );
    Ok(())
}
