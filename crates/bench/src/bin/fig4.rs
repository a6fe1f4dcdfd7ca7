//! Regenerates Fig. 4: (a) the truncation → log → normalization → quantization
//! → I_DS mapping of an example probability column, and (b) the gate pulse
//! number required to program each FeFET state.

use febim_bench::{emit, eng};
use febim_core::Table;
use febim_device::LevelProgrammer;
use febim_quant::{column_normalized, truncated_log, UniformQuantizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fig. 4(a): the paper's illustrative example uses probabilities spanning
    // [0.001, 1.0], a truncation floor of 0.1, 10 quantization levels and the
    // 0.1 uA - 1.0 uA current window.
    let probabilities = [1.0, 0.75, 0.5, 0.35, 0.25, 0.18, 0.12, 0.08, 0.03, 0.001];
    let floor = 0.1;
    let logs: Vec<f64> = probabilities
        .iter()
        .map(|&p| truncated_log(p, floor))
        .collect();
    let normalized = column_normalized(&logs);
    let low = normalized.iter().copied().fold(f64::INFINITY, f64::min);
    let quantizer = UniformQuantizer::new(low, 1.0, 10)?;
    let programmer = LevelProgrammer::febim_default(10)?;

    let mut mapping = Table::new(
        "fig4a_probability_mapping",
        &["p", "p_truncated_log", "p_prime", "level", "ids_a"],
    );
    for (index, &p) in probabilities.iter().enumerate() {
        let level = quantizer.quantize(normalized[index]);
        mapping.push_numeric_row(&[
            p,
            logs[index],
            normalized[index],
            level as f64,
            programmer.target_current(level)?,
        ]);
    }
    emit(&mapping);
    println!(
        "normalized log-probability range: [{:.2}, 1.00] (paper: [-1.3, 1.0])",
        low
    );

    // Fig. 4(b): pulse count vs programmed state for the ten-level window.
    let states = programmer.all_states()?;
    let mut pulses = Table::new(
        "fig4b_pulse_count_vs_state",
        &["level", "target_ids_a", "polarization", "gate_pulse_count"],
    );
    for state in &states {
        pulses.push_numeric_row(&[
            state.level as f64,
            state.target_current,
            state.polarization.value(),
            state.write_config.pulse_count as f64,
        ]);
    }
    emit(&pulses);
    println!(
        "pulse count range: {} pulses for {} up to {} pulses for {} (paper: ~40 to ~70)",
        states.first().unwrap().write_config.pulse_count,
        eng(states.first().unwrap().target_current, "A"),
        states.last().unwrap().write_config.pulse_count,
        eng(states.last().unwrap().target_current, "A"),
    );
    Ok(())
}
