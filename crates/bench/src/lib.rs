//! # febim-bench
//!
//! Figure/table regeneration binaries and Criterion micro-benchmarks for the
//! FeBiM reproduction.
//!
//! Every data figure and table of the paper's evaluation section has a
//! dedicated binary that regenerates it, prints the series to the console and
//! writes CSV files under `target/experiments/`:
//!
//! | Binary   | Paper content |
//! |----------|---------------|
//! | `fig1c`  | Multi-level I_D-V_G characteristics |
//! | `fig4`   | Probability-to-state mapping and pulse counts |
//! | `fig5`   | Two-cell accumulation and WTA transient |
//! | `fig6`   | Delay/energy vs. array geometry |
//! | `fig7`   | Accuracy vs. feature/likelihood quantization |
//! | `fig8`   | Quantization heat map, crossbar state map, variation Monte-Carlo |
//! | `table1` | Cross-technology comparison |
//!
//! The extra `perf` binary records the before/after speedup of the
//! conductance-cached read path into `BENCH_inference.json`, the `fabric`
//! binary records tiled-fabric vs. monolithic-array throughput (plus the
//! tile plan and deployment telemetry) into `BENCH_fabric.json`, and the
//! `serving` binary sweeps the concurrent batch-serving pool over
//! replicas × batch size × backend into `BENCH_serving.json`.
//!
//! Run, for example, `cargo run -p febim-bench --bin fig6 --release`.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use febim_core::{default_experiment_dir, Table};

/// Minimum per-iteration wall time of `routine` in nanoseconds, measured in
/// calibrated batches until `target` total time has elapsed. The minimum
/// over batches is robust against scheduler noise. Shared by the `perf` and
/// `fabric` record bins.
pub fn measure_min_ns<F: FnMut()>(mut routine: F, target: Duration) -> f64 {
    routine(); // warm-up (also warms any conductance caches)
    let mut iters = 1u64;
    let mut elapsed;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            routine();
        }
        elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(5) || iters >= 1 << 22 {
            break;
        }
        iters *= 2;
    }
    let mut best = elapsed.as_nanos() as f64 / iters as f64;
    let mut total = elapsed;
    while total < target {
        let start = Instant::now();
        for _ in 0..iters {
            routine();
        }
        let batch = start.elapsed();
        best = best.min(batch.as_nanos() as f64 / iters as f64);
        total += batch;
    }
    best
}

/// Reads `"<key>": <number>` from a checked-in `*_BUDGET.json` file, or
/// `None` when the file, the key or a number after it is missing. Parsed by
/// hand — the vendored serde shim serializes only, so the budget files stay
/// plain JSON objects anything can read. Shared by every gated record bin.
pub fn load_budget(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let quoted = format!("\"{key}\"");
    let after_key = &text[text.find(&quoted)? + quoted.len()..];
    let value = after_key.trim_start().strip_prefix(':')?.trim_start();
    let end = value
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

/// Prints a table to the console and persists it as CSV under the default
/// experiment directory, reporting where it was written.
pub fn emit(table: &Table) {
    println!("{}", table.to_pretty());
    match table.write_csv(&default_experiment_dir()) {
        Ok(path) => println!("(written to {})\n", path.display()),
        Err(err) => println!("(could not write CSV: {err})\n"),
    }
}

/// Formats a physical quantity with an engineering prefix (fJ, ps, uA, ...).
pub fn eng(value: f64, unit: &str) -> String {
    let (scaled, prefix) = if value == 0.0 {
        (0.0, "")
    } else {
        let exponent = value.abs().log10().floor() as i32;
        match exponent {
            e if e <= -13 => (value * 1e15, "f"),
            e if e <= -10 => (value * 1e12, "p"),
            e if e <= -7 => (value * 1e9, "n"),
            e if e <= -4 => (value * 1e6, "u"),
            e if e <= -1 => (value * 1e3, "m"),
            e if e <= 2 => (value, ""),
            e if e <= 5 => (value * 1e-3, "k"),
            e if e <= 8 => (value * 1e-6, "M"),
            e if e <= 11 => (value * 1e-9, "G"),
            _ => (value * 1e-12, "T"),
        }
    };
    format!("{scaled:.2} {prefix}{unit}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_formatting_covers_common_ranges() {
        assert_eq!(eng(17.2e-15, "J"), "17.20 fJ");
        assert_eq!(eng(233.0e-12, "s"), "233.00 ps");
        assert_eq!(eng(0.5e-6, "A"), "500.00 nA");
        assert_eq!(eng(1.0e-6, "A"), "1.00 uA");
        assert_eq!(eng(581.4e12, "OPS/W"), "581.40 TOPS/W");
        assert_eq!(eng(26.32e6, "b/mm2"), "26.32 Mb/mm2");
        assert_eq!(eng(0.0, "J"), "0.00 J");
    }

    #[test]
    fn emit_writes_csv() {
        let mut table = Table::new("bench_lib_smoke", &["k", "v"]);
        table.push_row(&["a".to_string(), "1".to_string()]);
        emit(&table);
        let path = default_experiment_dir().join("bench_lib_smoke.csv");
        assert!(path.exists());
        std::fs::remove_file(path).ok();
    }
}
