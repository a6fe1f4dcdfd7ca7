//! # febim-bench
//!
//! Figure/table regeneration binaries and record binaries for the FeBiM
//! reproduction.
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
//! Five record binaries measure the system beyond the paper and write a
//! JSON record (default path in the current directory). Each takes `--quick`
//! (the short run CI uses), `--out PATH` and `--budget PATH`, and panics
//! when a gate misses its limit. A limit is a key of the budget file or a
//! constant:
//!
//! | Binary      | Record                 | Budget                  | Gates |
//! |-------------|------------------------|-------------------------|-------|
//! | `serving`   | `BENCH_serving.json`   | `SERVING_BUDGET.json`   | tiled grouped-read speedup ≥ 1 at batch ≥ 8; pool within 2x of sequential inference at batch ≥ 8; iris pool floor ≤ `pool_ns_per_request_budget` |
//! | `noise`     | `BENCH_noise.json`     | `NOISE_BUDGET.json`     | ideal read ≤ `ideal_ns_per_inference_budget`; exact accuracy recovery after recalibration; refresh work in every drifted scenario |
//! | `faults`    | `BENCH_faults.json`    | `FAULT_BUDGET.json`     | detection ≤ `max_detection_periods`; repair ≤ `max_repair_pulses_per_cell`; healed retention ≥ `min_healed_retention` |
//! | `footprint` | `BENCH_footprint.json` | `FOOTPRINT_BUDGET.json` | fig6 4-bit column reduction ≥ `min_column_reduction_fig6_4bit`; accuracy delta ≤ `max_accuracy_delta`; fig6 4-bit packed read ≤ `packed_read_ns_per_inference_budget`; fig6 4-bit energy ratio ≤ `max_packed_energy_ratio_fig6_4bit` |
//! | `registry`  | `BENCH_registry.json`  | `REGISTRY_BUDGET.json`  | every tenant bit-identical to its dedicated engine; snapshot round trip bit-identical; best tenant ≤ `registry_ns_per_request_budget` |
//!
//! They share one harness: [`Record`] parses the flags, reads budget keys,
//! stamps the [`Header`] and writes the JSON, and [`Gate`] checks one
//! measured value against its limit.
//!
//! Run, for example, `cargo run -p febim-bench --bin fig6 --release`.

#![warn(missing_docs)]

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde::json::Value;
use serde::Serialize;

use febim_core::{default_experiment_dir, FebimEngine, InferenceBackend, Table};
use febim_data::Dataset;

/// The command line of one record binary and the record it writes.
#[derive(Debug)]
pub struct Record {
    bench: &'static str,
    quick: bool,
    out: String,
    budget: String,
}

/// The stamp at the head of every record.
#[derive(Debug, Serialize)]
pub struct Header {
    /// Which record this is (`serving`, `noise`, ...).
    bench: &'static str,
    /// When the record was written, in seconds since the Unix epoch.
    generated_unix_s: u64,
    /// Whether the run took the short `--quick` measurement.
    quick: bool,
}

impl Record {
    /// Parses the flags of a gated binary: `--quick`, `--out PATH` (default
    /// `BENCH_<bench>.json`) and `--budget PATH` (default `budget`).
    pub fn gated(bench: &'static str, budget: &str) -> Self {
        Self::from_args(bench, budget, std::env::args().skip(1).collect())
    }

    fn from_args(bench: &'static str, budget: &str, args: Vec<String>) -> Self {
        let value = |flag: &str| {
            let at = args.iter().position(|arg| arg == flag)?;
            args.get(at + 1).cloned()
        };
        Self {
            bench,
            quick: args.iter().any(|arg| arg == "--quick"),
            out: value("--out").unwrap_or_else(|| format!("BENCH_{bench}.json")),
            budget: value("--budget").unwrap_or_else(|| budget.to_string()),
        }
    }

    /// `quick` in a `--quick` run, `full` otherwise.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// `"quick"` or `"full"`, for the opening line of a run.
    pub fn mode(&self) -> &'static str {
        self.pick("quick", "full")
    }

    /// Reads `key` from the budget file. A read that fails prints what went
    /// wrong, naming the file and the key, and exits 1.
    pub fn budget(&self, key: &str) -> f64 {
        let path = &self.budget;
        load_budget(path, key).unwrap_or_else(|err| {
            eprintln!("{err}; regenerate {path} or pass --budget PATH");
            std::process::exit(1);
        })
    }

    /// The header of this run's record.
    pub fn header(&self) -> Header {
        Header {
            bench: self.bench,
            generated_unix_s: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |elapsed| elapsed.as_secs()),
            quick: self.quick,
        }
    }

    /// Writes `record` as pretty JSON to the `--out` path, or exits 1.
    pub fn write<T: Serialize>(&self, record: &T) {
        let out = &self.out;
        match std::fs::write(out, serde::json::to_string_pretty(record) + "\n") {
            Ok(()) => println!("\n(written to {out})"),
            Err(err) => {
                eprintln!("could not write {out}: {err}");
                std::process::exit(1);
            }
        }
    }
}

/// Reads the number under `key` in the top-level object of the JSON file at
/// `path`. Every error names the file and the key.
fn load_budget(path: &str, key: &str) -> Result<f64, String> {
    let fail = |why: &dyn std::fmt::Display| format!("could not read {key} from {path}: {why}");
    let text = std::fs::read_to_string(path).map_err(|err| fail(&err))?;
    let budget = serde::json::parse(&text).map_err(|err| fail(&err))?;
    match budget.get(key) {
        Some(Value::Float(value)) => Ok(*value),
        Some(Value::Int(value)) => Ok(*value as f64),
        Some(_) => Err(fail(&"not a number")),
        None => Err(fail(&"no such top-level key")),
    }
}

/// Which side of its limit a gated value must stay on.
#[derive(Clone, Copy)]
enum Direction {
    AtMost,
    AtLeast,
}

/// One regression gate of a record binary: a measured value must stay at
/// or under (or at or over) a limit.
///
/// A timing gate can carry a re-measure closure. When the value misses, the
/// gate re-measures up to three times and keeps the best value seen, so one
/// noisy run on a loaded host does not fail the gate.
pub struct Gate<'a> {
    name: &'static str,
    limit: f64,
    direction: Direction,
    remeasure: Option<Box<dyn FnMut() -> f64 + 'a>>,
}

impl<'a> Gate<'a> {
    /// A gate on `name` that holds while the value is at most `limit`.
    pub fn at_most(name: &'static str, limit: f64) -> Self {
        Self::new(name, limit, Direction::AtMost)
    }

    /// A gate on `name` that holds while the value is at least `limit`.
    pub fn at_least(name: &'static str, limit: f64) -> Self {
        Self::new(name, limit, Direction::AtLeast)
    }

    fn new(name: &'static str, limit: f64, direction: Direction) -> Self {
        Self {
            name,
            limit,
            direction,
            remeasure: None,
        }
    }

    /// Lets the gate take up to three fresh measurements from `measure`
    /// before it fails.
    pub fn remeasure(mut self, measure: impl FnMut() -> f64 + 'a) -> Self {
        self.remeasure = Some(Box::new(measure));
        self
    }

    fn holds(&self, value: f64) -> bool {
        match self.direction {
            Direction::AtMost => value <= self.limit,
            Direction::AtLeast => value >= self.limit,
        }
    }

    /// Checks `value` against the limit, re-measuring while it misses, and
    /// prints one pass/fail line. Returns the final (best) value.
    ///
    /// # Panics
    ///
    /// When the final value misses the limit; the message names the value
    /// and the limit.
    pub fn check(mut self, mut value: f64) -> f64 {
        if let Some(mut measure) = self.remeasure.take() {
            for attempt in 1..=3 {
                if self.holds(value) {
                    break;
                }
                println!(
                    "re-measuring {} (attempt {attempt}, measured {value:.3}, limit {})",
                    self.name, self.limit
                );
                let fresh = measure();
                value = match self.direction {
                    Direction::AtMost => value.min(fresh),
                    Direction::AtLeast => value.max(fresh),
                };
            }
        }
        let relation = match self.direction {
            Direction::AtMost => "<=",
            Direction::AtLeast => ">=",
        };
        let verdict = if self.holds(value) { "pass" } else { "FAIL" };
        println!(
            "gate {}: {value:.3} {relation} {} ({verdict})",
            self.name, self.limit
        );
        assert!(
            self.holds(value),
            "gate {} failed: measured {value}, limit {relation} {}",
            self.name,
            self.limit
        );
        value
    }
}

/// `count` requests cycling through the samples of `test`.
pub fn request_stream(test: &Dataset, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|index| {
            test.sample(index % test.n_samples())
                .expect("sample")
                .to_vec()
        })
        .collect()
}

/// ns/inference of `engine` answering `samples` one at a time through one
/// reused scratch, best of `passes` passes.
pub fn measure_reads<B: InferenceBackend>(
    engine: &FebimEngine<B>,
    samples: &[Vec<f64>],
    passes: usize,
) -> f64 {
    let mut scratch = engine.make_scratch();
    let mut best_ns = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        for sample in samples {
            engine.infer_into(sample, &mut scratch).expect("infer");
        }
        best_ns = best_ns.min(start.elapsed().as_nanos() as f64 / samples.len() as f64);
    }
    best_ns
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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn record_flags_default_to_the_bench_files() {
        let record = Record::from_args("serving", "SERVING_BUDGET.json", args(""));
        assert!(!record.quick);
        assert_eq!(record.out, "BENCH_serving.json");
        assert_eq!(record.budget, "SERVING_BUDGET.json");
        assert_eq!((record.pick(1, 2), record.mode()), (2, "full"));
        let gated = Record::from_args("noise", "NOISE_BUDGET.json", args("--out"));
        assert_eq!(
            gated.out, "BENCH_noise.json",
            "a flag without a value keeps the default"
        );
        assert_eq!(gated.budget, "NOISE_BUDGET.json");
    }

    #[test]
    fn record_flags_override_the_defaults() {
        let line = "--budget b.json --quick --out o.json";
        let gated = Record::from_args("faults", "FAULT_BUDGET.json", args(line));
        assert!(gated.quick);
        assert_eq!((gated.pick(1, 2), gated.mode()), (1, "quick"));
        assert_eq!(gated.out, "o.json");
        assert_eq!(gated.budget, "b.json");
    }

    #[test]
    fn a_record_writes_its_header_ahead_of_the_body() {
        #[derive(Serialize)]
        struct Body {
            header: Header,
            rows: Vec<u32>,
        }
        let out = std::env::temp_dir().join("febim_bench_record.json");
        let out = out.to_string_lossy().into_owned();
        let record = Record::from_args(
            "smoke",
            "SMOKE_BUDGET.json",
            args(&format!("--quick --out {out}")),
        );
        record.write(&Body {
            header: record.header(),
            rows: vec![1, 2],
        });
        let written = serde::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let header = written.get("header").unwrap();
        assert_eq!(header.get("bench").unwrap().as_str(), Some("smoke"));
        assert_eq!(header.get("quick"), Some(&Value::Bool(true)));
        assert!(header.get("generated_unix_s").unwrap().as_int().unwrap() > 0);
        assert_eq!(written.get("rows").unwrap().as_array().unwrap().len(), 2);
        std::fs::remove_file(out).ok();
    }

    #[test]
    fn request_streams_cycle_the_test_split() {
        let dataset = febim_data::synthetic::iris_like(5).unwrap();
        let stream = request_stream(&dataset, dataset.n_samples() + 2);
        assert_eq!(stream.len(), dataset.n_samples() + 2);
        assert_eq!(stream[dataset.n_samples() + 1], stream[1]);
        assert_eq!(stream[1], dataset.sample(1).unwrap());
    }

    /// Writes `text` to a budget file in the temp directory and returns its
    /// path.
    fn budget_file(name: &str, text: &str) -> String {
        let dir = std::env::temp_dir().join("febim_bench_budgets");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn assert_names_file_and_key(err: &str, path: &str, key: &str) {
        assert!(err.contains(path), "{err}");
        assert!(err.contains(key), "{err}");
    }

    #[test]
    fn budget_reads_fail_naming_the_file_and_the_key() {
        let missing = std::env::temp_dir().join("febim_bench_no_such_budget.json");
        let missing = missing.to_string_lossy();
        let err = load_budget(&missing, "limit").unwrap_err();
        assert_names_file_and_key(&err, &missing, "limit");

        let path = budget_file("keys.json", r#"{"other": 1.0, "nested": {"limit": 2.0}}"#);
        let err = load_budget(&path, "limit").unwrap_err();
        assert_names_file_and_key(&err, &path, "limit");

        let path = budget_file("text.json", r#"{"limit": "500"}"#);
        let err = load_budget(&path, "limit").unwrap_err();
        assert_names_file_and_key(&err, &path, "limit");
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn budget_keys_are_looked_up_in_the_top_level_object() {
        // A string value that spells a key name must not shadow that key.
        let path = budget_file(
            "shadow.json",
            r#"{"metric": "max_accuracy_delta", "max_accuracy_delta": 0.0, "count": 512}"#,
        );
        assert_eq!(load_budget(&path, "max_accuracy_delta"), Ok(0.0));
        assert_eq!(load_budget(&path, "count"), Ok(512.0));
    }

    #[test]
    fn checked_in_budgets_hold_every_gated_key() {
        let gated = [
            ("SERVING_BUDGET.json", &["pool_ns_per_request_budget"][..]),
            ("NOISE_BUDGET.json", &["ideal_ns_per_inference_budget"]),
            (
                "FAULT_BUDGET.json",
                &[
                    "max_detection_periods",
                    "max_repair_pulses_per_cell",
                    "min_healed_retention",
                ],
            ),
            (
                "FOOTPRINT_BUDGET.json",
                &[
                    "min_column_reduction_fig6_4bit",
                    "max_accuracy_delta",
                    "packed_read_ns_per_inference_budget",
                    "max_packed_energy_ratio_fig6_4bit",
                ],
            ),
            ("REGISTRY_BUDGET.json", &["registry_ns_per_request_budget"]),
        ];
        for (file, keys) in gated {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            for key in keys {
                let value = load_budget(&path, key).unwrap();
                assert!(value.is_finite() && value >= 0.0, "{file} {key} = {value}");
            }
        }
    }

    #[test]
    fn a_gate_keeps_the_best_remeasured_value() {
        let mut fresh = [900.0, 400.0, 700.0].into_iter();
        let value = Gate::at_most("ns", 500.0)
            .remeasure(|| fresh.next().unwrap())
            .check(1000.0);
        assert_eq!(value, 400.0);
        assert_eq!(
            fresh.next(),
            Some(700.0),
            "a passing value stops the re-measure"
        );
        let mut calls = 0;
        let value = Gate::at_least("speedup", 1.0)
            .remeasure(|| {
                calls += 1;
                0.5
            })
            .check(1.2);
        assert_eq!((value, calls), (1.2, 0));
    }

    #[test]
    #[should_panic(expected = "gate speedup failed: measured 0.875, limit >= 1")]
    fn a_gate_fails_after_three_remeasures() {
        let mut calls = 0;
        Gate::at_least("speedup", 1.0)
            .remeasure(|| {
                calls += 1;
                assert!(calls <= 3, "at most three re-measures");
                0.5 + 0.125 * calls as f64
            })
            .check(0.5);
    }
}
