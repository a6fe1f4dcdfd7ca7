//! FeBiM benchmark: end-to-end and per-layer figures of three workloads.
//!
//! ```console
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <iris-pool|fig6-batch|registry-churn|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints every end-to-end metric; with `--trace 1`
//! it prints every per-layer metric and writes its spans to
//! `perfbench/traces/`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. A run whose answers
//! break a contract exits with code 1; bad arguments exit with code 2.
//! `--workload all` runs each workload in its own child process.

mod common;
mod fig6_batch;
mod host;
mod iris_pool;
mod registry_churn;
mod replay;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use common::{Args, Report};

const WORKLOADS: [&str; 3] = ["iris-pool", "fig6-batch", "registry-churn"];

/// Writes the traced run's spans and notes where they went.
pub fn write_trace(tracer: &trace::Tracer, args: &Args, info: &mut Vec<(&'static str, String)>) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.csv", args.workload, args.seed));
    info.push(("spans", tracer.len().to_string()));
    match tracer.write_csv(&path) {
        Ok(()) => info.push(("trace_file", path.display().to_string())),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_report(args: &Args, host_facts: Vec<(&'static str, String)>, report: &Report) {
    println!(
        "{} seed {} ({} s{}):",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    for (name, unit, value) in report.metrics.entries() {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let mut info = host_facts;
    info.extend(report.info.iter().cloned());
    let fields: Vec<String> = info
        .iter()
        .map(|(key, value)| format!("{}: {}", json_string(key), json_string(value)))
        .collect();
    println!("run-info {{{}}}", fields.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .entries()
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// Runs every workload in its own child process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("cannot locate the benchmark executable: {err}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{workload} failed: {status}");
                ok = false;
            }
            Err(err) => {
                eprintln!("{workload} did not start: {err}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}");
            eprintln!(
                "usage: --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Taken before a workload pins itself to one CPU.
    let host_facts = vec![
        ("nproc", host::nproc().to_string()),
        ("cpu_set", host::cpu_set()),
    ];
    let report = match args.workload.as_str() {
        "all" => return run_all(&args),
        "iris-pool" => iris_pool::run(&args),
        "fig6-batch" => fig6_batch::run(&args),
        "registry-churn" => registry_churn::run(&args),
        other => {
            eprintln!("unknown workload {other}; expected one of {WORKLOADS:?} or all");
            return ExitCode::from(2);
        }
    };
    print_report(&args, host_facts, &report);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} answers broke their contract",
            args.workload, report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}
