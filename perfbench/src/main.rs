//! `perfbench` — the end-to-end and per-layer benchmark of `profirt`.
//!
//! ```text
//! perfbench --workload <campaign-cpu|campaign-net|serve-open> --seed <n>
//!           --seconds <s> --trace <0|1> [--profirt PATH] [--out DIR]
//!           [--tiny] [--inject-fault answer|digest]
//! perfbench --list-metrics
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
//! when every correctness gate passed. Outputs go under `--out` (default
//! `.bench_out`, relative to the working directory).

mod corpus;
mod layers;
mod load;
mod program;
mod report;
mod stats;
mod sys;
mod trace;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Fault, Params, Workload};

/// The end-to-end metrics, in report order, with their units. The
/// daemon's p99 is not among them: on a shared 2-vCPU machine it moves by
/// up to half with the host's load between otherwise equal runs, so it is
/// printed in the notes and reported by the traced run as `serve.p99_us`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("campaign_units_per_s", "1/s"),
    ("serve_p50_us", "us"),
    ("serve_max_rps", "1/s"),
    ("fail_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    params: Params,
    trace: bool,
    profirt: PathBuf,
    out: PathBuf,
    fault: Option<Fault>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = need("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let profirt = value("--profirt")
        .map(PathBuf::from)
        .unwrap_or_else(|| target.join("release").join("profirt"));
    let fault = match value("--inject-fault") {
        None => None,
        Some(f) => Some(Fault::parse(f).ok_or_else(|| format!("unknown fault {f:?}"))?),
    };
    Ok(Args {
        params: Params {
            workload,
            seed,
            seconds,
            tiny: argv.iter().any(|a| a == "--tiny"),
        },
        trace,
        profirt,
        out: PathBuf::from(value("--out").unwrap_or(".bench_out")),
        fault,
    })
}

fn list_metrics() {
    println!("end_to_end:");
    for (name, unit) in END_TO_END {
        println!("  {name} {unit}");
    }
    println!("per_layer:");
    for (name, unit) in traced::per_layer_metrics() {
        println!("  {name} {unit}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list-metrics") {
        list_metrics();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.profirt.is_file() {
        eprintln!(
            "perfbench: program under test not found at {}",
            args.profirt.display()
        );
        return ExitCode::from(2);
    }
    let p = &args.params;
    let run_name = format!(
        "{}-seed{}-trace{}",
        p.workload.name(),
        p.seed,
        u8::from(args.trace)
    );
    let result = program::fresh_dir(&args.out, &run_name).and_then(|dir| {
        if args.trace {
            traced::run(p, &args.profirt, &dir)
        } else {
            workload::run(p, &args.profirt, &dir, args.fault)
        }
    });
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", p.workload.name());
            return ExitCode::FAILURE;
        }
    };

    let expected: Vec<(String, &str)> = if args.trace {
        traced::per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let got: Vec<(String, &str)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect();
    let mut want_sorted = expected.clone();
    let mut got_sorted = got.clone();
    want_sorted.sort();
    got_sorted.sort();
    if want_sorted != got_sorted {
        eprintln!("perfbench: internal error: reported metrics {got:?} differ from {expected:?}");
        return ExitCode::FAILURE;
    }

    println!(
        "perfbench {} seed {} seconds {} trace {} workers {} (available parallelism {})",
        p.workload.name(),
        p.seed,
        p.seconds,
        u8::from(args.trace),
        workload::workers(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, why) in &report.unavailable {
        println!("  UNAVAILABLE {name}: {why} (reported as 0)");
    }
    for failure in &report.gate_failures {
        println!("  GATE FAILED: {failure}");
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
