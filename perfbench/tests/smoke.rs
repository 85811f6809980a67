//! Seconds-long smoke runs of every workload at tiny size, traced and
//! untraced, plus runs with a correctness gate made to fail on purpose.
//!
//! The program under test is taken from `PERFBENCH_PROFIRT` when set;
//! otherwise it is built once from the enclosing checkout into this
//! package's test scratch directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

const WORKLOADS: [&str; 3] = ["campaign-cpu", "campaign-net", "serve-open"];

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("perfbench-smoke")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn profirt() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(bin) = std::env::var_os("PERFBENCH_PROFIRT") {
            return PathBuf::from(bin);
        }
        let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("profirt-build");
        // Integration tests run from the package root, one level below
        // the repository root.
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--locked",
                "--quiet",
                "--bin",
                "profirt",
                "--manifest-path",
                "../Cargo.toml",
            ])
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .unwrap();
        assert!(status.success(), "building profirt failed");
        target.join("release").join("profirt")
    })
}

fn bench(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .arg("--profirt")
        .arg(profirt())
        .arg("--out")
        .arg(out)
        .output()
        .unwrap()
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_string()
}

fn listed(section: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--list-metrics")
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let mut names = Vec::new();
    let mut inside = false;
    for line in text.lines() {
        if !line.starts_with(' ') {
            inside = line.trim_end_matches(':') == section;
        } else if inside {
            names.push(line.split_whitespace().next().unwrap().to_string());
        }
    }
    names
}

fn run_tiny(workload: &str, trace: &str) {
    let out = bench(
        &[
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ],
        &scratch(&format!("{workload}-{trace}")),
    );
    let line = last_line(&out);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    let section = if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    };
    let names = listed(section);
    assert!(!names.is_empty());
    for name in names {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {line}"
        );
    }
}

#[test]
fn every_workload_runs_untraced() {
    for w in WORKLOADS {
        run_tiny(w, "0");
    }
}

#[test]
fn every_workload_runs_traced() {
    for w in WORKLOADS {
        run_tiny(w, "1");
    }
}

#[test]
fn a_wrong_daemon_answer_fails_the_run() {
    let out = bench(
        &[
            "--workload",
            "serve-open",
            "--seed",
            "4",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--tiny",
            "--inject-fault",
            "answer",
        ],
        &scratch("fault-answer"),
    );
    assert!(!out.status.success());
    assert!(last_line(&out).starts_with("{\"correct\": false"));
    assert!(String::from_utf8_lossy(&out.stdout).contains("GATE FAILED"));
}

#[test]
fn a_changed_campaign_digest_fails_the_run() {
    let out = bench(
        &[
            "--workload",
            "campaign-cpu",
            "--seed",
            "4",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--tiny",
            "--inject-fault",
            "digest",
        ],
        &scratch("fault-digest"),
    );
    assert!(!out.status.success());
    assert!(last_line(&out).starts_with("{\"correct\": false"));
}

#[test]
fn outputs_stay_under_the_given_directory() {
    let out_dir = scratch("outputs");
    let out = bench(
        &[
            "--workload",
            "campaign-net",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--tiny",
        ],
        &out_dir,
    );
    assert!(out.status.success());
    let run = out_dir.join("campaign-net-seed5-trace0");
    assert!(run.join("spec-0.json").is_file());
    assert!(run.join("campaign-out").is_dir());
}

#[test]
fn the_launcher_refuses_a_directory_without_the_repository() {
    let dir = scratch("bare");
    std::fs::create_dir_all(dir.join("perfbench")).unwrap();
    std::fs::copy("run.sh", dir.join("perfbench/run.sh")).unwrap();
    let out = Command::new("bash")
        .args([
            "perfbench/run.sh",
            "--workload",
            "serve-open",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
