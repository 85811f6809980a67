//! The three workloads and their untraced, end-to-end run.
//!
//! Every workload drives both of the program's user surfaces with inputs
//! generated from the seed:
//!
//! * a batch surface — `campaign run` on a generated spec for the two
//!   campaign workloads, `serve --stdin` over the request corpus for
//!   `serve-open` — timed as work units per second of wall time;
//! * the TCP daemon, `serve --listen`, offered open-loop traffic built from
//!   the same inputs, timed per request from its due send time.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use profirt_base::json;
use profirt_experiments::campaign::{CampaignSpec, ScenarioKind};

use crate::corpus::{Corpus, Mix};
use crate::layers::CPU_TESTS;
use crate::load::{self, PhaseResult, Rung, Wait};
use crate::program::{self, Daemon};
use crate::report::Report;
use crate::stats;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §2 task-set tests through warm campaign chains.
    CampaignCpu,
    /// PROFIBUS networks: analyses plus static and dynamic simulation.
    CampaignNet,
    /// Open-loop admission traffic to the daemon.
    ServeOpen,
}

impl Workload {
    /// Parses the command-line spelling.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "campaign-cpu" => Some(Workload::CampaignCpu),
            "campaign-net" => Some(Workload::CampaignNet),
            "serve-open" => Some(Workload::ServeOpen),
            _ => None,
        }
    }

    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignCpu => "campaign-cpu",
            Workload::CampaignNet => "campaign-net",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// The questions its daemon traffic asks.
    pub fn mix(self) -> Mix {
        match self {
            Workload::CampaignCpu => Mix::Tasks,
            Workload::CampaignNet => Mix::Rings,
            Workload::ServeOpen => Mix::Admission,
        }
    }
}

/// The fixed rate at which daemon latency is reported, requests/s: a
/// lightly loaded daemon, a few per cent of `serve_max_rps`. Each answer's
/// newline waits for the client's next request on its connection (see
/// `load`), so at this rate the p50 is about 3.5 ms, mostly that wait.
/// The rest, the daemon's work and every wake-up of an idle CPU, is what a
/// slow spell of a shared machine stretches, by up to milliseconds; at
/// 4000 req/s it was a third of the p50 and such spells spread the p50 of
/// runs of the same code by up to 30%, and at 1000 req/s they still moved
/// it by 30%. The reference traffic is sent with [`Wait::Spin`] so that
/// the generator's own wake-ups stay out of it.
pub const REFERENCE_RATE: f64 = 500.0;

/// The rate each climb of the ladder starts from, requests/s.
const CLIMB_START_RATE: f64 = 4000.0;

/// Requests per latency window: the reported p50 and p99 are medians over
/// consecutive windows of this many requests, each window's p99 with ten
/// samples beyond it.
pub const LATENCY_WINDOW: usize = 1000;

/// Worker threads for the campaign and the daemon: at most two, and no
/// more than the machine has.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(2))
        .unwrap_or(1)
}

/// Connections the load generator opens.
pub const CONNS: usize = 2;

/// Latency limit on a ladder rung's median-window tail percentile, µs.
/// It sits above the pauses of up to a few tens of milliseconds a shared
/// machine takes, so a rung fails when the daemon stops keeping up (its
/// backlog then passes the limit's worth of traffic within the rung)
/// rather than when the host hiccups.
pub const LIMIT_US: f64 = 50_000.0;

/// Seconds each ladder rung offers traffic.
const RUNG_SECS: f64 = 0.4;

/// Independent climbs of the ladder per run, spread between the batch
/// runs; `serve_max_rps` is the median of their results.
const CLIMBS: usize = 3;

/// How long a phase may take to drain once its last request is sent.
const DRAIN: Duration = Duration::from_secs(2);

/// Seconds of untimed traffic on fresh connections.
const WARMUP_SECS: f64 = 0.3;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Sizes and durations of one run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Shrinks every input for smoke tests.
    pub tiny: bool,
}

impl Params {
    /// Request lines in the corpus.
    pub fn corpus_lines(&self) -> usize {
        if self.tiny {
            200
        } else {
            4000
        }
    }

    /// Seconds of traffic at the reference rate: at least one latency
    /// window.
    pub fn reference_secs(&self) -> f64 {
        (0.2 * self.seconds).max(LATENCY_WINDOW as f64 / REFERENCE_RATE)
    }

    /// Runs of the batch surface, fixed by `--seconds` so every run
    /// attempts the same number of units. For `serve-open` they are passes
    /// over the one corpus. For a campaign workload each runs a spec of
    /// its own, sub-seeds `0..n - 1`, and the last repeats spec 0 for the
    /// digest gate: the generated task sets and rings set most of a
    /// campaign's cost, so distinct specs average over more of them than
    /// repeats would.
    pub fn batch_runs(&self) -> usize {
        let nominal_s = match self.workload {
            Workload::CampaignCpu => 0.8,
            Workload::CampaignNet => 1.0,
            Workload::ServeOpen => 0.3,
        };
        ((0.4 * self.seconds / nominal_s).round() as usize).max(2)
    }

    /// The campaign spec of a campaign workload with sub-seed `sub`.
    pub fn spec(&self, sub: u64) -> Option<CampaignSpec> {
        // Keep the spec seed exactly representable as a JSON number.
        let seed = (self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ sub.wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ 0x5EED)
            & ((1 << 48) - 1);
        let spec = match (self.workload, self.tiny) {
            (Workload::ServeOpen, _) => return None,
            (Workload::CampaignCpu, false) => CampaignSpec::new(
                "perfbench-cpu",
                "tasks x utilisation x deadline fraction x section-2 tests",
                ScenarioKind::Cpu,
            )
            .replications(4)
            .axis_i64("tasks", &[8, 16, 24])
            .axis_f64("utilization", &[0.7, 0.85, 0.95])
            .axis_f64("deadline_frac", &[0.6, 1.0])
            .axis_str("policy", &CPU_TESTS),
            (Workload::CampaignCpu, true) => CampaignSpec::new(
                "perfbench-cpu",
                "smoke-sized cpu campaign",
                ScenarioKind::Cpu,
            )
            .replications(2)
            .axis_i64("tasks", &[6])
            .axis_f64("utilization", &[0.8])
            .axis_f64("deadline_frac", &[1.0])
            .axis_str("policy", &CPU_TESTS),
            (Workload::CampaignNet, false) => CampaignSpec::new(
                "perfbench-net",
                "masters x streams x tightness x churn x criticality x policy, simulated",
                ScenarioKind::Network,
            )
            .replications(3)
            .sim_horizon(20_000_000)
            .axis_i64("masters", &[2, 4])
            .axis_i64("streams", &[3, 6])
            .axis_f64("tightness", &[0.6, 1.0])
            .axis_str("churn", &["none", "light"])
            .axis_str("criticality", &["all-hi", "mixed"])
            .axis_str("policy", &["fcfs", "dm", "edf"]),
            (Workload::CampaignNet, true) => CampaignSpec::new(
                "perfbench-net",
                "smoke-sized network campaign",
                ScenarioKind::Network,
            )
            .replications(1)
            .sim_horizon(1_000_000)
            .axis_i64("masters", &[2])
            .axis_i64("streams", &[3])
            .axis_f64("tightness", &[0.8])
            .axis_str("churn", &["none", "light"])
            .axis_str("criticality", &["all-hi", "mixed"])
            .axis_str("policy", &["dm"]),
        };
        let mut spec = spec;
        spec.seed = seed;
        spec.workers = workers();
        Some(spec)
    }

    /// The corpus seed.
    pub fn corpus_seed(&self) -> u64 {
        self.seed ^ 0xA11C_E5ED
    }
}

/// Generated inputs, written under the run's directory.
pub struct Inputs {
    /// The campaign spec files of a campaign workload, one per sub-seed.
    pub specs: Vec<(CampaignSpec, PathBuf)>,
    /// The request corpus and its reference answers.
    pub corpus: Corpus,
    /// The corpus as a file, one request per line.
    pub corpus_file: PathBuf,
}

/// Generates and writes the inputs of `p` under `dir`.
pub fn make_inputs(p: &Params, dir: &Path) -> Result<Inputs, String> {
    let mut specs = Vec::new();
    for sub in 0..p.batch_runs() as u64 - 1 {
        let Some(spec) = p.spec(sub) else { break };
        spec.validate().map_err(|e| e.to_string())?;
        let path = dir.join(format!("spec-{sub}.json"));
        std::fs::write(&path, spec.to_json().pretty() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        specs.push((spec, path));
    }
    let corpus = Corpus::generate(p.workload.mix(), p.corpus_seed(), p.corpus_lines(), true)?;
    let corpus_file = dir.join("requests.jsonl");
    std::fs::write(&corpus_file, corpus.lines.join("\n") + "\n")
        .map_err(|e| format!("write {}: {e}", corpus_file.display()))?;
    Ok(Inputs {
        specs,
        corpus,
        corpus_file,
    })
}

/// One `campaign run` and what its artifacts say.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// Wall seconds of the process.
    pub wall_s: f64,
    /// Peak resident memory, kilobytes.
    pub max_rss_kb: u64,
    /// Work units in the plan.
    pub units: usize,
    /// Units whose evaluation errored.
    pub unit_errors: usize,
    /// Digest of `units.csv` without its timing column.
    pub digest: u64,
    /// Whether the process exited 0 and printed the contract verdict a
    /// simulated campaign must print.
    pub contract_ok: bool,
}

/// Reads a `units.csv`.
pub fn read_units_csv(path: &Path) -> Result<(Vec<String>, Vec<Vec<String>>), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header: Vec<String> = lines
        .next()
        .ok_or("units.csv is empty")?
        .split(',')
        .map(str::to_string)
        .collect();
    let rows = lines
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect();
    Ok((header, rows))
}

/// FNV-1a digest of a `units.csv` table with the timing column removed.
pub fn rows_digest(header: &[String], rows: &[Vec<String>]) -> u64 {
    let skip = header.iter().position(|h| h == "unit_micros");
    let mut h = stats::FNV_BASIS;
    for row in std::iter::once(header).chain(rows.iter().map(Vec::as_slice)) {
        for (i, cell) in row.iter().enumerate() {
            if Some(i) != skip {
                h = stats::fnv1a(h, cell.as_bytes());
                h = stats::fnv1a(h, b",");
            }
        }
        h = stats::fnv1a(h, b"\n");
    }
    h
}

/// Sums a `units.csv` column; `None` when any cell is unavailable (`-`),
/// so a missing counter is never reported as a sum.
pub fn column_sum(table: &(Vec<String>, Vec<Vec<String>>), name: &str) -> Option<f64> {
    let col = table.0.iter().position(|h| h == name)?;
    table
        .1
        .iter()
        .map(|r| r.get(col).and_then(|c| c.parse::<f64>().ok()))
        .sum()
}

fn count_unit_errors(summary: &Path) -> Result<usize, String> {
    let text =
        std::fs::read_to_string(summary).map_err(|e| format!("read {}: {e}", summary.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", summary.display()))?;
    let units = doc
        .get("units")
        .and_then(|u| u.as_array())
        .ok_or("summary.json has no units array")?;
    Ok(units
        .iter()
        .filter(|u| u.get("error").is_some_and(|e| *e != json::Value::Null))
        .count())
}

/// Runs `profirt campaign run` once and reads its artifacts.
pub fn run_campaign_cli(
    bin: &Path,
    spec: &CampaignSpec,
    spec_path: &Path,
    dir: &Path,
) -> Result<CampaignRun, String> {
    let out = dir.join("campaign-out");
    let stdout = dir.join("campaign-stdout.txt");
    let spec_arg = spec_path.to_string_lossy();
    let out_arg = out.to_string_lossy();
    let fin = program::run(
        bin,
        &["campaign", "run", &spec_arg, "--out", &out_arg],
        None,
        &stdout,
    )?;
    let printed = std::fs::read_to_string(&stdout).unwrap_or_default();
    let contract_ok = fin.ok
        && !printed.contains("CONTRACT [FAIL]")
        && (spec.sim_horizon == 0 || printed.contains("CONTRACT [PASS]"));
    let art = out.join(&spec.name);
    let table = read_units_csv(&art.join("units.csv"))?;
    Ok(CampaignRun {
        wall_s: fin.wall_s,
        max_rss_kb: fin.max_rss_kb,
        units: table.1.len(),
        unit_errors: count_unit_errors(&art.join("summary.json"))?,
        digest: rows_digest(&table.0, &table.1),
        contract_ok,
    })
}

/// A fault to inject after timing, to prove a correctness gate fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Corrupt one reference answer of the daemon traffic.
    Answer,
    /// Corrupt the digest of the repeat of campaign spec 0.
    Digest,
}

impl Fault {
    /// Parses the command-line spelling.
    pub fn parse(s: &str) -> Option<Fault> {
        match s {
            "answer" => Some(Fault::Answer),
            "digest" => Some(Fault::Digest),
            _ => None,
        }
    }
}

/// The daemon and the load generator's connections for one run.
pub struct Session<'a> {
    seed: u64,
    daemon: &'a Daemon,
    corpus: &'a Corpus,
    client: load::Client,
    /// Totals over every phase sent, warm-ups and ladder included.
    pub tally: Tally,
}

impl<'a> Session<'a> {
    /// Opens the load generator's persistent connections and warms them.
    pub fn open(seed: u64, daemon: &'a Daemon, corpus: &'a Corpus) -> Result<Session<'a>, String> {
        let mut tally = Tally::default();
        let client = Self::connect_warm(seed, daemon, corpus, &mut tally)?;
        Ok(Session {
            seed,
            daemon,
            corpus,
            client,
            tally,
        })
    }

    /// Connects and sends untimed traffic: the daemon accepts new
    /// connections on a polling loop, so the first requests on a fresh
    /// connection wait for it.
    fn connect_warm(
        seed: u64,
        daemon: &Daemon,
        corpus: &Corpus,
        tally: &mut Tally,
    ) -> Result<load::Client, String> {
        let mut client = load::Client::connect(daemon.addr, CONNS, seed)?;
        let warm = load::drive(
            &mut client,
            corpus,
            tally.sent,
            REFERENCE_RATE,
            WARMUP_SECS,
            DRAIN,
            Wait::Sleep,
        )?;
        tally.add(&warm);
        if !warm.drained {
            return Err("warm-up traffic was not answered".into());
        }
        Ok(client)
    }

    /// Sends `secs` of traffic at `rate`, checked against `check`. A phase
    /// that does not drain is followed by fresh connections.
    pub fn phase(
        &mut self,
        check: &Corpus,
        rate: f64,
        secs: f64,
        wait: Wait,
    ) -> Result<PhaseResult, String> {
        let r = load::drive(
            &mut self.client,
            check,
            self.tally.sent,
            rate,
            secs,
            DRAIN,
            wait,
        )?;
        self.tally.add(&r);
        if !r.drained {
            self.client = Self::connect_warm(self.seed, self.daemon, self.corpus, &mut self.tally)?;
        }
        Ok(r)
    }

    /// One climb of the rate ladder from the start rate's rung; returns
    /// every rung measured.
    pub fn climb(&mut self) -> Result<Vec<(usize, Rung)>, String> {
        let ladder = load::ladder();
        let corpus = self.corpus;
        load::climb(start_rung(), |i| {
            let phase = self.phase(corpus, ladder[i], RUNG_SECS, Wait::Sleep)?;
            Ok(load::judge(phase, LIMIT_US, CONNS))
        })
    }
}

/// The ladder rung a climb starts from: the highest at or below
/// [`CLIMB_START_RATE`].
fn start_rung() -> usize {
    load::ladder()
        .iter()
        .rposition(|&r| r <= CLIMB_START_RATE)
        .unwrap_or(0)
}

/// Running totals over every phase sent to the daemon.
#[derive(Default)]
pub struct Tally {
    /// Requests sent.
    pub sent: usize,
    /// Answers that differed from the reference.
    pub mismatched: usize,
    /// First mismatch seen: (request, expected, received).
    pub first_mismatch: Option<(String, String, String)>,
}

impl Tally {
    /// Adds one phase.
    pub fn add(&mut self, r: &PhaseResult) {
        self.sent += r.sent;
        self.mismatched += r.mismatched;
        if self.first_mismatch.is_none() {
            self.first_mismatch.clone_from(&r.first_mismatch);
        }
    }

    /// Adds another session's totals.
    pub fn add_all(&mut self, other: Tally) {
        self.sent += other.sent;
        self.mismatched += other.mismatched;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
    }
}

/// How many of `total` items the `j`-th of `n` slots gets, spreading them
/// evenly.
fn share(j: usize, n: usize, total: usize) -> usize {
    upto(j + 1, n, total) - upto(j, n, total)
}

/// How many of `total` items the first `j` of `n` slots get together.
fn upto(j: usize, n: usize, total: usize) -> usize {
    j * total / n.max(1)
}

/// Checks a `serve --stdin` output against the reference answers;
/// returns the number of lines that differ (missing lines included).
fn stdin_mismatches(output: &Path, corpus: &Corpus) -> usize {
    let text = std::fs::read_to_string(output).unwrap_or_default();
    let got: Vec<&str> = text.lines().collect();
    let wrong = corpus
        .refs
        .iter()
        .zip(&got)
        .filter(|(want, got)| want.as_str() != **got)
        .count();
    wrong + corpus.refs.len().abs_diff(got.len())
}

/// What the batch surface of one run measured.
#[derive(Default)]
struct Batch {
    rates: Vec<f64>,
    rss_kb: Vec<f64>,
    attempted: usize,
    failed: usize,
    digests: Vec<Vec<u64>>,
    walls: Vec<String>,
}

/// Runs batch item `j`: for a campaign workload, spec `j % n` of the `n`
/// specs (so item `n`, the last, repeats spec 0); for `serve-open`, one
/// `serve --stdin` pass.
fn batch_item(
    j: usize,
    bin: &Path,
    dir: &Path,
    inputs: &Inputs,
    check: &Corpus,
    b: &mut Batch,
    report: &mut Report,
) -> Result<(), String> {
    if inputs.specs.is_empty() {
        let output = dir.join("stdin-out.jsonl");
        let workers = workers().to_string();
        let fin = program::run(
            bin,
            &["serve", "--stdin", "--workers", &workers],
            Some(&inputs.corpus_file),
            &output,
        )?;
        let wrong = stdin_mismatches(&output, check);
        b.rates.push(inputs.corpus.lines.len() as f64 / fin.wall_s);
        b.rss_kb.push(fin.max_rss_kb as f64);
        b.attempted += inputs.corpus.lines.len();
        b.failed += wrong;
        report.gate(fin.ok, || "serve --stdin did not exit 0".to_string());
        report.gate(wrong == 0, || {
            format!("serve --stdin: {wrong} answer(s) differ from proto::answer_line")
        });
        return Ok(());
    }
    let k = j % inputs.specs.len();
    let (spec, spec_path) = &inputs.specs[k];
    let r = run_campaign_cli(bin, spec, spec_path, dir)?;
    b.rates.push(r.units as f64 / r.wall_s);
    b.walls.push(format!("{:.3}", r.wall_s));
    b.rss_kb.push(r.max_rss_kb as f64);
    b.attempted += r.units;
    b.failed += r.unit_errors;
    report.gate(r.contract_ok, || {
        "campaign run did not exit 0 with CONTRACT [PASS]".to_string()
    });
    report.gate(r.unit_errors == 0, || {
        format!("{} campaign unit(s) errored", r.unit_errors)
    });
    b.digests.resize(inputs.specs.len(), Vec::new());
    b.digests[k].push(r.digest);
    Ok(())
}

/// Set-up, several times: inputs, reference answers, `campaign describe`
/// on the first spec, and the daemon up to listening. Returns the last
/// set-up's daemon and inputs with every set-up's duration.
fn set_up(p: &Params, bin: &Path, dir: &Path) -> Result<(Daemon, Inputs, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut running: Option<(Daemon, Inputs)> = None;
    for _ in 0..SETUPS {
        if let Some((d, _)) = running.take() {
            d.stop()?;
        }
        let t = Instant::now();
        let inputs = make_inputs(p, dir)?;
        if let Some((_, path)) = inputs.specs.first() {
            let path = path.to_string_lossy();
            let fin = program::run(
                bin,
                &["campaign", "describe", &path],
                None,
                &dir.join("describe.txt"),
            )?;
            if !fin.ok {
                return Err("`campaign describe` rejected the generated spec".into());
            }
        }
        let daemon = Daemon::start(bin, workers(), &dir.join("daemon.log"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        running = Some((daemon, inputs));
    }
    let (daemon, inputs) = running.ok_or("no set-up ran")?;
    Ok((daemon, inputs, setup_s))
}

/// The untraced run: end-to-end metrics with every correctness gate.
///
/// The reference-rate traffic is cut into windows spread between the
/// batch items, so a slow spell of a shared machine lands in a few
/// windows rather than in the whole phase. The ladder climbs come between
/// groups of batch items for the same reason.
pub fn run(p: &Params, bin: &Path, dir: &Path, fault: Option<Fault>) -> Result<Report, String> {
    let mut report = Report::default();
    let (daemon, inputs, setup_s) = set_up(p, bin, dir)?;

    // The reference traffic checks against a copy of the reference
    // answers so an injected fault reaches only the gate.
    let mut check = inputs.corpus.clone();
    if fault == Some(Fault::Answer) {
        if let Some(first) = check.refs.first_mut() {
            first.push(' ');
        }
    }
    let items = p.batch_runs();
    let windows = ((p.reference_secs() * REFERENCE_RATE) / LATENCY_WINDOW as f64)
        .round()
        .max(1.0) as usize;
    let mut batch = Batch::default();
    let mut parts = Vec::new();
    // The climbs overload their daemon on purpose, queueing as many
    // requests as the failing rungs happen to pile up; a daemon of their
    // own keeps that out of `peak_rss_mb`.
    let ladder_daemon = match Daemon::start(bin, workers(), &dir.join("ladder-daemon.log")) {
        Ok(d) => d,
        Err(e) => {
            daemon.stop()?;
            return Err(e);
        }
    };
    let traffic = (|| {
        let mut session = Session::open(p.seed, &daemon, &inputs.corpus)?;
        let mut ladder = Session::open(p.seed, &ladder_daemon, &inputs.corpus)?;
        // Batch item `j`, preceded by its share of the reference windows.
        let mut step = |session: &mut Session, j: usize| {
            let w = share(j, items, windows);
            if w > 0 {
                let secs = (w * LATENCY_WINDOW) as f64 / REFERENCE_RATE;
                parts.push(session.phase(&check, REFERENCE_RATE, secs, Wait::Spin)?);
            }
            batch_item(j, bin, dir, &inputs, &check, &mut batch, &mut report)
        };
        // Batch items in CLIMBS + 1 groups with one climb between each
        // pair, so neither the reference windows nor the climbs sit in one
        // stretch of the run.
        let mut climbs = Vec::new();
        for c in 0..=CLIMBS {
            for j in upto(c, CLIMBS + 1, items)..upto(c + 1, CLIMBS + 1, items) {
                step(&mut session, j)?;
            }
            if c < CLIMBS {
                climbs.push(ladder.climb()?);
            }
        }
        let mut tally = session.tally;
        tally.add_all(ladder.tally);
        Ok::<_, String>((climbs, tally))
    })();
    let daemon_rss_kb = daemon.stop();
    let ladder_rss_kb = ladder_daemon.stop()?;
    let daemon_rss_kb = daemon_rss_kb?;
    let (climbs, tally) = traffic?;
    let reference = load::merge(&parts);

    if !batch.digests.is_empty() {
        if fault == Some(Fault::Digest) {
            if let Some(last) = batch.digests.first_mut().and_then(|d| d.last_mut()) {
                *last ^= 1;
            }
        }
        for (k, d) in batch.digests.iter().enumerate() {
            report.gate(d.windows(2).all(|w| w[0] == w[1]), || {
                format!("campaign digests differ across repeats of sub-seed {k}: {d:016x?}")
            });
        }
        report.notes.push(format!(
            "campaign: {} spec(s) of {} unit(s), spec 0 run twice; digests {:016x?}; walls {:?} s",
            inputs.specs.len(),
            batch.attempted / batch.rates.len().max(1),
            batch
                .digests
                .iter()
                .filter_map(|d| d.first())
                .collect::<Vec<_>>(),
            batch.walls,
        ));
    }
    report.gate(tally.mismatched == 0, || {
        format!(
            "{} daemon answer(s) differ from proto::answer_line; first: {:?}",
            tally.mismatched, tally.first_mismatch
        )
    });
    report.gate(reference.drained, || {
        "reference traffic did not drain".to_string()
    });

    // Failures over a denominator fixed by the workload and --seconds,
    // with one added to both so the ratio is never 0: (failed + 1) /
    // (attempted + 1).
    let fixed_attempted = batch.attempted + reference.sent;
    let fixed_failed = batch.failed + reference.failed();
    report.attempted = (batch.attempted + tally.sent) as u64;
    report.failed = (batch.failed + tally.mismatched) as u64;

    let lat = &reference.latencies_us;
    let p99 = stats::tail_percentile(lat, 99.0);
    let windowed = |p: f64| load::windowed_percentile(&reference.by_send_us, LATENCY_WINDOW, p);
    let (w50, w99) = (windowed(50.0), windowed(99.0));

    // The median over the climbs; a climb in which no rung passed counts
    // as 0 req/s.
    let climb_max: Vec<f64> = climbs
        .iter()
        .map(|rungs| load::max_passing(rungs).unwrap_or(0.0))
        .collect();
    let max_rps = stats::median(&climb_max).unwrap_or(0.0);
    // A batch process's peak moves by a few MB between repeats of one
    // input, so its median over the batch runs stands for it; the daemon runs
    // once.
    let batch_rss_kb = stats::median(&batch.rss_kb).unwrap_or(0.0);
    let peak_mb = batch_rss_kb.max(daemon_rss_kb as f64) / 1024.0;
    report.gate(w99.is_some(), || {
        format!(
            "only {} latency samples: no window of {LATENCY_WINDOW} with a p99",
            lat.len()
        )
    });
    report.metric("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN), "s");
    report.metric(
        "campaign_units_per_s",
        stats::median(&batch.rates).unwrap_or(f64::NAN),
        "1/s",
    );
    report.metric("serve_p50_us", w50.map_or(f64::NAN, |w| w.0), "us");
    report.metric("serve_max_rps", max_rps, "1/s");
    report.metric(
        "fail_ratio",
        (fixed_failed as f64 + 1.0) / (fixed_attempted as f64 + 1.0),
        "ratio",
    );
    report.metric("peak_rss_mb", peak_mb, "MB");

    report.notes.push(format!(
        "setup: {} runs, {:?} s",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    ));
    report.notes.push(format!(
        "serve reference traffic: {} req at {} req/s (Poisson) over {} conns in {} slices between \
         the batch runs, {} samples in {} windows of {LATENCY_WINDOW}; median window p50 {:.1} us, \
         p99 {:.1} us; whole-traffic p50 {:.1} us, p99 {:.1} us; generator max lag {:.1} us, \
         backlog max {}, failed {}",
        reference.sent,
        REFERENCE_RATE,
        CONNS,
        parts.len(),
        lat.len(),
        w99.map_or(0, |w| w.1),
        w50.map_or(f64::NAN, |w| w.0),
        w99.map_or(f64::NAN, |w| w.0),
        stats::tail_percentile(lat, 50.0).unwrap_or(f64::NAN),
        p99.unwrap_or(f64::NAN),
        reference.max_lag_us,
        reference.backlog_max,
        reference.failed()
    ));
    report.notes.push(format!(
        "serve reference latency (us): p90 {:.0}, p95 {:.0}, p99.9 {:.0}, max {:.0}; p99 per window {:?}",
        stats::tail_percentile(lat, 90.0).unwrap_or(f64::NAN),
        stats::tail_percentile(lat, 95.0).unwrap_or(f64::NAN),
        stats::tail_percentile(lat, 99.9).unwrap_or(f64::NAN),
        lat.last().copied().unwrap_or(f64::NAN),
        load::window_percentiles(&reference.by_send_us, LATENCY_WINDOW, 99.0)
            .iter()
            .map(|x| x.round() as i64)
            .collect::<Vec<_>>()
    ));
    report.notes.push(format!(
        "serve_max_rps: median of {} climbs {climb_max:?} req/s; the climbs' own daemon peaked at \
         {:.1} MB (not in peak_rss_mb)",
        climbs.len(),
        ladder_rss_kb as f64 / 1024.0
    ));
    for (c, rungs) in climbs.iter().enumerate() {
        for (_, r) in rungs {
            report.notes.push(format!(
                "climb {c} {:>7} req/s: {} samples, median window p{} {:.1} us, \
                 median window-end backlog {:.0}, lag {:.0} us, {}",
                r.phase.rate,
                r.phase.latencies_us.len(),
                r.percentile.unwrap_or(0.0),
                r.tail_us.unwrap_or(f64::NAN),
                r.backlog,
                r.phase.max_lag_us,
                if r.pass { "pass" } else { "FAIL" }
            ));
        }
    }
    report.notes.push(format!(
        "peak_rss_mb: reference daemon {:.1} MB; batch processes median {:.1} MB, max {:.1} MB",
        daemon_rss_kb as f64 / 1024.0,
        batch_rss_kb / 1024.0,
        batch.rss_kb.iter().copied().fold(0.0, f64::max) / 1024.0
    ));
    report.notes.push(format!(
        "fail_ratio = ({fixed_failed} + 1) / ({fixed_attempted} + 1); batch rates {:?}",
        batch
            .rates
            .iter()
            .map(|r| format!("{r:.2}"))
            .collect::<Vec<_>>()
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_the_timing_column_only() {
        let header: Vec<String> = ["unit", "x", "unit_micros"].map(String::from).to_vec();
        let a = vec![["u0", "1", "10"].map(String::from).to_vec()];
        let b = vec![["u0", "1", "99"].map(String::from).to_vec()];
        let c = vec![["u0", "2", "10"].map(String::from).to_vec()];
        assert_eq!(rows_digest(&header, &a), rows_digest(&header, &b));
        assert_ne!(rows_digest(&header, &a), rows_digest(&header, &c));
    }

    #[test]
    fn unavailable_cells_are_never_summed() {
        let header: Vec<String> = ["unit", "sim_visits"].map(String::from).to_vec();
        let full = (
            header.clone(),
            vec![
                ["a", "3"].map(String::from).to_vec(),
                ["b", "4"].map(String::from).to_vec(),
            ],
        );
        assert_eq!(column_sum(&full, "sim_visits"), Some(7.0));
        let gap = (
            header,
            vec![
                ["a", "3"].map(String::from).to_vec(),
                ["b", "-"].map(String::from).to_vec(),
            ],
        );
        assert_eq!(column_sum(&gap, "sim_visits"), None);
        assert_eq!(column_sum(&full, "missing"), None);
    }

    #[test]
    fn specs_validate_and_use_at_most_two_workers() {
        for workload in [Workload::CampaignCpu, Workload::CampaignNet] {
            for tiny in [false, true] {
                let p = Params {
                    workload,
                    seed: u64::MAX,
                    seconds: 10.0,
                    tiny,
                };
                let spec = p.spec(1).unwrap();
                assert_ne!(spec.seed, p.spec(0).unwrap().seed);
                spec.validate().unwrap();
                assert!(spec.workers <= 2);
                let back = CampaignSpec::from_json_str(&spec.to_json().pretty()).unwrap();
                let ids = |s: &CampaignSpec| -> Vec<String> {
                    profirt_experiments::campaign::plan(s)
                        .unwrap()
                        .units
                        .into_iter()
                        .map(|u| u.id)
                        .collect()
                };
                assert_eq!(ids(&back), ids(&spec));
                assert_eq!(back.seed, spec.seed);
            }
        }
        assert_eq!(Workload::parse("serve-open"), Some(Workload::ServeOpen));
    }
}
