//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer's public functions.
//!
//! * A direct pass generates the workload's inputs (`profirt_workload`)
//!   and runs them through `profirt_sched`, `profirt_core` and
//!   `profirt_sim` along the paths `campaign run` takes (the batch
//!   analyses, the experiments' simulation helpers), or for `serve-open`
//!   the per-call paths the daemon takes. After a warm-up it runs traced,
//!   untraced, untraced, traced; the ratio of the traced to the untraced
//!   time is the tracing overhead.
//! * The campaign workloads then drive `profirt_experiments`: `plan`,
//!   `eval_chain` on each warm chain over the same worker count the
//!   campaign uses, and `run_campaign` with its artifacts, whose
//!   `units.csv` counters are reported next to the traced ones.
//! * Every workload drives `profirt_serve` on its request corpus:
//!   `proto::parse_request`, `proto::eval` and rendering per line, an
//!   in-process `Engine`, and a short TCP phase against the daemon.
//!
//! Spans stay in memory and are written to `spans.jsonl` at the end.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use profirt_base::{json, TaskSet};
use profirt_core::{PolicyKind, PolicyTuning};
use profirt_experiments::campaign::{self, eval, CampaignSpec, UnitEval};
use profirt_experiments::exps::common;
use profirt_sched::AnalysisScratch;
use profirt_serve::engine::{Engine, EngineConfig};
use profirt_serve::proto::{self, Op};

use crate::corpus::Corpus;
use crate::layers::{self, route, Route, CPU_TESTS};
use crate::load::Wait;
use crate::program::Daemon;
use crate::report::Report;
use crate::trace::{self, NameTotals, Tracer};
use crate::workload::{self, Params, Workload};

/// Every per-layer metric, in report order, with its unit.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("workload.networks_generated".into(), "count");
    add("workload.tasksets_generated".into(), "count");
    add("workload.gen_failed".into(), "count");
    add("workload.gen_busy_s".into(), "s");
    for t in CPU_TESTS {
        add(format!("sched.calls.{t}"), "count");
        add(format!("sched.busy_s.{t}"), "s");
        add(format!("sched.ns_per_call.{t}"), "ns");
    }
    add("sched.fixpoint_iters".into(), "count");
    add("sched.warm_hit_ratio".into(), "ratio");
    for p in PolicyKind::ALL {
        let p = p.name();
        add(format!("core.calls.{p}"), "count");
        add(format!("core.busy_s.{p}"), "s");
        add(format!("core.ns_per_call.{p}"), "ns");
    }
    add("core.fixpoint_iters".into(), "count");
    add("sim.runs".into(), "count");
    add("sim.busy_s.static".into(), "s");
    add("sim.busy_s.dynamic".into(), "s");
    add("sim.visits".into(), "count");
    add("sim.rotations_ffwd".into(), "count");
    add("sim.ffwd_share".into(), "ratio");
    add("sim.visits_per_s".into(), "1/s");
    add("sim.ticks_per_s".into(), "1/s");
    add("experiments.plan_s".into(), "s");
    add("experiments.eval_s".into(), "s");
    add("experiments.artifact_s".into(), "s");
    add("experiments.chains".into(), "count");
    add("experiments.tail_ratio".into(), "ratio");
    add("experiments.worker_busy_share".into(), "ratio");
    for c in ["fixpoint_iters", "sim_visits", "sim_ffwd"] {
        add(format!("experiments.{c}"), "count");
        add(format!("experiments.{c}.units_csv"), "count");
    }
    add("serve.parse_us".into(), "us");
    add("serve.eval_us".into(), "us");
    add("serve.render_us".into(), "us");
    add("serve.engine_us".into(), "us");
    add("serve.wait_us".into(), "us");
    add("serve.p50_us".into(), "us");
    add("serve.p99_us".into(), "us");
    add("serve.memo_hit_ratio".into(), "ratio");
    add("serve.rejected".into(), "count");
    add("serve.backlog_max".into(), "count");
    add("serve.gen_lag_us".into(), "us");
    add("trace.overhead_ratio".into(), "ratio");
    add("trace.spans".into(), "count");
    m
}

/// Counters the direct pass gathers besides its spans.
#[derive(Clone, Debug, Default)]
struct DirectCounts {
    gen_failed: u64,
    sched_iters: u64,
    sim_visits: u64,
    sim_ffwd: u64,
    /// Σ ring size × fast-forwarded rotations: the visits skipped.
    sim_skipped_visits: u64,
    sim_ticks: u64,
}

/// Replications the direct pass walks per generation point.
fn direct_reps(spec: &CampaignSpec) -> u64 {
    spec.replications.min(2)
}

fn axis<T>(
    spec: &CampaignSpec,
    name: &str,
    f: impl Fn(&campaign::AxisValue) -> Option<T>,
) -> Vec<T> {
    spec.axes
        .iter()
        .find(|a| a.name == name)
        .map(|a| a.values.iter().filter_map(&f).collect())
        .unwrap_or_default()
}

/// Runs the §2 tests on one task set the way a campaign chain does: the
/// demand-type tests in one `edf_feasibility_batch` call, the fixed-priority
/// RTA tests in one `response_times_batch` call, the rest per call. A batch
/// span is named after its members (`sched.batch:rm-rta+dm-rta`) so the
/// report can share its time among them; a failed batch falls back to
/// per-call evaluation, as the campaign does.
fn cpu_chain_run(
    tests: &[&str],
    set: &TaskSet,
    scratch: &mut AnalysisScratch,
    tr: &mut Tracer,
    iters: &mut u64,
) {
    let members =
        |r: Route| -> Vec<&str> { tests.iter().copied().filter(|t| route(t) == r).collect() };
    let mut solo = members(Route::Solo);
    for r in [Route::DemandBatch, Route::FixedBatch] {
        let batch = members(r);
        if batch.is_empty() {
            continue;
        }
        let name = format!("sched.batch:{}", batch.join("+"));
        let verdicts = match r {
            Route::DemandBatch => {
                let variants = layers::demand_variants(&batch);
                tr.time(&name, None, || {
                    layers::demand_batch(set, &variants, scratch)
                })
            }
            _ => {
                let variants = layers::fixed_variants(&batch, set);
                tr.time(&name, None, || layers::fixed_batch(set, &variants, scratch))
            }
        };
        *iters += scratch.take_fixpoint_iters();
        if std::hint::black_box(verdicts).is_err() {
            solo.extend(batch);
        }
    }
    for test in solo {
        let ok = tr.time(&format!("sched.{test}"), None, || {
            layers::cpu_test(test, set, scratch)
        });
        std::hint::black_box(ok.ok());
        *iters += scratch.take_fixpoint_iters();
    }
}

/// The direct layer pass of one workload, recording into `tr`.
fn direct_pass(p: &Params, corpus: &Corpus, tr: &mut Tracer) -> DirectCounts {
    let mut n = DirectCounts::default();
    match (p.workload, p.spec(0)) {
        (Workload::CampaignCpu, Some(spec)) => {
            let tests: Vec<String> = axis(&spec, "policy", |v| v.as_str().map(str::to_string));
            let tests: Vec<&str> = tests.iter().map(String::as_str).collect();
            for tasks in axis(&spec, "tasks", |v| v.as_i64()) {
                for u in axis(&spec, "utilization", |v| v.as_f64()) {
                    for d in axis(&spec, "deadline_frac", |v| v.as_f64()) {
                        let params = layers::task_params(tasks.max(1) as usize, u, d);
                        // One warm scratch per generation point, as a
                        // campaign chain keeps one.
                        let mut scratch = AnalysisScratch::new();
                        for rep in 0..direct_reps(&spec) {
                            let seed = spec.seed ^ rep.wrapping_mul(0x2545_F491_4F6C_DD1D);
                            let seed = seed ^ (tasks as u64) << 32 ^ u.to_bits() ^ d.to_bits();
                            let set = tr.time("workload.taskset", None, || {
                                layers::gen_task_set(seed, &params)
                            });
                            let Ok(set) = set else {
                                n.gen_failed += 1;
                                continue;
                            };
                            cpu_chain_run(&tests, &set, &mut scratch, tr, &mut n.sched_iters);
                        }
                    }
                }
            }
        }
        (Workload::CampaignNet, Some(spec)) => {
            let policies: Vec<PolicyKind> =
                axis(&spec, "policy", |v| v.as_str().and_then(PolicyKind::parse));
            let churns: Vec<String> = axis(&spec, "churn", |v| v.as_str().map(str::to_string));
            for masters in axis(&spec, "masters", |v| v.as_i64()) {
                for streams in axis(&spec, "streams", |v| v.as_i64()) {
                    for tight in axis(&spec, "tightness", |v| v.as_f64()) {
                        for mix in axis(&spec, "criticality", |v| v.as_str().map(str::to_string)) {
                            let params = layers::net_params(
                                masters.max(1) as usize,
                                streams.max(1) as usize,
                                tight,
                                &mix,
                            );
                            for rep in 0..direct_reps(&spec) {
                                let seed = spec.seed
                                    ^ rep.wrapping_mul(0x2545_F491_4F6C_DD1D)
                                    ^ (masters as u64) << 40
                                    ^ (streams as u64) << 32
                                    ^ tight.to_bits()
                                    ^ u64::from(mix == "mixed");
                                let g = tr.time("workload.network", None, || {
                                    common::gen_network(seed, &params)
                                });
                                for &policy in &policies {
                                    let name = format!("core.{}", policy.name());
                                    let ok =
                                        tr.time(&name, None, || layers::analyze(policy, &g.config));
                                    std::hint::black_box(ok.ok());
                                    // Simulate the first replication only:
                                    // the campaign simulates them all.
                                    if rep > 0 || spec.sim_horizon == 0 {
                                        continue;
                                    }
                                    for churn in &churns {
                                        let horizon = spec.sim_horizon;
                                        let scenario = layers::scenario(&g, churn, horizon, seed);
                                        let name = if scenario.is_static() {
                                            "sim.static"
                                        } else {
                                            "sim.dynamic"
                                        };
                                        let obs = tr.time(name, None, || {
                                            common::sim_observed_with(
                                                &g,
                                                policy.queue_policy(),
                                                horizon,
                                                seed,
                                                &scenario,
                                            )
                                        });
                                        n.sim_visits += obs.visits_simulated;
                                        n.sim_ffwd += obs.rotations_fast_forwarded;
                                        n.sim_skipped_visits += g.config.masters.len() as u64
                                            * obs.rotations_fast_forwarded;
                                        n.sim_ticks += horizon as u64;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        _ => {
            // serve-open: regenerate the corpus inputs, then answer each
            // question with a direct call, cold, as the daemon does.
            let regenerated = tr.time("workload.corpus", None, || {
                Corpus::generate(p.workload.mix(), p.corpus_seed(), p.corpus_lines(), false)
            });
            if regenerated.is_err() {
                n.gen_failed += 1;
            }
            for line in &corpus.lines {
                let Ok(req) = proto::parse_request(line) else {
                    continue;
                };
                match &req.op {
                    Op::Feasibility { policy, net }
                    | Op::ResponseTimes { policy, net }
                    | Op::Admit { policy, net, .. } => {
                        let name = format!("core.{}", policy.name());
                        let ok = tr.time(&name, None, || layers::analyze(*policy, net));
                        std::hint::black_box(ok.ok());
                    }
                    Op::TaskFeasibility { test, tasks } => {
                        let mut scratch = AnalysisScratch::new();
                        let name = format!("sched.{test}");
                        let ok =
                            tr.time(&name, None, || layers::cpu_test(test, tasks, &mut scratch));
                        std::hint::black_box(ok.ok());
                        n.sched_iters += scratch.take_fixpoint_iters();
                    }
                    Op::Ping | Op::Stats => {}
                }
            }
        }
    }
    n
}

/// What the experiments pass measured.
struct ExperimentsPass {
    evals: Vec<UnitEval>,
    artifact_s: f64,
    units_csv: (Vec<String>, Vec<Vec<String>>),
}

/// `plan`, `eval_chain` per warm chain on the campaign's worker count,
/// then `run_campaign` with artifacts under `dir`.
fn experiments_pass(
    spec: &CampaignSpec,
    dir: &Path,
    tr: &mut Tracer,
    origin: Instant,
) -> Result<ExperimentsPass, String> {
    let plan = tr.time("experiments.plan", None, || campaign::plan(spec));
    let plan = plan.map_err(|e| e.to_string())?;
    let chains = plan.warm_chains(spec);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Vec<UnitEval>)>> = Mutex::new(Vec::new());
    let eval_span = tr.open("experiments.eval", None);
    let workers = workload::workers();
    let tracers: Vec<Tracer> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (chains, next, results, units) = (&chains, &next, &results, &plan.units);
                let mut local = Tracer::new(tr.is_on(), origin, (w as u64 + 1) << 40);
                s.spawn(move || {
                    loop {
                        let ci = next.fetch_add(1, Ordering::SeqCst);
                        let Some(range) = chains.get(ci) else { break };
                        let evals = local.time("experiments.eval_chain", eval_span, || {
                            eval::eval_chain(spec, &units[range.clone()])
                        });
                        if let Ok(mut r) = results.lock() {
                            r.push((range.start, evals));
                        }
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    tr.close(eval_span);
    for t in tracers {
        tr.absorb(t);
    }
    let mut by_start = results
        .into_inner()
        .map_err(|_| "an eval_chain worker panicked".to_string())?;
    by_start.sort_by_key(|(start, _)| *start);
    let evals: Vec<UnitEval> = by_start.into_iter().flat_map(|(_, e)| e).collect();

    let out = dir.join("trace-campaign");
    let started = Instant::now();
    let outcome = tr.time("experiments.run_campaign", None, || {
        campaign::run_campaign(spec, &out)
    });
    let wall = started.elapsed().as_secs_f64();
    let outcome = outcome.map_err(|e| e.to_string())?;
    let units_csv = workload::read_units_csv(&outcome.out_dir.join("units.csv"))?;
    Ok(ExperimentsPass {
        evals,
        artifact_s: wall - outcome.total_wall_secs,
        units_csv,
    })
}

/// What the serve pass measured.
#[derive(Default)]
struct ServePass {
    rtt_mean_us: f64,
    /// Medians over windows of the window p50 and p99, µs.
    p50_us: Option<f64>,
    p99_us: Option<f64>,
    /// The daemon's memo hits and misses, from its `stats` op.
    memo: Option<(f64, f64)>,
    rejected: usize,
    backlog_max: usize,
    gen_lag_us: f64,
    mismatched: usize,
}

fn serve_pass(
    p: &Params,
    bin: &Path,
    dir: &Path,
    corpus: &Corpus,
    tr: &mut Tracer,
) -> Result<ServePass, String> {
    let tuning = PolicyTuning::default();
    let mut scratch = proto::EvalScratch::default();
    let mut mismatched = 0;
    for (line, want) in corpus.lines.iter().zip(&corpus.refs) {
        let req = tr.time("serve.parse", None, || proto::parse_request(line));
        let Ok(req) = req else {
            mismatched += 1;
            continue;
        };
        let result = tr.time("serve.eval", None, || {
            proto::eval(&req, &tuning, &mut scratch)
        });
        let rendered = tr.time("serve.render", None, || match result {
            Ok(v) => proto::ok_envelope(&req.id, req.op.name(), v).compact(),
            Err(e) => proto::err_envelope(&req.id, &e).compact(),
        });
        if rendered != *want {
            mismatched += 1;
        }
    }
    let engine = Engine::start(EngineConfig {
        workers: workload::workers(),
        ..EngineConfig::default()
    })
    .map_err(|e| format!("engine: {e}"))?;
    for (line, want) in corpus.lines.iter().zip(&corpus.refs) {
        let got = tr.time("serve.engine", None, || engine.handle(line));
        if got != *want {
            mismatched += 1;
        }
    }
    engine.shutdown();

    let daemon = Daemon::start(bin, workload::workers(), &dir.join("trace-daemon.log"))?;
    let secs = p.reference_secs().min(3.0);
    let phase = workload::Session::open(p.seed, &daemon, corpus)
        .and_then(|mut s| s.phase(corpus, workload::REFERENCE_RATE, secs, Wait::Spin));
    let memo = stats_op(daemon.addr);
    daemon.stop()?;
    let phase = phase?;
    let lat = &phase.latencies_us;
    let windowed = |p: f64| {
        crate::load::windowed_percentile(&phase.by_send_us, workload::LATENCY_WINDOW, p)
            .map(|w| w.0)
    };
    Ok(ServePass {
        rtt_mean_us: lat.iter().sum::<f64>() / lat.len().max(1) as f64,
        p50_us: windowed(50.0),
        p99_us: windowed(99.0),
        memo: memo.ok(),
        rejected: phase.refused,
        backlog_max: phase.backlog_max,
        gen_lag_us: phase.max_lag_us,
        mismatched: mismatched + phase.mismatched,
    })
}

/// Asks the daemon's `stats` op for its memo hits and misses.
fn stats_op(addr: std::net::SocketAddr) -> Result<(f64, f64), String> {
    let io = |e: std::io::Error| format!("stats op: {e}");
    let mut s = TcpStream::connect(addr).map_err(io)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(io)?;
    s.write_all(b"{\"op\":\"stats\",\"id\":\"perfbench\"}\n")
        .map_err(io)?;
    let mut line = String::new();
    BufReader::new(&s).read_line(&mut line).map_err(io)?;
    let doc = json::parse(&line).map_err(|e| format!("stats op: {e}"))?;
    let get = |k: &str| {
        doc.get("result")
            .and_then(|r| r.get(k))
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("stats op: no {k}"))
    };
    Ok((get("memo_hits")?, get("memo_misses")?))
}

fn secs(t: Option<&NameTotals>) -> f64 {
    t.map_or(0.0, |t| t.total_ns as f64 / 1e9)
}

fn mean_us(t: Option<&NameTotals>) -> f64 {
    t.filter(|t| t.count > 0)
        .map_or(f64::NAN, |t| t.total_ns as f64 / t.count as f64 / 1e3)
}

/// The traced run.
pub fn run(p: &Params, bin: &Path, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let inputs = workload::make_inputs(p, dir)?;
    let origin = Instant::now();

    // Direct pass: one untimed warm-up, then traced, untraced, untraced,
    // traced, so a steady drift in machine speed cancels out.
    std::hint::black_box(direct_pass(
        p,
        &inputs.corpus,
        &mut Tracer::new(false, origin, 0),
    ));
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let mut tr = Tracer::new(true, origin, 0);
    let mut counts = DirectCounts::default();
    for on in [true, false, false, true] {
        let t = Instant::now();
        if on {
            tr = Tracer::new(true, origin, 0);
            counts = direct_pass(p, &inputs.corpus, &mut tr);
            traced_s += t.elapsed().as_secs_f64();
        } else {
            let mut off = Tracer::new(false, origin, 0);
            std::hint::black_box(direct_pass(p, &inputs.corpus, &mut off));
            plain_s += t.elapsed().as_secs_f64();
        }
    }

    let exp = match inputs.specs.first() {
        Some((spec, _)) => Some((spec, experiments_pass(spec, dir, &mut tr, origin)?)),
        None => None,
    };
    let serve = serve_pass(p, bin, dir, &inputs.corpus, &mut tr)?;
    report.gate(serve.mismatched == 0, || {
        format!(
            "{} serve answer(s) differ from proto::answer_line",
            serve.mismatched
        )
    });

    let spans_path = dir.join("spans.jsonl");
    trace::write_jsonl(tr.spans(), &spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let totals = trace::totals_by_name(tr.spans());
    let get = |name: &str| totals.get(name);

    // workload
    let networks = get("workload.network").map_or(0, |t| t.count);
    let sets = get("workload.taskset").map_or(0, |t| t.count);
    let (networks, sets) = match get("workload.corpus") {
        Some(_) => (inputs.corpus.networks, inputs.corpus.task_sets),
        None => (networks, sets),
    };
    report.metric("workload.networks_generated", networks as f64, "count");
    report.metric("workload.tasksets_generated", sets as f64, "count");
    report.metric("workload.gen_failed", counts.gen_failed as f64, "count");
    report.metric(
        "workload.gen_busy_s",
        secs(get("workload.network"))
            + secs(get("workload.taskset"))
            + secs(get("workload.corpus")),
        "s",
    );

    // sched: a batch call's time and count go to each of its members,
    // its time shared equally among them (as the campaign shares a batch's
    // fixpoint iterations).
    let mut per_test: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    for (name, t) in &totals {
        let Some(rest) = name.strip_prefix("sched.") else {
            continue;
        };
        let members: Vec<&str> = match rest.strip_prefix("batch:") {
            Some(list) => list.split('+').collect(),
            None => vec![rest],
        };
        for m in &members {
            if let Some(test) = CPU_TESTS.iter().find(|t| *t == m) {
                let e = per_test.entry(test).or_default();
                e.0 += t.count;
                e.1 += t.total_ns as f64 / members.len() as f64;
            }
        }
    }
    for t in CPU_TESTS {
        let (calls, ns) = per_test.get(t).copied().unwrap_or_default();
        report.metric(&format!("sched.calls.{t}"), calls as f64, "count");
        report.metric(&format!("sched.busy_s.{t}"), ns / 1e9, "s");
        let name = format!("sched.ns_per_call.{t}");
        if calls > 0 {
            report.metric(&name, ns / calls as f64, "ns");
        } else {
            report.unavailable(&name, "ns", "no calls on this workload");
        }
    }
    if per_test.is_empty() {
        report.unavailable(
            "sched.fixpoint_iters",
            "count",
            "no sched calls on this workload",
        );
    } else {
        report.metric("sched.fixpoint_iters", counts.sched_iters as f64, "count");
    }
    report.unavailable(
        "sched.warm_hit_ratio",
        "ratio",
        "sched's warm memos keep no hit counter; the campaign's warm_hit column flags \
         units that reuse their chain's generated task set, not memo hits",
    );

    // core
    for policy in PolicyKind::ALL {
        let p = policy.name();
        let tot = get(&format!("core.{p}"));
        report.metric(
            &format!("core.calls.{p}"),
            tot.map_or(0, |t| t.count) as f64,
            "count",
        );
        report.metric(&format!("core.busy_s.{p}"), secs(tot), "s");
        let name = format!("core.ns_per_call.{p}");
        match tot {
            Some(_) => report.metric(&name, mean_us(tot) * 1e3, "ns"),
            None => report.unavailable(&name, "ns", "no calls under this policy on this workload"),
        }
    }
    report.unavailable(
        "core.fixpoint_iters",
        "count",
        "the network analyses expose no iteration counter (units.csv carries NaN)",
    );

    // sim
    let (st, dy) = (get("sim.static"), get("sim.dynamic"));
    let runs = st.map_or(0, |t| t.count) + dy.map_or(0, |t| t.count);
    let sim_busy = secs(st) + secs(dy);
    report.metric("sim.runs", runs as f64, "count");
    report.metric("sim.busy_s.static", secs(st), "s");
    report.metric("sim.busy_s.dynamic", secs(dy), "s");
    report.metric("sim.visits", counts.sim_visits as f64, "count");
    report.metric("sim.rotations_ffwd", counts.sim_ffwd as f64, "count");
    if runs > 0 {
        let walked = counts.sim_visits + counts.sim_skipped_visits;
        report.metric(
            "sim.ffwd_share",
            counts.sim_skipped_visits as f64 / walked.max(1) as f64,
            "ratio",
        );
        report.metric(
            "sim.visits_per_s",
            counts.sim_visits as f64 / sim_busy,
            "1/s",
        );
        report.metric("sim.ticks_per_s", counts.sim_ticks as f64 / sim_busy, "1/s");
    } else {
        for (n, u) in [
            ("sim.ffwd_share", "ratio"),
            ("sim.visits_per_s", "1/s"),
            ("sim.ticks_per_s", "1/s"),
        ] {
            report.unavailable(n, u, "no simulation runs on this workload");
        }
    }

    // experiments
    match &exp {
        Some((spec, e)) => {
            let chains: Vec<f64> = tr
                .spans()
                .iter()
                .filter(|s| s.name == "experiments.eval_chain")
                .map(|s| s.duration_ns() as f64 / 1e9)
                .collect();
            let eval_s = secs(get("experiments.eval"));
            let mean = chains.iter().sum::<f64>() / chains.len().max(1) as f64;
            let max = chains.iter().copied().fold(0.0, f64::max);
            report.metric("experiments.plan_s", secs(get("experiments.plan")), "s");
            report.metric("experiments.eval_s", eval_s, "s");
            report.metric("experiments.artifact_s", e.artifact_s, "s");
            report.metric("experiments.chains", chains.len() as f64, "count");
            report.metric("experiments.tail_ratio", max / mean, "ratio");
            report.metric(
                "experiments.worker_busy_share",
                chains.iter().sum::<f64>() / (workload::workers() as f64 * eval_s),
                "ratio",
            );
            let names = eval::metric_names(spec.kind);
            let traced = |col: &str| -> Option<f64> {
                if col == "fixpoint_iters" {
                    e.evals
                        .iter()
                        .map(|u| Some(u.fixpoint_iters).filter(|x| !x.is_nan()))
                        .sum()
                } else {
                    let i = names.iter().position(|n| *n == col)?;
                    e.evals
                        .iter()
                        .map(|u| u.row.get(i).copied().filter(|x| !x.is_nan()))
                        .sum()
                }
            };
            for col in ["fixpoint_iters", "sim_visits", "sim_ffwd"] {
                let why = match col {
                    "fixpoint_iters" => {
                        "network units carry NaN: the analyses are not instrumented"
                    }
                    _ => "cpu campaigns have no simulation columns",
                };
                let name = format!("experiments.{col}");
                match traced(col) {
                    Some(v) => report.metric(&name, v, "count"),
                    None => report.unavailable(&name, "count", why),
                }
                let name = format!("experiments.{col}.units_csv");
                match workload::column_sum(&e.units_csv, col) {
                    Some(v) => report.metric(&name, v, "count"),
                    None => report.unavailable(&name, "count", why),
                }
            }
        }
        None => {
            for (n, u) in per_layer_metrics()
                .into_iter()
                .filter(|(n, _)| n.starts_with("experiments."))
            {
                report.unavailable(&n, u, "serve-open runs no campaign");
            }
        }
    }

    // serve
    let parse_us = mean_us(get("serve.parse"));
    let eval_us = mean_us(get("serve.eval"));
    let render_us = mean_us(get("serve.render"));
    report.metric("serve.parse_us", parse_us, "us");
    report.metric("serve.eval_us", eval_us, "us");
    report.metric("serve.render_us", render_us, "us");
    report.metric("serve.engine_us", mean_us(get("serve.engine")), "us");
    // A memo hit skips evaluation, so only the daemon's share of misses
    // pays the in-process eval time.
    match serve.memo {
        Some((hits, misses)) if hits + misses > 0.0 => {
            let miss_share = misses / (hits + misses);
            report.metric(
                "serve.wait_us",
                serve.rtt_mean_us - parse_us - render_us - miss_share * eval_us,
                "us",
            );
            report.metric("serve.memo_hit_ratio", hits / (hits + misses), "ratio");
        }
        _ => {
            let why = "the daemon's stats op gave no memo counts";
            report.unavailable("serve.wait_us", "us", why);
            report.unavailable("serve.memo_hit_ratio", "ratio", why);
        }
    }
    for (name, value) in [
        ("serve.p50_us", serve.p50_us),
        ("serve.p99_us", serve.p99_us),
    ] {
        match value {
            Some(v) => report.metric(name, v, "us"),
            None => report.unavailable(name, "us", "too few requests for a window of 1000"),
        }
    }
    report.metric("serve.rejected", serve.rejected as f64, "count");
    report.metric("serve.backlog_max", serve.backlog_max as f64, "count");
    report.metric("serve.gen_lag_us", serve.gen_lag_us, "us");

    report.metric("trace.overhead_ratio", traced_s / plain_s, "ratio");
    report.metric("trace.spans", tr.spans().len() as f64, "count");

    report.attempted = inputs.corpus.lines.len() as u64 * 3;
    report.failed = serve.mismatched as u64;
    report.notes.push(format!(
        "direct pass: {plain_s:.3} s untraced, {traced_s:.3} s traced (two rounds each); spans in {}",
        spans_path.display()
    ));
    let mut self_by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, t) in &totals {
        let layer = name.split('.').next().unwrap_or("");
        *self_by_layer.entry(layer).or_default() += t.self_ns;
    }
    report.notes.push(format!(
        "self time by layer (s): {}",
        self_by_layer
            .iter()
            .map(|(l, ns)| format!("{l} {:.4}", *ns as f64 / 1e9))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(report)
}
