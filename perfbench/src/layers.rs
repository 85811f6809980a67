//! Direct calls into the library layers: workload generation, the §2
//! task-set tests (`sched`), the §3–4 message analyses (`core`) and the
//! token-ring simulator (`sim`). The traced run wraps each call in a span;
//! the input builders are shared with the untraced run so both see the
//! same generated inputs. Networks are generated and simulated through
//! the experiments' own helpers (`exps::common`), so the benchmark runs
//! the code paths `campaign run` runs.

use profirt_base::{Prng, TaskSet};
use profirt_core::{NetworkConfig, PolicyKind, PolicyTuning};
use profirt_experiments::exps::common::{self, RingScenario};
use profirt_sched::edf::{
    edf_feasibility_batch, edf_feasible_nonpreemptive_with, edf_feasible_preemptive_with,
    edf_response_times_with, np_edf_response_times_with, DemandConfig, DemandFormula,
    DemandVariantSpec, EdfRtaConfig, NpBlockingModel, NpEdfRtaConfig, NpFeasibilityConfig,
};
use profirt_sched::fixed::{
    np_response_times_with, response_times_batch, response_times_with, FixedBatchMode,
    FixedBatchVariant, NpFixedConfig, PriorityMap, RtaConfig,
};
use profirt_sched::{AnalysisScratch, FixpointConfig};
use profirt_sim::ModeSimConfig;
use profirt_workload::{
    generate_task_set, CriticalityMix, GeneratedNetwork, NetGenParams, TaskGenParams,
};

/// The §2 tests the benchmark exercises, in campaign-axis spelling.
pub const CPU_TESTS: [&str; 7] = [
    "rm-rta",
    "dm-rta",
    "np-dm",
    "edf-demand",
    "np-edf-george",
    "edf-rta",
    "np-edf-rta",
];

/// Task-generation parameters of one `cpu` matrix point, as the campaign
/// evaluator builds them.
pub fn task_params(tasks: usize, utilization: f64, deadline_frac: f64) -> TaskGenParams {
    let params = common::taskgen(tasks, utilization);
    if deadline_frac < 1.0 {
        params.with_deadline_frac(deadline_frac, 1.0)
    } else {
        params
    }
}

/// Generates one task set.
pub fn gen_task_set(seed: u64, params: &TaskGenParams) -> Result<TaskSet, String> {
    generate_task_set(&mut Prng::seed_from_u64(seed), params).map_err(|e| e.to_string())
}

/// Network-generation parameters of one `network` matrix point.
pub fn net_params(masters: usize, streams: usize, tightness: f64, mix: &str) -> NetGenParams {
    let mix = CriticalityMix::parse(mix).unwrap_or(CriticalityMix::AllHi);
    common::netgen(tightness, streams, masters).with_criticality_mix(mix)
}

/// Runs one §2 test per call, the way the daemon's `task_feasibility` op
/// does; `Ok(accepted)`, or the analysis error.
pub fn cpu_test(test: &str, set: &TaskSet, scratch: &mut AnalysisScratch) -> Result<bool, String> {
    let err = |e: profirt_base::AnalysisError| e.to_string();
    match test {
        "rm-rta" | "dm-rta" => {
            let prio = if test == "rm-rta" {
                PriorityMap::rate_monotonic(set)
            } else {
                PriorityMap::deadline_monotonic(set)
            };
            response_times_with(set, &prio, &RtaConfig::default(), scratch)
                .map(|an| an.all_schedulable())
                .map_err(err)
        }
        "np-dm" => np_response_times_with(
            set,
            &PriorityMap::deadline_monotonic(set),
            &NpFixedConfig::george(),
            scratch,
        )
        .map(|an| an.all_schedulable())
        .map_err(err),
        "edf-demand" => edf_feasible_preemptive_with(
            set,
            &DemandConfig {
                formula: DemandFormula::Standard,
                ..Default::default()
            },
            scratch,
        )
        .map(|f| f.feasible)
        .map_err(err),
        "np-edf-george" => edf_feasible_nonpreemptive_with(
            set,
            &NpFeasibilityConfig {
                blocking: NpBlockingModel::George,
                formula: DemandFormula::Standard,
                ..Default::default()
            },
            scratch,
        )
        .map(|f| f.feasible)
        .map_err(err),
        "edf-rta" => edf_response_times_with(set, &EdfRtaConfig::default(), scratch)
            .map(|(_, d)| set.iter().all(|(i, t)| d[i].wcrt <= t.d))
            .map_err(err),
        "np-edf-rta" => np_edf_response_times_with(set, &NpEdfRtaConfig::default(), scratch)
            .map(|(_, d)| set.iter().all(|(i, t)| d[i].wcrt <= t.d))
            .map_err(err),
        other => Err(format!("test {other:?} is not driven by the benchmark")),
    }
}

/// How a campaign chain evaluates one §2 test on a shared task set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// One `edf_feasibility_batch` call for every demand-type test.
    DemandBatch,
    /// One `response_times_batch` call for every fixed-priority RTA test.
    FixedBatch,
    /// A per-call `*_with` function.
    Solo,
}

/// The route the campaign evaluator takes for `test`.
pub fn route(test: &str) -> Route {
    match test {
        "edf-demand" | "np-edf-george" => Route::DemandBatch,
        "rm-rta" | "dm-rta" | "np-dm" => Route::FixedBatch,
        _ => Route::Solo,
    }
}

/// The demand-batch variants of `tests`, in order.
pub fn demand_variants(tests: &[&str]) -> Vec<DemandVariantSpec> {
    tests
        .iter()
        .map(|t| DemandVariantSpec {
            formula: DemandFormula::Standard,
            blocking: (*t == "np-edf-george").then_some(NpBlockingModel::George),
        })
        .collect()
}

/// The fixed-priority batch variants of `tests` on `set`, in order.
pub fn fixed_variants(tests: &[&str], set: &TaskSet) -> Vec<FixedBatchVariant> {
    tests
        .iter()
        .map(|t| match *t {
            "rm-rta" | "dm-rta" => FixedBatchVariant {
                prio: if *t == "rm-rta" {
                    PriorityMap::rate_monotonic(set)
                } else {
                    PriorityMap::deadline_monotonic(set)
                },
                mode: FixedBatchMode::Preemptive {
                    config: RtaConfig::default(),
                    with_jitter: false,
                },
            },
            _ => FixedBatchVariant {
                prio: PriorityMap::deadline_monotonic(set),
                mode: FixedBatchMode::Nonpreemptive(NpFixedConfig::george()),
            },
        })
        .collect()
}

/// One `edf_feasibility_batch` call; the verdict of each variant.
pub fn demand_batch(
    set: &TaskSet,
    variants: &[DemandVariantSpec],
    scratch: &mut AnalysisScratch,
) -> Result<Vec<bool>, String> {
    edf_feasibility_batch(set, variants, FixpointConfig::default(), scratch)
        .map(|res| res.iter().map(|f| f.feasible).collect())
        .map_err(|e| e.to_string())
}

/// One `response_times_batch` call; the verdict of each variant.
pub fn fixed_batch(
    set: &TaskSet,
    variants: &[FixedBatchVariant],
    scratch: &mut AnalysisScratch,
) -> Result<Vec<bool>, String> {
    response_times_batch(set, variants, scratch)
        .map(|res| res.iter().map(|an| an.all_schedulable()).collect())
        .map_err(|e| e.to_string())
}

/// Runs one network analysis; `Ok(all schedulable)` or the analysis error.
pub fn analyze(policy: PolicyKind, net: &NetworkConfig) -> Result<bool, String> {
    policy
        .analyze_with(net, &PolicyTuning::default())
        .map(|an| an.all_schedulable())
        .map_err(|e| e.to_string())
}

/// The ring scenario a campaign unit simulates: the named churn level's
/// membership plan, and the mode controller armed for sub-HI traffic.
pub fn scenario(g: &GeneratedNetwork, churn: &str, horizon: i64, seed: u64) -> RingScenario {
    RingScenario {
        gap_factor: 0,
        plan: common::churn_plan(churn, g.config.masters.len(), horizon, seed),
        mode: if g.config.has_sub_hi() {
            ModeSimConfig::enabled()
        } else {
            ModeSimConfig::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_profibus::QueuePolicy;

    #[test]
    fn every_benchmark_test_runs_per_call_and_batched_alike() {
        let set = gen_task_set(7, &task_params(6, 0.6, 1.0)).unwrap();
        let mut scratch = AnalysisScratch::new();
        let solo: Vec<bool> = CPU_TESTS
            .iter()
            .map(|t| cpu_test(t, &set, &mut scratch).unwrap())
            .collect();
        assert!(cpu_test("rm-ll", &set, &mut scratch).is_err());
        let pick = |r: Route| -> Vec<&str> {
            CPU_TESTS
                .iter()
                .copied()
                .filter(|t| route(t) == r)
                .collect()
        };
        let (demand, fixed) = (pick(Route::DemandBatch), pick(Route::FixedBatch));
        assert_eq!(demand, ["edf-demand", "np-edf-george"]);
        assert_eq!(fixed, ["rm-rta", "dm-rta", "np-dm"]);
        let d = demand_batch(&set, &demand_variants(&demand), &mut scratch).unwrap();
        let f = fixed_batch(&set, &fixed_variants(&fixed, &set), &mut scratch).unwrap();
        assert_eq!(d, solo[3..5]);
        assert_eq!(f, solo[..3]);
    }

    #[test]
    fn churn_and_sub_hi_traffic_route_through_the_dynamic_loop() {
        let all_hi = common::gen_network(3, &net_params(3, 2, 0.8, "all-hi"));
        let mixed = common::gen_network(3, &net_params(3, 2, 0.8, "mixed"));
        assert!(scenario(&all_hi, "none", 2_000_000, 1).is_static());
        assert!(!scenario(&all_hi, "light", 2_000_000, 1).is_static());
        assert!(!scenario(&mixed, "none", 2_000_000, 1).is_static());
        let quiet = scenario(&all_hi, "none", 2_000_000, 1);
        let obs = common::sim_observed_with(
            &all_hi,
            QueuePolicy::DeadlineMonotonic,
            2_000_000,
            1,
            &quiet,
        );
        assert!(obs.visits_simulated > 0);
    }
}
