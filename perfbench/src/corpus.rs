//! Request corpora for the admission daemon, generated from a seed, with
//! the reference answer of every line.
//!
//! About half of the lines ask a fresh question (a newly generated ring or
//! task set); the other half repeat one of the recent questions under a
//! new `id`, which the daemon's memo should answer.

use profirt_base::json::{self, Value};
use profirt_base::Prng;
use profirt_core::PolicyKind;
use profirt_experiments::exps::common;
use profirt_serve::proto;
use profirt_workload::GeneratedNetwork;

use crate::layers::{self, CPU_TESTS};

/// Which questions a corpus asks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Open admission traffic: `feasibility`, `response_times` and
    /// `admit` under every network policy, plus `task_feasibility`.
    Admission,
    /// The `campaign-cpu` inputs as questions: `task_feasibility` under
    /// the §2 tests.
    Tasks,
    /// The `campaign-net` inputs as questions: `feasibility` and
    /// `response_times` under FCFS, DM and EDF.
    Rings,
}

/// Request lines and the answer [`proto::answer_line`] gives to each.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    /// One request per line, without the newline.
    pub lines: Vec<String>,
    /// The reference answer of each line.
    pub refs: Vec<String>,
    /// Networks generated for the corpus.
    pub networks: u64,
    /// Task sets generated for the corpus.
    pub task_sets: u64,
}

/// Criticality mixes of generated rings, as the `campaign-net` axis.
const CRITICALITY_MIXES: [&str; 2] = ["all-hi", "mixed"];

/// How far back a repeated question may reach.
const REPEAT_WINDOW: usize = 48;

fn tasks_value(set: &profirt_base::TaskSet) -> Value {
    Value::Array(
        set.tasks()
            .iter()
            .map(|t| {
                json::object([
                    ("c", Value::Int(t.c.ticks())),
                    ("d", Value::Int(t.d.ticks())),
                    ("t", Value::Int(t.t.ticks())),
                ])
            })
            .collect(),
    )
}

fn pick<'a, T>(rng: &mut Prng, xs: &'a [T]) -> &'a T {
    &xs[rng.index(xs.len())]
}

fn ring_question(rng: &mut Prng, g: &GeneratedNetwork, op: &str, policy: PolicyKind) -> Value {
    let mut fields = vec![
        ("op", Value::Str(op.to_string())),
        ("policy", Value::Str(policy.name().to_string())),
        ("net", proto::net_to_value(&g.config)),
    ];
    if op == "admit" {
        // Re-offer a copy of a random existing stream to a random master.
        let master = rng.index(g.config.masters.len());
        let streams = g.config.masters[master].streams.streams();
        if let Some(s) = streams.get(rng.index(streams.len().max(1))) {
            fields.push((
                "stream",
                json::object([
                    ("master", Value::Int(master as i64)),
                    ("ch", Value::Int(s.ch.ticks())),
                    ("d", Value::Int(s.d.ticks())),
                    ("t", Value::Int(s.t.ticks())),
                ]),
            ));
        }
    }
    json::object(fields)
}

impl Corpus {
    /// Generates `n` request lines of the given mix from `seed`, with
    /// their reference answers when `answers` is set.
    pub fn generate(mix: Mix, seed: u64, n: usize, answers: bool) -> Result<Corpus, String> {
        let mut rng = Prng::seed_from_u64(seed ^ 0xC0_4B05);
        let mut corpus = Corpus::default();
        let mut questions: Vec<Value> = Vec::new();
        for i in 0..n {
            let repeat = !questions.is_empty() && rng.unit() < 0.5;
            let q = if repeat {
                let back = rng.index(questions.len().min(REPEAT_WINDOW));
                questions[questions.len() - 1 - back].clone()
            } else {
                let q = corpus.fresh_question(mix, &mut rng)?;
                questions.push(q.clone());
                q
            };
            let mut obj = q.as_object().cloned().unwrap_or_default();
            obj.insert("id".to_string(), Value::Int(i as i64));
            let line = Value::Object(obj).compact();
            if answers {
                corpus.refs.push(proto::answer_line(&line));
            }
            corpus.lines.push(line);
        }
        Ok(corpus)
    }

    fn fresh_question(&mut self, mix: Mix, rng: &mut Prng) -> Result<Value, String> {
        let tasks_q = |me: &mut Corpus, rng: &mut Prng, n: usize, u: f64, d: f64| {
            let set = layers::gen_task_set(rng.next_u64(), &layers::task_params(n, u, d))?;
            me.task_sets += 1;
            Ok::<Value, String>(json::object([
                ("op", Value::Str("task_feasibility".to_string())),
                ("test", Value::Str(pick(rng, &CPU_TESTS).to_string())),
                ("tasks", tasks_value(&set)),
            ]))
        };
        match mix {
            Mix::Tasks => {
                let u = *pick(rng, &[0.7, 0.85, 0.95]);
                let d = *pick(rng, &[0.6, 1.0]);
                let set = layers::gen_task_set(rng.next_u64(), &layers::task_params(8, u, d))?;
                self.task_sets += 1;
                // The two EDF response-time analyses take milliseconds per
                // question here; one of them holds its connection long
                // enough to set the tail on its own, so the daemon is
                // asked the other five tests.
                Ok(json::object([
                    ("op", Value::Str("task_feasibility".to_string())),
                    ("test", Value::Str(pick(rng, &CPU_TESTS[..5]).to_string())),
                    ("tasks", tasks_value(&set)),
                ]))
            }
            Mix::Rings => {
                let params = layers::net_params(
                    *pick(rng, &[2, 4]),
                    *pick(rng, &[3, 6]),
                    *pick(rng, &[0.6, 1.0]),
                    CRITICALITY_MIXES[rng.index(CRITICALITY_MIXES.len())],
                );
                let g = common::gen_network(rng.next_u64(), &params);
                self.networks += 1;
                let policy = *pick(rng, &[PolicyKind::Fcfs, PolicyKind::Dm, PolicyKind::Edf]);
                let op = *pick(rng, &["feasibility", "response_times"]);
                Ok(ring_question(rng, &g, op, policy))
            }
            Mix::Admission => {
                // One question in eight is about a task set.
                if rng.index(8) == 0 {
                    let u = 0.5 + 0.4 * rng.unit();
                    let d = *pick(rng, &[0.7, 1.0]);
                    let n = 4 + rng.index(5);
                    return tasks_q(self, rng, n, u, d);
                }
                let params = layers::net_params(
                    2 + rng.index(4),
                    2 + rng.index(4),
                    0.5 + 0.5 * rng.unit(),
                    CRITICALITY_MIXES[rng.index(CRITICALITY_MIXES.len())],
                );
                let g = common::gen_network(rng.next_u64(), &params);
                self.networks += 1;
                let policy = *pick(rng, &PolicyKind::ALL);
                let op = *pick(rng, &["feasibility", "response_times", "admit"]);
                Ok(ring_question(rng, &g, op, policy))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_seeded_and_answerable() {
        for mix in [Mix::Admission, Mix::Tasks, Mix::Rings] {
            let a = Corpus::generate(mix, 11, 60, true).unwrap();
            let b = Corpus::generate(mix, 11, 60, true).unwrap();
            assert_eq!(a.lines, b.lines, "{mix:?}");
            for (line, answer) in a.lines.iter().zip(&a.refs) {
                assert!(answer.contains("\"ok\":true"), "{line} -> {answer}");
            }
        }
    }

    #[test]
    fn about_half_the_questions_repeat() {
        let c = Corpus::generate(Mix::Admission, 5, 400, false).unwrap();
        let keys: std::collections::BTreeSet<String> = c
            .lines
            .iter()
            .map(|l| proto::parse_request(l).unwrap().key)
            .collect();
        let fresh = keys.len() as f64 / c.lines.len() as f64;
        assert!((0.4..0.6).contains(&fresh), "fresh share {fresh}");
    }
}
