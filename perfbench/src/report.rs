//! The result of one benchmark run and its one-line JSON rendering.

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value; always finite.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted: campaign units plus requests sent.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in the order they are printed.
    pub metrics: Vec<Metric>,
    /// Metrics that could not be measured on this run, with the reason.
    /// They are printed with value 0 and listed before the result line.
    pub unavailable: Vec<(String, String)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Correctness gates that failed, with what was seen.
    pub gate_failures: Vec<String>,
}

impl Report {
    /// Records a measurement. A value that is not finite is recorded as
    /// unavailable instead, never folded into a sum or printed as NaN.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push(Metric {
                name: name.to_string(),
                value,
                unit,
            });
        } else {
            self.unavailable(name, unit, "not measurable on this run (no samples)");
        }
    }

    /// Records a metric this run cannot measure, and why.
    pub fn unavailable(&mut self, name: &str, unit: &'static str, reason: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: 0.0,
            unit,
        });
        self.unavailable
            .push((name.to_string(), reason.to_string()));
    }

    /// Fails a correctness gate.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    /// Whether every output the run checked was right.
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_values_become_unavailable() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("a", 1.5, "ms");
        r.metric("b", f64::NAN, "count");
        assert_eq!(r.unavailable.len(), 1);
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_failed_gate_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.gate(false, || "digest differs".to_string());
        assert!(r.json_line().starts_with("{\"correct\": false"));
    }
}
