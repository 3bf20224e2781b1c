//! Metric collection, the human-readable report, and the one-line JSON
//! result the benchmark ends with.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations refused or failed.
    pub failed: u64,
    /// Failed correctness checks (empty = correct).
    pub violations: Vec<String>,
    /// Free-form report lines (diagnostics, additivity, run record).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(value.is_finite(), "{name} is not finite");
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, unit });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Fails the run with `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.violations.push(what.into());
        }
    }

    /// Merges another outcome's metrics, counts, checks, and notes.
    pub fn absorb(&mut self, other: Outcome) {
        for m in other.metrics {
            self.put(m.name, m.value, m.unit);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
        self.notes.extend(other.notes);
    }
}

/// Formats a value with every digit it was measured with.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding the listed metric names in order.
pub fn result_json(outcome: &Outcome, names: &[&str]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.violations.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    );
    let mut first = true;
    for name in names {
        let Some(m) = outcome.metrics.iter().find(|m| m.name == *name) else {
            continue;
        };
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Every metric as an aligned `name = value unit` table.
pub fn metric_table(metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "  {:<width$} = {:>14.4} {}", m.name, m.value, m.unit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.put("a_s", 1.25, "s");
        o.put("b", 3.0, "count");
        o.put("unlisted", 9.0, "s");
        let line = result_json(&o, &["a_s", "b"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        o.check(false, "broken");
        assert!(result_json(&o, &["a_s"]).starts_with("{\"correct\": false"));
    }
}
