//! What a workload run hands back, and how it is printed.

use std::fmt::Write as _;

use crate::trace::Tracer;

/// Which clock a metric is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Real time spent by this process.
    Host,
    /// `bolt-gpu-sim` device time.
    Sim,
    /// Host wait plus simulated kernel time (the serving timeline).
    HostSim,
    /// A count or ratio of counts; no clock.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::HostSim => "host+sim",
            Clock::Count => "count",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Clock it is read on.
    pub clock: Clock,
    /// Samples behind it, with the percentile taken when it is one.
    pub samples: Option<(usize, Option<f64>)>,
}

impl Metric {
    /// A metric with no sample provenance.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            clock,
            samples: None,
        }
    }

    /// Records the sample count behind the value.
    pub fn over(mut self, n: usize) -> Metric {
        self.samples = Some((n, None));
        self
    }

    /// Records the sample count and the percentile taken.
    pub fn pct(mut self, n: usize, p: f64) -> Metric {
        self.samples = Some((n, Some(p)));
        self
    }
}

/// A correctness check run outside the timed window.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Items checked.
    pub checked: u64,
    /// Items that failed.
    pub failed: u64,
    /// One line of detail.
    pub detail: String,
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: refused, shed, lost or wrong.
    pub failed: u64,
    /// Output and sum checks.
    pub checks: Vec<Check>,
    /// The workload's own end-to-end metrics, by their descriptive names.
    pub named: Vec<Metric>,
    /// Values for the generic end-to-end names of `BENCHMARK.json`.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Extra provenance, `(key, value)`.
    pub notes: Vec<(String, String)>,
    /// Spans of the traced passes.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Adds a check; its failures count as failed operations.
    pub fn check(&mut self, name: &'static str, checked: u64, failed: u64, detail: String) {
        self.failed += failed;
        self.checks.push(Check {
            name,
            checked,
            failed,
            detail,
        });
    }

    /// Adds a provenance note.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// True when every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.failed == 0)
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as a JSON literal, all digits kept.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Every metric's clock and sample provenance as a JSON object.
pub fn provenance_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = match m.samples {
                None => String::new(),
                Some((n, None)) => format!(", \"samples\": {n}"),
                Some((n, Some(p))) => {
                    format!(", \"samples\": {n}, \"percentile\": {}", json_num(p))
                }
            };
            format!(
                "{}: {{\"clock\": {}{samples}}}",
                json_str(&m.name),
                json_str(m.clock.label())
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A human-readable table of metrics.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("== {title}\n");
    for m in metrics {
        let samples = match m.samples {
            None => String::new(),
            Some((n, None)) => format!("n={n}"),
            Some((n, Some(p))) => format!("p{p} of n={n}"),
        };
        let _ = writeln!(
            out,
            "  {:<44} {:>16.4} {:<8} {:<9} {samples}",
            m.name,
            m.value,
            m.unit,
            m.clock.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_keeps_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        let m = [Metric::new("x.y", 3.0, "ms", Clock::Host).pct(1000, 99.0)];
        assert_eq!(
            metrics_json(&m),
            "{\"x.y\": {\"value\": 3.0, \"unit\": \"ms\"}}"
        );
        assert_eq!(
            provenance_json(&m),
            "{\"x.y\": {\"clock\": \"host\", \"samples\": 1000, \"percentile\": 99.0}}"
        );
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.check("fine", 10, 0, String::new());
        assert!(o.correct());
        o.check("broken", 10, 2, String::new());
        assert!(!o.correct());
        assert_eq!(o.failed, 2);
    }
}
