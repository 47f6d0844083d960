//! In-memory spans recorded around the benchmark's own calls into each
//! layer, reduced to a per-layer table and written out when a run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// One timed interval. Times are µs since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `graph.passes`.
    pub name: &'static str,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs (≥ start).
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request, sequence or compile id shared by a unit of work's spans.
    pub id: u64,
}

impl Span {
    /// Duration, µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span recorder. Spans stay in memory until [`Tracer::write`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// µs since the origin.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Converts an instant to µs since the origin.
    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        debug_assert!(span.end_us >= span.start_us, "span ends before it starts");
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as span `name` under `parent`, returning its result and
    /// the span's index. `f` receives the span's index, the parent of
    /// any span it records.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> (T, usize) {
        let start_us = self.now_us();
        let index = self.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            id,
        });
        let out = f(self, index);
        self.spans[index].end_us = self.now_us();
        (out, index)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name rows of count, total, self time and percentiles.
    pub fn table(&self) -> Vec<LayerRow> {
        let self_us = self_times(&self.spans);
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_us) {
            let entry = by_name.entry(span.name).or_default();
            entry.0.push(span.dur_us());
            entry.1 += own;
        }
        by_name
            .into_iter()
            .map(|(name, (durs, self_us))| {
                let sorted = stats::sorted(durs);
                let (tail_p, tail_us) = stats::tail(&sorted, 99.0);
                LayerRow {
                    name,
                    count: sorted.len(),
                    total_us: sorted.iter().sum(),
                    self_us,
                    p50_us: stats::percentile(&sorted, 50.0),
                    tail_p,
                    tail_us,
                }
            })
            .collect()
    }

    /// Writes every span as a JSON array to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_us, s.end_us, s.id
            );
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of this name.
    pub count: usize,
    /// Σ duration, µs.
    pub total_us: f64,
    /// Σ self time (duration not covered by child spans), µs.
    pub self_us: f64,
    /// Median duration, µs.
    pub p50_us: f64,
    /// Tail percentile reported (see [`stats::tail`]).
    pub tail_p: f64,
    /// Duration at that percentile, µs.
    pub tail_us: f64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Overlapping children count once; a child
/// reaching outside its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite span times"));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_us);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("compile", 0.0, 10.0, None),
            span("passes", 1.0, 3.0, Some(0)),
            span("profile", 4.0, 8.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![4.0, 2.0, 4.0]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("request", 0.0, 10.0, None),
            span("queue", 2.0, 6.0, Some(0)),
            span("submit", 2.0, 3.0, Some(0)),
            span("kernel", 5.0, 7.0, Some(0)),
        ];
        // Children cover [2, 7]: five of the ten µs.
        assert_eq!(self_times(&spans)[0], 5.0);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span("step", 10.0, 20.0, None),
            span("early", 5.0, 12.0, Some(0)),
            span("late", 18.0, 30.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 6.0);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span("a", 0.0, 10.0, None),
            span("b", 0.0, 6.0, Some(0)),
            span("c", 1.0, 5.0, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![4.0, 2.0, 4.0]);
    }

    #[test]
    fn table_groups_by_name() {
        let mut t = Tracer::new();
        t.push(span("x", 0.0, 10.0, None));
        t.push(span("y", 2.0, 4.0, Some(0)));
        t.push(span("x", 20.0, 24.0, None));
        let rows = t.table();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].name, rows[0].count), ("x", 2));
        assert_eq!(rows[0].total_us, 14.0);
        assert_eq!(rows[0].self_us, 12.0);
        assert_eq!((rows[1].name, rows[1].self_us), ("y", 2.0));
    }

    #[test]
    fn timed_spans_nest() {
        let mut t = Tracer::new();
        let ((), outer) = t.time("outer", None, 1, |t, me| {
            t.time("inner", Some(me), 1, |_, _| ());
        });
        assert_eq!(outer, 0);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_us <= s[1].start_us && s[1].end_us <= s[0].end_us);
    }
}
