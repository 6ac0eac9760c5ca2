//! In-memory spans recorded around calls into the workspace's layers.
//!
//! A span has a name, a start, an end and the span that caused it.  A
//! layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover, so nested spans are never counted twice.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or stage name, e.g. `model.collect`.
    pub name: &'static str,
    /// Start, in ns since the origin.
    pub start: u64,
    /// End, in ns since the origin (equal to `start` while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records spans; all of them stay in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        self_times(&self.spans)
    }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(&mut children) {
        let covered = covered_within(kids, span.start, span.end);
        let own = span.end.saturating_sub(span.start).saturating_sub(covered);
        *out.entry(span.name).or_default() += Duration::from_nanos(own);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("unit", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: the covered part counts once.
            span("b", 20, 50, Some(0)),
            // Sticks out past the parent: clipped at 100.
            span("c", 90, 120, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["unit"], Duration::from_nanos(100 - 40 - 10));
        assert_eq!(t["a"], Duration::from_nanos(20));
        assert_eq!(t["b"], Duration::from_nanos(30));
        assert_eq!(t["c"], Duration::from_nanos(30));
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        let spans = [
            span("root", 0, 100, None),
            span("mid", 0, 60, Some(0)),
            span("leaf", 10, 40, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], Duration::from_nanos(40));
        assert_eq!(t["mid"], Duration::from_nanos(30));
        assert_eq!(t["leaf"], Duration::from_nanos(30));
    }

    #[test]
    fn self_times_sum_per_name() {
        let spans = [
            span("unit", 0, 10, None),
            span("gen", 0, 4, Some(0)),
            span("unit", 10, 20, None),
            span("gen", 10, 13, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["gen"], Duration::from_nanos(7));
        assert_eq!(t["unit"], Duration::from_nanos(13));
    }

    #[test]
    fn recorded_spans_nest() {
        let mut tracer = Tracer::default();
        let unit = tracer.open("unit", None);
        let v = tracer.leaf("work", unit, || (0..1000u64).sum::<u64>());
        tracer.close(unit);
        assert_eq!(v, 499_500);
        let t = tracer.self_times();
        assert!(t.contains_key("unit") && t.contains_key("work"));
    }
}
