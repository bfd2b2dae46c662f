//! In-memory span log of the traced run: each span has a name, a start and
//! an end, an optional parent and the request it belongs to. The log is
//! written out as JSON lines when the run ends, and reduced to per-layer
//! self times.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers (`request`, `net.send`, ...).
    pub name: &'static str,
    /// Index of the parent span in the log.
    pub parent: Option<usize>,
    /// Request (or offline batch) the span belongs to.
    pub request: u64,
    /// Start, in ns since the log's origin.
    pub start_ns: u64,
    /// End, in ns since the log's origin (`>= start_ns`).
    pub end_ns: u64,
}

/// The span log of one run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span over `[start, end]` and returns its index. An end
    /// before the start is clamped to an empty span.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let start_ns = self.ns(start);
        let end_ns = self.ns(end).max(start_ns);
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Total self time and span count per span name. A span's self time
    /// is its duration minus the part of its interval that its children
    /// cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            let covered = covered_ns(span.start_ns, span.end_ns, kids);
            let entry = totals.entry(span.name).or_default();
            entry.0 += span.end_ns - span.start_ns - covered;
            entry.1 += 1;
        }
        totals
    }

    /// Writes the log as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut log = SpanLog::new(t0);
        let root = log.push("request", None, 0, at(0), at(100));
        // Two overlapping children cover [10, 50]; one pokes past the end.
        log.push("net.send", Some(root), 0, at(10), at(30));
        let recv = log.push("net.recv", Some(root), 0, at(20), at(50));
        log.push("server", Some(recv), 0, at(25), at(45));
        log.push("late", Some(root), 0, at(90), at(120));
        let times = log.self_times();
        assert_eq!(times["request"], (100_000 - 40_000 - 10_000, 1));
        assert_eq!(times["net.recv"], (30_000 - 20_000, 1));
        assert_eq!(times["server"], (20_000, 1));
        assert_eq!(log.len(), 5);
    }
}
