//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! epoch), the span that caused it and the id of the operation (one
//! why-query or one request) all its spans share. Spans stay in memory
//! while the run measures and are written out when it ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `session.prepare`.
    pub name: &'static str,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Index of the causing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// Span recorder of one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Empty tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch for `t`.
    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = self.at(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.at(Instant::now());
    }

    /// Rename span `id` (a label known only after the call returns).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// All spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start.max(parent.start), s.end.min(parent.end));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Write spans as JSON lines (`id`, `name`, `op`, `parent`, `start_ns`,
/// `end_ns`, `self_ns`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\
             \"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.op, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("op", None, 0, 100),         // 0
            span("a", Some(0), 10, 30),       // 1
            span("b", Some(0), 20, 50),       // 2: overlaps a
            span("c", Some(0), 90, 120),      // 3: runs past its parent
            span("a.inner", Some(1), 12, 18), // 4
            span("lone", None, 200, 260),     // 5
            span("empty", Some(0), 60, 60),   // 6: zero length
        ];
        let t = self_times(&spans);
        // op: 100 minus the union [10,50) ∪ [90,100) = 40 + 10
        assert_eq!(t[0], 50);
        assert_eq!(t[1], 20 - 6);
        assert_eq!(t[2], 30);
        assert_eq!(t[3], 30);
        assert_eq!(t[4], 6);
        assert_eq!(t[5], 60);
        assert_eq!(t[6], 0);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["op"], 50);
        assert_eq!(by_name["a"], 14);
    }
}
