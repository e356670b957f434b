//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Each thread records into its own [`Tracer`]; buffers are merged and
//! written out when the run ends, so recording never takes a lock. With
//! tracing off every method is a no-op apart from running the timed closure.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Ids below this value are reserved for callers that derive a span id
/// from a request id, so a span on another thread can name it as parent.
const ALLOCATED_IDS_START: u64 = 1 << 48;
static NEXT_ID: AtomicU64 = AtomicU64::new(ALLOCATED_IDS_START);

/// A fresh span id.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// One recorded span. `parent == 0` marks a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A new, empty buffer with the same switch and epoch (for another thread).
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span whose bounds the caller measured.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                id,
                parent,
                request,
                start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, next_id(), parent, request, start, Instant::now());
        out
    }

    /// Moves another thread's spans into this buffer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span name: duration minus the part of its interval
/// that its child spans cover.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let entry = by_name.entry(s.name).or_insert(SelfTime {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        entry.count += 1;
        entry.total_ns += dur;
        entry.self_ns += dur - covered.min(dur);
    }
    by_name.into_values().collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 1, 0, 0, 100),
            span("a", 2, 1, 10, 40),
            span("b", 3, 1, 30, 60),  // overlaps a: union 10..60
            span("c", 4, 1, 90, 150), // clipped to 90..100
        ];
        let t = self_times(&spans);
        let root = t.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(root.self_ns, 100 - 50 - 10);
        let a = t.iter().find(|s| s.name == "a").unwrap();
        assert_eq!((a.count, a.self_ns), (1, 30));
    }
}
