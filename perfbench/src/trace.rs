//! In-memory span collector for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (name, start, end, parent span, request/job id), kept in memory, and
//! written as JSONL when the run ends. A span's *self time* is its
//! duration minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request or job the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An open span; close it with [`Tracer::close`].
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: String,
    req: u64,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's epoch to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn open(&self, name: &str, parent: Option<u64>, req: u64) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_owned(),
            req,
            start_ns: self.now_ns(),
        }
    }

    pub fn close(&self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        self.record(
            open.name,
            open.parent,
            open.req,
            open.start_ns,
            end_ns,
            Some(open.id),
        )
    }

    /// Records an already-measured interval; returns its span id.
    pub fn record(
        &self,
        name: String,
        parent: Option<u64>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
        id: Option<u64>,
    ) -> u64 {
        let id = id.unwrap_or_else(|| self.next.fetch_add(1, Ordering::Relaxed));
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            req,
        });
        id
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(&self, name: &str, parent: u64, req: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, Some(parent), req);
        let out = f();
        self.close(open);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Total self time in milliseconds per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| union_ns(c, s.start_ns, s.end_ns));
        *totals.entry(s.name.clone()).or_insert(0.0) +=
            (s.end_ns - s.start_ns - covered) as f64 / 1e6;
    }
    totals
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            req: 0,
        };
        let spans = vec![
            span(1, None, 0, 10_000_000),
            span(2, Some(1), 1_000_000, 4_000_000),
            span(3, Some(1), 3_000_000, 5_000_000),
        ];
        let totals = self_times(&spans);
        assert_eq!(totals["s1"], 6.0);
        assert_eq!(totals["s2"], 3.0);
    }
}
