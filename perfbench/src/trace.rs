//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public function:
//! its name (`layer.operation`), start and end on a shared monotonic
//! clock, the span that was open on the same thread when it began (its
//! parent), and the id of the app or shard it worked for. Spans are kept
//! in memory and written out once, after the run, so recording costs one
//! clock read and one vector push per boundary.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// The app index or shard number the span worked for (inherited
    /// from the parent unless given).
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans on this thread: (id, key).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created: the clock spans use.
    pub fn mark(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span keyed by the enclosing span's key.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let key = OPEN.with(|open| open.borrow().last().map_or(0, |&(_, key)| key));
        self.keyed(name, key, f)
    }

    /// Runs `f` inside a span for app or shard `key`.
    pub fn keyed<R>(&self, name: &'static str, key: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().map_or(0, |&(id, _)| id);
            open.push((id, key));
            parent
        });
        let start_ns = self.mark();
        let out = f();
        let end_ns = self.mark();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span buffer lock").push(Span {
            id,
            parent,
            name,
            key,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span buffer lock");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Totals for one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    /// Summed durations, seconds.
    pub inclusive_s: f64,
    /// Summed self time (duration minus children), seconds.
    pub self_s: f64,
    pub calls: u64,
}

/// Totals per span name. A span's self time is its duration minus its
/// children's; children run on the parent's thread, inside its interval,
/// so they never overlap.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let own = s.duration_ns() - child_ns.get(&s.id).copied().unwrap_or(0);
        let t = out.entry(s.name).or_default();
        t.inclusive_s += s.duration_ns() as f64 * 1e-9;
        t.self_s += own as f64 * 1e-9;
        t.calls += 1;
    }
    out
}

/// Share of the wall-clock window `[from_ns, to_ns)` during which at
/// least one span was open on some thread.
pub fn coverage(spans: &[Span], from_ns: u64, to_ns: u64) -> f64 {
    if to_ns <= from_ns {
        return 0.0;
    }
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = from_ns;
    for (a, b) in intervals {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered as f64 / (to_ns - from_ns) as f64
}

/// The window from the first span's start to the last span's end.
pub fn extent(spans: &[Span]) -> (u64, u64) {
    let from = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let to = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    (from, to)
}

/// Writes spans as JSON lines (one object per span) to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            key: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, 0, "core.app", 0, 100),
            span(2, 1, "analysis.pair", 10, 60),
            span(3, 1, "analysis.pair", 60, 90),
        ];
        let t = totals(&spans);
        assert_eq!(t["core.app"].calls, 1);
        assert!((t["core.app"].self_s - 20e-9).abs() < 1e-15);
        assert!((t["core.app"].inclusive_s - 100e-9).abs() < 1e-15);
        assert_eq!(t["analysis.pair"].calls, 2);
        assert!((t["analysis.pair"].self_s - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn coverage_merges_overlapping_threads() {
        let spans = vec![
            span(1, 0, "a", 0, 40),
            span(2, 0, "b", 20, 50),
            span(3, 0, "c", 70, 80),
        ];
        assert!((coverage(&spans, 0, 100) - 0.6).abs() < 1e-12);
        assert!((coverage(&spans, 30, 80) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_record_parent_and_key() {
        let tracer = Tracer::new();
        tracer.keyed("core.app", 7, || tracer.span("analysis.pair", || ()));
        let spans = tracer.into_spans();
        let outer = spans.iter().find(|s| s.name == "core.app").unwrap();
        let inner = spans.iter().find(|s| s.name == "analysis.pair").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.key, 7);
        assert_eq!(outer.parent, 0);
    }
}
