//! Spans recorded from the benchmark's own code, around the calls it
//! makes into each layer of the program.
//!
//! A span has a name, start and end, the span open on the same thread
//! when it began (its parent), the thread, and a per-request id. Spans
//! are kept in memory while the run lasts and written out when it ends.
//! When tracing is off, [`span`] reads no clock and records nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The span open on this thread when this one began.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `engine.close` or `vfs.fsync`.
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Small per-thread number.
    pub thread: u64,
    /// The request this span serves (0 when none).
    pub req: u64,
    /// A count attached at the boundary (bytes moved by a storage call;
    /// 0 when none).
    pub value: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it is recorded when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    req: u64,
    value: u64,
}

impl Guard {
    /// Attach a count to the span (bytes moved, records handled).
    pub fn set_value(&mut self, value: u64) {
        if let Some(open) = &mut self.open {
            open.value = value;
        }
    }
}

/// Open a span named `name` for request `req`, a child of the span open
/// on this thread.
pub fn span(name: &'static str, req: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard { open: Some(Open { id, parent, name, start_ns: now_ns(), req, value: 0 }) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == open.id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            thread: THREAD.with(|t| *t),
            req: open.req,
            value: open.value,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Take every span recorded so far.
pub fn take() -> Vec<Span> {
    SPANS.lock().map(|mut s| std::mem::take(&mut *s)).unwrap_or_default()
}

/// Nanoseconds of `parent` not covered by any child: its duration minus
/// the union of the children's intervals, each clipped to the parent.
pub fn self_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.ns() - covered
}

/// Recorded spans, indexed for parent/child queries.
pub struct Trace {
    spans: Vec<Span>,
    children: HashMap<u64, Vec<usize>>,
}

impl Trace {
    /// Index `spans`.
    pub fn new(spans: Vec<Span>) -> Trace {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(i);
            }
        }
        Trace { spans, children }
    }

    /// Every span with this name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Direct children of `span`.
    pub fn children(&self, span: &Span) -> Vec<&Span> {
        self.children
            .get(&span.id)
            .map_or_else(Vec::new, |v| v.iter().map(|&i| &self.spans[i]).collect())
    }

    /// Every descendant of `span` with this name.
    pub fn descendants_named(&self, span: &Span, name: &str) -> Vec<&Span> {
        let mut out = Vec::new();
        let mut todo = self.children(span);
        while let Some(s) = todo.pop() {
            if s.name == name {
                out.push(s);
            }
            todo.extend(self.children(s));
        }
        out
    }

    /// `span`'s self time (see [`self_ns`]).
    pub fn self_ns(&self, span: &Span) -> u64 {
        self_ns(span, &self.children(span))
    }

    /// Per-name totals: span count, total and self nanoseconds.
    pub fn layer_totals(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut by_name: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += self.self_ns(s);
        }
        let mut out: Vec<_> = by_name.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.3));
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"req\":{},\"value\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.thread, s.req, s.value
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", start_ns, end_ns, thread: 1, req: 0, value: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = at(1, None, 0, 100);
        // Overlapping children [10, 30) and [20, 50) cover 40, not 50;
        // [60, 70) adds 10.
        let a = at(2, Some(1), 10, 30);
        let b = at(3, Some(1), 20, 50);
        let c = at(4, Some(1), 60, 70);
        assert_eq!(self_ns(&parent, &[&a, &b, &c]), 50);
        // A child nested inside another adds nothing.
        let d = at(5, Some(1), 12, 18);
        assert_eq!(self_ns(&parent, &[&a, &b, &c, &d]), 50);
        // Children reaching outside the parent are clipped to it.
        let e = at(6, Some(1), 90, 150);
        assert_eq!(self_ns(&parent, &[&a, &b, &c, &e]), 40);
        assert_eq!(self_ns(&parent, &[]), 100);
    }

    #[test]
    fn trace_indexes_parents_and_descendants() {
        let mut root = at(1, None, 0, 100);
        root.name = "engine.close";
        let mut mid = at(2, Some(1), 10, 60);
        mid.name = "vfs.write";
        let mut leaf = at(3, Some(2), 20, 30);
        leaf.name = "vfs.fsync";
        let t = Trace::new(vec![root, mid, leaf]);
        let root = t.named("engine.close").next().unwrap();
        assert_eq!(t.descendants_named(root, "vfs.fsync").len(), 1);
        assert_eq!(t.self_ns(root), 50);
    }

    #[test]
    fn guards_nest_on_one_thread() {
        set_enabled(true);
        {
            let _outer = span("outer", 7);
            let _inner = span("inner", 7);
        }
        set_enabled(false);
        {
            let _ignored = span("off", 0);
        }
        let spans: Vec<Span> =
            take().into_iter().filter(|s| s.name == "outer" || s.name == "inner").collect();
        let t = Trace::new(spans);
        let inner = t.named("inner").next().unwrap();
        let outer = t.named("outer").next().unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.req, 7);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert!(t.named("off").next().is_none());
    }
}
