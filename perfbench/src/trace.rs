//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's own code: name, start, end, the span that was open on the
//! same thread when it started (its parent), the tick it belongs to,
//! and how many items the call processed.
//! Spans stay in memory while the run measures and are written out once
//! at exit. Recording is off unless [`set_enabled`] turned it on; while
//! it is off a span costs one atomic load, and untraced runs never turn
//! it on.

use keystream::{ChainState, ChainStore, JournalError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Marks a span with no parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Tick the span belongs to.
    pub op: u64,
    /// Items the call processed (owners, jobs, records); 1 by default.
    pub items: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static OP: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off. Traced runs turn it on, and pause it
/// while an untraced twin system runs between traced calls.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Sets the operation id stamped on spans opened from now on.
pub fn set_op(op: u64) {
    OP.store(op, Ordering::Relaxed);
}

/// Runs one operation on an untraced twin system (recording paused) and
/// on the traced system, alternating which goes first with `op` so
/// neither always runs on caches the other warmed. Returns the untraced
/// result, its wall time in ms, and the traced result.
pub fn lockstep<A, B>(
    op: u64,
    untraced: impl FnOnce() -> A,
    traced: impl FnOnce() -> B,
) -> (A, f64, B) {
    set_op(op);
    let timed = |f: Box<dyn FnOnce() -> A + '_>| {
        set_enabled(false);
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        set_enabled(true);
        (out, ms)
    };
    if op.is_multiple_of(2) {
        let (a, ms) = timed(Box::new(untraced));
        (a, ms, traced())
    } else {
        let b = traced();
        let (a, ms) = timed(Box::new(untraced));
        (a, ms, b)
    }
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_items(name, 1, f)
}

/// [`span`] that records `items` processed by the call.
pub fn span_items<T>(name: &'static str, items: usize, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let parent = OPEN.with(|open| open.borrow().last().copied().unwrap_or(ROOT));
    let index = {
        let mut spans = SPANS
            .lock()
            .expect("no thread panics while recording a span");
        spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
            op: OP.load(Ordering::Relaxed),
            items: u32::try_from(items).unwrap_or(u32::MAX),
        });
        (spans.len() - 1) as u32
    };
    OPEN.with(|open| open.borrow_mut().push(index));
    let out = f();
    OPEN.with(|open| open.borrow_mut().pop());
    let end = now_ns();
    SPANS
        .lock()
        .expect("no thread panics while recording a span")[index as usize]
        .end = end;
    out
}

/// Every span recorded so far. Parent indices refer to positions in
/// the returned vector, so take spans once, at the end of the run.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("no thread panics while recording a span"),
    )
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != ROOT {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut kids = children.remove(&(i as u32)).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub items: u64,
    /// Summed inclusive duration, in nanoseconds.
    pub total_ns: u64,
    /// Summed self time, in nanoseconds.
    pub self_ns: u64,
}

impl Totals {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Totals for every span name over the spans `keep` selects. Self times
/// come from the whole set, so a kept span's children count even when
/// they are not kept themselves.
pub fn totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> HashMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for (s, self_ns) in spans.iter().zip(selfs).filter(|(s, _)| keep(s)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.items += u64::from(s.items);
        t.total_ns += s.duration();
        t.self_ns += self_ns;
    }
    out
}

/// Writes `spans` as tab-separated lines under a header.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\top\titems")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.start, s.end, s.op, s.items
        )?;
    }
    out.flush()
}

/// A [`ChainStore`] that records a `keystream.journal` span around every
/// journal append of the store it wraps.
pub struct TimingStore<S> {
    inner: S,
}

impl<S> TimingStore<S> {
    pub fn new(inner: S) -> Self {
        TimingStore { inner }
    }
}

impl<S: ChainStore> ChainStore for TimingStore<S> {
    fn record(&self, owner: &str, state: &ChainState) -> Result<(), JournalError> {
        span("keystream.journal", || self.inner.record(owner, state))
    }

    fn load(&self) -> Result<Vec<(String, ChainState)>, JournalError> {
        self.inner.load()
    }

    fn compact(&self) -> Result<(), JournalError> {
        self.inner.compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            s("tick", 0, 100, ROOT),
            s("issue", 10, 40, 0),
            s("journal", 12, 20, 1),
            s("verify", 50, 70, 0),
        ];
        assert_eq!(self_times(&spans), vec![50, 22, 8, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            s("root", 10, 100, ROOT),
            s("a", 0, 30, 0),
            s("b", 20, 50, 0),
            s("c", 90, 120, 0),
        ];
        // Covered: [10, 50) and [90, 100) → 50 of 90.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn totals_sum_per_name() {
        let spans = vec![
            s("tick", 0, 100, ROOT),
            s("issue", 10, 40, 0),
            s("tick", 100, 160, ROOT),
            s("issue", 110, 130, 2),
        ];
        let t = totals(&spans, |_| true);
        assert_eq!(t["tick"].calls, 2);
        assert_eq!(t["tick"].total_ns, 160);
        assert_eq!(t["tick"].self_ns, 110);
        assert_eq!(t["issue"].self_ns, 50);
        let late = totals(&spans, |s| s.start >= 100);
        assert_eq!(late["tick"].calls, 1);
        assert_eq!(late["tick"].self_ns, 40);
    }

    #[test]
    fn recorded_spans_nest_by_thread() {
        set_enabled(true);
        set_op(7);
        span("outer", || span_items("inner", 3, || ()));
        let spans: Vec<Span> = take().into_iter().filter(|s| s.op == 7).collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].items, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
