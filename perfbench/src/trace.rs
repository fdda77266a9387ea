//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its name, start, end and parent. Spans nest by call
//! structure: a span opened while another is open becomes its child. A
//! layer's self time is its span durations minus the time of their
//! children.
//!
//! Work that happens *inside* one public call — the headroom evaluation
//! inside `ControlLoop::observe_line`, say — cannot be wrapped from
//! outside. The traced pass measures it by calling the same public
//! function on the same input right after the enclosing call returns,
//! and records that call as an *attributed* child of the enclosing span
//! ([`attributed`]). Attributed spans are subtracted from their parent's
//! self time like nested ones, and their duration is excluded from the
//! pass's wall time, because the untraced program never runs them.
//!
//! Tracing is off unless [`start`] was called; [`span`] then costs one
//! thread-local flag check, so the untraced pass runs the same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    attributed: bool,
}

#[derive(Default)]
struct State {
    origin: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    counts: BTreeMap<&'static str, f64>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Turns tracing on and clears every earlier span and count.
pub fn start() {
    STATE.with(|s| {
        *s.borrow_mut() = State {
            origin: Some(Instant::now()),
            ..State::default()
        }
    });
}

/// Turns tracing off and returns what was recorded.
pub fn finish() -> Trace {
    STATE.with(|s| {
        let state = std::mem::take(&mut *s.borrow_mut());
        assert!(state.stack.is_empty(), "a span is still open");
        Trace {
            spans: state.spans,
            counts: state.counts,
        }
    })
}

/// True while tracing is on.
pub fn enabled() -> bool {
    STATE.with(|s| s.borrow().origin.is_some())
}

fn open(name: &'static str, parent: Option<SpanId>, attributed: bool) -> Option<SpanId> {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let origin = s.origin?;
        let parent = if attributed {
            parent
        } else {
            s.stack.last().copied()
        };
        let id = s.spans.len();
        s.spans.push(Span {
            name,
            start_ns: origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            attributed,
        });
        s.stack.push(id);
        Some(id)
    })
}

fn close(id: Option<SpanId>) {
    let Some(id) = id else { return };
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let origin = s.origin.expect("tracing is on while a span is open");
        let top = s.stack.pop();
        assert_eq!(top, Some(id), "spans close in the order they opened");
        s.spans[id].end_ns = origin.elapsed().as_nanos() as u64;
    })
}

/// Runs `f` inside a span nested under the innermost open span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_id(name, f).0
}

/// Like [`span`], also returning the span's id (None when tracing is
/// off) so that attributed children can name it as their parent.
pub fn span_id<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Option<SpanId>) {
    let id = open(name, None, false);
    let out = f();
    close(id);
    (out, id)
}

/// Runs `f` as an attributed child of `parent`: a repeat, outside the
/// parent's interval, of work the parent did inside a call the
/// benchmark cannot split. Spans opened inside `f` nest under it.
pub fn attributed<R>(parent: Option<SpanId>, name: &'static str, f: impl FnOnce() -> R) -> R {
    attributed_id(parent, name, f).0
}

/// Like [`attributed`], also returning the span's id.
pub fn attributed_id<R>(
    parent: Option<SpanId>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, Option<SpanId>) {
    let id = open(name, parent, true);
    let out = f();
    close(id);
    (out, id)
}

/// Adds `value` to the named count (no-op while tracing is off).
pub fn count(name: &'static str, value: f64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.origin.is_some() {
            *s.counts.entry(name).or_insert(0.0) += value;
        }
    })
}

/// Sets the named count (no-op while tracing is off).
pub fn set_count(name: &'static str, value: f64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.origin.is_some() {
            s.counts.insert(name, value);
        }
    })
}

/// The spans and counts of one traced pass.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Self time in seconds per span name: each span's duration minus
    /// the durations of its direct children, nested or attributed.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns) as f64 - child as f64;
            *out.entry(s.name).or_insert(0.0) += own * 1e-9;
        }
        out
    }

    /// Seconds spent in attributed spans — the repeats the untraced
    /// program never runs — counting time inside several of them once.
    pub fn attributed_seconds(&self) -> f64 {
        let mut intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.attributed)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        intervals.sort_unstable();
        let mut total = 0u64;
        let mut reach = 0u64;
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                total += end - start;
                reach = end;
            }
        }
        total as f64 * 1e-9
    }

    /// Seconds inside the pass's top-level spans. Their subtrees' self
    /// times sum to this, so it is the time the layers account for.
    pub fn covered_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && !s.attributed)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The recorded counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// One JSON object per span, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"attributed\":{}}}",
                s.name, s.start_ns, s.end_ns, s.attributed
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_attributed_children() {
        start();
        let (_, outer) = span_id("outer", || span("inner", || busy(5)));
        let (_, repeat) = attributed_id(outer, "repeat", || busy(5));
        // A repeat of the repeat's own child, made after it returned.
        attributed(repeat, "repeat.child", || busy(5));
        let trace = finish();
        let own = trace.self_seconds();
        assert!(own["inner"] >= 0.005);
        assert!(own["repeat.child"] >= 0.005);
        // Each parent is charged with its children: the outer span ran
        // only the inner one but also pays for the repeat, so it comes out
        // negative; the repeat's busy time is all charged to its child.
        assert!(own["outer"] < 0.0);
        assert!(own["repeat"] < 0.005);
        // Both repeats lie outside the pass; the outer span covers it.
        assert!(trace.attributed_seconds() >= 0.010);
        assert!(trace.covered_seconds() >= 0.005);
        assert_eq!(trace.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _ = finish();
        assert!(!enabled());
        let (v, id) = span_id("x", || 7);
        count("c", 1.0);
        assert_eq!((v, id), (7, None));
        assert!(finish().to_jsonl().is_empty());
    }
}
