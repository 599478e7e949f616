//! Host-time spans recorded from outside the program.
//!
//! Spans are opened around each call the benchmark makes into a layer's
//! public functions and kept in memory; the run writes them once, at the
//! end, as a Chrome/Perfetto trace. Only one thread records at a time
//! (the main thread between regions, task 0 inside a region), so spans
//! nest strictly and one stack gives every span its parent.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to (0 outside any operation).
    pub op: u64,
    /// The call, as `layer.function` (or `op.*`, `job`, `probe`).
    pub name: &'static str,
    /// Start, nanoseconds since the run began.
    pub start_ns: u64,
    /// End, nanoseconds since the run began (`u64::MAX` while open).
    pub end_ns: u64,
    /// Bytes the call processed, for rate metrics (0 when not a rate).
    pub bytes: u64,
}

impl Span {
    /// Host seconds the span lasted.
    pub fn duration(&self) -> f64 {
        self.duration_ns() as f64 * 1e-9
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    ops: u64,
}

/// The span recorder. Disabled, it records nothing and costs one atomic
/// load per call.
pub struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

/// Handle to an open span (`None` when the tracer was disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A disabled tracer whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, enabled: AtomicBool::new(false), inner: Mutex::default() }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a span as a child of the innermost open one. `new_op` starts
    /// a new operation id; otherwise the span inherits its parent's.
    pub fn open(&self, name: &'static str, bytes: u64, new_op: bool) -> Open {
        if !self.enabled() {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.lock().expect("tracer poisoned");
        let parent = inner.stack.last().copied();
        let op = if new_op {
            inner.ops += 1;
            inner.ops
        } else {
            parent.map_or(0, |p| inner.spans[p].op)
        };
        let id = inner.spans.len();
        inner.spans.push(Span { id, parent, op, name, start_ns, end_ns: u64::MAX, bytes });
        inner.stack.push(id);
        Open(Some(id))
    }

    /// Closes `span`. Spans opened inside it and never closed (a task
    /// died mid-operation) are closed with it, so nesting stays valid.
    pub fn close(&self, span: Open) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        let mut inner = self.inner.lock().expect("tracer poisoned");
        if !inner.stack.contains(&id) {
            return;
        }
        while let Some(top) = inner.stack.pop() {
            inner.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Every closed span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        let inner = self.inner.lock().expect("tracer poisoned");
        inner.spans.iter().filter(|s| s.end_ns != u64::MAX).cloned().collect()
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children of one span never overlap, so their durations
/// add). Indexed like `spans`, which must be in recording order.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: std::collections::HashMap<usize, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&pi) = s.parent.and_then(|p| index.get(&p)) {
            covered[pi] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.duration_ns() as i64 - c as i64) as f64 * 1e-9)
        .collect()
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): complete
/// events in microseconds, with id, parent, operation and self time in
/// `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"self_us\":{:.3},\"bytes\":{}}}}}{sep}",
            s.name,
            s.start_ns as f64 * 1e-3,
            s.duration() * 1e6,
            s.id,
            parent,
            s.op,
            own * 1e6,
            s.bytes,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_ops_and_self_time() {
        let t = Tracer::new(Instant::now());
        t.set_enabled(true);
        let job = t.open("job", 0, false);
        let op = t.open("op.ckpt", 0, true);
        let call = t.open("core.call", 0, false);
        t.close(call);
        t.close(op);
        let op2 = t.open("op.restart", 0, true);
        t.close(op2);
        t.close(job);
        t.set_enabled(false);
        t.close(t.open("ignored", 0, false));
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (Some(0), Some(1), Some(0)));
        assert_eq!((s[0].op, s[1].op, s[2].op, s[3].op), (0, 1, 1, 2));
        let own = self_times(&s);
        assert!(own.iter().all(|&x| x >= 0.0));
        let sum = own[0] + s[1].duration() + s[3].duration();
        assert!((sum - s[0].duration()).abs() < 1e-9);
        assert!(chrome_json(&s).contains("\"name\":\"core.call\""));
    }
}
