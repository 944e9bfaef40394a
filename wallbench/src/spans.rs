//! The benchmark's own span recorder.
//!
//! Spans are taken from the benchmark's side of each call into a layer —
//! nothing inside the program is instrumented, and no wall-clock data
//! reaches the engine's deterministic `TraceSink`. A span's layer is the
//! part of its name before the first `.` (`core.superstep.b-pull` belongs
//! to `core`). Spans stay in memory until the run ends, then go out as
//! Chrome-trace JSON.

use hybridgraph_obs::json_escape;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub job: u64,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub thread: u64,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

thread_local! {
    /// Open spans of this thread, innermost last: the implicit parent.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: RefCell<u64> = const { RefCell::new(0) };
}

/// Collects spans from any thread; times are seconds since creation.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds since the origin at `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    fn fresh_id(&self) -> u64 {
        // A plain counter: the id publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Tags spans opened on this thread with `thread` (the Chrome `tid`).
    pub fn set_thread(thread: u64) {
        THREAD.with(|t| *t.borrow_mut() = thread);
    }

    /// The innermost open span on this thread.
    pub fn current() -> Option<u64> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Runs `f` inside a span named `name`, parented to the innermost
    /// open span on this thread.
    pub fn span<R>(&self, name: &str, job: u64, f: impl FnOnce() -> R) -> R {
        self.span_id(name, job, |_| f())
    }

    /// Like [`Tracer::span`], handing `f` the new span's id so spans
    /// recorded from other threads can name it as their parent.
    pub fn span_id<R>(&self, name: &str, job: u64, f: impl FnOnce(u64) -> R) -> R {
        let id = self.fresh_id();
        let parent = Tracer::current();
        OPEN.with(|o| o.borrow_mut().push(id));
        let start_s = self.now();
        let out = f(id);
        let end_s = self.now();
        OPEN.with(|o| o.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            job,
            name: name.to_string(),
            start_s,
            end_s,
            thread: THREAD.with(|t| *t.borrow()),
        });
        out
    }

    /// Records an interval measured elsewhere (e.g. between two progress
    /// callbacks).
    pub fn record(&self, name: &str, job: u64, parent: Option<u64>, start_s: f64, end_s: f64) {
        let id = self.fresh_id();
        self.push(Span {
            id,
            parent,
            job,
            name: name.to_string(),
            start_s,
            end_s,
            thread: THREAD.with(|t| *t.borrow()),
        });
    }

    fn push(&self, s: Span) {
        self.spans.lock().expect("span lock poisoned").push(s);
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span lock poisoned").clone();
        v.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.id.cmp(&b.id)));
        v
    }
}

/// Chrome-trace JSON (complete `X` events, microsecond timestamps).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (k, s) in spans.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"job\":{}}}}}",
            json_escape(&s.name),
            json_escape(s.layer()),
            s.start_s * 1e6,
            s.dur_s() * 1e6,
            s.thread,
            s.id,
            parent,
            s.job
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Self time per layer: each span's duration minus the part of it that
/// its child spans cover (overlapping children are merged first).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_s, s.end_s));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in kids {
            let (a, b) = (a.max(s.start_s), b.min(s.end_s));
            if b <= a {
                continue;
            }
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        *out.entry(s.layer().to_string()).or_insert(0.0) += (s.dur_s() - covered).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, a: f64, b: f64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name: name.into(),
            start_s: a,
            end_s: b,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = vec![
            span(1, None, "core.run_job", 0.0, 10.0),
            span(2, Some(1), "storage.a", 1.0, 4.0),
            span(3, Some(1), "storage.b", 3.0, 5.0),
            span(4, Some(1), "net.c", 8.0, 12.0),
        ];
        let st = self_time_by_layer(&spans);
        assert!((st["core"] - 4.0).abs() < 1e-12);
        assert!((st["storage"] - 5.0).abs() < 1e-12);
        assert!((st["net"] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_output_is_valid_json() {
        let spans = vec![
            span(1, None, "a.\"x\"", 0.0, 1.0),
            span(2, Some(1), "b", 0.1, 0.2),
        ];
        hybridgraph_obs::validate_json(&chrome_json(&spans)).unwrap();
    }
}
