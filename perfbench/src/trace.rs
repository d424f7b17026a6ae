//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (nothing inside the simulator is
//! instrumented). They stay in memory until the run ends, are written
//! out as a Chrome trace, and give each layer's self time: a span's
//! duration minus the durations of its child spans.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span. Aggregated spans (`calls > 1`) sum many short
/// calls (e.g. every `pump` of one session) into one duration; their
/// start is the first call's.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    /// Grid point the span belongs to, when it belongs to one.
    pub point: Option<usize>,
    pub thread: usize,
    pub start: Duration,
    pub dur: Duration,
    pub calls: u64,
}

/// Collects spans from every pool worker.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD: Cell<Option<usize>> = const { Cell::new(None) };
}
static THREADS: AtomicUsize = AtomicUsize::new(0);

fn thread_index() -> usize {
    THREAD.with(|t| match t.get() {
        Some(i) => i,
        None => {
            let i = THREADS.fetch_add(1, Ordering::Relaxed);
            t.set(Some(i));
            i
        }
    })
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id, so children can name their parent before the
    /// parent span is closed.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span that started at `start` and ends now.
    pub fn close(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &str,
        point: Option<usize>,
        start: Instant,
    ) {
        let dur = start.elapsed();
        self.push(id, parent, name, point, start, dur, 1);
    }

    /// Records a span with an explicit duration (aggregated calls).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &str,
        point: Option<usize>,
        start: Instant,
        dur: Duration,
        calls: u64,
    ) {
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            point,
            thread: thread_index(),
            start: start.saturating_duration_since(self.origin),
            dur,
            calls,
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<R>(&self, parent: Option<u64>, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open();
        let t = Instant::now();
        let r = f();
        self.close(id, parent, name, None, t);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("no thread panics while holding the span list")
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_time: BTreeMap<u64, Duration> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_time.entry(p).or_default() += s.dur;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = s.dur.as_secs_f64()
            - child_time
                .get(&s.id)
                .copied()
                .unwrap_or_default()
                .as_secs_f64();
        *out.entry(s.name.clone()).or_insert(0.0) += own;
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of `spans`,
/// with `meta` (a JSON object) stored under `"provenance"`.
pub fn chrome_json(spans: &[Span], meta: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"point\":{},\"calls\":{}}}}}",
            s.name,
            s.thread,
            s.start.as_secs_f64() * 1e6,
            s.dur.as_secs_f64() * 1e6,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.point.map_or("null".to_string(), |p| p.to_string()),
            s.calls,
        );
    }
    let _ = write!(out, "],\"provenance\":{meta}}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let origin = Instant::now();
        let rec = Recorder::new();
        let ms = Duration::from_millis;
        rec.push(1, None, "root", None, origin, ms(10), 1);
        rec.push(2, Some(1), "child", None, origin, ms(4), 1);
        rec.push(3, Some(2), "leaf", None, origin, ms(1), 1);
        let t = self_times(&rec.into_spans());
        assert!((t["root"] - 0.006).abs() < 1e-9);
        assert!((t["child"] - 0.003).abs() < 1e-9);
        assert!((t["leaf"] - 0.001).abs() < 1e-9);
    }
}
