//! Host-time spans recorded around calls into the simulator's layers.
//!
//! Spans live in a thread-local log (the benchmark is one closed-loop
//! caller on one thread; worker threads inside the engines are never
//! wrapped) and cost one branch when recording is off. Each span keeps
//! its name, start, end, parent and request id; at exit the log is
//! aggregated into per-layer metrics and written as Chrome Trace Event
//! JSON, which Perfetto and `chrome://tracing` load directly.

use crate::stats;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.drain`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

struct Log {
    on: bool,
    epoch: Instant,
    request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log {
        on: false,
        epoch: Instant::now(),
        request: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for the calling thread.
pub fn set_recording(on: bool) {
    LOG.with(|l| l.borrow_mut().on = on);
}

/// Tags the spans recorded from now on with request `id`.
pub fn set_request(id: u64) {
    LOG.with(|l| l.borrow_mut().request = id);
}

/// Runs `f` inside a span named `name` when recording is on; otherwise
/// just runs `f`.
pub fn scope<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = LOG.with(|l| {
        let mut l = l.borrow_mut();
        if !l.on {
            return None;
        }
        let start = l.epoch.elapsed().as_nanos() as u64;
        let parent = l.open.last().copied();
        let request = l.request;
        let idx = l.spans.len();
        l.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        l.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        LOG.with(|l| {
            let mut l = l.borrow_mut();
            l.spans[idx].end = l.epoch.elapsed().as_nanos() as u64;
            l.open.pop();
        });
    }
    out
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    LOG.with(|l| std::mem::take(&mut l.borrow_mut().spans))
}

/// Drops the most recent span, which must be a closed leaf: a twin whose
/// output did not match the request's is not a measurement.
pub fn discard_last() {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        if l.on {
            let last = l.spans.len().checked_sub(1);
            debug_assert!(
                last.is_some_and(|i| !l.open.contains(&i)),
                "no closed span to discard"
            );
            l.spans.pop();
        }
    });
}

/// Totals of one span name over a log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Per-name call counts and self times. Self time is each span's
/// duration minus the union of its direct children.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Aggregate> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start as f64, s.end as f64));
        }
    }
    let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        let a = out.entry(s.name).or_default();
        a.calls += 1;
        a.self_s += stats::self_time((s.start as f64, s.end as f64), kids) * 1e-9;
    }
    out
}

/// Writes `spans` as a Chrome Trace Event JSON array: one complete
/// (`"ph": "X"`) event per span on a lane named after `workload`, with
/// the request id and parent span name as arguments. `lane` is the
/// thread id of that lane, so files from several workloads concatenate
/// into one multi-lane view.
pub fn chrome_trace_events(spans: &[Span], workload: &str, lane: u32) -> Vec<serde_json::Value> {
    use serde_json::{Map, Value};
    let mut events = Vec::with_capacity(spans.len() + 1);
    let mut meta = Map::new();
    meta.insert("name", Value::Str("thread_name".into()));
    meta.insert("ph", Value::Str("M".into()));
    meta.insert("pid", Value::Num(1.0));
    meta.insert("tid", Value::Num(f64::from(lane)));
    let mut args = Map::new();
    args.insert("name", Value::Str(format!("{workload} (host time)")));
    meta.insert("args", Value::Object(args));
    events.push(Value::Object(meta));
    for s in spans {
        let mut e = Map::new();
        e.insert("name", Value::Str(s.name.into()));
        e.insert("cat", Value::Str(layer_of(s.name).into()));
        e.insert("ph", Value::Str("X".into()));
        e.insert("ts", Value::Num(s.start as f64 / 1e3));
        e.insert("dur", Value::Num((s.end - s.start) as f64 / 1e3));
        e.insert("pid", Value::Num(1.0));
        e.insert("tid", Value::Num(f64::from(lane)));
        let mut args = Map::new();
        args.insert("request", Value::Num(s.request as f64));
        if let Some(p) = s.parent {
            args.insert("parent", Value::Str(spans[p].name.into()));
        }
        e.insert("args", Value::Object(args));
        events.push(Value::Object(e));
    }
    events
}

/// The layer a span name belongs to: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_record_parents_and_self_time() {
        set_recording(true);
        set_request(7);
        scope("outer", || {
            scope("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        set_recording(false);
        scope("ignored", || ());
        set_recording(true);
        scope("mismatched twin", || ());
        discard_last();
        set_recording(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        let agg = aggregate(&spans);
        let outer = &agg["outer"];
        let inner = &agg["inner"];
        assert!(inner.self_s >= 0.002);
        assert!(outer.self_s >= 0.0);
        assert!(outer.self_s < inner.self_s);
        assert_eq!(layer_of("runtime.drain"), "runtime");
    }
}
