//! The versioned profile export: a `PIMPROF01` envelope that is
//! *simultaneously* a valid Chrome Trace Event / Perfetto JSON file.
//!
//! ## JSON layout
//!
//! ```json
//! { "format": "PIMPROF01",
//!   "displayTimeUnit": "ns",
//!   "meta": { "experiment": "e1", ... },
//!   "groups": [
//!     { "name": "ambit", "ns_per_cycle": 1.25,
//!       "events": [
//!         { "lane": "bank/0", "name": "aap", "start": 36, "end": 85,
//!           "job": 0 },
//!         { "lane": "queue", "name": "depth", "start": 4, "end": 4,
//!           "value": 3 } ] } ],
//!   "jobs": [
//!     { "id": 0, "kind": "bitwise", "backend": "ambit",
//!       "queue_depth": 1, "advised": true,
//!       "est_ns": 10.0, "est_nj": 1.0,
//!       "actual_ns": 11.5, "actual_nj": 1.1,
//!       "commands": 42, "group": 4,
//!       "phases": { "submit": 0, "batch_start": 4, "exec_start": 9,
//!                   "exec_end": 81, "drain_end": 96 } } ],
//!   "traceEvents": [ ...derived Chrome events... ] }
//! ```
//!
//! `groups`/`jobs` carry the exact integer cycle data (the canonical
//! payload — parse-back decodes only these, and checks `traceEvents`
//! for shape alone); `traceEvents` is *derived* from them at export
//! time in the Chrome Trace Event format (`ph:"M"` process/thread
//! names, `ph:"X"` complete slices with microsecond `ts`/`dur`,
//! `ph:"C"` counters), one process per group, one thread per lane. Perfetto and `chrome://tracing` ignore the extra
//! top-level keys, so the same file loads as a waterfall unmodified.
//!
//! Group events are stored normalized (see
//! [`crate::event::normalize`]) and jobs sorted by id, so the same run
//! serializes to the same bytes regardless of thread count.

use crate::event::{normalize, Lane, ProfileSink, TraceEvent};
use crate::record::{JobPhases, JobRecord};
use pim_telemetry::json::{
    as_array, as_object, f64_field, field, format_tag, opt_bool_field, opt_object_field,
    opt_u64_field, str_field, string_map, u32_field, u64_field, FieldError,
};
use serde_json::{Map, Value, Writer};
use std::collections::BTreeMap;
use std::fmt;

/// The self-describing format tag, versioned in the trailing digits.
pub const FORMAT_TAG: &str = "PIMPROF01";

/// A malformed profile export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileFormatError(String);

impl ProfileFormatError {
    fn new(msg: impl Into<String>) -> Self {
        ProfileFormatError(msg.into())
    }
}

impl fmt::Display for ProfileFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed profile: {}", self.0)
    }
}

impl std::error::Error for ProfileFormatError {}

impl From<FieldError> for ProfileFormatError {
    fn from(e: FieldError) -> Self {
        ProfileFormatError(e.0)
    }
}

/// One timeline group: an engine or backend with its own clock domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// Group name (backend name; doubles as the Chrome process name).
    pub name: String,
    /// Nanoseconds per cycle of this group's clock (converts event
    /// cycles to wall time at export).
    pub ns_per_cycle: f64,
    /// Canonically ordered events.
    pub events: Vec<TraceEvent>,
}

impl Group {
    /// The distinct lanes appearing in this group, in canonical order.
    pub fn lanes(&self) -> Vec<Lane> {
        let mut lanes: Vec<Lane> = self.events.iter().map(|e| e.lane).collect();
        lanes.sort_by_key(|l| l.sort_key());
        lanes.dedup();
        lanes
    }
}

/// A complete profiling capture: metadata, per-group timelines, and
/// per-job records.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Report labels, exported in sorted key order.
    pub meta: BTreeMap<String, String>,
    /// Timeline groups in insertion order (runtime backend order).
    pub groups: Vec<Group>,
    /// Job records, sorted by id.
    pub jobs: Vec<JobRecord>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Profile::default()
    }

    /// Adds a metadata label (builder style).
    #[must_use]
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.meta.insert(key.into(), value.into());
        self
    }

    /// Drains a sink into a new group, normalizing its events.
    pub fn add_group(&mut self, name: impl Into<String>, ns_per_cycle: f64, sink: ProfileSink) {
        let mut events = sink.into_events();
        normalize(&mut events);
        self.groups.push(Group {
            name: name.into(),
            ns_per_cycle,
            events,
        });
    }

    /// Appends job records, keeping the stream sorted by id.
    pub fn add_jobs(&mut self, jobs: impl IntoIterator<Item = JobRecord>) {
        self.jobs.extend(jobs);
        self.jobs.sort_by_key(|j| j.id);
    }

    /// Looks up a group by name.
    pub fn group(&self, name: &str) -> Option<&Group> {
        self.groups.iter().find(|g| g.name == name)
    }

    /// Total events across all groups.
    pub fn events_total(&self) -> usize {
        self.groups.iter().map(|g| g.events.len()).sum()
    }

    /// Serializes to compact JSON. Deterministic: normalized events,
    /// id-sorted jobs, sorted metadata keys.
    pub fn to_json_string(&self) -> String {
        self.write_json(Writer::compact())
    }

    /// Serializes to indented JSON (the `--profile` report format).
    pub fn to_json_string_pretty(&self) -> String {
        self.write_json(Writer::pretty())
    }

    /// Streams the envelope into `w`, member by member, in the layout of
    /// the module docs: every number goes through `f64`, as a `Value`
    /// tree would hold it.
    fn write_json(&self, mut w: Writer) -> String {
        self.write_members(&mut w)
            .expect("profile values are finite");
        w.into_string()
    }

    fn write_members(&self, w: &mut Writer) -> Result<(), serde_json::Error> {
        w.begin_object();
        w.key("format");
        w.string(FORMAT_TAG);
        w.key("displayTimeUnit");
        w.string("ns");
        w.key("meta");
        w.begin_object();
        for (k, v) in &self.meta {
            w.key(k);
            w.string(v);
        }
        w.end_object();

        w.key("groups");
        w.begin_array();
        for g in &self.groups {
            w.begin_object();
            w.key("name");
            w.string(&g.name);
            w.key("ns_per_cycle");
            w.number(g.ns_per_cycle)?;
            w.key("events");
            w.begin_array();
            for e in &g.events {
                w.begin_object();
                w.key("lane");
                w.display(e.lane);
                w.key("name");
                w.string(&e.name);
                w.key("start");
                w.number(e.start as f64)?;
                w.key("end");
                w.number(e.end as f64)?;
                if let Some(job) = e.job {
                    w.key("job");
                    w.number(job as f64)?;
                }
                if let Some(value) = e.value {
                    w.key("value");
                    w.number(value as f64)?;
                }
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();

        w.key("jobs");
        w.begin_array();
        for j in &self.jobs {
            w.begin_object();
            w.key("id");
            w.number(j.id as f64)?;
            w.key("kind");
            w.string(&j.kind);
            w.key("backend");
            w.string(&j.backend);
            w.key("queue_depth");
            w.number(f64::from(j.queue_depth))?;
            w.key("advised");
            match j.advised {
                Some(b) => w.bool(b),
                None => w.null(),
            }
            for (k, n) in [
                ("est_ns", j.est_ns),
                ("est_nj", j.est_nj),
                ("actual_ns", j.actual_ns),
                ("actual_nj", j.actual_nj),
                ("commands", j.commands as f64),
                ("group", f64::from(j.group)),
            ] {
                w.key(k);
                w.number(n)?;
            }
            w.key("phases");
            match &j.phases {
                Some(p) => {
                    w.begin_object();
                    for (k, cycle) in [
                        ("submit", p.submit),
                        ("batch_start", p.batch_start),
                        ("exec_start", p.exec_start),
                        ("exec_end", p.exec_end),
                        ("drain_end", p.drain_end),
                    ] {
                        w.key(k);
                        w.number(cycle as f64)?;
                    }
                    w.end_object();
                }
                None => w.null(),
            }
            w.end_object();
        }
        w.end_array();

        w.key("traceEvents");
        w.begin_array();
        self.write_chrome_events(w)?;
        w.end_array();
        w.end_object();
        Ok(())
    }

    /// Streams the derived Chrome Trace Event array's members: per-group
    /// process metadata, per-lane thread metadata, then `ph:"X"` slices
    /// and `ph:"C"` counters with microsecond timestamps.
    fn write_chrome_events(&self, w: &mut Writer) -> Result<(), serde_json::Error> {
        for (gi, g) in self.groups.iter().enumerate() {
            let pid = (gi + 1) as f64;
            write_chrome_meta(w, pid, None, "process_name", &g.name)?;
            let lanes = g.lanes();
            // `lanes` is sorted by the (injective) lane sort key.
            let tid_of = |lane: Lane| -> f64 {
                let i = lanes
                    .binary_search_by_key(&lane.sort_key(), Lane::sort_key)
                    .unwrap_or(0);
                (i + 1) as f64
            };
            for (i, lane) in lanes.iter().enumerate() {
                write_chrome_meta(w, pid, Some((i + 1) as f64), "thread_name", lane)?;
            }
            let us = |cycles: u64| cycles as f64 * g.ns_per_cycle / 1000.0;
            for e in &g.events {
                w.begin_object();
                w.key("name");
                w.string(&e.name);
                w.key("pid");
                w.number(pid)?;
                w.key("tid");
                w.number(tid_of(e.lane))?;
                w.key("ts");
                w.number(us(e.start))?;
                w.key("ph");
                if let Some(value) = e.value {
                    w.string("C");
                    w.key("args");
                    w.begin_object();
                    w.key(&e.name);
                    w.number(value as f64)?;
                    w.end_object();
                } else {
                    w.string("X");
                    w.key("dur");
                    w.number(us(e.end) - us(e.start))?;
                    if let Some(job) = e.job {
                        w.key("args");
                        w.begin_object();
                        w.key("job");
                        w.number(job as f64)?;
                        w.end_object();
                    }
                }
                w.end_object();
            }
        }
        Ok(())
    }

    /// Parses a profile back from JSON: the text is parsed, then
    /// [`Profile::from_value`] decodes it.
    ///
    /// # Errors
    ///
    /// [`ProfileFormatError`] on malformed JSON or any schema
    /// violation [`Profile::from_value`] reports.
    pub fn from_json_str(text: &str) -> Result<Self, ProfileFormatError> {
        let value: Value = serde_json::from_str(text)
            .map_err(|e| ProfileFormatError::new(format!("bad JSON: {e}")))?;
        Self::from_value(&value)
    }

    /// Decodes a `PIMPROF01` tree from its exact-integer `groups`/`jobs`
    /// payload, checking every schema rule in the same walk: the
    /// format tag, string metadata, positive finite clocks, parseable
    /// lanes, events that end after they start in canonical order,
    /// instantaneous counters, integer `job`/`value` members, 32-bit
    /// queue depths and batch sizes, id-sorted jobs, monotonic phases,
    /// and the shape of the derived Chrome `traceEvents` (which are not
    /// otherwise read).
    ///
    /// # Errors
    ///
    /// [`ProfileFormatError`] describing the first violation.
    pub fn from_value(value: &Value) -> Result<Self, ProfileFormatError> {
        let root = as_object(value, "root")?;
        format_tag(root, FORMAT_TAG)?;
        let meta = string_map(root, "meta")?;

        let mut groups = Vec::new();
        for entry in as_array(field(root, "groups")?, "groups")? {
            let g = as_object(entry, "group")?;
            let name = str_field(g, "name")?;
            let ns_per_cycle = f64_field(g, "ns_per_cycle")?;
            if !(ns_per_cycle.is_finite() && ns_per_cycle > 0.0) {
                return Err(ProfileFormatError::new(format!(
                    "group `{name}`: ns_per_cycle must be positive and finite"
                )));
            }
            let mut events: Vec<TraceEvent> = Vec::new();
            for ev in as_array(field(g, "events")?, "events")? {
                let event = trace_event(as_object(ev, "event")?)
                    .map_err(|e| ProfileFormatError::new(format!("group `{name}`: {e}")))?;
                if events.last().is_some_and(|prev| {
                    (prev.lane.sort_key(), prev.start, prev.end)
                        > (event.lane.sort_key(), event.start, event.end)
                }) {
                    return Err(ProfileFormatError::new(format!(
                        "group `{name}`: events not in canonical order"
                    )));
                }
                events.push(event);
            }
            groups.push(Group {
                name: name.to_string(),
                ns_per_cycle,
                events,
            });
        }

        let mut jobs: Vec<JobRecord> = Vec::new();
        for entry in as_array(field(root, "jobs")?, "jobs")? {
            let m = as_object(entry, "job")?;
            let id = u64_field(m, "id")?;
            if jobs.last().is_some_and(|prev| id < prev.id) {
                return Err(ProfileFormatError::new("jobs not sorted by id"));
            }
            let phases = match opt_object_field(m, "phases")? {
                Some(p) => {
                    let phases = JobPhases {
                        submit: u64_field(p, "submit")?,
                        batch_start: u64_field(p, "batch_start")?,
                        exec_start: u64_field(p, "exec_start")?,
                        exec_end: u64_field(p, "exec_end")?,
                        drain_end: u64_field(p, "drain_end")?,
                    };
                    let marks = [
                        phases.submit,
                        phases.batch_start,
                        phases.exec_start,
                        phases.exec_end,
                        phases.drain_end,
                    ];
                    if marks.windows(2).any(|w| w[0] > w[1]) {
                        return Err(ProfileFormatError::new(format!(
                            "job {id}: phases not monotonic"
                        )));
                    }
                    Some(phases)
                }
                None => None,
            };
            jobs.push(JobRecord {
                id,
                kind: str_field(m, "kind")?.to_string(),
                backend: str_field(m, "backend")?.to_string(),
                queue_depth: u32_field(m, "queue_depth")?,
                advised: opt_bool_field(m, "advised")?,
                est_ns: f64_field(m, "est_ns")?,
                est_nj: f64_field(m, "est_nj")?,
                actual_ns: f64_field(m, "actual_ns")?,
                actual_nj: f64_field(m, "actual_nj")?,
                commands: u64_field(m, "commands")?,
                group: u32_field(m, "group")?,
                phases,
            });
        }

        for entry in as_array(field(root, "traceEvents")?, "traceEvents")? {
            let m = as_object(entry, "traceEvent")?;
            match str_field(m, "ph")? {
                "M" | "X" | "C" => {}
                other => {
                    return Err(ProfileFormatError::new(format!(
                        "traceEvent has unknown phase `{other}`"
                    )))
                }
            }
            u64_field(m, "pid")?;
        }

        Ok(Profile { meta, groups, jobs })
    }
}

/// Decodes one group event: a parseable lane, an interval that ends
/// after it starts, and integer `job`/`value` members where present; a
/// counter sample (one with a `value`) is instantaneous.
fn trace_event(e: &Map) -> Result<TraceEvent, FieldError> {
    let label = str_field(e, "lane")?;
    let lane = Lane::from_label(label).ok_or_else(|| FieldError(format!("bad lane `{label}`")))?;
    let (start, end) = (u64_field(e, "start")?, u64_field(e, "end")?);
    let value = opt_u64_field(e, "value")?;
    if end < start {
        return Err(FieldError(format!(
            "event on `{label}` ends before it starts"
        )));
    }
    if value.is_some() && end != start {
        return Err(FieldError(format!(
            "counter event on `{label}` is not instantaneous"
        )));
    }
    Ok(TraceEvent {
        lane,
        name: str_field(e, "name")?.to_string().into(),
        start,
        end,
        job: opt_u64_field(e, "job")?,
        value,
    })
}

/// Writes one Chrome `ph:"M"` metadata event naming a process (no
/// `tid`) or a thread.
fn write_chrome_meta(
    w: &mut Writer,
    pid: f64,
    tid: Option<f64>,
    what: &str,
    name: impl fmt::Display,
) -> Result<(), serde_json::Error> {
    w.begin_object();
    w.key("name");
    w.string(what);
    w.key("ph");
    w.string("M");
    w.key("pid");
    w.number(pid)?;
    if let Some(tid) = tid {
        w.key("tid");
        w.number(tid)?;
    }
    w.key("args");
    w.begin_object();
    w.key("name");
    w.display(name);
    w.end_object();
    w.end_object();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Lane;

    /// The tree builder the streaming export replaced, kept as its
    /// oracle: [`Profile::to_json_string`] must print what
    /// `serde_json::to_string` prints for this tree, byte for byte.
    impl Profile {
        fn to_value(&self) -> Value {
            let mut root = Map::new();
            root.insert("format", Value::Str(FORMAT_TAG.to_string()));
            root.insert("displayTimeUnit", Value::Str("ns".to_string()));

            let mut meta = Map::new();
            for (k, v) in &self.meta {
                meta.insert(k.clone(), Value::Str(v.clone()));
            }
            root.insert("meta", Value::Object(meta));

            let mut groups = Vec::with_capacity(self.groups.len());
            for g in &self.groups {
                let mut m = Map::new();
                m.insert("name", Value::Str(g.name.clone()));
                m.insert("ns_per_cycle", Value::Num(g.ns_per_cycle));
                let mut events = Vec::with_capacity(g.events.len());
                for e in &g.events {
                    let mut ev = Map::new();
                    ev.insert("lane", Value::Str(e.lane.label()));
                    ev.insert("name", Value::Str(e.name.to_string()));
                    ev.insert("start", Value::Num(e.start as f64));
                    ev.insert("end", Value::Num(e.end as f64));
                    if let Some(job) = e.job {
                        ev.insert("job", Value::Num(job as f64));
                    }
                    if let Some(value) = e.value {
                        ev.insert("value", Value::Num(value as f64));
                    }
                    events.push(Value::Object(ev));
                }
                m.insert("events", Value::Array(events));
                groups.push(Value::Object(m));
            }
            root.insert("groups", Value::Array(groups));

            let mut jobs = Vec::with_capacity(self.jobs.len());
            for j in &self.jobs {
                let mut m = Map::new();
                m.insert("id", Value::Num(j.id as f64));
                m.insert("kind", Value::Str(j.kind.clone()));
                m.insert("backend", Value::Str(j.backend.clone()));
                m.insert("queue_depth", Value::Num(j.queue_depth as f64));
                m.insert(
                    "advised",
                    match j.advised {
                        Some(b) => Value::Bool(b),
                        None => Value::Null,
                    },
                );
                m.insert("est_ns", Value::Num(j.est_ns));
                m.insert("est_nj", Value::Num(j.est_nj));
                m.insert("actual_ns", Value::Num(j.actual_ns));
                m.insert("actual_nj", Value::Num(j.actual_nj));
                m.insert("commands", Value::Num(j.commands as f64));
                m.insert("group", Value::Num(j.group as f64));
                m.insert(
                    "phases",
                    match &j.phases {
                        Some(p) => {
                            let mut x = Map::new();
                            x.insert("submit", Value::Num(p.submit as f64));
                            x.insert("batch_start", Value::Num(p.batch_start as f64));
                            x.insert("exec_start", Value::Num(p.exec_start as f64));
                            x.insert("exec_end", Value::Num(p.exec_end as f64));
                            x.insert("drain_end", Value::Num(p.drain_end as f64));
                            Value::Object(x)
                        }
                        None => Value::Null,
                    },
                );
                jobs.push(Value::Object(m));
            }
            root.insert("jobs", Value::Array(jobs));

            root.insert("traceEvents", Value::Array(self.to_chrome_events()));
            Value::Object(root)
        }

        /// Derives the Chrome Trace Event array: per-group process
        /// metadata, per-lane thread metadata, then `ph:"X"` slices and
        /// `ph:"C"` counters with microsecond timestamps.
        fn to_chrome_events(&self) -> Vec<Value> {
            let mut out = Vec::new();
            for (gi, g) in self.groups.iter().enumerate() {
                let pid = gi as u64 + 1;
                out.push(chrome_meta(pid, None, "process_name", &g.name));
                let lanes = g.lanes();
                let tid_of = |lane: Lane| -> u64 {
                    lanes.iter().position(|&l| l == lane).unwrap_or(0) as u64 + 1
                };
                for &lane in &lanes {
                    out.push(chrome_meta(
                        pid,
                        Some(tid_of(lane)),
                        "thread_name",
                        &lane.label(),
                    ));
                }
                let us = |cycles: u64| cycles as f64 * g.ns_per_cycle / 1000.0;
                for e in &g.events {
                    let mut m = Map::new();
                    m.insert("name", Value::Str(e.name.to_string()));
                    m.insert("pid", Value::Num(pid as f64));
                    m.insert("tid", Value::Num(tid_of(e.lane) as f64));
                    m.insert("ts", Value::Num(us(e.start)));
                    if let Some(value) = e.value {
                        m.insert("ph", Value::Str("C".to_string()));
                        let mut args = Map::new();
                        args.insert(&*e.name, Value::Num(value as f64));
                        m.insert("args", Value::Object(args));
                    } else {
                        m.insert("ph", Value::Str("X".to_string()));
                        m.insert("dur", Value::Num(us(e.end) - us(e.start)));
                        if let Some(job) = e.job {
                            let mut args = Map::new();
                            args.insert("job", Value::Num(job as f64));
                            m.insert("args", Value::Object(args));
                        }
                    }
                    out.push(Value::Object(m));
                }
            }
            out
        }
    }

    fn chrome_meta(pid: u64, tid: Option<u64>, what: &str, name: &str) -> Value {
        let mut m = Map::new();
        m.insert("name", Value::Str(what.to_string()));
        m.insert("ph", Value::Str("M".to_string()));
        m.insert("pid", Value::Num(pid as f64));
        if let Some(tid) = tid {
            m.insert("tid", Value::Num(tid as f64));
        }
        let mut args = Map::new();
        args.insert("name", Value::Str(name.to_string()));
        m.insert("args", Value::Object(args));
        Value::Object(m)
    }

    fn sample_profile() -> Profile {
        let mut sink = ProfileSink::new();
        sink.slice(Lane::Bank(1), "aap", 50, 99, Some(1));
        sink.slice(Lane::Bank(0), "aap", 0, 49, Some(0));
        sink.slice(Lane::Channel(0), "wr", 0, 4, Some(0));
        sink.counter(Lane::Queue, "depth", 0, 2);
        let mut p = Profile::new().with_meta("experiment", "unit");
        p.add_group("ambit", 1.25, sink);
        p.add_jobs([
            JobRecord {
                id: 1,
                kind: "bitwise".into(),
                backend: "ambit".into(),
                queue_depth: 2,
                advised: Some(true),
                est_ns: 10.0,
                est_nj: 1.0,
                actual_ns: 12.5,
                actual_nj: 1.25,
                commands: 12,
                group: 2,
                phases: Some(JobPhases {
                    submit: 0,
                    batch_start: 4,
                    exec_start: 50,
                    exec_end: 99,
                    drain_end: 120,
                }),
            },
            JobRecord {
                id: 0,
                kind: "bitwise".into(),
                backend: "ambit".into(),
                queue_depth: 1,
                advised: None,
                est_ns: 8.0,
                est_nj: 0.5,
                actual_ns: 9.0,
                actual_nj: 0.5,
                commands: 10,
                group: 2,
                phases: None,
            },
        ]);
        p
    }

    /// A profile that reaches every branch of the export: text needing
    /// escapes (in meta keys and values, group and event names, and a
    /// counter name that becomes a Chrome `args` key), integers past
    /// 2^53, fractional clocks, counters, slices with and without a
    /// job, a group with no events, and jobs with `advised` `false` and
    /// unknown and with and without phases.
    fn awkward_profile() -> Profile {
        const HARD: &str = "q\"b\\n\nc\u{1}é→😀";
        let big = (1u64 << 60) + 7;
        let mut sink = ProfileSink::new();
        sink.slice(
            Lane::Bank(3),
            format!("aap{HARD}"),
            big,
            big + 1001,
            Some(big + 3),
        );
        sink.slice(Lane::Bank(3), "ap", 7, 9, None);
        sink.slice(Lane::Channel(0), "rd", 5, 5, Some(4));
        sink.slice(Lane::Jobs, "execute", 1, 8, Some(0));
        sink.slice(Lane::Vault(2), "scan", 3, 11, None);
        sink.slice(Lane::Rank(1), "ref", 2, 30, None);
        sink.counter(Lane::Queue, format!("depth{HARD}"), 4, u64::MAX);
        sink.counter(Lane::Queue, "depth", 6, 3);
        let mut p = Profile::new()
            .with_meta(format!("key{HARD}"), format!("value{HARD}"))
            .with_meta("experiment", "unit");
        p.add_group(format!("ambit{HARD}"), 1.0 / 3.0, sink);
        p.add_group("idle", 0.625, ProfileSink::new());
        let job = |id: u64, advised: Option<bool>, phases: Option<JobPhases>| JobRecord {
            id,
            kind: format!("bitwise{HARD}"),
            backend: "ambit".into(),
            queue_depth: u32::MAX,
            advised,
            est_ns: 0.1,
            est_nj: 1e-9,
            actual_ns: 12.5,
            actual_nj: 1.0 / 7.0,
            commands: big,
            group: 3,
            phases,
        };
        p.add_jobs([
            job(big, Some(false), None),
            job(0, None, None),
            job(
                1,
                Some(true),
                Some(JobPhases {
                    submit: 0,
                    batch_start: 4,
                    exec_start: 50,
                    exec_end: big,
                    drain_end: big + 9,
                }),
            ),
        ]);
        p
    }

    #[test]
    fn streamed_export_matches_the_tree_oracle_byte_for_byte() {
        for p in [awkward_profile(), Profile::new(), sample_profile()] {
            let tree = p.to_value();
            assert_eq!(p.to_json_string(), serde_json::to_string(&tree).unwrap());
            assert_eq!(
                p.to_json_string_pretty(),
                serde_json::to_string_pretty(&tree).unwrap()
            );
        }
    }

    #[test]
    fn json_roundtrip_is_exact_and_deterministic() {
        let p = sample_profile();
        let text = p.to_json_string();
        assert_eq!(text, p.to_json_string(), "export must be deterministic");
        let back = Profile::from_json_str(&text).expect("roundtrip parses");
        assert_eq!(back, p);
        // Jobs got sorted, events normalized (channel before bank).
        assert_eq!(p.jobs[0].id, 0);
        assert_eq!(p.groups[0].events[0].lane, Lane::Queue);
        let pretty = Profile::from_json_str(&p.to_json_string_pretty());
        assert_eq!(pretty.expect("pretty form also parses"), p);
    }

    #[test]
    fn chrome_events_cover_groups_lanes_and_slices() {
        let p = sample_profile();
        let value: Value = serde_json::from_str(&p.to_json_string()).unwrap();
        let root = match &value {
            Value::Object(m) => m,
            _ => unreachable!(),
        };
        let events = match root.get("traceEvents").unwrap() {
            Value::Array(a) => a,
            _ => unreachable!(),
        };
        // 1 process_name + 4 thread_names + 4 events.
        assert_eq!(events.len(), 9);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Value::Object(m) => m.get("ph").and_then(Value::as_str),
                _ => None,
            })
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 5);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 3);
        assert_eq!(phases.iter().filter(|p| **p == "C").count(), 1);
        // Slice timestamps are in microseconds of the group clock.
        let slice = events
            .iter()
            .filter_map(|e| match e {
                Value::Object(m) if m.get("ph").and_then(Value::as_str) == Some("X") => Some(m),
                _ => None,
            })
            .next_back()
            .unwrap();
        // Last X event: bank/1 aap at cycle 50, 1.25 ns/cycle.
        assert!((slice.get("ts").unwrap().as_f64().unwrap() - 50.0 * 1.25 / 1000.0).abs() < 1e-12);
    }

    /// A schema rule and a mutation that breaks it.
    type Violation = (&'static str, fn(&mut Value));

    /// Array element `i` of `v`.
    fn at(v: &mut Value, i: usize) -> &mut Value {
        match v {
            Value::Array(items) => &mut items[i],
            other => panic!("not an array: {other:?}"),
        }
    }

    /// Event `i` of the first group.
    fn event(v: &mut Value, i: usize) -> &mut Value {
        at(&mut at(&mut v["groups"], 0)["events"], i)
    }

    /// One mutation of a good envelope per schema rule; each must be
    /// rejected. The sample's events normalize to `queue` (a counter),
    /// `channel/0`, `bank/0`, `bank/1`; job 1 carries phases.
    #[test]
    fn every_schema_rule_rejects_its_violation() {
        let good: Value = serde_json::from_str(&sample_profile().to_json_string()).unwrap();
        let rules: [Violation; 13] = [
            ("format tag", |v| {
                v["format"] = Value::Str("PIMPROF99".into())
            }),
            ("meta values are strings", |v| {
                v["meta"]["experiment"] = Value::Num(1.0)
            }),
            ("ns_per_cycle is positive", |v| {
                at(&mut v["groups"], 0)["ns_per_cycle"] = Value::Num(0.0)
            }),
            ("lane labels parse", |v| {
                event(v, 2)["lane"] = Value::Str("bunk/0".into())
            }),
            ("events end after they start", |v| {
                event(v, 3)["end"] = Value::Num(10.0)
            }),
            ("counter events are instantaneous", |v| {
                event(v, 0)["end"] = Value::Num(5.0)
            }),
            ("events in canonical order", |v| {
                if let Value::Array(events) = &mut at(&mut v["groups"], 0)["events"] {
                    events.reverse();
                }
            }),
            ("jobs sorted by id", |v| {
                at(&mut v["jobs"], 0)["id"] = Value::Num(2.0)
            }),
            ("advised is bool or null", |v| {
                at(&mut v["jobs"], 0)["advised"] = Value::Num(1.0)
            }),
            ("phases is object or null", |v| {
                at(&mut v["jobs"], 1)["phases"] = Value::Num(1.0)
            }),
            ("phases are monotonic", |v| {
                at(&mut v["jobs"], 1)["phases"]["exec_end"] = Value::Num(0.0)
            }),
            ("traceEvents phase is M, X or C", |v| {
                at(&mut v["traceEvents"], 0)["ph"] = Value::Str("B".into())
            }),
            ("traceEvents pid is an integer", |v| {
                at(&mut v["traceEvents"], 0)["pid"] = Value::Num(0.5)
            }),
        ];
        let text = |v: &Value| serde_json::to_string(v).expect("finite values");
        assert!(Profile::from_json_str(&text(&good)).is_ok());
        for (rule, violate) in rules {
            let mut bad = good.clone();
            violate(&mut bad);
            assert!(
                Profile::from_json_str(&text(&bad)).is_err(),
                "accepted a violation of: {rule}"
            );
        }
    }

    /// Inputs a reader must refuse rather than mangle: a `value` or
    /// `job` that is present but not an integer (a non-integer `value`
    /// used to drop to `None`, turning a counter sample into a slice),
    /// and a queue depth or batch size past `u32::MAX` (truncated).
    #[test]
    fn non_integer_and_out_of_range_members_are_rejected() {
        let good: Value = serde_json::from_str(&sample_profile().to_json_string()).unwrap();
        let past_u32 = Value::Num((1u64 << 32) as f64);
        let mut bad = Vec::new();
        let mut value = good.clone();
        assert_eq!(
            event(&mut value, 0)["value"],
            Value::Num(2.0),
            "queue depth"
        );
        event(&mut value, 0)["value"] = Value::Num(0.5);
        bad.push(value);
        let mut job = good.clone();
        event(&mut job, 2)["job"] = Value::Str("0".into());
        bad.push(job);
        let mut depth = good.clone();
        at(&mut depth["jobs"], 0)["queue_depth"] = past_u32.clone();
        bad.push(depth);
        let mut group = good.clone();
        at(&mut group["jobs"], 0)["group"] = past_u32;
        bad.push(group);
        for v in bad {
            let text = serde_json::to_string(&v).expect("finite values");
            assert!(Profile::from_json_str(&text).is_err(), "accepted {text}");
        }
    }

    #[test]
    fn validate_rejects_corruption() {
        let p = sample_profile();
        let good = p.to_json_string();
        assert!(Profile::from_json_str(&good.replace(FORMAT_TAG, "PIMPROF99")).is_err());
        assert!(Profile::from_json_str(&good.replace("\"bank/0\"", "\"bunk/0\"")).is_err());
        assert!(Profile::from_json_str("{}").is_err());
        assert!(Profile::from_json_str("not json").is_err());
        // Events out of canonical order are rejected.
        let mut bad = sample_profile();
        bad.groups[0].events.reverse();
        assert!(Profile::from_json_str(&bad.to_json_string()).is_err());
        // Non-monotonic phases are rejected.
        let mut bad = sample_profile();
        if let Some(p) = &mut bad.jobs[1].phases {
            p.exec_end = 0;
        }
        assert!(Profile::from_json_str(&bad.to_json_string()).is_err());
    }
}
