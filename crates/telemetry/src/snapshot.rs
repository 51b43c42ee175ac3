//! The versioned telemetry export: JSON for machines, a table for
//! humans.
//!
//! ## JSON layout (`to_json_string` / `from_json_str`)
//!
//! ```json
//! { "format": "PIMTEL01",
//!   "meta": { "experiment": "e1", ... },
//!   "metrics": [
//!     { "name": "dram.cmd.act", "index": 0, "kind": "counter",
//!       "value": 128 },
//!     { "name": "queue.depth", "index": 0, "kind": "gauge",
//!       "value": 2, "high_water": 7 },
//!     { "name": "ambit.chunk_width", "index": 0, "kind": "histogram",
//!       "bounds": [1, 2, 4], "counts": [0, 1, 2, 0], "total": 9 },
//!     { "name": "energy.dram-act", "index": 0, "kind": "sum",
//!       "value": 1.25 } ],
//!   "spans": [
//!     { "id": 0, "kind": "bitwise", "backend": "ambit",
//!       "queue_depth": 1, "advised": true,
//!       "est_ns": 10.0, "est_nj": 1.0,
//!       "actual_ns": 11.5, "actual_nj": 1.1, "commands": 42,
//!       "exec": { "start": 0, "end": 96, "group": 4 } } ] }
//! ```
//!
//! Metrics appear in sorted `(name, index)` order and spans in job-id
//! order, so the same run always serializes to the same bytes.
//! Integers are carried through JSON numbers (exact to 2^53 — far
//! beyond any counter this workspace produces).

use crate::json::{
    as_array, as_object, f64_field, field, format_tag, opt_bool_field, opt_object_field, str_field,
    string_map, u32_field, u64_array, u64_field, FieldError,
};
use crate::metrics::{Metric, MetricKey, TelemetrySink};
use crate::span::{ExecSpan, JobSpan};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::fmt;

/// The self-describing format tag, versioned in the trailing digits.
pub const FORMAT_TAG: &str = "PIMTEL01";

/// A malformed telemetry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFormatError(String);

impl SnapshotFormatError {
    fn new(msg: impl Into<String>) -> Self {
        SnapshotFormatError(msg.into())
    }
}

impl fmt::Display for SnapshotFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed telemetry snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotFormatError {}

impl From<FieldError> for SnapshotFormatError {
    fn from(e: FieldError) -> Self {
        SnapshotFormatError(e.0)
    }
}

/// A frozen, exportable view of a [`TelemetrySink`]: free-form string
/// metadata (experiment name, configuration) plus the registry and the
/// span stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Report labels, exported in sorted key order.
    pub meta: BTreeMap<String, String>,
    /// The metric registry, keyed and exported in sorted order.
    pub metrics: BTreeMap<MetricKey, Metric>,
    /// Job spans, sorted by job id.
    pub spans: Vec<JobSpan>,
}

impl Snapshot {
    /// Freezes a sink into a snapshot (spans sort by job id).
    pub fn from_sink(sink: TelemetrySink) -> Self {
        let (metrics, mut spans) = sink.into_parts();
        spans.sort_by_key(|s| s.id);
        Snapshot {
            meta: BTreeMap::new(),
            metrics,
            spans,
        }
    }

    /// Adds a metadata label (builder style).
    #[must_use]
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.meta.insert(key.into(), value.into());
        self
    }

    /// Thaws back into a sink (for reconciliation arithmetic on a
    /// parsed report).
    pub fn into_sink(self) -> TelemetrySink {
        TelemetrySink::from_parts(self.metrics, self.spans)
    }

    /// The snapshot as a JSON value tree (what the string forms and
    /// report embeddings serialize).
    pub fn to_value(&self) -> Value {
        let mut root = Map::new();
        root.insert("format", Value::Str(FORMAT_TAG.to_string()));
        let mut meta = Map::new();
        for (k, v) in &self.meta {
            meta.insert(k.clone(), Value::Str(v.clone()));
        }
        root.insert("meta", Value::Object(meta));

        let mut metrics = Vec::with_capacity(self.metrics.len());
        for (key, metric) in &self.metrics {
            let mut m = Map::new();
            m.insert("name", Value::Str(key.name.to_string()));
            m.insert("index", Value::Num(key.index as f64));
            match metric {
                Metric::Counter(c) => {
                    m.insert("kind", Value::Str("counter".into()));
                    m.insert("value", Value::Num(*c as f64));
                }
                Metric::Sum(s) => {
                    m.insert("kind", Value::Str("sum".into()));
                    m.insert("value", Value::Num(*s));
                }
                Metric::Gauge { value, high_water } => {
                    m.insert("kind", Value::Str("gauge".into()));
                    m.insert("value", Value::Num(*value as f64));
                    m.insert("high_water", Value::Num(*high_water as f64));
                }
                Metric::Histogram {
                    bounds,
                    counts,
                    total,
                } => {
                    m.insert("kind", Value::Str("histogram".into()));
                    m.insert(
                        "bounds",
                        Value::Array(bounds.iter().map(|&b| Value::Num(b as f64)).collect()),
                    );
                    m.insert(
                        "counts",
                        Value::Array(counts.iter().map(|&c| Value::Num(c as f64)).collect()),
                    );
                    m.insert("total", Value::Num(*total as f64));
                }
            }
            metrics.push(Value::Object(m));
        }
        root.insert("metrics", Value::Array(metrics));

        let mut spans = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let mut m = Map::new();
            m.insert("id", Value::Num(s.id as f64));
            m.insert("kind", Value::Str(s.kind.clone()));
            m.insert("backend", Value::Str(s.backend.clone()));
            m.insert("queue_depth", Value::Num(s.queue_depth as f64));
            m.insert(
                "advised",
                match s.advised {
                    Some(b) => Value::Bool(b),
                    None => Value::Null,
                },
            );
            m.insert("est_ns", Value::Num(s.est_ns));
            m.insert("est_nj", Value::Num(s.est_nj));
            m.insert("actual_ns", Value::Num(s.actual_ns));
            m.insert("actual_nj", Value::Num(s.actual_nj));
            m.insert("commands", Value::Num(s.commands as f64));
            m.insert(
                "exec",
                match &s.exec {
                    Some(e) => {
                        let mut x = Map::new();
                        x.insert("start", Value::Num(e.start as f64));
                        x.insert("end", Value::Num(e.end as f64));
                        x.insert("group", Value::Num(e.group as f64));
                        Value::Object(x)
                    }
                    None => Value::Null,
                },
            );
            spans.push(Value::Object(m));
        }
        root.insert("spans", Value::Array(spans));
        Value::Object(root)
    }

    /// Serializes to compact JSON. Deterministic: sorted metric keys,
    /// id-sorted spans, shortest-roundtrip float formatting.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("telemetry values are finite")
    }

    /// Serializes to indented JSON (the `--telemetry` report format).
    pub fn to_json_string_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("telemetry values are finite")
    }

    /// Parses a snapshot back from JSON: the text is parsed, then
    /// [`Snapshot::from_value`] decodes it.
    ///
    /// # Errors
    ///
    /// [`SnapshotFormatError`] on malformed JSON or any schema
    /// violation [`Snapshot::from_value`] reports.
    pub fn from_json_str(text: &str) -> Result<Self, SnapshotFormatError> {
        let value: Value = serde_json::from_str(text)
            .map_err(|e| SnapshotFormatError::new(format!("bad JSON: {e}")))?;
        Self::from_value(&value)
    }

    /// Decodes a `PIMTEL01` tree, checking every schema rule in the
    /// same walk: the format tag, string metadata, known metric kinds,
    /// unique 32-bit `(name, index)` keys, one kind (and one set of
    /// histogram bounds) per series, gauge high-water marks at or above
    /// their values, `bounds + 1` histogram counts over strictly
    /// ascending bounds, id-sorted spans with 32-bit queue depths and
    /// batch sizes, and exec windows that end after they start. A
    /// decoded snapshot therefore renders [`Snapshot::to_table_string`]
    /// and merges its series without panicking.
    ///
    /// # Errors
    ///
    /// [`SnapshotFormatError`] describing the first violation.
    pub fn from_value(value: &Value) -> Result<Self, SnapshotFormatError> {
        let root = as_object(value, "root")?;
        format_tag(root, FORMAT_TAG)?;
        let meta = string_map(root, "meta")?;

        let mut metrics: BTreeMap<MetricKey, Metric> = BTreeMap::new();
        for entry in as_array(field(root, "metrics")?, "metrics")? {
            let m = as_object(entry, "metric")?;
            let name = str_field(m, "name")?;
            let key = MetricKey::owned(name.to_string(), u32_field(m, "index")?);
            if metrics.insert(key, metric(m, name)?).is_some() {
                return Err(SnapshotFormatError::new(format!(
                    "metric `{name}` repeats an index"
                )));
            }
        }
        // Keys sort by name first, so each series' instances are
        // neighbours: every one must merge with the next.
        let mut pairs = metrics.iter().zip(metrics.iter().skip(1));
        if let Some(((k, _), _)) =
            pairs.find(|((a, m), (b, n))| a.name == b.name && !m.merges_with(n))
        {
            return Err(SnapshotFormatError::new(format!(
                "series `{}` mixes metric kinds or histogram bounds",
                k.name
            )));
        }

        let mut spans: Vec<JobSpan> = Vec::new();
        for entry in as_array(field(root, "spans")?, "spans")? {
            let m = as_object(entry, "span")?;
            let id = u64_field(m, "id")?;
            if spans.last().is_some_and(|prev| id < prev.id) {
                return Err(SnapshotFormatError::new("spans not sorted by id"));
            }
            let exec = match opt_object_field(m, "exec")? {
                Some(x) => {
                    let (start, end) = (u64_field(x, "start")?, u64_field(x, "end")?);
                    if end < start {
                        return Err(SnapshotFormatError::new(format!(
                            "span {id}: exec window ends before it starts"
                        )));
                    }
                    Some(ExecSpan {
                        start,
                        end,
                        group: u32_field(x, "group")?,
                    })
                }
                None => None,
            };
            spans.push(JobSpan {
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
                exec,
            });
        }

        Ok(Snapshot {
            meta,
            metrics,
            spans,
        })
    }

    /// Renders the human-readable table: metrics aggregated per series
    /// name, then a per-span table.
    pub fn to_table_string(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "telemetry snapshot ({FORMAT_TAG})");
        for (k, v) in &self.meta {
            let _ = writeln!(out, "  {k} = {v}");
        }

        // Aggregate each series over its instance indices.
        let mut rows: Vec<(String, &'static str, usize, String)> = Vec::new();
        let mut iter = self.metrics.iter().peekable();
        while let Some((key, first)) = iter.next() {
            let name = key.name.to_string();
            let mut instances = 1usize;
            let mut agg = first.clone();
            while let Some((k2, m2)) = iter.peek() {
                if k2.name != key.name {
                    break;
                }
                agg.merge(m2);
                instances += 1;
                iter.next();
            }
            let (kind, rendered) = match &agg {
                Metric::Counter(c) => ("counter", format!("{c}")),
                Metric::Sum(s) => ("sum", format!("{s:.6}")),
                Metric::Gauge { value, high_water } => {
                    ("gauge", format!("{value} (high {high_water})"))
                }
                Metric::Histogram { counts, total, .. } => {
                    let n = counts.iter().fold(0u64, |n, &c| n.saturating_add(c));
                    let mean = if n > 0 { *total as f64 / n as f64 } else { 0.0 };
                    ("histogram", format!("n={n} mean={mean:.2}"))
                }
            };
            rows.push((name, kind, instances, rendered));
        }
        let name_w = rows.iter().map(|r| r.0.len()).max().unwrap_or(4).max(4);
        let _ = writeln!(
            out,
            "  {:<name_w$}  {:<9}  {:>4}  value",
            "name", "kind", "inst"
        );
        for (name, kind, instances, rendered) in rows {
            let _ = writeln!(
                out,
                "  {name:<name_w$}  {kind:<9}  {instances:>4}  {rendered}"
            );
        }

        if !self.spans.is_empty() {
            let _ = writeln!(out, "  spans ({}):", self.spans.len());
            let _ = writeln!(
                out,
                "    {:>4}  {:<12} {:<10} {:>5} {:>12} {:>12} {:>10} {:>8}",
                "id", "kind", "backend", "group", "est_ns", "actual_ns", "err_ns", "cmds"
            );
            for s in &self.spans {
                let group = s.exec.map_or(1, |e| e.group);
                let _ = writeln!(
                    out,
                    "    {:>4}  {:<12} {:<10} {:>5} {:>12.2} {:>12.2} {:>10.2} {:>8}",
                    s.id,
                    s.kind,
                    s.backend,
                    group,
                    s.est_ns,
                    s.actual_ns,
                    s.time_error_ns(),
                    s.commands
                );
            }
        }
        out
    }
}

/// Decodes one metric entry's kind-specific members.
fn metric(m: &Map, name: &str) -> Result<Metric, SnapshotFormatError> {
    Ok(match str_field(m, "kind")? {
        "counter" => Metric::Counter(u64_field(m, "value")?),
        "sum" => Metric::Sum(f64_field(m, "value")?),
        "gauge" => {
            let (value, high_water) = (u64_field(m, "value")?, u64_field(m, "high_water")?);
            if high_water < value {
                return Err(SnapshotFormatError::new(format!(
                    "gauge `{name}` high_water {high_water} below value {value}"
                )));
            }
            Metric::Gauge { value, high_water }
        }
        "histogram" => {
            let bounds = u64_array(m, "bounds")?;
            let counts = u64_array(m, "counts")?;
            if counts.len() != bounds.len() + 1 {
                return Err(SnapshotFormatError::new(format!(
                    "histogram `{name}`: {} counts for {} bounds (want bounds+1)",
                    counts.len(),
                    bounds.len()
                )));
            }
            if bounds.windows(2).any(|w| w[0] >= w[1]) {
                return Err(SnapshotFormatError::new(format!(
                    "histogram `{name}` bounds not strictly ascending"
                )));
            }
            Metric::Histogram {
                bounds: bounds.into(),
                counts,
                total: u64_field(m, "total")?,
            }
        }
        other => {
            return Err(SnapshotFormatError::new(format!(
                "metric `{name}` has unknown kind `{other}`"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::POW2_BOUNDS;

    fn sample_sink() -> TelemetrySink {
        let mut s = TelemetrySink::new();
        s.count("dram.cmd.act", 0, 12);
        s.count("dram.cmd.act", 3, 7);
        s.add("energy.dram-act", 0, 1.5e-3);
        s.gauge("queue.depth", 0, 3);
        s.observe("chunk", 0, POW2_BOUNDS, 5);
        s.record_span(JobSpan {
            id: 1,
            kind: "bitwise".into(),
            backend: "ambit".into(),
            queue_depth: 2,
            advised: Some(true),
            est_ns: 10.0,
            est_nj: 0.5,
            actual_ns: 12.25,
            actual_nj: 0.625,
            commands: 96,
            exec: Some(ExecSpan {
                start: 4,
                end: 100,
                group: 4,
            }),
        });
        s.record_span(JobSpan {
            id: 0,
            kind: "stream".into(),
            backend: "cpu".into(),
            queue_depth: 1,
            advised: None,
            est_ns: 5.0,
            est_nj: 0.25,
            actual_ns: 5.0,
            actual_nj: 0.25,
            commands: 0,
            exec: None,
        });
        s
    }

    #[test]
    fn json_roundtrip_is_exact_and_deterministic() {
        let snap = Snapshot::from_sink(sample_sink()).with_meta("experiment", "unit");
        let text = snap.to_json_string();
        assert_eq!(text, snap.to_json_string(), "export must be deterministic");
        let back = Snapshot::from_json_str(&text).expect("roundtrip parses");
        assert_eq!(back, snap);
        // Spans got sorted by id at freeze time.
        assert_eq!(snap.spans[0].id, 0);
        assert_eq!(snap.spans[1].id, 1);
        let pretty = Snapshot::from_json_str(&snap.to_json_string_pretty());
        assert_eq!(pretty.expect("pretty form also parses"), snap);
    }

    #[test]
    fn validate_rejects_corruption() {
        let snap = Snapshot::from_sink(sample_sink());
        let good = snap.to_json_string();
        let bad_tag = good.replace(FORMAT_TAG, "PIMTEL99");
        assert!(Snapshot::from_json_str(&bad_tag).is_err());
        let bad_kind = good.replace("\"counter\"", "\"kounter\"");
        assert!(Snapshot::from_json_str(&bad_kind).is_err());
        assert!(Snapshot::from_json_str("{}").is_err());
        assert!(Snapshot::from_json_str("not json").is_err());
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

    /// The first exported metric entry named `name`.
    fn metric<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
        match &mut v["metrics"] {
            Value::Array(items) => items
                .iter_mut()
                .find(|m| m["name"].as_str() == Some(name))
                .expect("a metric of that name"),
            other => panic!("not an array: {other:?}"),
        }
    }

    /// One mutation of a good envelope per schema rule; each must be
    /// rejected.
    #[test]
    fn every_schema_rule_rejects_its_violation() {
        let good = Snapshot::from_sink(sample_sink())
            .with_meta("experiment", "unit")
            .to_value();
        let rules: [Violation; 10] = [
            ("format tag", |v| {
                v["format"] = Value::Str("PIMTEL99".into())
            }),
            ("meta values are strings", |v| {
                v["meta"]["experiment"] = Value::Num(1.0)
            }),
            ("metric kind is known", |v| {
                metric(v, "queue.depth")["kind"] = Value::Str("meter".into())
            }),
            ("gauge high_water >= value", |v| {
                metric(v, "queue.depth")["high_water"] = Value::Num(2.0)
            }),
            ("histogram has bounds + 1 counts", |v| {
                if let Value::Array(counts) = &mut metric(v, "chunk")["counts"] {
                    counts.pop();
                }
            }),
            ("histogram bounds strictly ascending", |v| {
                *at(&mut metric(v, "chunk")["bounds"], 1) = Value::Num(1.0)
            }),
            ("spans sorted by id", |v| {
                at(&mut v["spans"], 0)["id"] = Value::Num(2.0)
            }),
            ("advised is bool or null", |v| {
                at(&mut v["spans"], 0)["advised"] = Value::Num(1.0)
            }),
            ("exec is object or null", |v| {
                at(&mut v["spans"], 1)["exec"] = Value::Num(1.0)
            }),
            ("exec ends after it starts", |v| {
                at(&mut v["spans"], 1)["exec"]["end"] = Value::Num(3.0)
            }),
        ];
        let text = |v: &Value| serde_json::to_string(v).expect("finite values");
        assert!(Snapshot::from_json_str(&text(&good)).is_ok());
        for (rule, violate) in rules {
            let mut bad = good.clone();
            violate(&mut bad);
            assert!(
                Snapshot::from_json_str(&text(&bad)).is_err(),
                "accepted a violation of: {rule}"
            );
        }
    }

    /// Inputs a reader must refuse rather than mangle: a metric index,
    /// queue depth or exec group past `u32::MAX` (an index of 2^32 + 0
    /// used to truncate onto index 0 and overwrite that series), and a
    /// series whose instances mix kinds (which made
    /// [`Snapshot::to_table_string`] panic).
    #[test]
    fn out_of_range_and_mixed_series_are_rejected() {
        let good = Snapshot::from_sink(sample_sink()).to_value();
        let past_u32 = Value::Num((1u64 << 32) as f64);
        let mut bad = Vec::new();
        let mut collapse = good.clone();
        let act3 = at(&mut collapse["metrics"], 2);
        assert_eq!(act3["index"], Value::Num(3.0), "dram.cmd.act[3]");
        act3["index"] = past_u32.clone();
        bad.push(collapse);
        let mut mixed = good.clone();
        let act3 = at(&mut mixed["metrics"], 2);
        act3["kind"] = Value::Str("gauge".into());
        act3["high_water"] = Value::Num(7.0);
        bad.push(mixed);
        let mut depth = good.clone();
        at(&mut depth["spans"], 1)["queue_depth"] = past_u32.clone();
        bad.push(depth);
        let mut group = good.clone();
        at(&mut group["spans"], 1)["exec"]["group"] = past_u32;
        bad.push(group);
        for v in bad {
            let text = serde_json::to_string(&v).expect("finite values");
            assert!(Snapshot::from_json_str(&text).is_err(), "accepted {text}");
        }
    }

    #[test]
    fn table_renders_all_series() {
        let snap = Snapshot::from_sink(sample_sink()).with_meta("experiment", "unit");
        let table = snap.to_table_string();
        assert!(table.contains(FORMAT_TAG));
        assert!(table.contains("dram.cmd.act"));
        assert!(table.contains("queue.depth"));
        assert!(table.contains("spans (2)"));
    }
}
