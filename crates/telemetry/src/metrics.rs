//! The metrics registry behind [`TelemetrySink`].

use crate::span::JobSpan;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Power-of-two histogram bounds: bucket `i` counts values `v` with
/// `v <= 2^i`, the last bucket is the overflow. Covers 1..=2^20 which
/// is enough for chunk widths, batch sizes, and queue depths.
pub const POW2_BOUNDS: &[u64] = &[
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    262144, 524288, 1048576,
];

/// Identifies one metric series: a static name plus an integer index
/// for per-instance series (per-bank, per-vault, per-backend).
///
/// The name is a `Cow` so the hot path builds keys from `&'static str`
/// without allocating; merge-time relabeling owns its strings.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Dotted series name, e.g. `dram.cmd.act`.
    pub name: Cow<'static, str>,
    /// Instance index (flat bank id, vault id, backend index); 0 for
    /// scalar series.
    pub index: u32,
}

impl MetricKey {
    /// A key over a static name (the hot-path constructor — no
    /// allocation).
    pub const fn new(name: &'static str, index: u32) -> Self {
        MetricKey {
            name: Cow::Borrowed(name),
            index,
        }
    }

    /// A key over an owned name (used when relabeling at merge time).
    pub fn owned(name: String, index: u32) -> Self {
        MetricKey {
            name: Cow::Owned(name),
            index,
        }
    }
}

/// One metric's accumulated state.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic event count.
    Counter(u64),
    /// Monotonic f64 accumulator (nanoseconds, nanojoules).
    Sum(f64),
    /// Last-set value plus the high-water mark it ever reached.
    Gauge {
        /// Most recently set value.
        value: u64,
        /// Maximum value ever set.
        high_water: u64,
    },
    /// Fixed-bound histogram: `counts[i]` holds observations `v` with
    /// `v <= bounds[i]` (first matching bucket); the final slot of
    /// `counts` (one past the bounds) is the overflow bucket.
    Histogram {
        /// Inclusive upper bounds, ascending.
        bounds: Cow<'static, [u64]>,
        /// Per-bucket observation counts; `bounds.len() + 1` slots.
        counts: Vec<u64>,
        /// Sum of all observed values.
        total: u64,
    },
}

impl Metric {
    /// Whether `other` can fold into `self`: the same kind and, for
    /// histograms, the same bounds.
    pub(crate) fn merges_with(&self, other: &Metric) -> bool {
        match (self, other) {
            (Metric::Histogram { bounds, .. }, Metric::Histogram { bounds: b2, .. }) => {
                bounds == b2
            }
            (a, b) => std::mem::discriminant(a) == std::mem::discriminant(b),
        }
    }

    /// Folds `other` into `self`. Counters and sums add, gauges keep
    /// the max (shard merge order must not matter), histogram buckets
    /// add; integer adds saturate. Merging mismatched variants or
    /// bounds panics: series names are static and the decoder rejects
    /// a series that mixes them, so that is a programming error, not
    /// data.
    pub(crate) fn merge(&mut self, other: &Metric) {
        match (self, other) {
            (Metric::Counter(a), Metric::Counter(b)) => *a = a.saturating_add(*b),
            (Metric::Sum(a), Metric::Sum(b)) => *a += b,
            (
                Metric::Gauge { value, high_water },
                Metric::Gauge {
                    value: v,
                    high_water: hw,
                },
            ) => {
                *value = (*value).max(*v);
                *high_water = (*high_water).max(*hw);
            }
            (
                Metric::Histogram {
                    bounds,
                    counts,
                    total,
                },
                Metric::Histogram {
                    bounds: b2,
                    counts: c2,
                    total: t2,
                },
            ) => {
                assert_eq!(bounds, b2, "histogram bound mismatch in merge");
                for (dst, src) in counts.iter_mut().zip(c2.iter()) {
                    *dst = dst.saturating_add(*src);
                }
                *total = total.saturating_add(*t2);
            }
            (a, b) => panic!("telemetry metric kind mismatch in merge: {a:?} vs {b:?}"),
        }
    }
}

/// The telemetry handle a component records into.
///
/// Components hold an `Option<TelemetrySink>` (the DRAM device's inside
/// its command observer), so disabled telemetry costs one branch per
/// event site and allocates nothing. [`TelemetrySink::merge`] folds
/// one sink into another — all merge operations are commutative and
/// associative, so the combined registry is identical whatever order
/// the sinks are folded in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySink {
    metrics: BTreeMap<MetricKey, Metric>,
    spans: Vec<JobSpan>,
}

impl TelemetrySink {
    /// An empty sink.
    pub fn new() -> Self {
        TelemetrySink::default()
    }

    /// `true` when no metric or span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.spans.is_empty()
    }

    /// Adds `n` to the counter `name[index]`.
    pub fn count(&mut self, name: &'static str, index: u32, n: u64) {
        match self
            .metrics
            .entry(MetricKey::new(name, index))
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += n,
            m => panic!("`{name}` is not a counter: {m:?}"),
        }
    }

    /// Adds `v` to the f64 sum `name[index]`.
    pub fn add(&mut self, name: &'static str, index: u32, v: f64) {
        match self
            .metrics
            .entry(MetricKey::new(name, index))
            .or_insert(Metric::Sum(0.0))
        {
            Metric::Sum(s) => *s += v,
            m => panic!("`{name}` is not a sum: {m:?}"),
        }
    }

    /// Sets the gauge `name[index]` to `v`, tracking its high-water
    /// mark.
    pub fn gauge(&mut self, name: &'static str, index: u32, v: u64) {
        match self
            .metrics
            .entry(MetricKey::new(name, index))
            .or_insert(Metric::Gauge {
                value: 0,
                high_water: 0,
            }) {
            Metric::Gauge { value, high_water } => {
                *value = v;
                *high_water = (*high_water).max(v);
            }
            m => panic!("`{name}` is not a gauge: {m:?}"),
        }
    }

    /// Records `v` into the fixed-bound histogram `name[index]`. All
    /// observations of one series must pass the same `bounds` slice.
    pub fn observe(&mut self, name: &'static str, index: u32, bounds: &'static [u64], v: u64) {
        match self
            .metrics
            .entry(MetricKey::new(name, index))
            .or_insert_with(|| Metric::Histogram {
                bounds: Cow::Borrowed(bounds),
                counts: vec![0; bounds.len() + 1],
                total: 0,
            }) {
            Metric::Histogram {
                bounds,
                counts,
                total,
            } => {
                let slot = bounds.partition_point(|&b| b < v);
                counts[slot] += 1;
                *total += v;
            }
            m => panic!("`{name}` is not a histogram: {m:?}"),
        }
    }

    /// Records a completed job lifecycle span.
    pub fn record_span(&mut self, span: JobSpan) {
        self.spans.push(span);
    }

    /// Folds a shard (or another component's sink) into this one.
    /// Order-independent for metrics; spans append (the exporter sorts
    /// them by job id).
    pub fn merge(&mut self, other: TelemetrySink) {
        for (key, metric) in &other.metrics {
            match self.metrics.get_mut(key) {
                Some(mine) => mine.merge(metric),
                None => {
                    self.metrics.insert(key.clone(), metric.clone());
                }
            }
        }
        self.spans.extend(other.spans);
    }

    /// Like [`TelemetrySink::merge`], but prefixes every incoming
    /// series name with `prefix.` — how the runtime namespaces each
    /// backend's registry into one report.
    pub fn merge_prefixed(&mut self, prefix: &str, other: TelemetrySink) {
        for (key, metric) in other.metrics {
            let relabeled = MetricKey::owned(format!("{prefix}.{}", key.name), key.index);
            match self.metrics.get_mut(&relabeled) {
                Some(mine) => mine.merge(&metric),
                None => {
                    self.metrics.insert(relabeled, metric);
                }
            }
        }
        self.spans.extend(other.spans);
    }

    /// Iterates metrics in sorted key order (the determinism
    /// guarantee: this is also JSON export order).
    pub fn metrics(&self) -> impl Iterator<Item = (&MetricKey, &Metric)> {
        self.metrics.iter()
    }

    /// The counter value of `name[index]`, or 0.
    pub fn counter(&self, name: &str, index: u32) -> u64 {
        match self.metrics.get(&MetricKey::owned(name.to_string(), index)) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// The sum value of `name[index]`, or 0.0.
    pub fn sum(&self, name: &str, index: u32) -> f64 {
        match self.metrics.get(&MetricKey::owned(name.to_string(), index)) {
            Some(Metric::Sum(s)) => *s,
            _ => 0.0,
        }
    }

    /// Sums a counter series over all instance indices.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, m)| match m {
                Metric::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Sums a sum series over all instance indices.
    pub fn sum_total(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, m)| match m {
                Metric::Sum(s) => *s,
                _ => 0.0,
            })
            .sum()
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[JobSpan] {
        &self.spans
    }

    /// Consumes the sink into its parts.
    pub fn into_parts(self) -> (BTreeMap<MetricKey, Metric>, Vec<JobSpan>) {
        (self.metrics, self.spans)
    }

    /// Rebuilds a sink from exported parts.
    pub fn from_parts(metrics: BTreeMap<MetricKey, Metric>, spans: Vec<JobSpan>) -> Self {
        TelemetrySink { metrics, spans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sum_gauge_histogram_roundtrip() {
        let mut s = TelemetrySink::new();
        s.count("a", 0, 2);
        s.count("a", 0, 3);
        s.count("a", 1, 7);
        s.add("ns", 0, 1.5);
        s.add("ns", 0, 2.5);
        s.gauge("depth", 0, 4);
        s.gauge("depth", 0, 2);
        s.observe("w", 0, POW2_BOUNDS, 3);
        s.observe("w", 0, POW2_BOUNDS, 1 << 30);

        assert_eq!(s.counter("a", 0), 5);
        assert_eq!(s.counter("a", 1), 7);
        assert_eq!(s.counter_total("a"), 12);
        assert_eq!(s.sum("ns", 0), 4.0);
        match s.metrics.get(&MetricKey::new("depth", 0)).unwrap() {
            Metric::Gauge { value, high_water } => {
                assert_eq!((*value, *high_water), (2, 4));
            }
            m => panic!("not a gauge: {m:?}"),
        }
        match s.metrics.get(&MetricKey::new("w", 0)).unwrap() {
            Metric::Histogram { counts, total, .. } => {
                // 3 lands in the `<= 4` bucket (index 2), 2^30 overflows.
                assert_eq!(counts[2], 1);
                assert_eq!(*counts.last().unwrap(), 1);
                assert_eq!(*total, 3 + (1u64 << 30));
            }
            m => panic!("not a histogram: {m:?}"),
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let build = |vals: &[(u64, u64)]| {
            let mut s = TelemetrySink::new();
            for &(idx, n) in vals {
                s.count("c", idx as u32, n);
                s.gauge("g", 0, n);
                s.observe("h", 0, POW2_BOUNDS, n);
                s.add("f", 0, n as f64);
            }
            s
        };
        let a = build(&[(0, 3), (1, 5)]);
        let b = build(&[(0, 2), (2, 9)]);

        let mut ab = TelemetrySink::new();
        ab.merge(a.clone());
        ab.merge(b.clone());
        let mut ba = TelemetrySink::new();
        ba.merge(b);
        ba.merge(a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c", 0), 5);
        assert_eq!(ab.counter_total("c"), 19);
    }

    #[test]
    fn merge_prefixed_namespaces_series() {
        let mut shard = TelemetrySink::new();
        shard.count("dram.cmd.act", 3, 11);
        let mut root = TelemetrySink::new();
        root.merge_prefixed("ambit", shard);
        assert_eq!(root.counter("ambit.dram.cmd.act", 3), 11);
        assert_eq!(root.counter("dram.cmd.act", 3), 0);
    }
}
