//! Order statistics the benchmark reports: nearest-rank percentiles over
//! pooled request latencies, the quartiles the regression check compares,
//! and span self time.

/// Nearest-rank index (1-based) of percentile `p` over `n` samples: the
/// smallest rank with at least `p`% of the samples at or below it.
fn rank(p: f64, n: usize) -> usize {
    // Per-mille integer arithmetic: `99.9 / 100.0 * n` rounds up past an
    // exact rank in floating point.
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending).
///
/// # Panics
///
/// Panics on an empty slice: every caller pools at least one sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// Percentiles a timing may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest reportable percentile for `n` samples: the largest of
/// p99.9, p99, p90 and p50 that leaves at least ten samples beyond its
/// rank, so the tail is a measurement and not one outlier. `None` below
/// eleven samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n >= 1 && n - rank(p, n) >= 10)
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, so spreads computed
/// here match the ones the regression check computes. A single value is
/// its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let data = sorted(values);
    if data.len() == 1 {
        return [data[0]; 3];
    }
    let m = data.len() as i64 + 1;
    [1i64, 2, 3].map(|i| {
        // Clamped to 1..=len-1 as in Python; `delta` then goes negative
        // (or past 4) at the ends, which extrapolates.
        let j = (i * m / 4).clamp(1, m - 2);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Self time of a span: its duration minus the union of its children's
/// intervals clipped to it. Overlapping children count once, so the
/// result is never negative.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (start, end) = span;
    let mut parts: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    parts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = start;
    for (s, e) in parts {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start - covered).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Nearest rank never interpolates: p50 of four samples is the
        // second one, p90 the fourth.
        let four = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&four, 50.0), 20.0);
        assert_eq!(percentile(&four, 90.0), 40.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        // 11 samples: p50 sits at rank 6 with five beyond — still too few.
        assert_eq!(tail_percentile(11), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        // The middle quartile is the usual median.
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0])[1], 2.5);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(2.0, 4.0), (6.0, 7.0)]), 7.0);
        // Overlapping children are counted once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 5.0), (3.0, 6.0)]), 5.0);
        // Children are clipped to the parent.
        assert_eq!(self_time((2.0, 4.0), &[(0.0, 3.0)]), 1.0);
        // Children covering more than the span never make it negative.
        assert_eq!(self_time((0.0, 1.0), &[(0.0, 1.0), (0.0, 1.0)]), 0.0);
        assert_eq!(self_time((0.0, 1.0), &[(-5.0, 5.0)]), 0.0);
    }
}
