//! `bench_e2e compare A/ B/`: two sets of run records side by side.
//!
//! For every workload x end-to-end metric it prints each side's median
//! and quartiles and a verdict against the metric's bound: `within`,
//! `worse` (B's median is worse than A's by more than the bound), or
//! `unresolved` (either side's quartile spread is wider than the bound,
//! so the data cannot tell) — unless every B run beats every A run,
//! which reads `better`. Traced records are checked for the
//! deterministic metrics, which must be identical for equal seeds.

use crate::run::DETERMINISTIC;
use crate::spec::{Better, Spec};
use crate::stats::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One run record as written by a run with `--out`.
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
}

fn read_records(dir: &Path) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(v) = serde_json::from_str::<Value>(&text) else {
            continue;
        };
        let (Some(workload), Value::Object(m)) = (v["workload"].as_str(), &v["metrics"]) else {
            continue; // a span file or something else
        };
        out.push(Record {
            workload: workload.to_string(),
            seed: v["seed"].as_u64().unwrap_or(0),
            trace: v["trace"].as_u64() == Some(1),
            metrics: m
                .iter()
                .filter_map(|(k, m)| m["value"].as_f64().map(|x| (k.to_string(), x)))
                .collect(),
        });
    }
    Ok(out)
}

/// `x` to five significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 {
        0
    } else {
        (4 - x.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{x:.digits$}")
}

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A spread wider than the bound hides any change.
    Unresolved,
    /// Every B run is better than every A run.
    Better,
}

/// Judges B against A for a metric with direction `better` and `bound`.
/// Returns the verdict and B's relative change (positive = worse).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (qb[1] - qa[1]) / qa[1],
        Better::Higher => (qa[1] - qb[1]) / qa[1],
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let verdict = if b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
        Verdict::Better
    } else if spread(qa).max(spread(qb)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    (verdict, worse_by)
}

/// Prints the comparison; returns `Ok(false)` when any metric is worse
/// or a deterministic metric differs.
///
/// # Errors
///
/// A directory cannot be read.
pub fn compare(spec: &Spec, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (ra, rb) = (read_records(dir_a)?, read_records(dir_b)?);
    let mut ok = true;
    println!(
        "{:<18} {:<16} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound"
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter(|r| !r.trace && r.workload == *w)
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let (a, b) = (values(&ra), values(&rb));
            if a.is_empty() || b.is_empty() {
                println!("{w:<18} {:<16} missing on one side", m.name);
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let (verdict, change) = judge(&a, &b, m.better, bound);
            ok &= verdict != Verdict::Worse;
            let side = |v: &[f64]| {
                let q = quartiles(v);
                format!("{} [{}, {}] ({})", sig(q[1]), sig(q[0]), sig(q[2]), v.len())
            };
            println!(
                "{w:<18} {:<16} {:>34} {:>34} {:>+7.1}% {:>5.1}%  {verdict:?}",
                m.name,
                side(&a),
                side(&b),
                change * 100.0,
                bound * 100.0,
            );
        }
    }
    // Deterministic metrics must not depend on the host or the run.
    let mut pairs = 0;
    let traced = |rs: &[Record]| -> BTreeMap<(String, u64), BTreeMap<String, f64>> {
        rs.iter()
            .filter(|r| r.trace)
            .map(|r| ((r.workload.clone(), r.seed), r.metrics.clone()))
            .collect()
    };
    let (ta, tb) = (traced(&ra), traced(&rb));
    for (key, ma) in &ta {
        let Some(mb) = tb.get(key) else { continue };
        pairs += 1;
        for name in DETERMINISTIC {
            if ma.get(name).map(|x| x.to_bits()) != mb.get(name).map(|x| x.to_bits()) {
                println!("{} seed {}: {name} differs between A and B", key.0, key.1);
                ok = false;
            }
        }
    }
    println!(
        "deterministic metrics ({}) compared on {pairs} traced seed pairs",
        DETERMINISTIC.join(", ")
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.4, 100.1, 99.9];
        assert_eq!(judge(&a, &same, Better::Lower, 0.1).0, Verdict::Within);
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        let (v, change) = judge(&a, &slow, Better::Lower, 0.1);
        assert_eq!(v, Verdict::Worse);
        assert!((change - 0.2).abs() < 1e-9);
        // A faster B is never worse, and beating every A run reads better.
        assert_eq!(judge(&slow, &a, Better::Lower, 0.1).0, Verdict::Better);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&slow, &a, Better::Higher, 0.1).0, Verdict::Worse);
        // A spread wider than the bound cannot resolve a change.
        let noisy = [60.0, 150.0, 100.0, 80.0, 130.0];
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.1).0, Verdict::Unresolved);
    }
}
