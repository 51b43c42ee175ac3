//! `BENCHMARK.json`: the workloads, the metrics with their units and
//! directions, and the regression bound of each end-to-end metric.

use serde_json::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the baseline median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The parsed file.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics of untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of traced runs.
    pub per_layer: Vec<MetricSpec>,
}

/// Largest regression bound the file may declare.
const MAX_BOUND: f64 = 0.25;

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v[key].as_str().ok_or(format!("`{key}` must be a string"))
}

fn metrics(v: &Value, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    let Value::Array(items) = &v[key] else {
        return Err(format!("`{key}` must be an array"));
    };
    items
        .iter()
        .map(|m| {
            let name = str_field(m, "name")?.to_string();
            let better = match str_field(m, "better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => {
                    return Err(format!(
                        "{name}: better must be lower or higher, got {other}"
                    ))
                }
            };
            let bound = if bounded {
                let b = m["bound"]
                    .as_f64()
                    .ok_or(format!("{name}: bound must be a number"))?;
                if !(0.0..=MAX_BOUND).contains(&b) {
                    return Err(format!("{name}: bound {b} outside 0..={MAX_BOUND}"));
                }
                Some(b)
            } else {
                None
            };
            Ok(MetricSpec {
                unit: str_field(m, "unit")?.to_string(),
                name,
                better,
                bound,
            })
        })
        .collect()
}

impl Spec {
    /// Parses `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// What is malformed: a missing key, a non-string name or unit, a
    /// direction other than `lower`/`higher`, or a bound outside 0–0.25.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let Value::Array(ws) = &v["workloads"] else {
            return Err("`workloads` must be an array".into());
        };
        Ok(Spec {
            workloads: ws
                .iter()
                .map(|w| str_field(w, "name").map(str::to_string))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&v, "end_to_end", true)?,
            per_layer: metrics(&v, "per_layer", false)?,
        })
    }

    /// Reads the file at the repository root, next to this package.
    ///
    /// # Errors
    ///
    /// The file is missing or does not parse.
    pub fn load() -> Result<Spec, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Spec::parse(&text).map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "command": ["cargo", "run"],
        "paths": ["bench-e2e"],
        "run_seconds": 12,
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
        ],
        "per_layer": [{"name": "request.calls", "unit": "count", "better": "higher"}]
    }"#;

    #[test]
    fn parses_bounds_directions_and_names() {
        let s = Spec::parse(SAMPLE).expect("valid spec");
        assert_eq!(s.workloads, ["a", "b"]);
        assert_eq!(s.end_to_end[0].bound, Some(0.25));
        assert_eq!(s.end_to_end[1].better, Better::Higher);
        assert_eq!(s.end_to_end[1].unit, "1/s");
        assert_eq!(s.per_layer[0].bound, None);
    }

    #[test]
    fn rejects_bad_bounds_and_directions() {
        let bad = SAMPLE.replace("\"bound\": 0.1", "\"bound\": 0.3");
        assert!(Spec::parse(&bad).unwrap_err().contains("outside"));
        let bad = SAMPLE.replace("\"bound\": 0.1", "\"bound\": \"10%\"");
        assert!(Spec::parse(&bad).is_err());
        let bad = SAMPLE.replace("\"higher\", \"bound\"", "\"up\", \"bound\"");
        assert!(Spec::parse(&bad).unwrap_err().contains("better"));
        assert!(Spec::parse("{}").is_err());
    }

    #[test]
    fn the_committed_file_parses() {
        let s = Spec::load().expect("BENCHMARK.json");
        assert!(s.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}
