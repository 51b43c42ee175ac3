//! Runs every workload in `--smoke` mode, untraced and traced, and checks
//! its result line against `BENCHMARK.json`: every declared metric is
//! printed with its declared unit and a finite value, nothing else is
//! printed, every twin reproduced its request, and no request failed.

use serde_json::Value;
use std::process::Command;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<(String, String)> {
    let Value::Array(items) = list else {
        panic!("metric list is not an array")
    };
    items
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn smoke(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--trace",
            trace,
            "--seed",
            "3",
        ])
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("bench_e2e runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn smoke_runs_report_every_declared_metric() {
    let spec = spec();
    let Value::Array(workloads) = &spec["workloads"] else {
        panic!("workloads is not an array")
    };
    for w in workloads {
        let w = w["name"].as_str().expect("workload name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let r = smoke(w, trace);
            assert_eq!(r["correct"], Value::Bool(true), "{w} trace {trace}");
            assert_eq!(r["failed"].as_u64(), Some(0), "{w} trace {trace}");
            assert!(r["attempted"].as_u64().is_some_and(|n| n >= 10));
            let Value::Object(metrics) = &r["metrics"] else {
                panic!("{w}: metrics is not an object")
            };
            let declared = names(&spec[list]);
            assert_eq!(metrics.len(), declared.len(), "{w} trace {trace}");
            for (name, unit) in &declared {
                assert!(valid_name(name), "bad metric name {name:?}");
                let m = &metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: no {name}"));
                assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{w}: {name}");
                let v = m["value"].as_f64().unwrap_or(f64::NAN);
                assert!(v.is_finite(), "{w}: {name} = {v}");
            }
            if trace == "1" {
                // Each workload re-issues at least one internal call on a
                // twin; a twin that did not match would have failed above.
                let twin_calls: f64 = ["ambit.execute", "ambit.row_program", "tesseract.run"]
                    .iter()
                    .map(|s| {
                        metrics
                            .get(&format!("{s}.calls"))
                            .map_or(0.0, |m| m["value"].as_f64().unwrap_or(0.0))
                    })
                    .sum();
                assert!(twin_calls > 0.0, "{w}: no twin ran");
            }
        }
    }
}
