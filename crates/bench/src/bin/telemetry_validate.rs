//! Validates machine-readable run reports (`PIMRUN01`, written by the
//! experiment binaries' `--telemetry` flag) and bare telemetry
//! snapshots (`PIMTEL01`): format tags, table shapes, metric kinds, and
//! span ordering. A snapshot is valid when its one reader,
//! `Snapshot::from_json_str`, decodes it. Exits non-zero on the first
//! invalid file — this is the CI gate on generated telemetry.
//!
//! Usage: `telemetry_validate <report.json>...`

use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: telemetry_validate <report.json>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("read failed: {e}"))
            .and_then(|text| {
                if text.contains("\"PIMTEL01\"") && !text.contains("\"PIMRUN01\"") {
                    pim_telemetry::Snapshot::from_json_str(&text)
                        .map(drop)
                        .map_err(|e| e.to_string())
                } else {
                    pim_bench::report::validate_report(&text)
                }
            });
        match verdict {
            Ok(()) => println!("{path}: ok"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
