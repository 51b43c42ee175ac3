//! Decodes and summarizes `PIMPROF01` profile exports: every path
//! given on the command line (or, with none, every `.json` under
//! `results/profile/`) is read once by `Profile::from_json_str`, which
//! checks the format tag, monotone event intervals, phase-partition
//! invariants, and the derived Chrome `traceEvents` as it decodes,
//! then rendered as the analytics report: per-kind latency
//! percentiles, queue-wait vs execute vs drain attribution, lane
//! utilization with straggler ranking, per-batch critical paths, and
//! advisor calibration.
//! Exits nonzero on the first invalid or unreadable file.
//! Shared flags: `--quiet`, `--telemetry[=path]` (JSON run report).

use std::path::PathBuf;

fn main() {
    let mut log = pim_bench::report::RunLog::from_env("profile_report");
    let mut paths: Vec<PathBuf> = log
        .args()
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .collect();
    if paths.is_empty() {
        if let Ok(dir) = std::fs::read_dir(pim_bench::report::PROFILE_DIR) {
            paths = dir
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            paths.sort();
        }
    }
    if paths.is_empty() {
        log.event(
            "profile_report",
            format!(
                "no profiles given and none under {}/ — run an experiment with --profile first",
                pim_bench::report::PROFILE_DIR
            ),
        );
    }
    for path in paths {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("profile_report: {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        let profile = match pim_profile::Profile::from_json_str(&text) {
            Ok(profile) => profile,
            Err(e) => {
                eprintln!("profile_report: {}: invalid PIMPROF01: {e}", path.display());
                std::process::exit(1);
            }
        };
        log.event(
            "profile",
            format!(
                "{}: valid PIMPROF01 — {} group(s), {} event(s), {} job(s)",
                path.display(),
                profile.groups.len(),
                profile.events_total(),
                profile.jobs.len()
            ),
        );
        if !log.quiet() {
            println!(
                "{}",
                pim_profile::analytics::Report::from_profile(&profile).to_table_string()
            );
        }
    }
    log.finish().expect("write run report");
}
