//! Structured run reports: the `--telemetry` / `--profile` / `--quiet`
//! flags every experiment binary shares, plus the single table/event
//! rendering path.
//!
//! A [`RunLog`] collects everything a binary would have printed ad hoc —
//! result tables, status events, telemetry snapshots — and renders it
//! two ways: human-readable markdown on stdout and `key: message` events
//! on stderr (both suppressed by `--quiet`), and a versioned
//! machine-readable JSON run report (format tag [`REPORT_TAG`], embedding
//! `PIMTEL01` telemetry snapshots) written under `results/telemetry/`
//! when `--telemetry` is given. The JSON is built from the same
//! deterministic value tree as the telemetry snapshots, so a report is
//! byte-identical across runs and thread counts.
//!
//! `--profile` additionally exports a `PIMPROF01` cycle-domain profile as
//! its **own** file under `results/profile/` — a standalone document (the
//! embedded `traceEvents` array loads directly in Perfetto / `chrome://
//! tracing`), deliberately not embedded in the run report.

use pim_core::{Table, Value as Cell};
use pim_profile::Profile;
use pim_telemetry::Snapshot;
use serde_json::{Map, Value};
use std::path::{Path, PathBuf};

/// Format tag of the run-report JSON envelope.
pub const REPORT_TAG: &str = "PIMRUN01";

/// Where reports land when `--telemetry` is given without a path.
pub const DEFAULT_DIR: &str = "results/telemetry";

/// Where profiles land when `--profile` is given without a path.
pub const PROFILE_DIR: &str = "results/profile";

/// One experiment binary's output, accumulated then rendered.
#[derive(Debug)]
pub struct RunLog {
    name: String,
    quiet: bool,
    telemetry_path: Option<PathBuf>,
    profile_path: Option<PathBuf>,
    args: Vec<String>,
    tables: Vec<Table>,
    events: Vec<(String, String)>,
    snapshots: Vec<Snapshot>,
    profile: Option<Profile>,
}

impl RunLog {
    /// Creates a log that only prints (no flags consumed) — the
    /// programmatic entry point tests use.
    pub fn new(name: impl Into<String>) -> Self {
        RunLog {
            name: name.into(),
            quiet: false,
            telemetry_path: None,
            profile_path: None,
            args: Vec::new(),
            tables: Vec::new(),
            events: Vec::new(),
            snapshots: Vec::new(),
            profile: None,
        }
    }

    /// Creates a log from the process arguments, consuming the shared
    /// flags and keeping the rest (positionals and experiment-specific
    /// flags) for [`RunLog::args`]:
    ///
    /// * `--quiet` — suppress stdout/stderr rendering;
    /// * `--telemetry` — write the JSON run report to
    ///   `results/telemetry/<name>.json`;
    /// * `--telemetry=<path>` (or `--telemetry <file>.json`) — write it
    ///   to an explicit path;
    /// * `--profile` — export the `PIMPROF01` cycle-domain profile to
    ///   `results/profile/<name>.json`;
    /// * `--profile=<path>` (or `--profile <file>.json`) — export it to
    ///   an explicit path.
    pub fn from_env(name: impl Into<String>) -> Self {
        Self::from_args(name, std::env::args().skip(1).collect())
    }

    /// [`RunLog::from_env`] over an explicit argument list.
    pub fn from_args(name: impl Into<String>, argv: Vec<String>) -> Self {
        let mut log = Self::new(name);
        let mut iter = argv.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if arg == "--quiet" {
                log.quiet = true;
            } else if arg == "--telemetry" {
                // A bare flag takes the default path; a following token
                // is only a path if it looks like one (experiment
                // positionals such as a graph scale must pass through).
                let explicit = iter
                    .peek()
                    .is_some_and(|next| next.ends_with(".json"))
                    .then(|| iter.next().expect("peeked"));
                log.telemetry_path = Some(match explicit {
                    Some(path) => PathBuf::from(path),
                    None => Path::new(DEFAULT_DIR).join(format!("{}.json", log.name)),
                });
            } else if arg == "--profile" {
                let explicit = iter
                    .peek()
                    .is_some_and(|next| next.ends_with(".json"))
                    .then(|| iter.next().expect("peeked"));
                log.profile_path = Some(match explicit {
                    Some(path) => PathBuf::from(path),
                    None => Path::new(PROFILE_DIR).join(format!("{}.json", log.name)),
                });
            } else if let Some(path) = arg.strip_prefix("--telemetry=") {
                log.telemetry_path = Some(PathBuf::from(path));
            } else if let Some(path) = arg.strip_prefix("--profile=") {
                log.profile_path = Some(PathBuf::from(path));
            } else {
                log.args.push(arg);
            }
        }
        log
    }

    /// The arguments left after the shared flags were consumed.
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// Whether a remaining argument equals `flag`.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// Whether `--quiet` was given.
    pub fn quiet(&self) -> bool {
        self.quiet
    }

    /// Whether this run writes a telemetry report (so binaries can skip
    /// building snapshots nobody will read).
    pub fn telemetry(&self) -> bool {
        self.telemetry_path.is_some()
    }

    /// Whether this run exports a `PIMPROF01` profile (so binaries can
    /// skip profile-enabled reruns nobody will read).
    pub fn profiling(&self) -> bool {
        self.profile_path.is_some()
    }

    /// Records a result table, printing its markdown unless quiet.
    pub fn table(&mut self, table: Table) {
        if !self.quiet {
            println!("{}", table.to_markdown());
        }
        self.tables.push(table);
    }

    /// Records a status event, printing `key: message` to stderr unless
    /// quiet. This replaces ad-hoc `eprintln!` in the binaries: the same
    /// line lands in the JSON report's `events` array.
    pub fn event(&mut self, key: &str, message: impl std::fmt::Display) {
        let message = message.to_string();
        if !self.quiet {
            eprintln!("{key}: {message}");
        }
        self.events.push((key.to_string(), message));
    }

    /// Attaches a telemetry snapshot to the report and prints its
    /// rendered table unless quiet.
    pub fn snapshot(&mut self, snap: Snapshot) {
        if !self.quiet {
            println!("{}", snap.to_table_string());
        }
        self.snapshots.push(snap);
    }

    /// Attaches the run's cycle-domain profile: prints the analytics
    /// report (per-kind latency percentiles, phase attribution, lane
    /// utilization, critical paths, advisor calibration) unless quiet,
    /// and queues the `PIMPROF01` export for [`RunLog::finish`]. The last
    /// profile attached wins.
    pub fn profile(&mut self, profile: Profile) {
        if !self.quiet {
            println!(
                "{}",
                pim_profile::analytics::Report::from_profile(&profile).to_table_string()
            );
        }
        self.profile = Some(profile);
    }

    /// The machine-readable run report as a JSON value tree.
    pub fn report_value(&self) -> Value {
        let mut root = Map::new();
        root.insert("format", Value::Str(REPORT_TAG.to_string()));
        root.insert("name", Value::Str(self.name.clone()));
        root.insert(
            "tables",
            Value::Array(self.tables.iter().map(table_value).collect()),
        );
        root.insert(
            "events",
            Value::Array(
                self.events
                    .iter()
                    .map(|(k, m)| {
                        let mut e = Map::new();
                        e.insert("key", Value::Str(k.clone()));
                        e.insert("message", Value::Str(m.clone()));
                        Value::Object(e)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "telemetry",
            Value::Array(self.snapshots.iter().map(Snapshot::to_value).collect()),
        );
        Value::Object(root)
    }

    /// The run report as deterministic JSON text.
    pub fn report_json(&self) -> String {
        serde_json::to_string_pretty(&self.report_value()).expect("report values are finite")
    }

    /// Writes the pending exports: the `PIMPROF01` profile (its own
    /// file — Perfetto loads it directly) if `--profile` was given, then
    /// the JSON run report if `--telemetry` was given, returning the
    /// report's path; prints where each landed (as an event) on success.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directories or files.
    pub fn finish(mut self) -> std::io::Result<Option<PathBuf>> {
        let ensure_dir = |path: &Path| -> std::io::Result<()> {
            match path.parent() {
                Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
                _ => Ok(()),
            }
        };
        if let (Some(path), Some(profile)) = (self.profile_path.clone(), self.profile.take()) {
            ensure_dir(&path)?;
            std::fs::write(&path, profile.to_json_string_pretty())?;
            self.event("profile", path.display().to_string());
        }
        let Some(path) = self.telemetry_path.clone() else {
            return Ok(None);
        };
        ensure_dir(&path)?;
        self.event("telemetry", path.display().to_string());
        std::fs::write(&path, self.report_json())?;
        Ok(Some(path))
    }
}

/// A [`Table`] as a JSON value: title, columns, and typed cells
/// (`{"text": ...}` / `{"num": ...}` / `{"ratio": ...}` /
/// `{"percent": ...}`), so consumers keep both the number and how the
/// experiment meant it to read.
fn table_value(table: &Table) -> Value {
    let mut t = Map::new();
    t.insert("title", Value::Str(table.title().to_string()));
    t.insert(
        "columns",
        Value::Array(
            table
                .columns()
                .iter()
                .map(|c| Value::Str(c.clone()))
                .collect(),
        ),
    );
    t.insert(
        "rows",
        Value::Array(
            table
                .rows()
                .iter()
                .map(|row| Value::Array(row.iter().map(cell_value).collect()))
                .collect(),
        ),
    );
    Value::Object(t)
}

fn cell_value(cell: &Cell) -> Value {
    let mut c = Map::new();
    match cell {
        Cell::Text(s) => c.insert("text", Value::Str(s.clone())),
        Cell::Num(v) => c.insert("num", Value::Num(*v)),
        Cell::Ratio(v) => c.insert("ratio", Value::Num(*v)),
        Cell::Percent(v) => c.insert("percent", Value::Num(*v)),
    }
    Value::Object(c)
}

/// Validates a run-report JSON document: envelope tag and shape, every
/// table rectangular with typed cells, every event a key/message pair,
/// and every embedded telemetry snapshot decoding as `PIMTEL01` (see
/// [`Snapshot::from_value`]). This is what
/// the `telemetry_validate` binary (and CI) runs against generated
/// reports.
///
/// # Errors
///
/// A description of the first violation found.
pub fn validate_report(text: &str) -> Result<(), String> {
    let value: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
    let Value::Object(root) = &value else {
        return Err("root is not an object".into());
    };
    match root.get("format") {
        Some(Value::Str(tag)) if tag == REPORT_TAG => {}
        other => return Err(format!("bad format tag: {other:?}")),
    }
    match root.get("name") {
        Some(Value::Str(name)) if !name.is_empty() => {}
        other => return Err(format!("bad report name: {other:?}")),
    }
    let array = |key: &str| -> Result<&Vec<Value>, String> {
        match root.get(key) {
            Some(Value::Array(items)) => Ok(items),
            other => Err(format!("`{key}` is not an array: {other:?}")),
        }
    };
    for (i, table) in array("tables")?.iter().enumerate() {
        validate_table(table).map_err(|e| format!("table {i}: {e}"))?;
    }
    for (i, event) in array("events")?.iter().enumerate() {
        let Value::Object(e) = event else {
            return Err(format!("event {i} is not an object"));
        };
        for key in ["key", "message"] {
            if !matches!(e.get(key), Some(Value::Str(_))) {
                return Err(format!("event {i} lacks string `{key}`"));
            }
        }
    }
    for (i, snap) in array("telemetry")?.iter().enumerate() {
        Snapshot::from_value(snap).map_err(|e| format!("telemetry {i}: {e}"))?;
    }
    Ok(())
}

fn validate_table(table: &Value) -> Result<(), String> {
    let Value::Object(t) = table else {
        return Err("not an object".into());
    };
    if !matches!(t.get("title"), Some(Value::Str(_))) {
        return Err("missing string `title`".into());
    }
    let Some(Value::Array(columns)) = t.get("columns") else {
        return Err("missing `columns` array".into());
    };
    let Some(Value::Array(rows)) = t.get("rows") else {
        return Err("missing `rows` array".into());
    };
    for (r, row) in rows.iter().enumerate() {
        let Value::Array(cells) = row else {
            return Err(format!("row {r} is not an array"));
        };
        if cells.len() != columns.len() {
            return Err(format!(
                "row {r} has {} cells for {} columns",
                cells.len(),
                columns.len()
            ));
        }
        for (c, cell) in cells.iter().enumerate() {
            let Value::Object(m) = cell else {
                return Err(format!("cell {r}/{c} is not an object"));
            };
            let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
            match keys.as_slice() {
                ["text"] if matches!(m.get("text"), Some(Value::Str(_))) => {}
                ["num" | "ratio" | "percent"]
                    if matches!(m.iter().next(), Some((_, Value::Num(_)))) => {}
                _ => return Err(format!("cell {r}/{c} has unknown shape {keys:?}")),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_telemetry::TelemetrySink;

    fn demo_table() -> Table {
        let mut t = Table::new("demo", &["name", "gbps", "vs cpu", "util"]);
        t.row(vec![
            "and".into(),
            Cell::Num(195.6),
            Cell::Ratio(53.9),
            Cell::Percent(0.627),
        ]);
        t
    }

    #[test]
    fn flags_are_consumed_and_the_rest_pass_through() {
        let log = RunLog::from_args(
            "e5",
            vec![
                "18".into(),
                "--quiet".into(),
                "--telemetry".into(),
                "16".into(),
                "--trace".into(),
            ],
        );
        assert!(log.quiet());
        assert!(log.telemetry());
        assert_eq!(log.args(), ["18", "16", "--trace"]);
        assert!(log.has_flag("--trace"));

        let log = RunLog::from_args("e1", vec!["--telemetry".into(), "out/run.json".into()]);
        assert_eq!(log.telemetry_path, Some(PathBuf::from("out/run.json")));
        let log = RunLog::from_args("e1", vec!["--telemetry=x.json".into()]);
        assert_eq!(log.telemetry_path, Some(PathBuf::from("x.json")));
    }

    #[test]
    fn profile_flag_mirrors_the_telemetry_parsing() {
        // Bare flag: default path under results/profile, positionals
        // pass through untouched.
        let log = RunLog::from_args("e5", vec!["--profile".into(), "18".into()]);
        assert!(log.profiling());
        assert_eq!(
            log.profile_path,
            Some(Path::new(PROFILE_DIR).join("e5.json"))
        );
        assert_eq!(log.args(), ["18"]);

        let log = RunLog::from_args("e1", vec!["--profile".into(), "out/p.json".into()]);
        assert_eq!(log.profile_path, Some(PathBuf::from("out/p.json")));
        let log = RunLog::from_args("e1", vec!["--profile=p.json".into()]);
        assert_eq!(log.profile_path, Some(PathBuf::from("p.json")));
        assert!(!log.telemetry(), "--profile does not imply --telemetry");
        assert!(!RunLog::from_args("e1", vec![]).profiling());
    }

    #[test]
    fn finish_writes_the_profile_as_its_own_file() {
        let dir = std::env::temp_dir().join("pim_bench_runlog_profile_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("demo_profile.json");
        let mut log = RunLog::from_args(
            "demo",
            vec!["--quiet".into(), format!("--profile={}", path.display())],
        );
        let mut sink = pim_profile::ProfileSink::new();
        sink.slice(pim_profile::Lane::Queue, "wait", 0, 5, Some(1));
        let mut profile = Profile::new().with_meta("experiment", "demo");
        profile.add_group("demo-backend", 1.0, sink);
        log.profile(profile);
        assert!(log.finish().expect("write profile").is_none(), "no report");
        let text = std::fs::read_to_string(&path).expect("read back");
        Profile::from_json_str(&text).expect("written profile decodes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_roundtrip_validates() {
        let mut log = RunLog::from_args("demo", vec!["--quiet".into(), "--telemetry".into()]);
        log.table(demo_table());
        log.event("status", "ok");
        let mut sink = TelemetrySink::new();
        sink.count("demo.counter", 0, 3);
        log.snapshot(Snapshot::from_sink(sink).with_meta("experiment", "demo"));
        let json = log.report_json();
        validate_report(&json).expect("generated report validates");
        // Determinism: rebuilding the identical log renders identical text.
        let mut log2 = RunLog::from_args("demo", vec!["--quiet".into(), "--telemetry".into()]);
        log2.table(demo_table());
        log2.event("status", "ok");
        let mut sink2 = TelemetrySink::new();
        sink2.count("demo.counter", 0, 3);
        log2.snapshot(Snapshot::from_sink(sink2).with_meta("experiment", "demo"));
        assert_eq!(json, log2.report_json());
    }

    #[test]
    fn validation_rejects_corrupted_reports() {
        let mut log = RunLog::new("demo");
        log.quiet = true;
        log.table(demo_table());
        let json = log.report_json();
        assert!(validate_report(&json.replace(REPORT_TAG, "PIMRUNXX")).is_err());
        assert!(validate_report(&json.replace("\"num\"", "\"nmu\"")).is_err());
        assert!(validate_report("{}").is_err());
        assert!(validate_report("not json").is_err());
    }

    #[test]
    fn finish_writes_the_report() {
        let dir = std::env::temp_dir().join("pim_bench_runlog_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("demo.json");
        let mut log = RunLog::from_args(
            "demo",
            vec!["--quiet".into(), format!("--telemetry={}", path.display())],
        );
        log.table(demo_table());
        let written = log.finish().expect("write report").expect("path");
        assert_eq!(written, path);
        let text = std::fs::read_to_string(&path).expect("read back");
        validate_report(&text).expect("written report validates");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
