//! The analytics pass over a captured [`Profile`]: latency
//! percentiles, phase attribution, lane utilization and stragglers,
//! critical paths per coalesced batch, and advisor calibration.
//!
//! Everything here is deterministic integer/`BTreeMap` arithmetic over
//! the already-canonical profile payload, so the report is
//! byte-identical across thread counts whenever the profile is.

use crate::event::{Lane, TraceEvent};
use crate::histogram::{percentile_exact, LogHistogram};
use crate::profile::Profile;
use crate::Cycle;
use std::collections::BTreeMap;

/// Latency distribution for one job kind.
///
/// Percentiles are *exact* nearest-rank values over the raw
/// picosecond latencies; the histogram carries the log-bucketed shape.
#[derive(Debug, Clone, PartialEq)]
pub struct KindLatency {
    /// Job kind label.
    pub kind: String,
    /// Jobs of this kind.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
    /// Exact p50 in picoseconds.
    pub p50_ps: u64,
    /// Exact p99 in picoseconds.
    pub p99_ps: u64,
    /// Exact p999 in picoseconds.
    pub p999_ps: u64,
    /// Log-spaced latency histogram (picoseconds).
    pub histogram: LogHistogram,
}

/// Where one job kind's cycles went: queue-wait vs stage vs execute
/// vs drain, in nanoseconds of the owning backend's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct KindAttribution {
    /// Backend name.
    pub backend: String,
    /// Job kind label.
    pub kind: String,
    /// Jobs with phase data.
    pub jobs: u64,
    /// Total queue-wait nanoseconds.
    pub queue_wait_ns: f64,
    /// Total staging nanoseconds.
    pub stage_ns: f64,
    /// Total execute nanoseconds.
    pub execute_ns: f64,
    /// Total drain nanoseconds.
    pub drain_ns: f64,
}

impl KindAttribution {
    /// Total attributed nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.queue_wait_ns + self.stage_ns + self.execute_ns + self.drain_ns
    }
}

/// Busy-time share of one occupancy lane (bank / rank / channel /
/// vault) within its group's active window.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneUtilization {
    /// Owning group (backend) name.
    pub group: String,
    /// The lane.
    pub lane: Lane,
    /// Events recorded on the lane.
    pub events: u64,
    /// Union of busy intervals, in cycles.
    pub busy: Cycle,
    /// `busy / window` where the window spans the group's first event
    /// open to its last event close.
    pub utilization: f64,
}

/// The critical path through one coalesced batch: the member whose
/// execute window closed last, and how much slack the others had.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCriticalPath {
    /// Backend name.
    pub backend: String,
    /// Batch key: the clock when the batch was picked up.
    pub batch_start: Cycle,
    /// Jobs coalesced into the batch.
    pub members: u64,
    /// Job id on the critical path.
    pub critical_job: u64,
    /// The critical member's execute cycles.
    pub critical_execute: Cycle,
    /// Summed execute slack of the non-critical members.
    pub total_slack: Cycle,
}

/// Advisor calibration for one backend × job kind: predicted vs
/// measured `CostEstimate` error.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Backend name.
    pub backend: String,
    /// Job kind label.
    pub kind: String,
    /// Jobs of this kind on this backend.
    pub jobs: u64,
    /// Mean signed time error (`actual - est`) in nanoseconds.
    pub mean_err_ns: f64,
    /// Mean absolute time error as a fraction of actual.
    pub mean_abs_pct: f64,
    /// Worst absolute time error as a fraction of actual.
    pub max_abs_pct: f64,
}

/// The full analytics report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Per-kind latency distributions, sorted by kind.
    pub latencies: Vec<KindLatency>,
    /// Per-backend × kind phase attribution, sorted.
    pub attributions: Vec<KindAttribution>,
    /// Per-lane utilization, grouped by group, busiest first within
    /// each group (straggler ranking).
    pub utilizations: Vec<LaneUtilization>,
    /// Critical paths of coalesced batches, in batch order.
    pub critical_paths: Vec<BatchCriticalPath>,
    /// Advisor calibration rows, sorted by backend then kind.
    pub calibrations: Vec<Calibration>,
}

/// Union length of a lane's busy intervals.
///
/// Events must be time-sorted (canonical profile order guarantees
/// this per lane); overlapping intervals are merged so double-counted
/// cycles cannot inflate occupancy.
pub fn busy_cycles(events: &[&TraceEvent]) -> Cycle {
    let mut busy = 0;
    let mut cur: Option<(Cycle, Cycle)> = None;
    for e in events {
        match cur {
            None => cur = Some((e.start, e.end)),
            Some((s, end)) if e.start <= end => cur = Some((s, end.max(e.end))),
            Some((s, end)) => {
                busy += end - s;
                cur = Some((e.start, e.end));
            }
        }
    }
    if let Some((s, end)) = cur {
        busy += end - s;
    }
    busy
}

/// Per-lane busy cycles over a group's occupancy lanes (bank / rank /
/// channel / vault; queue and job lanes are lifecycle, not occupancy).
pub fn lane_busy(events: &[TraceEvent]) -> BTreeMap<Lane, Cycle> {
    let mut by_lane: BTreeMap<Lane, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        if matches!(
            e.lane,
            Lane::Bank(_) | Lane::Rank(_) | Lane::Channel(_) | Lane::Vault(_)
        ) && e.value.is_none()
        {
            by_lane.entry(e.lane).or_default().push(e);
        }
    }
    by_lane
        .into_iter()
        .map(|(lane, evs)| (lane, busy_cycles(&evs)))
        .collect()
}

impl Report {
    /// Runs the analytics pass.
    pub fn from_profile(profile: &Profile) -> Report {
        let ns_per_cycle: BTreeMap<&str, f64> = profile
            .groups
            .iter()
            .map(|g| (g.name.as_str(), g.ns_per_cycle))
            .collect();

        // Per-kind latency percentiles over exact picoseconds.
        let mut by_kind: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for j in &profile.jobs {
            by_kind.entry(&j.kind).or_default().push(j.latency_ps());
        }
        let latencies = by_kind
            .into_iter()
            .map(|(kind, mut ps)| {
                ps.sort_unstable();
                let mut histogram = LogHistogram::default();
                for &v in &ps {
                    histogram.record(v);
                }
                KindLatency {
                    kind: kind.to_string(),
                    count: ps.len() as u64,
                    mean_ns: histogram.mean() / 1000.0,
                    p50_ps: percentile_exact(&ps, 0.5),
                    p99_ps: percentile_exact(&ps, 0.99),
                    p999_ps: percentile_exact(&ps, 0.999),
                    histogram,
                }
            })
            .collect();

        // Phase attribution per backend × kind.
        let mut attr: BTreeMap<(&str, &str), KindAttribution> = BTreeMap::new();
        for j in &profile.jobs {
            let Some(p) = &j.phases else { continue };
            let npc = ns_per_cycle.get(j.backend.as_str()).copied().unwrap_or(1.0);
            let row = attr
                .entry((&j.backend, &j.kind))
                .or_insert_with(|| KindAttribution {
                    backend: j.backend.clone(),
                    kind: j.kind.clone(),
                    jobs: 0,
                    queue_wait_ns: 0.0,
                    stage_ns: 0.0,
                    execute_ns: 0.0,
                    drain_ns: 0.0,
                });
            row.jobs += 1;
            row.queue_wait_ns += p.queue_wait() as f64 * npc;
            row.stage_ns += p.stage() as f64 * npc;
            row.execute_ns += p.execute() as f64 * npc;
            row.drain_ns += p.drain() as f64 * npc;
        }
        let attributions = attr.into_values().collect();

        // Lane utilization + straggler ranking per group.
        let mut utilizations = Vec::new();
        for g in &profile.groups {
            let occupancy: Vec<&TraceEvent> = g
                .events
                .iter()
                .filter(|e| {
                    matches!(
                        e.lane,
                        Lane::Bank(_) | Lane::Rank(_) | Lane::Channel(_) | Lane::Vault(_)
                    ) && e.value.is_none()
                })
                .collect();
            if occupancy.is_empty() {
                continue;
            }
            let window_start = occupancy.iter().map(|e| e.start).min().unwrap_or(0);
            let window_end = occupancy.iter().map(|e| e.end).max().unwrap_or(0);
            let window = (window_end - window_start).max(1) as f64;
            let mut rows: Vec<LaneUtilization> = lane_busy(&g.events)
                .into_iter()
                .map(|(lane, busy)| LaneUtilization {
                    group: g.name.clone(),
                    lane,
                    events: occupancy.iter().filter(|e| e.lane == lane).count() as u64,
                    busy,
                    utilization: busy as f64 / window,
                })
                .collect();
            // Busiest lane first; canonical lane order breaks ties.
            rows.sort_by(|a, b| {
                b.busy
                    .cmp(&a.busy)
                    .then_with(|| a.lane.sort_key().cmp(&b.lane.sort_key()))
            });
            utilizations.extend(rows);
        }

        // Critical path per coalesced batch.
        let mut batches: BTreeMap<(&str, Cycle), Vec<&crate::record::JobRecord>> = BTreeMap::new();
        for j in &profile.jobs {
            if let Some(p) = &j.phases {
                if j.group > 1 {
                    batches
                        .entry((&j.backend, p.batch_start))
                        .or_default()
                        .push(j);
                }
            }
        }
        let critical_paths = batches
            .into_iter()
            .map(|((backend, batch_start), members)| {
                let critical = members
                    .iter()
                    .max_by_key(|j| {
                        let p = j.phases.as_ref().expect("filtered");
                        (p.exec_end, p.execute(), j.id)
                    })
                    .expect("non-empty batch");
                let cp = critical.phases.as_ref().expect("filtered");
                let total_slack = members
                    .iter()
                    .map(|j| {
                        let p = j.phases.as_ref().expect("filtered");
                        cp.exec_end.saturating_sub(p.exec_end)
                    })
                    .sum();
                BatchCriticalPath {
                    backend: backend.to_string(),
                    batch_start,
                    members: members.len() as u64,
                    critical_job: critical.id,
                    critical_execute: cp.execute(),
                    total_slack,
                }
            })
            .collect();

        // Advisor calibration per backend × kind.
        let mut cal: BTreeMap<(&str, &str), (u64, f64, f64, f64)> = BTreeMap::new();
        for j in &profile.jobs {
            let entry = cal
                .entry((&j.backend, &j.kind))
                .or_insert((0, 0.0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += j.time_error_ns();
            if j.actual_ns > 0.0 {
                let pct = (j.time_error_ns() / j.actual_ns).abs();
                entry.2 += pct;
                entry.3 = entry.3.max(pct);
            }
        }
        let calibrations = cal
            .into_iter()
            .map(|((backend, kind), (n, err, pct, max_pct))| Calibration {
                backend: backend.to_string(),
                kind: kind.to_string(),
                jobs: n,
                mean_err_ns: err / n as f64,
                mean_abs_pct: pct / n as f64,
                max_abs_pct: max_pct,
            })
            .collect();

        Report {
            latencies,
            attributions,
            utilizations,
            critical_paths,
            calibrations,
        }
    }

    /// Renders the report as human-readable tables.
    pub fn to_table_string(&self) -> String {
        use std::fmt::Write;
        let ms = |ps: u64| ps as f64 / 1e3; // ps → ns for display
        let mut out = String::new();

        let _ = writeln!(out, "latency percentiles (exact, per job kind)");
        let _ = writeln!(
            out,
            "  {:<14} {:>6} {:>12} {:>12} {:>12} {:>12}",
            "kind", "jobs", "mean_ns", "p50_ns", "p99_ns", "p999_ns"
        );
        for l in &self.latencies {
            let _ = writeln!(
                out,
                "  {:<14} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
                l.kind,
                l.count,
                l.mean_ns,
                ms(l.p50_ps),
                ms(l.p99_ps),
                ms(l.p999_ps)
            );
        }

        let _ = writeln!(out, "phase attribution (ns, per backend x kind)");
        let _ = writeln!(
            out,
            "  {:<10} {:<14} {:>6} {:>12} {:>10} {:>12} {:>10} {:>7}",
            "backend", "kind", "jobs", "queue_wait", "stage", "execute", "drain", "exec%"
        );
        for a in &self.attributions {
            let pct = if a.total_ns() > 0.0 {
                100.0 * a.execute_ns / a.total_ns()
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<10} {:<14} {:>6} {:>12.1} {:>10.1} {:>12.1} {:>10.1} {:>6.1}%",
                a.backend,
                a.kind,
                a.jobs,
                a.queue_wait_ns,
                a.stage_ns,
                a.execute_ns,
                a.drain_ns,
                pct
            );
        }

        let _ = writeln!(out, "lane utilization (busiest first per group)");
        let _ = writeln!(
            out,
            "  {:<10} {:<12} {:>8} {:>12} {:>7}",
            "group", "lane", "events", "busy_cyc", "util"
        );
        for u in &self.utilizations {
            let _ = writeln!(
                out,
                "  {:<10} {:<12} {:>8} {:>12} {:>6.1}%",
                u.group,
                u.lane.label(),
                u.events,
                u.busy,
                100.0 * u.utilization
            );
        }

        if !self.critical_paths.is_empty() {
            let _ = writeln!(out, "batch critical paths");
            let _ = writeln!(
                out,
                "  {:<10} {:>12} {:>8} {:>9} {:>12} {:>12}",
                "backend", "batch_start", "members", "crit_job", "crit_cyc", "slack_cyc"
            );
            for c in &self.critical_paths {
                let _ = writeln!(
                    out,
                    "  {:<10} {:>12} {:>8} {:>9} {:>12} {:>12}",
                    c.backend,
                    c.batch_start,
                    c.members,
                    c.critical_job,
                    c.critical_execute,
                    c.total_slack
                );
            }
        }

        let _ = writeln!(out, "advisor calibration (est vs actual)");
        let _ = writeln!(
            out,
            "  {:<10} {:<14} {:>6} {:>12} {:>10} {:>10}",
            "backend", "kind", "jobs", "mean_err_ns", "mean|err|", "max|err|"
        );
        for c in &self.calibrations {
            let _ = writeln!(
                out,
                "  {:<10} {:<14} {:>6} {:>12.3} {:>9.1}% {:>9.1}%",
                c.backend,
                c.kind,
                c.jobs,
                c.mean_err_ns,
                100.0 * c.mean_abs_pct,
                100.0 * c.max_abs_pct
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProfileSink;
    use crate::record::{JobPhases, JobRecord};

    fn job(id: u64, kind: &str, actual_ns: f64, phases: Option<JobPhases>) -> JobRecord {
        JobRecord {
            id,
            kind: kind.into(),
            backend: "ambit".into(),
            queue_depth: 1,
            advised: Some(true),
            est_ns: actual_ns * 0.9,
            est_nj: 1.0,
            actual_ns,
            actual_nj: 1.0,
            commands: 4,
            group: 2,
            phases,
        }
    }

    fn sample() -> Profile {
        let mut sink = ProfileSink::new();
        sink.slice(Lane::Bank(0), "aap", 0, 80, Some(0));
        sink.slice(Lane::Bank(1), "aap", 0, 40, Some(1));
        sink.slice(Lane::Channel(0), "wr", 0, 10, Some(0));
        let mut p = Profile::new();
        p.add_group("ambit", 2.0, sink);
        p.add_jobs([
            job(
                0,
                "bitwise",
                100.0,
                Some(JobPhases {
                    submit: 0,
                    batch_start: 10,
                    exec_start: 20,
                    exec_end: 80,
                    drain_end: 90,
                }),
            ),
            job(
                1,
                "bitwise",
                200.0,
                Some(JobPhases {
                    submit: 0,
                    batch_start: 10,
                    exec_start: 20,
                    exec_end: 60,
                    drain_end: 90,
                }),
            ),
            job(2, "stream", 50.0, None),
        ]);
        p
    }

    #[test]
    fn latencies_are_exact_percentiles() {
        let r = Report::from_profile(&sample());
        assert_eq!(r.latencies.len(), 2);
        let bitwise = &r.latencies[0];
        assert_eq!(bitwise.kind, "bitwise");
        assert_eq!(bitwise.count, 2);
        assert_eq!(bitwise.p50_ps, 100_000);
        assert_eq!(bitwise.p99_ps, 200_000);
        assert_eq!(bitwise.p999_ps, 200_000);
    }

    #[test]
    fn attribution_uses_group_clock() {
        let r = Report::from_profile(&sample());
        let a = &r.attributions[0];
        // Two bitwise jobs: queue waits 10+10 cycles at 2 ns/cycle.
        assert_eq!(a.jobs, 2);
        assert!((a.queue_wait_ns - 40.0).abs() < 1e-9);
        assert!((a.execute_ns - (60 + 40) as f64 * 2.0).abs() < 1e-9);
        assert!((a.drain_ns - (10 + 30) as f64 * 2.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_ranks_stragglers() {
        let r = Report::from_profile(&sample());
        // bank/0 is busiest (80 cycles over the 80-cycle window).
        assert_eq!(r.utilizations[0].lane, Lane::Bank(0));
        assert_eq!(r.utilizations[0].busy, 80);
        assert!((r.utilizations[0].utilization - 1.0).abs() < 1e-9);
        assert_eq!(r.utilizations[1].lane, Lane::Bank(1));
        assert_eq!(r.utilizations[2].lane, Lane::Channel(0));
    }

    #[test]
    fn critical_path_finds_slowest_member() {
        let r = Report::from_profile(&sample());
        assert_eq!(r.critical_paths.len(), 1);
        let c = &r.critical_paths[0];
        assert_eq!(c.members, 2);
        assert_eq!(c.critical_job, 0);
        assert_eq!(c.critical_execute, 60);
        assert_eq!(c.total_slack, 20);
    }

    #[test]
    fn busy_cycles_merges_overlaps() {
        let mk = |s, e| TraceEvent {
            lane: Lane::Bank(0),
            name: "x".into(),
            start: s,
            end: e,
            job: None,
            value: None,
        };
        let evs = [mk(0, 10), mk(5, 15), mk(20, 30)];
        let refs: Vec<&TraceEvent> = evs.iter().collect();
        assert_eq!(busy_cycles(&refs), 25);
    }

    #[test]
    fn report_renders_tables() {
        let text = Report::from_profile(&sample()).to_table_string();
        assert!(text.contains("latency percentiles"));
        assert!(text.contains("bitwise"));
        assert!(text.contains("bank/0"));
        assert!(text.contains("advisor calibration"));
    }
}
