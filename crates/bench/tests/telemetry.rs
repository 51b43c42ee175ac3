//! Telemetry reconciliation: frozen run reports must agree with the
//! independent accounting paths — the E1 command counters with the
//! oracle-validated command trace (exactly), and the E6 energy series
//! with the closed-form consumer study (to 1e-9 relative).

use pim_ambit::AmbitConfig;
use pim_telemetry::{Metric, Snapshot};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn e1_command_counters_match_the_oracle_validated_trace() {
    let (snap, spec, records) = pim_bench::e1::telemetry_capture(AmbitConfig::ddr3(), 2);

    // The trace itself must be protocol-legal before it can arbitrate.
    let trace = pim_check::Trace::capture(spec, records);
    pim_check::check_trace(&trace, pim_check::CheckOptions::timing_only())
        .expect("oracle accepts the captured trace");

    let mut per_kind = std::collections::BTreeMap::new();
    for r in &trace.records {
        *per_kind.entry(r.cmd.kind()).or_insert(0u64) += 1;
    }
    assert!(!per_kind.is_empty(), "capture must not be empty");

    let sink = snap.clone().into_sink();
    let mut telemetry_total = 0u64;
    for (kind, expect) in &per_kind {
        let series = format!("ambit.{}", kind.telemetry_series());
        assert_eq!(
            sink.counter_total(&series),
            *expect,
            "{series} must count the trace exactly"
        );
        telemetry_total += expect;
    }
    assert_eq!(telemetry_total, trace.records.len() as u64);

    // Every command the spans claim is in the trace, and vice versa:
    // per-job command counts sum to the whole capture.
    let span_commands: u64 = sink.spans().iter().map(|s| s.commands).sum();
    assert_eq!(span_commands, trace.records.len() as u64);

    Snapshot::from_json_str(&snap.to_json_string()).expect("snapshot decodes");
}

#[test]
fn e6_energy_series_match_the_closed_form_study() {
    let snap = pim_bench::e6::telemetry_snapshot();
    let sink = snap.clone().into_sink();

    let telemetry_nj: f64 = sink
        .metrics()
        .filter(|(k, _)| k.name.starts_with("energy."))
        .map(|(_, m)| match m {
            Metric::Sum(v) => *v,
            other => panic!("energy series must be sums, got {other:?}"),
        })
        .sum();

    let closed_form_nj: f64 = pim_bench::e6::run_static()
        .iter()
        .map(|a| a.pim_core_energy.total_nj())
        .sum();

    assert!(
        close(telemetry_nj, closed_form_nj),
        "telemetry {telemetry_nj} nJ vs closed form {closed_form_nj} nJ"
    );

    // Per-span energies also sum to the same total: the attribution
    // loses nothing between the job reports and the registry.
    let span_nj: f64 = sink.spans().iter().map(|s| s.actual_nj).sum();
    assert!(
        close(span_nj, closed_form_nj),
        "{span_nj} vs {closed_form_nj}"
    );

    Snapshot::from_json_str(&snap.to_json_string()).expect("snapshot decodes");
}

#[test]
fn e5_snapshot_carries_vault_utilization() {
    let snap = pim_bench::e5::telemetry_snapshot(12, 8);
    let sink = snap.clone().into_sink();
    // Engine series arrive instance-prefixed: backend "tesseract" owns
    // the crate's `tesseract.*` domain, hence the doubled segment.
    assert_eq!(
        sink.counter_total("tesseract.tesseract.runs"),
        5,
        "five kernels"
    );
    assert!(sink.counter_total("tesseract.tesseract.supersteps") > 0);
    assert!(sink.counter_total("tesseract.tesseract.vault.vertices") > 0);
    assert!(sink.counter_total("tesseract.tesseract.vault.msgs_in_remote") > 0);
    assert_eq!(sink.spans().len(), 5);
    for span in sink.spans() {
        assert_eq!(span.backend, "tesseract");
        assert_eq!(span.kind, "graph-batch");
        assert!(span.actual_ns > 0.0 && span.actual_nj > 0.0);
    }
    Snapshot::from_json_str(&snap.to_json_string()).expect("snapshot decodes");
}
