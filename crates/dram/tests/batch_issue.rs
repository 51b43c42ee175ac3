//! Equivalence tests for the device's batched homogeneous-run fast path
//! ([`Device::issue_run`]): for any kind-homogeneous command run, the
//! batched path must be byte-identical to issuing the same commands one
//! at a time through `issue_earliest` — same completion cycles, same row
//! data, same command counts, same captured trace, and same frozen
//! telemetry snapshot. The only observable difference allowed is the
//! `batched_commands` diagnostic counter.

use pim_dram::{
    BankId, Command, CommandCounts, Cycle, Device, DramError, DramSpec, Observer, Projection,
    RowId, TraceRecord,
};
use pim_telemetry::Snapshot;
use proptest::prelude::*;

const PRELOAD_ROWS: u32 = 6;

/// A device with trace + telemetry capture on and deterministic nonzero
/// data preloaded into the first rows of every bank.
fn instrumented_device() -> Device {
    let mut dev = Device::new(DramSpec::ddr3_1600());
    dev.observe(Projection::Trace, true);
    dev.observe(Projection::Telemetry, true);
    let banks = dev.spec().org.banks;
    let words = dev.store().row_words();
    for bank in 0..banks {
        for row in 0..PRELOAD_ROWS {
            let data: Vec<u64> = (0..words)
                .map(|w| {
                    (u64::from(bank) << 48)
                        ^ (u64::from(row) << 32)
                        ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                })
                .collect();
            dev.store_mut()
                .write_row(RowId::new(0, 0, bank, row), &data);
        }
    }
    dev
}

/// Everything observable about a device after a run, except the
/// `batched_commands` diagnostic (which is *supposed* to differ).
struct Fingerprint {
    rows: Vec<Vec<u64>>,
    counts: CommandCounts,
    trace: Vec<TraceRecord>,
    telemetry: String,
}

fn take_trace(dev: &mut Device) -> Vec<TraceRecord> {
    dev.observer_mut()
        .map(Observer::take_trace)
        .unwrap_or_default()
}

fn fingerprint(mut dev: Device) -> Fingerprint {
    let banks = dev.spec().org.banks;
    let mut rows = Vec::new();
    for bank in 0..banks {
        for row in 0..PRELOAD_ROWS {
            rows.push(dev.store().read_row(RowId::new(0, 0, bank, row)));
        }
    }
    Fingerprint {
        rows,
        counts: *dev.counts(),
        trace: take_trace(&mut dev),
        telemetry: Snapshot::from_sink(
            dev.observer_mut()
                .and_then(Observer::take_telemetry)
                .expect("telemetry on"),
        )
        .to_json_string(),
    }
}

fn assert_equivalent(batched: Fingerprint, reference: Fingerprint) {
    assert_eq!(batched.rows, reference.rows, "row data diverged");
    assert_eq!(batched.counts, reference.counts, "command counts diverged");
    assert_eq!(batched.trace, reference.trace, "trace diverged");
    assert_eq!(batched.telemetry, reference.telemetry, "telemetry diverged");
}

/// Issues `cmds` one at a time, mirroring what `issue_run` is specified
/// to be equivalent to. Returns per-command completion cycles (stopping
/// at the first error, like the batched path's applied prefix).
fn issue_individually(
    dev: &mut Device,
    cmds: &[Command],
    not_before: &[Cycle],
) -> (Vec<Cycle>, Result<Cycle, DramError>) {
    let mut done = Vec::new();
    let mut end = 0;
    for (cmd, &nb) in cmds.iter().zip(not_before) {
        match dev.issue_earliest(*cmd, nb) {
            Ok((_, outcome)) => {
                done.push(outcome.done);
                end = end.max(outcome.done);
            }
            Err(e) => return (done, Err(e)),
        }
    }
    (done, Ok(end))
}

/// A cross-bank AAP run, the shape the Ambit engine's row loop emits in
/// steady state: one copy per bank, all the same command kind.
fn aap_run(banks: u32, src_row: u32, dst_row: u32) -> Vec<Command> {
    (0..banks)
        .map(|bank| Command::Aap {
            src: RowId::new(0, 0, bank, src_row),
            dst: RowId::new(0, 0, bank, dst_row),
            invert: bank % 2 == 1,
        })
        .collect()
}

#[test]
fn batched_aap_run_is_byte_identical_to_per_command_issue() {
    let banks = DramSpec::ddr3_1600().org.banks;
    let cmds = aap_run(banks, 0, 1);
    // Staggered dependencies exercise the `max(earliest, not_before)` arm.
    let not_before: Vec<Cycle> = (0..cmds.len() as Cycle).map(|i| i * 7).collect();

    let mut per_cmd = instrumented_device();
    let (ref_done, ref_end) = issue_individually(&mut per_cmd, &cmds, &not_before);
    assert!(
        per_cmd.batched_commands() == 0,
        "per-command path never batches"
    );

    let mut batched = instrumented_device();
    let mut done = Vec::new();
    let end = batched
        .issue_run(&cmds, &not_before, &mut done)
        .expect("legal run");

    assert_eq!(done, ref_done, "per-command completion cycles diverged");
    assert_eq!(Ok(end), ref_end);
    assert_eq!(batched.batched_commands(), cmds.len() as u64);
    assert_equivalent(fingerprint(batched), fingerprint(per_cmd));
}

#[test]
fn mid_run_error_preserves_the_applied_prefix() {
    let rows_per_sa = DramSpec::ddr3_1600().org.rows_per_subarray();
    let mut cmds = aap_run(4, 0, 1);
    // Third command copies across subarrays: rejected by validation, and
    // everything before it must stay applied exactly as issued.
    cmds[2] = Command::Aap {
        src: RowId::new(0, 0, 2, 0),
        dst: RowId::new(0, 0, 2, rows_per_sa),
        invert: false,
    };
    let not_before = vec![0; cmds.len()];

    let mut per_cmd = instrumented_device();
    let (ref_done, ref_err) = issue_individually(&mut per_cmd, &cmds, &not_before);
    assert_eq!(ref_done.len(), 2);
    assert!(matches!(ref_err, Err(DramError::SubarrayMismatch { .. })));

    let mut batched = instrumented_device();
    let mut done = Vec::new();
    let err = batched.issue_run(&cmds, &not_before, &mut done);
    assert!(matches!(err, Err(DramError::SubarrayMismatch { .. })));
    assert_eq!(done, ref_done, "applied prefix diverged");
    assert_eq!(
        batched.batched_commands(),
        2,
        "prefix still counts as batched"
    );
    assert_equivalent(fingerprint(batched), fingerprint(per_cmd));
}

#[test]
fn empty_run_is_a_no_op() {
    let mut dev = instrumented_device();
    let before = *dev.counts();
    let mut done = vec![99];
    assert_eq!(dev.issue_run(&[], &[], &mut done), Ok(0));
    assert!(done.is_empty(), "done is cleared even for empty runs");
    assert_eq!(*dev.counts(), before);
    assert_eq!(dev.batched_commands(), 0);
    assert!(take_trace(&mut dev).is_empty());
}

#[test]
fn batch_toggle_round_trips() {
    let mut dev = Device::new(DramSpec::ddr3_1600());
    assert!(dev.batch_runs_enabled(), "batching defaults on");
    dev.set_batch_runs(false);
    assert!(!dev.batch_runs_enabled());
    dev.set_batch_runs(true);
    assert!(dev.batch_runs_enabled());
}

/// A randomly chosen kind-homogeneous run spanning several banks: the
/// command kind, per-bank subarray, in-subarray rows, and dependency
/// cycles all vary, with rows constrained to the preloaded window so
/// data differences are visible.
#[derive(Debug, Clone)]
struct RunSpec {
    kind: u8,
    sites: Vec<(u32, u32)>, // (bank, base-row offset within the preload window)
    jitter: Vec<Cycle>,
}

fn arb_run() -> impl Strategy<Value = RunSpec> {
    (
        0u8..4,
        prop::collection::vec((0u32..8, 0u32..PRELOAD_ROWS - 3), 2..12),
        prop::collection::vec(0u64..200, 12usize..13),
    )
        .prop_map(|(kind, sites, jitter)| RunSpec {
            kind,
            sites,
            jitter,
        })
}

fn build_run(spec: &RunSpec) -> (Vec<Command>, Vec<Cycle>) {
    let cmds: Vec<Command> = spec
        .sites
        .iter()
        .map(|&(bank, base)| match spec.kind {
            0 => Command::Ap(RowId::new(0, 0, bank, base)),
            1 => Command::Aap {
                src: RowId::new(0, 0, bank, base),
                dst: RowId::new(0, 0, bank, base + 1),
                invert: base % 2 == 0,
            },
            2 => Command::Tra {
                bank: BankId::new(0, 0, bank),
                rows: [base, base + 1, base + 2],
            },
            _ => Command::TraAap {
                bank: BankId::new(0, 0, bank),
                rows: [base, base + 1, base + 2],
                dst: base + 3,
                invert: base % 2 == 1,
            },
        })
        .collect();
    let not_before = spec.jitter[..cmds.len()].to_vec();
    (cmds, not_before)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any homogeneous PIM-command run produces byte-identical timing,
    /// data, counts, trace, and telemetry through the batched path.
    #[test]
    fn random_homogeneous_runs_match_per_command_issue(run in arb_run()) {
        let (cmds, not_before) = build_run(&run);

        let mut per_cmd = instrumented_device();
        let (ref_done, ref_end) = issue_individually(&mut per_cmd, &cmds, &not_before);
        prop_assert!(ref_end.is_ok(), "runs are legal by construction");

        let mut batched = instrumented_device();
        let mut done = Vec::new();
        let end = batched.issue_run(&cmds, &not_before, &mut done);
        prop_assert_eq!(end.map_err(|e| e.to_string()), ref_end.map_err(|e| e.to_string()));
        prop_assert_eq!(&done, &ref_done);
        prop_assert_eq!(batched.batched_commands(), cmds.len() as u64);

        let (b, r) = (fingerprint(batched), fingerprint(per_cmd));
        prop_assert_eq!(b.rows, r.rows, "row data diverged");
        prop_assert_eq!(b.counts, r.counts, "command counts diverged");
        prop_assert_eq!(b.trace, r.trace, "trace diverged");
        prop_assert_eq!(b.telemetry, r.telemetry, "telemetry diverged");
    }
}
