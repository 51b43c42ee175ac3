//! Device-level command observation: every applied command projects to
//! exactly one trace record, one occupancy slice on its protocol lane
//! (column transfers on the channel bus lane, rank-scoped REF/PREA on the
//! flat rank lane, everything else on its flat bank lane) and one
//! `dram.cmd.<kind>` count; the batched [`Device::issue_run`] fast path
//! observes byte-identically to per-command issue.

use pim_dram::trace::normalize;
use pim_dram::{Command, Cycle, Device, DramSpec, Projection, RowId, TraceRecord};
use pim_profile::{Lane, TraceEvent};
use pim_telemetry::TelemetrySink;

const ALL: [Projection; 3] = [
    Projection::Trace,
    Projection::Telemetry,
    Projection::Profile,
];

fn observed_device(spec: DramSpec) -> Device {
    let mut dev = Device::new(spec);
    for p in ALL {
        dev.observe(p, true);
    }
    dev
}

/// The three projections taken from `dev`, trace and timeline normalized.
fn take(dev: &mut Device) -> (Vec<TraceRecord>, Vec<TraceEvent>, TelemetrySink) {
    let obs = dev.observer_mut().expect("observing");
    let mut trace = obs.take_trace();
    normalize(&mut trace);
    let timeline = obs.take_profile().expect("profiling on").into_normalized();
    (trace, timeline, obs.take_telemetry().expect("telemetry on"))
}

#[test]
fn commands_slice_onto_their_protocol_lanes() {
    let mut dev = observed_device(DramSpec::ddr3_1600().with_channels(2).with_ranks(2));
    let org = dev.spec().org;
    let row = RowId::new(1, 1, 2, 5);
    let (rank, bank) = (
        org.flat_rank_index((1, 1)),
        org.flat_bank_index(row.bank_id()),
    );
    let refresh = Command::Ref {
        channel: 1,
        rank: 1,
    };
    let mut issued = Vec::new();
    let mut ready = 0;
    for (cmd, lane) in [
        (Command::Act(row), Lane::Bank(bank)),
        (Command::Rd(row.addr(0)), Lane::Channel(1)),
        (Command::WrA(row.addr(1)), Lane::Channel(1)),
        (refresh, Lane::Rank(rank)),
    ] {
        let (at, out) = dev.issue_earliest(cmd, ready).expect("legal");
        ready = out.done;
        issued.push((at, cmd, out.done, lane));
    }

    let (trace, timeline, tel) = take(&mut dev);
    assert_eq!(trace.len(), issued.len(), "one record per command");
    assert_eq!(timeline.len(), issued.len(), "one slice per command");
    for (at, cmd, done, lane) in issued {
        assert!(trace.contains(&TraceRecord { at, cmd }), "{cmd} is traced");
        let slice = timeline.iter().find(|s| s.start == at).expect("a slice");
        assert_eq!(slice.lane, lane, "{cmd} lands on its protocol lane");
        assert_eq!(slice.name.as_ref(), cmd.kind().mnemonic());
        assert_eq!(
            (slice.end, slice.value),
            (done, None),
            "occupied to completion"
        );
        assert!(slice.end > slice.start, "{cmd} occupies at least one cycle");
        let series = cmd.kind().telemetry_series();
        let index = if cmd.bank().is_some() { bank } else { rank };
        assert_eq!(tel.counter(series, index), 1, "{series}[{index}]");
        assert_eq!(tel.counter_total(series), 1, "{cmd} counts once");
    }
}

#[test]
fn disabled_profiling_captures_nothing() {
    let mut dev = Device::new(DramSpec::ddr3_1600());
    assert!(dev.observer_mut().is_none());
    dev.issue_earliest(Command::Ap(RowId::new(0, 0, 0, 3)), 0)
        .expect("ap");
    assert!(dev.observer_mut().is_none(), "no observer until observed");
    dev.observe(Projection::Profile, true);
    dev.observe(Projection::Profile, false);
    assert!(
        dev.observer_mut().is_none(),
        "the last projection off drops it"
    );
    dev.observe(Projection::Trace, true);
    let obs = dev.observer_mut().expect("tracing");
    assert!(obs.take_profile().is_none(), "other projections stay off");
    assert!(obs.take_telemetry().is_none());
}

/// A kind-homogeneous cross-bank AAP run, the shape the Ambit engine's
/// row loop emits in steady state.
fn aap_run(banks: u32) -> Vec<Command> {
    (0..banks)
        .map(|bank| Command::Aap {
            src: RowId::new(0, 0, bank, 0),
            dst: RowId::new(0, 0, bank, 1),
            invert: bank % 2 == 1,
        })
        .collect()
}

#[test]
fn batched_issue_run_profiles_identically_to_per_command_issue() {
    let spec = DramSpec::ddr3_1600();
    let cmds = aap_run(spec.org.banks);
    let not_before: Vec<Cycle> = (0..cmds.len() as Cycle).map(|i| i * 7).collect();

    let mut per_cmd = observed_device(spec.clone());
    for (cmd, &nb) in cmds.iter().zip(&not_before) {
        per_cmd.issue_earliest(*cmd, nb).expect("issue");
    }
    let mut batched = observed_device(spec);
    let mut done = Vec::new();
    batched
        .issue_run(&cmds, &not_before, &mut done)
        .expect("issue_run");

    assert_eq!(done.len(), cmds.len());
    assert_eq!(take(&mut batched), take(&mut per_cmd), "fast path diverged");
}
