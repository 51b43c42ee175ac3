//! # pim-check — command-trace oracle for the `pim` workspace
//!
//! An *independent* correctness oracle for the DRAM protocol: the
//! [`Device`](pim_dram::Device) records every command it applies into a
//! trace (the [`pim_dram::Observer`]'s trace projection, zero-cost when
//! disabled), and this crate
//! replays the trace against its own bank-state machines and timing tables
//! — written from the JEDEC constraint definitions, not from
//! `pim_dram::device` — so the two implementations cross-validate.
//!
//! Three pieces:
//!
//! * [`Trace`] — a portable container (spec header + canonically-ordered
//!   records) with compact binary and JSON serializations;
//! * [`Checker`] / [`check_trace`] — the online legality checker
//!   (tRCD/tRP/tRAS/tRRD/tFAW/tWR/tCCD/tRFC, refresh deadlines, open-row
//!   and same-subarray TRA/AAP legality, PIM exemptions and SALP);
//! * [`replay()`] — re-executes a trace on a fresh device at the recorded
//!   cycles and proves the re-capture is byte-identical.
//!
//! ## Quick start
//!
//! ```
//! use pim_check::{check_trace, replay, CheckOptions, Trace};
//! use pim_dram::{Command, Device, DramSpec, Observer, Projection, RowId};
//!
//! let mut dev = Device::new(DramSpec::ddr3_1600());
//! dev.observe(Projection::Trace, true);
//! dev.issue_earliest(Command::Ap(RowId::new(0, 0, 0, 5)), 0).unwrap();
//! dev.issue_earliest(Command::Ap(RowId::new(0, 0, 1, 6)), 0).unwrap();
//!
//! let records = dev.observer_mut().map(Observer::take_trace).unwrap();
//! let trace = Trace::capture(dev.spec().clone(), records);
//! let report = check_trace(&trace, CheckOptions::timing_only()).expect("legal");
//! assert_eq!(report.commands, 2);
//! replay(&trace).expect("deterministic");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod replay;
pub mod trace;

pub use checker::{check_trace, CheckOptions, CheckReport, Checker, Violation};
pub use replay::{replay, ReplayError};
pub use trace::{Trace, TraceFormatError};

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::{
        BankId, Command, Controller, Device, DramAddr, DramSpec, Observer, PhysAddr, Projection,
        Request, RowId, TraceRecord,
    };

    /// Captures the trace of `f` driving a fresh ddr3-1600 device.
    fn captured(f: impl FnOnce(&mut Device)) -> Trace {
        let spec = DramSpec::ddr3_1600();
        let mut dev = Device::new(spec.clone());
        dev.observe(Projection::Trace, true);
        f(&mut dev);
        let records = dev.observer_mut().map(Observer::take_trace);
        Trace::capture(spec, records.unwrap_or_default())
    }

    #[test]
    fn a_device_legal_mixed_trace_passes_and_replays() {
        let trace = captured(|dev| {
            let mut clk = 0;
            for bank in 0..4u32 {
                let (at, _) = dev
                    .issue_earliest(Command::Act(RowId::new(0, 0, bank, bank)), clk)
                    .unwrap();
                clk = at;
            }
            for bank in 0..4u32 {
                dev.issue_earliest(Command::Rd(DramAddr::new(0, 0, bank, bank, 0)), 0)
                    .unwrap();
            }
            for bank in 0..4u32 {
                dev.issue_earliest(Command::Wr(DramAddr::new(0, 0, bank, bank, 1)), 0)
                    .unwrap();
            }
            for bank in 0..4u32 {
                dev.issue_earliest(Command::Pre(BankId::new(0, 0, bank)), 0)
                    .unwrap();
            }
            dev.issue_earliest(
                Command::Aap {
                    src: RowId::new(0, 0, 0, 0),
                    dst: RowId::new(0, 0, 0, 1),
                    invert: false,
                },
                0,
            )
            .unwrap();
            dev.issue_earliest(
                Command::Tra {
                    bank: BankId::new(0, 0, 1),
                    rows: [0, 1, 2],
                },
                0,
            )
            .unwrap();
        });
        let report = check_trace(&trace, CheckOptions::timing_only()).expect("legal trace");
        assert_eq!(report.commands, trace.records.len());
        assert!(report.activations >= 4);
        replay(&trace).expect("replays byte-identically");
    }

    #[test]
    fn an_injected_trrd_violation_is_rejected() {
        // Two ACTs to different banks of one rank, the second pulled
        // forward inside the tRRD window.
        let mut trace = captured(|dev| {
            dev.issue_earliest(Command::Act(RowId::new(0, 0, 0, 0)), 0)
                .unwrap();
            dev.issue_earliest(Command::Act(RowId::new(0, 0, 1, 0)), 0)
                .unwrap();
        });
        let rrd = trace.spec.timing.rrd;
        assert_eq!(trace.records[1].at, rrd, "device spaces ACTs by tRRD");
        // Corrupt: drag the second ACT into the window.
        trace.records[1].at = rrd - 1;
        match check_trace(&trace, CheckOptions::timing_only()) {
            Err(Violation::TooEarly { constraint, .. }) => assert_eq!(constraint, "tRRD"),
            other => panic!("expected a tRRD violation, got {other:?}"),
        }
        // The device agrees with the oracle: replay rejects it too.
        assert!(matches!(
            replay(&trace),
            Err(ReplayError::Rejected { index: 1, .. })
        ));
    }

    #[test]
    fn an_injected_tfaw_violation_is_rejected() {
        let mut trace = captured(|dev| {
            for bank in 0..5u32 {
                dev.issue_earliest(Command::Act(RowId::new(0, 0, bank, 0)), 0)
                    .unwrap();
            }
        });
        let t = trace.spec.timing;
        assert_eq!(trace.records[4].at, t.faw, "fifth ACT waits for tFAW");
        // Corrupt: the fifth ACT keeps legal tRRD spacing but breaks tFAW.
        trace.records[4].at = trace.records[3].at + t.rrd;
        assert!(trace.records[4].at < t.faw);
        match check_trace(&trace, CheckOptions::timing_only()) {
            Err(Violation::TooEarly { constraint, .. }) => assert_eq!(constraint, "tFAW"),
            other => panic!("expected a tFAW violation, got {other:?}"),
        }
    }

    #[test]
    fn open_row_and_state_violations_are_rejected() {
        let spec = DramSpec::ddr3_1600();
        // RD with no open row.
        let t = Trace::capture(
            spec.clone(),
            vec![TraceRecord {
                at: 0,
                cmd: Command::Rd(DramAddr::new(0, 0, 0, 3, 0)),
            }],
        );
        assert!(matches!(
            check_trace(&t, CheckOptions::timing_only()),
            Err(Violation::BadState { .. })
        ));
        // RD against the wrong open row.
        let t = Trace::capture(
            spec.clone(),
            vec![
                TraceRecord {
                    at: 0,
                    cmd: Command::Act(RowId::new(0, 0, 0, 3)),
                },
                TraceRecord {
                    at: spec.timing.rcd,
                    cmd: Command::Rd(DramAddr::new(0, 0, 0, 4, 0)),
                },
            ],
        );
        assert!(matches!(
            check_trace(&t, CheckOptions::timing_only()),
            Err(Violation::RowMismatch {
                open: 3,
                requested: 4,
                ..
            })
        ));
        // TRA across subarrays.
        let per = spec.org.rows_per_subarray();
        let t = Trace::capture(
            spec.clone(),
            vec![TraceRecord {
                at: 0,
                cmd: Command::Tra {
                    bank: BankId::new(0, 0, 0),
                    rows: [0, 1, per],
                },
            }],
        );
        assert!(matches!(
            check_trace(&t, CheckOptions::timing_only()),
            Err(Violation::SubarrayMismatch { .. })
        ));
        // Out-of-range bank.
        let t = Trace::capture(
            spec.clone(),
            vec![TraceRecord {
                at: 0,
                cmd: Command::Act(RowId::new(0, 0, spec.org.banks, 0)),
            }],
        );
        assert!(matches!(
            check_trace(&t, CheckOptions::timing_only()),
            Err(Violation::OutOfRange { field: "bank", .. })
        ));
    }

    #[test]
    fn trcd_trp_tras_twr_violations_are_rejected() {
        let spec = DramSpec::ddr3_1600();
        let t = spec.timing;
        let act = TraceRecord {
            at: 0,
            cmd: Command::Act(RowId::new(0, 0, 0, 0)),
        };
        // RD one cycle before tRCD.
        let early_rd = Trace::capture(
            spec.clone(),
            vec![
                act,
                TraceRecord {
                    at: t.rcd - 1,
                    cmd: Command::Rd(DramAddr::new(0, 0, 0, 0, 0)),
                },
            ],
        );
        match check_trace(&early_rd, CheckOptions::timing_only()) {
            Err(Violation::TooEarly { constraint, .. }) => assert_eq!(constraint, "tRCD"),
            other => panic!("expected tRCD, got {other:?}"),
        }
        // PRE one cycle before tRAS.
        let early_pre = Trace::capture(
            spec.clone(),
            vec![
                act,
                TraceRecord {
                    at: t.ras - 1,
                    cmd: Command::Pre(BankId::new(0, 0, 0)),
                },
            ],
        );
        match check_trace(&early_pre, CheckOptions::timing_only()) {
            Err(Violation::TooEarly { constraint, .. }) => assert_eq!(constraint, "tRAS"),
            other => panic!("expected tRAS, got {other:?}"),
        }
        // ACT again one cycle before tRP after a legal PRE.
        let early_act = Trace::capture(
            spec.clone(),
            vec![
                act,
                TraceRecord {
                    at: t.ras,
                    cmd: Command::Pre(BankId::new(0, 0, 0)),
                },
                TraceRecord {
                    at: t.ras + t.rp - 1,
                    cmd: Command::Act(RowId::new(0, 0, 0, 1)),
                },
            ],
        );
        match check_trace(&early_act, CheckOptions::timing_only()) {
            Err(Violation::TooEarly { constraint, .. }) => {
                assert!(constraint == "tRP" || constraint == "tRC")
            }
            other => panic!("expected tRP/tRC, got {other:?}"),
        }
        // WR then PRE inside the write-recovery window.
        let early_wr_pre = Trace::capture(
            spec.clone(),
            vec![
                act,
                TraceRecord {
                    at: t.rcd,
                    cmd: Command::Wr(DramAddr::new(0, 0, 0, 0, 0)),
                },
                TraceRecord {
                    at: t.rcd + t.cwl + t.burst_cycles() + t.wr - 1,
                    cmd: Command::Pre(BankId::new(0, 0, 0)),
                },
            ],
        );
        match check_trace(&early_wr_pre, CheckOptions::timing_only()) {
            Err(Violation::TooEarly { constraint, .. }) => assert_eq!(constraint, "tWR"),
            other => panic!("expected tWR, got {other:?}"),
        }
    }

    #[test]
    fn cross_channel_interleaving_is_legal_but_the_same_cycles_on_one_channel_are_not() {
        // Channels own independent command/data buses, so the oracle's
        // per-channel bus state machines must accept same-cycle column
        // bursts on *different* channels — and reject exactly those
        // cycles when the traffic is forced onto one channel's bus.
        let spec = DramSpec::ddr3_1600().with_channels(2);
        let t = spec.timing;
        let (rcd, ccd, rrd) = (t.rcd, t.ccd, t.rrd);

        // Legal: each channel opens a row and streams reads, perfectly
        // in phase. Same-cycle pairs across channels are fine.
        let interleaved = Trace::capture(
            spec.clone(),
            vec![
                TraceRecord {
                    at: 0,
                    cmd: Command::Act(RowId::new(0, 0, 0, 0)),
                },
                TraceRecord {
                    at: 0,
                    cmd: Command::Act(RowId::new(1, 0, 0, 0)),
                },
                TraceRecord {
                    at: rcd,
                    cmd: Command::Rd(DramAddr::new(0, 0, 0, 0, 0)),
                },
                TraceRecord {
                    at: rcd,
                    cmd: Command::Rd(DramAddr::new(1, 0, 0, 0, 0)),
                },
                TraceRecord {
                    at: rcd + ccd,
                    cmd: Command::Rd(DramAddr::new(0, 0, 0, 0, 1)),
                },
                TraceRecord {
                    at: rcd + ccd,
                    cmd: Command::Rd(DramAddr::new(1, 0, 0, 0, 1)),
                },
            ],
        );
        let report =
            check_trace(&interleaved, CheckOptions::timing_only()).expect("channels interleave");
        assert_eq!(report.commands, 6);

        // Injected violation: the same same-cycle read pair, but on two
        // banks of ONE channel — the shared bus's tCCD must fire.
        let collided = Trace::capture(
            spec,
            vec![
                TraceRecord {
                    at: 0,
                    cmd: Command::Act(RowId::new(0, 0, 0, 0)),
                },
                TraceRecord {
                    at: rrd,
                    cmd: Command::Act(RowId::new(0, 0, 1, 0)),
                },
                TraceRecord {
                    at: rrd + rcd,
                    cmd: Command::Rd(DramAddr::new(0, 0, 0, 0, 0)),
                },
                TraceRecord {
                    at: rrd + rcd,
                    cmd: Command::Rd(DramAddr::new(0, 0, 1, 0, 0)),
                },
            ],
        );
        match check_trace(&collided, CheckOptions::timing_only()) {
            Err(Violation::TooEarly { constraint, .. }) => assert_eq!(constraint, "tCCD"),
            other => panic!("expected a channel-bus tCCD violation, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_records_are_rejected() {
        let spec = DramSpec::ddr3_1600();
        let t = Trace {
            spec: spec.clone(),
            records: vec![
                TraceRecord {
                    at: 100,
                    cmd: Command::Act(RowId::new(0, 0, 0, 0)),
                },
                TraceRecord {
                    at: 50,
                    cmd: Command::Act(RowId::new(0, 0, 1, 0)),
                },
            ],
        };
        assert!(matches!(
            check_trace(&t, CheckOptions::timing_only()),
            Err(Violation::OutOfOrder { index: 1 })
        ));
    }

    #[test]
    fn controller_trace_with_refresh_passes_deadline_checking() {
        let mut mc = Controller::new(DramSpec::ddr3_1600());
        mc.device_mut().observe(Projection::Trace, true);
        let spec = mc.device().spec().clone();
        let refi = spec.timing.refi;
        // Keep the controller busy across several refresh windows.
        let mut issued = 0;
        while mc.clock() < 4 * refi {
            if mc.pending_len() < 8 {
                mc.enqueue(Request::read(PhysAddr::new(issued * 64)))
                    .unwrap();
                issued += 1;
            }
            mc.step();
        }
        mc.run_until_idle();
        let records = mc.device_mut().observer_mut().map(Observer::take_trace);
        let trace = Trace::capture(spec.clone(), records.unwrap_or_default());
        let report =
            check_trace(&trace, CheckOptions::with_refresh(&spec)).expect("controller is legal");
        assert!(report.refreshes >= 3, "refreshes: {}", report.refreshes);
        replay(&trace).expect("controller trace replays");
    }

    #[test]
    fn a_starved_rank_fails_refresh_deadline_checking() {
        let spec = DramSpec::ddr3_1600();
        let gap = 9 * spec.timing.refi;
        // A trace spanning past the deadline with no REF at all.
        let t = Trace::capture(
            spec.clone(),
            vec![
                TraceRecord {
                    at: 0,
                    cmd: Command::Act(RowId::new(0, 0, 0, 0)),
                },
                TraceRecord {
                    at: gap + 1,
                    cmd: Command::Pre(BankId::new(0, 0, 0)),
                },
            ],
        );
        assert!(matches!(
            check_trace(&t, CheckOptions::with_refresh(&spec)),
            Err(Violation::RefreshLate { .. })
        ));
    }

    #[test]
    fn violations_display_cleanly() {
        let v = Violation::TooEarly {
            index: 7,
            kind: pim_dram::CommandKind::Act,
            at: 10,
            ready: 15,
            constraint: "tRRD",
        };
        let s = v.to_string();
        assert!(s.contains("tRRD") && s.contains("record 7"), "{s}");
        assert!(!s.ends_with('.'));
    }
}
