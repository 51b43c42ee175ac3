//! Telemetry determinism for bank-parallel Ambit execution: for any
//! bulk bitwise program spanning 1–8 banks, the metric registry frozen
//! after the run must be byte-identical under a pool of any size.

use pim_ambit::{AmbitConfig, AmbitSystem};
use pim_dram::{Observer, Projection};
use pim_telemetry::Snapshot;
use pim_workloads::{BitVec, BulkOp};
use proptest::prelude::*;
use rand::SeedableRng;

const OPS: [BulkOp; 5] = [
    BulkOp::And,
    BulkOp::Or,
    BulkOp::Xor,
    BulkOp::Nand,
    BulkOp::Not,
];

/// Runs a generated program list on a fresh telemetry-enabled system
/// and freezes the sink as canonical snapshot JSON. `(op, banks, fill)`
/// sizes each program to span `banks` banks plus a partial chunk, so
/// both whole-row and sub-row widths appear in the histograms.
fn run_programs(descr: &[(u8, u8, u16)], seed: u64) -> String {
    let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
    sys.observe(Projection::Telemetry, true);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for &(op, banks, fill) in descr {
        let op = OPS[op as usize % OPS.len()];
        let banks = 1 + banks as usize % 8;
        let bits = (banks - 1) * sys.row_bits() + 64 + fill as usize;
        let a = sys.alloc(bits).expect("alloc a");
        let b = (!op.is_unary()).then(|| sys.alloc(bits).expect("alloc b"));
        let dst = sys.alloc(bits).expect("alloc dst");
        sys.write(&a, &BitVec::random(bits, 0.5, &mut rng))
            .expect("write a");
        if let Some(b) = &b {
            sys.write(b, &BitVec::random(bits, 0.5, &mut rng))
                .expect("write b");
        }
        sys.execute(op, &a, b.as_ref(), &dst).expect("execute");
        sys.free(a);
        if let Some(b) = b {
            sys.free(b);
        }
        sys.free(dst);
    }
    let sink = sys
        .observer_mut()
        .and_then(Observer::take_telemetry)
        .expect("telemetry is enabled");
    Snapshot::from_sink(sink).to_json_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Re-running an arbitrary program list reproduces the telemetry
    /// stream byte-for-byte, and the snapshot validates and counts what
    /// was run.
    #[test]
    fn telemetry_is_reproducible(
        descr in proptest::collection::vec((0u8..5, 0u8..8, 0u16..512), 1..6),
        seed in 0u64..1_000,
    ) {
        let first = run_programs(&descr, seed);
        let second = run_programs(&descr, seed);
        prop_assert_eq!(&first, &second, "telemetry must be deterministic");
        let snap = Snapshot::from_json_str(&first).expect("snapshot parses");
        let sink = snap.into_sink();
        prop_assert_eq!(sink.counter_total("ambit.ops"), descr.len() as u64);
        prop_assert!(sink.counter_total("dram.cmd.tra") > 0 || sink.counter_total("dram.cmd.aap") > 0);
    }
}

mod thread_invariance {
    use super::*;

    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("pool")
            .install(f)
    }

    /// Pools of 1, 2, 4 and 8 workers freeze byte-identical telemetry.
    #[test]
    fn telemetry_identical_across_thread_counts() {
        let descr: Vec<(u8, u8, u16)> = (0..6)
            .map(|i| (i as u8, (7 - i) as u8, 97 * i as u16))
            .collect();
        let base = with_threads(1, || run_programs(&descr, 7));
        for threads in [2usize, 4, 8] {
            let other = with_threads(threads, || run_programs(&descr, 7));
            assert_eq!(base, other, "telemetry differs at {threads} threads");
        }
    }
}
