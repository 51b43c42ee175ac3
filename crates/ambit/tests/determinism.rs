//! Thread-count invariance of the bank-parallel execution path:
//! functional results, injected-fault counts, and `ExecReport`s must be
//! bit-identical whether the engine runs on one thread or many — with
//! fault injection both off and on.

use pim_ambit::{AmbitConfig, AmbitSystem, ExecReport};
use pim_workloads::{BitVec, BulkOp};
use proptest::prelude::*;
use rand::SeedableRng;

/// Runs `f` under a rayon pool fixed at `n` threads.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool")
        .install(f)
}

/// A mixed workload over all banks: binary/unary bulk ops, a RowClone
/// copy, and a fill. Returns every intermediate output, every report, and
/// the total injected-fault count.
fn run_workload(rate: f64) -> (Vec<BitVec>, Vec<ExecReport>, u64) {
    let mut cfg = AmbitConfig::ddr3();
    cfg.tra_failure_rate = rate;
    cfg.fault_seed = 0xA5A5;
    let mut sys = AmbitSystem::new(cfg);
    let bits = sys.row_bits() * sys.spec().org.total_banks() as usize * 2;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let av = BitVec::random(bits, 0.5, &mut rng);
    let bv = BitVec::random(bits, 0.5, &mut rng);
    let a = sys.alloc(bits).expect("alloc a");
    let b = sys.alloc(bits).expect("alloc b");
    let out = sys.alloc(bits).expect("alloc out");
    sys.write(&a, &av).expect("write a");
    sys.write(&b, &bv).expect("write b");

    let mut outs = Vec::new();
    let mut reports = Vec::new();
    for op in [BulkOp::And, BulkOp::Xor] {
        reports.push(sys.execute(op, &a, Some(&b), &out).expect("execute"));
        outs.push(sys.read(&out));
    }
    reports.push(
        sys.execute(BulkOp::Not, &a, None, &out)
            .expect("execute not"),
    );
    outs.push(sys.read(&out));
    reports.push(sys.copy(&a, &out).expect("copy"));
    outs.push(sys.read(&out));
    reports.push(sys.fill(&out, true).expect("fill"));
    outs.push(sys.read(&out));
    (outs, reports, sys.faults_injected())
}

#[test]
fn results_identical_across_thread_counts() {
    for rate in [0.0, 0.01] {
        let base = with_threads(1, || run_workload(rate));
        for threads in [2usize, 4, 8] {
            let other = with_threads(threads, || run_workload(rate));
            assert_eq!(
                base.0, other.0,
                "outputs differ at {threads} threads, rate {rate}"
            );
            assert_eq!(
                base.1, other.1,
                "reports differ at {threads} threads, rate {rate}"
            );
            assert_eq!(
                base.2, other.2,
                "fault counts differ at {threads} threads, rate {rate}"
            );
        }
        if rate > 0.0 {
            assert!(base.2 > 0, "fault injection must fire at rate {rate}");
        }
    }
}

/// Builds a report from loose parts (command counts stay empty — they are
/// covered by the engine tests; here the merge arithmetic is the subject).
fn report(cycles: u64, ns: f64, nj: f64, bytes_out: u64) -> ExecReport {
    let mut energy = pim_energy::EnergyBreakdown::new();
    energy.add_nj(pim_energy::Component::DramActivation, nj);
    ExecReport {
        cycles,
        ns,
        commands: pim_dram::CommandCounts::new(),
        energy,
        bytes_out,
    }
}

/// One step of a generated Ambit program: the 7 bulk ops, a RowClone
/// copy, or a fill.
fn run_step(
    sys: &mut AmbitSystem,
    step: u8,
    a: &pim_ambit::BulkVec,
    b: &pim_ambit::BulkVec,
    out: &pim_ambit::BulkVec,
) {
    match step {
        s if (s as usize) < BulkOp::ALL.len() => {
            let op = BulkOp::ALL[s as usize];
            let rhs = if op.is_unary() { None } else { Some(b) };
            sys.execute(op, a, rhs, out).expect("execute");
        }
        7 => {
            sys.copy(a, out).expect("copy");
        }
        _ => {
            sys.fill(out, true).expect("fill");
        }
    }
}

/// Runs a generated program on `banks` bank-rows with tracing enabled;
/// returns the outputs after every step, the spec, and the raw records.
fn run_traced_program(
    banks: usize,
    program: &[u8],
    seed: u64,
) -> (Vec<BitVec>, pim_dram::DramSpec, Vec<pim_dram::TraceRecord>) {
    let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
    sys.set_trace(true);
    let bits = sys.row_bits() * banks;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let a = sys.alloc(bits).expect("alloc a");
    let b = sys.alloc(bits).expect("alloc b");
    let out = sys.alloc(bits).expect("alloc out");
    sys.write(&a, &BitVec::random(bits, 0.5, &mut rng))
        .expect("write a");
    sys.write(&b, &BitVec::random(bits, 0.5, &mut rng))
        .expect("write b");
    let mut outs = Vec::new();
    for &step in program {
        run_step(&mut sys, step, &a, &b, &out);
        outs.push(sys.read(&out));
    }
    let spec = sys.spec().clone();
    (outs, spec, sys.take_trace())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary Ambit programs over 1–8 banks: the protocol oracle
    /// accepts every captured command trace, the run under an 8-thread
    /// pool produces the same outputs as the one-thread run, and both
    /// normalize to byte-identical traces.
    #[test]
    fn arbitrary_programs_trace_identically_and_legally(
        banks in 1usize..=8,
        program in proptest::collection::vec(0u8..9, 1..8),
        seed in 0u64..1_000,
    ) {
        let (outs1, spec, rec1) = with_threads(1, || run_traced_program(banks, &program, seed));
        let (outs8, _, rec8) = with_threads(8, || run_traced_program(banks, &program, seed));
        prop_assert_eq!(outs1, outs8, "outputs must not depend on thread count");

        let t1 = pim_check::Trace::capture(spec.clone(), rec1);
        let t8 = pim_check::Trace::capture(spec, rec8);
        prop_assert_eq!(
            t1.to_bytes(),
            t8.to_bytes(),
            "normalized traces must be byte-identical across thread counts"
        );
        match pim_check::check_trace(&t1, pim_check::CheckOptions::timing_only()) {
            Ok(report) => prop_assert_eq!(report.commands, t1.records.len()),
            Err(v) => panic!("oracle rejected trace: {v}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `merge_sequential` adds the time dimension (cycles, ns) and
    /// accumulates every resource (energy, bytes).
    #[test]
    fn merge_sequential_accumulates(
        c1 in 0u64..1_000_000, c2 in 0u64..1_000_000,
        nj1 in 0u64..1_000_000, nj2 in 0u64..1_000_000,
        b1 in 0u64..1_000_000, b2 in 0u64..1_000_000,
    ) {
        let a = report(c1, c1 as f64 * 1.25, nj1 as f64 / 3.0, b1);
        let b = report(c2, c2 as f64 * 1.25, nj2 as f64 / 3.0, b2);
        let mut seq = a.clone();
        seq.merge_sequential(&b);

        prop_assert!(
            (seq.energy.total_nj() - (a.energy.total_nj() + b.energy.total_nj())).abs() < 1e-6
        );
        prop_assert_eq!(seq.bytes_out, b1 + b2);
        prop_assert_eq!(seq.cycles, c1 + c2);
        prop_assert!((seq.ns - ((c1 + c2) as f64 * 1.25)).abs() < 1e-9);
    }
}
