//! Differential conformance: every compiled program must be bit-exact
//! against the host scalar reference ([`OpGraph::eval_reference`]),
//! which never looks at the MAJ/NOT lowering.
//!
//! Coverage policy: **exhaustive** at 2 and 4 bits (every operand pair,
//! no sampling gaps), property-based at 8/16/32 bits with boundary
//! values (0, MAX, the sign bit) mixed into every generated vector,
//! aliased-input graphs, and proptest-generated multi-op graphs.

use pim_ambit::{AmbitConfig, AmbitSystem};
use pim_simd::{Compiler, OpGraph};
use pim_workloads::BitSlicedIntVec;
use proptest::prelude::*;

/// Compiles `graph` and executes it on a fresh DDR3 Ambit device.
fn run_compiled(graph: &OpGraph, inputs: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let program = Compiler::new().compile(graph).expect("compile");
    let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
    let widths = graph.input_widths();
    let vecs: Vec<BitSlicedIntVec> = inputs
        .iter()
        .zip(widths)
        .map(|(v, &w)| BitSlicedIntVec::from_values(v, w))
        .collect();
    let refs: Vec<&BitSlicedIntVec> = vecs.iter().collect();
    let (outs, _report) = program.execute(&mut sys, &refs).expect("execute");
    outs.iter().map(|o| o.to_values()).collect()
}

/// Asserts compiled == reference for `graph` over `inputs`.
fn check(graph: &OpGraph, inputs: &[Vec<u64>]) {
    let refs: Vec<&[u64]> = inputs.iter().map(|v| v.as_slice()).collect();
    let expect = graph.eval_reference(&refs);
    let got = run_compiled(graph, inputs);
    assert_eq!(got, expect);
}

/// Binary-op graph builders, by name (the ops the exhaustive suite
/// sweeps).
fn binary_graph(op: &str, w: u32) -> OpGraph {
    let mut g = OpGraph::builder();
    let a = g.input(w);
    let b = g.input(w);
    let r = match op {
        "add" => g.add(a, b),
        "sub" => g.sub(a, b),
        "mul" => g.mul(a, b),
        "lt" => g.lt(a, b),
        "eq" => g.eq(a, b),
        "xor" => g.xor(a, b),
        _ => unreachable!(),
    };
    g.output(r);
    g.finish()
}

/// Every 2-bit and 4-bit operand pair for add/sub/cmp, all pairs packed
/// into the lanes of a single execution — exhaustive, no sampling gaps.
#[test]
fn exhaustive_small_widths() {
    for w in [2u32, 4] {
        let n = 1u64 << w;
        let mut av = Vec::with_capacity((n * n) as usize);
        let mut bv = Vec::with_capacity((n * n) as usize);
        for a in 0..n {
            for b in 0..n {
                av.push(a);
                bv.push(b);
            }
        }
        let inputs = vec![av, bv];
        for op in ["add", "sub", "lt", "eq"] {
            check(&binary_graph(op, w), &inputs);
        }
    }
}

/// 2-bit multiplication is cheap enough to sweep exhaustively too.
#[test]
fn exhaustive_small_mul() {
    for w in [2u32, 4] {
        let n = 1u64 << w;
        let (mut av, mut bv) = (Vec::new(), Vec::new());
        for a in 0..n {
            for b in 0..n {
                av.push(a);
                bv.push(b);
            }
        }
        check(&binary_graph("mul", w), &[av, bv]);
    }
}

/// A lane strategy biased toward the boundary values that break ripple
/// carries: 0, MAX, the sign bit, MAX-1, and uniform fill.
fn lanes(w: u32, n: usize) -> impl Strategy<Value = Vec<u64>> {
    let max = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
    let sign = 1u64 << (w - 1);
    proptest::collection::vec(
        prop_oneof![
            Just(0u64),
            Just(max),
            Just(sign),
            Just(max - u64::from(max > 0)),
            0..=max,
            0..=max,
            0..=max,
        ],
        n..n + 1,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 8/16/32-bit add/sub/cmp/mul vs the reference, boundary-biased.
    #[test]
    fn wide_binary_ops(
        w in prop_oneof![Just(8u32), Just(16), Just(32)],
        seed_a in lanes(32, 24),
        seed_b in lanes(32, 24),
        op in prop_oneof![
            Just("add"), Just("sub"), Just("lt"), Just("eq"), Just("xor"),
        ],
    ) {
        let mask = (1u64 << w) - 1;
        let av: Vec<u64> = seed_a.iter().map(|&x| x & mask).collect();
        let bv: Vec<u64> = seed_b.iter().map(|&x| x & mask).collect();
        check(&binary_graph(op, w), &[av, bv]);
    }

    /// Multiplication at 8 and 16 bits (32-bit mul is covered by the
    /// golden command-count test; its differential run lives in E11).
    #[test]
    fn wide_mul(
        w in prop_oneof![Just(8u32), Just(16)],
        seed_a in lanes(16, 12),
        seed_b in lanes(16, 12),
    ) {
        let mask = (1u64 << w) - 1;
        let av: Vec<u64> = seed_a.iter().map(|&x| x & mask).collect();
        let bv: Vec<u64> = seed_b.iter().map(|&x| x & mask).collect();
        check(&binary_graph("mul", w), &[av, bv]);
    }

    /// Aliased inputs: the same vector bound through one graph input and
    /// used as both operands (a+a, a*a, a<a, a==a, a-a). In-place scratch
    /// consumption must not conflate the two uses.
    #[test]
    fn aliased_operands(
        w in prop_oneof![Just(8u32), Just(16), Just(32)],
        seed in lanes(32, 16),
    ) {
        let mask = (1u64 << w) - 1;
        let av: Vec<u64> = seed.iter().map(|&x| x & mask).collect();
        let mut g = OpGraph::builder();
        let a = g.input(w);
        let s = g.add(a, a);
        let d = g.sub(a, a);
        let lt = g.lt(a, a);
        let eq = g.eq(a, a);
        g.output(s);
        g.output(d);
        g.output(lt);
        g.output(eq);
        check(&g.finish(), &[av]);
    }

    /// Proptest-generated operation graphs: a recipe of same-width ops
    /// chained over a growing node pool, compiled and cross-checked. This
    /// is the "arbitrary computation" claim under test.
    #[test]
    fn generated_graphs(
        w in prop_oneof![Just(4u32), Just(8), Just(16)],
        recipe in proptest::collection::vec((0u8..8, 0u16..4096, 0u16..4096), 1..12),
        seed_a in lanes(16, 10),
        seed_b in lanes(16, 10),
    ) {
        let mask = (1u64 << w) - 1;
        let av: Vec<u64> = seed_a.iter().map(|&x| x & mask).collect();
        let bv: Vec<u64> = seed_b.iter().map(|&x| x & mask).collect();
        let mut g = OpGraph::builder();
        let mut pool = vec![g.input(w), g.input(w)];
        for &(op, xi, yi) in &recipe {
            let x = pool[xi as usize % pool.len()];
            let y = pool[yi as usize % pool.len()];
            let node = match op {
                0 => g.add(x, y),
                1 => g.sub(x, y),
                2 => g.and(x, y),
                3 => g.or(x, y),
                4 => g.xor(x, y),
                5 => g.not(x),
                6 => g.shl(x, 1),
                _ => g.shr(x, 1),
            };
            pool.push(node);
        }
        let last = *pool.last().expect("non-empty pool");
        let cmp = g.lt(pool[0], pool[1]);
        let red = g.reduce_xor(last);
        g.output(last);
        g.output(cmp);
        g.output(red);
        check(&g.finish(), &[av, bv]);
    }
}

/// Constants, shifts, and reductions flow end to end (constants
/// materialize from the C0/C1 control rows).
#[test]
fn constants_shifts_reductions() {
    let mut g = OpGraph::builder();
    let a = g.input(8);
    let k = g.constant(0x5A, 8);
    let x = g.xor(a, k);
    let sh = g.shl(x, 3);
    let r_and = g.reduce_and(sh);
    let r_or = g.reduce_or(sh);
    let r_xor = g.reduce_xor(sh);
    g.output(x);
    g.output(sh);
    g.output(r_and);
    g.output(r_or);
    g.output(r_xor);
    let graph = g.finish();
    let av: Vec<u64> = (0..=255).collect();
    check(&graph, &[av]);
}

/// A captured trace of a compiled-program run passes the pim-check
/// protocol oracle (this variant runs on the ambient pool; the
/// thread-count matrix lives in tests/determinism.rs).
#[test]
fn compiled_run_trace_passes_oracle() {
    let graph = binary_graph("add", 8);
    let program = Compiler::new().compile(&graph).expect("compile");
    let mut sys = AmbitSystem::new(AmbitConfig::ddr3());
    sys.set_trace(true);
    let av = BitSlicedIntVec::from_values(&(0u64..128).collect::<Vec<_>>(), 8);
    let bv = BitSlicedIntVec::from_values(&(128u64..256).collect::<Vec<_>>(), 8);
    program.execute(&mut sys, &[&av, &bv]).expect("execute");
    let trace = pim_check::Trace::capture(sys.spec().clone(), sys.take_trace());
    assert!(!trace.records.is_empty(), "trace captured commands");
    let report = pim_check::check_trace(&trace, pim_check::CheckOptions::timing_only())
        .expect("oracle accepts the compiled-program trace");
    assert_eq!(report.commands, trace.records.len());
}
