//! Differential conformance for the tensor frontend: every evaluated
//! expression must equal a scalar host model computed independently of
//! the whole compile/tile/place pipeline.

use pim_tensor::{PimTensor, TensorConfig, TensorSession};
use rand::{Rng, SeedableRng};

fn data(n: usize, seed: u64, bits: u32) -> Vec<u64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    (0..n).map(|_| rng.gen::<u64>() & mask).collect()
}

fn to32(v: &[u64]) -> Vec<u32> {
    v.iter().map(|&x| x as u32).collect()
}

/// Elementwise chains: operator overloads record a DAG whose evaluation
/// matches scalar semantics, including wrap-around.
#[test]
fn elementwise_chain_matches_scalar() {
    let av = data(300, 1, 32);
    let bv = data(300, 2, 32);
    let a = PimTensor::<u32>::from_slice(&to32(&av));
    let b = PimTensor::<u32>::from_slice(&to32(&bv));

    let mut sess = TensorSession::ddr3();
    let expr = &(&(&a + &b) ^ &a) - &(&b & &a);
    let got = sess.eval(&expr).unwrap();
    for i in 0..av.len() {
        let (x, y) = (av[i] as u32, bv[i] as u32);
        let want = (x.wrapping_add(y) ^ x).wrapping_sub(y & x);
        assert_eq!(got[i], want, "lane {i}");
    }
}

/// Sharing one tensor between two uses lowers to one graph node: the
/// diamond `(a+b) & (a+b)` must still evaluate correctly.
#[test]
fn shared_subexpressions_fuse() {
    let av = data(64, 3, 16);
    let bv = data(64, 4, 16);
    let a = PimTensor::<u16>::from_u64_values(av.clone());
    let b = PimTensor::<u16>::from_u64_values(bv.clone());
    let s = &a + &b;
    let d = &(&s ^ &a) | &s;

    let mut sess = TensorSession::ddr3();
    let got = sess.eval(&d).unwrap();
    for i in 0..av.len() {
        let s = (av[i] + bv[i]) as u16;
        assert_eq!(got[i], (s ^ av[i] as u16) | s, "lane {i}");
    }
}

/// Widening multiply is exact: u8 × u8 gives the full u16 product.
#[test]
fn widening_mul_is_exact() {
    let av = data(128, 5, 8);
    let bv = data(128, 6, 8);
    let a = PimTensor::<u8>::from_u64_values(av.clone());
    let b = PimTensor::<u8>::from_u64_values(bv.clone());
    let p: PimTensor<u16> = &a * &b;

    let mut sess = TensorSession::ddr3();
    let got = sess.eval(&p).unwrap();
    for i in 0..av.len() {
        assert_eq!(u64::from(got[i]), av[i] * bv[i], "lane {i}");
    }
}

/// Comparisons, select, and mask logic against scalar semantics.
#[test]
fn compare_select_matches_scalar() {
    let av = data(200, 7, 32);
    let bv = data(200, 8, 32);
    let a = PimTensor::<u32>::from_u64_values(av.clone());
    let b = PimTensor::<u32>::from_u64_values(bv.clone());
    let min = a.lt(&b).select(&a, &b);

    let mut sess = TensorSession::ddr3();
    let got = sess.eval(&min).unwrap();
    for i in 0..av.len() {
        assert_eq!(u64::from(got[i]), av[i].min(bv[i]), "lane {i}");
    }

    let m = a.eq_mask(&b);
    let truth = sess.eval_mask(&m).unwrap();
    for i in 0..av.len() {
        assert_eq!(truth[i], av[i] == bv[i], "lane {i}");
    }
    assert_eq!(
        sess.count_ones(&m).unwrap(),
        av.iter().zip(&bv).filter(|(x, y)| x == y).count() as u64
    );
}

/// Shifts and widening compose (the fixed-point shapes k-means and
/// regression inference use).
#[test]
fn shift_and_widen_compose() {
    let av = data(96, 9, 8);
    let a = PimTensor::<u8>::from_u64_values(av.clone());
    let wide: PimTensor<u32> = a.shr(2).widen();
    let scaled = wide.shl(4);

    let mut sess = TensorSession::ddr3();
    let got = sess.eval(&scaled).unwrap();
    for i in 0..av.len() {
        assert_eq!(u64::from(got[i]), (av[i] >> 2) << 4, "lane {i}");
    }
}

/// map / zip_map record the same DAG the operators would.
#[test]
fn iterator_primitives_match_operators() {
    let av = data(80, 10, 32);
    let bv = data(80, 11, 32);
    let a = PimTensor::<u32>::from_u64_values(av.clone());
    let b = PimTensor::<u32>::from_u64_values(bv.clone());

    let mapped = a.map(|x| x ^ &PimTensor::<u32>::splat(0xDEAD_BEEF, x.len()));
    let zipped = a.zip_map(&b, |x, y| &(x + y) & y);

    let mut sess = TensorSession::ddr3();
    let m = sess.eval(&mapped).unwrap();
    let z = sess.eval(&zipped).unwrap();
    for i in 0..av.len() {
        assert_eq!(u64::from(m[i]), av[i] ^ 0xDEAD_BEEF, "map lane {i}");
        let want = (av[i] as u32).wrapping_add(bv[i] as u32) & bv[i] as u32;
        assert_eq!(z[i], want, "zip lane {i}");
    }
}

/// Reductions: exact 64-bit sum, logic folds, and min.
#[test]
fn reductions_match_scalar() {
    let av = data(1000, 12, 32);
    let a = PimTensor::<u32>::from_u64_values(av.clone());

    let mut sess = TensorSession::ddr3();
    assert_eq!(sess.sum(&a).unwrap(), av.iter().sum::<u64>());
    assert_eq!(
        u64::from(sess.reduce_and(&a).unwrap()),
        av.iter().fold(u64::MAX, |x, &y| x & y) & 0xFFFF_FFFF
    );
    assert_eq!(
        u64::from(sess.reduce_or(&a).unwrap()),
        av.iter().fold(0, |x, &y| x | y)
    );
    assert_eq!(
        u64::from(sess.reduce_xor(&a).unwrap()),
        av.iter().fold(0, |x, &y| x ^ y)
    );
    assert_eq!(u64::from(sess.min(&a).unwrap()), *av.iter().min().unwrap());
}

/// The fused multi-output histogram counts every bin exactly.
#[test]
fn histogram_matches_scalar() {
    let av = data(2048, 13, 8);
    let t = PimTensor::<u8>::from_u64_values(av.clone());

    let mut sess = TensorSession::ddr3();
    let got = sess.histogram(&t, 16).unwrap();
    let mut want = vec![0u64; 16];
    for &v in &av {
        want[(v >> 4) as usize] += 1;
    }
    assert_eq!(got, want);
}

/// Pure-splat roots (no lane payload) fold on the host with the same
/// masking semantics.
#[test]
fn splat_only_roots_const_fold() {
    let a = PimTensor::<u8>::splat(200, 5);
    let b = PimTensor::<u8>::splat(100, 5);
    let mut sess = TensorSession::ddr3();
    assert_eq!(sess.eval(&(&a + &b)).unwrap(), vec![44u8; 5]); // wraps at 8 bits
    let p: PimTensor<u16> = &a * &b;
    assert_eq!(sess.eval(&p).unwrap(), vec![20_000u16; 5]);
}

/// 64-bit lanes end to end through the session.
#[test]
fn u64_lanes_round_trip() {
    let av = vec![u64::MAX, 0, 1 << 63, 0x0123_4567_89AB_CDEF];
    let bv = vec![1, u64::MAX, 1 << 63, 0xFEDC_BA98_7654_3210];
    let a = PimTensor::<u64>::from_slice(&av);
    let b = PimTensor::<u64>::from_slice(&bv);
    let mut sess = TensorSession::ddr3();
    let got = sess.eval(&(&a + &b)).unwrap();
    for i in 0..av.len() {
        assert_eq!(got[i], av[i].wrapping_add(bv[i]), "lane {i}");
    }
}

/// A graph that exceeds the scratch budget still evaluates exactly: the
/// planner splits it into stages transparently.
#[test]
fn scratch_split_is_transparent() {
    let av = data(128, 14, 8);
    let a = PimTensor::<u8>::from_u64_values(av.clone());
    // Six sums that all stay live to the end: 48 planes at once.
    let d: Vec<PimTensor<u8>> = (1..=6)
        .map(|k| &a + &PimTensor::splat(k, a.len()))
        .collect();
    let x = d[1..].iter().fold(d[0].clone(), |acc, v| &acc ^ v);
    let expr = d.iter().fold(x, |acc, v| &acc + v);

    // A budget tight enough to force splitting (but above the 12-row
    // single-node floor).
    let mut sess = TensorSession::new(
        {
            let mut rt = pim_runtime::Runtime::new();
            rt.register(Box::new(pim_runtime::AmbitBackend::new(
                "ambit",
                pim_ambit::AmbitConfig::ddr3(),
            )));
            rt
        },
        TensorConfig {
            scratch_budget: 14,
            placement: pim_runtime::Placement::Forced("ambit".into()),
            ..TensorConfig::default()
        },
    );
    sess.set_telemetry(true);
    let got = sess.eval(&expr).unwrap();
    let stages = sess
        .take_telemetry()
        .expect("telemetry enabled")
        .counter("tensor.stages", 0);
    assert!(stages > 1, "budget 14 compiled {stages} stage(s)");

    let want: Vec<u8> = av
        .iter()
        .map(|&v| {
            let d: Vec<u8> = (1..=6).map(|k| (v as u8).wrapping_add(k)).collect();
            let x = d[1..].iter().fold(d[0], |acc, w| acc ^ w);
            d.iter().fold(x, |acc, &w| acc.wrapping_add(w))
        })
        .collect();
    assert_eq!(got, want);
}
