//! Bit-serial integer arithmetic over bit-sliced data — the "more
//! sophisticated computational substrates" direction the paper's §2
//! closes with (DRISA [Li+ MICRO'17], Pinatubo, compute caches).
//!
//! Integers live *vertically*: plane `i` holds bit `i` of every element
//! (LSB first), so one DRAM row stores one bit of 65536 elements. A
//! ripple-carry adder is then a [`BitwisePlan`] over the planes:
//!
//! ```text
//! sum_i   = a_i XOR b_i XOR c_i
//! c_{i+1} = MAJ(a_i, b_i, c_i)      <- one triple-row activation!
//! ```
//!
//! The carry being a *native majority* is exactly why Ambit-style
//! substrates extend from Boolean logic to arithmetic.

use crate::bitvec::{BitVec, BulkOp};
use crate::plan::{BitwisePlan, PlanBuilder, Reg};

/// A vector of unsigned `bits`-bit integers stored bit-sliced, LSB plane
/// first.
///
/// # Examples
///
/// ```
/// use pim_workloads::arith::BitSlicedIntVec;
/// let v = BitSlicedIntVec::from_values(&[3, 5, 7], 4);
/// assert_eq!(v.value(1), 5);
/// assert_eq!(v.planes().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSlicedIntVec {
    planes: Vec<BitVec>, // planes[0] = LSB
    bits: u32,
    len: usize,
}

impl BitSlicedIntVec {
    /// Slices `values` into `bits` planes (LSB first), 64 lanes at a
    /// time through a 64×64 bit-matrix transpose.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 64, or a value needs more than `bits`
    /// bits.
    pub fn from_values(values: &[u64], bits: u32) -> Self {
        assert!((1..=64).contains(&bits), "bits must be in 1..=64");
        let limit = 1u64.checked_shl(bits).unwrap_or(0).wrapping_sub(1);
        if values.iter().fold(0, |acc, &v| acc | v) > limit {
            let v = values
                .iter()
                .find(|&&v| v > limit)
                .expect("a value is over");
            panic!("value {v} needs more than {bits} bits");
        }
        let words = values.len().div_ceil(64);
        let mut planes = vec![vec![0u64; words]; bits as usize];
        let rows = bits.next_power_of_two() as usize;
        for (w, chunk) in values.chunks(64).enumerate() {
            let mut block = [0u64; 64];
            block[..chunk.len()].copy_from_slice(chunk);
            slice_block(&mut block, rows);
            for (plane, &row) in planes.iter_mut().zip(&block) {
                plane[w] = row;
            }
        }
        BitSlicedIntVec {
            planes: planes
                .into_iter()
                .map(|words| BitVec::from_words(words, values.len()))
                .collect(),
            bits,
            len: values.len(),
        }
    }

    /// Builds from raw planes (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `planes` is empty or the plane lengths differ.
    pub fn from_planes(planes: Vec<BitVec>) -> Self {
        assert!(!planes.is_empty(), "need at least one plane");
        let len = planes[0].len();
        for p in &planes {
            assert_eq!(p.len(), len, "plane lengths must agree");
        }
        let bits = planes.len() as u32;
        BitSlicedIntVec { planes, bits, len }
    }

    /// Generates `len` uniformly random `bits`-bit values.
    pub fn random<R: rand::Rng>(len: usize, bits: u32, rng: &mut R) -> Self {
        let mask = 1u64.checked_shl(bits).unwrap_or(0).wrapping_sub(1);
        let values: Vec<u64> = (0..len).map(|_| rng.gen::<u64>() & mask).collect();
        BitSlicedIntVec::from_values(&values, bits)
    }

    /// Element width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The planes, LSB first.
    pub fn planes(&self) -> &[BitVec] {
        &self.planes
    }

    /// Reconstructs element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`, or if the vector is wider than 64 bits (a
    /// 64-bit sum's carry plane, say), since it does not fit a `u64`.
    pub fn value(&self, i: usize) -> u64 {
        self.assert_fits_u64();
        self.planes
            .iter()
            .enumerate()
            .fold(0u64, |acc, (p, plane)| acc | ((plane.get(i) as u64) << p))
    }

    /// All elements as a vector, 64 lanes at a time through a 64×64
    /// bit-matrix transpose.
    ///
    /// # Panics
    ///
    /// Panics if the vector is wider than 64 bits.
    pub fn to_values(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        self.extend_values(&mut out, |v| v);
        out
    }

    /// Appends every element, mapped through `map`, to `out` — the
    /// transpose of [`to_values`](Self::to_values) without its `u64`
    /// buffer when the caller wants narrower lanes.
    ///
    /// # Panics
    ///
    /// Panics if the vector is wider than 64 bits.
    pub fn extend_values<T>(&self, out: &mut Vec<T>, mut map: impl FnMut(u64) -> T) {
        self.assert_fits_u64();
        out.reserve(self.len);
        let rows = self.bits.next_power_of_two() as usize;
        for w in 0..self.len.div_ceil(64) {
            let mut block = [0u64; 64];
            for (row, plane) in block.iter_mut().zip(&self.planes) {
                *row = plane.as_words()[w];
            }
            unslice_block(&mut block, rows);
            out.extend(block[..(self.len - 64 * w).min(64)].iter().map(|&v| map(v)));
        }
    }

    fn assert_fits_u64(&self) {
        assert!(
            self.bits <= 64,
            "a {}-bit vector does not fit u64 lanes (at most 64 bits)",
            self.bits
        );
    }

    /// The lanes in `range`, still bit-sliced. A range that starts on a
    /// word boundary copies whole words; any other start shifts each
    /// plane across word boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `range` is reversed or ends past `len`.
    pub fn slice_lanes(&self, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "lane range {range:?} out of 0..{}",
            self.len
        );
        let len = range.end - range.start;
        let (skip, shift) = (range.start / 64, range.start % 64);
        let planes = self
            .planes
            .iter()
            .map(|plane| {
                let words = &plane.as_words()[skip..];
                let n = len.div_ceil(64);
                let out = if shift == 0 {
                    words[..n].to_vec()
                } else {
                    (0..n)
                        .map(|i| {
                            let next = words.get(i + 1).map_or(0, |w| w << (64 - shift));
                            (words[i] >> shift) | next
                        })
                        .collect()
                };
                BitVec::from_words(out, len)
            })
            .collect();
        BitSlicedIntVec {
            planes,
            bits: self.bits,
            len,
        }
    }

    /// The lanes of every part, in order, as one vector. A part that
    /// starts on a word boundary copies whole words; any other start
    /// shifts each plane across word boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the widths differ.
    pub fn concat(parts: &[&BitSlicedIntVec]) -> Self {
        let bits = parts.first().expect("need at least one part").bits;
        assert!(
            parts.iter().all(|p| p.bits == bits),
            "part widths must match"
        );
        let len: usize = parts.iter().map(|p| p.len).sum();
        let planes = (0..bits as usize)
            .map(|b| {
                let mut out: Vec<u64> = Vec::with_capacity(len.div_ceil(64));
                let mut at = 0;
                for p in parts {
                    let words = &p.planes[b].as_words()[..p.len.div_ceil(64)];
                    let shift = at % 64;
                    if shift == 0 {
                        out.extend_from_slice(words);
                    } else {
                        // Bits past a plane's length are zero, so OR-ing
                        // into the open last word keeps the lanes before.
                        for &w in words {
                            *out.last_mut().expect("an open word") |= w << shift;
                            out.push(w >> (64 - shift));
                        }
                    }
                    at += p.len;
                    out.truncate(at.div_ceil(64));
                }
                BitVec::from_words(out, len)
            })
            .collect();
        BitSlicedIntVec { planes, bits, len }
    }

    /// The per-bit slicing the transpose replaces, kept as its oracle.
    #[cfg(test)]
    fn from_values_per_bit(values: &[u64], bits: u32) -> Self {
        let planes = (0..bits)
            .map(|p| BitVec::from_fn(values.len(), |i| (values[i] >> p) & 1 == 1))
            .collect();
        BitSlicedIntVec {
            planes,
            bits,
            len: values.len(),
        }
    }

    /// The per-lane read-back the transpose replaces, kept as its oracle.
    #[cfg(test)]
    fn to_values_per_bit(&self) -> Vec<u64> {
        (0..self.len).map(|i| self.value(i)).collect()
    }
}

// A 64-lane block is a 64×64 bit matrix: as values, row `i` is lane
// `i`; as planes, row `p` is bit `p` of every lane. Transposing swaps
// each row-index bit with the matching column-index bit, one round per
// bit level (Hacker's Delight §7-3). The rounds commute, and a value
// under `2^rows` (`rows` a power of two) leaves every round at a
// distance of `rows` or more moving only zeros, so those rounds shrink
// to shifts and only the `rows`×`rows` corner takes full swaps.

/// `MASKS[b]` keeps the columns whose index has bit `b` clear.
const MASKS: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0f0f_0f0f_0f0f_0f0f,
    0x00ff_00ff_00ff_00ff,
    0x0000_ffff_0000_ffff,
    0x0000_0000_ffff_ffff,
];

/// One full transpose round at distance `j`: swaps the off-diagonal
/// `j`×`j` blocks of every diagonal `2j`×`2j` block of `a`.
fn swap_round(a: &mut [u64], j: usize) {
    let m = MASKS[j.trailing_zeros() as usize];
    let mut k = 0;
    while k < a.len() {
        let t = ((a[k] >> j) ^ a[k + j]) & m;
        a[k] ^= t << j;
        a[k + j] ^= t;
        k = (k + j + 1) & !j;
    }
}

/// Transposes 64 lane values, each under `2^rows`, into their `rows`
/// low planes `a[..rows]`; the other rows are left unspecified.
fn slice_block(a: &mut [u64; 64], rows: usize) {
    let mut j = 32;
    while j >= rows {
        for k in 0..j {
            a[k] |= a[k + j] << j;
        }
        j /= 2;
    }
    while j > 0 {
        swap_round(&mut a[..rows], j);
        j /= 2;
    }
}

/// The inverse of [`slice_block`]: transposes `rows` planes `a[..rows]`
/// (the other rows are ignored) into 64 lane values.
fn unslice_block(a: &mut [u64; 64], rows: usize) {
    let mut j = 1;
    while j < rows {
        swap_round(&mut a[..rows], j);
        j *= 2;
    }
    while j < 64 {
        let m = MASKS[j.trailing_zeros() as usize];
        for k in 0..j {
            a[k + j] = (a[k] >> j) & m;
            a[k] &= m;
        }
        j *= 2;
    }
}

/// Compiles an element-wise ripple-carry adder for two `bits`-bit
/// bit-sliced vectors into a [`BitwisePlan`].
///
/// Inputs: registers `0..bits` are `a`'s planes (LSB first), registers
/// `bits..2*bits` are `b`'s. Outputs: `bits + 1` planes — the sum (LSB
/// first) and the final carry.
///
/// Cost: per bit, 2 XOR steps and 1 MAJ step (one TRA in DRAM).
///
/// # Panics
///
/// Panics if `bits` is zero.
pub fn ripple_add_plan(bits: u32) -> BitwisePlan {
    assert!(bits >= 1, "need at least one bit");
    let mut pb = PlanBuilder::new(2 * bits as usize);
    let a = |i: u32| Reg(i as usize);
    let b = |i: u32| Reg((bits + i) as usize);
    let mut outputs = Vec::with_capacity(bits as usize + 1);
    let mut carry = pb.constant(false);
    for i in 0..bits {
        let half = pb.binary(BulkOp::Xor, a(i), b(i));
        let sum = pb.binary(BulkOp::Xor, half, carry);
        outputs.push(sum);
        carry = pb.maj(a(i), b(i), carry);
    }
    outputs.push(carry);
    pb.finish_multi(outputs)
}

/// Compiles an element-wise **multiplier** for two `bits`-bit bit-sliced
/// vectors: shift-and-add over partial products, producing a `2*bits`-bit
/// result. Per partial product: `bits` ANDs plus one ripple add into the
/// accumulator window — `O(bits^2)` bulk steps total, all reclaimable
/// temporaries (the engine's register liveness keeps row usage bounded).
///
/// Inputs: registers `0..bits` are `a`'s planes (LSB first), then `b`'s.
/// Outputs: `2*bits` product planes, LSB first.
///
/// # Panics
///
/// Panics if `bits` is zero.
pub fn ripple_mul_plan(bits: u32) -> BitwisePlan {
    assert!(bits >= 1, "need at least one bit");
    let k = bits as usize;
    let mut pb = PlanBuilder::new(2 * k);
    let a = |j: usize| Reg(j);
    let b = |i: usize| Reg(k + i);

    // Accumulator: 2k planes, initially zero.
    let zero = pb.constant(false);
    let mut acc: Vec<Reg> = vec![zero; 2 * k];

    for i in 0..k {
        // Partial product i: (a_j AND b_i) lands at plane i + j.
        let pp: Vec<Reg> = (0..k).map(|j| pb.binary(BulkOp::And, a(j), b(i))).collect();
        // Ripple-add pp into acc[i .. i + k], with carry propagating
        // through the remaining high planes.
        let mut carry = pb.constant(false);
        for (j, &p) in pp.iter().enumerate() {
            let pos = i + j;
            let half = pb.binary(BulkOp::Xor, acc[pos], p);
            let sum = pb.binary(BulkOp::Xor, half, carry);
            carry = pb.maj(acc[pos], p, carry);
            acc[pos] = sum;
        }
        // Propagate the carry into the high planes (no new addend bits).
        let mut pos = i + k;
        while pos < 2 * k {
            let sum = pb.binary(BulkOp::Xor, acc[pos], carry);
            carry = pb.binary(BulkOp::And, acc[pos], carry);
            acc[pos] = sum;
            pos += 1;
        }
    }
    pb.finish_multi(acc)
}

/// Compiles an element-wise **subtractor** (`a - b`, two's complement):
/// `a + !b + 1`, built from the same full-adder cells with the carry-in
/// seeded to one. Outputs: `bits` difference planes (LSB first) plus the
/// final carry plane — carry `1` means `a >= b` (no borrow).
///
/// # Panics
///
/// Panics if `bits` is zero.
pub fn ripple_sub_plan(bits: u32) -> BitwisePlan {
    assert!(bits >= 1, "need at least one bit");
    let mut pb = PlanBuilder::new(2 * bits as usize);
    let a = |i: u32| Reg(i as usize);
    let b = |i: u32| Reg((bits + i) as usize);
    let mut outputs = Vec::with_capacity(bits as usize + 1);
    let mut carry = pb.constant(true); // +1 of the two's complement
    for i in 0..bits {
        let nb = pb.not(b(i));
        let half = pb.binary(BulkOp::Xor, a(i), nb);
        let diff = pb.binary(BulkOp::Xor, half, carry);
        outputs.push(diff);
        carry = pb.maj(a(i), nb, carry);
    }
    outputs.push(carry); // 1 = no borrow = a >= b
    pb.finish_multi(outputs)
}

/// Compiles a lane-wise comparison `a < b`: the complement of the
/// subtractor's final carry. Output: one plane, bit `i` set iff
/// `a[i] < b[i]`.
///
/// # Panics
///
/// Panics if `bits` is zero.
pub fn compare_lt_plan(bits: u32) -> BitwisePlan {
    let sub = ripple_sub_plan(bits);
    let mut pb = PlanBuilder::new(2 * bits as usize);
    let inputs: Vec<Reg> = (0..2 * bits as usize).map(Reg).collect();
    let outs = pb.inline(&sub, &inputs);
    let carry = *outs.last().expect("sub has a carry plane");
    let lt = pb.not(carry);
    pb.finish(lt)
}

/// CPU reference: element-wise `a - b` (operands must satisfy `a >= b`
/// lane-wise for the plain interpretation; otherwise the result wraps mod
/// `2^bits` as in hardware).
///
/// Returns `bits + 1` planes (difference + no-borrow flag).
///
/// # Panics
///
/// Panics if the operand shapes differ.
pub fn sub(a: &BitSlicedIntVec, b: &BitSlicedIntVec) -> BitSlicedIntVec {
    assert_eq!(a.bits(), b.bits(), "operand widths must match");
    assert_eq!(a.len(), b.len(), "operand lengths must match");
    let plan = ripple_sub_plan(a.bits());
    let mut inputs: Vec<&BitVec> = a.planes().iter().collect();
    inputs.extend(b.planes().iter());
    BitSlicedIntVec::from_planes(plan.eval_cpu_multi(&inputs))
}

/// CPU reference: lane-wise `a < b` bitmap.
///
/// # Panics
///
/// Panics if the operand shapes differ.
pub fn compare_lt(a: &BitSlicedIntVec, b: &BitSlicedIntVec) -> BitVec {
    assert_eq!(a.bits(), b.bits(), "operand widths must match");
    assert_eq!(a.len(), b.len(), "operand lengths must match");
    let plan = compare_lt_plan(a.bits());
    let mut inputs: Vec<&BitVec> = a.planes().iter().collect();
    inputs.extend(b.planes().iter());
    plan.eval_cpu(&inputs)
}

/// CPU reference: element-wise multiply via the plan.
///
/// Returns a `2*bits`-plane vector.
///
/// # Panics
///
/// Panics if the operand shapes differ.
pub fn mul(a: &BitSlicedIntVec, b: &BitSlicedIntVec) -> BitSlicedIntVec {
    assert_eq!(a.bits(), b.bits(), "operand widths must match");
    assert_eq!(a.len(), b.len(), "operand lengths must match");
    let plan = ripple_mul_plan(a.bits());
    let mut inputs: Vec<&BitVec> = a.planes().iter().collect();
    inputs.extend(b.planes().iter());
    BitSlicedIntVec::from_planes(plan.eval_cpu_multi(&inputs))
}

/// CPU reference: element-wise add with a carry-out plane, via the plan.
///
/// Returns a `(bits + 1)`-plane vector (sum + carry-out).
///
/// # Examples
///
/// ```
/// use pim_workloads::arith::{add, BitSlicedIntVec};
/// let a = BitSlicedIntVec::from_values(&[7, 200], 8);
/// let b = BitSlicedIntVec::from_values(&[5, 100], 8);
/// assert_eq!(add(&a, &b).to_values(), vec![12, 300]);
/// ```
///
/// # Panics
///
/// Panics if the operand shapes differ.
pub fn add(a: &BitSlicedIntVec, b: &BitSlicedIntVec) -> BitSlicedIntVec {
    assert_eq!(a.bits, b.bits, "operand widths must match");
    assert_eq!(a.len, b.len, "operand lengths must match");
    let plan = ripple_add_plan(a.bits);
    let mut inputs: Vec<&BitVec> = a.planes.iter().collect();
    inputs.extend(b.planes.iter());
    BitSlicedIntVec::from_planes(plan.eval_cpu_multi(&inputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn slicing_roundtrips() {
        let vals = [0u64, 1, 2, 3, 7, 15, 8];
        let v = BitSlicedIntVec::from_values(&vals, 4);
        assert_eq!(v.bits(), 4);
        assert_eq!(v.len(), 7);
        assert!(!v.is_empty());
        assert_eq!(v.to_values(), vals);
    }

    #[test]
    #[should_panic(expected = "a 65-bit vector does not fit u64 lanes")]
    fn wide_sum_refuses_to_read_back() {
        let a = BitSlicedIntVec::from_values(&[u64::MAX], 64);
        let b = BitSlicedIntVec::from_values(&[1], 64);
        let _ = add(&a, &b).to_values();
    }

    #[test]
    #[should_panic(expected = "value 16 needs more than 4 bits")]
    fn out_of_range_value_past_the_first_block_is_rejected() {
        let mut vals = vec![3u64; 130];
        vals[100] = 16;
        let _ = BitSlicedIntVec::from_values(&vals, 4);
    }

    #[test]
    fn small_adds_are_exact() {
        let a = BitSlicedIntVec::from_values(&[0, 1, 7, 5, 15], 4);
        let b = BitSlicedIntVec::from_values(&[0, 1, 1, 10, 15], 4);
        let s = add(&a, &b);
        assert_eq!(s.bits(), 5, "sum gains a carry plane");
        assert_eq!(s.to_values(), vec![0, 2, 8, 15, 30]);
    }

    #[test]
    fn plan_cost_is_linear_in_width() {
        let p8 = ripple_add_plan(8);
        let p16 = ripple_add_plan(16);
        // Per bit: 2 XOR + 1 MAJ, plus the initial constant.
        assert_eq!(p8.steps().len(), 1 + 3 * 8);
        assert_eq!(p16.steps().len(), 1 + 3 * 16);
        assert_eq!(p8.outputs().len(), 9);
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn mismatched_widths_rejected() {
        let a = BitSlicedIntVec::from_values(&[1], 4);
        let b = BitSlicedIntVec::from_values(&[1], 5);
        let _ = add(&a, &b);
    }

    #[test]
    fn random_wide_add() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let a = BitSlicedIntVec::random(500, 16, &mut rng);
        let b = BitSlicedIntVec::random(500, 16, &mut rng);
        let s = add(&a, &b);
        for i in 0..500 {
            assert_eq!(s.value(i), a.value(i) + b.value(i), "element {i}");
        }
    }

    #[test]
    fn small_multiplies_are_exact() {
        let a = BitSlicedIntVec::from_values(&[0, 1, 3, 7, 15, 12], 4);
        let b = BitSlicedIntVec::from_values(&[0, 1, 5, 7, 15, 11], 4);
        let p = mul(&a, &b);
        assert_eq!(p.bits(), 8, "product doubles the width");
        assert_eq!(p.to_values(), vec![0, 1, 15, 49, 225, 132]);
    }

    #[test]
    fn random_multiplies_are_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = BitSlicedIntVec::random(200, 8, &mut rng);
        let b = BitSlicedIntVec::random(200, 8, &mut rng);
        let p = mul(&a, &b);
        for i in 0..200 {
            assert_eq!(p.value(i), a.value(i) * b.value(i), "element {i}");
        }
    }

    #[test]
    fn mul_plan_size_is_quadratic() {
        let p4 = ripple_mul_plan(4).steps().len();
        let p8 = ripple_mul_plan(8).steps().len();
        assert!(p8 > 3 * p4, "steps {p4} vs {p8}");
        assert_eq!(ripple_mul_plan(4).outputs().len(), 8);
    }

    #[test]
    fn subtraction_wraps_like_hardware() {
        let a = BitSlicedIntVec::from_values(&[10, 5, 0, 255], 8);
        let b = BitSlicedIntVec::from_values(&[3, 5, 1, 255], 8);
        let d = sub(&a, &b);
        // Difference planes (mod 256) + no-borrow flag.
        let diffs: Vec<u64> = (0..4).map(|i| d.value(i) & 0xff).collect();
        assert_eq!(diffs, vec![7, 0, 255, 0]);
        // No-borrow flag: set where a >= b.
        let flags: Vec<bool> = (0..4).map(|i| d.planes()[8].get(i)).collect();
        assert_eq!(flags, vec![true, true, false, true]);
    }

    #[test]
    fn compare_lt_matches_scalar() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let a = BitSlicedIntVec::random(300, 10, &mut rng);
        let b = BitSlicedIntVec::random(300, 10, &mut rng);
        let lt = compare_lt(&a, &b);
        for i in 0..300 {
            assert_eq!(lt.get(i), a.value(i) < b.value(i), "lane {i}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The word-level transpose equals the per-bit oracle in both
        /// directions, at every width and at ragged lane counts.
        #[test]
        fn transpose_matches_per_bit_oracle(
            lanes in prop_oneof![
                Just(0usize), Just(1), Just(63), Just(64), Just(65), 100usize..400
            ],
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for bits in 1..=64u32 {
                let mask = 1u64.checked_shl(bits).unwrap_or(0).wrapping_sub(1);
                let vals: Vec<u64> = (0..lanes).map(|_| rng.gen::<u64>() & mask).collect();
                let fast = BitSlicedIntVec::from_values(&vals, bits);
                let slow = BitSlicedIntVec::from_values_per_bit(&vals, bits);
                prop_assert_eq!(&fast, &slow, "slicing at {} bits", bits);
                prop_assert_eq!(slow.to_values(), slow.to_values_per_bit());
                prop_assert_eq!(fast.to_values(), &vals[..]);
                let mut narrow = vec![u32::MAX];
                fast.extend_values(&mut narrow, |v| v as u32);
                prop_assert_eq!(narrow[0], u32::MAX, "the prefix stays");
                prop_assert!(narrow[1..].iter().copied().eq(vals.iter().map(|&v| v as u32)));
            }
        }

        /// Slicing and concatenating lanes equal the same cut of the
        /// values, re-sliced, at every width and at ragged lengths and
        /// offsets.
        #[test]
        fn lane_slices_and_concat_match_value_oracle(
            lanes in prop_oneof![Just(0usize), Just(1), Just(64), Just(129), 2usize..300],
            cut in (any::<usize>(), any::<usize>()),
            parts in prop::collection::vec(0usize..140, 0..4),
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for bits in 1..=64u32 {
                let mask = 1u64.checked_shl(bits).unwrap_or(0).wrapping_sub(1);
                let mut draw = |n: usize| -> Vec<u64> {
                    (0..n).map(|_| rng.gen::<u64>() & mask).collect()
                };
                let vals = draw(lanes);
                let v = BitSlicedIntVec::from_values(&vals, bits);
                let (a, b) = (cut.0 % (lanes + 1), cut.1 % (lanes + 1));
                let (lo, hi) = (a.min(b), a.max(b));
                prop_assert_eq!(
                    v.slice_lanes(lo..hi),
                    BitSlicedIntVec::from_values(&v.to_values()[lo..hi], bits),
                    "slice {}..{} at {} bits", lo, hi, bits
                );

                let more: Vec<Vec<u64>> = parts.iter().map(|&n| draw(n)).collect();
                let sliced: Vec<BitSlicedIntVec> = more
                    .iter()
                    .map(|m| BitSlicedIntVec::from_values(m, bits))
                    .collect();
                let refs: Vec<&BitSlicedIntVec> =
                    std::iter::once(&v).chain(&sliced).collect();
                let joined: Vec<u64> = refs.iter().flat_map(|p| p.to_values()).collect();
                prop_assert_eq!(
                    BitSlicedIntVec::concat(&refs),
                    BitSlicedIntVec::from_values(&joined, bits),
                    "concat of {} parts at {} bits", refs.len(), bits
                );
            }
        }

        /// The bit-sliced adder equals scalar addition for arbitrary
        /// values and widths.
        #[test]
        fn adder_matches_scalar(
            values in prop::collection::vec((0u64..256, 0u64..256), 1..50)
        ) {
            let av: Vec<u64> = values.iter().map(|(a, _)| *a).collect();
            let bv: Vec<u64> = values.iter().map(|(_, b)| *b).collect();
            let a = BitSlicedIntVec::from_values(&av, 8);
            let b = BitSlicedIntVec::from_values(&bv, 8);
            let s = add(&a, &b);
            for (i, (&x, &y)) in av.iter().zip(bv.iter()).enumerate() {
                prop_assert_eq!(s.value(i), x + y);
            }
        }

        /// Subtraction inverts addition lane-wise.
        #[test]
        fn sub_inverts_add(
            values in prop::collection::vec((0u64..128, 0u64..128), 1..40)
        ) {
            let av: Vec<u64> = values.iter().map(|(a, _)| *a).collect();
            let bv: Vec<u64> = values.iter().map(|(_, b)| *b).collect();
            let a = BitSlicedIntVec::from_values(&av, 8);
            let b = BitSlicedIntVec::from_values(&bv, 8);
            let s = add(&a, &b);
            // (a + b) - b == a, using only the low 8 planes of the sum.
            let s8 = BitSlicedIntVec::from_planes(s.planes()[..8].to_vec());
            let back = sub(&s8, &b);
            for (i, &x) in av.iter().enumerate() {
                prop_assert_eq!(back.value(i) & 0xff, x);
            }
        }

        /// The bit-sliced multiplier equals scalar multiplication.
        #[test]
        fn multiplier_matches_scalar(
            values in prop::collection::vec((0u64..64, 0u64..64), 1..30)
        ) {
            let av: Vec<u64> = values.iter().map(|(a, _)| *a).collect();
            let bv: Vec<u64> = values.iter().map(|(_, b)| *b).collect();
            let a = BitSlicedIntVec::from_values(&av, 6);
            let b = BitSlicedIntVec::from_values(&bv, 6);
            let p = mul(&a, &b);
            for i in 0..av.len() {
                prop_assert_eq!(p.value(i), av[i] * bv[i]);
            }
        }
    }
}
