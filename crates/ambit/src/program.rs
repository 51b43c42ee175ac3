//! Row programs: how each bulk bitwise operation decomposes into
//! AAP/TRA command sequences (Ambit MICRO'17 §5.3, Table 2), written as
//! [`RowInst`] sequences over a plane table — the one instruction form
//! the engine replays, for the built-in operations and compiled programs
//! alike.
//!
//! Sequence lengths per operation, in row-op primitives:
//!
//! | op        | this crate | Ambit paper |
//! |-----------|-----------:|------------:|
//! | NOT       | 2          | 2           |
//! | AND / OR  | 4          | 4           |
//! | NAND / NOR| 5          | 5           |
//! | XOR / XNOR| 10 (8 AAP + 2 AP-cost TRAs) | 7 |
//!
//! The XOR/XNOR deviation: the paper's 7-op sequences exploit row-decoder
//! address aliasing that simultaneously selects a DCC row's negated
//! wordline *inside* a TRA; our primitive set (copy, negated copy, TRA,
//! fused TRA-copy) expresses the same dataflow in 10 primitives, two of
//! which are cheaper in-place TRAs. The measured throughput/energy ratios
//! for XOR/XNOR are therefore mildly conservative relative to the paper
//! (documented in EXPERIMENTS.md).

use crate::rows::SpecialRow;
use pim_workloads::BulkOp;
use std::fmt;

/// A row operand of a row-program instruction ([`RowInst`]).
///
/// A `RowSlot` addresses a *plane table* — the co-located bulk vectors an
/// operation runs over: `[in0, in1?, out]` for the seven built-in bulk
/// operations, or whatever input, output and scratch planes a compiler
/// hands to [`execute_row_program`](crate::AmbitSystem::execute_row_program)
/// — plus the subarray's reserved special rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowSlot {
    /// The `i`-th plane of the caller's plane table.
    Plane(u32),
    /// A reserved special row of the subarray (control and DCC rows).
    Special(SpecialRow),
}

impl fmt::Display for RowSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowSlot::Plane(i) => write!(f, "p{i}"),
            RowSlot::Special(s) => write!(f, "{s}"),
        }
    }
}

/// One instruction of a row program — one AAP, AP or fused TRA-AAP row
/// command over [`RowSlot`] operands. The built-in programs use the
/// special rows `T0..T3` as temporaries; a bit-serial compiler
/// (`pim-simd`) can sequence arbitrarily many scratch planes instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowInst {
    /// AAP: copy `src` to `dst`, optionally capturing the complement
    /// (which requires `dst` to be a DCC row).
    Copy {
        /// Source row.
        src: RowSlot,
        /// Destination row.
        dst: RowSlot,
        /// Capture the complement through the DCC negated wordline.
        invert: bool,
    },
    /// In-place triple-row activation: all three rows end up holding the
    /// bitwise majority. Costs one AP.
    Tra {
        /// The three activated rows (pairwise distinct).
        rows: [RowSlot; 3],
    },
    /// Fused TRA + copy-out: majority of `rows` lands in `dst`. Costs one
    /// AAP.
    TraCopy {
        /// The three activated rows (pairwise distinct).
        rows: [RowSlot; 3],
        /// Destination row.
        dst: RowSlot,
        /// Capture the complement (requires `dst` to be a DCC row).
        invert: bool,
    },
}

impl RowInst {
    /// `true` if this instruction costs a full AAP (vs. a single AP).
    pub const fn is_aap_cost(&self) -> bool {
        matches!(self, RowInst::Copy { .. } | RowInst::TraCopy { .. })
    }

    /// The rows this instruction writes: a copy's destination, and every
    /// row a TRA charge-shares (plus a fused copy's destination).
    pub(crate) fn written(&self) -> impl Iterator<Item = RowSlot> + '_ {
        let (rows, dst): (&[RowSlot], _) = match self {
            RowInst::Copy { dst, .. } => (&[], Some(*dst)),
            RowInst::Tra { rows } => (rows, None),
            RowInst::TraCopy { rows, dst, .. } => (rows, Some(*dst)),
        };
        rows.iter().copied().chain(dst)
    }

    /// Checks this instruction against the hardware discipline the seven
    /// built-in programs obey: every plane index within `n_planes`,
    /// negated captures only into DCC rows, TRA rows pairwise distinct,
    /// and no write to a control row (`C0`/`C1`).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self, n_planes: usize) -> std::result::Result<(), String> {
        let check_idx = |slot: &RowSlot| -> std::result::Result<(), String> {
            if let RowSlot::Plane(i) = slot {
                if *i as usize >= n_planes {
                    return Err(format!("{self:?}: plane {i} out of range ({n_planes})"));
                }
            }
            Ok(())
        };
        let check_written = |slot: &RowSlot| -> std::result::Result<(), String> {
            if let RowSlot::Special(s @ (SpecialRow::C0 | SpecialRow::C1)) = slot {
                return Err(format!("{self:?}: writes control row {s}"));
            }
            Ok(())
        };
        let check_invert_dst = |slot: &RowSlot, invert: bool| -> std::result::Result<(), String> {
            if invert && !matches!(slot, RowSlot::Special(s) if s.is_dcc()) {
                return Err(format!("{self:?}: negated capture into non-DCC {slot}"));
            }
            Ok(())
        };
        let check_tra_rows = |rows: &[RowSlot; 3]| -> std::result::Result<(), String> {
            for r in rows {
                check_idx(r)?;
                check_written(r)?;
            }
            if rows[0] == rows[1] || rows[0] == rows[2] || rows[1] == rows[2] {
                return Err(format!("{self:?}: TRA rows must be pairwise distinct"));
            }
            Ok(())
        };
        match self {
            RowInst::Copy { src, dst, invert } => {
                check_idx(src)?;
                check_idx(dst)?;
                check_written(dst)?;
                check_invert_dst(dst, *invert)
            }
            RowInst::Tra { rows } => check_tra_rows(rows),
            RowInst::TraCopy { rows, dst, invert } => {
                check_tra_rows(rows)?;
                check_idx(dst)?;
                check_written(dst)?;
                check_invert_dst(dst, *invert)
            }
        }
    }
}

// Slots of the built-in programs. Binary operations run over the plane
// table `[in0, in1, out]`, NOT over `[in0, out]`.
const IN0: RowSlot = RowSlot::Plane(0);
const IN1: RowSlot = RowSlot::Plane(1);
const OUT: RowSlot = RowSlot::Plane(2);
const NOT_OUT: RowSlot = RowSlot::Plane(1);
const T0: RowSlot = RowSlot::Special(SpecialRow::T0);
const T1: RowSlot = RowSlot::Special(SpecialRow::T1);
const T2: RowSlot = RowSlot::Special(SpecialRow::T2);
const T3: RowSlot = RowSlot::Special(SpecialRow::T3);
const DCC0: RowSlot = RowSlot::Special(SpecialRow::Dcc0);
const DCC1: RowSlot = RowSlot::Special(SpecialRow::Dcc1);
const C0: RowSlot = RowSlot::Special(SpecialRow::C0);
const C1: RowSlot = RowSlot::Special(SpecialRow::C1);

const fn copy(src: RowSlot, dst: RowSlot) -> RowInst {
    RowInst::Copy {
        src,
        dst,
        invert: false,
    }
}

const fn copy_not(src: RowSlot, dst: RowSlot) -> RowInst {
    RowInst::Copy {
        src,
        dst,
        invert: true,
    }
}

const fn tra(rows: [RowSlot; 3]) -> RowInst {
    RowInst::Tra { rows }
}

const fn tra_copy(rows: [RowSlot; 3], dst: RowSlot) -> RowInst {
    RowInst::TraCopy {
        rows,
        dst,
        invert: false,
    }
}

const fn tra_copy_not(rows: [RowSlot; 3], dst: RowSlot) -> RowInst {
    RowInst::TraCopy {
        rows,
        dst,
        invert: true,
    }
}

/// Copy the source through DCC0's negated wordline, then copy out.
const NOT: &[RowInst] = &[copy_not(IN0, DCC0), copy(DCC0, NOT_OUT)];
/// MAJ(a, b, 0) = a AND b.
const AND: &[RowInst] = &[
    copy(IN0, T0),
    copy(IN1, T1),
    copy(C0, T2),
    tra_copy([T0, T1, T2], OUT),
];
/// MAJ(a, b, 1) = a OR b.
const OR: &[RowInst] = &[
    copy(IN0, T0),
    copy(IN1, T1),
    copy(C1, T2),
    tra_copy([T0, T1, T2], OUT),
];
/// AND captured through DCC0's negated port, then copied out.
const NAND: &[RowInst] = &[
    copy(IN0, T0),
    copy(IN1, T1),
    copy(C0, T2),
    tra_copy_not([T0, T1, T2], DCC0),
    copy(DCC0, OUT),
];
const NOR: &[RowInst] = &[
    copy(IN0, T0),
    copy(IN1, T1),
    copy(C1, T2),
    tra_copy_not([T0, T1, T2], DCC0),
    copy(DCC0, OUT),
];
/// xor = (a & !b) | (!a & b)
const XOR: &[RowInst] = &[
    copy_not(IN1, DCC0), // DCC0 = !b
    copy(IN0, T0),
    copy(C0, T1),
    tra([T0, DCC0, T1]), // all = a & !b
    copy_not(IN0, DCC1), // DCC1 = !a
    copy(IN1, T2),
    copy(C0, T3),
    tra([T2, DCC1, T3]), // all = !a & b
    copy(C1, T1),
    tra_copy([T0, T2, T1], OUT),
];
/// xnor = (a & b) | (!a & !b)
const XNOR: &[RowInst] = &[
    copy(IN0, T0),
    copy(IN1, T1),
    copy(C0, T2),
    tra([T0, T1, T2]),   // all = a & b
    copy_not(IN0, DCC0), // DCC0 = !a
    copy_not(IN1, DCC1), // DCC1 = !b
    copy(C0, T3),
    tra([DCC0, DCC1, T3]), // = !a & !b
    copy(C1, T1),
    tra_copy([T0, DCC0, T1], OUT),
];

/// `dst = MAJ(a, b, c)` over the plane table `[a, b, c, dst]`: one copy
/// per operand plus one fused TRA-copy.
pub(crate) const MAJ: &[RowInst] = &[
    copy(RowSlot::Plane(0), T0),
    copy(RowSlot::Plane(1), T1),
    copy(RowSlot::Plane(2), T2),
    tra_copy([T0, T1, T2], RowSlot::Plane(3)),
];

/// The row program for `op`, over the plane table `[in0, in1, out]`
/// (`[in0, out]` for NOT).
pub fn program_for(op: BulkOp) -> &'static [RowInst] {
    match op {
        BulkOp::Not => NOT,
        BulkOp::And => AND,
        BulkOp::Or => OR,
        BulkOp::Nand => NAND,
        BulkOp::Nor => NOR,
        BulkOp::Xor => XOR,
        BulkOp::Xnor => XNOR,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The plane count of `op`'s table: its inputs plus the output.
    fn n_planes(op: BulkOp) -> usize {
        if op.is_unary() {
            2
        } else {
            3
        }
    }

    /// Symbolic executor over plain booleans: `inputs` fill the first
    /// planes, the last plane is the output. Proves a program computes its
    /// operation for the given inputs, including TRA side effects on the
    /// participating rows.
    fn run_symbolic(prog: &[RowInst], inputs: &[bool]) -> bool {
        let mut env: HashMap<RowSlot, bool> = HashMap::new();
        for (i, &v) in inputs.iter().enumerate() {
            env.insert(RowSlot::Plane(i as u32), v);
        }
        env.insert(C0, false);
        env.insert(C1, true);
        let read = |env: &HashMap<RowSlot, bool>, s: &RowSlot| -> bool {
            *env.get(s)
                .unwrap_or_else(|| panic!("read of undefined {s}"))
        };
        // A TRA leaves the majority in all three rows.
        let tra = |env: &mut HashMap<RowSlot, bool>, rows: &[RowSlot; 3]| -> bool {
            let [a, b, c] = rows.map(|r| read(env, &r));
            let maj = (a & b) | (b & c) | (a & c);
            for r in rows {
                env.insert(*r, maj);
            }
            maj
        };
        for inst in prog {
            match inst {
                RowInst::Copy { src, dst, invert } => {
                    let v = read(&env, src) ^ invert;
                    env.insert(*dst, v);
                }
                RowInst::Tra { rows } => {
                    tra(&mut env, rows);
                }
                RowInst::TraCopy { rows, dst, invert } => {
                    let maj = tra(&mut env, rows);
                    env.insert(*dst, maj ^ invert);
                }
            }
        }
        let out = RowSlot::Plane(inputs.len() as u32);
        *env.get(&out).expect("program must write its output plane")
    }

    #[test]
    fn every_program_is_functionally_correct() {
        for op in BulkOp::ALL {
            for a in [false, true] {
                for b in [false, true] {
                    let inputs = &[a, b][..n_planes(op) - 1];
                    let got = run_symbolic(program_for(op), inputs);
                    let expect = op.apply_word(a as u64, b as u64) & 1 == 1;
                    assert_eq!(got, expect, "{op} a={a} b={b}");
                }
            }
        }
        for bits in 0..8u8 {
            let [a, b, c] = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let expect = (a & b) | (b & c) | (a & c);
            assert_eq!(run_symbolic(MAJ, &[a, b, c]), expect, "MAJ({a}, {b}, {c})");
        }
    }

    #[test]
    fn program_lengths_match_the_paper_where_possible() {
        assert_eq!(program_for(BulkOp::Not).len(), 2);
        assert_eq!(program_for(BulkOp::And).len(), 4);
        assert_eq!(program_for(BulkOp::Or).len(), 4);
        assert_eq!(program_for(BulkOp::Nand).len(), 5);
        assert_eq!(program_for(BulkOp::Nor).len(), 5);
        // Documented deviation: 10 primitives instead of the paper's 7.
        assert_eq!(program_for(BulkOp::Xor).len(), 10);
        assert_eq!(program_for(BulkOp::Xnor).len(), 10);
        assert_eq!(MAJ.len(), 4);
    }

    #[test]
    fn every_builtin_program_obeys_the_row_discipline() {
        // `validate` rejects negated captures outside DCC rows and writes
        // to the control rows, among other violations.
        let programs = BulkOp::ALL
            .iter()
            .map(|&op| (op.to_string(), program_for(op), n_planes(op)))
            .chain([("MAJ".to_string(), MAJ, 4)]);
        for (name, prog, n) in programs {
            for inst in prog {
                inst.validate(n).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }

    #[test]
    fn inverted_captures_only_target_dcc_rows() {
        let programs = BulkOp::ALL
            .iter()
            .map(|&op| (op.to_string(), program_for(op)))
            .chain([("MAJ".to_string(), MAJ)]);
        for (name, prog) in programs {
            for inst in prog {
                if let RowInst::Copy {
                    dst, invert: true, ..
                }
                | RowInst::TraCopy {
                    dst, invert: true, ..
                } = inst
                {
                    match dst {
                        RowSlot::Special(s) => {
                            assert!(s.is_dcc(), "{name}: negated capture into {s}")
                        }
                        other => panic!("{name}: negated capture into non-special {other}"),
                    }
                }
            }
        }
    }

    #[test]
    fn control_rows_are_never_written() {
        let programs = BulkOp::ALL
            .iter()
            .map(|&op| (op.to_string(), program_for(op)))
            .chain([("MAJ".to_string(), MAJ)]);
        for (name, prog) in programs {
            for w in prog.iter().flat_map(RowInst::written) {
                assert!(
                    !matches!(w, RowSlot::Special(SpecialRow::C0 | SpecialRow::C1)),
                    "{name} writes control row {w}"
                );
            }
        }
    }

    #[test]
    fn inputs_are_never_written() {
        // Bulk ops must not clobber their operands (RowClone copies them
        // into the B-group first).
        let programs = BulkOp::ALL
            .iter()
            .map(|&op| (op.to_string(), program_for(op), n_planes(op) - 1))
            .chain([("MAJ".to_string(), MAJ, 3)]);
        for (name, prog, n_inputs) in programs {
            for w in prog.iter().flat_map(RowInst::written) {
                assert!(
                    !matches!(w, RowSlot::Plane(i) if (i as usize) < n_inputs),
                    "{name} writes input {w}"
                );
            }
        }
    }

    #[test]
    fn aap_equivalents_ordering() {
        // Cost in AAP equivalents: AAP-cost instructions count 1, AP-cost
        // TRAs count `ap_cost` (≈ 0.58 on DDR3-1600).
        let ap_cost = 0.58;
        let cost = |op| -> f64 {
            program_for(op)
                .iter()
                .map(|i| if i.is_aap_cost() { 1.0 } else { ap_cost })
                .sum()
        };
        let (not, and) = (cost(BulkOp::Not), cost(BulkOp::And));
        let (nand, xor) = (cost(BulkOp::Nand), cost(BulkOp::Xor));
        assert!(not < and && and < nand && nand < xor);
        assert_eq!(not, 2.0);
        assert_eq!(and, 4.0);
        assert!((xor - (8.0 + 2.0 * ap_cost)).abs() < 1e-12);
    }
}
