//! The lazy expression DAG behind [`PimTensor`].
//!
//! Tensor operations record nothing but structure: every op returns a new
//! handle pointing into an `Arc`-shared DAG, and no computation happens
//! until a [`TensorSession`](crate::TensorSession) evaluates a root. That
//! is what lets the planner fuse whole chains into single compiled
//! programs instead of materializing every intermediate in DRAM rows.
//!
//! Sharing is physical: using one tensor twice reuses the same node (the
//! planner deduplicates by pointer), so diamond-shaped dataflow fuses
//! without recomputation.

use crate::elem::{PimElem, WidenMul};
use pim_workloads::BitSlicedIntVec;
use std::marker::PhantomData;
use std::ops;
use std::sync::{Arc, Mutex};

/// Binary operations the DAG records (mirroring `pim_simd::GraphOp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Lt,
    Eq,
}

/// Unary operations the DAG records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnOp {
    Not,
    Shl(u32),
    Shr(u32),
    /// Zero-extension to the node's own width.
    Extend,
}

/// A source's lanes: `u64` values until the first evaluation slices
/// them, then only the bit-sliced vector, which every later job shares.
#[derive(Debug)]
pub(crate) struct SourceLanes(Mutex<Lanes>);

#[derive(Debug)]
enum Lanes {
    Values(Vec<u64>),
    Sliced(Arc<BitSlicedIntVec>),
}

impl SourceLanes {
    /// The lanes bit-sliced at `width`; the first call slices them and
    /// drops the `u64` values.
    pub(crate) fn sliced(&self, width: u32) -> Arc<BitSlicedIntVec> {
        let mut lanes = self.0.lock().expect("slicing checked lanes never panics");
        let sliced = match &*lanes {
            Lanes::Sliced(s) => return s.clone(),
            Lanes::Values(vals) => Arc::new(BitSlicedIntVec::from_values(vals, width)),
        };
        *lanes = Lanes::Sliced(sliced.clone());
        sliced
    }
}

/// One DAG node. Widths are fixed at construction; lane counts are a
/// property of the tensor handles, checked when handles combine.
#[derive(Debug)]
pub(crate) enum Expr {
    /// A materialized lane vector (values already masked to `width`).
    Source { lanes: SourceLanes, width: u32 },
    /// The same value in every lane.
    Splat { value: u64, width: u32 },
    /// A binary operation; `width` is the result width.
    Binary {
        op: BinOp,
        a: ExprRef,
        b: ExprRef,
        width: u32,
    },
    /// A unary operation; `width` is the result width.
    Unary { op: UnOp, a: ExprRef, width: u32 },
}

pub(crate) type ExprRef = Arc<Expr>;

impl Expr {
    /// Scalar value of a source-free expression (every lane identical),
    /// masked to the node width — the host path for pure-splat roots,
    /// which have no lane data to size a DRAM job with.
    pub(crate) fn const_value(&self) -> Option<u64> {
        let mask = |w: u32, v: u64| {
            if w >= 64 {
                v
            } else {
                v & ((1u64 << w) - 1)
            }
        };
        match self {
            Expr::Source { .. } => None,
            Expr::Splat { value, width } => Some(mask(*width, *value)),
            Expr::Binary { op, a, b, width } => {
                let (x, y) = (a.const_value()?, b.const_value()?);
                let v = match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Lt => u64::from(x < y),
                    BinOp::Eq => u64::from(x == y),
                };
                Some(mask(*width, v))
            }
            Expr::Unary { op, a, width } => {
                let x = a.const_value()?;
                let v = match op {
                    UnOp::Not => !x,
                    UnOp::Shl(k) => x << k,
                    UnOp::Shr(k) => x >> k,
                    UnOp::Extend => x,
                };
                Some(mask(*width, v))
            }
        }
    }
}

/// A typed, lazily-evaluated lane vector destined for bit-serial
/// execution in DRAM.
///
/// Handles are cheap to clone (`Arc`-backed) and record operations
/// without computing: `(&a + &b) ^ &c` builds a three-node DAG. A
/// [`TensorSession`](crate::TensorSession) evaluates roots by fusing the
/// DAG into compiled row programs, tiling lanes across banks, and placing
/// each job through the runtime's offload advisor.
#[derive(Debug, Clone)]
pub struct PimTensor<T: PimElem> {
    pub(crate) expr: ExprRef,
    pub(crate) len: usize,
    _elem: PhantomData<T>,
}

/// A 1-bit lane mask produced by comparisons, consumed by
/// [`PimMask::select`] or counted by
/// [`TensorSession::count_ones`](crate::TensorSession::count_ones).
#[derive(Debug, Clone)]
pub struct PimMask {
    pub(crate) expr: ExprRef,
    pub(crate) len: usize,
}

impl<T: PimElem> PimTensor<T> {
    pub(crate) fn wrap(expr: ExprRef, len: usize) -> Self {
        PimTensor {
            expr,
            len,
            _elem: PhantomData,
        }
    }

    /// A tensor over `data`'s values.
    pub fn from_slice(data: &[T]) -> Self {
        let vals = data.iter().map(|v| v.to_u64()).collect();
        Self::source(Lanes::Values(vals), data.len())
    }

    /// A tensor over pre-converted `u64` lane values.
    ///
    /// # Panics
    ///
    /// Panics if any value exceeds `T`'s width.
    pub fn from_u64_values(vals: Vec<u64>) -> Self {
        assert!(
            vals.iter().all(|&v| v <= T::MAX_U64),
            "lane value exceeds {} bits",
            T::BITS
        );
        let len = vals.len();
        Self::source(Lanes::Values(vals), len)
    }

    /// A tensor over lanes already bit-sliced at `T`'s width.
    pub(crate) fn from_sliced(sliced: BitSlicedIntVec) -> Self {
        assert_eq!(
            sliced.bits(),
            T::BITS,
            "sliced lanes must be {} bits",
            T::BITS
        );
        let len = sliced.len();
        Self::source(Lanes::Sliced(Arc::new(sliced)), len)
    }

    fn source(lanes: Lanes, len: usize) -> Self {
        let expr = Arc::new(Expr::Source {
            lanes: SourceLanes(Mutex::new(lanes)),
            width: T::BITS,
        });
        Self::wrap(expr, len)
    }

    /// A tensor holding `value` in every one of `len` lanes.
    pub fn splat(value: T, len: usize) -> Self {
        let expr = Arc::new(Expr::Splat {
            value: value.to_u64(),
            width: T::BITS,
        });
        Self::wrap(expr, len)
    }

    /// Lane count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the tensor has no lanes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lane width in bits.
    pub fn bits(&self) -> u32 {
        T::BITS
    }

    fn binary(&self, other: &Self, op: BinOp) -> Self {
        assert_eq!(self.len, other.len, "lane count mismatch in tensor op");
        let expr = Arc::new(Expr::Binary {
            op,
            a: self.expr.clone(),
            b: other.expr.clone(),
            width: T::BITS,
        });
        Self::wrap(expr, self.len)
    }

    fn compare(&self, other: &Self, op: BinOp) -> PimMask {
        assert_eq!(self.len, other.len, "lane count mismatch in comparison");
        PimMask {
            expr: Arc::new(Expr::Binary {
                op,
                a: self.expr.clone(),
                b: other.expr.clone(),
                width: 1,
            }),
            len: self.len,
        }
    }

    /// Lane-wise `self < other` as a 1-bit mask.
    pub fn lt(&self, other: &Self) -> PimMask {
        self.compare(other, BinOp::Lt)
    }

    /// Lane-wise `self == other` as a 1-bit mask.
    pub fn eq_mask(&self, other: &Self) -> PimMask {
        self.compare(other, BinOp::Eq)
    }

    /// Zero-extends every lane to the (equal or wider) type `U`.
    pub fn widen<U: PimElem>(&self) -> PimTensor<U> {
        assert!(
            U::BITS >= T::BITS,
            "widen target {} narrower than {}",
            U::BITS,
            T::BITS
        );
        if U::BITS == T::BITS {
            return PimTensor::wrap(self.expr.clone(), self.len);
        }
        PimTensor::wrap(
            Arc::new(Expr::Unary {
                op: UnOp::Extend,
                a: self.expr.clone(),
                width: U::BITS,
            }),
            self.len,
        )
    }

    /// Left-shift every lane by `k` bits (zeros shift in; high bits drop).
    pub fn shl(&self, k: u32) -> Self {
        assert!(k < T::BITS, "shift {k} out of range for {} bits", T::BITS);
        Self::wrap(
            Arc::new(Expr::Unary {
                op: UnOp::Shl(k),
                a: self.expr.clone(),
                width: T::BITS,
            }),
            self.len,
        )
    }

    /// Right-shift every lane by `k` bits.
    pub fn shr(&self, k: u32) -> Self {
        assert!(k < T::BITS, "shift {k} out of range for {} bits", T::BITS);
        Self::wrap(
            Arc::new(Expr::Unary {
                op: UnOp::Shr(k),
                a: self.expr.clone(),
                width: T::BITS,
            }),
            self.len,
        )
    }

    /// Records `f` over this tensor — the iterator-style spelling of
    /// building an expression directly (`t.map(|x| x ^ k)` and `&t ^ &k`
    /// are the same DAG).
    pub fn map<U: PimElem>(&self, f: impl FnOnce(&Self) -> PimTensor<U>) -> PimTensor<U> {
        f(self)
    }

    /// Records `f` over two tensors lane-wise.
    pub fn zip_map<U2: PimElem, V: PimElem>(
        &self,
        other: &PimTensor<U2>,
        f: impl FnOnce(&Self, &PimTensor<U2>) -> PimTensor<V>,
    ) -> PimTensor<V> {
        assert_eq!(self.len, other.len, "lane count mismatch in zip_map");
        f(self, other)
    }
}

impl PimMask {
    /// Lane count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the mask has no lanes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lane-wise `if mask { a } else { b }`.
    ///
    /// Lowered branch-free, the way bit-serial hardware has to: the mask
    /// is widened then negated (two's-complement) into an all-ones/
    /// all-zeros word, and the arms blend through AND/OR.
    pub fn select<T: PimElem>(&self, a: &PimTensor<T>, b: &PimTensor<T>) -> PimTensor<T> {
        assert_eq!(self.len, a.len, "mask/arm lane count mismatch");
        assert_eq!(a.len, b.len, "arm lane count mismatch");
        let w = T::BITS;
        let wide = if w == 1 {
            self.expr.clone()
        } else {
            Arc::new(Expr::Unary {
                op: UnOp::Extend,
                a: self.expr.clone(),
                width: w,
            })
        };
        // 0 - mask = all-ones where the mask is set.
        let zero = Arc::new(Expr::Splat { value: 0, width: w });
        let m = Arc::new(Expr::Binary {
            op: BinOp::Sub,
            a: zero,
            b: wide,
            width: w,
        });
        let not_m = Arc::new(Expr::Unary {
            op: UnOp::Not,
            a: m.clone(),
            width: w,
        });
        let a_arm = Arc::new(Expr::Binary {
            op: BinOp::And,
            a: a.expr.clone(),
            b: m,
            width: w,
        });
        let b_arm = Arc::new(Expr::Binary {
            op: BinOp::And,
            a: b.expr.clone(),
            b: not_m,
            width: w,
        });
        PimTensor::wrap(
            Arc::new(Expr::Binary {
                op: BinOp::Or,
                a: a_arm,
                b: b_arm,
                width: w,
            }),
            self.len,
        )
    }

    /// Logical AND of two masks.
    pub fn and(&self, other: &PimMask) -> PimMask {
        assert_eq!(self.len, other.len, "mask lane count mismatch");
        PimMask {
            expr: Arc::new(Expr::Binary {
                op: BinOp::And,
                a: self.expr.clone(),
                b: other.expr.clone(),
                width: 1,
            }),
            len: self.len,
        }
    }

    /// Logical complement.
    pub fn not(&self) -> PimMask {
        PimMask {
            expr: Arc::new(Expr::Unary {
                op: UnOp::Not,
                a: self.expr.clone(),
                width: 1,
            }),
            len: self.len,
        }
    }
}

macro_rules! bin_impl {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<T: PimElem> ops::$trait for &PimTensor<T> {
            type Output = PimTensor<T>;
            fn $method(self, rhs: &PimTensor<T>) -> PimTensor<T> {
                self.binary(rhs, $op)
            }
        }
        impl<T: PimElem> ops::$trait for PimTensor<T> {
            type Output = PimTensor<T>;
            fn $method(self, rhs: PimTensor<T>) -> PimTensor<T> {
                self.binary(&rhs, $op)
            }
        }
    };
}

bin_impl!(Add, add, BinOp::Add);
bin_impl!(Sub, sub, BinOp::Sub);
bin_impl!(BitAnd, bitand, BinOp::And);
bin_impl!(BitOr, bitor, BinOp::Or);
bin_impl!(BitXor, bitxor, BinOp::Xor);

/// Widening multiply: the product of two `T` tensors is a `T::Wide`
/// tensor, exactly — the shape the bit-serial multiplier produces.
impl<T: WidenMul> ops::Mul for &PimTensor<T> {
    type Output = PimTensor<T::Wide>;
    fn mul(self, rhs: &PimTensor<T>) -> PimTensor<T::Wide> {
        assert_eq!(self.len, rhs.len, "lane count mismatch in multiply");
        PimTensor::wrap(
            Arc::new(Expr::Binary {
                op: BinOp::Mul,
                a: self.expr.clone(),
                b: rhs.expr.clone(),
                width: <T::Wide as PimElem>::BITS,
            }),
            self.len,
        )
    }
}

impl<T: WidenMul> ops::Mul for PimTensor<T> {
    type Output = PimTensor<T::Wide>;
    fn mul(self, rhs: PimTensor<T>) -> PimTensor<T::Wide> {
        &self * &rhs
    }
}

impl<T: PimElem> ops::Not for &PimTensor<T> {
    type Output = PimTensor<T>;
    fn not(self) -> PimTensor<T> {
        PimTensor::wrap(
            Arc::new(Expr::Unary {
                op: UnOp::Not,
                a: self.expr.clone(),
                width: T::BITS,
            }),
            self.len,
        )
    }
}

impl<T: PimElem> ops::Shl<u32> for &PimTensor<T> {
    type Output = PimTensor<T>;
    fn shl(self, k: u32) -> PimTensor<T> {
        PimTensor::shl(self, k)
    }
}

impl<T: PimElem> ops::Shr<u32> for &PimTensor<T> {
    type Output = PimTensor<T>;
    fn shr(self, k: u32) -> PimTensor<T> {
        PimTensor::shr(self, k)
    }
}
