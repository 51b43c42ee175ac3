//! The operation-graph IR: element-wise arithmetic over N-bit lanes.
//!
//! A graph is a DAG of lane-wise operations (add/sub/mul, comparisons,
//! bitwise logic, constant shifts, bit reductions) over unsigned integer
//! lanes of up to [`MAX_WIDTH`] bits. Lanes live in *vertical* (bit-sliced
//! / transposed) layout when executed: plane `i` holds bit `i` of every
//! lane, so one DRAM row operation advances one bit position of every lane
//! at once — the SIMDRAM execution model.
//!
//! The graph carries its own *host reference semantics*
//! ([`OpGraph::eval_reference`]): a plain scalar interpreter over `u64`
//! lanes, deliberately independent of the MAJ/NOT lowering so the
//! differential tests compare two separately-derived implementations.

/// Maximum `mul` operand width in bits. `mul` doubles the width, and the
/// reference interpreter works in `u64`, so multiplication operands are
/// capped at 32 bits. Every other operation works up to
/// [`MAX_INPUT_WIDTH`] bits.
pub const MAX_WIDTH: u32 = 32;

/// Maximum lane width of inputs, constants, and results: the reference
/// interpreter's `u64` lanes.
pub const MAX_INPUT_WIDTH: u32 = 64;

/// Handle to a node in an [`OpGraph`] (or an [`OpGraphBuilder`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) u32);

/// One operation of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphOp {
    /// An external input operand.
    Input {
        /// Position among the graph's inputs.
        index: u32,
    },
    /// A constant broadcast to every lane.
    Const {
        /// The lane value (masked to the node width).
        value: u64,
    },
    /// Wrapping addition (same width as the operands).
    Add(NodeId, NodeId),
    /// Wrapping subtraction (same width as the operands).
    Sub(NodeId, NodeId),
    /// Full-precision multiplication: a `w`-bit × `w`-bit → `2w`-bit
    /// product.
    Mul(NodeId, NodeId),
    /// Bitwise AND.
    And(NodeId, NodeId),
    /// Bitwise OR.
    Or(NodeId, NodeId),
    /// Bitwise XOR.
    Xor(NodeId, NodeId),
    /// Bitwise NOT.
    Not(NodeId),
    /// Left shift by a constant (zero fill, same width).
    Shl(NodeId, u32),
    /// Logical right shift by a constant (zero fill, same width).
    Shr(NodeId, u32),
    /// Unsigned `a < b`, one result bit per lane.
    Lt(NodeId, NodeId),
    /// `a == b`, one result bit per lane.
    Eq(NodeId, NodeId),
    /// AND-reduction across the bits of each lane (1 iff the lane is
    /// all-ones).
    ReduceAnd(NodeId),
    /// OR-reduction across the bits of each lane (1 iff the lane is
    /// non-zero).
    ReduceOr(NodeId),
    /// XOR-reduction across the bits of each lane (lane parity).
    ReduceXor(NodeId),
    /// Zero-extension to a wider lane (the node's width; high planes are
    /// constant zero, so widening costs no gates).
    Extend(NodeId),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub(crate) op: GraphOp,
    pub(crate) width: u32,
}

/// An immutable, validated operation graph — build one with
/// [`OpGraphBuilder`], compile it with
/// [`Compiler`](crate::Compiler), or evaluate it on the host with
/// [`OpGraph::eval_reference`].
///
/// Two graphs compare (and hash) equal when they have the same nodes,
/// input widths and outputs, so they compile to the same program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OpGraph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) input_widths: Vec<u32>,
    pub(crate) outputs: Vec<NodeId>,
}

impl OpGraph {
    /// Starts building a graph.
    pub fn builder() -> OpGraphBuilder {
        OpGraphBuilder::new()
    }

    /// Widths of the graph's inputs, in binding order.
    pub fn input_widths(&self) -> &[u32] {
        &self.input_widths
    }

    /// Widths of the graph's outputs, in declaration order.
    pub fn output_widths(&self) -> Vec<u32> {
        self.outputs
            .iter()
            .map(|&n| self.nodes[n.0 as usize].width)
            .collect()
    }

    /// The width of `node`'s value in bits.
    pub fn width(&self, node: NodeId) -> u32 {
        self.nodes[node.0 as usize].width
    }

    /// Number of nodes (for diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Host scalar reference semantics: evaluates the graph lane-wise over
    /// `u64` values, masking every node to its width. `inputs[i]` binds
    /// graph input `i`; all inputs must have the same lane count. Returns
    /// one value vector per declared output.
    ///
    /// Lanes are evaluated 2048 at a time, so every node's
    /// buffer is one block long and the working set stays in cache
    /// however many lanes there are; lanes are independent, so the
    /// result is the same as a whole-column evaluation.
    ///
    /// This interpreter never looks at the MAJ/NOT lowering — it is the
    /// independent oracle the differential tests check compiled programs
    /// against.
    ///
    /// # Panics
    ///
    /// If the input count or lane counts mismatch, or an input value
    /// exceeds its declared width.
    pub fn eval_reference(&self, inputs: &[&[u64]]) -> Vec<Vec<u64>> {
        assert_eq!(inputs.len(), self.input_widths.len(), "input count");
        let lanes = inputs.first().map_or(0, |v| v.len());
        for (i, v) in inputs.iter().enumerate() {
            assert_eq!(v.len(), lanes, "input {i} lane count");
            let mask = width_mask(self.input_widths[i]);
            if let Some(&x) = v.iter().find(|&&x| x & !mask != 0) {
                assert_eq!(x & mask, x, "input {i} value exceeds its width");
            }
        }
        let mut outs: Vec<Vec<u64>> = self
            .outputs
            .iter()
            .map(|_| Vec::with_capacity(lanes))
            .collect();
        // One block-long buffer per node, reused by every block.
        let stride = LANE_BLOCK.min(lanes);
        let mut values = vec![0u64; self.nodes.len() * stride];
        for lo in (0..lanes).step_by(LANE_BLOCK) {
            let n = stride.min(lanes - lo);
            for (i, node) in self.nodes.iter().enumerate() {
                let (done, rest) = values.split_at_mut(i * stride);
                let out = &mut rest[..n];
                let arg = |a: NodeId| &done[a.0 as usize * stride..][..n];
                let mask = width_mask(node.width);
                match node.op {
                    GraphOp::Input { index } => {
                        out.copy_from_slice(&inputs[index as usize][lo..lo + n]);
                    }
                    GraphOp::Const { value } => out.fill(value & mask),
                    GraphOp::Add(a, b) => {
                        map2(out, arg(a), arg(b), |x, y| x.wrapping_add(y) & mask)
                    }
                    GraphOp::Sub(a, b) => {
                        map2(out, arg(a), arg(b), |x, y| x.wrapping_sub(y) & mask)
                    }
                    GraphOp::Mul(a, b) => {
                        map2(out, arg(a), arg(b), |x, y| x.wrapping_mul(y) & mask)
                    }
                    GraphOp::And(a, b) => map2(out, arg(a), arg(b), |x, y| x & y),
                    GraphOp::Or(a, b) => map2(out, arg(a), arg(b), |x, y| x | y),
                    GraphOp::Xor(a, b) => map2(out, arg(a), arg(b), |x, y| x ^ y),
                    GraphOp::Not(a) => map1(out, arg(a), |x| !x & mask),
                    GraphOp::Shl(a, k) => map1(out, arg(a), |x| (x << k) & mask),
                    GraphOp::Shr(a, k) => map1(out, arg(a), |x| x >> k),
                    GraphOp::Lt(a, b) => map2(out, arg(a), arg(b), |x, y| u64::from(x < y)),
                    GraphOp::Eq(a, b) => map2(out, arg(a), arg(b), |x, y| u64::from(x == y)),
                    GraphOp::ReduceAnd(a) => {
                        let m = width_mask(self.nodes[a.0 as usize].width);
                        map1(out, arg(a), |x| u64::from(x == m));
                    }
                    GraphOp::ReduceOr(a) => map1(out, arg(a), |x| u64::from(x != 0)),
                    GraphOp::ReduceXor(a) => map1(out, arg(a), |x| (x.count_ones() as u64) & 1),
                    GraphOp::Extend(a) => out.copy_from_slice(arg(a)),
                }
            }
            for (out, &id) in outs.iter_mut().zip(&self.outputs) {
                out.extend_from_slice(&values[id.0 as usize * stride..][..n]);
            }
        }
        outs
    }
}

/// Lanes per block of [`OpGraph::eval_reference`]: a 16 KiB buffer per
/// node.
pub(crate) const LANE_BLOCK: usize = 2048;

fn map1(out: &mut [u64], a: &[u64], f: impl Fn(u64) -> u64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

fn map2(out: &mut [u64], a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// All-ones mask for a `width`-bit lane.
pub(crate) fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Builds an [`OpGraph`] node by node. Width rules are checked eagerly
/// with panics — mismatched widths are programming errors, not runtime
/// conditions (resource exhaustion, by contrast, surfaces as a typed
/// error at compile time).
#[derive(Debug, Default)]
pub struct OpGraphBuilder {
    nodes: Vec<Node>,
    input_widths: Vec<u32>,
    outputs: Vec<NodeId>,
}

impl OpGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, op: GraphOp, width: u32) -> NodeId {
        assert!(
            (1..=MAX_INPUT_WIDTH).contains(&width),
            "node width {width} out of range"
        );
        let id = NodeId(u32::try_from(self.nodes.len()).expect("graph too large"));
        self.nodes.push(Node { op, width });
        id
    }

    fn width(&self, n: NodeId) -> u32 {
        self.nodes[n.0 as usize].width
    }

    fn same_width(&self, a: NodeId, b: NodeId) -> u32 {
        let (wa, wb) = (self.width(a), self.width(b));
        assert_eq!(wa, wb, "operand widths must match ({wa} vs {wb})");
        wa
    }

    /// Declares a `width`-bit external input (1..=[`MAX_INPUT_WIDTH`]
    /// bits).
    pub fn input(&mut self, width: u32) -> NodeId {
        assert!(
            (1..=MAX_INPUT_WIDTH).contains(&width),
            "input width {width} out of range"
        );
        let index = u32::try_from(self.input_widths.len()).expect("too many inputs");
        self.input_widths.push(width);
        self.push(GraphOp::Input { index }, width)
    }

    /// A `width`-bit constant broadcast to every lane.
    pub fn constant(&mut self, value: u64, width: u32) -> NodeId {
        assert!(
            (1..=MAX_INPUT_WIDTH).contains(&width),
            "const width {width} out of range"
        );
        assert_eq!(
            value & width_mask(width),
            value,
            "constant exceeds its width"
        );
        self.push(GraphOp::Const { value }, width)
    }

    /// Wrapping `a + b` (operands and result share one width).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let w = self.same_width(a, b);
        self.push(GraphOp::Add(a, b), w)
    }

    /// Wrapping `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let w = self.same_width(a, b);
        self.push(GraphOp::Sub(a, b), w)
    }

    /// Full-precision `a * b`: the result is twice the operand width
    /// (operands capped at [`MAX_WIDTH`] bits so the product fits the
    /// reference interpreter's `u64` lanes).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let w = self.same_width(a, b);
        assert!(
            w <= MAX_WIDTH,
            "mul operand width {w} exceeds {MAX_WIDTH} bits"
        );
        self.push(GraphOp::Mul(a, b), 2 * w)
    }

    /// Bitwise `a & b`.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let w = self.same_width(a, b);
        self.push(GraphOp::And(a, b), w)
    }

    /// Bitwise `a | b`.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let w = self.same_width(a, b);
        self.push(GraphOp::Or(a, b), w)
    }

    /// Bitwise `a ^ b`.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let w = self.same_width(a, b);
        self.push(GraphOp::Xor(a, b), w)
    }

    /// Bitwise `!a`.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        let w = self.width(a);
        self.push(GraphOp::Not(a), w)
    }

    /// `a << k` with zero fill (`k` strictly less than the width).
    pub fn shl(&mut self, a: NodeId, k: u32) -> NodeId {
        let w = self.width(a);
        assert!(k < w, "shift {k} out of range for width {w}");
        self.push(GraphOp::Shl(a, k), w)
    }

    /// `a >> k` (logical) with zero fill.
    pub fn shr(&mut self, a: NodeId, k: u32) -> NodeId {
        let w = self.width(a);
        assert!(k < w, "shift {k} out of range for width {w}");
        self.push(GraphOp::Shr(a, k), w)
    }

    /// Unsigned `a < b` — a 1-bit result per lane.
    pub fn lt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.same_width(a, b);
        self.push(GraphOp::Lt(a, b), 1)
    }

    /// `a == b` — a 1-bit result per lane.
    pub fn eq(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.same_width(a, b);
        self.push(GraphOp::Eq(a, b), 1)
    }

    /// AND-reduce the bits of each lane to 1 bit.
    pub fn reduce_and(&mut self, a: NodeId) -> NodeId {
        self.push(GraphOp::ReduceAnd(a), 1)
    }

    /// OR-reduce the bits of each lane to 1 bit.
    pub fn reduce_or(&mut self, a: NodeId) -> NodeId {
        self.push(GraphOp::ReduceOr(a), 1)
    }

    /// XOR-reduce (parity of) the bits of each lane to 1 bit.
    pub fn reduce_xor(&mut self, a: NodeId) -> NodeId {
        self.push(GraphOp::ReduceXor(a), 1)
    }

    /// Zero-extends `a` to `width` bits (free: the high planes are
    /// constant zero). `width` must be at least `a`'s width.
    pub fn extend(&mut self, a: NodeId, width: u32) -> NodeId {
        let w = self.width(a);
        assert!(
            width >= w,
            "extend target {width} narrower than operand width {w}"
        );
        if width == w {
            return a;
        }
        self.push(GraphOp::Extend(a), width)
    }

    /// Declares `node` a program output (outputs may repeat).
    pub fn output(&mut self, node: NodeId) {
        self.outputs.push(node);
    }

    /// Finishes the graph.
    ///
    /// # Panics
    ///
    /// If no output was declared.
    pub fn finish(self) -> OpGraph {
        assert!(!self.outputs.is_empty(), "graph declares no outputs");
        OpGraph {
            nodes: self.nodes,
            input_widths: self.input_widths,
            outputs: self.outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_add_mul_cmp() {
        let mut g = OpGraph::builder();
        let a = g.input(8);
        let b = g.input(8);
        let s = g.add(a, b);
        let p = g.mul(a, b);
        let lt = g.lt(a, b);
        g.output(s);
        g.output(p);
        g.output(lt);
        let g = g.finish();
        let out = g.eval_reference(&[&[200, 0, 255], &[100, 0, 255]]);
        assert_eq!(out[0], vec![(200 + 100) & 0xff, 0, (255 + 255) & 0xff]);
        assert_eq!(out[1], vec![200 * 100, 0, 255 * 255]);
        assert_eq!(out[2], vec![0, 0, 0]);
    }

    #[test]
    fn reference_reductions_and_shifts() {
        let mut g = OpGraph::builder();
        let a = g.input(4);
        let sh = g.shl(a, 1);
        let ra = g.reduce_and(a);
        let ro = g.reduce_or(a);
        let rx = g.reduce_xor(a);
        g.output(sh);
        g.output(ra);
        g.output(ro);
        g.output(rx);
        let g = g.finish();
        let out = g.eval_reference(&[&[0b1111, 0b0000, 0b0101]]);
        assert_eq!(out[0], vec![0b1110, 0, 0b1010]);
        assert_eq!(out[1], vec![1, 0, 0]);
        assert_eq!(out[2], vec![1, 0, 1]);
        assert_eq!(out[3], vec![0, 0, 0]);
    }

    /// A graph that uses every [`GraphOp`], over two 12-bit inputs.
    fn every_op_graph() -> OpGraph {
        let mut g = OpGraph::builder();
        let a = g.input(12);
        let b = g.input(12);
        let c = g.constant(0x5a5, 12);
        let s = g.add(a, c);
        let d = g.sub(s, b);
        let p = g.mul(d, b);
        let x = g.and(a, b);
        let x = g.or(x, c);
        let x = g.xor(x, d);
        let n = g.not(x);
        let l = g.shl(n, 3);
        let r = g.shr(l, 5);
        let lt = g.lt(a, r);
        let eq = g.eq(x, b);
        let ra = g.reduce_and(n);
        let ro = g.reduce_or(r);
        let rx = g.reduce_xor(p);
        let e = g.extend(r, 24);
        for out in [p, lt, eq, ra, ro, rx, e, r] {
            g.output(out);
        }
        g.finish()
    }

    #[test]
    fn blocked_evaluation_equals_lane_by_lane() {
        let g = every_op_graph();
        let b = LANE_BLOCK;
        for lanes in [0, 1, b - 1, b, b + 1, 2 * b + 3] {
            let av: Vec<u64> = (0..lanes as u64)
                .map(|i| (i * 2_654_435_761) >> 7 & 0xfff)
                .collect();
            let bv: Vec<u64> = (0..lanes as u64)
                .map(|i| (i * 40_503 + 17) & 0xfff)
                .collect();
            let got = g.eval_reference(&[&av, &bv]);
            assert_eq!(got.len(), 8, "one vector per output at {lanes} lanes");
            let mut want = vec![Vec::new(); 8];
            for i in 0..lanes {
                let one = g.eval_reference(&[&av[i..=i], &bv[i..=i]]);
                for (w, o) in want.iter_mut().zip(one) {
                    w.extend(o);
                }
            }
            assert_eq!(got, want, "{lanes} lanes");
        }
    }

    #[test]
    #[should_panic(expected = "input 1 value exceeds its width")]
    fn over_width_input_in_a_later_block_panics() {
        let g = every_op_graph();
        let lanes = 2 * LANE_BLOCK + 3;
        let av = vec![1u64; lanes];
        let mut bv = vec![2u64; lanes];
        bv[LANE_BLOCK + 5] = 0x1000;
        let _ = g.eval_reference(&[&av, &bv]);
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn width_mismatch_panics() {
        let mut g = OpGraph::builder();
        let a = g.input(8);
        let b = g.input(4);
        g.add(a, b);
    }
}
