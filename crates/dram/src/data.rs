//! Functional storage of DRAM row contents.
//!
//! The timing model and the functional model are deliberately separated: the
//! [`Device`](crate::device::Device) enforces *when* commands may issue, and
//! this module records *what* the rows contain. Rows are allocated lazily —
//! untouched rows read as all-zero — so simulating a multi-gigabyte device
//! costs memory only for the rows actually used.
//!
//! ## Arena layout
//!
//! Row payloads live in per-bank arenas: one dense `Vec<u64>` slab per
//! materialized bank, slot-major (`slot * row_words ..`), with a compact
//! row→slot table in front of it. Banks with few materialized rows use a
//! small open-addressing `FastRowMap` (one multiply + a short linear
//! probe — no SipHash anywhere on the datapath); once a bank accumulates
//! more than `SPARSE_MAX` rows the table is promoted to a dense `Vec<u32>`
//! indexed directly by row number. The result is that the bulk-bitwise hot
//! loops ([`DataStore::majority3`], [`DataStore::not_row`],
//! [`DataStore::copy_row`], [`DataStore::fill_row`]) resolve each operand
//! row *once* and then run as straight slice loops, instead of paying a
//! hash lookup per 64-bit word as the original `HashMap<RowId, Box<[u64]>>`
//! store did.
//!
//! ## Multi-row borrow rules
//!
//! [`DataStore::row_pair_mut`] and [`DataStore::row_triple_mut`] hand out
//! disjoint mutable slices over rows of the arena:
//!
//! * all requested rows must be **distinct** (aliasing panics — callers
//!   that may alias, like [`DataStore::majority3`], special-case aliases
//!   *before* borrowing);
//! * `row_triple_mut` additionally requires all three rows in **one bank**
//!   (a triple-row activation is a subarray-local operation, so this is
//!   the only case the hot path needs);
//! * borrowing materializes the rows first (zero-filled), so the returned
//!   slices are always full rows.
//!
//! A reusable scratch row ([`DataStore`] keeps one, `row_words` long) backs
//! the rare cross-bank `majority3` fallback, so even that path allocates
//! nothing in steady state.

use crate::types::{BankId, RowId};
use std::cell::Cell;

/// Sentinel slot meaning "row not materialized".
const NO_SLOT: u32 = u32::MAX;

/// Materialized-row count past which a bank's row→slot table is promoted
/// from the sparse fast-hash map to a dense direct-indexed table.
const SPARSE_MAX: usize = 128;

/// Factor by which a full bank slab's capacity grows. Growing 4-fold
/// instead of `Vec`'s 2-fold halves the reallocations (each copies the
/// whole slab) and the heap holes they leave. The spare capacity is never
/// written, so it costs address space, not resident memory. It also helps
/// callers that build and drop a simulator per request: glibc's heap trim
/// threshold follows the largest block freed, so a roomier slab keeps the
/// next build's transient buffers inside the retained heap instead of
/// trimming it and re-faulting its pages on every build.
const SLAB_GROWTH: usize = 4;

/// Open-addressing row→slot map with multiplicative (Fibonacci) hashing —
/// the table for sparsely-touched banks. Lookups cost one multiply, one
/// shift, and a short linear probe; there is no per-process seed, so
/// behavior is identical across runs and threads.
#[derive(Debug, Clone)]
struct FastRowMap {
    /// `(row, slot)` cells; vacant cells hold `slot == NO_SLOT`.
    cells: Vec<(u32, u32)>,
    len: usize,
}

impl FastRowMap {
    fn new() -> Self {
        FastRowMap {
            cells: vec![(0, NO_SLOT); 16],
            len: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.cells.len() - 1
    }

    #[inline]
    fn home(&self, row: u32) -> usize {
        (((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as usize & self.mask()
    }

    #[inline]
    fn get(&self, row: u32) -> Option<u32> {
        let mut i = self.home(row);
        loop {
            let (r, s) = self.cells[i];
            if s == NO_SLOT {
                return None;
            }
            if r == row {
                return Some(s);
            }
            i = (i + 1) & self.mask();
        }
    }

    /// Inserts a key known to be absent.
    fn insert(&mut self, row: u32, slot: u32) {
        if (self.len + 1) * 4 >= self.cells.len() * 3 {
            self.grow();
        }
        let mut i = self.home(row);
        while self.cells[i].1 != NO_SLOT {
            i = (i + 1) & self.mask();
        }
        self.cells[i] = (row, slot);
        self.len += 1;
    }

    fn grow(&mut self) {
        let doubled = self.cells.len() * 2;
        let old = std::mem::replace(&mut self.cells, vec![(0, NO_SLOT); doubled]);
        for (row, slot) in old {
            if slot != NO_SLOT {
                let mut i = self.home(row);
                while self.cells[i].1 != NO_SLOT {
                    i = (i + 1) & self.mask();
                }
                self.cells[i] = (row, slot);
            }
        }
    }
}

/// Row→slot table of one bank arena.
#[derive(Debug, Clone)]
enum RowTable {
    /// Fast-hash map for banks with few materialized rows.
    Sparse(FastRowMap),
    /// Dense table indexed directly by row number (`NO_SLOT` = absent).
    Dense(Vec<u32>),
}

/// One bank's materialized rows: a slot-major `u64` slab plus the
/// row→slot table.
#[derive(Debug, Clone)]
struct BankRows {
    bank: BankId,
    /// Slot-major payloads: slot `s` occupies `words[s*row_words..][..row_words]`.
    words: Vec<u64>,
    /// Slot → row index (the table's inverse; drives promotion).
    slot_rows: Vec<u32>,
    table: RowTable,
}

impl BankRows {
    fn new(bank: BankId) -> Self {
        BankRows {
            bank,
            words: Vec::new(),
            slot_rows: Vec::new(),
            table: RowTable::Sparse(FastRowMap::new()),
        }
    }

    #[inline]
    fn slot_of(&self, row: u32) -> Option<usize> {
        match &self.table {
            RowTable::Sparse(m) => m.get(row).map(|s| s as usize),
            RowTable::Dense(t) => match t.get(row as usize) {
                Some(&s) if s != NO_SLOT => Some(s as usize),
                _ => None,
            },
        }
    }

    /// Slot of `row`, materializing it (zero-filled) if needed.
    fn materialize(&mut self, row: u32, row_words: usize) -> usize {
        if let Some(s) = self.slot_of(row) {
            return s;
        }
        let slot = self.new_slot(row, row_words);
        self.words.resize(self.words.len() + row_words, 0);
        slot
    }

    /// Reserves the next slot for `row` (growing the slab's capacity
    /// [`SLAB_GROWTH`]-fold when it is full) and records it in the row
    /// table. The caller must append exactly `row_words` words to
    /// `self.words` — this split is what lets the bulk ops
    /// allocate-and-fill in one pass (`resize` with the fill value,
    /// `extend_from_within` for same-slab copies) instead of zeroing fresh
    /// slots and immediately overwriting them.
    fn new_slot(&mut self, row: u32, row_words: usize) -> usize {
        if self.words.len() + row_words > self.words.capacity() {
            let grow = ((SLAB_GROWTH - 1) * self.words.capacity()).max(row_words);
            self.words.reserve_exact(grow);
        }
        let slot = self.slot_rows.len();
        self.slot_rows.push(row);
        match &mut self.table {
            RowTable::Sparse(m) => {
                m.insert(row, slot as u32);
                if m.len > SPARSE_MAX {
                    self.promote();
                }
            }
            RowTable::Dense(t) => {
                if row as usize >= t.len() {
                    t.resize((row as usize + 1).next_power_of_two(), NO_SLOT);
                }
                t[row as usize] = slot as u32;
            }
        }
        slot
    }

    fn promote(&mut self) {
        let max_row = self.slot_rows.iter().copied().max().unwrap_or(0) as usize;
        let mut t = vec![NO_SLOT; (max_row + 1).next_power_of_two()];
        for (slot, &row) in self.slot_rows.iter().enumerate() {
            t[row as usize] = slot as u32;
        }
        self.table = RowTable::Dense(t);
    }

    #[inline]
    fn row(&self, row: u32, row_words: usize) -> Option<&[u64]> {
        self.slot_of(row)
            .map(|s| &self.words[s * row_words..(s + 1) * row_words])
    }
}

/// Fills `dst` with `word`.
///
/// `slice::fill` only lowers to `memset` when LLVM can prove the pattern is
/// a compile-time byte splat; with a runtime `word` it emits a scalar store
/// loop instead, which measured ~2× slower than `memset` on 1024-word rows.
/// Every fill the engine actually issues (C0 zeros, C1 all-ones) *is* a
/// byte splat, so dispatch those to a real `memset`; the rest keep the
/// vectorized splat-store loop `slice::fill` compiles to.
#[inline]
fn fill_words(dst: &mut [u64], word: u64) {
    let b = word as u8;
    if word == u64::from_ne_bytes([b; 8]) {
        // SAFETY: `dst` is a valid, exclusive `&mut [u64]`; writing
        // `dst.len() * 8` bytes of `b` through its pointer stays in bounds
        // and produces exactly `word` in every element.
        unsafe { std::ptr::write_bytes(dst.as_mut_ptr(), b, dst.len()) };
    } else {
        dst.fill(word);
    }
}

/// Arena-backed store of materialized DRAM rows (64-bit words).
#[derive(Debug, Clone, Default)]
pub struct DataStore {
    banks: Vec<BankRows>,
    row_words: usize,
    /// One-entry bank-lookup cache. The Ambit engine issues long streaks
    /// of same-bank commands, so this hits nearly always.
    last_bank: Cell<usize>,
    /// Reusable scratch row for the cross-bank `majority3` fallback.
    scratch: Vec<u64>,
}

impl DataStore {
    /// Creates a store for rows of `row_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `row_bytes` is zero or not a multiple of 8.
    pub fn new(row_bytes: u64) -> Self {
        assert!(
            row_bytes > 0 && row_bytes.is_multiple_of(8),
            "row size must be a positive multiple of 8"
        );
        DataStore {
            banks: Vec::new(),
            row_words: (row_bytes / 8) as usize,
            last_bank: Cell::new(usize::MAX),
            scratch: Vec::new(),
        }
    }

    /// Number of 64-bit words per row.
    pub fn row_words(&self) -> usize {
        self.row_words
    }

    /// Number of rows that have been materialized.
    pub fn allocated_rows(&self) -> usize {
        self.banks.iter().map(|b| b.slot_rows.len()).sum()
    }

    /// Number of banks that have at least one materialized row.
    pub fn allocated_banks(&self) -> usize {
        self.banks.len()
    }

    #[inline]
    fn bank_index(&self, bank: BankId) -> Option<usize> {
        let hint = self.last_bank.get();
        if let Some(b) = self.banks.get(hint) {
            if b.bank == bank {
                return Some(hint);
            }
        }
        let idx = self.banks.iter().position(|b| b.bank == bank)?;
        self.last_bank.set(idx);
        Some(idx)
    }

    /// Arena index for `bank`, creating an empty arena if needed.
    fn bank_index_mut(&mut self, bank: BankId) -> usize {
        match self.bank_index(bank) {
            Some(i) => i,
            None => {
                self.banks.push(BankRows::new(bank));
                let i = self.banks.len() - 1;
                self.last_bank.set(i);
                i
            }
        }
    }

    /// `(arena, slot)` of `row`, materializing it (zero-filled) if needed.
    #[inline]
    fn materialize(&mut self, row: RowId) -> (usize, usize) {
        let words = self.row_words;
        let b = self.bank_index_mut(row.bank_id());
        let slot = self.banks[b].materialize(row.row, words);
        (b, slot)
    }

    /// Returns the contents of `row`, or `None` if the row was never
    /// materialized (i.e. it still reads as all-zero).
    pub fn row(&self, row: RowId) -> Option<&[u64]> {
        self.bank_index(row.bank_id())
            .and_then(|b| self.banks[b].row(row.row, self.row_words))
    }

    /// Returns a mutable reference to `row`, materializing it (zero-filled)
    /// if needed.
    pub fn row_mut(&mut self, row: RowId) -> &mut [u64] {
        let words = self.row_words;
        let (b, slot) = self.materialize(row);
        &mut self.banks[b].words[slot * words..(slot + 1) * words]
    }

    /// Disjoint mutable views of two distinct rows, materializing both.
    /// The rows may live in different banks.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn row_pair_mut(&mut self, a: RowId, b: RowId) -> (&mut [u64], &mut [u64]) {
        assert_ne!(a, b, "row_pair_mut requires distinct rows");
        let words = self.row_words;
        let (ba, sa) = self.materialize(a);
        let (bb, sb) = self.materialize(b);
        if ba == bb {
            let ws = &mut self.banks[ba].words;
            split_two(ws, sa * words, sb * words, words)
        } else {
            let (lo_i, hi_i) = (ba.min(bb), ba.max(bb));
            let (lo, hi) = self.banks.split_at_mut(hi_i);
            let lo_slice = {
                let s = if ba == lo_i { sa } else { sb };
                &mut lo[lo_i].words[s * words..(s + 1) * words]
            };
            let hi_slice = {
                let s = if ba == lo_i { sb } else { sa };
                &mut hi[0].words[s * words..(s + 1) * words]
            };
            if ba == lo_i {
                (lo_slice, hi_slice)
            } else {
                (hi_slice, lo_slice)
            }
        }
    }

    /// Disjoint mutable views of three distinct rows of **one bank**,
    /// materializing all three — the triple-row-activation borrow.
    ///
    /// # Panics
    ///
    /// Panics if any two rows alias or the rows span banks.
    pub fn row_triple_mut(
        &mut self,
        a: RowId,
        b: RowId,
        c: RowId,
    ) -> (&mut [u64], &mut [u64], &mut [u64]) {
        assert!(
            a.bank_id() == b.bank_id() && a.bank_id() == c.bank_id(),
            "row_triple_mut requires one bank (TRA is subarray-local)"
        );
        assert!(
            a != b && a != c && b != c,
            "row_triple_mut requires distinct rows"
        );
        let words = self.row_words;
        let (bank, sa) = self.materialize(a);
        let sb = self.banks[bank].materialize(b.row, words);
        let sc = self.banks[bank].materialize(c.row, words);
        let offs = [sa * words, sb * words, sc * words];
        let ws = &mut self.banks[bank].words;
        // Split at the two larger offsets, then map the pieces back to
        // (a, b, c) order.
        let mut order = [0usize, 1, 2];
        order.sort_unstable_by_key(|&i| offs[i]);
        let (lo, rest) = ws.split_at_mut(offs[order[1]]);
        let (mid, hi) = rest.split_at_mut(offs[order[2]] - offs[order[1]]);
        let s0 = &mut lo[offs[order[0]]..offs[order[0]] + words];
        let s1 = &mut mid[..words];
        let s2 = &mut hi[..words];
        let mut out = [Some(s0), Some(s1), Some(s2)];
        let mut pick = |tag: usize| {
            let pos = order.iter().position(|&o| o == tag).expect("tag in order");
            out[pos].take().expect("each piece taken once")
        };
        let (ra, rb, rc) = (pick(0), pick(1), pick(2));
        (ra, rb, rc)
    }

    /// Reads word `idx` of `row` (zero if the row is unmaterialized).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= row_words()`.
    pub fn read_word(&self, row: RowId, idx: usize) -> u64 {
        assert!(idx < self.row_words, "word index {idx} out of row bounds");
        self.row(row).map_or(0, |r| r[idx])
    }

    /// Writes word `idx` of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= row_words()`.
    pub fn write_word(&mut self, row: RowId, idx: usize, value: u64) {
        assert!(idx < self.row_words, "word index {idx} out of row bounds");
        self.row_mut(row)[idx] = value;
    }

    /// Copies the full contents of `src` into `dst` (RowClone semantics).
    /// A self-copy is a no-op; copying an unmaterialized source zeroes the
    /// destination without materializing the source.
    ///
    /// Each row is located exactly once, and a fresh destination is
    /// allocated-and-copied in one pass (`extend_from_within` on the shared
    /// slab, `extend_from_slice` across banks) instead of being zeroed and
    /// immediately overwritten.
    #[inline]
    pub fn copy_row(&mut self, src: RowId, dst: RowId) {
        if src == dst {
            return;
        }
        let words = self.row_words;
        let src_loc = self
            .bank_index(src.bank_id())
            .and_then(|b| self.banks[b].slot_of(src.row).map(|s| (b, s)));
        let Some((sb, ss)) = src_loc else {
            // Unmaterialized source: zero the destination in place if it
            // exists; neither row materializes.
            if let Some(b) = self.bank_index(dst.bank_id()) {
                if let Some(slot) = self.banks[b].slot_of(dst.row) {
                    self.banks[b].words[slot * words..(slot + 1) * words].fill(0);
                }
            }
            return;
        };
        if src.bank_id() == dst.bank_id() {
            let bank = &mut self.banks[sb];
            match bank.slot_of(dst.row) {
                Some(ds) => {
                    let (s, d) = split_two(&mut bank.words, ss * words, ds * words, words);
                    d.copy_from_slice(s);
                }
                None => {
                    bank.new_slot(dst.row, words);
                    bank.words.extend_from_within(ss * words..(ss + 1) * words);
                }
            }
        } else {
            // `bank_index_mut` may push a new arena; existing indices stay
            // valid, so `sb` still names the source bank afterwards.
            let db = self.bank_index_mut(dst.bank_id());
            debug_assert_ne!(sb, db, "distinct BankIds map to distinct arenas");
            let (lo_i, hi_i) = (sb.min(db), sb.max(db));
            let (lo, hi) = self.banks.split_at_mut(hi_i);
            let (src_bank, dst_bank) = if sb == lo_i {
                (&lo[lo_i], &mut hi[0])
            } else {
                (&hi[0], &mut lo[lo_i])
            };
            let s = &src_bank.words[ss * words..(ss + 1) * words];
            match dst_bank.slot_of(dst.row) {
                Some(ds) => dst_bank.words[ds * words..(ds + 1) * words].copy_from_slice(s),
                None => {
                    dst_bank.new_slot(dst.row, words);
                    dst_bank.words.extend_from_slice(s);
                }
            }
        }
    }

    /// Fills `row` with `word` repeated (bulk initialization). Zero-filling
    /// a row that was never materialized is a no-op; a nonzero fill of a
    /// fresh row allocates-and-fills in one pass instead of zeroing first.
    #[inline]
    pub fn fill_row(&mut self, row: RowId, word: u64) {
        let words = self.row_words;
        if word == 0 {
            // Zero-fill only touches rows that already exist
            // (unmaterialized rows read as zero anyway).
            if let Some(b) = self.bank_index(row.bank_id()) {
                if let Some(slot) = self.banks[b].slot_of(row.row) {
                    self.banks[b].words[slot * words..(slot + 1) * words].fill(0);
                }
            }
            return;
        }
        let b = self.bank_index_mut(row.bank_id());
        let bank = &mut self.banks[b];
        match bank.slot_of(row.row) {
            Some(slot) => fill_words(&mut bank.words[slot * words..(slot + 1) * words], word),
            None => {
                bank.new_slot(row.row, words);
                let len = bank.words.len();
                bank.words.resize(len + words, word);
            }
        }
    }

    /// Computes the bitwise majority of three rows and stores it into **all
    /// three** rows (triple-row-activation semantics: charge sharing leaves
    /// the majority value in every participating cell).
    ///
    /// Aliased operands are handled (`MAJ(x, x, z) = x`); the same-bank
    /// case — the only one a real TRA can produce — runs as a single
    /// three-slice loop with no allocation.
    pub fn majority3(&mut self, a: RowId, b: RowId, c: RowId) {
        // Aliases collapse to copies: two aliased operands outvote the third.
        if a == b && b == c {
            return;
        }
        if a == b {
            return self.copy_row(a, c);
        }
        if a == c {
            return self.copy_row(a, b);
        }
        if b == c {
            return self.copy_row(b, a);
        }
        if a.bank_id() == b.bank_id() && a.bank_id() == c.bank_id() {
            // The triple zip is the *fastest* loop shape here, not the
            // naive one: bounds-check-free lockstep iteration that LLVM
            // unrolls into wide SIMD loads/stores. Manually chunked
            // variants (`chunks_exact_mut(4)` with indexed bodies)
            // measured ~2× slower — keep this shape.
            let (x, y, z) = self.row_triple_mut(a, b, c);
            for ((xw, yw), zw) in x.iter_mut().zip(y.iter_mut()).zip(z.iter_mut()) {
                let m = (*xw & *yw) | (*yw & *zw) | (*xw & *zw);
                *xw = m;
                *yw = m;
                *zw = m;
            }
        } else {
            // Cross-bank fallback (never produced by real TRA commands):
            // compute into the reusable scratch row, then store.
            let mut scratch = std::mem::take(&mut self.scratch);
            scratch.clear();
            scratch.resize(self.row_words, 0);
            for (i, slot) in scratch.iter_mut().enumerate() {
                let (x, y, z) = (
                    self.read_word(a, i),
                    self.read_word(b, i),
                    self.read_word(c, i),
                );
                *slot = (x & y) | (y & z) | (x & z);
            }
            for row in [a, b, c] {
                self.write_row(row, &scratch);
            }
            self.scratch = scratch;
        }
    }

    /// Writes the bitwise NOT of `src` into `dst` (dual-contact-cell
    /// semantics of Ambit-NOT). `src == dst` inverts the row in place.
    pub fn not_row(&mut self, src: RowId, dst: RowId) {
        // Lockstep zip iteration, same reasoning as `majority3`: this is
        // the shape LLVM turns into unrolled SIMD; manual chunking loses.
        if src == dst {
            for w in self.row_mut(dst) {
                *w = !*w;
            }
        } else {
            let (s, d) = self.row_pair_mut(src, dst);
            for (dw, sw) in d.iter_mut().zip(s.iter()) {
                *dw = !*sw;
            }
        }
    }

    /// Reads the full row into a fresh vector (all-zero if unmaterialized).
    pub fn read_row(&self, row: RowId) -> Vec<u64> {
        match self.row(row) {
            Some(data) => data.to_vec(),
            None => vec![0u64; self.row_words],
        }
    }

    /// Appends the row's first `words` words to `out` (zeros if
    /// unmaterialized) without allocating a temporary.
    ///
    /// # Panics
    ///
    /// Panics if `words > row_words()`.
    pub fn append_row(&self, row: RowId, words: usize, out: &mut Vec<u64>) {
        assert!(words <= self.row_words, "row prefix longer than a row");
        match self.row(row) {
            Some(data) => out.extend_from_slice(&data[..words]),
            None => out.resize(out.len() + words, 0),
        }
    }

    /// Overwrites the full row from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != row_words()`.
    pub fn write_row(&mut self, row: RowId, data: &[u64]) {
        assert_eq!(data.len(), self.row_words, "row data length mismatch");
        self.row_mut(row).copy_from_slice(data);
    }

    /// Overwrites `row` from a possibly-short slice, zero-filling the tail
    /// (the bulk-vector write path's last chunk).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() > row_words()`.
    pub fn write_row_from(&mut self, row: RowId, data: &[u64]) {
        assert!(data.len() <= self.row_words, "row data length mismatch");
        let dst = self.row_mut(row);
        dst[..data.len()].copy_from_slice(data);
        dst[data.len()..].fill(0);
    }

    /// Drops all materialized rows (everything reads as zero again).
    pub fn clear(&mut self) {
        self.banks.clear();
        self.last_bank.set(usize::MAX);
    }
}

/// Two disjoint `n`-word ranges of `ws` starting at distinct offsets.
fn split_two(ws: &mut [u64], o1: usize, o2: usize, n: usize) -> (&mut [u64], &mut [u64]) {
    debug_assert_ne!(o1, o2);
    if o1 < o2 {
        let (lo, hi) = ws.split_at_mut(o2);
        (&mut lo[o1..o1 + n], &mut hi[..n])
    } else {
        let (lo, hi) = ws.split_at_mut(o1);
        (&mut hi[..n], &mut lo[o2..o2 + n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> DataStore {
        DataStore::new(64) // 8 words per row for brevity
    }

    fn rid(row: u32) -> RowId {
        RowId::new(0, 0, 0, row)
    }

    #[test]
    fn lazy_rows_read_zero() {
        let s = store();
        assert_eq!(s.read_word(rid(5), 0), 0);
        assert!(s.row(rid(5)).is_none());
        assert_eq!(s.allocated_rows(), 0);
        assert_eq!(s.read_row(rid(5)), vec![0u64; 8]);
    }

    #[test]
    fn write_then_read() {
        let mut s = store();
        s.write_word(rid(1), 3, 0xdead_beef);
        assert_eq!(s.read_word(rid(1), 3), 0xdead_beef);
        assert_eq!(s.read_word(rid(1), 2), 0);
        assert_eq!(s.allocated_rows(), 1);
        assert_eq!(s.allocated_banks(), 1);
    }

    #[test]
    fn copy_row_materialized_and_zero() {
        let mut s = store();
        s.write_word(rid(1), 0, 7);
        s.copy_row(rid(1), rid(2));
        assert_eq!(s.read_word(rid(2), 0), 7);
        // Copying an all-zero row over a dirty row zeroes it.
        s.copy_row(rid(9), rid(2));
        assert_eq!(s.read_word(rid(2), 0), 0);
        // ...without materializing the all-zero source.
        assert!(s.row(rid(9)).is_none());
        // Self copy is a no-op.
        s.write_word(rid(3), 1, 42);
        s.copy_row(rid(3), rid(3));
        assert_eq!(s.read_word(rid(3), 1), 42);
    }

    #[test]
    fn copy_row_across_banks() {
        let mut s = store();
        let a = RowId::new(0, 0, 0, 1);
        let b = RowId::new(0, 0, 3, 9);
        s.write_word(a, 2, 0xabc);
        s.copy_row(a, b);
        assert_eq!(s.read_word(b, 2), 0xabc);
        assert_eq!(s.allocated_banks(), 2);
    }

    #[test]
    fn fill_row_values_and_zero() {
        let mut s = store();
        s.fill_row(rid(4), u64::MAX);
        assert_eq!(s.read_word(rid(4), 7), u64::MAX);
        s.fill_row(rid(4), 0);
        assert_eq!(s.read_word(rid(4), 7), 0);
        // Zero-filling an untouched row must not materialize it.
        s.fill_row(rid(5), 0);
        assert!(s.row(rid(5)).is_none());
    }

    #[test]
    fn majority_writes_all_three_rows() {
        let mut s = store();
        s.write_word(rid(0), 0, 0b1100);
        s.write_word(rid(1), 0, 0b1010);
        s.write_word(rid(2), 0, 0b1001);
        s.majority3(rid(0), rid(1), rid(2));
        for r in 0..3 {
            assert_eq!(
                s.read_word(rid(r), 0),
                0b1000,
                "row {r} must hold the majority"
            );
        }
    }

    #[test]
    fn majority_and_or_identities() {
        // MAJ(a, b, 0) = a AND b; MAJ(a, b, 1) = a OR b.
        let a = 0x0f0f_1234_5678_9abc;
        let b = 0x00ff_8765_4321_0fed;
        let mut s = store();
        s.write_word(rid(0), 0, a);
        s.write_word(rid(1), 0, b);
        s.fill_row(rid(2), 0);
        s.majority3(rid(0), rid(1), rid(2));
        assert_eq!(s.read_word(rid(2), 0), a & b);

        let mut s = store();
        s.write_word(rid(0), 0, a);
        s.write_word(rid(1), 0, b);
        s.fill_row(rid(2), u64::MAX);
        s.majority3(rid(0), rid(1), rid(2));
        assert_eq!(s.read_word(rid(2), 0), a | b);
    }

    #[test]
    fn majority_aliased_operands() {
        // MAJ(x, x, z) = x: the aliased pair outvotes the third row.
        let mut s = store();
        s.write_word(rid(0), 0, 0xf0f0);
        s.write_word(rid(1), 0, 0x1234);
        s.majority3(rid(0), rid(0), rid(1));
        assert_eq!(s.read_word(rid(0), 0), 0xf0f0);
        assert_eq!(s.read_word(rid(1), 0), 0xf0f0);
        // Fully aliased: no-op.
        s.majority3(rid(0), rid(0), rid(0));
        assert_eq!(s.read_word(rid(0), 0), 0xf0f0);
    }

    #[test]
    fn majority_across_banks_fallback() {
        let mut s = store();
        let a = RowId::new(0, 0, 0, 0);
        let b = RowId::new(0, 0, 1, 0);
        let c = RowId::new(0, 0, 2, 0);
        s.write_word(a, 1, 0b1100);
        s.write_word(b, 1, 0b1010);
        s.write_word(c, 1, 0b1001);
        s.majority3(a, b, c);
        for r in [a, b, c] {
            assert_eq!(s.read_word(r, 1), 0b1000);
        }
    }

    #[test]
    fn not_row_inverts() {
        let mut s = store();
        s.write_word(rid(0), 0, 0xff00_ff00_ff00_ff00);
        s.not_row(rid(0), rid(1));
        assert_eq!(s.read_word(rid(1), 0), 0x00ff_00ff_00ff_00ff);
        // Words beyond index 0 were zero, so they invert to all-ones.
        assert_eq!(s.read_word(rid(1), 1), u64::MAX);
        // In-place inversion.
        s.not_row(rid(1), rid(1));
        assert_eq!(s.read_word(rid(1), 0), 0xff00_ff00_ff00_ff00);
        assert_eq!(s.read_word(rid(1), 1), 0);
    }

    #[test]
    fn row_pair_mut_disjoint_both_orders() {
        let mut s = store();
        s.write_word(rid(1), 0, 11);
        s.write_word(rid(2), 0, 22);
        {
            let (a, b) = s.row_pair_mut(rid(1), rid(2));
            assert_eq!((a[0], b[0]), (11, 22));
            a[0] = 1;
            b[0] = 2;
        }
        {
            let (b, a) = s.row_pair_mut(rid(2), rid(1));
            assert_eq!((b[0], a[0]), (2, 1));
        }
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn row_pair_mut_rejects_alias() {
        let mut s = store();
        let _ = s.row_pair_mut(rid(1), rid(1));
    }

    #[test]
    fn row_triple_mut_all_orderings() {
        let mut s = store();
        for (i, r) in [3u32, 1, 2].iter().enumerate() {
            s.write_word(rid(*r), 0, 100 + i as u64);
        }
        let (a, b, c) = s.row_triple_mut(rid(3), rid(1), rid(2));
        assert_eq!((a[0], b[0], c[0]), (100, 101, 102));
    }

    #[test]
    #[should_panic(expected = "one bank")]
    fn row_triple_mut_rejects_cross_bank() {
        let mut s = store();
        let _ = s.row_triple_mut(rid(0), rid(1), RowId::new(0, 0, 1, 2));
    }

    #[test]
    fn read_write_full_row() {
        let mut s = store();
        let data: Vec<u64> = (0..8).map(|i| i * 11).collect();
        s.write_row(rid(6), &data);
        assert_eq!(s.read_row(rid(6)), data);
        let mut out = Vec::new();
        s.append_row(rid(6), 8, &mut out);
        s.append_row(rid(6), 3, &mut out);
        s.append_row(rid(7), 2, &mut out);
        assert_eq!(out[..8], data[..]);
        assert_eq!(out[8..11], data[..3]);
        assert_eq!(out[11..], [0u64; 2]);
    }

    #[test]
    fn write_row_from_zero_fills_tail() {
        let mut s = store();
        s.fill_row(rid(0), u64::MAX);
        s.write_row_from(rid(0), &[1, 2, 3]);
        assert_eq!(s.read_row(rid(0)), vec![1, 2, 3, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn write_row_wrong_len_panics() {
        let mut s = store();
        s.write_row(rid(0), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of row bounds")]
    fn read_word_oob_panics() {
        let s = store();
        let _ = s.read_word(rid(0), 8);
    }

    #[test]
    fn sparse_promotes_to_dense() {
        let mut s = store();
        for r in 0..(SPARSE_MAX as u32 * 2) {
            s.write_word(rid(r * 3), 0, r as u64);
        }
        assert!(matches!(s.banks[0].table, RowTable::Dense(_)));
        for r in 0..(SPARSE_MAX as u32 * 2) {
            assert_eq!(s.read_word(rid(r * 3), 0), r as u64, "row {r} survived");
        }
        assert_eq!(s.allocated_rows(), SPARSE_MAX * 2);
    }

    #[test]
    fn slab_grows_four_fold_on_every_path() {
        let mut s = store();
        let mut caps = Vec::new();
        for r in 0..70u32 {
            // Materialize, fill and copy each append a fresh slot.
            match r % 3 {
                0 => s.write_word(rid(r), 0, u64::from(r)),
                1 => s.fill_row(rid(r), u64::from(r)),
                _ => s.copy_row(rid(0), rid(r)),
            }
            caps.push(s.banks[0].words.capacity() / s.row_words());
        }
        caps.dedup();
        assert_eq!(caps, [1, 4, 16, 64, 256]);
        for r in 0..70u32 {
            let want = if r % 3 == 2 { 0 } else { u64::from(r) };
            assert_eq!(s.read_word(rid(r), 0), want, "row {r} survived growth");
        }
    }

    #[test]
    fn clear_resets() {
        let mut s = store();
        s.write_word(rid(0), 0, 1);
        s.clear();
        assert_eq!(s.allocated_rows(), 0);
        assert_eq!(s.read_word(rid(0), 0), 0);
    }
}
