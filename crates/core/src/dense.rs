//! Dense-domain pruners (beyond the paper).
//!
//! The paper hashes keys into `d × w` matrices (§4.2, §6) and Bloom
//! filters (§4.3) because a switch cannot know a key's domain. A control
//! plane that has seen the table can: where every value of a key lane lies
//! in `[min, max]` and that range fits one stage's SRAM, the switch indexes
//! a register array by the offset `v − min` instead — one ALU subtract in
//! place of the hash, and no two keys ever share a cell. So each pruner
//! here forwards exactly what its unconstrained [`crate::opt`] baseline
//! forwards:
//!
//! * [`DenseDistinct`] — first occurrences ([`crate::opt::OptDistinct`]),
//!   over one lane or a multi-lane code, with no fingerprint and no
//!   Theorem 4 δ;
//! * [`DenseGroupBy`] — strict improvements of a key's MAX/MIN
//!   ([`crate::opt::OptGroupByMax`]);
//! * [`DenseRegisters`] — §6's SUM/COUNT registers that never evict,
//!   drained at FIN (the array [`DenseGroupBy`] keeps its extrema in);
//! * [`DenseSet`] — a JOIN side's exact key set
//!   ([`crate::opt::OptJoin`]): no Bloom false positives.

use crate::decision::{Decision, RowPruner};
use crate::groupby::Extremum;
use crate::join::KeyFilter;
use crate::resources::ResourceUsage;

/// A key's offset code: lane `i` contributes `(v_i − min_i) << shift_i`,
/// the lanes OR'd together — subtracts, shifts and ORs only, as a switch
/// without a multiplier composes it. One lane's code is its offset, over
/// `max − min + 1` cells. Several lanes take ⌈log₂(max_i − min_i + 1)⌉
/// bits each, concatenated, over 2^(their total) cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffsetCode {
    /// `(min, shift, bits)` per lane: its offset's width is `bits`.
    lanes: Vec<(u64, u32, u32)>,
    cells: u64,
}

impl OffsetCode {
    /// The code over lanes whose values span `domains[i] = (min, max)`:
    /// `None` for no lanes, or where the cells would not fit a `u64`.
    pub fn new(domains: &[(u64, u64)]) -> Option<Self> {
        let mut shift = 0;
        let mut lanes = Vec::with_capacity(domains.len());
        for &(min, max) in domains {
            let bits = u64::BITS - (max - min).leading_zeros();
            lanes.push((min, shift, bits));
            shift += bits;
        }
        let cells = match *domains {
            [] => return None,
            [(min, max)] => (max - min).checked_add(1)?,
            _ => 1u64.checked_shl(shift)?,
        };
        Some(OffsetCode { lanes, cells })
    }

    /// The cells the code indexes.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// The lanes the code reads.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The first lane's minimum: a one-lane code's key is `min() + code`.
    pub fn min(&self) -> u64 {
        self.lanes[0].0
    }

    /// The code of an entry whose lane values start `row`.
    #[inline]
    pub fn code(&self, row: &[u64]) -> usize {
        let offsets = self.lanes.iter().zip(row);
        offsets.fold(0, |code, (&(min, shift, _), &v)| {
            code | v.wrapping_sub(min) << shift
        }) as usize
    }

    /// A tuple's offsets in one word, **first lane most significant**, so
    /// keys order as their tuples do, lexicographically. [`Self::code`]
    /// puts lane 0 at shift 0, so sorting codes would order tuples by
    /// their last lane.
    #[inline]
    pub fn pack(&self, tuple: &[u64]) -> u64 {
        let offsets = self.lanes.iter().zip(tuple);
        offsets.fold(0, |key, (&(min, _, bits), &v)| {
            key.wrapping_shl(bits) | v.wrapping_sub(min)
        })
    }

    /// The tuple [`Self::pack`] made `key` of, into `tuple`.
    #[inline]
    pub fn unpack(&self, mut key: u64, tuple: &mut [u64]) {
        for (&(min, _, bits), v) in self.lanes.iter().zip(tuple).rev() {
            *v = (key & u64::MAX.checked_shr(u64::BITS - bits).unwrap_or(0)) + min;
            key = key.checked_shr(bits).unwrap_or(0);
        }
    }

    /// Each entry's code in a column-major block, lane by lane into
    /// `codes`.
    fn codes(&self, cols: &[&[u64]], codes: &mut Vec<u64>) {
        let (min, ..) = self.lanes[0];
        codes.clear();
        codes.extend(cols[0].iter().map(|v| v.wrapping_sub(min)));
        for (&(min, shift, _), lane) in self.lanes.iter().zip(cols).skip(1) {
            for (code, &v) in codes.iter_mut().zip(*lane) {
                *code |= v.wrapping_sub(min) << shift;
            }
        }
    }

    /// What a bitmap over the code occupies: one stage, an ALU per lane's
    /// offset and one for the bitmap's read-modify-write, and the cells in
    /// whole 64-bit registers.
    pub fn bitmap(&self) -> ResourceUsage {
        ResourceUsage {
            stages: 1,
            alus: self.lanes.len() as u32 + 1,
            sram_bits: self.cells.div_ceil(64).saturating_mul(64),
            tcam_entries: 0,
        }
    }

    /// What a register array over the code occupies: the bitmap of its
    /// valid bits, and beside it a 64-bit register per cell and its ALU —
    /// 65 bits a key, in whole registers.
    pub fn registers(&self) -> ResourceUsage {
        let valid = self.bitmap();
        ResourceUsage {
            alus: valid.alus + 1,
            sram_bits: self
                .cells
                .saturating_mul(64)
                .saturating_add(valid.sram_bits),
            ..valid
        }
    }
}

/// One bit per cell, in 64-bit words.
#[derive(Debug, Clone)]
struct Bitmap(Vec<u64>);

impl Bitmap {
    fn new(cells: u64) -> Self {
        Bitmap(vec![0; cells.div_ceil(64) as usize])
    }

    /// Set bit `i`; whether it was already set.
    #[inline]
    fn test_and_set(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.0[i >> 6], 1u64 << (i & 63));
        let was = *word & bit != 0;
        *word |= bit;
        was
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.0[i >> 6] >> (i & 63) & 1 == 1
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }

    /// The set bits, ascending.
    fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// A first occurrence forwards, a repeat prunes.
#[inline]
fn first(seen: bool) -> Decision {
    if seen {
        Decision::Prune
    } else {
        Decision::Forward
    }
}

/// DISTINCT over an [`OffsetCode`]: one bit per code. Exact: forwards
/// first occurrences and nothing else.
#[derive(Debug, Clone)]
pub struct DenseDistinct {
    code: OffsetCode,
    seen: Bitmap,
    /// A block's codes, reused across blocks.
    codes: Vec<u64>,
}

impl DenseDistinct {
    /// An empty bitmap over `code`'s cells.
    pub fn new(code: OffsetCode) -> Self {
        DenseDistinct {
            seen: Bitmap::new(code.cells),
            code,
            codes: Vec::new(),
        }
    }
}

impl RowPruner for DenseDistinct {
    fn process_row(&mut self, row: &[u64]) -> Decision {
        first(self.seen.test_and_set(self.code.code(row)))
    }

    fn process_block(&mut self, cols: &[&[u64]], out: &mut [Decision]) {
        let DenseDistinct { code, seen, codes } = self;
        if let [(min, ..)] = code.lanes[..] {
            for (d, &v) in out.iter_mut().zip(cols[0]) {
                *d = first(seen.test_and_set(v.wrapping_sub(min) as usize));
            }
        } else {
            code.codes(cols, codes);
            for (d, &c) in out.iter_mut().zip(codes.iter()) {
                *d = first(seen.test_and_set(c as usize));
            }
        }
    }

    fn reset(&mut self) {
        self.seen.clear();
    }

    fn name(&self) -> &'static str {
        "dense-distinct"
    }
}

/// A 64-bit register and a valid bit per key of a one-lane
/// [`OffsetCode`]: the array behind both [`DenseGroupBy`] (a key's
/// extremum) and §6's SUM/COUNT registers (a key's running sum). A
/// register is live while its valid bit is set; clearing the bits empties
/// the array.
#[derive(Debug, Clone)]
pub struct DenseRegisters {
    code: OffsetCode,
    valid: Bitmap,
    regs: Vec<u64>,
}

impl DenseRegisters {
    /// Empty registers over `code`'s cells.
    pub fn new(code: OffsetCode) -> Self {
        DenseRegisters {
            valid: Bitmap::new(code.cells),
            regs: vec![0; code.cells as usize],
            code,
        }
    }

    /// `key`'s register, marked live, and whether it already was.
    #[inline]
    fn cell(&mut self, key: u64) -> (bool, &mut u64) {
        let i = key.wrapping_sub(self.code.min()) as usize;
        (self.valid.test_and_set(i), &mut self.regs[i])
    }

    /// §6's SUM/COUNT: fold a block of `(key, value)` entries (`value = 1`
    /// for COUNT) into wrapping 64-bit sums. Every entry folds into its
    /// own key's register, so nothing is ever evicted: every `out[i]` is
    /// `Prune`, and [`DenseRegisters::drain`] hands the master each key's
    /// exact total at FIN.
    pub fn process_block(&mut self, keys: &[u64], vals: &[u64], out: &mut [Decision]) {
        for (&k, &v) in keys.iter().zip(vals) {
            let (live, sum) = self.cell(k);
            *sum = if live { sum.wrapping_add(v) } else { v };
        }
        out.fill(Decision::Prune);
    }

    /// Every live key's `(key, register)`, ascending, leaving the array
    /// empty (the FIN drain).
    pub fn drain(&mut self) -> Vec<(u64, u64)> {
        let min = self.code.min();
        let DenseRegisters { valid, regs, .. } = self;
        let drained = valid.ones().map(|i| (min + i as u64, regs[i])).collect();
        valid.clear();
        drained
    }
}

/// GROUP BY MAX/MIN over [`DenseRegisters`]: a key's register holds its
/// extremum. Exact: forwards a key's first entry and every strict
/// improvement of its extremum, and nothing else.
#[derive(Debug, Clone)]
pub struct DenseGroupBy {
    regs: DenseRegisters,
    ext: Extremum,
}

impl DenseGroupBy {
    /// Empty registers over `code`'s cells, keeping `ext`.
    pub fn new(code: OffsetCode, ext: Extremum) -> Self {
        DenseGroupBy {
            regs: DenseRegisters::new(code),
            ext,
        }
    }

    /// Decide entry `(key, value)`.
    #[inline]
    pub fn process(&mut self, key: u64, value: u64) -> Decision {
        let (live, best) = self.regs.cell(key);
        if live && !self.ext.improves(value, *best) {
            return Decision::Prune;
        }
        *best = value;
        Decision::Forward
    }
}

impl RowPruner for DenseGroupBy {
    fn process_row(&mut self, row: &[u64]) -> Decision {
        self.process(row[0], row[1])
    }

    fn process_block(&mut self, cols: &[&[u64]], out: &mut [Decision]) {
        for ((d, &k), &v) in out.iter_mut().zip(cols[0]).zip(cols[1]) {
            *d = self.process(k, v);
        }
    }

    fn reset(&mut self) {
        self.regs.valid.clear();
    }

    fn name(&self) -> &'static str {
        "dense-groupby"
    }
}

/// A JOIN side's exact key set over a one-lane [`OffsetCode`] of both
/// sides' union range: one bit per key. Where a Bloom filter passes a
/// never-inserted key with some probability, this passes none.
#[derive(Debug, Clone)]
pub struct DenseSet {
    code: OffsetCode,
    bits: Bitmap,
}

impl DenseSet {
    /// An empty set over `code`'s cells.
    pub fn new(code: OffsetCode) -> Self {
        DenseSet {
            bits: Bitmap::new(code.cells),
            code,
        }
    }

    /// `key`'s cell, or `None` outside the code's range.
    #[inline]
    fn cell(&self, key: u64) -> Option<usize> {
        let i = key.wrapping_sub(self.code.min());
        (i < self.code.cells).then_some(i as usize)
    }
}

impl KeyFilter for DenseSet {
    fn insert(&mut self, key: u64) {
        let i = self.cell(key).expect("a JOIN key inside its sides' range");
        self.bits.test_and_set(i);
    }

    fn contains(&self, key: u64) -> bool {
        self.cell(key).is_some_and(|i| self.bits.get(i))
    }

    fn clear(&mut self) {
        self.bits.clear();
    }

    fn bits(&self) -> u64 {
        self.bits.0.len() as u64 * 64
    }

    fn resources(&self) -> ResourceUsage {
        self.code.bitmap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::{OptDistinct, OptGroupByMax, OptJoin};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn codes_concatenate_each_lanes_offset_bits() {
        let one = OffsetCode::new(&[(10, 19)]).unwrap();
        assert_eq!((one.cells(), one.code(&[10]), one.code(&[19])), (10, 0, 9));
        // Spans 3 → 2 bits, 0 → 0 bits, 4 → 3 bits: 5 bits, 32 cells.
        let three = OffsetCode::new(&[(5, 8), (7, 7), (0, 4)]).unwrap();
        assert_eq!(three.cells(), 32);
        assert_eq!(three.code(&[6, 7, 3]), 1 | 3 << 2);
        let cols: [&[u64]; 3] = [&[5, 8], &[7, 7], &[0, 4]];
        let mut codes = Vec::new();
        three.codes(&cols, &mut codes);
        assert_eq!(codes, [0, 3 | 4 << 2]);
        // A full-width lane has no cell count, two half-width lanes no code,
        // and a near-full one charges more than any switch holds.
        assert_eq!(OffsetCode::new(&[(0, u64::MAX)]), None);
        let huge = OffsetCode::new(&[(0, u64::MAX - 1)]).unwrap();
        assert_eq!(huge.registers().sram_bits, u64::MAX);
        assert_eq!(OffsetCode::new(&[(0, u64::MAX >> 32); 2]), None);
        assert_eq!(OffsetCode::new(&[]), None);
    }

    #[test]
    fn packed_keys_order_as_their_tuples_and_unpack_to_them() {
        // Spans 3 → 2 bits, 0 → 0 bits, 4 → 3 bits: the first lane lands
        // in the key's top two bits, where `code` puts it in the bottom.
        let three = OffsetCode::new(&[(5, 8), (7, 7), (0, 4)]).unwrap();
        assert_eq!(three.pack(&[6, 7, 3]), 1 << 3 | 3);
        let mut tuples = Vec::new();
        for a in 5..=8 {
            for c in 0..=4 {
                tuples.push([a, 7, c]);
            }
        }
        let keys: Vec<u64> = tuples.iter().map(|t| three.pack(t)).collect();
        assert!(keys.windows(2).all(|k| k[0] < k[1]), "keys order as tuples");
        let mut back = [0; 3];
        for (t, &key) in tuples.iter().zip(&keys) {
            three.unpack(key, &mut back);
            assert_eq!(&back, t);
        }
        // One lane packs to its offset, across the whole word.
        let one = OffsetCode::new(&[(10, 19)]).unwrap();
        assert_eq!(one.pack(&[19]), 9);
        let wide = OffsetCode::new(&[(1, u64::MAX)]).unwrap();
        wide.unpack(wide.pack(&[u64::MAX]), &mut back[..1]);
        assert_eq!(back[0], u64::MAX);
    }

    #[test]
    fn charges_count_whole_registers() {
        let code = OffsetCode::new(&[(1, 100)]).unwrap();
        let bitmap = ResourceUsage {
            stages: 1,
            alus: 2,
            sram_bits: 128,
            tcam_entries: 0,
        };
        assert_eq!(code.bitmap(), bitmap);
        let registers = ResourceUsage {
            alus: 3,
            sram_bits: 128 + 6_400,
            ..bitmap
        };
        assert_eq!(code.registers(), registers);
    }

    #[test]
    fn dense_set_is_the_exact_key_set() {
        let code = OffsetCode::new(&[(40, 140)]).unwrap();
        let mut set = DenseSet::new(code);
        let keys: Vec<u64> = (40..=140).step_by(3).collect();
        keys.iter().for_each(|&k| set.insert(k));
        let opt = OptJoin::from_keys(keys);
        for k in 0..200 {
            assert_eq!(set.contains(k), opt.process(k).is_forward(), "key {k}");
        }
        set.clear();
        assert!(!set.contains(40));
    }

    #[test]
    fn dense_sums_drain_every_touched_key_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        let code = OffsetCode::new(&[(1_000, 1_199)]).unwrap();
        let mut sums = DenseRegisters::new(code);
        let keys: Vec<u64> = (0..5_000).map(|_| rng.gen_range(1_000..1_150)).collect();
        let vals: Vec<u64> = (0..5_000).map(|_| rng.gen::<u64>()).collect();
        let mut out = vec![Decision::Forward; keys.len()];
        sums.process_block(&keys, &vals, &mut out);
        assert!(out.iter().all(|d| d.is_prune()), "registers never evict");
        let mut want: BTreeMap<u64, u64> = BTreeMap::new();
        for (&k, &v) in keys.iter().zip(&vals) {
            let sum = want.entry(k).or_default();
            *sum = sum.wrapping_add(v);
        }
        assert_eq!(sums.drain(), want.into_iter().collect::<Vec<_>>());
        assert_eq!(sums.drain(), Vec::new(), "the drain empties the registers");
    }

    #[test]
    fn dense_pruners_forward_exactly_what_opt_forwards() {
        let mut rng = StdRng::seed_from_u64(9);
        let keys: Vec<u64> = (0..20_000).map(|_| rng.gen_range(7..900)).collect();
        let vals: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..1_000)).collect();
        let code = OffsetCode::new(&[(7, 899)]).unwrap();
        let mut dense = DenseDistinct::new(code.clone());
        let mut opt = OptDistinct::new();
        for &k in &keys {
            assert_eq!(dense.process_row(&[k]), opt.process(k));
        }
        let mut dense = DenseGroupBy::new(code, Extremum::Max);
        let mut opt = OptGroupByMax::new();
        for (&k, &v) in keys.iter().zip(&vals) {
            assert_eq!(dense.process(k, v), opt.process(k, v));
        }
    }
}
