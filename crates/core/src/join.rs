//! JOIN pruning with Bloom filters (§4.3, Example 4; Figures 10e/11e).
//!
//! For `A JOIN B ON A.c = B.c` the switch streams the join column twice.
//! Pass 1 records every observed key of each side in a Bloom filter
//! (`F_A`, `F_B`); pass 2 prunes a packet from `A` whenever `F_B` reports
//! no match (and symmetrically). Bloom filters have no false negatives, so
//! no matching entry is ever pruned; false positives merely let some
//! non-matching entries through, costing pruning rate but never
//! correctness.
//!
//! Two filter implementations mirror Table 2's rows:
//!
//! * [`BloomFilter`] — classic `H`-hash filter: 2 stages, `H` ALUs.
//! * [`RegisterBloomFilter`] — a *blocked* filter fitting one stage and one
//!   stateful ALU: a single hash picks a 64-bit register block and one of
//!   `⌈64/H⌉` precomputed `H`-bit patterns; insert ORs the pattern in, query
//!   checks containment. The pattern table accounts for the
//!   `⌈64/H⌉ × 64b` extra SRAM in Table 2.
//!
//! When the two tables differ greatly in size, [`AsymmetricJoin`] streams
//! the small table *unpruned* while building a low-false-positive filter,
//! then prunes only the big table — one pass each (§4.3's optimization).

use crate::decision::{Decision, RowPruner};
use crate::hash::HashFn;
use crate::resources::{table2, ResourceUsage};

/// The filter role in a two-pass join, used by [`JoinPruner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Left input (table A).
    Left,
    /// Right input (table B).
    Right,
}

/// Join flavour (footnote 3: "With slight modifications, Cheetah can also
/// prune LEFT/RIGHT OUTER joins").
///
/// The modification: the *preserved* side of an outer join appears in the
/// output whether or not it matches, so the switch must forward all of it
/// and may prune only the opposite side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinType {
    /// SQL's default (both sides pruned).
    #[default]
    Inner,
    /// All left rows appear in the output (left side never pruned).
    LeftOuter,
    /// All right rows appear in the output (right side never pruned).
    RightOuter,
}

impl JoinType {
    /// Whether entries from `side` may be pruned at all under this join.
    #[inline]
    pub fn prunable(self, side: Side) -> bool {
        !matches!(
            (self, side),
            (JoinType::LeftOuter, Side::Left) | (JoinType::RightOuter, Side::Right)
        )
    }
}

/// Common interface over the two Bloom filter variants.
pub trait KeyFilter {
    /// Record a key.
    fn insert(&mut self, key: u64);
    /// Might the key have been inserted? Never false when it was (no false
    /// negatives).
    fn contains(&self, key: u64) -> bool;
    /// Reset to empty.
    fn clear(&mut self);
    /// Filter size in bits.
    fn bits(&self) -> u64;
    /// Switch resources (Table 2).
    fn resources(&self) -> ResourceUsage;
}

/// Partitioned Bloom filter: `h` hash functions, each owning an `m/h`-bit
/// segment.
///
/// Partitioning (rather than letting every hash address the full bit
/// array) is what makes the filter implementable on a PISA pipeline: each
/// segment is one register array touched by exactly one read-modify-write
/// per packet. The false-positive rate is asymptotically the same as the
/// classic layout.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    words: Vec<u64>,
    seg_words: usize,
    hashes: Vec<HashFn>,
}

impl BloomFilter {
    /// Create a filter of `m_bits` total bits (rounded up so each of the
    /// `h` segments holds whole 64-bit words). Table 2 default:
    /// `M = 4 MB, H = 3`.
    pub fn new(m_bits: u64, h: usize, seed: u64) -> Self {
        assert!(h >= 1, "need at least one hash function");
        assert!(m_bits >= 64 * h as u64, "each segment needs ≥1 word");
        let seg_words = m_bits.div_ceil(64 * h as u64) as usize;
        BloomFilter {
            words: vec![0; seg_words * h],
            seg_words,
            hashes: (0..h)
                .map(|i| HashFn::new(seed ^ ((i as u64) << 32)))
                .collect(),
        }
    }

    /// Create a filter sized for `n` keys at target false-positive rate
    /// `p`, using the standard `m = −n·ln p / ln²2`, `h = (m/n)·ln 2`.
    pub fn for_capacity(n: u64, p: f64, seed: u64) -> Self {
        assert!(p > 0.0 && p < 1.0);
        let n_f = (n.max(1)) as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-n_f * p.ln() / (ln2 * ln2)).ceil().max(64.0) as u64;
        let h = ((m as f64 / n_f) * ln2).round().max(1.0) as usize;
        BloomFilter::new(m.max(64 * h as u64), h, seed)
    }

    /// Bit position of `key` within segment `i`: `(word_index, mask)`,
    /// with `word_index` relative to the whole filter.
    #[inline]
    fn bit_index(&self, i: usize, key: u64) -> (usize, u64) {
        let seg_bits = self.seg_words as u64 * 64;
        let b = ((u128::from(self.hashes[i].hash(key)) * u128::from(seg_bits)) >> 64) as u64;
        (i * self.seg_words + (b / 64) as usize, 1u64 << (b % 64))
    }
}

impl KeyFilter for BloomFilter {
    fn insert(&mut self, key: u64) {
        for i in 0..self.hashes.len() {
            let (w, mask) = self.bit_index(i, key);
            self.words[w] |= mask;
        }
    }

    fn contains(&self, key: u64) -> bool {
        (0..self.hashes.len()).all(|i| {
            let (w, mask) = self.bit_index(i, key);
            self.words[w] & mask != 0
        })
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    fn bits(&self) -> u64 {
        self.words.len() as u64 * 64
    }

    fn resources(&self) -> ResourceUsage {
        table2::join_bf(self.bits(), self.hashes.len() as u32)
    }
}

/// Register (blocked) Bloom filter: one stage, one stateful ALU.
///
/// A *single* hash invocation yields both the 64-bit register block index
/// (high bits) and `H` six-bit fields (low bits) that select bit positions
/// inside the block. The control plane installs a small mask table
/// (Table 2 charges it as `⌈64/H⌉ × 64b` SRAM) mapping each field to its
/// one-hot mask; the dataplane ORs the `H` masks and performs one
/// read-modify-write against the block — a classic blocked Bloom filter in
/// one stage and one stateful ALU. All `H` probes share a cache block, so
/// the false-positive rate is slightly above a free-placement filter's,
/// which Figure 10e shows to be marginal.
#[derive(Debug, Clone)]
pub struct RegisterBloomFilter {
    blocks: Vec<u64>,
    h: u32,
    hash: HashFn,
}

impl RegisterBloomFilter {
    /// Create a filter of `m_bits` bits (rounded up to 64-bit blocks) where
    /// each key sets `h ≤ 10` bits of one block.
    pub fn new(m_bits: u64, h: u32, seed: u64) -> Self {
        assert!(m_bits >= 64);
        assert!((1..=10).contains(&h), "h six-bit fields must fit the hash");
        RegisterBloomFilter {
            blocks: vec![0; m_bits.div_ceil(64) as usize],
            h,
            hash: HashFn::new(seed),
        }
    }

    #[inline]
    fn slot(&self, key: u64) -> (usize, u64) {
        let hv = self.hash.hash(key);
        let block = ((u128::from(hv) * self.blocks.len() as u128) >> 64) as usize;
        // H six-bit fields of the hash choose bit positions (mask table
        // lookups on hardware); independent of the block index, which uses
        // the high bits via multiply-shift.
        let mut mask = 0u64;
        for i in 0..self.h {
            mask |= 1u64 << ((hv >> (6 * i)) & 63);
        }
        (block, mask)
    }
}

impl KeyFilter for RegisterBloomFilter {
    fn insert(&mut self, key: u64) {
        let (b, p) = self.slot(key);
        self.blocks[b] |= p;
    }

    fn contains(&self, key: u64) -> bool {
        let (b, p) = self.slot(key);
        self.blocks[b] & p == p
    }

    fn clear(&mut self) {
        self.blocks.fill(0);
    }

    fn bits(&self) -> u64 {
        self.blocks.len() as u64 * 64
    }

    fn resources(&self) -> ResourceUsage {
        table2::join_rbf(self.blocks.len() as u64 * 64, self.h)
    }
}

/// Two-pass symmetric join pruner (§4.3, Example 4).
///
/// Pass 1 (`observe`) streams both join columns through the switch to
/// populate `F_A` and `F_B`; pass 2 (`prune`) re-streams each side and
/// prunes keys the *other* side's filter has never seen.
#[derive(Debug, Clone)]
pub struct JoinPruner<F: KeyFilter> {
    filter_a: F,
    filter_b: F,
}

impl<F: KeyFilter> JoinPruner<F> {
    /// Build from two (empty) filters.
    pub fn new(filter_a: F, filter_b: F) -> Self {
        JoinPruner { filter_a, filter_b }
    }

    /// Pass 1: record a key observed on `side`.
    pub fn observe(&mut self, side: Side, key: u64) {
        match side {
            Side::Left => self.filter_a.insert(key),
            Side::Right => self.filter_b.insert(key),
        }
    }

    /// Pass 2: decide a key from `side` against the opposite filter
    /// (INNER join semantics).
    pub fn prune_decision(&self, side: Side, key: u64) -> Decision {
        self.prune_decision_typed(JoinType::Inner, side, key)
    }

    /// Pass 2 for a specific join flavour: the preserved side of an outer
    /// join is always forwarded; the other side prunes as usual.
    pub fn prune_decision_typed(&self, join: JoinType, side: Side, key: u64) -> Decision {
        if !join.prunable(side) {
            return Decision::Forward;
        }
        let other = match side {
            Side::Left => &self.filter_b,
            Side::Right => &self.filter_a,
        };
        if other.contains(key) {
            Decision::Forward
        } else {
            Decision::Prune
        }
    }

    /// Pass-1 block loop over parallel `(flow id, key)` lanes
    /// (`sides[i]`: 0 = A, 1 = B — [`JoinPassTwo`]'s §7.2 convention).
    /// Join partitions are single-sided, so the loop walks runs of equal
    /// flow id and hoists the side dispatch out of the per-entry path.
    pub fn observe_block(&mut self, sides: &[u64], keys: &[u64]) {
        let mut i = 0;
        while i < keys.len() {
            let side = sides[i];
            let mut j = i + 1;
            while j < keys.len() && sides[j] == side {
                j += 1;
            }
            let filter = if side == 0 {
                &mut self.filter_a
            } else {
                &mut self.filter_b
            };
            for &k in &keys[i..j] {
                filter.insert(k);
            }
            i = j;
        }
    }

    /// Pass-2 block loop: decide every `(flow id, key)` entry against the
    /// opposite side's filter (INNER semantics), writing `out[i]` —
    /// bit-identical to per-entry [`Self::prune_decision`] calls.
    pub fn probe_block(&self, sides: &[u64], keys: &[u64], out: &mut [Decision]) {
        let mut i = 0;
        while i < keys.len() {
            let side = sides[i];
            let mut j = i + 1;
            while j < keys.len() && sides[j] == side {
                j += 1;
            }
            let other = if side == 0 {
                &self.filter_b
            } else {
                &self.filter_a
            };
            for (d, &k) in out[i..j].iter_mut().zip(&keys[i..j]) {
                *d = if other.contains(k) {
                    Decision::Forward
                } else {
                    Decision::Prune
                };
            }
            i = j;
        }
    }

    /// Reset both filters.
    pub fn clear(&mut self) {
        self.filter_a.clear();
        self.filter_b.clear();
    }

    /// Borrow the `(F_A, F_B)` pair without consuming the pruner — how a
    /// serving layer snapshots the built filters into a cross-query cache
    /// after pass 1 while the pruner keeps probing in pass 2.
    pub fn filters(&self) -> (&F, &F) {
        (&self.filter_a, &self.filter_b)
    }

    /// Combined switch resources of the two filters.
    pub fn resources(&self) -> ResourceUsage {
        self.filter_a.resources().plus(self.filter_b.resources())
    }
}

/// Asymmetric join optimization: stream the small side unpruned while
/// building its filter at a low false-positive rate, then prune the big
/// side in a single pass.
#[derive(Debug)]
pub struct AsymmetricJoin<F: KeyFilter> {
    small_filter: F,
}

impl<F: KeyFilter> AsymmetricJoin<F> {
    /// Wrap an empty filter for the small table's keys.
    pub fn new(small_filter: F) -> Self {
        AsymmetricJoin { small_filter }
    }

    /// Stream one small-table key: recorded and always forwarded.
    pub fn observe_small(&mut self, key: u64) -> Decision {
        self.small_filter.insert(key);
        Decision::Forward
    }

    /// Stream one big-table key: pruned unless the small side may match.
    pub fn prune_big(&self, key: u64) -> Decision {
        if self.small_filter.contains(key) {
            Decision::Forward
        } else {
            Decision::Prune
        }
    }
}

/// A [`RowPruner`] adapter for the second pass of a symmetric join, with
/// the side resolved from the packet's flow id (`row[0]`: 0 = A, 1 = B,
/// `row[1]` = key), matching how the switch demultiplexes streams (§7.2).
#[derive(Debug)]
pub struct JoinPassTwo<F: KeyFilter> {
    inner: JoinPruner<F>,
}

impl<F: KeyFilter> JoinPassTwo<F> {
    /// Wrap a pass-1-populated join pruner.
    pub fn new(inner: JoinPruner<F>) -> Self {
        JoinPassTwo { inner }
    }
}

impl<F: KeyFilter> RowPruner for JoinPassTwo<F> {
    fn process_row(&mut self, row: &[u64]) -> Decision {
        let side = if row[0] == 0 { Side::Left } else { Side::Right };
        self.inner.prune_decision(side, row[1])
    }

    fn reset(&mut self) {
        self.inner.clear();
    }

    fn name(&self) -> &'static str {
        "join"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn bloom_no_false_negatives() {
        let mut bf = BloomFilter::new(1 << 12, 3, 0);
        let keys: Vec<u64> = (0..200).map(|i| i * 7919).collect();
        for &k in &keys {
            bf.insert(k);
        }
        for &k in &keys {
            assert!(bf.contains(k), "false negative for {k}");
        }
    }

    #[test]
    fn register_bloom_no_false_negatives() {
        let mut bf = RegisterBloomFilter::new(1 << 12, 3, 0);
        let keys: Vec<u64> = (0..200).map(|i| i * 104729).collect();
        for &k in &keys {
            bf.insert(k);
        }
        for &k in &keys {
            assert!(bf.contains(k), "false negative for {k}");
        }
    }

    #[test]
    fn bloom_false_positive_rate_reasonable() {
        // n=1000 keys at target 1%: measured FPR should be within ~3x.
        let mut bf = BloomFilter::for_capacity(1000, 0.01, 1);
        for k in 0..1000u64 {
            bf.insert(k);
        }
        let fps = (1_000_000..1_100_000u64)
            .filter(|&k| bf.contains(k))
            .count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.03, "false positive rate too high: {rate}");
    }

    #[test]
    fn register_bloom_fpr_worse_but_bounded() {
        // Same bit budget: RBF trades FPR for single-stage operation.
        let mut bf = BloomFilter::new(1 << 14, 3, 2);
        let mut rbf = RegisterBloomFilter::new(1 << 14, 3, 2);
        for k in 0..1000u64 {
            bf.insert(k);
            rbf.insert(k);
        }
        let probe = 1_000_000..1_200_000u64;
        let fp_bf = probe.clone().filter(|&k| bf.contains(k)).count() as f64;
        let fp_rbf = probe.clone().filter(|&k| rbf.contains(k)).count() as f64;
        // Both should be small; RBF within an order of magnitude of BF,
        // matching Figure 10e's "quite close" observation.
        assert!(fp_rbf / 200_000.0 < 0.05, "RBF FPR blew up");
        assert!(fp_bf <= fp_rbf * 10.0 + 100.0);
    }

    #[test]
    fn rbf_masks_have_at_most_h_bits() {
        let rbf = RegisterBloomFilter::new(1 << 10, 3, 0);
        for key in 0..1000u64 {
            let (block, mask) = rbf.slot(key);
            assert!(block < rbf.blocks.len());
            let ones = mask.count_ones();
            assert!((1..=3).contains(&ones), "mask has {ones} bits set");
        }
    }

    #[test]
    fn join_never_prunes_matching_entry() {
        let mut rng = StdRng::seed_from_u64(3);
        let a_keys: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..20_000)).collect();
        let b_keys: Vec<u64> = (0..5_000).map(|_| rng.gen_range(10_000..30_000)).collect();
        let mut jp = JoinPruner::new(
            BloomFilter::new(1 << 14, 3, 0),
            BloomFilter::new(1 << 14, 3, 1),
        );
        for &k in &a_keys {
            jp.observe(Side::Left, k);
        }
        for &k in &b_keys {
            jp.observe(Side::Right, k);
        }
        let b_set: HashSet<u64> = b_keys.iter().copied().collect();
        let a_set: HashSet<u64> = a_keys.iter().copied().collect();
        for &k in &a_keys {
            if b_set.contains(&k) {
                assert!(
                    jp.prune_decision(Side::Left, k).is_forward(),
                    "pruned a matching A key {k}"
                );
            }
        }
        for &k in &b_keys {
            if a_set.contains(&k) {
                assert!(
                    jp.prune_decision(Side::Right, k).is_forward(),
                    "pruned a matching B key {k}"
                );
            }
        }
    }

    #[test]
    fn join_prunes_most_non_matching() {
        // Disjoint key ranges: essentially everything should be pruned.
        let mut jp = JoinPruner::new(
            BloomFilter::new(1 << 16, 3, 0),
            BloomFilter::new(1 << 16, 3, 1),
        );
        for k in 0..2_000u64 {
            jp.observe(Side::Left, k);
            jp.observe(Side::Right, k + 1_000_000);
        }
        let pruned = (0..2_000u64)
            .filter(|&k| jp.prune_decision(Side::Left, k).is_prune())
            .count();
        assert!(pruned > 1_990, "expected near-total pruning, got {pruned}");
    }

    #[test]
    fn asymmetric_join_small_side_all_forwarded() {
        let mut aj = AsymmetricJoin::new(BloomFilter::for_capacity(100, 0.001, 0));
        for k in 0..100u64 {
            assert!(aj.observe_small(k).is_forward());
        }
        for k in 0..100u64 {
            assert!(aj.prune_big(k).is_forward(), "matching big-side key pruned");
        }
        let pruned = (10_000..20_000u64)
            .filter(|&k| aj.prune_big(k).is_prune())
            .count();
        assert!(pruned > 9_900, "low-FPR filter should prune ~all: {pruned}");
    }

    /// Block loops against the per-entry calls, over the same lanes
    /// (mixed-side blocks included).
    fn check_block_loops<F: KeyFilter>(mk: impl Fn() -> JoinPruner<F>) {
        let mut rng = StdRng::seed_from_u64(11);
        let sides: Vec<u64> = (0..4_000).map(|i| u64::from(i >= 2_000)).collect();
        let keys: Vec<u64> = (0..4_000).map(|_| rng.gen_range(0..3_000)).collect();
        let side = |s: u64| if s == 0 { Side::Left } else { Side::Right };
        let mut a = mk();
        for (&s, &k) in sides.iter().zip(&keys) {
            a.observe(side(s), k);
        }
        let expected: Vec<Decision> = sides
            .iter()
            .zip(&keys)
            .map(|(&s, &k)| a.prune_decision(side(s), k))
            .collect();
        let mut b = mk();
        b.observe_block(&sides, &keys);
        let mut out = vec![Decision::Prune; keys.len()];
        b.probe_block(&sides, &keys, &mut out);
        assert_eq!(out, expected, "block loops must be bit-identical");
    }

    #[test]
    fn block_loops_match_per_entry_decisions() {
        check_block_loops(|| {
            JoinPruner::new(
                BloomFilter::new(1 << 14, 3, 5),
                BloomFilter::new(1 << 14, 3, 6),
            )
        });
        // The engine's pair: register filters, each side its own size.
        check_block_loops(|| {
            JoinPruner::new(
                RegisterBloomFilter::new(1 << 16, 3, 5),
                RegisterBloomFilter::new(64, 3, 6),
            )
        });
    }

    #[test]
    fn row_pruner_adapter_routes_sides() {
        let mut jp = JoinPruner::new(BloomFilter::new(64, 1, 0), BloomFilter::new(64, 1, 1));
        jp.observe(Side::Left, 42);
        let mut p2 = JoinPassTwo::new(jp);
        // B-side key 42 is forwarded because F_A saw it.
        assert!(p2.process_row(&[1, 42]).is_forward());
        assert_eq!(p2.name(), "join");
        p2.reset();
        assert!(p2.process_row(&[1, 42]).is_prune());
    }

    #[test]
    fn resources_match_table2() {
        let bf = BloomFilter::new(4 * 8 * 1024 * 1024, 3, 0);
        let r = bf.resources();
        assert_eq!(r.stages, 2);
        assert_eq!(r.alus, 3);
        let rbf = RegisterBloomFilter::new(4 * 8 * 1024 * 1024, 3, 0);
        let r = rbf.resources();
        assert_eq!(r.stages, 1);
        assert_eq!(r.alus, 1);
        assert_eq!(r.sram_bits, 4 * 8 * 1024 * 1024 + 22 * 64);
    }

    #[test]
    fn clear_resets_filters() {
        let mut bf = BloomFilter::new(1 << 10, 2, 0);
        bf.insert(5);
        assert!(bf.contains(5));
        bf.clear();
        assert!(!bf.contains(5));
    }

    #[test]
    fn outer_join_preserved_side_never_pruned() {
        let mut jp = JoinPruner::new(
            BloomFilter::new(1 << 12, 3, 0),
            BloomFilter::new(1 << 12, 3, 1),
        );
        // Disjoint key sets: inner join would prune everything.
        for k in 0..500u64 {
            jp.observe(Side::Left, k);
            jp.observe(Side::Right, k + 1_000_000);
        }
        for k in 0..500u64 {
            assert!(
                jp.prune_decision_typed(JoinType::LeftOuter, Side::Left, k)
                    .is_forward(),
                "LEFT OUTER must preserve left rows"
            );
            assert!(
                jp.prune_decision_typed(JoinType::RightOuter, Side::Right, k + 1_000_000)
                    .is_forward(),
                "RIGHT OUTER must preserve right rows"
            );
        }
        // The opposite side still prunes under an outer join.
        let pruned_right = (0..500u64)
            .filter(|&k| {
                jp.prune_decision_typed(JoinType::LeftOuter, Side::Right, k + 1_000_000)
                    .is_prune()
            })
            .count();
        assert!(
            pruned_right > 490,
            "non-preserved side must prune: {pruned_right}"
        );
    }

    #[test]
    fn outer_join_master_reconstructs_exactly() {
        use std::collections::HashMap;
        let mut rng = StdRng::seed_from_u64(77);
        let left: Vec<u64> = (0..2_000).map(|_| rng.gen_range(0..3_000)).collect();
        let right: Vec<u64> = (0..2_000).map(|_| rng.gen_range(1_500..4_500)).collect();
        let mut jp = JoinPruner::new(
            BloomFilter::new(1 << 14, 3, 0),
            BloomFilter::new(1 << 14, 3, 1),
        );
        for &k in &left {
            jp.observe(Side::Left, k);
        }
        for &k in &right {
            jp.observe(Side::Right, k);
        }
        // LEFT OUTER: output = every left row, matched or NULL-extended.
        let fwd_left: Vec<u64> = left
            .iter()
            .copied()
            .filter(|&k| {
                jp.prune_decision_typed(JoinType::LeftOuter, Side::Left, k)
                    .is_forward()
            })
            .collect();
        assert_eq!(fwd_left, left, "all left rows must survive");
        let fwd_right: Vec<u64> = right
            .iter()
            .copied()
            .filter(|&k| {
                jp.prune_decision_typed(JoinType::LeftOuter, Side::Right, k)
                    .is_forward()
            })
            .collect();
        // Master: per-left-row match count over forwarded right rows must
        // equal the truth (NULL-extension for zero matches).
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &k in &right {
            *truth.entry(k).or_insert(0) += 1;
        }
        let mut got: HashMap<u64, u64> = HashMap::new();
        for &k in &fwd_right {
            *got.entry(k).or_insert(0) += 1;
        }
        for &k in &left {
            assert_eq!(
                got.get(&k).copied().unwrap_or(0),
                truth.get(&k).copied().unwrap_or(0),
                "match count for left key {k}"
            );
        }
    }

    #[test]
    fn join_type_prunability_matrix() {
        assert!(JoinType::Inner.prunable(Side::Left));
        assert!(JoinType::Inner.prunable(Side::Right));
        assert!(!JoinType::LeftOuter.prunable(Side::Left));
        assert!(JoinType::LeftOuter.prunable(Side::Right));
        assert!(JoinType::RightOuter.prunable(Side::Left));
        assert!(!JoinType::RightOuter.prunable(Side::Right));
    }
}
