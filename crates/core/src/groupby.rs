//! GROUP BY pruning (§4 and §6; Figures 10d/11d; Appendix A.2.4).
//!
//! Two flavours appear in the paper's evaluation:
//!
//! * **MAX / MIN aggregates** (Appendix B query 5: `SELECT userAgent,
//!   MAX(adRevenue) … GROUP BY userAgent`) — pure pruning. The switch keeps
//!   a `d × w` matrix of `(key, best)` cells; an entry whose value does not
//!   improve its key's cached best cannot affect the output and is pruned.
//!   First occurrences and improvements are forwarded (after updating the
//!   cache), so the master always receives every key's true extremum.
//! * **SUM / COUNT aggregates** (Big Data query B, discussed in §6) — an
//!   entry's value always contributes, so dropping it outright would be
//!   wrong. Following §6 ("we use the remaining stage memory … to store SUM
//!   results"), [`GroupBySumPruner`] folds values into per-key accumulators
//!   in switch registers; hits are pruned, and an evicted `(key, partial)`
//!   pair rides out on the evicting packet (the same displaced-value trick
//!   SKYLINE uses), so no drain pass is needed for evictions. The residual
//!   accumulators are flushed when the FIN arrives ([`GroupBySumPruner::drain`]),
//!   and the master sums partials per key — yielding exact totals.

use crate::decision::{Decision, RowPruner};
use crate::hash::HashFn;
use crate::resources::{table2, ResourceUsage};

/// Which extremum a [`GroupByPruner`] maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extremum {
    /// Keep entries that raise their key's maximum.
    Max,
    /// Keep entries that lower their key's minimum.
    Min,
}

impl Extremum {
    /// Whether `candidate` strictly improves on `incumbent`.
    #[inline]
    pub fn improves(self, candidate: u64, incumbent: u64) -> bool {
        match self {
            Extremum::Max => candidate > incumbent,
            Extremum::Min => candidate < incumbent,
        }
    }
}

/// Deterministic GROUP BY MAX/MIN pruner over a `d × w` matrix of
/// `(key, best)` cells with round-robin (FIFO) replacement.
///
/// The replacement is deliberately FIFO rather than LRU: a hit updates a
/// single value cell and a miss writes one `(key, best)` pair plus the
/// row cursor — exactly the bounded write-set a single wide register
/// access supports on the switch (see `cheetah-pisa`).
#[derive(Debug, Clone)]
pub struct GroupByPruner {
    d: usize,
    w: usize,
    agg: Extremum,
    keys: Vec<u64>,
    bests: Vec<u64>,
    lens: Vec<u16>,
    cursors: Vec<u16>,
    row_hash: HashFn,
}

impl GroupByPruner {
    /// Create a pruner with `d` rows and `w` cells per row.
    /// Table 2 default: `w = 8` (with `d` sized by per-stage SRAM).
    pub fn new(d: usize, w: usize, agg: Extremum, seed: u64) -> Self {
        assert!(d > 0 && w > 0 && w <= u16::MAX as usize);
        GroupByPruner {
            d,
            w,
            agg,
            keys: vec![0; d * w],
            bests: vec![0; d * w],
            lens: vec![0; d],
            cursors: vec![0; d],
            row_hash: HashFn::new(seed),
        }
    }

    /// Process one `(key, value)` entry.
    ///
    /// Forwarded iff the value improves (or first-establishes) the cached
    /// extremum for its key; the cache is updated on forward, so the entry
    /// achieving the true extremum is always forwarded.
    pub fn process(&mut self, key: u64, value: u64) -> Decision {
        let r = self.row_hash.bucket(key, self.d);
        let base = r * self.w;
        let len = self.lens[r] as usize;
        if let Some(i) = self.keys[base..base + len].iter().position(|&k| k == key) {
            if self.agg.improves(value, self.bests[base + i]) {
                self.bests[base + i] = value;
                Decision::Forward
            } else {
                Decision::Prune
            }
        } else if len < self.w {
            self.keys[base + len] = key;
            self.bests[base + len] = value;
            self.lens[r] = (len + 1) as u16;
            Decision::Forward
        } else {
            // Row full: overwrite at the round-robin cursor.
            let cur = self.cursors[r] as usize;
            self.keys[base + cur] = key;
            self.bests[base + cur] = value;
            self.cursors[r] = ((cur + 1) % self.w) as u16;
            Decision::Forward
        }
    }

    /// Table 2 resources: `w` stages, `w` ALUs, `d·w×64b` SRAM.
    pub fn resources(&self) -> ResourceUsage {
        table2::group_by(self.w as u32, self.d as u64)
    }
}

impl RowPruner for GroupByPruner {
    fn process_row(&mut self, row: &[u64]) -> Decision {
        self.process(row[0], row[1])
    }

    fn process_block(&mut self, cols: &[&[u64]], out: &mut [Decision]) {
        // Read the key/value lanes directly; no per-row gather.
        for ((d, &k), &v) in out.iter_mut().zip(cols[0]).zip(cols[1]) {
            *d = self.process(k, v);
        }
    }

    fn reset(&mut self) {
        self.lens.fill(0);
        self.cursors.fill(0);
    }

    fn name(&self) -> &'static str {
        "groupby"
    }
}

/// [`crate::batch::BatchAccess`] adapter for §9 multi-entry packets.
#[derive(Debug, Clone)]
pub struct GroupByBatchAccess {
    inner: GroupByPruner,
}

impl GroupByBatchAccess {
    /// Wrap a GROUP BY pruner for batching.
    pub fn new(inner: GroupByPruner) -> Self {
        GroupByBatchAccess { inner }
    }
}

impl crate::batch::BatchAccess for GroupByBatchAccess {
    fn row_of(&mut self, entry: &[u64]) -> usize {
        self.inner.row_hash.bucket(entry[0], self.inner.d)
    }

    fn process_one(&mut self, entry: &[u64]) -> Decision {
        self.inner.process(entry[0], entry[1])
    }
}

/// What the switch emits for one entry under SUM/COUNT partial aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumAction {
    /// Entry absorbed into a register; packet dropped.
    Absorb,
    /// Cache miss with a full row: the evicted `(key, partial_sum)` pair
    /// replaces the packet payload and is forwarded to the master.
    EvictAndForward {
        /// Key of the evicted accumulator.
        key: u64,
        /// Its partial sum, to be merged at the master.
        partial: u64,
    },
    /// Entry started a fresh accumulator; packet dropped.
    Start,
}

/// GROUP BY SUM/COUNT partial aggregation in switch registers (§6).
///
/// Unlike the extremum pruner this is not a pure filter: the switch holds
/// partial sums, so correctness requires [`GroupBySumPruner::drain`] once
/// the workers' FINs arrive. The master adds up all `(key, partial)` pairs
/// it receives — evictions plus the final drain — giving exact group sums.
/// Sums wrap mod 2⁶⁴, as every exact SUM in the engine does, so a partial
/// folded here or at the master adds up to the same total.
#[derive(Debug, Clone)]
pub struct GroupBySumPruner {
    d: usize,
    w: usize,
    keys: Vec<u64>,
    sums: Vec<u64>,
    lens: Vec<u16>,
    cursors: Vec<u16>,
    row_hash: HashFn,
}

impl GroupBySumPruner {
    /// Create an accumulator matrix with `d` rows and `w` cells per row.
    pub fn new(d: usize, w: usize, seed: u64) -> Self {
        assert!(d > 0 && w > 0 && w <= u16::MAX as usize);
        GroupBySumPruner {
            d,
            w,
            keys: vec![0; d * w],
            sums: vec![0; d * w],
            lens: vec![0; d],
            cursors: vec![0; d],
            row_hash: HashFn::new(seed),
        }
    }

    /// Process one `(key, value)` entry. For COUNT, pass `value = 1`.
    pub fn process(&mut self, key: u64, value: u64) -> SumAction {
        let r = self.row_hash.bucket(key, self.d);
        let base = r * self.w;
        let len = self.lens[r] as usize;
        if let Some(i) = self.keys[base..base + len].iter().position(|&k| k == key) {
            self.sums[base + i] = self.sums[base + i].wrapping_add(value);
            return SumAction::Absorb;
        }
        if len < self.w {
            self.keys[base + len] = key;
            self.sums[base + len] = value;
            self.lens[r] = (len + 1) as u16;
            return SumAction::Start;
        }
        // Row full: overwrite at the round-robin cursor, evicting the old
        // accumulator onto the packet.
        let cur = self.cursors[r] as usize;
        let evicted_key = self.keys[base + cur];
        let evicted_sum = self.sums[base + cur];
        self.keys[base + cur] = key;
        self.sums[base + cur] = value;
        self.cursors[r] = ((cur + 1) % self.w) as u16;
        SumAction::EvictAndForward {
            key: evicted_key,
            partial: evicted_sum,
        }
    }

    /// Batched variant of [`GroupBySumPruner::process`] over key/value
    /// lanes: `out[i]` is `Forward` iff entry `i` evicted an accumulator
    /// (the eviction rides out via `on_evict(key, partial)`), `Prune` for
    /// absorbed/started entries — the same decision stream the per-entry
    /// path produces.
    pub fn process_block(
        &mut self,
        keys: &[u64],
        vals: &[u64],
        out: &mut [Decision],
        mut on_evict: impl FnMut(u64, u64),
    ) {
        for ((d, &k), &v) in out.iter_mut().zip(keys).zip(vals) {
            *d = match self.process(k, v) {
                SumAction::EvictAndForward { key, partial } => {
                    on_evict(key, partial);
                    Decision::Forward
                }
                SumAction::Absorb | SumAction::Start => Decision::Prune,
            };
        }
    }

    /// Clear all accumulators without emitting them — the control-plane
    /// reinstall before a fresh query run (use [`GroupBySumPruner::drain`]
    /// at FIN when the residual partials must reach the master).
    pub fn reset(&mut self) {
        self.lens.fill(0);
        self.cursors.fill(0);
    }

    /// Merge another accumulator matrix into this one: every residual
    /// `(key, partial)` of `other` is re-aggregated through this matrix
    /// exactly like a streamed entry, with displaced accumulators riding
    /// out through `on_evict` — the same packet-riding eviction discipline
    /// the switch uses (§6), now applied at the cross-shard combine layer.
    /// `other` is drained empty; exactness is preserved because every
    /// partial either lands in a cell of `self` or reaches `on_evict`.
    pub fn merge(&mut self, other: &mut GroupBySumPruner, mut on_evict: impl FnMut(u64, u64)) {
        for (key, partial) in other.drain() {
            if let SumAction::EvictAndForward { key, partial } = self.process(key, partial) {
                on_evict(key, partial);
            }
        }
    }

    /// Flush all residual accumulators (the FIN-triggered final pass).
    pub fn drain(&mut self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for r in 0..self.d {
            let base = r * self.w;
            let len = self.lens[r] as usize;
            for i in 0..len {
                out.push((self.keys[base + i], self.sums[base + i]));
            }
        }
        self.reset();
        out
    }

    /// Table 2 resources: same matrix shape as GROUP BY, with two 64-bit
    /// words (key + sum) per cell.
    pub fn resources(&self) -> ResourceUsage {
        let base = table2::group_by(self.w as u32, self.d as u64);
        ResourceUsage {
            sram_bits: base.sram_bits * 2,
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn max_entry_always_forwarded() {
        let mut rng = StdRng::seed_from_u64(1);
        let entries: Vec<(u64, u64)> = (0..50_000)
            .map(|_| (rng.gen_range(0..300), rng.gen_range(0..1_000_000)))
            .collect();
        let mut p = GroupByPruner::new(64, 4, Extremum::Max, 0);
        let mut master: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            if p.process(k, v).is_forward() {
                let e = master.entry(k).or_insert(0);
                *e = (*e).max(v);
            }
        }
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            let e = truth.entry(k).or_insert(0);
            *e = (*e).max(v);
        }
        assert_eq!(master, truth, "master-side MAX must equal ground truth");
    }

    #[test]
    fn min_entry_always_forwarded() {
        let mut rng = StdRng::seed_from_u64(2);
        let entries: Vec<(u64, u64)> = (0..20_000)
            .map(|_| (rng.gen_range(0..100), rng.gen_range(0..1_000_000)))
            .collect();
        let mut p = GroupByPruner::new(16, 2, Extremum::Min, 0);
        let mut master: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            if p.process(k, v).is_forward() {
                let e = master.entry(k).or_insert(u64::MAX);
                *e = (*e).min(v);
            }
        }
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            let e = truth.entry(k).or_insert(u64::MAX);
            *e = (*e).min(v);
        }
        assert_eq!(master, truth);
    }

    #[test]
    fn non_improving_duplicates_pruned() {
        let mut p = GroupByPruner::new(4, 2, Extremum::Max, 0);
        assert!(p.process(1, 100).is_forward());
        assert!(p.process(1, 50).is_prune());
        assert!(p.process(1, 100).is_prune(), "ties do not improve");
        assert!(p.process(1, 101).is_forward());
    }

    #[test]
    fn eviction_costs_pruning_not_correctness() {
        // Single row, w=1: key 2 evicts key 1; key 1's return is forwarded
        // even though it does not improve — harmless for MAX.
        let mut p = GroupByPruner::new(1, 1, Extremum::Max, 0);
        assert!(p.process(1, 100).is_forward());
        assert!(p.process(2, 10).is_forward()); // evicts key 1
        assert!(p.process(1, 5).is_forward()); // re-inserted, forwarded
    }

    #[test]
    fn sum_pruner_exact_totals() {
        let mut rng = StdRng::seed_from_u64(3);
        let entries: Vec<(u64, u64)> = (0..30_000)
            .map(|_| (rng.gen_range(0..500), rng.gen_range(0..1000)))
            .collect();
        let mut p = GroupBySumPruner::new(32, 4, 0);
        let mut master: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            if let SumAction::EvictAndForward { key, partial } = p.process(k, v) {
                *master.entry(key).or_insert(0) += partial;
            }
        }
        for (key, partial) in p.drain() {
            *master.entry(key).or_insert(0) += partial;
        }
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            *truth.entry(k).or_insert(0) += v;
        }
        assert_eq!(master, truth, "partial aggregation must sum exactly");
    }

    #[test]
    fn sum_registers_wrap_mod_2_64() {
        let mut p = GroupBySumPruner::new(4, 2, 0);
        for _ in 0..3 {
            p.process(1, 1 << 63);
        }
        p.process(2, u64::MAX);
        p.process(2, 2);
        let mut drained = p.drain();
        drained.sort_unstable();
        assert_eq!(drained, vec![(1, 1 << 63), (2, 1)]);
    }

    #[test]
    fn sum_pruner_absorbs_hot_keys() {
        let mut p = GroupBySumPruner::new(8, 2, 0);
        assert_eq!(p.process(7, 5), SumAction::Start);
        for _ in 0..100 {
            assert_eq!(p.process(7, 5), SumAction::Absorb);
        }
        let drained = p.drain();
        assert_eq!(drained, vec![(7, 505)]);
    }

    #[test]
    fn merging_shard_registers_preserves_exact_totals() {
        // Shard a stream over four starved matrices, then merge them into
        // one (collecting merge-time evictions): the combined totals must
        // equal ground truth exactly, however much eviction churn happens.
        let mut rng = StdRng::seed_from_u64(17);
        let entries: Vec<(u64, u64)> = (0..40_000)
            .map(|_| (rng.gen_range(0..300), rng.gen_range(0..100)))
            .collect();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut master: HashMap<u64, u64> = HashMap::new();
        let mut shards: Vec<GroupBySumPruner> =
            (0..4).map(|_| GroupBySumPruner::new(4, 2, 5)).collect();
        for (i, &(k, v)) in entries.iter().enumerate() {
            *truth.entry(k).or_insert(0) += v;
            if let SumAction::EvictAndForward { key, partial } = shards[i % 4].process(k, v) {
                *master.entry(key).or_insert(0) += partial;
            }
        }
        let (first, rest) = shards.split_first_mut().unwrap();
        for shard in rest {
            first.merge(shard, |key, partial| {
                *master.entry(key).or_insert(0) += partial;
            });
            assert!(shard.drain().is_empty(), "merge must drain the source");
        }
        for (key, partial) in first.drain() {
            *master.entry(key).or_insert(0) += partial;
        }
        assert_eq!(master, truth, "merged registers must sum exactly");
    }

    #[test]
    fn drain_empties_state() {
        let mut p = GroupBySumPruner::new(8, 2, 0);
        p.process(1, 1);
        p.process(2, 2);
        assert_eq!(p.drain().len(), 2);
        assert!(p.drain().is_empty());
    }

    #[test]
    fn sum_reset_discards_residuals() {
        let mut p = GroupBySumPruner::new(8, 2, 0);
        p.process(1, 10);
        p.process(2, 20);
        p.reset();
        assert!(p.drain().is_empty(), "reset drops partials unemitted");
        // Fresh accumulation starts from zero, not the stale cells.
        p.process(1, 5);
        assert_eq!(p.drain(), vec![(1, 5)]);
    }

    #[test]
    fn count_via_value_one() {
        let mut p = GroupBySumPruner::new(8, 2, 0);
        for _ in 0..42 {
            p.process(9, 1);
        }
        assert_eq!(p.drain(), vec![(9, 42)]);
    }

    #[test]
    fn resources_match_table2() {
        let p = GroupByPruner::new(4096, 8, Extremum::Max, 0);
        let r = p.resources();
        assert_eq!(r.stages, 8);
        assert_eq!(r.alus, 8);
        assert_eq!(r.sram_bits, 4096 * 8 * 64);
    }

    #[test]
    fn reset_and_name() {
        let mut p = GroupByPruner::new(4, 2, Extremum::Max, 0);
        assert_eq!(p.name(), "groupby");
        assert!(p.process_row(&[1, 10]).is_forward());
        assert!(p.process_row(&[1, 5]).is_prune());
        p.reset();
        assert!(p.process_row(&[1, 5]).is_forward());
    }
}
