//! HAVING pruning with a Count-Min sketch (§4.3, Example 5; Figures 10f/11f).
//!
//! `SELECT key … GROUP BY key HAVING SUM(val) > c` (or COUNT) cannot be
//! decided from a single entry, so the switch folds values into a
//! **Count-Min sketch**. Count-Min was chosen over Count sketch precisely
//! because of its *one-sided* error: the estimate `ĝ(x)` always satisfies
//! `ĝ(x) ≥ f(x)`, so pruning only when `ĝ(x) ≤ c` can never lose an output
//! key — over-estimates merely forward some losers (pruning rate, not
//! correctness).
//!
//! The execution is two-pass (§4.3): pass 1 streams all entries through
//! the sketch and forwards only the single entry on which a key's estimate
//! first *crosses* `c` (so the master learns the candidate key set); pass 2
//! re-streams the data forwarding only candidate-key entries, from which
//! the master computes exact aggregates and discards false positives.

use crate::decision::{Decision, RowPruner};
use crate::distinct::{CacheMatrix, EvictionPolicy};
use crate::hash::HashFn;
use crate::resources::{table2, ResourceUsage};

/// Count-Min sketch with `d` rows of `w` counters.
///
/// Table 2 default: `w = 1024, d = 3`. Each row lives in its own register
/// array; update is one read-modify-write per row.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    d: usize,
    w: usize,
    counters: Vec<u64>,
    hashes: Vec<HashFn>,
}

impl CountMinSketch {
    /// Create a `d`-row, `w`-counter sketch.
    pub fn new(d: usize, w: usize, seed: u64) -> Self {
        assert!(d > 0 && w > 0);
        CountMinSketch {
            d,
            w,
            counters: vec![0; d * w],
            hashes: (0..d)
                .map(|i| HashFn::new(seed ^ ((i as u64) << 40)))
                .collect(),
        }
    }

    /// Add `delta` to `key`'s cells; returns `(estimate_before, estimate_after)`.
    ///
    /// The before/after pair is what the switch needs to detect a threshold
    /// crossing in-flight (a rolling minimum across the `d` stages, taken
    /// twice: once over the read values, once over the written values).
    pub fn update(&mut self, key: u64, delta: u64) -> (u64, u64) {
        let mut before = u64::MAX;
        let mut after = u64::MAX;
        for r in 0..self.d {
            let c = self.hashes[r].bucket(key, self.w);
            let cell = &mut self.counters[r * self.w + c];
            before = before.min(*cell);
            *cell = cell.saturating_add(delta);
            after = after.min(*cell);
        }
        (before, after)
    }

    /// One-sided estimate of the key's total: `estimate(k) ≥ true_sum(k)`.
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.d)
            .map(|r| self.counters[r * self.w + self.hashes[r].bucket(key, self.w)])
            .min()
            .unwrap_or(0)
    }

    /// Dimensions `(d, w)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.d, self.w)
    }

    /// The raw counter cells, row-major (`w` cells per row) — the
    /// sketch's entire soft state as a flat `u64` array, for shipping a
    /// shard-built sketch to the master over the wire protocol.
    pub fn counters(&self) -> &[u64] {
        &self.counters
    }

    /// Rebuild a sketch from shipped parts: dimensions, the seed its row
    /// hashes were derived from, and the raw counters. Inverse of
    /// [`CountMinSketch::counters`] for a sketch built with the same
    /// `seed` (hash derivation matches [`CountMinSketch::new`]).
    pub fn from_parts(d: usize, w: usize, seed: u64, counters: Vec<u64>) -> Self {
        assert!(d > 0 && w > 0);
        assert_eq!(counters.len(), d * w, "counter count must match dims");
        CountMinSketch {
            d,
            w,
            counters,
            hashes: (0..d)
                .map(|i| HashFn::new(seed ^ ((i as u64) << 40)))
                .collect(),
        }
    }

    /// Zero all counters.
    pub fn clear(&mut self) {
        self.counters.fill(0);
    }

    /// Merge another sketch into this one by cell-wise addition.
    ///
    /// Count-Min updates are per-cell additions, so the sum of two
    /// sketches over disjoint sub-streams is **exactly** the sketch of the
    /// concatenated stream — which makes per-shard sketches combinable at
    /// the master without losing the one-sided guarantee: the merged
    /// estimate still upper-bounds every key's *global* total. Both
    /// sketches must share dimensions and seeds.
    pub fn merge(&mut self, other: &CountMinSketch) {
        assert_eq!(
            (self.d, self.w, &self.hashes),
            (other.d, other.w, &other.hashes),
            "count-min merge requires identical dimensions and seeds"
        );
        for (c, o) in self.counters.iter_mut().zip(&other.counters) {
            *c = c.saturating_add(*o);
        }
    }

    /// Table 2 resources: `⌈d/A⌉` stages, `d` ALUs, `(d·w)×64b` SRAM.
    pub fn resources(&self, alus_per_stage: u32) -> ResourceUsage {
        table2::having(self.w as u64, self.d as u32, alus_per_stage)
    }
}

/// Keys whose Count-Min estimates [`HavingPruner::pass_two_block`] builds
/// together: 8 KB of running minima on the stack, one engine block.
const PROBE_LANE: usize = 1024;

/// Two-pass HAVING pruner for `SUM(val) > c` / `COUNT(*) > c`.
#[derive(Debug, Clone)]
pub struct HavingPruner {
    sketch: CountMinSketch,
    threshold: u64,
}

impl HavingPruner {
    /// Create a pruner for `HAVING agg > threshold` with a `d×w` sketch.
    pub fn new(d: usize, w: usize, threshold: u64, seed: u64) -> Self {
        HavingPruner {
            sketch: CountMinSketch::new(d, w, seed),
            threshold,
        }
    }

    /// Wrap an already-built (e.g. wire-decoded and merged) sketch as a
    /// pruner — how the master reconstructs the pass-2 candidate rule
    /// from shard-shipped sketch state.
    pub fn from_sketch(sketch: CountMinSketch, threshold: u64) -> Self {
        HavingPruner { sketch, threshold }
    }

    /// Pass 1: fold the entry into the sketch. Forwards exactly the entry
    /// on which the key's estimate first exceeds the threshold — the
    /// candidate announcement. For COUNT semantics pass `value = 1`.
    pub fn pass_one(&mut self, key: u64, value: u64) -> Decision {
        let (before, after) = self.sketch.update(key, value);
        if before <= self.threshold && after > self.threshold {
            Decision::Forward
        } else {
            Decision::Prune
        }
    }

    /// Pass 2: forward only entries of candidate keys (estimate above the
    /// threshold), so the master can compute exact sums for them.
    pub fn pass_two(&self, key: u64) -> Decision {
        if self.sketch.estimate(key) > self.threshold {
            Decision::Forward
        } else {
            Decision::Prune
        }
    }

    /// Pass-1 block loop: fold a `(keys, vals)` block into the sketch,
    /// writing each entry's announcement decision into `out` —
    /// bit-identical to per-entry [`Self::pass_one`] calls.
    pub fn pass_one_block(&mut self, keys: &[u64], vals: &[u64], out: &mut [Decision]) {
        for ((d, &k), &v) in out.iter_mut().zip(keys).zip(vals) {
            *d = self.pass_one(k, v);
        }
    }

    /// Pass-2 block loop: candidate-key decisions for a key block —
    /// bit-identical to per-entry [`Self::pass_two`] calls.
    ///
    /// Sketch-row-major: per 1,024 keys, each of the `d` rows runs one
    /// hash-and-min pass over a stack lane of running estimates, then one
    /// threshold compare per entry decides. Every pass is a straight loop
    /// of independent hashes and loads into one `w`-cell row, where the
    /// per-entry form hops across all `d` rows and folds a minimum per
    /// key. Over 400k keys at d = 3, w = 1,024 pass 2 measured 2.2 →
    /// 1.9 ms. Pass 1 stays entry-major: its lane-first form must carry
    /// every entry's before/after pair across the rows, and measured
    /// slower (3.4 → 4.5 ms).
    pub fn pass_two_block(&self, keys: &[u64], out: &mut [Decision]) {
        let CountMinSketch {
            w,
            counters,
            hashes,
            ..
        } = &self.sketch;
        let mut lane = [0u64; PROBE_LANE];
        for (keys, out) in keys.chunks(PROBE_LANE).zip(out.chunks_mut(PROBE_LANE)) {
            let estimates = &mut lane[..keys.len()];
            estimates.fill(u64::MAX);
            for (hash, row) in hashes.iter().zip(counters.chunks_exact(*w)) {
                for (est, &k) in estimates.iter_mut().zip(keys) {
                    *est = (*est).min(row[hash.bucket(k, *w)]);
                }
            }
            for (d, &est) in out.iter_mut().zip(estimates.iter()) {
                *d = if est > self.threshold {
                    Decision::Forward
                } else {
                    Decision::Prune
                };
            }
        }
    }

    /// The HAVING threshold `c`.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Access the sketch (for resource accounting / experiments).
    pub fn sketch(&self) -> &CountMinSketch {
        &self.sketch
    }

    /// Reset sketch state for a new run.
    pub fn clear(&mut self) {
        self.sketch.clear();
    }

    /// Merge another pruner's pass-1 sketch into this one (cell-wise
    /// [`CountMinSketch::merge`]). After merging every shard's sketch,
    /// [`Self::pass_two`] decides candidates against *global* estimates —
    /// the sharded flow's "sketch summation before pass 2". Thresholds
    /// must match: both pruners answer the same query.
    pub fn merge(&mut self, other: &HavingPruner) {
        assert_eq!(
            self.threshold, other.threshold,
            "merging sketches of different HAVING thresholds"
        );
        self.sketch.merge(&other.sketch);
    }
}

/// Single-pass `HAVING MAX(val) > c` / `MIN(val) < c` pruner (§4.3: "For
/// MAX and MIN, we simply maintain a counter with the current max and min
/// value. If it is satisfied, we proceed to our Distinct solution").
///
/// An entry witnesses its key's membership in the output iff its own value
/// satisfies the predicate, so the switch forwards the *first* satisfying
/// entry per key (the DISTINCT matrix deduplicates; its false negatives
/// merely forward a key twice). No second pass and no sketch needed — the
/// master's output is exactly the forwarded key set.
#[derive(Debug, Clone)]
pub struct HavingExtremumPruner {
    matrix: CacheMatrix,
    row_hash: HashFn,
    threshold: u64,
    /// True for `MAX(val) > c`, false for `MIN(val) < c`.
    max_variant: bool,
}

impl HavingExtremumPruner {
    /// `HAVING MAX(val) > threshold` with a `d×w` dedup matrix.
    pub fn new_max(d: usize, w: usize, threshold: u64, seed: u64) -> Self {
        HavingExtremumPruner {
            matrix: CacheMatrix::new(d, w, EvictionPolicy::Lru, seed),
            row_hash: HashFn::new(seed ^ 0x4a71_11c5),
            threshold,
            max_variant: true,
        }
    }

    /// `HAVING MIN(val) < threshold` with a `d×w` dedup matrix.
    pub fn new_min(d: usize, w: usize, threshold: u64, seed: u64) -> Self {
        HavingExtremumPruner {
            max_variant: false,
            ..Self::new_max(d, w, threshold, seed)
        }
    }

    /// Process one `(key, value)` entry.
    pub fn process(&mut self, key: u64, value: u64) -> Decision {
        let satisfied = if self.max_variant {
            value > self.threshold
        } else {
            value < self.threshold
        };
        if !satisfied {
            return Decision::Prune;
        }
        let row = self.row_hash.bucket(key, self.matrix.rows());
        self.matrix.process_in_row(row, key)
    }

    /// Reset matrix state.
    pub fn clear(&mut self) {
        self.matrix.clear();
    }
}

impl RowPruner for HavingExtremumPruner {
    fn process_row(&mut self, row: &[u64]) -> Decision {
        self.process(row[0], row[1])
    }

    fn reset(&mut self) {
        self.clear();
    }

    fn name(&self) -> &'static str {
        if self.max_variant {
            "having-max"
        } else {
            "having-min"
        }
    }
}

/// [`RowPruner`] adapter running pass 1 semantics on `(key, value)` rows —
/// the phase a packed multi-query switch executes inline (§6).
#[derive(Debug, Clone)]
pub struct HavingPassOne {
    inner: HavingPruner,
}

impl HavingPassOne {
    /// Wrap a fresh HAVING pruner.
    pub fn new(inner: HavingPruner) -> Self {
        HavingPassOne { inner }
    }

    /// Unwrap, e.g. to run pass 2 afterwards.
    pub fn into_inner(self) -> HavingPruner {
        self.inner
    }

    /// The typed phase transition: re-arm the populated sketch as the
    /// pass-2 pruner (the control-plane rule flip between streams).
    pub fn begin_pass_two(self) -> HavingPassTwo {
        HavingPassTwo { inner: self.inner }
    }

    /// Fold another shard's pass-1 state into this one (see
    /// [`HavingPruner::merge`]): the cross-shard combine step that must
    /// run before any shard starts pass 2.
    pub fn merge(&mut self, other: &HavingPassOne) {
        self.inner.merge(&other.inner);
    }
}

impl RowPruner for HavingPassOne {
    fn process_row(&mut self, row: &[u64]) -> Decision {
        self.inner.pass_one(row[0], row[1])
    }

    fn reset(&mut self) {
        self.inner.clear();
    }

    fn name(&self) -> &'static str {
        "having"
    }
}

/// [`RowPruner`] adapter running pass 2 semantics on `(key, value)` rows:
/// forwards entries of candidate keys out of a pass-1-populated sketch.
/// Constructed through [`HavingPassOne::begin_pass_two`], so the phase
/// order is enforced by the types.
#[derive(Debug, Clone)]
pub struct HavingPassTwo {
    inner: HavingPruner,
}

impl HavingPassTwo {
    /// Unwrap the underlying pruner (e.g. for resource accounting).
    pub fn into_inner(self) -> HavingPruner {
        self.inner
    }
}

impl RowPruner for HavingPassTwo {
    fn process_row(&mut self, row: &[u64]) -> Decision {
        self.inner.pass_two(row[0])
    }

    fn reset(&mut self) {
        self.inner.clear();
    }

    fn name(&self) -> &'static str {
        "having-pass2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{HashMap, HashSet};

    #[test]
    fn count_min_never_underestimates() {
        let mut cm = CountMinSketch::new(3, 64, 0);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20_000 {
            let k = rng.gen_range(0..1_000u64);
            let v = rng.gen_range(0..100u64);
            cm.update(k, v);
            *truth.entry(k).or_insert(0) += v;
        }
        for (&k, &t) in &truth {
            assert!(cm.estimate(k) >= t, "underestimate for key {k}");
        }
    }

    #[test]
    fn count_min_exact_when_no_collisions() {
        let mut cm = CountMinSketch::new(3, 4096, 0);
        for k in 0..10u64 {
            cm.update(k, k + 1);
        }
        for k in 0..10u64 {
            assert_eq!(cm.estimate(k), k + 1, "sparse sketch should be exact");
        }
    }

    #[test]
    fn update_reports_before_and_after() {
        let mut cm = CountMinSketch::new(3, 1024, 0);
        let (b0, a0) = cm.update(7, 5);
        assert_eq!(b0, 0);
        assert_eq!(a0, 5);
        let (b1, a1) = cm.update(7, 10);
        assert_eq!(b1, 5);
        assert_eq!(a1, 15);
    }

    #[test]
    fn having_never_loses_output_key() {
        let mut rng = StdRng::seed_from_u64(2);
        // Skewed sums: a few heavy keys cross the threshold.
        let entries: Vec<(u64, u64)> = (0..50_000)
            .map(|_| {
                let k = rng.gen_range(0..200u64);
                let v = if k < 5 {
                    rng.gen_range(50..150)
                } else {
                    rng.gen_range(0..3)
                };
                (k, v)
            })
            .collect();
        let threshold = 10_000u64;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            *truth.entry(k).or_insert(0) += v;
        }
        let output_keys: HashSet<u64> = truth
            .iter()
            .filter(|(_, &s)| s > threshold)
            .map(|(&k, _)| k)
            .collect();
        assert!(!output_keys.is_empty(), "test needs some output keys");

        let mut p = HavingPruner::new(3, 512, threshold, 0);
        let mut candidates = HashSet::new();
        for &(k, v) in &entries {
            if p.pass_one(k, v).is_forward() {
                candidates.insert(k);
            }
        }
        // Every true output key must be announced in pass 1 …
        for k in &output_keys {
            assert!(candidates.contains(k), "output key {k} never announced");
        }
        // … and fully re-streamed in pass 2.
        let mut master: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            if p.pass_two(k).is_forward() {
                *master.entry(k).or_insert(0) += v;
            }
        }
        let final_keys: HashSet<u64> = master
            .iter()
            .filter(|(_, &s)| s > threshold)
            .map(|(&k, _)| k)
            .collect();
        assert_eq!(final_keys, output_keys, "master output differs from truth");
    }

    #[test]
    fn pass_one_announces_each_candidate_once() {
        let mut p = HavingPruner::new(3, 1024, 100, 0);
        let mut announcements = 0;
        for _ in 0..50 {
            if p.pass_one(42, 10).is_forward() {
                announcements += 1;
            }
        }
        assert_eq!(announcements, 1, "crossing happens exactly once");
    }

    #[test]
    fn small_sums_fully_pruned() {
        let mut p = HavingPruner::new(3, 1024, 1_000_000, 0);
        for k in 0..100u64 {
            assert!(p.pass_one(k, 5).is_prune());
        }
        for k in 0..100u64 {
            assert!(p.pass_two(k).is_prune());
        }
    }

    #[test]
    fn tiny_sketch_overestimates_cost_pruning_not_correctness() {
        // Cram 1000 keys into 8 counters: collisions galore. Output keys
        // must still survive; extra keys may leak through.
        let mut rng = StdRng::seed_from_u64(3);
        let entries: Vec<(u64, u64)> = (0..20_000)
            .map(|_| (rng.gen_range(0..1000u64), rng.gen_range(0..20u64)))
            .collect();
        let threshold = 2_000u64;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            *truth.entry(k).or_insert(0) += v;
        }
        let mut p = HavingPruner::new(2, 8, threshold, 0);
        for &(k, v) in &entries {
            p.pass_one(k, v);
        }
        for (&k, &s) in &truth {
            if s > threshold {
                assert!(
                    p.pass_two(k).is_forward(),
                    "collision caused a lost output key"
                );
            }
        }
    }

    #[test]
    fn block_loops_match_per_entry_decisions() {
        let mut rng = StdRng::seed_from_u64(21);
        let keys: Vec<u64> = (0..6_000).map(|_| rng.gen_range(0..150u64)).collect();
        let vals: Vec<u64> = (0..6_000).map(|_| rng.gen_range(0..50u64)).collect();
        let threshold = 700u64;
        let mut a = HavingPruner::new(3, 256, threshold, 4);
        let mut b = a.clone();
        let expected1: Vec<Decision> = keys
            .iter()
            .zip(&vals)
            .map(|(&k, &v)| a.pass_one(k, v))
            .collect();
        let mut got1 = vec![Decision::Prune; keys.len()];
        b.pass_one_block(&keys, &vals, &mut got1);
        assert_eq!(got1, expected1, "pass-1 block loop diverged");
        let expected2: Vec<Decision> = keys.iter().map(|&k| a.pass_two(k)).collect();
        let mut got2 = vec![Decision::Prune; keys.len()];
        b.pass_two_block(&keys, &mut got2);
        assert_eq!(got2, expected2, "pass-2 block loop diverged");
    }

    #[test]
    fn pass_two_kernel_matches_per_entry_at_every_geometry() {
        let mut rng = StdRng::seed_from_u64(28);
        let entries: Vec<(u64, u64)> = (0..5_000)
            .map(|_| (rng.gen_range(0..400u64), rng.gen_range(0..50u64)))
            .collect();
        // Keys the sketch saw and keys it never did, across lane edges.
        let keys: Vec<u64> = (0..3_000).map(|_| rng.gen_range(0..600u64)).collect();
        for d in [1, 3, 5] {
            for w in [1, 7, 1024] {
                let mut p = HavingPruner::new(d, w, 0, 9);
                for &(k, v) in &entries {
                    p.sketch.update(k, v);
                }
                // The median estimate: about half the keys forward.
                let mut estimates: Vec<u64> = keys.iter().map(|&k| p.sketch.estimate(k)).collect();
                estimates.sort_unstable();
                p.threshold = estimates[estimates.len() / 2];
                for len in [0, 1, 1023, 1024, 1025, 3000] {
                    let block = &keys[..len];
                    let expected: Vec<Decision> = block.iter().map(|&k| p.pass_two(k)).collect();
                    let mut got = vec![Decision::Prune; len];
                    p.pass_two_block(block, &mut got);
                    assert_eq!(got, expected, "d = {d}, w = {w}, {len} keys");
                }
            }
        }
    }

    #[test]
    fn merged_shard_sketches_equal_one_global_sketch() {
        // Split a stream across three "shards", sketch each independently,
        // merge — every cell (hence every estimate) must equal the sketch
        // that saw the whole stream.
        let mut rng = StdRng::seed_from_u64(51);
        let entries: Vec<(u64, u64)> = (0..9_000)
            .map(|_| (rng.gen_range(0..400u64), rng.gen_range(0..30u64)))
            .collect();
        let mut global = CountMinSketch::new(3, 128, 7);
        let mut shards: Vec<CountMinSketch> =
            (0..3).map(|_| CountMinSketch::new(3, 128, 7)).collect();
        for (i, &(k, v)) in entries.iter().enumerate() {
            global.update(k, v);
            shards[i % 3].update(k, v);
        }
        let (first, rest) = shards.split_first_mut().unwrap();
        for s in rest {
            first.merge(s);
        }
        for k in 0..400u64 {
            assert_eq!(
                first.estimate(k),
                global.estimate(k),
                "merged estimate diverged for key {k}"
            );
        }
    }

    #[test]
    fn sharded_pass_one_merge_never_loses_an_output_key() {
        // Keys whose global sum crosses the threshold only across shard
        // boundaries: no shard-local sketch would announce them, but the
        // merged sketch must keep them as pass-2 candidates.
        let threshold = 1_000u64;
        let mut shards: Vec<HavingPassOne> = (0..4)
            .map(|_| HavingPassOne::new(HavingPruner::new(3, 256, threshold, 3)))
            .collect();
        for shard in &mut shards {
            // 300 per shard: below the threshold everywhere locally …
            shard.process_row(&[42, 300]);
        }
        let (first, rest) = shards.split_first_mut().unwrap();
        for s in rest {
            assert!(
                s.inner.pass_two(42).is_prune(),
                "shard-local estimate must stay below the threshold"
            );
            first.merge(s);
        }
        // … but 1200 globally: the merged sketch must forward it.
        assert!(
            first.inner.pass_two(42).is_forward(),
            "merged sketch lost a cross-shard output key"
        );
    }

    #[test]
    #[should_panic(expected = "identical dimensions")]
    fn sketch_merge_rejects_mismatched_dims() {
        let mut a = CountMinSketch::new(3, 64, 0);
        let b = CountMinSketch::new(3, 128, 0);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "different HAVING thresholds")]
    fn pruner_merge_rejects_mismatched_thresholds() {
        let mut a = HavingPruner::new(3, 64, 10, 0);
        let b = HavingPruner::new(3, 64, 20, 0);
        a.merge(&b);
    }

    #[test]
    fn clear_resets_sketch() {
        let mut p = HavingPruner::new(3, 64, 10, 0);
        p.pass_one(1, 100);
        assert!(p.pass_two(1).is_forward());
        p.clear();
        assert!(p.pass_two(1).is_prune());
    }

    #[test]
    fn resources_match_table2() {
        let cm = CountMinSketch::new(3, 1024, 0);
        let r = cm.resources(10);
        assert_eq!(r.stages, 1);
        assert_eq!(r.alus, 3);
        assert_eq!(r.sram_bits, 3 * 1024 * 64);
    }

    #[test]
    fn row_pruner_adapter() {
        let mut p = HavingPassOne::new(HavingPruner::new(3, 64, 10, 0));
        assert_eq!(p.name(), "having");
        assert!(p.process_row(&[5, 11]).is_forward(), "immediate crossing");
        assert!(p.process_row(&[5, 1]).is_prune());
        p.reset();
        assert!(p.process_row(&[5, 11]).is_forward());
    }

    #[test]
    fn pass_two_adapter_continues_from_pass_one_state() {
        let mut p1 = HavingPassOne::new(HavingPruner::new(3, 64, 10, 0));
        p1.process_row(&[5, 11]); // key 5 crosses the threshold
        p1.process_row(&[6, 3]); // key 6 stays below
        let mut p2 = p1.begin_pass_two();
        assert_eq!(p2.name(), "having-pass2");
        assert!(p2.process_row(&[5, 11]).is_forward(), "candidate key");
        assert!(p2.process_row(&[6, 3]).is_prune(), "loser key");
        p2.reset();
        assert!(
            p2.process_row(&[5, 11]).is_prune(),
            "reset clears the sketch"
        );
        let inner = p2.into_inner();
        assert_eq!(inner.sketch().estimate(5), 0);
    }

    #[test]
    fn having_max_exact_single_pass() {
        let mut rng = StdRng::seed_from_u64(41);
        let entries: Vec<(u64, u64)> = (0..30_000)
            .map(|_| (rng.gen_range(0..300u64), rng.gen_range(0..10_000u64)))
            .collect();
        let threshold = 9_900u64;
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            let e = truth.entry(k).or_insert(0);
            *e = (*e).max(v);
        }
        let winners: HashSet<u64> = truth
            .iter()
            .filter(|(_, &m)| m > threshold)
            .map(|(&k, _)| k)
            .collect();
        assert!(!winners.is_empty() && winners.len() < 300);
        let mut p = HavingExtremumPruner::new_max(64, 2, threshold, 7);
        let mut master: HashSet<u64> = HashSet::new();
        let mut forwarded = 0u64;
        for &(k, v) in &entries {
            if p.process(k, v).is_forward() {
                master.insert(k);
                forwarded += 1;
            }
        }
        assert_eq!(master, winners, "HAVING MAX output diverged");
        // Dedup should keep forwarding close to one entry per winner.
        assert!(
            forwarded < winners.len() as u64 * 4,
            "dedup ineffective: {forwarded} forwards for {} winners",
            winners.len()
        );
    }

    #[test]
    fn having_min_exact_single_pass() {
        let mut rng = StdRng::seed_from_u64(43);
        let entries: Vec<(u64, u64)> = (0..20_000)
            .map(|_| (rng.gen_range(0..200u64), rng.gen_range(0..10_000u64)))
            .collect();
        let threshold = 40u64;
        let winners: HashSet<u64> = {
            let mut mins: HashMap<u64, u64> = HashMap::new();
            for &(k, v) in &entries {
                let e = mins.entry(k).or_insert(u64::MAX);
                *e = (*e).min(v);
            }
            mins.into_iter()
                .filter(|&(_, m)| m < threshold)
                .map(|(k, _)| k)
                .collect()
        };
        let mut p = HavingExtremumPruner::new_min(64, 2, threshold, 9);
        let mut master: HashSet<u64> = HashSet::new();
        for &(k, v) in &entries {
            if p.process(k, v).is_forward() {
                master.insert(k);
            }
        }
        assert_eq!(master, winners, "HAVING MIN output diverged");
    }

    #[test]
    fn having_extremum_reset_and_names() {
        let mut p = HavingExtremumPruner::new_max(8, 2, 10, 0);
        assert_eq!(p.name(), "having-max");
        assert!(p.process_row(&[1, 11]).is_forward());
        assert!(
            p.process_row(&[1, 12]).is_prune(),
            "dedup on second witness"
        );
        p.reset();
        assert!(p.process_row(&[1, 11]).is_forward());
        assert_eq!(
            HavingExtremumPruner::new_min(8, 2, 10, 0).name(),
            "having-min"
        );
    }
}
