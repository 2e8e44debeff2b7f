//! DISTINCT pruning (§4.2, Example 2; probabilistic variant §5, Example 8).
//!
//! The switch keeps a `d × w` matrix of small caches. An incoming value is
//! hashed to one of `d` rows and compared against the `w` values cached
//! there: a hit means the value has certainly been forwarded before, so the
//! packet is pruned; a miss inserts the value and forwards the packet. The
//! structure is the *opposite* of a Bloom filter: false negatives (misses on
//! seen values) only cost pruning rate, while false positives are impossible
//! — exactly the one-sided error DISTINCT needs, since the master can drop
//! surviving duplicates but cannot resurrect pruned values.
//!
//! Two replacement policies are modelled, matching Table 2's two rows:
//!
//! * **LRU** — the hardware performs a rolling replacement across `w`
//!   pipeline stages (new value into stage 1, displaced value into stage 2,
//!   …). A hit at stage `i` stops the roll there, which *is* move-to-front;
//!   costs one stage per column.
//! * **FIFO** — a per-row round-robin pointer; all `w` cells can share a
//!   stage if same-stage ALUs can read the same memory (the `*` footnote in
//!   Table 2), so it needs only `⌈w/A⌉` stages.
//!
//! For wide/multi-column keys the CWorker sends a fingerprint instead of the
//! value ([`crate::fingerprint`]); collisions can then prune a novel value,
//! which is the probabilistic guarantee of Theorem 4.

use crate::decision::{Decision, RowPruner};
use crate::fingerprint::Fingerprinter;
use crate::hash::HashFn;
use crate::resources::{ResourceUsage, SwitchModel};

/// Cache replacement policy for [`CacheMatrix`] rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Rolling replacement = move-to-front on hit (one stage per column).
    Lru,
    /// Round-robin overwrite, no reordering on hit (`⌈w/A⌉` stages).
    Fifo,
}

/// The `d × w` cache matrix at the heart of DISTINCT pruning.
///
/// Stores raw 64-bit values (or fingerprints — the matrix does not care).
/// `process` returns [`Decision::Prune`] iff the value is currently cached
/// in its row, guaranteeing no false positives: a pruned value was
/// necessarily inserted (and therefore forwarded) earlier.
#[derive(Debug, Clone)]
pub struct CacheMatrix {
    d: usize,
    w: usize,
    policy: EvictionPolicy,
    /// Flattened `d × w` cell storage; row `r` occupies `r*w .. r*w+len[r]`.
    cells: Vec<u64>,
    /// Number of valid cells per row (rows fill from the front).
    lens: Vec<u16>,
    /// FIFO replacement cursor per row (unused under LRU).
    cursors: Vec<u16>,
    row_hash: HashFn,
}

impl CacheMatrix {
    /// Create a matrix with `d` rows and `w` columns under `policy`.
    ///
    /// The paper's default configuration is `w = 2, d = 4096` (Table 2).
    pub fn new(d: usize, w: usize, policy: EvictionPolicy, seed: u64) -> Self {
        assert!(d > 0, "need at least one row");
        assert!(w > 0 && w <= u16::MAX as usize, "invalid column count {w}");
        CacheMatrix {
            d,
            w,
            policy,
            cells: vec![0; d * w],
            lens: vec![0; d],
            cursors: vec![0; d],
            row_hash: HashFn::new(seed),
        }
    }

    /// Number of rows `d`.
    pub fn rows(&self) -> usize {
        self.d
    }

    /// Number of columns `w`.
    pub fn columns(&self) -> usize {
        self.w
    }

    /// Process one value: prune on a cache hit, insert-and-forward on miss.
    pub fn process(&mut self, value: u64) -> Decision {
        let r = self.row_hash.bucket(value, self.d);
        self.process_in_row(r, value)
    }

    /// Process a value whose row was chosen by the caller (used by the
    /// fingerprint variant, where the row comes from an independent hash of
    /// the original key, not of the fingerprint — see Theorem 4).
    pub fn process_in_row(&mut self, row: usize, value: u64) -> Decision {
        debug_assert!(row < self.d);
        let base = row * self.w;
        let len = self.lens[row] as usize;
        let hit = self.cells[base..base + len]
            .iter()
            .position(|&c| c == value);
        match hit {
            Some(i) => {
                if self.policy == EvictionPolicy::Lru && i > 0 {
                    // Move-to-front: the hardware rolling swap ends at the
                    // matching stage, leaving the hit value in stage 1.
                    self.cells[base..=base + i].rotate_right(1);
                }
                Decision::Prune
            }
            None => {
                match self.policy {
                    EvictionPolicy::Lru => {
                        let new_len = (len + 1).min(self.w);
                        // Shift right, dropping the least-recent value.
                        self.cells[base..base + new_len].rotate_right(1);
                        self.cells[base] = value;
                        self.lens[row] = new_len as u16;
                    }
                    EvictionPolicy::Fifo => {
                        if len < self.w {
                            self.cells[base + len] = value;
                            self.lens[row] = (len + 1) as u16;
                        } else {
                            let cur = self.cursors[row] as usize;
                            self.cells[base + cur] = value;
                            self.cursors[row] = ((cur + 1) % self.w) as u16;
                        }
                    }
                }
                Decision::Forward
            }
        }
    }

    /// [`Self::process_in_row`] over a block: key `keys[i]` stores value
    /// `v` in row `r`, where `(r, v) = place(keys[i])`, decided into
    /// `out[i]`, in order. Table 2's default geometry — `w = 2` under LRU,
    /// the rolling replacement of two stages — runs without a
    /// data-dependent branch: stage 1 always ends up holding the value,
    /// stage 2 keeps its cell on a stage-1 hit and takes the displaced
    /// stage-1 cell otherwise, the length grows on a miss, and a hit only
    /// counts on a filled cell (a cleared row's stale cells, or a zero key
    /// against a never-filled one, never hit). Cells past a row's length
    /// may then differ from the general loop's; no decision reads them.
    /// Every other geometry runs the general loop.
    ///
    /// Each key is placed inside the loop, not into a row lane first. On
    /// 400k zipfian `userAgent` keys this loop measured 1.4 ms, a
    /// lane-first one 3.0 and the general loop 1.7; on their
    /// `(userAgent, languageCode)` fingerprints 1.4, 3.7 and 4.8.
    pub fn process_placed(
        &mut self,
        keys: &[u64],
        out: &mut [Decision],
        place: impl Fn(u64) -> (usize, u64),
    ) {
        if self.w != 2 || self.policy != EvictionPolicy::Lru {
            for (d, &key) in out.iter_mut().zip(keys) {
                let (row, value) = place(key);
                *d = self.process_in_row(row, value);
            }
            return;
        }
        let (cells, _) = self.cells.as_chunks_mut::<2>();
        for (d, &key) in out.iter_mut().zip(keys) {
            let (row, value) = place(key);
            let [c0, c1] = cells[row];
            let len = self.lens[row];
            let hit0 = (len >= 1) & (c0 == value);
            let hit = hit0 | ((len >= 2) & (c1 == value));
            cells[row] = [value, if hit0 { c1 } else { c0 }];
            self.lens[row] = (len + u16::from(!hit)).min(2);
            *d = if hit {
                Decision::Prune
            } else {
                Decision::Forward
            };
        }
    }

    /// Forget everything (control-plane table clear).
    pub fn clear(&mut self) {
        self.lens.fill(0);
        self.cursors.fill(0);
    }

    /// Switch resources consumed, per Table 2.
    pub fn resources(&self, model: &SwitchModel) -> ResourceUsage {
        match self.policy {
            EvictionPolicy::Fifo => ResourceUsage {
                stages: (self.w as u32).div_ceil(model.alus_per_stage),
                alus: self.w as u32,
                sram_bits: (self.d as u64) * (self.w as u64) * 64,
                tcam_entries: 0,
            },
            EvictionPolicy::Lru => ResourceUsage {
                stages: self.w as u32,
                alus: self.w as u32,
                sram_bits: (self.d as u64) * (self.w as u64) * 64,
                tcam_entries: 0,
            },
        }
    }
}

/// The complete DISTINCT pruner: row selection, optional fingerprinting,
/// and the cache matrix. This is what the switch program implements.
#[derive(Debug, Clone)]
pub struct DistinctPruner {
    matrix: CacheMatrix,
    row_hash: HashFn,
    fingerprinter: Option<Fingerprinter>,
}

impl DistinctPruner {
    /// Deterministic-guarantee pruner storing raw 64-bit values.
    pub fn new(d: usize, w: usize, policy: EvictionPolicy, seed: u64) -> Self {
        DistinctPruner {
            matrix: CacheMatrix::new(d, w, policy, seed),
            row_hash: HashFn::new(seed ^ 0xd157_1c7a),
            fingerprinter: None,
        }
    }

    /// Probabilistic-guarantee pruner: keys are reduced to `bits`-wide
    /// fingerprints (Theorem 4 sizes `bits` via
    /// [`crate::fingerprint::fingerprint_bits`]). Row selection uses an
    /// independent hash of the original key.
    pub fn with_fingerprints(
        d: usize,
        w: usize,
        policy: EvictionPolicy,
        seed: u64,
        bits: u32,
    ) -> Self {
        DistinctPruner {
            matrix: CacheMatrix::new(d, w, policy, seed),
            row_hash: HashFn::new(seed ^ 0xd157_1c7a),
            fingerprinter: Some(Fingerprinter::new(seed ^ 0xf1f1_f1f1, bits)),
        }
    }

    /// Process one key.
    pub fn process(&mut self, key: u64) -> Decision {
        let row = self.row_hash.bucket(key, self.matrix.rows());
        let stored = match &self.fingerprinter {
            Some(f) => f.fp(key),
            None => key,
        };
        self.matrix.process_in_row(row, stored)
    }

    /// Key-lane block loop: identical decisions to per-entry
    /// [`Self::process`] calls, with the fingerprint branch hoisted out
    /// of the loop — the switch hot path for DISTINCT / DistinctMulti
    /// blocks, through [`CacheMatrix::process_placed`].
    pub fn process_keys(&mut self, keys: &[u64], out: &mut [Decision]) {
        let (row_hash, d) = (self.row_hash, self.matrix.rows());
        match &self.fingerprinter {
            None => self
                .matrix
                .process_placed(keys, out, |k| (row_hash.bucket(k, d), k)),
            Some(f) => self
                .matrix
                .process_placed(keys, out, |k| (row_hash.bucket(k, d), f.fp(k))),
        }
    }

    /// Access the underlying matrix (for resource accounting).
    pub fn matrix(&self) -> &CacheMatrix {
        &self.matrix
    }
}

impl RowPruner for DistinctPruner {
    fn process_row(&mut self, row: &[u64]) -> Decision {
        self.process(row[0])
    }

    fn process_block(&mut self, cols: &[&[u64]], out: &mut [Decision]) {
        // The key lane is the only column the switch reads.
        self.process_keys(cols[0], out);
    }

    fn reset(&mut self) {
        self.matrix.clear();
    }

    fn name(&self) -> &'static str {
        "distinct"
    }
}

/// [`crate::batch::BatchAccess`] adapter for §9 multi-entry packets: the
/// collision domain is the matrix row the key hashes to.
#[derive(Debug, Clone)]
pub struct DistinctBatchAccess {
    inner: DistinctPruner,
}

impl DistinctBatchAccess {
    /// Wrap a DISTINCT pruner for batching.
    pub fn new(inner: DistinctPruner) -> Self {
        DistinctBatchAccess { inner }
    }
}

impl crate::batch::BatchAccess for DistinctBatchAccess {
    fn row_of(&mut self, entry: &[u64]) -> usize {
        self.inner
            .row_hash
            .bucket(entry[0], self.inner.matrix.rows())
    }

    fn process_one(&mut self, entry: &[u64]) -> Decision {
        self.inner.process(entry[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn run(matrix: &mut CacheMatrix, stream: &[u64]) -> Vec<Decision> {
        stream.iter().map(|&v| matrix.process(v)).collect()
    }

    #[test]
    fn first_occurrence_always_forwarded_lru() {
        let mut m = CacheMatrix::new(16, 2, EvictionPolicy::Lru, 1);
        let mut seen = HashSet::new();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = rng.gen_range(0..500u64);
            let d = m.process(v);
            if seen.insert(v) {
                assert_eq!(d, Decision::Forward, "first occurrence of {v} pruned");
            }
        }
    }

    #[test]
    fn first_occurrence_always_forwarded_fifo() {
        let mut m = CacheMatrix::new(16, 2, EvictionPolicy::Fifo, 1);
        let mut seen = HashSet::new();
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..10_000 {
            let v = rng.gen_range(0..500u64);
            let d = m.process(v);
            if seen.insert(v) {
                assert_eq!(d, Decision::Forward, "first occurrence of {v} pruned");
            }
        }
    }

    #[test]
    fn immediate_duplicate_pruned() {
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Fifo] {
            let mut m = CacheMatrix::new(8, 2, policy, 7);
            assert_eq!(m.process(99), Decision::Forward);
            assert_eq!(m.process(99), Decision::Prune);
            assert_eq!(m.process(99), Decision::Prune);
        }
    }

    #[test]
    fn lru_keeps_hot_values() {
        // One row, w=2. Access pattern a,b,a,c,a — LRU keeps `a` cached
        // throughout, so both later `a`s are pruned.
        let mut m = CacheMatrix::new(1, 2, EvictionPolicy::Lru, 0);
        let ds = run(&mut m, &[10, 20, 10, 30, 10]);
        assert_eq!(
            ds,
            vec![
                Decision::Forward, // 10
                Decision::Forward, // 20
                Decision::Prune,   // 10 hit, moved to front
                Decision::Forward, // 30 evicts 20
                Decision::Prune,   // 10 still cached
            ]
        );
    }

    #[test]
    fn fifo_evicts_hot_values() {
        // Same pattern under FIFO: the hit on `a` does not refresh it, so
        // `c` evicts `a` (round-robin cursor points at slot 0) and the final
        // `a` is forwarded again.
        let mut m = CacheMatrix::new(1, 2, EvictionPolicy::Fifo, 0);
        let ds = run(&mut m, &[10, 20, 10, 30, 10]);
        assert_eq!(
            ds,
            vec![
                Decision::Forward, // 10
                Decision::Forward, // 20
                Decision::Prune,   // 10 hit (no refresh)
                Decision::Forward, // 30 overwrites slot 0 (10)
                Decision::Forward, // 10 was evicted
            ]
        );
    }

    #[test]
    fn full_matrix_prunes_nearly_all_duplicates_of_small_domain() {
        // Paper Fig 10a: with w=2, d=4096 Cheetah prunes over 99% of the
        // entries when the distinct count is far below capacity. (Not 100%:
        // balls-in-bins occasionally stacks ≥3 values on one width-2 row.)
        let mut m = CacheMatrix::new(4096, 2, EvictionPolicy::Lru, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let mut stats = crate::decision::PruneStats::default();
        let mut seen = HashSet::new();
        for _ in 0..100_000 {
            let v = rng.gen_range(0..500u64);
            let d = m.process(v);
            if !seen.insert(v) {
                stats.record(d);
            }
        }
        assert!(
            stats.pruned_fraction() > 0.99,
            "500 distinct values in 4096×2 should prune >99% of duplicates, got {:.4}",
            stats.pruned_fraction()
        );
    }

    #[test]
    fn pruning_rate_respects_theorem_1_bound() {
        // Random-order stream, D=1500 distinct, d=100, w=4:
        // expected prune fraction ≥ 0.99·min(wd/(De),1) = 0.99·(400/4078) ≈ 0.097.
        let d = 100;
        let w = 4;
        let distinct = 1500u64;
        let mut m = CacheMatrix::new(d, w, EvictionPolicy::Lru, 5);
        let mut rng = StdRng::seed_from_u64(11);
        let mut stats = crate::decision::PruneStats::default();
        let mut seen = HashSet::new();
        for _ in 0..200_000 {
            let v = rng.gen_range(0..distinct);
            let dec = m.process(v);
            if !seen.insert(v) {
                stats.record(dec);
            }
        }
        let bound = crate::params::distinct_expected_prune_fraction(distinct, d, w);
        assert!(
            stats.pruned_fraction() >= bound,
            "pruned {:.4} below Theorem 1 bound {bound:.4}",
            stats.pruned_fraction()
        );
    }

    #[test]
    fn fingerprint_mode_no_false_positive_at_64_bits() {
        let mut p = DistinctPruner::with_fingerprints(64, 2, EvictionPolicy::Lru, 1, 64);
        let mut seen = HashSet::new();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20_000 {
            let v = rng.gen_range(0..1000u64);
            let d = p.process(v);
            if seen.insert(v) {
                assert_eq!(d, Decision::Forward, "64-bit fp should not collide here");
            }
        }
    }

    #[test]
    fn narrow_fingerprints_do_collide() {
        // 6-bit fingerprints over 4096 keys in few rows must eventually
        // prune a first occurrence — demonstrating why Theorem 4 matters.
        let mut p = DistinctPruner::with_fingerprints(4, 8, EvictionPolicy::Lru, 1, 6);
        let mut seen = HashSet::new();
        let mut false_prunes = 0;
        for v in 0..4096u64 {
            let d = p.process(v);
            if seen.insert(v) && d == Decision::Prune {
                false_prunes += 1;
            }
        }
        assert!(false_prunes > 0, "6-bit fingerprints should collide");
    }

    #[test]
    fn key_block_loop_matches_per_entry_decisions() {
        let mut rng = StdRng::seed_from_u64(23);
        let keys: Vec<u64> = (0..8_000).map(|_| rng.gen_range(0..700u64)).collect();
        for fingerprinted in [false, true] {
            let mk = || {
                if fingerprinted {
                    DistinctPruner::with_fingerprints(64, 2, EvictionPolicy::Lru, 1, 32)
                } else {
                    DistinctPruner::new(64, 2, EvictionPolicy::Lru, 1)
                }
            };
            let mut a = mk();
            let expected: Vec<Decision> = keys.iter().map(|&k| a.process(k)).collect();
            let mut b = mk();
            let mut got = vec![Decision::Prune; keys.len()];
            b.process_keys(&keys, &mut got);
            assert_eq!(got, expected, "fingerprinted={fingerprinted}");
        }
    }

    #[test]
    fn two_way_lru_block_path_equals_process_in_row() {
        // The branch-free w = 2 LRU row loop against the general one, on
        // the cases it special-cases: one row (every key collides), a zero
        // key at an empty row (cells start at zero), hits in slot 1 (the
        // swap) and slot 0 (no move), stale cells after a clear, and a
        // random small-domain stream over a few rows.
        let mut rng = StdRng::seed_from_u64(29);
        let random: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..9u64)).collect();
        let streams: [(usize, &[u64]); 5] = [
            (1, &[0, 0, 0]),
            (1, &[5, 0, 5, 0, 0, 7, 5, 7, 7, 0]),
            (1, &[1, 2, 1, 1, 2, 2, 1, 3, 2, 3]),
            (1, &[0, 4, 9, 4, 0, 9, 9, 4]),
            (3, &random),
        ];
        for (d, stream) in streams {
            for cleared in [false, true] {
                let mut general = CacheMatrix::new(d, 2, EvictionPolicy::Lru, 4);
                let mut block = general.clone();
                if cleared {
                    // Stale cells a cleared row must not hit on.
                    for m in [&mut general, &mut block] {
                        for v in [0, 1, 5, 7, 9] {
                            m.process(v);
                        }
                        m.clear();
                    }
                }
                let place = |v: u64| ((v as usize * 7) % d, v);
                let expected: Vec<Decision> = stream
                    .iter()
                    .map(|&v| {
                        let (row, value) = place(v);
                        general.process_in_row(row, value)
                    })
                    .collect();
                let mut got = vec![Decision::Prune; stream.len()];
                block.process_placed(stream, &mut got, place);
                assert_eq!(got, expected, "d = {d}, cleared = {cleared}, {stream:?}");
                // And the state each leaves behind decides alike.
                let probe: Vec<Decision> = (0..10).map(|v| general.process_in_row(0, v)).collect();
                let mut again = vec![Decision::Prune; 10];
                let keys: Vec<u64> = (0..10).collect();
                block.process_placed(&keys, &mut again, |v| (0, v));
                assert_eq!(again, probe, "d = {d}, cleared = {cleared}: state diverged");
            }
        }
        let mut first = [Decision::Prune];
        CacheMatrix::new(1, 2, EvictionPolicy::Lru, 0).process_placed(&[0], &mut first, |v| (0, v));
        assert_eq!(first, [Decision::Forward], "a zero key hit an empty row");
    }

    #[test]
    fn reset_clears_state() {
        let mut p = DistinctPruner::new(8, 2, EvictionPolicy::Lru, 2);
        assert_eq!(p.process(5), Decision::Forward);
        assert_eq!(p.process(5), Decision::Prune);
        p.reset();
        assert_eq!(p.process(5), Decision::Forward);
    }

    #[test]
    fn row_pruner_interface() {
        let mut p = DistinctPruner::new(8, 2, EvictionPolicy::Lru, 2);
        assert_eq!(p.name(), "distinct");
        assert_eq!(p.process_row(&[7, 0, 0]), Decision::Forward);
        assert_eq!(p.process_row(&[7, 1, 2]), Decision::Prune);
    }

    #[test]
    fn resources_match_table2() {
        let model = SwitchModel::tofino_like();
        // Table 2 defaults: w=2, d=4096.
        let fifo = CacheMatrix::new(4096, 2, EvictionPolicy::Fifo, 0);
        let r = fifo.resources(&model);
        assert_eq!(r.stages, 1); // ⌈2/A⌉ with A ≥ 2
        assert_eq!(r.alus, 2);
        assert_eq!(r.sram_bits, 4096 * 2 * 64);
        assert_eq!(r.tcam_entries, 0);
        let lru = CacheMatrix::new(4096, 2, EvictionPolicy::Lru, 0);
        let r = lru.resources(&model);
        assert_eq!(r.stages, 2); // w stages
        assert_eq!(r.alus, 2);
    }
}
