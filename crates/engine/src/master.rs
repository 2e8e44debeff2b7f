//! The CMaster: what every arm does with the entries the switch let
//! through, written once and block-wise.
//!
//! After pruning, the deterministic, threaded, sharded, distributed and
//! serving arms (and, for the fetch, the Spark baseline) all finish a
//! query the same four ways. Each lives here exactly once; the arms only
//! differ in how survivors reach it.
//!
//! * **Hand-off**: a block's decisions become its survivors through
//!   [`survivors`], a branch-free index compaction; the sinks below loop
//!   over that index list, never over the decisions. At the 10–60%
//!   forward rates the paper's queries produce, a `filter(is_forward)`
//!   loop mispredicts on a large share of entries — `scan_det`'s JOIN
//!   cell (57% of its probes forwarded) measured 14.2 ms that way and
//!   11.8 over the index list, with the switch's own time unchanged.
//! * **Fetch** (§7.1 late materialization): [`fetch_and_checksum`] folds
//!   the order-independent [`crate::query::fetch_checksum`] over the
//!   surviving rows' projected lanes. A row's checksum is a *serial*
//!   `mix64` chain over its words — one row at a time, a 120-column row
//!   is 120 dependent multiplies during which the core does nothing
//!   else, on top of a cache miss per word. So the kernel takes
//!   [`FETCH_BLOCK`] row ids at a time, walks each projected lane once
//!   per block (ascending ids read a lane almost sequentially) and
//!   advances the whole block's chains in lock-step: the chains are
//!   independent, so their multiplies overlap. Each chain absorbs the
//!   same words in the same order as the one-row loop, so the sum is
//!   bit-identical. Nothing is materialised — no per-row buffer, no
//!   lane-major tile, no `width × rows` arena; the only state is one
//!   block of chain heads on the stack. [`fetch_rows_flat`] and
//!   [`rows_payload_checksum`] are the same skeleton for the one arm
//!   whose fetched rows really leave the shard.
//! * **Group fold**: a [`GroupSink`] takes survivors as `(key, value)`
//!   pairs, sorts them a buffer at a time and folds every run of equal
//!   keys — no map probe per survivor, memory still proportional to the
//!   groups. Shard partials are sorted [`GroupRun`]s and merge linearly;
//!   the ordered public map is bulk-built once, at the root.
//! * **Join pairing**: [`join_sink`] splits survivor blocks into per-side
//!   `(key, row)` lists and [`join_survivors`] pairs them through one
//!   open-addressed table over the shorter list — neither list is sorted.
//! * **Tuple runs**: [`TupleRun`] keeps multi-column DISTINCT survivors
//!   in one flat row-major buffer, sorts them there on a tuple key (not
//!   the array's slice comparison) and deduplicates, merges flat-to-flat
//!   up a reduction tree, is what the wire ships, and becomes owned
//!   tuples exactly once — one allocation per *output* tuple, none per
//!   survivor.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use cheetah_core::decision::Decision;
use cheetah_core::hash::mix64;

use crate::multipass::SIDE_LEFT;
use crate::query::{fetch_chain_seed, fetch_chain_step, pair_checksum, Agg, QueryResult};
use crate::stream::BLOCK_ENTRIES;
use crate::table::Table;
use crate::threaded::SurvivorBlock;

/// The hand-off every block-wise arm makes from the switch to the master:
/// the block indices of the entries `decisions` forward, ascending, in
/// the front of `idx`. Branch-free — every index is written and the
/// cursor advances by the decision — so a forward rate anywhere between
/// 0 and 1 costs the same, where a `filter(is_forward)` loop mispredicts
/// on every coin flip the switch made.
pub(crate) fn survivors<'a>(
    decisions: &[Decision],
    idx: &'a mut [u16; BLOCK_ENTRIES],
) -> &'a mut [u16] {
    assert!(decisions.len() <= BLOCK_ENTRIES, "one block of decisions");
    let mut kept = 0;
    for (i, d) in decisions.iter().enumerate() {
        idx[kept] = i as u16;
        kept += usize::from(d.is_forward());
    }
    &mut idx[..kept]
}

/// Row ids whose hash chains advance together: 32 KB of chain heads on
/// the stack. Every lane switch restarts the hardware's read streams, so
/// small blocks pay for it more often — on a 120-lane table with 68k
/// interleaved survivor ids the kernel measured ≈ 58 ms at 64–256 ids a
/// block, 20–28 at 1,024, 16–23 at 4,096 and no better beyond (the
/// row-at-a-time loop: ≈ 88).
pub(crate) const FETCH_BLOCK: usize = 4096;

/// The block skeleton every fetch form shares: for each block of `ids`,
/// seed one chain per row id, let `absorb(lane, base, block, heads)`
/// advance all of them through lane `lane` (for `lane` in `0..lanes`, in
/// order; `base` is the block's offset into `ids`), then fold the heads
/// into the commutative sum.
fn chain_blocks(
    ids: &[u64],
    lanes: usize,
    mut absorb: impl FnMut(usize, usize, &[u64], &mut [u64]),
) -> u64 {
    let mut heads = [0u64; FETCH_BLOCK];
    let mut checksum = 0u64;
    for (b, block) in ids.chunks(FETCH_BLOCK).enumerate() {
        let heads = &mut heads[..block.len()];
        for (h, &rid) in heads.iter_mut().zip(block) {
            *h = fetch_chain_seed(rid);
        }
        for lane in 0..lanes {
            absorb(lane, b * FETCH_BLOCK, block, heads);
        }
        checksum = heads.iter().fold(checksum, |sum, &h| sum.wrapping_add(h));
    }
    checksum
}

/// §7.1 late materialization for every in-process Filter arm: read rows
/// `ids` of `t` over the lanes `cols` (schema indices, caller order,
/// repeats allowed) and return the wrapping sum of their
/// [`crate::query::fetch_checksum`]s. Over a full schema-order
/// projection that is the unprojected engine's value bit for bit.
pub(crate) fn fetch_and_checksum(t: &Table, cols: &[usize], ids: &[u64]) -> u64 {
    chain_blocks(ids, cols.len(), |lane, _, block, heads| {
        let lane = t.col_at(cols[lane]);
        for (h, &rid) in heads.iter_mut().zip(block) {
            *h = fetch_chain_step(*h, lane[rid as usize]);
        }
    })
}

/// The fetch whose rows really ship: gather rows `ids` over `cols` into
/// one flat row-major payload (what `ShardOutput::Rows` carries) while
/// folding the same checksum. Lanes are still walked one at a time per
/// block; only the writes are strided.
pub(crate) fn fetch_rows_flat(t: &Table, cols: &[usize], ids: &[u64]) -> (Vec<u64>, u64) {
    let width = cols.len();
    let mut flat = vec![0u64; ids.len() * width];
    let checksum = chain_blocks(ids, width, |lane, base, block, heads| {
        let src = t.col_at(cols[lane]);
        let dst = flat[base * width + lane..].iter_mut().step_by(width);
        for ((h, &rid), out) in heads.iter_mut().zip(block).zip(dst) {
            *out = src[rid as usize];
            *h = fetch_chain_step(*h, *out);
        }
    });
    (flat, checksum)
}

/// The checksum of a delivered row-major payload — what the master
/// recomputes from a shipped `ShardOutput::Rows` to hold against the
/// shard's own word. Panics unless `flat` is exactly `ids.len() × width`
/// words (the codec guarantees it).
pub(crate) fn rows_payload_checksum(width: usize, ids: &[u64], flat: &[u64]) -> u64 {
    assert_eq!(flat.len(), ids.len() * width, "payload shape");
    chain_blocks(ids, width, |lane, base, _, heads| {
        let words = flat[base * width + lane..].iter().step_by(width);
        for (h, &word) in heads.iter_mut().zip(words) {
            *h = fetch_chain_step(*h, word);
        }
    })
}

/// A folded group run: `(key, folded value)` pairs sorted by key, every
/// key once. What a shard contributes to a GROUP BY or HAVING, and —
/// bulk-built into a map at the root — the query's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GroupRun {
    agg: Agg,
    pairs: Vec<(u64, u64)>,
}

impl GroupRun {
    /// Sort `pairs` by key and fold each run of equal keys with `agg`.
    /// `Count` folds like `Sum`: by the time a count reaches the master
    /// it is a partial count, not a row. Pairs may arrive in any order
    /// and in any number per key — register partials and another shard's
    /// decoded run (never trusted to be sorted) enter here.
    pub(crate) fn fold(mut pairs: Vec<(u64, u64)>, agg: Agg) -> Self {
        fold_pairs(&mut pairs, agg);
        GroupRun { agg, pairs }
    }

    /// Fold another run of the same aggregate into this one: one linear
    /// pass over both. Associative and commutative, which is all the
    /// shard reduction tree asks of it.
    pub(crate) fn merge(&mut self, other: GroupRun) {
        assert_eq!(self.agg, other.agg, "runs of one query share its fold");
        if self.pairs.is_empty() {
            self.pairs = other.pairs;
        } else {
            self.merge_sorted(&other.pairs);
        }
    }

    /// [`GroupRun::merge`] with `other` already sorted by unique key.
    fn merge_sorted(&mut self, other: &[(u64, u64)]) {
        if other.is_empty() {
            return;
        }
        let (a, b) = (std::mem::take(&mut self.pairs), other);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push((a[i].0, combine(self.agg, a[i].1, b[j].1)));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        self.pairs = out;
    }

    /// The pairs, sorted by key — what ships on the wire.
    pub(crate) fn into_pairs(self) -> Vec<(u64, u64)> {
        self.pairs
    }

    /// The public `key → aggregate` map, bulk-built from the sorted run.
    pub(crate) fn into_groups(self) -> BTreeMap<u64, u64> {
        self.pairs.into_iter().collect()
    }

    /// HAVING's answer: the keys whose folded value exceeds `threshold`,
    /// already sorted and unique.
    pub(crate) fn keys_above(self, threshold: u64) -> QueryResult {
        let keys = self.pairs.into_iter().filter(|&(_, v)| v > threshold);
        QueryResult::Keys(keys.map(|(k, _)| k).collect())
    }
}

/// Survivors a [`GroupSink`] buffers before folding them into its run:
/// 256 KB of pairs, sorted while still cache-resident.
const SINK_PENDING: usize = 1 << 14;

/// The streaming end of a [`GroupRun`]: survivors go in one at a time or
/// a block at a time, unsorted; whenever the buffer outgrows both
/// [`SINK_PENDING`] and the run so far it is sorted, folded and merged
/// in. Memory stays proportional to the *groups*, not the survivors —
/// what the per-survivor map probe this replaces also guaranteed, and
/// what four served queries in flight over a 400k-row table need —
/// while the merges stay linear overall (each at least doubles the run
/// or folds a full buffer away).
pub(crate) struct GroupSink {
    run: GroupRun,
    pending: Vec<(u64, u64)>,
}

impl GroupSink {
    /// An empty sink folding with `agg`.
    pub(crate) fn new(agg: Agg) -> Self {
        GroupSink {
            run: GroupRun::fold(Vec::new(), agg),
            pending: Vec::new(),
        }
    }

    /// One survivor.
    pub(crate) fn push(&mut self, key: u64, value: u64) {
        self.fill(|pending| pending.push((key, value)));
    }

    /// A block of survivors, appended by `append` (a
    /// `SurvivorBlock::extend_pairs_into`, a register drain).
    pub(crate) fn fill(&mut self, append: impl FnOnce(&mut Vec<(u64, u64)>)) {
        append(&mut self.pending);
        if self.pending.len() >= SINK_PENDING.max(self.run.pairs.len()) {
            self.settle();
        }
    }

    /// The folded run of everything pushed.
    pub(crate) fn finish(mut self) -> GroupRun {
        self.settle();
        self.run
    }

    fn settle(&mut self) {
        fold_pairs(&mut self.pending, self.run.agg);
        if self.run.pairs.is_empty() {
            std::mem::swap(&mut self.run.pairs, &mut self.pending);
        } else {
            self.run.merge_sorted(&self.pending);
        }
        self.pending.clear();
    }
}

/// Sort by key, then fold each run of equal keys into its first pair.
fn fold_pairs(pairs: &mut Vec<(u64, u64)>, agg: Agg) {
    pairs.sort_unstable_by_key(|&(key, _)| key);
    pairs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 = combine(agg, kept.1, next.1);
        }
        same
    });
}

fn combine(agg: Agg, a: u64, b: u64) -> u64 {
    match agg {
        Agg::Max => a.max(b),
        Agg::Min => a.min(b),
        Agg::Sum | Agg::Count => a + b,
    }
}

/// A JOIN's forwarded `(key, row id)` pairs, left side then right.
pub(crate) type JoinSides = (Vec<(u64, u64)>, Vec<(u64, u64)>);

/// Demux one survivor block of `[side, key, rid]` rows into per-side
/// `(key, rid)` lists — the per-block join sink of every threaded
/// pipeline. Join partitions are single-sided, so on the zero-copy path
/// the flow id resolves once per block.
pub(crate) fn join_sink(acc: &mut JoinSides, block: SurvivorBlock<'_>) {
    let (left_fwd, right_fwd) = acc;
    match block.const_lane(0) {
        Some(tag) => {
            let dst = if tag == SIDE_LEFT {
                left_fwd
            } else {
                right_fwd
            };
            block.extend_pairs_into(1, 2, dst);
        }
        None => block.for_each_row(|row| {
            if row[0] == SIDE_LEFT {
                left_fwd.push((row[1], row[2]));
            } else {
                right_fwd.push((row[1], row[2]));
            }
        }),
    }
}

/// CMaster join completion, shared by every JOIN arm: count the
/// `(left row, right row)` pairs whose keys match and fold their
/// [`pair_checksum`]. The shorter side is indexed by an open-addressed
/// table with one slot per distinct key (its rows chained behind the
/// slot), the longer side probes it; the checksum is a commutative sum,
/// so the order pairs are met in — and so any sort — is immaterial. The
/// sharded arms run this per shard over hash-partitioned sides (every
/// occurrence of a key co-locates on one shard, so each match pairs
/// exactly once) and sum the counts and checksums up their tree.
pub(crate) fn join_survivors(left: Vec<(u64, u64)>, right: Vec<(u64, u64)>) -> (u64, u64) {
    let build_left = left.len() <= right.len();
    let (build, probe) = if build_left {
        (&left, &right)
    } else {
        (&right, &left)
    };
    assert!(build.len() < u32::MAX as usize, "build side indexes in u32");
    // `heads[slot]` is 1 + the index of the latest build pair whose key
    // owns the slot (0 = free); `prev[i]` continues that key's chain.
    // At most half the slots fill, so every probe sequence ends.
    let mask = (2 * build.len()).next_power_of_two() - 1;
    let mut heads = vec![0u32; mask + 1];
    let mut prev = vec![0u32; build.len()];
    let slot_of = |heads: &[u32], key: u64| {
        let mut slot = mix64(key) as usize & mask;
        while heads[slot] != 0 && build[heads[slot] as usize - 1].0 != key {
            slot = (slot + 1) & mask;
        }
        slot
    };
    for (i, &(key, _)) in build.iter().enumerate() {
        let slot = slot_of(&heads, key);
        prev[i] = heads[slot];
        heads[slot] = i as u32 + 1;
    }
    let (mut pairs, mut checksum) = (0u64, 0u64);
    for &(key, probe_row) in probe {
        let mut at = heads[slot_of(&heads, key)];
        while at != 0 {
            let build_row = build[at as usize - 1].1;
            let (lrow, rrow) = if build_left {
                (build_row, probe_row)
            } else {
                (probe_row, build_row)
            };
            pairs += 1;
            checksum = pair_checksum(checksum, key, lrow, rrow);
            at = prev[at as usize - 1];
        }
    }
    (pairs, checksum)
}

/// A canonical set of equal-width tuples in one flat row-major buffer:
/// sorted, every tuple once. A shard's multi-column DISTINCT output, the
/// `ShardOutput::Tuples` payload as is, and — exploded once at the root —
/// the public [`QueryResult::Points`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TupleRun {
    width: usize,
    flat: Vec<u64>,
}

impl TupleRun {
    /// Canonicalize `flat` (`width`-word tuples back to back, any order,
    /// repeats allowed — raw survivors and another shard's decoded run
    /// both enter here). Tuples of up to four words sort in place as
    /// fixed-width arrays keyed by a *tuple* of their words: the array's
    /// own `Ord` compares through a slice loop, the tuple compares word
    /// by word in straight-line code, in the same lexicographic order.
    /// On 112k two-word survivors that halves the sort (4.7 → 2.5 ms);
    /// on 120k near-unique three-word tuples it still wins (4.7 → 4.2),
    /// where a comparator folding every word's `cmp` with `then` loses
    /// (4.9). Wider tuples sort by index and compact once. Panics on a
    /// zero width (a DISTINCT over no columns has no flat form) or a
    /// ragged buffer.
    pub(crate) fn canonical(width: usize, mut flat: Vec<u64>) -> Self {
        assert!(width > 0, "a tuple run needs at least one column");
        assert_eq!(flat.len() % width, 0, "ragged tuple buffer");
        match width {
            1 => sort_dedup_arrays(&mut flat, |&[a]: &[u64; 1]| a),
            2 => sort_dedup_arrays(&mut flat, |&[a, b]: &[u64; 2]| (a, b)),
            3 => sort_dedup_arrays(&mut flat, |&[a, b, c]: &[u64; 3]| (a, b, c)),
            4 => sort_dedup_arrays(&mut flat, |&[a, b, c, d]: &[u64; 4]| (a, b, c, d)),
            _ => flat = sort_dedup_by_index(width, &flat),
        }
        TupleRun { width, flat }
    }

    /// Union another run of the same width into this one, flat to flat:
    /// one linear pass, one output buffer. Associative, commutative and
    /// idempotent.
    pub(crate) fn merge(&mut self, other: TupleRun) {
        assert_eq!(self.width, other.width, "runs of one query share a width");
        if other.flat.is_empty() {
            return;
        }
        if self.flat.is_empty() {
            self.flat = other.flat;
            return;
        }
        let w = self.width;
        let (a, b) = (std::mem::take(&mut self.flat), other.flat);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (&a[i..i + w], &b[j..j + w]);
            let order = x.cmp(y);
            out.extend_from_slice(if order.is_le() { x } else { y });
            i += if order.is_le() { w } else { 0 };
            j += if order.is_ge() { w } else { 0 };
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        self.flat = out;
    }

    /// The run as its wire payload: `(width, flat)`, no conversion.
    pub(crate) fn into_parts(self) -> (u64, Vec<u64>) {
        (self.width as u64, self.flat)
    }

    /// The public result: owned tuples, allocated here and nowhere
    /// earlier.
    pub(crate) fn into_points(self) -> QueryResult {
        QueryResult::Points(explode(self.width, &self.flat))
    }
}

/// Sort and deduplicate `W`-word tuples where they lie, ordered by `key`
/// (which must order them as `[u64; W]` does).
fn sort_dedup_arrays<const W: usize, K: Ord>(flat: &mut Vec<u64>, key: impl Fn(&[u64; W]) -> K) {
    let (tuples, _) = flat.as_chunks_mut::<W>();
    tuples.sort_unstable_by_key(key);
    let mut kept = 0;
    for i in 0..tuples.len() {
        if kept == 0 || tuples[i] != tuples[kept - 1] {
            tuples[kept] = tuples[i];
            kept += 1;
        }
    }
    flat.truncate(kept * W);
}

/// Sort and deduplicate tuples of any width through their indices, then
/// gather the survivors into a fresh buffer.
fn sort_dedup_by_index(width: usize, flat: &[u64]) -> Vec<u64> {
    let tuple = |i: usize| &flat[i * width..(i + 1) * width];
    let mut order: Vec<usize> = (0..flat.len() / width).collect();
    order.sort_unstable_by(|&a, &b| tuple(a).cmp(tuple(b)));
    order.dedup_by(|next, kept| tuple(*next) == tuple(*kept));
    let mut compact = Vec::with_capacity(order.len() * width);
    for &i in &order {
        compact.extend_from_slice(tuple(i));
    }
    compact
}

/// Owned tuples out of a flat row-major buffer, in buffer order.
pub(crate) fn explode(width: usize, flat: &[u64]) -> Vec<Vec<u64>> {
    flat.chunks_exact(width).map(<[u64]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    //! The kernel and the sinks against the one-at-a-time loops they
    //! replaced, which survive here — and only here — as oracles.

    use super::*;
    use crate::query::fetch_checksum;
    use proptest::collection::vec;
    use proptest::prelude::*;

    const ROWS: usize = 3 * FETCH_BLOCK + 100;
    const LANES: usize = 6;

    fn table() -> Table {
        let lane = |c: u64| (1..=ROWS as u64).map(move |r| r.wrapping_mul(2 * c + 3) ^ (c << 40));
        let names = ["a", "b", "c", "d", "e", "f"];
        Table::new(
            "t",
            (0..LANES)
                .map(|c| (names[c], lane(c as u64).collect()))
                .collect(),
        )
    }

    /// The retired fetch: one row at a time through one reused buffer.
    fn fetch_oracle(t: &Table, cols: &[usize], ids: &[u64]) -> (Vec<u64>, u64) {
        let (mut flat, mut row) = (Vec::new(), Vec::new());
        let checksum = ids.iter().fold(0, |sum, &rid| {
            t.row_into_cols(rid as usize, cols, &mut row);
            flat.extend_from_slice(&row);
            fetch_checksum(sum, rid, &row)
        });
        (flat, checksum)
    }

    /// All three fetch forms against the oracle.
    fn check_fetch(t: &Table, cols: &[usize], ids: &[u64]) {
        let (flat, checksum) = fetch_oracle(t, cols, ids);
        assert_eq!(fetch_and_checksum(t, cols, ids), checksum, "{cols:?}");
        assert_eq!(fetch_rows_flat(t, cols, ids), (flat.clone(), checksum));
        assert_eq!(rows_payload_checksum(cols.len(), ids, &flat), checksum);
    }

    #[test]
    fn block_fetch_equals_the_row_loop_at_every_block_edge() {
        let t = table();
        let full: Vec<usize> = (0..LANES).collect();
        let projections: [&[usize]; 4] = [&[], &[2], &[4, 1, 4, 0], &full];
        for len in [
            0,
            1,
            FETCH_BLOCK - 1,
            FETCH_BLOCK,
            FETCH_BLOCK + 1,
            3 * FETCH_BLOCK + 7,
        ] {
            // Unsorted, striding across the table, every id twice.
            let ids: Vec<u64> = (0..len as u64)
                .map(|i| (i / 2) * 7_919 % ROWS as u64)
                .collect();
            for cols in projections {
                check_fetch(&t, cols, &ids);
            }
        }
    }

    /// The retired sink: one ordered-map probe per survivor, seeded with
    /// the aggregate's identity.
    fn groups_oracle(pairs: &[(u64, u64)], agg: Agg) -> BTreeMap<u64, u64> {
        let mut groups = BTreeMap::new();
        for &(k, v) in pairs {
            let seed = if agg == Agg::Min { u64::MAX } else { 0 };
            let e = groups.entry(k).or_insert(seed);
            *e = match agg {
                Agg::Max => (*e).max(v),
                Agg::Min => (*e).min(v),
                Agg::Sum | Agg::Count => *e + v,
            };
        }
        groups
    }

    #[test]
    fn extreme_values_fold_to_themselves() {
        let pairs = [(1, 0), (2, u64::MAX), (3, 0), (3, u64::MAX), (2, u64::MAX)];
        for agg in [Agg::Max, Agg::Min] {
            let groups = GroupRun::fold(pairs.to_vec(), agg).into_groups();
            assert_eq!(groups, groups_oracle(&pairs, agg));
            assert_eq!((groups[&1], groups[&2]), (0, u64::MAX), "{agg:?}");
        }
    }

    #[test]
    fn sink_folds_across_its_buffer_boundaries() {
        use cheetah_core::hash::mix64;
        // Few keys (every buffer folds away), unique keys (the run keeps
        // doubling), and in between.
        for (agg, key_domain) in [(Agg::Max, 5), (Agg::Min, u64::MAX), (Agg::Sum, 40_000)] {
            let pairs: Vec<(u64, u64)> = (0..3 * SINK_PENDING as u64 + 7)
                .map(|i| (mix64(i) % key_domain, mix64(!i) >> 20))
                .collect();
            let (mut pushed, mut filled) = (GroupSink::new(agg), GroupSink::new(agg));
            for block in pairs.chunks(1_000) {
                block.iter().for_each(|&(k, v)| pushed.push(k, v));
                filled.fill(|pending| pending.extend_from_slice(block));
            }
            let whole = GroupRun::fold(pairs.clone(), agg);
            assert_eq!(pushed.finish(), whole, "{agg:?}");
            assert_eq!(filled.finish(), whole, "{agg:?}");
            assert_eq!(whole.into_groups(), groups_oracle(&pairs, agg));
        }
    }

    /// The retired pairing: sort both sides, sweep matching key runs.
    fn sort_merge_oracle(mut left: Vec<(u64, u64)>, mut right: Vec<(u64, u64)>) -> (u64, u64) {
        left.sort_unstable();
        right.sort_unstable();
        let (mut pairs, mut checksum) = (0u64, 0u64);
        let (mut li, mut ri) = (0usize, 0usize);
        while li < left.len() && ri < right.len() {
            let k = left[li].0;
            match k.cmp(&right[ri].0) {
                Ordering::Less => li += 1,
                Ordering::Greater => ri += 1,
                Ordering::Equal => {
                    let le = li + left[li..].iter().take_while(|p| p.0 == k).count();
                    let re = ri + right[ri..].iter().take_while(|p| p.0 == k).count();
                    for &(_, lrow) in &left[li..le] {
                        for &(_, rrow) in &right[ri..re] {
                            pairs += 1;
                            checksum = pair_checksum(checksum, k, lrow, rrow);
                        }
                    }
                    li = le;
                    ri = re;
                }
            }
        }
        (pairs, checksum)
    }

    #[test]
    fn hash_pairing_handles_empty_and_one_sided_input() {
        let some = vec![(7, 0), (7, 1), (9, 2)];
        assert_eq!(join_survivors(Vec::new(), Vec::new()), (0, 0));
        assert_eq!(join_survivors(some.clone(), Vec::new()), (0, 0));
        assert_eq!(join_survivors(Vec::new(), some.clone()), (0, 0));
        // Sides are not interchangeable: the checksum knows left from right.
        let other = vec![(7, 5)];
        let (lr, rl) = (
            join_survivors(some.clone(), other.clone()),
            join_survivors(other, some),
        );
        assert_eq!((lr.0, rl.0), (2, 2));
        assert_ne!(lr.1, rl.1);
    }

    fn merged(mut a: GroupRun, b: &GroupRun) -> GroupRun {
        a.merge(b.clone());
        a
    }

    fn union(a: &TupleRun, b: &TupleRun) -> TupleRun {
        let mut u = a.clone();
        u.merge(b.clone());
        u
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn block_fetch_equals_the_row_loop(
            ids in vec(0..ROWS as u64, 0..2 * FETCH_BLOCK + 50),
            cols in vec(0..LANES, 0..9),
        ) {
            check_fetch(&table(), &cols, &ids);
        }

        #[test]
        fn hash_pairing_equals_the_sort_merge(
            raw in (vec(any::<u64>(), 0..400), vec(any::<u64>(), 0..400)),
            domain in 0usize..4,
        ) {
            // One key (every row pairs with every row), a handful of hot
            // keys (many survivors per key on both sides), a skewed mix
            // (a hot key among near-unique ones) and near-unique keys;
            // either side may be the shorter one.
            let key = |w: u64| match domain {
                0 => 1,
                1 => w % 5,
                2 if w.is_multiple_of(3) => 42,
                2 => w % 1_000,
                _ => w,
            };
            let side = |words: &[u64]| -> Vec<(u64, u64)> {
                words.iter().enumerate().map(|(row, &w)| (key(w), row as u64)).collect()
            };
            let (left, right) = (side(&raw.0), side(&raw.1));
            prop_assert_eq!(
                join_survivors(left.clone(), right.clone()),
                sort_merge_oracle(left, right)
            );
        }

        #[test]
        fn group_fold_equals_the_map_loop_and_merges_associatively(
            raw in vec((any::<u64>(), any::<u64>()), 0..300),
            shape in (0usize..3, 0usize..3),
            cuts in (0usize..301, 0usize..301),
        ) {
            // All-equal, colliding and all-unique keys; SUM values kept
            // small enough to add up.
            let agg = [Agg::Max, Agg::Min, Agg::Sum][shape.0];
            let key_domain = [1, 8, u64::MAX][shape.1];
            let pairs: Vec<(u64, u64)> = raw
                .iter()
                .map(|&(k, v)| (k % key_domain, if agg == Agg::Sum { v >> 16 } else { v }))
                .collect();
            let truth = groups_oracle(&pairs, agg);
            let whole = GroupRun::fold(pairs.clone(), agg);
            prop_assert_eq!(&whole.clone().into_groups(), &truth);
            let mut sink = GroupSink::new(agg);
            for &(key, value) in &pairs {
                sink.push(key, value);
            }
            prop_assert_eq!(&sink.finish(), &whole);
            let threshold = u64::MAX / 2;
            let above = truth.iter().filter(|&(_, &v)| v > threshold).map(|(&k, _)| k);
            prop_assert_eq!(whole.clone().keys_above(threshold), QueryResult::Keys(above.collect()));

            // Split anywhere into three shards: every merge order gives
            // the unsplit run.
            let lo = cuts.0.min(cuts.1).min(pairs.len());
            let hi = cuts.0.max(cuts.1).min(pairs.len());
            let a = GroupRun::fold(pairs[..lo].to_vec(), agg);
            let b = GroupRun::fold(pairs[lo..hi].to_vec(), agg);
            let c = GroupRun::fold(pairs[hi..].to_vec(), agg);
            prop_assert_eq!(&merged(merged(a.clone(), &b), &c), &whole);
            prop_assert_eq!(&merged(a.clone(), &merged(b.clone(), &c)), &whole);
            prop_assert_eq!(&merged(merged(c, &a), &b), &whole);
        }

        #[test]
        fn tuple_runs_equal_points_and_merge_as_sets(
            width in 1usize..6,
            domain in 1u64..5,
            words in (vec(any::<u64>(), 0..400), vec(any::<u64>(), 0..400), vec(any::<u64>(), 0..40)),
        ) {
            // Domain 1 is the all-duplicate input; widths reach both sort
            // paths (in place up to four words, by index beyond).
            let [a, b, c] = [&words.0, &words.1, &words.2].map(|words| {
                let whole = words.len() / width * width;
                words[..whole].iter().map(|w| w % domain).collect::<Vec<u64>>()
            });
            let run = |flat: &[u64]| TupleRun::canonical(width, flat.to_vec());
            for flat in [&a, &b, &c] {
                let points = QueryResult::points(explode(width, flat));
                prop_assert_eq!(run(flat).into_points(), points);
            }
            let (ra, rb, rc) = (run(&a), run(&b), run(&c));
            prop_assert_eq!(&union(&ra, &rb), &run(&[a.clone(), b.clone()].concat()));
            prop_assert_eq!(&union(&ra, &rb), &union(&rb, &ra));
            prop_assert_eq!(&union(&union(&ra, &rb), &rc), &union(&ra, &union(&rb, &rc)));
            prop_assert_eq!(&union(&ra, &ra), &ra);
            // A canonical run — a decoded shard run — re-enters unchanged.
            let (wire_width, flat) = ra.clone().into_parts();
            prop_assert_eq!(&TupleRun::canonical(wire_width as usize, flat), &ra);
        }
    }
}
