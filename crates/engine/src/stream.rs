//! Entry streams as views — the zero-copy, zero-allocation switch hot path.
//!
//! Cheetah's entries stream *through* the switch; nothing on that path is
//! stored. An [`EntryStream`] is therefore a view, not a copy: it shares
//! the table's own column lanes and remembers where each of the `W`
//! worker partitions starts. The round-robin interleave — the
//! deterministic stand-in for several worker NICs feeding one switch
//! port-by-port — is closed-form (entry `i` is row `starts[i % W] + i / W`),
//! so the block cursor ([`EntryStream::blocks`]) gathers one
//! [`BLOCK_ENTRIES`]-entry block at a time into a per-lane scratch that
//! stays in L1: `W` sequential reads of the table lane, written at stride
//! `W`, immediately before [`cheetah_core::RowPruner::process_block`]
//! reads it.
//! A DistinctMulti fingerprint lane is derived from that scratch per
//! block, and row ids are computed for survivors only. The steady-state
//! loop performs no heap allocation, and no `rows`-sized buffer exists
//! anywhere on the path.
//!
//! [`EntryStream::col`] and [`EntryStream::row_ids`] are the *materialised
//! reference*: whole interleaved lanes, built on first call, for replays,
//! benches and the tests that pin the block cursor against them. No
//! engine executor reads them.

use std::sync::{Arc, OnceLock};

use cheetah_core::decision::{Decision, PruneStats, RowPruner};
use cheetah_core::fingerprint::Fingerprinter;

use crate::master::survivors;
use crate::table::Table;

/// Entries per [`RowPruner::process_block`] call. 1024 entries × 8 bytes
/// keeps a block's column lanes inside L1/L2 while amortizing the virtual
/// dispatch to nothing.
pub const BLOCK_ENTRIES: usize = 1024;

/// A query's switch-bound entries: a view of one table's column lanes
/// under the round-robin interleave of `W` worker partitions.
///
/// Building one is O(1) — the lanes are shared with the table, never
/// copied — and the stream is a **snapshot**: it streams exactly the
/// lanes and row count it was built over, whatever happens to the table
/// afterwards ([`Table::add_column`], replacement under the same name in
/// a [`crate::table::Database`]). A stream built after such a change sees
/// the new epoch's table.
#[derive(Debug, Clone)]
pub struct EntryStream {
    /// The table's own lanes, one per stream column.
    lanes: Vec<Arc<Vec<u64>>>,
    /// Entries in the stream: the table's rows when it was built.
    rows: usize,
    /// First row of each of the `W` partitions: entry `i` is row
    /// `starts[i % W] + i / W`.
    starts: Vec<usize>,
    /// When set, the pruner sees only the fingerprint of each entry's
    /// columns, derived per block (the DistinctMulti key lane);
    /// consumers still read the original columns.
    fingerprint: Option<Fingerprinter>,
    reference: OnceLock<Reference>,
}

/// The whole stream materialised in stream order.
#[derive(Debug, Clone)]
struct Reference {
    row_ids: Vec<u64>,
    cols: Vec<Vec<u64>>,
}

/// The round-robin interleave of the partitions starting at `starts` as
/// a row-id lane. [`Table::partition_bounds`] gives every partition
/// `rows / W` rows and the first `rows % W` of them one more, so the
/// port-by-port order is that many full rounds over all partitions plus
/// one partial round over the longer ones.
fn interleave_permutation(starts: &[usize], rows: usize) -> Vec<u64> {
    let (per, extra) = (rows / starts.len(), rows % starts.len());
    let mut row_ids = Vec::with_capacity(rows);
    for round in 0..per {
        row_ids.extend(starts.iter().map(|&start| (start + round) as u64));
    }
    row_ids.extend(starts[..extra].iter().map(|&start| (start + per) as u64));
    row_ids
}

impl EntryStream {
    /// View `columns` of `table` through the round-robin interleave of
    /// `workers` partition streams. O(1): nothing is gathered until a
    /// block is asked for.
    pub fn interleaved(table: &Table, columns: &[usize], workers: usize) -> Self {
        EntryStream {
            lanes: columns.iter().map(|&c| table.lane(c)).collect(),
            rows: table.rows(),
            starts: table
                .partition_bounds(workers)
                .into_iter()
                .map(|(start, _)| start)
                .collect(),
            fingerprint: None,
            reference: OnceLock::new(),
        }
    }

    /// Number of entries in the stream.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` if the stream has no entries.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of metadata columns.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// The materialised reference's row-id lane, in stream order.
    pub fn row_ids(&self) -> &[u64] {
        &self.reference().row_ids
    }

    /// One metadata column of the materialised reference, in stream
    /// order.
    pub fn col(&self, c: usize) -> &[u64] {
        &self.reference().cols[c]
    }

    /// The whole stream gathered through the interleave permutation,
    /// built on first use — the oracle [`EntryStream::blocks`] is pinned
    /// against, and what replays that want whole lanes read.
    fn reference(&self) -> &Reference {
        self.reference.get_or_init(|| {
            let row_ids = interleave_permutation(&self.starts, self.rows);
            let gather = |lane: &Arc<Vec<u64>>| row_ids.iter().map(|&r| lane[r as usize]).collect();
            let cols = self.lanes.iter().map(gather).collect();
            Reference { row_ids, cols }
        })
    }

    /// Have the pruner see one derived lane — the fingerprint over all
    /// metadata columns — instead of the columns themselves (§5,
    /// Example 8: wide keys travel as fingerprints; the master still
    /// dedups the real tuples). The lane is computed block by block.
    pub fn fingerprint_lane(&mut self, fp: &Fingerprinter) {
        self.fingerprint = Some(fp.clone());
    }

    /// A cursor over the stream's blocks, in stream order. Each pass over
    /// the stream takes a fresh cursor (two-pass flows re-walk the table
    /// lanes on pass 2, as the paper's dataflow does).
    pub fn blocks(&self) -> Blocks<'_> {
        // A block and up to a round's worth on either side of it.
        let stride = BLOCK_ENTRIES + 2 * self.starts.len();
        Blocks {
            stream: self,
            next: 0,
            scratch: vec![0; self.lanes.len() * stride],
            stride,
            keys: Vec::new(),
            spare: SpareRefs::default(),
        }
    }

    /// Stream every entry through `pruner` in [`BLOCK_ENTRIES`]-sized
    /// blocks, recording each decision into `stats` and calling
    /// `on_forward(row_id, entry)` for every survivor. The loop body is
    /// allocation-free: decisions live in a stack scratch and every block
    /// is gathered into the cursor's one scratch.
    ///
    /// # Examples
    ///
    /// ```
    /// use cheetah_core::decision::PruneStats;
    /// use cheetah_core::distinct::{DistinctPruner, EvictionPolicy};
    /// use cheetah_engine::{EntryStream, Table};
    ///
    /// let t = Table::new("t", vec![("k", vec![7, 7, 8])]);
    /// let stream = EntryStream::interleaved(&t, &[0], 2);
    /// let mut pruner = DistinctPruner::new(16, 2, EvictionPolicy::Lru, 0);
    /// let mut stats = PruneStats::default();
    /// let mut survivors = Vec::new();
    /// stream.prune(&mut pruner, &mut stats, |_row_id, entry| {
    ///     survivors.push(entry.get(0));
    /// });
    /// assert_eq!(stats.processed, 3);
    /// assert_eq!(stats.pruned, 1, "the duplicate 7 is dropped at the switch");
    /// survivors.sort_unstable();
    /// assert_eq!(survivors, vec![7, 8]);
    /// ```
    pub fn prune<F>(&self, pruner: &mut dyn RowPruner, stats: &mut PruneStats, mut on_forward: F)
    where
        F: FnMut(u64, EntryRef<'_>),
    {
        let mut decisions = [Decision::Prune; BLOCK_ENTRIES];
        let mut idx = [0u16; BLOCK_ENTRIES];
        let mut blocks = self.blocks();
        while let Some(block) = blocks.next_block() {
            let out = &mut decisions[..block.len];
            pruner.process_block(block.visible(), out);
            stats.record_block(out);
            for &i in survivors(out, &mut idx).iter() {
                let i = usize::from(i);
                on_forward(block.row_id(i), block.entry(i));
            }
        }
    }
}

/// A lending cursor over an [`EntryStream`]'s blocks: every
/// [`Blocks::next_block`] overwrites the one scratch the previous block
/// was read from, so a block cannot outlive the next call.
#[derive(Debug)]
pub struct Blocks<'s> {
    stream: &'s EntryStream,
    /// Stream index of the next block's first entry.
    next: usize,
    /// One `stride`-entry lane per stream column, back to back, each
    /// holding the whole interleave rounds a block touches.
    scratch: Vec<u64>,
    stride: usize,
    /// The block's fingerprint lane, when the stream has one.
    keys: Vec<u64>,
    spare: SpareRefs,
}

impl Blocks<'_> {
    /// Gather and lend the next block, `None` once the stream is drained.
    pub fn next_block(&mut self) -> Option<Block<'_>> {
        let stream = self.stream;
        let first = self.next;
        if first >= stream.rows {
            return None;
        }
        let len = (stream.rows - first).min(BLOCK_ENTRIES);
        self.next += len;
        // The block is entries `phase..phase + len` of the interleave
        // rounds `round..round + rounds`. Every partition has a row in
        // each of the first `rows / W` rounds; the one after is ragged —
        // only the first `rows % W` partitions reach it.
        let w = stream.starts.len();
        let (phase, round) = (first % w, first / w);
        let rounds = (phase + len).div_ceil(w);
        let whole = rounds.min(stream.rows / w - round);
        let lanes = stream
            .lanes
            .iter()
            .zip(self.scratch.chunks_mut(self.stride));
        for (lane, scratch) in lanes {
            gather_rounds(
                lane,
                &stream.starts,
                round..round + whole,
                &mut scratch[..whole * w],
            );
            if whole < rounds {
                let ragged = stream.starts[..stream.rows % w].iter();
                for (entry, start) in scratch[whole * w..].iter_mut().zip(ragged) {
                    *entry = lane[start + round + whole];
                }
            }
        }
        let mut cols = self.spare.take();
        let lanes = self.scratch.chunks(self.stride);
        cols.extend(lanes.map(|lane| &lane[phase..phase + len]));
        let key = stream.fingerprint.as_ref().map(|fp| {
            self.keys.clear();
            fingerprint_rows(&cols, 0, len, fp, &mut self.keys);
            [&self.keys[..]]
        });
        Some(Block {
            cols,
            len,
            key,
            phase,
            round,
            starts: &stream.starts,
            spare: &mut self.spare,
        })
    }
}

/// Fill `out` with interleave rounds `rounds` of `lane`, whole ones only:
/// entry `p` of round `r` is row `starts[p] + r`, so each partition is
/// one sequential read written at stride `W`. Two partitions go a pass —
/// half the loop overhead, adjacent stores.
fn gather_rounds(lane: &[u64], starts: &[usize], rounds: std::ops::Range<usize>, out: &mut [u64]) {
    let w = starts.len();
    let rows = |p: usize| &lane[starts[p] + rounds.start..starts[p] + rounds.end];
    for p in (0..w - w % 2).step_by(2) {
        let pairs = rows(p).iter().zip(rows(p + 1));
        for (entries, (&a, &b)) in out.chunks_exact_mut(w).zip(pairs) {
            entries[p] = a;
            entries[p + 1] = b;
        }
    }
    if w % 2 == 1 {
        for (entries, &a) in out.chunks_exact_mut(w).zip(rows(w - 1)) {
            entries[w - 1] = a;
        }
    }
}

/// One gathered block of an [`EntryStream`], lent until the cursor moves.
#[derive(Debug)]
pub struct Block<'b> {
    /// The block's window of every stream column, in stream order.
    pub cols: Vec<&'b [u64]>,
    /// Entries in the block (at most [`BLOCK_ENTRIES`], never zero).
    pub len: usize,
    key: Option<[&'b [u64]; 1]>,
    /// The block's first entry is entry `round * W + phase` of the
    /// stream, `phase < W`.
    phase: usize,
    round: usize,
    starts: &'b [usize],
    spare: &'b mut SpareRefs,
}

impl Block<'_> {
    /// The lanes the pruner sees: the fingerprint lane when the stream
    /// has one, else the columns.
    pub fn visible(&self) -> &[&[u64]] {
        match &self.key {
            Some(key) => key,
            None => &self.cols,
        }
    }

    /// The table row behind the block's `i`-th entry.
    #[inline]
    pub fn row_id(&self, i: usize) -> u64 {
        let (at, w) = (self.phase + i, self.starts.len());
        (self.starts[at % w] + self.round + at / w) as u64
    }

    /// A view of the block's `i`-th entry across the columns.
    #[inline]
    pub fn entry(&self, i: usize) -> EntryRef<'_> {
        EntryRef {
            cols: &self.cols,
            idx: i,
        }
    }
}

impl Drop for Block<'_> {
    fn drop(&mut self) {
        self.spare.put(std::mem::take(&mut self.cols));
    }
}

/// The allocation of an emptied `Vec<&[u64]>`, parked between borrows
/// that cannot share a lifetime: a block's column slices borrow a scratch
/// the next block overwrites, so the vector holding them cannot simply be
/// cleared and refilled — but its buffer can.
#[derive(Debug, Default)]
pub(crate) struct SpareRefs(Vec<&'static [u64]>);

impl SpareRefs {
    /// The parked vector, empty, for slices of any lifetime.
    pub(crate) fn take<'a>(&mut self) -> Vec<&'a [u64]> {
        std::mem::take(&mut self.0)
    }

    /// Park `refs`' buffer. An emptied vector borrows nothing, and
    /// collecting it through `into_iter` re-types it in place (same
    /// element layout), so the allocation carries over; the allocation
    /// pins in `tests/alloc_regression.rs` hold that to zero per block.
    pub(crate) fn put(&mut self, mut refs: Vec<&[u64]>) {
        refs.clear();
        self.0 = refs
            .into_iter()
            .map(|_| -> &'static [u64] { &[] })
            .collect();
    }
}

/// Split `[start, end)` into `parts` near-equal contiguous sub-ranges —
/// the zero-copy shard/worker splitter: a shard is a range of table rows,
/// and each shard's pool workers take a sub-range of it, so every
/// partition stays a borrowed [`crate::threaded::Lane::Slice`] view with
/// no row copied anywhere. Empty input ranges yield `parts` empty spans
/// (idle workers still watermark their phases).
pub fn split_range(start: usize, end: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts > 0, "need at least one part");
    let rows = end - start;
    let per = rows / parts;
    let extra = rows % parts;
    let mut out = Vec::with_capacity(parts);
    let mut cursor = start;
    for i in 0..parts {
        let len = per + usize::from(i < extra);
        out.push((cursor, cursor + len));
        cursor += len;
    }
    out
}

/// The most shards a [`hash_partition`] can address: its shard-id lane
/// holds one `u16` per row.
pub const MAX_HASH_SHARDS: usize = 1 << 16;

/// A column set split by [`hash_partition`]: per shard, one lane per
/// input column, in input order, then the lane of global row indices when
/// asked for (the row-id lane that rides switch-blind for late
/// materialization and join pairing).
pub type HashPartition = Vec<Vec<Vec<u64>>>;

/// Split `cols` across `shards` by the `key` column: row `i` belongs to
/// shard `h(cols[key][i]) mod shards`, so **every occurrence of a key is
/// co-located on one shard** — the key-partitioned shard mode of GROUP BY
/// SUM/COUNT (scattering a key across shards would multiply its eviction
/// traffic) and of JOIN (pairing becomes shard-local). Rows keep their
/// input order within a shard. Pass one hashes each key **once** into a
/// shard-id lane and counts every shard's rows; pass two scatters one
/// column at a time into exact-capacity per-shard lanes by reading that
/// id lane — no hash and no data-dependent branch in the copy loop, and
/// O(`shards × lanes`) allocations however large the table.
///
/// Called once per query, for all shards, serially — which beats a gather
/// per shard even where the shards have cores of their own: such a gather
/// hashes every key of the table twice (to count, then to copy behind a
/// coin-flip branch), 6 ms a shard for a 400k ⋈ 80k JOIN against 3 ms
/// for this whole pass, so parallel gathers finish later than the serial
/// pass and do `shards` times the work.
pub fn hash_partition(
    cols: &[&[u64]],
    key: usize,
    shards: usize,
    seed: u64,
    with_rids: bool,
) -> HashPartition {
    assert!(key < cols.len(), "key column out of range");
    assert!(
        (1..=MAX_HASH_SHARDS).contains(&shards),
        "the shard-id lane is u16: 1..={MAX_HASH_SHARDS} shards, not {shards}"
    );
    let rows = cols[key].len();
    assert!(cols.iter().all(|c| c.len() == rows), "ragged column set");
    let hash = cheetah_core::hash::HashFn::new(seed);
    let mut counts = vec![0usize; shards];
    let ids: Vec<u16> = cols[key]
        .iter()
        .map(|&k| {
            let shard = hash.bucket(k, shards);
            counts[shard] += 1;
            shard as u16
        })
        .collect();
    let width = cols.len() + usize::from(with_rids);
    let mut out: HashPartition = counts
        .iter()
        .map(|&n| (0..width).map(|_| Vec::with_capacity(n)).collect())
        .collect();
    let lanes = cols.iter().map(Some).chain(with_rids.then_some(None));
    for (c, col) in lanes.enumerate() {
        let mut scatter = |id: u16, v: u64| out[usize::from(id)][c].push(v);
        match col {
            Some(col) => ids.iter().zip(*col).for_each(|(&id, &v)| scatter(id, v)),
            None => ids
                .iter()
                .zip(0u64..)
                .for_each(|(&id, row)| scatter(id, row)),
        }
    }
    out
}

/// Append the §5 fingerprints of rows `start..start + len` of `cols`
/// onto `out`, a lane at a time — the shared worker-side serialization
/// loop behind a block's fingerprint lane
/// ([`EntryStream::fingerprint_lane`]) and the threaded pipeline's
/// ([`crate::threaded::Lane::Fingerprint`]).
pub fn fingerprint_rows(
    cols: &[&[u64]],
    start: usize,
    len: usize,
    fp: &Fingerprinter,
    out: &mut Vec<u64>,
) {
    let at = out.len();
    out.resize(at + len, 0);
    fp.fp_columns(cols, start..start + len, &mut out[at..]);
}

/// A zero-copy view of one forwarded entry's metadata columns, inside
/// the block that forwarded it.
#[derive(Debug, Clone, Copy)]
pub struct EntryRef<'a> {
    cols: &'a [&'a [u64]],
    idx: usize,
}

impl EntryRef<'_> {
    /// The entry's value in metadata column `c`.
    #[inline]
    pub fn get(&self, c: usize) -> u64 {
        self.cols[c][self.idx]
    }

    /// Number of metadata columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The entry's values as an owned row (for survivors that must be
    /// materialized anyway).
    pub fn to_vec(&self) -> Vec<u64> {
        self.cols.iter().map(|c| c[self.idx]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Database;
    use cheetah_core::distinct::{DistinctPruner, EvictionPolicy};
    use proptest::prelude::*;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("a", (0..103u64).collect()),
                ("b", (0..103u64).map(|i| i * 7 % 13).collect()),
            ],
        )
    }

    /// The legacy per-row interleave, kept as the permutation oracle.
    fn legacy_interleave(t: &Table, columns: &[usize], workers: usize) -> Vec<(u64, Vec<u64>)> {
        let bounds = t.partition_bounds(workers);
        let mut cursors: Vec<usize> = bounds.iter().map(|(s, _)| *s).collect();
        let mut out = Vec::with_capacity(t.rows());
        let mut remaining = t.rows();
        while remaining > 0 {
            for (w, &(_, end)) in bounds.iter().enumerate() {
                if cursors[w] < end {
                    let r = cursors[w];
                    cursors[w] += 1;
                    remaining -= 1;
                    let vals = columns.iter().map(|&c| t.col_at(c)[r]).collect();
                    out.push((r as u64, vals));
                }
            }
        }
        out
    }

    /// The retired per-shard gather, kept as the partition oracle: one
    /// shard's rows of `cols` by the hash of the `key` column, hashing
    /// every key of the table once to count and once more to gather.
    fn gather_hash_shard(
        cols: &[&[u64]],
        key: usize,
        shard: usize,
        shards: usize,
        seed: u64,
        with_rids: bool,
    ) -> Vec<Vec<u64>> {
        let hash = cheetah_core::hash::HashFn::new(seed);
        let keys = cols[key];
        let mine = keys
            .iter()
            .filter(|&&k| hash.bucket(k, shards) == shard)
            .count();
        let mut out: Vec<Vec<u64>> = cols.iter().map(|_| Vec::with_capacity(mine)).collect();
        let mut rids = with_rids.then(|| Vec::with_capacity(mine));
        for (i, &k) in keys.iter().enumerate() {
            if hash.bucket(k, shards) == shard {
                for (lane, col) in out.iter_mut().zip(cols) {
                    lane.push(col[i]);
                }
                if let Some(r) = rids.as_mut() {
                    r.push(i as u64);
                }
            }
        }
        out.extend(rids);
        out
    }

    #[test]
    fn interleave_permutation_matches_legacy_layout() {
        // 103 rows: full rounds plus a partial one; 3 rows: fewer rows
        // than workers, so some partitions are empty.
        let tiny = Table::new("t", vec![("a", vec![5, 6, 7]), ("b", vec![8, 9, 10])]);
        for t in [table(), tiny] {
            for workers in [1usize, 2, 5, 7] {
                let stream = EntryStream::interleaved(&t, &[0, 1], workers);
                let legacy = legacy_interleave(&t, &[0, 1], workers);
                assert_eq!(stream.len(), legacy.len());
                for (i, (rid, vals)) in legacy.iter().enumerate() {
                    assert_eq!(
                        stream.row_ids()[i],
                        *rid,
                        "row id at {i}, {workers} workers"
                    );
                    assert_eq!(stream.col(0)[i], vals[0]);
                    assert_eq!(stream.col(1)[i], vals[1]);
                }
            }
        }
    }

    /// Every block of `stream`: its columns, row ids and pruner-visible
    /// lanes, concatenated back into whole lanes.
    fn drain(stream: &EntryStream) -> (Vec<Vec<u64>>, Vec<u64>, Vec<Vec<u64>>) {
        let mut cols = vec![Vec::new(); stream.width()];
        let (mut row_ids, mut visible) = (Vec::new(), Vec::new());
        let mut blocks = stream.blocks();
        while let Some(block) = blocks.next_block() {
            assert!((1..=BLOCK_ENTRIES).contains(&block.len));
            assert_eq!(block.cols.len(), stream.width());
            for (lane, col) in cols.iter_mut().zip(&block.cols) {
                assert_eq!(col.len(), block.len);
                lane.extend_from_slice(col);
            }
            row_ids.extend((0..block.len).map(|i| block.row_id(i)));
            visible.resize(block.visible().len(), Vec::new());
            for (lane, col) in visible.iter_mut().zip(block.visible()) {
                assert_eq!(col.len(), block.len);
                lane.extend_from_slice(col);
            }
        }
        (cols, row_ids, visible)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The block cursor against the materialised reference: rows
        /// below, at and across block boundaries (incl. none, fewer than
        /// workers, a ragged last round), one to eight workers.
        #[test]
        fn blocks_equal_the_materialised_reference(
            rows in 0usize..=3 * BLOCK_ENTRIES + 7,
            workers in 1usize..=8,
            width in 1usize..=3,
            fingerprinted in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let hash = cheetah_core::hash::HashFn::new(seed);
            let lane = |c: usize| (0..rows as u64).map(|r| hash.hash(r * 3 + c as u64) % 61).collect();
            let t = Table::new("t", vec![("a", lane(0)), ("b", lane(1)), ("c", lane(2))]);
            let columns: Vec<usize> = (0..width).map(|c| (c + seed as usize) % 3).collect();
            let mut stream = EntryStream::interleaved(&t, &columns, workers);
            let fp = Fingerprinter::new(seed ^ 0xf1f1, 64);
            if fingerprinted {
                stream.fingerprint_lane(&fp);
            }
            prop_assert_eq!(stream.len(), rows);

            let (cols, row_ids, visible) = drain(&stream);
            prop_assert_eq!(&row_ids[..], stream.row_ids());
            let reference: Vec<&[u64]> = (0..width).map(|c| stream.col(c)).collect();
            for (c, lane) in cols.iter().enumerate() {
                prop_assert_eq!(&lane[..], reference[c], "column {}", c);
            }
            // What the pruner sees: the columns, or the fingerprint of
            // the whole reference lanes.
            let mut whole = Vec::new();
            fingerprint_rows(&reference, 0, rows, &fp, &mut whole);
            let expected = if fingerprinted { vec![whole] } else { cols.clone() };
            if rows > 0 {
                prop_assert_eq!(&visible, &expected);
            }

            // A stateful pruner decides the same entries either way.
            let pruner = || DistinctPruner::new(16, 2, EvictionPolicy::Lru, seed);
            let (mut fused, mut fused_stats) = (Vec::new(), PruneStats::default());
            stream.prune(&mut pruner(), &mut fused_stats, |rid, e| fused.push((rid, e.to_vec())));
            let (mut looped, mut loop_stats) = (Vec::new(), PruneStats::default());
            let mut oracle = pruner();
            for i in 0..rows {
                let key: Vec<u64> = expected.iter().map(|lane| lane[i]).collect();
                let decision = oracle.process_row(&key);
                loop_stats.record(decision);
                if decision.is_forward() {
                    let values = reference.iter().map(|lane| lane[i]).collect();
                    looped.push((stream.row_ids()[i], values));
                }
            }
            prop_assert_eq!(fused_stats, loop_stats);
            prop_assert_eq!(fused, looped);
        }

        /// One partition pass against the per-shard oracle: the same
        /// rows in the same order on every shard, every key on exactly
        /// one shard, row ids global, and the shards together a
        /// permutation of the input.
        #[test]
        fn hash_partition_equals_the_per_shard_gathers(
            rows in 0usize..=600,
            width in 1usize..=3,
            key in 0usize..3,
            shards in 1usize..=9,
            with_rids in any::<bool>(),
            domain in 1u64..=97,
            seed in any::<u64>(),
        ) {
            let key = key % width;
            let hash = cheetah_core::hash::HashFn::new(seed ^ 0xc01);
            let lanes: Vec<Vec<u64>> = (0..width as u64)
                .map(|c| (0..rows as u64).map(|r| hash.hash(r * 3 + c) % domain).collect())
                .collect();
            let cols: Vec<&[u64]> = lanes.iter().map(Vec::as_slice).collect();
            let partition = hash_partition(&cols, key, shards, seed, with_rids);
            prop_assert_eq!(partition.len(), shards);

            let mut homes = std::collections::HashMap::new();
            let mut scattered: Vec<Vec<u64>> = Vec::new();
            for (s, shard) in partition.iter().enumerate() {
                prop_assert_eq!(shard, &gather_hash_shard(&cols, key, s, shards, seed, with_rids));
                for &k in &shard[key] {
                    prop_assert_eq!(*homes.entry(k).or_insert(s), s, "key {} straddles shards", k);
                }
                if with_rids {
                    // A row id addresses the input row its values came from.
                    for (i, &rid) in shard[width].iter().enumerate() {
                        for c in 0..width {
                            prop_assert_eq!(shard[c][i], lanes[c][rid as usize]);
                        }
                    }
                }
                scattered.extend((0..shard[0].len()).map(|i| shard.iter().map(|l| l[i]).collect()));
            }
            let mut input: Vec<Vec<u64>> = (0..rows)
                .map(|i| {
                    let rid = with_rids.then_some(i as u64);
                    lanes.iter().map(|l| l[i]).chain(rid).collect()
                })
                .collect();
            scattered.sort_unstable();
            input.sort_unstable();
            prop_assert_eq!(scattered, input);
        }
    }

    #[test]
    fn a_stream_is_a_snapshot_of_the_lanes_it_was_built_over() {
        let mut db = Database::new();
        db.add(table());
        let before = EntryStream::interleaved(db.table("t"), &[0, 1], 3);
        let snapshot = drain(&before);

        // A derived column: the old stream streams what it did, a new
        // one sees the new epoch's table.
        db.table_mut("t").add_column("c", vec![9; 103]);
        assert_eq!(drain(&before), snapshot);
        let added = EntryStream::interleaved(db.table("t"), &[2], 3);
        assert_eq!(drain(&added).0, vec![vec![9; 103]]);

        // A replacement under the same name, with other rows.
        db.add(Table::new("t", vec![("a", vec![4, 5]), ("b", vec![6, 7])]));
        assert_eq!(before.len(), 103);
        assert_eq!(drain(&before), snapshot);
        let after = EntryStream::interleaved(db.table("t"), &[0, 1], 3);
        assert_eq!(after.len(), 2);
        assert_eq!(drain(&after).0, vec![vec![4, 5], vec![6, 7]]);
    }

    #[test]
    fn a_zero_column_stream_still_has_the_tables_entries() {
        let stream = EntryStream::interleaved(&table(), &[], 4);
        assert_eq!((stream.len(), stream.width()), (103, 0));
        let (cols, row_ids, visible) = drain(&stream);
        assert!(cols.is_empty() && visible.is_empty());
        assert_eq!(row_ids, stream.row_ids());
        assert_eq!(row_ids.len(), 103);
    }

    #[test]
    fn prune_visits_every_entry_and_reports_survivors() {
        let t = Table::new("t", vec![("k", (0..5000u64).map(|i| i % 40).collect())]);
        let stream = EntryStream::interleaved(&t, &[0], 3);
        let mut pruner = DistinctPruner::new(64, 2, EvictionPolicy::Lru, 1);
        let mut stats = PruneStats::default();
        let mut survivors = Vec::new();
        stream.prune(&mut pruner, &mut stats, |rid, e| {
            survivors.push((rid, e.get(0)));
        });
        assert_eq!(stats.processed, 5000);
        let distinct: std::collections::HashSet<u64> = survivors.iter().map(|&(_, v)| v).collect();
        assert_eq!(distinct.len(), 40, "every key must survive at least once");
        for &(rid, v) in &survivors {
            assert_eq!(t.col_at(0)[rid as usize], v, "row id / value mismatch");
        }
    }

    #[test]
    fn entry_ref_accessors_agree() {
        let t = table();
        let stream = EntryStream::interleaved(&t, &[1, 0], 2);
        let mut pruner = cheetah_core::filter::FilterPruner::new(
            vec![cheetah_core::filter::Atom::cmp(
                0,
                cheetah_core::filter::CmpOp::Ge,
                0,
            )],
            cheetah_core::filter::Formula::Atom(0),
        )
        .unwrap();
        let mut stats = PruneStats::default();
        stream.prune(&mut pruner, &mut stats, |_, e| {
            assert_eq!(e.width(), 2);
            assert_eq!(e.to_vec(), [e.get(0), e.get(1)]);
        });
        assert_eq!(stats.processed, t.rows() as u64);
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn fingerprint_lane_drives_the_pruner_not_the_consumer() {
        // Two columns that collide pairwise only when both match.
        let t = Table::new(
            "t",
            vec![
                ("a", vec![1, 1, 2, 1]),
                ("b", vec![9, 9, 9, 8]), // rows 0,1 identical; 2,3 novel
            ],
        );
        let mut stream = EntryStream::interleaved(&t, &[0, 1], 1);
        let fp = Fingerprinter::new(7, 64);
        stream.fingerprint_lane(&fp);
        let mut pruner = DistinctPruner::new(16, 2, EvictionPolicy::Lru, 3);
        let mut stats = PruneStats::default();
        let mut survivors: Vec<Vec<u64>> = Vec::new();
        stream.prune(&mut pruner, &mut stats, |_, e| survivors.push(e.to_vec()));
        assert_eq!(stats.processed, 4);
        assert_eq!(stats.pruned, 1, "only the exact duplicate row collides");
        // Survivors carry the original columns, not fingerprints.
        assert!(survivors.contains(&vec![1, 9]));
        assert!(survivors.contains(&vec![2, 9]));
        assert!(survivors.contains(&vec![1, 8]));
    }

    #[test]
    fn split_range_covers_exactly_and_handles_empties() {
        for (start, end, parts) in [(0usize, 103, 4), (7, 7, 3), (10, 13, 5), (0, 1, 1)] {
            let spans = split_range(start, end, parts);
            assert_eq!(spans.len(), parts);
            assert_eq!(spans.first().unwrap().0, start);
            assert_eq!(spans.last().unwrap().1, end);
            for w in spans.windows(2) {
                assert_eq!(w[0].1, w[1].0, "spans must tile contiguously");
            }
            let sizes: Vec<usize> = spans.iter().map(|(s, e)| e - s).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "near-equal split: {sizes:?}");
        }
    }

    #[test]
    fn hash_shards_colocate_keys_and_permute_rows() {
        let keys: Vec<u64> = (0..2_000u64).map(|i| i * 31 % 97).collect();
        let vals: Vec<u64> = (0..2_000u64).collect();
        let shards = hash_partition(&[&keys, &vals], 0, 4, 9, true);
        // Every row lands in exactly one shard: the scattered (key, val)
        // multiset is a permutation of the input.
        let mut scattered: Vec<(u64, u64)> = shards
            .iter()
            .flat_map(|g| g[0].iter().copied().zip(g[1].iter().copied()))
            .collect();
        let mut expected: Vec<(u64, u64)> =
            keys.iter().copied().zip(vals.iter().copied()).collect();
        scattered.sort_unstable();
        expected.sort_unstable();
        assert_eq!(scattered, expected);
        // Key-partitioned: a key appears in at most one shard.
        for key in 0..97u64 {
            let homes = shards.iter().filter(|g| g[0].contains(&key)).count();
            assert!(homes <= 1, "key {key} straddles {homes} hash shards");
        }
        for g in &shards {
            // Rows keep their relative (stream) order within a shard:
            // vals are unique and ascending in the input, so the filtered
            // input order must match the scattered lane exactly.
            let expect_vals: Vec<u64> = vals
                .iter()
                .zip(&keys)
                .filter(|&(_, k)| g[0].contains(k))
                .map(|(&v, _)| v)
                .collect();
            assert_eq!(g[1], expect_vals, "scatter scrambled in-shard order");
            // The trailing lane addresses the input rows (vals are the
            // row indices here); without it there are only the columns.
            assert_eq!(g.len(), 3);
            assert_eq!(g[2], g[1], "row-id lane");
        }
        let bare = hash_partition(&[&keys, &vals], 0, 4, 9, false);
        assert_eq!(bare[2][..], shards[2][..2]);
    }

    /// Rows per shard of a partition.
    fn shard_rows(p: &HashPartition) -> Vec<usize> {
        p.iter().map(|lanes| lanes[0].len()).collect()
    }

    #[test]
    fn hash_partition_handles_degenerate_shapes() {
        let keys: Vec<u64> = (0..2_000u64).map(|i| i * 31 % 97).collect();
        let vals: Vec<u64> = (0..2_000u64).collect();

        // One shard: the input, in order, under identity row ids.
        let one = hash_partition(&[&keys, &vals], 0, 1, 9, true);
        assert_eq!(one, [[keys.clone(), vals.clone(), vals.clone()]]);

        // More shards than rows: every row somewhere, most shards empty,
        // an empty shard still `width` (empty) lanes.
        let few = hash_partition(&[&keys[..3], &vals[..3]], 0, 8, 9, false);
        assert_eq!(few.len(), 8);
        assert_eq!(shard_rows(&few).iter().sum::<usize>(), 3);
        assert!(few.iter().all(|lanes| lanes.len() == 2));

        // An empty table.
        let none = hash_partition(&[&[], &[]], 1, 4, 9, true);
        assert_eq!(shard_rows(&none), [0; 4]);
        assert!(none.iter().all(|lanes| lanes.len() == 3));

        // An all-equal key lane: one full shard, the rest empty.
        let same = vec![42u64; 2_000];
        let skewed = hash_partition(&[&vals, &same], 1, 4, 9, false);
        let mut sizes = shard_rows(&skewed);
        sizes.sort_unstable();
        assert_eq!(sizes, [0, 0, 0, 2_000]);
        let full = skewed.iter().find(|lanes| !lanes[0].is_empty()).unwrap();
        assert_eq!(full[..], [vals.clone(), same.clone()]);

        // The widest id the lane holds is the last of `MAX_HASH_SHARDS`.
        let wide = hash_partition(&[&vals], 0, MAX_HASH_SHARDS, 9, false);
        assert_eq!(shard_rows(&wide).iter().sum::<usize>(), 2_000);
    }

    #[test]
    #[should_panic(expected = "the shard-id lane is u16")]
    fn hash_partition_refuses_shard_ids_that_would_wrap() {
        hash_partition(&[&[1, 2, 3]], 0, MAX_HASH_SHARDS + 1, 9, false);
    }

    #[test]
    fn empty_table_streams_cleanly() {
        let t = Table::new("t", vec![("a", Vec::new())]);
        let stream = EntryStream::interleaved(&t, &[0], 5);
        assert!(stream.is_empty());
        let mut pruner = DistinctPruner::new(4, 1, EvictionPolicy::Fifo, 0);
        let mut stats = PruneStats::default();
        stream.prune(&mut pruner, &mut stats, |_, _| panic!("no entries"));
        assert_eq!(stats.processed, 0);
    }
}
