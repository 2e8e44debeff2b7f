//! Flat, structure-of-arrays entry streams — the zero-allocation switch
//! hot path.
//!
//! The CWorker-side serialization used to materialize one heap
//! `Vec<u64>` per table row. [`EntryStream`] instead gathers each
//! metadata column once per query into its own contiguous lane (plus a
//! row-id lane), applying the round-robin interleave permutation during
//! the gather — the deterministic stand-in for several worker NICs
//! feeding one switch port-by-port. Pruners then consume the stream in
//! cache-friendly blocks through [`cheetah_core::RowPruner::process_block`],
//! so the steady-state loop performs no heap allocation at all: the
//! decision scratch lives on the stack and the per-block column slices
//! reuse one spare vector.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use cheetah_core::decision::{Decision, PruneStats, RowPruner};
use cheetah_core::fingerprint::Fingerprinter;

use crate::table::Table;

/// Entries per [`RowPruner::process_block`] call. 1024 entries × 8 bytes
/// keeps a block's column lanes inside L1/L2 while amortizing the virtual
/// dispatch to nothing.
pub const BLOCK_ENTRIES: usize = 1024;

/// One gathered lane in stream (interleaved) order. Immutable once built
/// and held by shared reference, so a stream gathered for one query and
/// one drawn from a [`LaneArena`] a whole batch shares are the same type.
type SharedLane = Arc<[u64]>;

/// A query's switch-bound entries in column-major layout: one `u64` lane
/// per metadata column plus a row-id lane, all in stream (interleaved)
/// order.
#[derive(Debug, Clone)]
pub struct EntryStream {
    row_ids: SharedLane,
    cols: Vec<SharedLane>,
    /// When set, the pruner sees only this derived single-column lane
    /// (e.g. the DistinctMulti fingerprint); consumers still read the
    /// original columns.
    key_lane: Option<Vec<u64>>,
}

/// The round-robin interleave of `workers` partition streams as a row-id
/// lane. [`Table::partition_bounds`] gives every partition `rows / workers`
/// rows and the first `rows % workers` of them one more, so the
/// port-by-port order is that many full rounds over all partitions plus
/// one partial round over the longer ones.
fn interleave_permutation(table: &Table, workers: usize) -> SharedLane {
    let bounds = table.partition_bounds(workers);
    let (per, extra) = (table.rows() / workers, table.rows() % workers);
    let mut row_ids = Vec::with_capacity(table.rows());
    for round in 0..per {
        row_ids.extend(bounds.iter().map(|&(start, _)| (start + round) as u64));
    }
    row_ids.extend(
        bounds[..extra]
            .iter()
            .map(|&(start, _)| (start + per) as u64),
    );
    row_ids.into()
}

impl EntryStream {
    /// Gather `columns` of `table` through the round-robin interleave of
    /// `workers` partition streams (same permutation the old per-row
    /// interleave produced, one contiguous lane per column).
    pub fn interleaved(table: &Table, columns: &[usize], workers: usize) -> Self {
        LaneArena::default().stream(table, columns, workers)
    }

    /// Number of entries in the stream.
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// `true` if the stream has no entries.
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// Number of metadata columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The row-id lane, in stream order.
    pub fn row_ids(&self) -> &[u64] {
        &self.row_ids
    }

    /// One metadata column's lane, in stream order.
    pub fn col(&self, c: usize) -> &[u64] {
        &self.cols[c]
    }

    /// Derive the single-column lane the pruner will see from a
    /// fingerprint over all metadata columns (§5, Example 8: wide keys
    /// travel as fingerprints; the master still dedups the real tuples).
    pub fn fingerprint_lane(&mut self, fp: &Fingerprinter) {
        let cols: Vec<&[u64]> = self.cols.iter().map(|c| &c[..]).collect();
        let mut lane = Vec::with_capacity(self.len());
        let mut scratch = Vec::with_capacity(self.cols.len());
        fingerprint_rows(&cols, 0, self.len(), fp, &mut lane, &mut scratch);
        self.key_lane = Some(lane);
    }

    /// Stream every entry through `pruner` in [`BLOCK_ENTRIES`]-sized
    /// blocks, recording each decision into `stats` and calling
    /// `on_forward(row_id, entry)` for every survivor. The loop body is
    /// allocation-free: decisions live in a stack scratch and the block's
    /// column slices reuse one spare vector across blocks.
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
        let n = self.len();
        let mut decisions = [Decision::Prune; BLOCK_ENTRIES];
        let mut colrefs: Vec<&[u64]> = Vec::with_capacity(self.cols.len().max(1));
        let mut start = 0;
        while start < n {
            let len = (n - start).min(BLOCK_ENTRIES);
            colrefs.clear();
            match &self.key_lane {
                Some(lane) => colrefs.push(&lane[start..start + len]),
                None => colrefs.extend(self.cols.iter().map(|c| &c[start..start + len])),
            }
            let out = &mut decisions[..len];
            pruner.process_block(&colrefs, out);
            stats.record_block(out);
            for (i, d) in out.iter().enumerate() {
                if d.is_forward() {
                    let idx = start + i;
                    on_forward(
                        self.row_ids[idx],
                        EntryRef {
                            cols: &self.cols,
                            idx,
                        },
                    );
                }
            }
            start += len;
        }
    }
}

/// The gathered lanes of one scope — a single query, or a whole served
/// batch — built lazily and shared by reference: one interleave
/// permutation per (table, workers) and one gathered lane per column of
/// it, each gathered by whichever [`LaneArena::stream`] call asks first
/// and handed to every later one as the same allocation. Dropping the
/// arena drops the lanes (streams still alive keep theirs).
///
/// The arena borrows its tables for `'t`, so no table can be replaced or
/// mutated — no epoch can move — under the lanes it holds. Tables are
/// told apart by name: one arena serves one [`crate::table::Database`].
#[derive(Default)]
pub(crate) struct LaneArena<'t> {
    /// The map lock only guards slot lookup — a gather runs outside it,
    /// inside its own slot's [`OnceLock`], so concurrent streams block
    /// each other only when they want the very same lane.
    slots: Mutex<LaneSlots<'t>>,
}

/// (table name, workers, column); column `None` is the permutation.
type LaneKey<'t> = (&'t str, usize, Option<usize>);
type LaneSlots<'t> = HashMap<LaneKey<'t>, Arc<OnceLock<SharedLane>>>;

impl<'t> LaneArena<'t> {
    /// The stream of `columns` of `table` under the `workers`-way
    /// interleave, drawing every lane this arena already holds.
    pub(crate) fn stream(
        &self,
        table: &'t Table,
        columns: &[usize],
        workers: usize,
    ) -> EntryStream {
        let row_ids = self.lane((table.name(), workers, None), || {
            interleave_permutation(table, workers)
        });
        let cols = columns
            .iter()
            .map(|&c| {
                self.lane((table.name(), workers, Some(c)), || {
                    let src = table.col_at(c);
                    row_ids.iter().map(|&r| src[r as usize]).collect()
                })
            })
            .collect();
        EntryStream {
            row_ids,
            cols,
            key_lane: None,
        }
    }

    fn lane(&self, key: LaneKey<'t>, gather: impl FnOnce() -> SharedLane) -> SharedLane {
        let slot = Arc::clone(self.slots().entry(key).or_default());
        Arc::clone(slot.get_or_init(gather))
    }

    /// Inserting an empty slot is the only thing ever done under the
    /// lock, so a poisoned map is still a valid one.
    fn slots(&self) -> MutexGuard<'_, LaneSlots<'t>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Column lanes held (permutations not counted): the number of
    /// distinct (table, column) pairs streamed through here.
    pub(crate) fn lanes_gathered(&self) -> u64 {
        self.slots().keys().filter(|key| key.2.is_some()).count() as u64
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

/// Hash-partition a column set into `shards` gathered column groups by
/// the `key` column: row `i` lands in shard `h(cols[key][i]) mod shards`,
/// so **every occurrence of a key is co-located on one shard** — the
/// key-partitioned shard mode for register-aggregating shapes (GROUP BY
/// SUM/COUNT), where scattering a key across shards would multiply its
/// eviction traffic. Returns `shards` groups, each holding one gathered
/// lane per input column, in input order within the shard. Two passes:
/// a counting pass sizes every lane exactly, so the gather costs
/// `shards × cols` allocations however large the table is.
pub fn hash_shard_columns(
    cols: &[&[u64]],
    key: usize,
    shards: usize,
    seed: u64,
) -> Vec<Vec<Vec<u64>>> {
    assert!(shards > 0, "need at least one shard");
    assert!(key < cols.len(), "key column out of range");
    let hash = cheetah_core::hash::HashFn::new(seed);
    let keys = cols[key];
    let mut counts = vec![0usize; shards];
    for &k in keys {
        counts[hash.bucket(k, shards)] += 1;
    }
    let mut out: Vec<Vec<Vec<u64>>> = counts
        .iter()
        .map(|&n| cols.iter().map(|_| Vec::with_capacity(n)).collect())
        .collect();
    for i in 0..keys.len() {
        let s = hash.bucket(keys[i], shards);
        for (lane, col) in out[s].iter_mut().zip(cols) {
            lane.push(col[i]);
        }
    }
    out
}

/// Gather **one shard's** rows of a column set, hash-partitioned by the
/// `key` column: row `i` belongs to shard `h(cols[key][i]) mod shards`,
/// so every occurrence of a key is co-located on one shard. The
/// partition-local counterpart of [`hash_shard_columns`]: each shard
/// runner gathers its own slice concurrently with the others instead of
/// the master gathering all of them serially before any shard can start.
/// Returns one exact-capacity lane per input column (two passes: count,
/// then gather — O(1) allocations however large the table), plus a
/// trailing lane of global row indices when `with_rids` is set (the
/// row-id lane that rides switch-blind for late materialization and
/// join pairing). Gathered rows keep their input order within the shard.
pub fn gather_hash_shard(
    cols: &[&[u64]],
    key: usize,
    shard: usize,
    shards: usize,
    seed: u64,
    with_rids: bool,
) -> Vec<Vec<u64>> {
    assert!(shard < shards, "shard index out of range");
    assert!(key < cols.len(), "key column out of range");
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
    if let Some(r) = rids {
        out.push(r);
    }
    out
}

/// Append the §5 fingerprints of rows `start..start + len` of `cols`
/// onto `out`, gathering each row across the column slices through one
/// reused `scratch` buffer — the shared worker-side serialization loop
/// behind [`EntryStream::fingerprint_lane`] and the threaded pipeline's
/// fingerprint lanes ([`crate::threaded::Lane::Fingerprint`]).
pub fn fingerprint_rows(
    cols: &[&[u64]],
    start: usize,
    len: usize,
    fp: &Fingerprinter,
    out: &mut Vec<u64>,
    scratch: &mut Vec<u64>,
) {
    for i in start..start + len {
        scratch.clear();
        scratch.extend(cols.iter().map(|c| c[i]));
        out.push(fp.fp_words(scratch));
    }
}

/// A zero-copy view of one forwarded entry's metadata columns.
#[derive(Debug, Clone, Copy)]
pub struct EntryRef<'a> {
    cols: &'a [SharedLane],
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

    /// Copy the entry's values into `buf`, reusing its capacity.
    pub fn gather_into(&self, buf: &mut Vec<u64>) {
        buf.clear();
        self.extend_into(buf);
    }

    /// Append the entry's values onto `buf` — how a sink collects
    /// survivor tuples back to back in one flat buffer.
    pub fn extend_into(&self, buf: &mut Vec<u64>) {
        buf.extend(self.cols.iter().map(|c| c[self.idx]));
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
    use cheetah_core::distinct::{DistinctPruner, EvictionPolicy};

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

    #[test]
    fn arena_streams_equal_fresh_gathers_and_share_their_lanes() {
        let (t, u) = (table(), Table::new("u", vec![("a", vec![3, 1, 2])]));
        let arena = LaneArena::default();
        let ab = arena.stream(&t, &[0, 1], 5);
        let ba = arena.stream(&t, &[1, 0], 5);
        let fresh = EntryStream::interleaved(&t, &[1, 0], 5);
        assert_eq!(ba.row_ids(), fresh.row_ids());
        assert_eq!((ba.col(0), ba.col(1)), (fresh.col(0), fresh.col(1)));
        assert!(Arc::ptr_eq(&ab.row_ids, &ba.row_ids), "one permutation");
        assert!(Arc::ptr_eq(&ab.cols[0], &ba.cols[1]), "one lane per column");
        assert_eq!(arena.lanes_gathered(), 2);
        // Another worker count or another table is another set of lanes.
        let two = arena.stream(&t, &[0], 2);
        assert_eq!(two.col(0), EntryStream::interleaved(&t, &[0], 2).col(0));
        assert_eq!(arena.stream(&u, &[0], 5).col(0), &[3, 1, 2]);
        assert_eq!(arena.lanes_gathered(), 4);
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
        let mut buf = Vec::new();
        stream.prune(&mut pruner, &mut stats, |_, e| {
            assert_eq!(e.width(), 2);
            e.gather_into(&mut buf);
            assert_eq!(buf, e.to_vec());
            assert_eq!(buf[0], e.get(0));
            assert_eq!(buf[1], e.get(1));
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
        let shards = hash_shard_columns(&[&keys, &vals], 0, 4, 9);
        assert_eq!(shards.len(), 4);
        // Every row lands in exactly one shard: the gathered (key, val)
        // multiset is a permutation of the input.
        let mut gathered: Vec<(u64, u64)> = shards
            .iter()
            .flat_map(|g| g[0].iter().copied().zip(g[1].iter().copied()))
            .collect();
        let mut expected: Vec<(u64, u64)> =
            keys.iter().copied().zip(vals.iter().copied()).collect();
        gathered.sort_unstable();
        expected.sort_unstable();
        assert_eq!(gathered, expected);
        // Key-partitioned: a key appears in at most one shard.
        for key in 0..97u64 {
            let homes = shards.iter().filter(|g| g[0].contains(&key)).count();
            assert!(homes <= 1, "key {key} straddles {homes} hash shards");
        }
        // Gathered rows keep their relative (stream) order within a
        // shard: vals are unique and ascending in the input, so the
        // filtered input order must match the gathered lane exactly.
        for g in &shards {
            let expect_vals: Vec<u64> = vals
                .iter()
                .zip(&keys)
                .filter(|&(_, k)| g[0].contains(k))
                .map(|(&v, _)| v)
                .collect();
            assert_eq!(g[1], expect_vals, "gather scrambled in-shard order");
        }
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
