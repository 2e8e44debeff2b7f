//! The CMaster: what every arm does with the entries the switch let
//! through, written once and block-wise.
//!
//! After pruning, the deterministic, threaded, sharded, distributed and
//! serving arms (and, for the fetch, the Spark baseline) all finish a
//! query the same four ways. Each lives here exactly once; the arms only
//! differ in how survivors reach it.
//!
//! * **Hand-off**: a block's decisions become its survivors through
//!   [`survivors`], a branch-free index compaction, on every arm — the
//!   pool's switch thread ships the index list with the block's lanes
//!   (`threaded::SurvivorBlock`); the sinks below loop over that index
//!   list, never over the decisions. At the 10–60%
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
//! * **Group fold**: a [`GroupSink`] folds `(key, value)` survivors into
//!   one open-addressed group table that grows with the groups up to an
//!   L2-resident cap, and sorts only the groups, once, at the end. Folding
//!   400k survivors into 2k groups fell from 8.9 ms (sort every 16k
//!   survivors, merge the runs) to 2.6 ms. Near-unique keys, where a
//!   table only adds a probe, and groups past the cap send it aside for
//!   that sort buffer. Memory
//!   stays proportional to the groups. Shard partials are sorted
//!   [`GroupRun`]s and merge linearly; the ordered public map is
//!   bulk-built once, at the root.
//! * **Join pairing**: one [`JoinIndex`] over one side's `(key, row)`
//!   survivors, which the other side's survivors probe — neither side is
//!   sorted.
//!   Where bind gave the keys a dense code no larger than the hashed
//!   table would be, the build rows chain behind one head per key offset
//!   (no hash, no probe loop); elsewhere behind an open-addressed table.
//!   On `scan_det` (73k build, 200k probe survivors over 160k offsets)
//!   that and streaming the probe side took the JOIN cell from about 7.7
//!   to 5.5 ms. The deterministic arm indexes the smaller table's
//!   survivors and probes the other side's as they are forwarded; the
//!   pool arms' [`join_sink`] splits survivor blocks into per-side lists
//!   and [`join_survivors`] indexes the shorter.
//! * **Tuple runs**: [`TupleRun`] keeps multi-column DISTINCT survivors
//!   in one flat row-major buffer, sorts them there on a tuple key (not
//!   the array's slice comparison) and deduplicates — or, under a dense
//!   code, sorts one packed word a tuple ([`TupleRun::packed`]) — merges
//!   flat-to-flat up a reduction tree, is what the wire ships, and
//!   becomes owned tuples exactly once — one allocation per *output*
//!   tuple, none per survivor.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use cheetah_core::decision::Decision;
use cheetah_core::dense::OffsetCode;
use cheetah_core::hash::mix64;

use crate::backend::{JoinFilters, Keys};
use crate::multipass::SIDE_LEFT;
use crate::query::{fetch_chain_seed, fetch_chain_step, pair_checksum, Agg, QueryResult};
use crate::stream::BLOCK_ENTRIES;
use crate::table::Table;
use crate::threaded::SurvivorBlock;

/// The hand-off every arm makes from the switch to the master: the block
/// indices of the entries `decisions` forward, ascending, in the front of
/// `idx` — a deterministic block's 1,024 entries or a pool's wire block of
/// 8,192 alike (indices are `u16`, so at most 65,536). Branch-free — every
/// index is written and the cursor advances by the decision — so a
/// forward rate anywhere between 0 and 1 costs the same, where a
/// `filter(is_forward)` loop mispredicts on every coin flip the switch
/// made.
pub(crate) fn survivors<'a>(decisions: &[Decision], idx: &'a mut [u16]) -> &'a mut [u16] {
    assert!(
        decisions.len() <= idx.len().min(1 << 16),
        "one block of decisions"
    );
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
        } else if !other.pairs.is_empty() {
            let mut out = Vec::with_capacity(self.pairs.len() + other.pairs.len());
            self.merge_sorted(&other.pairs, &mut out);
        }
    }

    /// Merge `other` (sorted, unique keys) into the run, writing through
    /// the empty `out`, which comes back empty with the old run's buffer.
    /// Too small an `out` is replaced, not grown: growing copies its stale
    /// bytes, which cost a 120k-group fold 0.5 ms.
    fn merge_sorted(&mut self, other: &[(u64, u64)], out: &mut Vec<(u64, u64)>) {
        let need = self.pairs.len() + other.len();
        if out.capacity() < need {
            *out = Vec::with_capacity(need.next_power_of_two());
        }
        let (a, b) = (&self.pairs, other);
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
        std::mem::swap(&mut self.pairs, out);
        out.clear();
    }

    /// Keys in the run.
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
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

    /// A register aggregation's answer: a HAVING's keys above its
    /// `threshold`, or else every group.
    pub(crate) fn into_result(self, threshold: Option<u64>) -> QueryResult {
        match threshold {
            Some(threshold) => self.keys_above(threshold),
            None => QueryResult::Groups(self.into_groups()),
        }
    }
}

/// Slots of a [`GroupSink`]'s table at its largest: 512 KB of pairs and a
/// 32 KB occupancy lane, L2-resident. It holds half as many groups.
const TABLE_SLOTS: usize = 1 << 15;
const TABLE_CAP: usize = TABLE_SLOTS / 2;

/// Slots a table starts with (8 KB): its memory follows the groups seen.
const TABLE_MIN_SLOTS: usize = 1 << 9;

/// Groups past which a growing table that folded fewer than one survivor
/// in 16 into an existing group stops short, as at its cap.
const UNIQUE_PROBE: usize = 1 << 12;

/// Survivors the fallback sort buffer takes before folding them into the
/// run: 256 KB of pairs, sorted while still cache-resident.
const SINK_PENDING: usize = 1 << 14;

/// The streaming end of a [`GroupRun`]: survivors fold into a
/// [`GroupTable`], one cache-resident probe each, and only the *groups*
/// are sorted, once, at [`GroupSink::finish`]. Folding 400k survivors into
/// 2k groups took 8.9 ms through the sort buffer this replaced (sort every
/// 16k survivors, merge the runs) and 2.6 ms through the table; a 400k-row
/// `uservisits` HAVING over ≈ 2k `userAgent` groups fell 11.9 → 7.7 ms.
///
/// The table steps aside for that sort buffer when it reaches
/// [`TABLE_CAP`] groups, or when it grows past [`UNIQUE_PROBE`] groups
/// with fewer than one survivor in 16 folding into an existing group —
/// near-unique keys, where a table only adds a probe (a 120k-group GROUP
/// BY MAX paid 0.5 ms for filling it first). Its sorted groups then head
/// the buffer, which is folded into the run whenever it outgrows both
/// [`SINK_PENDING`] and the run, so each merge at least doubles the run
/// or folds a full buffer away and the merges stay linear overall.
/// Either way memory follows the groups, not the survivors.
pub(crate) struct GroupSink {
    run: GroupRun,
    /// `None` once the sink fell back to sorting.
    table: Option<GroupTable>,
    /// A `fill`'s staged block; after the fallback, the sort buffer.
    pending: Vec<(u64, u64)>,
    /// Merge scratch: holds the previous run's buffer between merges.
    spare: Vec<(u64, u64)>,
}

impl GroupSink {
    /// An empty sink folding with `agg`.
    pub(crate) fn new(agg: Agg) -> Self {
        GroupSink {
            run: GroupRun::fold(Vec::new(), agg),
            table: Some(GroupTable::with_slots(TABLE_MIN_SLOTS)),
            pending: Vec::with_capacity(BLOCK_ENTRIES),
            spare: Vec::new(),
        }
    }

    /// One survivor. Kept out of line: the GROUP BY SUM register loop
    /// takes it as its eviction callback, and the table probe inlined
    /// there measured +0.5 ms on a 400k-row query that never evicts.
    #[inline(never)]
    pub(crate) fn push(&mut self, key: u64, value: u64) {
        self.fill(|pending| pending.push((key, value)));
    }

    /// A block of survivors, appended by `append` (a
    /// `SurvivorBlock::extend_pairs_into`, a register drain) to a staging
    /// buffer the table then takes them from.
    pub(crate) fn fill(&mut self, append: impl FnOnce(&mut Vec<(u64, u64)>)) {
        append(&mut self.pending);
        let mut folded = 0;
        while let Some(table) = &mut self.table {
            folded += table.absorb(self.run.agg, &self.pending[folded..]);
            if folded == self.pending.len() {
                self.pending.clear();
                return;
            }
            // The table stopped short: the sort buffer takes over, the
            // table's groups in place of the survivors it folded into them.
            let table = self.table.take().expect("the table stopped short");
            self.pending.splice(..folded, table.into_sorted());
        }
        if self.pending.len() >= SINK_PENDING.max(self.run.pairs.len()) {
            self.settle();
        }
    }

    /// The folded run of everything pushed.
    pub(crate) fn finish(mut self) -> GroupRun {
        match self.table.take() {
            // A table that never stopped short holds everything pushed.
            Some(table) => self.run.pairs = table.into_sorted(),
            None => self.settle(),
        }
        self.run
    }

    /// Sort and fold the buffer into the run: taken as it is when there
    /// is no run yet, else merged through the spare buffer.
    fn settle(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        fold_pairs(&mut self.pending, self.run.agg);
        if self.run.pairs.is_empty() {
            std::mem::swap(&mut self.run.pairs, &mut self.pending);
        } else {
            self.run.merge_sorted(&self.pending, &mut self.spare);
        }
        self.pending.clear();
    }
}

/// A [`GroupSink`]'s table: linear probing on `mix64(key)`, doubling while
/// a quarter full (at load ½ the probe loop's exit mispredicts often enough
/// that 400k survivors into 2k groups took 4.0 ms, not 2.6) and at most
/// half full at [`TABLE_SLOTS`]. Occupancy is its own lane, not a sentinel
/// key: 0 and `u64::MAX` are keys like any other.
struct GroupTable {
    slots: Vec<(u64, u64)>,
    used: Vec<bool>,
    groups: usize,
    /// Survivors folded in since the table was built.
    pushes: usize,
}

impl GroupTable {
    fn with_slots(slots: usize) -> Self {
        GroupTable {
            slots: vec![(0, 0); slots],
            used: vec![false; slots],
            groups: 0,
            pushes: 0,
        }
    }

    /// The slot holding `key`, or the free slot it would take.
    fn slot(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = mix64(key) as usize & mask;
        while self.used[slot] && self.slots[slot].0 != key {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Fold `pairs` in with `agg`, doubling the table as the groups grow.
    /// Stops short at the first new group past [`TABLE_CAP`], or at a
    /// doubling past [`UNIQUE_PROBE`] groups when fewer than one pair in 16
    /// folded into an existing group. Returns how many pairs it took.
    fn absorb(&mut self, agg: Agg, pairs: &[(u64, u64)]) -> usize {
        for (taken, &(key, value)) in pairs.iter().enumerate() {
            let mut slot = self.slot(key);
            if self.used[slot] {
                self.slots[slot].1 = combine(agg, self.slots[slot].1, value);
            } else {
                let growing =
                    4 * (self.groups + 1) > self.slots.len() && self.slots.len() < TABLE_SLOTS;
                let hits = self.pushes + taken - self.groups;
                let unique = growing && self.groups >= UNIQUE_PROBE && 16 * hits < self.groups;
                if self.groups == TABLE_CAP || unique {
                    self.pushes += taken;
                    return taken;
                }
                if growing {
                    self.grow();
                    slot = self.slot(key);
                }
                self.used[slot] = true;
                self.slots[slot] = (key, value);
                self.groups += 1;
            }
        }
        self.pushes += pairs.len();
        pairs.len()
    }

    fn grow(&mut self) {
        let mut wider = GroupTable::with_slots(2 * self.slots.len());
        for (&pair, &used) in self.slots.iter().zip(&self.used) {
            if used {
                let slot = wider.slot(pair.0);
                wider.used[slot] = true;
                wider.slots[slot] = pair;
            }
        }
        wider.groups = self.groups;
        wider.pushes = self.pushes;
        *self = wider;
    }

    /// The groups sorted by key, in the slot lane's own buffer: occupied
    /// slots compact to its front (branch-free, like [`survivors`]) and
    /// only they are sorted.
    fn into_sorted(self) -> Vec<(u64, u64)> {
        let (mut slots, used, mut kept) = (self.slots, self.used, 0);
        for (i, &used) in used.iter().enumerate() {
            slots[kept] = slots[i];
            kept += usize::from(used);
        }
        slots.truncate(kept);
        slots.sort_unstable_by_key(|&(key, _)| key);
        slots
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
        // Every exact sum wraps mod 2⁶⁴, as the switch registers and the
        // reference do.
        Agg::Sum | Agg::Count => a.wrapping_add(b),
    }
}

/// A JOIN's forwarded `(key, row id)` pairs, left side then right.
pub(crate) type JoinSides = (Vec<(u64, u64)>, Vec<(u64, u64)>);

/// Demux one survivor block of `[side, key, rid]` entries into per-side
/// `(key, rid)` lists — the per-block join sink of every threaded
/// pipeline. Join partitions are single-sided, so the flow id is a
/// constant lane that resolves once per block.
pub(crate) fn join_sink(acc: &mut JoinSides, block: SurvivorBlock<'_>) {
    let (left, right) = acc;
    match block.const_lane(0) {
        Some(SIDE_LEFT) => block.extend_pairs_into(1, 2, left),
        Some(_) => block.extend_pairs_into(1, 2, right),
        None => unreachable!("join partitions are single-sided"),
    }
}

/// CMaster join completion, shared by the pool and Spark arms: count the
/// `(left row, right row)` pairs whose keys match and fold their
/// [`pair_checksum`]. The shorter side builds a [`JoinIndex`] over the
/// bound `keys`, the longer side probes it; the checksum is a commutative
/// sum, so the order pairs are met in — and so any sort — is immaterial.
/// The sharded arms run this per shard over hash-partitioned sides (every
/// occurrence of a key co-locates on one shard, so each match pairs
/// exactly once) and sum the counts and checksums up their tree.
pub(crate) fn join_survivors(
    left: Vec<(u64, u64)>,
    right: Vec<(u64, u64)>,
    keys: &Keys<JoinFilters>,
) -> (u64, u64) {
    let build_left = left.len() <= right.len();
    let (build, probe) = if build_left {
        (left, right)
    } else {
        (right, left)
    };
    let mut index = JoinIndex::new(build, build_left, keys);
    for &(key, row) in &probe {
        index.pair(key, row);
    }
    index.summary()
}

/// A JOIN's build side, indexed for pairing: its `(key, row)` pairs chain
/// behind one `u32` head per key, and each probe pair meets its key's
/// chain, counting the matches and folding their [`pair_checksum`]. The
/// heads are one per key offset `key − min` where bind gave the keys a
/// dense code no larger than the hashed table — no hash and no probe loop
/// — and an open-addressed table otherwise. So pairing never holds more
/// than the table would.
pub(crate) struct JoinIndex {
    build: Vec<(u64, u64)>,
    build_left: bool,
    slots: Slots,
    /// `heads[slot]` is 1 + the index of the latest build pair whose key
    /// owns the slot (0 = free); `prev[i]` continues that key's chain.
    heads: Vec<u32>,
    prev: Vec<u32>,
    pairs: u64,
    checksum: u64,
}

/// How a key finds its [`JoinIndex`] head.
#[derive(Clone, Copy)]
enum Slots {
    /// At its offset from the keys' minimum.
    Offset(u64),
    /// At its hash under this mask, probing linearly. At most half the
    /// slots fill, so every probe sequence ends.
    Hashed(usize),
}

impl Slots {
    /// The slot of `heads` that holds `key`'s chain over `build`, or the
    /// free one it would take.
    #[inline]
    fn of(self, heads: &[u32], build: &[(u64, u64)], key: u64) -> usize {
        match self {
            Slots::Offset(min) => key.wrapping_sub(min) as usize,
            Slots::Hashed(mask) => {
                let mut slot = mix64(key) as usize & mask;
                while heads[slot] != 0 && build[heads[slot] as usize - 1].0 != key {
                    slot = (slot + 1) & mask;
                }
                slot
            }
        }
    }
}

impl JoinIndex {
    /// Index `build`, the left side's pairs if `build_left`, over the
    /// bound `keys`: the one place pairing reads whether they are dense.
    pub(crate) fn new(build: Vec<(u64, u64)>, build_left: bool, keys: &Keys<JoinFilters>) -> Self {
        assert!(build.len() < u32::MAX as usize, "build side indexes in u32");
        let hashed = (2 * build.len()).next_power_of_two();
        let (slots, heads) = match keys {
            Keys::Dense(code) if code.cells() <= hashed as u64 => {
                (Slots::Offset(code.min()), code.cells() as usize)
            }
            _ => (Slots::Hashed(hashed - 1), hashed),
        };
        let mut heads = vec![0; heads];
        let mut prev = vec![0; build.len()];
        for (i, &(key, _)) in build.iter().enumerate() {
            let slot = slots.of(&heads, &build, key);
            prev[i] = heads[slot];
            heads[slot] = i as u32 + 1;
        }
        JoinIndex {
            build,
            build_left,
            slots,
            heads,
            prev,
            pairs: 0,
            checksum: 0,
        }
    }

    /// Pair row `probe_row` of the other side with the build rows of its
    /// `key`.
    #[inline]
    pub(crate) fn pair(&mut self, key: u64, probe_row: u64) {
        let mut at = self.heads[self.slots.of(&self.heads, &self.build, key)];
        while at != 0 {
            let build_row = self.build[at as usize - 1].1;
            let (lrow, rrow) = if self.build_left {
                (build_row, probe_row)
            } else {
                (probe_row, build_row)
            };
            self.pairs += 1;
            self.checksum = pair_checksum(self.checksum, key, lrow, rrow);
            at = self.prev[at as usize - 1];
        }
    }

    /// The pairs met so far and their checksum.
    pub(crate) fn summary(&self) -> (u64, u64) {
        (self.pairs, self.checksum)
    }
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

    /// [`Self::canonical`] of tuples whose lanes a dense `code` spans (a
    /// dense DISTINCT's survivors): each tuple packs into one word that
    /// orders as the tuple does ([`OffsetCode::pack`]), so one sort and
    /// dedup of words replaces the tuple sort. All in place: tuple `i`'s
    /// key overwrites word `i`, which no later tuple starts at or before,
    /// and the kept keys unpack from the back, where each tuple's words
    /// lie at or past its key and past every key still to unpack.
    pub(crate) fn packed(code: &OffsetCode, mut flat: Vec<u64>) -> Self {
        let width = code.lanes();
        assert_eq!(flat.len() % width, 0, "ragged tuple buffer");
        let tuples = flat.len() / width;
        for i in 0..tuples {
            flat[i] = code.pack(&flat[i * width..(i + 1) * width]);
        }
        flat.truncate(tuples);
        sort_dedup_arrays(&mut flat, |&[key]: &[u64; 1]| key);
        let kept = flat.len();
        flat.resize(kept * width, 0);
        for i in (0..kept).rev() {
            let key = flat[i];
            code.unpack(key, &mut flat[i * width..(i + 1) * width]);
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

    /// Words per tuple.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The tuples back to back, in order.
    pub(crate) fn flat(&self) -> &[u64] {
        &self.flat
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

/// Merge two descending candidate lists, keeping the global top `n` —
/// the associative Top-N reduce.
pub(crate) fn merge_top(a: &mut Vec<u64>, b: Vec<u64>, n: usize) {
    let mut merged = Vec::with_capacity(n.min(a.len() + b.len()));
    let (mut i, mut j) = (0, 0);
    while merged.len() < n && (i < a.len() || j < b.len()) {
        if j == b.len() || (i < a.len() && a[i] >= b[j]) {
            merged.push(a[i]);
            i += 1;
        } else {
            merged.push(b[j]);
            j += 1;
        }
    }
    *a = merged;
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
    use crate::threaded::WIRE_ENTRIES;
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
                Agg::Sum | Agg::Count => e.wrapping_add(v),
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

    /// `groups` keys, 0 and `u64::MAX` among them, each pushed `per_key`
    /// times: round by round (every key once a round) or key by key. SUM
    /// and COUNT values stay small enough to add up.
    fn group_stream(
        groups: usize,
        per_key: usize,
        by_round: bool,
        agg: Agg,
        seed: u64,
    ) -> Vec<(u64, u64)> {
        let key = |g: usize| match g {
            0 => 0,
            1 => u64::MAX,
            g => mix64(seed.wrapping_add(g as u64)),
        };
        let shift = if matches!(agg, Agg::Sum | Agg::Count) {
            24
        } else {
            0
        };
        (0..groups * per_key)
            .map(|i| {
                let g = if by_round { i % groups } else { i / per_key };
                (key(g), mix64(seed ^ !(i as u64)) >> shift)
            })
            .collect()
    }

    #[test]
    fn sink_steps_aside_for_near_unique_keys_and_past_its_cap() {
        // (groups, pushes a key, round by round, takes the sort fallback)
        let cases = [
            // All-unique: stops short at the unique probe.
            (4 * TABLE_CAP, 1, true, true),
            // Unique, but the table never grows past the probe.
            (UNIQUE_PROBE, 1, true, false),
            // Each key's repeats a full round apart: unique at the probe.
            (TABLE_CAP + 1, 3, true, true),
            // Aggregating, but past the cap: the sort buffer takes over.
            (TABLE_CAP + 1, 3, false, true),
            // All-equal.
            (1, 5 * BLOCK_ENTRIES, true, false),
        ];
        for (groups, per_key, by_round, falls_back) in cases {
            let pairs = group_stream(groups, per_key, by_round, Agg::Max, 7);
            let mut sink = GroupSink::new(Agg::Max);
            for block in pairs.chunks(BLOCK_ENTRIES) {
                sink.fill(|pending| pending.extend_from_slice(block));
            }
            let label = format!("{groups} groups × {per_key}, by round: {by_round}");
            assert_eq!(sink.table.is_none(), falls_back, "{label}");
            let run = sink.finish();
            assert_eq!(run.pairs.len(), groups, "{label}");
            assert_eq!(run, GroupRun::fold(pairs, Agg::Max), "{label}");
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

    /// Hashed JOIN keys: the pairing ignores the filters' geometry.
    const HASHED: Keys<JoinFilters> = Keys::Hashed(JoinFilters {
        bits: [64; 2],
        h: 1,
    });

    /// Dense JOIN keys over `min..min + cells`.
    fn dense(min: u64, cells: u64) -> Keys<JoinFilters> {
        Keys::Dense(OffsetCode::new(&[(min, min + cells - 1)]).expect("a range"))
    }

    /// Every left row against every right row.
    fn nested_loop_oracle(left: &[(u64, u64)], right: &[(u64, u64)]) -> (u64, u64) {
        let (mut pairs, mut checksum) = (0u64, 0u64);
        for &(lkey, lrow) in left {
            for &(rkey, rrow) in right {
                if lkey == rkey {
                    pairs += 1;
                    checksum = pair_checksum(checksum, lkey, lrow, rrow);
                }
            }
        }
        (pairs, checksum)
    }

    #[test]
    fn hash_pairing_handles_empty_and_one_sided_input() {
        let some = vec![(7, 0), (7, 1), (9, 2)];
        for keys in [HASHED, dense(7, 3)] {
            assert_eq!(join_survivors(Vec::new(), Vec::new(), &keys), (0, 0));
            assert_eq!(join_survivors(some.clone(), Vec::new(), &keys), (0, 0));
            assert_eq!(join_survivors(Vec::new(), some.clone(), &keys), (0, 0));
            // Sides are not interchangeable: the checksum knows left from
            // right.
            let other = vec![(7, 5)];
            let (lr, rl) = (
                join_survivors(some.clone(), other.clone(), &keys),
                join_survivors(other, some.clone(), &keys),
            );
            assert_eq!((lr.0, rl.0), (2, 2));
            assert_ne!(lr.1, rl.1);
        }
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
        fn survivors_are_the_forwarded_positions(seed in any::<u64>()) {
            // Around a deterministic block's length and up to a pool's wire
            // block, at forward rates 0 and 1, alternating and random.
            let lens = [0, 1, BLOCK_ENTRIES - 1, BLOCK_ENTRIES, BLOCK_ENTRIES + 1, WIRE_ENTRIES];
            let rates: [&dyn Fn(usize) -> bool; 4] =
                [&|_| false, &|_| true, &|i| i % 2 == 1, &|i| mix64(seed ^ i as u64) & 1 == 1];
            for len in lens {
                for forward in rates {
                    let decisions: Vec<Decision> = (0..len)
                        .map(|i| if forward(i) { Decision::Forward } else { Decision::Prune })
                        .collect();
                    let positions = (0..len).filter(|&i| decisions[i].is_forward());
                    let expected: Vec<u16> = positions.map(|i| i as u16).collect();
                    let mut idx = vec![0u16; len];
                    prop_assert_eq!(survivors(&decisions, &mut idx), &expected[..]);
                }
            }
        }

        #[test]
        fn block_fetch_equals_the_row_loop(
            ids in vec(0..ROWS as u64, 0..2 * FETCH_BLOCK + 50),
            cols in vec(0..LANES, 0..9),
        ) {
            check_fetch(&table(), &cols, &ids);
        }

        #[test]
        fn group_table_equals_the_fold_at_every_size(
            shape in (0usize..6, 0usize..4, 1usize..4, any::<bool>()),
            block in 1usize..1_500,
            seed in any::<u64>(),
        ) {
            // Group counts on both sides of the table's cap, each key
            // pushed once (all-unique) to three times, round by round or
            // key by key; fed one survivor at a time and in blocks.
            let groups = [0, 1, TABLE_CAP - 1, TABLE_CAP, TABLE_CAP + 1, 4 * TABLE_CAP][shape.0];
            let agg = [Agg::Max, Agg::Min, Agg::Sum, Agg::Count][shape.1];
            let pairs = group_stream(groups, shape.2, shape.3, agg, seed);
            let whole = GroupRun::fold(pairs.clone(), agg);
            let (mut pushed, mut filled) = (GroupSink::new(agg), GroupSink::new(agg));
            pairs.iter().for_each(|&(key, value)| pushed.push(key, value));
            for chunk in pairs.chunks(block) {
                filled.fill(|pending| pending.extend_from_slice(chunk));
            }
            prop_assert_eq!(&pushed.finish(), &whole);
            prop_assert_eq!(&filled.finish(), &whole);
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
                join_survivors(left.clone(), right.clone(), &HASHED),
                sort_merge_oracle(left, right)
            );
        }

        #[test]
        fn offset_pairing_equals_hashed_pairing_and_the_nested_loop(
            raw in (vec(any::<u64>(), 0..300), vec(any::<u64>(), 0..300)),
            cells in 1u64..1_500,
            min in 0u64..1 << 40,
        ) {
            // Keys at offset 0 and at `cells − 1`, a hot key and keys
            // across the range, so both sides repeat keys many to many;
            // either side may be empty or the shorter one, and `cells`
            // falls on both sides of the hashed table's slot count
            // (2 to 1,024 over these sides).
            let key = |w: u64| min + match w % 4 {
                0 => 0,
                1 => cells - 1,
                2 => (w >> 8) % 3 % cells,
                _ => (w >> 8) % cells,
            };
            let side = |words: &[u64]| -> Vec<(u64, u64)> {
                words.iter().enumerate().map(|(row, &w)| (key(w), row as u64)).collect()
            };
            let (left, right) = (side(&raw.0), side(&raw.1));
            let truth = nested_loop_oracle(&left, &right);
            let dense = dense(min, cells);
            prop_assert_eq!(join_survivors(left.clone(), right.clone(), &dense), truth);
            prop_assert_eq!(join_survivors(left.clone(), right.clone(), &HASHED), truth);
            // The index takes the offset array exactly while it is no
            // larger than the hashed table.
            let build = left.len().min(right.len());
            let index = JoinIndex::new(left[..build].to_vec(), true, &dense);
            let slots = (2 * build).next_power_of_two() as u64;
            prop_assert_eq!(matches!(index.slots, Slots::Offset(_)), cells <= slots);
        }

        #[test]
        fn packed_sort_equals_the_tuple_sort(
            width in 2usize..5,
            lanes in vec((1u64..1 << 40, 0u64..40), 4..5),
            words in vec(any::<u64>(), 0..600),
            repeats in 1usize..3,
        ) {
            // Lane `c` spans `min..=min + span` (a span of 0 takes no
            // bits); a tuple at every lane's minimum and one at every
            // lane's maximum ride along, and the survivors may repeat.
            let lanes = &lanes[..width];
            let domains: Vec<(u64, u64)> =
                lanes.iter().map(|&(min, span)| (min, min + span)).collect();
            let code = OffsetCode::new(&domains).expect("narrow lanes");
            let mut flat: Vec<u64> = words
                .chunks_exact(width)
                .flat_map(|t| t.iter().zip(lanes).map(|(&w, &(min, span))| min + w % (span + 1)))
                .collect();
            flat.extend(domains.iter().map(|&(min, _)| min));
            flat.extend(domains.iter().map(|&(_, max)| max));
            let flat = flat.repeat(repeats);
            prop_assert_eq!(
                TupleRun::packed(&code, flat.clone()),
                TupleRun::canonical(width, flat)
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
