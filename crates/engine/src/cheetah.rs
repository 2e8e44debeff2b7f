//! The Cheetah executor: serialize → switch-prune → master-complete (§3).
//!
//! Workers skip their computational tasks entirely: the CWorker serializes
//! the query's metadata columns (one entry per packet) and everything
//! streams through the switch, which runs the `cheetah-core` pruning
//! algorithm installed for the query. The CMaster completes the query on
//! the surviving entries — by construction obtaining exactly the result
//! the baseline computes (`Q(A_Q(D)) = Q(D)`), which the tests enforce.
//!
//! Partition streams interleave round-robin (the deterministic stand-in
//! for five NICs feeding one switch; see [`crate::threaded`] for the
//! real-threads version). Each bound `bind::Program` is one dataflow: a
//! single pass is the block scan serving also runs for the flows it packs
//! onto one table. Filter/TopN queries requesting full rows pay a late
//! materialization fetch (§7.1) that the switch does not touch.
//!
//! A single-pass query's completion is written once, here, for every arm:
//! `Completion` sinks a block's survivors and makes them one canonical
//! `Partial`, which the scan roots directly and every sharded, threaded
//! and distributed shard ships, merges and roots
//! ([`crate::sharded`]'s one single-pass program).

use std::time::Instant;

use cheetah_core::decision::{Decision, PruneStats, RowPruner};
use cheetah_core::distinct::EvictionPolicy;
use cheetah_core::filter::TruthTable;
use cheetah_core::fingerprint::Fingerprinter;
use cheetah_core::groupby::Extremum;
use cheetah_core::having::{HavingPassOne, HavingPruner};

use crate::backend::{HavingFlow, JoinFlow, Keys, SinglePass, SwitchBackend};
use crate::bind::{Bound, Program};
use crate::cost::CostModel;
use crate::executor::ExecutionReport;
use crate::master::{
    explode, fetch_and_checksum, fetch_rows_flat, merge_top, survivors, GroupRun, GroupSink,
    JoinIndex, TupleRun,
};
use crate::multipass::{SIDE_LEFT, SIDE_RIGHT};
use crate::query::{Agg, FetchSpec, Predicate, Query, QueryResult};
use crate::reference::skyline_of;
use crate::sharded::{self, InProcess};
use crate::stream::{fingerprint_rows, EntryStream, SpareRefs, BLOCK_ENTRIES};
use crate::table::{Database, Table};

/// Switch-side algorithm configuration (the Table 2 knobs).
#[derive(Debug, Clone)]
pub struct PrunerConfig {
    /// DISTINCT matrix rows, a floor: a DISTINCT or DistinctMulti whose
    /// key has at most half as many distinct values as the table has rows
    /// runs more, which [`Query::bind`] sizes from the key columns'
    /// distinct counts.
    pub distinct_d: usize,
    /// DISTINCT matrix columns.
    pub distinct_w: usize,
    /// DISTINCT replacement policy.
    pub distinct_policy: EvictionPolicy,
    /// Use the randomized TOP N (vs deterministic thresholds).
    pub topn_randomized: bool,
    /// Randomized TOP N row cap: [`Query::bind`] takes the smallest
    /// Theorem 2 matrix with at most this many rows.
    pub topn_d: usize,
    /// Randomized TOP N column floor, and the deterministic ladder's
    /// threshold count; [`Query::bind`] widens the matrix from here.
    pub topn_w: usize,
    /// GROUP BY matrix rows.
    pub groupby_d: usize,
    /// GROUP BY matrix columns.
    pub groupby_w: usize,
    /// JOIN filter budget per side, in bits (Table 2's `M`): each side's
    /// register Bloom filter is sized from its rows and capped here
    /// ([`JoinFlow::side_bits`], which [`Query::bind`] evaluates).
    pub join_m_bits: u64,
    /// Bits a JOIN key sets in its filter register (Table 2's `H`, 1–10).
    pub join_h: usize,
    /// HAVING Count-Min rows.
    pub having_d: usize,
    /// HAVING Count-Min counters per row.
    pub having_w: usize,
    /// SKYLINE stored points.
    pub skyline_w: usize,
    /// Hash seed for all switch structures.
    pub seed: u64,
    /// Run the switch side on reference pruners or metered pisa programs.
    /// (GROUP BY SUM/COUNT always uses the reference partial-aggregation
    /// matrix — §6's register accumulators have no single-pass program.)
    pub backend: SwitchBackend,
    /// Projection pushdown for the §7.1 late-materialization fetch:
    /// which lanes the Filter fetch (and, distributed, the `Rows` wire
    /// payload) materializes. Defaults to [`FetchSpec::All`] — the
    /// full-projection mode whose reports are bit-identical to the
    /// unprojected engine.
    pub fetch: FetchSpec,
}

impl Default for PrunerConfig {
    fn default() -> Self {
        PrunerConfig {
            distinct_d: 4096,
            distinct_w: 2,
            distinct_policy: EvictionPolicy::Lru,
            topn_randomized: true,
            topn_d: 4096,
            topn_w: 4,
            groupby_d: 4096,
            groupby_w: 8,
            join_m_bits: 4 * 8 * 1024 * 1024,
            join_h: 3,
            having_d: 3,
            having_w: 1024,
            skyline_w: 10,
            seed: 0x0c4e_e7a4,
            backend: SwitchBackend::Reference,
            fetch: FetchSpec::All,
        }
    }
}

/// One sampled-block throughput probe — the measured basis the planner's
/// worker and shard grids share (Cuttlefish-style tuning on real
/// samples, not a static model).
#[derive(Debug, Clone, Copy)]
pub struct ThroughputSample {
    /// Measured seconds per switch entry over the sampled blocks.
    pub per_entry_s: f64,
    /// Streaming passes the query's flow takes (2 for JOIN and a two-pass HAVING).
    pub passes: u64,
    /// Entries per pass (the streamed table's rows).
    pub rows: u64,
}

impl ThroughputSample {
    /// Estimated serialized switch wall: per-entry cost times total
    /// streamed entries across every pass.
    pub fn est_switch_s(&self) -> f64 {
        self.per_entry_s * (self.passes * self.rows) as f64
    }
}

/// The Cheetah executor.
#[derive(Debug, Clone)]
pub struct CheetahExecutor {
    /// Cost/cluster parameters.
    pub model: CostModel,
    /// Switch algorithm configuration.
    pub config: PrunerConfig,
}

/// The switch state of a two-pass flow once its observation pass is done —
/// what [`CheetahExecutor::execute_in`] hands back after a HAVING / JOIN,
/// and what it accepts pre-armed to skip that pass.
pub(crate) enum ArmedFlow {
    /// A HAVING flow whose Count-Min sketch has seen the whole table.
    Having(HavingFlow),
    /// A JOIN flow whose Bloom pair has seen both key columns.
    Join(JoinFlow),
}

/// The switch pruner a bound single-pass query installs, at its bound
/// geometry.
pub(crate) fn single_pass_pruner(cfg: &PrunerConfig, b: &Bound<'_>) -> Box<dyn RowPruner + Send> {
    match &b.program {
        Program::SinglePass(p) => p.pruner(cfg),
        _ => unreachable!("only single-pass programs install a row pruner"),
    }
}

/// The fingerprinter a DistinctMulti's tuples travel under (§5, Example
/// 8): wide/multi-column keys cross the switch as fingerprints, the
/// switch dedups fingerprints, the master dedups the surviving real
/// tuples (correct with probability 1−δ per Theorem 4; 64-bit
/// fingerprints make a harmful collision vanishingly unlikely here).
pub(crate) fn tuple_fingerprinter(cfg: &PrunerConfig) -> Fingerprinter {
    Fingerprinter::new(cfg.seed ^ 0xf1f1, 64)
}

/// The master's re-check of a Filter's full predicate (§4.1: the switch
/// only evaluated its relaxation): the *original* formula — unsupported
/// atoms included — compiled to a truth table and evaluated atom-major
/// over a block's survivors; a formula too wide for a table (more than
/// 16 atoms) is evaluated survivor by survivor.
pub(crate) struct Recheck<'q> {
    predicate: &'q Predicate,
    table: Option<TruthTable>,
}

impl<'q> Recheck<'q> {
    fn new(predicate: &'q Predicate) -> Self {
        let table = TruthTable::compile(&predicate.formula).ok();
        Recheck { predicate, table }
    }

    /// Hand `keep` the entries of `idx` (block indices into `cols`) the
    /// full predicate accepts, in order, compacted without a branch — one
    /// [`BLOCK_ENTRIES`] chunk of `idx` at a time.
    fn retain(&self, cols: &[&[u64]], idx: &[u16], mut keep: impl FnMut(&[u16])) {
        let (mut accepted, mut kept) = ([false; BLOCK_ENTRIES], [0u16; BLOCK_ENTRIES]);
        for chunk in idx.chunks(BLOCK_ENTRIES) {
            let accepted = &mut accepted[..chunk.len()];
            match &self.table {
                Some(table) => table.eval_indexed(&self.predicate.atoms, cols, chunk, accepted),
                None => {
                    for (ok, &i) in accepted.iter_mut().zip(chunk) {
                        *ok = self.predicate.eval_at(cols, usize::from(i));
                    }
                }
            }
            let mut n = 0;
            for (&i, &ok) in chunk.iter().zip(accepted.iter()) {
                kept[n] = i;
                n += usize::from(ok);
            }
            keep(&kept[..n]);
        }
    }
}

/// A single-pass query's master completion: what the CMaster does with
/// each survivor ([`Completion::take`]) and the canonical [`Partial`] the
/// survivors become ([`Completion::partial`]) — defined once for a solo
/// stream, a member of a shared scan and a shard.
pub(crate) enum Completion<'q> {
    /// FilterCount: re-check the full predicate, count matches.
    Count { check: Recheck<'q>, count: u64 },
    /// Filter: re-check, collect row ids for the §7.1 fetch.
    Fetch { check: Recheck<'q>, ids: Vec<u64> },
    /// Distinct / TopN: single-column survivors.
    Values(Vec<u64>),
    /// DistinctMulti / Skyline: survivor tuples back to back in one flat
    /// buffer.
    Tuples { width: usize, flat: Vec<u64> },
    /// GroupBy MAX/MIN: survivor `(key, value)` pairs, folding as they come.
    Groups(GroupSink),
}

impl<'q> Completion<'q> {
    pub(crate) fn for_query(b: &Bound<'q>) -> Self {
        match b.query {
            Query::FilterCount { predicate, .. } => Completion::Count {
                check: Recheck::new(predicate),
                count: 0,
            },
            Query::Filter { predicate, .. } => Completion::Fetch {
                check: Recheck::new(predicate),
                ids: Vec::new(),
            },
            Query::Distinct { .. } | Query::TopN { .. } => Completion::Values(Vec::new()),
            Query::DistinctMulti { .. } | Query::Skyline { .. } => Completion::Tuples {
                width: b.cols.len(),
                flat: Vec::new(),
            },
            Query::GroupBy { agg, .. } => Completion::Groups(GroupSink::new(*agg)),
            _ => unreachable!("only single-pass shapes complete here"),
        }
    }

    /// Take a block's survivors — the block indices `survivors` (the
    /// [`survivors`] of its decisions), whose columns in query order are
    /// `cols` and whose table rows `row_id` names: a scan's selection of
    /// its block's columns, a shard's survivor block.
    /// One dispatch a block, so each shape's survivor loop is its own
    /// tight loop over the survivor indices.
    pub(crate) fn take(
        &mut self,
        cols: &[&[u64]],
        survivors: &[u16],
        row_id: impl Fn(usize) -> u64,
    ) {
        let at = |c: usize, i: u16| cols[c][usize::from(i)];
        match self {
            Completion::Count { check, count } => {
                check.retain(cols, survivors, |kept| *count += kept.len() as u64)
            }
            Completion::Fetch { check, ids } => check.retain(cols, survivors, |kept| {
                ids.extend(kept.iter().map(|&i| row_id(usize::from(i))))
            }),
            Completion::Values(v) => v.extend(survivors.iter().map(|&i| at(0, i))),
            Completion::Tuples { width, flat } => {
                // Lane by lane into the tuples' new tail.
                let start = flat.len();
                flat.resize(start + survivors.len() * *width, 0);
                for c in 0..*width {
                    let tuples = flat[start..].chunks_exact_mut(*width);
                    for (tuple, &i) in tuples.zip(survivors.iter()) {
                        tuple[c] = at(c, i);
                    }
                }
            }
            Completion::Groups(groups) => groups
                .fill(|pending| pending.extend(survivors.iter().map(|&i| (at(0, i), at(1, i))))),
        }
    }

    /// The survivors of bound query `b` as its canonical [`Partial`], the
    /// one place they are sorted or cut. A Filter pays its §7.1
    /// late-materialization fetch here, over the lanes `fetch_cols`, and
    /// keeps the fetched rows only when the partial `ships`.
    pub(crate) fn partial(self, b: &Bound<'_>, fetch_cols: &[usize], ships: bool) -> Partial {
        match self {
            Completion::Count { count, .. } => Partial::Count(count),
            Completion::Fetch { ids, .. } => {
                // A local fetch walks the survivors in arrival order: on a
                // 120-lane table, sorted ids fetched 8 ms a round slower.
                // Shipped rows follow the sorted ids they are checked by.
                let local = (!ships).then(|| fetch_and_checksum(b.table, fetch_cols, &ids));
                let ids = TupleRun::canonical(1, ids);
                let (rows, checksum) = match local {
                    Some(checksum) => (Vec::new(), checksum),
                    None => fetch_rows_flat(b.table, fetch_cols, ids.flat()),
                };
                Partial::Fetched {
                    ids,
                    rows,
                    checksum,
                }
            }
            Completion::Values(values) => match b.query {
                Query::TopN { n, .. } => Partial::top(values, *n),
                _ => Partial::Tuples(TupleRun::canonical(1, values)),
            },
            Completion::Tuples { width, flat } => match (b.query, &b.program) {
                (Query::Skyline { .. }, _) => Partial::Frontier(frontier(width, &flat)),
                // A dense DistinctMulti sorts one packed word a tuple.
                (_, Program::SinglePass(SinglePass::Distinct(Keys::Dense(code)))) => {
                    Partial::Tuples(TupleRun::packed(code, flat))
                }
                _ => Partial::Tuples(TupleRun::canonical(width, flat)),
            },
            Completion::Groups(groups) => Partial::Groups(groups.finish()),
        }
    }
}

/// What a single-pass query's survivors amount to — one scan's, one
/// shard's, or a merged subtree of shards': canonical when
/// [`Completion::partial`] makes it (sorted, deduplicated, cut), kept
/// canonical by [`Partial::merge`], so [`Partial::root`] sorts nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Partial {
    /// FilterCount: survivors the full predicate accepts.
    Count(u64),
    /// Filter: the accepted row ids, sorted (a one-word tuple run), the
    /// wrapping sum of the §7.1 fetch checksums of their projected rows
    /// and — only in a shard's own partial that ships — those rows,
    /// row-major in id order. A merge keeps no rows: merged partials never
    /// ship.
    Fetched {
        ids: TupleRun,
        rows: Vec<u64>,
        checksum: u64,
    },
    /// TopN: the query's `n` and the at most `n` largest survivors,
    /// descending.
    Top { n: usize, values: Vec<u64> },
    /// Distinct (width 1) and DistinctMulti: the distinct survivors.
    Tuples(TupleRun),
    /// Skyline: the survivors' frontier, sorted.
    Frontier(TupleRun),
    /// GROUP BY MAX/MIN: per-key extrema.
    Groups(GroupRun),
}

impl Partial {
    /// `values`' top `n`, descending: selected, then only the `n` kept
    /// are sorted.
    pub(crate) fn top(mut values: Vec<u64>, n: usize) -> Self {
        if values.len() > n {
            if n > 0 {
                values.select_nth_unstable_by(n - 1, |a, b| b.cmp(a));
            }
            values.truncate(n);
        }
        values.sort_unstable_by(|a, b| b.cmp(a));
        Partial::Top { n, values }
    }

    /// Fold `other`, a partial of the same query, into this one: linear
    /// merges of sorted runs (a Skyline's union re-filtered to its
    /// frontier). Associative and commutative over shards.
    pub(crate) fn merge(&mut self, other: Partial) {
        match (self, other) {
            (Partial::Count(a), Partial::Count(b)) => *a += b,
            (
                Partial::Fetched { ids, checksum, .. },
                Partial::Fetched {
                    ids: more,
                    checksum: sum,
                    ..
                },
            ) => {
                ids.merge(more);
                *checksum = checksum.wrapping_add(sum);
            }
            (Partial::Top { n, values }, Partial::Top { values: more, .. }) => {
                merge_top(values, more, *n)
            }
            (Partial::Tuples(a), Partial::Tuples(b)) => a.merge(b),
            (Partial::Frontier(a), Partial::Frontier(b)) => {
                a.merge(b);
                *a = frontier(a.width(), a.flat());
            }
            (Partial::Groups(a), Partial::Groups(b)) => a.merge(b),
            _ => unreachable!("partials of one query share its shape"),
        }
    }

    /// The fully merged partial as bound query `b`'s answer over one pass
    /// of its table.
    pub(crate) fn root(self, b: &Bound<'_>) -> Answer {
        let answer = |result| Answer::single(result, b.table.rows() as u64);
        match self {
            Partial::Count(count) => answer(QueryResult::Count(count)),
            Partial::Fetched { ids, checksum, .. } => {
                let (_, ids) = ids.into_parts();
                Answer {
                    fetch_rows: ids.len() as u64,
                    fetch_checksum: Some(checksum),
                    ..answer(QueryResult::RowIds(ids))
                }
            }
            Partial::Top { n, values } => Answer {
                fetch_rows: n as u64,
                ..answer(QueryResult::TopValues(values))
            },
            Partial::Tuples(run) if matches!(b.query, Query::Distinct { .. }) => {
                answer(QueryResult::Values(run.into_parts().1))
            }
            Partial::Tuples(run) | Partial::Frontier(run) => answer(run.into_points()),
            Partial::Groups(run) => answer(QueryResult::Groups(run.into_groups())),
        }
    }
}

/// The skyline of `flat`'s `width`-word tuples as a canonical run: every
/// tuple no other dominates, once, sorted.
pub(crate) fn frontier(width: usize, flat: &[u64]) -> TupleRun {
    TupleRun::canonical(width, skyline_of(&explode(width, flat)).concat())
}

/// A finished query, with the counters its report carries.
pub(crate) struct Answer {
    pub(crate) result: QueryResult,
    /// Entries streamed over every pass.
    pub(crate) streamed: u64,
    pub(crate) passes: u32,
    pub(crate) fetch_rows: u64,
    pub(crate) fetch_checksum: Option<u64>,
}

impl Answer {
    /// A one-pass answer over `streamed` entries that fetched nothing.
    pub(crate) fn single(result: QueryResult, streamed: u64) -> Self {
        Answer {
            result,
            streamed,
            passes: 1,
            fetch_rows: 0,
            fetch_checksum: None,
        }
    }

    /// The report of an answer the switch decided: the entries it
    /// forwarded reached the master.
    pub(crate) fn pruned(self, stats: PruneStats) -> ExecutionReport {
        self.report("cheetah", Some(stats), stats.forwarded())
    }

    /// The report of this answer, labeled `executor`: `shuffle_entries`
    /// reached the master, and `prune` counts the switch's decisions if
    /// one decided.
    pub(crate) fn report(
        self,
        executor: &'static str,
        prune: Option<PruneStats>,
        shuffle_entries: u64,
    ) -> ExecutionReport {
        ExecutionReport {
            executor,
            result: self.result,
            prune,
            passes: self.passes,
            streamed: self.streamed,
            fetch_rows: self.fetch_rows,
            fetch_checksum: self.fetch_checksum,
            shuffle_entries,
            wall: None,
            pass_walls: Vec::new(),
            combine_wall: None,
            merge_walls: Vec::new(),
            resilience: None,
            plan: None,
        }
    }
}

/// Pass 2 of one JOIN side in the deterministic arm: prune `stream`'s
/// blocks (tagged `tags`) against the other side's filter and hand each
/// survivor's `(key, row id)` to `take` as it is forwarded.
fn join_pass_two(
    flow: &mut JoinFlow,
    (tags, stream): (&[u64; BLOCK_ENTRIES], &EntryStream),
    stats: &mut PruneStats,
    mut take: impl FnMut(u64, u64),
) {
    let mut decisions = [Decision::Prune; BLOCK_ENTRIES];
    let mut idx = [0u16; BLOCK_ENTRIES];
    let mut blocks = stream.blocks();
    while let Some(block) = blocks.next_block() {
        let keys = block.cols[0];
        let out = &mut decisions[..block.len];
        flow.probe_block(&tags[..block.len], keys, out);
        stats.record_block(out);
        for &i in survivors(out, &mut idx).iter() {
            let i = usize::from(i);
            take(keys[i], block.row_id(i));
        }
    }
}

impl CheetahExecutor {
    /// An executor with the given model and switch configuration.
    pub fn new(model: CostModel, config: PrunerConfig) -> Self {
        CheetahExecutor { model, config }
    }

    /// Run the query through the switch; real results, counted traffic.
    /// A malformed query panics at bind, before any stream is built.
    pub fn execute(&self, db: &Database, query: &Query) -> ExecutionReport {
        let b = query.bind_or_panic(db, &self.config);
        self.execute_in(&b, None).0
    }

    /// [`Self::execute`] of a bound query with its seam open, for a caller
    /// that keeps switch state across queries ([`crate::serve`]). A
    /// two-pass HAVING / JOIN given its `armed` flow — switch state that
    /// already observed these exact tables — skips the observation pass
    /// and reports one pass; either way the flow comes back armed.
    ///
    /// A JOIN ignores [`Program::Join`]'s `lopsided`: both sides stream
    /// twice, so its report counts `2 × (l + r)` entries where the pool
    /// arms' §4.3 asymmetric flow counts `l + r`, and
    /// `cheetah_bench::cost::cheetah` prices it so. The asymmetric flow
    /// would forward more and end serving's JOIN cache hits. Pass 2
    /// streams the smaller table first, its survivors building the
    /// pairing [`JoinIndex`], then the larger, each survivor pairing as
    /// it is forwarded, so no list of the larger side's survivors exists.
    /// A pass-2 probe only reads the filters, so the side order decides
    /// nothing.
    pub(crate) fn execute_in(
        &self,
        b: &Bound<'_>,
        armed: Option<ArmedFlow>,
    ) -> (ExecutionReport, Option<ArmedFlow>) {
        let cfg = &self.config;
        let (t, cols) = (b.table, &b.cols[..]);
        let interleave =
            |t: &Table, cols: &[usize]| EntryStream::interleaved(t, cols, self.model.workers);
        match b.program {
            Program::SinglePass(ref p) => {
                let mut pruner = p.pruner(cfg);
                let decide = |_, visible: &[&[u64]], out: &mut [Decision]| {
                    pruner.process_block(visible, out)
                };
                let mut reports = self.single_pass_scan(&[b], decide);
                (reports.pop().expect("one query, one report"), None)
            }
            Program::Registers {
                threshold,
                ref registers,
            } => {
                // §6: partial aggregation in switch registers; evictions
                // ride packets, residuals drain at FIN.
                let mut pruner = registers.sum_registers(cfg.seed);
                let mut stats = PruneStats::default();
                let mut groups = GroupSink::new(Agg::Sum);
                // COUNT folds 1 per entry and never reads the value lane:
                // blocks never exceed BLOCK_ENTRIES, so one static lane of
                // 1s serves every block of every query.
                static ONES: [u64; BLOCK_ENTRIES] = [1; BLOCK_ENTRIES];
                let stream = interleave(t, cols);
                let mut decisions = [Decision::Prune; BLOCK_ENTRIES];
                let mut blocks = stream.blocks();
                while let Some(block) = blocks.next_block() {
                    let vals = block.cols.get(1).copied().unwrap_or(&ONES[..block.len]);
                    let out = &mut decisions[..block.len];
                    pruner.process_block(block.cols[0], vals, out, |key, partial| {
                        groups.push(key, partial)
                    });
                    stats.record_block(out);
                }
                let drained = pruner.drain();
                stats.drained += drained.len() as u64;
                groups.fill(|partials| partials.extend(drained));
                let result = groups.finish().into_result(threshold);
                let report = Answer::single(result, t.rows() as u64).pruned(stats);
                (report, None)
            }
            Program::Having { threshold, sketch } => {
                let stream = interleave(t, cols);
                let mut stats = PruneStats::default();
                let mut decisions = [Decision::Prune; BLOCK_ENTRIES];
                let (mut flow, passes) = match armed {
                    Some(ArmedFlow::Having(flow)) => (flow, 1),
                    _ => {
                        // Pass 1: sketch + candidate announcements
                        // (straight off the column lanes — no per-row
                        // materialization).
                        let mut flow = HavingFlow::sized(cfg, sketch, threshold);
                        let mut blocks = stream.blocks();
                        while let Some(block) = blocks.next_block() {
                            let out = &mut decisions[..block.len];
                            flow.pass_one_block(block.cols[0], block.cols[1], out);
                            stats.record_block(out);
                        }
                        (flow, 2)
                    }
                };
                // Pass 2: the table lanes stream again, candidate entries
                // go to the master.
                flow.begin_pass_two();
                let mut sums = GroupSink::new(Agg::Sum);
                let mut idx = [0u16; BLOCK_ENTRIES];
                let mut blocks = stream.blocks();
                while let Some(block) = blocks.next_block() {
                    let (k, v) = (block.cols[0], block.cols[1]);
                    let out = &mut decisions[..block.len];
                    flow.pass_two_block(k, v, out);
                    stats.record_block(out);
                    let forwarded = survivors(out, &mut idx).iter().map(|&i| usize::from(i));
                    sums.fill(|pending| pending.extend(forwarded.map(|i| (k[i], v[i]))));
                }
                let result = sums.finish().keys_above(threshold);
                let streamed = u64::from(passes) * t.rows() as u64;
                let answer = Answer {
                    passes,
                    ..Answer::single(result, streamed)
                };
                let report = answer.pruned(stats);
                (report, Some(ArmedFlow::Having(flow)))
            }
            Program::Join {
                right: r,
                right_col,
                ref filters,
                ..
            } => {
                let lstream = interleave(t, cols);
                let rstream = interleave(r, &[right_col]);
                // §7.2 flow-id lanes: a stream is single-sided, so one
                // constant block of tags serves all of its blocks.
                static TAGS: [[u64; BLOCK_ENTRIES]; 2] =
                    [[SIDE_LEFT; BLOCK_ENTRIES], [SIDE_RIGHT; BLOCK_ENTRIES]];
                let sides = [(&TAGS[0], &lstream), (&TAGS[1], &rstream)];
                let (mut flow, passes) = match armed {
                    Some(ArmedFlow::Join(flow)) => (flow, 1),
                    _ => {
                        // Pass 1: build both filters (input-column
                        // stream, §4.3).
                        let mut flow = JoinFlow::sized(cfg, filters);
                        for (tags, stream) in sides {
                            let mut blocks = stream.blocks();
                            while let Some(block) = blocks.next_block() {
                                flow.observe_block(&tags[..block.len], block.cols[0]);
                            }
                        }
                        (flow, 2)
                    }
                };
                // Pass 2: prune each side against the other's filter, the
                // smaller table first, into the pairing index.
                let mut stats = PruneStats::default();
                let build_left = t.rows() <= r.rows();
                let mut sides = sides;
                if !build_left {
                    sides.reverse();
                }
                let [build_side, probe_side] = sides;
                let mut build: Vec<(u64, u64)> = Vec::new();
                join_pass_two(&mut flow, build_side, &mut stats, |key, row| {
                    build.push((key, row))
                });
                let mut index = JoinIndex::new(build, build_left, filters);
                join_pass_two(&mut flow, probe_side, &mut stats, |key, row| {
                    index.pair(key, row)
                });
                let (pairs, checksum) = index.summary();
                let streamed = u64::from(passes) * (t.rows() + r.rows()) as u64;
                let result = QueryResult::JoinSummary { pairs, checksum };
                let answer = Answer {
                    passes,
                    fetch_rows: pairs,
                    ..Answer::single(result, streamed)
                };
                (answer.pruned(stats), Some(ArmedFlow::Join(flow)))
            }
        }
    }

    /// The one single-pass scan — a solo query's, and a shared scan's of
    /// the bound single-pass `queries` serving packs onto one table: each
    /// block of the union of their metadata columns is gathered once, and
    /// per query, in order, `decide(q, visible, decisions)` decides the
    /// block the query's own solo stream would see (its columns in query
    /// order, or a DistinctMulti's fingerprint of them), and
    /// [`Completion::take`] sinks the survivors. Block boundaries depend
    /// only on the table and worker count, so a query's decisions are
    /// those of its solo run whatever else shares the scan. One report per
    /// query, in order.
    pub(crate) fn single_pass_scan(
        &self,
        queries: &[&Bound<'_>],
        mut decide: impl FnMut(usize, &[&[u64]], &mut [Decision]),
    ) -> Vec<ExecutionReport> {
        let cfg = &self.config;
        let t = queries[0].table;
        // The union of the queries' columns, first-appearance order, and
        // each query's columns as lanes of it.
        let mut union: Vec<usize> = Vec::new();
        let lanes: Vec<Vec<usize>> = queries
            .iter()
            .map(|b| {
                let lane = |&c: &usize| {
                    let seen = union.iter().position(|&u| u == c);
                    seen.unwrap_or_else(|| {
                        union.push(c);
                        union.len() - 1
                    })
                };
                b.cols.iter().map(lane).collect()
            })
            .collect();
        let stream = EntryStream::interleaved(t, &union, self.model.workers);
        let fp = tuple_fingerprinter(cfg);
        let mut fp_lane = Vec::with_capacity(BLOCK_ENTRIES);
        let mut stats = vec![PruneStats::default(); queries.len()];
        let mut masters: Vec<Completion<'_>> =
            queries.iter().map(|b| Completion::for_query(b)).collect();
        let mut decisions = [Decision::Prune; BLOCK_ENTRIES];
        let mut idx = [0u16; BLOCK_ENTRIES];
        let mut spare = SpareRefs::default();
        let mut blocks = stream.blocks();
        while let Some(block) = blocks.next_block() {
            for (q, b) in queries.iter().enumerate() {
                let mut cols = spare.take();
                cols.extend(lanes[q].iter().map(|&l| block.cols[l]));
                let key;
                let visible: &[&[u64]] = if b.fingerprints() {
                    fp_lane.clear();
                    fingerprint_rows(&cols, 0, block.len, &fp, &mut fp_lane);
                    key = [&fp_lane[..]];
                    &key
                } else {
                    &cols
                };
                let out = &mut decisions[..block.len];
                decide(q, visible, out);
                stats[q].record_block(out);
                masters[q].take(&cols, survivors(out, &mut idx), |i| block.row_id(i));
                spare.put(cols);
            }
        }
        let finished = queries.iter().zip(masters).zip(stats);
        finished
            .map(|((b, master), stats)| {
                let fetch = b.query.projection(t, &cfg.fetch);
                let partial = master.partial(b, fetch.cols(), false);
                partial.root(b).pruned(stats)
            })
            .collect()
    }

    /// Execute on the real-threads pipeline: one shard of
    /// [`crate::sharded`]'s programs over `InProcess(1)` — a
    /// persistent worker pool, one switch thread and a master, with
    /// wall-clock timing and nondeterministic interleaving. **Total over
    /// every query shape.** The returned report has
    /// [`ExecutionReport::wall`] set to the measured wall clock and
    /// [`ExecutionReport::pass_walls`] to the per-pass switch spans; one
    /// shard merges nothing, so `merge_walls` is empty and `combine_wall`
    /// is `None` (the root's time is inside `wall`).
    ///
    /// Pruning *rates* vary run to run (arrival races), but the result is
    /// order-independent and must equal [`Self::execute`]'s.
    pub fn execute_threaded(&self, db: &Database, query: &Query) -> ExecutionReport {
        self.threaded(&query.bind_or_panic(db, &self.config))
    }

    /// [`Self::execute_threaded`] of a bound query.
    pub(crate) fn threaded(&self, b: &Bound<'_>) -> ExecutionReport {
        let mut report = sharded::report_on(self, &mut InProcess(1), b);
        report.combine_wall = None;
        report
    }

    /// Stream the first few blocks of the query's metadata columns
    /// through a fresh instance of (a proxy for) the query's switch
    /// program and time them — the measured basis the planner's grids
    /// (worker count, shard count) share. `None` on an empty table,
    /// where any grid should pick the minimum arm.
    pub fn sample_throughput(&self, db: &Database, query: &Query) -> Option<ThroughputSample> {
        self.sample(&query.bind_or_panic(db, &self.config))
    }

    /// [`Self::sample_throughput`] of a bound query.
    pub(crate) fn sample(&self, b: &Bound<'_>) -> Option<ThroughputSample> {
        const SAMPLE_BLOCKS: usize = 4;
        let cfg = &self.config;
        let t = b.table;
        type Decide = Box<dyn FnMut(&[&[u64]], &mut [Decision])>;
        let prune = |mut p: Box<dyn RowPruner + Send>| -> Decide {
            Box::new(move |cols: &[&[u64]], out: &mut [Decision]| p.process_block(cols, out))
        };
        // The two-pass flows stream twice; everything else, register
        // aggregation included, once.
        let (passes, cols, mut decide): (u64, Vec<usize>, Decide) = match b.program {
            Program::SinglePass(ref p) => (1, b.cols.clone(), prune(p.pruner(cfg))),
            Program::Registers { ref registers, .. } => {
                // The MAX registers double as the SUM/COUNT
                // accumulator-cost proxy: same row scan, same memory.
                let mut cols = b.cols.clone();
                cols.resize(2, cols[0]);
                let proxy = SinglePass::GroupBy(registers.clone(), Extremum::Max);
                (1, cols, prune(proxy.pruner(cfg)))
            }
            Program::Having { threshold, sketch } => {
                let pruner = HavingPruner::new(sketch.d, sketch.w, threshold, cfg.seed);
                (
                    2,
                    b.cols.clone(),
                    prune(Box::new(HavingPassOne::new(pruner))),
                )
            }
            Program::Join { ref filters, .. } => {
                // Probe an empty filter pair of the size the query will run
                // with, over `[flow id, key]` lanes: the filter's memory
                // traffic is what the sample needs to see.
                let mut flow = JoinFlow::sized(cfg, filters);
                let probe = move |cols: &[&[u64]], out: &mut [Decision]| {
                    flow.probe_block(cols[0], cols[1], out)
                };
                (2, vec![b.cols[0]; 2], Box::new(probe))
            }
        };
        let sample = t.rows().min(SAMPLE_BLOCKS * BLOCK_ENTRIES);
        if sample == 0 {
            return None;
        }
        let mut decisions = [Decision::Prune; BLOCK_ENTRIES];
        let mut colrefs: Vec<&[u64]> = Vec::with_capacity(cols.len());
        let t0 = Instant::now();
        let mut start = 0;
        while start < sample {
            let len = (sample - start).min(BLOCK_ENTRIES);
            colrefs.clear();
            colrefs.extend(cols.iter().map(|&c| &t.col_at(c)[start..start + len]));
            decide(&colrefs, &mut decisions[..len]);
            start += len;
        }
        Some(ThroughputSample {
            per_entry_s: t0.elapsed().as_secs_f64() / sample as f64,
            passes,
            rows: t.rows() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{self, Keys};
    use crate::distributed::{DistributedExecutor, FailurePlan};
    use crate::fixture::{self, shape_db, KeyForm};
    use crate::reference;
    use crate::serve::ServeExecutor;
    use crate::sharded::ShardedExecutor;
    use crate::spark::SparkExecutor;
    use crate::table::Table;
    use crate::Executor;
    use cheetah_core::filter::{Atom, CmpOp, Formula};
    use cheetah_core::hash::mix64;
    use cheetah_pisa::pack::pack;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cheetah_matches_reference_on_all_query_kinds() {
        let cfg = PrunerConfig::default();
        let exec = CheetahExecutor::new(CostModel::default(), cfg.clone());
        for form in KeyForm::BOTH {
            let db = shape_db(form, 8_000, 1);
            let shapes = fixture::shapes();
            for (label, q) in &shapes {
                let report = exec.execute(&db, q);
                let truth = reference::evaluate(&db, q);
                assert_eq!(report.result, truth, "{label} over {form:?} keys diverged");
            }
            let queries = shapes.iter().map(|(_, q)| q);
            assert!(fixture::reached(form, &db, queries, &cfg) > 0, "{form:?}");
        }
    }

    #[test]
    fn pruning_actually_happens() {
        let db = shape_db(KeyForm::Narrow, 20_000, 2);
        let exec = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
        // DISTINCT over 79 keys: almost everything is a duplicate.
        let r = exec.execute(
            &db,
            &Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            },
        );
        assert!(
            r.prune_stats().pruned_fraction() > 0.95,
            "expected heavy pruning, got {:.4}",
            r.prune_stats().pruned_fraction()
        );
    }

    #[test]
    fn tiny_switch_config_still_correct() {
        // Starve every structure; the deterministic guarantees must hold,
        // only the pruning rate may degrade. (TOP N uses the deterministic
        // ladder here: the randomized variant's guarantee is probabilistic
        // and requires Theorem 2 dimensions — see the next test.)
        let cfg = PrunerConfig {
            distinct_d: 2,
            distinct_w: 1,
            topn_randomized: false,
            topn_w: 1,
            groupby_d: 2,
            groupby_w: 1,
            join_m_bits: 192,
            join_h: 3,
            having_d: 1,
            having_w: 2,
            skyline_w: 1,
            ..PrunerConfig::default()
        };
        let exec = CheetahExecutor::new(CostModel::default(), cfg.clone());
        for form in KeyForm::BOTH {
            let db = shape_db(form, 3_000, 3);
            let shapes = fixture::shapes();
            for (label, q) in &shapes {
                let report = exec.execute(&db, q);
                let truth = reference::evaluate(&db, q);
                assert_eq!(
                    report.result, truth,
                    "starved {label} over {form:?} keys diverged"
                );
            }
            let queries = shapes.iter().map(|(_, q)| q);
            assert!(fixture::reached(form, &db, queries, &cfg) > 0, "{form:?}");
        }
    }

    #[test]
    fn infeasible_randomized_topn_falls_back_to_the_exact_ladder() {
        // d=2 for TOP 50 is far outside Theorem 2 (topn_columns returns
        // None): no w gives the probabilistic guarantee, so the engine
        // runs the deterministic ladder instead, which is exact.
        assert_eq!(cheetah_core::params::topn_columns(2, 50, 1e-4), None);
        let cfg = PrunerConfig {
            topn_d: 2,
            topn_w: 1,
            ..PrunerConfig::default()
        };
        let ladder = backend::TopNGeometry::Deterministic { w: 1 };
        assert_eq!(backend::topn_geometry(&cfg, 50), ladder);
        let db = shape_db(KeyForm::Narrow, 10_000, 7);
        let exec = CheetahExecutor::new(CostModel::default(), cfg);
        let q = Query::TopN {
            table: "t".into(),
            order_by: "v".into(),
            n: 50,
        };
        let got = exec.execute(&db, &q).result;
        assert_eq!(got, reference::evaluate(&db, &q), "the fallback is exact");
    }

    #[test]
    fn deterministic_topn_variant_correct() {
        let cfg = PrunerConfig {
            topn_randomized: false,
            topn_w: 4,
            ..PrunerConfig::default()
        };
        let db = shape_db(KeyForm::Narrow, 10_000, 4);
        let exec = CheetahExecutor::new(CostModel::default(), cfg);
        let q = Query::TopN {
            table: "t".into(),
            order_by: "v".into(),
            n: 25,
        };
        assert_eq!(exec.execute(&db, &q).result, reference::evaluate(&db, &q));
    }

    #[test]
    fn join_and_having_take_two_passes() {
        let db = shape_db(KeyForm::Narrow, 2_000, 5);
        let exec = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
        let j = exec.execute(
            &db,
            &Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
        );
        assert_eq!(j.passes, 2);
        // Over wide keys past the register cutoff (79 keys against a
        // 16-cell matrix), HAVING makes §5's two passes; within it, GROUP
        // BY SUM's one. Over `1..80`, 79 dense registers take one pass
        // whatever the matrix.
        let having = Query::Having {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            threshold: 10_000,
        };
        let starved = CheetahExecutor::new(
            CostModel::default(),
            PrunerConfig {
                groupby_d: 8,
                groupby_w: 2,
                ..PrunerConfig::default()
            },
        );
        let wide = shape_db(KeyForm::Spread, 2_000, 5);
        assert_eq!(starved.execute(&wide, &having).passes, 2);
        assert_eq!(exec.execute(&wide, &having).passes, 1);
        assert_eq!(starved.execute(&db, &having).passes, 1);
    }

    /// `q`'s result on every arm over `cfg`: deterministic, threaded,
    /// sharded at `shards`, distributed over a lossy wire, Spark, and
    /// served twice — the second batch from whatever the first cached.
    fn every_arm(
        cfg: &PrunerConfig,
        db: &Database,
        q: &Query,
        shards: usize,
    ) -> Vec<(&'static str, QueryResult)> {
        let exec = CheetahExecutor::new(CostModel::default(), cfg.clone());
        let sharded = ShardedExecutor::with_shards(exec.clone(), shards);
        let lossy = FailurePlan {
            loss_rate: 0.05,
            seed: shards as u64,
            ..FailurePlan::default()
        };
        let distributed = DistributedExecutor::with_failure_plan(exec.clone(), shards, lossy);
        let serving = ServeExecutor::with_pool(exec.clone(), 1);
        let served = || {
            serving
                .serve(db, std::slice::from_ref(q))
                .0
                .remove(0)
                .result
        };
        vec![
            ("deterministic", exec.execute(db, q).result),
            ("threaded", exec.execute_threaded(db, q).result),
            ("sharded", Executor::execute(&sharded, db, q).result),
            ("distributed", Executor::execute(&distributed, db, q).result),
            (
                "spark",
                SparkExecutor::new(CostModel::default())
                    .execute(db, q)
                    .result,
            ),
            ("serving", served()),
            ("serving, warm", served()),
        ]
    }

    /// ROADMAP item one's repro: three 2⁶³ values used to saturate in the
    /// switch registers while the reference wrapped. Every exact SUM now
    /// wraps mod 2⁶⁴.
    #[test]
    fn group_by_sum_wraps_alike_on_every_arm() {
        let mut db = Database::new();
        db.add(Table::new(
            "t",
            vec![
                ("k", vec![1, 1, 1, 2]),
                ("v", vec![1 << 63, 1 << 63, 1 << 63, 5]),
            ],
        ));
        let q = Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Sum,
        };
        let truth = QueryResult::Groups([(1, 1 << 63), (2, 5)].into_iter().collect());
        assert_eq!(reference::evaluate(&db, &q), truth);
        for shards in [1, 2] {
            for (arm, result) in every_arm(&PrunerConfig::default(), &db, &q, shards) {
                assert_eq!(result, truth, "{arm} at {shards} shards");
            }
        }
    }

    #[test]
    fn threaded_execution_matches_deterministic_results() {
        let db = shape_db(KeyForm::Narrow, 6_000, 8);
        let exec = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
        for (_, q) in fixture::shapes() {
            let truth = reference::evaluate(&db, &q);
            let report = exec.execute_threaded(&db, &q);
            assert_eq!(report.result, truth, "threaded {} diverged", q.kind());
            assert!(report.prune_stats().processed > 0);
            let wall = report.wall.expect("threaded runs measure wall clock");
            assert!(wall.as_nanos() > 0);
        }
    }

    #[test]
    fn threaded_multipass_reports_match_deterministic_shape() {
        // Pass counts, streamed-entry totals and fetch metadata must line
        // up with the deterministic executor's, so the completion-time
        // model prices both paths identically.
        let db = shape_db(KeyForm::Narrow, 4_000, 12);
        let exec = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
        for (_, q) in fixture::shapes() {
            let det = exec.execute(&db, &q);
            let thr = exec.execute_threaded(&db, &q);
            assert_eq!(thr.passes, det.passes, "{} pass count", q.kind());
            // A lopsided JOIN streams one side a pass on threads only
            // (the §4.3 asymmetric flow).
            if !matches!(q, Query::Join { .. }) {
                assert_eq!(thr.streamed, det.streamed, "{} streamed", q.kind());
            }
            assert_eq!(
                thr.prune_stats().processed,
                det.prune_stats().processed,
                "{} processed-entry total",
                q.kind()
            );
            assert_eq!(
                thr.fetch_checksum.is_some(),
                det.fetch_checksum.is_some(),
                "{} fetch checksum presence",
                q.kind()
            );
            if matches!(q, Query::Filter { .. }) {
                assert_eq!(thr.fetch_rows, det.fetch_rows, "filter fetch rows");
                assert_eq!(
                    thr.fetch_checksum, det.fetch_checksum,
                    "filter fetch checksum"
                );
            }
        }
    }

    #[test]
    fn tuple_completion_takes_empty_full_and_sparse_blocks() {
        // DistinctMulti survivors are written lane by lane into the flat
        // buffer's new tail: a block with no survivors at width ≥ 2 must
        // append nothing (and slice nothing past the tail), before and
        // after a block that did append.
        let rows = 5 * BLOCK_ENTRIES - 100;
        let lane = |m: usize| (0..rows).map(|r| (r * m % 97) as u64).collect::<Vec<_>>();
        let mut db = Database::new();
        db.add(Table::new(
            "t",
            vec![("a", lane(3)), ("b", lane(5)), ("c", lane(11))],
        ));
        let names = ["a", "b", "c"];
        for width in 1..=3 {
            let query = Query::DistinctMulti {
                table: "t".into(),
                columns: names[..width].iter().map(|&c| c.into()).collect(),
            };
            let bound = query.bind(&db, &PrunerConfig::default()).expect("binds");
            let stream = EntryStream::interleaved(bound.table, &bound.cols, 3);
            let mut master = Completion::for_query(&bound);
            let mut expected = Vec::new();
            let mut idx = [0u16; BLOCK_ENTRIES];
            let mut blocks = stream.blocks();
            let mut b = 0;
            while let Some(block) = blocks.next_block() {
                let decisions: Vec<Decision> = (0..block.len)
                    .map(|i| match b % 3 {
                        0 => Decision::Prune,
                        1 => Decision::Forward,
                        _ if i % 3 == 0 => Decision::Forward,
                        _ => Decision::Prune,
                    })
                    .collect();
                for i in (0..block.len).filter(|&i| decisions[i].is_forward()) {
                    expected.extend(block.cols.iter().map(|c| c[i]));
                }
                let kept = survivors(&decisions, &mut idx);
                master.take(&block.cols, kept, |i| block.row_id(i));
                b += 1;
            }
            let Completion::Tuples { flat, .. } = master else {
                unreachable!("a DistinctMulti completes as tuples")
            };
            assert_eq!(flat, expected, "width {width}");
        }
    }

    #[test]
    fn recheck_keeps_exactly_what_the_full_predicate_accepts() {
        // The original formula, unsupported atoms included, through a
        // truth table at 3 atoms and survivor by survivor at 17 (past the
        // table's 16-atom cap), over a pool-sized block of survivors.
        let mut rng = StdRng::seed_from_u64(9);
        let entries = 3 * BLOCK_ENTRIES + 5;
        let lanes: Vec<Vec<u64>> = (0..2)
            .map(|_| (0..entries).map(|_| rng.gen_range(0..20u64)).collect())
            .collect();
        let cols: Vec<&[u64]> = lanes.iter().map(Vec::as_slice).collect();
        for arity in [3usize, 17] {
            let atoms: Vec<Atom> = (0..arity)
                .map(|a| match a % 3 {
                    0 => Atom::cmp(0, CmpOp::Lt, 4 + a as u64 % 7),
                    1 => Atom::cmp(1, CmpOp::Ge, 12 + a as u64 % 5),
                    _ => Atom::unsupported(a % 2, CmpOp::Ne, a as u64 % 20),
                })
                .collect();
            let pairs = (0..arity).step_by(2).map(|a| {
                let pair = (a..(a + 2).min(arity)).map(Formula::Atom).collect();
                Formula::And(pair)
            });
            let predicate = crate::query::Predicate {
                columns: vec!["x".into(), "y".into()],
                atoms,
                formula: Formula::Or(pairs.collect()),
            };
            let check = Recheck::new(&predicate);
            assert_eq!(check.table.is_some(), arity <= 16);
            let idx: Vec<u16> = (0..entries as u16).filter(|i| i % 5 != 0).collect();
            let expected: Vec<u16> = idx
                .iter()
                .copied()
                .filter(|&i| predicate.eval_at(&cols, usize::from(i)))
                .collect();
            assert!(!expected.is_empty() && expected.len() < idx.len());
            let mut kept = Vec::new();
            check.retain(&cols, &idx, |chunk| kept.extend_from_slice(chunk));
            assert_eq!(kept, expected, "{arity} atoms");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// TOP N is exact from n = 0 past the table's rows on every arm:
        /// the matrix follows n while Theorem 2 sizes it within the
        /// pipeline, and the deterministic ladder takes over beyond (a
        /// fixed 4096 × 4 matrix loses entries from n ≈ 2,000).
        #[test]
        fn topn_is_exact_at_every_n_on_every_arm(
            rows in 1usize..4_500,
            n in any::<u64>(),
            domain in 0usize..3,
            seed in any::<u64>(),
        ) {
            let n = (n % (rows as u64 + 2)) as usize;
            let modulus = [40, 1 << 20, u64::MAX][domain];
            let lane = |salt: u64| (0..rows as u64).map(|i| mix64(seed ^ salt ^ i) % modulus).collect();
            let mut db = Database::new();
            db.add(Table::new("t", vec![("k", lane(1)), ("v", lane(2))]));
            let q = Query::TopN {
                table: "t".into(),
                order_by: "v".into(),
                n,
            };
            let truth = reference::evaluate(&db, &q);
            let exec = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
            let sharded = ShardedExecutor::with_shards(exec.clone(), 2);
            let distributed = DistributedExecutor::with_shards(exec.clone(), 2);
            // A co-resident DISTINCT shares the TOP N's scan only where
            // the §6 placer puts both flows' charges on the pipeline
            // together — the DISTINCT's 2 stages, or its one where `k`
            // binds dense, beside the TOP N matrix; past that, both run solo.
            let distinct = Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            };
            let tofino = cheetah_core::SwitchModel::tofino_like();
            let charge = |q: &Query| q.bind(&db, &exec.config).expect("binds").charge;
            let packs = pack(&tofino, &[charge(&q), charge(&distinct)]).is_ok();
            let (served, batch) = ServeExecutor::with_pool(exec.clone(), 1)
                .serve(&db, &[q.clone(), distinct]);
            let expected = if packs { (2, 0) } else { (0, 2) };
            prop_assert_eq!((batch.packed, batch.solo), expected, "n = {}", n);
            let arms = [
                ("deterministic", exec.execute(&db, &q).result),
                ("threaded", exec.execute_threaded(&db, &q).result),
                ("sharded", Executor::execute(&sharded, &db, &q).result),
                ("distributed", Executor::execute(&distributed, &db, &q).result),
                ("spark", SparkExecutor::new(CostModel::default()).execute(&db, &q).result),
                ("serving", served[0].result.clone()),
            ];
            for (arm, result) in arms {
                prop_assert!(result == truth, "{} diverged at n = {} over {} rows", arm, n, rows);
            }
        }

        /// DISTINCT and DistinctMulti are exact on every arm at every
        /// geometry their keys size: one to three key columns whose domain
        /// product is tiny, exactly rows / 2 or one past it, or near-unique,
        /// over a starved, a small and Table 2's floor — hashed keys, and
        /// the same keys as their dense offsets, on either backend.
        #[test]
        fn distinct_is_exact_at_every_sized_geometry_on_every_arm(
            rows in 1usize..4_500,
            width in 1usize..4,
            domain in 0usize..4,
            dense in any::<bool>(),
            pisa in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let half = rows / 2 + (domain == 2) as usize;
            // Lane c repeats its key every `modulus(c)` rows, so its count
            // is exactly min(modulus, rows).
            let modulus = |c: usize| match domain {
                0 => 3,
                1 | 2 if c == 0 => half.max(1),
                1 | 2 => 1,
                _ => rows,
            };
            let lanes: Vec<Vec<u64>> = (0..width)
                .map(|c| {
                    let m = modulus(c) as u64;
                    let key = |i: u64| if dense { i % m } else { mix64(seed ^ ((c as u64) << 32) ^ (i % m)) };
                    (0..rows as u64).map(key).collect()
                })
                .collect();
            let names = ["a", "b", "c"];
            let mut db = Database::new();
            db.add(Table::new("t", names.iter().copied().zip(lanes).collect()));
            // Spread keys bind hashed but for lanes of one key, which fit a
            // stage however spread; offsets bind dense where their code
            // does: one lane's range, or ⌈log₂ range⌉ bits a lane, 25 in all.
            let spans = (0..width).map(|c| modulus(c).min(rows) as u64 - 1);
            let hashed = if dense {
                let bits: u32 = spans.map(|s| u64::BITS - s.leading_zeros()).sum();
                width > 1 && bits > backend::spec().sram_per_stage_bits.ilog2()
            } else {
                spans.clone().any(|s| s > 0)
            };
            let q = if width == 1 && seed.is_multiple_of(2) {
                Query::Distinct { table: "t".into(), column: "a".into() }
            } else {
                Query::DistinctMulti {
                    table: "t".into(),
                    columns: names[..width].iter().map(|&c| c.into()).collect(),
                }
            };
            let truth = reference::evaluate(&db, &q);
            let (distinct_d, distinct_w) = [(1, 1), (64, 2), (4096, 2)][(seed >> 8) as usize % 3];
            let backend = if pisa { SwitchBackend::Pisa } else { SwitchBackend::Reference };
            let cfg = PrunerConfig { distinct_d, distinct_w, backend, ..PrunerConfig::default() };
            let bound = q.bind(&db, &cfg).expect("binds");
            let bound_hashed = matches!(bound.program, Program::SinglePass(SinglePass::Distinct(Keys::Hashed(_))));
            prop_assert_eq!(bound_hashed, hashed);
            let exec = CheetahExecutor::new(CostModel::default(), cfg);
            let sharded = ShardedExecutor::with_shards(exec.clone(), 2);
            // A co-resident flow, so the DISTINCT packs into a shared scan.
            let topn = Query::TopN { table: "t".into(), order_by: "a".into(), n: 5 };
            let served = ServeExecutor::with_pool(exec.clone(), 1)
                .serve(&db, &[q.clone(), topn])
                .0;
            let arms = [
                ("deterministic", exec.execute(&db, &q).result),
                ("threaded", exec.execute_threaded(&db, &q).result),
                ("sharded", Executor::execute(&sharded, &db, &q).result),
                ("serving", served[0].result.clone()),
            ];
            for (arm, result) in arms {
                prop_assert!(result == truth, "{} diverged: {:?} over {} rows", arm, q, rows);
            }
        }

        /// HAVING is exact on both sides of the register cutoff
        /// `groupby_d · groupby_w / 2`, on every arm: key domains of three
        /// keys, exactly the cutoff, one past it and near-unique, over three
        /// register geometries, with thresholds no key, some keys or every
        /// key clears — over hashed keys, and over the same keys as dense
        /// offsets, which one pass of registers takes at any geometry, on
        /// either backend.
        #[test]
        fn having_is_exact_on_both_sides_of_the_register_cutoff_on_every_arm(
            rows in 1usize..3_000,
            domain in 0usize..4,
            geometry in 0usize..3,
            clears in 0usize..3,
            shards in 1usize..5,
            dense in any::<bool>(),
            pisa in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let (groupby_d, groupby_w) = [(4, 2), (64, 2), (128, 8)][geometry];
            let cutoff = groupby_d * groupby_w / 2;
            let modulus = [3, cutoff, cutoff + 1, rows][domain] as u64;
            let key = |i: u64| if dense { i % modulus } else { mix64(seed ^ (i % modulus)) };
            let keys: Vec<u64> = (0..rows as u64).map(key).collect();
            let vals: Vec<u64> = (0..rows as u64).map(|i| mix64(!seed ^ i) % 1_000 + 1).collect();
            let mut db = Database::new();
            db.add(Table::new("t", vec![("k", keys), ("v", vals)]));
            let backend = if pisa { SwitchBackend::Pisa } else { SwitchBackend::Reference };
            let cfg = PrunerConfig { groupby_d, groupby_w, backend, ..PrunerConfig::default() };
            // `mix64` is a bijection, so the lane holds min(modulus, rows)
            // distinct keys.
            let by_registers = modulus.min(rows as u64) <= cutoff as u64;
            prop_assert_eq!(backend::having_by_registers(&cfg, db.table("t"), 0), by_registers);
            // One key fits a stage however it is spread.
            let dense = dense || modulus.min(rows as u64) == 1;
            // Every key's sum is at least 1: a threshold of 0 passes them
            // all, the largest sum none, the median some.
            let sums = match reference::evaluate(&db, &Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Sum,
            }) {
                QueryResult::Groups(groups) => {
                    let mut sums: Vec<u64> = groups.into_values().collect();
                    sums.sort_unstable();
                    sums
                }
                other => unreachable!("GROUP BY answers groups, not {:?}", other),
            };
            let threshold = [0, sums[sums.len() / 2], sums[sums.len() - 1]][clears];
            let q = Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold,
            };
            let truth = reference::evaluate(&db, &q);
            let passes = CheetahExecutor::new(CostModel::default(), cfg.clone()).execute(&db, &q).passes;
            prop_assert_eq!(passes, if dense || by_registers { 1 } else { 2 });
            for (arm, result) in every_arm(&cfg, &db, &q, shards) {
                prop_assert!(result == truth, "{} diverged over {} rows, {} keys", arm, rows, modulus);
            }
        }

        /// SUM, COUNT and HAVING over values from the top of the u64 range,
        /// where nearly every sum wraps, agree with the reference on every
        /// arm — HAVING on both sides of the register cutoff, whose
        /// Count-Min cells saturate instead, as an upper bound must — over
        /// dense keys and the same keys spread wide, on either backend.
        #[test]
        fn sums_wrap_alike_at_the_top_of_the_u64_range_on_every_arm(
            rows in 1usize..2_000,
            keys in 1u64..200,
            spread in 0u32..64,
            starved in any::<bool>(),
            wide in any::<bool>(),
            pisa in any::<bool>(),
            shards in 1usize..4,
            seed in any::<u64>(),
        ) {
            // Keys below 200 bind dense; spread past a stage, hashed.
            let shift = if wide { 40 } else { 0 };
            let k: Vec<u64> = (0..rows as u64).map(|i| (mix64(seed ^ i) % keys) << shift).collect();
            let v: Vec<u64> = (0..rows as u64)
                .map(|i| u64::MAX - (mix64(!seed ^ i) >> spread))
                .collect();
            let threshold = mix64(seed.rotate_left(17));
            let mut db = Database::new();
            db.add(Table::new("t", vec![("k", k), ("v", v)]));
            let group = |agg| Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg,
            };
            let having = Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold,
            };
            let (groupby_d, groupby_w) = if starved { (2, 1) } else { (4096, 8) };
            let backend = if pisa { SwitchBackend::Pisa } else { SwitchBackend::Reference };
            let cfg = PrunerConfig { groupby_d, groupby_w, backend, ..PrunerConfig::default() };
            for q in [group(Agg::Sum), group(Agg::Count), having] {
                let truth = reference::evaluate(&db, &q);
                for (arm, result) in every_arm(&cfg, &db, &q, shards) {
                    prop_assert!(result == truth, "{} diverged on {}", arm, q.kind());
                }
            }
        }

        /// Bind chooses a dense program exactly while a key lane's range
        /// fits one stage — a bitmap's 2²⁵ keys for DISTINCT and JOIN,
        /// ⌊2²⁵/65⌋ = 516,222 registers for GROUP BY and HAVING — and the
        /// hashed one a key past it; on both sides, on both backends, every
        /// arm answers what the reference answers.
        #[test]
        fn dense_binds_exactly_inside_the_stage_cutoff_on_every_arm(
            rows in 2usize..300,
            past in any::<bool>(),
            registers in any::<bool>(),
            base in any::<u32>(),
            seed in any::<u64>(),
        ) {
            let stage = backend::spec().sram_per_stage_bits;
            let cutoff = if registers { stage / 65 } else { stage };
            let range = cutoff + u64::from(past);
            // Both ends of the range, then keys inside it.
            let (lo, hi) = (u64::from(base), u64::from(base) + range - 1);
            let keys = (0..rows as u64).map(|i| match i {
                0 => lo,
                1 => hi,
                _ => lo + mix64(seed ^ i) % range,
            });
            let vals = (0..rows as u64).map(|i| mix64(!seed ^ i) % 1_000);
            let mut db = Database::new();
            db.add(Table::new("t", vec![("k", keys.collect()), ("v", vals.collect())]));
            let t = || "t".to_string();
            let queries = if registers {
                vec![
                    Query::GroupBy { table: t(), key: "k".into(), val: "v".into(), agg: Agg::Sum },
                    Query::GroupBy { table: t(), key: "k".into(), val: "v".into(), agg: Agg::Max },
                    Query::Having { table: t(), key: "k".into(), val: "v".into(), threshold: 500 },
                ]
            } else {
                vec![
                    Query::Distinct { table: t(), column: "k".into() },
                    Query::Join { left: t(), right: t(), left_col: "k".into(), right_col: "k".into() },
                ]
            };
            for backend in [SwitchBackend::Reference, SwitchBackend::Pisa] {
                let cfg = PrunerConfig { backend, ..PrunerConfig::default() };
                for q in &queries {
                    let dense = match q.bind(&db, &cfg).expect("binds").program {
                        Program::SinglePass(SinglePass::Distinct(ref k)) => k.is_dense(),
                        Program::SinglePass(SinglePass::GroupBy(ref k, _)) => k.is_dense(),
                        Program::Registers { ref registers, .. } => registers.is_dense(),
                        Program::Join { ref filters, .. } => filters.is_dense(),
                        _ => false,
                    };
                    prop_assert_eq!(dense, !past, "{} over {} keys", q.kind(), range);
                    let truth = reference::evaluate(&db, q);
                    for (arm, result) in every_arm(&cfg, &db, q, 2) {
                        prop_assert!(result == truth, "{} diverged on {} over {} keys", arm, q.kind(), range);
                    }
                }
            }
        }

        /// TOP N's selection keeps exactly what sorting every survivor and
        /// cutting keeps, duplicates included.
        #[test]
        fn top_selects_what_sort_and_truncate_keeps(
            which in 0usize..3,
            len in any::<u64>(),
            domain in 1u64..1_000,
            seed in any::<u64>(),
        ) {
            let n = [0, 1, 250][which];
            let len = (len % (3 * n as u64 + 4)) as usize;
            let values: Vec<u64> = (0..len as u64).map(|i| mix64(seed ^ i) % domain).collect();
            let mut sorted = values.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            sorted.truncate(n);
            prop_assert_eq!(Partial::top(values, n), Partial::Top { n, values: sorted });
        }

        /// Every arm, on both backends, answers what the reference answers
        /// over a grammar of well-formed queries `fixture::shapes()` never
        /// draws: predicates of up to twenty atoms over zero to three
        /// columns, repeats included, with nested constant formulas; multi-column keys with repeated columns; TOP N at the
        /// edges of the table; HAVING at both threshold extremes; and
        /// self-joins and joins on non-key columns — over tables of 0, 1, 2,
        /// 7 and 3,000 rows, whose keys bind dense, and their wide twins,
        /// whose keys bind hashed.
        #[test]
        fn every_arm_answers_every_query_of_the_grammar(
            size in 0usize..5,
            seed in any::<u64>(),
            shards in 1usize..3,
        ) {
            let rows = [0, 1, 2, 7, 3_000][size];
            for form in KeyForm::BOTH {
                let db = shape_db(form, rows, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..8 {
                    let q = grammar_query(&mut rng, rows);
                    let truth = reference::evaluate(&db, &q);
                    for backend in [SwitchBackend::Reference, SwitchBackend::Pisa] {
                        let cfg = PrunerConfig { backend, ..PrunerConfig::default() };
                        for (arm, result) in every_arm(&cfg, &db, &q, shards) {
                            prop_assert!(
                                result == truth,
                                "{} on {:?} diverged over {} rows of {:?} keys on {:?}",
                                arm, backend, rows, form, q
                            );
                        }
                    }
                }
            }
        }
    }

    /// One query of the grammar over [`shape_db`]'s `t(k, v, w)` and
    /// `s(k, x)`, where `t` has `rows` rows.
    fn grammar_query(rng: &mut StdRng, rows: usize) -> Query {
        const COLS: [&str; 3] = ["k", "v", "w"];
        let col = |rng: &mut StdRng| COLS[rng.gen_range(0..3usize)].to_string();
        let cols = |rng: &mut StdRng, min: usize| {
            let n = rng.gen_range(min..4);
            (0..n).map(|_| col(rng)).collect::<Vec<_>>()
        };
        let t = || "t".to_string();
        match rng.gen_range(0..8u8) {
            filter @ 0..=1 => {
                let columns = cols(rng, 0);
                // Up to twice a stage's ten ALUs: bind relaxes the atoms
                // past them.
                let atoms: Vec<Atom> = if columns.is_empty() {
                    Vec::new()
                } else {
                    (0..rng.gen_range(0..=20usize))
                        .map(|_| {
                            let (c, k) =
                                (rng.gen_range(0..columns.len()), rng.gen_range(0..10_000));
                            let op = [CmpOp::Lt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne]
                                [rng.gen_range(0..4usize)];
                            if rng.gen_bool(0.25) {
                                Atom::unsupported(c, op, k)
                            } else {
                                Atom::cmp(c, op, k)
                            }
                        })
                        .collect()
                };
                let formula = if rng.gen_bool(0.5) {
                    grammar_formula(rng, atoms.len(), 3)
                } else {
                    // Every atom once, in one conjunction or disjunction.
                    let literals = (0..atoms.len())
                        .map(|i| {
                            if rng.gen_bool(0.5) {
                                Formula::Atom(i)
                            } else {
                                Formula::NotAtom(i)
                            }
                        })
                        .collect();
                    if rng.gen_bool(0.5) {
                        Formula::And(literals)
                    } else {
                        Formula::Or(literals)
                    }
                };
                let predicate = crate::query::Predicate {
                    columns,
                    atoms,
                    formula,
                };
                if filter == 0 {
                    Query::FilterCount {
                        table: t(),
                        predicate,
                    }
                } else {
                    Query::Filter {
                        table: t(),
                        predicate,
                    }
                }
            }
            2 => Query::DistinctMulti {
                table: t(),
                columns: cols(rng, 1),
            },
            3 => Query::Skyline {
                table: t(),
                columns: cols(rng, 1),
            },
            4 => {
                let n = [0, 1, rows, rows + 1][rng.gen_range(0..4usize)];
                Query::TopN {
                    table: t(),
                    order_by: col(rng),
                    n,
                }
            }
            5 => {
                let agg = [Agg::Sum, Agg::Count, Agg::Max, Agg::Min][rng.gen_range(0..4usize)];
                Query::GroupBy {
                    table: t(),
                    key: col(rng),
                    val: col(rng),
                    agg,
                }
            }
            6 => {
                let threshold = [0, u64::MAX][rng.gen_range(0..2usize)];
                Query::Having {
                    table: t(),
                    key: col(rng),
                    val: col(rng),
                    threshold,
                }
            }
            _ => {
                // A self-join, a join on a non-key column, or t ⋈ s on k.
                let sides = [
                    ("t", col(rng)),
                    ("s", "x".to_string()),
                    ("s", "k".to_string()),
                ];
                let (right, right_col) = sides[rng.gen_range(0..3usize)].clone();
                Query::Join {
                    left: t(),
                    right: right.into(),
                    left_col: col(rng),
                    right_col,
                }
            }
        }
    }

    /// A formula over `atoms` atoms, nesting `And`/`Or` at most `depth`
    /// deep around literals and constants.
    fn grammar_formula(rng: &mut StdRng, atoms: usize, depth: usize) -> Formula {
        match rng.gen_range(0..if depth == 0 { 4u8 } else { 6 }) {
            0 => Formula::True,
            1 => Formula::False,
            2 if atoms > 0 => Formula::Atom(rng.gen_range(0..atoms)),
            3 if atoms > 0 => Formula::NotAtom(rng.gen_range(0..atoms)),
            2 | 3 => Formula::True,
            nest => {
                let terms = (0..rng.gen_range(1..4usize))
                    .map(|_| grammar_formula(rng, atoms, depth - 1))
                    .collect();
                if nest == 4 {
                    Formula::And(terms)
                } else {
                    Formula::Or(terms)
                }
            }
        }
    }
}
