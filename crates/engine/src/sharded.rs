//! Sharded multi-switch execution behind the [`Executor`] seam.
//!
//! The paper scales past one switch by partitioning data across workers
//! that each run the same pruning program, with a master-side combine
//! (§7–§8's Spark integration; §9's switch trees). This module is that
//! design at engine scale: [`ShardedExecutor`] splits a query's entry
//! stream into `N` shard-local [`LanePartition`] views — zero-copy range
//! splits by default ([`crate::stream::split_range`]); for the
//! key-partitioned shapes the lanes of **one hash partition a query**
//! ([`crate::stream::hash_partition`]: each key hashed once, every shard
//! fed from the same pass, before any shard starts) — and runs each shard
//! as an independent persistent-pool + watermark pipeline, reusing
//! [`crate::threaded::run_phases_each`] verbatim per shard.
//!
//! What a single switch gets for free, a shard set must *combine* — and
//! the combine used to be a wall: a barrier on every shard, then one
//! serial master loop over all shard state. It is now a **streaming
//! binomial reduction** (`sharded_tree`): shards form a reduction
//! tree, every node merges child state *as it arrives* (overlapping
//! shards still streaming), and the per-shape merges are the associative
//! operators the shapes already had:
//!
//! * **Top-N** — bounded sorted merge of per-shard candidate lists
//!   (every global winner is a shard winner);
//! * **GROUP BY SUM/COUNT** — keys are hash-partitioned across shards
//!   (`sum_shard`, shared with the distributed arm), so register
//!   partials re-aggregate pairwise through
//!   [`crate::multipass::ShardSums::merge`], merge-time evictions riding
//!   the overflow exactly like §6's packet-riding evictions;
//! * **DistinctMulti** — fingerprint-union over flat per-shard tuple
//!   lanes (one buffer per shard, no per-row allocation);
//! * **JOIN** — **partition-local pairing**: both sides are
//!   hash-sharded by join key with one salt, so every occurrence of a
//!   key co-locates on one shard and each shard runs its *own* complete
//!   two-phase build/probe flow — its filters sized from the rows of
//!   its partition — and its own pairing (`join_shard`). The
//!   reduction then just sums the commutative pair counts and checksums:
//!   no global pairing and no cross-shard filter broadcast.
//!   Lopsided tables take the §4.3 asymmetric flow inside each shard;
//! * **HAVING** — per-shard Count-Min sketches tree-merge cell-wise
//!   ([`cheetah_core::having::HavingPruner::merge`]) **before** any
//!   shard runs pass 2, so candidates reflect global key mass (a key
//!   whose sum straddles shards is never lost);
//! * **Skyline** — each shard reduces its forwarded superset to its
//!   local frontier before merging (a global skyline point dominates
//!   within its shard too, so nothing exact is lost).
//!
//! Reports carry one measured switch span per shard per pass in
//! [`ExecutionReport::pass_walls`] (shard-major within each pass), the
//! per-node merge spans in [`ExecutionReport::merge_walls`], and the
//! serial master tail (result canonicalization after the reduction
//! root yields) in [`ExecutionReport::combine_wall`]. Shard count comes
//! from [`ShardedExecutor::with_shards`] or, Cuttlefish style, from a
//! sampled cost race over the {1, 2, 4, 8} grid that includes the
//! measured merge cost ([`ShardedExecutor::with_adaptive_shards`]).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use cheetah_core::decision::PruneStats;
use cheetah_core::groupby::{Extremum, GroupBySumPruner};
use cheetah_core::having::HavingPruner;

use crate::backend;
use crate::backend::JoinFlow;
use crate::cheetah::{tuple_fingerprinter, CheetahExecutor, PrunerConfig};
use crate::executor::{ExecutionReport, Executor};
use crate::master::{
    fetch_and_checksum, join_sink, join_survivors, GroupRun, GroupSink, JoinSides, TupleRun,
};
use crate::multipass::{
    AsymJoinPhases, GroupBySumStage, HavingShardProbe, HavingShardSketch, JoinPhases, ShardSums,
    SIDE_LEFT, SIDE_RIGHT,
};
use crate::query::{Agg, Query, QueryResult};
use crate::reference::skyline_of;
use crate::stream::{hash_partition, split_range, HashPartition};
use crate::table::{Database, Table};
use crate::threaded::{
    credit_worker_spawns, run_phases_each, worker_threads_spawned, Lane, LanePartition, PhaseInput,
    PrunerStage, SurvivorBlock, SwitchPhases,
};

/// Salt for the hash-shard row assignment, so the shard hash is
/// independent of the switch structures' hashes at the same seed.
const SHARD_SALT: u64 = 0x5a4d_0c4e;

pub use crate::plan::{SHARD_GRID, SHARD_SETUP_S};

/// The sharded multi-switch executor: `N` independent pool + watermark
/// pipelines over shard-local partition views, merged by a streaming
/// per-shape reduction tree. Result-equivalent to every other executor
/// (`Q(A_Q(D)) = Q(D)` holds per shard, and the associative merges
/// preserve it across shards), with measured per-shard pass spans,
/// per-node merge spans and the serial combine tail in its reports.
#[derive(Debug, Clone)]
pub struct ShardedExecutor {
    /// Configuration shared with the deterministic executor (per-shard
    /// switch dimensions, worker count per shard pool, cost model).
    pub inner: CheetahExecutor,
    shards: usize,
    adaptive: bool,
}

impl ShardedExecutor {
    /// A sharded executor with a fixed shard count.
    pub fn with_shards(inner: CheetahExecutor, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardedExecutor {
            inner,
            shards,
            adaptive: false,
        }
    }

    /// Cuttlefish-style shard-count tuning: race the {1, 2, 4, 8} grid
    /// on a per-arm completion estimate built from two measurements —
    /// the sampled-throughput primitive behind
    /// [`CheetahExecutor::adaptive_workers`] for the switch wall, and a
    /// timed representative merge of the query shape's combine state for
    /// the reduction cost. Short streams stay on one shard (spin-up
    /// would dominate), long streams split across switches, and shapes
    /// with expensive merges are charged `log2(n)` tree stages for them.
    pub fn with_adaptive_shards(inner: CheetahExecutor) -> Self {
        ShardedExecutor {
            inner,
            shards: 1,
            adaptive: true,
        }
    }

    /// The fixed shard count (ignored when adaptive).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Whether this executor tunes its shard count per query.
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// The shard count this executor will run `query` with: the fixed
    /// count, or the adaptive pick — the grid arm minimizing
    /// `switch_wall / min(n, cores) + merge_cost × log2(n) + setup × (n − 1)`,
    /// with both the switch wall and the merge cost measured, not
    /// modeled. The adaptive path delegates to the planner's shared
    /// [`crate::plan::PlanContext`], so the stream is probed exactly
    /// once per query whichever grid asks.
    pub fn planned_shards(&self, db: &Database, query: &Query) -> usize {
        if !self.adaptive {
            return self.shards;
        }
        crate::plan::PlanContext::probe(&self.inner, db, query).planned_shards()
    }
}

/// Time one representative merge of the query shape's combine state —
/// the per-stage cost the reduction tree pays per level. Shapes whose
/// merge is a buffer append or an integer sum (partition-local JOIN,
/// the range shapes) are effectively free per stage.
pub(crate) fn sampled_merge_cost(cfg: &PrunerConfig, query: &Query) -> f64 {
    match query {
        Query::GroupBy {
            agg: Agg::Sum | Agg::Count,
            ..
        } => {
            // Two full register matrices, disjoint-ish keys: the
            // worst-case re-aggregation a tree stage can see.
            let mut a = ShardSums::new(cfg.groupby_d, cfg.groupby_w, cfg.seed);
            let mut b = ShardSums::new(cfg.groupby_d, cfg.groupby_w, cfg.seed);
            for i in 0..(cfg.groupby_d * cfg.groupby_w) as u64 {
                a.absorb(i, 1);
                b.absorb(i ^ 0x5555, 1);
            }
            let t0 = Instant::now();
            a.merge(b);
            t0.elapsed().as_secs_f64()
        }
        Query::Having { threshold, .. } => {
            let mut a = HavingPruner::new(cfg.having_d, cfg.having_w, *threshold, cfg.seed);
            let b = HavingPruner::new(cfg.having_d, cfg.having_w, *threshold, cfg.seed);
            let t0 = Instant::now();
            a.merge(&b);
            t0.elapsed().as_secs_f64()
        }
        Query::TopN { n, .. } => {
            let mut a: Vec<u64> = (0..*n as u64).rev().collect();
            let b: Vec<u64> = (0..*n as u64).rev().collect();
            let t0 = Instant::now();
            merge_top(&mut a, b, *n);
            t0.elapsed().as_secs_f64()
        }
        _ => 0.0,
    }
}

impl Executor for ShardedExecutor {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn execute(&self, db: &Database, query: &Query) -> ExecutionReport {
        let mut report = self.execute_sharded(db, query);
        report.executor = self.name();
        report
    }
}

/// What one shard's pipeline yields before entering the reduction tree:
/// the mergeable value plus the shard's measured per-phase telemetry.
pub(crate) struct ShardYield<R> {
    pub(crate) value: R,
    pub(crate) phase_stats: Vec<PruneStats>,
    pub(crate) phase_walls: Vec<Duration>,
}

impl<R> ShardYield<R> {
    /// The same telemetry around `f(value)` — how the distributed arm
    /// turns a shared shard body's value into its wire form.
    pub(crate) fn map<T>(self, f: impl FnOnce(R) -> T) -> ShardYield<T> {
        ShardYield {
            value: f(self.value),
            phase_stats: self.phase_stats,
            phase_walls: self.phase_walls,
        }
    }
}

/// One message up the reduction tree: a node's value with every merged
/// descendant's telemetry folded in.
struct TreePacket<R> {
    value: R,
    /// Per-phase pruning stats, summed over every shard merged so far.
    phase_stats: Vec<PruneStats>,
    /// `(phase, shard, span)` switch spans of every merged shard.
    walls: Vec<(usize, usize, Duration)>,
    /// `(node, span)` time each tree node spent merging child values.
    merge_spans: Vec<(usize, Duration)>,
}

/// The root's view of a completed tree reduction.
struct TreeOutcome<R> {
    value: R,
    /// Per-phase stats, each summed over every shard.
    stats: Vec<PruneStats>,
    /// Switch spans, shard-major within each pass.
    pass_walls: Vec<Duration>,
    /// Per-node merge spans, ascending node index (leaf nodes absent).
    merge_walls: Vec<Duration>,
}

impl<R> TreeOutcome<R> {
    /// All phases' stats folded into one total.
    fn stats_total(&self) -> PruneStats {
        let mut total = PruneStats::default();
        for s in &self.stats {
            total.merge(*s);
        }
        total
    }
}

/// Lowest set bit of `s` — the binomial tree's parent/child geometry.
fn lowbit(s: usize) -> usize {
    s & s.wrapping_neg()
}

/// Run `node(shard)` on one thread per shard and **stream the merges**:
/// shard `s` sends its finished value to parent `s − lowbit(s)`, and
/// every parent merges each child packet *as it arrives* (children
/// `s + 1, s + 2, s + 4, …` — a binomial tree, so merges parallelize
/// across nodes and overlap shards still streaming; no global barrier
/// ever forms). `merge` must be associative and commutative over shard
/// order, which every per-shape combine here is (canonicalized results,
/// wrapping-sum checksums, cell-wise sketch sums, register
/// re-aggregation). Worker spawns observed on the node threads are
/// credited back to the calling thread's counter so the per-query spawn
/// contract stays testable.
fn sharded_tree<R, Node, Merge>(shards: usize, node: Node, merge: Merge) -> TreeOutcome<R>
where
    R: Send,
    Node: Fn(usize) -> ShardYield<R> + Sync,
    Merge: Fn(&mut R, R) + Sync,
{
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards)
        .map(|_| mpsc::channel::<TreePacket<R>>())
        .unzip();
    let mut packet = std::thread::scope(|scope| {
        let node = &node;
        let merge = &merge;
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(s, rx)| {
                let parent = (s > 0).then(|| txs[s - lowbit(s)].clone());
                scope.spawn(move || {
                    let before = worker_threads_spawned();
                    let yielded = node(s);
                    let mut packet = TreePacket {
                        value: yielded.value,
                        phase_stats: yielded.phase_stats,
                        walls: yielded
                            .phase_walls
                            .into_iter()
                            .enumerate()
                            .map(|(p, w)| (p, s, w))
                            .collect(),
                        merge_spans: Vec::new(),
                    };
                    // Children of s: offsets 1, 2, 4, … strictly below
                    // lowbit(s) (every power of two for the root),
                    // clipped to the shard count.
                    let mut children = 0usize;
                    let mut step = 1usize;
                    while (s == 0 || step < lowbit(s)) && s + step < shards {
                        children += 1;
                        step <<= 1;
                    }
                    let mut merged_here = Duration::ZERO;
                    for _ in 0..children {
                        let child = rx.recv().expect("child shard sends exactly once");
                        let t0 = Instant::now();
                        merge(&mut packet.value, child.value);
                        merged_here += t0.elapsed();
                        for (mine, theirs) in packet.phase_stats.iter_mut().zip(child.phase_stats) {
                            mine.merge(theirs);
                        }
                        packet.walls.extend(child.walls);
                        packet.merge_spans.extend(child.merge_spans);
                    }
                    if children > 0 {
                        packet.merge_spans.push((s, merged_here));
                    }
                    let spawned = worker_threads_spawned() - before;
                    match parent {
                        Some(tx) => {
                            tx.send(packet).expect("parent node outlives its children");
                            (None, spawned)
                        }
                        None => (Some(packet), spawned),
                    }
                })
            })
            .collect();
        let mut spawned = 0;
        let mut root = None;
        for h in handles {
            let (p, s) = h.join().expect("shard pipeline panicked");
            spawned += s;
            root = root.or(p);
        }
        credit_worker_spawns(spawned);
        root.expect("node 0 holds the reduced value")
    });
    packet.walls.sort_unstable_by_key(|&(p, s, _)| (p, s));
    packet.merge_spans.sort_unstable_by_key(|&(n, _)| n);
    TreeOutcome {
        value: packet.value,
        stats: packet.phase_stats,
        pass_walls: packet.walls.into_iter().map(|(_, _, w)| w).collect(),
        merge_walls: packet.merge_spans.into_iter().map(|(_, w)| w).collect(),
    }
}

/// Run one shard's whole multi-phase pipeline (pool workers + switch
/// thread via [`run_phases_each`]) and shape its output for the tree:
/// `sink` streams survivor blocks into the accumulator, `finish` turns
/// program + accumulator into the shard's mergeable value.
pub(crate) fn run_shard<'env, P, T, R, Sink, Fin>(
    inputs: Vec<PhaseInput<'env>>,
    mut program: P,
    mut acc: T,
    mut sink: Sink,
    finish: Fin,
) -> ShardYield<R>
where
    P: SwitchPhases,
    Sink: FnMut(&mut T, usize, SurvivorBlock<'env>),
    Fin: FnOnce(P, T) -> R,
{
    let runs = run_phases_each(inputs, &mut program, |phase, _, block| {
        sink(&mut acc, phase, block)
    });
    ShardYield {
        value: finish(program, acc),
        phase_stats: runs.iter().map(|r| r.stats).collect(),
        phase_walls: runs.iter().map(|r| r.wall).collect(),
    }
}

/// This shard's slice `[s, e)` of a table as `workers` zero-copy lane
/// partitions (borrowed column slices, optional global row-id lane).
pub(crate) fn range_parts<'a>(
    t: &'a Table,
    cols: &[usize],
    range: (usize, usize),
    workers: usize,
    with_rids: bool,
) -> Vec<LanePartition<'a>> {
    split_range(range.0, range.1, workers)
        .into_iter()
        .map(|(s, e)| {
            let mut lanes: Vec<Lane<'a>> = cols
                .iter()
                .map(|&c| Lane::Slice(&t.col_at(c)[s..e]))
                .collect();
            if with_rids {
                lanes.push(Lane::Iota(s as u64));
            }
            LanePartition { rows: e - s, lanes }
        })
        .collect()
}

/// One join side's partitions on one shard: §7.2 flow-id tag, key lane
/// and, when asked for, global row ids — the side's partitioned row-id
/// lane, or (`None`: the key lane is the table's own) its positions.
fn join_side_parts<'a>(
    tag: u64,
    keys: &'a [u64],
    rids: Option<&'a [u64]>,
    workers: usize,
    with_rids: bool,
) -> Vec<LanePartition<'a>> {
    split_range(0, keys.len(), workers)
        .into_iter()
        .map(|(s, e)| {
            let mut lanes = vec![Lane::Const(tag), Lane::Slice(&keys[s..e])];
            if with_rids {
                lanes.push(rids.map_or(Lane::Iota(s as u64), |r| Lane::Slice(&r[s..e])));
            }
            LanePartition { rows: e - s, lanes }
        })
        .collect()
}

/// `cols` hash-partitioned by their first lane across `shards`, under the
/// one salt every hash-sharded shape shares — computed **once per query**,
/// before the shards start; a shard (and a re-dispatched shard) borrows
/// its lanes. `None` on a single shard, which streams the table where it
/// lies.
pub(crate) fn key_partition(
    cfg: &PrunerConfig,
    cols: &[&[u64]],
    shards: usize,
    with_rids: bool,
) -> Option<HashPartition> {
    (shards > 1).then(|| hash_partition(cols, 0, shards, cfg.seed ^ SHARD_SALT, with_rids))
}

/// One shard's whole JOIN, as the sharded and the distributed executor
/// both run it, over the shard's lanes of the two sides' key partitions
/// (`None`: a single shard streams the tables where they lie): size the
/// flow from the shard's rows, stream the §4.3 asymmetric
/// build-while-forwarding flow (`asymmetric`, decided on *global* sizes so
/// every shard agrees) or the symmetric build-then-probe flow, and pair
/// the survivors locally — on the shard's own thread, overlapping other
/// shards' streams.
pub(crate) fn join_shard(
    cfg: &PrunerConfig,
    (l, lc): (&Table, usize),
    (r, rc): (&Table, usize),
    asymmetric: bool,
    lanes: Option<[&[Vec<u64>]; 2]>,
    workers: usize,
) -> ShardYield<(u64, u64)> {
    // A side is (tag, keys, row ids): its `[keys, rids]` partition lanes,
    // or the table's own key lane under positional ids.
    let (lk, lr, rk, rr) = match lanes {
        Some([lp, rp]) => (&lp[0][..], Some(&lp[1][..]), &rp[0][..], Some(&rp[1][..])),
        None => (l.col_at(lc), None, r.col_at(rc), None),
    };
    let (left, right) = ((SIDE_LEFT, lk, lr), (SIDE_RIGHT, rk, rr));
    let flow = JoinFlow::sized(cfg, left.1.len(), right.1.len());
    let inputs: Vec<PhaseInput<'_>> = if asymmetric {
        // Phase 0 streams the small side once, unpruned, building its
        // filter; phase 1 probes the big side.
        let (small, big) = if l.rows() <= r.rows() {
            (left, right)
        } else {
            (right, left)
        };
        [small, big]
            .into_iter()
            .map(|(tag, keys, rids)| PhaseInput {
                partitions: join_side_parts(tag, keys, rids, workers, true),
                visible_cols: 2,
            })
            .collect()
    } else {
        // Both sides build in phase 0 (row ids not needed), both probe
        // in phase 1.
        (0..2)
            .map(|phase| PhaseInput {
                partitions: [left, right]
                    .into_iter()
                    .flat_map(|(tag, keys, rids)| {
                        join_side_parts(tag, keys, rids, workers, phase == 1)
                    })
                    .collect(),
                visible_cols: 2,
            })
            .collect()
    };
    let acc = JoinSides::default();
    if asymmetric {
        run_shard(
            inputs,
            AsymJoinPhases::new(flow),
            acc,
            |a, _, block| join_sink(a, block),
            |_, (lf, rf)| join_survivors(lf, rf),
        )
    } else {
        run_shard(
            inputs,
            JoinPhases::new(flow),
            acc,
            |a, _, block| join_sink(a, block),
            |_, (lf, rf)| join_survivors(lf, rf),
        )
    }
}

/// One shard's whole GROUP BY SUM/COUNT, as the sharded and the
/// distributed executor both run it (they differ in `stage`: the bare §6
/// register stage, or the one that drains before a scripted reboot).
/// `lanes` is the shard's key lane and, for SUM, its value lane — COUNT's
/// ones are synthesized by the workers.
pub(crate) fn sum_shard<P: SwitchPhases>(
    cfg: &PrunerConfig,
    lanes: &[impl AsRef<[u64]>],
    stage: P,
    workers: usize,
) -> ShardYield<ShardSums> {
    let keys = lanes[0].as_ref();
    let vals = lanes.get(1).map(AsRef::as_ref);
    let partitions = split_range(0, keys.len(), workers)
        .into_iter()
        .map(|(a, b)| LanePartition {
            rows: b - a,
            lanes: vec![
                Lane::Slice(&keys[a..b]),
                vals.map_or(Lane::Const(1), |vals| Lane::Slice(&vals[a..b])),
            ],
        })
        .collect();
    run_shard(
        vec![PhaseInput {
            partitions,
            visible_cols: 2,
        }],
        stage,
        (
            ShardSums::new(cfg.groupby_d, cfg.groupby_w, cfg.seed),
            Vec::<(u64, u64)>::new(),
        ),
        // Forwarded entries carry evicted (key, partial) pairs; the FIN
        // drain — a rebooted shard's pre-reboot drain included — arrives
        // the same way.
        |acc, _, block| {
            let (sums, scratch) = acc;
            scratch.clear();
            block.extend_pairs_into(0, 1, scratch);
            for &(k, p) in scratch.iter() {
                sums.absorb(k, p);
            }
        },
        |_, (sums, _)| sums,
    )
}

/// Merge two descending candidate lists, keeping the global top `n` —
/// the associative Top-N reduce.
pub(crate) fn merge_top(a: &mut Vec<u64>, b: Vec<u64>, n: usize) {
    let mut merged = Vec::with_capacity(n.min(a.len() + b.len()));
    let (mut i, mut j) = (0, 0);
    while merged.len() < n {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x >= y {
                    merged.push(x);
                    i += 1;
                } else {
                    merged.push(y);
                    j += 1;
                }
            }
            (Some(&x), None) => {
                merged.push(x);
                i += 1;
            }
            (None, Some(&y)) => {
                merged.push(y);
                j += 1;
            }
            (None, None) => break,
        }
    }
    *a = merged;
}

impl ShardedExecutor {
    /// Run the query across `planned_shards` independent shard pipelines
    /// and tree-reduce. Total over every [`Query`] shape; the returned
    /// report carries the measured whole-query wall, one switch span per
    /// shard per pass, the per-node merge spans, and the serial combine
    /// tail.
    pub fn execute_sharded(&self, db: &Database, query: &Query) -> ExecutionReport {
        let shards = self.planned_shards(db, query);
        let workers = self.inner.model.workers;
        let cfg = &self.inner.config;
        let started = Instant::now();
        let mut report = match query {
            Query::FilterCount { table, predicate } => {
                let t = db.table(table);
                let cols: Vec<usize> = predicate.columns.iter().map(|c| t.col_index(c)).collect();
                let bounds = t.partition_bounds(shards);
                let outcome = sharded_tree(
                    shards,
                    |s| {
                        run_shard(
                            vec![PhaseInput {
                                partitions: range_parts(t, &cols, bounds[s], workers, false),
                                visible_cols: cols.len(),
                            }],
                            PrunerStage::new(backend::filter(cfg, predicate)),
                            0u64,
                            // Master re-checks the full predicate on
                            // survivors.
                            |count, _, block| {
                                block.for_each_row(|row| {
                                    if predicate.eval(row) {
                                        *count += 1;
                                    }
                                });
                            },
                            |_, count| count,
                        )
                    },
                    |a, b| *a += b,
                );
                let stats = outcome.stats_total();
                let combine_t0 = Instant::now();
                let result = QueryResult::Count(outcome.value);
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    0,
                    result,
                    outcome.pass_walls,
                    outcome.merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::Filter { table, predicate } => {
                let t = db.table(table);
                let cols: Vec<usize> = predicate.columns.iter().map(|c| t.col_index(c)).collect();
                let npred = cols.len();
                let proj = query.projection(t, &cfg.fetch);
                let proj = &proj;
                let bounds = t.partition_bounds(shards);
                let outcome = sharded_tree(
                    shards,
                    |s| {
                        run_shard(
                            vec![PhaseInput {
                                partitions: range_parts(t, &cols, bounds[s], workers, true),
                                visible_cols: npred,
                            }],
                            PrunerStage::new(backend::filter(cfg, predicate)),
                            Vec::<u64>::new(),
                            // Rows arrive [pred cols…, rid]; the trailing
                            // row id rode switch-blind.
                            |ids, _, block| {
                                block.for_each_row(|row| {
                                    if predicate.eval(row) {
                                        ids.push(row[npred]);
                                    }
                                });
                            },
                            // §7.1 late materialization runs per shard, in
                            // parallel, before the tree: the checksum fold
                            // is commutative, so shard partials just sum.
                            // Only the projected lanes are gathered.
                            |_, ids| {
                                let checksum = fetch_and_checksum(t, proj.cols(), &ids);
                                (ids, checksum)
                            },
                        )
                    },
                    |a, mut b| {
                        a.0.append(&mut b.0);
                        a.1 = a.1.wrapping_add(b.1);
                    },
                );
                let stats = outcome.stats_total();
                let combine_t0 = Instant::now();
                let (ids, checksum) = outcome.value;
                let fetch = ids.len() as u64;
                let mut report = self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    fetch,
                    QueryResult::row_ids(ids),
                    outcome.pass_walls,
                    outcome.merge_walls,
                    combine_t0.elapsed(),
                );
                report.fetch_checksum = Some(checksum);
                report
            }
            Query::Distinct { table, column } => {
                let t = db.table(table);
                let cols = [t.col_index(column)];
                let bounds = t.partition_bounds(shards);
                let outcome = sharded_tree(
                    shards,
                    |s| {
                        run_shard(
                            vec![PhaseInput {
                                partitions: range_parts(t, &cols, bounds[s], workers, false),
                                visible_cols: 1,
                            }],
                            PrunerStage::new(backend::distinct(cfg)),
                            Vec::<u64>::new(),
                            |values, _, block| block.extend_lane_into(0, values),
                            |_, values| values,
                        )
                    },
                    |a, mut b| a.append(&mut b),
                );
                let stats = outcome.stats_total();
                let combine_t0 = Instant::now();
                let result = QueryResult::values(outcome.value);
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    0,
                    result,
                    outcome.pass_walls,
                    outcome.merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::DistinctMulti { table, columns } => {
                // Fingerprint-union: each shard's workers compute the §5
                // fingerprint lane, each shard's switch dedups its own
                // fingerprints, and each shard canonicalizes (sorts,
                // dedups) its surviving tuples in their flat buffer on its
                // own thread, so the tree merges are linear flat-to-flat
                // merges and the master's serial tail only explodes the
                // root's run — already canonical — into owned tuples.
                let t = db.table(table);
                let cols: Vec<usize> = columns.iter().map(|c| t.col_index(c)).collect();
                let width = cols.len();
                let fp = tuple_fingerprinter(cfg);
                let bounds = t.partition_bounds(shards);
                let outcome = sharded_tree(
                    shards,
                    |s| {
                        let partitions = split_range(bounds[s].0, bounds[s].1, workers)
                            .into_iter()
                            .map(|(ws, we)| {
                                let slices: Vec<&[u64]> =
                                    cols.iter().map(|&c| &t.col_at(c)[ws..we]).collect();
                                let mut lanes = vec![Lane::Fingerprint {
                                    cols: slices.clone(),
                                    fp: &fp,
                                }];
                                lanes.extend(slices.into_iter().map(Lane::Slice));
                                LanePartition {
                                    rows: we - ws,
                                    lanes,
                                }
                            })
                            .collect();
                        run_shard(
                            vec![PhaseInput {
                                partitions,
                                visible_cols: 1,
                            }],
                            PrunerStage::new(backend::distinct(cfg)),
                            Vec::<u64>::new(),
                            |flat, _, block| {
                                block.for_each_row(|row| flat.extend_from_slice(&row[1..]));
                            },
                            |_, flat| TupleRun::canonical(width, flat),
                        )
                    },
                    TupleRun::merge,
                );
                let stats = outcome.stats_total();
                let combine_t0 = Instant::now();
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    0,
                    outcome.value.into_points(),
                    outcome.pass_walls,
                    outcome.merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::TopN { table, order_by, n } => {
                let t = db.table(table);
                let cols = [t.col_index(order_by)];
                let bounds = t.partition_bounds(shards);
                // Each shard's forwarded superset collapses to its local
                // top-n candidate list before entering the tree; merges
                // are bounded sorted merges (every global winner is a
                // shard winner, so nothing can be lost).
                let outcome = sharded_tree(
                    shards,
                    |s| {
                        run_shard(
                            vec![PhaseInput {
                                partitions: range_parts(t, &cols, bounds[s], workers, false),
                                visible_cols: 1,
                            }],
                            PrunerStage::new(backend::topn(cfg, *n)),
                            Vec::<u64>::new(),
                            |values, _, block| block.extend_lane_into(0, values),
                            |_, mut values| {
                                values.sort_unstable_by(|a, b| b.cmp(a));
                                values.truncate(*n);
                                values
                            },
                        )
                    },
                    |a, b| merge_top(a, b, *n),
                );
                let stats = outcome.stats_total();
                let combine_t0 = Instant::now();
                let result = QueryResult::top_values(outcome.value, *n);
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    *n as u64,
                    result,
                    outcome.pass_walls,
                    outcome.merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::GroupBy {
                table,
                key,
                val,
                agg: agg @ (Agg::Max | Agg::Min),
            } => {
                let t = db.table(table);
                let cols = [t.col_index(key), t.col_index(val)];
                let ext = if *agg == Agg::Max {
                    Extremum::Max
                } else {
                    Extremum::Min
                };
                let bounds = t.partition_bounds(shards);
                let outcome = sharded_tree(
                    shards,
                    |s| {
                        run_shard(
                            vec![PhaseInput {
                                partitions: range_parts(t, &cols, bounds[s], workers, false),
                                visible_cols: 2,
                            }],
                            PrunerStage::new(backend::groupby(cfg, ext)),
                            GroupSink::new(*agg),
                            |groups, _, block| {
                                groups.fill(|pairs| block.extend_pairs_into(0, 1, pairs));
                            },
                            |_, groups| groups.finish(),
                        )
                    },
                    GroupRun::merge,
                );
                let stats = outcome.stats_total();
                let combine_t0 = Instant::now();
                let result = QueryResult::Groups(outcome.value.into_groups());
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    0,
                    result,
                    outcome.pass_walls,
                    outcome.merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::GroupBy {
                table,
                key,
                val,
                agg: agg @ (Agg::Sum | Agg::Count),
            } => {
                // Hash-sharded mode (§6 register aggregation): co-locate
                // every occurrence of a key on one shard, so a key's
                // eviction churn never multiplies across shards. The
                // table is partitioned once, before the shards start.
                let t = db.table(table);
                let mut lanes = vec![t.col_at(t.col_index(key))];
                if *agg == Agg::Sum {
                    lanes.push(t.col_at(t.col_index(val)));
                }
                let partition = key_partition(cfg, &lanes, shards, false);
                let outcome = sharded_tree(
                    shards,
                    |s| {
                        let stage = GroupBySumStage::new(GroupBySumPruner::new(
                            cfg.groupby_d,
                            cfg.groupby_w,
                            cfg.seed,
                        ));
                        match &partition {
                            Some(p) => sum_shard(cfg, &p[s], stage, workers),
                            None => sum_shard(cfg, &lanes, stage, workers),
                        }
                    },
                    |a, b| a.merge(b),
                );
                let stats = outcome.stats_total();
                let combine_t0 = Instant::now();
                let totals = outcome.value.into_totals();
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    0,
                    QueryResult::Groups(totals),
                    outcome.pass_walls,
                    outcome.merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::Having {
                table,
                key,
                val,
                threshold,
            } => {
                // Pass 1: shard-local sketches, tree-merged cell-wise as
                // shards finish. Pass 2 must see global key mass, so the
                // merged sketch is broadcast in between.
                let t = db.table(table);
                let cols = [t.col_index(key), t.col_index(val)];
                let bounds = t.partition_bounds(shards);
                let sketches = sharded_tree(
                    shards,
                    |s| {
                        run_shard(
                            vec![PhaseInput {
                                partitions: range_parts(t, &cols, bounds[s], workers, false),
                                visible_cols: 2,
                            }],
                            HavingShardSketch::new(HavingPruner::new(
                                cfg.having_d,
                                cfg.having_w,
                                *threshold,
                                cfg.seed,
                            )),
                            (),
                            // Shard-local announcements are not global
                            // candidates; the merged sketch recomputes
                            // them in pass 2.
                            |(), _, _block| {},
                            |program, ()| program.into_pruner(),
                        )
                    },
                    |a, b| a.merge(&b),
                );
                let mut stats = sketches.stats_total();
                let TreeOutcome {
                    value: merged,
                    pass_walls: mut walls,
                    mut merge_walls,
                    ..
                } = sketches;
                let probes = sharded_tree(
                    shards,
                    |s| {
                        run_shard(
                            vec![PhaseInput {
                                partitions: range_parts(t, &cols, bounds[s], workers, false),
                                visible_cols: 2,
                            }],
                            HavingShardProbe::new(merged.clone()),
                            GroupSink::new(Agg::Sum),
                            |sums, _, block| {
                                sums.fill(|pairs| block.extend_pairs_into(0, 1, pairs));
                            },
                            |_, sums| sums.finish(),
                        )
                    },
                    GroupRun::merge,
                );
                stats.merge(probes.stats_total());
                walls.extend(probes.pass_walls);
                merge_walls.extend(probes.merge_walls);
                let combine_t0 = Instant::now();
                let result = probes.value.keys_above(*threshold);
                self.finish(
                    query,
                    2 * t.rows() as u64,
                    stats,
                    2,
                    0,
                    result,
                    walls,
                    merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::Join {
                left,
                right,
                left_col,
                right_col,
            } => self.execute_join(db, query, left, right, left_col, right_col, shards, workers),
            Query::Skyline { table, columns } => {
                let t = db.table(table);
                let cols: Vec<usize> = columns.iter().map(|c| t.col_index(c)).collect();
                let dims = cols.len();
                let bounds = t.partition_bounds(shards);
                // A global skyline point is dominated by nothing — in
                // particular by nothing in its own shard — so each shard
                // reduces its forwarded superset to its local frontier
                // before merging, and the root re-runs the exact frontier
                // over the (much smaller) union.
                let outcome = sharded_tree(
                    shards,
                    |s| {
                        run_shard(
                            vec![PhaseInput {
                                partitions: range_parts(t, &cols, bounds[s], workers, false),
                                visible_cols: dims,
                            }],
                            PrunerStage::new(backend::skyline(cfg, dims)),
                            Vec::<Vec<u64>>::new(),
                            |points, _, block| {
                                block.for_each_row(|row| points.push(row.to_vec()));
                            },
                            |_, points| skyline_of(&points),
                        )
                    },
                    |a, mut b| a.append(&mut b),
                );
                let stats = outcome.stats_total();
                let combine_t0 = Instant::now();
                let result = QueryResult::points(skyline_of(&outcome.value));
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    0,
                    result,
                    outcome.pass_walls,
                    outcome.merge_walls,
                    combine_t0.elapsed(),
                )
            }
        };
        report.wall = Some(started.elapsed());
        report
    }

    /// Sharded JOIN with **partition-local pairing**: both sides are
    /// hash-sharded by join key under one salt, so every occurrence of a
    /// key (left or right) lands on shard `h(k) mod shards` and pairs
    /// there. Each shard runs [`join_shard`] — its own complete two-phase
    /// flow and its own pairing of its local survivors — and the
    /// reduction sums the commutative pair counts and checksums.
    #[allow(clippy::too_many_arguments)]
    fn execute_join(
        &self,
        db: &Database,
        query: &Query,
        left: &str,
        right: &str,
        left_col: &str,
        right_col: &str,
        shards: usize,
        workers: usize,
    ) -> ExecutionReport {
        let cfg = &self.inner.config;
        let l = db.table(left);
        let r = db.table(right);
        let lc = l.col_index(left_col);
        let rc = r.col_index(right_col);
        let rows = (l.rows() + r.rows()) as u64;
        let asymmetric = 2 * l.rows().min(r.rows()) <= l.rows().max(r.rows());
        // Both sides by join key under one salt: every occurrence of a
        // key, left or right, lands on one shard and pairs there.
        let side = |t: &Table, c| key_partition(cfg, &[t.col_at(c)], shards, true);
        let sides = side(l, lc).zip(side(r, rc));
        let outcome = sharded_tree(
            shards,
            |s| {
                let lanes = sides.as_ref().map(|(lp, rp)| [&lp[s][..], &rp[s][..]]);
                join_shard(cfg, (l, lc), (r, rc), asymmetric, lanes, workers)
            },
            |a, b| {
                a.0 += b.0;
                a.1 = a.1.wrapping_add(b.1);
            },
        );
        // Symmetric: build-pass decisions are not probe decisions, so
        // only the probe pass counts (as on the other executors).
        // Asymmetric: both single-stream passes make real decisions —
        // together they decide each entry exactly once.
        let stats = if asymmetric {
            outcome.stats_total()
        } else {
            outcome.stats[1]
        };
        let streamed = if asymmetric { rows } else { 2 * rows };
        let combine_t0 = Instant::now();
        let (pairs, checksum) = outcome.value;
        self.finish(
            query,
            streamed,
            stats,
            2,
            pairs,
            QueryResult::JoinSummary { pairs, checksum },
            outcome.pass_walls,
            outcome.merge_walls,
            combine_t0.elapsed(),
        )
    }

    /// Assemble the sharded report: the shared cost-model pricing plus
    /// the per-shard pass spans, the per-node merge spans, and the
    /// serial combine tail.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        query: &Query,
        streamed_rows: u64,
        stats: PruneStats,
        passes: u32,
        fetch_rows: u64,
        result: QueryResult,
        pass_walls: Vec<Duration>,
        merge_walls: Vec<Duration>,
        combine_wall: Duration,
    ) -> ExecutionReport {
        let mut report = self
            .inner
            .report(query, streamed_rows, stats, passes, fetch_rows, result);
        report.pass_walls = pass_walls;
        report.combine_wall = Some(combine_wall);
        report.merge_walls = merge_walls;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheetah::PrunerConfig;
    use crate::cost::CostModel;
    use crate::reference;
    use crate::table::Table;

    fn db() -> Database {
        let mut db = Database::new();
        db.add(Table::new(
            "t",
            vec![
                ("k", (0..6_000u64).map(|i| i * 7 % 83 + 1).collect()),
                ("v", (0..6_000u64).map(|i| i * 31 % 9_973).collect()),
            ],
        ));
        db.add(Table::new(
            "s",
            vec![
                ("k", (0..2_000u64).map(|i| i * 11 % 140 + 40).collect()),
                ("x", (0..2_000u64).map(|i| i * 3 % 97).collect()),
            ],
        ));
        db
    }

    fn exec(shards: usize) -> ShardedExecutor {
        ShardedExecutor::with_shards(
            CheetahExecutor::new(CostModel::default(), PrunerConfig::default()),
            shards,
        )
    }

    #[test]
    fn sharded_matches_reference_on_representative_shapes() {
        let db = db();
        let queries = [
            Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            },
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Sum,
            },
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: 300_000,
            },
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
        ];
        for shards in [1usize, 3] {
            let e = exec(shards);
            for q in &queries {
                let truth = reference::evaluate(&db, q);
                let r = Executor::execute(&e, &db, q);
                assert_eq!(r.result, truth, "{} diverged at {shards} shards", q.kind());
                assert_eq!(r.executor, "sharded");
                assert!(r.wall.is_some(), "sharded runs measure wall clock");
                assert!(r.combine_wall.is_some(), "combine span is measured");
                assert_eq!(
                    r.pass_walls.len(),
                    shards * r.passes as usize,
                    "{}: one switch span per shard per pass",
                    q.kind()
                );
                if shards > 1 {
                    assert!(
                        !r.merge_walls.is_empty(),
                        "{}: multi-shard runs measure tree merges",
                        q.kind()
                    );
                }
            }
        }
    }

    /// Each shard of a hash-sharded shape streams exactly its lanes of
    /// the query's one partition — every pass's `processed` is the
    /// shard's partition size — and the shards together tile the tables.
    #[test]
    fn hash_sharded_shards_process_exactly_their_partition() {
        let db = db();
        let cfg = PrunerConfig::default();
        let (t, s) = (db.table("t"), db.table("s"));
        let processed =
            |stats: &[PruneStats]| -> Vec<u64> { stats.iter().map(|p| p.processed).collect() };
        for shards in [2usize, 3, 5] {
            let lanes = [t.col_at(0), t.col_at(1)];
            let partition = key_partition(&cfg, &lanes, shards, false).expect("sharded");
            let mut total = 0;
            for (shard, lanes) in partition.iter().enumerate() {
                let stage = GroupBySumStage::new(GroupBySumPruner::new(16, 2, cfg.seed));
                let y = sum_shard(&cfg, lanes, stage, 2);
                let rows = lanes[0].len() as u64;
                assert_eq!(
                    processed(&y.phase_stats),
                    [rows],
                    "sum shard {shard}/{shards}"
                );
                total += rows;
            }
            assert_eq!(total, t.rows() as u64);

            // 6,000 ⋈ 2,000 rows: the asymmetric flow streams the small
            // (right) side in phase 0 and the big side in phase 1; the
            // symmetric flow streams both sides in both.
            let side = |t: &Table| key_partition(&cfg, &[t.col_at(0)], shards, true);
            let (lp, rp) = side(t).zip(side(s)).expect("sharded");
            let mut total = [0; 2];
            for shard in 0..shards {
                let sides = [&lp[shard][..], &rp[shard][..]];
                let [l, r] = sides.map(|lanes| lanes[0].len() as u64);
                let asym = join_shard(&cfg, (t, 0), (s, 0), true, Some(sides), 2);
                assert_eq!(
                    processed(&asym.phase_stats),
                    [r, l],
                    "join shard {shard}/{shards}"
                );
                let sym = join_shard(&cfg, (t, 0), (s, 0), false, Some(sides), 2);
                assert_eq!(
                    processed(&sym.phase_stats),
                    [l + r, l + r],
                    "join shard {shard}/{shards}"
                );
                total = [total[0] + l, total[1] + r];
            }
            assert_eq!(total, [t.rows() as u64, s.rows() as u64]);
        }
    }

    #[test]
    fn tree_reduce_visits_every_shard_once() {
        for shards in 1..=9usize {
            let outcome = sharded_tree(
                shards,
                |s| ShardYield {
                    value: vec![s],
                    phase_stats: vec![PruneStats::default()],
                    phase_walls: vec![Duration::ZERO],
                },
                |a, mut b| a.append(&mut b),
            );
            let mut seen = outcome.value;
            seen.sort_unstable();
            assert_eq!(seen, (0..shards).collect::<Vec<_>>());
            assert_eq!(outcome.pass_walls.len(), shards);
            if shards > 1 {
                assert!(
                    !outcome.merge_walls.is_empty(),
                    "merging nodes report spans"
                );
            } else {
                assert!(outcome.merge_walls.is_empty());
            }
        }
    }

    #[test]
    fn more_shards_than_rows_still_completes() {
        let mut tiny = Database::new();
        tiny.add(Table::new("t", vec![("k", vec![3, 3, 9])]));
        let e = exec(8);
        let q = Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        };
        let r = Executor::execute(&e, &tiny, &q);
        assert_eq!(r.result, QueryResult::Values(vec![3, 9]));
        assert_eq!(r.pass_walls.len(), 8, "empty shards still report spans");
    }

    #[test]
    fn adaptive_shards_stay_on_grid() {
        let db = db();
        let e = ShardedExecutor::with_adaptive_shards(CheetahExecutor::new(
            CostModel::default(),
            PrunerConfig::default(),
        ));
        assert!(e.is_adaptive());
        assert!(!exec(2).is_adaptive());
        let q = Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        };
        let picked = e.planned_shards(&db, &q);
        assert!(
            SHARD_GRID.contains(&picked),
            "off-grid shard count {picked}"
        );
        assert_eq!(
            Executor::execute(&e, &db, &q).result,
            reference::evaluate(&db, &q)
        );
    }
}
