//! Sharded multi-switch execution behind the [`Executor`] seam: one shard
//! program per dataflow, run over one of two transports.
//!
//! The paper scales past one switch by partitioning data across workers
//! that each run the same pruning program, with a master-side combine
//! (§7–§8's Spark integration; §9's switch trees). The deployment decides
//! only how the partial results travel, so this module writes the program
//! once and the travel twice:
//!
//! * A `ShardProgram` is one dataflow's shard body (phase inputs →
//!   switch stage → master sink → partial, canonical before it leaves the
//!   shard), the associative `merge` of two partials, their wire form
//!   (`encode` / `decode` over [`ShardOutput`], typed errors instead of
//!   panics) and the `root` that turns the merged partial into the
//!   answer. Each bound `bind::Program` runs one, `SinglePassProgram`'s
//!   sink, partial, merge and root being the deterministic arm's own
//!   (`cheetah::Completion` → `cheetah::Partial`); a two-pass HAVING runs
//!   two joined by the merged-sketch broadcast. Shards stream shard-local
//!   [`LanePartition`] views: zero-copy range splits
//!   ([`crate::stream::split_range`]), or, for the key-partitioned shapes
//!   (JOIN, GROUP BY SUM/COUNT), the lanes of **one hash partition a
//!   query** ([`crate::stream::hash_partition`]: each key hashed once,
//!   before any shard starts).
//! * A `Transport` runs every shard of a program and reduces the
//!   partials, lending the shard bodies their stages (`Site`).
//!   `InProcess` ([`ShardedExecutor`]) runs one thread per shard on the
//!   plain stages and merges through a **streaming binomial reduction**
//!   (`sharded_tree`): every node merges child partials as they arrive,
//!   overlapping shards still streaming. `Unpruned` ([`crate::spark`]) is
//!   the same with the switch turned off: every stage forwards every
//!   entry. The wire transport ([`crate::distributed`]) runs
//!   reboot-injecting stages, ships each encoded partial over the §7.2
//!   protocol and folds the decoded ones in completion order.
//!
//! The threaded executor is the same programs over `InProcess(1)`: one
//! shard, no merge.
//!
//! Reports carry one measured switch span per shard per pass in
//! [`ExecutionReport::pass_walls`] (shard-major within each pass), the
//! merge spans in [`ExecutionReport::merge_walls`], and the serial root
//! (the answer made of the last merge's partial) in
//! [`ExecutionReport::combine_wall`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cheetah_core::decision::{Decision, PruneStats, RowPruner};
use cheetah_core::fingerprint::Fingerprinter;
use cheetah_core::having::{CountMinSketch, HavingPruner};

use crate::backend::{JoinFilters, JoinFlow, Keys, Matrix};
use crate::bind::{Bound, Program};
use crate::cheetah::{
    frontier, single_pass_pruner, tuple_fingerprinter, Answer, CheetahExecutor, Completion,
    Partial, PrunerConfig,
};
use crate::distributed::{verified_rows, CodecError, ShardOutput};
use crate::executor::{ExecutionReport, Executor};
use crate::master::{join_sink, join_survivors, GroupRun, GroupSink, JoinSides, TupleRun};
use crate::multipass::{
    GroupBySumStage, HavingShardProbe, HavingShardSketch, JoinPhases, SIDE_LEFT, SIDE_RIGHT,
};
use crate::query::{Agg, Projection, Query, QueryResult};
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
}

impl ShardedExecutor {
    /// A sharded executor with a fixed shard count.
    pub fn with_shards(inner: CheetahExecutor, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardedExecutor { inner, shards }
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Run the query's shard program(s) on the in-process transport. Total
    /// over every [`Query`] shape; the returned report carries the
    /// measured whole-query wall, one switch span per shard per pass, the
    /// per-node merge spans, and the serial combine tail.
    pub fn execute_sharded(&self, db: &Database, query: &Query) -> ExecutionReport {
        let b = query.bind_or_panic(db, &self.inner.config);
        report_on(&self.inner, &mut InProcess(self.shards), &b)
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

/// One message up the reduction tree: a node's value with every merged
/// descendant's telemetry folded in.
struct TreePacket<R> {
    /// The tree node that sent it.
    node: usize,
    value: R,
    /// Per-phase pruning stats, summed over every shard merged so far.
    phase_stats: Vec<PruneStats>,
    /// `(phase, shard, span)` switch spans of every merged shard.
    walls: Vec<(usize, usize, Duration)>,
    /// `(node, span)` time each tree node spent merging child values.
    merge_spans: Vec<(usize, Duration)>,
}

/// Every shard of a program run and reduced to one partial, whichever
/// transport carried it.
pub(crate) struct Reduced<R> {
    pub(crate) value: R,
    /// Per-phase stats, each summed over every shard.
    pub(crate) phase_stats: Vec<PruneStats>,
    /// Switch spans, shard-major within each pass.
    pub(crate) pass_walls: Vec<Duration>,
    /// Merge spans: per tree node (ascending node index, leaves absent)
    /// in process, per fold step on the wire.
    pub(crate) merge_walls: Vec<Duration>,
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
/// wrapping-sum checksums, cell-wise sketch sums, sorted-run merges).
/// Worker spawns observed on the node threads are credited back to the
/// calling thread's counter so the per-query spawn contract stays
/// testable. A node that panics fails the tree rather than hanging it:
/// its parent panics naming it, and the node's own panic is re-raised.
fn sharded_tree<R, Node, Merge>(shards: usize, node: Node, merge: Merge) -> Reduced<R>
where
    R: Send,
    Node: Fn(usize) -> ShardYield<R> + Sync,
    Merge: Fn(&mut R, R) + Sync,
{
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards)
        .map(|_| mpsc::channel::<TreePacket<R>>())
        .unzip();
    // Each child holds the only senders to its parent, so a child that
    // dies before sending closes its parent's channel instead of hanging
    // it (and, up the tree, the root and the join below).
    let parents: Vec<_> = (0..shards)
        .map(|s| (s > 0).then(|| txs[s - lowbit(s)].clone()))
        .collect();
    drop(txs);
    let mut packet = std::thread::scope(|scope| {
        let node = &node;
        let merge = &merge;
        let handles: Vec<_> = rxs
            .into_iter()
            .zip(parents)
            .enumerate()
            .map(|(s, (rx, parent))| {
                scope.spawn(move || {
                    let before = worker_threads_spawned();
                    let yielded = node(s);
                    let mut packet = TreePacket {
                        node: s,
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
                    let mut pending = Vec::new();
                    let mut step = 1usize;
                    while (s == 0 || step < lowbit(s)) && s + step < shards {
                        pending.push(s + step);
                        step <<= 1;
                    }
                    let merges = pending.len();
                    let mut merged_here = Duration::ZERO;
                    while !pending.is_empty() {
                        let Ok(child) = rx.recv() else {
                            panic!("shard tree node {s}: child {pending:?} died before sending")
                        };
                        pending.retain(|&c| c != child.node);
                        let t0 = Instant::now();
                        merge(&mut packet.value, child.value);
                        merged_here += t0.elapsed();
                        for (mine, theirs) in packet.phase_stats.iter_mut().zip(child.phase_stats) {
                            mine.merge(theirs);
                        }
                        packet.walls.extend(child.walls);
                        packet.merge_spans.extend(child.merge_spans);
                    }
                    if merges > 0 {
                        packet.merge_spans.push((s, merged_here));
                    }
                    let spawned = worker_threads_spawned() - before;
                    match parent {
                        Some(tx) => {
                            // A parent is gone only if a sibling died first,
                            // and its own panic names that sibling.
                            let _ = tx.send(packet);
                            (None, spawned)
                        }
                        None => (Some(packet), spawned),
                    }
                })
            })
            .collect();
        let mut spawned = 0;
        let mut root = None;
        // Descendants first: the highest panicked node did not die of a
        // dead child, so the panic re-raised is the one that started it.
        for h in handles.into_iter().rev() {
            let (p, s) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            spawned += s;
            root = root.or(p);
        }
        credit_worker_spawns(spawned);
        root.expect("node 0 holds the reduced value")
    });
    packet.walls.sort_unstable_by_key(|&(p, s, _)| (p, s));
    packet.merge_spans.sort_unstable_by_key(|&(n, _)| n);
    Reduced {
        value: packet.value,
        phase_stats: packet.phase_stats,
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
    Sink: FnMut(&mut T, SurvivorBlock<'env>),
    Fin: FnOnce(P, T) -> R,
{
    let runs = run_phases_each(inputs, &mut program, |_, block| sink(&mut acc, block));
    ShardYield {
        value: finish(program, acc),
        phase_stats: runs.iter().map(|r| r.stats).collect(),
        phase_walls: runs.iter().map(|r| r.wall).collect(),
    }
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

/// The §4.3 flow choice: a JOIN whose small side has at most half the big
/// side's rows streams the small side once, unpruned, while building its
/// filter, and the big side once against it — each table crosses the
/// switch once instead of twice. Decided on *global* sizes, so every
/// shard and every arm agrees.
pub(crate) fn lopsided(left_rows: usize, right_rows: usize) -> bool {
    2 * left_rows.min(right_rows) <= left_rows.max(right_rows)
}

/// How a JOIN's two sides cross a shard's switch: §4.3's two flows, or
/// both sides once with every entry forwarded — a shuffle hash join.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinPlan {
    Symmetric,
    Asymmetric,
    Unpruned,
}

/// One shard's whole JOIN over the shard's lanes of the two sides' key
/// partitions (`None`: a single shard streams the tables where they lie):
/// build the flow over `filters`, stream the sides as `plan` says
/// (decided on *global* sizes, so every shard agrees), and pair the
/// survivors locally — on the shard's own thread, overlapping other
/// shards' streams.
pub(crate) fn join_shard(
    cfg: &PrunerConfig,
    filters: &Keys<JoinFilters>,
    (l, lc): (&Table, usize),
    (r, rc): (&Table, usize),
    plan: JoinPlan,
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
    // Each phase's sides, and whether they carry row ids: only the
    // phases whose survivors pair need them.
    let phases = match plan {
        JoinPlan::Symmetric => vec![(vec![left, right], false), (vec![left, right], true)],
        JoinPlan::Asymmetric if l.rows() <= r.rows() => {
            vec![(vec![left], true), (vec![right], true)]
        }
        JoinPlan::Asymmetric => vec![(vec![right], true), (vec![left], true)],
        JoinPlan::Unpruned => vec![(vec![left, right], true)],
    };
    let inputs = phases
        .into_iter()
        .map(|(sides, with_rids)| PhaseInput {
            partitions: sides
                .into_iter()
                .flat_map(|(tag, keys, rids)| join_side_parts(tag, keys, rids, workers, with_rids))
                .collect(),
            visible_cols: 2,
        })
        .collect();
    if plan == JoinPlan::Unpruned {
        return pair(inputs, ForwardAll, filters);
    }
    let flow = JoinFlow::sized(cfg, filters);
    pair(
        inputs,
        JoinPhases::new(flow, plan == JoinPlan::Asymmetric),
        filters,
    )
}

/// Run `inputs` through `stage` and pair the survivors of both sides over
/// the JOIN's `keys`.
fn pair<P: SwitchPhases>(
    inputs: Vec<PhaseInput<'_>>,
    stage: P,
    keys: &Keys<JoinFilters>,
) -> ShardYield<(u64, u64)> {
    run_shard(
        inputs,
        stage,
        JoinSides::default(),
        join_sink,
        |_, (lf, rf)| join_survivors(lf, rf, keys),
    )
}

/// One shard's whole GROUP BY SUM/COUNT on `stage` (the bare §6 register
/// stage, or the one that drains before a scripted reboot), as its exact
/// per-key totals. `lanes` is the shard's key lane and, for SUM, its
/// value lane — COUNT's ones are synthesized by the workers.
pub(crate) fn sum_shard<P: SwitchPhases>(
    lanes: &[impl AsRef<[u64]>],
    stage: P,
    workers: usize,
) -> ShardYield<GroupRun> {
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
    // Forwarded entries carry evicted (key, partial) pairs; the FIN drain
    // — a rebooted shard's pre-reboot drain included — arrives the same
    // way.
    sum_pairs(
        vec![PhaseInput {
            partitions,
            visible_cols: 2,
        }],
        stage,
    )
}

/// Run `inputs` through `stage` and fold every survivor's `(lane 0, lane
/// 1)` pair into exact per-key sums in the master's [`GroupSink`] — the
/// one fold body of the GROUP BY SUM/COUNT shards (register evictions and
/// drains) and HAVING pass 2 (candidate entries).
fn sum_pairs<P: SwitchPhases>(inputs: Vec<PhaseInput<'_>>, stage: P) -> ShardYield<GroupRun> {
    run_shard(
        inputs,
        stage,
        GroupSink::new(Agg::Sum),
        |sums, block| sums.fill(|pairs| block.extend_pairs_into(0, 1, pairs)),
        |_, sums| sums.finish(),
    )
}

// ---------------------------------------------------------------------------
// Programs and transports.
// ---------------------------------------------------------------------------

/// One query shape's shard program, written once for every transport.
pub(crate) trait ShardProgram: Sync {
    /// What a shard contributes — canonical before it leaves the shard.
    type Partial: Send;
    /// What the root makes of the fully merged partial.
    type Root;

    /// Shard `s`'s body: its phase inputs through the stage `site` lends,
    /// survivors into the master sink, finished into the partial.
    fn shard<S: Site>(&self, s: usize, site: &S) -> ShardYield<Self::Partial>;

    /// Fold `other` into `acc`; associative and commutative over shards.
    fn merge(&self, acc: &mut Self::Partial, other: Self::Partial);

    /// The partial's wire form.
    fn encode(&self, partial: Self::Partial) -> ShardOutput;

    /// A delivered wire form back to a partial. A variant this program
    /// never encodes, or one failing its checks, is a [`CodecError`].
    fn decode(&self, output: ShardOutput) -> Result<Self::Partial, CodecError>;

    /// The merged partial's answer.
    fn root(&self, merged: Self::Partial) -> Self::Root;

    /// Entries shard `s` puts on the shuffle to produce `partial`: the
    /// partial's own, or a JOIN's repartitioned rows.
    fn shuffled(&self, s: usize, partial: &Self::Partial) -> u64;

    /// Whether a scheduled mid-compute reboot can resume in-stream. The
    /// multi-pass programs whose in-stream state is not soft (JOIN build
    /// filters, HAVING sketches) re-dispatch the shard instead.
    fn resumable(&self) -> bool {
        true
    }

    /// The decisions the report counts, given each pass's stats summed
    /// over shards: every pass's, unless the shape says otherwise.
    fn decisions(&self, passes: &[PruneStats]) -> PruneStats {
        total(passes)
    }
}

/// Stats summed over passes.
fn total(passes: &[PruneStats]) -> PruneStats {
    passes.iter().fold(PruneStats::default(), |mut sum, s| {
        sum.merge(*s);
        sum
    })
}

/// Builds a single-pass stage's pruner.
pub(crate) type NewPruner<'a> = &'a dyn Fn() -> Box<dyn RowPruner + Send>;

/// The stages a transport lends a shard body.
pub(crate) trait Site: Sync {
    /// A single-pass shape's stage.
    type RowStage: SwitchPhases;
    /// GROUP BY SUM/COUNT's register stage.
    type SumStage: SwitchPhases;

    /// Shard `s`'s single-pass stage around the pruner `pruner` builds
    /// (a stage that does not prune never calls it).
    fn pruner_stage(&self, s: usize, pruner: NewPruner<'_>) -> Self::RowStage;

    /// Shard `s`'s §6 register stage at `registers` (a stage that does
    /// not prune builds none).
    fn sum_stage(&self, s: usize, registers: &Keys<Matrix>, seed: u64) -> Self::SumStage;

    /// Whether partials leave the process — a FILTER shard then keeps the
    /// rows it fetches, to ship them.
    const SHIPS: bool = false;
}

/// How a program's partials travel from the shards to the root.
pub(crate) trait Transport {
    /// Whether the switch prunes. An unpruned transport runs register
    /// aggregation over range slices and every HAVING through it, and a
    /// JOIN as one shuffle.
    const PRUNES: bool = true;

    /// Shards every program runs on.
    fn shards(&self) -> usize;

    /// Run every shard of `program` and reduce their partials.
    fn run<P: ShardProgram>(&mut self, program: &P) -> Reduced<P::Partial>;
}

/// The in-process transport over this many shards: one thread per shard,
/// partials merged up the streaming binomial tree, on the plain stages.
pub(crate) struct InProcess(pub(crate) usize);

impl Site for InProcess {
    type RowStage = PrunerStage;
    type SumStage = GroupBySumStage;

    fn pruner_stage(&self, _: usize, pruner: NewPruner<'_>) -> PrunerStage {
        PrunerStage::new(pruner())
    }

    fn sum_stage(&self, _: usize, registers: &Keys<Matrix>, seed: u64) -> GroupBySumStage {
        GroupBySumStage::new(registers.sum_registers(seed))
    }
}

impl Transport for InProcess {
    fn shards(&self) -> usize {
        self.0
    }

    fn run<P: ShardProgram>(&mut self, program: &P) -> Reduced<P::Partial> {
        let site = &*self;
        sharded_tree(
            self.0,
            |s| program.shard(s, site),
            |a, b| program.merge(a, b),
        )
    }
}

/// A stage that forwards every entry: the switch turned off.
pub(crate) struct ForwardAll;

impl SwitchPhases for ForwardAll {
    fn process_cols(&mut self, _: usize, _: &[&[u64]], _: usize, out: &mut [Decision]) {
        out.fill(Decision::Forward);
    }
}

/// The in-process transport with the switch turned off: every stage it
/// lends forwards every entry, so each shard completes exactly the task a
/// Spark worker runs over its partition (§2.1), and the shards' partials
/// merge as the master's.
pub(crate) struct Unpruned {
    pub(crate) shards: usize,
    /// Entries the shards of every program run so far shuffled.
    pub(crate) shuffled: u64,
}

impl Site for Unpruned {
    type RowStage = ForwardAll;
    type SumStage = ForwardAll;

    fn pruner_stage(&self, _: usize, _: NewPruner<'_>) -> ForwardAll {
        ForwardAll
    }

    fn sum_stage(&self, _: usize, _: &Keys<Matrix>, _: u64) -> ForwardAll {
        ForwardAll
    }
}

impl Transport for Unpruned {
    const PRUNES: bool = false;

    fn shards(&self) -> usize {
        self.shards
    }

    fn run<P: ShardProgram>(&mut self, program: &P) -> Reduced<P::Partial> {
        let (site, shuffled) = (&*self, AtomicU64::new(0));
        let shard = |s| {
            let shard = program.shard(s, site);
            shuffled.fetch_add(program.shuffled(s, &shard.value), Ordering::Relaxed);
            shard
        };
        let reduced = sharded_tree(self.shards, shard, |a, b| program.merge(a, b));
        self.shuffled += shuffled.into_inner();
        reduced
    }
}

/// What the report keeps of a query's program runs.
#[derive(Default)]
pub(crate) struct Spans {
    stats: PruneStats,
    pass_walls: Vec<Duration>,
    merge_walls: Vec<Duration>,
    /// The last program's root span.
    combine: Duration,
}

impl Spans {
    /// Run `program` over `transport`, keep its spans, and root the merged
    /// partial.
    fn run<T: Transport, P: ShardProgram>(&mut self, transport: &mut T, program: &P) -> P::Root {
        let reduced = transport.run(program);
        self.stats.merge(program.decisions(&reduced.phase_stats));
        self.pass_walls.extend(reduced.pass_walls);
        self.merge_walls.extend(reduced.merge_walls);
        let t0 = Instant::now();
        let root = program.root(reduced.value);
        self.combine = t0.elapsed();
        root
    }
}

/// [`execute_on`] with `inner`'s switch, reported with the measured
/// spans.
pub(crate) fn report_on<T: Transport>(
    inner: &CheetahExecutor,
    transport: &mut T,
    b: &Bound<'_>,
) -> ExecutionReport {
    let started = Instant::now();
    let (answer, spans) = execute_on(&inner.config, inner.model.workers, transport, b);
    let mut report = answer.pruned(spans.stats);
    report.pass_walls = spans.pass_walls;
    report.merge_walls = spans.merge_walls;
    report.combine_wall = Some(spans.combine);
    report.wall = Some(started.elapsed());
    report
}

/// Run the bound query's shard program(s) over `transport`, `workers`
/// pool workers a shard, and hand back the answer and the runs' spans.
/// Unpruned, a two-pass HAVING runs as register aggregation.
pub(crate) fn execute_on<T: Transport>(
    cfg: &PrunerConfig,
    workers: usize,
    transport: &mut T,
    b: &Bound<'_>,
) -> (Answer, Spans) {
    let env = Env {
        cfg,
        workers,
        shards: transport.shards(),
    };
    let mut spans = Spans::default();
    let t = b.table;
    let registers = |threshold, registers| {
        let lanes: Vec<&[u64]> = b.cols.iter().map(|&c| t.col_at(c)).collect();
        let partition = T::PRUNES.then(|| key_partition(cfg, &lanes, env.shards, false));
        SumProgram {
            scan: Scan::over(env, b, false),
            partition: partition.flatten(),
            threshold,
            registers,
        }
    };
    let answer = match b.program {
        Program::SinglePass(_) => {
            let fetch = b.query.projection(t, &cfg.fetch);
            let scan = Scan::over(env, b, T::PRUNES);
            spans.run(transport, &SinglePassProgram { scan, fetch })
        }
        Program::Registers {
            threshold,
            registers: ref at,
        } => spans.run(transport, &registers(threshold, at.clone())),
        // The switch is off, so no register stage is built: the sketch's
        // geometry only fills the slot.
        Program::Having { threshold, sketch } if !T::PRUNES => {
            spans.run(transport, &registers(Some(threshold), Keys::Hashed(sketch)))
        }
        Program::Having { threshold, sketch } => {
            // Pass 2 must see global key mass, so the merged sketch is
            // broadcast between the two programs.
            let scan = Scan::over(env, b, T::PRUNES);
            let sketch = HavingSketchProgram {
                scan: &scan,
                threshold,
                sketch,
            };
            let merged = spans.run(transport, &sketch);
            let probe = HavingProbeProgram {
                scan: &scan,
                merged,
            };
            spans.run(transport, &probe)
        }
        Program::Join {
            right: r,
            right_col: rc,
            lopsided,
            ref filters,
        } => {
            // Both sides by join key under one salt: every occurrence of a
            // key, left or right, lands on one shard and pairs there.
            let side = |t: &Table, c| key_partition(cfg, &[t.col_at(c)], env.shards, true);
            let plan = match (T::PRUNES, lopsided) {
                (false, _) => JoinPlan::Unpruned,
                (true, true) => JoinPlan::Asymmetric,
                (true, false) => JoinPlan::Symmetric,
            };
            let program = JoinProgram {
                env,
                filters: filters.clone(),
                left: (t, b.cols[0]),
                right: (r, rc),
                plan,
                sides: side(t, b.cols[0]).zip(side(r, rc)),
            };
            spans.run(transport, &program)
        }
    };
    (answer, spans)
}

/// What every program is built against.
#[derive(Clone, Copy)]
struct Env<'a> {
    cfg: &'a PrunerConfig,
    /// Pool workers per shard.
    workers: usize,
    shards: usize,
}

/// A range-sharded scan of a bound query's table: shard `s` streams rows
/// `bounds[s]` of it over the query's columns.
struct Scan<'a> {
    env: Env<'a>,
    b: &'a Bound<'a>,
    bounds: Vec<(usize, usize)>,
    /// A pruned DistinctMulti's tuple fingerprinter.
    fp: Option<Fingerprinter>,
}

impl<'a> Scan<'a> {
    /// The scan for `b`; a DistinctMulti's workers hash its tuples into
    /// a fingerprint lane only for a switch that `prunes`.
    fn over(env: Env<'a>, b: &'a Bound<'a>, prunes: bool) -> Self {
        Scan {
            env,
            b,
            bounds: b.table.partition_bounds(env.shards),
            fp: (prunes && b.fingerprints()).then(|| tuple_fingerprinter(env.cfg)),
        }
    }

    /// Shard `s`'s rows of the query's lanes.
    fn range(&self, s: usize) -> Vec<&[u64]> {
        let (lo, hi) = self.bounds[s];
        let lane = |&c: &usize| &self.b.table.col_at(c)[lo..hi];
        self.b.cols.iter().map(lane).collect()
    }

    /// Shard `s`'s one pass: its rows as `workers` zero-copy lane
    /// partitions. The switch sees the query's columns — a DistinctMulti's
    /// switch the fingerprint its workers hash them into (the hashing runs
    /// in the pool), the columns riding behind it — and a Filter's global
    /// row ids ride last, switch-blind.
    fn pass(&self, s: usize) -> Vec<PhaseInput<'_>> {
        let ((lo, hi), fp) = (self.bounds[s], self.fp.as_ref());
        let (query, table, cols) = (self.b.query, self.b.table, &self.b.cols);
        let with_rids = matches!(query, Query::Filter { .. });
        let partitions = split_range(lo, hi, self.env.workers)
            .into_iter()
            .map(|(a, b)| {
                let slices: Vec<&[u64]> = cols.iter().map(|&c| &table.col_at(c)[a..b]).collect();
                let fingerprint = fp.map(|fp| Lane::Fingerprint {
                    cols: slices.clone(),
                    fp,
                });
                let mut lanes: Vec<Lane<'_>> = fingerprint.into_iter().collect();
                lanes.extend(slices.into_iter().map(Lane::Slice));
                if with_rids {
                    lanes.push(Lane::Iota(a as u64));
                }
                LanePartition { rows: b - a, lanes }
            })
            .collect();
        let visible_cols = if fp.is_some() { 1 } else { cols.len() };
        vec![PhaseInput {
            partitions,
            visible_cols,
        }]
    }
}

/// The seven single-pass shapes' one program. Each shard streams its
/// range of the table through the query's pruner on the stage `site`
/// lends, takes every survivor block through [`Completion::take`] — the
/// deterministic arm's and serving's own survivor loop — and contributes
/// the canonical [`Partial`] [`Completion::partial`] makes of them; the
/// partials merge and root as themselves. Rebooted switches only forward
/// a superset, which the master's completion absorbs.
struct SinglePassProgram<'a> {
    scan: Scan<'a>,
    /// A Filter's §7.1 fetch lanes, which its `Rows` payload ships.
    fetch: Projection,
}

impl ShardProgram for SinglePassProgram<'_> {
    type Partial = Partial;
    type Root = Answer;

    fn shard<S: Site>(&self, s: usize, site: &S) -> ShardYield<Partial> {
        let Scan { env, b, .. } = self.scan;
        let first = usize::from(self.scan.fp.is_some());
        let columns = first..first + b.cols.len();
        run_shard(
            self.scan.pass(s),
            site.pruner_stage(s, &|| single_pass_pruner(env.cfg, b)),
            Completion::for_query(b),
            |master, block| {
                let cols: Vec<&[u64]> = columns.clone().map(|c| block.lane(c)).collect();
                // Only a Filter asks, and its row ids are its last lane.
                let row_id = |i| block.value(columns.end, i);
                master.take(&cols, block.indices(), row_id);
            },
            |_, master| master.partial(b, self.fetch.cols(), S::SHIPS),
        )
    }

    fn merge(&self, acc: &mut Partial, other: Partial) {
        acc.merge(other);
    }

    /// Onto the variant each shape has always shipped: a Distinct's run
    /// as `Values`, a DistinctMulti's and a Skyline's as `Tuples`.
    fn encode(&self, partial: Partial) -> ShardOutput {
        match partial {
            Partial::Count(count) => ShardOutput::Count(count),
            Partial::Fetched {
                ids,
                rows,
                checksum,
            } => ShardOutput::Rows {
                width: self.fetch.width() as u64,
                ids: ids.into_parts().1,
                flat: rows,
                checksum,
            },
            Partial::Top { values, .. } => ShardOutput::TopCandidates(values),
            Partial::Tuples(run) if matches!(self.scan.b.query, Query::Distinct { .. }) => {
                ShardOutput::Values(run.into_parts().1)
            }
            Partial::Tuples(run) | Partial::Frontier(run) => {
                let (width, flat) = run.into_parts();
                ShardOutput::Tuples { width, flat }
            }
            Partial::Groups(run) => ShardOutput::Extrema(run.into_pairs()),
        }
    }

    /// Only the query's own variant at the query's own width decodes, and
    /// a delivered partial is re-canonicalized, not trusted.
    fn decode(&self, output: ShardOutput) -> Result<Partial, CodecError> {
        let width = self.scan.b.cols.len();
        Ok(match (self.scan.b.query, output) {
            (Query::FilterCount { .. }, ShardOutput::Count(count)) => Partial::Count(count),
            (Query::Filter { .. }, output) => {
                let (ids, checksum) = verified_rows(output, self.fetch.width())?;
                Partial::Fetched {
                    ids: TupleRun::canonical(1, ids),
                    rows: Vec::new(),
                    checksum,
                }
            }
            (Query::TopN { n, .. }, ShardOutput::TopCandidates(values)) => Partial::top(values, *n),
            (Query::Distinct { .. }, ShardOutput::Values(values)) => {
                Partial::Tuples(TupleRun::canonical(1, values))
            }
            (
                Query::DistinctMulti { .. } | Query::Skyline { .. },
                ShardOutput::Tuples { width: w, .. },
            ) if w != width as u64 => return Err(CodecError::Malformed),
            (Query::DistinctMulti { .. }, ShardOutput::Tuples { flat, .. }) => {
                Partial::Tuples(TupleRun::canonical(width, flat))
            }
            (Query::Skyline { .. }, ShardOutput::Tuples { flat, .. }) => {
                Partial::Frontier(frontier(width, &flat))
            }
            (Query::GroupBy { agg, .. }, ShardOutput::Extrema(pairs)) => {
                Partial::Groups(GroupRun::fold(pairs, *agg))
            }
            (_, other) => return Err(other.unexpected()),
        })
    }

    fn root(&self, merged: Partial) -> Answer {
        merged.root(self.scan.b)
    }

    fn shuffled(&self, _: usize, partial: &Partial) -> u64 {
        (match partial {
            Partial::Count(_) => 1,
            Partial::Fetched { ids, .. } => ids.flat().len(),
            Partial::Top { values, .. } => values.len(),
            Partial::Tuples(run) | Partial::Frontier(run) => run.flat().len() / run.width(),
            Partial::Groups(run) => run.len(),
        }) as u64
    }
}

/// §6 register aggregation — GROUP BY SUM/COUNT, and a HAVING over a
/// register-sized key domain — hash-sharded: every occurrence of a key
/// lands on one shard, so a key's eviction churn never multiplies across
/// shards and each shard's drained totals are exact and disjoint from
/// every other shard's. The table is partitioned once, before the shards
/// start; a re-dispatched shard streams the same lanes again. Unpruned,
/// shards stream range slices, as Spark's tasks do, and their per-key
/// sums overlap.
struct SumProgram<'a> {
    /// The key lane and, for SUM, the value lane.
    scan: Scan<'a>,
    /// The lanes' hash partition, or `None`: shard `s` streams its range.
    partition: Option<HashPartition>,
    /// A HAVING's threshold, which the root applies to the merged sums.
    threshold: Option<u64>,
    /// The registers each shard's stage runs.
    registers: Keys<Matrix>,
}

impl ShardProgram for SumProgram<'_> {
    type Partial = GroupRun;
    type Root = Answer;

    fn shard<S: Site>(&self, s: usize, site: &S) -> ShardYield<GroupRun> {
        let Env { cfg, workers, .. } = self.scan.env;
        let stage = site.sum_stage(s, &self.registers, cfg.seed);
        match &self.partition {
            Some(p) => sum_shard(&p[s], stage, workers),
            None => sum_shard(&self.scan.range(s), stage, workers),
        }
    }

    fn merge(&self, acc: &mut GroupRun, other: GroupRun) {
        acc.merge(other);
    }

    fn encode(&self, run: GroupRun) -> ShardOutput {
        ShardOutput::SumDrain(run.into_pairs())
    }

    fn decode(&self, output: ShardOutput) -> Result<GroupRun, CodecError> {
        match output {
            ShardOutput::SumDrain(pairs) => Ok(GroupRun::fold(pairs, Agg::Sum)),
            other => Err(other.unexpected()),
        }
    }

    fn root(&self, run: GroupRun) -> Answer {
        let rows = self.scan.b.table.rows() as u64;
        Answer::single(run.into_result(self.threshold), rows)
    }

    fn shuffled(&self, _: usize, run: &GroupRun) -> u64 {
        run.len() as u64
    }
}

/// HAVING pass 1: shard-local Count-Min sketches, merged cell-wise. Its
/// root is the merged sketch the second program probes against.
///
/// The one program that ignores `cfg.backend`: it always runs the core
/// [`HavingPruner`], because merging sketches needs core counters and a
/// PISA HAVING flow exports none. Decisions are the same either way.
struct HavingSketchProgram<'s, 'a> {
    scan: &'s Scan<'a>,
    threshold: u64,
    sketch: Matrix,
}

impl ShardProgram for HavingSketchProgram<'_, '_> {
    type Partial = HavingPruner;
    type Root = HavingPruner;

    fn shard<S: Site>(&self, s: usize, _: &S) -> ShardYield<HavingPruner> {
        let Matrix { d, w } = self.sketch;
        let seed = self.scan.env.cfg.seed;
        run_shard(
            self.scan.pass(s),
            HavingShardSketch::new(HavingPruner::new(d, w, self.threshold, seed)),
            (),
            // Shard-local announcements are not global candidates; the
            // merged sketch recomputes them in pass 2.
            |(), _| {},
            |program, ()| program.into_pruner(),
        )
    }

    fn merge(&self, acc: &mut HavingPruner, other: HavingPruner) {
        acc.merge(&other);
    }

    fn encode(&self, sketch: HavingPruner) -> ShardOutput {
        ShardOutput::Sketch {
            d: self.sketch.d as u64,
            w: self.sketch.w as u64,
            threshold: sketch.threshold(),
            seed: self.scan.env.cfg.seed,
            counters: sketch.sketch().counters().to_vec(),
        }
    }

    /// Rebuilt cell-exact, and only from this query's geometry.
    fn decode(&self, output: ShardOutput) -> Result<HavingPruner, CodecError> {
        let Matrix { d: rows, w: cols } = self.sketch;
        let expected = (
            rows as u64,
            cols as u64,
            self.threshold,
            self.scan.env.cfg.seed,
        );
        match output {
            ShardOutput::Sketch {
                d,
                w,
                threshold,
                seed,
                counters,
            } if (d, w, threshold, seed) == expected => {
                let sketch = CountMinSketch::from_parts(d as usize, w as usize, seed, counters);
                Ok(HavingPruner::from_sketch(sketch, threshold))
            }
            ShardOutput::Sketch { .. } => Err(CodecError::Malformed),
            other => Err(other.unexpected()),
        }
    }

    fn root(&self, merged: HavingPruner) -> HavingPruner {
        merged
    }

    fn shuffled(&self, _: usize, sketch: &HavingPruner) -> u64 {
        sketch.sketch().counters().len() as u64
    }

    fn resumable(&self) -> bool {
        false
    }
}

/// HAVING pass 2: every shard probes the merged sketch and sums its
/// candidates' values exactly. Like [`HavingSketchProgram`], always on
/// the core [`HavingPruner`], whatever `cfg.backend` says.
struct HavingProbeProgram<'s, 'a> {
    scan: &'s Scan<'a>,
    merged: HavingPruner,
}

impl ShardProgram for HavingProbeProgram<'_, '_> {
    type Partial = GroupRun;
    type Root = Answer;

    fn shard<S: Site>(&self, s: usize, _: &S) -> ShardYield<GroupRun> {
        sum_pairs(
            self.scan.pass(s),
            HavingShardProbe::new(self.merged.clone()),
        )
    }

    fn merge(&self, acc: &mut GroupRun, other: GroupRun) {
        acc.merge(other);
    }

    fn encode(&self, run: GroupRun) -> ShardOutput {
        ShardOutput::CandidateSums(run.into_pairs())
    }

    fn decode(&self, output: ShardOutput) -> Result<GroupRun, CodecError> {
        match output {
            ShardOutput::CandidateSums(pairs) => Ok(GroupRun::fold(pairs, Agg::Sum)),
            other => Err(other.unexpected()),
        }
    }

    fn root(&self, sums: GroupRun) -> Answer {
        Answer {
            passes: 2,
            ..Answer::single(
                sums.keys_above(self.merged.threshold()),
                2 * self.scan.b.table.rows() as u64,
            )
        }
    }

    fn shuffled(&self, _: usize, sums: &GroupRun) -> u64 {
        sums.len() as u64
    }
}

/// JOIN with **partition-local pairing**: each shard runs [`join_shard`]
/// — its own complete two-phase flow over its lanes of both sides' key
/// partitions and its own pairing — and the partials add.
struct JoinProgram<'a> {
    env: Env<'a>,
    /// The bound filter pair, for the whole tables.
    filters: Keys<JoinFilters>,
    left: (&'a Table, usize),
    right: (&'a Table, usize),
    plan: JoinPlan,
    sides: Option<(HashPartition, HashPartition)>,
}

impl ShardProgram for JoinProgram<'_> {
    type Partial = (u64, u64);
    type Root = Answer;

    fn shard<S: Site>(&self, s: usize, _: &S) -> ShardYield<(u64, u64)> {
        let lanes = self.sides.as_ref().map(|(lp, rp)| [&lp[s][..], &rp[s][..]]);
        let Env { cfg, workers, .. } = self.env;
        // A shard's switch holds its partition's keys alone: its Bloom
        // pair is sized for its rows, which bind cannot know. A dense pair
        // spans the keys' range, which partitioning does not narrow.
        let filters = match (&self.filters, lanes) {
            (Keys::Hashed(_), Some([l, r])) => {
                &Keys::Hashed(JoinFilters::sized(cfg, l[0].len(), r[0].len()))
            }
            (filters, _) => filters,
        };
        join_shard(
            cfg, filters, self.left, self.right, self.plan, lanes, workers,
        )
    }

    fn merge(&self, acc: &mut (u64, u64), other: (u64, u64)) {
        acc.0 += other.0;
        acc.1 = acc.1.wrapping_add(other.1);
    }

    fn encode(&self, (pairs, checksum): (u64, u64)) -> ShardOutput {
        ShardOutput::JoinAgg { pairs, checksum }
    }

    fn decode(&self, output: ShardOutput) -> Result<(u64, u64), CodecError> {
        match output {
            ShardOutput::JoinAgg { pairs, checksum } => Ok((pairs, checksum)),
            other => Err(other.unexpected()),
        }
    }

    fn root(&self, (pairs, checksum): (u64, u64)) -> Answer {
        let rows = (self.left.0.rows() + self.right.0.rows()) as u64;
        let (streamed, passes) = match self.plan {
            JoinPlan::Symmetric => (2 * rows, 2),
            JoinPlan::Asymmetric => (rows, 2),
            JoinPlan::Unpruned => (rows, 1),
        };
        Answer {
            result: QueryResult::JoinSummary { pairs, checksum },
            streamed,
            passes,
            fetch_rows: pairs,
            fetch_checksum: None,
        }
    }

    /// Every row of the shard's sides: a JOIN shuffles its inputs.
    fn shuffled(&self, s: usize, _: &(u64, u64)) -> u64 {
        let rows = match &self.sides {
            Some((lp, rp)) => lp[s][0].len() + rp[s][0].len(),
            None => self.left.0.rows() + self.right.0.rows(),
        };
        rows as u64
    }

    fn resumable(&self) -> bool {
        false
    }

    /// Symmetric: build-pass decisions are not probe decisions, so only
    /// the probe pass counts (as on the other executors). Otherwise every
    /// entry is decided exactly once over the passes.
    fn decisions(&self, passes: &[PruneStats]) -> PruneStats {
        if self.plan == JoinPlan::Symmetric {
            passes[1]
        } else {
            total(passes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheetah::PrunerConfig;
    use crate::cost::CostModel;
    use crate::query::Predicate;
    use crate::reference;
    use crate::table::Table;
    use cheetah_core::filter::{Atom, CmpOp, Formula};
    use cheetah_core::groupby::GroupBySumPruner;
    use cheetah_core::hash::mix64;
    use proptest::prelude::*;

    use crate::fixture::arithmetic;

    fn exec(shards: usize) -> ShardedExecutor {
        ShardedExecutor::with_shards(
            CheetahExecutor::new(CostModel::default(), PrunerConfig::default()),
            shards,
        )
    }

    #[test]
    fn sharded_matches_reference_on_representative_shapes() {
        let db = arithmetic(6_000, 2_000);
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
        let db = arithmetic(6_000, 2_000);
        let cfg = PrunerConfig::default();
        let (t, s) = (db.table("t"), db.table("s"));
        let processed =
            |stats: &[PruneStats]| -> Vec<u64> { stats.iter().map(|p| p.processed).collect() };
        for shards in [2usize, 3, 5] {
            let lanes = [t.col_at(0), t.col_at(1)];
            let partition = key_partition(&cfg, &lanes, shards, false).expect("sharded");
            let mut total = 0;
            for (shard, lanes) in partition.iter().enumerate() {
                let registers = Keys::Hashed(GroupBySumPruner::new(16, 2, cfg.seed));
                let stage = GroupBySumStage::new(registers);
                let y = sum_shard(lanes, stage, 2);
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
                let filters = Keys::Hashed(JoinFilters::sized(&cfg, l as usize, r as usize));
                let join = |plan| join_shard(&cfg, &filters, (t, 0), (s, 0), plan, Some(sides), 2);
                let asym = join(JoinPlan::Asymmetric);
                assert_eq!(
                    processed(&asym.phase_stats),
                    [r, l],
                    "join shard {shard}/{shards}"
                );
                let sym = join(JoinPlan::Symmetric);
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

    /// A shard that dies before sending fails the tree instead of hanging
    /// it: node 3's parent, node 2, is alive and waiting on it.
    #[test]
    fn a_panicking_shard_fails_the_tree_instead_of_hanging_it() {
        let (tx, rx) = mpsc::channel();
        // A helper thread, so a hung tree fails the test on the timeout
        // below instead of hanging it too.
        let helper = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                let node = |s| {
                    if s == 3 {
                        panic!("shard 3 failed");
                    }
                    ShardYield {
                        value: s,
                        phase_stats: Vec::new(),
                        phase_walls: Vec::new(),
                    }
                };
                sharded_tree(4, node, |a, b| *a += b).value
            });
            let _ = tx.send(outcome.map_err(|p| p.downcast_ref::<&str>().map(|m| m.to_string())));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the tree hung on a dead shard");
        helper.join().expect("the helper caught the tree's panic");
        let panicked = outcome.expect_err("a dead shard fails the tree");
        assert_eq!(panicked.as_deref(), Some("shard 3 failed"));
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

    /// One query of each single-pass shape over `db`'s table `t`, both
    /// GROUP BY extrema among them.
    fn single_pass_shapes(n: usize) -> Vec<Query> {
        let t = || "t".to_string();
        let predicate = Predicate {
            columns: vec!["v".into(), "w".into()],
            atoms: vec![
                Atom::cmp(0, CmpOp::Lt, 6_000),
                Atom::unsupported(1, CmpOp::Gt, 200),
            ],
            formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
        };
        let group = |agg| Query::GroupBy {
            table: t(),
            key: "k".into(),
            val: "v".into(),
            agg,
        };
        vec![
            Query::FilterCount {
                table: t(),
                predicate: predicate.clone(),
            },
            Query::Filter {
                table: t(),
                predicate,
            },
            Query::Distinct {
                table: t(),
                column: "k".into(),
            },
            Query::DistinctMulti {
                table: t(),
                columns: vec!["k".into(), "w".into()],
            },
            Query::TopN {
                table: t(),
                order_by: "v".into(),
                n,
            },
            group(Agg::Max),
            group(Agg::Min),
            Query::Skyline {
                table: t(),
                columns: vec!["v".into(), "w".into()],
            },
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The partial algebra every single-pass arm rests on: survivors
        /// split into any chunks, each chunk's completion made a partial
        /// and the partials merged in any tree order, root to the one-chunk
        /// answer; and every partial survives its wire round trip (a
        /// shipped Filter's rows aside, which the master only verifies).
        #[test]
        fn single_pass_partials_merge_in_any_order_and_survive_the_wire(
            rows in 1usize..3_000,
            forward in 0u64..4,
            chunks in 1usize..9,
            seed in any::<u64>(),
        ) {
            let db = arithmetic(rows, 1);
            let t = db.table("t");
            let cfg = PrunerConfig::default();
            let env = Env { cfg: &cfg, workers: 1, shards: 1 };
            // Forward rates ¼ to 1; survivors ascend, as a block's do.
            let survivors: Vec<u16> = (0..rows as u16)
                .filter(|&i| mix64(seed ^ u64::from(i)) % 4 <= forward)
                .collect();
            let mut cuts: Vec<usize> = (1..chunks)
                .map(|c| mix64(seed.rotate_left(c as u32)) as usize % (survivors.len() + 1))
                .collect();
            cuts.sort_unstable();
            let bounds: Vec<usize> = [0].into_iter().chain(cuts).chain([survivors.len()]).collect();
            for q in single_pass_shapes(seed as usize % 60) {
                let b = q.bind(&db, &cfg).expect("a single-pass shape binds");
                let program = SinglePassProgram {
                    scan: Scan::over(env, &b, true),
                    fetch: q.projection(t, &cfg.fetch),
                };
                let cols: Vec<&[u64]> = program.scan.b.cols.iter().map(|&c| t.col_at(c)).collect();
                let partial = |chunk: &[u16]| {
                    let mut master = Completion::for_query(&b);
                    master.take(&cols, chunk, |i| i as u64);
                    master.partial(&b, program.fetch.cols(), true)
                };
                let answer = |p: Partial| {
                    let a = p.root(&b);
                    (a.result, a.fetch_rows, a.fetch_checksum)
                };
                let mut parts: Vec<Partial> =
                    bounds.windows(2).map(|b| partial(&survivors[b[0]..b[1]])).collect();
                for p in &parts {
                    let words = program.encode(p.clone()).encode();
                    let wire = ShardOutput::decode(&words).expect("a well-formed frame");
                    let mut shipped = p.clone();
                    if let Partial::Fetched { rows, .. } = &mut shipped {
                        rows.clear();
                    }
                    prop_assert_eq!(program.decode(wire), Ok(shipped), "{}", q.kind());
                }
                // A random tree: fold a random partial into another until
                // one is left.
                let mut step = seed;
                while parts.len() > 1 {
                    step = mix64(step);
                    let from = step as usize % parts.len();
                    let other = parts.swap_remove(from);
                    let into = (step >> 32) as usize % parts.len();
                    parts[into].merge(other);
                }
                let merged = parts.pop().expect("one partial left");
                prop_assert_eq!(answer(merged), answer(partial(&survivors)), "{}", q.kind());
            }
        }
    }
}
