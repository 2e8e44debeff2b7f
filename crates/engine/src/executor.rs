//! The shared executor seam: one trait, one report type, generic drivers.
//!
//! Every way of completing a query in this engine implements [`Executor`]
//! and returns the same [`ExecutionReport`]: the Spark-style baseline
//! ([`SparkExecutor`]), the deterministic switch-pruning pipeline
//! ([`CheetahExecutor`]), the real-threads cluster ([`ThreadedExecutor`]),
//! the multi-switch and wire arms
//! ([`ShardedExecutor`](crate::ShardedExecutor),
//! [`DistributedExecutor`](crate::DistributedExecutor)), the serving
//! front-end ([`ServeExecutor`](crate::ServeExecutor)) and the planner
//! ([`PlannerExecutor`](crate::PlannerExecutor)). Tests, benches and the
//! experiment harness drive all of them through [`run_all`] /
//! [`divergences`] instead of keeping a hand-rolled loop per executor.

use std::time::Duration;

use cheetah_core::decision::PruneStats;

use crate::cheetah::CheetahExecutor;
use crate::query::{Query, QueryResult};
use crate::reference;
use crate::spark::SparkExecutor;
use crate::table::Database;

/// Uniform outcome of running one query through any [`Executor`].
///
/// Every executor computes a **real** [`QueryResult`] over real data and
/// counts what it moved; every time in it is measured. Modeled completion
/// times are a function of these counters, priced outside the engine
/// (`cheetah_bench::cost`). Fields that only some executors produce are
/// `Option`s with accessors that default sensibly, so generic drivers
/// never need to know which executor ran.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Name of the executor that produced this report.
    pub executor: &'static str,
    /// The (real) query result.
    pub result: QueryResult,
    /// Switch pruning statistics, for executors with a switch in the path.
    pub prune: Option<PruneStats>,
    /// Streaming passes over the data (JOIN, and a HAVING past the
    /// register cutoff, take two on Cheetah).
    pub passes: u32,
    /// Entries the workers streamed, summed over every pass: Spark's rows
    /// scanned by worker tasks, the entries serialized toward the switch
    /// on every other arm. A JOIN's build pass counts here but records no
    /// [`PruneStats`], so `prune.processed` can fall short of it.
    pub streamed: u64,
    /// Rows fetched by late materialization (§7.1).
    pub fetch_rows: u64,
    /// Order-independent checksum over the late-materialized rows, for
    /// executors that really fetch them (`Filter`): every executor
    /// fetching the same row set reports the same value, whatever the
    /// fetch order.
    pub fetch_checksum: Option<u64>,
    /// Entries shipped to the master: shuffled partials for Spark,
    /// switch-forwarded entries for Cheetah-style executors.
    pub shuffle_entries: u64,
    /// Measured wall-clock time, for executors that really ran threads.
    pub wall: Option<Duration>,
    /// Measured switch-side span of each streaming pass (phase open →
    /// FIN flush), for executors that really ran the threaded pipeline.
    /// Empty for the deterministic arm and the Spark baseline; its sum is ≤ `wall` (partition
    /// setup and master completion account for the rest). The sharded
    /// executor reports one span per shard per pass, shard-major within
    /// each pass (`shards × passes` entries).
    pub pass_walls: Vec<Duration>,
    /// Measured master-side combine span, for executors that merge
    /// per-shard state (filter unions, sketch summation, group-run
    /// merges, global re-selection) before completing the query.
    /// With the streaming tree reduction this is only the serial tail —
    /// result canonicalization after the reduction root yields — since
    /// the shard merges themselves overlap the switch phases (see
    /// `merge_walls`). `None` for single-switch executors.
    pub combine_wall: Option<Duration>,
    /// Measured span each reduction-tree node spent merging child shard
    /// state (ascending node index; nodes with no children are absent).
    /// These spans overlap each other and the still-running shard
    /// pipelines, so their sum can exceed the critical-path merge cost.
    /// Empty for executors that don't tree-reduce.
    pub merge_walls: Vec<Duration>,
    /// Fault-tolerance telemetry, for executors that ship shard state
    /// over the lossy wire protocol ([`crate::distributed`]). `None`
    /// for in-process executors — degradation cannot be silent, so any
    /// executor that retries or reboots must fill this in.
    pub resilience: Option<ResilienceReport>,
    /// Estimate-vs-actual planning telemetry: the chosen arm, its grid
    /// knobs, and predicted vs measured wall. Filled only by
    /// [`crate::plan::PlannerExecutor`]; `None` when the caller picked
    /// the executor itself.
    pub plan: Option<crate::plan::PlanReport>,
}

/// What the fault-handling layer did during one distributed execution.
///
/// Zero everywhere (the [`Default`]) means a clean run: every shard
/// output shipped on its first attempt and nothing rebooted. The
/// `degraded` flag is the §3 honesty bit: `true` means at least one
/// shard exhausted its retry budget and the executor fell back to the
/// locally computed output for it — the result is still exact, but the
/// wire path did not carry it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Wire sessions run to ship shard outputs (1 = no retries).
    pub ship_attempts: u64,
    /// Shard flows re-shipped after an incomplete session.
    pub retries: u64,
    /// Shards recomputed or re-dispatched after a crash or a
    /// non-resumable mid-compute reboot.
    pub redispatches: u64,
    /// Shard-worker crashes injected/observed during shipping.
    pub worker_crashes: u64,
    /// Network switch reboots survived during shipping.
    pub net_reboots: u64,
    /// Mid-compute shard pruner reboots survived (§3 empty-soft-state).
    pub shard_reboots: u64,
    /// GROUP BY SUM/COUNT register drains performed before a reboot
    /// (the §6 exception: those registers hold real data).
    pub register_drains: u64,
    /// Data-packet retransmissions across all shipping sessions.
    pub retransmissions: u64,
    /// Messages lost on the simulated wires across all sessions.
    pub losses: u64,
    /// Duplicate data packets discarded at the master.
    pub duplicates: u64,
    /// FIN messages dropped by fault injection and recovered via RTO.
    pub fin_drops: u64,
    /// Shipping sessions abandoned at their simulated-time deadline (the
    /// wire delivered too little for too long); their unfinished flows
    /// went to the next attempt.
    pub deadline_expiries: u64,
    /// True when some shard fell back to its local output after
    /// exhausting the retry budget.
    pub degraded: bool,
}

/// Aggregate outcome of serving one admitted batch through
/// [`crate::serve::ServeExecutor`]: how the scheduler split the batch
/// (shared-scan packing vs solo pool dispatch vs budget spill) and what
/// the cross-query filter cache did. Per-query details stay in the
/// individual [`ExecutionReport`]s; this is the serving layer's own
/// telemetry, which perfbench's `serve.*` metrics read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Queries admitted in the batch. Every one is answered exactly one
    /// way: `packed + solo + coalesced == queries`.
    pub queries: u64,
    /// Answers served by another admission's execution: the batch held
    /// an equal query earlier, which ran for both. The counters below
    /// count *executions* — the batch's distinct queries.
    pub coalesced: u64,
    /// Queries that ran inside a shared `EntryStream` pass (a pass needs
    /// at least two co-resident flows to count as packed).
    pub packed: u64,
    /// Queries dispatched one-per-executor-call across the bounded pool
    /// (multi-pass shapes, spilled flows, and singleton groups).
    pub solo: u64,
    /// Shareable queries the switch resource budget refused a place
    /// beside their co-residents; each ran the switch path alone (they
    /// also count in `solo`, so `spilled <= solo`).
    pub spilled: u64,
    /// Shared stream passes executed (one scan serving ≥ 2 queries).
    pub shared_scans: u64,
    /// Cacheable executions completed from a cached Bloom/Count-Min
    /// state, skipping their observation pass.
    pub cache_hits: u64,
    /// Cacheable executions that ran their observation pass and
    /// (re)populated the cache — including lookups invalidated by a
    /// table-epoch bump. `cache_hits + cache_misses` is the number of
    /// cacheable executions.
    pub cache_misses: u64,
    /// Measured wall clock of serving the whole batch.
    pub wall: std::time::Duration,
}

impl ServeReport {
    /// Fraction of cacheable lookups served from the cache (0.0 when the
    /// batch had no cacheable flows).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total > 0 {
            self.cache_hits as f64 / total as f64
        } else {
            0.0
        }
    }
}

impl ExecutionReport {
    /// Pruning statistics, zeroed for executors without a switch.
    pub fn prune_stats(&self) -> PruneStats {
        self.prune.unwrap_or_default()
    }
}

/// A query completion strategy over the shared columnar [`Database`].
pub trait Executor {
    /// Short name for harness output and report labeling.
    fn name(&self) -> &'static str;

    /// Run `query` against `db` and report its result and counters.
    ///
    /// # Examples
    ///
    /// Every executor returns the same result for the same query — the
    /// paper's `Q(A_Q(D)) = Q(D)` behind one trait:
    ///
    /// ```
    /// use cheetah_engine::cheetah::PrunerConfig;
    /// use cheetah_engine::{
    ///     CheetahExecutor, CostModel, Database, Executor, Query, QueryResult, Table,
    ///     ThreadedExecutor,
    /// };
    ///
    /// let mut db = Database::new();
    /// db.add(Table::new("t", vec![("k", vec![1, 1, 2, 3, 3])]));
    /// let q = Query::Distinct { table: "t".into(), column: "k".into() };
    ///
    /// let cheetah = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    /// let threaded = ThreadedExecutor::new(cheetah.clone());
    /// for exec in [&cheetah as &dyn Executor, &threaded] {
    ///     let report = exec.execute(&db, &q);
    ///     assert_eq!(report.result, QueryResult::Values(vec![1, 2, 3]));
    /// }
    /// ```
    fn execute(&self, db: &Database, query: &Query) -> ExecutionReport;
}

impl Executor for SparkExecutor {
    fn name(&self) -> &'static str {
        "spark"
    }

    fn execute(&self, db: &Database, query: &Query) -> ExecutionReport {
        SparkExecutor::execute(self, db, query)
    }
}

impl Executor for CheetahExecutor {
    fn name(&self) -> &'static str {
        "cheetah"
    }

    fn execute(&self, db: &Database, query: &Query) -> ExecutionReport {
        CheetahExecutor::execute(self, db, query)
    }
}

/// The real-threads cluster behind the [`Executor`] seam: one shard over
/// `InProcess(1)`.
///
/// **Every** query shape runs its [`crate::sharded`] program on a genuine
/// worker-pool/switch/master thread topology
/// ([`crate::threaded::run_phases_each`], whose persistent worker pool
/// flips phases on per-worker watermarks instead of joining at a
/// barrier), exactly as one shard of [`crate::sharded::ShardedExecutor`]
/// does. Reports carry the measured wall clock in
/// [`ExecutionReport::wall`] and the per-pass switch spans in
/// [`ExecutionReport::pass_walls`]; one shard merges nothing, so
/// `merge_walls` is empty and `combine_wall` is `None`. Its counters are
/// the deterministic arm's vocabulary, so reports stay comparable across
/// executors.
#[derive(Debug, Clone)]
pub struct ThreadedExecutor {
    /// Configuration shared with the deterministic executor.
    pub inner: CheetahExecutor,
}

impl ThreadedExecutor {
    /// Wrap a configured Cheetah executor (worker count from its cost
    /// model).
    pub fn new(inner: CheetahExecutor) -> Self {
        ThreadedExecutor { inner }
    }
}

impl Executor for ThreadedExecutor {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn execute(&self, db: &Database, query: &Query) -> ExecutionReport {
        let mut report = self.inner.execute_threaded(db, query);
        report.executor = self.name();
        report
    }
}

/// Run one query through every executor, in input order. Each report
/// carries its producer in [`ExecutionReport::executor`].
pub fn run_all(executors: &[&dyn Executor], db: &Database, query: &Query) -> Vec<ExecutionReport> {
    executors.iter().map(|e| e.execute(db, query)).collect()
}

/// Drive every executor over every query and compare each result against
/// the `reference` oracle. Returns one human-readable line per
/// divergence — empty means the paper's equation `Q(A_Q(D)) = Q(D)` held
/// across the whole matrix.
pub fn divergences(
    executors: &[&dyn Executor],
    db: &Database,
    queries: &[(&str, Query)],
) -> Vec<String> {
    let mut out = Vec::new();
    for (label, query) in queries {
        let truth = reference::evaluate(db, query);
        for report in run_all(executors, db, query) {
            if report.result != truth {
                out.push(format!("[{label}] {} != reference", report.executor));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheetah::PrunerConfig;
    use crate::cost::CostModel;
    use crate::fixture::KeyForm;
    use crate::table::Table;

    fn tiny_db() -> Database {
        let mut db = Database::new();
        db.add(Table::new(
            "t",
            vec![
                ("k", (0..4_000u64).map(|i| i % 37 + 1).collect()),
                ("v", (0..4_000u64).map(|i| i * 31 % 9_973).collect()),
            ],
        ));
        db
    }

    fn executors() -> (SparkExecutor, CheetahExecutor, ThreadedExecutor) {
        let model = CostModel::default();
        let cheetah = CheetahExecutor::new(model, PrunerConfig::default());
        (
            SparkExecutor::new(model),
            cheetah.clone(),
            ThreadedExecutor::new(cheetah),
        )
    }

    #[test]
    fn all_executors_agree_through_the_trait() {
        let db = tiny_db();
        let (spark, cheetah, threaded) = executors();
        let all: Vec<&dyn Executor> = vec![&spark, &cheetah, &threaded];
        let queries = vec![
            (
                "distinct",
                Query::Distinct {
                    table: "t".into(),
                    column: "k".into(),
                },
            ),
            (
                "groupby-sum",
                Query::GroupBy {
                    table: "t".into(),
                    key: "k".into(),
                    val: "v".into(),
                    agg: crate::query::Agg::Sum,
                },
            ),
        ];
        assert_eq!(divergences(&all, &db, &queries), Vec::<String>::new());
    }

    #[test]
    fn report_accessors_default_sensibly() {
        let db = tiny_db();
        let (spark, cheetah, threaded) = executors();
        let q = Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        };
        let s = Executor::execute(&spark, &db, &q);
        assert_eq!(s.prune_stats(), PruneStats::default());
        let c = Executor::execute(&cheetah, &db, &q);
        assert!(c.prune_stats().pruned > 0);
        // One pass over 4,000 rows, scanned or streamed.
        assert_eq!((s.streamed, c.streamed), (4_000, 4_000));
        let t = Executor::execute(&threaded, &db, &q);
        assert!(t.wall.is_some(), "distinct runs on real threads");
        assert_eq!(t.executor, "threaded");
    }

    #[test]
    fn threaded_is_total_over_multipass_queries() {
        let db = tiny_db();
        let (_, _, threaded) = executors();
        let q = Query::Having {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            threshold: 100_000,
        };
        let r = Executor::execute(&threaded, &db, &q);
        assert!(r.wall.is_some(), "multi-pass flows run on real threads now");
        assert_eq!(r.passes, 1, "37 keys aggregate in the GROUP BY registers");
        assert_eq!(r.result, reference::evaluate(&db, &q));
        assert_eq!(r.executor, "threaded");
        // The same 37 keys spread past any stage's range and past the
        // starved register cutoff: HAVING streams twice. Over `1..=37`,
        // dense registers take one pass at any matrix.
        let starved = ThreadedExecutor::new(CheetahExecutor::new(
            CostModel::default(),
            PrunerConfig {
                groupby_d: 8,
                groupby_w: 2,
                ..PrunerConfig::default()
            },
        ));
        let t = db.table("t");
        let mut wide = Database::new();
        wide.add(Table::new(
            "t",
            vec![
                ("k", KeyForm::Spread.lane(t.col("k"))),
                ("v", t.col("v").to_vec()),
            ],
        ));
        let r = Executor::execute(&starved, &wide, &q);
        assert_eq!(r.passes, 2, "HAVING streams twice");
        assert_eq!(r.result, reference::evaluate(&wide, &q));
        assert_eq!(Executor::execute(&starved, &db, &q).passes, 1);
    }

    #[test]
    fn late_materialization_fetch_agrees_across_executors() {
        // The checksum is order-independent, so Spark's partition-order
        // fetch and Cheetah's interleaved-stream fetch must agree iff
        // they materialized the same row set.
        let db = tiny_db();
        let (spark, cheetah, threaded) = executors();
        let q = Query::Filter {
            table: "t".into(),
            predicate: crate::query::Predicate {
                columns: vec!["v".into()],
                atoms: vec![cheetah_core::filter::Atom::cmp(
                    0,
                    cheetah_core::filter::CmpOp::Lt,
                    4_000,
                )],
                formula: cheetah_core::filter::Formula::Atom(0),
            },
        };
        let reports = run_all(&[&spark, &cheetah, &threaded], &db, &q);
        let sums: Vec<u64> = reports
            .iter()
            .map(|r| {
                r.fetch_checksum
                    .unwrap_or_else(|| panic!("{} fetched no rows", r.executor))
            })
            .collect();
        assert!(
            sums.windows(2).all(|w| w[0] == w[1]),
            "executors materialized different row sets: {sums:?}"
        );
        assert!(sums[0] != 0, "non-empty fetch must checksum nonzero");
        // Queries without a fetch phase report no checksum.
        let d = Executor::execute(
            &cheetah,
            &db,
            &Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            },
        );
        assert_eq!(d.fetch_checksum, None);
    }
}
