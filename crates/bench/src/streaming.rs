//! Streaming-throughput measurement: the row-at-a-time legacy layout vs
//! the flat [`EntryStream`]/`process_block` hot path, plus per-query
//! engine throughput. Shared by the `streaming` criterion bench and the
//! `experiments -- --json` mode that writes `BENCH_streaming.json` — the
//! repo's checked-in performance trajectory.

use std::time::Instant;

use cheetah_core::decision::{PruneStats, RowPruner};
use cheetah_core::distinct::{DistinctPruner, EvictionPolicy};
use cheetah_core::filter::{Atom, CmpOp, FilterPruner, Formula};
use cheetah_core::groupby::{Extremum, GroupByPruner};
use cheetah_core::topn::RandomizedTopN;

use cheetah_engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah_engine::serve::ServeExecutor;
use cheetah_engine::stream::EntryStream;
use cheetah_engine::{
    Agg, CostModel, Database, DistributedExecutor, Executor, FailurePlan, FetchSpec, Predicate,
    Query, ShardedExecutor, Table, ThreadedExecutor,
};

use cheetah_workloads::dist::rng_for;
use cheetah_workloads::wide::{WideTable, WideTableConfig};
use rand::Rng;

use crate::bigdata_db;

/// The streaming microbench operators (the ISSUE's ≥2× targets are
/// `filter`, `topn` and `groupby`; `distinct` rides along).
pub const MICRO_OPS: [&str; 4] = ["filter", "topn", "groupby", "distinct"];

/// A three-column table shaped like the pruning workloads: a bounded key
/// domain, a wide value domain, and a secondary value column.
pub fn micro_table(rows: usize, seed: u64) -> Table {
    let mut rng = rng_for(seed, "streaming-bench");
    Table::new(
        "stream",
        vec![
            (
                "k",
                (0..rows).map(|_| rng.gen_range(1..=10_000u64)).collect(),
            ),
            (
                "v",
                (0..rows).map(|_| rng.gen_range(1..=1_000_000u64)).collect(),
            ),
            ("w", (0..rows).map(|_| rng.gen_range(1..=500u64)).collect()),
        ],
    )
}

/// Metadata columns each operator streams (indices into [`micro_table`]).
pub fn micro_columns(op: &str) -> Vec<usize> {
    match op {
        "filter" => vec![1, 2],  // v, w
        "topn" => vec![1],       // ORDER BY v
        "groupby" => vec![0, 1], // key k, value v
        "distinct" => vec![0],   // k
        other => panic!("unknown micro op '{other}'"),
    }
}

/// A fresh pruner for the operator at Table 2-ish defaults.
pub fn micro_pruner(op: &str) -> Box<dyn RowPruner + Send> {
    match op {
        "filter" => Box::new(
            FilterPruner::new(
                vec![
                    Atom::cmp(0, CmpOp::Lt, 400_000),
                    Atom::cmp(1, CmpOp::Gt, 450),
                    Atom::cmp(0, CmpOp::Ne, 7),
                ],
                Formula::Or(vec![
                    Formula::Atom(0),
                    Formula::And(vec![Formula::Atom(1), Formula::Atom(2)]),
                ]),
            )
            .expect("filter compiles"),
        ),
        "topn" => Box::new(RandomizedTopN::new(4096, 4, 0)),
        "groupby" => Box::new(GroupByPruner::new(4096, 8, Extremum::Max, 0)),
        "distinct" => Box::new(DistinctPruner::new(4096, 2, EvictionPolicy::Lru, 0)),
        other => panic!("unknown micro op '{other}'"),
    }
}

/// The legacy hot path this refactor replaced: interleave into one heap
/// `Vec<u64>` per row, then drive the pruner row at a time. Kept here as
/// the criterion/JSON comparison baseline.
pub fn row_path(
    table: &Table,
    columns: &[usize],
    workers: usize,
    pruner: &mut dyn RowPruner,
) -> u64 {
    let bounds = table.partition_bounds(workers);
    let mut cursors: Vec<usize> = bounds.iter().map(|(s, _)| *s).collect();
    let mut entries: Vec<(u64, Vec<u64>)> = Vec::with_capacity(table.rows());
    let mut remaining = table.rows();
    while remaining > 0 {
        for (w, &(_, end)) in bounds.iter().enumerate() {
            if cursors[w] < end {
                let r = cursors[w];
                cursors[w] += 1;
                remaining -= 1;
                let vals = columns.iter().map(|&c| table.col_at(c)[r]).collect();
                entries.push((r as u64, vals));
            }
        }
    }
    let mut stats = PruneStats::default();
    for (_, vals) in &entries {
        stats.record(pruner.process_row(vals));
    }
    stats.forwarded()
}

/// The block path: flat [`EntryStream`] + `process_block`, identical
/// decisions to [`row_path`] for the same pruner state.
pub fn block_path(
    table: &Table,
    columns: &[usize],
    workers: usize,
    pruner: &mut dyn RowPruner,
) -> u64 {
    let stream = EntryStream::interleaved(table, columns, workers);
    let mut stats = PruneStats::default();
    let mut forwarded = 0u64;
    stream.prune(pruner, &mut stats, |_, _| forwarded += 1);
    debug_assert_eq!(forwarded, stats.forwarded());
    stats.forwarded()
}

/// One microbench comparison: best-of-`reps` wall clock per path.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Operator name.
    pub op: String,
    /// Legacy layout throughput.
    pub row_rows_per_sec: f64,
    /// Block layout throughput.
    pub block_rows_per_sec: f64,
}

impl MicroResult {
    /// Block-over-row throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.block_rows_per_sec / self.row_rows_per_sec
    }
}

fn best_of<F: FnMut() -> u64>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Run every microbench comparison at `rows` scale.
pub fn run_micro(rows: usize, reps: usize) -> Vec<MicroResult> {
    let table = micro_table(rows, 1);
    let workers = 5;
    MICRO_OPS
        .iter()
        .map(|op| {
            let cols = micro_columns(op);
            let row_s = best_of(reps, || {
                let mut p = micro_pruner(op);
                row_path(&table, &cols, workers, p.as_mut())
            });
            let block_s = best_of(reps, || {
                let mut p = micro_pruner(op);
                block_path(&table, &cols, workers, p.as_mut())
            });
            MicroResult {
                op: (*op).to_string(),
                row_rows_per_sec: rows as f64 / row_s,
                block_rows_per_sec: rows as f64 / block_s,
            }
        })
        .collect()
}

/// One engine query's measured streaming throughput.
#[derive(Debug, Clone)]
pub struct QueryBench {
    /// Query label.
    pub name: String,
    /// Entries the switch processed (all passes).
    pub entries: u64,
    /// Entries per second of wall clock (warm run, best of reps).
    pub rows_per_sec: f64,
    /// Fraction of entries the switch pruned.
    pub prune_rate: f64,
    /// Wall-clock seconds of the measured run.
    pub wall_s: f64,
}

/// The per-query engine benchmark: Big Data tables through the warm
/// `CheetahExecutor` (real pruning, measured wall clock).
pub fn run_queries(uv_rows: usize, reps: usize) -> Vec<QueryBench> {
    let db = bigdata_db(uv_rows, uv_rows / 5, 2_000, 0.5, 42);
    let exec = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    let queries: Vec<(&str, Query)> = vec![
        (
            "filter_count",
            Query::FilterCount {
                table: "uservisits".into(),
                predicate: Predicate {
                    columns: vec!["adRevenue".into(), "duration".into()],
                    atoms: vec![
                        Atom::cmp(0, CmpOp::Lt, 1_000),
                        Atom::cmp(1, CmpOp::Gt, 5_000),
                    ],
                    formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
                },
            },
        ),
        (
            "distinct",
            Query::Distinct {
                table: "uservisits".into(),
                column: "userAgent".into(),
            },
        ),
        (
            // The deterministic counterpart of the threaded
            // `distinct_multi` row: serial fingerprint lane + switch
            // dedup + master tuple dedup on one thread.
            "distinct_multi",
            Query::DistinctMulti {
                table: "uservisits".into(),
                columns: vec!["userAgent".into(), "languageCode".into()],
            },
        ),
        (
            "topn",
            Query::TopN {
                table: "uservisits".into(),
                order_by: "adRevenue".into(),
                n: 250,
            },
        ),
        (
            "groupby_max",
            Query::GroupBy {
                table: "uservisits".into(),
                key: "userAgent".into(),
                val: "adRevenue".into(),
                agg: Agg::Max,
            },
        ),
        (
            "groupby_sum",
            Query::GroupBy {
                table: "uservisits".into(),
                key: "sourcePrefix".into(),
                val: "adRevenue".into(),
                agg: Agg::Sum,
            },
        ),
        (
            "having",
            Query::Having {
                table: "uservisits".into(),
                key: "languageCode".into(),
                val: "adRevenue".into(),
                threshold: 2_000_000,
            },
        ),
        (
            "join",
            Query::Join {
                left: "uservisits".into(),
                right: "rankings".into(),
                left_col: "destURL".into(),
                right_col: "pageURL".into(),
            },
        ),
        (
            "skyline",
            Query::Skyline {
                table: "rankings".into(),
                columns: vec!["pageRankShuffled".into(), "avgDuration".into()],
            },
        ),
    ];
    queries
        .into_iter()
        .map(|(name, q)| {
            // Warm once (page in the tables), then take the best rep.
            let mut report = exec.execute(&db, &q);
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                report = std::hint::black_box(exec.execute(&db, &q));
                best = best.min(t0.elapsed().as_secs_f64());
            }
            let stats = report.prune_stats();
            QueryBench {
                name: name.to_string(),
                entries: stats.processed,
                rows_per_sec: stats.processed as f64 / best,
                prune_rate: stats.pruned_fraction(),
                wall_s: best,
            }
        })
        .collect()
}

/// One threaded multi-pass query's measured dataflow: the persistent
/// worker pool, staged pruners, watermark-driven phase flips.
#[derive(Debug, Clone)]
pub struct MultipassBench {
    /// Query label.
    pub name: String,
    /// Streaming passes over the data (JOIN/HAVING take two).
    pub passes: u32,
    /// Entries the switch decided (HAVING counts both passes; JOIN's
    /// build pass makes no decisions, so only the probe pass counts).
    pub entries: u64,
    /// Entries per second of measured wall clock (best of reps).
    pub rows_per_sec: f64,
    /// Measured wall-clock seconds of the whole threaded run.
    pub wall_s: f64,
    /// Per-pass switch spans (seconds) of the best run, from
    /// `ExecutionReport::pass_walls`.
    pub pass_walls: Vec<f64>,
}

/// The multi-pass query set for threaded measurements.
fn multipass_queries() -> Vec<(&'static str, Query)> {
    vec![
        (
            "join",
            Query::Join {
                left: "uservisits".into(),
                right: "rankings".into(),
                left_col: "destURL".into(),
                right_col: "pageURL".into(),
            },
        ),
        (
            "having",
            Query::Having {
                table: "uservisits".into(),
                key: "languageCode".into(),
                val: "adRevenue".into(),
                threshold: 2_000_000,
            },
        ),
        (
            "filter_fetch",
            Query::Filter {
                table: "uservisits".into(),
                predicate: Predicate {
                    columns: vec!["adRevenue".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, 100)],
                    formula: Formula::Atom(0),
                },
            },
        ),
        (
            "distinct_multi",
            Query::DistinctMulti {
                table: "uservisits".into(),
                columns: vec!["userAgent".into(), "languageCode".into()],
            },
        ),
        (
            "groupby_sum",
            Query::GroupBy {
                table: "uservisits".into(),
                key: "sourcePrefix".into(),
                val: "adRevenue".into(),
                agg: Agg::Sum,
            },
        ),
    ]
}

/// Run `query` once warm plus `reps` more times through a wall-measuring
/// executor (threaded or sharded), returning the report with the
/// smallest measured wall and that wall in seconds.
fn best_measured_run<E: Executor>(
    exec: &E,
    db: &cheetah_engine::Database,
    query: &Query,
    reps: usize,
) -> (cheetah_engine::ExecutionReport, f64) {
    let mut report = exec.execute(db, query);
    let mut best = report.wall.expect("executor measures wall").as_secs_f64();
    for _ in 0..reps {
        let r = std::hint::black_box(exec.execute(db, query));
        let wall = r.wall.expect("executor measures wall").as_secs_f64();
        if wall < best {
            best = wall;
            report = r;
        }
    }
    (report, best)
}

/// The threaded multi-pass benchmark: JOIN, HAVING, Filter fetch,
/// DistinctMulti and GROUP BY SUM on the persistent worker pool, with
/// measured wall clock and per-pass switch spans.
pub fn run_threaded_multipass(uv_rows: usize, reps: usize) -> Vec<MultipassBench> {
    let db = bigdata_db(uv_rows, uv_rows / 5, 2_000, 0.5, 42);
    let exec = ThreadedExecutor::new(CheetahExecutor::new(
        CostModel::default(),
        PrunerConfig::default(),
    ));
    multipass_queries()
        .into_iter()
        .map(|(name, q)| {
            let (report, best) = best_measured_run(&exec, &db, &q, reps);
            let stats = report.prune_stats();
            MultipassBench {
                name: name.to_string(),
                passes: report.passes,
                entries: stats.processed,
                rows_per_sec: stats.processed as f64 / best,
                wall_s: best,
                pass_walls: report.pass_walls.iter().map(|w| w.as_secs_f64()).collect(),
            }
        })
        .collect()
}

/// One cell of the worker-count sweep.
#[derive(Debug, Clone)]
pub struct WorkerScaling {
    /// Query label (`join`, `having`, `distinct_multi`).
    pub name: String,
    /// Pool size this cell ran with.
    pub workers: usize,
    /// Entries per second of measured wall clock (best of reps).
    pub rows_per_sec: f64,
    /// Measured wall-clock seconds, best of reps.
    pub wall_s: f64,
}

/// Sweep the threaded pool size over {1, 2, 4} workers for the
/// pruning-heavy multi-pass shapes — the measured basis for the planner's
/// worker-count grid (`PlanContext::adaptive_workers`).
pub fn run_worker_scaling(uv_rows: usize, reps: usize) -> Vec<WorkerScaling> {
    let db = bigdata_db(uv_rows, uv_rows / 5, 2_000, 0.5, 42);
    let sweep_queries: Vec<(&str, Query)> = multipass_queries()
        .into_iter()
        .filter(|(n, _)| matches!(*n, "join" | "having" | "distinct_multi"))
        .collect();
    let mut out = Vec::new();
    for workers in [1usize, 2, 4] {
        let exec = ThreadedExecutor::new(CheetahExecutor::new(
            CostModel {
                workers,
                ..CostModel::default()
            },
            PrunerConfig::default(),
        ));
        for (name, q) in &sweep_queries {
            let (report, best) = best_measured_run(&exec, &db, q, reps);
            out.push(WorkerScaling {
                name: (*name).to_string(),
                workers,
                rows_per_sec: report.prune_stats().processed as f64 / best,
                wall_s: best,
            });
        }
    }
    out
}

/// One cell of the shard-count sweep.
#[derive(Debug, Clone)]
pub struct ShardScaling {
    /// Query label (`join`, `groupby_sum`, `distinct_multi`).
    pub name: String,
    /// Shard count this cell ran with.
    pub shards: usize,
    /// Entries per second of measured wall clock (best of reps).
    pub rows_per_sec: f64,
    /// Measured wall-clock seconds, best of reps.
    pub wall_s: f64,
    /// Measured serial combine tail (seconds) of the best run, from
    /// `ExecutionReport::combine_wall` — only the master's result
    /// canonicalization after the reduction root yields, since the shard
    /// merges themselves overlap the switch phases.
    pub combine_wall_s: f64,
    /// Per-node reduction-tree merge spans (seconds) of the best run,
    /// from `ExecutionReport::merge_walls` (ascending node index). These
    /// overlap each other and the still-streaming shards, so their sum
    /// is tree work, not critical-path wall.
    pub merge_walls: Vec<f64>,
}

/// Sweep the sharded multi-switch executor over {1, 2, 4, 8} shards for
/// the combine-heavy shapes (`join`, `groupby_sum`, `distinct_multi`) —
/// the measured basis for shard-count planning
/// (`PlanContext::planned_shards`).
pub fn run_shard_scaling(uv_rows: usize, reps: usize) -> Vec<ShardScaling> {
    let db = bigdata_db(uv_rows, uv_rows / 5, 2_000, 0.5, 42);
    let sweep_queries: Vec<(&str, Query)> = multipass_queries()
        .into_iter()
        .filter(|(n, _)| matches!(*n, "join" | "groupby_sum" | "distinct_multi"))
        .collect();
    let mut out = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let exec = ShardedExecutor::with_shards(
            CheetahExecutor::new(CostModel::default(), PrunerConfig::default()),
            shards,
        );
        for (name, q) in &sweep_queries {
            let mut report = exec.execute(&db, q);
            let mut best = report.wall.expect("sharded measures wall").as_secs_f64();
            for _ in 0..reps {
                let r = std::hint::black_box(exec.execute(&db, q));
                let wall = r.wall.expect("sharded measures wall").as_secs_f64();
                if wall < best {
                    best = wall;
                    report = r;
                }
            }
            out.push(ShardScaling {
                name: (*name).to_string(),
                shards,
                rows_per_sec: report.prune_stats().processed as f64 / best,
                wall_s: best,
                combine_wall_s: report
                    .combine_wall
                    .expect("sharded measures the combine")
                    .as_secs_f64(),
                merge_walls: report.merge_walls.iter().map(|w| w.as_secs_f64()).collect(),
            });
        }
    }
    out
}

/// One cell of the cost-based planner sweep.
#[derive(Debug, Clone)]
pub struct PlannerCell {
    /// Query label (the threaded multipass shapes).
    pub name: String,
    /// Executor arm the planner chose.
    pub arm: String,
    /// Worker count the plan ran with.
    pub workers: usize,
    /// Shard count the plan ran with.
    pub shards: usize,
    /// The plan's predicted wall-clock seconds.
    pub predicted_wall_s: f64,
    /// Measured wall-clock seconds, best of reps.
    pub wall_s: f64,
    /// `measured / predicted` for the best run — the planner's
    /// estimate-vs-actual honesty number.
    pub misprediction: f64,
    /// Entries per second of measured wall clock (best of reps).
    pub rows_per_sec: f64,
}

/// Sweep the cost-based planner over every threaded multipass shape: the
/// planner probes, races its candidate arms, executes the winner, and
/// reports predicted vs measured wall. `scripts/bench_check.sh` gates
/// the chosen arm's wall against the best static arm from the
/// `worker_scaling[]`/`shard_scaling[]` sweeps.
pub fn run_planner_sweep(uv_rows: usize, reps: usize) -> Vec<PlannerCell> {
    let db = bigdata_db(uv_rows, uv_rows / 5, 2_000, 0.5, 42);
    let exec = cheetah_engine::PlannerExecutor::new(CheetahExecutor::new(
        CostModel::default(),
        PrunerConfig::default(),
    ));
    multipass_queries()
        .into_iter()
        .map(|(name, q)| {
            let (report, best) = best_measured_run(&exec, &db, &q, reps);
            let plan = report.plan.clone().expect("planner reports its plan");
            PlannerCell {
                name: name.to_string(),
                arm: plan.arm.to_string(),
                workers: plan.workers,
                shards: plan.shards,
                predicted_wall_s: plan.predicted_s,
                wall_s: best,
                misprediction: plan.misprediction(),
                rows_per_sec: report.prune_stats().processed as f64 / best,
            }
        })
        .collect()
}

/// One cell of the wire-protocol resilience sweep.
#[derive(Debug, Clone)]
pub struct NetResilience {
    /// Query label (`join`, `groupby_sum`, `distinct_multi`).
    pub name: String,
    /// Injected per-hop packet loss rate this cell ran with.
    pub loss_rate: f64,
    /// Entries per second of measured wall clock (best of reps).
    pub rows_per_sec: f64,
    /// Measured wall-clock seconds, best of reps.
    pub wall_s: f64,
    /// Whole-shard session retries the loss forced (best run).
    pub retries: u64,
    /// Packet retransmissions inside sessions (best run).
    pub retransmissions: u64,
    /// Total shard ship sessions, including retries (best run).
    pub ship_attempts: u64,
}

/// Sweep the distributed executor over loss ∈ {0, 0.05, 0.2} for the
/// combine-heavy shapes: the cost of running shard results over the §7.2
/// reliability protocol, and what packet loss does to it. Results are
/// asserted exact against the deterministic path inside the executor's
/// test suite; here we only measure.
pub fn run_net_resilience(uv_rows: usize, reps: usize) -> Vec<NetResilience> {
    let db = bigdata_db(uv_rows, uv_rows / 5, 2_000, 0.5, 42);
    let sweep_queries: Vec<(&str, Query)> = multipass_queries()
        .into_iter()
        .filter(|(n, _)| matches!(*n, "join" | "groupby_sum" | "distinct_multi"))
        .collect();
    let mut out = Vec::new();
    for loss in [0.0f64, 0.05, 0.2] {
        let plan = FailurePlan {
            loss_rate: loss,
            seed: 42,
            ..FailurePlan::default()
        };
        let exec = DistributedExecutor::with_failure_plan(
            CheetahExecutor::new(CostModel::default(), PrunerConfig::default()),
            2,
            plan,
        );
        for (name, q) in &sweep_queries {
            let (report, best) = best_measured_run(&exec, &db, q, reps);
            let res = report
                .resilience
                .as_ref()
                .expect("distributed runs report resilience");
            out.push(NetResilience {
                name: (*name).to_string(),
                loss_rate: loss,
                rows_per_sec: report.prune_stats().processed as f64 / best,
                wall_s: best,
                retries: res.retries,
                retransmissions: res.retransmissions,
                ship_attempts: res.ship_attempts,
            });
        }
    }
    out
}

/// One cell of the concurrent-serving sweep.
#[derive(Debug, Clone)]
pub struct ServingCell {
    /// Queries admitted in the batch (the concurrency level N).
    pub concurrent: usize,
    /// Aggregate queries per second of the best measured batch.
    pub queries_per_sec: f64,
    /// Cache hit rate of the best measured batch. The executor is warmed
    /// with one prior admission of the same mix, so every repeated
    /// HAVING/JOIN predicate in the measured run replays cached filter
    /// state deterministically (1.0 once the mix contains cacheable
    /// shapes, 0.0 at N=1 where it doesn't).
    pub cache_hit_rate: f64,
    /// Admissions answered by an equal earlier query's execution
    /// (`packed + solo + coalesced == concurrent`).
    pub coalesced: u64,
    /// Queries that shared a packed scan.
    pub packed: u64,
    /// Queries dispatched solo (includes spills).
    pub solo: u64,
    /// Shareable queries the switch budget rejected.
    pub spilled: u64,
    /// Shared switch passes the batch collapsed into.
    pub shared_scans: u64,
    /// Measured wall-clock seconds of the best batch.
    pub wall_s: f64,
}

/// The repeated-predicate serving mix: four shareable single-pass shapes
/// on `uservisits` plus the two cacheable two-pass shapes, cycled to the
/// batch size — so any N ≥ 8 re-admits every predicate at least once.
fn serving_mix() -> Vec<Query> {
    vec![
        Query::FilterCount {
            table: "uservisits".into(),
            predicate: Predicate {
                columns: vec!["adRevenue".into(), "duration".into()],
                atoms: vec![
                    Atom::cmp(0, CmpOp::Lt, 1_000),
                    Atom::cmp(1, CmpOp::Gt, 5_000),
                ],
                formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
            },
        },
        Query::Distinct {
            table: "uservisits".into(),
            column: "userAgent".into(),
        },
        Query::TopN {
            table: "uservisits".into(),
            order_by: "adRevenue".into(),
            n: 250,
        },
        Query::GroupBy {
            table: "uservisits".into(),
            key: "userAgent".into(),
            val: "adRevenue".into(),
            agg: Agg::Max,
        },
        Query::Having {
            table: "uservisits".into(),
            key: "languageCode".into(),
            val: "adRevenue".into(),
            threshold: 2_000_000,
        },
        Query::Join {
            left: "uservisits".into(),
            right: "rankings".into(),
            left_col: "destURL".into(),
            right_col: "pageURL".into(),
        },
    ]
}

/// Sweep the serving layer over N ∈ {1, 8, 32, 128} concurrent queries of
/// the repeated-predicate mix: one admission per batch, packed shapes
/// sharing scans, cacheable shapes replaying warmed filter state, the
/// rest on the dispatch pool. Each cell is the best of `reps` measured
/// batches on a warmed executor.
pub fn run_concurrent_serving(uv_rows: usize, reps: usize) -> Vec<ServingCell> {
    let db = bigdata_db(uv_rows, uv_rows / 5, 2_000, 0.5, 42);
    let mix = serving_mix();
    let mut out = Vec::new();
    for n in [1usize, 8, 32, 128] {
        let batch: Vec<Query> = (0..n).map(|i| mix[i % mix.len()].clone()).collect();
        let exec = ServeExecutor::with_pool(
            CheetahExecutor::new(CostModel::default(), PrunerConfig::default()),
            4,
        );
        // Warm run: faults in the tables and populates the filter cache,
        // so the measured reps have deterministic hit rates.
        exec.serve(&db, &batch);
        let (_, mut best) = exec.serve(&db, &batch);
        for _ in 1..reps {
            let (_, agg) = exec.serve(&db, &batch);
            if agg.wall < best.wall {
                best = agg;
            }
        }
        out.push(ServingCell {
            concurrent: n,
            queries_per_sec: best.queries_per_sec(),
            cache_hit_rate: best.cache_hit_rate(),
            coalesced: best.coalesced,
            packed: best.packed,
            solo: best.solo,
            spilled: best.spilled,
            shared_scans: best.shared_scans,
            wall_s: best.wall.as_secs_f64(),
        });
    }
    out
}

/// One projection-pushdown cell: a Filter-with-fetch run on a narrow or
/// wide table under the full-row vs referenced-lanes fetch projection.
#[derive(Debug, Clone)]
pub struct ProjectionCell {
    /// Workload label (`narrow` / `wide`).
    pub workload: String,
    /// Fetch mode (`full` / `pruned`).
    pub mode: String,
    /// Total table columns.
    pub table_cols: usize,
    /// Columns the fetch actually materialized (the projection width).
    pub referenced_cols: usize,
    /// Rows the §7.1 late materialization fetched.
    pub fetch_rows: u64,
    /// Bytes the fetch materialized: `fetch_rows × projection width × 8`
    /// (analytic, machine-independent).
    pub bytes_materialized: u64,
    /// Table rows per second of wall clock (best of reps).
    pub rows_per_sec: f64,
    /// Wall-clock seconds of the measured run.
    pub wall_s: f64,
}

/// A `Database` holding one wide table named `wide`.
fn wide_db(rows: usize, cols: usize, seed: u64) -> Database {
    let wt = WideTable::generate(WideTableConfig { rows, cols, seed });
    let names = wt.names.clone();
    let pairs: Vec<(&str, Vec<u64>)> = names.iter().map(String::as_str).zip(wt.columns).collect();
    let mut db = Database::new();
    db.add(Table::new("wide", pairs));
    db
}

/// The projection-pushdown benchmark: the same fetch-heavy Filter
/// (two referenced columns, ~60% selective, so the §7.1 fetch dominates)
/// over a narrow and a wide table, under [`FetchSpec::All`] (the seed
/// behavior: every lane materializes) and [`FetchSpec::Referenced`]
/// (only the lanes the query touches). Row ids are asserted identical
/// across modes — projection changes what the fetch carries, never the
/// result.
pub fn run_projection_pushdown(rows: usize, reps: usize) -> Vec<ProjectionCell> {
    let query = Query::Filter {
        table: "wide".into(),
        predicate: Predicate {
            columns: vec!["c000".into(), "c001".into()],
            atoms: vec![Atom::cmp(0, CmpOp::Lt, 600), Atom::cmp(1, CmpOp::Le, 48)],
            formula: Formula::And(vec![Formula::Atom(0), Formula::Atom(1)]),
        },
    };
    let mut out = Vec::new();
    for (workload, table_cols) in [("narrow", 8usize), ("wide", 120usize)] {
        let db = wide_db(rows, table_cols, 11);
        let t = db.table("wide");
        let mut results = Vec::new();
        for (mode, spec) in [("full", FetchSpec::All), ("pruned", FetchSpec::Referenced)] {
            let exec = CheetahExecutor::new(
                CostModel::default(),
                PrunerConfig {
                    fetch: spec.clone(),
                    ..PrunerConfig::default()
                },
            );
            let mut fetch_rows = 0u64;
            let wall = best_of(reps, || {
                let report = exec.execute(&db, &query);
                fetch_rows = report.fetch_rows;
                results.push(report.result);
                fetch_rows
            });
            let proj = query.projection(t, &spec);
            out.push(ProjectionCell {
                workload: workload.to_string(),
                mode: mode.to_string(),
                table_cols,
                referenced_cols: proj.width(),
                fetch_rows,
                bytes_materialized: fetch_rows * proj.bytes_per_row(),
                rows_per_sec: rows as f64 / wall,
                wall_s: wall,
            });
        }
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "projection changed the Filter result on the {workload} table"
        );
    }
    out
}

/// Render the benchmark snapshot as JSON (no external deps: the format is
/// flat enough to emit by hand).
#[allow(clippy::too_many_arguments)] // one slice per snapshot section
pub fn to_json(
    rows: usize,
    micro: &[MicroResult],
    queries: &[QueryBench],
    multipass: &[MultipassBench],
    scaling: &[WorkerScaling],
    shard_scaling: &[ShardScaling],
    planner: &[PlannerCell],
    net_resilience: &[NetResilience],
    concurrent_serving: &[ServingCell],
    projection_pushdown: &[ProjectionCell],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"streaming\",\n");
    out.push_str(&format!("  \"micro_rows\": {rows},\n"));
    out.push_str("  \"microbench\": [\n");
    for (i, m) in micro.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"row_rows_per_sec\": {:.0}, \"block_rows_per_sec\": {:.0}, \"speedup\": {:.2}}}{}\n",
            m.op,
            m.row_rows_per_sec,
            m.block_rows_per_sec,
            m.speedup(),
            if i + 1 < micro.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"queries\": [\n");
    for (i, q) in queries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"entries\": {}, \"rows_per_sec\": {:.0}, \"prune_rate\": {:.4}, \"wall_s\": {:.6}}}{}\n",
            q.name,
            q.entries,
            q.rows_per_sec,
            q.prune_rate,
            q.wall_s,
            if i + 1 < queries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"threaded_multipass\": [\n");
    for (i, q) in multipass.iter().enumerate() {
        let walls = q
            .pass_walls
            .iter()
            .map(|w| format!("{w:.6}"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"passes\": {}, \"entries\": {}, \"rows_per_sec\": {:.0}, \"wall_s\": {:.6}, \"pass_walls\": [{}]}}{}\n",
            q.name,
            q.passes,
            q.entries,
            q.rows_per_sec,
            q.wall_s,
            walls,
            if i + 1 < multipass.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"worker_scaling\": [\n");
    for (i, c) in scaling.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"workers\": {}, \"rows_per_sec\": {:.0}, \"wall_s\": {:.6}}}{}\n",
            c.name,
            c.workers,
            c.rows_per_sec,
            c.wall_s,
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"shard_scaling\": [\n");
    for (i, c) in shard_scaling.iter().enumerate() {
        let merges = c
            .merge_walls
            .iter()
            .map(|w| format!("{w:.6}"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"shards\": {}, \"rows_per_sec\": {:.0}, \"wall_s\": {:.6}, \"combine_wall_s\": {:.6}, \"merge_walls\": [{}]}}{}\n",
            c.name,
            c.shards,
            c.rows_per_sec,
            c.wall_s,
            c.combine_wall_s,
            merges,
            if i + 1 < shard_scaling.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"planner\": [\n");
    for (i, c) in planner.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"arm\": \"{}\", \"workers\": {}, \"shards\": {}, \"predicted_wall_s\": {:.6}, \"wall_s\": {:.6}, \"misprediction\": {:.3}, \"rows_per_sec\": {:.0}}}{}\n",
            c.name,
            c.arm,
            c.workers,
            c.shards,
            c.predicted_wall_s,
            c.wall_s,
            c.misprediction,
            c.rows_per_sec,
            if i + 1 < planner.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"net_resilience\": [\n");
    for (i, c) in net_resilience.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"loss_rate\": {:.2}, \"rows_per_sec\": {:.0}, \"wall_s\": {:.6}, \"retries\": {}, \"retransmissions\": {}, \"ship_attempts\": {}}}{}\n",
            c.name,
            c.loss_rate,
            c.rows_per_sec,
            c.wall_s,
            c.retries,
            c.retransmissions,
            c.ship_attempts,
            if i + 1 < net_resilience.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"concurrent_serving\": [\n");
    for (i, c) in concurrent_serving.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"concurrent\": {}, \"queries_per_sec\": {:.0}, \"cache_hit_rate\": {:.4}, \"coalesced\": {}, \"packed\": {}, \"solo\": {}, \"spilled\": {}, \"shared_scans\": {}, \"wall_s\": {:.6}}}{}\n",
            c.concurrent,
            c.queries_per_sec,
            c.cache_hit_rate,
            c.coalesced,
            c.packed,
            c.solo,
            c.spilled,
            c.shared_scans,
            c.wall_s,
            if i + 1 < concurrent_serving.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"projection_pushdown\": [\n");
    for (i, c) in projection_pushdown.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"mode\": \"{}\", \"table_cols\": {}, \"referenced_cols\": {}, \"fetch_rows\": {}, \"bytes_materialized\": {}, \"rows_per_sec\": {:.0}, \"wall_s\": {:.6}}}{}\n",
            c.workload,
            c.mode,
            c.table_cols,
            c.referenced_cols,
            c.fetch_rows,
            c.bytes_materialized,
            c.rows_per_sec,
            c.wall_s,
            if i + 1 < projection_pushdown.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Run the full streaming benchmark and write `path` (the `--json` mode).
/// Returns the rendered JSON for display. The schema is documented in
/// `docs/BENCHMARKS.md`.
pub fn write_bench_json(path: &str) -> std::io::Result<String> {
    let micro_rows = 400_000;
    let micro = run_micro(micro_rows, 3);
    let queries = run_queries(200_000, 3);
    let multipass = run_threaded_multipass(200_000, 3);
    let scaling = run_worker_scaling(200_000, 3);
    let shard_scaling = run_shard_scaling(200_000, 3);
    let planner = run_planner_sweep(200_000, 3);
    let net_resilience = run_net_resilience(100_000, 3);
    let concurrent_serving = run_concurrent_serving(100_000, 3);
    let projection = run_projection_pushdown(60_000, 3);
    let json = to_json(
        micro_rows,
        &micro,
        &queries,
        &multipass,
        &scaling,
        &shard_scaling,
        &planner,
        &net_resilience,
        &concurrent_serving,
        &projection,
    );
    std::fs::write(path, &json)?;
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_and_block_paths_forward_identically() {
        let table = micro_table(20_000, 3);
        for op in MICRO_OPS {
            let cols = micro_columns(op);
            let mut a = micro_pruner(op);
            let mut b = micro_pruner(op);
            assert_eq!(
                row_path(&table, &cols, 5, a.as_mut()),
                block_path(&table, &cols, 5, b.as_mut()),
                "{op}: layouts must forward the same entries"
            );
        }
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let micro = run_micro(5_000, 1);
        let queries = run_queries(5_000, 1);
        let multipass = run_threaded_multipass(5_000, 1);
        let scaling = run_worker_scaling(5_000, 1);
        let shard_scaling = run_shard_scaling(5_000, 1);
        let planner = run_planner_sweep(5_000, 1);
        let net_resilience = run_net_resilience(5_000, 1);
        let concurrent_serving = run_concurrent_serving(5_000, 1);
        let projection = run_projection_pushdown(5_000, 1);
        let json = to_json(
            5_000,
            &micro,
            &queries,
            &multipass,
            &scaling,
            &shard_scaling,
            &planner,
            &net_resilience,
            &concurrent_serving,
            &projection,
        );
        assert!(json.contains("\"microbench\""));
        assert!(json.contains("\"queries\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"threaded_multipass\""));
        assert!(json.contains("\"worker_scaling\""));
        assert!(json.contains("\"shard_scaling\""));
        assert!(json.contains("\"net_resilience\""));
        assert!(json.contains("\"loss_rate\""));
        assert!(json.contains("\"ship_attempts\""));
        assert!(json.contains("\"concurrent_serving\""));
        assert!(json.contains("\"cache_hit_rate\""));
        assert!(json.contains("\"shared_scans\""));
        assert!(json.contains("\"projection_pushdown\""));
        assert!(json.contains("\"bytes_materialized\""));
        for cell in ["narrow", "wide"].iter().flat_map(|w| {
            ["full", "pruned"]
                .iter()
                .map(move |m| format!("\"workload\": \"{w}\", \"mode\": \"{m}\""))
        }) {
            assert!(json.contains(&cell), "missing projection cell {cell}");
        }
        for n in [1usize, 8, 32, 128] {
            assert!(
                json.contains(&format!("\"concurrent\": {n}, \"queries_per_sec\"")),
                "missing concurrent_serving cell for N={n}"
            );
        }
        assert!(json.contains("\"combine_wall_s\""));
        assert!(json.contains("\"merge_walls\""));
        assert!(json.contains("\"pass_walls\""));
        // Balanced braces/brackets — cheap structural sanity.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for op in MICRO_OPS {
            assert!(json.contains(&format!("\"op\": \"{op}\"")));
        }
        assert!(
            json.contains("\"name\": \"distinct_multi\", \"entries\""),
            "deterministic queries[] must carry the distinct_multi counterpart"
        );
        for name in [
            "join",
            "having",
            "filter_fetch",
            "distinct_multi",
            "groupby_sum",
        ] {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"passes\"")),
                "missing threaded multipass row for {name}"
            );
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"arm\"")),
                "missing planner row for {name}"
            );
        }
        assert!(json.contains("\"planner\""));
        assert!(json.contains("\"predicted_wall_s\""));
        assert!(json.contains("\"misprediction\""));
    }

    #[test]
    fn planner_sweep_covers_every_shape_with_finite_mispredictions() {
        let cells = run_planner_sweep(3_000, 1);
        assert_eq!(cells.len(), 5, "one planner cell per multipass shape");
        for cell in &cells {
            assert!(
                matches!(
                    cell.name.as_str(),
                    "join" | "having" | "filter_fetch" | "distinct_multi" | "groupby_sum"
                ),
                "unexpected sweep query {}",
                cell.name
            );
            assert!(
                matches!(
                    cell.arm.as_str(),
                    "deterministic" | "threaded" | "sharded" | "distributed"
                ),
                "{}: unknown arm {}",
                cell.name,
                cell.arm
            );
            assert!([1, 2, 4, 8].contains(&cell.workers), "{}", cell.name);
            assert!([1, 2, 4, 8].contains(&cell.shards), "{}", cell.name);
            assert!(
                cell.wall_s > 0.0 && cell.rows_per_sec > 0.0,
                "{}",
                cell.name
            );
            assert!(
                cell.predicted_wall_s > 0.0 && cell.predicted_wall_s.is_finite(),
                "{}: predicted wall must be positive and finite",
                cell.name
            );
            assert!(
                cell.misprediction > 0.0 && cell.misprediction.is_finite(),
                "{}: misprediction must be positive and finite",
                cell.name
            );
        }
    }

    #[test]
    fn threaded_multipass_bench_measures_real_walls() {
        for b in run_threaded_multipass(4_000, 1) {
            assert!(b.wall_s > 0.0, "{}: wall clock must be measured", b.name);
            assert!(b.entries > 0, "{}: switch must process entries", b.name);
            // HAVING's 25 `languageCode` keys fit the GROUP BY
            // registers: one §6 pass. JOIN streams twice.
            let expected_passes = if b.name == "join" { 2 } else { 1 };
            assert_eq!(b.passes, expected_passes, "{}: pass count", b.name);
            assert_eq!(
                b.pass_walls.len(),
                b.passes as usize,
                "{}: one switch span per pass",
                b.name
            );
            assert!(
                b.pass_walls.iter().all(|&w| w > 0.0),
                "{}: pass spans must be measured",
                b.name
            );
        }
    }

    #[test]
    fn worker_scaling_sweeps_the_advertised_grid() {
        let cells = run_worker_scaling(3_000, 1);
        assert_eq!(cells.len(), 9, "3 worker counts × 3 queries");
        for cell in &cells {
            assert!([1, 2, 4].contains(&cell.workers));
            assert!(
                matches!(cell.name.as_str(), "join" | "having" | "distinct_multi"),
                "unexpected sweep query {}",
                cell.name
            );
            assert!(cell.wall_s > 0.0 && cell.rows_per_sec > 0.0);
        }
    }

    #[test]
    fn net_resilience_sweeps_the_advertised_grid() {
        let cells = run_net_resilience(3_000, 1);
        assert_eq!(cells.len(), 9, "3 loss rates × 3 queries");
        for cell in &cells {
            assert!([0.0, 0.05, 0.2].contains(&cell.loss_rate));
            assert!(
                matches!(
                    cell.name.as_str(),
                    "join" | "groupby_sum" | "distinct_multi"
                ),
                "unexpected sweep query {}",
                cell.name
            );
            assert!(cell.wall_s > 0.0 && cell.rows_per_sec > 0.0);
            assert!(cell.ship_attempts >= 1, "shipping must be accounted");
            if cell.loss_rate == 0.0 {
                assert_eq!(
                    cell.retransmissions, 0,
                    "{}: clean wire must not retransmit",
                    cell.name
                );
            }
        }
    }

    #[test]
    fn concurrent_serving_sweeps_the_advertised_grid() {
        let cells = run_concurrent_serving(3_000, 1);
        assert_eq!(cells.len(), 4, "N ∈ {{1, 8, 32, 128}}");
        for cell in &cells {
            assert!([1, 8, 32, 128].contains(&cell.concurrent));
            assert!(
                cell.wall_s > 0.0 && cell.queries_per_sec > 0.0,
                "N={}: batch wall must be measured",
                cell.concurrent
            );
            assert_eq!(
                cell.packed + cell.solo + cell.coalesced,
                cell.concurrent as u64,
                "N={}: admission must partition the batch",
                cell.concurrent
            );
            assert_eq!(
                cell.coalesced,
                cell.concurrent.saturating_sub(6) as u64,
                "N={}: the six-query mix executes once however often it cycles",
                cell.concurrent
            );
            assert!(cell.spilled <= cell.solo, "a spill runs solo: {cell:?}");
            if cell.concurrent == 1 {
                assert_eq!(cell.packed, 0, "a batch of one has nothing to pack");
                assert_eq!(cell.cache_hit_rate, 0.0, "the N=1 shape is not cacheable");
            } else {
                assert!(
                    cell.packed >= 2 && cell.shared_scans >= 1,
                    "N={}: the mix's single-pass shapes must share a scan: {cell:?}",
                    cell.concurrent
                );
                assert!(
                    cell.cache_hit_rate > 0.99,
                    "N={}: warmed repeated predicates must replay cached state \
                     (got {})",
                    cell.concurrent,
                    cell.cache_hit_rate
                );
            }
        }
    }

    #[test]
    fn projection_pushdown_sweeps_the_advertised_grid() {
        let cells = run_projection_pushdown(3_000, 1);
        assert_eq!(cells.len(), 4, "2 workloads × 2 fetch modes");
        for cell in &cells {
            assert!(
                matches!(cell.workload.as_str(), "narrow" | "wide"),
                "unexpected workload {}",
                cell.workload
            );
            assert!(cell.wall_s > 0.0 && cell.rows_per_sec > 0.0);
            assert!(cell.fetch_rows > 0, "the Filter must fetch survivors");
            match cell.mode.as_str() {
                "full" => assert_eq!(cell.referenced_cols, cell.table_cols),
                "pruned" => assert_eq!(cell.referenced_cols, 2, "c000 and c001"),
                other => panic!("unexpected fetch mode {other}"),
            }
        }
        let bytes = |w: &str, m: &str| {
            cells
                .iter()
                .find(|c| c.workload == w && c.mode == m)
                .expect("cell present")
                .bytes_materialized
        };
        // Same survivors either way, so the ratio is exactly the column
        // ratio: 120/2 on the wide table — far past the 4× floor.
        assert!(
            bytes("wide", "pruned") * 4 <= bytes("wide", "full"),
            "wide-table pruning must cut materialized bytes at least 4×"
        );
        assert_eq!(bytes("wide", "full") / bytes("wide", "pruned"), 60);
        assert!(bytes("narrow", "pruned") * 4 <= bytes("narrow", "full"));
    }

    #[test]
    fn shard_scaling_sweeps_the_advertised_grid_with_combine_walls() {
        let cells = run_shard_scaling(3_000, 1);
        assert_eq!(cells.len(), 12, "4 shard counts × 3 queries");
        for cell in &cells {
            assert!([1, 2, 4, 8].contains(&cell.shards));
            if cell.shards == 1 {
                assert!(cell.merge_walls.is_empty(), "one shard merges nothing");
            } else {
                assert!(
                    !cell.merge_walls.is_empty(),
                    "{} @ {} shards: tree merges must be measured",
                    cell.name,
                    cell.shards
                );
            }
            assert!(
                matches!(
                    cell.name.as_str(),
                    "join" | "groupby_sum" | "distinct_multi"
                ),
                "unexpected sweep query {}",
                cell.name
            );
            assert!(cell.wall_s > 0.0 && cell.rows_per_sec > 0.0);
            assert!(
                cell.combine_wall_s >= 0.0 && cell.combine_wall_s < cell.wall_s,
                "{} @ {} shards: combine span must be measured and inside \
                 the query wall",
                cell.name,
                cell.shards
            );
        }
    }
}
