//! Set-up of each workload — tables, reference results, executors — and
//! the timed unit of work, the *cell*: one executor arm × one query
//! shape, or one served batch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cheetah_core::decision::PruneStats;
use cheetah_engine::cheetah::PrunerConfig;
use cheetah_engine::reference;
use cheetah_engine::{
    CheetahExecutor, CostModel, Database, DistributedExecutor, ExecutionReport, Executor,
    FailurePlan, FetchSpec, Query, QueryResult, ServeExecutor, ServeReport, ShardedExecutor,
    ThreadedExecutor,
};

use crate::data::{self, Scale};
use crate::host;

/// Worker threads, shards and solo-pool width of every threaded arm:
/// the reference host's core count, never read from the environment.
pub const PARALLELISM: usize = 2;

/// Wire faults of the distributed arm.
pub const LOSS_RATE: f64 = 0.05;
pub const DUP_RATE: f64 = 0.01;

/// What a cell calls.
pub enum Work {
    /// One query through one executor.
    Query {
        exec: Box<dyn Executor>,
        query: Query,
        expected: QueryResult,
    },
    /// One served batch. `cold_cache` clears the filter cache before
    /// each batch, outside the timed span.
    Batch {
        exec: ServeExecutor,
        queries: Vec<Query>,
        expected: Vec<QueryResult>,
        cold_cache: bool,
    },
}

/// One timed unit of a round.
pub struct Cell {
    pub arm: &'static str,
    pub shape: &'static str,
    pub work: Work,
    /// The deterministic executor behind a `cheetah` cell, whose layers a
    /// traced run replays one by one; `None` for every other arm.
    pub replay: Option<CheetahExecutor>,
}

/// What the engine handed back from one cell, kept for the layer
/// counters after the clock has stopped.
pub enum Detail {
    Query(Box<ExecutionReport>),
    Batch(ServeReport),
    Panicked,
}

/// One timed call of a cell.
pub struct Outcome {
    pub start: Instant,
    pub end: Instant,
    /// Process CPU time (all engine threads) between `start` and `end`.
    pub cpu: Duration,
    /// Queries attempted (1, or the batch size).
    pub ops: u64,
    /// Queries whose result differed from the reference, or all of them
    /// if the call panicked.
    pub failed: u64,
    pub prune: PruneStats,
    pub detail: Detail,
}

impl Outcome {
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }
}

impl Cell {
    /// `arm/shape`, the cell's name in spans and messages.
    pub fn label(&self) -> String {
        format!("{}/{}", self.arm, self.shape)
    }

    /// The queries one call of this cell completes.
    pub fn queries(&self) -> &[Query] {
        match &self.work {
            Work::Query { query, .. } => std::slice::from_ref(query),
            Work::Batch { queries, .. } => queries,
        }
    }

    /// Time one call. The clock stops before the result is compared to
    /// the reference; a panic inside the engine is a failed operation,
    /// not a dead run.
    pub fn run(&self, db: &Database) -> Outcome {
        match &self.work {
            Work::Query {
                exec,
                query,
                expected,
            } => {
                let cpu0 = host::cpu_time();
                let start = Instant::now();
                let run = catch_unwind(AssertUnwindSafe(|| exec.execute(db, query)));
                let end = Instant::now();
                let cpu = host::cpu_time().saturating_sub(cpu0);
                match run {
                    Ok(report) => Outcome {
                        start,
                        end,
                        cpu,
                        ops: 1,
                        failed: u64::from(report.result != *expected),
                        prune: report.prune_stats(),
                        detail: Detail::Query(Box::new(report)),
                    },
                    Err(_) => panicked(start, end, cpu, 1),
                }
            }
            Work::Batch {
                exec,
                queries,
                expected,
                cold_cache,
            } => {
                if *cold_cache {
                    exec.clear_cache();
                }
                let cpu0 = host::cpu_time();
                let start = Instant::now();
                let run = catch_unwind(AssertUnwindSafe(|| exec.serve(db, queries)));
                let end = Instant::now();
                let cpu = host::cpu_time().saturating_sub(cpu0);
                let ops = queries.len() as u64;
                match run {
                    Ok((reports, served)) => {
                        let mut prune = PruneStats::default();
                        reports.iter().for_each(|r| prune.merge(r.prune_stats()));
                        let wrong = reports
                            .iter()
                            .zip(expected)
                            .filter(|(r, want)| r.result != **want)
                            .count() as u64;
                        // A batch that lost reports fails the missing ones.
                        let missing = ops.saturating_sub(reports.len() as u64);
                        Outcome {
                            start,
                            end,
                            cpu,
                            ops,
                            failed: wrong + missing,
                            prune,
                            detail: Detail::Batch(served),
                        }
                    }
                    Err(_) => panicked(start, end, cpu, ops),
                }
            }
        }
    }
}

fn panicked(start: Instant, end: Instant, cpu: Duration, ops: u64) -> Outcome {
    Outcome {
        start,
        end,
        cpu,
        ops,
        failed: ops,
        prune: PruneStats::default(),
        detail: Detail::Panicked,
    }
}

/// Everything a workload's timed phase needs.
pub struct Setup {
    pub db: Database,
    pub cells: Vec<Cell>,
    pub input_checksum: u64,
    pub generate_s: f64,
    pub build_s: f64,
    pub reference_s: f64,
}

/// The deterministic executor: the paper's 5-way interleave, no threads.
pub fn deterministic(fetch: FetchSpec) -> CheetahExecutor {
    CheetahExecutor::new(
        CostModel::default(),
        PrunerConfig {
            fetch,
            ..PrunerConfig::default()
        },
    )
}

/// The configuration every threaded arm wraps.
pub fn pipelined() -> CheetahExecutor {
    CheetahExecutor::new(
        CostModel {
            workers: PARALLELISM,
            ..CostModel::default()
        },
        PrunerConfig::default(),
    )
}

/// A workload's queries with their reference results.
type Evaluated = Vec<(&'static str, Query, QueryResult)>;

fn evaluate(db: &Database, queries: Vec<(&'static str, Query)>) -> Evaluated {
    queries
        .into_iter()
        .map(|(shape, query)| {
            let expected = reference::evaluate(db, &query);
            (shape, query, expected)
        })
        .collect()
}

fn query_cells(
    arm: &'static str,
    queries: &Evaluated,
    exec: impl Fn() -> Box<dyn Executor>,
) -> Vec<Cell> {
    queries
        .iter()
        .map(|(shape, query, expected)| Cell {
            arm,
            shape,
            work: Work::Query {
                exec: exec(),
                query: query.clone(),
                expected: expected.clone(),
            },
            replay: None,
        })
        .collect()
}

/// Deterministic-arm cells; `fetch` picks each shape's fetch projection.
fn cheetah_cells(queries: &Evaluated, fetch: impl Fn(&str) -> FetchSpec) -> Vec<Cell> {
    queries
        .iter()
        .map(|(shape, query, expected)| {
            let exec = deterministic(fetch(shape));
            Cell {
                arm: "cheetah",
                shape,
                work: Work::Query {
                    exec: Box::new(exec.clone()),
                    query: query.clone(),
                    expected: expected.clone(),
                },
                replay: Some(exec),
            }
        })
        .collect()
}

fn batch_cell(db: &Database, queries: Vec<Query>, cold_cache: bool) -> Vec<Cell> {
    // Repeated queries share one reference evaluation.
    let mut memo: Vec<(String, QueryResult)> = Vec::new();
    let expected = queries
        .iter()
        .map(|q| {
            let key = format!("{q:?}");
            if let Some((_, known)) = memo.iter().find(|(k, _)| *k == key) {
                return known.clone();
            }
            let result = reference::evaluate(db, q);
            memo.push((key, result.clone()));
            result
        })
        .collect();
    vec![Cell {
        arm: "serve",
        shape: "batch",
        work: Work::Batch {
            exec: ServeExecutor::with_pool(deterministic(FetchSpec::All), PARALLELISM),
            queries,
            expected,
            cold_cache,
        },
        replay: None,
    }]
}

/// Generate the workload's data from `seed`, build its tables, compute
/// the reference results and construct its executors. `None` for an
/// unknown workload name.
pub fn setup(workload: &str, scale: Scale, seed: u64) -> Option<Setup> {
    let built = match workload {
        "low_prune_wide" => data::wide_db(scale, seed),
        "scan_det" | "pipelines" | "serve_repeat" | "serve_unique" => data::bigdata_db(scale, seed),
        _ => return None,
    };
    let db = built.db;
    let t0 = Instant::now();
    let cells = match workload {
        "scan_det" => cheetah_cells(&evaluate(&db, data::scan_det_queries()), |_| FetchSpec::All),
        "low_prune_wide" => cheetah_cells(&evaluate(&db, data::wide_queries()), |shape| {
            if shape == "filter_fetch_proj" {
                FetchSpec::Referenced
            } else {
                FetchSpec::All
            }
        }),
        "pipelines" => {
            let plan = FailurePlan {
                loss_rate: LOSS_RATE,
                dup_rate: DUP_RATE,
                seed,
                ..FailurePlan::default()
            };
            let queries = evaluate(&db, data::pipeline_queries());
            let mut cells = query_cells("threaded", &queries, || {
                Box::new(ThreadedExecutor::new(pipelined()))
            });
            cells.extend(query_cells("sharded", &queries, || {
                Box::new(ShardedExecutor::with_shards(pipelined(), PARALLELISM))
            }));
            cells.extend(query_cells("distributed", &queries, || {
                Box::new(DistributedExecutor::with_failure_plan(
                    pipelined(),
                    PARALLELISM,
                    plan.clone(),
                ))
            }));
            cells
        }
        "serve_repeat" => batch_cell(&db, data::repeat_batch(), false),
        _ => batch_cell(&db, data::unique_batch(seed), true),
    };
    let reference_s = t0.elapsed().as_secs_f64();
    let input_checksum = data::input_checksum(&db, cells.iter().flat_map(Cell::queries));
    Some(Setup {
        db,
        cells,
        input_checksum,
        generate_s: built.generate_s,
        build_s: built.build_s,
        reference_s,
    })
}
