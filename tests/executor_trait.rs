//! The `Executor` seam, exercised as a matrix: every implementation ×
//! the full Appendix-B query set, through one generic helper, against
//! the `reference` oracle. This is the contract later backends (sharded,
//! async, multi-switch) must keep satisfying to plug into the engine.

use cheetah::core::filter::{Atom, CmpOp, Formula};
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::executor::{divergences, run_all};
use cheetah::engine::reference;
use cheetah::engine::serve::ServeExecutor;
use cheetah::engine::spark::SparkExecutor;
use cheetah::engine::{
    Agg, CostModel, Database, DistributedExecutor, Executor, FailurePlan, PlannerExecutor,
    Predicate, Query, ShardedExecutor, Table, ThreadedExecutor,
};
use proptest::collection::vec;
use proptest::prelude::*;

#[path = "common/fixture.rs"]
mod fixture;

/// Appendix B queries (1)–(7) plus the extra shapes the engine supports
/// (multi-column distinct, full-row filter, every GROUP BY aggregate).
fn appendix_b_queries() -> Vec<(&'static str, Query)> {
    vec![
        (
            "q1-filter-count",
            Query::FilterCount {
                table: "t".into(),
                predicate: Predicate {
                    columns: vec!["v".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, 5000)],
                    formula: Formula::Atom(0),
                },
            },
        ),
        (
            "q1b-filter-rows",
            Query::Filter {
                table: "t".into(),
                predicate: Predicate {
                    columns: vec!["v".into(), "w".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, 500), Atom::cmp(1, CmpOp::Gt, 400)],
                    formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
                },
            },
        ),
        (
            "q2-distinct",
            Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            },
        ),
        (
            "q2b-distinct-multi",
            Query::DistinctMulti {
                table: "t".into(),
                columns: vec!["k".into(), "w".into()],
            },
        ),
        (
            "q3-skyline",
            Query::Skyline {
                table: "t".into(),
                columns: vec!["v".into(), "w".into()],
            },
        ),
        (
            "q4-topn",
            Query::TopN {
                table: "t".into(),
                order_by: "v".into(),
                n: 25,
            },
        ),
        (
            "q5-groupby-max",
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Max,
            },
        ),
        (
            "q5b-groupby-min",
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Min,
            },
        ),
        (
            "q5c-groupby-sum",
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Sum,
            },
        ),
        (
            "q5d-groupby-count",
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Count,
            },
        ),
        (
            "q6-join",
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
        ),
        (
            "q7-having",
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: 200_000,
            },
        ),
    ]
}

struct Fleet {
    spark: SparkExecutor,
    cheetah: CheetahExecutor,
    threaded: ThreadedExecutor,
    sharded: ShardedExecutor,
    distributed: DistributedExecutor,
    serving: ServeExecutor,
    planner: PlannerExecutor,
}

impl Fleet {
    fn new() -> Self {
        Self::with_config(PrunerConfig::default())
    }

    fn with_config(config: PrunerConfig) -> Self {
        let model = CostModel::default();
        let cheetah = CheetahExecutor::new(model, config);
        Fleet {
            spark: SparkExecutor::new(model),
            cheetah: cheetah.clone(),
            threaded: ThreadedExecutor::new(cheetah.clone()),
            sharded: ShardedExecutor::with_shards(cheetah.clone(), 2),
            distributed: DistributedExecutor::with_shards(cheetah.clone(), 2),
            serving: ServeExecutor::with_pool(cheetah.clone(), 2),
            planner: PlannerExecutor::new(cheetah),
        }
    }

    fn all(&self) -> Vec<&dyn Executor> {
        vec![
            &self.spark,
            &self.cheetah,
            &self.threaded,
            &self.sharded,
            &self.distributed,
            &self.serving,
            &self.planner,
        ]
    }
}

#[test]
fn every_executor_matches_reference_over_appendix_b() {
    let db = fixture::random(6_000, &fixture::APPENDIX_B_LANES, 21);
    let fleet = Fleet::new();
    assert_eq!(
        divergences(&fleet.all(), &db, &appendix_b_queries()),
        Vec::<String>::new(),
        "Q(A_Q(D)) = Q(D) must hold for every executor × query"
    );
}

#[test]
fn reports_are_complete_and_labeled() {
    let db = fixture::random(3_000, &fixture::APPENDIX_B_LANES, 22);
    let fleet = Fleet::new();
    for (label, q) in appendix_b_queries() {
        let truth = reference::evaluate(&db, &q);
        let reports = run_all(&fleet.all(), &db, &q);
        let labels: Vec<&str> = reports.iter().map(|r| r.executor).collect();
        assert_eq!(
            labels,
            [
                "spark",
                "cheetah",
                "threaded",
                "sharded",
                "distributed",
                "serving",
                "planner"
            ],
            "[{label}] reports must arrive labeled, in input order"
        );
        for report in reports {
            let name = report.executor;
            assert_eq!(report.result, truth, "[{label}] {name} wrong result");
            assert!(report.passes >= 1, "[{label}] {name} reported zero passes");
            let passes = u64::from(report.passes);
            if let Query::Join { left, right, .. } = &q {
                // Both sides stream once, or twice; the §4.3 asymmetric
                // flow streams one side a pass.
                let rows = (db.table(left).rows() + db.table(right).rows()) as u64;
                assert!(
                    (rows..=passes * rows).contains(&report.streamed),
                    "[{label}] {name} streamed {} of {rows} rows over {passes} passes",
                    report.streamed
                );
            } else {
                assert_eq!(
                    report.streamed,
                    passes * db.table("t").rows() as u64,
                    "[{label}] {name} streamed entries"
                );
            }
            if let Some(p) = report.prune {
                // Drained register residuals reach the master on no
                // decision: forwarded beside the survivors.
                assert_eq!(
                    p.processed + p.drained,
                    p.pruned + p.forwarded(),
                    "[{label}] {name} inconsistent prune counters"
                );
            }
            // Planning telemetry only comes from the planner: anyone
            // else carrying a PlanReport fabricated it.
            assert_eq!(
                report.plan.is_some(),
                name == "planner",
                "[{label}] {name} plan telemetry presence"
            );
            // Only the multi-switch paths have a combine layer or
            // per-shard merge spans; everywhere else these fields must
            // stay empty, not carry stale or fabricated measurements.
            // The planner may legitimately choose a multi-switch arm,
            // so its reports can carry either shape.
            if !matches!(name, "sharded" | "distributed" | "planner") {
                assert_eq!(
                    report.combine_wall, None,
                    "[{label}] {name} is single-switch — no combine span"
                );
                assert!(
                    report.merge_walls.is_empty(),
                    "[{label}] {name} is single-switch — no merge spans"
                );
            }
        }
    }
}

#[test]
fn trait_objects_are_boxable_and_send() {
    // The seam later backends rely on: executors as owned trait objects
    // crossing thread boundaries.
    let model = CostModel::default();
    let boxed: Vec<Box<dyn Executor + Send + Sync>> = vec![
        Box::new(SparkExecutor::new(model)),
        Box::new(CheetahExecutor::new(model, PrunerConfig::default())),
    ];
    let db = fixture::random(1_000, &fixture::APPENDIX_B_LANES, 23);
    let q = Query::Distinct {
        table: "t".into(),
        column: "k".into(),
    };
    let truth = reference::evaluate(&db, &q);
    std::thread::scope(|scope| {
        for e in &boxed {
            let db = &db;
            let q = &q;
            let truth = &truth;
            scope.spawn(move || {
                assert_eq!(&e.execute(db, q).result, truth, "{} diverged", e.name());
            });
        }
    });
}

#[test]
fn threaded_covers_every_query_shape_with_measured_wall_clock() {
    // No query shape falls back to the deterministic path: JOIN, HAVING,
    // Filter-with-fetch, DistinctMulti and GROUP BY SUM/COUNT all run
    // their staged dataflow on real threads and report a wall clock,
    // with results equal to the reference under block-arrival races.
    let db = fixture::random(4_000, &fixture::APPENDIX_B_LANES, 25);
    let fleet = Fleet::new();
    for (label, q) in appendix_b_queries() {
        let truth = reference::evaluate(&db, &q);
        let r = Executor::execute(&fleet.threaded, &db, &q);
        assert_eq!(r.result, truth, "[{label}] threaded diverged");
        assert!(
            r.wall.is_some(),
            "[{label}] threaded must measure wall clock (no fallback arm)"
        );
        assert!(
            r.wall.unwrap().as_nanos() > 0,
            "[{label}] wall clock must be a real measurement"
        );
    }
}

#[test]
fn threaded_reports_one_switch_span_per_pass() {
    let db = fixture::random(3_000, &fixture::APPENDIX_B_LANES, 26);
    let fleet = Fleet::new();
    for (label, q) in appendix_b_queries() {
        let r = Executor::execute(&fleet.threaded, &db, &q);
        assert_eq!(
            r.pass_walls.len(),
            r.passes as usize,
            "[{label}] one measured switch span per pass"
        );
        let spans: std::time::Duration = r.pass_walls.iter().sum();
        assert!(
            spans <= r.wall.unwrap(),
            "[{label}] switch spans cannot exceed the whole-query wall"
        );
        // Modeled-only executors carry no measured spans.
        let det = Executor::execute(&fleet.cheetah, &db, &q);
        assert!(det.pass_walls.is_empty(), "[{label}] deterministic spans");
    }
}

#[test]
fn sharded_executor_matrix_over_shard_counts_and_query_shapes() {
    // The sharded backend's contract: over shards ∈ {1, 2, 4} × every
    // Appendix-B shape, the result equals the reference, the wall is a
    // real measurement, the report carries one switch span per shard per
    // pass plus a measured combine span, and the streaming accounting
    // (passes, processed entries, fetch metadata) matches the reference
    // driver's deterministic reports.
    let db = fixture::random(4_000, &fixture::APPENDIX_B_LANES, 29);
    let model = CostModel::default();
    let cheetah = CheetahExecutor::new(model, PrunerConfig::default());
    for shards in [1usize, 2, 4] {
        let exec = ShardedExecutor::with_shards(cheetah.clone(), shards);
        assert_eq!(exec.shards(), shards);
        for (label, q) in appendix_b_queries() {
            let truth = reference::evaluate(&db, &q);
            let det = Executor::execute(&cheetah, &db, &q);
            let r = Executor::execute(&exec, &db, &q);
            assert_eq!(r.result, truth, "[{label}] {shards} shards diverged");
            assert_eq!(r.executor, "sharded");
            let wall = r.wall.unwrap_or_else(|| {
                panic!("[{label}] sharded must measure wall clock at {shards} shards")
            });
            assert!(wall.as_nanos() > 0, "[{label}] wall must be a measurement");
            assert!(
                !r.pass_walls.is_empty(),
                "[{label}] per-shard pass spans must be reported"
            );
            assert_eq!(
                r.pass_walls.len(),
                shards * r.passes as usize,
                "[{label}] one switch span per shard per pass"
            );
            assert!(
                r.combine_wall.is_some(),
                "[{label}] the combine layer must measure its span"
            );
            // Reports match the reference driver: same streaming shape.
            assert_eq!(r.passes, det.passes, "[{label}] pass count");
            assert_eq!(
                r.prune_stats().processed,
                det.prune_stats().processed,
                "[{label}] every entry must be decided exactly once per pass"
            );
            assert_eq!(r.fetch_rows, det.fetch_rows, "[{label}] fetch rows");
            assert_eq!(
                r.fetch_checksum, det.fetch_checksum,
                "[{label}] sharded fetch must materialize the same row set"
            );
            // Single-switch executors carry no combine span or merge spans.
            assert_eq!(det.combine_wall, None, "[{label}] deterministic combine");
            assert!(
                det.merge_walls.is_empty(),
                "[{label}] single-switch path fabricated merge spans"
            );
        }
    }
}

#[test]
fn distributed_executor_matrix_over_loss_rates_and_query_shapes() {
    // The distributed backend's acceptance contract: over wire loss
    // ∈ {0, 0.05, 0.2} × every Appendix-B shape — with a net worker
    // crash, a mid-query switch reboot, a shard pruner reboot, a shard
    // compute crash, and a dropped FIN injected every run — results are
    // bit-identical to the deterministic reference, processed counts
    // are equal (re-dispatch discards failed work), and every injected
    // fault is visible in the resilience telemetry.
    let db = fixture::random(4_000, &fixture::APPENDIX_B_LANES, 31);
    let model = CostModel::default();
    let cheetah = CheetahExecutor::new(model, PrunerConfig::default());
    for loss in [0.0, 0.05, 0.2] {
        let plan = FailurePlan {
            loss_rate: loss,
            dup_rate: 0.02,
            reorder_rate: 0.02,
            seed: 11,
            // Early enough to land before even a fault-free session
            // completes, so the injections fire at every loss rate.
            worker_crashes: vec![(0, 1)],
            switch_reboots: vec![5],
            shard_reboots: vec![(1, 700)],
            compute_crashes: vec![2],
            drop_first_fins: 1,
            ..FailurePlan::default()
        };
        let exec = DistributedExecutor::with_failure_plan(cheetah.clone(), 3, plan);
        assert_eq!(exec.shards(), 3);
        for (label, q) in appendix_b_queries() {
            let det = Executor::execute(&cheetah, &db, &q);
            let r = Executor::execute(&exec, &db, &q);
            assert_eq!(
                r.result, det.result,
                "[{label}] loss={loss} diverged from the deterministic reference"
            );
            assert_eq!(r.executor, "distributed");
            assert_eq!(r.passes, det.passes, "[{label}] pass count");
            assert_eq!(
                r.prune_stats().processed,
                det.prune_stats().processed,
                "[{label}] loss={loss}: re-dispatch must not change processed counts"
            );
            assert_eq!(r.fetch_rows, det.fetch_rows, "[{label}] fetch rows");
            assert_eq!(
                r.fetch_checksum, det.fetch_checksum,
                "[{label}] distributed fetch must materialize the same row set"
            );
            assert_eq!(
                r.pass_walls.len(),
                3 * r.passes as usize,
                "[{label}] one switch span per shard per pass"
            );
            assert!(r.wall.is_some(), "[{label}] wall is measured");
            assert!(r.combine_wall.is_some(), "[{label}] combine is measured");
            let res = r
                .resilience
                .as_ref()
                .unwrap_or_else(|| panic!("[{label}] distributed runs report resilience"));
            assert!(res.worker_crashes >= 1, "[{label}] crash recorded");
            assert!(res.retries >= 1, "[{label}] crashed flow retried");
            assert!(res.net_reboots >= 1, "[{label}] switch reboot recorded");
            assert!(res.shard_reboots >= 1, "[{label}] shard reboot recorded");
            assert!(res.redispatches >= 1, "[{label}] re-dispatch recorded");
            assert!(res.fin_drops >= 1, "[{label}] FIN drop recorded");
            assert!(!res.degraded, "[{label}] retry budget must suffice");
            if loss > 0.0 {
                assert!(res.losses > 0, "[{label}] lossy wire shows losses");
            }
        }
    }
}

#[test]
fn two_pass_flows_report_their_passes_through_the_trait() {
    let db = fixture::random(2_000, &fixture::APPENDIX_B_LANES, 24);
    // The same rows with both tables' keys spread past any stage's range.
    let mut wide = Database::new();
    for name in ["t", "s"] {
        let t = db.table(name);
        let lanes = t.schema().iter().enumerate().map(|(c, col)| {
            let spread = if col == "k" { 40 } else { 0 };
            (
                col.as_str(),
                t.col_at(c).iter().map(|v| v << spread).collect(),
            )
        });
        wide.add(Table::new(name, lanes.collect()));
    }
    // HAVING's 99 keys, spread, fit Table 2's GROUP BY registers, which
    // aggregate it in one pass, but not an 8 × 2 matrix: there §5's two
    // passes run. As `1..100` they fit a stage's dense registers, one pass
    // at either matrix.
    let starved = PrunerConfig {
        groupby_d: 8,
        groupby_w: 2,
        ..PrunerConfig::default()
    };
    let fleets = [(Fleet::new(), 1), (Fleet::with_config(starved), 2)];
    for (fleet, spread_passes) in fleets {
        for (db, having_passes) in [(&db, 1), (&wide, spread_passes)] {
            for (label, q) in appendix_b_queries() {
                let expected = match q {
                    Query::Join { .. } => 2,
                    Query::Having { .. } => having_passes,
                    _ => 1,
                };
                // Both the deterministic and the threaded path model the
                // same streaming structure, so their pass counts must agree.
                for exec in [&fleet.cheetah as &dyn Executor, &fleet.threaded] {
                    let r = exec.execute(db, &q);
                    assert_eq!(
                        r.passes, expected,
                        "[{label}] wrong pass count from {}",
                        r.executor
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// JOIN is superset-exact at any filter size, on every executor: one
    /// register per side (`join_m_bits: 64` — nearly every probe is a
    /// false positive) and the default cap, over sides that may be empty,
    /// shorter than the worker count, or duplicate-heavy.
    #[test]
    fn join_is_exact_at_any_filter_size_and_side_length(
        keys in (vec(0u64..40, 0..300), vec(20u64..60, 0..300)),
        shape in 0usize..4,
    ) {
        let (mut left, mut right) = keys;
        match shape {
            0 => left.clear(),
            1 => right.clear(),
            2 => {
                left.truncate(3);
                right.truncate(2);
            }
            _ => {}
        }
        let mut db = Database::new();
        db.add(Table::new("l", vec![("k", left)]));
        db.add(Table::new("r", vec![("k", right)]));
        let join = Query::Join {
            left: "l".into(),
            right: "r".into(),
            left_col: "k".into(),
            right_col: "k".into(),
        };
        let truth = reference::evaluate(&db, &join);
        for join_m_bits in [64, PrunerConfig::default().join_m_bits] {
            let fleet = Fleet::with_config(PrunerConfig {
                join_m_bits,
                ..PrunerConfig::default()
            });
            for exec in fleet.all() {
                prop_assert_eq!(
                    &exec.execute(&db, &join).result,
                    &truth,
                    "{} at {} filter bits a side",
                    exec.name(),
                    join_m_bits
                );
            }
        }
    }
}
