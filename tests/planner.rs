//! Acceptance contract for the cost-based planner: whatever arm it
//! picks, the result is the reference result; its grid knobs stay on
//! the tuning grids; degenerate inputs plan the minimum arm without
//! sampling; and planning an arbitrary well-formed query never panics.

use proptest::prelude::*;

use cheetah::core::filter::{Atom, CmpOp, Formula};
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::plan::{ExecutorArm, SHARD_GRID, WORKER_GRID};
use cheetah::engine::reference;
use cheetah::engine::{
    Agg, CostModel, Database, Executor, PlannerExecutor, Predicate, Query, Table,
};

#[path = "common/fixture.rs"]
mod fixture;

/// The shapes' HAVING threshold: about half of Appendix B's 99 keys sum
/// past it over 4,000 rows.
const HAVING_AT: u64 = 200_000;

fn planner() -> PlannerExecutor {
    PlannerExecutor::new(CheetahExecutor::new(
        CostModel::default(),
        PrunerConfig::default(),
    ))
}

#[test]
fn planned_result_equals_reference_for_every_shape_and_seed() {
    let exec = planner();
    for seed in [21u64, 77, 5150] {
        let db = fixture::random(4_000, &fixture::APPENDIX_B_LANES, seed);
        assert!(fixture::having_splits(&db, HAVING_AT), "seed {seed}");
        for (label, q) in fixture::shapes_at(HAVING_AT) {
            let truth = reference::evaluate(&db, &q);
            let r = exec.execute(&db, &q);
            assert_eq!(r.result, truth, "[{label}] seed {seed}: planner diverged");
            assert_eq!(r.executor, "planner", "[{label}] report label");
            let plan = r
                .plan
                .unwrap_or_else(|| panic!("[{label}] planner must report its plan"));
            assert!(
                plan.misprediction().is_finite() && plan.misprediction() > 0.0,
                "[{label}] misprediction must be finite and positive"
            );
        }
    }
}

#[test]
fn chosen_arms_stay_on_the_tuning_grids() {
    let exec = planner();
    for rows in [600usize, 4_000, 20_000] {
        let db = fixture::random(rows, &fixture::APPENDIX_B_LANES, 33);
        for (label, q) in fixture::shapes_at(HAVING_AT) {
            let plan = exec.plan(&db, &q);
            assert!(
                WORKER_GRID.contains(&plan.chosen.workers),
                "[{label}] {rows} rows: {} workers off-grid",
                plan.chosen.workers
            );
            assert!(
                SHARD_GRID.contains(&plan.chosen.shards),
                "[{label}] {rows} rows: {} shards off-grid",
                plan.chosen.shards
            );
            assert!(
                plan.chosen.predicted_s.is_finite() && plan.chosen.predicted_s >= 0.0,
                "[{label}] predicted wall must be finite"
            );
            assert!(
                plan.ctx.probes() <= 1,
                "[{label}] planning must sample the stream at most once"
            );
        }
    }
}

#[test]
fn empty_and_single_row_tables_plan_the_minimum_arm() {
    let exec = planner();
    for rows in [0usize, 1] {
        let mut db = Database::new();
        db.add(Table::new(
            "t",
            vec![
                ("k", (0..rows as u64).collect()),
                ("v", (0..rows as u64).collect()),
                ("w", (0..rows as u64).collect()),
            ],
        ));
        db.add(Table::new("s", vec![("k", vec![]), ("x", vec![])]));
        for (label, q) in fixture::shapes_at(HAVING_AT) {
            let plan = exec.plan(&db, &q);
            assert_eq!(
                (plan.chosen.workers, plan.chosen.shards),
                (1, 1),
                "[{label}] {rows} rows: degenerate input must plan the minimum arm"
            );
            if rows == 0 {
                assert_eq!(
                    plan.ctx.probes(),
                    0,
                    "[{label}] nothing to sample on an empty table"
                );
                assert_eq!(plan.chosen.arm, ExecutorArm::Deterministic, "[{label}]");
            } else {
                assert!(
                    plan.ctx.probes() <= 1,
                    "[{label}] single-row table sampled more than once"
                );
            }
            let truth = reference::evaluate(&db, &q);
            assert_eq!(r_result(&exec, &db, &q), truth, "[{label}] {rows} rows");
        }
    }
}

fn r_result(
    exec: &PlannerExecutor,
    db: &Database,
    q: &Query,
) -> cheetah::engine::query::QueryResult {
    exec.execute(db, q).result
}

/// Build a well-formed query of the `shape`-th kind over the fixed
/// planner database from raw generated parameters. Column references
/// must exist (unknown columns are a caller bug the whole engine panics
/// on by contract); everything else — thresholds, N, predicate
/// structure, lopsidedness — is free.
fn build_query(shape: usize, param: u64, n: usize, sel: u64, flip: bool, ncols: usize) -> Query {
    let t_cols = ["k", "v", "w"];
    let col = |i: u64| -> String { t_cols[(i % 3) as usize].into() };
    let predicate = || {
        let atoms: Vec<Atom> = (0..ncols)
            .map(|i| {
                let op = if (sel >> i) & 1 == 0 {
                    CmpOp::Lt
                } else {
                    CmpOp::Gt
                };
                Atom::cmp(i, op, param.rotate_left(i as u32) % 20_000)
            })
            .collect();
        let refs: Vec<Formula> = (0..atoms.len()).map(Formula::Atom).collect();
        let formula = if atoms.len() == 1 {
            Formula::Atom(0)
        } else if flip {
            Formula::Or(refs)
        } else {
            Formula::And(refs)
        };
        Predicate {
            columns: vec!["v".into(), "w".into()],
            atoms,
            formula,
        }
    };
    match shape {
        0 => Query::FilterCount {
            table: "t".into(),
            predicate: predicate(),
        },
        1 => Query::Filter {
            table: "t".into(),
            predicate: predicate(),
        },
        2 => Query::Distinct {
            table: "t".into(),
            column: col(sel),
        },
        3 => Query::DistinctMulti {
            table: "t".into(),
            columns: (0..ncols as u64).map(|i| col(sel + i)).collect(),
        },
        4 => Query::Skyline {
            table: "t".into(),
            columns: (0..ncols as u64).map(|i| col(sel + i)).collect(),
        },
        5 => Query::TopN {
            table: "t".into(),
            order_by: col(sel),
            n,
        },
        6 => Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: col(sel),
            agg: match param % 4 {
                0 => Agg::Max,
                1 => Agg::Min,
                2 => Agg::Sum,
                _ => Agg::Count,
            },
        },
        7 => {
            // Both lopsided directions, so the §4.3 flow decision is hit
            // from either side.
            let (l, r) = if flip { ("t", "s") } else { ("s", "t") };
            Query::Join {
                left: l.into(),
                right: r.into(),
                left_col: "k".into(),
                right_col: "k".into(),
            }
        }
        _ => Query::Having {
            table: "t".into(),
            key: "k".into(),
            val: col(sel),
            threshold: param,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Planning an arbitrary well-formed query never panics — unknown
    /// query kinds degrade to the conservative fallback rates, empty
    /// samples plan the minimum arm, and infeasible programs fall back
    /// to the deterministic arm instead of asserting.
    #[test]
    fn planning_any_query_never_panics(
        shape in 0usize..9,
        rows in 0usize..600,
        param in any::<u64>(),
        n in 1usize..60,
        sel in any::<u64>(),
        flip in any::<bool>(),
        ncols in 1usize..3,
    ) {
        let q = build_query(shape, param, n, sel, flip, ncols);
        let db = fixture::random(rows, &fixture::APPENDIX_B_LANES, 91);
        let exec = planner();
        let plan = exec.plan(&db, &q);
        prop_assert!(WORKER_GRID.contains(&plan.chosen.workers));
        prop_assert!(SHARD_GRID.contains(&plan.chosen.shards));
        prop_assert!(plan.chosen.predicted_s.is_finite());
        prop_assert!(plan.ctx.probes() <= 1);
    }
}
