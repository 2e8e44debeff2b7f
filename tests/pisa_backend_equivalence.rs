//! Full-stack check: the query engine produces identical results whether
//! the switch runs the unconstrained reference pruners or the metered
//! PISA pipeline programs — i.e. every evaluated query genuinely fits the
//! hardware model end to end.

use cheetah::core::filter::{Atom, CmpOp, Formula};
use cheetah::engine::backend::SwitchBackend;
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::reference;
use cheetah::engine::{
    Agg, CostModel, Database, Executor, Predicate, Query, ShardedExecutor, Table, ThreadedExecutor,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn db(rows: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.add(Table::new(
        "t",
        vec![
            ("k", (0..rows).map(|_| rng.gen_range(0..120u64)).collect()),
            (
                "v",
                (0..rows).map(|_| rng.gen_range(1..50_000u64)).collect(),
            ),
            ("w", (0..rows).map(|_| rng.gen_range(1..900u64)).collect()),
        ],
    ));
    db.add(Table::new(
        "s",
        vec![
            (
                "k",
                (0..rows / 2).map(|_| rng.gen_range(60..200u64)).collect(),
            ),
            (
                "x",
                (0..rows / 2).map(|_| rng.gen_range(1..100u64)).collect(),
            ),
        ],
    ));
    db
}

fn queries() -> Vec<Query> {
    vec![
        Query::FilterCount {
            table: "t".into(),
            predicate: Predicate {
                columns: vec!["v".into()],
                atoms: vec![Atom::cmp(0, CmpOp::Lt, 20_000)],
                formula: Formula::Atom(0),
            },
        },
        Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        },
        Query::DistinctMulti {
            table: "t".into(),
            columns: vec!["k".into(), "w".into()],
        },
        Query::TopN {
            table: "t".into(),
            order_by: "v".into(),
            n: 40,
        },
        Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Max,
        },
        Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Min,
        },
        Query::Having {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            threshold: 1_500_000,
        },
        Query::Join {
            left: "t".into(),
            right: "s".into(),
            left_col: "k".into(),
            right_col: "k".into(),
        },
        Query::Skyline {
            table: "t".into(),
            columns: vec!["v".into(), "w".into()],
        },
    ]
}

#[test]
fn pisa_backend_matches_reference_backend_and_oracle() {
    let db = db(6_000, 31);
    let model = CostModel::default();
    let mk = |backend| {
        CheetahExecutor::new(
            model,
            PrunerConfig {
                backend,
                // Keep the join filters segment-divisible and modest.
                join_m_bits: 3 * (1 << 16),
                ..PrunerConfig::default()
            },
        )
    };
    let reference_exec = mk(SwitchBackend::Reference);
    let pisa_exec = mk(SwitchBackend::Pisa);
    // The shard programs under PISA too — HAVING's run the core sketch
    // whatever the backend, every other shape the metered programs.
    let pisa_arms: [Box<dyn Executor>; 2] = [
        Box::new(ThreadedExecutor::new(mk(SwitchBackend::Pisa))),
        Box::new(ShardedExecutor::with_shards(mk(SwitchBackend::Pisa), 2)),
    ];
    for q in queries() {
        let truth = reference::evaluate(&db, &q);
        let a = reference_exec.execute(&db, &q);
        let b = pisa_exec.execute(&db, &q);
        assert_eq!(
            a.result,
            truth,
            "[{}] reference backend != oracle",
            q.kind()
        );
        assert_eq!(b.result, truth, "[{}] pisa backend != oracle", q.kind());
        // The decisions are differential-tested elsewhere; here the
        // aggregate counts must agree too (same pruning happened).
        assert_eq!(
            a.prune_stats().processed,
            b.prune_stats().processed,
            "[{}] processed diverged",
            q.kind()
        );
        for arm in &pisa_arms {
            let r = arm.execute(&db, &q);
            let at = format!("[{}] {} on pisa", q.kind(), arm.name());
            assert_eq!(r.result, truth, "{at} != oracle");
            assert_eq!(
                r.prune_stats().processed,
                a.prune_stats().processed,
                "{at}: processed diverged"
            );
        }
    }
}

#[test]
fn distinct_multi_uses_fingerprints_correctly() {
    // Many (k, w) combinations, few distinct — the fingerprint path must
    // prune hard and lose nothing at 64 bits.
    let mut rng = StdRng::seed_from_u64(32);
    let rows = 20_000;
    let mut db = Database::new();
    db.add(Table::new(
        "t",
        vec![
            ("a", (0..rows).map(|_| rng.gen_range(0..40u64)).collect()),
            ("b", (0..rows).map(|_| rng.gen_range(0..25u64)).collect()),
        ],
    ));
    let q = Query::DistinctMulti {
        table: "t".into(),
        columns: vec!["a".into(), "b".into()],
    };
    let truth = reference::evaluate(&db, &q);
    let exec = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    let r = exec.execute(&db, &q);
    assert_eq!(r.result, truth);
    assert!(
        r.prune_stats().pruned_fraction() > 0.9,
        "≤1000 combinations over 20k rows should prune >90%, got {:.3}",
        r.prune_stats().pruned_fraction()
    );
}
