//! Randomized soak: wide-parameter databases (including degenerate ones —
//! empty tables, single rows, zero keys, values at the u64 extremes)
//! through every query kind on both executors. The pruning equation must
//! hold everywhere, not just on friendly benchmark data.

use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::reference;
use cheetah::engine::spark::SparkExecutor;
use cheetah::engine::{Agg, CostModel, Database, Query, Table};

#[path = "common/fixture.rs"]
mod fixture;
use fixture::{KeyForm, Lanes};

/// The shapes' HAVING threshold: ten of `t.v`'s average values, so a key
/// qualifies with about ten rows.
const HAVING_AT: u64 = 500_000;

/// `t.k` over `domain` keys from 0 and `s.k` over twice as many, so about
/// half the join keys match; `t.v` takes the extreme values when
/// `extremes` holds.
fn lanes(domain: u64, extremes: bool) -> Lanes {
    Lanes {
        k: 0..domain.max(1),
        v: 0..100_000,
        w: 1..1_000,
        s_k: 0..domain.max(1) * 2,
        x: 0..50,
        extremes,
    }
}

#[test]
fn soak_across_shapes_and_seeds() {
    // (rows, key_domain, extreme_values)
    let shapes = [
        (0usize, 10u64, false), // empty tables
        (1, 1, false),          // single row, single key
        (2, 1, true),           // duplicate key, extreme values
        (500, 3, true),         // tiny key domain
        (3_000, 5_000, false),  // keys mostly unique
        (4_000, 64, true),      // mid-skew with extremes
    ];
    let model = CostModel::default();
    let spark = SparkExecutor::new(model);
    let queries = fixture::shapes_at(HAVING_AT);
    for form in KeyForm::BOTH {
        let mut reached = 0;
        for (si, &(rows, domain, extremes)) in shapes.iter().enumerate() {
            for seed in 0..3u64 {
                let drawn = fixture::random(rows, &lanes(domain, extremes), seed * 100 + si as u64);
                let db = form.apply(drawn, fixture::KEYS);
                let cfg = PrunerConfig {
                    seed: seed ^ 0x50a_u64 ^ si as u64,
                    ..PrunerConfig::default()
                };
                let cheetah = CheetahExecutor::new(model, cfg.clone());
                for (label, q) in &queries {
                    let truth = reference::evaluate(&db, q);
                    let at = format!("shape {si}, seed {seed}, {form:?} keys, query {label}");
                    let s = spark.execute(&db, q);
                    assert_eq!(s.result, truth, "spark diverged: {at}");
                    let c = cheetah.execute(&db, q);
                    assert_eq!(c.result, truth, "cheetah diverged: {at}");
                }
                reached += fixture::reached(form, &db, queries.iter().map(|(_, q)| q), &cfg);
            }
        }
        assert!(reached > 0, "no query reached a {form:?} program");
    }
}

#[test]
fn monotone_and_sorted_orders_stay_correct() {
    // Adversarial arrival orders (§5's worst case): ascending, descending
    // and nearly-sorted streams must stay exact — only rates may suffer.
    let rows = 5_000usize;
    let mut db = Database::new();
    db.add(Table::new(
        "t",
        vec![
            ("k", (0..rows as u64).map(|i| i % 97).collect()),
            ("v", (0..rows as u64).collect()), // strictly ascending
            ("w", (0..rows as u64).rev().collect()), // strictly descending
        ],
    ));
    db.add(Table::new(
        "s",
        vec![("k", (0..50u64).collect()), ("x", (0..50u64).collect())],
    ));
    let model = CostModel::default();
    let cheetah = CheetahExecutor::new(model, PrunerConfig::default());
    for q in [
        Query::TopN {
            table: "t".into(),
            order_by: "v".into(),
            n: 100,
        },
        Query::TopN {
            table: "t".into(),
            order_by: "w".into(),
            n: 100,
        },
        Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Max,
        },
        Query::Skyline {
            table: "t".into(),
            columns: vec!["v".into(), "w".into()],
        },
    ] {
        let truth = reference::evaluate(&db, &q);
        assert_eq!(
            cheetah.execute(&db, &q).result,
            truth,
            "sorted-order {} diverged",
            q.kind()
        );
    }
}
