//! Projection pushdown is invisible to query semantics.
//!
//! The §7.1 late-materialization contract, extended to projected
//! fetches: under [`FetchSpec::Referenced`] every executor gathers only
//! the lanes the query touches, yet must produce exactly the results,
//! processed counts, and (per fetch spec) row checksums of the
//! [`FetchSpec::All`] seed behavior. Randomized tables drive every query
//! shape through all six executors in both modes, including a
//! predicate that references one column twice and a pad lane no query
//! ever reads.

use proptest::collection::vec;
use proptest::prelude::*;

use cheetah::core::filter::{Atom, CmpOp, Formula};
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::reference;
use cheetah::engine::{
    Agg, CostModel, Database, DistributedExecutor, Executor, FetchSpec, Predicate, Projection,
    Query, ServeExecutor, ShardedExecutor, SparkExecutor, Table, ThreadedExecutor,
};

/// Build the two test tables; `pad` is referenced by no query below
/// (the zero-reference edge: projection must drop it everywhere).
fn build_db(
    k: Vec<u64>,
    v: Vec<u64>,
    w: Vec<u64>,
    pad: Vec<u64>,
    sk: Vec<u64>,
    sx: Vec<u64>,
) -> Database {
    let mut db = Database::new();
    db.add(Table::new(
        "t",
        vec![("k", k), ("v", v), ("w", w), ("pad", pad)],
    ));
    db.add(Table::new("s", vec![("k", sk), ("x", sx)]));
    db
}

/// Every Appendix B query shape. The first predicate references `v`
/// twice (atoms 0 and 2) — the duplicate-reference edge: the projected
/// lane set must still carry `v` exactly once.
fn shapes() -> Vec<(&'static str, Query)> {
    vec![
        (
            "filter-dup-col",
            Query::Filter {
                table: "t".into(),
                predicate: Predicate {
                    columns: vec!["v".into(), "w".into(), "v".into()],
                    atoms: vec![
                        Atom::cmp(0, CmpOp::Lt, 5_000),
                        Atom::cmp(1, CmpOp::Gt, 250),
                        Atom::cmp(2, CmpOp::Gt, 9_000),
                    ],
                    formula: Formula::Or(vec![
                        Formula::And(vec![Formula::Atom(0), Formula::Atom(1)]),
                        Formula::Atom(2),
                    ]),
                },
            },
        ),
        (
            "filter-count",
            Query::FilterCount {
                table: "t".into(),
                predicate: Predicate {
                    columns: vec!["w".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Le, 200)],
                    formula: Formula::Atom(0),
                },
            },
        ),
        (
            "distinct",
            Query::Distinct {
                table: "t".into(),
                column: "w".into(),
            },
        ),
        (
            "distinct-multi",
            Query::DistinctMulti {
                table: "t".into(),
                columns: vec!["k".into(), "w".into()],
            },
        ),
        (
            "topn",
            Query::TopN {
                table: "t".into(),
                order_by: "v".into(),
                n: 10,
            },
        ),
        (
            "groupby-max",
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Max,
            },
        ),
        (
            "having-sum",
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: 50_000,
            },
        ),
        (
            "join",
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
        ),
        (
            "skyline",
            Query::Skyline {
                table: "t".into(),
                columns: vec!["v".into(), "w".into()],
            },
        ),
    ]
}

/// All six executors, configured with one fetch spec.
fn executors(fetch: &FetchSpec) -> Vec<Box<dyn Executor>> {
    let model = CostModel::default();
    let cheetah = CheetahExecutor::new(
        model,
        PrunerConfig {
            fetch: fetch.clone(),
            ..PrunerConfig::default()
        },
    );
    vec![
        Box::new(SparkExecutor::new(model).with_fetch(fetch.clone())),
        Box::new(cheetah.clone()),
        Box::new(ThreadedExecutor::new(cheetah.clone())),
        Box::new(ShardedExecutor::with_shards(cheetah.clone(), 2)),
        Box::new(DistributedExecutor::with_shards(cheetah.clone(), 2)),
        Box::new(ServeExecutor::with_pool(cheetah, 1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn projected_execution_is_equivalent_to_full(
        n in 48usize..128,
        k in vec(1u64..40, 128..129),
        v in vec(0u64..10_000, 128..129),
        w in vec(1u64..500, 128..129),
        pad in vec(any::<u64>(), 128..129),
        sk in vec(20u64..60, 64..65),
        sx in vec(0u64..100, 64..65),
    ) {
        // The vendored strategies have no flat_map, so lanes generate at
        // max length and truncate to the drawn row count together.
        let trunc = |mut c: Vec<u64>, len: usize| { c.truncate(len); c };
        let db = build_db(
            trunc(k, n),
            trunc(v, n),
            trunc(w, n),
            trunc(pad, n),
            trunc(sk, n / 2 + 1),
            trunc(sx, n / 2 + 1),
        );
        let full = executors(&FetchSpec::All);
        let projected = executors(&FetchSpec::Referenced);
        for (label, query) in shapes() {
            let truth = reference::evaluate(&db, &query);
            for (f, p) in full.iter().zip(&projected) {
                let fr = f.execute(&db, &query);
                let pr = p.execute(&db, &query);
                prop_assert_eq!(
                    &fr.result, &truth,
                    "[{}] {} full-fetch diverged from reference", label, fr.executor
                );
                prop_assert_eq!(
                    &pr.result, &truth,
                    "[{}] {} projected fetch changed the result", label, pr.executor
                );
                prop_assert_eq!(
                    fr.prune.map(|s| s.processed),
                    pr.prune.map(|s| s.processed),
                    "[{}] {} projected fetch changed switch processing", label, pr.executor
                );
                prop_assert_eq!(
                    fr.fetch_rows, pr.fetch_rows,
                    "[{}] {} projected fetch changed the fetched row set", label, pr.executor
                );
            }
            // Within a fetch spec, every executor that late-materializes
            // reports the same order-independent checksum over the same
            // (projected) row set.
            for reports in [&full, &projected] {
                let sums: Vec<(&'static str, u64)> = reports
                    .iter()
                    .map(|e| e.execute(&db, &query))
                    .filter_map(|r| r.fetch_checksum.map(|c| (r.executor, c)))
                    .collect();
                for pair in sums.windows(2) {
                    prop_assert_eq!(
                        pair[0].1, pair[1].1,
                        "[{}] {} and {} disagree on the projected-set checksum",
                        label, pair[0].0, pair[1].0
                    );
                }
            }
        }
    }
}

/// Deterministic pin that projection actually takes effect: on a table
/// where the fetch survivors exist and the referenced lanes are a proper
/// subset, the projected checksum must differ from the full-row one
/// (same rows, fewer lanes mixed in), while `FetchSpec::All` reproduces
/// the seed behavior bit for bit.
#[test]
fn projection_changes_the_fetch_payload_not_the_result() {
    let n = 4_000u64;
    let db = build_db(
        (0..n).map(|i| i % 37 + 1).collect(),
        (0..n).map(|i| i * 31 % 9_973).collect(),
        (0..n).map(|i| i * 13 % 499 + 1).collect(),
        (0..n)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect(),
        (0..n / 2).map(|i| i * 11 % 40 + 10).collect(),
        (0..n / 2).map(|i| i * 3 % 97).collect(),
    );
    let (label, query) = shapes().remove(0);
    assert_eq!(label, "filter-dup-col");
    let t = db.table("t");

    // The duplicate-referenced column counts once; the pad lane is out.
    let proj = query.projection(t, &FetchSpec::Referenced);
    assert_eq!(proj.cols(), &[1, 2], "v and w, schema order, deduped");
    assert!(!proj.is_full());
    assert!(query.projection(t, &FetchSpec::All).is_full());

    let full = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    let spec = FetchSpec::Referenced;
    let pruned = CheetahExecutor::new(
        CostModel::default(),
        PrunerConfig {
            fetch: spec,
            ..PrunerConfig::default()
        },
    );
    let fr = full.execute(&db, &query);
    let pr = pruned.execute(&db, &query);
    assert_eq!(fr.result, pr.result);
    assert!(fr.fetch_rows > 0, "the pin needs survivors to fetch");
    assert_ne!(
        fr.fetch_checksum, pr.fetch_checksum,
        "a proper-subset projection must change what the fetch mixes in"
    );

    // `Plus` widens the projection without touching the result.
    let plus = query.projection(t, &FetchSpec::Plus(vec!["pad".into()]));
    assert_eq!(plus.cols(), &[1, 2, 3]);
    let _ = Projection::all(t); // facade export stays usable
}

/// Perf-regression guard for the §7.1 fetch on a wide table: a 2-lane
/// Filter over 60,000 rows × 120 lanes fetches the same survivors under
/// both specs, the projected fetch materializes exactly 1/60 of the
/// full-row fetch's bytes, and — timed only in a release build — it is
/// no slower than the full-row fetch it replaces.
#[test]
fn a_projected_wide_fetch_keeps_pace_with_the_full_row_fetch() {
    use cheetah::workloads::wide::{WideTable, WideTableConfig};
    use std::time::Instant;
    let timed = !cfg!(debug_assertions);
    let wide = WideTable::generate(WideTableConfig {
        rows: 60_000,
        cols: 120,
        seed: 11,
    });
    let names = wide.names.iter().map(String::as_str);
    let mut db = Database::new();
    db.add(Table::new("wide", names.zip(wide.columns).collect()));
    let query = Query::Filter {
        table: "wide".into(),
        predicate: Predicate {
            columns: vec!["c000".into(), "c001".into()],
            atoms: vec![Atom::cmp(0, CmpOp::Lt, 600), Atom::cmp(1, CmpOp::Le, 48)],
            formula: Formula::And(vec![Formula::Atom(0), Formula::Atom(1)]),
        },
    };
    // The fastest of a warm run and (timed) three more: its wall, its
    // report and the bytes its fetch materialized.
    let run = |fetch: FetchSpec| {
        let width = query.projection(db.table("wide"), &fetch).bytes_per_row();
        let cfg = PrunerConfig {
            fetch,
            ..PrunerConfig::default()
        };
        let exec = CheetahExecutor::new(CostModel::default(), cfg);
        let runs = (0..if timed { 4 } else { 1 }).map(|_| {
            let t0 = Instant::now();
            let r = std::hint::black_box(exec.execute(&db, &query));
            (t0.elapsed().as_secs_f64(), r)
        });
        let (wall, r) = runs.min_by(|a, b| a.0.total_cmp(&b.0)).expect("one run");
        let bytes = r.fetch_rows * width;
        (wall, r, bytes)
    };
    let (full_s, full, full_bytes) = run(FetchSpec::All);
    let (proj_s, proj, proj_bytes) = run(FetchSpec::Referenced);
    assert_eq!(proj.result, full.result);
    assert!(full.fetch_rows > 0, "the guard needs survivors to fetch");
    assert_eq!(full_bytes, 60 * proj_bytes, "120 lanes against 2");
    if timed {
        assert!(
            proj_s <= full_s,
            "projected fetch regressed: {:.2}ms projected vs {:.2}ms full",
            proj_s * 1e3,
            full_s * 1e3
        );
    }
}
