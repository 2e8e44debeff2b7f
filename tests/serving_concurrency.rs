//! The serving layer under concurrency: arbitrary query mixes, arbitrary
//! batch boundaries and pool widths must all be invisible in the output —
//! every per-query report equals a solo `CheetahExecutor` run of the same
//! query, in admission order, with nothing lost and nothing deadlocked.
//!
//! The scheduling itself is seed-deterministic only in *admission*
//! (grouping and packing are pure functions of the batch); the pool's
//! interleaving is real thread nondeterminism, which is exactly why the
//! per-slot result delivery has to make it unobservable.

use std::collections::HashSet;

use proptest::collection::vec;
use proptest::prelude::*;

use cheetah::core::filter::{Atom, CmpOp, Formula};
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::serve::ServeExecutor;
use cheetah::engine::{Agg, CostModel, Database, Predicate, Query, ServeReport, Table};

#[path = "common/fixture.rs"]
mod fixture;
use fixture::KeyForm;

/// `h` beside each table's `k`: its keys spread past any stage's dense
/// array, so a HAVING over `t.h` runs §5's two passes and caches its
/// sketch, where one over `k` runs one register pass and caches nothing,
/// and a JOIN over `h` runs the Bloom pair where one over `k` runs a bitmap
/// a side.
const TWINS: &[(&str, &str, &str)] = &[("t", "k", "h"), ("s", "k", "h")];

/// The JOIN `t ⋈ s` on `col`: over `k` it runs a bitmap a side, over `h`
/// the Bloom pair. Both cache their pass-1 state.
fn join_on(col: &str) -> Query {
    Query::Join {
        left: "t".into(),
        right: "s".into(),
        left_col: col.into(),
        right_col: col.into(),
    }
}

/// The query template pool admissions draw from — every shape, so any
/// mix exercises shared scans, solo dispatch and the filter cache.
fn templates() -> Vec<Query> {
    let predicate = Predicate {
        columns: vec!["v".into(), "w".into()],
        atoms: vec![Atom::cmp(0, CmpOp::Lt, 700), Atom::cmp(1, CmpOp::Gt, 200)],
        formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
    };
    vec![
        Query::FilterCount {
            table: "t".into(),
            predicate: predicate.clone(),
        },
        Query::Filter {
            table: "t".into(),
            predicate,
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
            n: 10,
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
        Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Sum,
        },
        Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Count,
        },
        Query::Having {
            table: "t".into(),
            key: "h".into(),
            val: "v".into(),
            threshold: 5_000,
        },
        join_on("k"),
        join_on("h"),
        Query::Skyline {
            table: "t".into(),
            columns: vec!["v".into(), "w".into()],
        },
    ]
}

/// Compact switch config so eviction churn really happens at test sizes.
fn test_config(seed: u64) -> PrunerConfig {
    PrunerConfig {
        distinct_d: 32,
        distinct_w: 2,
        topn_d: 64,
        topn_w: 8,
        groupby_d: 16,
        groupby_w: 2,
        join_m_bits: 1 << 16,
        having_d: 3,
        having_w: 128,
        skyline_w: 4,
        seed,
        ..PrunerConfig::default()
    }
}

/// Solo oracle + serving layer over the same config. The pool width
/// comes from `SERVE_POOL` when set (the CI matrix sweeps {2, 8} across
/// this whole suite), else from the caller.
fn executors(pool: usize, workers: usize, seed: u64) -> (CheetahExecutor, ServeExecutor) {
    let pool = std::env::var("SERVE_POOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(pool);
    let model = CostModel {
        workers,
        ..CostModel::default()
    };
    let solo = CheetahExecutor::new(model, test_config(seed));
    let serving = ServeExecutor::with_pool(CheetahExecutor::new(model, test_config(seed)), pool);
    (solo, serving)
}

/// The accounting identities every batch must satisfy: each admission is
/// answered exactly one way, coalescing takes exactly the repeats, only
/// solo flows can be spills, and the cache sees one lookup per cacheable
/// *execution* (a coalesced HAVING/JOIN never reaches it). Cacheable are
/// the JOINs and the HAVINGs whose `solo` run takes §5's two passes: one
/// whose keys fit the registers aggregates them in one pass and caches
/// nothing.
fn assert_accounting(solo: &CheetahExecutor, db: &Database, batch: &[Query], agg: &ServeReport) {
    let distinct: HashSet<&Query> = batch.iter().collect();
    let cacheable = distinct
        .iter()
        .filter(|q| match q {
            Query::Join { .. } => true,
            Query::Having { .. } => solo.execute(db, q).passes == 2,
            _ => false,
        })
        .count() as u64;
    assert_eq!(agg.queries, batch.len() as u64);
    assert_eq!(
        agg.coalesced,
        (batch.len() - distinct.len()) as u64,
        "coalescing must take exactly the repeats: {agg:?}"
    );
    assert_eq!(
        agg.packed + agg.solo + agg.coalesced,
        agg.queries,
        "admission must partition: {agg:?}"
    );
    assert!(agg.spilled <= agg.solo, "a spill runs solo: {agg:?}");
    assert_eq!(
        agg.cache_hits + agg.cache_misses,
        cacheable,
        "one cache lookup per cacheable execution: {agg:?}"
    );
}

/// Serve `mix` (template indices) in batches of `chunk`, asserting every
/// report equals the solo run and nothing is lost or reordered. Warm,
/// the cache persists across batches, so later batches re-exercise every
/// repeated HAVING/JOIN through cached state; `cold` clears it before
/// each batch, and then the whole report — prune counters, passes,
/// fetch — must equal the solo run's, for leaders and duplicates alike.
fn assert_mix_equals_solo(
    db: &Database,
    mix: &[usize],
    chunk: usize,
    pool: usize,
    seed: u64,
    cold: bool,
) {
    let (solo, serving) = executors(pool, 2, seed);
    let pool_q = templates();
    let queries: Vec<Query> = mix
        .iter()
        .map(|&i| pool_q[i % pool_q.len()].clone())
        .collect();
    for batch in queries.chunks(chunk.max(1)) {
        if cold {
            serving.clear_cache();
        }
        let (reports, agg) = serving.serve(db, batch);
        assert_eq!(reports.len(), batch.len(), "lost or duplicated a query");
        assert_accounting(&solo, db, batch, &agg);
        for (q, r) in batch.iter().zip(&reports) {
            let solo_r = solo.execute(db, q);
            assert_eq!(
                r.result,
                solo_r.result,
                "{} diverged under pool={pool} chunk={chunk}",
                q.kind()
            );
            assert_eq!(r.fetch_checksum, solo_r.fetch_checksum, "{}", q.kind());
            assert_eq!(r.executor, "serving");
            if cold {
                assert_eq!(r.prune, solo_r.prune, "{} prune counters", q.kind());
                assert_eq!(r.passes, solo_r.passes, "{} passes", q.kind());
                assert_eq!(r.fetch_rows, solo_r.fetch_rows, "{} fetch", q.kind());
            }
        }
    }
}

/// Proptest-owned rows → the two-table fixture with its [`TWINS`], its
/// keys in `form`.
fn db_from_rows(form: KeyForm, t_rows: &[(u64, u64, u64)], s_keys: Vec<u64>) -> Database {
    let tk = t_rows.iter().map(|r| r.0).collect();
    let tv = t_rows.iter().map(|r| r.1).collect();
    let tw = t_rows.iter().map(|r| r.2).collect();
    let sx = s_keys.iter().map(|&k| k * 3 % 97).collect();
    let db = fixture::tables([tk, tv, tw], [s_keys, sx]);
    form.apply(fixture::with_spread_twins(db, TWINS), fixture::KEYS)
}

/// The templates over `db` bind a dense program in the narrow form and a
/// hashed one in the spread form, wherever `t.k` holds two keys (a lane of
/// one key binds dense in either).
fn assert_reaches(form: KeyForm, db: &Database, seed: u64) {
    let k = db.table("t").col("k");
    if form == KeyForm::Narrow || k.iter().any(|&x| x != k[0]) {
        let reached = fixture::reached(form, db, &templates(), &test_config(seed));
        assert!(reached > 0, "no template reached a {form:?} program");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of admissions: arbitrary data in both key forms,
    /// arbitrary query mix, arbitrary batch boundaries, arbitrary pool
    /// width.
    #[test]
    fn any_admission_interleaving_equals_solo_runs(
        t_rows in vec((1u64..50, 1u64..2_000, 1u64..400), 1..200),
        s_keys in vec(20u64..80, 0..100),
        mix in vec(0usize..13, 1..30),
        chunk in 1usize..13,
        pool in 1usize..5,
        seed in any::<u64>(),
    ) {
        for form in KeyForm::BOTH {
            let db = db_from_rows(form, &t_rows, s_keys.clone());
            assert_reaches(form, &db, seed);
            assert_mix_equals_solo(&db, &mix, chunk, pool, seed, false);
        }
    }

    /// Coalescing is invisible: mixes drawn from a
    /// handful of templates (so most admissions repeat an earlier one),
    /// any batch boundary, pool widths {1, 2, 8}, a cold cache — every
    /// answer, duplicate or leader, is the whole solo report, in
    /// admission order, and exactly the repeats are coalesced.
    #[test]
    fn duplicate_heavy_mixes_coalesce_and_equal_solo_runs(
        t_rows in vec((1u64..50, 1u64..2_000, 1u64..400), 1..200),
        s_keys in vec(20u64..80, 0..100),
        offset in 0usize..13,
        mix in vec(0usize..5, 1..40),
        chunk in 1usize..41,
        pool in 0usize..3,
        seed in any::<u64>(),
    ) {
        // Five consecutive templates starting anywhere in the pool.
        let mix: Vec<usize> = mix.iter().map(|&i| i + offset).collect();
        for form in KeyForm::BOTH {
            let db = db_from_rows(form, &t_rows, s_keys.clone());
            assert_reaches(form, &db, seed);
            assert_mix_equals_solo(&db, &mix, chunk, [1, 2, 8][pool], seed, true);
        }
    }
}

/// Pool size 1: the whole solo queue drains through a single worker.
/// This is the deadlock canary — a worker blocking on the queue lock or
/// a slot lock held across a query run would hang right here.
#[test]
fn pool_of_one_drains_the_full_shapes_matrix_without_deadlock() {
    let db = fixture::with_spread_twins(fixture::arithmetic(3_000, 1_500), TWINS);
    let (solo, _) = executors(1, 2, 42);
    // Pinned at 1 regardless of SERVE_POOL — this canary is only
    // meaningful when a single worker must drain the whole queue.
    let model = CostModel {
        workers: 2,
        ..CostModel::default()
    };
    let serving = ServeExecutor::with_pool(CheetahExecutor::new(model, test_config(42)), 1);
    let batch = templates();
    let (reports, agg) = serving.serve(&db, &batch);
    assert_eq!(reports.len(), batch.len());
    assert_accounting(&solo, &db, &batch, &agg);
    assert_eq!(agg.coalesced, 0, "the templates are pairwise distinct");
    for (q, r) in batch.iter().zip(&reports) {
        assert_eq!(r.result, solo.execute(&db, q).result, "{}", q.kind());
    }
}

/// 128 queries in one batch across an 8-wide pool: every admission must
/// come back (none lost), in admission order, each equal to its solo
/// run — thirteen executions answering 128 admissions, with the cache
/// accounting covering exactly the three cacheable executions.
#[test]
fn no_lost_queries_at_128_in_flight() {
    let db = fixture::with_spread_twins(fixture::arithmetic(2_000, 1_000), TWINS);
    let (solo, serving) = executors(8, 2, 7);
    let pool_q = templates();
    let batch: Vec<Query> = (0..128).map(|i| pool_q[i % pool_q.len()].clone()).collect();
    let (reports, agg) = serving.serve(&db, &batch);
    assert_eq!(reports.len(), 128, "an admission came back unanswered");
    assert_accounting(&solo, &db, &batch, &agg);
    assert_eq!(agg.coalesced, 128 - 13);
    assert_eq!(
        agg.cache_misses, 3,
        "one HAVING + two JOIN executions (the bitmap and the Bloom pair)"
    );
    for (q, r) in batch.iter().zip(&reports) {
        let solo_r = solo.execute(&db, q);
        assert_eq!(r.result, solo_r.result, "{} lost under load", q.kind());
        assert_eq!(r.fetch_checksum, solo_r.fetch_checksum);
    }
}

/// A warmed cache across batches serves repeated predicates from cached
/// state — deterministically, because the second batch runs after the
/// first completed.
#[test]
fn warm_cache_serves_repeats_across_batches() {
    let db = fixture::with_spread_twins(fixture::arithmetic(2_000, 1_000), TWINS);
    let (solo, serving) = executors(4, 2, 9);
    let batch = templates();
    let (_, cold) = serving.serve(&db, &batch);
    let (reports, warm) = serving.serve(&db, &batch);
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(warm.cache_misses, 0, "second pass must be all hits");
    assert_eq!(
        warm.cache_hits, 3,
        "one HAVING + two JOIN templates (the bitmap and the Bloom pair)"
    );
    for (q, r) in batch.iter().zip(&reports) {
        assert_eq!(r.result, solo.execute(&db, q).result, "{}", q.kind());
    }
}

/// N identical JOINs are one execution: a cold cache records exactly one
/// miss (not a race of N), the next batch exactly one hit, and all N
/// answers are the solo report — for the bitmap pair and the Bloom pair.
#[test]
fn identical_joins_cost_one_cache_lookup_per_batch() {
    let db = fixture::with_spread_twins(fixture::arithmetic(2_000, 1_000), TWINS);
    for col in ["k", "h"] {
        let (solo, serving) = executors(8, 2, 11);
        let join = join_on(col);
        let batch = vec![join.clone(); 9];
        let truth = solo.execute(&db, &join);
        let (cold_reports, cold) = serving.serve(&db, &batch);
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 1), "{cold:?}");
        let (warm_reports, warm) = serving.serve(&db, &batch);
        assert_eq!((warm.cache_hits, warm.cache_misses), (1, 0), "{warm:?}");
        for agg in [&cold, &warm] {
            assert_accounting(&solo, &db, &batch, agg);
            assert_eq!((agg.coalesced, agg.solo, agg.packed), (8, 1, 0));
        }
        for r in &cold_reports {
            assert_eq!(r.result, truth.result);
            assert_eq!(r.prune, truth.prune, "a cold duplicate is the solo report");
        }
        for r in &warm_reports {
            assert_eq!(r.result, truth.result, "join on {col}");
            assert_eq!(r.passes, 1, "a hit skips the build pass");
        }
    }
}

/// Nothing but the filter cache outlives a `serve` call: replace a table
/// between two batches of the same repeated queries and the second
/// batch's answers — leaders and duplicates — track the new data.
#[test]
fn answers_do_not_outlive_the_call_that_computed_them() {
    let mut db = fixture::with_spread_twins(fixture::arithmetic(1_500, 750), TWINS);
    let (solo, serving) = executors(2, 2, 5);
    let pool_q = templates();
    let batch: Vec<Query> = (0..36).map(|i| pool_q[i % pool_q.len()].clone()).collect();
    let (before, _) = serving.serve(&db, &batch);

    let rows = db.table("t").rows() as u64;
    let k: Vec<u64> = (0..rows).map(|i| i * 5 % 61 + 2).collect();
    let h = KeyForm::Spread.lane(&k);
    db.add(Table::new(
        "t",
        vec![
            ("k", k),
            ("v", (0..rows).map(|i| i * 17 % 7_919 + 3).collect()),
            ("w", (0..rows).map(|i| i * 29 % 311 + 1).collect()),
            ("h", h),
        ],
    ));
    let (after, agg) = serving.serve(&db, &batch);
    assert_accounting(&solo, &db, &batch, &agg);
    assert_eq!(agg.cache_hits, 0, "the epoch moved under every cached flow");
    for ((q, old), new) in batch.iter().zip(&before).zip(&after) {
        assert_eq!(new.result, solo.execute(&db, q).result, "{}", q.kind());
        assert_ne!(
            new.result,
            old.result,
            "{} answered from the past",
            q.kind()
        );
    }
}

/// `SERVE_POOL` sizes the dispatch pool (the CI matrix runs {2, 8});
/// unset falls back to the default of 4.
#[test]
fn serve_pool_env_var_sizes_the_pool() {
    let mk = || CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    std::env::set_var("SERVE_POOL", "3");
    assert_eq!(ServeExecutor::new(mk()).pool(), 3);
    std::env::set_var("SERVE_POOL", "not-a-number");
    assert_eq!(ServeExecutor::new(mk()).pool(), 4, "garbage falls back");
    std::env::remove_var("SERVE_POOL");
    assert_eq!(ServeExecutor::new(mk()).pool(), 4);
    // The pool width is scheduling only — results are identical either way.
    let db = fixture::with_spread_twins(fixture::arithmetic(1_000, 500), TWINS);
    let batch = templates();
    let (r2, _) = ServeExecutor::with_pool(mk(), 2).serve(&db, &batch);
    let (r8, _) = ServeExecutor::with_pool(mk(), 8).serve(&db, &batch);
    for (a, b) in r2.iter().zip(&r8) {
        assert_eq!(a.result, b.result);
    }
}

// ---------------------------------------------------------------------------
// Cache correctness properties: reuse is invisible in results; epoch
// bumps invalidate; a stale filter is never consulted against new data.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serving the cacheable shapes any number of times yields the solo
    /// result every time: the first run misses, every later run hits —
    /// and neither the Bloom pair, the bitmap pair nor the Count-Min
    /// sketch reuse can change a single key or pair.
    #[test]
    fn cached_filter_reuse_never_changes_results(
        t_rows in vec((1u64..50, 1u64..2_000, 1u64..400), 1..200),
        s_keys in vec(20u64..80, 0..100),
        threshold in 100u64..20_000,
        reps in 2usize..5,
        seed in any::<u64>(),
    ) {
        let db = db_from_rows(KeyForm::Narrow, &t_rows, s_keys);
        let (solo, serving) = executors(2, 2, seed);
        let batch = [
            Query::Having {
                table: "t".into(),
                key: "h".into(),
                val: "v".into(),
                threshold,
            },
            join_on("k"),
            join_on("h"),
        ];
        let truth: Vec<_> = batch.iter().map(|q| solo.execute(&db, q)).collect();
        for rep in 0..reps {
            let (reports, agg) = serving.serve(&db, &batch);
            if rep == 0 {
                prop_assert_eq!(agg.cache_hits, 0, "cold cache cannot hit");
                prop_assert_eq!(agg.cache_misses, 3);
            } else {
                prop_assert_eq!(agg.cache_hits, 3, "warm rep {} must hit", rep);
                prop_assert_eq!(agg.cache_misses, 0);
            }
            for ((q, r), t) in batch.iter().zip(&reports).zip(&truth) {
                prop_assert_eq!(&r.result, &t.result, "{} changed on rep {}", q.kind(), rep);
                prop_assert_eq!(r.fetch_checksum, t.fetch_checksum);
            }
        }
    }

    /// Replacing a table bumps its epoch; the very next serve must treat
    /// every cached entry touching it as stale — and the fresh results
    /// must track the *new* data, which a stale filter would get wrong.
    #[test]
    fn epoch_bump_invalidates_and_results_track_the_new_data(
        t_rows in vec((1u64..50, 1u64..2_000, 1u64..400), 10..150),
        s_keys in vec(20u64..80, 1..80),
        shift in 1u64..1_000,
        seed in any::<u64>(),
    ) {
        let (tk, rest): (Vec<u64>, Vec<(u64, u64)>) =
            t_rows.iter().map(|&(k, v, w)| (k, (v, w))).unzip();
        let (tv, tw): (Vec<u64>, Vec<u64>) = rest.into_iter().unzip();
        let sx: Vec<u64> = s_keys.iter().map(|&k| k * 3 % 97).collect();
        let db = fixture::tables([tk.clone(), tv.clone(), tw.clone()], [s_keys.clone(), sx.clone()]);
        let mut db = fixture::with_spread_twins(db, TWINS);
        let (solo, serving) = executors(2, 2, seed);
        let batch = [
            Query::Having {
                table: "t".into(),
                key: "h".into(),
                val: "v".into(),
                threshold: 3_000,
            },
            join_on("k"),
            join_on("h"),
        ];
        serving.serve(&db, &batch); // populate the cache against epoch 0

        // Replace `t` wholesale: shifted keys and values change both the
        // join's left key set and every HAVING group sum.
        let new_tk: Vec<u64> = tk.iter().map(|&k| k + shift % 37).collect();
        let new_tv: Vec<u64> = tv.iter().map(|&v| v.wrapping_mul(3) % 2_000 + 1).collect();
        let h = KeyForm::Spread.lane(&new_tk);
        db.add(Table::new("t", vec![("k", new_tk), ("v", new_tv), ("w", tw.clone()), ("h", h)]));

        let (reports, agg) = serving.serve(&db, &batch);
        prop_assert_eq!(agg.cache_hits, 0, "stale epochs must not hit: {:?}", agg);
        prop_assert_eq!(agg.cache_misses, 3);
        for (q, r) in batch.iter().zip(&reports) {
            let fresh = solo.execute(&db, q);
            prop_assert_eq!(&r.result, &fresh.result, "{} served stale state", q.kind());
        }

        // And the re-populated cache is hit-correct against the new epoch.
        let (reports2, agg2) = serving.serve(&db, &batch);
        prop_assert_eq!(agg2.cache_hits, 3);
        for (a, b) in reports.iter().zip(&reports2) {
            prop_assert_eq!(&a.result, &b.result);
        }
    }
}
