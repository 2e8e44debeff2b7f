//! Sharded ≡ distributed ≡ deterministic, for every pruner, under
//! arbitrary shard boundaries and pathological skew.
//!
//! The sharded executor runs the same pruning programs per shard and
//! merges with the combine layer; Cheetah's correctness equation
//! `Q(A_Q(D)) = Q(D)` must therefore hold **per query**, not per shard:
//! whatever the shard boundaries do to the individual switch decisions
//! (shard-local caches dedup less, shard-local filters see fewer keys),
//! the combined result and the order-independent checksums (late-
//! materialization fetch, join pairing) must be identical to the
//! deterministic single-switch path. Property-tested over random tables,
//! shard counts and pool widths; the pathological shapes (empty shards,
//! all rows in one shard, every key straddling a boundary, hash-shard
//! skew) get dedicated cases.

use proptest::collection::vec;
use proptest::prelude::*;

use cheetah::core::filter::{Atom, CmpOp, Formula};
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::reference;
use cheetah::engine::{
    Agg, CostModel, Database, DistributedExecutor, Executor, Predicate, Query, ShardedExecutor,
    ThreadedExecutor,
};

#[path = "common/fixture.rs"]
mod fixture;
use fixture::{tables, KeyForm};

/// Every query shape — one per pruner family (filter, distinct matrix,
/// fingerprinted distinct, top-n, group-by extremum, §6 registers,
/// Count-Min, Bloom join, skyline).
fn all_shapes() -> Vec<(&'static str, Query)> {
    let predicate = Predicate {
        columns: vec!["v".into(), "w".into()],
        atoms: vec![Atom::cmp(0, CmpOp::Lt, 700), Atom::cmp(1, CmpOp::Gt, 200)],
        formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
    };
    vec![
        (
            "filter-count",
            Query::FilterCount {
                table: "t".into(),
                predicate: predicate.clone(),
            },
        ),
        (
            "filter-fetch",
            Query::Filter {
                table: "t".into(),
                predicate,
            },
        ),
        (
            "distinct",
            Query::Distinct {
                table: "t".into(),
                column: "k".into(),
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
            "groupby-min",
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Min,
            },
        ),
        (
            "groupby-sum",
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Sum,
            },
        ),
        (
            "groupby-count",
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Count,
            },
        ),
        (
            "having",
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: 5_000,
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

/// Compact switch config: small enough for eviction churn to really
/// happen (so shard-local state diverges from the global state), and a
/// small join filter so building one per shard stays cheap.
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

/// Assert sharded ≡ distributed ≡ threaded ≡ deterministic ≡ reference
/// for every shape over `db` in both key forms, including the
/// order-independent checksums (fetch + join pairing live inside the
/// canonical results / fetch_checksum fields). Returns how many shapes
/// bound a dense program over the narrow form and a hashed one over the
/// spread form.
fn assert_equivalent(db: &Database, shards: usize, workers: usize, seed: u64) -> [usize; 2] {
    KeyForm::BOTH.map(|form| {
        let db = &form.apply(db.clone(), fixture::KEYS);
        assert_equivalent_in(db, shards, workers, seed);
        let shapes = all_shapes();
        fixture::reached(form, db, shapes.iter().map(|(_, q)| q), &test_config(seed))
    })
}

/// [`assert_equivalent`] over `db` as it is.
fn assert_equivalent_in(db: &Database, shards: usize, workers: usize, seed: u64) {
    let model = CostModel {
        workers,
        ..CostModel::default()
    };
    let cheetah = CheetahExecutor::new(model, test_config(seed));
    let sharded = ShardedExecutor::with_shards(cheetah.clone(), shards);
    let distributed = DistributedExecutor::with_shards(cheetah.clone(), shards);
    let threaded = ThreadedExecutor::new(cheetah.clone());
    for (label, q) in all_shapes() {
        let truth = reference::evaluate(db, &q);
        let det = Executor::execute(&cheetah, db, &q);
        let shd = Executor::execute(&sharded, db, &q);
        // The same shard programs over the clean wire: one report shape.
        let dst = Executor::execute(&distributed, db, &q);
        let at = format!("[{label}] distributed at {shards} shards × {workers} workers");
        assert_eq!(dst.result, shd.result, "{at}");
        assert_eq!(dst.fetch_checksum, shd.fetch_checksum, "{at}");
        assert_eq!(
            dst.prune_stats().processed,
            shd.prune_stats().processed,
            "{at}"
        );
        assert_eq!(dst.passes, shd.passes, "{at}");
        assert_eq!(dst.pass_walls.len(), shd.pass_walls.len(), "{at}");
        // Threaded is the same programs on one shard: one span per pass,
        // nothing merged.
        let thr = Executor::execute(&threaded, db, &q);
        let at = format!("[{label}] threaded × {workers} workers vs {shards} shards");
        assert_eq!(thr.result, shd.result, "{at}");
        assert_eq!(thr.fetch_checksum, shd.fetch_checksum, "{at}");
        assert_eq!(
            thr.prune_stats().processed,
            shd.prune_stats().processed,
            "{at}"
        );
        assert_eq!(thr.passes, shd.passes, "{at}");
        assert_eq!(thr.pass_walls.len(), thr.passes as usize, "{at}");
        assert_eq!(thr.combine_wall, None, "{at}");
        assert_eq!(
            det.result, truth,
            "[{label}] deterministic diverged from reference"
        );
        assert_eq!(
            shd.result, truth,
            "[{label}] sharded diverged at {shards} shards × {workers} workers"
        );
        assert_eq!(
            shd.fetch_checksum, det.fetch_checksum,
            "[{label}] fetch checksum diverged (different materialized rows)"
        );
        assert_eq!(
            shd.prune_stats().processed,
            det.prune_stats().processed,
            "[{label}] sharded must decide each entry exactly once per pass"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Arbitrary data, shard counts and pool widths: the combined result
    /// must match the deterministic path everywhere.
    #[test]
    fn sharded_equals_deterministic_under_arbitrary_boundaries(
        t_rows in vec((1u64..50, 1u64..2_000, 1u64..400), 1..250),
        s_keys in vec(20u64..80, 0..120),
        shards in 1usize..6,
        workers in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (tk, rest): (Vec<u64>, Vec<(u64, u64)>) =
            t_rows.iter().map(|&(k, v, w)| (k, (v, w))).unzip();
        let (tv, tw): (Vec<u64>, Vec<u64>) = rest.into_iter().unzip();
        let sx: Vec<u64> = s_keys.iter().map(|&k| k * 3 % 97).collect();
        let db = tables([tk, tv, tw], [s_keys, sx]);
        assert_equivalent(&db, shards, workers, seed);
    }

    /// Pathological key skew: one dominant key (the hash-sharded GROUP BY
    /// SUM path funnels nearly the whole table into a single shard) plus
    /// a sprinkle of straddlers.
    #[test]
    fn sharded_survives_hash_shard_skew(
        dominant in 1u64..40,
        minority in vec((1u64..40, 1u64..500), 0..40),
        rows in 50usize..250,
        shards in 2usize..6,
        seed in any::<u64>(),
    ) {
        let mut tk: Vec<u64> = vec![dominant; rows];
        let mut tv: Vec<u64> = (0..rows as u64).map(|i| i * 13 % 701 + 1).collect();
        for &(k, v) in &minority {
            tk.push(k);
            tv.push(v);
        }
        let tw: Vec<u64> = (0..tk.len() as u64).map(|i| i % 300 + 1).collect();
        let db = tables([tk, tv, tw], [vec![dominant, 77], vec![5, 9]]);
        assert_equivalent(&db, shards, 2, seed);
    }
}

/// Empty tables: every shard is empty, every combine merges nothing.
#[test]
fn sharded_handles_empty_tables() {
    let db = tables(
        [Vec::new(), Vec::new(), Vec::new()],
        [Vec::new(), Vec::new()],
    );
    for shards in [1usize, 3] {
        assert_equivalent(&db, shards, 2, 7);
    }
}

/// All rows in one shard: fewer rows than shards leaves most shard
/// pipelines empty (they must still watermark and report spans).
#[test]
fn sharded_handles_more_shards_than_rows() {
    let db = tables(
        [vec![5, 5, 9], vec![100, 90, 80], vec![1, 2, 3]],
        [vec![5], vec![1]],
    );
    assert_equivalent(&db, 5, 2, 11);
    let model = CostModel::default();
    let exec = ShardedExecutor::with_shards(CheetahExecutor::new(model, test_config(11)), 5);
    let q = Query::Distinct {
        table: "t".into(),
        column: "k".into(),
    };
    let r = Executor::execute(&exec, &db, &q);
    assert_eq!(r.pass_walls.len(), 5, "empty shards still report spans");
}

/// Every key straddles every range-shard boundary: keys cycle faster
/// than any shard width, so range shards all see every key — the worst
/// case for per-shard dedup/sketch state, which the combine must absorb.
#[test]
fn sharded_handles_keys_straddling_every_boundary() {
    let rows = 400u64;
    let tk: Vec<u64> = (0..rows).map(|i| i % 7).collect();
    let tv: Vec<u64> = (0..rows).map(|i| i * 31 % 997).collect();
    let tw: Vec<u64> = (0..rows).map(|i| i % 211 + 1).collect();
    let sk: Vec<u64> = (0..rows / 2).map(|i| i % 11).collect();
    let sx: Vec<u64> = (0..rows / 2).map(|i| i % 13).collect();
    let db = tables([tk, tv, tw], [sk, sx]);
    for shards in [2usize, 3, 4] {
        let [dense, hashed] = assert_equivalent(&db, shards, 2, 13);
        assert!(dense > 0 && hashed > 0, "dense {dense}, hashed {hashed}");
    }
}

/// Run the JOIN shape alone over `db` in both key forms — the bitmap pair
/// and the Bloom pair — and compare against the deterministic path (pairs
/// + checksum): the focused probe for partition-local pairing.
fn assert_join_equivalent(db: &Database, shards: usize, seed: u64) {
    let model = CostModel {
        workers: 2,
        ..CostModel::default()
    };
    let cheetah = CheetahExecutor::new(model, test_config(seed));
    let sharded = ShardedExecutor::with_shards(cheetah.clone(), shards);
    let q = Query::Join {
        left: "t".into(),
        right: "s".into(),
        left_col: "k".into(),
        right_col: "k".into(),
    };
    for form in KeyForm::BOTH {
        let db = &form.apply(db.clone(), fixture::KEYS);
        let truth = reference::evaluate(db, &q);
        let det = Executor::execute(&cheetah, db, &q);
        let shd = Executor::execute(&sharded, db, &q);
        assert_eq!(
            det.result, truth,
            "deterministic join diverged over {form:?} keys"
        );
        assert_eq!(
            shd.result, truth,
            "partition-local join diverged at {shards} shards over {form:?} keys"
        );
        assert_eq!(
            shd.prune_stats().processed,
            det.prune_stats().processed,
            "hash-sharded join must still decide each entry exactly once"
        );
    }
}

/// The two hash-sharded shapes on both shard arms: the table is
/// partitioned once per query and the shards' partitions tile it, so the
/// arms agree with the reference and together decide every streamed row
/// exactly once — the deterministic arm's count — at any shard count.
/// (That each shard processes exactly its own partition is pinned beside
/// the shard bodies, in `sharded.rs`.)
#[test]
fn hash_sharded_shapes_stream_every_row_once_on_both_shard_arms() {
    let tk: Vec<u64> = (0..900u64).map(|i| i * 7 % 61).collect();
    let tv: Vec<u64> = (0..900u64).map(|i| i * 17 % 401 + 1).collect();
    let tw: Vec<u64> = (0..900u64).map(|i| i % 89 + 1).collect();
    // 600 rows: the symmetric JOIN flow; 200: the asymmetric one.
    for s_rows in [600u64, 200] {
        let sk: Vec<u64> = (0..s_rows).map(|i| i * 3 % 97).collect();
        let sx: Vec<u64> = (0..s_rows).map(|i| i % 31).collect();
        let db = tables([tk.clone(), tv.clone(), tw.clone()], [sk, sx]);
        let cheetah = CheetahExecutor::new(CostModel::default(), test_config(29));
        let hash_sharded = |q: &Query| match q {
            Query::GroupBy { agg, .. } => matches!(agg, Agg::Sum | Agg::Count),
            q => matches!(q, Query::Join { .. }),
        };
        let queries = all_shapes().into_iter().filter(|(_, q)| hash_sharded(q));
        for (label, q) in queries {
            let det = Executor::execute(&cheetah, &db, &q);
            for shards in [2usize, 3, 5] {
                let arms: [&dyn Executor; 2] = [
                    &ShardedExecutor::with_shards(cheetah.clone(), shards),
                    &DistributedExecutor::with_shards(cheetah.clone(), shards),
                ];
                for arm in arms {
                    let run = arm.execute(&db, &q);
                    let at = format!("[{label}] {} at {shards} shards", arm.name());
                    assert_eq!(run.result, reference::evaluate(&db, &q), "{at}");
                    assert_eq!(
                        run.prune_stats().processed,
                        det.prune_stats().processed,
                        "{at}"
                    );
                }
            }
        }
    }
}

/// Hash-sharded join, join keys spanning every hash bucket: with keys
/// 0..`shards × 8` both sides populate every shard, and every matching
/// key must pair exactly once on exactly one shard — the straddling
/// counterpart of the range-boundary case, but for the key hash.
#[test]
fn hash_sharded_join_pairs_keys_across_every_shard() {
    for shards in [2usize, 3, 4, 5, 8] {
        let span = shards as u64 * 8;
        let tk: Vec<u64> = (0..600u64).map(|i| i % span).collect();
        let tv: Vec<u64> = (0..600u64).map(|i| i * 17 % 401 + 1).collect();
        let tw: Vec<u64> = (0..600u64).map(|i| i % 89 + 1).collect();
        // Right side hits half the buckets with duplicated keys, so
        // cross-side multiplicity (m × n pairs per key) crosses shards.
        let sk: Vec<u64> = (0..200u64).map(|i| (i * 3) % span).collect();
        let sx: Vec<u64> = (0..200u64).map(|i| i % 31).collect();
        let db = tables([tk, tv, tw], [sk, sx]);
        assert_join_equivalent(&db, shards, 17);
    }
}

/// Hash-sharded join with one side empty, in both directions: every
/// shard's build or probe stream is empty, and the pairing must come
/// out zero without wedging any shard pipeline.
#[test]
fn hash_sharded_join_survives_one_empty_side() {
    let keys: Vec<u64> = (0..300u64).map(|i| i % 37).collect();
    let vals: Vec<u64> = (0..300u64).map(|i| i % 113 + 1).collect();
    let ws: Vec<u64> = (0..300u64).map(|i| i % 7 + 1).collect();
    for shards in [2usize, 4] {
        // Empty right side: the big/probe stream vanishes.
        let db = tables([keys.clone(), vals.clone(), ws.clone()], [vec![], vec![]]);
        assert_join_equivalent(&db, shards, 19);
        // Empty left side: the build stream vanishes instead.
        let db = tables([vec![], vec![], vec![]], [keys.clone(), vals.clone()]);
        assert_join_equivalent(&db, shards, 19);
    }
}

/// Hash-sharded join where every row shares one key: the whole workload
/// hashes into a single shard (maximal skew for partition-local
/// pairing), the other shards run empty, and the one busy shard must
/// produce the full m × n pairing by itself.
#[test]
fn hash_sharded_join_survives_all_keys_in_one_shard() {
    for shards in [2usize, 4, 8] {
        let tk: Vec<u64> = vec![42; 120];
        let tv: Vec<u64> = (0..120u64).map(|i| i * 7 % 301 + 1).collect();
        let tw: Vec<u64> = (0..120u64).map(|i| i % 17 + 1).collect();
        let sk: Vec<u64> = vec![42; 45];
        let sx: Vec<u64> = (0..45u64).map(|i| i % 23).collect();
        let db = tables([tk, tv, tw], [sk, sx]);
        assert_join_equivalent(&db, shards, 23);
    }
}

/// GROUP BY SUM and COUNT with more groups than the master's group table
/// holds (16,384): 40k keys over 60k rows put about 20k groups on each of
/// two hash shards and all 40k on the threaded arm's one, so every shard's
/// sink folds its register evictions and drain past the table, through
/// its sort fallback.
#[test]
fn sum_shards_fold_more_groups_than_the_group_table_holds() {
    let rows = 60_000u64;
    let tk: Vec<u64> = (0..rows).map(|i| i * 7_919 % 40_000).collect();
    let tv: Vec<u64> = (0..rows).map(|i| i * 31 % 9_973).collect();
    let tw: Vec<u64> = (0..rows).map(|i| i % 89 + 1).collect();
    let db = tables([tk, tv, tw], [vec![1], vec![1]]);
    let cheetah = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    let arms: [&dyn Executor; 3] = [
        &ThreadedExecutor::new(cheetah.clone()),
        &ShardedExecutor::with_shards(cheetah.clone(), 2),
        &DistributedExecutor::with_shards(cheetah, 2),
    ];
    let sums = all_shapes().into_iter().filter(|(_, q)| {
        matches!(
            q,
            Query::GroupBy {
                agg: Agg::Sum | Agg::Count,
                ..
            }
        )
    });
    for (label, q) in sums {
        let truth = reference::evaluate(&db, &q);
        for arm in arms {
            let run = arm.execute(&db, &q);
            assert_eq!(run.result, truth, "[{label}] {}", arm.name());
        }
    }
}
