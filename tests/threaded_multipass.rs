//! Soak for the threaded multi-pass dataflows: each multi-pass query
//! shape (JOIN, HAVING, Filter-with-fetch, DistinctMulti, GROUP BY
//! SUM/COUNT) runs repeatedly across worker counts, and every run must
//! equal the reference oracle with a measured wall clock — Cheetah's
//! order-independence guarantee under genuine block-arrival races and
//! repeated inter-pass barriers.

use cheetah::core::filter::{Atom, CmpOp, Formula};
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::reference;
use cheetah::engine::{
    Agg, CostModel, Database, Executor, PlannerExecutor, Predicate, Query, ShardedExecutor, Table,
    ThreadedExecutor,
};
use std::time::Duration;

const TRIALS: usize = 8;
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

#[path = "common/fixture.rs"]
mod fixture;
use fixture::{KeyForm, Lanes};

/// The soak's lanes: 89 keys of `t` and 95 of `s`, overlapping on `45..90`.
const SOAK_LANES: Lanes = Lanes {
    k: 1..90,
    v: 1..8_000,
    w: 1..400,
    s_k: 45..140,
    x: 1..100,
    extremes: false,
};

/// `t.h`: `t.k` spread past any stage's dense registers, so a HAVING over
/// it runs the hashed programs, two passes once starved.
const TWIN: &[(&str, &str, &str)] = &[("t", "k", "h")];

/// Table 2's configuration, where the soak's HAVING keys fit the GROUP
/// BY registers and HAVING aggregates in one pass, and an 8 × 2 register
/// matrix they do not fit, where §5's two passes run — each with its
/// HAVING pass count.
fn having_configs() -> [(PrunerConfig, u32); 2] {
    let starved = PrunerConfig {
        groupby_d: 8,
        groupby_w: 2,
        ..PrunerConfig::default()
    };
    [(PrunerConfig::default(), 1), (starved, 2)]
}

fn multipass_queries() -> Vec<(&'static str, Query)> {
    vec![
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
            "having",
            Query::Having {
                table: "t".into(),
                key: "h".into(),
                val: "v".into(),
                threshold: 120_000,
            },
        ),
        (
            "filter-fetch",
            Query::Filter {
                table: "t".into(),
                predicate: Predicate {
                    columns: vec!["v".into(), "w".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, 400), Atom::cmp(1, CmpOp::Gt, 350)],
                    formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
                },
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
    ]
}

/// 8 trials × {1, 2, 4} workers × every multi-pass shape: result equals
/// the reference oracle every time, and the wall clock is measured.
#[test]
fn threaded_multipass_soak() {
    let db = fixture::with_spread_twins(fixture::random(3_000, &SOAK_LANES, 31), TWIN);
    for workers in WORKER_COUNTS {
        let exec = ThreadedExecutor::new(CheetahExecutor::new(
            CostModel {
                workers,
                ..CostModel::default()
            },
            PrunerConfig::default(),
        ));
        for (label, q) in multipass_queries() {
            let truth = reference::evaluate(&db, &q);
            for trial in 0..TRIALS {
                let report = exec.execute(&db, &q);
                assert_eq!(
                    report.result, truth,
                    "[{label}] workers={workers} trial={trial}: threaded diverged"
                );
                assert!(
                    report.wall.is_some(),
                    "[{label}] workers={workers}: multi-pass must measure wall clock"
                );
                assert_eq!(report.executor, "threaded");
            }
        }
    }
}

/// The two-pass flows report two passes and twice-streamed totals even
/// on the threaded path, so cost-model comparisons stay apples-to-apples.
#[test]
fn threaded_multipass_pass_accounting() {
    let db = fixture::with_spread_twins(fixture::random(2_000, &SOAK_LANES, 32), TWIN);
    for (cfg, having_passes) in having_configs() {
        let exec = ThreadedExecutor::new(CheetahExecutor::new(CostModel::default(), cfg));
        for (label, q) in multipass_queries() {
            let report = exec.execute(&db, &q);
            let expected_passes = match q {
                Query::Join { .. } => 2,
                Query::Having { .. } => having_passes,
                _ => 1,
            };
            assert_eq!(report.passes, expected_passes, "[{label}] pass count");
            if let Query::Having { .. } = q {
                assert_eq!(
                    report.prune_stats().processed,
                    u64::from(having_passes) * db.table("t").rows() as u64,
                    "[{label}] HAVING streams every entry once a pass"
                );
            }
        }
    }
}

/// The pool contract: one program run spawns each worker thread exactly
/// once, however many passes stream — asserted through the thread-local
/// spawn counter (`threaded::worker_threads_spawned`). A two-pass HAVING
/// is two programs joined by the merged-sketch broadcast, so two pools.
#[test]
fn pool_spawns_each_worker_exactly_once_per_query() {
    use cheetah::engine::threaded::worker_threads_spawned;
    let db = fixture::with_spread_twins(fixture::random(2_000, &SOAK_LANES, 35), TWIN);
    let workers = 4;
    let model = CostModel {
        workers,
        ..CostModel::default()
    };
    for (cfg, having_passes) in having_configs() {
        let exec = ThreadedExecutor::new(CheetahExecutor::new(model, cfg));
        for (label, q) in multipass_queries() {
            // The soak's `s` is half of `t`, so JOIN takes the asymmetric
            // flow: each phase streams one side on `workers` partitions —
            // like every other shape. Two-pass flows must not double that:
            // the pool is reused across the pass flip.
            let expected = match q {
                Query::Having { .. } => u64::from(having_passes) * workers as u64,
                _ => workers as u64,
            };
            let before = worker_threads_spawned();
            let report = exec.execute(&db, &q);
            assert_eq!(
                worker_threads_spawned() - before,
                expected,
                "[{label}] worker threads spawned more than once per query"
            );
            assert_eq!(
                report.pass_walls.len(),
                report.passes as usize,
                "[{label}] per-pass switch spans"
            );
        }
    }
    let exec = ThreadedExecutor::new(CheetahExecutor::new(model, PrunerConfig::default()));

    // A symmetric join (similar-size tables): both sides stream in both
    // phases on 2 × workers partitions — still spawned exactly once.
    let mut sym_db = Database::new();
    sym_db.add(Table::new(
        "a",
        vec![("k", (0..1_500u64).map(|i| i % 80).collect())],
    ));
    sym_db.add(Table::new(
        "b",
        vec![("k", (0..1_000u64).map(|i| i % 120).collect())],
    ));
    let q = Query::Join {
        left: "a".into(),
        right: "b".into(),
        left_col: "k".into(),
        right_col: "k".into(),
    };
    let before = worker_threads_spawned();
    exec.execute(&sym_db, &q);
    assert_eq!(
        worker_threads_spawned() - before,
        2 * workers as u64,
        "symmetric join pools both sides' workers, spawned once"
    );
}

/// Shard-skew soak: the sharded executor across lopsided shard loads —
/// a heavily skewed key column (the hash-sharded GROUP BY SUM path
/// funnels most rows into one shard) and a tiny second table whose
/// range shards are mostly empty — × workers {1, 2}, every multi-pass
/// shape, every run equal to the reference.
#[test]
fn sharded_shard_skew_soak() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(38);
    let rows = 2_400usize;
    let mut db = Database::new();
    // ~70% of rows share one key: shard loads are lopsided under the
    // key-partitioned gather, and range shards all see the hot key.
    let k: Vec<u64> = (0..rows)
        .map(|_| {
            if rng.gen_bool(0.7) {
                7u64
            } else {
                rng.gen_range(1..90u64)
            }
        })
        .collect();
    let h = KeyForm::Spread.lane(&k);
    db.add(Table::new(
        "t",
        vec![
            ("k", k),
            ("v", (0..rows).map(|_| rng.gen_range(1..8_000u64)).collect()),
            ("w", (0..rows).map(|_| rng.gen_range(1..400u64)).collect()),
            ("h", h),
        ],
    ));
    // Tiny join side: with 4 shards most shard pipelines stream nothing.
    db.add(Table::new(
        "s",
        vec![
            ("k", (0..20).map(|_| rng.gen_range(1..90u64)).collect()),
            ("x", (0..20).map(|_| rng.gen_range(1..100u64)).collect()),
        ],
    ));
    for workers in [1usize, 2] {
        for shards in [2usize, 4] {
            let exec = ShardedExecutor::with_shards(
                CheetahExecutor::new(
                    CostModel {
                        workers,
                        ..CostModel::default()
                    },
                    PrunerConfig::default(),
                ),
                shards,
            );
            for (label, q) in multipass_queries() {
                let truth = reference::evaluate(&db, &q);
                for trial in 0..3 {
                    let report = exec.execute(&db, &q);
                    assert_eq!(
                        report.result, truth,
                        "[{label}] shards={shards} workers={workers} trial={trial}: \
                         sharded diverged under skew"
                    );
                    assert!(report.wall.is_some() && report.combine_wall.is_some());
                    assert_eq!(
                        report.pass_walls.len(),
                        shards * report.passes as usize,
                        "[{label}] per-shard spans under skew"
                    );
                }
            }
        }
    }
}

/// The sharded pool contract, pinned through the spawn counter: every
/// shard runs its own persistent pool, spawned exactly once per pass set
/// — `shards × workers` threads for the single-pipeline shapes
/// (partition-local JOIN now included: one two-phase pipeline per shard,
/// no second sharded pass for a filter union), and an exact multiple
/// only where the combine layer genuinely needs a second sharded pass
/// (a two-pass HAVING's sketch broadcast).
#[test]
fn sharded_spawn_counts_are_exactly_shards_times_workers() {
    use cheetah::engine::threaded::worker_threads_spawned;
    let db = fixture::with_spread_twins(fixture::random(2_000, &SOAK_LANES, 39), TWIN);
    let (shards, workers) = (3usize, 2usize);
    let model = CostModel {
        workers,
        ..CostModel::default()
    };
    for (cfg, having_passes) in having_configs() {
        let exec = ShardedExecutor::with_shards(CheetahExecutor::new(model, cfg), shards);
        for (label, q) in multipass_queries() {
            // The soak's `s` is half of `t`, so JOIN takes the asymmetric
            // flow — but partition-local pairing runs it as ONE two-phase
            // pipeline per shard (small build, big probe, same pool).
            // A two-pass HAVING runs two sharded passes around the
            // tree-merged sketch. Every other shape is one pipeline per
            // shard.
            let expected = match q {
                Query::Having { .. } => having_passes as usize * shards * workers,
                _ => shards * workers,
            } as u64;
            let before = worker_threads_spawned();
            let report = exec.execute(&db, &q);
            assert_eq!(
                worker_threads_spawned() - before,
                expected,
                "[{label}] sharded pools must spawn exactly once per shard per pass"
            );
            assert_eq!(
                report.pass_walls.len(),
                shards * report.passes as usize,
                "[{label}] per-shard per-pass switch spans"
            );
        }
    }
    let exec =
        ShardedExecutor::with_shards(CheetahExecutor::new(model, PrunerConfig::default()), shards);

    // A symmetric join (similar-size tables): still one pipeline per
    // shard, but both sides stream in both of its phases, so the pool
    // holds 2 × workers partitions per shard.
    let mut sym_db = Database::new();
    sym_db.add(Table::new(
        "a",
        vec![("k", (0..1_500u64).map(|i| i % 80).collect())],
    ));
    sym_db.add(Table::new(
        "b",
        vec![("k", (0..1_000u64).map(|i| i % 120).collect())],
    ));
    let q = Query::Join {
        left: "a".into(),
        right: "b".into(),
        left_col: "k".into(),
        right_col: "k".into(),
    };
    let before = worker_threads_spawned();
    exec.execute(&sym_db, &q);
    assert_eq!(
        worker_threads_spawned() - before,
        (2 * shards * workers) as u64,
        "symmetric sharded join pools both sides in one pipeline per shard"
    );

    // Empty shards still spawn their full pool grid (idle workers must
    // watermark for the phase flip, as in the threaded pipeline).
    let mut tiny = Database::new();
    tiny.add(Table::new("t", vec![("k", vec![1, 2])]));
    let before = worker_threads_spawned();
    exec.execute(
        &tiny,
        &Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        },
    );
    assert_eq!(
        worker_threads_spawned() - before,
        (shards * workers) as u64,
        "mostly-empty shards keep the exact spawn grid"
    );
}

/// Perf-regression guard: with ≥2 workers on the bench-sized JOIN
/// workload, the pipelined pool must not lose to the deterministic
/// single-threaded path (generous 1.25× slack). The wall-clock comparison
/// is a release-profile guard — CI runs this test with `--release` — since
/// a debug build's walls on a shared host race; every profile checks that
/// the two arms agree.
#[test]
fn threaded_join_keeps_pace_with_deterministic() {
    use std::time::Instant;
    let timed = !cfg!(debug_assertions);
    let db = fixture::with_spread_twins(fixture::random(100_000, &SOAK_LANES, 36), TWIN);
    let q = Query::Join {
        left: "t".into(),
        right: "s".into(),
        left_col: "k".into(),
        right_col: "k".into(),
    };
    let cheetah = CheetahExecutor::new(
        CostModel {
            workers: 4,
            ..CostModel::default()
        },
        PrunerConfig::default(),
    );
    let threaded = ThreadedExecutor::new(cheetah.clone());
    let (det_runs, thr_runs) = if timed { (3, 6) } else { (1, 1) };
    let mut det_best = f64::INFINITY;
    let mut det_result = None;
    for _ in 0..det_runs {
        let t0 = Instant::now();
        let r = std::hint::black_box(Executor::execute(&cheetah, &db, &q));
        det_best = det_best.min(t0.elapsed().as_secs_f64());
        det_result = Some(r.result);
    }
    let mut thr_best = f64::INFINITY;
    for _ in 0..thr_runs {
        let r = std::hint::black_box(Executor::execute(&threaded, &db, &q));
        thr_best = thr_best.min(r.wall.expect("measured wall").as_secs_f64());
        assert_eq!(Some(r.result), det_result, "threaded JOIN diverged");
    }
    if timed {
        assert!(
            thr_best <= det_best * 1.25,
            "threaded JOIN regressed: {:.2}ms threaded vs {:.2}ms deterministic",
            thr_best * 1e3,
            det_best * 1e3
        );
    }
}

/// The multi-pass shapes over the Big Data tables, as the scaling gates
/// below run them.
fn bigdata_multipass() -> Vec<(&'static str, Query)> {
    let uservisits = || "uservisits".to_string();
    vec![
        (
            "join",
            Query::Join {
                left: uservisits(),
                right: "rankings".into(),
                left_col: "destURL".into(),
                right_col: "pageURL".into(),
            },
        ),
        (
            "having",
            Query::Having {
                table: uservisits(),
                key: "languageCode".into(),
                val: "adRevenue".into(),
                threshold: 2_000_000,
            },
        ),
        (
            "filter_fetch",
            Query::Filter {
                table: uservisits(),
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
                table: uservisits(),
                columns: vec!["userAgent".into(), "languageCode".into()],
            },
        ),
        (
            "groupby_sum",
            Query::GroupBy {
                table: uservisits(),
                key: "sourcePrefix".into(),
                val: "adRevenue".into(),
                agg: Agg::Sum,
            },
        ),
    ]
}

/// Perf-regression guard for sharding and planning on 200,000 Big Data
/// rows. Four shards must stream JOIN, GROUP BY SUM and DistinctMulti at
/// no fewer rows a second than one shard; that keeps the serial combine
/// wall from coming back. For every multi-pass shape, the planner's wall
/// stays within 1.25× of the best static arm that covers the shape: the
/// threaded pool at 1, 2 and 4 workers (JOIN, HAVING, DistinctMulti) and
/// the sharded arm at 1, 2, 4 and 8 shards (JOIN, GROUP BY SUM,
/// DistinctMulti). Walls are compared only in a release build on at
/// least four cores; with fewer, four shards time-slice the cores and
/// cannot win. Every profile checks every run against the reference
/// oracle, and each sharded run's combine span against its wall.
#[test]
fn shards_and_the_planner_keep_pace_on_four_cores() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let timed = !cfg!(debug_assertions) && cores >= 4;
    let db = cheetah_bench::bigdata_db(200_000, 40_000, 2_000, 0.5, 42);
    let cheetah = |workers| {
        let model = CostModel {
            workers,
            ..CostModel::default()
        };
        CheetahExecutor::new(model, PrunerConfig::default())
    };
    let default_workers = CostModel::default().workers;
    for (label, q) in bigdata_multipass() {
        let truth = reference::evaluate(&db, &q);
        // A warm run, then (timed) three more: the report with the
        // smallest measured wall, and that wall in seconds.
        let best = |exec: &dyn Executor| {
            let runs = (0..if timed { 4 } else { 1 }).map(|_| {
                let r = std::hint::black_box(exec.execute(&db, &q));
                assert_eq!(r.result, truth, "[{label}] {} diverged", r.executor);
                (r.wall.expect("measured wall").as_secs_f64(), r)
            });
            runs.min_by(|a, b| a.0.total_cmp(&b.0)).expect("one run")
        };
        let mut statics = Vec::new();
        if matches!(label, "join" | "having" | "distinct_multi") {
            for workers in [1, 2, 4] {
                statics.push(best(&ThreadedExecutor::new(cheetah(workers))).0);
            }
        }
        if matches!(label, "join" | "groupby_sum" | "distinct_multi") {
            let mut rows_per_s = Vec::new();
            for shards in [1, 2, 4, 8] {
                let exec = ShardedExecutor::with_shards(cheetah(default_workers), shards);
                let (wall, r) = best(&exec);
                let combine = r.combine_wall.expect("measured combine").as_secs_f64();
                assert!(
                    combine < wall,
                    "[{label}] {shards} shards: combine outside wall"
                );
                assert_eq!(
                    r.merge_walls.is_empty(),
                    shards == 1,
                    "[{label}] {shards} shards"
                );
                rows_per_s.push(r.prune_stats().processed as f64 / wall);
                statics.push(wall);
            }
            if timed {
                let (one, four) = (rows_per_s[0], rows_per_s[2]);
                assert!(
                    four >= one,
                    "[{label}] {four:.0} rows/s at 4 shards < {one:.0} at 1 on {cores} cores: \
                     the combine wall is back"
                );
            }
        }
        let (planned, _) = best(&PlannerExecutor::new(cheetah(default_workers)));
        if let (true, Some(fastest)) = (timed, statics.into_iter().reduce(f64::min)) {
            assert!(
                planned <= 1.25 * fastest,
                "[{label}] planned wall {:.2}ms > 1.25× the best static arm's {:.2}ms \
                 on {cores} cores",
                planned * 1e3,
                fastest * 1e3
            );
        }
    }
}

/// The worker grid the scaling gate times, on 3,000 Big Data rows: JOIN,
/// HAVING and DistinctMulti on the threaded pool at 1, 2 and 4 workers
/// each equal the reference oracle, with a measured wall and rows pruned.
#[test]
fn worker_grid_runs_join_having_and_distinct_multi_at_one_two_and_four_workers() {
    let db = cheetah_bench::bigdata_db(3_000, 600, 2_000, 0.5, 42);
    let mut cells = 0;
    for (label, q) in bigdata_multipass() {
        if !matches!(label, "join" | "having" | "distinct_multi") {
            continue;
        }
        let truth = reference::evaluate(&db, &q);
        for workers in WORKER_COUNTS {
            let model = CostModel {
                workers,
                ..CostModel::default()
            };
            let exec = ThreadedExecutor::new(CheetahExecutor::new(model, PrunerConfig::default()));
            let r = exec.execute(&db, &q);
            assert_eq!(r.result, truth, "[{label}] {workers} workers diverged");
            assert!(
                r.wall.expect("measured wall") > Duration::ZERO,
                "[{label}] {workers} workers: wall must be measured"
            );
            assert!(r.prune_stats().processed > 0, "[{label}] {workers} workers");
            cells += 1;
        }
    }
    assert_eq!(cells, 9, "3 worker counts × 3 queries");
}

/// The shard grid the scaling gate times, on 3,000 Big Data rows: JOIN,
/// GROUP BY SUM and DistinctMulti at 1, 2, 4 and 8 shards each equal the
/// reference oracle; the combine span is measured inside the query wall,
/// and tree merges are measured exactly when there is more than one shard.
#[test]
fn shard_grid_measures_combine_and_merge_spans_at_one_to_eight_shards() {
    let db = cheetah_bench::bigdata_db(3_000, 600, 2_000, 0.5, 42);
    let cheetah = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    let mut cells = 0;
    for (label, q) in bigdata_multipass() {
        if !matches!(label, "join" | "groupby_sum" | "distinct_multi") {
            continue;
        }
        let truth = reference::evaluate(&db, &q);
        for shards in [1, 2, 4, 8] {
            let r = ShardedExecutor::with_shards(cheetah.clone(), shards).execute(&db, &q);
            assert_eq!(r.result, truth, "[{label}] {shards} shards diverged");
            let wall = r.wall.expect("measured wall");
            assert!(wall > Duration::ZERO, "[{label}] {shards} shards");
            assert!(
                r.combine_wall.expect("measured combine") < wall,
                "[{label}] {shards} shards: combine span outside the query wall"
            );
            assert_eq!(
                r.merge_walls.is_empty(),
                shards == 1,
                "[{label}] {shards} shards: tree merges measured iff sharded"
            );
            assert!(r.prune_stats().processed > 0, "[{label}] {shards} shards");
            cells += 1;
        }
    }
    assert_eq!(cells, 12, "4 shard counts × 3 queries");
}

/// Filter's fetch phase must materialize exactly the deterministic
/// executor's row set regardless of arrival order: the order-independent
/// checksum pins it.
#[test]
fn threaded_fetch_checksum_stable_under_races() {
    let db = fixture::with_spread_twins(fixture::random(4_000, &SOAK_LANES, 33), TWIN);
    let cheetah = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    let threaded = ThreadedExecutor::new(cheetah.clone());
    let q = multipass_queries()
        .into_iter()
        .find(|(l, _)| *l == "filter-fetch")
        .map(|(_, q)| q)
        .unwrap();
    let det = Executor::execute(&cheetah, &db, &q);
    let det_sum = det.fetch_checksum.expect("deterministic fetch");
    assert_ne!(det_sum, 0, "non-empty fetch must checksum nonzero");
    for trial in 0..TRIALS {
        let thr = Executor::execute(&threaded, &db, &q);
        assert_eq!(
            thr.fetch_checksum,
            Some(det_sum),
            "trial {trial}: threaded fetch materialized a different row set"
        );
        assert_eq!(thr.fetch_rows, det.fetch_rows);
    }
}
