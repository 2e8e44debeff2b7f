//! Allocation-count regression pin for the switch hot path.
//!
//! The block-streaming refactor's contract: a warm `CheetahExecutor`
//! query performs O(1) heap allocations — one block scratch, the
//! pruner state, and O(output) bookkeeping — never O(rows). Before the
//! refactor the interleave built one `Vec<u64>` per table row, so a
//! 60 000-row query cost >60 000 allocations; this test fails loudly if
//! any per-row allocation sneaks back into the loop.
//!
//! The allocator also tracks **live bytes** and a resettable **peak
//! watermark**, pinning two contracts. The switch path stores nothing:
//! an `EntryStream` is a view of the table's lanes, so what a
//! deterministic query holds does not grow with the table's rows. And
//! projection pushdown: a projected wide-table fetch must peak at a
//! fraction of the full-row fetch's memory, because the never-read lanes
//! are never gathered or shipped.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one #[test] (integration tests in one binary run concurrently and
//! would cross-pollute the counter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use cheetah::core::filter::{Atom, CmpOp, Formula};
use cheetah::engine::backend::JoinFlow;
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::serve::ServeExecutor;
use cheetah::engine::stream::hash_partition;
use cheetah::engine::{
    Agg, CostModel, Database, DistributedExecutor, Executor, FetchSpec, Predicate, Query,
    ShardedExecutor, Table, ThreadedExecutor, BLOCK_ENTRIES,
};

#[path = "common/fixture.rs"]
mod fixture;
use fixture::KeyForm;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            let grown = (new_size - layout.size()) as u64;
            let live = LIVE.fetch_add(grown, Ordering::Relaxed) + grown;
            PEAK.fetch_max(live, Ordering::Relaxed);
        } else {
            LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during<F: FnMut()>(mut f: F) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Peak heap growth over `f`'s lifetime: the high-water mark of live
/// bytes above the level at entry. Resets the global watermark, so only
/// one measurement may run at a time (this file's single-#[test] rule).
fn peak_bytes_during<F: FnMut()>(mut f: F) -> u64 {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed).saturating_sub(start)
}

const ROWS: usize = 60_000;

/// A HAVING over `s.u`, whose keys are past the register cutoff.
fn two_pass_having() -> Query {
    Query::Having {
        table: "s".into(),
        key: "u".into(),
        val: "x".into(),
        threshold: 100,
    }
}

/// The fixture's shapes whose warm runs the budget pins.
const WARM: [&str; 3] = ["filter-count", "topn", "groupby-max"];

#[test]
fn warm_queries_allocate_o1_not_o_rows() {
    // The fixture's arithmetic lanes, deterministic: no RNG allocations
    // to account for. Beside them, a small-domain column, so
    // DistinctMulti's survivor set stays O(groups) (≤ 83 × 13 distinct
    // (k, g) pairs); the join keys spread past any stage's dense bitmap,
    // `ks`, so a JOIN over them runs the Bloom pair; and 20,011 keys `u`,
    // past the 16,384 a HAVING aggregates in Table 2's GROUP BY registers
    // and spread past any stage's dense array, so a HAVING over them makes
    // §5's two passes and leaves its sketch in serving's filter cache.
    let mut db = fixture::arithmetic(ROWS, ROWS / 2);
    let g = (0..ROWS as u64).map(|i| i % 13 + 1).collect();
    db.table_mut("t").add_column("g", g);
    let twins = [("t", "k", "ks"), ("s", "k", "ks")];
    let mut db = fixture::with_spread_twins(db, &twins);
    let u: Vec<u64> = (0..ROWS as u64 / 2).map(|i| i * 7_919 % 20_011).collect();
    db.table_mut("s").add_column("u", KeyForm::Spread.lane(&u));
    let exec = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    // The old per-row layout cost ≥1 allocation per row; the flat layout
    // needs a few dozen (lanes, pruner state, survivors, result). The
    // bound leaves room for O(groups + log survivors) bookkeeping while
    // staying two orders of magnitude under O(rows).
    let budget = (ROWS / 100) as u64;
    for (name, q) in WARM.map(|l| (l, fixture::shape(l))) {
        // Warm run: faults in lazy table state and the allocator itself.
        let warm = exec.execute(&db, &q);
        let mut result = None;
        let allocs = allocs_during(|| {
            result = Some(exec.execute(&db, &q));
        });
        assert_eq!(
            result.expect("ran").result,
            warm.result,
            "[{name}] warm rerun changed the result"
        );
        assert!(
            allocs < budget,
            "[{name}] warm query made {allocs} allocations over {ROWS} rows \
             (budget {budget}); a per-row allocation is back in the hot path"
        );
    }

    // A stream is a view: what a deterministic query holds is a block
    // scratch, its pruner and its survivors, whatever the table's rows.
    // The same keys cycled to 50k and to 200k rows leave equal survivors
    // and equal pruner state, so the two peaks must agree (a gathered
    // lane would add `8 × 150k` bytes) — and so must the allocation
    // counts: 147 more blocks, not one more allocation.
    let cycled = |rows: u64| {
        let mut db = Database::new();
        db.add(Table::new(
            "c",
            vec![
                ("k", (0..rows).map(|i| i % 83 + 1).collect()),
                ("v", (0..rows).map(|i| (i % 83 + 1) * 3).collect()),
                ("w", (0..rows).map(|i| i % 499 + 1).collect()),
                ("g", (0..rows).map(|i| i % 83 % 13 + 1).collect()),
                // ≈ 2k keys; keys that do not repeat within 11k rows (nor,
                // interleaved five ways, within the stream's first 7k
                // entries); and each row's position in that interleave,
                // a value every repeat of a key arrives above. The HAVING
                // keys `u` and `p` are spread past any stage's dense array,
                // so the hashed programs run.
                (
                    "u",
                    (0..rows)
                        .map(|i| KeyForm::Spread.value(i % 2_003 + 1))
                        .collect(),
                ),
                ("n", (0..rows).map(|i| i % 11_657).collect()),
                // 20,011 keys, past the register cutoff.
                (
                    "p",
                    (0..rows)
                        .map(|i| KeyForm::Spread.value(i % 20_011))
                        .collect(),
                ),
                (
                    "i",
                    (0..rows)
                        .map(|i| i % (rows / 5) * 5 + i / (rows / 5))
                        .collect(),
                ),
            ],
        ));
        // No key of `d` is a key of `c`: their JOIN has no survivors.
        db.add(Table::new(
            "d",
            vec![("k", (0..rows / 2).map(|i| i % 50 + 1_000).collect())],
        ));
        db
    };
    let (small, large) = (cycled(50_000), cycled(200_000));
    let rows_free = [
        (
            "distinct",
            Query::Distinct {
                table: "c".into(),
                column: "k".into(),
            },
        ),
        (
            "filter-count",
            Query::FilterCount {
                table: "c".into(),
                predicate: Predicate {
                    columns: vec!["v".into(), "w".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, 100), Atom::cmp(1, CmpOp::Gt, 450)],
                    formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
                },
            },
        ),
        (
            "groupby-max",
            Query::GroupBy {
                table: "c".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Max,
            },
        ),
        (
            "distinct-multi",
            Query::DistinctMulti {
                table: "c".into(),
                columns: vec!["k".into(), "g".into()],
            },
        ),
    ];
    // A warm run's peak growth and allocations.
    let cost_on = |exec: &CheetahExecutor, db: &Database, q: &Query| {
        exec.execute(db, q);
        let mut allocs = 0;
        let peak = peak_bytes_during(|| {
            allocs = allocs_during(|| {
                exec.execute(db, q);
            });
        });
        (peak, allocs)
    };
    let cost = |db: &Database, q: &Query| cost_on(&exec, db, q);
    for (name, q) in &rows_free {
        let ((small_peak, small_allocs), (large_peak, large_allocs)) =
            (cost(&small, q), cost(&large, q));
        assert!(
            large_peak.abs_diff(small_peak) <= 16 * 1024,
            "[{name}] peaked at {small_peak} B over 50k rows and {large_peak} B over 200k; \
             the switch path is holding something `rows`-sized again"
        );
        assert!(
            large_allocs <= small_allocs + 4,
            "[{name}] made {small_allocs} allocations over 50k rows and {large_allocs} over \
             200k; the block loop allocates per block again"
        );
    }

    // The master's group fold holds what the *groups* need, however many
    // survivors reach it: a HAVING that forwards every entry of its ≈ 2k
    // keys (the group table) — past the cutoff of a 1024 × 2 register
    // matrix, so its pass 2 runs — and a GROUP BY MAX whose keys arrive
    // near-unique, so the table steps aside for the sort buffer, and whose
    // rising values forward most repeats. Four times the survivors, the
    // same allocations and the same peak.
    let two_pass = CheetahExecutor::new(
        CostModel::default(),
        PrunerConfig {
            groupby_d: 1024,
            groupby_w: 2,
            ..PrunerConfig::default()
        },
    );
    let grouped = [
        (
            "having-2k-keys",
            Query::Having {
                table: "c".into(),
                key: "u".into(),
                val: "v".into(),
                threshold: 0,
            },
            &two_pass,
        ),
        (
            "groupby-max-near-unique",
            Query::GroupBy {
                table: "c".into(),
                key: "n".into(),
                val: "i".into(),
                agg: Agg::Max,
            },
            &exec,
        ),
    ];
    for (name, q, exec) in grouped {
        let cost = |db: &Database, q: &Query| cost_on(exec, db, q);
        let q = &q;
        let survivors = |db: &Database| exec.execute(db, q).prune_stats().forwarded();
        let (small_survivors, large_survivors) = (survivors(&small), survivors(&large));
        assert!(
            large_survivors > 3 * small_survivors,
            "[{name}] the pin needs survivors to grow with the rows: \
             {small_survivors} over 50k rows, {large_survivors} over 200k"
        );
        let ((small_peak, small_allocs), (large_peak, large_allocs)) =
            (cost(&small, q), cost(&large, q));
        assert!(
            large_peak.abs_diff(small_peak) <= 16 * 1024,
            "[{name}] peaked at {small_peak} B over {small_survivors} survivors and \
             {large_peak} B over {large_survivors}; the group fold holds survivors again"
        );
        assert_eq!(
            small_allocs, large_allocs,
            "[{name}] the group fold's allocations grew with its survivors"
        );
    }

    // A warm deterministic JOIN's peak: its filters and the pairing
    // index over the smaller table's survivors — their pairs (a growing
    // vector, so up to twice their 16 bytes each), a `u32` chain link per
    // pair and the `u32` heads, at most the hashed table's
    // `(2 × build).next_power_of_two()`. The larger side probes as it is
    // forwarded and adds nothing. Its survivors are at least the rows whose
    // key the smaller side holds (exactly those over the dense `k`), so
    // the rest of the forwarded entries bound the build side. Over `k` the
    // filters are two bitmaps over the sides' union range `1..=179`, three
    // registers each; over the spread `ks`, the Bloom pair sized from 60k
    // and 30k rows. No key lane and no permutation: with the two of each
    // it used to hold (`4 × 8 × 45k` bytes) the flow would not fit under
    // this.
    let cfg = &exec.config;
    let join_bytes = 2 * 3 * 8;
    let bloom_bytes = (JoinFlow::side_bits(cfg, ROWS) + JoinFlow::side_bits(cfg, ROWS / 2)) / 8;
    for (col, filter_bytes) in [("k", join_bytes), ("ks", bloom_bytes)] {
        let join = Query::Join {
            left: "t".into(),
            right: "s".into(),
            left_col: col.into(),
            right_col: col.into(),
        };
        let survivors = exec.execute(&db, &join).prune_stats().forwarded();
        let smaller: HashSet<u64> = db.table("s").col(col).iter().copied().collect();
        let larger = db.table("t").col(col).iter();
        let build = survivors - larger.filter(|k| smaller.contains(k)).count() as u64;
        let peak = peak_bytes_during(|| {
            exec.execute(&db, &join);
        });
        let index = (2 * 16 + 4) * build + 4 * (2 * build).next_power_of_two();
        let bound = filter_bytes + index + 64 * 1024;
        assert!(
            peak < bound,
            "a warm JOIN on {col} peaked at {peak} B; its filters are {filter_bytes} B and \
             its at most {build} build-side survivors of {survivors} allow {bound} B"
        );
    }

    // The threaded path: the persistent pool plus borrowed lane
    // partitions make warm JOIN/HAVING/GROUP BY SUM runs O(1) allocations
    // **per block** (each in-flight block is a view of its lanes, its
    // survivors one index list, GROUP BY SUM's one its evictions). The
    // budget charges a small constant per block plus a fixed
    // pool/channel/result term — far under the O(rows) a per-entry
    // allocation would cost.
    let threaded = ThreadedExecutor::new(exec.clone());
    let threaded_queries = [
        (
            "threaded-join",
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
            // Both sides stream in both passes.
            2 * (ROWS + ROWS / 2),
        ),
        (
            // 83 keys: one §6 register pass.
            "threaded-having",
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: 100_000,
            },
            ROWS,
        ),
        ("threaded-having-two-pass", two_pass_having(), ROWS),
        (
            "threaded-groupby-sum",
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Sum,
            },
            ROWS,
        ),
    ];
    for (name, q, streamed) in threaded_queries {
        let warm = threaded.execute(&db, &q);
        let blocks = (streamed / BLOCK_ENTRIES + 16) as u64;
        let budget = 16 * blocks + 4096;
        let mut result = None;
        let allocs = allocs_during(|| {
            result = Some(threaded.execute(&db, &q));
        });
        assert_eq!(
            result.expect("ran").result,
            warm.result,
            "[{name}] warm rerun changed the result"
        );
        assert!(
            allocs < budget,
            "[{name}] warm threaded query made {allocs} allocations over \
             ~{blocks} blocks (budget {budget}); the pool path has lost its \
             O(1)-per-block guarantee"
        );
    }

    // And what a warm threaded GROUP BY SUM holds does not grow with the
    // rows: blocks reach the switch as views of the table's lanes and only
    // evictions travel back, so the same 83 keys over 50k and 200k rows
    // peak alike — the switch's register matrix, the master's group
    // table, the pool's channels and a block's scratch. Materialized in
    // flight, its blocks could queue 64 wire blocks of two lanes (8 MiB),
    // and did queue as many as the workers ran ahead of the switch: 25
    // over 200k rows.
    let sum = Query::GroupBy {
        table: "c".into(),
        key: "k".into(),
        val: "v".into(),
        agg: Agg::Sum,
    };
    let sum_peak = |db: &Database| {
        threaded.execute(db, &sum);
        peak_bytes_during(|| {
            threaded.execute(db, &sum);
        })
    };
    let (small_peak, large_peak) = (sum_peak(&small), sum_peak(&large));
    let wire_block = (2 * 8 * 8 * BLOCK_ENTRIES) as u64;
    assert!(
        large_peak.abs_diff(small_peak) < wire_block,
        "a warm threaded GROUP BY SUM peaked at {small_peak} B over 50k rows and \
         {large_peak} B over 200k; a wire block of its two lanes is {wire_block} B"
    );

    // The hash partition behind the key-sharded shapes: one shard-id lane,
    // the per-shard counts, and per shard its lanes and the vector of
    // them, whatever the rows — a lane that grew by doubling would add
    // log2(rows) allocations each.
    let partition_allocs = |rows: u64| {
        let keys: Vec<u64> = (0..rows).map(|i| i * 7 % 83).collect();
        let vals: Vec<u64> = (0..rows).collect();
        allocs_during(|| {
            let p = hash_partition(&[&keys, &vals], 0, 3, 9, true);
            assert_eq!(p.len(), 3);
        })
    };
    let (small_allocs, large_allocs) = (partition_allocs(1_000), partition_allocs(100_000));
    assert_eq!(
        small_allocs, large_allocs,
        "a hash partition's allocations grew with its rows"
    );
    assert!(
        large_allocs <= 3 * (3 + 1) + 3,
        "partitioning 3 lanes across 3 shards made {large_allocs} allocations"
    );

    // The sharded multi-switch path: per-shard pools over borrowed range
    // views (JOIN, DistinctMulti) or the lanes of that one partition
    // (GROUP BY SUM, JOIN at >1 shard), tree-reduced by associative
    // merges — sorted group-run merges, flat-lane appends, pair-count
    // sums — none of which may reintroduce a per-row `Vec`. Each shard
    // merge is O(1) allocations (a buffer append or a linear merge into
    // one new run), so the budget charges the same small constant per
    // wire block plus a fixed shard/pool/combine term (gather lanes,
    // pair streams, channels, O(groups) results).
    let sharded = ShardedExecutor::with_shards(exec.clone(), 2);
    let sharded_queries = [
        (
            "sharded-join",
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
            // Lopsided tables: the asymmetric flow streams each side once.
            ROWS + ROWS / 2,
            // The two hash-sharded shapes may not allocate more than they
            // did when every shard gathered its own slice: 298–300 and
            // 203–208 measured there, 295–298 and 205–208 now. Pool
            // hand-offs race (one run in forty read 324), hence the
            // slack; one allocation a wire block would add 90 and 59.
            360,
        ),
        (
            "sharded-groupby-sum",
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Sum,
            },
            ROWS,
            256,
        ),
        (
            "sharded-distinct-multi",
            Query::DistinctMulti {
                table: "t".into(),
                columns: vec!["k".into(), "g".into()],
            },
            ROWS,
            u64::MAX,
        ),
    ];
    for (name, q, streamed, ceiling) in sharded_queries {
        let warm = sharded.execute(&db, &q);
        let blocks = (streamed / BLOCK_ENTRIES + 16) as u64;
        let budget = (16 * blocks + 8192).min(ceiling);
        let mut result = None;
        let allocs = allocs_during(|| {
            result = Some(sharded.execute(&db, &q));
        });
        assert_eq!(
            result.expect("ran").result,
            warm.result,
            "[{name}] warm rerun changed the result"
        );
        assert!(
            allocs < budget,
            "[{name}] warm sharded query made {allocs} allocations over \
             ~{blocks} blocks (budget {budget}); the key partition or the \
             combine layer has reintroduced per-row allocation"
        );
    }

    // The planner path: planning a warm query — one throughput probe,
    // one timed merge sample, the candidate race, the feasibility
    // packing — must add O(1) allocations on top of whatever the chosen
    // arm's execution costs. Arm-conditional budget: when the planner
    // lands on the deterministic arm, it is pinned against that arm's
    // measured count plus a constant; any pool/shard arm inherits the
    // O(1)-per-block budget the threaded/sharded paragraphs enforce.
    let planner = cheetah::engine::PlannerExecutor::new(exec.clone());
    let planner_queries = [
        (
            "planner-join",
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
            2 * (ROWS + ROWS / 2),
        ),
        (
            "planner-groupby-sum",
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Sum,
            },
            ROWS,
        ),
    ];
    for (name, q, streamed) in planner_queries {
        let warm = planner.execute(&db, &q);
        let arm = warm.plan.as_ref().expect("planner reports its plan").arm;
        let det_allocs = allocs_during(|| {
            exec.execute(&db, &q);
        });
        let blocks = (streamed / BLOCK_ENTRIES + 16) as u64;
        let budget = if arm == "deterministic" {
            det_allocs + 4096
        } else {
            16 * blocks + 8192
        };
        let mut result = None;
        let allocs = allocs_during(|| {
            result = Some(planner.execute(&db, &q));
        });
        assert_eq!(
            result.expect("ran").result,
            warm.result,
            "[{name}] warm rerun changed the result"
        );
        assert!(
            allocs < budget,
            "[{name}] planned warm query ({arm} arm) made {allocs} allocations \
             (budget {budget}); planning is no longer O(1) beyond execution"
        );
    }

    // The serving cache-hit path: a warmed `ServeExecutor` re-serving a
    // repeated JOIN/HAVING replays cached filter state — one cloned
    // Bloom pair / sketch, a block scratch, amortized survivor growth —
    // so a hit stays O(1) allocations per block, never a rebuilt
    // observation pass or any per-row bookkeeping. A HAVING within the
    // register cutoff has no observation pass to cache: it neither hits
    // nor misses, and stays O(1) allocations per block all the same.
    let serving = ServeExecutor::with_pool(exec.clone(), 1);
    let cached_queries = [
        (
            "serving-cached-join",
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
            // A hit probes each side exactly once.
            ROWS + ROWS / 2,
            1,
        ),
        (
            "serving-register-having",
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: 100_000,
            },
            ROWS,
            0,
        ),
        ("serving-cached-having", two_pass_having(), ROWS / 2, 1),
    ];
    for (name, q, streamed, hits) in cached_queries {
        let batch = [q];
        // Populate the cache (miss) and warm the allocator.
        let (warm, _) = serving.serve(&db, &batch);
        let blocks = (streamed / BLOCK_ENTRIES + 16) as u64;
        let budget = 16 * blocks + 8192;
        let mut served = None;
        let allocs = allocs_during(|| {
            served = Some(serving.serve(&db, &batch));
        });
        let (reports, agg) = served.expect("ran");
        assert_eq!(
            agg.cache_hits, hits,
            "[{name}] warmed run must hit the cache"
        );
        assert_eq!(agg.cache_misses, 0, "[{name}]");
        assert_eq!(
            reports[0].result, warm[0].result,
            "[{name}] cache hit changed the result"
        );
        assert!(
            allocs < budget,
            "[{name}] cache-hit serve made {allocs} allocations over \
             ~{blocks} blocks (budget {budget}); the cached replay has lost \
             its O(1)-per-block guarantee"
        );
    }

    // Coalescing: a batch that cycles seven queries to 32 executes seven
    // and clones the rest, so its peak is the six-query batch's plus the
    // bytes of the extra answers; nothing but the filter cache outlives
    // the call, so a warm call leaves the heap where it found it and a
    // cold one leaves only the filter cache behind. Same pool-of-one
    // executor as above (solo flows run inline, so the watermark is
    // deterministic), its cache emptied first.
    serving.clear_cache();
    let distinct: Vec<Query> = WARM
        .map(fixture::shape)
        .into_iter()
        .chain([
            Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            },
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: 100_000,
            },
            two_pass_having(),
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
        ])
        .collect();
    let cycled: Vec<Query> = (0..32)
        .map(|i| distinct[i % distinct.len()].clone())
        .collect();
    // Peak growth over one serve, the bytes its returned answers hold,
    // and what stays live once they are dropped.
    let measure = |batch: &[Query]| {
        let before = LIVE.load(Ordering::Relaxed);
        let mut served = None;
        let peak = peak_bytes_during(|| served = Some(serving.serve(&db, batch)));
        let (reports, agg) = served.expect("ran");
        let holding = LIVE.load(Ordering::Relaxed);
        drop(reports);
        let after = LIVE.load(Ordering::Relaxed);
        (peak, holding - after, after.saturating_sub(before), agg)
    };
    // What the cache holds: the JOIN's two bitmaps for t ⋈ s, the
    // two-pass HAVING's sketch, and under 64 KB of keys and
    // map.
    let sketch_bytes = (cfg.having_d * cfg.having_w * 8) as u64;
    let cached = join_bytes + sketch_bytes;
    let lane_bytes = (ROWS * 8) as u64;
    let (_, _, cold_left, cold) = measure(&cycled);
    assert_eq!(cold.cache_misses, 2, "{cold:?}");
    assert!(
        cold_left >= cached && cold_left < cached + 64 * 1024,
        "a cold serve left {cold_left} B behind; the filter cache alone is \
         {cached} B (a retained lane would add {lane_bytes} B)"
    );
    let (peak7, answers7, left7, agg7) = measure(&distinct);
    let (peak32, answers32, left32, agg32) = measure(&cycled);
    for (agg, left) in [(&agg7, left7), (&agg32, left32)] {
        assert_eq!(agg.cache_hits, 2, "{agg:?}");
        assert!(
            left < 4096,
            "a warm serve left {left} B behind; only the filter cache may outlive the call"
        );
    }
    assert_eq!((agg7.coalesced, agg32.coalesced), (0, 25));
    assert!(
        peak32 <= peak7 + (answers32 - answers7) + 4096,
        "32 admissions of 7 queries peaked at {peak32} B vs {peak7} B for the 7 \
         alone plus {} B of cloned answers; what a batch holds must grow \
         with its distinct queries, not its admissions",
        answers32 - answers7
    );

    // A served batch of 32 makes no `rows`-sized allocation other than
    // its results and filter-cache entries. Seven shapes over the 200k-row
    // cycled tables whose survivors and answers stay small (the HAVINGs
    // pass no candidate, the JOIN no pair), cycled to 32 and served
    // warm: the batch may hold the cached filters' working copies and
    // well under one 1.6 MB lane besides, where it used to hold every
    // lane its flows read plus two permutations.
    let warm_batch: Vec<Query> = rows_free
        .iter()
        .map(|(_, q)| q.clone())
        .chain([
            Query::Having {
                table: "c".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: u64::MAX / 2,
            },
            // Past the register cutoff: its sketch is cached.
            Query::Having {
                table: "c".into(),
                key: "p".into(),
                val: "v".into(),
                threshold: u64::MAX / 2,
            },
            Query::Join {
                left: "c".into(),
                right: "d".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
        ])
        .collect();
    let warm_batch: Vec<Query> = (0..32)
        .map(|i| warm_batch[i % warm_batch.len()].clone())
        .collect();
    serving.clear_cache();
    serving.serve(&large, &warm_batch);
    let mut served = None;
    let peak = peak_bytes_during(|| served = Some(serving.serve(&large, &warm_batch)));
    let (_, agg) = served.expect("ran");
    assert_eq!((agg.cache_hits, agg.coalesced), (2, 25), "{agg:?}");
    // The JOIN's bitmaps over `1..=1_049`: 17 registers a side.
    let filters = 2 * 17 * 8;
    let lane_bytes = 200_000 * 8;
    assert!(
        peak < filters + sketch_bytes + lane_bytes / 2,
        "a warm batch of 32 peaked at {peak} B over 200k rows; its filter copies are \
         {filters} + {sketch_bytes} B and one lane is {lane_bytes} B"
    );

    // Projection pushdown peak-memory pin: a fetch-heavy Filter over a
    // 64-column table where the query touches one lane. The distributed
    // path ships the fetched rows over the wire, so the flat payload is
    // O(survivors × projected width): under `FetchSpec::All` that is 64
    // words per survivor, under `FetchSpec::Referenced` exactly one. The
    // projected run must peak well under half the full-row run — if the
    // gather or the codec starts carrying never-read lanes again, the
    // watermark converges and this fails.
    const WIDE_COLS: usize = 64;
    const WIDE_ROWS: usize = 20_000;
    let names: Vec<String> = (0..WIDE_COLS).map(|c| format!("c{c:02}")).collect();
    let lanes: Vec<(&str, Vec<u64>)> = names
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let lane = (0..WIDE_ROWS as u64)
                .map(|i| i.wrapping_mul(2 * c as u64 + 7) % 1_000)
                .collect();
            (name.as_str(), lane)
        })
        .collect();
    let mut wide = Database::new();
    wide.add(Table::new("w", lanes));
    let wide_query = Query::Filter {
        table: "w".into(),
        predicate: Predicate {
            columns: vec!["c00".into()],
            atoms: vec![Atom::cmp(0, CmpOp::Lt, 500)],
            formula: Formula::Atom(0),
        },
    };
    let peak_for = |fetch: FetchSpec| {
        let exec = DistributedExecutor::with_shards(
            CheetahExecutor::new(
                CostModel::default(),
                PrunerConfig {
                    fetch,
                    ..PrunerConfig::default()
                },
            ),
            2,
        );
        let warm = exec.execute(&wide, &wide_query);
        let mut result = None;
        let peak = peak_bytes_during(|| {
            result = Some(exec.execute(&wide, &wide_query));
        });
        assert_eq!(
            result.expect("ran").result,
            warm.result,
            "warm rerun changed the wide-table Filter result"
        );
        (peak, warm.result)
    };
    let (full_peak, full_result) = peak_for(FetchSpec::All);
    let (pruned_peak, pruned_result) = peak_for(FetchSpec::Referenced);
    assert_eq!(
        full_result, pruned_result,
        "projection changed the wide-table Filter result"
    );
    assert!(
        pruned_peak * 2 <= full_peak,
        "projected wide-table fetch peaked at {pruned_peak} B vs {full_peak} B \
         full-row ({WIDE_COLS} columns, 1 referenced); late materialization \
         is carrying never-read lanes again"
    );

    // The in-process fetch kernel materialises nothing: the same Filter
    // fetching all 64 lanes of its ~10k survivors may cost a constant few
    // allocations and a few block-sized buffers more than fetching one
    // lane. A `Vec` per row would add ~10k allocations; a `width × k`
    // arena 5 MB, a lane-major tile of one block 2 MB.
    let fetch_cost = |fetch: FetchSpec| {
        let exec = CheetahExecutor::new(
            CostModel::default(),
            PrunerConfig {
                fetch,
                ..PrunerConfig::default()
            },
        );
        let warm = exec.execute(&wide, &wide_query);
        let mut allocs = 0;
        let peak = peak_bytes_during(|| {
            allocs = allocs_during(|| {
                exec.execute(&wide, &wide_query);
            });
        });
        (allocs, peak, warm.fetch_rows)
    };
    let (full_allocs, full_peak, fetched) = fetch_cost(FetchSpec::All);
    let (lane_allocs, lane_peak, _) = fetch_cost(FetchSpec::Referenced);
    assert!(
        fetched > 5_000,
        "the pin needs a real fetch, got {fetched} rows"
    );
    assert!(
        full_allocs <= lane_allocs + 8,
        "fetching {WIDE_COLS} lanes of {fetched} rows made {full_allocs} allocations \
         vs {lane_allocs} for one lane; the fetch allocates per row again"
    );
    let few_blocks = 16 * (BLOCK_ENTRIES * 8) as u64;
    assert!(
        full_peak <= lane_peak + few_blocks,
        "fetching {WIDE_COLS} lanes of {fetched} rows peaked at {full_peak} B vs \
         {lane_peak} B for one lane (allowance {few_blocks} B); the fetch is \
         materialising rows again"
    );

    // Flat tuple runs: a DistinctMulti allocates per *output* tuple, not
    // per survivor. 20,011 distinct pairs, each three times and too far
    // apart for the switch's DISTINCT matrix to remember, so survivors
    // outnumber outputs about three to one.
    const DISTINCT_PAIRS: u64 = 20_011;
    let mut dups = Database::new();
    dups.add(Table::new(
        "d",
        vec![
            // Spread past any stage's dense bitmap: the hashed matrix runs.
            (
                "p",
                (0..ROWS as u64)
                    .map(|i| KeyForm::Spread.value(i % DISTINCT_PAIRS))
                    .collect(),
            ),
            (
                "q",
                (0..ROWS as u64)
                    .map(|i| i % DISTINCT_PAIRS * 7 % 499)
                    .collect(),
            ),
        ],
    ));
    let dup_query = Query::DistinctMulti {
        table: "d".into(),
        columns: vec!["p".into(), "q".into()],
    };
    let warm = exec.execute(&dups, &dup_query);
    let (outputs, survivors) = (warm.result.output_size(), warm.prune_stats().forwarded());
    assert_eq!(outputs, DISTINCT_PAIRS);
    assert!(
        survivors > 2 * outputs,
        "the pin needs survivors to outnumber outputs, got {survivors} for {outputs}"
    );
    let allocs = allocs_during(|| {
        exec.execute(&dups, &dup_query);
    });
    assert!(
        allocs <= outputs + budget,
        "DistinctMulti made {allocs} allocations for {outputs} output tuples out of \
         {survivors} survivors (allowance {budget}); survivors are being \
         materialised one `Vec` each again"
    );
}
