//! Allocation-count regression pin for the switch hot path.
//!
//! The block-streaming refactor's contract: a warm `CheetahExecutor`
//! query performs O(1) heap allocations — the `EntryStream` lanes, the
//! pruner state, and O(output) bookkeeping — never O(rows). Before the
//! refactor the interleave built one `Vec<u64>` per table row, so a
//! 60 000-row query cost >60 000 allocations; this test fails loudly if
//! any per-row allocation sneaks back into the loop.
//!
//! The allocator also tracks **live bytes** and a resettable **peak
//! watermark**, pinning the projection-pushdown contract: a projected
//! wide-table fetch must peak at a fraction of the full-row fetch's
//! memory, because the never-read lanes are never gathered or shipped.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one #[test] (integration tests in one binary run concurrently and
//! would cross-pollute the counter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cheetah::core::filter::{Atom, CmpOp, Formula};
use cheetah::engine::backend::JoinFlow;
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::serve::ServeExecutor;
use cheetah::engine::{
    Agg, CostModel, Database, DistributedExecutor, Executor, FetchSpec, Predicate, Query,
    ShardedExecutor, Table, ThreadedExecutor, BLOCK_ENTRIES,
};

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

fn db() -> Database {
    // Deterministic arithmetic data — no RNG allocations to account for.
    let mut db = Database::new();
    db.add(Table::new(
        "t",
        vec![
            ("k", (0..ROWS as u64).map(|i| i * 7 % 83 + 1).collect()),
            ("v", (0..ROWS as u64).map(|i| i * 31 % 9_973).collect()),
            ("w", (0..ROWS as u64).map(|i| i * 13 % 499 + 1).collect()),
            // Small-domain column so DistinctMulti's survivor set stays
            // O(groups): ≤ 83 × 13 distinct (k, g) pairs.
            ("g", (0..ROWS as u64).map(|i| i % 13 + 1).collect()),
        ],
    ));
    db.add(Table::new(
        "s",
        vec![
            (
                "k",
                (0..ROWS as u64 / 2).map(|i| i * 11 % 140 + 40).collect(),
            ),
            ("x", (0..ROWS as u64 / 2).map(|i| i * 3 % 97).collect()),
        ],
    ));
    db
}

fn queries() -> Vec<(&'static str, Query)> {
    vec![
        (
            "filter-count",
            Query::FilterCount {
                table: "t".into(),
                predicate: Predicate {
                    columns: vec!["v".into(), "w".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, 5_000), Atom::cmp(1, CmpOp::Gt, 450)],
                    formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
                },
            },
        ),
        (
            "topn",
            Query::TopN {
                table: "t".into(),
                order_by: "v".into(),
                n: 100,
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
    ]
}

#[test]
fn warm_queries_allocate_o1_not_o_rows() {
    let db = db();
    let exec = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    // The old per-row layout cost ≥1 allocation per row; the flat layout
    // needs a few dozen (lanes, pruner state, survivors, result). The
    // bound leaves room for O(groups + log survivors) bookkeeping while
    // staying two orders of magnitude under O(rows).
    let budget = (ROWS / 100) as u64;
    for (name, q) in queries() {
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

    // A warm deterministic JOIN's peak: its two lanes with their row ids,
    // two filters sized from 60k and 30k rows, the survivor pairs and the
    // pairing table. The two cap-sized filters this replaced were
    // `2 × join_m_bits / 8` bytes before the first key was read, so half
    // of that is under half of any peak the old flow could reach.
    let join = Query::Join {
        left: "t".into(),
        right: "s".into(),
        left_col: "k".into(),
        right_col: "k".into(),
    };
    exec.execute(&db, &join);
    let peak = peak_bytes_during(|| {
        exec.execute(&db, &join);
    });
    let old_filters = 2 * exec.config.join_m_bits / 8;
    assert!(
        peak < old_filters / 2,
        "a warm JOIN peaked at {peak} B; the two cap-sized filters alone were {old_filters} B"
    );

    // The threaded multi-pass path: the persistent pool plus borrowed
    // lane partitions make warm JOIN/HAVING runs O(1) allocations **per
    // block** (each in-flight block is one chunk + its lanes; survivor
    // compaction is in place, partitions are views). The budget charges
    // a small constant per block plus a fixed pool/channel/result term —
    // far under the O(rows) a per-entry allocation would cost.
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
            "threaded-having",
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: 100_000,
            },
            2 * ROWS,
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

    // The sharded multi-switch path: per-shard pools over borrowed range
    // views (JOIN, DistinctMulti) or an exact-capacity hash gather
    // (GROUP BY SUM, JOIN at >1 shard), tree-reduced by associative
    // merges — register re-aggregation, flat-lane appends, pair-count
    // sums — none of which may reintroduce a per-row `Vec`. Each shard
    // merge is O(1) allocations (a buffer append or register fold into
    // existing state), so the budget charges the same small constant per
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
        ),
        (
            "sharded-distinct-multi",
            Query::DistinctMulti {
                table: "t".into(),
                columns: vec!["k".into(), "g".into()],
            },
            ROWS,
        ),
    ];
    for (name, q, streamed) in sharded_queries {
        let warm = sharded.execute(&db, &q);
        let blocks = (streamed / BLOCK_ENTRIES + 16) as u64;
        let budget = 16 * blocks + 8192;
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
             ~{blocks} blocks (budget {budget}); the shard gather or the \
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
    // Bloom pair / sketch, the stream lanes, amortized survivor growth —
    // so a hit stays O(1) allocations per block, never a rebuilt
    // observation pass or any per-row bookkeeping.
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
        ),
        (
            "serving-cached-having",
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: 100_000,
            },
            ROWS,
        ),
    ];
    for (name, q, streamed) in cached_queries {
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
        assert_eq!(agg.cache_hits, 1, "[{name}] warmed run must hit the cache");
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

    // Coalescing and the batch-scoped lane arena: a batch that cycles six
    // queries to 32 executes six and clones the rest, so its peak is the
    // six-query batch's plus the bytes of the extra answers; the arena
    // gathers each distinct (table, column) once and dies with the call,
    // so a warm call leaves the heap where it found it and a cold one
    // leaves only the filter cache behind. Same pool-of-one executor as
    // above (solo flows run inline, so the watermark is deterministic),
    // its cache emptied first.
    serving.clear_cache();
    let distinct: Vec<Query> = queries()
        .into_iter()
        .map(|(_, q)| q)
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
    // What the cache holds: the JOIN's two filters as `sized` builds them
    // for t ⋈ s, the HAVING sketch, and under 64 KB of keys and map.
    let cfg = &exec.config;
    let join_bytes = (JoinFlow::side_bits(cfg, ROWS) + JoinFlow::side_bits(cfg, ROWS / 2)) / 8;
    let cached = join_bytes + (cfg.having_d * cfg.having_w * 8) as u64;
    let lane_bytes = (ROWS * 8) as u64;
    let (_, _, cold_left, cold) = measure(&cycled);
    assert_eq!(cold.cache_misses, 2, "{cold:?}");
    assert!(
        cold_left >= cached && cold_left < cached + 64 * 1024,
        "a cold serve left {cold_left} B behind; the filter cache alone is \
         {cached} B (a retained lane would add {lane_bytes} B)"
    );
    let (peak6, answers6, left6, agg6) = measure(&distinct);
    let (peak32, answers32, left32, agg32) = measure(&cycled);
    for (agg, left) in [(&agg6, left6), (&agg32, left32)] {
        assert_eq!(agg.cache_hits, 2, "{agg:?}");
        assert_eq!(
            agg.lanes_gathered, 4,
            "t.v, t.w, t.k, s.k — each gathered once per batch: {agg:?}"
        );
        assert!(
            left < 4096,
            "a warm serve left {left} B behind; the lane arena must die with the call"
        );
    }
    assert_eq!((agg6.coalesced, agg32.coalesced), (0, 26));
    assert!(
        peak32 <= peak6 + (answers32 - answers6) + 4096,
        "32 admissions of 6 queries peaked at {peak32} B vs {peak6} B for the 6 \
         alone plus {} B of cloned answers; what a batch holds must grow \
         with its distinct queries, not its admissions",
        answers32 - answers6
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
            ("p", (0..ROWS as u64).map(|i| i % DISTINCT_PAIRS).collect()),
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
