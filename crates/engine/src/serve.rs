//! Concurrent multi-query serving: in-flight coalescing, admission, §6
//! stage packing and a bounded executor pool over zero-copy stream views,
//! plus a cross-query filter cache.
//!
//! Every executor in this engine runs exactly one query per call; a
//! switch serves *many* (§6: queries share the pipeline, split ALU/SRAM,
//! and a final stage selects the prune bit for the packet's flow id).
//! [`ServeExecutor`] is the front-end that turns a batch of queries into
//! switch work:
//!
//! 1. **Coalescing** collapses the batch to its *execution set*: the
//!    distinct queries, by [`Query`] value equality. Only those run;
//!    every duplicate is answered with a clone of its leader's report,
//!    in admission order ([`ServeReport::coalesced`]). Sharing is scoped
//!    to one [`ServeExecutor::serve`] call — the database is borrowed, so
//!    no epoch can change under it — and no result outlives the call.
//! 2. **Admission** groups compatible single-pass shapes (filter,
//!    distinct, top-n, group-by max/min, skyline) by table. Each group
//!    makes **one** shared [`crate::stream::EntryStream`] pass — each block of the
//!    union of the member queries' metadata columns gathered once — with
//!    each query's [`Decision`] lanes made by the pruner its solo run
//!    installs. That pass is the deterministic arm's own single-pass
//!    scan, which a solo [`CheetahExecutor`] run makes over its one
//!    query, so every packed query's decisions (and result) are
//!    bit-identical to its solo run by construction.
//! 3. **Packing** admits a group's flows in admission order while the
//!    §6 placer [`cheetah_pisa::pack::pack`] — the planner's feasibility
//!    check — still places their [`Query::bind`] charges stage by stage
//!    on the [`SwitchModel`]. A flow it cannot place beside its
//!    co-residents is *spilled*: it runs the switch path alone, one solo
//!    [`CheetahExecutor`] pass with the pipeline to itself, counted in
//!    [`ServeReport::spilled`]. A SKYLINE at its default `w = 10` (21
//!    stages) never fits a Tofino's 12 and never packs.
//! 4. **Dispatch** runs everything that can't share a scan (every
//!    `bind::Program` but a single pass, spills, singleton groups) across
//!    a bounded worker pool, one executor call per query.
//!
//! Shared scans and solo flows all stream views of the table's own
//! lanes ([`crate::stream`]), one block in flight each: a batch holds no
//! `rows`-sized buffer besides its results and filter-cache entries, so
//! there is no gathered lane to share between flows.
//!
//! **The filter cache** is the one thing that persists across calls. It
//! keys the Bloom-filter pair of a JOIN and the Count-Min sketch of a
//! two-pass HAVING on the [`Query`] value, guarded by the epochs of the tables it
//! read. A repeated predicate starts from the cached state and skips its
//! observation pass — correct because Bloom filters admit no false
//! negatives and Count-Min never underestimates, so the cached pass-2
//! candidate sets are supersets that the master's exact completion
//! filters identically. A table-epoch bump
//! ([`crate::table::Table::epoch`]) invalidates the entry.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use cheetah_core::decision::Decision;
use cheetah_core::SwitchModel;
use cheetah_pisa::pack::pack;

use crate::backend::{HavingFlow, SwitchBackend};
use crate::bind::{Bound, Program};
use crate::cheetah::{single_pass_pruner, ArmedFlow, CheetahExecutor};
use crate::executor::{ExecutionReport, Executor, ServeReport};
use crate::query::Query;
use crate::table::Database;

/// Report label for everything this front-end produces.
const NAME: &str = "serving";

/// The serving front-end over the [`Executor`] seam.
///
/// Construction is cheap; the cross-query cache lives inside and
/// persists across [`ServeExecutor::serve`] calls, so a long-lived
/// instance serves repeated predicates from cached switch state.
pub struct ServeExecutor {
    /// The underlying single-query pipeline (model + switch config).
    pub cheetah: CheetahExecutor,
    /// Switch resource budget the packing admits flows against.
    pub switch: SwitchModel,
    /// Bounded pool width for solo dispatch.
    pool: usize,
    cache: Mutex<FilterCache>,
}

/// The cross-query filter cache: the flow a two-pass [`Query`] left armed,
/// with the epochs of the tables it observed. An entry whose epochs have
/// moved is a miss, and the miss's own flow replaces it.
type FilterCache = HashMap<Query, (Vec<u64>, ArmedFlow)>;

impl std::fmt::Debug for ServeExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeExecutor")
            .field("pool", &self.pool)
            .field("switch", &self.switch)
            .finish()
    }
}

impl ServeExecutor {
    /// A serving layer over `cheetah` with the Tofino-like packing budget.
    /// The solo-dispatch pool width comes from the `SERVE_POOL`
    /// environment variable when set (the CI concurrency matrix runs
    /// `{2, 8}`), else 4. Env-derived widths are clamped to ≥ 1 —
    /// `SERVE_POOL=0` (or garbage) must degrade to a working server,
    /// not panic it; the explicit [`ServeExecutor::with_pool`] API keeps
    /// its assert, since a programmatic zero is a caller bug.
    pub fn new(cheetah: CheetahExecutor) -> Self {
        let pool = std::env::var("SERVE_POOL")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or(4, |p| p.max(1));
        ServeExecutor::with_pool(cheetah, pool)
    }

    /// A serving layer with an explicit solo-dispatch pool width.
    pub fn with_pool(cheetah: CheetahExecutor, pool: usize) -> Self {
        assert!(pool > 0, "need at least one pool worker");
        ServeExecutor {
            cheetah,
            switch: SwitchModel::tofino_like(),
            pool,
            cache: Mutex::new(FilterCache::default()),
        }
    }

    /// The configured solo-dispatch pool width.
    pub fn pool(&self) -> usize {
        self.pool
    }

    /// Drop every cached filter/sketch (e.g. between benchmark reps).
    pub fn clear_cache(&self) {
        self.cache().clear();
    }

    /// The filter cache. Entries are inserted whole, so the map a
    /// panicking holder leaves behind is still a valid one.
    fn cache(&self) -> MutexGuard<'_, FilterCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Serve a batch: coalescing → admission → packing → shared scans +
    /// pool dispatch, with per-query reports returned **in admission
    /// order** plus the batch-level [`ServeReport`]. Every report —
    /// result, prune counters, passes, fetch — is bit-identical to
    /// running that query alone through [`CheetahExecutor::execute`]
    /// (or, for a cache hit, its pass-2 half). Every distinct query is
    /// bound before any runs, so a malformed one panics before any stream.
    pub fn serve(&self, db: &Database, queries: &[Query]) -> (Vec<ExecutionReport>, ServeReport) {
        let started = Instant::now();

        // Coalescing: `first[d]` is the admission index of the d-th
        // distinct query, `leader[i]` the distinct query that answers
        // admission i. Everything up to the final fan-out sees only the
        // execution set and speaks its indices.
        let mut first: Vec<usize> = Vec::new();
        let mut seen: HashMap<&Query, usize> = HashMap::with_capacity(queries.len());
        let leader: Vec<usize> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                *seen.entry(q).or_insert_with(|| {
                    first.push(i);
                    first.len() - 1
                })
            })
            .collect();
        let cfg = &self.cheetah.config;
        let distinct: Vec<Bound<'_>> = first
            .iter()
            .map(|&i| queries[i].bind_or_panic(db, cfg))
            .collect();
        let mut agg = ServeReport {
            queries: queries.len() as u64,
            coalesced: (queries.len() - distinct.len()) as u64,
            ..ServeReport::default()
        };
        let mut done: Vec<(usize, ExecutionReport)> = Vec::with_capacity(distinct.len());

        // Admission: group shareable single-pass shapes by table; the
        // rest go straight to the solo pool.
        let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut solo: Vec<usize> = Vec::new();
        for (i, b) in distinct.iter().enumerate() {
            match b.program {
                Program::SinglePass(_) => groups.entry(b.table.name()).or_default().push(i),
                _ => solo.push(i),
            }
        }

        // Packing + shared scans, one per table group with co-residents.
        for members in groups.into_values() {
            if members.len() < 2 {
                solo.extend(members);
                continue;
            }
            let mut charges = Vec::new();
            let mut packed: Vec<usize> = Vec::new();
            for &i in &members {
                charges.push(distinct[i].charge);
                if pack(&self.switch, &charges).is_ok() {
                    packed.push(i);
                } else {
                    charges.pop();
                    agg.spilled += 1;
                    solo.push(i);
                }
            }
            if packed.len() < 2 {
                // A lone survivor gains nothing from the shared machinery.
                solo.extend(packed);
                continue;
            }
            agg.packed += packed.len() as u64;
            agg.shared_scans += 1;
            // The deterministic arm's own scan, each member's blocks
            // decided by the pruner its solo run installs.
            let flows: Vec<&Bound<'_>> = packed.iter().map(|&i| &distinct[i]).collect();
            let mut pruners: Vec<_> = flows.iter().map(|b| single_pass_pruner(cfg, b)).collect();
            let decide = |m: usize, visible: &[&[u64]], out: &mut [Decision]| {
                pruners[m].process_block(visible, out)
            };
            let reports = self.cheetah.single_pass_scan(&flows, decide);
            done.extend(packed.iter().copied().zip(reports).map(|(i, mut report)| {
                report.executor = NAME;
                (i, report)
            }));
        }

        // Bounded pool: workers pull indices off one queue and hand their
        // `(index, report)` pairs back through their join handles, so
        // scheduling order never affects output.
        agg.solo = solo.len() as u64;
        let hits = AtomicU64::new(0);
        let misses = AtomicU64::new(0);
        let width = self.pool.min(solo.len());
        let queue: Mutex<VecDeque<usize>> = Mutex::new(solo.into());
        let drain = || {
            let mut ran = Vec::new();
            loop {
                // Popping is all that happens under the lock.
                let next = queue
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .pop_front();
                let Some(i) = next else { break ran };
                ran.push((i, self.run_solo(&distinct[i], &hits, &misses)));
            }
        };
        if width <= 1 {
            done.extend(drain());
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..width).map(|_| scope.spawn(drain)).collect();
                for worker in workers {
                    // A solo query's panic is the batch's panic.
                    done.extend(
                        worker
                            .join()
                            .unwrap_or_else(|p| std::panic::resume_unwind(p)),
                    );
                }
            });
        }
        agg.cache_hits = hits.load(Ordering::Relaxed);
        agg.cache_misses = misses.load(Ordering::Relaxed);

        // Fan-out. A leader is its query's first admission, so leaders
        // come up in execution-set order and every duplicate's leader is
        // already answered.
        done.sort_unstable_by_key(|&(d, _)| d);
        assert!(
            done.iter().map(|&(d, _)| d).eq(0..distinct.len()),
            "every distinct query completes exactly once"
        );
        let mut executed = done.into_iter().map(|(_, report)| report);
        let mut reports: Vec<ExecutionReport> = Vec::with_capacity(queries.len());
        for (i, &d) in leader.iter().enumerate() {
            let report = if first[d] == i {
                executed.next().expect("one report per distinct query")
            } else {
                reports[first[d]].clone()
            };
            reports.push(report);
        }
        agg.wall = started.elapsed();
        (reports, agg)
    }

    /// One solo query on a pool worker: a relabeled
    /// [`CheetahExecutor::execute_in`] call. A cacheable two-pass flow
    /// starts from its cached switch state when the cache holds it (a
    /// hit) and leaves its state there when not.
    fn run_solo(&self, b: &Bound<'_>, hits: &AtomicU64, misses: &AtomicU64) -> ExecutionReport {
        let epochs = self.cacheable_epochs(b);
        let armed = epochs.as_ref().and_then(|epochs| {
            let cache = self.cache();
            let (_, flow) = cache.get(b.query).filter(|(cached, _)| cached == epochs)?;
            rearmed(flow, b)
        });
        let hit = armed.is_some();
        let (mut report, flow) = self.cheetah.execute_in(b, armed);
        if let Some(epochs) = epochs {
            if hit {
                hits.fetch_add(1, Ordering::Relaxed);
            } else {
                misses.fetch_add(1, Ordering::Relaxed);
                if let Some(flow) = flow {
                    self.cache().insert(b.query.clone(), (epochs, flow));
                }
            }
        }
        report.executor = NAME;
        report
    }

    /// The epochs of the tables a cacheable query reads, in query order.
    /// Cacheable are the two-pass programs on the reference backend: the
    /// cache stores their state, while metered pisa runs keep their
    /// registers inside the program and bypass it. A HAVING that runs as
    /// register aggregation has no observation pass, so nothing to cache.
    fn cacheable_epochs(&self, b: &Bound<'_>) -> Option<Vec<u64>> {
        match b.program {
            _ if self.cheetah.config.backend != SwitchBackend::Reference => None,
            Program::Having { .. } => Some(vec![b.table.epoch()]),
            Program::Join { right, .. } => Some(vec![b.table.epoch(), right.epoch()]),
            _ => None,
        }
    }
}

impl Executor for ServeExecutor {
    fn name(&self) -> &'static str {
        "serving"
    }

    fn execute(&self, db: &Database, query: &Query) -> ExecutionReport {
        let (mut reports, _) = self.serve(db, std::slice::from_ref(query));
        reports.pop().expect("batch of one yields one report")
    }
}

/// A fresh flow armed with a copy of `cached`'s pass-1 state, for the
/// query it was cached under (pass 2 never writes that state, so the
/// cached flow stays as pass 1 left it). `None` under the pisa backend,
/// whose state lives inside the metered program.
fn rearmed(cached: &ArmedFlow, b: &Bound<'_>) -> Option<ArmedFlow> {
    match (cached, &b.program) {
        (ArmedFlow::Having(flow), Program::Having { threshold, .. }) => {
            let flow = HavingFlow::from_sketch(flow.sketch()?.clone(), *threshold);
            Some(ArmedFlow::Having(flow))
        }
        (ArmedFlow::Join(flow), Program::Join { .. }) => Some(ArmedFlow::Join(flow.rearmed()?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheetah::PrunerConfig;
    use crate::cost::CostModel;
    use crate::query::Predicate;
    use crate::reference;
    use cheetah_core::filter::{Atom, CmpOp, Formula};

    use crate::fixture::{arithmetic, with_spread_twins};

    /// The spread twins the tests read beside the arithmetic fixture's
    /// lanes: `t.ws` (`t.w`'s 499 keys) and `t.ks`, `s.ks` (the join keys),
    /// so the hashed programs run over them.
    const TWINS: &[(&str, &str, &str)] = &[("t", "w", "ws"), ("t", "k", "ks"), ("s", "k", "ks")];

    /// A 256 × 2 register matrix: HAVING aggregates `t.k`'s 83 keys in a
    /// dense register array and runs two cached passes over `t.ws`'s 499
    /// spread keys, past the matrix's 256.
    fn serve_exec() -> ServeExecutor {
        let cfg = PrunerConfig {
            groupby_d: 256,
            groupby_w: 2,
            ..PrunerConfig::default()
        };
        ServeExecutor::with_pool(CheetahExecutor::new(CostModel::default(), cfg), 2)
    }

    fn mixed_batch() -> Vec<Query> {
        vec![
            Query::FilterCount {
                table: "t".into(),
                predicate: Predicate {
                    columns: vec!["v".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, 5_000)],
                    formula: Formula::Atom(0),
                },
            },
            Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            },
            Query::TopN {
                table: "t".into(),
                order_by: "v".into(),
                n: 25,
            },
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: 100_000,
            },
            Query::Having {
                table: "t".into(),
                key: "ws".into(),
                val: "v".into(),
                threshold: 60_000,
            },
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "ks".into(),
                right_col: "ks".into(),
            },
        ]
    }

    #[test]
    fn batch_results_match_solo_runs_in_admission_order() {
        let db = with_spread_twins(arithmetic(6_000, 3_000), TWINS);
        let exec = serve_exec();
        let batch = mixed_batch();
        let (reports, agg) = exec.serve(&db, &batch);
        assert_eq!(reports.len(), batch.len());
        for (q, r) in batch.iter().zip(&reports) {
            assert_eq!(
                r.result,
                reference::evaluate(&db, q),
                "{} diverged",
                q.kind()
            );
            assert_eq!(r.executor, "serving");
        }
        assert_eq!(agg.queries, 7);
        // The placer smears each charge over its stages: the TOP 25's
        // 21 × 11 matrix (12 stages, 12 ALUs) takes 1 ALU in every stage,
        // the filter (2 stages, 1 ALU) 1 in stages 0–1 and the dense
        // DISTINCT (1 stage, 2 ALUs) 2 in stage 0, so stage 0 holds
        // 1 + 1 + 2 = 4 of its 10 ALUs and all three share the scan.
        assert_eq!(agg.packed, 3, "filter, distinct and TOP N share table t");
        assert_eq!(agg.spilled, 0, "nothing spills");
        assert_eq!(agg.shared_scans, 1);
        assert_eq!(agg.solo, 4, "the HAVINGs and JOINs dispatch solo");
        // The HAVING over `t.k` runs one register pass and caches nothing;
        // the two-pass HAVING over `t.ws`, the bitmap JOIN over `k` and
        // the Bloom JOIN over `ks` each miss.
        assert_eq!(agg.cache_misses, 3, "cold cache: three flows miss");
        assert_eq!(agg.cache_hits, 0);
    }

    /// More distinct flows in one table group than a `u16` flow id names:
    /// admission speaks batch indices, so every query is answered; the
    /// placer packs what fits and the rest spill.
    #[test]
    fn a_group_past_u16_flow_ids_answers_every_query() {
        let mut db = Database::new();
        db.add(crate::table::Table::new("t", vec![("v", vec![7])]));
        let batch: Vec<Query> = (0..=u64::from(u16::MAX) + 1)
            .map(|c| Query::FilterCount {
                table: "t".into(),
                predicate: Predicate {
                    columns: vec!["v".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, c)],
                    formula: Formula::Atom(0),
                },
            })
            .collect();
        let cheetah = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
        let (reports, agg) = ServeExecutor::with_pool(cheetah, 1).serve(&db, &batch);
        assert_eq!(reports.len(), batch.len(), "one report per query");
        assert_eq!(agg.packed + agg.solo, batch.len() as u64);
        for (q, r) in batch.iter().zip(&reports) {
            assert_eq!(r.result, reference::evaluate(&db, q));
        }
    }

    #[test]
    fn repeated_batch_hits_the_cache_with_identical_results() {
        let db = with_spread_twins(arithmetic(4_000, 2_000), TWINS);
        let exec = serve_exec();
        let batch = mixed_batch();
        let (first, cold) = exec.serve(&db, &batch);
        let (second, warm) = exec.serve(&db, &batch);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(
            warm.cache_hits, 3,
            "both joins and the two-pass having reuse cached state; the register having has none"
        );
        assert_eq!(warm.cache_misses, 0);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.result, b.result, "cache reuse changed a result");
        }
        assert!(warm.cache_hit_rate() > 0.99);
    }

    #[test]
    fn epoch_bump_invalidates_cached_state() {
        let mut db = with_spread_twins(arithmetic(4_000, 2_000), TWINS);
        let exec = serve_exec();
        let batch = mixed_batch();
        exec.serve(&db, &batch);
        let extra = vec![0u64; db.table("t").rows()];
        db.table_mut("t").add_column("z", extra);
        let (reports, agg) = exec.serve(&db, &batch);
        assert_eq!(
            agg.cache_hits, 0,
            "epoch bump must invalidate every entry touching t"
        );
        assert_eq!(agg.cache_misses, 3);
        for (q, r) in batch.iter().zip(&reports) {
            assert_eq!(r.result, reference::evaluate(&db, q));
        }
    }

    #[test]
    fn spill_keeps_results_correct_and_is_counted() {
        // Skyline at the default w=10 needs 21 stages (Table 2) — more
        // than the 12-stage Tofino budget, so it always spills while its
        // co-resident flows stay packed: the TOP 10's 11 × 9 matrix
        // takes 10 stages, the DISTINCT's bitmap over `1..=83` one.
        let db = with_spread_twins(arithmetic(3_000, 1_500), TWINS);
        let exec = serve_exec();
        let batch = vec![
            Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            },
            Query::TopN {
                table: "t".into(),
                order_by: "v".into(),
                n: 10,
            },
            Query::Skyline {
                table: "t".into(),
                columns: vec!["v".into(), "w".into()],
            },
        ];
        let (reports, agg) = exec.serve(&db, &batch);
        assert_eq!(agg.spilled, 1, "skyline exceeds the stage budget");
        assert_eq!(agg.packed, 2);
        assert_eq!(agg.solo, 1);
        for (q, r) in batch.iter().zip(&reports) {
            assert_eq!(
                r.result,
                reference::evaluate(&db, q),
                "{} diverged",
                q.kind()
            );
        }
    }

    #[test]
    fn executor_trait_batch_of_one() {
        let db = with_spread_twins(arithmetic(2_000, 1_000), TWINS);
        let exec = serve_exec();
        let q = Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        };
        let r = Executor::execute(&exec, &db, &q);
        assert_eq!(r.executor, "serving");
        assert_eq!(r.result, reference::evaluate(&db, &q));
        assert_eq!(exec.name(), "serving");
    }

    #[test]
    fn env_pool_widths_clamp_instead_of_panicking() {
        // One test fn for every SERVE_POOL value — env vars are process
        // globals, so probing them from parallel tests would race.
        let cheetah = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
        for (val, want) in [("0", 1), ("garbage", 4), ("3", 3), ("-2", 4)] {
            std::env::set_var("SERVE_POOL", val);
            let exec = ServeExecutor::new(cheetah.clone());
            assert_eq!(exec.pool(), want, "SERVE_POOL={val}");
        }
        std::env::remove_var("SERVE_POOL");
        assert_eq!(ServeExecutor::new(cheetah.clone()).pool(), 4, "default");
        // A clamped server still serves.
        std::env::set_var("SERVE_POOL", "0");
        let exec = ServeExecutor::new(cheetah);
        std::env::remove_var("SERVE_POOL");
        let db = with_spread_twins(arithmetic(500, 250), TWINS);
        let q = Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        };
        let r = Executor::execute(&exec, &db, &q);
        assert_eq!(r.result, reference::evaluate(&db, &q));
    }

    #[test]
    #[should_panic(expected = "at least one pool worker")]
    fn explicit_zero_pool_is_still_a_caller_bug() {
        let cheetah = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
        ServeExecutor::with_pool(cheetah, 0);
    }

    #[test]
    fn serve_report_rates() {
        let mut r = ServeReport::default();
        assert_eq!(r.cache_hit_rate(), 0.0);
        r.cache_hits = 3;
        r.cache_misses = 1;
        assert!((r.cache_hit_rate() - 0.75).abs() < 1e-9);
    }
}
