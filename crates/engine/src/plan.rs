//! Cost-based query planning: pick the executor, its grid knobs, and the
//! join flow per query — then measure how wrong the estimate was.
//!
//! The engine has seven ways to complete a query, and this module is the
//! one place that *chooses* among them and sizes their grid knobs (worker
//! count, shard count). [`PlannerExecutor`] closes the loop, Bonsai
//! style — compile the whole configuration up front from measured
//! calibration inputs, then record estimate-vs-actual so a misprediction
//! is visible telemetry, not a silent slowdown:
//!
//! 1. **Probe once.** [`PlanContext::probe`] runs
//!    [`CheetahExecutor::sample_throughput`] a single time per query and
//!    times one representative combine-state merge; every grid (worker
//!    count, shard count, arm race) reads that shared context instead of
//!    re-sampling the same first blocks.
//! 2. **Feasibility.** The charge [`Query::bind`] computed for the
//!    query's program is packed onto the [`SwitchModel`] by
//!    [`cheetah_pisa::pack::pack`] (the §6 placer `serve` already
//!    exercises). A program that does not fit — SKYLINE at its default
//!    `w = 10` occupies 21 stages against Tofino's 12 — rejects every
//!    switch-window arm before costing; the
//!    deterministic arm (no exclusive switch window to reserve) remains.
//! 3. **Cost.** Each surviving candidate gets a predicted wall from the
//!    sampled switch estimate, a hand-set per-shape threading factor
//!    (last calibrated against the worker and shard sweeps of the bench
//!    snapshot at `d18e408`), the measured merge cost, and per-arm setup
//!    charges. The pool arms' JOIN candidates carry the §4.3 flow their
//!    bound program runs (lopsided tables stream once per side instead
//!    of twice); the deterministic arm always runs the symmetric flow.
//! 4. **Pick & execute.** The cheapest candidate runs; ties break toward
//!    the simpler arm (deterministic ≺ threaded ≺ sharded). Filter-shape
//!    plans also pick the [`FetchSpec`]:
//!    projection pushdown is never worse, so a default `All` fetch is
//!    planned down to `Referenced`.
//! 5. **Measure.** The report's [`PlanReport`] records predicted vs
//!    measured wall and their ratio; perfbench's `plan.*` metrics read it.

use std::time::Instant;

use cheetah_core::having::HavingPruner;
use cheetah_core::resources::SwitchModel;
use cheetah_pisa::pack::pack;

use crate::bind::{Bound, Program};
use crate::cheetah::{CheetahExecutor, PrunerConfig, ThroughputSample};
use crate::cost::CostModel;
use crate::executor::{ExecutionReport, Executor};
use crate::master::{merge_top, GroupRun};
use crate::query::{Agg, FetchSpec, Query};
use crate::sharded::{report_on, InProcess};
use crate::table::Database;

/// The worker-count grid the threaded arm races.
pub const WORKER_GRID: [usize; 4] = [1, 2, 4, 8];

/// The shard-count grid the sharded arm races.
pub const SHARD_GRID: [usize; 4] = [1, 2, 4, 8];

/// Estimated pipeline spin-up cost per extra shard (threads + channel
/// plumbing), charged in the shard race.
pub const SHARD_SETUP_S: f64 = 1.5e-4;

/// Estimated spin-up cost per extra pool worker on the threaded arm.
pub const THREAD_SETUP_S: f64 = 8.0e-5;

/// The shared per-query calibration context: one throughput probe + one
/// timed representative merge, read by **every** grid, so the stream is
/// sampled once per query however many grids ask.
#[derive(Debug, Clone, Copy)]
pub struct PlanContext {
    sample: Option<ThroughputSample>,
    merge_s: f64,
    cores: usize,
}

impl PlanContext {
    /// Probe `query` once: sample block throughput through a proxy of its
    /// switch program ([`CheetahExecutor::sample_throughput`]) and time
    /// one representative combine-state merge. `sample` is `None` on an
    /// empty table, where every grid picks its minimum arm.
    pub fn probe(exec: &CheetahExecutor, db: &Database, query: &Query) -> Self {
        PlanContext::probed(exec, &query.bind_or_panic(db, &exec.config))
    }

    /// [`PlanContext::probe`] of a bound query.
    fn probed(exec: &CheetahExecutor, b: &Bound<'_>) -> Self {
        PlanContext {
            sample: exec.sample(b),
            merge_s: sampled_merge_cost(&exec.config, b),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// The shared throughput probe (`None` on an empty table).
    pub fn sample(&self) -> Option<ThroughputSample> {
        self.sample
    }

    /// How many times the stream was sampled building this context —
    /// 1, or 0 for an empty table. The planner regression suite pins
    /// that planning never samples twice.
    pub fn probes(&self) -> u32 {
        u32::from(self.sample.is_some())
    }

    /// Estimated serialized switch wall from the probe (0.0 when empty).
    pub fn est_switch_s(&self) -> f64 {
        self.sample.map_or(0.0, |s| s.est_switch_s())
    }

    /// Measured cost of one representative combine-state merge.
    pub fn merge_cost_s(&self) -> f64 {
        self.merge_s
    }

    /// Cores available to actually run shards/workers in parallel.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The worker-count arm from [`WORKER_GRID`]: short streams get one
    /// worker (thread setup would dominate), long streams the full pool so
    /// serialization and master completion overlap the pruning.
    pub fn adaptive_workers(&self) -> usize {
        match self.est_switch_s() {
            s if s < 0.5e-3 => 1,
            s if s < 2e-3 => 2,
            s if s < 8e-3 => 4,
            _ => 8,
        }
    }

    /// The shard-count arm minimizing
    /// `switch_wall / min(n, cores) + merge_cost × log2(n) + setup × (n − 1)`
    /// over [`SHARD_GRID`], capped by the measured core count: shards
    /// beyond the cores can only time-slice, so they are charged setup
    /// without speedup.
    pub fn planned_shards(&self) -> usize {
        if self.sample.is_none() {
            return 1;
        }
        let est_switch_s = self.est_switch_s();
        let mut best = (f64::INFINITY, 1usize);
        for n in SHARD_GRID {
            let stages = (usize::BITS - 1 - n.leading_zeros()) as f64;
            let speedup = n.min(self.cores) as f64;
            let est =
                est_switch_s / speedup + self.merge_s * stages + SHARD_SETUP_S * (n - 1) as f64;
            if est < best.0 {
                best = (est, n);
            }
        }
        best.1
    }
}

/// Time one representative merge of the query shape's shard partials —
/// the per-stage cost the reduction tree pays per level. Shapes whose
/// merge is a buffer append or an integer sum (partition-local JOIN, the
/// range shapes) are effectively free per stage.
fn sampled_merge_cost(cfg: &PrunerConfig, b: &Bound<'_>) -> f64 {
    match (&b.program, b.query) {
        (Program::Registers { matrix, .. }, _) => {
            // Two register matrices' worth of disjoint-ish keys: the
            // worst-case run a tree stage can see.
            let cells = (matrix.d * matrix.w) as u64;
            let run = |salt| GroupRun::fold((0..cells).map(|i| (i ^ salt, 1)).collect(), Agg::Sum);
            let (mut a, b) = (run(0), run(0x5555));
            let t0 = Instant::now();
            a.merge(b);
            t0.elapsed().as_secs_f64()
        }
        (Program::Having { threshold, sketch }, _) => {
            let mut a = HavingPruner::new(sketch.d, sketch.w, *threshold, cfg.seed);
            let b = HavingPruner::new(sketch.d, sketch.w, *threshold, cfg.seed);
            let t0 = Instant::now();
            a.merge(&b);
            t0.elapsed().as_secs_f64()
        }
        (_, Query::TopN { n, .. }) => {
            let mut a: Vec<u64> = (0..*n as u64).rev().collect();
            let b: Vec<u64> = (0..*n as u64).rev().collect();
            let t0 = Instant::now();
            merge_top(&mut a, b, *n);
            t0.elapsed().as_secs_f64()
        }
        _ => 0.0,
    }
}

/// Which executor a candidate plan runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorArm {
    /// Single-threaded switch-pruning pipeline ([`CheetahExecutor`]).
    Deterministic,
    /// Worker-pool/watermark pipeline: one shard's program over
    /// `InProcess(1)` ([`CheetahExecutor::execute_threaded`]).
    Threaded,
    /// N in-process shard pipelines + streaming tree reduce
    /// ([`crate::ShardedExecutor`]).
    Sharded,
}

impl ExecutorArm {
    /// Stable label for reports, benches and gates.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutorArm::Deterministic => "deterministic",
            ExecutorArm::Threaded => "threaded",
            ExecutorArm::Sharded => "sharded",
        }
    }
}

/// One fully specified way to run the query, with its predicted wall.
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    /// The executor to run.
    pub arm: ExecutorArm,
    /// Worker-pool width (threaded/sharded pipelines).
    pub workers: usize,
    /// Shard count (1 for single-switch arms).
    pub shards: usize,
    /// Whether a JOIN takes the §4.3 asymmetric flow: a pool arm's lopsided
    /// JOIN; never on the deterministic arm, which runs the symmetric one.
    pub asymmetric_join: bool,
    /// The late-materialization fetch projection the plan executes with.
    pub fetch: FetchSpec,
    /// Predicted wall-clock seconds for this candidate.
    pub predicted_s: f64,
}

/// The outcome of planning one query (before executing it).
#[derive(Debug, Clone)]
pub struct Plan {
    /// The winning candidate.
    pub chosen: CandidatePlan,
    /// Candidates enumerated (including the winner).
    pub candidates: usize,
    /// Candidates rejected by the switch-budget feasibility check before
    /// costing.
    pub infeasible: usize,
    /// The shared calibration context the race read.
    pub ctx: PlanContext,
}

/// Estimate-vs-actual telemetry hung off
/// [`ExecutionReport::plan`] — the planner's honesty record.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Chosen arm label ([`ExecutorArm::label`]).
    pub arm: &'static str,
    /// Chosen worker count.
    pub workers: usize,
    /// Chosen shard count.
    pub shards: usize,
    /// Whether a JOIN ran the §4.3 asymmetric flow.
    pub asymmetric_join: bool,
    /// Candidates enumerated.
    pub candidates: usize,
    /// Candidates rejected by the feasibility check.
    pub infeasible: usize,
    /// Throughput probes taken (1, or 0 on an empty table) — pinned to
    /// never exceed one per query.
    pub probes: u32,
    /// Predicted wall-clock seconds for the chosen candidate.
    pub predicted_s: f64,
    /// Measured wall-clock seconds of the chosen candidate's run.
    pub measured_s: f64,
}

impl PlanReport {
    /// Misprediction ratio `measured / predicted` — 1.0 is a perfect
    /// estimate, > 1 underestimated, < 1 overestimated. Always finite
    /// and positive: both inputs are clamped away from zero when the
    /// report is built.
    pub fn misprediction(&self) -> f64 {
        self.measured_s / self.predicted_s
    }
}

/// The cost-based planning executor: probe → feasibility → cost → pick →
/// execute → measure, behind the same [`Executor`] seam as every arm it
/// chooses among.
#[derive(Debug, Clone)]
pub struct PlannerExecutor {
    /// Configuration shared with every arm (cost model + switch knobs).
    pub inner: CheetahExecutor,
    /// The switch budget candidate programs must pack onto.
    pub switch: SwitchModel,
}

impl PlannerExecutor {
    /// A planner over `inner`'s configuration with the Tofino-like
    /// switch budget.
    pub fn new(inner: CheetahExecutor) -> Self {
        PlannerExecutor {
            inner,
            switch: SwitchModel::tofino_like(),
        }
    }

    /// Derive, filter and cost the candidate plans for `query`, returning
    /// the winner plus race telemetry. Probes the stream at most once
    /// (see [`PlanContext::probe`]); uncalibrated shapes ride the
    /// documented conservative fallbacks, a malformed query panics at bind.
    pub fn plan(&self, db: &Database, query: &Query) -> Plan {
        self.plan_bound(&query.bind_or_panic(db, &self.inner.config))
    }

    /// [`Self::plan`] of a bound query.
    fn plan_bound(&self, b: &Bound<'_>) -> Plan {
        let ctx = PlanContext::probed(&self.inner, b);
        let fetch = self.planned_fetch(b.query);
        let est = ctx.est_switch_s();
        // The deterministic arm always runs the symmetric JOIN flow.
        let deterministic = CandidatePlan {
            arm: ExecutorArm::Deterministic,
            workers: 1,
            shards: 1,
            asymmetric_join: false,
            fetch: fetch.clone(),
            predicted_s: est,
        };
        // An empty table: nothing to race, the minimum arm wins.
        if ctx.sample().is_none() {
            return Plan {
                chosen: deterministic,
                candidates: 1,
                infeasible: 0,
                ctx,
            };
        }

        // The flow a pool arm's JOIN takes.
        let asymmetric = matches!(b.program, Program::Join { lopsided: true, .. });
        let factor = threaded_factor(b);
        let workers = ctx.adaptive_workers();
        let shards = ctx.planned_shards();
        let shard_speedup = shards.min(ctx.cores()) as f64;
        let shard_stages = (usize::BITS - 1 - shards.leading_zeros()) as f64;
        let shard_est = est * factor / shard_speedup
            + ctx.merge_cost_s() * shard_stages
            + SHARD_SETUP_S * (shards - 1) as f64;

        let mut candidates = vec![
            deterministic,
            CandidatePlan {
                arm: ExecutorArm::Threaded,
                workers,
                shards: 1,
                asymmetric_join: asymmetric,
                fetch: fetch.clone(),
                predicted_s: est * factor + THREAD_SETUP_S * (workers - 1) as f64,
            },
            CandidatePlan {
                arm: ExecutorArm::Sharded,
                workers,
                shards,
                asymmetric_join: asymmetric,
                fetch,
                predicted_s: shard_est,
            },
        ];
        let total = candidates.len();

        // Feasibility: every non-deterministic arm reserves a switch
        // window for the query's bound program; if its charge cannot
        // pack onto the budget, those candidates are rejected before
        // costing. The deterministic arm survives as the software
        // fallback (the §6 spill path `serve` already takes).
        let mut infeasible = 0;
        if !self.fits(b) {
            candidates.retain(|c| c.arm == ExecutorArm::Deterministic);
            infeasible = total - candidates.len();
        }

        let chosen = candidates
            .iter()
            .min_by(|a, b| {
                a.predicted_s
                    .partial_cmp(&b.predicted_s)
                    .expect("predicted walls are finite")
            })
            .expect("the deterministic candidate always survives")
            .clone();
        Plan {
            chosen,
            candidates: total,
            infeasible,
            ctx,
        }
    }

    /// Whether the query's program packs onto this planner's switch
    /// budget: the §6 packer over its bound charge alone.
    pub fn fits_switch(&self, db: &Database, query: &Query) -> bool {
        self.fits(&query.bind_or_panic(db, &self.inner.config))
    }

    /// [`Self::fits_switch`] of a bound query.
    fn fits(&self, b: &Bound<'_>) -> bool {
        pack(&self.switch, &[b.charge]).is_ok()
    }

    /// The fetch projection the plan executes with: projection pushdown
    /// is never worse (PR 9's measured gate), so a Filter left on the
    /// default full-width fetch is planned down to the referenced lanes.
    /// Explicit specs (`Referenced`, `Plus`) are the caller's choice and
    /// pass through.
    fn planned_fetch(&self, query: &Query) -> FetchSpec {
        match (query, &self.inner.config.fetch) {
            (Query::Filter { .. }, FetchSpec::All) => FetchSpec::Referenced,
            (_, spec) => spec.clone(),
        }
    }
}

impl Executor for PlannerExecutor {
    fn name(&self) -> &'static str {
        "planner"
    }

    /// Bind once, plan the bound query and run it on the chosen arm.
    fn execute(&self, db: &Database, query: &Query) -> ExecutionReport {
        let b = query.bind_or_panic(db, &self.inner.config);
        let plan = self.plan_bound(&b);
        let tuned = CheetahExecutor {
            model: CostModel {
                workers: plan.chosen.workers,
                ..self.inner.model
            },
            config: PrunerConfig {
                fetch: plan.chosen.fetch.clone(),
                ..self.inner.config.clone()
            },
        };
        let started = Instant::now();
        let mut report = match plan.chosen.arm {
            ExecutorArm::Deterministic => tuned.execute_in(&b, None).0,
            ExecutorArm::Threaded => tuned.threaded(&b),
            ExecutorArm::Sharded => report_on(&tuned, &mut InProcess(plan.chosen.shards), &b),
        };
        let measured = started.elapsed();
        if report.wall.is_none() {
            report.wall = Some(measured);
        }
        report.executor = self.name();
        report.plan = Some(PlanReport {
            arm: plan.chosen.arm.label(),
            workers: plan.chosen.workers,
            shards: plan.chosen.shards,
            asymmetric_join: plan.chosen.asymmetric_join,
            candidates: plan.candidates,
            infeasible: plan.infeasible,
            probes: plan.ctx.probes(),
            // Clamp both sides away from zero so the misprediction ratio
            // is always finite and positive, even for empty/instant runs.
            predicted_s: plan.chosen.predicted_s.max(1e-9),
            measured_s: measured.as_secs_f64().max(1e-9),
        });
        report
    }
}

/// Per-program multiplier for moving a stream from the deterministic loop
/// to the pool/watermark pipeline: hand-set constants, last calibrated
/// against the worker sweep of the bench snapshot at `d18e408`.
/// Asymmetric JOIN wins big (half the streamed entries plus overlap),
/// DistinctMulti overlaps its fingerprint pass, while the
/// register-aggregating shapes (HAVING, GROUP BY SUM/COUNT) pay more for
/// phase handoff than the overlap returns.
fn threaded_factor(b: &Bound<'_>) -> f64 {
    match b.program {
        Program::Join { lopsided: true, .. } => 0.7,
        Program::Join { .. } => 0.95,
        Program::Registers { .. } | Program::Having { .. } => 1.15,
        Program::SinglePass(_) if matches!(b.query, Query::DistinctMulti { .. }) => 0.85,
        Program::SinglePass(_) => 1.05,
    }
}

#[cfg(test)]
mod tests {
    use cheetah_core::resources::{table2, ResourceUsage};

    use super::*;
    use crate::backend::{JoinFlow, Matrix};
    use crate::query::QueryResult;
    use crate::reference;
    use crate::sharded::tests::db;
    use crate::table::Table;

    fn planner() -> PlannerExecutor {
        PlannerExecutor::new(CheetahExecutor::new(
            CostModel::default(),
            PrunerConfig::default(),
        ))
    }

    /// What `exec` charges `q` over `db`.
    fn charge(exec: &PlannerExecutor, db: &Database, q: &Query) -> ResourceUsage {
        q.bind(db, &exec.inner.config).expect("binds").charge
    }

    #[test]
    fn probe_is_shared_and_single() {
        let db = db(4_000, 1_000);
        let exec = planner();
        let q = Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        };
        let ctx = PlanContext::probe(&exec.inner, &db, &q);
        assert_eq!(ctx.probes(), 1);
        assert!(ctx.est_switch_s() > 0.0);
        assert!(WORKER_GRID.contains(&ctx.adaptive_workers()));
        assert!(SHARD_GRID.contains(&ctx.planned_shards()));
    }

    #[test]
    fn skyline_program_is_infeasible_and_falls_back_deterministic() {
        // SKYLINE APH at the default w=10 occupies 21 stages — over the
        // 12-stage Tofino budget (the same overflow `serve` spills on).
        let db = db(3_000, 750);
        let exec = planner();
        let q = Query::Skyline {
            table: "t".into(),
            columns: vec!["k".into(), "v".into()],
        };
        assert!(!exec.fits_switch(&db, &q));
        let plan = exec.plan(&db, &q);
        assert_eq!(plan.chosen.arm, ExecutorArm::Deterministic);
        assert_eq!(plan.infeasible, 2, "both switch-window arms rejected");
        let r = exec.execute(&db, &q);
        assert_eq!(r.result, reference::evaluate(&db, &q));
        assert_eq!(r.plan.expect("planner reports its plan").infeasible, 2);
    }

    #[test]
    fn distinct_resources_charge_the_sized_matrix() {
        // 10k keys over 40k rows: 8,192 × 2; a near-unique key keeps
        // Table 2's 4,096 × 2. Either way two stages, one per column.
        let mut db = Database::new();
        db.add(Table::new(
            "t",
            vec![
                ("k", (0..40_000).map(|i| i % 10_000).collect()),
                ("u", (0..40_000).collect()),
            ],
        ));
        let exec = planner();
        let charge = |columns: &[&str]| {
            let q = Query::DistinctMulti {
                table: "t".into(),
                columns: columns.iter().map(|&c| c.into()).collect(),
            };
            assert!(exec.fits_switch(&db, &q));
            let usage = charge(&exec, &db, &q);
            (usage.stages, usage.sram_bits)
        };
        assert_eq!(charge(&["k"]), (2, 8_192 * 2 * 64));
        assert_eq!(charge(&["u"]), (2, 4_096 * 2 * 64));
        assert_eq!(charge(&["k", "u"]), (2, 4_096 * 2 * 64));
    }

    #[test]
    fn having_resources_charge_the_chosen_program() {
        // 25 keys run GROUP BY SUM's registers in one pass; 40k keys,
        // past half the 4096 × 8 matrix, §5's Count-Min in two.
        let mut db = Database::new();
        db.add(Table::new(
            "t",
            vec![
                ("k", (0..40_000).map(|i| i % 25).collect()),
                ("u", (0..40_000).collect()),
                ("v", (0..40_000).map(|i| i % 97).collect()),
            ],
        ));
        let exec = planner();
        let cfg = &exec.inner.config;
        let having = |key: &str| Query::Having {
            table: "t".into(),
            key: key.into(),
            val: "v".into(),
            threshold: 1_000,
        };
        let charge = |q: &Query| charge(&exec, &db, q);
        let passes = |q: &Query| exec.inner.sample_throughput(&db, q).expect("rows").passes;
        let group_by = Matrix {
            d: cfg.groupby_d,
            w: cfg.groupby_w,
        }
        .group_by();
        let sketch = table2::having(
            cfg.having_w as u64,
            cfg.having_d as u32,
            exec.switch.alus_per_stage,
        );
        assert_eq!(charge(&having("k")), group_by);
        assert_eq!(passes(&having("k")), 1);
        assert_eq!(charge(&having("u")), sketch);
        assert_eq!(passes(&having("u")), 2);
        // What the planner charges is what runs.
        for (key, runs) in [("k", 1), ("u", 2)] {
            assert_eq!(exec.inner.execute(&db, &having(key)).passes, runs);
        }
    }

    #[test]
    fn join_candidates_carry_the_flow_decision() {
        let db = db(4_000, 1_000); // t has 4× s's rows → asymmetric flow
        let exec = planner();
        let q = Query::Join {
            left: "t".into(),
            right: "s".into(),
            left_col: "k".into(),
            right_col: "k".into(),
        };
        let b = q.bind(&db, &exec.inner.config).expect("binds");
        assert!(matches!(b.program, Program::Join { lopsided: true, .. }));
        let plan = exec.plan(&db, &q);
        assert_eq!(
            plan.chosen.asymmetric_join,
            plan.chosen.arm != ExecutorArm::Deterministic
        );
        assert_eq!(plan.candidates, 3);
        // What runs is charged: a register filter per side, each a stage,
        // a stateful ALU and its rows' bits.
        let cfg = &exec.inner.config;
        let filters = JoinFlow::side_bits(cfg, 4_000) + JoinFlow::side_bits(cfg, 1_000);
        assert_eq!((b.charge.stages, b.charge.alus), (2, 2));
        assert_eq!(b.charge.sram_bits, filters);
        assert_eq!((plan.infeasible, exec.fits_switch(&db, &q)), (0, true));
    }

    #[test]
    fn planned_filter_fetch_pushes_projection_down() {
        let db = db(2_000, 500);
        let exec = planner();
        let q = Query::Filter {
            table: "t".into(),
            predicate: crate::query::Predicate {
                columns: vec!["v".into()],
                atoms: vec![cheetah_core::filter::Atom::cmp(
                    0,
                    cheetah_core::filter::CmpOp::Lt,
                    5_000,
                )],
                formula: cheetah_core::filter::Formula::Atom(0),
            },
        };
        let plan = exec.plan(&db, &q);
        assert_eq!(plan.chosen.fetch, FetchSpec::Referenced);
        let r = exec.execute(&db, &q);
        assert_eq!(r.result, reference::evaluate(&db, &q));
        assert!(r.fetch_checksum.is_some(), "filter still fetches");
    }

    #[test]
    fn empty_table_plans_the_minimum_arm_without_sampling() {
        let mut empty = Database::new();
        empty.add(Table::new("t", vec![("k", vec![]), ("v", vec![])]));
        let exec = planner();
        let q = Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        };
        let plan = exec.plan(&empty, &q);
        assert_eq!(plan.ctx.probes(), 0, "nothing to sample");
        assert_eq!(plan.chosen.arm, ExecutorArm::Deterministic);
        assert_eq!((plan.chosen.workers, plan.chosen.shards), (1, 1));
        let r = exec.execute(&empty, &q);
        assert_eq!(r.result, QueryResult::Values(vec![]));
        let pr = r.plan.expect("plan present");
        assert!(pr.misprediction().is_finite() && pr.misprediction() > 0.0);
    }

    /// The report names the JOIN flow that ran: an empty pair plans the
    /// deterministic arm, which runs the symmetric flow however lopsided
    /// the tables are.
    #[test]
    fn planned_report_names_the_join_flow_that_ran() {
        let mut db = Database::new();
        db.add(Table::new("t", vec![("k", vec![])]));
        db.add(Table::new("s", vec![("k", vec![])]));
        let q = Query::Join {
            left: "t".into(),
            right: "s".into(),
            left_col: "k".into(),
            right_col: "k".into(),
        };
        let exec = planner();
        let b = q.bind(&db, &exec.inner.config).expect("binds");
        assert!(matches!(b.program, Program::Join { lopsided: true, .. }));
        let r = exec.execute(&db, &q);
        let plan = r.plan.expect("planner reports its plan");
        assert_eq!(plan.arm, "deterministic");
        assert!(!plan.asymmetric_join, "the deterministic arm ran symmetric");
        assert_eq!(r.passes, 2);
    }

    #[test]
    fn misprediction_is_finite_across_shapes() {
        let db = db(3_000, 750);
        let exec = planner();
        for q in [
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
        ] {
            let r = exec.execute(&db, &q);
            assert_eq!(r.result, reference::evaluate(&db, &q), "{}", q.kind());
            let pr = r.plan.expect("plan present");
            let ratio = pr.misprediction();
            assert!(
                ratio.is_finite() && ratio > 0.0,
                "{}: misprediction {ratio}",
                q.kind()
            );
            assert!(pr.probes <= 1, "sampled more than once");
            assert_eq!(r.executor, "planner");
        }
    }
}
