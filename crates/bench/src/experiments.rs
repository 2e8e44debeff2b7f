//! One builder per table/figure of the paper's evaluation. Each returns
//! the [`Figure`] it measures — the series the paper plots, under the
//! paper's caption — and [`render`] prints any of them. README's paper
//! map records the paper-vs-measured comparison, deviations included, and
//! `tests/paper_claims.rs` asserts each caption on the returned series.
//! Run through `cargo run --release -p cheetah-bench --bin experiments --
//! <id>|all`; [`EXPERIMENTS`] lists the ids.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::Instant;

use cheetah_core::batch::{BatchedPruner, DistinctBatchAccess};
use cheetah_core::decision::PruneStats;
use cheetah_core::distinct::{CacheMatrix, DistinctPruner, EvictionPolicy};
use cheetah_core::filter::{Atom, CmpOp, Formula};
use cheetah_core::groupby::{Extremum, GroupByPruner};
use cheetah_core::having::HavingPruner;
use cheetah_core::join::{BloomFilter, JoinPruner, KeyFilter, RegisterBloomFilter, Side};
use cheetah_core::multiswitch::SwitchTree;
use cheetah_core::opt::{OptDistinct, OptGroupByMax, OptJoin, OptSkyline, OptTopN};
use cheetah_core::resources::{table2, SwitchModel};
use cheetah_core::skyline::{Heuristic, SkylinePruner};
use cheetah_core::topn::{DeterministicTopN, RandomizedTopN};
use cheetah_core::{Decision, RowPruner};

use cheetah_engine::backend::SwitchBackend;
use cheetah_engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah_engine::executor::run_all as run_executors;
use cheetah_engine::spark::SparkExecutor;
use cheetah_engine::{Agg, CostModel, Database, Executor, Predicate, Query};

use cheetah_workloads::bigdata::{UserVisits, UserVisitsConfig};
use cheetah_workloads::dist::{rng_for, Zipf};
use cheetah_workloads::tpch::TpchData;

use rand::Rng;

use crate::cost::{self, Rates, TimingBreakdown, DISTINCT, GROUPBY, HARDWARE_COMPARISON, TOPN};
use crate::netaccel::NetAccelModel;
use crate::{bigdata_db, fmt_frac, q3};

/// Default stream length for the pruning-rate simulations (Figures 10/11).
pub const SIM_ENTRIES: usize = 1_000_000;

// ---------------------------------------------------------------- figures

/// One table or figure of the evaluation: named series over shared x
/// labels.
#[derive(Debug, Clone)]
pub struct Figure {
    /// "Table 2", "Figure 10a", …
    pub id: &'static str,
    /// What it plots.
    pub title: &'static str,
    /// Where the paper shows it and what its caption claims, restated
    /// where the measured series do not bear the paper's wording out
    /// (README's paper map records those deviations).
    pub caption: &'static str,
    /// The x axis: its name and one label per point.
    pub x: (&'static str, Vec<String>),
    /// Each with one value per x label.
    pub series: Vec<Series>,
}

/// A named series of a [`Figure`].
#[derive(Debug, Clone)]
pub struct Series {
    /// Its column header.
    pub name: String,
    /// Its values, in x order.
    pub values: Values,
}

/// A series' values, by how they print.
#[derive(Debug, Clone)]
pub enum Values {
    /// Fractions of a stream (mostly the unpruned one), as [`fmt_frac`]
    /// prints them.
    Frac(Vec<f64>),
    /// Seconds, to the given number of decimal places.
    Seconds(usize, Vec<f64>),
    /// Counts.
    Count(Vec<u64>),
    /// Preformatted cells.
    Text(Vec<String>),
}

impl Values {
    /// The `i`th value as the figure prints it.
    fn cell(&self, i: usize) -> String {
        match self {
            Values::Frac(v) => fmt_frac(v[i]),
            Values::Seconds(decimals, v) => format!("{:.*} s", decimals, v[i]),
            Values::Count(v) => v[i].to_string(),
            Values::Text(v) => v[i].clone(),
        }
    }
}

/// Print `f`: a header, then one row per x label and one column per
/// series.
pub fn render(f: &Figure) {
    let rule = "=".repeat(64);
    let (id, title, caption) = (f.id, f.title, f.caption);
    println!("\n{rule}\n{id}: {title}\npaper reference: {caption}\n{rule}");
    let (x_name, labels) = &f.x;
    let head = f.series.iter().map(|s| s.name.clone());
    let mut rows: Vec<Vec<String>> = vec![[x_name.to_string()].into_iter().chain(head).collect()];
    for (i, label) in labels.iter().enumerate() {
        let cells = f.series.iter().map(|s| s.values.cell(i));
        rows.push([label.clone()].into_iter().chain(cells).collect());
    }
    let mut widths = vec![0; rows[0].len()];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = cell.chars().count().max(*w);
        }
    }
    for row in &rows {
        let mut line = format!("{:<w$}", row[0], w = widths[0]);
        for (cell, w) in row.iter().zip(&widths).skip(1) {
            line += &format!("  {cell:>w$}");
        }
        println!("{}", line.trim_end());
    }
}

/// Labels from anything printable.
fn labels<T: ToString>(xs: impl IntoIterator<Item = T>) -> Vec<String> {
    xs.into_iter().map(|x| x.to_string()).collect()
}

/// A series of unpruned fractions.
fn frac(name: impl Into<String>, v: impl IntoIterator<Item = f64>) -> Series {
    let (name, values) = (name.into(), Values::Frac(v.into_iter().collect()));
    Series { name, values }
}

/// A series of seconds at `decimals` places.
fn secs(name: &str, decimals: usize, v: impl IntoIterator<Item = f64>) -> Series {
    let (name, values) = (
        name.into(),
        Values::Seconds(decimals, v.into_iter().collect()),
    );
    Series { name, values }
}

/// A series of counts.
fn count(name: &str, v: impl IntoIterator<Item = u64>) -> Series {
    let (name, values) = (name.into(), Values::Count(v.into_iter().collect()));
    Series { name, values }
}

/// A series of preformatted cells.
fn text(name: &str, v: impl IntoIterator<Item = String>) -> Series {
    let (name, values) = (name.into(), Values::Text(v.into_iter().collect()));
    Series { name, values }
}

/// `SELECT DISTINCT userAgent FROM uservisits`, the benchmark DISTINCT.
fn distinct_agents() -> Query {
    let (table, column) = ("uservisits".into(), "userAgent".into());
    Query::Distinct { table, column }
}

/// `SELECT userAgent, MAX(adRevenue) FROM uservisits GROUP BY userAgent`.
fn max_revenue_by_agent() -> Query {
    let (table, key, val) = ("uservisits".into(), "userAgent".into(), "adRevenue".into());
    Query::GroupBy {
        table,
        key,
        val,
        agg: Agg::Max,
    }
}

/// One builder's figures, in print order.
pub type Build = fn() -> Vec<Figure>;

/// Every experiment in paper order: the ids that select it and its
/// builder.
pub const EXPERIMENTS: &[(&[&str], Build)] = &[
    (&["table2"], || vec![table_2()]),
    (&["table3"], || vec![table_3()]),
    (&["fig5"], || vec![fig_5()]),
    (&["fig6a"], || vec![fig_6a()]),
    (&["fig6b"], || vec![fig_6b()]),
    (&["fig7"], || vec![fig_7()]),
    (&["fig8"], || vec![fig_8()]),
    (&["fig9"], || vec![fig_9()]),
    (&["fig10a"], || vec![fig_10a()]),
    (&["fig10b"], || vec![fig_10b()]),
    (&["fig10c"], || vec![fig_10c()]),
    (&["fig10d"], || vec![fig_10d()]),
    (&["fig10e"], || vec![fig_10e()]),
    (&["fig10f"], || vec![fig_10f()]),
    (&["fig11a"], || vec![fig_11a()]),
    (&["fig11b"], || vec![fig_11b()]),
    (&["fig11c"], || vec![fig_11c()]),
    (&["fig11d"], || vec![fig_11d()]),
    (&["fig11e"], || vec![fig_11e()]),
    (&["fig11f"], || vec![fig_11f()]),
    (&["fig12", "fig13"], || vec![fig_12_13()]),
    (&["ext", "extensions"], extensions),
];

/// The builder `id` selects.
pub fn experiment(id: &str) -> Option<Build> {
    let mut all = EXPERIMENTS.iter();
    all.find(|(ids, _)| ids.contains(&id))
        .map(|&(_, build)| build)
}

/// Render every experiment in paper order.
pub fn run_all() {
    for (_, build) in EXPERIMENTS {
        build().iter().for_each(render);
    }
}

// ---------------------------------------------------------------- pricing

/// One query's modeled runs on Spark and Cheetah.
#[derive(Debug, Clone, Copy)]
pub struct Priced {
    /// Spark's first run.
    pub spark_first: TimingBreakdown,
    /// Spark's warm run.
    pub spark: TimingBreakdown,
    /// The worker-task share of Spark's computation.
    pub spark_task_s: f64,
    /// Cheetah's run.
    pub cheetah: TimingBreakdown,
}

/// Run one query through Spark + Cheetah over `model` behind the
/// [`Executor`] trait, assert result equivalence, and price both reports
/// at `model` — the one driver every completion-time figure shares.
pub fn priced(model: CostModel, db: &Database, q: &Query) -> Priced {
    let spark = SparkExecutor::new(model);
    let cheetah = CheetahExecutor::new(model, PrunerConfig::default());
    let executors: [&dyn Executor; 2] = [&spark, &cheetah];
    let mut reports = run_executors(&executors, db, q);
    let c = reports.pop().expect("cheetah report");
    let s = reports.pop().expect("spark report");
    assert_eq!(s.result, c.result, "{} diverged", q.kind());
    Priced {
        spark_first: cost::spark_first_run(q, &s, &model),
        spark: cost::spark(q, &s, &model),
        spark_task_s: cost::spark_task_s(q, &s, &model),
        cheetah: cost::cheetah(q, &c, &model),
    }
}

// ---------------------------------------------------------------- tables

/// Table 2: switch resources per algorithm at its default parameters.
pub fn table_2() -> Figure {
    let (a, m) = (SwitchModel::tofino_like().alus_per_stage, 4 * (8 << 20));
    let rows = [
        (
            "DISTINCT FIFO (w=2, d=4096)",
            table2::distinct_fifo(2, 4096, a),
        ),
        ("DISTINCT LRU  (w=2, d=4096)", table2::distinct_lru(2, 4096)),
        ("SKYLINE SUM  (D=2, w=10)", table2::skyline_sum(2, 10)),
        ("SKYLINE APH  (D=2, w=10)", table2::skyline_aph(2, 10)),
        ("TOP N Det    (N=250, w=4)", table2::topn_det(4)),
        ("TOP N Rand   (w=4, d=4096)", table2::topn_rand(4, 4096)),
        ("GROUP BY     (w=8, d=4096)", table2::group_by(8, 4096)),
        ("JOIN BF      (M=4MB, H=3)", table2::join_bf(m, 3)),
        ("JOIN RBF     (M=4MB, H=3)", table2::join_rbf(m, 3)),
        ("HAVING       (w=1024, d=3)", table2::having(1024, 3, a)),
        ("Filtering    (1 predicate)", table2::filter(1)),
    ];
    let sram = rows.iter().map(|(_, u)| {
        if u.sram_bits >= 8 * 1024 * 1024 {
            format!("{:.1} MB", u.sram_bits as f64 / 8.0 / 1024.0 / 1024.0)
        } else {
            format!("{:.1} KB", u.sram_kb())
        }
    });
    Figure {
        id: "Table 2",
        title: "switch resource consumption per algorithm",
        caption: "§7, Table 2",
        x: ("algorithm", labels(rows.iter().map(|(name, _)| name))),
        series: vec![
            count("stages", rows.iter().map(|(_, u)| u64::from(u.stages))),
            count("ALUs", rows.iter().map(|(_, u)| u64::from(u.alus))),
            text("SRAM", sram),
            count("TCAM", rows.iter().map(|(_, u)| u64::from(u.tcam_entries))),
        ],
    }
}

/// Table 3: hardware choices (throughput/latency envelopes).
pub fn table_3() -> Figure {
    let range = |(lo, hi): (f64, f64)| match (lo, hi) {
        (0.0, hi) => format!("<{hi:.0}"),
        (lo, hi) if lo == hi => format!("{lo:.0}"),
        (lo, hi) => format!("{lo:.0}–{hi:.0}"),
    };
    let hw = HARDWARE_COMPARISON;
    Figure {
        id: "Table 3",
        title: "hardware performance comparison",
        caption: "§2/§10, Table 3",
        x: ("system", labels(hw.iter().map(|h| h.name))),
        series: vec![
            text(
                "throughput (Gbps)",
                hw.iter().map(|h| range(h.throughput_gbps)),
            ),
            text("latency (µs)", hw.iter().map(|h| range(h.latency_us))),
        ],
    }
}

// ---------------------------------------------------------------- fig 5

/// Figure 5: completion times, Cheetah vs Spark (1st run / warm), for the
/// Big Data queries A, B and A+B, TPC-H Q3, then one query per supported
/// operation.
pub fn fig_5() -> Figure {
    // 1/100 of the paper's sample; model_scale restores paper-scale time.
    let db = bigdata_db(317_000, 180_000, 2_000, 0.10, 5);
    let model = CostModel {
        model_scale: 100.0,
        ..CostModel::default()
    };

    let a = Query::FilterCount {
        table: "rankings".into(),
        predicate: Predicate {
            columns: vec!["avgDuration".into()],
            atoms: vec![Atom::cmp(0, CmpOp::Lt, 10)],
            formula: Formula::Atom(0),
        },
    };
    let b = Query::GroupBy {
        table: "uservisits".into(),
        key: "sourcePrefix".into(),
        val: "adRevenue".into(),
        agg: Agg::Sum,
    };
    let singles: Vec<(&str, Query)> = vec![
        ("Distinct", distinct_agents()),
        ("GroupBy (Max)", max_revenue_by_agent()),
        (
            "Skyline",
            Query::Skyline {
                table: "rankings".into(),
                columns: vec!["pageRankShuffled".into(), "avgDuration".into()],
            },
        ),
        (
            "Top-N",
            Query::TopN {
                table: "uservisits".into(),
                order_by: "adRevenue".into(),
                n: 250,
            },
        ),
        (
            "Join",
            Query::Join {
                left: "uservisits".into(),
                right: "rankings".into(),
                left_col: "destURL".into(),
                right_col: "pageURL".into(),
            },
        ),
    ];
    let row = |name, p: Priced| {
        let runs = [p.spark_first, p.spark, p.cheetah];
        (name, runs.map(|t| t.total_s()))
    };

    let (pa, pb) = (priced(model, &db, &a), priced(model, &db, &b));
    let mut rows = vec![row("BigData A", pa), row("BigData B", pb)];
    // A+B executed on one pipelined pass: shared setup, overlapped
    // serialization (§8.2.1: "faster than the sum of individual times").
    rows.push((
        "BigData A+B",
        [
            pa.spark_first.total_s() + pb.spark_first.total_s() - model.spark_overhead_s,
            pa.spark.total_s() + pb.spark.total_s() - model.spark_overhead_s,
            pa.cheetah.total_s() + pb.cheetah.total_s()
                - model.cheetah_setup_s
                - 0.2 * pa.cheetah.network_s.min(pb.cheetah.network_s),
        ],
    ));

    // TPC-H Q3 at the paper's default scale, one worker (§8.2).
    let tpch = TpchData::generate(0.02, 9);
    let q3_model = CostModel {
        workers: 1,
        model_scale: 50.0,
        ..CostModel::default()
    };
    let q3_s1 = q3::spark(&tpch, &q3_model, true);
    let q3_s2 = q3::spark(&tpch, &q3_model, false);
    let q3_c = q3::cheetah(&tpch, &q3_model, 4 * (8 << 20), 3, 3);
    assert_eq!(q3_s1.result, q3_c.result);
    let q3_runs = [q3_s1.timing, q3_s2.timing, q3_c.timing];
    rows.push(("TPC-H Q3", q3_runs.map(|t| t.total_s())));

    rows.extend(
        singles
            .into_iter()
            .map(|(name, q)| row(name, priced(model, &db, &q))),
    );
    let run = |i: usize| rows.iter().map(move |(_, runs)| runs[i]);
    let saved = rows
        .iter()
        .map(|(_, [s1, _, c])| format!("{:.0}%", (1.0 - c / s1) * 100.0));
    Figure {
        id: "Figure 5",
        title: "completion time: Cheetah vs Spark across the benchmark",
        caption: "§8.2.1, Figure 5 (31.7M uservisits / 18M rankings; scaled ×1/100 \
         with the timing model extrapolating back)",
        x: ("query", labels(rows.iter().map(|(name, _)| name))),
        series: vec![
            secs("spark 1st", 2, run(0)),
            secs("spark warm", 2, run(1)),
            secs("cheetah", 2, run(2)),
            text("less than 1st", saved),
        ],
    }
}

// ---------------------------------------------------------------- fig 6

/// Figure 6a: DISTINCT completion vs number of workers (fixed total
/// entries), with Spark's worker-task time and computation beside.
pub fn fig_6a() -> Figure {
    let db = bigdata_db(300_000, 50_000, 2_000, 0.5, 6);
    let q = distinct_agents();
    let runs: Vec<Priced> = (1..=5)
        .map(|workers| {
            let model = CostModel {
                workers,
                model_scale: 100.0,
                ..CostModel::default()
            };
            priced(model, &db, &q)
        })
        .collect();
    let compute = runs.iter().map(|p| p.spark.computation_s);
    Figure {
        id: "Figure 6a",
        title: "DISTINCT completion time vs number of workers",
        caption: "§8.2.2, Figure 6a (total entries fixed, partitions vary)",
        x: ("workers", labels(1..=5)),
        series: vec![
            secs("cheetah", 2, runs.iter().map(|p| p.cheetah.total_s())),
            secs("spark (warm)", 2, runs.iter().map(|p| p.spark.total_s())),
            secs("spark task", 2, runs.iter().map(|p| p.spark_task_s)),
            secs("spark compute", 2, compute),
        ],
    }
}

/// Figure 6b: completion vs total entries (10M / 20M / 30M in the paper).
pub fn fig_6b() -> Figure {
    let entries = [100_000usize, 200_000, 300_000];
    let runs: Vec<Priced> = entries
        .iter()
        .map(|&entries| {
            let db = bigdata_db(entries, 50_000, 2_000, 0.5, 7);
            let model = CostModel {
                model_scale: 100.0,
                ..CostModel::default()
            };
            priced(model, &db, &distinct_agents())
        })
        .collect();
    Figure {
        id: "Figure 6b",
        title: "DISTINCT completion time vs number of entries",
        caption: "§8.2.2, Figure 6b (scaled ×1/100)",
        x: ("entries", labels(entries.map(|e| e * 100))),
        series: vec![
            secs("cheetah", 2, runs.iter().map(|p| p.cheetah.total_s())),
            secs("spark (warm)", 2, runs.iter().map(|p| p.spark.total_s())),
        ],
    }
}

// ---------------------------------------------------------------- fig 7

/// Figure 7: NetAccel's result-drain overhead vs result size (TPC-H Q3
/// order-key join), against Cheetah's streaming delivery, for results of
/// 1% to 40% of a 200K-entry input.
pub fn fig_7() -> Figure {
    let input_entries = 200_000u64;
    let na = NetAccelModel::default();
    let model = CostModel::default();
    let pcts = [1u64, 5, 10, 15, 20, 25, 30, 35, 40];
    let entries = pcts.map(|pct| input_entries * pct / 100);
    Figure {
        id: "Figure 7",
        title: "overhead of moving results out of the switch dataplane",
        caption: "§8.2.4, Figure 7 (NetAccel lower bound: ideal pruning, drain only)",
        x: (
            "result size (% input)",
            labels(pcts.map(|pct| format!("{pct}%"))),
        ),
        series: vec![
            secs("cheetah", 3, entries.map(|e| cost::delivery_s(e, &model))),
            secs("NetAccel (bound)", 3, entries.map(|e| na.drain_s(e))),
        ],
    }
}

// ---------------------------------------------------------------- fig 8

/// Figure 8: completion breakdown (computation / network / other) for
/// Spark, Cheetah@10G and Cheetah@20G on Distinct and Group-By.
pub fn fig_8() -> Figure {
    let db = bigdata_db(317_000, 50_000, 2_000, 0.5, 8);
    let queries: Vec<(&str, Query)> = vec![
        ("Distinct", distinct_agents()),
        ("Group-By", max_revenue_by_agent()),
    ];
    let at = |gbps, q: &Query| {
        let model = CostModel {
            nic_gbps: gbps,
            model_scale: 100.0,
            ..CostModel::default()
        };
        priced(model, &db, q)
    };
    let mut rows: Vec<(String, TimingBreakdown)> = Vec::new();
    for (name, q) in queries {
        let (p10, p20) = (at(10.0, &q), at(20.0, &q));
        for (system, t) in [
            ("Spark (warm)", p10.spark),
            ("Cheetah 10G", p10.cheetah),
            ("Cheetah 20G", p20.cheetah),
        ] {
            rows.push((format!("{name} {system}"), t));
        }
    }
    let part = |f: fn(&TimingBreakdown) -> f64| rows.iter().map(move |(_, t)| f(t));
    Figure {
        id: "Figure 8",
        title: "delay breakdown at different network rates",
        caption: "§8.2.3, Figure 8 (Spark's bottleneck is not the network)",
        x: ("query system", labels(rows.iter().map(|(label, _)| label))),
        series: vec![
            secs("computation", 2, part(|t| t.computation_s)),
            secs("network", 2, part(|t| t.network_s)),
            secs("other", 2, part(|t| t.other_s)),
            secs("total", 2, part(TimingBreakdown::total_s)),
        ],
    }
}

// ---------------------------------------------------------------- fig 9

/// Figure 9: master completion latency vs unpruned fraction.
///
/// Two views: (a) *measured* — real master operators (hash set, heap,
/// max-map) over the unpruned entries on this machine; (b) *modeled
/// blocking* — the §8.3 queueing effect at the paper's arrival/service
/// rates, where entries buffer up once the master is the bottleneck.
pub fn fig_9() -> Figure {
    let m_total = 2_000_000usize;
    let mut rng = rng_for(9, "fig9");
    let keys: Vec<u64> = (0..m_total).map(|_| rng.gen_range(0..100_000)).collect();
    let vals: Vec<u64> = (0..m_total).map(|_| rng.gen()).collect();
    let pcts = [5u64, 10, 20, 30, 40, 50];

    // Measured: real data structures over the first `n` entries.
    let measured = |name, op: &dyn Fn(usize)| {
        let wall = |pct| {
            let t0 = Instant::now();
            op(m_total * pct as usize / 100);
            t0.elapsed().as_secs_f64()
        };
        secs(name, 3, pcts.map(wall))
    };
    let topn = measured("topn meas.", &|n| {
        let mut heap = BinaryHeap::with_capacity(251);
        for &v in &vals[..n] {
            heap.push(Reverse(v));
            if heap.len() > 250 {
                heap.pop();
            }
        }
    });
    let distinct = measured("distinct meas.", &|n| {
        let mut set: HashSet<u64> = HashSet::with_capacity(1024);
        set.extend(&keys[..n]);
    });
    let groupby = measured("groupby meas.", &|n| {
        let mut map: HashMap<u64, u64> = HashMap::with_capacity(1024);
        for (&k, &v) in keys[..n].iter().zip(&vals[..n]) {
            let e = map.entry(k).or_insert(0);
            *e = (*e).max(v);
        }
    });

    // Modeled blocking at paper scale: the stream takes
    // model_entries/arrival seconds; the master needs unpruned/service
    // seconds; the excess is the blocking latency.
    let (model_entries, arrival_pps) = (31_700_000f64, 10.0e6);
    let stream_s = model_entries / arrival_pps;
    let modeled = |name, rates: Rates| {
        let service = rates.master / 4.0; // conservative master
        let blocking = |pct| {
            let unpruned = model_entries * pct as f64 / 100.0;
            (unpruned / service - stream_s).max(0.0) + unpruned / service * 0.1
        };
        secs(name, 2, pcts.map(blocking))
    };
    Figure {
        id: "Figure 9",
        title: "blocking master latency for a given pruning rate",
        caption: "§8.3, Figure 9 (latency grows super-linearly in the unpruned rate)",
        x: ("unpruned", labels(pcts.map(|pct| format!("{pct}%")))),
        series: vec![
            topn,
            distinct,
            groupby,
            modeled("topn mdl", TOPN),
            modeled("dist mdl", DISTINCT),
            modeled("gby mdl", GROUPBY),
        ],
    }
}

// ---------------------------------------------------------------- fig 10

/// The unpruned fraction of `process`'s decisions over `stream`.
fn unpruned<T>(stream: &[T], mut process: impl FnMut(&T) -> Decision) -> f64 {
    let mut stats = PruneStats::default();
    for v in stream {
        stats.record(process(v));
    }
    stats.unpruned_fraction()
}

/// `n` points uniform over `[1, 2¹⁶)²`, SKYLINE's workload.
fn skyline_points(n: usize, seed: u64, tag: &str) -> Vec<[u64; 2]> {
    let mut rng = rng_for(seed, tag);
    let mut coordinate = || rng.gen_range(1..1u64 << 16);
    (0..n).map(|_| [coordinate(), coordinate()]).collect()
}

/// `n` keys a side for JOIN, with ~10% key overlap (footnote 10).
fn join_keys(n: usize, seed: u64, tag: &str) -> (Vec<u64>, Vec<u64>) {
    let mut rng = rng_for(seed, tag);
    let a = (0..n).map(|_| rng.gen_range(1..=10_000_000u64)).collect();
    (
        a,
        (0..n)
            .map(|_| rng.gen_range(9_000_000..=19_000_000u64))
            .collect(),
    )
}

/// Figure 10a: DISTINCT unpruned fraction vs matrix rows `d` (w = 2),
/// LRU vs FIFO vs OPT.
pub fn fig_10a() -> Figure {
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: SIM_ENTRIES,
        ua_distinct: 1_000,
        url_distinct: 10_000,
        seed: 10,
    });
    let stream = &uv.user_agent;
    let mut opt = OptDistinct::new();
    let opt = unpruned(stream, |&v| opt.process(v));
    let ds = [64usize, 256, 1024, 4096, 16384];
    let run = |policy| {
        ds.map(|d| {
            let mut m = CacheMatrix::new(d, 2, policy, 3);
            unpruned(stream, |&v| m.process(v))
        })
    };
    Figure {
        id: "Figure 10a",
        title: "DISTINCT pruning vs resources (w = 2)",
        caption: "§8.3, Figure 10a (4096×2 prunes ~all duplicates)",
        x: ("d", labels(ds)),
        series: vec![
            frac("LRU", run(EvictionPolicy::Lru)),
            frac("FIFO", run(EvictionPolicy::Fifo)),
            frac("OPT", ds.map(|_| opt)),
        ],
    }
}

/// Figure 10b: SKYLINE unpruned fraction vs stored points `w`:
/// APH / Sum / Baseline / OPT on 2-D data.
pub fn fig_10b() -> Figure {
    let n = SIM_ENTRIES / 2;
    let points = skyline_points(n, 11, "fig10b");
    let mut opt = OptSkyline::new();
    let opt = unpruned(&points, |p| opt.process(p));
    let ws = [1usize, 2, 4, 7, 10, 15, 20];
    let run = |h: Heuristic| {
        ws.map(|w| {
            let mut p = SkylinePruner::new(2, w, h.clone());
            unpruned(&points, |pt| p.process(pt))
        })
    };
    Figure {
        id: "Figure 10b",
        title: "SKYLINE pruning vs stored points",
        caption: "§8.3, Figure 10b (APH within 3% of Sum or better, both ≥ 10× Baseline; \
         APH within 2× of OPT by w = 20)",
        x: ("w", labels(ws)),
        series: vec![
            frac("APH", run(Heuristic::aph_default())),
            frac("Sum", run(Heuristic::Sum)),
            frac("Baseline", run(Heuristic::Baseline)),
            frac("OPT", ws.map(|_| opt)),
        ],
    }
}

/// Figure 10c: TOP N unpruned fraction vs matrix width `w` (d = 4096):
/// deterministic vs randomized vs OPT.
pub fn fig_10c() -> Figure {
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: SIM_ENTRIES,
        ua_distinct: 100,
        url_distinct: 100,
        seed: 12,
    });
    let stream = &uv.ad_revenue; // long-tailed ORDER BY column
    let n = 250;
    let mut opt = OptTopN::new(n);
    let opt = unpruned(stream, |&v| opt.process(v));
    let ws = [2usize, 4, 6, 8, 12];
    let det = ws.map(|w| {
        let mut det = DeterministicTopN::new(n as u64, w);
        unpruned(stream, |&v| det.process(v))
    });
    let rand = ws.map(|w| {
        let mut rnd = RandomizedTopN::new(4096, w, 13);
        unpruned(stream, |&v| rnd.process(v))
    });
    Figure {
        id: "Figure 10c",
        title: "TOP N pruning vs matrix width (d = 4096, N = 250)",
        caption: "§8.3, Figure 10c (randomized within 20× of optimal at w = 2, 85× at \
         w = 12; deterministic ≥ 5× weaker up to w = 6, stronger at w = 12)",
        x: ("w", labels(ws)),
        series: vec![
            frac("Det", det),
            frac("Rand", rand),
            frac("OPT", ws.map(|_| opt)),
        ],
    }
}

/// Figure 10d: GROUP BY (MAX) unpruned fraction vs matrix width `w`.
pub fn fig_10d() -> Figure {
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: SIM_ENTRIES,
        ua_distinct: 1_000,
        url_distinct: 100,
        seed: 14,
    });
    let stream: Vec<(u64, u64)> = uv.user_agent.into_iter().zip(uv.ad_revenue).collect();
    let mut opt = OptGroupByMax::new();
    let opt = unpruned(&stream, |&(k, v)| opt.process(k, v));
    let ws: Vec<usize> = (1..=9).collect();
    let groupby = ws.iter().map(|&w| {
        let mut p = GroupByPruner::new(512, w, Extremum::Max, 15);
        unpruned(&stream, |&(k, v)| p.process(k, v))
    });
    Figure {
        id: "Figure 10d",
        title: "GROUP BY pruning vs matrix width",
        caption: "§8.3, Figure 10d (99% pruning with 5 stages, all with 6)",
        x: ("w", labels(&ws)),
        series: vec![
            frac("GroupBy", groupby),
            frac("OPT", ws.iter().map(|_| opt)),
        ],
    }
}

/// Figure 10e: JOIN unpruned fraction vs Bloom filter size: BF / RBF / OPT.
pub fn fig_10e() -> Figure {
    let n = SIM_ENTRIES / 2;
    let (a_keys, b_keys) = join_keys(n, 16, "fig10e");
    let opt = OptJoin::from_keys(b_keys.iter().copied());
    let opt = unpruned(&a_keys, |&k| opt.process(k));
    let kbs = [64u64, 256, 1024, 4096, 16384];
    let bf = kbs.map(|kb| {
        let m_bits = kb * 1024 * 8;
        let mut bf = JoinPruner::new(
            BloomFilter::new(m_bits, 3, 1),
            BloomFilter::new(m_bits, 3, 2),
        );
        for &k in &a_keys {
            bf.observe(Side::Left, k);
        }
        for &k in &b_keys {
            bf.observe(Side::Right, k);
        }
        unpruned(&a_keys, |&k| bf.prune_decision(Side::Left, k))
    });
    let rbf = kbs.map(|kb| {
        let mut rbf_b = RegisterBloomFilter::new(kb * 1024 * 8, 3, 4);
        for &k in &b_keys {
            rbf_b.insert(k);
        }
        unpruned(&a_keys, |&k| membership(rbf_b.contains(k)))
    });
    Figure {
        id: "Figure 10e",
        title: "JOIN pruning vs Bloom filter size",
        caption: "§8.3, Figure 10e (≥1MB for a good rate; BF ≈ RBF; near-OPT at 16MB)",
        x: ("filter size", labels(kbs.map(|kb| format!("{kb} KB")))),
        series: vec![
            frac("BF", bf),
            frac("RBF", rbf),
            frac("OPT", kbs.map(|_| opt)),
        ],
    }
}

/// A membership probe's decision: forward what may join.
fn membership(member: bool) -> Decision {
    [Decision::Prune, Decision::Forward][usize::from(member)]
}

/// The HAVING simulation workload: mildly skewed keys over a large
/// domain, with the threshold at 2% of the total mass — so the true
/// output is (nearly) empty and everything the switch forwards is a
/// Count-Min false positive. The sketch's ℓ1 error is `mass/w` per row:
/// counters sweep from error ≫ threshold (no pruning possible) down to
/// error ≪ threshold (perfect pruning) — Figure 10f's curve.
fn having_workload(rows: usize, keys: usize, seed: u64) -> (Vec<(u64, u64)>, u64) {
    let mut rng = rng_for(seed, "having-workload");
    let zipf = Zipf::new(keys, 0.6);
    let entries: Vec<(u64, u64)> = (0..rows)
        .map(|_| (zipf.sample(&mut rng) as u64 + 1, rng.gen_range(1..2_000u64)))
        .collect();
    let total: u64 = entries.iter().map(|&(_, v)| v).sum();
    let threshold = total / 50;
    (entries, threshold)
}

/// Figure 10f: HAVING unpruned fraction vs counters per Count-Min row
/// (3 rows).
pub fn fig_10f() -> Figure {
    let (entries, threshold) = having_workload(SIM_ENTRIES, 5_000, 17);
    let opt_unpruned = cheetah_core::opt::opt_having_unpruned(&entries, threshold);
    let opt = opt_unpruned as f64 / entries.len() as f64;
    let ws = [32usize, 64, 128, 256, 512, 1024];
    let having = ws.map(|w| {
        let mut p = HavingPruner::new(3, w, threshold, 18);
        for &(k, v) in &entries {
            p.pass_one(k, v);
        }
        unpruned(&entries, |&(k, _)| p.pass_two(k))
    });
    Figure {
        id: "Figure 10f",
        title: "HAVING pruning vs counters per row (3 Count-Min rows)",
        caption: "§8.3, Figure 10f (near-perfect pruning at 1024 counters/row)",
        x: ("counters", labels(ws)),
        series: vec![frac("Having", having), frac("OPT", ws.map(|_| opt))],
    }
}

// ---------------------------------------------------------------- fig 11

/// Cumulative unpruned fractions at checkpoints `cps` along a stream
/// that ends at the last one.
fn cumulative(cps: &[usize], mut process: impl FnMut(usize) -> Decision) -> Vec<f64> {
    let (mut forwarded, mut out) = (0u64, Vec::with_capacity(cps.len()));
    for i in 0..cps[cps.len() - 1] {
        forwarded += u64::from(process(i).is_forward());
        if cps.contains(&(i + 1)) {
            out.push(forwarded as f64 / (i + 1) as f64);
        }
    }
    out
}

/// A fifth, two fifths, … of a `total`-entry stream.
fn checkpoints(total: usize) -> Vec<usize> {
    [0.2, 0.4, 0.6, 0.8, 1.0]
        .iter()
        .map(|f| ((total as f64) * f) as usize)
        .collect()
}

/// Checkpoint labels, in thousands of entries.
fn thousands(cps: &[usize]) -> Vec<String> {
    labels(cps.iter().map(|cp| format!("@{}k", cp / 1000)))
}

/// Figure 11a: DISTINCT pruning vs data scale for several `d`.
pub fn fig_11a() -> Figure {
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: SIM_ENTRIES,
        ua_distinct: 2_000,
        url_distinct: 100,
        seed: 21,
    });
    let cps = checkpoints(uv.len());
    let mut series = Vec::new();
    for d in [64usize, 256, 1024, 4096, 16384] {
        let mut m = CacheMatrix::new(d, 2, EvictionPolicy::Lru, 3);
        let vals = cumulative(&cps, |i| m.process(uv.user_agent[i]));
        series.push(frac(format!("d={d}"), vals));
    }
    let mut opt = OptDistinct::new();
    let vals = cumulative(&cps, |i| opt.process(uv.user_agent[i]));
    series.push(frac("OPT", vals));
    Figure {
        id: "Figure 11a",
        title: "DISTINCT pruning vs data scale (w = 2)",
        caption: "§8.3, Figure 11a (improves with scale from d = 1024 up, as first \
         occurrences amortize; d ≤ 256 thrashes, flat within 1%)",
        x: ("entries", thousands(&cps)),
        series,
    }
}

/// Figure 11b: SKYLINE (APH) pruning vs data scale for several `w`.
pub fn fig_11b() -> Figure {
    let n = SIM_ENTRIES / 2;
    let pts = skyline_points(n, 22, "fig11b");
    let cps = checkpoints(n);
    let mut series = Vec::new();
    for w in [2usize, 4, 8, 16] {
        let mut p = SkylinePruner::new(2, w, Heuristic::aph_default());
        let vals = cumulative(&cps, |i| p.process(&pts[i]));
        series.push(frac(format!("w={w}"), vals));
    }
    let mut opt = OptSkyline::new();
    let vals = cumulative(&cps, |i| opt.process(&pts[i]));
    series.push(frac("OPT", vals));
    Figure {
        id: "Figure 11b",
        title: "SKYLINE (APH) pruning vs data scale",
        caption: "§8.3, Figure 11b (smaller output fraction at scale ⇒ better pruning)",
        x: ("entries", thousands(&cps)),
        series,
    }
}

/// Figure 11c: TOP N pruning vs data scale for several `w` (d = 4096).
pub fn fig_11c() -> Figure {
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: SIM_ENTRIES,
        ua_distinct: 100,
        url_distinct: 100,
        seed: 23,
    });
    let cps = checkpoints(uv.len());
    let mut series = Vec::new();
    for w in [4usize, 6, 8, 12] {
        let mut p = RandomizedTopN::new(4096, w, 24);
        let vals = cumulative(&cps, |i| p.process(uv.ad_revenue[i]));
        series.push(frac(format!("w={w}"), vals));
    }
    let mut opt = OptTopN::new(250);
    let vals = cumulative(&cps, |i| opt.process(uv.ad_revenue[i]));
    series.push(frac("OPT", vals));
    Figure {
        id: "Figure 11c",
        title: "TOP N (randomized) pruning vs data scale",
        caption: "§8.3, Figure 11c / Theorem 3's logarithmic dependence on m",
        x: ("entries", thousands(&cps)),
        series,
    }
}

/// Figure 11d: GROUP BY pruning vs data scale for several `w`.
pub fn fig_11d() -> Figure {
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: SIM_ENTRIES,
        ua_distinct: 1_000,
        url_distinct: 100,
        seed: 25,
    });
    let cps = checkpoints(uv.len());
    let mut series = Vec::new();
    for w in [2usize, 4, 6, 8, 10] {
        let mut p = GroupByPruner::new(512, w, Extremum::Max, 26);
        let vals = cumulative(&cps, |i| p.process(uv.user_agent[i], uv.ad_revenue[i]));
        series.push(frac(format!("w={w}"), vals));
    }
    let mut opt = OptGroupByMax::new();
    let vals = cumulative(&cps, |i| opt.process(uv.user_agent[i], uv.ad_revenue[i]));
    series.push(frac("OPT", vals));
    Figure {
        id: "Figure 11d",
        title: "GROUP BY pruning vs data scale",
        caption: "§8.3, Figure 11d (improves with scale; w ≥ 6 matches OPT throughout)",
        x: ("entries", thousands(&cps)),
        series,
    }
}

/// Figure 11e: JOIN pruning vs data scale for several filter sizes.
pub fn fig_11e() -> Figure {
    let n = SIM_ENTRIES / 2;
    let (a_keys, b_keys) = join_keys(n, 27, "fig11e");
    let cps = checkpoints(n);
    let mut series = Vec::new();
    for mb in [0.25f64, 1.0, 4.0, 16.0] {
        let m_bits = (mb * 8.0 * 1024.0 * 1024.0) as u64;
        // Filters fill as the B-side streams; probe A-side prefix-aligned
        // (both sides grow together, as in the two-pass flow).
        let mut filter = BloomFilter::new(m_bits, 3, 28);
        let vals = cumulative(&cps, |i| {
            filter.insert(b_keys[i]);
            membership(filter.contains(a_keys[i]))
        });
        series.push(frac(format!("{mb}MB"), vals));
    }
    // OPT: exact membership of the B prefix.
    let mut seen = HashSet::new();
    let vals = cumulative(&cps, |i| {
        seen.insert(b_keys[i]);
        membership(seen.contains(&a_keys[i]))
    });
    series.push(frac("OPT", vals));
    Figure {
        id: "Figure 11e",
        title: "JOIN pruning vs data scale",
        caption: "§8.3, Figure 11e (false positives accumulate ⇒ degrades with scale)",
        x: ("entries", thousands(&cps)),
        series,
    }
}

/// Figure 11f: HAVING pruning vs data scale for several counter widths.
pub fn fig_11f() -> Figure {
    let (entries, threshold) = having_workload(SIM_ENTRIES, 5_000, 29);
    let cps = checkpoints(entries.len());
    let mut series = Vec::new();
    for w in [32usize, 64, 128, 256, 512] {
        // Stream the prefix through pass 1, then measure the pass-2
        // fraction at each checkpoint (re-running pass 2 per checkpoint).
        let mut p = HavingPruner::new(3, w, threshold, 30);
        let mut vals = Vec::new();
        let mut prev = 0usize;
        for &cp in &cps {
            for &(k, v) in &entries[prev..cp] {
                p.pass_one(k, v);
            }
            prev = cp;
            vals.push(unpruned(&entries[..cp], |&(k, _)| p.pass_two(k)));
        }
        series.push(frac(format!("w=2^{}", w.ilog2()), vals));
    }
    // OPT at each checkpoint (threshold fixed at the full-stream value, as
    // in the paper where c is part of the query).
    let vals = cps.iter().map(|&cp| {
        cheetah_core::opt::opt_having_unpruned(&entries[..cp], threshold) as f64 / cp as f64
    });
    series.push(frac("OPT", vals));
    Figure {
        id: "Figure 11f",
        title: "HAVING pruning vs data scale (3 Count-Min rows)",
        caption: "§8.3, Figure 11f (Count-Min false positives grow with the data)",
        x: ("entries", thousands(&cps)),
        series,
    }
}

// ------------------------------------------------------------ fig 12/13

/// Figures 12 and 13: processing on a server vs the switch CPU
/// (NetAccel's overflow path), for Group-By and Distinct.
pub fn fig_12_13() -> Figure {
    let na = NetAccelModel::default();
    let entries = [1_000_000u64, 5_000_000, 10_000_000, 50_000_000, 100_000_000];
    Figure {
        id: "Figures 12/13",
        title: "server vs switch-CPU processing time",
        caption: "Appendix F (the switch CPU neither computes nor moves data fast; one model \
                  serves Figure 12's Group-By and Figure 13's Distinct: the bottleneck is the \
                  dataplane→CPU channel and the wimpy core, not the op)",
        x: ("entries", labels(entries)),
        series: vec![
            secs("server", 2, entries.map(|e| na.server_s(e))),
            secs("switch CPU", 2, entries.map(|e| na.switch_cpu_s(e))),
        ],
    }
}

// ------------------------------------------------------------ extensions

/// Beyond the paper's figures: quantify the §9 extensions (multi-entry
/// packets, switch trees) and the full-stack pisa backend.
pub fn extensions() -> Vec<Figure> {
    const CAPTION: &str = "§9 / footnotes (no corresponding paper figure)";

    // Batching sweep: packets sent vs pruning lost.
    let mut rng = rng_for(90, "ext-batch");
    let stream: Vec<u64> = (0..SIM_ENTRIES / 2)
        .map(|_| rng.gen_range(1..2_000u64))
        .collect();
    let per_packet = [1usize, 2, 4, 8];
    let batched = per_packet.map(|per_packet| {
        let inner = DistinctBatchAccess::new(DistinctPruner::new(512, 2, EvictionPolicy::Lru, 3));
        let mut b = BatchedPruner::new(inner);
        for chunk in stream.chunks(per_packet) {
            let entries: Vec<Vec<u64>> = chunk.iter().map(|&k| vec![k]).collect();
            let refs: Vec<&[u64]> = entries.iter().map(|v| v.as_slice()).collect();
            b.process_packet(&refs);
        }
        b.stats
    });
    let batching = Figure {
        id: "Extensions",
        title: "§9 multi-entry packets (DISTINCT, 512×2)",
        caption: CAPTION,
        x: ("entries/packet", labels(per_packet)),
        series: vec![
            count("packets", batched.iter().map(|s| s.packets)),
            frac("unpruned", batched.iter().map(|s| s.unpruned_fraction())),
            count("skipped", batched.iter().map(|s| s.skipped)),
        ],
    };

    // Switch tree vs a single switch.
    let mut rng = rng_for(91, "ext-tree");
    let tree_stream: Vec<u64> = (0..SIM_ENTRIES / 2)
        .map(|_| rng.gen_range(1..600u64))
        .collect();
    let forwarded = |p: &mut dyn RowPruner| {
        let fwd = tree_stream
            .iter()
            .filter(|&&k| p.process_row(&[k]).is_forward());
        fwd.count() as u64
    };
    let single_fwd = forwarded(&mut DistinctPruner::new(64, 2, EvictionPolicy::Lru, 2));
    let leaves = [2usize, 4, 8];
    let switches = leaves.map(|l| format!("{l} leaves + root"));
    let tree_fwd = leaves.map(|leaves| {
        let leaf = |s: u64| -> Box<dyn RowPruner + Send> {
            Box::new(DistinctPruner::new(64, 2, EvictionPolicy::Lru, s))
        };
        forwarded(&mut SwitchTree::new(
            (0..leaves as u64).map(leaf).collect(),
            leaf(99),
            7,
        ))
    });
    let tree = Figure {
        id: "Extensions",
        title: "§9 switch tree vs one switch (DISTINCT, 64×2 each)",
        caption: CAPTION,
        x: ("switches", labels(switches)),
        series: vec![
            count("forwarded", tree_fwd),
            count("single switch", leaves.map(|_| single_fwd)),
        ],
    };

    // Full-stack pisa backend on the benchmark DISTINCT.
    let db = bigdata_db(100_000, 20_000, 1_000, 0.5, 92);
    let q = distinct_agents();
    let backends = [SwitchBackend::Reference, SwitchBackend::Pisa];
    let runs = backends.map(|backend| {
        let cfg = PrunerConfig {
            backend,
            ..PrunerConfig::default()
        };
        let exec = CheetahExecutor::new(CostModel::default(), cfg);
        let started = Instant::now();
        let r = Executor::execute(&exec, &db, &q);
        (r, started.elapsed().as_secs_f64())
    });
    let engine = Figure {
        id: "Extensions",
        title: "engine on the metered PISA backend",
        caption: CAPTION,
        x: ("backend", labels(["reference", "pisa"])),
        series: vec![
            frac(
                "pruned",
                runs.iter().map(|(r, _)| r.prune_stats().pruned_fraction()),
            ),
            count(
                "result size",
                runs.iter().map(|(r, _)| r.result.output_size()),
            ),
            secs("wall", 4, runs.iter().map(|&(_, wall)| wall)),
        ],
    };
    vec![batching, tree, engine]
}
