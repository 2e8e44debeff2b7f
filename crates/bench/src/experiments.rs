//! One function per table/figure of the paper's evaluation. Each prints
//! the same rows/series the paper plots; EXPERIMENTS.md records the
//! paper-vs-measured comparison. Run through `cargo run --release -p
//! cheetah-bench --bin experiments -- <id>|all`.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use cheetah_core::decision::PruneStats;
use cheetah_core::distinct::{CacheMatrix, EvictionPolicy};
use cheetah_core::filter::{Atom, CmpOp, Formula};
use cheetah_core::groupby::{Extremum, GroupByPruner};
use cheetah_core::having::HavingPruner;
use cheetah_core::join::{BloomFilter, JoinPruner, KeyFilter, RegisterBloomFilter, Side};
use cheetah_core::opt::{OptDistinct, OptGroupByMax, OptJoin, OptSkyline, OptTopN};
use cheetah_core::resources::{table2, SwitchModel};
use cheetah_core::skyline::{Heuristic, SkylinePruner};
use cheetah_core::topn::{DeterministicTopN, RandomizedTopN};

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
use crate::{bigdata_db, fmt_frac, header, q3};

/// Default stream length for the pruning-rate simulations (Figures 10/11).
pub const SIM_ENTRIES: usize = 1_000_000;

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
pub fn table_2() {
    header(
        "Table 2",
        "switch resource consumption per algorithm",
        "§7, Table 2",
    );
    let a = SwitchModel::tofino_like().alus_per_stage;
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
        (
            "JOIN BF      (M=4MB, H=3)",
            table2::join_bf(4 * (8 << 20), 3),
        ),
        (
            "JOIN RBF     (M=4MB, H=3)",
            table2::join_rbf(4 * (8 << 20), 3),
        ),
        ("HAVING       (w=1024, d=3)", table2::having(1024, 3, a)),
        ("Filtering    (1 predicate)", table2::filter(1)),
    ];
    println!(
        "{:<30} {:>7} {:>6} {:>12} {:>8}",
        "algorithm", "stages", "ALUs", "SRAM", "TCAM"
    );
    for (name, u) in rows {
        let sram = if u.sram_bits >= 8 * 1024 * 1024 {
            format!("{:.1} MB", u.sram_bits as f64 / 8.0 / 1024.0 / 1024.0)
        } else {
            format!("{:.1} KB", u.sram_kb())
        };
        println!(
            "{:<30} {:>7} {:>6} {:>12} {:>8}",
            name, u.stages, u.alus, sram, u.tcam_entries
        );
    }
}

/// Table 3: hardware choices (throughput/latency envelopes).
pub fn table_3() {
    header(
        "Table 3",
        "hardware performance comparison",
        "§2/§10, Table 3",
    );
    println!(
        "{:<12} {:>22} {:>18}",
        "system", "throughput (Gbps)", "latency (µs)"
    );
    for hw in HARDWARE_COMPARISON {
        let tp = if hw.throughput_gbps.0 == hw.throughput_gbps.1 {
            format!("{:.0}", hw.throughput_gbps.0)
        } else {
            format!("{:.0}–{:.0}", hw.throughput_gbps.0, hw.throughput_gbps.1)
        };
        let lat = if hw.latency_us.0 == 0.0 {
            format!("<{:.0}", hw.latency_us.1)
        } else if hw.latency_us.0 == hw.latency_us.1 {
            format!("{:.0}", hw.latency_us.0)
        } else {
            format!("{:.0}–{:.0}", hw.latency_us.0, hw.latency_us.1)
        };
        println!("{:<12} {:>22} {:>18}", hw.name, tp, lat);
    }
}

// ---------------------------------------------------------------- fig 5

/// Figure 5's bar groups, in print order — Big Data A, B and A+B, TPC-H
/// Q3, then one query per supported operation: each query's label and
/// the modeled seconds of Spark's first run, Spark's warm run and
/// Cheetah's run.
pub fn fig5_rows() -> Vec<(&'static str, [f64; 3])> {
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
        (
            "Distinct",
            Query::Distinct {
                table: "uservisits".into(),
                column: "userAgent".into(),
            },
        ),
        (
            "GroupBy (Max)",
            Query::GroupBy {
                table: "uservisits".into(),
                key: "userAgent".into(),
                val: "adRevenue".into(),
                agg: Agg::Max,
            },
        ),
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
    rows
}

/// Figure 5: completion times, Cheetah vs Spark (1st run / warm), for the
/// benchmark queries and each supported operation.
pub fn fig_5() {
    header(
        "Figure 5",
        "completion time: Cheetah vs Spark across the benchmark",
        "§8.2.1, Figure 5 (31.7M uservisits / 18M rankings; scaled ×1/100 \
         with the timing model extrapolating back)",
    );
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>14}",
        "query", "spark 1st", "spark warm", "cheetah", "vs 1st run"
    );
    for (name, [s1, s2, c]) in fig5_rows() {
        println!(
            "{:<16} {:>10.2} s {:>10.2} s {:>10.2} s {:>12.0}% less",
            name,
            s1,
            s2,
            c,
            (1.0 - c / s1) * 100.0
        );
    }
}

// ---------------------------------------------------------------- fig 6

/// Figure 6a's runs at 1 to 5 workers, in order.
pub fn fig6a_rows() -> Vec<Priced> {
    let db = bigdata_db(300_000, 50_000, 2_000, 0.5, 6);
    let q = Query::Distinct {
        table: "uservisits".into(),
        column: "userAgent".into(),
    };
    (1..=5)
        .map(|workers| {
            let model = CostModel {
                workers,
                model_scale: 100.0,
                ..CostModel::default()
            };
            priced(model, &db, &q)
        })
        .collect()
}

/// Figure 6a: completion vs number of workers (fixed total entries).
pub fn fig_6a() {
    header(
        "Figure 6a",
        "DISTINCT completion time vs number of workers",
        "§8.2.2, Figure 6a (total entries fixed, partitions vary)",
    );
    println!("{:<9} {:>12} {:>12}", "workers", "cheetah", "spark (warm)");
    for (workers, p) in (1..).zip(fig6a_rows()) {
        println!(
            "{:<9} {:>10.2} s {:>10.2} s",
            workers,
            p.cheetah.total_s(),
            p.spark.total_s()
        );
    }
}

/// Figure 6b: completion vs total entries (10M / 20M / 30M in the paper).
pub fn fig_6b() {
    header(
        "Figure 6b",
        "DISTINCT completion time vs number of entries",
        "§8.2.2, Figure 6b (scaled ×1/100)",
    );
    println!("{:<12} {:>12} {:>12}", "entries", "cheetah", "spark (warm)");
    for entries in [100_000usize, 200_000, 300_000] {
        let db = bigdata_db(entries, 50_000, 2_000, 0.5, 7);
        let model = CostModel {
            model_scale: 100.0,
            ..CostModel::default()
        };
        let q = Query::Distinct {
            table: "uservisits".into(),
            column: "userAgent".into(),
        };
        let p = priced(model, &db, &q);
        println!(
            "{:<12} {:>10.2} s {:>10.2} s",
            entries * 100,
            p.cheetah.total_s(),
            p.spark.total_s()
        );
    }
}

// ---------------------------------------------------------------- fig 7

/// Figure 7's rows: result size in percent of a 200K-entry input,
/// Cheetah's delivery and NetAccel's drain, in seconds.
pub fn fig7_rows() -> Vec<(u64, f64, f64)> {
    let input_entries = 200_000u64;
    let na = NetAccelModel::default();
    let model = CostModel::default();
    [1u64, 5, 10, 15, 20, 25, 30, 35, 40]
        .into_iter()
        .map(|pct| {
            let entries = input_entries * pct / 100;
            (pct, cost::delivery_s(entries, &model), na.drain_s(entries))
        })
        .collect()
}

/// Figure 7: NetAccel's result-drain overhead vs result size (TPC-H Q3
/// order-key join), against Cheetah's streaming delivery.
pub fn fig_7() {
    header(
        "Figure 7",
        "overhead of moving results out of the switch dataplane",
        "§8.2.4, Figure 7 (NetAccel lower bound: ideal pruning, drain only)",
    );
    println!(
        "{:<22} {:>14} {:>16}",
        "result size (% input)", "cheetah", "NetAccel (bound)"
    );
    for (pct, cheetah_s, netaccel_s) in fig7_rows() {
        println!(
            "{:<22} {:>12.3} s {:>14.3} s",
            format!("{pct}%"),
            cheetah_s,
            netaccel_s
        );
    }
}

// ---------------------------------------------------------------- fig 8

/// Figure 8's queries, Distinct then Group-By: each one's label and its
/// runs at a 10G and a 20G NIC cap.
pub fn fig8_rows() -> Vec<(&'static str, Priced, Priced)> {
    let db = bigdata_db(317_000, 50_000, 2_000, 0.5, 8);
    let queries: Vec<(&str, Query)> = vec![
        (
            "Distinct",
            Query::Distinct {
                table: "uservisits".into(),
                column: "userAgent".into(),
            },
        ),
        (
            "Group-By",
            Query::GroupBy {
                table: "uservisits".into(),
                key: "userAgent".into(),
                val: "adRevenue".into(),
                agg: Agg::Max,
            },
        ),
    ];
    let at = |gbps, q: &Query| {
        let model = CostModel {
            nic_gbps: gbps,
            model_scale: 100.0,
            ..CostModel::default()
        };
        priced(model, &db, q)
    };
    queries
        .into_iter()
        .map(|(name, q)| (name, at(10.0, &q), at(20.0, &q)))
        .collect()
}

/// Figure 8: completion breakdown (computation / network / other) for
/// Spark, Cheetah@10G and Cheetah@20G on Distinct and Group-By.
pub fn fig_8() {
    header(
        "Figure 8",
        "delay breakdown at different network rates",
        "§8.2.3, Figure 8 (Spark's bottleneck is not the network)",
    );
    println!(
        "{:<10} {:<14} {:>12} {:>10} {:>8} {:>9}",
        "query", "system", "computation", "network", "other", "total"
    );
    for (name, p10, p20) in fig8_rows() {
        for (system, t) in [
            ("Spark (warm)", p10.spark),
            ("Cheetah 10G", p10.cheetah),
            ("Cheetah 20G", p20.cheetah),
        ] {
            println!(
                "{:<10} {:<14} {:>10.2} s {:>8.2} s {:>6.2} s {:>7.2} s",
                name,
                system,
                t.computation_s,
                t.network_s,
                t.other_s,
                t.total_s()
            );
        }
    }
}

// ---------------------------------------------------------------- fig 9

/// Figure 9: master completion latency vs unpruned fraction.
///
/// Two views: (a) *measured* — real master operators (hash set, heap,
/// max-map) over the unpruned entries on this machine; (b) *modeled
/// blocking* — the §8.3 queueing effect at the paper's arrival/service
/// rates, where entries buffer up once the master is the bottleneck.
pub fn fig_9() {
    header(
        "Figure 9",
        "blocking master latency for a given pruning rate",
        "§8.3, Figure 9 (latency grows super-linearly in the unpruned rate)",
    );
    let m_total = 2_000_000usize;
    let mut rng = rng_for(9, "fig9");
    let keys: Vec<u64> = (0..m_total).map(|_| rng.gen_range(0..100_000)).collect();
    let vals: Vec<u64> = (0..m_total).map(|_| rng.gen()).collect();

    // Paper-scale parameters for the blocking model.
    let model_entries = 31_700_000f64;
    let arrival_pps = 10.0e6;
    let service = |rates: Rates| rates.master / 4.0; // conservative master
    println!(
        "{:<10} | {:>14} {:>14} {:>14} | {:>11} {:>11} {:>11}",
        "unpruned",
        "topn meas.",
        "distinct meas.",
        "groupby meas.",
        "topn mdl",
        "dist mdl",
        "gby mdl"
    );
    for pct in [5u64, 10, 20, 30, 40, 50] {
        let n = m_total * pct as usize / 100;
        // Measured: real data structures on this machine.
        let t0 = Instant::now();
        let mut heap = std::collections::BinaryHeap::with_capacity(251);
        for &v in &vals[..n] {
            heap.push(std::cmp::Reverse(v));
            if heap.len() > 250 {
                heap.pop();
            }
        }
        let topn_meas = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut set = HashSet::with_capacity(1024);
        for &k in &keys[..n] {
            set.insert(k);
        }
        let distinct_meas = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut map: HashMap<u64, u64> = HashMap::with_capacity(1024);
        for i in 0..n {
            let e = map.entry(keys[i]).or_insert(0);
            *e = (*e).max(vals[i]);
        }
        let groupby_meas = t0.elapsed().as_secs_f64();

        // Modeled blocking at paper scale: the stream takes
        // model_entries/arrival seconds; the master needs
        // unpruned/service seconds; the excess is the blocking latency.
        let stream_s = model_entries / arrival_pps;
        let blocking = |rates| {
            let unpruned = model_entries * pct as f64 / 100.0;
            (unpruned / service(rates) - stream_s).max(0.0) + unpruned / service(rates) * 0.1
        };
        println!(
            "{:<10} | {:>12.3} s {:>12.3} s {:>12.3} s | {:>9.2} s {:>9.2} s {:>9.2} s",
            format!("{pct}%"),
            topn_meas,
            distinct_meas,
            groupby_meas,
            blocking(TOPN),
            blocking(DISTINCT),
            blocking(GROUPBY)
        );
    }
}

// ---------------------------------------------------------------- fig 10

/// Figure 10a: DISTINCT unpruned fraction vs matrix rows `d` (w = 2),
/// LRU vs FIFO vs OPT.
pub fn fig_10a() {
    header(
        "Figure 10a",
        "DISTINCT pruning vs resources (w = 2)",
        "§8.3, Figure 10a (4096×2 prunes ~all duplicates)",
    );
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: SIM_ENTRIES,
        ua_distinct: 1_000,
        url_distinct: 10_000,
        seed: 10,
    });
    let stream = &uv.user_agent;
    let mut opt = OptDistinct::new();
    let mut opt_stats = PruneStats::default();
    for &v in stream {
        opt_stats.record(opt.process(v));
    }
    println!("{:<8} {:>14} {:>14} {:>14}", "d", "LRU", "FIFO", "OPT");
    for d in [64usize, 256, 1024, 4096, 16384] {
        let run = |policy| {
            let mut m = CacheMatrix::new(d, 2, policy, 3);
            let mut stats = PruneStats::default();
            for &v in stream {
                stats.record(m.process(v));
            }
            stats.unpruned_fraction()
        };
        println!(
            "{:<8} {:>14} {:>14} {:>14}",
            d,
            fmt_frac(run(EvictionPolicy::Lru)),
            fmt_frac(run(EvictionPolicy::Fifo)),
            fmt_frac(opt_stats.unpruned_fraction())
        );
    }
}

/// Figure 10b: SKYLINE unpruned fraction vs stored points `w`:
/// APH / Sum / Baseline / OPT on 2-D data.
pub fn fig_10b() {
    header(
        "Figure 10b",
        "SKYLINE pruning vs stored points",
        "§8.3, Figure 10b (APH ≥ Sum ≫ Baseline; APH perfect by w = 20)",
    );
    let n = SIM_ENTRIES / 2;
    let mut rng = rng_for(11, "fig10b");
    let points: Vec<[u64; 2]> = (0..n)
        .map(|_| [rng.gen_range(1..1u64 << 16), rng.gen_range(1..1u64 << 16)])
        .collect();
    let mut opt = OptSkyline::new();
    let mut opt_stats = PruneStats::default();
    for p in &points {
        opt_stats.record(opt.process(p));
    }
    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>14}",
        "w", "APH", "Sum", "Baseline", "OPT"
    );
    for w in [1usize, 2, 4, 7, 10, 15, 20] {
        let run = |h: Heuristic| {
            let mut p = SkylinePruner::new(2, w, h);
            let mut stats = PruneStats::default();
            for pt in &points {
                stats.record(p.process(pt));
            }
            stats.unpruned_fraction()
        };
        println!(
            "{:<6} {:>14} {:>14} {:>14} {:>14}",
            w,
            fmt_frac(run(Heuristic::aph_default())),
            fmt_frac(run(Heuristic::Sum)),
            fmt_frac(run(Heuristic::Baseline)),
            fmt_frac(opt_stats.unpruned_fraction())
        );
    }
}

/// Figure 10c: TOP N unpruned fraction vs matrix width `w` (d = 4096):
/// deterministic vs randomized vs OPT.
pub fn fig_10c() {
    header(
        "Figure 10c",
        "TOP N pruning vs matrix width (d = 4096, N = 250)",
        "§8.3, Figure 10c (randomized ≈ 5× optimal; deterministic far weaker)",
    );
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: SIM_ENTRIES,
        ua_distinct: 100,
        url_distinct: 100,
        seed: 12,
    });
    let stream = &uv.ad_revenue; // long-tailed ORDER BY column
    let n = 250;
    let mut opt = OptTopN::new(n);
    let mut opt_stats = PruneStats::default();
    for &v in stream {
        opt_stats.record(opt.process(v));
    }
    println!("{:<6} {:>14} {:>14} {:>14}", "w", "Det", "Rand", "OPT");
    for w in [2usize, 4, 6, 8, 12] {
        let mut det = DeterministicTopN::new(n as u64, w);
        let mut det_stats = PruneStats::default();
        for &v in stream {
            det_stats.record(det.process(v));
        }
        let mut rnd = RandomizedTopN::new(4096, w, 13);
        let mut rnd_stats = PruneStats::default();
        for &v in stream {
            rnd_stats.record(rnd.process(v));
        }
        println!(
            "{:<6} {:>14} {:>14} {:>14}",
            w,
            fmt_frac(det_stats.unpruned_fraction()),
            fmt_frac(rnd_stats.unpruned_fraction()),
            fmt_frac(opt_stats.unpruned_fraction())
        );
    }
}

/// Figure 10d: GROUP BY (MAX) unpruned fraction vs matrix width `w`.
pub fn fig_10d() {
    header(
        "Figure 10d",
        "GROUP BY pruning vs matrix width",
        "§8.3, Figure 10d (99% pruning with 3 stages, all with 9)",
    );
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: SIM_ENTRIES,
        ua_distinct: 1_000,
        url_distinct: 100,
        seed: 14,
    });
    let mut opt = OptGroupByMax::new();
    let mut opt_stats = PruneStats::default();
    for (k, v) in uv.user_agent.iter().zip(&uv.ad_revenue) {
        opt_stats.record(opt.process(*k, *v));
    }
    println!("{:<6} {:>14} {:>14}", "w", "GroupBy", "OPT");
    for w in 1usize..=9 {
        let mut p = GroupByPruner::new(512, w, Extremum::Max, 15);
        let mut stats = PruneStats::default();
        for (k, v) in uv.user_agent.iter().zip(&uv.ad_revenue) {
            stats.record(p.process(*k, *v));
        }
        println!(
            "{:<6} {:>14} {:>14}",
            w,
            fmt_frac(stats.unpruned_fraction()),
            fmt_frac(opt_stats.unpruned_fraction())
        );
    }
}

/// Figure 10e: JOIN unpruned fraction vs Bloom filter size: BF / RBF / OPT.
pub fn fig_10e() {
    header(
        "Figure 10e",
        "JOIN pruning vs Bloom filter size",
        "§8.3, Figure 10e (≥1MB for a good rate; BF ≈ RBF; near-OPT at 16MB)",
    );
    let n = SIM_ENTRIES / 2;
    let mut rng = rng_for(16, "fig10e");
    // ~10% key overlap (footnote 10).
    let a_keys: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=10_000_000u64)).collect();
    let b_keys: Vec<u64> = (0..n)
        .map(|_| rng.gen_range(9_000_000..=19_000_000u64))
        .collect();
    let opt = OptJoin::from_keys(b_keys.iter().copied());
    let mut opt_stats = PruneStats::default();
    for &k in &a_keys {
        opt_stats.record(opt.process(k));
    }
    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "filter size", "BF", "RBF", "OPT"
    );
    for kb in [64u64, 256, 1024, 4096, 16384] {
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
        let mut bf_stats = PruneStats::default();
        for &k in &a_keys {
            bf_stats.record(bf.prune_decision(Side::Left, k));
        }
        let mut rbf_b = RegisterBloomFilter::new(m_bits, 3, 4);
        for &k in &b_keys {
            rbf_b.insert(k);
        }
        let mut rbf_stats = PruneStats::default();
        for &k in &a_keys {
            rbf_stats.record(if rbf_b.contains(k) {
                cheetah_core::Decision::Forward
            } else {
                cheetah_core::Decision::Prune
            });
        }
        println!(
            "{:<12} {:>14} {:>14} {:>14}",
            format!("{} KB", kb),
            fmt_frac(bf_stats.unpruned_fraction()),
            fmt_frac(rbf_stats.unpruned_fraction()),
            fmt_frac(opt_stats.unpruned_fraction())
        );
    }
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
pub fn fig_10f() {
    header(
        "Figure 10f",
        "HAVING pruning vs counters per row (3 Count-Min rows)",
        "§8.3, Figure 10f (near-perfect pruning at 1024 counters/row)",
    );
    let (entries, threshold) = having_workload(SIM_ENTRIES, 5_000, 17);
    let opt_unpruned = cheetah_core::opt::opt_having_unpruned(&entries, threshold);
    let opt_frac = opt_unpruned as f64 / entries.len() as f64;
    println!("{:<10} {:>14} {:>14}", "counters", "Having", "OPT");
    for w in [32usize, 64, 128, 256, 512, 1024] {
        let mut p = HavingPruner::new(3, w, threshold, 18);
        let mut stats = PruneStats::default();
        for &(k, v) in &entries {
            p.pass_one(k, v);
        }
        for &(k, _) in &entries {
            stats.record(p.pass_two(k));
        }
        println!(
            "{:<10} {:>14} {:>14}",
            w,
            fmt_frac(stats.unpruned_fraction()),
            fmt_frac(opt_frac)
        );
    }
}

// ---------------------------------------------------------------- fig 11

/// Cumulative unpruned fractions at checkpoints along a stream.
fn cumulative<F: FnMut(usize) -> cheetah_core::Decision>(
    total: usize,
    checkpoints: &[usize],
    mut process: F,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(checkpoints.len());
    let mut forwarded = 0u64;
    let mut ci = 0;
    for i in 0..total {
        if process(i).is_forward() {
            forwarded += 1;
        }
        if ci < checkpoints.len() && i + 1 == checkpoints[ci] {
            out.push(forwarded as f64 / (i + 1) as f64);
            ci += 1;
        }
    }
    out
}

fn checkpoints(total: usize) -> Vec<usize> {
    [0.2, 0.4, 0.6, 0.8, 1.0]
        .iter()
        .map(|f| ((total as f64) * f) as usize)
        .collect()
}

fn print_scale_table(title: &str, cps: &[usize], series: &[(String, Vec<f64>)]) {
    print!("{:<12}", title);
    for cp in cps {
        print!(" {:>12}", format!("@{}k", cp / 1000));
    }
    println!();
    for (name, vals) in series {
        print!("{name:<12}");
        for v in vals {
            print!(" {:>12}", fmt_frac(*v));
        }
        println!();
    }
}

/// Figure 11a: DISTINCT pruning vs data scale for several `d`.
pub fn fig_11a() {
    header(
        "Figure 11a",
        "DISTINCT pruning vs data scale (w = 2)",
        "§8.3, Figure 11a (improves with scale: first occurrences amortize)",
    );
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
        let vals = cumulative(uv.len(), &cps, |i| m.process(uv.user_agent[i]));
        series.push((format!("d={d}"), vals));
    }
    let mut opt = OptDistinct::new();
    let vals = cumulative(uv.len(), &cps, |i| opt.process(uv.user_agent[i]));
    series.push(("OPT".to_string(), vals));
    print_scale_table("entries→", &cps, &series);
}

/// Figure 11b: SKYLINE (APH) pruning vs data scale for several `w`.
pub fn fig_11b() {
    header(
        "Figure 11b",
        "SKYLINE (APH) pruning vs data scale",
        "§8.3, Figure 11b (smaller output fraction at scale ⇒ better pruning)",
    );
    let n = SIM_ENTRIES / 2;
    let mut rng = rng_for(22, "fig11b");
    let pts: Vec<[u64; 2]> = (0..n)
        .map(|_| [rng.gen_range(1..1u64 << 16), rng.gen_range(1..1u64 << 16)])
        .collect();
    let cps = checkpoints(n);
    let mut series = Vec::new();
    for w in [2usize, 4, 8, 16] {
        let mut p = SkylinePruner::new(2, w, Heuristic::aph_default());
        let vals = cumulative(n, &cps, |i| p.process(&pts[i]));
        series.push((format!("w={w}"), vals));
    }
    let mut opt = OptSkyline::new();
    let vals = cumulative(n, &cps, |i| opt.process(&pts[i]));
    series.push(("OPT".to_string(), vals));
    print_scale_table("entries→", &cps, &series);
}

/// Figure 11c: TOP N pruning vs data scale for several `w` (d = 4096).
pub fn fig_11c() {
    header(
        "Figure 11c",
        "TOP N (randomized) pruning vs data scale",
        "§8.3, Figure 11c / Theorem 3's logarithmic dependence on m",
    );
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
        let vals = cumulative(uv.len(), &cps, |i| p.process(uv.ad_revenue[i]));
        series.push((format!("w={w}"), vals));
    }
    let mut opt = OptTopN::new(250);
    let vals = cumulative(uv.len(), &cps, |i| opt.process(uv.ad_revenue[i]));
    series.push(("OPT".to_string(), vals));
    print_scale_table("entries→", &cps, &series);
}

/// Figure 11d: GROUP BY pruning vs data scale for several `w`.
pub fn fig_11d() {
    header(
        "Figure 11d",
        "GROUP BY pruning vs data scale",
        "§8.3, Figure 11d",
    );
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
        let vals = cumulative(uv.len(), &cps, |i| {
            p.process(uv.user_agent[i], uv.ad_revenue[i])
        });
        series.push((format!("w={w}"), vals));
    }
    let mut opt = OptGroupByMax::new();
    let vals = cumulative(uv.len(), &cps, |i| {
        opt.process(uv.user_agent[i], uv.ad_revenue[i])
    });
    series.push(("OPT".to_string(), vals));
    print_scale_table("entries→", &cps, &series);
}

/// Figure 11e: JOIN pruning vs data scale for several filter sizes.
pub fn fig_11e() {
    header(
        "Figure 11e",
        "JOIN pruning vs data scale",
        "§8.3, Figure 11e (false positives accumulate ⇒ degrades with scale)",
    );
    let n = SIM_ENTRIES / 2;
    let mut rng = rng_for(27, "fig11e");
    let a_keys: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=10_000_000u64)).collect();
    let b_keys: Vec<u64> = (0..n)
        .map(|_| rng.gen_range(9_000_000..=19_000_000u64))
        .collect();
    let cps = checkpoints(n);
    let mut series = Vec::new();
    for mb in [0.25f64, 1.0, 4.0, 16.0] {
        let m_bits = (mb * 8.0 * 1024.0 * 1024.0) as u64;
        // Filters fill as the B-side streams; probe A-side prefix-aligned
        // (both sides grow together, as in the two-pass flow).
        let mut filter = BloomFilter::new(m_bits, 3, 28);
        let vals = cumulative(n, &cps, |i| {
            filter.insert(b_keys[i]);
            if filter.contains(a_keys[i]) {
                cheetah_core::Decision::Forward
            } else {
                cheetah_core::Decision::Prune
            }
        });
        series.push((format!("{mb}MB"), vals));
    }
    // OPT: exact membership of the B prefix.
    let mut seen = HashSet::new();
    let vals = cumulative(n, &cps, |i| {
        seen.insert(b_keys[i]);
        if seen.contains(&a_keys[i]) {
            cheetah_core::Decision::Forward
        } else {
            cheetah_core::Decision::Prune
        }
    });
    series.push(("OPT".to_string(), vals));
    print_scale_table("entries→", &cps, &series);
}

/// Figure 11f: HAVING pruning vs data scale for several counter widths.
pub fn fig_11f() {
    header(
        "Figure 11f",
        "HAVING pruning vs data scale (3 Count-Min rows)",
        "§8.3, Figure 11f (Count-Min false positives grow with the data)",
    );
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
            let fwd = entries[..cp]
                .iter()
                .filter(|&&(k, _)| p.pass_two(k).is_forward())
                .count();
            vals.push(fwd as f64 / cp as f64);
        }
        series.push((format!("w=2^{}", w.ilog2()), vals));
    }
    // OPT at each checkpoint (threshold fixed at the full-stream value, as
    // in the paper where c is part of the query).
    let vals = cps
        .iter()
        .map(|&cp| {
            cheetah_core::opt::opt_having_unpruned(&entries[..cp], threshold) as f64 / cp as f64
        })
        .collect();
    series.push(("OPT".to_string(), vals));
    print_scale_table("entries→", &cps, &series);
}

// ------------------------------------------------------------ fig 12/13

/// Figures 12 and 13: processing on a server vs the switch CPU
/// (NetAccel's overflow path), for Group-By and Distinct.
pub fn fig_12_13() {
    header(
        "Figures 12/13",
        "server vs switch-CPU processing time",
        "Appendix F (the switch CPU neither computes nor moves data fast)",
    );
    let na = NetAccelModel::default();
    println!("{:<14} {:>14} {:>16}", "entries", "server", "switch CPU");
    for entries in [1_000_000u64, 5_000_000, 10_000_000, 50_000_000, 100_000_000] {
        println!(
            "{:<14} {:>12.2} s {:>14.2} s",
            entries,
            na.server_s(entries),
            na.switch_cpu_s(entries)
        );
    }
    println!("(identical model for Figure 12 Group-By and Figure 13 Distinct: the");
    println!(" bottleneck is the dataplane→CPU channel and the wimpy core, not the op)");
}

// ------------------------------------------------------------ extensions

/// Beyond the paper's figures: quantify the §9 extensions (multi-entry
/// packets, switch trees) and the full-stack pisa backend.
pub fn extensions() {
    header(
        "Extensions",
        "§9 batching + switch trees; reference vs pisa backend",
        "§9 / footnotes (no corresponding paper figure)",
    );
    use cheetah_core::batch::{BatchedPruner, DistinctBatchAccess};
    use cheetah_core::distinct::DistinctPruner;
    use cheetah_core::multiswitch::SwitchTree;
    use cheetah_core::RowPruner;
    use cheetah_engine::backend::SwitchBackend;

    // Batching sweep: packets sent vs pruning lost.
    let mut rng = rng_for(90, "ext-batch");
    let stream: Vec<u64> = (0..SIM_ENTRIES / 2)
        .map(|_| rng.gen_range(1..2_000u64))
        .collect();
    println!("— §9 multi-entry packets (DISTINCT, 512×2) —");
    println!(
        "{:<18} {:>10} {:>12} {:>10}",
        "entries/packet", "packets", "unpruned", "skipped"
    );
    for per_packet in [1usize, 2, 4, 8] {
        let inner = DistinctBatchAccess::new(DistinctPruner::new(512, 2, EvictionPolicy::Lru, 3));
        let mut b = BatchedPruner::new(inner);
        for chunk in stream.chunks(per_packet) {
            let entries: Vec<Vec<u64>> = chunk.iter().map(|&k| vec![k]).collect();
            let refs: Vec<&[u64]> = entries.iter().map(|v| v.as_slice()).collect();
            b.process_packet(&refs);
        }
        println!(
            "{:<18} {:>10} {:>12} {:>10}",
            per_packet,
            b.stats.packets,
            fmt_frac(b.stats.unpruned_fraction()),
            b.stats.skipped
        );
    }

    // Switch tree vs a single switch.
    println!("\n— §9 switch tree vs one switch (DISTINCT, 64×2 each) —");
    let tree_stream: Vec<u64> = {
        let mut rng = rng_for(91, "ext-tree");
        (0..SIM_ENTRIES / 2)
            .map(|_| rng.gen_range(1..600u64))
            .collect()
    };
    let mut single = DistinctPruner::new(64, 2, EvictionPolicy::Lru, 2);
    let single_fwd = tree_stream
        .iter()
        .filter(|&&k| single.process(k).is_forward())
        .count();
    for leaves in [2usize, 4, 8] {
        let leaf = |s: u64| -> Box<dyn RowPruner + Send> {
            Box::new(DistinctPruner::new(64, 2, EvictionPolicy::Lru, s))
        };
        let mut tree = SwitchTree::new((0..leaves as u64).map(leaf).collect(), leaf(99), 7);
        let fwd = tree_stream
            .iter()
            .filter(|&&k| tree.process_row(&[k]).is_forward())
            .count();
        println!(
            "{} leaves + root: {:>8} forwarded   (single switch: {single_fwd})",
            leaves, fwd
        );
    }

    // Full-stack pisa backend on the benchmark DISTINCT.
    println!("\n— engine on the metered PISA backend —");
    let db = bigdata_db(100_000, 20_000, 1_000, 0.5, 92);
    let q = Query::Distinct {
        table: "uservisits".into(),
        column: "userAgent".into(),
    };
    for (name, backend) in [
        ("reference", SwitchBackend::Reference),
        ("pisa", SwitchBackend::Pisa),
    ] {
        let exec = CheetahExecutor::new(
            CostModel::default(),
            PrunerConfig {
                backend,
                ..PrunerConfig::default()
            },
        );
        let started = std::time::Instant::now();
        let r = Executor::execute(&exec, &db, &q);
        println!(
            "{:<10} backend: pruned {:.4}, result size {}, wall {:?}",
            name,
            r.prune_stats().pruned_fraction(),
            r.result.output_size(),
            started.elapsed()
        );
    }
}

/// Run every experiment in paper order.
pub fn run_all() {
    table_2();
    table_3();
    fig_5();
    fig_6a();
    fig_6b();
    fig_7();
    fig_8();
    fig_9();
    fig_10a();
    fig_10b();
    fig_10c();
    fig_10d();
    fig_10e();
    fig_10f();
    fig_11a();
    fig_11b();
    fig_11c();
    fig_11d();
    fig_11e();
    fig_11f();
    fig_12_13();
    extensions();
}
