//! The modeled figures' claims, pinned as inequalities.
//!
//! Figures 5–8's completion times are a model (`cheetah_bench::cost`)
//! priced from the counters real executions report. Whatever the model's
//! absolute seconds, the paper's claims are ratios between them; these
//! tests hold the figures the experiment harness prints to those ratios,
//! so a change to an executor's counters or to the model that breaks one
//! fails here.

use std::sync::OnceLock;

use cheetah_bench::cost;
use cheetah_bench::experiments::{fig5_rows, fig6a_rows, fig7_rows, fig8_rows, priced};
use cheetah_bench::netaccel::NetAccelModel;
use cheetah_bench::{bigdata_db, q3};
use cheetah_core::filter::{Atom, CmpOp, Formula};
use cheetah_engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah_engine::{CostModel, Database, Executor, Predicate, Query, Table};
use cheetah_workloads::tpch::TpchData;

/// Figure 5's rows, computed once for every test that reads them.
fn fig5() -> &'static [(&'static str, [f64; 3])] {
    static ROWS: OnceLock<Vec<(&'static str, [f64; 3])>> = OnceLock::new();
    ROWS.get_or_init(fig5_rows)
}

/// Figure 5: Cheetah beats Spark's first run on every query but Big Data
/// A, a cheap filter, where it stays within 1.3× of it (§8.2.1) — and on
/// the benchmark's HAVING, which the figure leaves out, too.
#[test]
fn cheetah_beats_spark_on_compute_heavy_queries() {
    for &(name, [first, _, cheetah]) in fig5() {
        let bound = if name == "BigData A" { 1.3 } else { 1.0 };
        assert!(
            cheetah < first * bound,
            "[{name}] Cheetah {cheetah:.4}s against Spark's first run {first:.4}s"
        );
    }
    let having = Query::Having {
        table: "uservisits".into(),
        key: "languageCode".into(),
        val: "adRevenue".into(),
        threshold: 2_000_000,
    };
    let model = CostModel {
        model_scale: 100.0,
        ..CostModel::default()
    };
    let db = bigdata_db(317_000, 180_000, 2_000, 0.10, 5);
    let p = priced(model, &db, &having);
    assert!(p.cheetah.total_s() < p.spark_first.total_s(), "{p:?}");
}

/// Spark's first run pays the JIT/indexing penalty on every Figure 5
/// query (§8.2.2).
#[test]
fn first_run_slower_than_later() {
    for &(name, [first, warm, _]) in fig5() {
        assert!(first > warm, "[{name}] first run {first}s, warm {warm}s");
    }
}

/// Figure 6a: Spark's task time divides by the worker count.
#[test]
fn worker_count_divides_task_time() {
    let rows = fig6a_rows();
    let one = rows[0].spark_task_s;
    for (workers, p) in (1..).zip(&rows) {
        let ratio = one / p.spark_task_s;
        assert!(
            (ratio - workers as f64).abs() < 1e-9 * workers as f64,
            "{workers} workers divide the task time by {ratio}"
        );
    }
    assert!(rows[0].spark.computation_s > rows[4].spark.computation_s * 3.0);
}

/// The database of the engine's own executor tests: 4,000 rows, 37 keys.
fn tiny_db() -> Database {
    let mut db = Database::new();
    db.add(Table::new(
        "t",
        vec![
            ("k", (0..4_000u64).map(|i| i % 37 + 1).collect()),
            ("v", (0..4_000u64).map(|i| i * 31 % 9_973).collect()),
        ],
    ));
    db
}

/// Figure 7: NetAccel's drain out of the dataplane registers exceeds
/// Cheetah's streamed delivery at every result size — and replacing
/// Cheetah's completion by the drain costs more on a large result.
#[test]
fn netaccel_drain_dominates_cheetah_completion_on_large_results() {
    for (pct, cheetah_s, netaccel_s) in fig7_rows() {
        assert!(
            netaccel_s > cheetah_s,
            "{pct}%: {netaccel_s}s vs {cheetah_s}s"
        );
    }
    let db = tiny_db();
    let model = CostModel::default();
    // Filter with a wide-open predicate → large result to drain.
    let q = Query::Filter {
        table: "t".into(),
        predicate: Predicate {
            columns: vec!["v".into()],
            atoms: vec![Atom::cmp(0, CmpOp::Lt, u64::MAX)],
            formula: Formula::Atom(0),
        },
    };
    let c = Executor::execute(
        &CheetahExecutor::new(model, PrunerConfig::default()),
        &db,
        &q,
    );
    let streamed = cost::cheetah(&q, &c, &model).computation_s;
    let drained = cost::netaccel(&q, &c, &model, &NetAccelModel::default()).computation_s;
    assert!(
        drained > streamed,
        "register drain ({drained:.4}s) must cost more than streamed completion ({streamed:.4}s)"
    );
}

/// Figure 8: doubling the NIC from 10G to 20G halves Cheetah's network
/// time, and Spark's network time stays below its computation — the
/// network is not Spark's bottleneck (§8.2.3).
#[test]
fn network_rate_scales_timing() {
    for (name, p10, p20) in fig8_rows() {
        let ratio = p10.cheetah.network_s / p20.cheetah.network_s;
        assert!((ratio - 2.0).abs() < 1e-9, "[{name}] 10G/20G = {ratio}");
        let spark = p10.spark;
        assert!(spark.network_s < spark.computation_s, "[{name}] {spark:?}");
    }
}

/// Figure 5's TPC-H bar: offloading Q3's joins beats Spark's first run.
#[test]
fn cheetah_faster_than_spark_first_run() {
    let d = TpchData::generate(0.002, 42);
    let model = CostModel::default();
    let s = q3::spark(&d, &model, true);
    let c = q3::cheetah(&d, &model, 1 << 20, 3, 7);
    assert!(
        c.timing.total_s() < s.timing.total_s(),
        "cheetah {:.4}s vs spark {:.4}s",
        c.timing.total_s(),
        s.timing.total_s()
    );
}
