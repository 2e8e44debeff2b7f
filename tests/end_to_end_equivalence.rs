//! The paper's defining equation, end to end: `Q(A_Q(D)) = Q(D)`.
//!
//! Generates the Big Data benchmark tables and TPC-H data, runs every
//! Appendix B query through each [`Executor`] implementation and the
//! reference evaluator, and requires all of them to agree exactly. The
//! executors are driven generically through the trait —
//! `executor::divergences` is the single driver loop.

use cheetah::core::filter::{Atom, CmpOp, Formula};
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::executor::divergences;
use cheetah::engine::spark::SparkExecutor;
use cheetah::engine::{Agg, CostModel, Database, Executor, Predicate, Query, Table};
use cheetah::workloads::bigdata::{Rankings, UserVisits, UserVisitsConfig};
use cheetah::workloads::stream::shuffled;
use cheetah::workloads::tpch::TpchData;
use cheetah_bench::q3;

#[path = "common/fixture.rs"]
mod fixture;
use fixture::KeyForm;

/// The benchmark's key lanes: what its DISTINCT, GROUP BY, HAVING and
/// JOIN read as keys. [`KeyForm::Spread`] spreads these and leaves the
/// filtered, ranked and aggregated values as they are.
const KEYS: &[&str] = &[
    "userAgent",
    "languageCode",
    "sourcePrefix",
    "destURL",
    "pageURL",
];

/// Build the benchmark database at test scale. The paper's footnotes 8/9
/// permute the nearly-sorted columns; we store shuffled copies alongside.
fn bigdata_db(rows_uv: usize, rows_rk: usize, seed: u64) -> Database {
    let rk = Rankings::generate(rows_rk, seed);
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: rows_uv,
        ua_distinct: 400,
        url_distinct: rows_rk / 2,
        seed,
    });
    let mut db = Database::new();
    let mut rankings = Table::new(
        "rankings",
        vec![
            ("pageURL", rk.page_url.clone()),
            ("pageRank", rk.page_rank.clone()),
            ("avgDuration", rk.avg_duration.clone()),
        ],
    );
    rankings.add_column("pageRankShuffled", shuffled(&rk.page_rank, seed ^ 1));
    db.add(rankings);
    let mut visits = Table::new(
        "uservisits",
        vec![
            ("destURL", uv.dest_url.clone()),
            ("adRevenue", uv.ad_revenue.clone()),
            ("languageCode", uv.language_code.clone()),
            ("userAgent", uv.user_agent.clone()),
            ("sourceIP", uv.source_ip.clone()),
            ("visitDate", uv.visit_date.clone()),
            ("countryCode", uv.country_code.clone()),
            ("searchWord", uv.search_word.clone()),
            ("duration", uv.duration.clone()),
        ],
    );
    // Big Data query B groups by a source IP prefix (bounded key space).
    visits.add_column(
        "sourcePrefix",
        uv.source_ip.iter().map(|ip| (ip >> 20) + 1).collect(),
    );
    db.add(visits);
    db
}

/// The Appendix B benchmark queries (1)–(7) plus Big Data A and B.
fn benchmark_queries() -> Vec<(&'static str, Query)> {
    vec![
        (
            "q1-bigdata-a-filter",
            Query::FilterCount {
                table: "rankings".into(),
                predicate: Predicate {
                    columns: vec!["avgDuration".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, 10)],
                    formula: Formula::Atom(0),
                },
            },
        ),
        (
            "q2-distinct-useragent",
            Query::Distinct {
                table: "uservisits".into(),
                column: "userAgent".into(),
            },
        ),
        (
            "q3-skyline",
            Query::Skyline {
                table: "rankings".into(),
                // Footnote 9: run on the permuted pageRank column.
                columns: vec!["pageRankShuffled".into(), "avgDuration".into()],
            },
        ),
        (
            "q4-top250-adrevenue",
            Query::TopN {
                table: "uservisits".into(),
                order_by: "adRevenue".into(),
                n: 250,
            },
        ),
        (
            "q5-groupby-max",
            Query::GroupBy {
                table: "uservisits".into(),
                key: "userAgent".into(),
                val: "adRevenue".into(),
                agg: Agg::Max,
            },
        ),
        (
            "q6-join",
            Query::Join {
                left: "uservisits".into(),
                right: "rankings".into(),
                left_col: "destURL".into(),
                right_col: "pageURL".into(),
            },
        ),
        (
            "q7-having-revenue",
            Query::Having {
                table: "uservisits".into(),
                key: "languageCode".into(),
                val: "adRevenue".into(),
                // Scaled-down stand-in for the paper's $1M threshold.
                threshold: 2_000_000,
            },
        ),
        (
            "bigdata-b-sum-groupby",
            Query::GroupBy {
                table: "uservisits".into(),
                key: "sourcePrefix".into(),
                val: "adRevenue".into(),
                agg: Agg::Sum,
            },
        ),
    ]
}

/// Both key forms of the benchmark: its keys as generated, which bind
/// dense, and spread, which bind the paper's hashed programs.
#[test]
fn all_executors_and_reference_agree_on_benchmark() {
    let cfg = PrunerConfig::default();
    let model = CostModel::default();
    let spark = SparkExecutor::new(model);
    let cheetah = CheetahExecutor::new(model, cfg.clone());
    let threaded = cheetah::engine::ThreadedExecutor::new(cheetah.clone());
    let executors: Vec<&dyn Executor> = vec![&spark, &cheetah, &threaded];
    let queries = benchmark_queries();
    for form in KeyForm::BOTH {
        let db = form.apply(bigdata_db(30_000, 10_000, 11), KEYS);
        assert_eq!(
            divergences(&executors, &db, &queries),
            Vec::<String>::new(),
            "every executor must reproduce the reference result over {form:?} keys"
        );
        let reached = fixture::reached(form, &db, queries.iter().map(|(_, q)| q), &cfg);
        assert!(reached > 0, "no benchmark query reached a {form:?} program");
    }
}

#[test]
fn equivalence_across_worker_counts() {
    // Figure 6b varies the partition count: results must be invariant.
    let queries = benchmark_queries();
    for form in KeyForm::BOTH {
        let db = form.apply(bigdata_db(12_000, 6_000, 13), KEYS);
        for workers in [1usize, 2, 3, 5] {
            let model = CostModel {
                workers,
                ..CostModel::default()
            };
            let cheetah = CheetahExecutor::new(model, PrunerConfig::default());
            let executors: Vec<&dyn Executor> = vec![&cheetah];
            assert_eq!(
                divergences(&executors, &db, &queries),
                Vec::<String>::new(),
                "diverged at {workers} workers over {form:?} keys"
            );
        }
    }
}

#[test]
fn equivalence_across_seeds_and_scales() {
    for (seed, uv, rk) in [
        (1u64, 5_000usize, 2_000usize),
        (2, 20_000, 8_000),
        (3, 9_999, 4_001),
    ] {
        let model = CostModel::default();
        let cheetah = CheetahExecutor::new(
            model,
            PrunerConfig {
                seed: seed ^ 0xabc,
                ..PrunerConfig::default()
            },
        );
        let executors: Vec<&dyn Executor> = vec![&cheetah];
        for form in KeyForm::BOTH {
            let db = form.apply(bigdata_db(uv, rk, seed), KEYS);
            assert_eq!(
                divergences(&executors, &db, &benchmark_queries()),
                Vec::<String>::new(),
                "diverged at seed {seed} over {form:?} keys"
            );
        }
    }
}

#[test]
fn tpch_q3_all_executors_agree() {
    let data = TpchData::generate(0.003, 17);
    let model = CostModel::default();
    let truth = q3::reference(&data);
    assert!(!truth.is_empty());
    assert_eq!(q3::spark(&data, &model, false).result, truth);
    let ch = q3::cheetah(&data, &model, 1 << 22, 3, 5);
    assert_eq!(ch.result, truth);
}
