//! The Big Data benchmark (Figure 5, left half): queries A, B and the
//! dedicated per-algorithm queries, Cheetah vs Spark.
//!
//! ```sh
//! cargo run --release --example bigdata_benchmark
//! ```

use cheetah::core::filter::{Atom, CmpOp, Formula};
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::spark::SparkExecutor;
use cheetah::engine::{Agg, CostModel, Database, Predicate, Query, Table};
use cheetah::workloads::bigdata::{Rankings, UserVisits, UserVisitsConfig};
use cheetah::workloads::stream::shuffled;
use cheetah_bench::cost;

fn main() {
    // Scaled-down sample of the paper's 31.7M uservisits / 18M rankings;
    // `model_scale` lets the timing model report paper-scale seconds.
    let uv_rows = 317_000;
    let rk_rows = 180_000;
    let scale_to_paper = 100.0;

    println!("generating Big Data sample ({uv_rows} uservisits, {rk_rows} rankings)…");
    let rk = Rankings::generate(rk_rows, 7);
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: uv_rows,
        ua_distinct: 2_000,
        url_distinct: rk_rows / 2,
        seed: 7,
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
    // Footnote 9: SKYLINE runs on a random permutation of the sorted column.
    rankings.add_column("pageRankShuffled", shuffled(&rk.page_rank, 99));
    db.add(rankings);
    let mut visits = Table::new(
        "uservisits",
        vec![
            ("destURL", uv.dest_url.clone()),
            ("adRevenue", uv.ad_revenue.clone()),
            ("languageCode", uv.language_code.clone()),
            ("userAgent", uv.user_agent.clone()),
            ("sourceIP", uv.source_ip.clone()),
        ],
    );
    visits.add_column(
        "sourcePrefix",
        uv.source_ip.iter().map(|ip| (ip >> 20) + 1).collect(),
    );
    db.add(visits);

    let queries: Vec<(&str, Query)> = vec![
        (
            "BigData A (filter)",
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
            "BigData B (sum group-by)",
            Query::GroupBy {
                table: "uservisits".into(),
                key: "sourcePrefix".into(),
                val: "adRevenue".into(),
                agg: Agg::Sum,
            },
        ),
        (
            "Distinct (userAgent)",
            Query::Distinct {
                table: "uservisits".into(),
                column: "userAgent".into(),
            },
        ),
        (
            "GroupBy Max (adRevenue)",
            Query::GroupBy {
                table: "uservisits".into(),
                key: "userAgent".into(),
                val: "adRevenue".into(),
                agg: Agg::Max,
            },
        ),
        (
            "Skyline (rank, duration)",
            Query::Skyline {
                table: "rankings".into(),
                columns: vec!["pageRankShuffled".into(), "avgDuration".into()],
            },
        ),
        (
            "Top 250 (adRevenue)",
            Query::TopN {
                table: "uservisits".into(),
                order_by: "adRevenue".into(),
                n: 250,
            },
        ),
        (
            "Join (URL)",
            Query::Join {
                left: "uservisits".into(),
                right: "rankings".into(),
                left_col: "destURL".into(),
                right_col: "pageURL".into(),
            },
        ),
    ];

    let model = CostModel {
        model_scale: scale_to_paper,
        ..CostModel::default()
    };
    let spark = SparkExecutor::new(model);
    let cheetah = CheetahExecutor::new(model, PrunerConfig::default());

    println!(
        "\n{:<26} {:>12} {:>12} {:>12} {:>10}",
        "query", "spark 1st", "spark warm", "cheetah", "pruned"
    );
    for (name, q) in &queries {
        let s = spark.execute(&db, q);
        let c = cheetah.execute(&db, q);
        assert_eq!(s.result, c.result, "{name}: executors disagree");
        println!(
            "{:<26} {:>10.2} s {:>10.2} s {:>10.2} s {:>9.1}%",
            name,
            cost::spark_first_run(q, &s, &model).total_s(),
            cost::spark(q, &s, &model).total_s(),
            cost::cheetah(q, &c, &model).total_s(),
            100.0 * c.prune_stats().pruned_fraction(),
        );
    }
    println!("\nall Cheetah results verified equal to the Spark baseline ✓");
}
