//! Quickstart: the pruning abstraction in five minutes.
//!
//! Builds a small table, runs `SELECT DISTINCT` both ways — baseline and
//! through the switch pruner — and shows that the master sees a fraction
//! of the data yet computes the identical answer.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cheetah::core::distinct::{DistinctPruner, EvictionPolicy};
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::executor::run_all;
use cheetah::engine::spark::SparkExecutor;
use cheetah::engine::{CostModel, Database, Executor, Query, Table};
use cheetah_bench::cost;

fn main() {
    // A products table: 200k rows, only 1000 distinct sellers.
    let rows = 200_000usize;
    let sellers: Vec<u64> = (0..rows)
        .map(|i| (i as u64 * 2_654_435_761) % 1_000 + 1)
        .collect();
    let prices: Vec<u64> = (0..rows).map(|i| (i as u64 * 97) % 10_000).collect();
    let mut db = Database::new();
    db.add(Table::new(
        "products",
        vec![("seller", sellers.clone()), ("price", prices)],
    ));

    let query = Query::Distinct {
        table: "products".into(),
        column: "seller".into(),
    };

    // 1. The raw pruning algorithm: a d×w cache matrix on the switch.
    let mut pruner = DistinctPruner::new(4096, 2, EvictionPolicy::Lru, 42);
    let mut forwarded = 0u64;
    for &s in &sellers {
        if pruner.process(s).is_forward() {
            forwarded += 1;
        }
    }
    println!("— switch pruning —");
    println!("entries in        : {rows}");
    println!("entries forwarded : {forwarded}");
    println!(
        "pruned            : {:.2}% of the stream",
        100.0 * (1.0 - forwarded as f64 / rows as f64)
    );

    // 2. The full pipeline: both executors behind the shared `Executor`
    //    trait, one generic driver loop.
    let model = CostModel::default();
    let spark_exec = SparkExecutor::new(model);
    let cheetah_exec = CheetahExecutor::new(model, PrunerConfig::default());
    let executors: Vec<&dyn Executor> = vec![&spark_exec, &cheetah_exec];
    let reports = run_all(&executors, &db, &query);
    let spark = &reports[0];
    let cheetah = &reports[1];

    assert_eq!(
        spark.result, cheetah.result,
        "the pruned run must produce the identical answer"
    );
    println!(
        "\n— completion time (modeled, {} workers, 10G) —",
        model.workers
    );
    let spark_first = cost::spark_first_run(&query, spark, &model);
    let spark_warm = cost::spark(&query, spark, &model);
    println!("Spark (1st run)  : {:>7.3} s", spark_first.total_s());
    println!("Spark (warm)     : {:>7.3} s", spark_warm.total_s());
    println!(
        "Cheetah          : {:>7.3} s   (pruned {:.1}% at the switch)",
        cost::cheetah(&query, cheetah, &model).total_s(),
        100.0 * cheetah.prune_stats().pruned_fraction()
    );
    let distinct_count = match &cheetah.result {
        cheetah::engine::QueryResult::Values(v) => v.len(),
        _ => unreachable!(),
    };
    println!("\nboth executors found {distinct_count} distinct sellers ✓");
}
