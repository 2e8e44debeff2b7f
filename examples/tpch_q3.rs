//! TPC-H Q3 with switch-offloaded joins (§8.1: the join is 67% of the
//! query time and "the most effective use of switch resources").
//!
//! ```sh
//! cargo run --release --example tpch_q3
//! ```

use cheetah::engine::CostModel;
use cheetah::workloads::tpch::TpchData;
use cheetah_bench::q3;

fn main() {
    let scale = 0.02; // 3K customers, 30K orders, ~120K lineitems
    println!("generating TPC-H data at scale {scale}…");
    let data = TpchData::generate(scale, 2024);
    println!(
        "  customer {} / orders {} / lineitem {} rows",
        data.customer.custkey.len(),
        data.orders.orderkey.len(),
        data.lineitem.orderkey.len()
    );

    let model = CostModel {
        model_scale: 50.0, // report paper-scale seconds
        ..CostModel::default()
    };

    let spark_first = q3::spark(&data, &model, true);
    let spark_warm = q3::spark(&data, &model, false);
    let cheetah = q3::cheetah(&data, &model, 4 * 8 * 1024 * 1024, 3, 1);

    assert_eq!(spark_first.result, cheetah.result, "Q3 answers must match");

    println!("\n— top 10 orders by revenue —");
    println!(
        "{:>10} {:>14} {:>10} {:>9}",
        "orderkey", "revenue ($)", "orderdate", "priority"
    );
    for row in &cheetah.result {
        println!(
            "{:>10} {:>14.2} {:>10} {:>9}",
            row.orderkey,
            row.revenue as f64 / 100.0,
            row.orderdate,
            row.shippriority
        );
    }

    println!("\n— completion time (modeled) —");
    println!("Spark (1st run) : {:>7.2} s", spark_first.timing.total_s());
    println!("Spark (warm)    : {:>7.2} s", spark_warm.timing.total_s());
    println!(
        "Cheetah         : {:>7.2} s   ({:.1}% of orders+lineitems pruned in-network)",
        cheetah.timing.total_s(),
        100.0 * cheetah.prune.pruned_fraction()
    );
    let reduction = (1.0 - cheetah.timing.total_s() / spark_first.timing.total_s()) * 100.0;
    println!("reduction       : {reduction:.0}% vs first run (paper band: 64–75%)");
}
