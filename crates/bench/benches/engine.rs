//! End-to-end executor benches: wall-clock cost of running a query
//! through the reference evaluator and every [`Executor`] implementation
//! (real partials / real pruning) at library scale — one generic loop
//! over the trait, no per-executor bench bodies.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use cheetah_bench::bigdata_db;
use cheetah_engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah_engine::reference;
use cheetah_engine::spark::SparkExecutor;
use cheetah_engine::{Agg, CostModel, Executor, Query, ThreadedExecutor};

fn bench_executors(c: &mut Criterion) {
    let rows = 100_000usize;
    let db = bigdata_db(rows, 20_000, 1_000, 0.5, 1);
    let queries: Vec<(&str, Query)> = vec![
        (
            "distinct",
            Query::Distinct {
                table: "uservisits".into(),
                column: "userAgent".into(),
            },
        ),
        (
            "groupby_max",
            Query::GroupBy {
                table: "uservisits".into(),
                key: "userAgent".into(),
                val: "adRevenue".into(),
                agg: Agg::Max,
            },
        ),
        (
            "topn",
            Query::TopN {
                table: "uservisits".into(),
                order_by: "adRevenue".into(),
                n: 250,
            },
        ),
    ];
    let model = CostModel::default();
    let spark = SparkExecutor::new(model);
    let cheetah = CheetahExecutor::new(model, PrunerConfig::default());
    let threaded = ThreadedExecutor::new(cheetah.clone());
    let executors: Vec<&dyn Executor> = vec![&spark, &cheetah, &threaded];

    for (name, q) in &queries {
        let mut g = c.benchmark_group(format!("engine_{name}"));
        g.throughput(Throughput::Elements(rows as u64));
        g.sample_size(10);
        g.bench_function("reference", |b| {
            b.iter(|| black_box(reference::evaluate(&db, q)))
        });
        for exec in &executors {
            g.bench_function(format!("{}_executor", exec.name()), |b| {
                b.iter(|| black_box(exec.execute(&db, q)))
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);
