//! CLI rendering the per-figure experiment builders.
//!
//! ```sh
//! cargo run --release -p cheetah-bench --bin experiments -- all
//! cargo run --release -p cheetah-bench --bin experiments -- fig10c fig10e
//! ```

use cheetah_bench::experiments::{experiment, render, run_all, EXPERIMENTS};

const JSON_USAGE: &str = "--json: run the streaming benchmark (row vs block layouts, \
     per-query rows/sec + prune rate + wall clock, the threaded \
     multi-pass dataflows, the worker/shard scaling sweeps with \
     combine walls, the cost-based planner sweep: chosen arm + \
     predicted vs measured wall per shape, the concurrent-serving sweep: queries/sec + \
     cache hit rate at N ∈ {1, 8, 32, 128}, and the projection-pushdown \
     sweep: rows/sec + bytes materialized, full vs pruned fetch on \
     narrow and wide tables) and write \
     BENCH_streaming.json (or the given path); the snapshot's schema \
     and how to read the speedups are documented in docs/BENCHMARKS.md";

fn usage() -> String {
    let ids: Vec<String> = EXPERIMENTS.iter().map(|(ids, _)| ids.join(" ")).collect();
    format!(
        "usage: experiments <id>… | all | --json [path]\n     ids: {}\n     {JSON_USAGE}",
        ids.join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    if args.iter().any(|a| a == "--json") {
        // `--json [path]` is a standalone mode: refuse mixtures like
        // `fig5 --json` instead of silently dropping the experiment ids.
        if args[0] != "--json" || args.len() > 2 {
            eprintln!("--json takes only an optional output path\n{}", usage());
            std::process::exit(2);
        }
        let path = args
            .get(1)
            .map(String::as_str)
            .unwrap_or("BENCH_streaming.json");
        match cheetah_bench::streaming::write_bench_json(path) {
            Ok(json) => {
                print!("{json}");
                eprintln!("wrote {path}");
            }
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.is_empty() {
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    for arg in &args {
        match (arg.as_str(), experiment(arg)) {
            ("all", _) => run_all(),
            (_, Some(build)) => build().iter().for_each(render),
            (other, None) => {
                eprintln!("unknown experiment id '{other}'");
                std::process::exit(2);
            }
        }
    }
}
