//! CLI rendering the per-figure experiment builders.
//!
//! ```sh
//! cargo run --release -p cheetah-bench --bin experiments -- all
//! cargo run --release -p cheetah-bench --bin experiments -- fig10c fig10e
//! ```

use std::io::{self, ErrorKind, Write};
use std::process::exit;

use cheetah_bench::experiments::{experiment, render, run_all, EXPERIMENTS};

fn usage() -> String {
    let ids: Vec<String> = EXPERIMENTS.iter().map(|(ids, _)| ids.join(" ")).collect();
    format!(
        "usage: experiments <id>… | all\n     ids: {}",
        ids.join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        exit(2);
    }
    let mut out = io::stdout().lock();
    let written = if args.iter().any(|a| a == "--help" || a == "-h") {
        writeln!(out, "{}", usage())
    } else {
        args.iter()
            .try_for_each(|arg| match (arg.as_str(), experiment(arg)) {
                ("all", _) => run_all(&mut out),
                (_, Some(build)) => build().iter().try_for_each(|f| render(&mut out, f)),
                (other, None) => {
                    eprintln!("unknown experiment id '{other}'");
                    exit(2);
                }
            })
    };
    match written.and_then(|()| out.flush()) {
        Ok(()) => {}
        // A reader that stops early (`experiments all | head`) is done.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("experiments: writing stdout: {e}");
            exit(1);
        }
    }
}
