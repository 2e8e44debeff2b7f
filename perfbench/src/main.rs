//! `perfbench` — the repo's benchmark. See `README.md` beside this crate
//! for the metric glossary and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--trace-out FILE]
//! perfbench --all [--repeat N] [--seed N] [--seconds S]
//! perfbench --manifest
//! ```
//!
//! One process runs one workload, so `peak_rss_mb` is per workload. The
//! last line of standard output is the result object; everything meant
//! for people goes to standard error.

mod compare;
mod data;
mod harness;
mod host;
mod layers;
mod manifest;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{geomean, median, percentile, run_rounds, Budget, Rounds, Unobserved};
use trace::Recorder;
use workloads::Setup;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rounds run and thrown away at the end of each set-up.
const WARMUP_ROUNDS: usize = 2;
/// Rounds of each phase at `--smoke` scale.
const SMOKE_ROUNDS: usize = 2;

/// Parsed command line of a single-workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub trace_out: Option<PathBuf>,
}

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Command {
    Run(Args),
    All {
        repeat: usize,
        seed: u64,
        seconds: f64,
    },
    Manifest,
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: f64::from(manifest::RUN_SECONDS),
        trace: false,
        smoke: false,
        trace_out: None,
    };
    let (mut all, mut repeat, mut print_manifest) = (false, 2usize, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value '{v}' for {flag}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = value()?.to_string(),
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => args.seconds = num(flag, value()?)?,
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad value '{v}' for --trace (0 or 1)")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--repeat" => repeat = num(flag, value()?)?,
            "--smoke" => args.smoke = true,
            "--all" => all = true,
            "--manifest" => print_manifest = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if print_manifest {
        return Ok(Command::Manifest);
    }
    if all {
        if repeat == 0 {
            return Err("--repeat must be at least 1".into());
        }
        return Ok(Command::All {
            repeat,
            seed: args.seed,
            seconds: args.seconds,
        });
    }
    if !manifest::WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(Command::Run(args))
}

/// Commit of the checkout the benchmark runs in, read from `.git`
/// without spawning anything; `unknown` outside a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.len() >= 7 && commit.chars().all(|c| c.is_ascii_hexdigit()) {
        commit.to_string()
    } else {
        "unknown".to_string()
    }
}

/// The recorded host: what a number from this run can be compared with.
fn fingerprint(args: &Args, rounds: usize, nproc: usize, pinned: Option<usize>) -> String {
    let pinned = pinned.map_or_else(|| "null".to_string(), |cpu| cpu.to_string());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"rounds\": {rounds}, \
         \"trace\": {}, \"smoke\": {}, \"nproc\": {nproc}, \"pinned_cpu\": {pinned}, \"parallelism\": {}, \
         \"rustc\": \"{}\", \"profile\": \"{}\", \"commit\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        workloads::PARALLELISM,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        git_commit(),
    )
}

/// One finished run, ready to print.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in manifest order.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub rounds: usize,
    pub spans: Vec<trace::Span>,
}

impl RunResult {
    /// The result object the driver reads off the last line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One full set-up: build everything, check the pinned inputs, warm up.
/// Returns the set-up and how long it took.
fn timed_setup(args: &Args, scale: data::Scale) -> Result<(Setup, f64), String> {
    let t0 = Instant::now();
    let setup = workloads::setup(&args.workload, scale, args.seed)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    if let Some(want) = data::pinned(&args.workload, scale, args.seed) {
        if want != setup.input_checksum {
            return Err(format!(
                "inputs of {} at seed {} hash to {:#018x}, pinned {:#018x}: a generator or a \
                 query changed; parent and change no longer run the same work",
                args.workload, args.seed, setup.input_checksum, want
            ));
        }
    }
    let warmup = run_rounds(
        &setup,
        Budget::rounds(WARMUP_ROUNDS),
        &mut Recorder::new(false),
        &mut Unobserved,
    );
    if warmup.failed > 0 {
        eprintln!(
            "warning: {} operations failed during warm-up",
            warmup.failed
        );
    }
    Ok((setup, t0.elapsed().as_secs_f64()))
}

fn phase(args: &Args, seconds: f64) -> Budget {
    if args.smoke {
        Budget::rounds(SMOKE_ROUNDS)
    } else {
        Budget::timed(seconds)
    }
}

/// The untraced run: every end-to-end metric.
fn run_end_to_end(args: &Args, scale: data::Scale) -> Result<RunResult, String> {
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        // Free the previous set-up first: peak memory is one set-up's.
        drop(last.take());
        let (setup, took) = timed_setup(args, scale)?;
        setup_s.push(took);
        last = Some(setup);
    }
    let setup = last.expect("at least one set-up");
    let rounds = run_rounds(
        &setup,
        phase(args, args.seconds),
        &mut Recorder::new(false),
        &mut Unobserved,
    );
    let values = BTreeMap::from([
        ("round_ms", rounds.round_wall()),
        ("shape_geomean_ms", geomean(&rounds.cell_walls())),
        (
            "cpu_ms_per_query",
            rounds.round_cpu() / rounds.ops_per_round().max(1.0),
        ),
        ("master_frac", rounds.master_frac()),
        ("peak_rss_mb", host::peak_rss_mb()),
        ("setup_s", median(&setup_s)),
    ]);
    eprintln!(
        "not gated: round_p50_ms {:.3}, round_p90_ms {:.3}, round_max_ms {:.3}, cpu_util {:.3}",
        median(&rounds.round_ms),
        percentile(&rounds.round_ms, 0.9),
        percentile(&rounds.round_ms, 1.0),
        rounds.cpu_util(),
    );
    Ok(RunResult {
        correct: rounds.failed == 0,
        attempted: rounds.ops,
        failed: rounds.failed,
        metrics: manifest::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), values[m.name], m.unit))
            .collect(),
        rounds: rounds.round_ms.len(),
        spans: Vec::new(),
    })
}

/// Per-cell walls under the names the manifest gives them.
fn cell_metrics(setup: &Setup, rounds: &Rounds, values: &mut BTreeMap<String, f64>) {
    for (cell, wall) in setup.cells.iter().zip(rounds.cell_walls()) {
        let name = if cell.arm == "serve" {
            "serve.batch_ms".to_string()
        } else {
            format!("{}.execute_ms.{}", cell.arm, cell.shape)
        };
        values.insert(name, wall);
    }
}

/// The traced run: every per-layer metric, and the span file.
///
/// A quarter of `--seconds` runs untraced rounds (the base of
/// `harness.trace_overhead_frac`), half runs traced rounds with the
/// deterministic cells replayed layer by layer, and what is left goes to
/// the layers no timed cell isolates.
fn run_traced(args: &Args, scale: data::Scale) -> Result<RunResult, String> {
    let started = Instant::now();
    let (setup, _) = timed_setup(args, scale)?;
    let mut rec = Recorder::new(true);
    let plain = run_rounds(
        &setup,
        phase(args, args.seconds / 4.0),
        &mut Recorder::new(false),
        &mut Unobserved,
    );
    let mut probe = layers::Probe::default();
    let traced = run_rounds(
        &setup,
        phase(args, args.seconds / 2.0),
        &mut rec,
        &mut probe,
    );

    let mut values = probe.samples.summaries();
    cell_metrics(&setup, &traced, &mut values);
    let deadline = if args.smoke {
        Instant::now()
    } else {
        started + Duration::from_secs_f64(args.seconds) + Duration::from_secs(2)
    };
    layers::baselines(&setup, deadline, &mut values);
    layers::pisa(&setup, deadline, &mut values);
    layers::solo_sum(&setup, deadline, &mut values);
    layers::wire(&setup, args.seed, deadline, &mut values);
    if args.workload == "pipelines" {
        layers::planner(&setup, &mut values);
    }

    let get = |values: &BTreeMap<String, f64>, name: &str| values.get(name).copied().unwrap_or(0.0);
    // The wire's share: the distributed arm minus the sharded arm it
    // wraps, shape by shape.
    let wire_ms: f64 = manifest::S5
        .iter()
        .map(|s| {
            get(&values, &format!("distributed.execute_ms.{s}"))
                - get(&values, &format!("sharded.execute_ms.{s}"))
        })
        .sum();
    values.insert("distributed.wire_ms".into(), wire_ms.max(0.0));
    let batch_ms = get(&values, "serve.batch_ms");
    if batch_ms > 0.0 {
        values.insert(
            "serve.speedup_vs_solo".into(),
            get(&values, "serve.solo_sum_ms") / batch_ms,
        );
    }
    values.insert("workloads.generate_s".into(), setup.generate_s);
    values.insert("table.build_s".into(), setup.build_s);
    values.insert("reference.eval_s".into(), setup.reference_s);
    values.insert("harness.round_p50_ms".into(), median(&traced.round_ms));
    values.insert(
        "harness.round_p90_ms".into(),
        percentile(&traced.round_ms, 0.9),
    );
    values.insert(
        "harness.round_max_ms".into(),
        percentile(&traced.round_ms, 1.0),
    );
    values.insert("harness.rounds".into(), traced.round_ms.len() as f64);
    values.insert("harness.cpu_util".into(), traced.cpu_util());
    let untraced = geomean(&plain.cell_walls());
    if untraced > 0.0 {
        values.insert(
            "harness.trace_overhead_frac".into(),
            geomean(&traced.cell_walls()) / untraced - 1.0,
        );
    }
    // The low half, exact in a float.
    values.insert(
        "harness.input_checksum".into(),
        (setup.input_checksum & 0xffff_ffff) as f64,
    );

    let failed = plain.failed + traced.failed;
    Ok(RunResult {
        correct: failed == 0,
        attempted: plain.ops + traced.ops,
        failed,
        metrics: manifest::per_layer()
            .into_iter()
            .map(|m| {
                let value = get(&values, &m.name);
                (m.name, value, m.unit)
            })
            .collect(),
        rounds: traced.round_ms.len(),
        spans: rec.spans().to_vec(),
    })
}

/// Where the span file goes unless `--trace-out` says otherwise: beside
/// the executable, which is inside the build directory of the checkout.
fn default_trace_path(workload: &str) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_default();
    dir.join(format!("perfbench-trace-{workload}.json"))
}

/// Run one workload in this process.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let scale = if args.smoke { data::SMOKE } else { data::FULL };
    if args.trace {
        run_traced(args, scale)
    } else {
        run_end_to_end(args, scale)
    }
}

fn run_and_print(args: &Args) -> Result<bool, String> {
    // Counted before pinning narrows it to one.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    // Before anything is spawned, so every engine thread inherits the CPU.
    let pinned = host::pin_to_one_cpu();
    if pinned.is_none() {
        eprintln!("warning: cannot pin to one CPU here; threaded arms will be noisier");
    }
    let result = run(args)?;
    let host = fingerprint(args, result.rounds, nproc, pinned);
    eprintln!("run: {host}");
    for (name, value, unit) in &result.metrics {
        eprintln!("{name:<40} {value:>16.6} {unit}");
    }
    if args.trace {
        if trace::self_times(&result.spans).is_none() {
            return Err("a span overruns its parent".into());
        }
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| default_trace_path(&args.workload));
        std::fs::write(&path, trace::to_json(&host, &result.spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("{} spans written to {}", result.spans.len(), path.display());
    }
    if result.failed > 0 {
        eprintln!(
            "FAILED: {} of {} operations differ from the reference",
            result.failed, result.attempted
        );
    }
    println!("{}", result.to_json());
    Ok(result.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&argv) {
        Ok(Command::Manifest) => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        Ok(Command::All {
            repeat,
            seed,
            seconds,
        }) => compare::run_all(repeat, seed, seconds),
        Ok(Command::Run(args)) => run_and_print(&args),
        Err(usage) => Err(usage),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn smoke(workload: &str, trace: bool) -> RunResult {
        run(&Args {
            workload: workload.into(),
            seed: 42,
            seconds: 0.0,
            trace,
            smoke: true,
            trace_out: None,
        })
        .expect("smoke run")
    }

    #[test]
    fn parses_the_driver_command_line() {
        let got = parse(&argv("--workload pipelines --seed 9 --seconds 3 --trace 1")).unwrap();
        let Command::Run(args) = got else {
            panic!("expected a run");
        };
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("pipelines", 9, 3.0, true)
        );
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload scan_det --trace 2")).is_err());
        assert!(parse(&argv("--workload scan_det --seed")).is_err());
        assert!(parse(&argv("")).is_err());
        assert_eq!(
            parse(&argv("--all --repeat 3 --seed 7")).unwrap(),
            Command::All {
                repeat: 3,
                seed: 7,
                seconds: f64::from(manifest::RUN_SECONDS)
            }
        );
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric_and_fails_nothing() {
        for w in &manifest::WORKLOADS {
            let result = smoke(w.name, false);
            assert!(result.correct, "{}", w.name);
            assert_eq!(result.failed, 0, "{}", w.name);
            assert!(result.attempted >= 1);
            let names: Vec<&str> = result.metrics.iter().map(|m| m.0.as_str()).collect();
            let want: Vec<&str> = manifest::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            for (name, value, _) in &result.metrics {
                assert!(
                    *value > 0.0 || name == "cpu_ms_per_query",
                    "{} {name}",
                    w.name
                );
            }
        }
    }

    /// The per-layer names a workload's cells must move off zero.
    fn exercised(workload: &str) -> Vec<String> {
        let mut out: Vec<String> = [
            "spark.round_ms",
            "reference.round_ms",
            "harness.rounds",
            "harness.round_p90_ms",
            "harness.input_checksum",
        ]
        .map(String::from)
        .to_vec();
        let det = |shapes: &[&str], out: &mut Vec<String>| {
            for s in shapes {
                out.push(format!("cheetah.execute_ms.{s}"));
                if *s != "filter_fetch_proj" {
                    out.push(format!("core.prune_ms.{s}"));
                }
                // The register matrix holds every group: nothing evicts.
                if !["filter_fetch_proj", "groupby_sum"].contains(s) {
                    out.push(format!("core.forwarded_frac.{s}"));
                }
            }
            for n in [
                "stream.gather_ms",
                "stream.gather_rows_per_s",
                "table.fetch_rows",
            ] {
                out.push(n.to_string());
            }
        };
        match workload {
            "scan_det" => {
                det(&manifest::S10, &mut out);
                for s in manifest::PISA_SHAPES {
                    out.push(format!("pisa.prune_ms.{s}"));
                }
            }
            "low_prune_wide" => det(
                &[
                    "filter_fetch",
                    "filter_fetch_proj",
                    "distinct_multi",
                    "groupby_max",
                    "distinct",
                ],
                &mut out,
            ),
            "pipelines" => {
                for arm in manifest::PIPELINE_ARMS {
                    for s in manifest::S5 {
                        out.push(format!("{arm}.execute_ms.{s}"));
                    }
                }
                for n in [
                    "threaded.pass_ms",
                    "sharded.pass_ms",
                    "sharded.pass_skew",
                    "distributed.ship_attempts",
                    "distributed.codec_words",
                    "net.session_ms",
                    "plan.candidates",
                    "plan.misprediction_geomean",
                ] {
                    out.push(n.to_string());
                }
            }
            _ => {
                for n in [
                    "serve.batch_ms",
                    "serve.solo_sum_ms",
                    "serve.speedup_vs_solo",
                ] {
                    out.push(n.to_string());
                }
            }
        }
        out
    }

    #[test]
    fn every_workload_traces_every_layer_metric_named_for_it() {
        let manifest_names: Vec<String> =
            manifest::per_layer().into_iter().map(|m| m.name).collect();
        for w in &manifest::WORKLOADS {
            let result = smoke(w.name, true);
            assert!(result.correct, "{}", w.name);
            let names: Vec<&String> = result.metrics.iter().map(|m| &m.0).collect();
            assert_eq!(names, manifest_names.iter().collect::<Vec<_>>());
            for name in exercised(w.name) {
                let value = result.metrics.iter().find(|m| m.0 == name).unwrap().1;
                assert!(value > 0.0, "{}: {name} = {value}", w.name);
            }
            // Every non-root span has a parent and no child overruns it.
            assert!(!result.spans.is_empty());
            let own = trace::self_times(&result.spans).expect("nested spans");
            assert_eq!(own.len(), result.spans.len());
            for s in &result.spans {
                assert_eq!(s.parent.is_none(), s.op == "round", "{s:?}");
            }
        }
    }

    #[test]
    fn serve_workloads_hit_and_miss_the_cache_as_designed() {
        let value = |r: &RunResult, name: &str| r.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(
            value(&smoke("serve_repeat", true), "serve.cache_hit_rate"),
            1.0
        );
        assert_eq!(
            value(&smoke("serve_unique", true), "serve.cache_hit_rate"),
            0.0
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = smoke("scan_det", false).to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(line.contains("\"failed\": 0, \"metrics\": {\"round_ms\": {\"value\": "));
        assert!(compare::metric_value(&line, "setup_s").is_some());
        assert!(!line.contains('\n'));
    }
}
