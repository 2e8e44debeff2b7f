//! `--all --repeat N`: run every workload N times, each in a process of
//! its own (so `peak_rss_mb` stays per workload), and show how far the
//! repeats of the same code lie apart — the evidence that the end-to-end
//! bounds are wider than the benchmark's own noise.

use std::process::Command;

use crate::manifest::{END_TO_END, WORKLOADS};

/// The value of metric `name` in a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// Run one workload in a child process; its result line.
fn child(workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "{workload} failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(line.to_string())
}

/// Largest distance of a repeat from the first, as a share of the first.
fn spread(values: &[f64]) -> f64 {
    let first = values[0];
    values
        .iter()
        .map(|v| (v - first).abs() / first.abs().max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max)
}

/// Run the whole set `repeat` times; `Ok(false)` if any end-to-end
/// metric of any workload moved by more than its bound between repeats.
pub fn run_all(repeat: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    let mut lines: Vec<Vec<String>> = vec![Vec::new(); WORKLOADS.len()];
    for pass in 0..repeat {
        for (w, out) in WORKLOADS.iter().zip(&mut lines) {
            eprintln!("pass {} of {repeat}: {}", pass + 1, w.name);
            out.push(child(w.name, seed, seconds)?);
        }
    }
    let mut within = true;
    println!(
        "{:<16} {:<18} {:>8} {:>7}  values",
        "workload", "metric", "spread", "bound"
    );
    for (w, runs) in WORKLOADS.iter().zip(&lines) {
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .map(|line| {
                    metric_value(line, m.name)
                        .ok_or_else(|| format!("{} printed no {}", w.name, m.name))
                })
                .collect::<Result<_, _>>()?;
            let spread = spread(&values);
            let ok = spread <= m.bound;
            within &= ok;
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<16} {:<18} {:>7.2}% {:>6.0}%  {}{}",
                w.name,
                m.name,
                spread * 100.0,
                m.bound * 100.0,
                shown.join(" "),
                if ok { "" } else { "  <-- outside its bound" }
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_values_off_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
                    \"b\": {\"value\": 3e-5, \"unit\": \"s\"}}}";
        assert_eq!(metric_value(line, "a_ms"), Some(1.25));
        assert_eq!(metric_value(line, "b"), Some(3e-5));
        assert_eq!(metric_value(line, "c"), None);
    }

    #[test]
    fn spread_is_relative_to_the_first_run() {
        assert_eq!(spread(&[100.0, 110.0, 95.0]), 0.1);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
