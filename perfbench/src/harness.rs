//! The closed loop: one caller thread submits a cell, waits for it,
//! submits the next. Plus the arithmetic the metrics are made of.

use std::time::{Duration, Instant};

use cheetah_core::decision::PruneStats;

use crate::trace::Recorder;
use crate::workloads::{Outcome, Setup};

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `p`-quantile (0..=1) of `values`, interpolating linearly between
/// the two nearest ranks (0 for none).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The quantile every timing is reported at. Noise on a shared host only
/// ever adds time — a neighbour takes the CPU, the cache, the memory bus
/// — so the low end of a run's samples is what the code costs and the
/// rest is what the host added: over ten identical 15 s runs the 10th
/// percentile of `pipelines` rounds spread 5% where their median spread
/// 12%. The 10th percentile, not the minimum: with 25–80 rounds a run it
/// sits on the third to eighth fastest, so one lucky round cannot set it.
pub const QUIET: f64 = 0.10;

/// The [`QUIET`] quantile of `values`: a timing with the host's
/// interference taken out.
pub fn quiet(values: &[f64]) -> f64 {
    percentile(values, QUIET)
}

/// Geometric mean of positive `values` (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// When a phase of rounds ends: after `seconds`, but never before
/// `min_rounds` nor after `max_rounds`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_rounds: usize,
    pub max_rounds: usize,
}

impl Budget {
    /// A phase that measures for `seconds`.
    pub fn timed(seconds: f64) -> Self {
        Budget {
            seconds,
            min_rounds: 3,
            max_rounds: usize::MAX,
        }
    }

    /// A phase of exactly `rounds` rounds.
    pub fn rounds(rounds: usize) -> Self {
        Budget {
            seconds: 0.0,
            min_rounds: rounds,
            max_rounds: rounds,
        }
    }

    fn done(&self, rounds: usize, elapsed: Duration) -> bool {
        rounds >= self.max_rounds
            || (rounds >= self.min_rounds && elapsed.as_secs_f64() >= self.seconds)
    }
}

/// Sees every cell outcome after its clock stopped; traced runs hang the
/// layer replays and counters here.
pub trait Observer {
    fn cell(&mut self, _rec: &mut Recorder, _setup: &Setup, _idx: usize, _outcome: &Outcome) {}
    fn round_end(&mut self) {}
}

/// The observer of untraced runs.
pub struct Unobserved;

impl Observer for Unobserved {}

/// What a phase of rounds measured.
#[derive(Default)]
pub struct Rounds {
    /// Timed wall of each call, per cell, in ms.
    pub cell_ms: Vec<Vec<f64>>,
    /// Process CPU spent inside each call, per cell, in ms.
    pub cell_cpu_ms: Vec<Vec<f64>>,
    /// Sum of a round's timed calls, per round, in ms.
    pub round_ms: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    pub prune: PruneStats,
}

impl Rounds {
    /// Quiet timed wall of each cell.
    pub fn cell_walls(&self) -> Vec<f64> {
        self.cell_ms.iter().map(|v| quiet(v)).collect()
    }

    /// Quiet wall of one round: every cell at its quiet wall. Steadier
    /// than the quiet quantile of the round sums — a disturbance hits
    /// different cells in different rounds, so with 15 cells hardly any
    /// whole round is clean (ten 15 s `pipelines` runs: 4% against 12%).
    pub fn round_wall(&self) -> f64 {
        self.cell_walls().iter().sum()
    }

    /// Quiet process CPU of one round, cell by cell as [`Self::round_wall`].
    pub fn round_cpu(&self) -> f64 {
        self.cell_cpu_ms.iter().map(|v| quiet(v)).sum()
    }

    /// Queries one round completes.
    pub fn ops_per_round(&self) -> f64 {
        self.ops as f64 / self.round_ms.len().max(1) as f64
    }

    /// CPU ÷ wall over every timed call: well under the thread count
    /// means the arms waited on each other or on the host.
    pub fn cpu_util(&self) -> f64 {
        let wall: f64 = self.round_ms.iter().sum();
        let cpu: f64 = self.cell_cpu_ms.iter().flatten().sum();
        cpu / wall.max(f64::MIN_POSITIVE)
    }

    /// Σ forwarded ÷ Σ processed: the share of entries the switch let
    /// through to the master.
    pub fn master_frac(&self) -> f64 {
        if self.prune.processed == 0 {
            return 0.0;
        }
        self.prune.forwarded() as f64 / self.prune.processed as f64
    }
}

/// Run rounds until `budget` says stop. A round is one pass over the
/// workload's cells in order, so a noise burst hits every cell alike.
pub fn run_rounds(
    setup: &Setup,
    budget: Budget,
    rec: &mut Recorder,
    observer: &mut dyn Observer,
) -> Rounds {
    let mut out = Rounds {
        cell_ms: vec![Vec::new(); setup.cells.len()],
        cell_cpu_ms: vec![Vec::new(); setup.cells.len()],
        ..Rounds::default()
    };
    let started = Instant::now();
    while !budget.done(out.round_ms.len(), started.elapsed()) {
        rec.open("round", &out.round_ms.len().to_string());
        let mut round_ms = 0.0;
        for (idx, cell) in setup.cells.iter().enumerate() {
            let label = cell.label();
            rec.open("query", &label);
            let outcome = cell.run(&setup.db);
            rec.leaf("execute", &label, outcome.start, outcome.end);
            let wall_ms = ms(outcome.wall());
            out.cell_ms[idx].push(wall_ms);
            round_ms += wall_ms;
            out.cell_cpu_ms[idx].push(ms(outcome.cpu));
            out.ops += outcome.ops;
            out.failed += outcome.failed;
            out.prune.merge(outcome.prune);
            observer.cell(rec, setup, idx, &outcome);
            rec.close();
        }
        out.round_ms.push(round_ms);
        observer.round_end();
        rec.close();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_weighs_ratios_not_sizes() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // Halving the small cell moves it as much as halving the large one.
        let small = geomean(&[4.0, 70.0]);
        assert!((geomean(&[8.0, 70.0]) / small - geomean(&[4.0, 140.0]) / small).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn budget_honours_its_round_limits() {
        let timed = Budget::timed(1.0);
        assert!(!timed.done(2, Duration::from_secs(5)), "min rounds first");
        assert!(timed.done(3, Duration::from_secs(1)));
        assert!(!timed.done(100, Duration::from_millis(999)));
        let fixed = Budget::rounds(2);
        assert!(!fixed.done(1, Duration::from_secs(9)));
        assert!(fixed.done(2, Duration::ZERO));
    }
}
