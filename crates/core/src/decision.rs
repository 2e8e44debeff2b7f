//! The prune/forward decision type and the switch-facing pruner trait.

/// The verdict a pruning algorithm gives for a single entry.
///
/// `Prune` means the entry is *guaranteed not to affect the query output*
/// (or, for probabilistic algorithms, affects it with probability ≤ δ) and
/// the switch drops it. `Forward` means the entry continues to the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Drop the entry at the switch; it cannot change the query result.
    Prune,
    /// Send the entry on to the master for final processing.
    Forward,
}

impl Decision {
    /// `true` if the entry is dropped.
    #[inline]
    pub fn is_prune(self) -> bool {
        matches!(self, Decision::Prune)
    }

    /// `true` if the entry survives to the master.
    #[inline]
    pub fn is_forward(self) -> bool {
        matches!(self, Decision::Forward)
    }
}

/// Running counters for pruning effectiveness, used by every experiment.
///
/// The paper's figures plot the *unpruned fraction* (note the log axes in
/// Figures 10 and 11): `10^-3` means 99.9% of entries were pruned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Total entries processed by the switch.
    pub processed: u64,
    /// Entries dropped by the pruning algorithm.
    pub pruned: u64,
    /// Entries the switch sent the master on no decision of its own: §6
    /// register residuals drained at FIN or before a reboot. No core
    /// pruner sets it.
    pub drained: u64,
}

impl PruneStats {
    /// Record one decision.
    #[inline]
    pub fn record(&mut self, d: Decision) {
        self.processed += 1;
        if d.is_prune() {
            self.pruned += 1;
        }
    }

    /// Entries that reached the master: the survivors and the drained
    /// residuals.
    #[inline]
    pub fn forwarded(&self) -> u64 {
        self.processed - self.pruned + self.drained
    }

    /// Fraction of entries pruned, in `[0, 1]`. Zero if nothing processed.
    pub fn pruned_fraction(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.pruned as f64 / self.processed as f64
        }
    }

    /// Fraction of entries that survived, in `[0, 1]`.
    ///
    /// This is the y-axis of Figures 10 and 11.
    pub fn unpruned_fraction(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.forwarded() as f64 / self.processed as f64
        }
    }

    /// Merge counters from another stats object (e.g. per-worker stats).
    pub fn merge(&mut self, other: PruneStats) {
        self.processed += other.processed;
        self.pruned += other.pruned;
        self.drained += other.drained;
    }

    /// Record a whole block of decisions at once (the bulk counterpart of
    /// [`PruneStats::record`], used by the block-streaming hot path).
    #[inline]
    pub fn record_block(&mut self, decisions: &[Decision]) {
        self.processed += decisions.len() as u64;
        self.pruned += decisions.iter().filter(|d| d.is_prune()).count() as u64;
    }
}

/// A pruning algorithm viewed from the switch dataplane.
///
/// The CWorker serializes each entry into a packet whose switch-visible
/// payload is a short vector of 64-bit values (key fingerprints, numeric
/// columns, projection inputs — see Figure 4 of the paper). A `RowPruner`
/// consumes that row and returns a [`Decision`].
///
/// Implementations are stateful: the order of `process_row` calls is the
/// stream order the switch observes.
pub trait RowPruner {
    /// Process one entry's switch-visible values and decide its fate.
    fn process_row(&mut self, row: &[u64]) -> Decision;

    /// Process a **column-major block** of entries: `cols[c][i]` is entry
    /// `i`'s value for metadata column `c`, and the decision for entry `i`
    /// is written to `out[i]`. Every column slice must have length
    /// `out.len()`.
    ///
    /// Decisions must be **bitwise identical** to feeding the same entries
    /// through [`RowPruner::process_row`] one at a time, in order — blocks
    /// are a data-layout optimization (one virtual call and one set of
    /// hoisted loads per block instead of per row), not a semantic change.
    /// The default implementation gathers each row into a scratch buffer
    /// and loops `process_row`; stateful pruners override it with loops
    /// that read the column lanes directly.
    ///
    /// # Examples
    ///
    /// ```
    /// use cheetah_core::decision::{Decision, RowPruner};
    /// use cheetah_core::distinct::{DistinctPruner, EvictionPolicy};
    ///
    /// let mut pruner = DistinctPruner::new(16, 2, EvictionPolicy::Lru, 0);
    /// let keys = [5u64, 5, 9]; // one column lane, three entries
    /// let mut out = [Decision::Prune; 3];
    /// pruner.process_block(&[&keys], &mut out);
    /// assert_eq!(
    ///     out,
    ///     [Decision::Forward, Decision::Prune, Decision::Forward],
    ///     "first occurrences forward, the duplicate 5 is pruned"
    /// );
    /// ```
    fn process_block(&mut self, cols: &[&[u64]], out: &mut [Decision]) {
        debug_assert!(cols.iter().all(|c| c.len() == out.len()));
        let mut row = Vec::with_capacity(cols.len());
        for (i, d) in out.iter_mut().enumerate() {
            row.clear();
            row.extend(cols.iter().map(|c| c[i]));
            *d = self.process_row(&row);
        }
    }

    /// Clear all switch state, as when the control plane reinstalls rules
    /// for a fresh query run.
    fn reset(&mut self);

    /// Human-readable algorithm name (used by experiment harnesses).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_predicates() {
        assert!(Decision::Prune.is_prune());
        assert!(!Decision::Prune.is_forward());
        assert!(Decision::Forward.is_forward());
        assert!(!Decision::Forward.is_prune());
    }

    #[test]
    fn stats_accumulate() {
        let mut s = PruneStats::default();
        s.record(Decision::Prune);
        s.record(Decision::Forward);
        s.record(Decision::Prune);
        assert_eq!(s.processed, 3);
        assert_eq!(s.pruned, 2);
        assert_eq!(s.forwarded(), 1);
        assert!((s.pruned_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.unpruned_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_is_zero() {
        let s = PruneStats::default();
        assert_eq!(s.pruned_fraction(), 0.0);
        assert_eq!(s.unpruned_fraction(), 0.0);
    }

    #[test]
    fn stats_record_block() {
        let mut s = PruneStats::default();
        s.record_block(&[Decision::Prune, Decision::Forward, Decision::Prune]);
        s.record_block(&[]);
        assert_eq!(s.processed, 3);
        assert_eq!(s.pruned, 2);
    }

    /// Forward even values, prune odd ones (sum across columns).
    struct ParityPruner;

    impl RowPruner for ParityPruner {
        fn process_row(&mut self, row: &[u64]) -> Decision {
            if row.iter().sum::<u64>() % 2 == 0 {
                Decision::Forward
            } else {
                Decision::Prune
            }
        }

        fn reset(&mut self) {}

        fn name(&self) -> &'static str {
            "parity"
        }
    }

    #[test]
    fn default_process_block_gathers_rows_in_order() {
        let a = [1u64, 2, 3, 4];
        let b = [1u64, 1, 1, 1];
        let cols: Vec<&[u64]> = vec![&a, &b];
        let mut out = [Decision::Prune; 4];
        ParityPruner.process_block(&cols, &mut out);
        let expected: Vec<Decision> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| ParityPruner.process_row(&[x, y]))
            .collect();
        assert_eq!(out.to_vec(), expected);
    }

    #[test]
    fn stats_merge() {
        let mut a = PruneStats {
            processed: 10,
            pruned: 4,
            drained: 0,
        };
        let b = PruneStats {
            processed: 5,
            pruned: 5,
            drained: 3,
        };
        a.merge(b);
        assert_eq!((a.processed, a.pruned, a.drained), (15, 9, 3));
        assert_eq!(a.forwarded(), 9, "six survivors and three residuals");
    }
}
