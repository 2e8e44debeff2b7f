//! Staged switch programs for the multi-pass dataflows (§4.3, §6, §7.1).
//!
//! Each type here implements [`SwitchPhases`] and carries its switch
//! state (Bloom filters, Count-Min sketch, SUM registers) across the
//! watermark-driven phase flips of [`crate::threaded::run_phases_each`],
//! so a shard runs the same two-pass flows the deterministic executor
//! models:
//!
//! * [`JoinPhases`] — pass 1 builds `F_A`/`F_B` from both sides' join
//!   keys, pass 2 probes each side against the *other* side's filter
//!   (Example 4); for lopsided tables the same program runs §4.3's
//!   asymmetric flow, forwarding the small side while it builds. Entries
//!   are `[side, key, …]`, matching how the switch demultiplexes streams
//!   by flow id (§7.2).
//! * [`GroupBySumStage`] — a single pass over the deterministic arm's
//!   register kernel: a hit absorbs into a register accumulator (pruned),
//!   an eviction forwards the evicting packet carrying the displaced
//!   `(key, partial)` — shipped as the block's residual in place of its
//!   survivors — and the FIN drains the residual accumulators (§6). The
//!   master folds the pairs in the deterministic arm's own sink.
//!
//! The JOIN program works over either switch backend (`cheetah-core`
//! references or metered `cheetah-pisa` programs) because it wraps the
//! backend-dispatching [`JoinFlow`].
//!
//! The rest of this module is the cross-shard side of HAVING: the
//! shard-local programs ([`HavingShardSketch`], [`HavingShardProbe`])
//! whose sketches are summed across shards between the passes — always
//! on the core [`HavingPruner`], whatever the backend, because only core
//! counters merge. (JOIN needs nothing of the kind: both sides are
//! hash-sharded by key, so every shard runs the whole [`JoinPhases`] flow
//! locally.)

use cheetah_core::decision::Decision;
use cheetah_core::having::HavingPruner;

use crate::backend::{JoinFlow, SumRegisters};
use crate::threaded::{ColumnChunk, SwitchPhases};

/// Flow-id value tagging left-side (build A / probe A) join entries.
pub const SIDE_LEFT: u64 = 0;
/// Flow-id value tagging right-side (build B / probe B) join entries.
pub const SIDE_RIGHT: u64 = 1;

/// The §4.3 JOIN program: build the Bloom filters in phase 0, probe in
/// phase 1 — whole blocks at a time through [`JoinFlow::observe_block`] /
/// [`JoinFlow::probe_block`], so the backend and flow-id dispatch cost
/// once per block, not once per entry.
///
/// Symmetric, both sides build (forwarding nothing) and then both probe
/// against the *other* side's filter. Asymmetric, for lopsided table
/// sizes, phase 0 streams only the *small* side, building its filter while
/// forwarding every entry unpruned, and phase 1 streams the big side
/// pruned against it: each table crosses the switch once instead of
/// twice, the master pairs the same survivors, and the result is
/// identical — Bloom filters have no false negatives, and unpruned
/// small-side rows without a match simply pair with nothing.
pub struct JoinPhases {
    flow: JoinFlow,
    /// Whether the build pass forwards its (small-side) entries.
    asymmetric: bool,
}

impl JoinPhases {
    /// Wrap a fresh (empty-filter) join flow, symmetric or asymmetric.
    pub fn new(flow: JoinFlow, asymmetric: bool) -> Self {
        JoinPhases { flow, asymmetric }
    }
}

impl SwitchPhases for JoinPhases {
    fn process_cols(
        &mut self,
        phase: usize,
        cols: &[&[u64]],
        _visible_cols: usize,
        out: &mut [Decision],
    ) {
        let (sides, keys) = (cols[0], cols[1]);
        if phase == 0 {
            self.flow.observe_block(sides, keys);
            out.fill(if self.asymmetric {
                Decision::Forward
            } else {
                Decision::Prune
            });
        } else {
            self.flow.probe_block(sides, keys, out);
        }
    }
}

/// Single-pass GROUP BY SUM/COUNT program over register accumulators,
/// deciding each block with the deterministic arm's own kernel,
/// `SumRegisters::process_block`.
///
/// Entries are `[key, value]` (`value = 1` for COUNT). An entry is
/// forwarded when it evicts an accumulator, and what rides out is the
/// **evicted** `(key, partial)` pair, not the entry: each block ships its
/// evictions as its residual, in place of its survivors, and the FIN
/// drains whatever still sits in the registers, so the master
/// reconstructs exact totals by summing every pair it receives.
pub struct GroupBySumStage {
    pruner: SumRegisters,
    /// Pairs bound for the master, `[keys, partials]`: the current
    /// block's evictions and any drain.
    out: [Vec<u64>; 2],
}

impl GroupBySumStage {
    /// Wrap fresh registers: an accumulator matrix, or a dense array.
    pub(crate) fn new(pruner: SumRegisters) -> Self {
        GroupBySumStage {
            pruner,
            out: Default::default(),
        }
    }

    /// Evacuate every live register into the next residual as `(key,
    /// partial)` pairs, leaving the accumulators empty — the §6 exception
    /// to "reboot with empty states": SUM/COUNT registers hold real data,
    /// so a switch about to reboot must drain them to the master first.
    /// The drained pairs are exact partials; re-aggregating them with
    /// everything forwarded before and after the reboot reconstructs the
    /// exact totals.
    pub fn drain_registers(&mut self) {
        let drained = self.pruner.drain();
        let [keys, partials] = &mut self.out;
        keys.extend(drained.iter().map(|&(key, _)| key));
        partials.extend(drained.iter().map(|&(_, partial)| partial));
    }
}

impl SwitchPhases for GroupBySumStage {
    fn process_cols(
        &mut self,
        _phase: usize,
        cols: &[&[u64]],
        _visible_cols: usize,
        out: &mut [Decision],
    ) {
        let [keys, partials] = &mut self.out;
        self.pruner
            .process_block(cols[0], cols[1], out, |key, partial| {
                keys.push(key);
                partials.push(partial);
            });
    }

    /// The block's evictions; at FIN, the register drain.
    fn residual(&mut self, _phase: usize, fin: bool) -> Option<ColumnChunk> {
        if fin {
            self.drain_registers();
        }
        let evicted = !self.out[0].is_empty();
        let cols = evicted.then(|| self.out.iter_mut().map(std::mem::take).collect());
        Some(ColumnChunk {
            cols: cols.unwrap_or_default(),
        })
    }
}

// --------------------------------------------------------------------------
// Cross-shard HAVING (§7–§8's multi-worker integration): shard-local phase
// programs around one merged sketch.
// --------------------------------------------------------------------------

/// Shard-local HAVING pass 1: fold this shard's `(key, value)` entries
/// into a shard-local Count-Min sketch (announcement forwards are made
/// but the sharded master ignores them — candidates are recomputed from
/// the merged sketch). [`HavingShardSketch::into_pruner`] exports the
/// populated sketch for the cross-shard [`HavingPruner::merge`].
pub struct HavingShardSketch {
    pruner: HavingPruner,
}

impl HavingShardSketch {
    /// Wrap a fresh shard-local sketch (same dims/seed on every shard).
    pub fn new(pruner: HavingPruner) -> Self {
        HavingShardSketch { pruner }
    }

    /// Export the populated sketch for the cross-shard merge.
    pub fn into_pruner(self) -> HavingPruner {
        self.pruner
    }
}

impl SwitchPhases for HavingShardSketch {
    fn process_cols(
        &mut self,
        _phase: usize,
        cols: &[&[u64]],
        _visible_cols: usize,
        out: &mut [Decision],
    ) {
        self.pruner.pass_one_block(cols[0], cols[1], out);
    }
}

/// Shard-local HAVING pass 2 against the **merged** (global) sketch:
/// forwards candidate-key entries so the master computes exact sums.
/// Running pass 2 against a shard-local sketch would under-estimate keys
/// whose mass straddles shards and lose output keys — the summation must
/// happen first ([`HavingPruner::merge`]).
pub struct HavingShardProbe {
    pruner: HavingPruner,
}

impl HavingShardProbe {
    /// Wrap (a clone of) the merged global sketch.
    pub fn new(pruner: HavingPruner) -> Self {
        HavingShardProbe { pruner }
    }
}

impl SwitchPhases for HavingShardProbe {
    fn process_cols(
        &mut self,
        _phase: usize,
        cols: &[&[u64]],
        _visible_cols: usize,
        out: &mut [Decision],
    ) {
        self.pruner.pass_two_block(cols[0], out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Keys;
    use crate::cheetah::PrunerConfig;
    use crate::threaded::tests::collect_phases;
    use crate::threaded::{Lane, LanePartition, PhaseInput};
    use cheetah_core::groupby::{GroupBySumPruner, SumAction};
    use std::collections::{HashMap, HashSet};

    fn two_sided_parts(with_rids: bool) -> Vec<LanePartition<'static>> {
        // Left keys 0..60, right keys 40..100 → overlap 40..60.
        let left: Vec<u64> = (0..60).collect();
        let right: Vec<u64> = (40..100).collect();
        let mut parts = Vec::new();
        for (tag, keys) in [(SIDE_LEFT, left), (SIDE_RIGHT, right)] {
            let mut cols = vec![vec![tag; keys.len()], keys.clone()];
            if with_rids {
                cols.push((0..keys.len() as u64).collect());
            }
            parts.push(ColumnChunk { cols }.into());
        }
        parts
    }

    #[test]
    fn join_phases_build_then_probe() {
        let cfg = PrunerConfig::default();
        let mut program = JoinPhases::new(JoinFlow::new(&cfg), false);
        let runs = collect_phases(
            vec![
                PhaseInput {
                    partitions: two_sided_parts(false),
                    visible_cols: 2,
                },
                PhaseInput {
                    partitions: two_sided_parts(true),
                    visible_cols: 2,
                },
            ],
            &mut program,
        );
        assert_eq!(runs[0].forwarded.rows(), 0, "build pass ships nothing");
        // Probe pass: every matching key must survive (no false negatives).
        let survivors: HashSet<(u64, u64)> = runs[1].forwarded.cols[0]
            .iter()
            .zip(&runs[1].forwarded.cols[1])
            .map(|(&s, &k)| (s, k))
            .collect();
        for k in 40..60u64 {
            assert!(survivors.contains(&(SIDE_LEFT, k)), "lost left match {k}");
            assert!(survivors.contains(&(SIDE_RIGHT, k)), "lost right match {k}");
        }
        assert_eq!(runs[1].stats.processed, 120);
        assert!(runs[1].stats.pruned > 0, "disjoint keys should prune");
        // Hidden row-id lane compacted in sync.
        assert_eq!(runs[1].forwarded.cols[2].len(), runs[1].forwarded.rows());
    }

    #[test]
    fn asymmetric_join_streams_each_side_once() {
        let cfg = PrunerConfig::default();
        let mut program = JoinPhases::new(JoinFlow::new(&cfg), true);
        // Phase 0: the small (right) side builds F_B and forwards all;
        // phase 1: the big (left) side probes F_B.
        let small: Vec<u64> = (40..100).collect();
        let big: Vec<u64> = (0..60).collect();
        let phase = |tag: u64, keys: &[u64]| PhaseInput {
            partitions: vec![ColumnChunk {
                cols: vec![
                    vec![tag; keys.len()],
                    keys.to_vec(),
                    (0..keys.len() as u64).collect(),
                ],
            }
            .into()],
            visible_cols: 2,
        };
        let runs = collect_phases(
            vec![phase(SIDE_RIGHT, &small), phase(SIDE_LEFT, &big)],
            &mut program,
        );
        assert_eq!(
            runs[0].forwarded.rows(),
            small.len(),
            "small side ships unpruned"
        );
        assert_eq!(runs[0].stats.processed, small.len() as u64);
        assert_eq!(runs[0].stats.pruned, 0);
        // Big side: every matching key survives (no false negatives),
        // and the disjoint prefix prunes.
        let survivors: HashSet<u64> = runs[1].forwarded.cols[1].iter().copied().collect();
        for k in 40..60u64 {
            assert!(survivors.contains(&k), "lost big-side match {k}");
        }
        assert_eq!(runs[1].stats.processed, big.len() as u64);
        assert!(runs[1].stats.pruned > 0, "disjoint big-side keys prune");
    }

    #[test]
    fn merged_sketches_keep_cross_shard_having_winners() {
        let threshold = 1_000u64;
        let mk = || HavingShardSketch::new(HavingPruner::new(3, 256, threshold, 11));
        let mut shards: Vec<HavingShardSketch> = (0..4).map(|_| mk()).collect();
        // Key 5 sums to 400 per shard — no shard-local crossing, but
        // 1600 > 1000 globally.
        for s in &mut shards {
            let keys = [5u64, 5];
            let vals = [200u64, 200];
            let mut out = [Decision::Prune; 2];
            s.process_cols(0, &[&keys, &vals], 2, &mut out);
        }
        let merged = shards
            .into_iter()
            .map(HavingShardSketch::into_pruner)
            .reduce(|mut a, b| {
                a.merge(&b);
                a
            })
            .expect("four shards");
        let mut probe = HavingShardProbe::new(merged);
        let keys = [5u64, 6];
        let vals = [1u64, 1];
        let mut out = [Decision::Prune; 2];
        probe.process_cols(1, &[&keys, &vals], 2, &mut out);
        assert!(out[0].is_forward(), "cross-shard winner lost at pass 2");
        assert!(out[1].is_prune(), "unseen key must stay pruned");
    }

    /// SUM and COUNT (the workers' `Const(1)` value lane) on the view
    /// path. With one worker the blocks reach the switch in stream order,
    /// so the counters and the pairs shipped — every block's evictions,
    /// then the FIN drain — are `GroupBySumPruner::process`'s, entry by
    /// entry; summed, they are the exact totals.
    #[test]
    fn groupby_sum_stage_reconstructs_exact_totals() {
        // Several wire blocks through a starved matrix: constant evictions.
        let keys: Vec<u64> = (0..20_000u64).map(|i| i * 31 % 97).collect();
        let sums: Vec<u64> = (0..20_000u64).map(|i| i % 50).collect();
        for count in [false, true] {
            let value = |i: usize| if count { 1 } else { sums[i] };
            let mut registers = GroupBySumPruner::new(4, 2, 7);
            let (mut expected, mut forwarded) = (Vec::new(), 0);
            for (i, &k) in keys.iter().enumerate() {
                if let SumAction::EvictAndForward { key, partial } = registers.process(k, value(i))
                {
                    expected.push((key, partial));
                    forwarded += 1;
                }
            }
            let drained = registers.drain();
            let drains = drained.len() as u64;
            expected.extend(drained);

            let vals = if count {
                Lane::Const(1)
            } else {
                Lane::Slice(&sums)
            };
            let registers = Keys::Hashed(GroupBySumPruner::new(4, 2, 7));
            let mut program = GroupBySumStage::new(registers);
            let run = collect_phases(
                vec![PhaseInput {
                    partitions: vec![LanePartition {
                        rows: keys.len(),
                        lanes: vec![Lane::Slice(&keys), vals],
                    }],
                    visible_cols: 2,
                }],
                &mut program,
            )
            .pop()
            .unwrap();
            let lanes = &run.forwarded.cols;
            let shipped: Vec<(u64, u64)> = lanes[0]
                .iter()
                .copied()
                .zip(lanes[1].iter().copied())
                .collect();
            assert_eq!(shipped, expected, "COUNT: {count}");
            // The FIN drain counts as forwarded, beside the evictions.
            let stats = (
                run.stats.processed,
                run.stats.drained,
                run.stats.forwarded(),
            );
            let counted = (keys.len() as u64, drains, forwarded + drains);
            assert_eq!(stats, counted, "COUNT: {count}");

            let mut truth: HashMap<u64, u64> = HashMap::new();
            for (i, &k) in keys.iter().enumerate() {
                *truth.entry(k).or_insert(0) += value(i);
            }
            let mut got: HashMap<u64, u64> = HashMap::new();
            for (k, p) in shipped {
                *got.entry(k).or_insert(0) += p;
            }
            assert_eq!(got, truth, "evictions + drain must sum exactly");
        }
    }
}
