//! DISTINCT as a switch program: LRU (per-stage rolling) and FIFO (wide).
//!
//! Hardware registers initialize to zero, so an empty cell is 0 and a
//! cell holding key `k` stores the marker `k + 1`. The row is hashed from
//! `k` itself, as the core [`DistinctPruner`] does, so both decide every
//! key alike. The one key whose marker would be the empty cell is
//! `u64::MAX`: it is forwarded without touching state, which is always
//! safe (the master drops a surviving duplicate).
//!
//! [`DistinctPruner`]: cheetah_core::distinct::DistinctPruner

use cheetah_core::decision::Decision;
use cheetah_core::hash::HashFn;
use cheetah_core::resources::{table2, ResourceUsage, SwitchModel};

use crate::pipeline::{PipelineViolation, RegId, SwitchPipeline};
use crate::programs::SwitchProgram;

/// LRU DISTINCT: `w` register arrays of `d` cells, array `i` in stage `i`.
///
/// The packet performs the paper's rolling replacement: the new value is
/// written to stage 0, the displaced value to stage 1, and so on. A match
/// at stage `i` terminates the roll (consuming the duplicate), which makes
/// the policy move-to-front — true LRU. Every key but `u64::MAX` (see the
/// module doc) decides as the core matrix does.
#[derive(Debug)]
pub struct DistinctLruProgram {
    pipe: SwitchPipeline,
    stages: Vec<RegId>,
    row_hash: HashFn,
    d: usize,
}

impl DistinctLruProgram {
    /// Configure onto a fresh pipeline with the given envelope.
    ///
    /// `seed` must match the `cheetah-core` [`DistinctPruner`]'s seed for
    /// differential equivalence (the row hash is derived the same way).
    ///
    /// [`DistinctPruner`]: cheetah_core::distinct::DistinctPruner
    pub fn new(
        spec: SwitchModel,
        d: usize,
        w: usize,
        seed: u64,
    ) -> Result<Self, PipelineViolation> {
        let mut pipe = SwitchPipeline::new(spec);
        let stages = (0..w)
            .map(|i| pipe.alloc_register("distinct-lru", i as u32, d, 0))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DistinctLruProgram {
            pipe,
            stages,
            row_hash: HashFn::new(seed ^ 0xd157_1c7a),
            d,
        })
    }
}

impl SwitchProgram for DistinctLruProgram {
    fn pipeline(&self) -> &SwitchPipeline {
        &self.pipe
    }

    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation> {
        let key = values[0];
        let mut ctx = self.pipe.begin_packet(1)?;
        // Metadata: the rolling carry (64b) + row index (16b) + found bit.
        ctx.use_metadata(64 + 16 + 1)?;
        let Some(marker) = key.checked_add(1) else {
            return Ok(Decision::Forward);
        };
        let row = ctx.hash_bucket(&self.row_hash, key, self.d);
        let mut carry = marker;
        for &reg in &self.stages {
            let old = ctx.reg_rmw(reg, row, {
                let carry = carry;
                move |_| carry
            })?;
            if old == marker {
                // Duplicate consumed by the roll: move-to-front complete.
                return Ok(Decision::Prune);
            }
            carry = old;
        }
        // No match: the oldest value fell off the end (eviction).
        Ok(Decision::Forward)
    }

    fn reset(&mut self) {
        self.pipe.clear_registers();
    }

    fn layout(&self) -> ResourceUsage {
        table2::distinct_lru(self.stages.len() as u32, self.d as u64)
    }

    fn name(&self) -> &'static str {
        "pisa-distinct-lru"
    }
}

/// FIFO DISTINCT: one wide array whose rows are `[v₀ … v_{w-1}, cursor]`,
/// scanned in a single shared-memory access (Table 2's `*` assumption,
/// `⌈w/A⌉` stages). Cells hold markers, as in [`DistinctLruProgram`].
#[derive(Debug)]
pub struct DistinctFifoProgram {
    pipe: SwitchPipeline,
    rows: RegId,
    row_hash: HashFn,
    d: usize,
    w: usize,
}

impl DistinctFifoProgram {
    /// Configure onto a fresh pipeline with the given envelope.
    pub fn new(
        spec: SwitchModel,
        d: usize,
        w: usize,
        seed: u64,
    ) -> Result<Self, PipelineViolation> {
        let mut pipe = SwitchPipeline::new(spec);
        let rows = pipe.alloc_wide_register("distinct-fifo", 0, d, w + 1, 0)?;
        Ok(DistinctFifoProgram {
            pipe,
            rows,
            row_hash: HashFn::new(seed ^ 0xd157_1c7a),
            d,
            w,
        })
    }
}

impl SwitchProgram for DistinctFifoProgram {
    fn pipeline(&self) -> &SwitchPipeline {
        &self.pipe
    }

    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation> {
        let key = values[0];
        let mut ctx = self.pipe.begin_packet(1)?;
        ctx.use_metadata(16 + 1)?;
        let Some(marker) = key.checked_add(1) else {
            return Ok(Decision::Forward);
        };
        let row = ctx.hash_bucket(&self.row_hash, key, self.d);
        let w = self.w;
        let mut pruned = false;
        ctx.reg_rmw_wide(self.rows, row, |cells| {
            let (vals, cursor) = (&cells[..w], cells[w]);
            if vals.contains(&marker) {
                pruned = true;
                return Vec::new();
            }
            // Insert at the first empty cell, else at the cursor.
            match vals.iter().position(|&c| c == 0) {
                Some(i) => vec![(i, marker)],
                None => {
                    let cur = cursor as usize;
                    vec![(cur, marker), (w, ((cur + 1) % w) as u64)]
                }
            }
        })?;
        Ok(if pruned {
            Decision::Prune
        } else {
            Decision::Forward
        })
    }

    fn reset(&mut self) {
        self.pipe.clear_registers();
    }

    fn layout(&self) -> ResourceUsage {
        // Table 2 charges d·w·64b for the values; the cursor column is an
        // implementation detail we account for honestly.
        let base = table2::distinct_fifo(
            self.w as u32,
            self.d as u64,
            self.pipe.spec().alus_per_stage,
        );
        ResourceUsage {
            sram_bits: base.sram_bits + self.d as u64 * 64,
            ..base
        }
    }

    fn name(&self) -> &'static str {
        "pisa-distinct-fifo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_prunes_duplicates() {
        let mut p = DistinctLruProgram::new(SwitchModel::tofino_like(), 64, 2, 7).unwrap();
        assert_eq!(p.process(&[5]).unwrap(), Decision::Forward);
        assert_eq!(p.process(&[5]).unwrap(), Decision::Prune);
        p.reset();
        assert_eq!(p.process(&[5]).unwrap(), Decision::Forward);
    }

    #[test]
    fn fifo_prunes_duplicates() {
        let mut p = DistinctFifoProgram::new(SwitchModel::tofino_like(), 64, 4, 7).unwrap();
        assert_eq!(p.process(&[9]).unwrap(), Decision::Forward);
        assert_eq!(p.process(&[9]).unwrap(), Decision::Prune);
        p.reset();
        assert_eq!(p.process(&[9]).unwrap(), Decision::Forward);
    }

    #[test]
    fn zero_is_a_key_and_max_forwards_without_state() {
        let mut lru = DistinctLruProgram::new(SwitchModel::tofino_like(), 1, 1, 7).unwrap();
        let mut fifo = DistinctFifoProgram::new(SwitchModel::tofino_like(), 1, 1, 7).unwrap();
        let programs: [&mut dyn SwitchProgram; 2] = [&mut lru, &mut fifo];
        for p in programs {
            assert_eq!(p.process(&[0]).unwrap(), Decision::Forward);
            assert_eq!(p.process(&[0]).unwrap(), Decision::Prune, "{}", p.name());
            // u64::MAX never enters the one cell: 0 stays cached.
            for _ in 0..2 {
                assert_eq!(p.process(&[u64::MAX]).unwrap(), Decision::Forward);
            }
            assert_eq!(p.process(&[0]).unwrap(), Decision::Prune, "{}", p.name());
        }
    }

    #[test]
    fn lru_needs_w_stages() {
        // w greater than the stage count cannot configure.
        let spec = SwitchModel::tofino_like();
        let too_many = spec.stages as usize + 1;
        assert!(DistinctLruProgram::new(spec, 16, too_many, 0).is_err());
    }

    #[test]
    fn layouts_match_table2() {
        let p = DistinctLruProgram::new(SwitchModel::tofino_like(), 4096, 2, 0).unwrap();
        assert_eq!(p.layout().stages, 2);
        assert_eq!(p.layout().sram_bits, 4096 * 2 * 64);
        let p = DistinctFifoProgram::new(SwitchModel::tofino_like(), 4096, 2, 0).unwrap();
        assert_eq!(p.layout().stages, 1);
    }
}
