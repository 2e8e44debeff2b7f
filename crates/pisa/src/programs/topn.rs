//! TOP N as switch programs: randomized rolling-maximum matrix and the
//! deterministic exponential threshold ladder.

use cheetah_core::decision::Decision;
use cheetah_core::hash::HashFn;
use cheetah_core::resources::{table2, ResourceUsage, SwitchModel};

use crate::pipeline::{PipelineViolation, RegId, SwitchPipeline};
use crate::programs::SwitchProgram;

/// Randomized TOP N (§5, Example 7): a sequence-counter register assigns
/// each packet a uniform row; `w` per-stage arrays keep the row's `w`
/// largest values via a rolling maximum; a packet smaller than everything
/// cached in its row is pruned.
#[derive(Debug)]
pub struct RandTopNProgram {
    pipe: SwitchPipeline,
    seq: RegId,
    stages: Vec<RegId>,
    row_hash: HashFn,
    d: usize,
}

impl RandTopNProgram {
    /// Configure with matrix dimensions `(d, w)`; `seed` must match the
    /// core [`RandomizedTopN`](cheetah_core::topn::RandomizedTopN).
    pub fn new(
        spec: SwitchModel,
        d: usize,
        w: usize,
        seed: u64,
    ) -> Result<Self, PipelineViolation> {
        let mut pipe = SwitchPipeline::new(spec);
        let seq = pipe.alloc_register("topn-seq", 0, 1, 0)?;
        let stages = (0..w)
            .map(|i| pipe.alloc_register("topn-rand", i as u32 + 1, d, 0))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RandTopNProgram {
            pipe,
            seq,
            stages,
            row_hash: HashFn::new(seed),
            d,
        })
    }
}

impl SwitchProgram for RandTopNProgram {
    fn pipeline(&self) -> &SwitchPipeline {
        &self.pipe
    }

    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation> {
        let value = values[0];
        let mut ctx = self.pipe.begin_packet(1)?;
        // Carry (64b) + row (16b) + swapped/equal flags.
        ctx.use_metadata(64 + 16 + 2)?;
        let seq = ctx.reg_rmw(self.seq, 0, |c| c.wrapping_add(1))?;
        let row = ctx.hash_bucket(&self.row_hash, seq, self.d);
        let mut carry = value;
        let mut swapped = false;
        let mut equal_seen = false;
        for &reg in &self.stages {
            let prev = carry;
            let old = ctx.reg_rmw(reg, row, move |cell| if prev > cell { prev } else { cell })?;
            if prev > old {
                carry = old; // displaced value keeps rolling down
                swapped = true;
            } else if old == value {
                equal_seen = true;
            }
        }
        // Never swapped in and no equal cached value ⇒ strictly smaller
        // than all w cached values ⇒ prune.
        Ok(if !swapped && !equal_seen {
            Decision::Prune
        } else {
            Decision::Forward
        })
    }

    fn reset(&mut self) {
        self.pipe.clear_registers();
    }

    fn layout(&self) -> ResourceUsage {
        table2::topn_rand(self.stages.len() as u32, self.d as u64)
    }

    fn name(&self) -> &'static str {
        "pisa-topn-rand"
    }
}

/// Deterministic TOP N (§4.3, Example 3): warm-up registers learn `t₀`
/// (the minimum of the first `N` entries), then `w` per-stage counters
/// track how many forwarded values exceeded each exponential threshold
/// `tᵢ = max(t₀,1)·2^{i+1}`; the active threshold is the highest with `N`
/// confirmations.
#[derive(Debug)]
pub struct DetTopNProgram {
    pipe: SwitchPipeline,
    seen: RegId,
    running_min: RegId,
    counters: Vec<RegId>,
    n: u64,
    w: usize,
}

impl DetTopNProgram {
    /// Configure for the `n` largest values with `w` thresholds.
    pub fn new(spec: SwitchModel, n: u64, w: usize) -> Result<Self, PipelineViolation> {
        assert!(n > 0);
        let mut pipe = SwitchPipeline::new(spec);
        let seen = pipe.alloc_register("topn-seen", 0, 1, 0)?;
        let running_min = pipe.alloc_register("topn-min", 0, 1, u64::MAX)?;
        let counters = (0..w)
            .map(|i| pipe.alloc_register("topn-counter", i as u32 + 1, 1, 0))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DetTopNProgram {
            pipe,
            seen,
            running_min,
            counters,
            n,
            w,
        })
    }
}

impl SwitchProgram for DetTopNProgram {
    fn pipeline(&self) -> &SwitchPipeline {
        &self.pipe
    }

    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation> {
        let value = values[0];
        let mut ctx = self.pipe.begin_packet(1)?;
        // t₀ (64b) + active threshold (64b) + warm-up flag.
        ctx.use_metadata(64 + 64 + 1)?;
        let n = self.n;
        let seen_before = ctx.reg_rmw(self.seen, 0, move |s| s.saturating_add(1))?;
        let warming = seen_before < n;
        let min_before = ctx.reg_rmw(self.running_min, 0, move |m| {
            if warming && value < m {
                value
            } else {
                m
            }
        })?;
        if warming {
            return Ok(Decision::Forward);
        }
        // t₀ froze at the end of warm-up (the register is only written
        // while warming); reconstruct the ladder from it.
        let t0 = min_before;
        let base = t0.max(1);
        let mut active = t0;
        for (i, &reg) in self.counters.iter().enumerate() {
            let t_i = base.saturating_mul(1u64.checked_shl(i as u32 + 1).unwrap_or(u64::MAX));
            let new_count = ctx.reg_rmw(reg, 0, move |c| if value > t_i { c + 1 } else { c })?
                + u64::from(value > t_i);
            if new_count >= n {
                active = active.max(t_i);
            }
        }
        Ok(if value < active {
            Decision::Prune
        } else {
            Decision::Forward
        })
    }

    fn reset(&mut self) {
        self.pipe.clear_registers();
    }

    fn layout(&self) -> ResourceUsage {
        table2::topn_det(self.w as u32)
    }

    fn name(&self) -> &'static str {
        "pisa-topn-det"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rand_prunes_small_values() {
        let mut p = RandTopNProgram::new(SwitchModel::tofino_like(), 4, 2, 0).unwrap();
        // Fill with large values, then a tiny one should eventually prune.
        let mut pruned_any = false;
        for v in 0..200u64 {
            p.process(&[1000 + v]).unwrap();
        }
        for _ in 0..50 {
            if p.process(&[1]).unwrap() == Decision::Prune {
                pruned_any = true;
            }
        }
        assert!(pruned_any, "small values should be pruned once rows fill");
    }

    #[test]
    fn det_warmup_forwards_everything() {
        let mut p = DetTopNProgram::new(SwitchModel::tofino_like(), 10, 4).unwrap();
        for v in [5u64, 3, 8, 1, 9, 2, 7, 4, 6, 10] {
            assert_eq!(p.process(&[v]).unwrap(), Decision::Forward);
        }
        // After warm-up, values below t0 = 1 can never be pruned (t0 is
        // the floor), but the ladder can climb with big values.
        for _ in 0..100 {
            p.process(&[1_000_000]).unwrap();
        }
        assert_eq!(p.process(&[1]).unwrap(), Decision::Prune);
    }

    #[test]
    fn det_reset_restores_warmup() {
        let mut p = DetTopNProgram::new(SwitchModel::tofino_like(), 2, 2).unwrap();
        p.process(&[100]).unwrap();
        p.process(&[200]).unwrap();
        for _ in 0..10 {
            p.process(&[100_000]).unwrap();
        }
        assert_eq!(p.process(&[1]).unwrap(), Decision::Prune);
        p.reset();
        assert_eq!(p.process(&[1]).unwrap(), Decision::Forward);
    }

    #[test]
    fn layouts_match_table2() {
        let p = RandTopNProgram::new(SwitchModel::tofino_like(), 4096, 4, 0).unwrap();
        assert_eq!(p.layout().stages, 4);
        let p = DetTopNProgram::new(SwitchModel::tofino_like(), 250, 4).unwrap();
        assert_eq!(p.layout().stages, 5);
        assert_eq!(p.layout().sram_bits, 5 * 64);
    }
}
