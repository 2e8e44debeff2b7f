//! HAVING as a switch program: a Count-Min sketch across register arrays.
//!
//! Each Count-Min row is one register array (one RMW per packet); the
//! rolling minimum of the read values gives the before-estimate and of the
//! written values the after-estimate, letting the switch detect the
//! threshold crossing in-flight (§4.3).

use cheetah_core::decision::Decision;
use cheetah_core::hash::HashFn;
use cheetah_core::resources::{table2, ResourceUsage, SwitchModel};

use crate::pipeline::{PipelineViolation, RegId, SwitchPipeline};
use crate::programs::SwitchProgram;

/// Which pass the program is running (control-plane switched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HavingPhase {
    /// Fold entries into the sketch; forward only threshold crossings.
    PassOne,
    /// Forward entries of candidate keys (estimate above threshold).
    PassTwo,
}

/// Two-pass `HAVING SUM(val) > c` on a `d × w` Count-Min sketch.
#[derive(Debug)]
pub struct HavingProgram {
    pipe: SwitchPipeline,
    rows: Vec<RegId>,
    hashes: Vec<HashFn>,
    w: usize,
    threshold: u64,
    phase: HavingPhase,
}

impl HavingProgram {
    /// Configure a `d`-row, `w`-counter sketch for `HAVING … > threshold`;
    /// `seed` must match the core
    /// [`CountMinSketch`](cheetah_core::having::CountMinSketch)
    /// (`seed ^ (i << 40)` per row).
    pub fn new(
        spec: SwitchModel,
        d: usize,
        w: usize,
        threshold: u64,
        seed: u64,
    ) -> Result<Self, PipelineViolation> {
        assert!(d > 0 && w > 0);
        let mut pipe = SwitchPipeline::new(spec);
        let a = spec.alus_per_stage as usize;
        let rows = (0..d)
            .map(|r| pipe.alloc_register("having-cm", (r / a) as u32, w, 0))
            .collect::<Result<Vec<_>, _>>()?;
        let hashes = (0..d)
            .map(|i| HashFn::new(seed ^ ((i as u64) << 40)))
            .collect();
        Ok(HavingProgram {
            pipe,
            rows,
            hashes,
            w,
            threshold,
            phase: HavingPhase::PassOne,
        })
    }

    /// Move to the second pass (control-plane rule update).
    pub fn set_phase(&mut self, phase: HavingPhase) {
        self.phase = phase;
    }
}

impl SwitchProgram for HavingProgram {
    fn pipeline(&self) -> &SwitchPipeline {
        &self.pipe
    }

    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation> {
        let (key, value) = (values[0], values[1]);
        let mut ctx = self.pipe.begin_packet(2)?;
        // Rolling min-before and min-after (2×64b).
        ctx.use_metadata(128)?;
        let mut before = u64::MAX;
        let mut after = u64::MAX;
        let add = match self.phase {
            HavingPhase::PassOne => value,
            HavingPhase::PassTwo => 0, // read-only probe
        };
        for (r, &reg) in self.rows.iter().enumerate() {
            let c = ctx.hash_bucket(&self.hashes[r], key, self.w);
            let old = ctx.reg_rmw(reg, c, move |cell| cell.saturating_add(add))?;
            before = before.min(old);
            after = after.min(old.saturating_add(add));
        }
        Ok(match self.phase {
            HavingPhase::PassOne => {
                if before <= self.threshold && after > self.threshold {
                    Decision::Forward // candidate announcement
                } else {
                    Decision::Prune
                }
            }
            HavingPhase::PassTwo => {
                if before > self.threshold {
                    Decision::Forward
                } else {
                    Decision::Prune
                }
            }
        })
    }

    fn reset(&mut self) {
        self.pipe.clear_registers();
        self.phase = HavingPhase::PassOne;
    }

    fn layout(&self) -> ResourceUsage {
        table2::having(
            self.w as u64,
            self.rows.len() as u32,
            self.pipe.spec().alus_per_stage,
        )
    }

    fn name(&self) -> &'static str {
        "pisa-having"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_announced_once() {
        let mut p = HavingProgram::new(SwitchModel::tofino_like(), 3, 64, 100, 0).unwrap();
        let mut announcements = 0;
        for _ in 0..50 {
            if p.process(&[7, 10]).unwrap() == Decision::Forward {
                announcements += 1;
            }
        }
        assert_eq!(announcements, 1);
    }

    #[test]
    fn pass_two_forwards_candidates_only() {
        let mut p = HavingProgram::new(SwitchModel::tofino_like(), 3, 1024, 50, 0).unwrap();
        for _ in 0..10 {
            p.process(&[1, 10]).unwrap(); // key 1 sums to 100 > 50
        }
        p.process(&[2, 10]).unwrap(); // key 2 sums to 10
        p.set_phase(HavingPhase::PassTwo);
        assert_eq!(p.process(&[1, 10]).unwrap(), Decision::Forward);
        assert_eq!(p.process(&[2, 10]).unwrap(), Decision::Prune);
        // Pass two must not mutate the sketch.
        assert_eq!(p.process(&[2, 10]).unwrap(), Decision::Prune);
    }

    #[test]
    fn reset_restores_pass_one() {
        let mut p = HavingProgram::new(SwitchModel::tofino_like(), 3, 64, 5, 0).unwrap();
        assert_eq!(p.process(&[1, 10]).unwrap(), Decision::Forward);
        p.set_phase(HavingPhase::PassTwo);
        p.reset();
        assert_eq!(p.process(&[1, 10]).unwrap(), Decision::Forward);
    }

    #[test]
    fn layout_matches_table2() {
        let p = HavingProgram::new(SwitchModel::tofino_like(), 3, 1024, 0, 0).unwrap();
        let l = p.layout();
        assert_eq!(l.stages, 1);
        assert_eq!(l.alus, 3);
        assert_eq!(l.sram_bits, 3 * 1024 * 64);
    }
}
