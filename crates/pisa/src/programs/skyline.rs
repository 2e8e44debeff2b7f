//! SKYLINE as a switch program: per-slot score/dimension registers with a
//! rolling minimum, and the APH log pipeline (TCAM MSB finder + 2¹⁶ table).

use cheetah_core::decision::Decision;
use cheetah_core::resources::{table2, ResourceUsage, SwitchModel};
use cheetah_core::skyline::ApproxLog;

use crate::pipeline::{PipelineViolation, RegId, SwitchPipeline, TableId, TcamId};
use crate::programs::SwitchProgram;
use crate::tcam::Tcam;

/// Projection used for the replacement score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkylineScoring {
    /// Sum of coordinates.
    Sum,
    /// Approximate Product Heuristic (fixed-point log sum, Appendix D).
    Aph {
        /// Fractional fixed-point bits (β = 2^frac_bits).
        frac_bits: u32,
    },
}

/// SKYLINE pruner: `w` slots, each a score register (stage `2i`) plus `D`
/// dimension registers (stage `2i+1`); scores are stored offset by one so
/// that 0 means "empty slot" even for zero-score points.
#[derive(Debug)]
pub struct SkylineProgram {
    pipe: SwitchPipeline,
    score_regs: Vec<RegId>,
    dim_regs: Vec<Vec<RegId>>,
    msb: Option<TcamId>,
    log_table: Option<TableId>,
    approx: Option<ApproxLog>,
    scoring: SkylineScoring,
    dims: usize,
    w: usize,
}

impl SkylineProgram {
    /// Configure for `dims`-dimensional points with `w` stored slots.
    ///
    /// APH configurations install the 64-rule MSB TCAM per dimension
    /// (charged once here — the rules are identical) and the 2¹⁶-entry
    /// log table; `frac_bits` must match the core
    /// [`ApproxLog`](cheetah_core::skyline::ApproxLog).
    pub fn new(
        spec: SwitchModel,
        dims: usize,
        w: usize,
        scoring: SkylineScoring,
    ) -> Result<Self, PipelineViolation> {
        assert!(dims > 0 && w > 0);
        let mut pipe = SwitchPipeline::new(spec);
        // Stage 0 hosts the projection machinery (APH); slots follow.
        let slot_base = 1u32;
        let (msb, log_table, approx) = match scoring {
            SkylineScoring::Sum => (None, None, None),
            SkylineScoring::Aph { frac_bits } => {
                let approx = ApproxLog::new(frac_bits);
                let mut msb_tcam = Tcam::msb_finder();
                // One MSB block per dimension (Table 2: 64·D entries).
                let block: Vec<_> = Tcam::msb_finder().entries().copied().collect();
                for _ in 1..dims {
                    for e in &block {
                        msb_tcam.push(e.value, e.mask, e.action);
                    }
                }
                let msb = pipe.install_tcam(0, msb_tcam)?;
                let entries = (1u64..1 << 16).map(|a| (a, approx.log2_fixed(a)));
                let table = pipe.install_table(0, entries, 32)?;
                (Some(msb), Some(table), Some(approx))
            }
        };
        let mut score_regs = Vec::with_capacity(w);
        let mut dim_regs = Vec::with_capacity(w);
        for i in 0..w {
            let s = slot_base + 2 * i as u32;
            score_regs.push(pipe.alloc_register("skyline-score", s, 1, 0)?);
            let mut slot_dims = Vec::with_capacity(dims);
            for _ in 0..dims {
                slot_dims.push(pipe.alloc_register("skyline-dim", s + 1, 1, 0)?);
            }
            dim_regs.push(slot_dims);
        }
        Ok(SkylineProgram {
            pipe,
            score_regs,
            dim_regs,
            msb,
            log_table,
            approx,
            scoring,
            dims,
            w,
        })
    }
}

/// Score a point exactly as the core heuristic does, but through the
/// switch primitives (table + TCAM for APH). A free function so it can
/// borrow the packet context while the program struct stays untouched.
fn switch_score(
    ctx: &mut crate::pipeline::PacketCtx<'_>,
    scoring: SkylineScoring,
    log_table: Option<TableId>,
    msb: Option<TcamId>,
    reference: Option<&ApproxLog>,
    point: &[u64],
) -> Result<u64, PipelineViolation> {
    match scoring {
        SkylineScoring::Sum => {
            let mut acc: u64 = 0;
            for &v in point {
                ctx.alu()?;
                acc = acc.saturating_add(v);
            }
            Ok(acc)
        }
        SkylineScoring::Aph { frac_bits } => {
            let table = log_table.expect("aph configured");
            let msb = msb.expect("aph configured");
            let mut acc: u64 = 0;
            for &v in point {
                let log = if v == 0 {
                    0
                } else if v < (1 << 16) {
                    ctx.table_lookup(table, v)?.unwrap_or(0)
                } else {
                    let l = ctx.tcam_lookup(msb, v).expect("msb of nonzero");
                    let window = v >> (l - 15);
                    let base = ctx.table_lookup(table, window)?.unwrap_or(0);
                    base + (l - 15) * u64::from(1u32 << frac_bits)
                };
                ctx.alu()?;
                acc = acc.saturating_add(log);
            }
            debug_assert_eq!(
                acc,
                point
                    .iter()
                    .map(|&v| reference.expect("aph configured").log2_fixed(v))
                    .sum::<u64>(),
                "switch APH must equal the reference ApproxLog"
            );
            Ok(acc)
        }
    }
}

/// `y` dominates `x` (all ≥, one >) — computed on packet metadata.
fn dominates(y: &[u64], x: &[u64]) -> bool {
    y.iter().zip(x).all(|(a, b)| a >= b) && y.iter().zip(x).any(|(a, b)| a > b)
}

impl SwitchProgram for SkylineProgram {
    fn pipeline(&self) -> &SwitchPipeline {
        &self.pipe
    }

    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation> {
        let point = values[..self.dims].to_vec();
        let point = point.as_slice();
        let (scoring, log_table, msb) = (self.scoring, self.log_table, self.msb);
        let approx = self.approx.clone();
        let (dims, w) = (self.dims, self.w);
        let score_regs = self.score_regs.clone();
        let dim_regs = self.dim_regs.clone();
        let mut ctx = self.pipe.begin_packet(dims as u32)?;
        // Carry point (D×64b would exceed the metadata budget for large D;
        // the paper stores the displaced point in the *packet body*, so we
        // charge only score + flags as metadata).
        ctx.use_metadata(64 + 8)?;
        let score = switch_score(&mut ctx, scoring, log_table, msb, approx.as_ref(), point)?
            .saturating_add(1); // 0 = empty
        let mut carry_point = point.to_vec();
        let mut carry_score = score;
        let mut dominated = false;
        let mut inserted = false;
        for i in 0..w {
            let cs = carry_score;
            let dom = dominated;
            let ins = inserted;
            // The new point takes the first slot it strictly beats (it
            // slots in *after* equal scores, like the reference's
            // partition_point). Once it is in, the displaced point must
            // shift down unconditionally — score ties are common under
            // APH's rounded logs, and a strict compare here would drop
            // the carried point instead of rotating it, diverging from
            // the reference's stored set.
            let old_score = ctx.reg_rmw(score_regs[i], 0, move |s| {
                if !dom && (ins || cs > s) {
                    cs
                } else {
                    s
                }
            })?;
            let swap = !dominated && (inserted || carry_score > old_score);
            let mut old_point = Vec::with_capacity(dims);
            for (j, &reg) in dim_regs[i].iter().enumerate() {
                let cj = carry_point[j];
                let old = ctx.reg_rmw(reg, 0, move |v| if swap { cj } else { v })?;
                old_point.push(old);
            }
            if swap {
                carry_point = old_point;
                carry_score = old_score;
                inserted = true;
            } else if !inserted && !dominated && old_score != 0 && dominates(&old_point, point) {
                dominated = true;
            }
        }
        Ok(if dominated {
            Decision::Prune
        } else {
            Decision::Forward
        })
    }

    fn reset(&mut self) {
        self.pipe.clear_registers();
    }

    fn layout(&self) -> ResourceUsage {
        match self.scoring {
            SkylineScoring::Sum => table2::skyline_sum(self.dims as u32, self.w as u32),
            SkylineScoring::Aph { .. } => table2::skyline_aph(self.dims as u32, self.w as u32),
        }
    }

    fn name(&self) -> &'static str {
        match self.scoring {
            SkylineScoring::Sum => "pisa-skyline-sum",
            SkylineScoring::Aph { .. } => "pisa-skyline-aph",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SwitchModel {
        // SKYLINE is stage-hungry (Table 2); give it a Tofino-2 envelope.
        SwitchModel {
            stages: 32,
            ..SwitchModel::tofino2_like()
        }
    }

    #[test]
    fn paper_running_example_sum() {
        let mut p = SkylineProgram::new(spec(), 2, 3, SkylineScoring::Sum).unwrap();
        // Pizza(7,5), Cheetos(8,6), Jello(9,4), Burger(5,7), Fries(3,3).
        assert_eq!(p.process(&[7, 5]).unwrap(), Decision::Forward);
        assert_eq!(p.process(&[8, 6]).unwrap(), Decision::Forward);
        assert_eq!(p.process(&[9, 4]).unwrap(), Decision::Forward);
        assert_eq!(p.process(&[5, 7]).unwrap(), Decision::Forward);
        assert_eq!(
            p.process(&[3, 3]).unwrap(),
            Decision::Prune,
            "Fries dominated"
        );
    }

    #[test]
    fn aph_matches_reference_scores() {
        let mut p =
            SkylineProgram::new(spec(), 2, 4, SkylineScoring::Aph { frac_bits: 8 }).unwrap();
        // The debug_assert inside score() checks switch-vs-reference APH
        // on every packet; run a spread of magnitudes through it.
        for v in [
            [1u64, 1],
            [65_535, 2],
            [65_536, 100],
            [1 << 30, 1 << 20],
            [u64::MAX, 3],
        ] {
            p.process(&v).unwrap();
        }
    }

    #[test]
    fn dominated_points_pruned_aph() {
        let mut p =
            SkylineProgram::new(spec(), 2, 4, SkylineScoring::Aph { frac_bits: 8 }).unwrap();
        assert_eq!(p.process(&[1000, 1000]).unwrap(), Decision::Forward);
        assert_eq!(p.process(&[10, 10]).unwrap(), Decision::Prune);
        assert_eq!(p.process(&[2000, 500]).unwrap(), Decision::Forward);
    }

    #[test]
    fn zero_score_points_still_stored() {
        // (1,1) has APH score 0; the +1 offset must still store it.
        let mut p =
            SkylineProgram::new(spec(), 2, 2, SkylineScoring::Aph { frac_bits: 8 }).unwrap();
        assert_eq!(p.process(&[1, 1]).unwrap(), Decision::Forward);
        // A second (1,1) is not dominated (equal), forwarded.
        assert_eq!(p.process(&[1, 1]).unwrap(), Decision::Forward);
        // But (1,0)... dims are ≥1 by convention; (0,0) is dominated.
        assert_eq!(p.process(&[0, 0]).unwrap(), Decision::Prune);
    }

    #[test]
    fn reset_clears_slots() {
        let mut p = SkylineProgram::new(spec(), 2, 2, SkylineScoring::Sum).unwrap();
        p.process(&[100, 100]).unwrap();
        assert_eq!(p.process(&[1, 1]).unwrap(), Decision::Prune);
        p.reset();
        assert_eq!(p.process(&[1, 1]).unwrap(), Decision::Forward);
    }

    #[test]
    fn layout_matches_table2() {
        let p = SkylineProgram::new(spec(), 2, 10, SkylineScoring::Sum).unwrap();
        assert_eq!(p.layout().stages, 21);
        let p = SkylineProgram::new(spec(), 2, 10, SkylineScoring::Aph { frac_bits: 8 }).unwrap();
        assert_eq!(p.layout().tcam_entries, 128);
    }
}
