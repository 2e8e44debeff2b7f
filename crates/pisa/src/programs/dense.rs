//! Dense-domain programs: register arrays indexed by the key's offset code
//! `field − min`, where the core pruners hash — one stage for DISTINCT and
//! GROUP BY MAX/MIN, one a side for a JOIN.

use cheetah_core::decision::Decision;
use cheetah_core::dense::OffsetCode;
use cheetah_core::groupby::Extremum;
use cheetah_core::resources::{ResourceUsage, SwitchModel};

use crate::pipeline::{PipelineViolation, RegId, SwitchPipeline};
use crate::programs::{JoinMode, JoinProgram, SwitchProgram};

/// What a [`DenseProgram`] keeps per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseOp {
    /// A seen bit: DISTINCT, the twin of
    /// [`DenseDistinct`](cheetah_core::dense::DenseDistinct).
    Distinct,
    /// A valid bit and a 64-bit extremum: GROUP BY MAX/MIN, the twin of
    /// [`DenseGroupBy`](cheetah_core::dense::DenseGroupBy).
    Extremum(Extremum),
}

/// A one-stage program over an [`OffsetCode`]: the packet's stateless ALUs
/// subtract each lane's minimum (shifting and OR-ing a multi-lane code
/// together), and the code indexes a bitmap of seen or valid bits — 64 keys
/// to a register — and, for an extremum, a register per key beside it.
/// Neither array needs a zero sentinel, so keys travel unshifted.
#[derive(Debug)]
pub struct DenseProgram {
    pipe: SwitchPipeline,
    code: OffsetCode,
    op: DenseOp,
    /// Seen (DISTINCT) or valid (extremum) bits.
    bits: RegId,
    /// The extremum registers.
    best: Option<RegId>,
}

impl DenseProgram {
    /// Lay `op`'s arrays over `code`'s cells out in stage 0.
    pub fn new(
        spec: SwitchModel,
        code: OffsetCode,
        op: DenseOp,
    ) -> Result<Self, PipelineViolation> {
        let mut pipe = SwitchPipeline::new(spec);
        let cells = code.cells() as usize;
        let bits = pipe.alloc_register("dense-bits", 0, cells.div_ceil(64), 0)?;
        let best = match op {
            DenseOp::Distinct => None,
            DenseOp::Extremum(_) => Some(pipe.alloc_register("dense-best", 0, cells, 0)?),
        };
        Ok(DenseProgram {
            pipe,
            code,
            op,
            bits,
            best,
        })
    }
}

impl SwitchProgram for DenseProgram {
    fn pipeline(&self) -> &SwitchPipeline {
        &self.pipe
    }

    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation> {
        let lanes = self.code.lanes();
        let words = lanes + usize::from(self.best.is_some());
        let mut ctx = self.pipe.begin_packet(words as u32)?;
        // The code (≤ 63 bits) crosses into the register stage.
        ctx.use_metadata(64)?;
        for _ in 0..lanes {
            ctx.alu()?;
        }
        let code = self.code.code(values);
        let bit = 1u64 << (code & 63);
        let old = ctx.reg_rmw(self.bits, code >> 6, |word| word | bit)?;
        let seen = old & bit != 0;
        let decision = match (self.op, self.best) {
            (DenseOp::Extremum(ext), Some(best)) => {
                let value = values[lanes];
                let keep = |b: u64| !seen || ext.improves(value, b);
                let old = ctx.reg_rmw(best, code, |b| if keep(b) { value } else { b })?;
                if keep(old) {
                    Decision::Forward
                } else {
                    Decision::Prune
                }
            }
            _ if seen => Decision::Prune,
            _ => Decision::Forward,
        };
        Ok(decision)
    }

    fn reset(&mut self) {
        self.pipe.clear_registers();
    }

    fn layout(&self) -> ResourceUsage {
        match self.op {
            DenseOp::Distinct => self.code.bitmap(),
            DenseOp::Extremum(_) => self.code.registers(),
        }
    }

    fn name(&self) -> &'static str {
        "pisa-dense"
    }
}

/// A JOIN's exact key sets over a one-lane [`OffsetCode`] of both sides'
/// union range: side A's bitmap in stage 0, side B's in stage 1, 64 keys
/// to a register — the twin of a
/// [`JoinPruner`](cheetah_core::join::JoinPruner) over two
/// [`DenseSet`](cheetah_core::dense::DenseSet)s. Pass 1 sets a key's bit
/// in its own side's bitmap; pass 2 reads the opposite side's and
/// forwards iff the bit is set. A key outside the range, which a bound
/// JOIN never sees, sets nothing and matches nothing.
#[derive(Debug)]
pub struct DenseJoinProgram {
    pipe: SwitchPipeline,
    code: OffsetCode,
    /// Side A's and side B's bitmaps.
    sides: [RegId; 2],
    mode: JoinMode,
}

impl DenseJoinProgram {
    /// Lay a bitmap over `code`'s cells out in stages 0 and 1.
    pub fn new(spec: SwitchModel, code: OffsetCode) -> Result<Self, PipelineViolation> {
        assert_eq!(code.lanes(), 1, "a JOIN key is one lane");
        let mut pipe = SwitchPipeline::new(spec);
        let words = code.cells().div_ceil(64) as usize;
        let sides = [
            pipe.alloc_register("dense-join-a", 0, words, 0)?,
            pipe.alloc_register("dense-join-b", 1, words, 0)?,
        ];
        Ok(DenseJoinProgram {
            pipe,
            code,
            sides,
            mode: JoinMode::BuildA,
        })
    }
}

impl JoinProgram for DenseJoinProgram {
    fn set_mode(&mut self, mode: JoinMode) {
        self.mode = mode;
    }
}

impl SwitchProgram for DenseJoinProgram {
    fn pipeline(&self) -> &SwitchPipeline {
        &self.pipe
    }

    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation> {
        let [a, b] = self.sides;
        let (reg, build) = match self.mode {
            JoinMode::BuildA => (a, true),
            JoinMode::BuildB => (b, true),
            JoinMode::ProbeA => (b, false),
            JoinMode::ProbeB => (a, false),
        };
        let mut ctx = self.pipe.begin_packet(1)?;
        ctx.use_metadata(64)?;
        ctx.alu()?;
        let code = values[0].wrapping_sub(self.code.min());
        if code >= self.code.cells() {
            return Ok(Decision::Prune);
        }
        let (word, bit) = ((code >> 6) as usize, 1u64 << (code & 63));
        if build {
            ctx.reg_rmw(reg, word, |w| w | bit)?;
            return Ok(Decision::Prune);
        }
        Ok(if ctx.reg_read(reg, word)? & bit != 0 {
            Decision::Forward
        } else {
            Decision::Prune
        })
    }

    fn reset(&mut self) {
        self.pipe.clear_registers();
        self.mode = JoinMode::BuildA;
    }

    fn layout(&self) -> ResourceUsage {
        self.code.bitmap().plus(self.code.bitmap())
    }

    fn name(&self) -> &'static str {
        "pisa-dense-join"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_stage_holds_what_the_code_charges() {
        let code = OffsetCode::new(&[(3, 1_002), (0, 9)]).unwrap();
        for op in [DenseOp::Distinct, DenseOp::Extremum(Extremum::Min)] {
            let program = DenseProgram::new(SwitchModel::tofino_like(), code.clone(), op).unwrap();
            let pipe = program.pipeline();
            let layout = program.layout();
            assert_eq!(pipe.stages_occupied(), layout.stages);
            assert_eq!(pipe.sram_used().iter().sum::<u64>(), layout.sram_bits);
        }
    }

    #[test]
    fn a_join_holds_a_bitmap_a_side_in_two_stages() {
        let code = OffsetCode::new(&[(40, 1_039)]).unwrap();
        let mut program = DenseJoinProgram::new(SwitchModel::tofino_like(), code).unwrap();
        let pipe = program.pipeline();
        let layout = program.layout();
        assert_eq!((pipe.stages_occupied(), layout.stages), (2, 2));
        assert_eq!(pipe.sram_used().iter().sum::<u64>(), layout.sram_bits);
        let mut run = |mode, key| {
            program.set_mode(mode);
            program.process(&[key]).unwrap()
        };
        assert_eq!(run(JoinMode::BuildA, 40), Decision::Prune);
        assert_eq!(run(JoinMode::BuildB, 1_039), Decision::Prune);
        assert_eq!(run(JoinMode::ProbeA, 1_039), Decision::Forward);
        assert_eq!(run(JoinMode::ProbeA, 40), Decision::Prune);
        assert_eq!(run(JoinMode::ProbeB, 40), Decision::Forward);
        assert_eq!(run(JoinMode::ProbeB, 1_040), Decision::Prune);
    }

    #[test]
    fn a_stage_past_its_sram_refuses_the_program() {
        let spec = SwitchModel::tofino_like();
        let cells = spec.sram_per_stage_bits;
        let fits = OffsetCode::new(&[(0, cells - 1)]).unwrap();
        assert!(DenseProgram::new(spec, fits, DenseOp::Distinct).is_ok());
        let past = OffsetCode::new(&[(0, cells + 63)]).unwrap();
        assert!(DenseProgram::new(spec, past, DenseOp::Distinct).is_err());
    }
}
