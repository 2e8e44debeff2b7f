//! JOIN Bloom filters as switch programs.
//!
//! The partitioned Bloom filter maps naturally onto PISA: each hash
//! function owns a segment register array, touched by exactly one
//! read-modify-write per packet (OR a bit in pass 1, read it in pass 2).
//! The Register Bloom filter collapses to a single array and a single RMW.

use cheetah_core::decision::Decision;
use cheetah_core::hash::HashFn;
use cheetah_core::resources::{table2, ResourceUsage, SwitchModel};

use crate::pipeline::{PipelineViolation, RegId, SwitchPipeline};
use crate::programs::SwitchProgram;

/// Which phase/side a join packet belongs to. The switch demultiplexes on
/// the packet's flow id; here the mode is program state set by the control
/// plane between passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMode {
    /// Pass 1: record keys of side A (packets dropped after recording).
    BuildA,
    /// Pass 1: record keys of side B.
    BuildB,
    /// Pass 2: prune side-A keys against filter B.
    ProbeA,
    /// Pass 2: prune side-B keys against filter A.
    ProbeB,
}

/// A two-pass JOIN program: a key set per side, built in pass 1 and
/// probed in pass 2.
pub trait JoinProgram: SwitchProgram {
    /// Switch passes/sides (control-plane rule update between passes).
    fn set_mode(&mut self, mode: JoinMode);
}

/// Two partitioned Bloom filters (sides A and B) on the pipeline.
///
/// Segment `i` of each side is one register array of `seg_words` cells;
/// Table 2's BF row (2 stages, `H` ALUs) assumes the `*` shared-memory
/// reading, which the per-segment layout satisfies without it.
#[derive(Debug)]
pub struct BloomJoinProgram {
    pipe: SwitchPipeline,
    segs_a: Vec<RegId>,
    segs_b: Vec<RegId>,
    hashes_a: Vec<HashFn>,
    hashes_b: Vec<HashFn>,
    seg_words: usize,
    mode: JoinMode,
}

impl BloomJoinProgram {
    /// Configure with `m_bits` per side and `h` hash functions; seeds must
    /// match the core [`BloomFilter`](cheetah_core::join::BloomFilter)
    /// construction (`seed ^ (i << 32)` per hash) for differential
    /// equivalence.
    pub fn new(
        spec: SwitchModel,
        m_bits: u64,
        h: usize,
        seed_a: u64,
        seed_b: u64,
    ) -> Result<Self, PipelineViolation> {
        assert!(h >= 1 && m_bits >= 64 * h as u64);
        let seg_words = m_bits.div_ceil(64 * h as u64) as usize;
        let mut pipe = SwitchPipeline::new(spec);
        // Side A segments in stage 0, side B in stage 1 (Table 2's two
        // stages per filter).
        let segs_a = (0..h)
            .map(|_| pipe.alloc_register("join-bf-a", 0, seg_words, 0))
            .collect::<Result<Vec<_>, _>>()?;
        let segs_b = (0..h)
            .map(|_| pipe.alloc_register("join-bf-b", 1, seg_words, 0))
            .collect::<Result<Vec<_>, _>>()?;
        let hashes_a = (0..h)
            .map(|i| HashFn::new(seed_a ^ ((i as u64) << 32)))
            .collect();
        let hashes_b = (0..h)
            .map(|i| HashFn::new(seed_b ^ ((i as u64) << 32)))
            .collect();
        Ok(BloomJoinProgram {
            pipe,
            segs_a,
            segs_b,
            hashes_a,
            hashes_b,
            seg_words,
            mode: JoinMode::BuildA,
        })
    }

    /// `(word_index_within_segment, bit_mask)` for hash `i` of a side —
    /// the same arithmetic as the core partitioned filter.
    fn bit_index(&self, side_b: bool, i: usize, key: u64) -> (usize, u64) {
        let hash = if side_b {
            &self.hashes_b[i]
        } else {
            &self.hashes_a[i]
        };
        let seg_bits = self.seg_words as u64 * 64;
        let b = ((u128::from(hash.hash(key)) * u128::from(seg_bits)) >> 64) as u64;
        ((b / 64) as usize, 1u64 << (b % 64))
    }
}

impl JoinProgram for BloomJoinProgram {
    fn set_mode(&mut self, mode: JoinMode) {
        self.mode = mode;
    }
}

impl SwitchProgram for BloomJoinProgram {
    fn pipeline(&self) -> &SwitchPipeline {
        &self.pipe
    }

    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation> {
        let key = values[0];
        let h = self.hashes_a.len();
        // (target arrays, whether they belong to side B, build?)
        let (segs, side_b, build) = match self.mode {
            JoinMode::BuildA => (self.segs_a.clone(), false, true),
            JoinMode::BuildB => (self.segs_b.clone(), true, true),
            JoinMode::ProbeA => (self.segs_b.clone(), true, false),
            JoinMode::ProbeB => (self.segs_a.clone(), false, false),
        };
        // Hash-engine work happens before the match-action stages.
        let slots: Vec<(usize, u64)> = (0..h).map(|i| self.bit_index(side_b, i, key)).collect();
        let mut ctx = self.pipe.begin_packet(1)?;
        ctx.use_metadata(1)?;
        if build {
            for (i, &(word, mask)) in slots.iter().enumerate() {
                ctx.reg_rmw(segs[i], word, move |cell| cell | mask)?;
            }
            // Pass-1 metadata packets are consumed by the filter build;
            // §4.3 streams them to the master only in the asymmetric
            // (small-table) optimization, handled by the engine.
            return Ok(Decision::Prune);
        }
        let mut all_set = true;
        for (i, &(word, mask)) in slots.iter().enumerate() {
            let cell = ctx.reg_read(segs[i], word)?;
            if cell & mask == 0 {
                all_set = false;
            }
        }
        Ok(if all_set {
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
        let per_side = table2::join_bf(
            self.seg_words as u64 * 64 * self.hashes_a.len() as u64,
            self.hashes_a.len() as u32,
        );
        per_side.plus(per_side)
    }

    fn name(&self) -> &'static str {
        "pisa-join-bf"
    }
}

/// Register Bloom filters for both sides: one array and one RMW per
/// side, each side in its own stage and sized on its own (the control
/// plane knows both cardinalities before it installs the program).
#[derive(Debug)]
pub struct RbfJoinProgram {
    pipe: SwitchPipeline,
    side_a: RegId,
    side_b: RegId,
    hash_a: HashFn,
    hash_b: HashFn,
    blocks_a: usize,
    blocks_b: usize,
    h: u32,
    mode: JoinMode,
}

impl RbfJoinProgram {
    /// Configure with `bits_a` / `bits_b` filter bits for sides A / B
    /// (each rounded up to whole 64-bit registers) and `h` bits set per
    /// key; seeds match the core
    /// [`RegisterBloomFilter`](cheetah_core::join::RegisterBloomFilter)
    /// construction for differential equivalence.
    pub fn new(
        spec: SwitchModel,
        bits_a: u64,
        bits_b: u64,
        h: u32,
        seed_a: u64,
        seed_b: u64,
    ) -> Result<Self, PipelineViolation> {
        assert!((1..=10).contains(&h) && bits_a >= 64 && bits_b >= 64);
        let blocks_a = bits_a.div_ceil(64) as usize;
        let blocks_b = bits_b.div_ceil(64) as usize;
        let mut pipe = SwitchPipeline::new(spec);
        let side_a = pipe.alloc_register("join-rbf-a", 0, blocks_a, 0)?;
        let side_b = pipe.alloc_register("join-rbf-b", 1, blocks_b, 0)?;
        Ok(RbfJoinProgram {
            pipe,
            side_a,
            side_b,
            hash_a: HashFn::new(seed_a),
            hash_b: HashFn::new(seed_b),
            blocks_a,
            blocks_b,
            h,
            mode: JoinMode::BuildA,
        })
    }

    fn slot(&self, side_b: bool, key: u64) -> (usize, u64) {
        let (hash, blocks) = if side_b {
            (&self.hash_b, self.blocks_b)
        } else {
            (&self.hash_a, self.blocks_a)
        };
        let hv = hash.hash(key);
        let block = ((u128::from(hv) * blocks as u128) >> 64) as usize;
        let mut mask = 0u64;
        for i in 0..self.h {
            mask |= 1u64 << ((hv >> (6 * i)) & 63);
        }
        (block, mask)
    }
}

impl JoinProgram for RbfJoinProgram {
    fn set_mode(&mut self, mode: JoinMode) {
        self.mode = mode;
    }
}

impl SwitchProgram for RbfJoinProgram {
    fn pipeline(&self) -> &SwitchPipeline {
        &self.pipe
    }

    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation> {
        let key = values[0];
        let (side_b, build, reg) = match self.mode {
            JoinMode::BuildA => (false, true, self.side_a),
            JoinMode::BuildB => (true, true, self.side_b),
            JoinMode::ProbeA => (true, false, self.side_b),
            JoinMode::ProbeB => (false, false, self.side_a),
        };
        let (block, mask) = self.slot(side_b, key);
        let mut ctx = self.pipe.begin_packet(1)?;
        ctx.use_metadata(1)?;
        if build {
            ctx.reg_rmw(reg, block, move |c| c | mask)?;
            return Ok(Decision::Prune);
        }
        let cell = ctx.reg_read(reg, block)?;
        Ok(if cell & mask == mask {
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
        table2::join_rbf(self.blocks_a as u64 * 64, self.h)
            .plus(table2::join_rbf(self.blocks_b as u64 * 64, self.h))
    }

    fn name(&self) -> &'static str {
        "pisa-join-rbf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_two_pass_prunes_non_matches() {
        let mut p = BloomJoinProgram::new(SwitchModel::tofino_like(), 1 << 14, 3, 0, 1).unwrap();
        // Build: A has 0..100, B has 50..150.
        p.set_mode(JoinMode::BuildA);
        for k in 0..100u64 {
            assert_eq!(p.process(&[k]).unwrap(), Decision::Prune);
        }
        p.set_mode(JoinMode::BuildB);
        for k in 50..150u64 {
            p.process(&[k]).unwrap();
        }
        // Probe A: matching keys (50..100) always forwarded.
        p.set_mode(JoinMode::ProbeA);
        for k in 50..100u64 {
            assert_eq!(p.process(&[k]).unwrap(), Decision::Forward, "key {k}");
        }
        // Far-away keys mostly pruned.
        let pruned = (1_000_000..1_001_000u64)
            .filter(|&k| p.process(&[k]).unwrap() == Decision::Prune)
            .count();
        assert!(pruned > 950, "expected heavy pruning, got {pruned}/1000");
    }

    #[test]
    fn rbf_two_pass_no_false_negatives() {
        let mut p =
            RbfJoinProgram::new(SwitchModel::tofino_like(), 1 << 14, 1 << 10, 3, 0, 1).unwrap();
        p.set_mode(JoinMode::BuildB);
        for k in 0..500u64 {
            p.process(&[k * 3]).unwrap();
        }
        p.set_mode(JoinMode::ProbeA);
        for k in 0..500u64 {
            assert_eq!(
                p.process(&[k * 3]).unwrap(),
                Decision::Forward,
                "matching key {k} pruned"
            );
        }
    }

    #[test]
    fn reset_clears_filters() {
        let mut p = RbfJoinProgram::new(SwitchModel::tofino_like(), 1 << 10, 64, 3, 0, 1).unwrap();
        p.set_mode(JoinMode::BuildB);
        p.process(&[42]).unwrap();
        p.set_mode(JoinMode::ProbeA);
        assert_eq!(p.process(&[42]).unwrap(), Decision::Forward);
        p.reset();
        p.set_mode(JoinMode::ProbeA);
        assert_eq!(p.process(&[42]).unwrap(), Decision::Prune);
    }

    #[test]
    fn layouts_match_table2() {
        // Segment-divisible size (3 segments of 16384 words each).
        let m = 3 * (1u64 << 20);
        let p = BloomJoinProgram::new(SwitchModel::tofino_like(), m, 3, 0, 1).unwrap();
        assert_eq!(p.layout().stages, 4); // 2 per side
        assert_eq!(p.layout().sram_bits, 2 * m);
        let p = RbfJoinProgram::new(SwitchModel::tofino_like(), m, m, 3, 0, 1).unwrap();
        assert_eq!(p.layout().stages, 2); // 1 per side
        assert_eq!(p.layout().alus, 2);
    }
}
