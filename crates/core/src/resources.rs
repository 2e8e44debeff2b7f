//! Switch resource accounting (Table 2 of the paper, §7 and Appendix A.2).
//!
//! Every Cheetah algorithm is parametric and must fit the pipeline's
//! per-stage ALU count, SRAM, TCAM and stage budget. This module holds the
//! closed-form resource formulas from Table 2 plus a simple switch model
//! with Tofino-like defaults, used by the experiment reproducing Table 2
//! and by the per-stage placer `cheetah_pisa::pack`, which packs several
//! queries' usages stage by stage onto one pipeline (§6).

/// Resources one algorithm instance consumes on the switch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Pipeline stages occupied.
    pub stages: u32,
    /// Total stateful ALUs used across those stages.
    pub alus: u32,
    /// SRAM bits for registers / match-action tables.
    pub sram_bits: u64,
    /// TCAM entries (ternary rules), e.g. for APH MSB lookup or range match.
    pub tcam_entries: u32,
}

impl ResourceUsage {
    /// Component-wise sum of two parts of one program laid out in
    /// successive stages (a JOIN's two filters, a TOP N matrix and its
    /// sequence counter).
    ///
    /// Co-resident queries are never summed: the per-stage placer
    /// `cheetah_pisa::pack` decides whether they share the pipeline, and
    /// puts queries heavy in *different* resources in the same stages (§6).
    pub fn plus(self, other: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            stages: self.stages + other.stages,
            alus: self.alus + other.alus,
            sram_bits: self.sram_bits + other.sram_bits,
            tcam_entries: self.tcam_entries + other.tcam_entries,
        }
    }

    /// SRAM usage in kilobytes (for printing Table 2).
    pub fn sram_kb(&self) -> f64 {
        self.sram_bits as f64 / 8.0 / 1024.0
    }

    /// Whether this usage fits a switch model at all (stage count, total
    /// ALU/SRAM/TCAM capacity).
    pub fn fits(&self, model: &SwitchModel) -> bool {
        self.stages <= model.stages
            && self.alus <= model.stages * model.alus_per_stage
            && self.sram_bits <= u64::from(model.stages) * model.sram_per_stage_bits
            && self.tcam_entries <= model.tcam_entries
    }
}

/// A PISA switch resource envelope.
///
/// Defaults follow the constraints quoted in §2.2: 12–60 stages (we use a
/// conservative 12 per pipeline pass), around ten comparisons per stage,
/// under 100 MB of SRAM split across stages, and 100K–300K TCAM entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchModel {
    /// Match-action pipeline stages available to Cheetah.
    pub stages: u32,
    /// Stateful ALUs per stage ("no more than ten comparisons in one stage").
    pub alus_per_stage: u32,
    /// SRAM bits per stage.
    pub sram_per_stage_bits: u64,
    /// Total TCAM entries.
    pub tcam_entries: u32,
    /// Bits of packet header vector that can cross stages (§2.2: 10–20 B of
    /// values per entry; the PHV itself is larger, this is Cheetah's share).
    pub phv_bits: u32,
}

impl SwitchModel {
    /// A Tofino-like envelope used throughout the evaluation.
    pub fn tofino_like() -> Self {
        SwitchModel {
            stages: 12,
            alus_per_stage: 10,
            // ~4 MB per stage ⇒ 48 MB total, inside the "<100MB" quote.
            sram_per_stage_bits: 4 * 8 * 1024 * 1024,
            tcam_entries: 100_000,
            // Figure 4's variable-length value area: up to four 64-bit
            // values per entry (the paper quotes 10–20 B as typical).
            phv_bits: 256,
        }
    }

    /// A second-generation (Tofino-2-like) envelope: more stages and SRAM.
    pub fn tofino2_like() -> Self {
        SwitchModel {
            stages: 20,
            alus_per_stage: 10,
            sram_per_stage_bits: 8 * 8 * 1024 * 1024,
            tcam_entries: 300_000,
            phv_bits: 256,
        }
    }
}

impl Default for SwitchModel {
    fn default() -> Self {
        SwitchModel::tofino_like()
    }
}

/// Table 2 formulas. `a` is the per-stage ALU count `A` of the switch.
pub mod table2 {
    use super::ResourceUsage;

    /// DISTINCT with FIFO replacement: `⌈w/A⌉` stages, `w` ALUs,
    /// `(d·w)×64b` SRAM (assumes same-stage ALUs share memory).
    pub fn distinct_fifo(w: u32, d: u64, a: u32) -> ResourceUsage {
        ResourceUsage {
            stages: w.div_ceil(a),
            alus: w,
            sram_bits: d * u64::from(w) * 64,
            tcam_entries: 0,
        }
    }

    /// DISTINCT with LRU (rolling) replacement: `w` stages, `w` ALUs.
    pub fn distinct_lru(w: u32, d: u64) -> ResourceUsage {
        ResourceUsage {
            stages: w,
            alus: w,
            sram_bits: d * u64::from(w) * 64,
            tcam_entries: 0,
        }
    }

    /// SKYLINE with the SUM projection: `log₂D + 2w` stages,
    /// `2log₂D − 1 + w(D+1)` ALUs, `w(D+1)×64b` SRAM.
    pub fn skyline_sum(dims: u32, w: u32) -> ResourceUsage {
        let log_d = dims.max(1).ilog2(); // ⌊log₂D⌋
        ResourceUsage {
            stages: log_d + 2 * w,
            alus: (2 * log_d).saturating_sub(1) + w * (dims + 1),
            sram_bits: u64::from(w) * u64::from(dims + 1) * 64,
            tcam_entries: 0,
        }
    }

    /// SKYLINE with the Approximate Product Heuristic:
    /// `log₂D + 2(w+1)` stages, `w(D+1)×64b + 2¹⁶×32b` SRAM, `64·D` TCAM.
    pub fn skyline_aph(dims: u32, w: u32) -> ResourceUsage {
        let log_d = dims.max(1).ilog2();
        ResourceUsage {
            stages: log_d + 2 * (w + 1),
            alus: (2 * log_d).saturating_sub(1) + w * (dims + 1),
            sram_bits: u64::from(w) * u64::from(dims + 1) * 64 + (1 << 16) * 32,
            tcam_entries: 64 * dims,
        }
    }

    /// Deterministic TOP N: `w+1` stages, `w+1` ALUs, `(w+1)×64b` SRAM.
    pub fn topn_det(w: u32) -> ResourceUsage {
        ResourceUsage {
            stages: w + 1,
            alus: w + 1,
            sram_bits: u64::from(w + 1) * 64,
            tcam_entries: 0,
        }
    }

    /// Randomized TOP N: `w` stages, `w` ALUs, `(d·w)×64b` SRAM.
    pub fn topn_rand(w: u32, d: u64) -> ResourceUsage {
        ResourceUsage {
            stages: w,
            alus: w,
            sram_bits: d * u64::from(w) * 64,
            tcam_entries: 0,
        }
    }

    /// GROUP BY: `w` stages, `w` ALUs, `d·w×64b` SRAM.
    pub fn group_by(w: u32, d: u64) -> ResourceUsage {
        ResourceUsage {
            stages: w,
            alus: w,
            sram_bits: d * u64::from(w) * 64,
            tcam_entries: 0,
        }
    }

    /// JOIN with a classic Bloom filter of `m_bits` and `h` hash functions:
    /// 2 stages, `h` ALUs, `M` SRAM.
    pub fn join_bf(m_bits: u64, h: u32) -> ResourceUsage {
        ResourceUsage {
            stages: 2,
            alus: h,
            sram_bits: m_bits,
            tcam_entries: 0,
        }
    }

    /// JOIN with the Register Bloom filter: 1 stage, 1 ALU,
    /// `M + ⌈64/H⌉×64b` SRAM (the pattern table).
    pub fn join_rbf(m_bits: u64, h: u32) -> ResourceUsage {
        ResourceUsage {
            stages: 1,
            alus: 1,
            sram_bits: m_bits + u64::from(64u32.div_ceil(h)) * 64,
            tcam_entries: 0,
        }
    }

    /// HAVING with a `d`-row, `w`-column Count-Min sketch:
    /// `⌈d/A⌉` stages, `d` ALUs, `(d·w)×64b` SRAM.
    pub fn having(w: u64, d: u32, a: u32) -> ResourceUsage {
        ResourceUsage {
            stages: d.div_ceil(a),
            alus: d,
            sram_bits: u64::from(d) * w * 64,
            tcam_entries: 0,
        }
    }

    /// Filtering one runtime-configurable predicate: 1 ALU, one 32-bit
    /// register for the constant (Appendix A.2.2).
    pub fn filter(predicates: u32) -> ResourceUsage {
        ResourceUsage {
            stages: 1,
            alus: predicates,
            sram_bits: u64::from(predicates) * 32,
            tcam_entries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::table2::*;
    use super::*;

    #[test]
    fn table2_distinct_defaults() {
        // Defaults w=2, d=4096 on a switch with A=10 ALUs/stage.
        let fifo = distinct_fifo(2, 4096, 10);
        assert_eq!(fifo.stages, 1);
        assert_eq!(fifo.alus, 2);
        assert_eq!(fifo.sram_bits, 4096 * 2 * 64);
        let lru = distinct_lru(2, 4096);
        assert_eq!(lru.stages, 2);
    }

    #[test]
    fn table2_skyline_defaults() {
        // Defaults D=2, w=10.
        let sum = skyline_sum(2, 10);
        assert_eq!(sum.stages, 1 + 20); // log₂2 + 2·10
        assert_eq!(sum.sram_bits, 10 * 3 * 64);
        assert_eq!(sum.tcam_entries, 0);
        let aph = skyline_aph(2, 10);
        assert_eq!(aph.stages, 1 + 22); // log₂2 + 2(w+1)
        assert_eq!(aph.sram_bits, 10 * 3 * 64 + (1 << 16) * 32);
        assert_eq!(aph.tcam_entries, 128); // 64·D
    }

    #[test]
    fn table2_topn_defaults() {
        // Defaults N=250, w=4 (det) and w=4, d=4096 (rand).
        let det = topn_det(4);
        assert_eq!(det.stages, 5);
        assert_eq!(det.alus, 5);
        assert_eq!(det.sram_bits, 5 * 64);
        let rand = topn_rand(4, 4096);
        assert_eq!(rand.stages, 4);
        assert_eq!(rand.sram_bits, 4096 * 4 * 64);
    }

    #[test]
    fn table2_join_defaults() {
        // Defaults M=4MB, H=3.
        let m_bits = 4 * 8 * 1024 * 1024;
        let bf = join_bf(m_bits, 3);
        assert_eq!(bf.stages, 2);
        assert_eq!(bf.alus, 3);
        assert_eq!(bf.sram_bits, m_bits);
        let rbf = join_rbf(m_bits, 3);
        assert_eq!(rbf.stages, 1);
        assert_eq!(rbf.alus, 1);
        assert_eq!(rbf.sram_bits, m_bits + 22 * 64); // ⌈64/3⌉ = 22 patterns
    }

    #[test]
    fn table2_having_defaults() {
        // Defaults w=1024, d=3, A=10.
        let h = having(1024, 3, 10);
        assert_eq!(h.stages, 1);
        assert_eq!(h.alus, 3);
        assert_eq!(h.sram_bits, 3 * 1024 * 64);
    }

    #[test]
    fn table2_groupby_defaults() {
        let g = group_by(8, 4096);
        assert_eq!(g.stages, 8);
        assert_eq!(g.alus, 8);
        assert_eq!(g.sram_bits, 4096 * 8 * 64);
    }

    #[test]
    fn defaults_fit_tofino() {
        let m = SwitchModel::tofino_like();
        assert!(distinct_fifo(2, 4096, m.alus_per_stage).fits(&m));
        assert!(topn_det(4).fits(&m));
        assert!(topn_rand(4, 4096).fits(&m));
        assert!(group_by(8, 4096).fits(&m));
        assert!(join_bf(4 * 8 * 1024 * 1024, 3).fits(&m));
        assert!(join_rbf(4 * 8 * 1024 * 1024, 3).fits(&m));
        assert!(having(1024, 3, m.alus_per_stage).fits(&m));
        assert!(filter(1).fits(&m));
        // SKYLINE at its Table 2 default w=10 needs 21 stages — more than
        // one 12-stage pipeline pass, as the paper notes SKYLINE is
        // stage-hungry; it fits the Tofino-2-like model.
        assert!(!skyline_sum(2, 10).fits(&m));
        assert!(skyline_sum(2, 9).fits(&SwitchModel::tofino2_like()));
    }

    #[test]
    fn usage_plus_accumulates() {
        let a = topn_det(4);
        let b = filter(1);
        let s = a.plus(b);
        assert_eq!(s.stages, a.stages + b.stages);
        assert_eq!(s.alus, a.alus + b.alus);
        assert_eq!(s.sram_bits, a.sram_bits + b.sram_bits);
    }

    #[test]
    fn sram_kb_conversion() {
        let u = ResourceUsage {
            stages: 0,
            alus: 0,
            sram_bits: 8 * 1024 * 10,
            tcam_entries: 0,
        };
        assert!((u.sram_kb() - 10.0).abs() < 1e-12);
    }
}
