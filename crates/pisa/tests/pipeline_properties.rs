//! Property-based tests of the pipeline's constraint enforcement: for any
//! allocation pattern and any input stream, budgets bind exactly when the
//! arithmetic says they should, and the switch programs never violate
//! their own envelopes.

use proptest::collection::vec;
use proptest::prelude::*;

use cheetah_core::groupby::Extremum;
use cheetah_core::SwitchModel;
use cheetah_pisa::programs::{
    DetTopNProgram, DistinctFifoProgram, DistinctLruProgram, GroupByProgram, RandTopNProgram,
    SeqTrackProgram, SwitchProgram,
};
use cheetah_pisa::tcam::{range_to_prefixes, Tcam};
use cheetah_pisa::SwitchPipeline;

/// A drawn key, its range's top `top` standing for `u64::MAX`: the key the
/// PISA matrices forward without touching state.
fn with_max(k: u64, top: u64) -> u64 {
    if k == top {
        u64::MAX
    } else {
        k
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SRAM allocation succeeds iff the per-stage budget holds.
    #[test]
    fn sram_budget_binds_exactly(
        sizes in vec(1usize..2_000, 1..20),
        stage in 0u32..12,
    ) {
        let spec = SwitchModel::tofino_like();
        let mut pipe = SwitchPipeline::new(spec);
        let budget_cells = (spec.sram_per_stage_bits / 64) as usize;
        let mut used = 0usize;
        for (i, &cells) in sizes.iter().enumerate() {
            let r = pipe.alloc_register("prop", stage, cells, 0);
            if used + cells <= budget_cells {
                prop_assert!(r.is_ok(), "alloc {i} ({cells} cells) should fit");
                used += cells;
            } else {
                prop_assert!(r.is_err(), "alloc {i} should overflow");
                break;
            }
        }
    }

    /// Any in-range single access sequence works; the second access to the
    /// same array always fails.
    #[test]
    fn single_rmw_rule(
        indices in vec(0usize..64, 1..10),
        seed in any::<u64>(),
    ) {
        let mut pipe = SwitchPipeline::new(SwitchModel::tofino_like());
        let regs: Vec<_> = (0..indices.len())
            .map(|i| pipe.alloc_register("r", (i % 12) as u32, 64, 0).unwrap())
            .collect();
        // Registers must be visited in stage order: sort by stage.
        let mut order: Vec<usize> = (0..regs.len()).collect();
        order.sort_by_key(|&i| i % 12);
        let mut ctx = pipe.begin_packet(1).unwrap();
        for &i in &order {
            prop_assert!(ctx.reg_rmw(regs[i], indices[i], |v| v ^ seed).is_ok());
        }
        // Re-access any of them: violation.
        let again = order[0];
        prop_assert!(ctx.reg_rmw(regs[again], indices[again], |v| v).is_err());
    }

    /// The LRU DISTINCT program never errors on any key, 0 and `u64::MAX`
    /// included, and its decisions are sane (first occurrence always
    /// forwards).
    #[test]
    fn distinct_program_total_on_every_key(
        keys in vec(0u64..=500, 1..400),
        d in 1usize..128,
        w in 1usize..6,
    ) {
        let mut prog =
            DistinctLruProgram::new(SwitchModel::tofino_like(), d, w, 3).unwrap();
        let mut seen = std::collections::HashSet::new();
        for k in keys.into_iter().map(|k| with_max(k, 500)) {
            let dec = prog.process(&[k]).expect("no pipeline violations");
            if seen.insert(k) {
                prop_assert!(dec.is_forward());
            }
        }
    }

    /// FIFO variant: same totality property under the wide primitive.
    #[test]
    fn fifo_program_total_on_every_key(
        keys in vec(0u64..=300, 1..300),
        d in 1usize..64,
        w in 1usize..5,
    ) {
        let mut prog =
            DistinctFifoProgram::new(SwitchModel::tofino_like(), d, w, 5).unwrap();
        let mut seen = std::collections::HashSet::new();
        for k in keys.into_iter().map(|k| with_max(k, 300)) {
            let dec = prog.process(&[k]).expect("no pipeline violations");
            if seen.insert(k) {
                prop_assert!(dec.is_forward());
            }
        }
    }

    /// Randomized/deterministic TOP N programs are total over arbitrary
    /// values (including 0 and u64::MAX).
    #[test]
    fn topn_programs_total(values in vec(any::<u64>(), 1..300)) {
        let mut rand = RandTopNProgram::new(SwitchModel::tofino_like(), 64, 4, 1).unwrap();
        let mut det = DetTopNProgram::new(SwitchModel::tofino_like(), 10, 4).unwrap();
        for &v in &values {
            rand.process(&[v]).expect("rand total");
            det.process(&[v]).expect("det total");
        }
    }

    /// The GROUP BY program's wide access is total and never loses a
    /// strict improvement.
    #[test]
    fn groupby_program_never_prunes_improvement(
        entries in vec((0u64..=80, 0u64..10_000), 1..400),
    ) {
        let entries = entries.into_iter().map(|(k, v)| (with_max(k, 80), v));
        let spec = SwitchModel {
            alus_per_stage: 16,
            ..SwitchModel::tofino_like()
        };
        let mut prog = GroupByProgram::new(spec, 16, 3, Extremum::Max, 2).unwrap();
        let mut best: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (k, v) in entries {
            let dec = prog.process(&[k, v]).expect("total");
            let cur = best.entry(k).or_insert(0);
            if v > *cur {
                prop_assert!(dec.is_forward(), "improvement {v} over {cur} pruned");
                *cur = v;
            }
        }
    }

    /// Sequence tracking is total and matches a trivial software model.
    #[test]
    fn seqtrack_matches_model(seqs in vec(0u32..20, 1..200)) {
        use cheetah_pisa::programs::SeqAction;
        let mut prog = SeqTrackProgram::new(SwitchModel::tofino_like(), 4).unwrap();
        let mut expected = 0u32;
        for &seq in &seqs {
            let action = prog.on_packet(1, seq).expect("total");
            let model = if seq == expected {
                expected += 1;
                SeqAction::Process
            } else if seq < expected {
                SeqAction::PassThrough
            } else {
                SeqAction::Drop
            };
            prop_assert_eq!(action, model, "seq {}", seq);
        }
    }

    /// Range-to-prefix expansion covers arbitrary ranges exactly.
    #[test]
    fn prefix_expansion_exact(
        a in 0u64..u16::MAX as u64,
        b in 0u64..u16::MAX as u64,
        probes in vec(0u64..u16::MAX as u64, 1..50),
    ) {
        let (lo, hi) = (a.min(b), a.max(b));
        let mut t = Tcam::new();
        t.push_range(lo, hi, 16, 1);
        for &p in &probes {
            prop_assert_eq!(
                t.lookup(p).is_some(),
                (lo..=hi).contains(&p),
                "probe {} against [{}, {}]", p, lo, hi
            );
        }
        // And the rule count respects the 2·bits bound.
        prop_assert!(range_to_prefixes(lo, hi, 16).len() <= 32);
    }

    /// MSB finder agrees with leading_zeros for arbitrary values.
    #[test]
    fn msb_finder_exact(v in 1u64..=u64::MAX) {
        let t = Tcam::msb_finder();
        prop_assert_eq!(t.lookup(v), Some(u64::from(63 - v.leading_zeros())));
    }
}
