//! Property-based tests (proptest) for the crate-spanning invariants the
//! paper's correctness rests on. Each property is the executable form of
//! a safety claim from §4/§5/§7.

use proptest::collection::vec;
use proptest::prelude::*;

use cheetah::core::decision::RowPruner;
use cheetah::core::dense::{DenseDistinct, DenseGroupBy, OffsetCode};
use cheetah::core::distinct::{CacheMatrix, EvictionPolicy};
use cheetah::core::filter::{Atom, CmpOp, FilterPruner, Formula};
use cheetah::core::groupby::{Extremum, GroupByPruner, GroupBySumPruner, SumAction};
use cheetah::core::having::HavingPruner;
use cheetah::core::join::{BloomFilter, KeyFilter, RegisterBloomFilter};
use cheetah::core::opt::{OptDistinct, OptGroupByMax};
use cheetah::core::skyline::{dominates, Heuristic, SkylinePruner};
use cheetah::core::topn::DeterministicTopN;
use cheetah::net::{Simulation, SimulationConfig, SwitchNode, WorkerTx};

use std::collections::{HashMap, HashSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dense DISTINCT, DistinctMulti (a two-lane code) and GROUP BY
    /// MAX/MIN forward exactly as many entries as `opt`'s unconstrained
    /// baselines: an offset indexes its own cell, so nothing collides and
    /// nothing is evicted.
    #[test]
    fn dense_pruners_forward_exactly_opts_count(
        rows in vec((0u64..500, 0u64..20, 0u64..10_000), 1..2_000),
        base in any::<u32>(),
    ) {
        let base = u64::from(base);
        let key = |&(k, _, _): &(u64, u64, u64)| base + k;
        let one = OffsetCode::new(&[(base, base + 499)]).expect("one lane");
        let two = OffsetCode::new(&[(base, base + 499), (0, 19)]).expect("two lanes");
        let forwarded = |decisions: &mut dyn Iterator<Item = bool>| decisions.filter(|&f| f).count();

        let mut dense = DenseDistinct::new(one.clone());
        let mut opt = OptDistinct::new();
        let got = forwarded(&mut rows.iter().map(|r| dense.process_row(&[key(r)]).is_forward()));
        let want = forwarded(&mut rows.iter().map(|r| opt.process(key(r)).is_forward()));
        prop_assert_eq!(got, want, "distinct");

        // A tuple's OPT key: the pair, injectively in one word.
        let mut dense = DenseDistinct::new(two);
        let mut opt = OptDistinct::new();
        let got = forwarded(&mut rows.iter().map(|r| dense.process_row(&[key(r), r.1]).is_forward()));
        let want = forwarded(&mut rows.iter().map(|r| opt.process(key(r) * 20 + r.1).is_forward()));
        prop_assert_eq!(got, want, "distinct multi");

        // MIN improves where MAX of the complement does.
        for (ext, flip) in [(Extremum::Max, 0), (Extremum::Min, u64::MAX)] {
            let mut dense = DenseGroupBy::new(one.clone(), ext);
            let mut opt = OptGroupByMax::new();
            let got = forwarded(&mut rows.iter().map(|r| dense.process(key(r), r.2).is_forward()));
            let want = forwarded(&mut rows.iter().map(|r| opt.process(key(r), flip ^ r.2).is_forward()));
            prop_assert_eq!(got, want, "{:?}", ext);
        }
    }

    /// DISTINCT never prunes a first occurrence (no false positives), for
    /// any stream, matrix shape, or policy.
    #[test]
    fn distinct_no_false_positives(
        stream in vec(0u64..200, 1..800),
        d in 1usize..64,
        w in 1usize..8,
        lru in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let policy = if lru { EvictionPolicy::Lru } else { EvictionPolicy::Fifo };
        let mut m = CacheMatrix::new(d, w, policy, seed);
        let mut seen = HashSet::new();
        for &v in &stream {
            let dec = m.process(v);
            if seen.insert(v) {
                prop_assert!(dec.is_forward(), "first occurrence of {} pruned", v);
            }
        }
    }

    /// Deterministic TOP N forwards a multiset superset of the true top-n.
    #[test]
    fn det_topn_superset(
        stream in vec(0u64..100_000, 1..1_000),
        n in 1u64..50,
        w in 1usize..8,
    ) {
        let mut p = DeterministicTopN::new(n, w);
        let forwarded: Vec<u64> =
            stream.iter().copied().filter(|&v| p.process(v).is_forward()).collect();
        let mut top = stream.clone();
        top.sort_unstable_by(|a, b| b.cmp(a));
        top.truncate(n as usize);
        let mut fwd_sorted = forwarded;
        fwd_sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Multiset inclusion check.
        let mut fi = 0;
        for t in top {
            while fi < fwd_sorted.len() && fwd_sorted[fi] > t { fi += 1; }
            prop_assert!(fi < fwd_sorted.len() && fwd_sorted[fi] == t,
                "top value {} missing from forwarded", t);
            fi += 1;
        }
    }

    /// Bloom filters (both variants) never report false negatives.
    #[test]
    fn filters_no_false_negatives(
        keys in vec(any::<u64>(), 1..500),
        seed in any::<u64>(),
    ) {
        let mut bf = BloomFilter::new(1 << 12, 3, seed);
        let mut rbf = RegisterBloomFilter::new(1 << 12, 3, seed);
        for &k in &keys {
            bf.insert(k);
            rbf.insert(k);
        }
        for &k in &keys {
            prop_assert!(bf.contains(k));
            prop_assert!(rbf.contains(k));
        }
    }

    /// GROUP BY MAX: the master always reconstructs exact maxima.
    #[test]
    fn groupby_master_exact(
        entries in vec((0u64..50, 0u64..10_000), 1..1_000),
        d in 1usize..32,
        w in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut p = GroupByPruner::new(d, w, Extremum::Max, seed);
        let mut master: HashMap<u64, u64> = HashMap::new();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            let e = truth.entry(k).or_insert(0);
            *e = (*e).max(v);
            if p.process(k, v).is_forward() {
                let e = master.entry(k).or_insert(0);
                *e = (*e).max(v);
            }
        }
        prop_assert_eq!(master, truth);
    }

    /// GROUP BY SUM partial aggregation: evictions + drain = exact sums.
    #[test]
    fn groupby_sum_exact(
        entries in vec((0u64..50, 0u64..1_000), 1..1_000),
        d in 1usize..16,
        w in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut p = GroupBySumPruner::new(d, w, seed);
        let mut master: HashMap<u64, u64> = HashMap::new();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            *truth.entry(k).or_insert(0) += v;
            if let SumAction::EvictAndForward { key, partial } = p.process(k, v) {
                *master.entry(key).or_insert(0) += partial;
            }
        }
        for (key, partial) in p.drain() {
            *master.entry(key).or_insert(0) += partial;
        }
        prop_assert_eq!(master, truth);
    }

    /// HAVING: the two-pass Count-Min flow never loses an output key.
    #[test]
    fn having_no_lost_output_keys(
        entries in vec((0u64..40, 0u64..500), 1..800),
        threshold in 1u64..5_000,
        d in 1usize..4,
        w in 2usize..64,
        seed in any::<u64>(),
    ) {
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            *truth.entry(k).or_insert(0) += v;
        }
        let mut p = HavingPruner::new(d, w, threshold, seed);
        for &(k, v) in &entries {
            p.pass_one(k, v);
        }
        let mut master: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            if p.pass_two(k).is_forward() {
                *master.entry(k).or_insert(0) += v;
            }
        }
        for (&k, &s) in &truth {
            if s > threshold {
                prop_assert_eq!(master.get(&k), Some(&s), "output key {} lost", k);
            }
        }
    }

    /// SKYLINE: the master's skyline over survivors equals the truth, for
    /// any heuristic and store size.
    #[test]
    fn skyline_master_exact(
        points in vec((1u64..1_000, 1u64..1_000), 1..400),
        w in 1usize..12,
        which in 0usize..4,
    ) {
        let h = match which {
            0 => Heuristic::Sum,
            1 => Heuristic::Product,
            2 => Heuristic::aph_default(),
            _ => Heuristic::Baseline,
        };
        let pts: Vec<Vec<u64>> = points.iter().map(|&(a, b)| vec![a, b]).collect();
        let mut p = SkylinePruner::new(2, w, h);
        let survivors: Vec<Vec<u64>> =
            pts.iter().filter(|pt| p.process(pt).is_forward()).cloned().collect();
        // Frontier of survivors == frontier of everything.
        let frontier = |set: &[Vec<u64>]| -> HashSet<Vec<u64>> {
            set.iter()
                .filter(|p| !set.iter().any(|q| dominates(q, p)))
                .cloned()
                .collect()
        };
        prop_assert_eq!(frontier(&survivors), frontier(&pts));
    }

    /// Filter decomposition soundness: the switch never prunes a row the
    /// full predicate accepts, for arbitrary formulas over 3 atoms.
    #[test]
    fn filter_decomposition_sound(
        rows in vec((0u64..20, 0u64..20, 0u64..20), 1..200),
        c0 in 0u64..20, c1 in 0u64..20, c2 in 0u64..20,
        sup0 in any::<bool>(), sup1 in any::<bool>(), sup2 in any::<bool>(),
        shape in 0usize..4,
    ) {
        let mk = |col: usize, c: u64, sup: bool| {
            if sup { Atom::cmp(col, CmpOp::Gt, c) } else { Atom::unsupported(col, CmpOp::Gt, c) }
        };
        let atoms = vec![mk(0, c0, sup0), mk(1, c1, sup1), mk(2, c2, sup2)];
        let formula = match shape {
            0 => Formula::And(vec![Formula::Atom(0), Formula::Or(vec![Formula::Atom(1), Formula::Atom(2)])]),
            1 => Formula::Or(vec![Formula::Atom(0), Formula::And(vec![Formula::Atom(1), Formula::NotAtom(2)])]),
            2 => Formula::And(vec![Formula::NotAtom(0), Formula::Atom(1), Formula::Atom(2)]),
            _ => Formula::Or(vec![Formula::Atom(0), Formula::Atom(1), Formula::Atom(2)]),
        };
        // NotAtom over an unsupported atom is also relaxed to True by
        // decompose(); soundness must hold regardless.
        let p = FilterPruner::new(atoms, formula).expect("≤3 atoms");
        for &(a, b, c) in &rows {
            let row = [a, b, c];
            if p.master_accepts(&row) {
                prop_assert!(p.process(&row).is_forward(),
                    "pruned an accepted row {:?}", row);
            }
        }
    }

    /// Protocol: under any loss rate < 50%, every distinct value reaches
    /// the master (delivery-or-prune-ack, §7.2).
    #[test]
    fn protocol_delivers_under_arbitrary_loss(
        entries in vec(1u64..60, 1..150),
        loss in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let truth: HashSet<u64> = entries.iter().copied().collect();
        let rows: Vec<Vec<u64>> = entries.iter().map(|&v| vec![v]).collect();
        let workers = vec![WorkerTx::new(1, rows, 8, 100)];
        let pruner = std::sync::Mutex::new(
            cheetah::core::distinct::DistinctPruner::new(16, 2, EvictionPolicy::Lru, seed));
        let switch = SwitchNode::new(Box::new(move |_f, row| {
            use cheetah::core::RowPruner;
            pruner.lock().expect("no poisoning").process_row(row)
        }));
        let cfg = SimulationConfig {
            loss_rate: loss,
            seed,
            rto_us: 100,
            window: 8,
            ..SimulationConfig::default()
        };
        let (master, stats) = Simulation::new(cfg).run(workers, switch);
        prop_assert!(stats.completed, "protocol stalled at loss {}", loss);
        let got: HashSet<u64> =
            master.delivered().iter().map(|(_, _, v)| v[0]).collect();
        prop_assert_eq!(got, truth);
    }
}
