//! Differential testing: every `cheetah-pisa` switch program must make
//! byte-identical prune/forward decisions to its `cheetah-core` reference
//! on the same stream — the evidence that the constrained dataplane
//! faithfully implements the algorithms the theorems analyze.

use cheetah::core::decision::Decision;
use cheetah::core::dense::{DenseDistinct, DenseGroupBy, DenseSet, OffsetCode};
use cheetah::core::distinct::{DistinctPruner, EvictionPolicy};
use cheetah::core::groupby::{Extremum, GroupByPruner};
use cheetah::core::having::HavingPruner;
use cheetah::core::join::{BloomFilter, JoinPruner, KeyFilter, RegisterBloomFilter, Side};
use cheetah::core::skyline::{Heuristic, SkylinePruner};
use cheetah::core::topn::{DeterministicTopN, RandomizedTopN};
use cheetah::core::SwitchModel;
use cheetah::pisa::programs::{
    BloomJoinProgram, DenseJoinProgram, DenseOp, DenseProgram, DetTopNProgram, DistinctFifoProgram,
    DistinctLruProgram, GroupByProgram, HavingPhase, HavingProgram, JoinMode, JoinProgram,
    RandTopNProgram, RbfJoinProgram, SkylineProgram, SkylineScoring,
};
use cheetah::pisa::SwitchProgram;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0xd1ff;
const N: usize = 30_000;

/// `n` keys over `0..domain` and `u64::MAX`, each drawn as often.
fn keys(n: usize, domain: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let key = |k| if k == domain { u64::MAX } else { k };
    (0..n).map(|_| key(rng.gen_range(0..=domain))).collect()
}

/// `n` values over `1..=domain`: the value lanes beside [`keys`], which
/// stay nonzero and below the top of the range so the aggregates build up
/// gradually.
fn values(n: usize, domain: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(1..=domain)).collect()
}

/// What the core pruner decides for key `k` where a PISA matrix stores
/// `k + 1` in its cells: `u64::MAX`, whose marker would be the empty
/// cell, forwards without touching state.
fn marked(k: u64, core: impl FnOnce() -> Decision) -> Decision {
    if k == u64::MAX {
        Decision::Forward
    } else {
        core()
    }
}

#[test]
fn distinct_lru_program_equals_core() {
    let stream = keys(N, 700, 1);
    let mut core = DistinctPruner::new(256, 3, EvictionPolicy::Lru, SEED);
    let mut prog = DistinctLruProgram::new(SwitchModel::tofino_like(), 256, 3, SEED).unwrap();
    for (i, &k) in stream.iter().enumerate() {
        let a = marked(k, || core.process(k));
        let b = prog.process(&[k]).unwrap();
        assert_eq!(a, b, "entry {i} (key {k}) diverged");
    }
}

#[test]
fn distinct_fifo_program_equals_core() {
    let stream = keys(N, 700, 2);
    let mut core = DistinctPruner::new(128, 4, EvictionPolicy::Fifo, SEED);
    let mut prog = DistinctFifoProgram::new(SwitchModel::tofino_like(), 128, 4, SEED).unwrap();
    for (i, &k) in stream.iter().enumerate() {
        assert_eq!(
            marked(k, || core.process(k)),
            prog.process(&[k]).unwrap(),
            "entry {i} diverged"
        );
    }
}

#[test]
fn rand_topn_program_equals_core() {
    let stream = values(N, 1_000_000, 3);
    let mut core = RandomizedTopN::new(512, 6, SEED);
    let mut prog = RandTopNProgram::new(SwitchModel::tofino_like(), 512, 6, SEED).unwrap();
    for (i, &v) in stream.iter().enumerate() {
        assert_eq!(
            core.process(v),
            prog.process(&[v]).unwrap(),
            "entry {i} diverged"
        );
    }
}

#[test]
fn det_topn_program_equals_core() {
    // Skewed values so the threshold ladder actually climbs.
    let mut rng = StdRng::seed_from_u64(4);
    let stream: Vec<u64> = (0..N)
        .map(|_| {
            let exp = rng.gen_range(0..22u32);
            rng.gen_range(0..(1u64 << exp).max(2))
        })
        .collect();
    let mut core = DeterministicTopN::new(100, 6);
    let mut prog = DetTopNProgram::new(SwitchModel::tofino_like(), 100, 6).unwrap();
    for (i, &v) in stream.iter().enumerate() {
        assert_eq!(
            core.process(v),
            prog.process(&[v]).unwrap(),
            "entry {i} (value {v}) diverged"
        );
    }
}

#[test]
fn groupby_program_equals_core() {
    let ks = keys(N, 300, 5);
    let vs = values(N, 100_000, 6);
    for ext in [Extremum::Max, Extremum::Min] {
        let mut core = GroupByPruner::new(64, 4, ext, SEED);
        let mut prog = GroupByProgram::new(SwitchModel::tofino_like(), 64, 4, ext, SEED).unwrap();
        for i in 0..N {
            assert_eq!(
                marked(ks[i], || core.process(ks[i], vs[i])),
                prog.process(&[ks[i], vs[i]]).unwrap(),
                "entry {i} diverged ({ext:?})"
            );
        }
    }
}

/// Build both sides on the core pair and its program twin, then probe
/// each side against the other: every decision must agree.
fn assert_join_equal<F: KeyFilter>(
    core: &mut JoinPruner<F>,
    prog: &mut impl JoinProgram,
    a_keys: &[u64],
    b_keys: &[u64],
    label: &str,
) {
    for (mode, side, keys) in [
        (JoinMode::BuildA, Side::Left, a_keys),
        (JoinMode::BuildB, Side::Right, b_keys),
    ] {
        prog.set_mode(mode);
        for &k in keys {
            core.observe(side, k);
            prog.process(&[k]).unwrap();
        }
    }
    for (mode, side, probes) in [
        (JoinMode::ProbeA, Side::Left, a_keys),
        (JoinMode::ProbeB, Side::Right, b_keys),
    ] {
        prog.set_mode(mode);
        for (i, &k) in probes.iter().enumerate() {
            assert_eq!(
                core.prune_decision(side, k),
                prog.process(&[k]).unwrap(),
                "{side:?} probe {i} diverged at {label}"
            );
        }
    }
}

#[test]
fn bloom_join_program_equals_core() {
    let a_keys = keys(8_000, 40_000, 7);
    let b_keys = keys(8_000, 40_000, 8);
    let m_bits = 3 * (1u64 << 14);
    let mut core = JoinPruner::new(
        BloomFilter::new(m_bits, 3, SEED),
        BloomFilter::new(m_bits, 3, SEED ^ 1),
    );
    let mut prog =
        BloomJoinProgram::new(SwitchModel::tofino_like(), m_bits, 3, SEED, SEED ^ 1).unwrap();
    assert_join_equal(
        &mut core,
        &mut prog,
        &a_keys,
        &b_keys,
        "the partitioned pair",
    );
}

#[test]
fn rbf_join_program_equals_core() {
    // The pair the engine runs: one register filter per side, each side
    // its own size — equal sides, a lopsided pair, and a single register.
    let a_keys = keys(5_000, 30_000, 9);
    let b_keys = keys(5_000, 30_000, 10);
    for (bits_a, bits_b) in [(1u64 << 14, 1u64 << 14), (1 << 16, 5 * 64), (64, 1 << 12)] {
        let mut core = JoinPruner::new(
            RegisterBloomFilter::new(bits_a, 3, SEED),
            RegisterBloomFilter::new(bits_b, 3, SEED ^ 1),
        );
        let model = SwitchModel::tofino_like();
        let mut prog = RbfJoinProgram::new(model, bits_a, bits_b, 3, SEED, SEED ^ 1).unwrap();
        let label = format!("{bits_a}/{bits_b} bits");
        assert_join_equal(&mut core, &mut prog, &a_keys, &b_keys, &label);
    }
}

#[test]
fn dense_join_program_equals_core() {
    // The pair a JOIN over a narrow key runs: a bitmap a side over the
    // sides' union range, here `[0, 1_499]` and `[1_000, 4_999]` overlapping
    // on 500 keys, and a range a single register holds.
    let mut rng = StdRng::seed_from_u64(19);
    for (a_range, b_range) in [(0..1_500, 1_000..5_000), (7..40, 30..71)] {
        let a_keys: Vec<u64> = (0..N).map(|_| rng.gen_range(a_range.clone())).collect();
        let b_keys: Vec<u64> = (0..N).map(|_| rng.gen_range(b_range.clone())).collect();
        let code = OffsetCode::new(&[(a_range.start, b_range.end - 1)]).unwrap();
        let side = || DenseSet::new(code.clone());
        let mut core = JoinPruner::new(side(), side());
        let mut prog = DenseJoinProgram::new(SwitchModel::tofino_like(), code.clone()).unwrap();
        let label = format!("{} keys", code.cells());
        assert_join_equal(&mut core, &mut prog, &a_keys, &b_keys, &label);
    }
}

#[test]
fn having_program_equals_core() {
    let ks = keys(N, 200, 11);
    let vs = values(N, 50, 12);
    let threshold = 2_000;
    let mut core = HavingPruner::new(3, 256, threshold, SEED);
    let mut prog = HavingProgram::new(SwitchModel::tofino_like(), 3, 256, threshold, SEED).unwrap();
    for i in 0..N {
        assert_eq!(
            core.pass_one(ks[i], vs[i]),
            prog.process(&[ks[i], vs[i]]).unwrap(),
            "pass-1 entry {i} diverged"
        );
    }
    prog.set_phase(HavingPhase::PassTwo);
    for i in 0..N {
        assert_eq!(
            core.pass_two(ks[i]),
            prog.process(&[ks[i], vs[i]]).unwrap(),
            "pass-2 entry {i} diverged"
        );
    }
}

#[test]
fn skyline_sum_program_equals_core() {
    let mut rng = StdRng::seed_from_u64(13);
    let spec = SwitchModel {
        stages: 32,
        ..SwitchModel::tofino2_like()
    };
    let mut core = SkylinePruner::new(2, 8, Heuristic::Sum);
    let mut prog = SkylineProgram::new(spec, 2, 8, SkylineScoring::Sum).unwrap();
    for i in 0..20_000 {
        let p = [rng.gen_range(1..10_000u64), rng.gen_range(1..10_000u64)];
        assert_eq!(
            core.process(&p),
            prog.process(&p).unwrap(),
            "point {i} ({p:?}) diverged"
        );
    }
}

#[test]
fn skyline_aph_program_equals_core() {
    let mut rng = StdRng::seed_from_u64(14);
    let spec = SwitchModel {
        stages: 32,
        ..SwitchModel::tofino2_like()
    };
    let mut core = SkylinePruner::new(3, 6, Heuristic::aph_default());
    let mut prog = SkylineProgram::new(spec, 3, 6, SkylineScoring::Aph { frac_bits: 8 }).unwrap();
    for i in 0..10_000 {
        // Mix narrow and wide magnitudes to hit both APH paths.
        let p = [
            rng.gen_range(1..1u64 << 15),
            rng.gen_range(1..1u64 << 30),
            rng.gen_range(1..1u64 << 45),
        ];
        assert_eq!(
            core.process(&p),
            prog.process(&p).unwrap(),
            "point {i} ({p:?}) diverged"
        );
    }
}

#[test]
fn dense_program_equals_core() {
    // DISTINCT over a two-lane code, GROUP BY MAX and MIN over one lane's
    // offset: zero keys included, as a dense array needs no sentinel.
    let mut rng = StdRng::seed_from_u64(17);
    let a: Vec<u64> = (0..N).map(|_| rng.gen_range(0..1_000)).collect();
    let b: Vec<u64> = (0..N).map(|_| rng.gen_range(40..60)).collect();
    let v: Vec<u64> = (0..N).map(|_| rng.gen_range(0..100_000)).collect();
    let spec = SwitchModel::tofino_like();
    let two = OffsetCode::new(&[(0, 999), (40, 59)]).unwrap();
    let mut core = DenseDistinct::new(two.clone());
    let mut prog = DenseProgram::new(spec, two, DenseOp::Distinct).unwrap();
    for i in 0..N {
        let row = [a[i], b[i]];
        assert_eq!(
            cheetah::core::RowPruner::process_row(&mut core, &row),
            prog.process(&row).unwrap(),
            "distinct entry {i} ({row:?}) diverged"
        );
    }
    let one = OffsetCode::new(&[(0, 999)]).unwrap();
    for ext in [Extremum::Max, Extremum::Min] {
        let mut core = DenseGroupBy::new(one.clone(), ext);
        let mut prog = DenseProgram::new(spec, one.clone(), DenseOp::Extremum(ext)).unwrap();
        for i in 0..N {
            assert_eq!(
                core.process(a[i], v[i]),
                prog.process(&[a[i], v[i]]).unwrap(),
                "{ext:?} entry {i} diverged"
            );
        }
    }
}

#[test]
fn resets_keep_equivalence() {
    // Run, reset, run a different stream: still identical.
    let mut core = DistinctPruner::new(64, 2, EvictionPolicy::Lru, SEED);
    let mut prog = DistinctLruProgram::new(SwitchModel::tofino_like(), 64, 2, SEED).unwrap();
    for &k in &keys(2_000, 100, 15) {
        marked(k, || core.process(k));
        prog.process(&[k]).unwrap();
    }
    cheetah::core::RowPruner::reset(&mut core);
    prog.reset();
    for (i, &k) in keys(2_000, 100, 16).iter().enumerate() {
        assert_eq!(
            marked(k, || core.process(k)),
            prog.process(&[k]).unwrap(),
            "post-reset entry {i} diverged"
        );
    }
}

#[test]
fn layouts_agree_with_core_resource_formulas() {
    use cheetah::core::resources::table2;
    let spec = SwitchModel::tofino_like();
    let p = DistinctLruProgram::new(spec, 4096, 2, 0).unwrap();
    assert_eq!(p.layout(), table2::distinct_lru(2, 4096));
    let p = RandTopNProgram::new(spec, 4096, 4, 0).unwrap();
    assert_eq!(p.layout(), table2::topn_rand(4, 4096));
    let p = DetTopNProgram::new(spec, 250, 4).unwrap();
    assert_eq!(p.layout(), table2::topn_det(4));
    let p = HavingProgram::new(spec, 3, 1024, 0, 0).unwrap();
    assert_eq!(p.layout(), table2::having(1024, 3, spec.alus_per_stage));
}
