//! `process_block` ≡ `process_row`, bit for bit, for every pruner.
//!
//! The block API is a data-layout optimization: feeding the same entries
//! through `process_block` (at any block size) must produce exactly the
//! decision sequence the sequential `process_row` path produces, because
//! both advance the same stateful switch structures in stream order.
//! Property-tested over random streams, shapes and seeds for every core
//! pruner, and spot-checked through the engine's backend factories under
//! both the reference and the metered pisa backends.

use proptest::collection::vec;
use proptest::prelude::*;

use cheetah::core::decision::{Decision, RowPruner};
use cheetah::core::dense::{DenseDistinct, DenseGroupBy, DenseRegisters, OffsetCode};
use cheetah::core::distinct::{DistinctPruner, EvictionPolicy};
use cheetah::core::filter::{Atom, CmpOp, FilterPruner, Formula};
use cheetah::core::groupby::{Extremum, GroupByPruner, GroupBySumPruner, SumAction};
use cheetah::core::skyline::{Heuristic, SkylinePruner};
use cheetah::core::topn::{DeterministicTopN, RandomizedTopN};
use cheetah::core::SwitchModel;
use cheetah::engine::backend::{self, SwitchBackend};
use cheetah::engine::cheetah::PrunerConfig;
use cheetah::engine::Predicate;
use cheetah::pisa::programs::{DenseOp, DenseProgram};
use cheetah::pisa::ProgramPruner;

/// Row-path decisions for a column-major stream.
fn row_decisions(p: &mut dyn RowPruner, cols: &[Vec<u64>], n: usize) -> Vec<Decision> {
    let mut row = Vec::with_capacity(cols.len());
    (0..n)
        .map(|i| {
            row.clear();
            row.extend(cols.iter().map(|c| c[i]));
            p.process_row(&row)
        })
        .collect()
}

/// Block-path decisions for the same stream, cut into `chunk`-sized blocks.
fn block_decisions(
    p: &mut dyn RowPruner,
    cols: &[Vec<u64>],
    n: usize,
    chunk: usize,
) -> Vec<Decision> {
    let mut out = vec![Decision::Prune; n];
    let mut start = 0;
    while start < n {
        let len = (n - start).min(chunk);
        let colrefs: Vec<&[u64]> = cols.iter().map(|c| &c[start..start + len]).collect();
        p.process_block(&colrefs, &mut out[start..start + len]);
        start += len;
    }
    out
}

/// Assert both paths agree at several block sizes (including a size that
/// never divides the stream evenly).
fn assert_equivalent(mut mk: impl FnMut() -> Box<dyn RowPruner + Send>, cols: &[Vec<u64>]) {
    let n = cols.first().map_or(0, Vec::len);
    let reference = row_decisions(mk().as_mut(), cols, n);
    for chunk in [1usize, 7, 64, 1024] {
        let got = block_decisions(mk().as_mut(), cols, n, chunk);
        assert_eq!(
            got,
            reference,
            "block size {chunk} diverged from the row path ({})",
            mk().name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distinct_block_equivalence(
        stream in vec(0u64..400, 1..1500),
        d in 1usize..64,
        w in 1usize..4,
        lru in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let policy = if lru { EvictionPolicy::Lru } else { EvictionPolicy::Fifo };
        assert_equivalent(
            || Box::new(DistinctPruner::new(d, w, policy, seed)),
            std::slice::from_ref(&stream),
        );
    }

    #[test]
    fn randomized_topn_block_equivalence(
        stream in vec(0u64..1_000_000, 1..1500),
        d in 1usize..64,
        w in 1usize..6,
        seed in any::<u64>(),
    ) {
        assert_equivalent(|| Box::new(RandomizedTopN::new(d, w, seed)), std::slice::from_ref(&stream));
    }

    #[test]
    fn deterministic_topn_block_equivalence(
        stream in vec(0u64..100_000, 1..1500),
        n in 1u64..60,
        w in 1usize..8,
    ) {
        assert_equivalent(|| Box::new(DeterministicTopN::new(n, w)), std::slice::from_ref(&stream));
    }

    #[test]
    fn groupby_block_equivalence(
        keys in vec(0u64..80, 1..1500),
        vals in vec(0u64..10_000, 1500..1501),
        d in 1usize..32,
        w in 1usize..4,
        maximize in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let ext = if maximize { Extremum::Max } else { Extremum::Min };
        let n = keys.len();
        assert_equivalent(
            || Box::new(GroupByPruner::new(d, w, ext, seed)),
            &[keys.clone(), vals[..n].to_vec()],
        );
    }

    /// Random formulas over 1–16 atoms: a random operator per atom (all
    /// six occur), negated literals, unsupported atoms. `kind` 0 makes
    /// every atom unsupported (no switch atom: every entry forwards),
    /// kind 1 makes all sixteen supported (the widest truth table), kind
    /// 2 mixes. Streams run past one 1,024-entry evaluation chunk and
    /// the block sizes include ones past it, so the atom-major kernel's
    /// chunking is crossed.
    #[test]
    fn filter_block_equivalence(
        lanes in (vec(0u64..40, 1..3000), vec(0u64..40, 3000..3001), vec(0u64..40, 3000..3001)),
        specs in vec((0usize..6, 0usize..3, 0u64..40, 0u8..4), 1..17),
        shape in any::<u64>(),
        kind in 0u8..3,
    ) {
        const OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
        let n = lanes.0.len();
        let cols = [lanes.0.clone(), lanes.1[..n].to_vec(), lanes.2[..n].to_vec()];
        let specs = if kind == 1 {
            (0..16).map(|a| specs[a % specs.len()]).collect()
        } else {
            specs
        };
        let atoms: Vec<Atom> = specs
            .iter()
            .map(|&(op, col, constant, flags)| Atom {
                col,
                op: OPS[op],
                constant,
                supported: match kind {
                    0 => false,
                    1 => true,
                    _ => flags & 1 == 0,
                },
            })
            .collect();
        // Literals in runs of one to four under one connective, the runs
        // under the other; `shape` picks the run lengths and which is
        // outer.
        let literal = |a: usize| if specs[a].3 & 2 == 0 { Formula::Atom(a) } else { Formula::NotAtom(a) };
        let (mut runs, mut a, mut bits) = (Vec::new(), 0, shape);
        while a < atoms.len() {
            let len = (1 + (bits & 3) as usize).min(atoms.len() - a);
            let run: Vec<Formula> = (a..a + len).map(literal).collect();
            runs.push(if shape >> 63 == 0 { Formula::And(run) } else { Formula::Or(run) });
            a += len;
            bits >>= 2;
        }
        let formula = if shape >> 63 == 0 { Formula::Or(runs) } else { Formula::And(runs) };
        let mk = || FilterPruner::new(atoms.clone(), formula.clone()).unwrap();
        let reference = row_decisions(&mut mk(), &cols, n);
        if kind == 0 {
            prop_assert!(reference.iter().all(|d| d.is_forward()), "no switch atom, yet pruned");
        }
        for chunk in [1usize, 7, 64, 1024, 1500, 4096] {
            prop_assert_eq!(
                &block_decisions(&mut mk(), &cols, n, chunk),
                &reference,
                "block size {} diverged from the row path",
                chunk
            );
        }
    }

    #[test]
    fn skyline_block_equivalence(
        xs in vec(1u64..4000, 1..800),
        ys in vec(1u64..4000, 800..801),
        w in 1usize..12,
    ) {
        let n = xs.len();
        assert_equivalent(
            || Box::new(SkylinePruner::new(2, w, Heuristic::aph_default())),
            &[xs.clone(), ys[..n].to_vec()],
        );
    }

    /// The dense pruners — DISTINCT over one lane's offset and over a
    /// two-lane code, GROUP BY MAX/MIN — and their one-stage PISA twin
    /// behind `ProgramPruner`'s block feed; dense SUM registers drain the
    /// same totals however the stream is cut into blocks.
    #[test]
    fn dense_block_equivalence(
        keys in vec(0u64..300, 1..1500),
        vals in vec(0u64..10_000, 1500..1501),
        base in any::<u32>(),
        maximize in any::<bool>(),
    ) {
        let n = keys.len();
        let base = u64::from(base);
        let a: Vec<u64> = keys.iter().map(|k| base + k).collect();
        let b: Vec<u64> = keys.iter().map(|k| k * 7 % 13).collect();
        let vals = vals[..n].to_vec();
        let one = OffsetCode::new(&[(base, base + 299)]).expect("one lane");
        let two = OffsetCode::new(&[(base, base + 299), (0, 12)]).expect("two lanes");
        let ext = if maximize { Extremum::Max } else { Extremum::Min };
        let pisa = |code: &OffsetCode, op| -> Box<dyn RowPruner + Send> {
            let program = DenseProgram::new(SwitchModel::tofino_like(), code.clone(), op);
            Box::new(ProgramPruner::new(program.expect("fits a stage")))
        };
        assert_equivalent(|| Box::new(DenseDistinct::new(one.clone())), std::slice::from_ref(&a));
        assert_equivalent(|| Box::new(DenseDistinct::new(two.clone())), &[a.clone(), b.clone()]);
        assert_equivalent(|| Box::new(DenseGroupBy::new(one.clone(), ext)), &[a.clone(), vals.clone()]);
        assert_equivalent(|| pisa(&two, DenseOp::Distinct), &[a.clone(), b.clone()]);
        assert_equivalent(|| pisa(&one, DenseOp::Extremum(ext)), &[a.clone(), vals.clone()]);
        let mut whole = DenseRegisters::new(one.clone());
        whole.process_block(&a, &vals, &mut vec![Decision::Forward; n]);
        let whole = whole.drain();
        for chunk in [1usize, 7, 64] {
            let mut sums = DenseRegisters::new(one.clone());
            for (k, v) in a.chunks(chunk).zip(vals.chunks(chunk)) {
                sums.process_block(k, v, &mut vec![Decision::Forward; k.len()]);
            }
            prop_assert_eq!(sums.drain(), whole.clone(), "chunk {}", chunk);
        }
    }

    /// GROUP BY SUM/COUNT: the block loop must emit the same
    /// Forward/Prune stream *and* the same eviction sequence.
    #[test]
    fn groupby_sum_block_equivalence(
        keys in vec(0u64..120, 1..1500),
        vals in vec(0u64..1000, 1500..1501),
        d in 1usize..32,
        w in 1usize..4,
        seed in any::<u64>(),
    ) {
        let n = keys.len();
        let vals = &vals[..n];
        let mut a = GroupBySumPruner::new(d, w, seed);
        let mut row_dec = Vec::with_capacity(n);
        let mut row_evict = Vec::new();
        for (&k, &v) in keys.iter().zip(vals) {
            row_dec.push(match a.process(k, v) {
                SumAction::EvictAndForward { key, partial } => {
                    row_evict.push((key, partial));
                    Decision::Forward
                }
                SumAction::Absorb | SumAction::Start => Decision::Prune,
            });
        }
        for chunk in [1usize, 7, 64] {
            let mut b = GroupBySumPruner::new(d, w, seed);
            let mut blk_dec = vec![Decision::Prune; n];
            let mut blk_evict = Vec::new();
            let mut start = 0;
            while start < n {
                let len = (n - start).min(chunk);
                b.process_block(
                    &keys[start..start + len],
                    &vals[start..start + len],
                    &mut blk_dec[start..start + len],
                    |k, p| blk_evict.push((k, p)),
                );
                start += len;
            }
            prop_assert_eq!(&blk_dec, &row_dec, "decisions diverged at chunk {}", chunk);
            prop_assert_eq!(&blk_evict, &row_evict, "evictions diverged at chunk {}", chunk);
            prop_assert_eq!(b.drain(), a.clone().drain(), "residuals diverged");
        }
    }
}

/// Threaded multi-pass flows vs the reference oracle, under real
/// block-arrival races: whatever interleaving the worker threads
/// produce (and however blocks land between the two passes), the staged
/// switch programs must complete to exactly the reference result. This
/// is the concurrent counterpart of the block≡row property above — the
/// dataflow may reorder, the completed result may not.
#[test]
fn threaded_multipass_equals_reference_under_block_races() {
    use cheetah::engine::cheetah::CheetahExecutor;
    use cheetah::engine::reference;
    use cheetah::engine::{Agg, CostModel, Database, Query, Table};

    let mk_db = |rows: usize, keys: u64, seed: u64| -> Database {
        let mut db = Database::new();
        db.add(Table::new(
            "t",
            vec![
                (
                    "k",
                    (0..rows)
                        .map(|i| (i as u64 * 131 + seed) % keys + 1)
                        .collect(),
                ),
                (
                    "v",
                    (0..rows)
                        .map(|i| (i as u64 * 197 + seed * 7) % 5_000)
                        .collect(),
                ),
            ],
        ));
        db.add(Table::new(
            "s",
            vec![(
                "k",
                (0..rows / 2)
                    .map(|i| (i as u64 * 89 + seed) % (keys * 2) + 1)
                    .collect(),
            )],
        ));
        db
    };
    let queries = [
        Query::Join {
            left: "t".into(),
            right: "s".into(),
            left_col: "k".into(),
            right_col: "k".into(),
        },
        Query::Having {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            threshold: 60_000,
        },
        Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Sum,
        },
        Query::DistinctMulti {
            table: "t".into(),
            columns: vec!["k".into(), "v".into()],
        },
    ];
    for (trial, &(rows, keys)) in [(1_500usize, 40u64), (3_000, 70), (2_200, 55)]
        .iter()
        .enumerate()
    {
        let db = mk_db(rows, keys, trial as u64);
        for workers in [2usize, 4] {
            let exec = CheetahExecutor::new(
                CostModel {
                    workers,
                    ..CostModel::default()
                },
                PrunerConfig::default(),
            );
            for q in &queries {
                let truth = reference::evaluate(&db, q);
                let report = exec.execute_threaded(&db, q);
                assert_eq!(
                    report.result,
                    truth,
                    "trial {trial}, {workers} workers: threaded {} raced to a wrong result",
                    q.kind()
                );
                assert!(report.wall.is_some());
            }
        }
    }
}

/// The engine's backend factories under BOTH backends: the boxed pruners
/// the executors actually stream through must keep the equivalence too
/// (this covers the pisa `ProgramPruner` feed).
#[test]
fn backend_factories_block_equivalence_both_backends() {
    let keys: Vec<u64> = (0..4000u64).map(|i| i * 31 % 257).collect();
    let vals: Vec<u64> = (0..4000u64).map(|i| i * 13 % 10_007).collect();
    for backend in [SwitchBackend::Reference, SwitchBackend::Pisa] {
        let cfg = PrunerConfig {
            backend,
            // Small matrices keep the metered programs inside the
            // single-pipeline envelope while still exercising evictions.
            distinct_d: 64,
            topn_d: 64,
            groupby_d: 64,
            groupby_w: 4,
            ..PrunerConfig::default()
        };
        assert_equivalent(|| backend::distinct(&cfg), std::slice::from_ref(&keys));
        assert_equivalent(|| backend::topn(&cfg, 50), std::slice::from_ref(&vals));
        assert_equivalent(
            || backend::groupby(&cfg, Extremum::Max),
            &[keys.clone(), vals.clone()],
        );
        let predicate = Predicate {
            columns: vec!["a".into(), "b".into()],
            atoms: vec![Atom::cmp(0, CmpOp::Lt, 100), Atom::cmp(1, CmpOp::Gt, 5_000)],
            formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
        };
        assert_equivalent(
            || backend::filter(&cfg, &predicate),
            &[keys.clone(), vals.clone()],
        );
        assert_equivalent(|| backend::skyline(&cfg, 2), &[keys.clone(), vals.clone()]);
    }
}
