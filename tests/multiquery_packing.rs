//! §6 end to end: several live queries packed on one switch, sharing the
//! pipeline, each pruning its own flow correctly — plus the stage packer's
//! feasibility verdicts for the paper's co-residency examples.

use cheetah::core::distinct::{DistinctPruner, EvictionPolicy};
use cheetah::core::filter::{Atom, CmpOp, FilterPruner, Formula};
use cheetah::core::groupby::{Extremum, GroupByPruner};
use cheetah::core::multiquery::{CombinedPruner, MultiQueryPruner};
use cheetah::core::resources::table2;
use cheetah::core::{RowPruner, SwitchModel};
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::serve::ServeExecutor;
use cheetah::engine::{Agg, CostModel, Predicate, Query};
use cheetah::pisa::pack::pack;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

#[path = "common/fixture.rs"]
mod fixture;

#[test]
fn packed_queries_prune_independently_and_correctly() {
    let model = SwitchModel::tofino_like();
    let mut mq = MultiQueryPruner::new();

    // Query A (fid 1): filtering uservisits-style rows on col0 < 100.
    let filter =
        FilterPruner::new(vec![Atom::cmp(0, CmpOp::Lt, 100)], Formula::Atom(0)).expect("compiles");
    let fr = filter.resources();
    mq.add(1, Box::new(filter), fr);

    // Query B (fid 2): MAX group-by on (col0=key, col1=value).
    let gb = GroupByPruner::new(512, 4, Extremum::Max, 3);
    let gr = gb.resources();
    mq.add(2, Box::new(gb), gr);

    // Query C (fid 3): DISTINCT on col0.
    let di = DistinctPruner::new(512, 2, EvictionPolicy::Lru, 9);
    let dr = di.matrix().resources(&model);
    mq.add(3, Box::new(di), dr);

    assert!(mq.fits(&model), "three small queries must pack");
    assert!(
        pack(&model, &[fr, gr, dr]).is_ok(),
        "per-stage placement must also succeed"
    );

    // Interleave three flows; verify per-flow correctness at the master.
    let mut rng = StdRng::seed_from_u64(1);
    let mut filter_survivors = 0u64;
    let mut filter_matches = 0u64;
    let mut gb_master: HashMap<u64, u64> = HashMap::new();
    let mut gb_truth: HashMap<u64, u64> = HashMap::new();
    let mut di_master: HashSet<u64> = HashSet::new();
    let mut di_truth: HashSet<u64> = HashSet::new();
    for _ in 0..30_000 {
        let fid = rng.gen_range(1..=3u16);
        let row = [rng.gen_range(1..300u64), rng.gen_range(1..10_000u64)];
        let d = mq.process(fid, &row);
        match fid {
            1 => {
                if row[0] < 100 {
                    filter_matches += 1;
                    assert!(d.is_forward(), "filter pruned a match");
                }
                if d.is_forward() && row[0] < 100 {
                    filter_survivors += 1;
                }
            }
            2 => {
                let e = gb_truth.entry(row[0]).or_insert(0);
                *e = (*e).max(row[1]);
                if d.is_forward() {
                    let e = gb_master.entry(row[0]).or_insert(0);
                    *e = (*e).max(row[1]);
                }
            }
            3 => {
                di_truth.insert(row[0]);
                if d.is_forward() {
                    di_master.insert(row[0]);
                }
            }
            _ => unreachable!(),
        }
    }
    assert_eq!(filter_survivors, filter_matches);
    assert_eq!(gb_master, gb_truth, "packed group-by diverged");
    assert_eq!(di_master, di_truth, "packed distinct diverged");
}

#[test]
fn combined_query_on_one_stream() {
    // Fig 5's A+B: one uservisits stream serving filter A and group-by B.
    // A packet survives if either query needs it; both masters stay exact.
    let filter = FilterPruner::new(vec![Atom::cmp(1, CmpOp::Gt, 9_000)], Formula::Atom(0))
        .expect("compiles");
    let gb = GroupByPruner::new(256, 4, Extremum::Max, 5);
    let mut combined = CombinedPruner::new(vec![Box::new(filter), Box::new(gb)]);

    let mut rng = StdRng::seed_from_u64(2);
    let mut a_master = 0u64;
    let mut a_truth = 0u64;
    let mut b_master: HashMap<u64, u64> = HashMap::new();
    let mut b_truth: HashMap<u64, u64> = HashMap::new();
    for _ in 0..20_000 {
        let row = [rng.gen_range(1..200u64), rng.gen_range(1..10_000u64)];
        let d = combined.process_row(&row);
        let matches_a = row[1] > 9_000;
        if matches_a {
            a_truth += 1;
            assert!(d.is_forward(), "combined pruning lost an A match");
        }
        let e = b_truth.entry(row[0]).or_insert(0);
        *e = (*e).max(row[1]);
        if d.is_forward() {
            if matches_a {
                a_master += 1;
            }
            let e = b_master.entry(row[0]).or_insert(0);
            *e = (*e).max(row[1]);
        }
    }
    assert_eq!(a_master, a_truth);
    // B's master needs every key's max among forwarded rows. A's extra
    // forwards are harmless; B's own forwards guarantee the maxima.
    for (k, v) in &b_truth {
        assert_eq!(b_master.get(k), Some(v), "combined B lost max for {k}");
    }
}

#[test]
fn packer_reproduces_paper_coresidency() {
    let model = SwitchModel::tofino_like();
    // §6: "an additional filter query has no impact on the group-by":
    // the filter fits inside the group-by's first stage.
    let packing = pack(&model, &[table2::group_by(8, 4096), table2::filter(1)]).unwrap();
    assert_eq!(packing.placements[1].first_stage, 0);

    // SKYLINE (stage-heavy, SRAM-light) and JOIN (SRAM-heavy, stage-light)
    // pack side by side on a Tofino-2-like envelope.
    let model2 = SwitchModel::tofino2_like();
    assert!(pack(
        &model2,
        &[
            table2::skyline_sum(2, 9),
            table2::join_bf(8 * 8 * 1024 * 1024, 3),
        ]
    )
    .is_ok());
}

#[test]
fn over_subscription_detected() {
    let model = SwitchModel::tofino_like();
    // SRAM exhaustion: each group-by takes 2MB/stage × 8 stages; the
    // per-stage budget is 4MB, so three co-resident copies cannot fit.
    let q = table2::group_by(8, 4096 * 64); // 2MB per stage
    assert!(pack(&model, &[q, q]).is_ok());
    assert!(pack(&model, &[q, q, q]).is_err());
}

// ---------------------------------------------------------------------------
// The real serving path: §6 packing over the `Executor` seam. The batch
// below hits every query shape; the serving layer groups the shareable
// single-pass shapes into one shared scan routed through
// `MultiQueryPruner`, and every per-query report must be bit-identical
// (result, fetch checksum, prune counters) to a solo `CheetahExecutor`
// run of the same query.
// ---------------------------------------------------------------------------

/// The full shapes matrix as one serving batch: seven shareable
/// single-pass shapes on `t` plus the solo-dispatch shapes (register
/// aggregates, HAVING, JOIN).
fn shapes_batch() -> Vec<Query> {
    let pred = Predicate {
        columns: vec!["v".into()],
        atoms: vec![Atom::cmp(0, CmpOp::Lt, 4_000)],
        formula: Formula::Atom(0),
    };
    vec![
        Query::FilterCount {
            table: "t".into(),
            predicate: pred.clone(),
        },
        Query::Filter {
            table: "t".into(),
            predicate: pred,
        },
        Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        },
        Query::DistinctMulti {
            table: "t".into(),
            columns: vec!["k".into(), "w".into()],
        },
        Query::TopN {
            table: "t".into(),
            order_by: "v".into(),
            n: 25,
        },
        Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Max,
        },
        Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Min,
        },
        Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Sum,
        },
        Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Count,
        },
        Query::Having {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            threshold: 150_000,
        },
        Query::Join {
            left: "t".into(),
            right: "s".into(),
            left_col: "k".into(),
            right_col: "k".into(),
        },
        Query::Skyline {
            table: "t".into(),
            columns: vec!["v".into(), "w".into()],
        },
    ]
}

#[test]
fn serving_packed_batch_is_bit_identical_to_solo_cheetah() {
    let db = fixture::random(6_000, &fixture::APPENDIX_B_LANES, 11);
    let solo = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    let serving = ServeExecutor::with_pool(
        CheetahExecutor::new(CostModel::default(), PrunerConfig::default()),
        3,
    );
    let batch = shapes_batch();
    let (reports, agg) = serving.serve(&db, &batch);
    assert_eq!(reports.len(), batch.len());
    assert_eq!(agg.queries, batch.len() as u64);
    // Stage budget on a 12-stage Tofino, in admission order: the two
    // filters take 2 each (comparisons, then the truth table). `k` spans
    // `1..100` and `w` `1..500`, so the DISTINCT's bitmap (99 keys), the
    // DistinctMulti's (7 + 9 code bits) and both GROUP BYs' dense registers
    // take 1 each: 8 stages. The randomized TOP 25 runs its full-pipeline
    // 21 × 11 matrix (12 stages with its sequence counter) and the SKYLINE
    // 21: neither fits beside the others, so both spill and run alone.
    assert_eq!(
        agg.packed, 6,
        "the small shapes on `t` must share a scan, got {agg:?}"
    );
    assert_eq!(agg.spilled, 2, "top-n and skyline spill: {agg:?}");
    assert!(agg.shared_scans >= 1);
    assert_eq!(agg.packed + agg.solo, agg.queries);
    for (q, packed) in batch.iter().zip(&reports) {
        let solo_r = solo.execute(&db, q);
        assert_eq!(packed.result, solo_r.result, "{} diverged", q.kind());
        assert_eq!(
            packed.fetch_checksum,
            solo_r.fetch_checksum,
            "{} fetch checksum diverged",
            q.kind()
        );
        assert_eq!(
            packed.prune,
            solo_r.prune,
            "{} prune counters diverged — packed decisions are not bit-identical",
            q.kind()
        );
        assert_eq!(packed.executor, "serving");
    }
}

#[test]
fn serving_spills_to_software_when_the_switch_is_tiny_and_stays_correct() {
    let db = fixture::random(4_000, &fixture::APPENDIX_B_LANES, 13);
    let solo = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    let mut serving = ServeExecutor::with_pool(
        CheetahExecutor::new(CostModel::default(), PrunerConfig::default()),
        2,
    );
    // A two-stage switch: almost nothing co-resides, so packing admits at
    // most a sliver and the rest spill to the software pool.
    serving.switch = SwitchModel {
        stages: 2,
        alus_per_stage: 4,
        sram_per_stage_bits: 64 * 1024,
        tcam_entries: 16,
        phv_bits: 128,
    };
    let batch = shapes_batch();
    let (reports, agg) = serving.serve(&db, &batch);
    assert!(
        agg.spilled >= 5,
        "a two-stage switch cannot hold the shareable set: {agg:?}"
    );
    for (q, r) in batch.iter().zip(&reports) {
        let solo_r = solo.execute(&db, q);
        assert_eq!(r.result, solo_r.result, "{} diverged after spill", q.kind());
        assert_eq!(r.fetch_checksum, solo_r.fetch_checksum);
    }
}
