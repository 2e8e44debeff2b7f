//! §6 end to end: several live queries packed on one switch, sharing the
//! pipeline, each pruning its own flow correctly — plus the stage packer's
//! feasibility verdicts for the paper's co-residency examples.

use cheetah::core::filter::{Atom, CmpOp, Formula};
use cheetah::core::resources::table2;
use cheetah::core::SwitchModel;
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::reference;
use cheetah::engine::serve::ServeExecutor;
use cheetah::engine::{Agg, CostModel, Predicate, Query};
use cheetah::pisa::pack::pack;

#[path = "common/fixture.rs"]
mod fixture;

#[test]
fn packed_queries_prune_independently_and_correctly() {
    // A filter, a MAX group-by and a DISTINCT over one table: three small
    // flows the placer puts side by side, served as one shared scan.
    let db = fixture::random(6_000, &fixture::APPENDIX_B_LANES, 1);
    let batch = vec![
        Query::FilterCount {
            table: "t".into(),
            predicate: Predicate {
                columns: vec!["v".into()],
                atoms: vec![Atom::cmp(0, CmpOp::Lt, 100)],
                formula: Formula::Atom(0),
            },
        },
        Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Max,
        },
        Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        },
    ];
    let serving = ServeExecutor::with_pool(
        CheetahExecutor::new(CostModel::default(), PrunerConfig::default()),
        2,
    );
    let (reports, agg) = serving.serve(&db, &batch);
    assert_eq!(agg.packed, 3, "three small queries must pack: {agg:?}");
    assert_eq!(agg.shared_scans, 1, "one scan serves all three: {agg:?}");
    assert_eq!(agg.spilled, 0);

    // Each flow answers exactly, and prunes exactly as it does alone: a
    // co-resident flow neither adds nor removes one of its decisions.
    let solo = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    for (q, packed) in batch.iter().zip(&reports) {
        assert_eq!(
            packed.result,
            reference::evaluate(&db, q),
            "{} diverged",
            q.kind()
        );
        let alone = solo.execute(&db, q);
        assert_eq!(
            packed.prune,
            alone.prune,
            "{} pruned differently when packed",
            q.kind()
        );
        let stats = packed
            .prune
            .expect("a switch-pruned flow reports its counters");
        assert!(stats.pruned > 0, "{} pruned nothing", q.kind());
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
// below hits every query shape; the serving layer packs the shareable
// single-pass shapes with the placer above into one shared scan, each
// flow decided by its solo pruner, and every per-query report must be
// bit-identical (result, fetch checksum, prune counters) to a solo
// `CheetahExecutor` run of the same query.
// ---------------------------------------------------------------------------

/// The fixture's every-shape list as one serving batch: the shareable
/// single-pass shapes on `t` plus the solo-dispatch shapes (register
/// aggregates, HAVING, JOIN), its HAVING sized to `APPENDIX_B_LANES`.
fn shapes_batch() -> Vec<Query> {
    let shapes = fixture::shapes_at(150_000);
    shapes.into_iter().map(|(_, q)| q).collect()
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
    // The §6 placer on a 12-stage Tofino of 10 ALUs a stage, in admission
    // order, smearing each charge's ALUs over its stages (rounded up):
    // - the two filters (2 stages each: comparisons, then the truth
    //   table; 2 and 1 ALUs) take 1 ALU in stages 0–1 each: s0 = s1 = 8;
    // - `k` spans `1..100` and `w` `1..500`, so the DISTINCT's bitmap
    //   (1 stage, 2 ALUs) and the DistinctMulti's (7 + 9 code bits; 1, 3)
    //   land in stage 0: s0 = 3;
    // - the randomized TOP 50's full-pipeline 43 × 11 matrix (12 stages
    //   with its sequence counter, 12 ALUs) takes 1 ALU a stage: s0 = 2,
    //   s1 = 7, s2–s11 = 9;
    // - each GROUP BY MAX/MIN's dense registers (1 stage, 3 ALUs) find
    //   s0 short and land in stage 1: s1 = 4, then 1;
    // - the SKYLINE's 21 stages exceed 12: it spills and runs alone.
    assert_eq!(
        agg.packed, 7,
        "the single-pass shapes on `t` but the SKYLINE share a scan, got {agg:?}"
    );
    assert_eq!(agg.spilled, 1, "the skyline spills: {agg:?}");
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
