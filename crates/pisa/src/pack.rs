//! Multi-query stage packing (§6).
//!
//! Cheetah pre-compiles the algorithm family and packs several live
//! queries onto one pipeline, splitting per-stage ALUs and SRAM. The
//! packer places each query's stage span by first-fit over the per-stage
//! residual budgets, longest span first — queries heavy in *different*
//! resources (SKYLINE: stages, JOIN: SRAM) share stages, which is exactly
//! the paper's point.

use cheetah_core::resources::{ResourceUsage, SwitchModel};

/// Where a query was placed in the shared pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Index into the input query list.
    pub query: usize,
    /// First stage occupied.
    pub first_stage: u32,
    /// Stages occupied (contiguous span).
    pub stages: u32,
}

/// Result of packing: placements plus the residual per-stage budgets.
#[derive(Debug, Clone)]
pub struct Packing {
    /// One placement per query, in input order.
    pub placements: Vec<Placement>,
    /// ALUs still free per stage.
    pub free_alus: Vec<u32>,
    /// SRAM bits still free per stage.
    pub free_sram: Vec<u64>,
    /// TCAM entries still free.
    pub free_tcam: u32,
}

/// Packing failure: the first query, in placement order, that did not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoesNotFit {
    /// Index of the query that could not be placed.
    pub query: usize,
}

impl std::fmt::Display for DoesNotFit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query #{} does not fit the remaining pipeline",
            self.query
        )
    }
}

impl std::error::Error for DoesNotFit {}

/// Pack queries (described by their Table 2 usage) onto one switch.
///
/// Each query's ALUs and SRAM are smeared uniformly over its stage span
/// (how the Table 2 formulas are derived); the packer slides the span
/// across the pipeline until every stage in it has the headroom. Longer
/// spans are placed first (a stable sort, so equal spans keep input
/// order): placed in input order, short spans admitted early fill the
/// front stages, and a 12-stage TOP N admitted after them finds no start.
pub fn pack(model: &SwitchModel, queries: &[ResourceUsage]) -> Result<Packing, DoesNotFit> {
    let stages = model.stages as usize;
    let mut free_alus = vec![model.alus_per_stage; stages];
    let mut free_sram = vec![model.sram_per_stage_bits; stages];
    let mut free_tcam = model.tcam_entries;
    let mut placements = Vec::with_capacity(queries.len());
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_by_key(|&qi| std::cmp::Reverse(queries[qi].stages.max(1)));

    for qi in order {
        let q = &queries[qi];
        if q.tcam_entries > free_tcam {
            return Err(DoesNotFit { query: qi });
        }
        let span = (q.stages.max(1)) as usize;
        if span > stages {
            return Err(DoesNotFit { query: qi });
        }
        // Per-stage demand, rounded up (conservative smear).
        let alus_per_stage = q.alus.div_ceil(q.stages.max(1));
        let sram_per_stage = q.sram_bits.div_ceil(u64::from(q.stages.max(1)));
        let fit = (0..=stages - span).find(|&start| {
            (start..start + span)
                .all(|s| free_alus[s] >= alus_per_stage && free_sram[s] >= sram_per_stage)
        });
        let Some(start) = fit else {
            return Err(DoesNotFit { query: qi });
        };
        for s in start..start + span {
            free_alus[s] -= alus_per_stage;
            free_sram[s] -= sram_per_stage;
        }
        free_tcam -= q.tcam_entries;
        placements.push(Placement {
            query: qi,
            first_stage: start as u32,
            stages: span as u32,
        });
    }
    placements.sort_by_key(|p| p.query);
    Ok(Packing {
        placements,
        free_alus,
        free_sram,
        free_tcam,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::resources::table2;

    #[test]
    fn figure5_filter_plus_groupby_pack() {
        // §6's combined example: a filter query and a SUM group-by share
        // the pipeline (the filter uses 1 ALU + 32 bits in a stage the
        // group-by also occupies).
        let model = SwitchModel::tofino_like();
        let queries = [table2::filter(1), table2::group_by(8, 4096)];
        let packing = pack(&model, &queries).expect("must fit");
        assert_eq!(packing.placements.len(), 2);
        // The filter fits inside stage 0 alongside the group-by.
        assert_eq!(packing.placements[0].first_stage, 0);
        assert_eq!(packing.placements[1].first_stage, 0);
    }

    #[test]
    fn resource_complementarity_packs_more() {
        // SKYLINE (stage-hungry, little SRAM) + JOIN (SRAM-hungry, few
        // stages) overlap fine.
        let model = SwitchModel::tofino2_like();
        let queries = [
            table2::skyline_sum(2, 9),
            table2::join_bf(8 * 1024 * 1024, 3),
        ];
        let packing = pack(&model, &queries).expect("complementary queries fit");
        assert_eq!(packing.placements.len(), 2);
    }

    #[test]
    fn overflow_identified_by_query() {
        let model = SwitchModel::tofino_like();
        // Each DISTINCT(LRU, w=12) uses one ALU in each of 12 stages; ten
        // of them exhaust every stage's 10 ALUs, the eleventh must fail.
        let q = table2::distinct_lru(12, 1024);
        let queries = vec![q; 11];
        let err = pack(&model, &queries).unwrap_err();
        assert_eq!(err.query, 10);
    }

    #[test]
    fn tcam_budget_respected() {
        let model = SwitchModel::tofino_like();
        // Tiny ALU/SRAM footprint but 16K TCAM entries each: the seventh
        // copy exceeds the 100K budget.
        let q = ResourceUsage {
            stages: 1,
            alus: 1,
            sram_bits: 64,
            tcam_entries: 16_384,
        };
        let queries = vec![q; 7];
        let err = pack(&model, &queries).unwrap_err();
        assert_eq!(err.query, 6, "7th query exceeds 100K TCAM entries");
    }

    #[test]
    fn spans_slide_to_later_stages() {
        let model = SwitchModel::tofino_like();
        // A query that monopolizes stage 0's SRAM forces the next one over.
        let hog = ResourceUsage {
            stages: 1,
            alus: 1,
            sram_bits: model.sram_per_stage_bits,
            tcam_entries: 0,
        };
        let small = ResourceUsage {
            stages: 1,
            alus: 1,
            sram_bits: 64,
            tcam_entries: 0,
        };
        let packing = pack(&model, &[hog, small]).unwrap();
        assert_eq!(packing.placements[0].first_stage, 0);
        assert_eq!(packing.placements[1].first_stage, 1);
    }

    #[test]
    fn a_long_span_admitted_after_stage_zero_fills_still_places() {
        // Ten one-ALU filters fill stage 0's ten ALUs; a 12-stage span
        // admitted after them needs one ALU in every stage, stage 0
        // included, so placing in input order leaves it no start. Placed
        // first, it takes one ALU a stage and the filters spill over to
        // stage 1.
        let model = SwitchModel::tofino_like();
        let filter = ResourceUsage {
            stages: 1,
            alus: 1,
            sram_bits: 64,
            tcam_entries: 0,
        };
        let long = ResourceUsage {
            stages: 12,
            alus: 12,
            sram_bits: 12 * 64,
            tcam_entries: 0,
        };
        let mut queries = vec![filter; 10];
        queries.push(long);
        let packing = pack(&model, &queries).expect("the batch fits");
        let starts: Vec<u32> = packing.placements.iter().map(|p| p.first_stage).collect();
        assert_eq!(starts, [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0]);
        assert_eq!(packing.placements[10].stages, 12);
        assert_eq!(packing.free_alus[..2], [0, 8]);
    }

    #[test]
    fn too_many_stages_rejected() {
        let model = SwitchModel::tofino_like();
        let q = table2::skyline_sum(2, 10); // 21 stages > 12
        assert!(pack(&model, &[q]).is_err());
    }
}
