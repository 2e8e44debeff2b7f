//! GROUP BY MAX/MIN as a switch program: wide rows of `(key, best)` cells.

use cheetah_core::decision::Decision;
use cheetah_core::groupby::Extremum;
use cheetah_core::hash::HashFn;
use cheetah_core::resources::{table2, ResourceUsage, SwitchModel};

use crate::pipeline::{PipelineViolation, RegId, SwitchPipeline};
use crate::programs::SwitchProgram;

/// GROUP BY extremum pruner on wide rows `[k₀…k_{w−1}, b₀…b_{w−1}, cursor]`
/// under the shared-memory assumption (one logical access per packet; a
/// hit writes one value cell, a miss writes a key/value pair + cursor).
///
/// Hardware registers initialize to zero, so an empty key cell is 0 and a
/// cell holding key `k` stores the marker `k + 1`; the row is hashed from
/// `k` itself, as the core pruner does, so both decide every key alike.
/// The one key whose marker would be the empty cell is `u64::MAX`: its
/// entries are forwarded without touching state, which is always safe
/// (the master folds every survivor).
#[derive(Debug)]
pub struct GroupByProgram {
    pipe: SwitchPipeline,
    rows: RegId,
    row_hash: HashFn,
    d: usize,
    w: usize,
    agg: Extremum,
}

impl GroupByProgram {
    /// Configure with matrix dimensions `(d, w)`; `seed` must match the
    /// core [`GroupByPruner`](cheetah_core::groupby::GroupByPruner).
    pub fn new(
        spec: SwitchModel,
        d: usize,
        w: usize,
        agg: Extremum,
        seed: u64,
    ) -> Result<Self, PipelineViolation> {
        let mut pipe = SwitchPipeline::new(spec);
        let rows = pipe.alloc_wide_register("groupby", 0, d, 2 * w + 1, 0)?;
        Ok(GroupByProgram {
            pipe,
            rows,
            row_hash: HashFn::new(seed),
            d,
            w,
            agg,
        })
    }
}

impl SwitchProgram for GroupByProgram {
    fn pipeline(&self) -> &SwitchPipeline {
        &self.pipe
    }

    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation> {
        let (key, value) = (values[0], values[1]);
        let mut ctx = self.pipe.begin_packet(2)?;
        ctx.use_metadata(16 + 1)?;
        let Some(marker) = key.checked_add(1) else {
            return Ok(Decision::Forward);
        };
        let row = ctx.hash_bucket(&self.row_hash, key, self.d);
        let (w, agg) = (self.w, self.agg);
        let mut decision = Decision::Forward;
        ctx.reg_rmw_wide(self.rows, row, |cells| {
            let keys = &cells[..w];
            let bests = &cells[w..2 * w];
            let cursor = cells[2 * w] as usize;
            if let Some(i) = keys.iter().position(|&k| k == marker) {
                let improves = match agg {
                    Extremum::Max => value > bests[i],
                    Extremum::Min => value < bests[i],
                };
                if improves {
                    return vec![(w + i, value)];
                }
                decision = Decision::Prune;
                return Vec::new();
            }
            match keys.iter().position(|&k| k == 0) {
                Some(i) => vec![(i, marker), (w + i, value)],
                None => vec![
                    (cursor, marker),
                    (w + cursor, value),
                    (2 * w, ((cursor + 1) % w) as u64),
                ],
            }
        })?;
        Ok(decision)
    }

    fn reset(&mut self) {
        self.pipe.clear_registers();
    }

    fn layout(&self) -> ResourceUsage {
        // Table 2's d·w×64b counts the value cells; keys and the cursor
        // double it (+d), which we account for honestly.
        let base = table2::group_by(self.w as u32, self.d as u64);
        ResourceUsage {
            sram_bits: base.sram_bits * 2 + self.d as u64 * 64,
            ..base
        }
    }

    fn name(&self) -> &'static str {
        "pisa-groupby"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improving_values_forwarded() {
        let mut p =
            GroupByProgram::new(SwitchModel::tofino_like(), 16, 2, Extremum::Max, 0).unwrap();
        assert_eq!(p.process(&[7, 100]).unwrap(), Decision::Forward);
        assert_eq!(p.process(&[7, 50]).unwrap(), Decision::Prune);
        assert_eq!(p.process(&[7, 100]).unwrap(), Decision::Prune);
        assert_eq!(p.process(&[7, 101]).unwrap(), Decision::Forward);
    }

    #[test]
    fn min_variant() {
        let mut p =
            GroupByProgram::new(SwitchModel::tofino_like(), 16, 2, Extremum::Min, 0).unwrap();
        assert_eq!(p.process(&[7, 100]).unwrap(), Decision::Forward);
        assert_eq!(p.process(&[7, 50]).unwrap(), Decision::Forward);
        assert_eq!(p.process(&[7, 60]).unwrap(), Decision::Prune);
    }

    #[test]
    fn eviction_cycles_cursor() {
        let mut p =
            GroupByProgram::new(SwitchModel::tofino_like(), 1, 2, Extremum::Max, 0).unwrap();
        assert_eq!(p.process(&[1, 10]).unwrap(), Decision::Forward);
        assert_eq!(p.process(&[2, 10]).unwrap(), Decision::Forward);
        // Row full: key 3 evicts key 1 (cursor 0).
        assert_eq!(p.process(&[3, 10]).unwrap(), Decision::Forward);
        // Key 1 returns: re-inserted (evicting key 2), forwarded.
        assert_eq!(p.process(&[1, 5]).unwrap(), Decision::Forward);
        // Key 3 still cached: non-improving duplicate pruned.
        assert_eq!(p.process(&[3, 9]).unwrap(), Decision::Prune);
    }

    #[test]
    fn zero_is_a_key_and_max_forwards_without_state() {
        let mut p =
            GroupByProgram::new(SwitchModel::tofino_like(), 1, 1, Extremum::Max, 0).unwrap();
        assert_eq!(p.process(&[0, 10]).unwrap(), Decision::Forward);
        assert_eq!(p.process(&[0, 9]).unwrap(), Decision::Prune);
        // u64::MAX never takes the one cell: key 0 stays cached.
        for v in [10, 9] {
            assert_eq!(p.process(&[u64::MAX, v]).unwrap(), Decision::Forward);
        }
        assert_eq!(p.process(&[0, 9]).unwrap(), Decision::Prune);
    }

    #[test]
    fn reset_clears() {
        let mut p =
            GroupByProgram::new(SwitchModel::tofino_like(), 8, 2, Extremum::Max, 0).unwrap();
        p.process(&[1, 10]).unwrap();
        assert_eq!(p.process(&[1, 10]).unwrap(), Decision::Prune);
        p.reset();
        assert_eq!(p.process(&[1, 10]).unwrap(), Decision::Forward);
    }
}
