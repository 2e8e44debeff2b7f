//! Filtering as a switch program: ALU comparisons into a bit vector, then
//! one truth-table lookup (§4.1's match-action encoding).

use cheetah_core::decision::Decision;
use cheetah_core::filter::{Atom, Formula, TooManyAtoms};
use cheetah_core::resources::{table2, ResourceUsage, SwitchModel};

use crate::pipeline::{PipelineViolation, SwitchPipeline, TableId};
use crate::programs::SwitchProgram;

/// Errors configuring a filter program.
#[derive(Debug)]
pub enum FilterConfigError {
    /// The decomposed formula has too many atoms for one truth table.
    TooManyAtoms(TooManyAtoms),
    /// The pipeline rejected the configuration.
    Pipeline(PipelineViolation),
}

impl From<TooManyAtoms> for FilterConfigError {
    fn from(e: TooManyAtoms) -> Self {
        FilterConfigError::TooManyAtoms(e)
    }
}

impl From<PipelineViolation> for FilterConfigError {
    fn from(e: PipelineViolation) -> Self {
        FilterConfigError::Pipeline(e)
    }
}

/// The compiled filtering program.
///
/// Configuration mirrors the Cheetah query compiler: decompose the `WHERE`
/// formula (§4.1 tautology substitution), enumerate the truth table of the
/// switch-evaluable relaxation, and install it as an exact-match table
/// keyed by the predicate bit vector. Per packet: one ALU comparison per
/// supported atom, one table lookup.
#[derive(Debug)]
pub struct FilterProgram {
    pipe: SwitchPipeline,
    atoms: Vec<Atom>,
    /// Atom ids in bit order.
    bit_atoms: Vec<usize>,
    table: TableId,
}

impl FilterProgram {
    /// Compile `formula` over `atoms` onto a fresh pipeline.
    pub fn new(
        spec: SwitchModel,
        atoms: Vec<Atom>,
        formula: &Formula,
    ) -> Result<Self, FilterConfigError> {
        let switch_formula = formula.decompose(&atoms);
        let bit_atoms = switch_formula.atom_ids();
        if bit_atoms.len() > 16 {
            return Err(TooManyAtoms(bit_atoms.len()).into());
        }
        // Enumerate the truth table (control-plane compilation).
        let k = bit_atoms.len();
        let mut entries = Vec::with_capacity(1 << k);
        for v in 0u64..(1 << k) {
            let truth = |atom: usize| {
                let j = bit_atoms.iter().position(|&a| a == atom).expect("covered");
                (v >> j) & 1 == 1
            };
            if switch_formula.eval_with(&truth) {
                entries.push((v, 1u64));
            }
        }
        let mut pipe = SwitchPipeline::new(spec);
        // Stage 0 computes the predicate bits; stage 1 holds the table.
        let table = pipe.install_table(1, entries, 17)?;
        Ok(FilterProgram {
            pipe,
            atoms,
            bit_atoms,
            table,
        })
    }
}

impl SwitchProgram for FilterProgram {
    fn pipeline(&self) -> &SwitchPipeline {
        &self.pipe
    }

    fn process(&mut self, values: &[u64]) -> Result<Decision, PipelineViolation> {
        let mut ctx = self.pipe.begin_packet(values.len() as u32)?;
        ctx.use_metadata(self.bit_atoms.len() as u32)?;
        let mut v = 0u64;
        for (j, &id) in self.bit_atoms.iter().enumerate() {
            ctx.alu()?; // one comparison per supported atom
            if self.atoms[id].eval(values) {
                v |= 1 << j;
            }
        }
        let hit = ctx.table_lookup(self.table, v)?;
        Ok(if hit.is_some() {
            Decision::Forward
        } else {
            Decision::Prune
        })
    }

    fn reset(&mut self) {}

    fn layout(&self) -> ResourceUsage {
        let preds = self.bit_atoms.len() as u32;
        let base = table2::filter(preds.max(1));
        ResourceUsage {
            sram_bits: base.sram_bits + (1u64 << self.bit_atoms.len()),
            ..base
        }
    }

    fn name(&self) -> &'static str {
        "pisa-filter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::filter::CmpOp;

    /// The paper's example: (taste > 5) OR (texture > 4 AND LIKE).
    fn paper_atoms() -> (Vec<Atom>, Formula) {
        let atoms = vec![
            Atom::cmp(0, CmpOp::Gt, 5),
            Atom::cmp(1, CmpOp::Gt, 4),
            Atom::unsupported(2, CmpOp::Eq, 1),
        ];
        let f = Formula::Or(vec![
            Formula::Atom(0),
            Formula::And(vec![Formula::Atom(1), Formula::Atom(2)]),
        ]);
        (atoms, f)
    }

    #[test]
    fn relaxation_on_switch() {
        let (atoms, f) = paper_atoms();
        let mut p = FilterProgram::new(SwitchModel::tofino_like(), atoms, &f).unwrap();
        // taste ≤ 5 ∧ texture ≤ 4: pruned regardless of the LIKE bit.
        assert_eq!(p.process(&[3, 2, 0]).unwrap(), Decision::Prune);
        assert_eq!(p.process(&[3, 2, 1]).unwrap(), Decision::Prune);
        // texture > 4: survives (the switch can't see the LIKE).
        assert_eq!(p.process(&[3, 9, 0]).unwrap(), Decision::Forward);
        // taste > 5: survives.
        assert_eq!(p.process(&[7, 0, 0]).unwrap(), Decision::Forward);
    }

    #[test]
    fn too_many_atoms_rejected() {
        let atoms: Vec<Atom> = (0..20).map(|i| Atom::cmp(i, CmpOp::Gt, 0)).collect();
        let f = Formula::Or((0..20).map(Formula::Atom).collect());
        assert!(matches!(
            FilterProgram::new(SwitchModel::tofino_like(), atoms, &f),
            Err(FilterConfigError::TooManyAtoms(_))
        ));
    }

    #[test]
    fn layout_counts_predicates() {
        let (atoms, f) = paper_atoms();
        let p = FilterProgram::new(SwitchModel::tofino_like(), atoms, &f).unwrap();
        assert_eq!(p.layout().alus, 2, "two supported atoms survive");
    }
}
