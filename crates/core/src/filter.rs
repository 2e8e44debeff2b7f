//! Filtering-query pruning and predicate decomposition (§4.1, Example 1).
//!
//! A `WHERE` expression may mix predicates the switch can evaluate (integer
//! comparisons) with ones it cannot (string `LIKE`, arbitrary arithmetic).
//! Cheetah's query compiler takes the *monotone* Boolean formula over
//! predicate variables, replaces every unsupported variable with a
//! tautology (`T ∨ F` ≡ `True`) and simplifies. Because the formula is
//! monotone, the substituted formula is implied by no-stronger inputs:
//! if the switch formula evaluates to `false`, the original is certainly
//! `false`, so pruning on it is safe; the master re-checks the full
//! predicate on survivors.
//!
//! On the switch, the supported predicates are evaluated into a bit vector
//! and the formula is applied with a single **truth-table** lookup
//! ([`TruthTable`]) — exactly the match-action encoding §4.1 describes.
//!
//! Alternatively the CWorker can pre-compute an unsupported predicate and
//! ship its result as an extra 0/1 packet value ([`Atom::precomputed`]),
//! making it switch-checkable after all.

use crate::decision::{Decision, RowPruner};
use crate::resources::{table2, ResourceUsage};

/// Comparison operators available to switch ALUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Evaluate `lhs op rhs`.
    #[inline]
    pub fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }

    /// The complementary operator (`¬(a < b) ≡ a ≥ b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }
}

/// An atomic predicate `row[col] op constant`.
///
/// `supported` records whether the switch can evaluate it; unsupported
/// atoms (standing in for `LIKE`, UDFs, non-power-of-two arithmetic) are
/// still evaluable here so tests can compute ground truth, but the
/// decomposition replaces them with `True`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Index of the packet value the predicate reads.
    pub col: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand constant (installed by the control plane).
    pub constant: u64,
    /// Whether the switch can evaluate this atom.
    pub supported: bool,
}

impl Atom {
    /// A switch-supported comparison atom.
    pub fn cmp(col: usize, op: CmpOp, constant: u64) -> Self {
        Atom {
            col,
            op,
            constant,
            supported: true,
        }
    }

    /// A switch-unsupported atom (e.g. a string `LIKE`).
    pub fn unsupported(col: usize, op: CmpOp, constant: u64) -> Self {
        Atom {
            col,
            op,
            constant,
            supported: false,
        }
    }

    /// An atom whose truth value the CWorker pre-computed into packet
    /// value `col` (1 = true): a plain bit check, always supported.
    pub fn precomputed(col: usize) -> Self {
        Atom {
            col,
            op: CmpOp::Eq,
            constant: 1,
            supported: true,
        }
    }

    /// Evaluate against a row.
    #[inline]
    pub fn eval(&self, row: &[u64]) -> bool {
        self.op.eval(row[self.col], self.constant)
    }
}

/// A Boolean formula over atoms in negation normal form: negations appear
/// only as [`Formula::NotAtom`] literals, keeping the connective structure
/// monotone as §4.1 requires for tautology substitution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// Positive literal: atom `i` holds.
    Atom(usize),
    /// Negative literal: atom `i` does not hold.
    NotAtom(usize),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Constant true.
    True,
    /// Constant false.
    False,
}

impl Formula {
    /// Evaluate given a truth assignment for the atoms.
    pub fn eval_with(&self, truth: &dyn Fn(usize) -> bool) -> bool {
        match self {
            Formula::Atom(i) => truth(*i),
            Formula::NotAtom(i) => !truth(*i),
            Formula::And(fs) => fs.iter().all(|f| f.eval_with(truth)),
            Formula::Or(fs) => fs.iter().any(|f| f.eval_with(truth)),
            Formula::True => true,
            Formula::False => false,
        }
    }

    /// Evaluate the full formula (including unsupported atoms) on a row —
    /// what the master does on survivors.
    pub fn eval(&self, atoms: &[Atom], row: &[u64]) -> bool {
        self.eval_with(&|i| atoms[i].eval(row))
    }

    /// §4.1 decomposition: replace every literal on an unsupported atom
    /// with `True` (the tautology `T ∨ F`) and simplify. The result is the
    /// switch-evaluable relaxation: it is implied by the original formula,
    /// so `switch says false ⇒ original is false`.
    pub fn decompose(&self, atoms: &[Atom]) -> Formula {
        match self {
            Formula::Atom(i) | Formula::NotAtom(i) if !atoms[*i].supported => Formula::True,
            Formula::Atom(i) => Formula::Atom(*i),
            Formula::NotAtom(i) => Formula::NotAtom(*i),
            Formula::And(fs) => {
                let mut out = Vec::with_capacity(fs.len());
                for f in fs {
                    match f.decompose(atoms) {
                        Formula::True => {}
                        Formula::False => return Formula::False,
                        g => out.push(g),
                    }
                }
                match out.len() {
                    0 => Formula::True,
                    1 => out.pop().expect("len checked"),
                    _ => Formula::And(out),
                }
            }
            Formula::Or(fs) => {
                let mut out = Vec::with_capacity(fs.len());
                for f in fs {
                    match f.decompose(atoms) {
                        Formula::False => {}
                        Formula::True => return Formula::True,
                        g => out.push(g),
                    }
                }
                match out.len() {
                    0 => Formula::False,
                    1 => out.pop().expect("len checked"),
                    _ => Formula::Or(out),
                }
            }
            Formula::True => Formula::True,
            Formula::False => Formula::False,
        }
    }

    /// Atom ids referenced by this formula, ascending and deduplicated.
    pub fn atom_ids(&self) -> Vec<usize> {
        let mut ids = Vec::new();
        self.collect_atoms(&mut ids);
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn collect_atoms(&self, out: &mut Vec<usize>) {
        match self {
            Formula::Atom(i) | Formula::NotAtom(i) => out.push(*i),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|f| f.collect_atoms(out)),
            Formula::True | Formula::False => {}
        }
    }
}

/// The switch encoding of a decomposed formula: evaluate each supported
/// atom to a bit, concatenate, and look the word up in a `2^k` truth table
/// installed by the control plane (§4.1's "bit vector … truth table").
#[derive(Debug, Clone)]
pub struct TruthTable {
    /// Atom ids in bit order (bit `j` = atom `atom_ids[j]`).
    atom_ids: Vec<usize>,
    /// Packed table: bit `v` = formula value under assignment `v`.
    table: Vec<u64>,
}

/// Compiling a formula with too many distinct atoms for the match-action
/// table (the switch looks the bit vector up in one table; we cap at 2¹⁶
/// entries as a typical exact-match table size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooManyAtoms(pub usize);

impl std::fmt::Display for TooManyAtoms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "formula uses {} atoms; truth table caps at 16", self.0)
    }
}

impl std::error::Error for TooManyAtoms {}

impl TruthTable {
    /// Enumerate all `2^k` assignments of the formula's atoms.
    pub fn compile(formula: &Formula) -> Result<TruthTable, TooManyAtoms> {
        let atom_ids = formula.atom_ids();
        let k = atom_ids.len();
        if k > 16 {
            return Err(TooManyAtoms(k));
        }
        let entries = 1usize << k;
        let mut table = vec![0u64; entries.div_ceil(64)];
        for v in 0..entries {
            let truth = |atom: usize| {
                let j = atom_ids
                    .iter()
                    .position(|&a| a == atom)
                    .expect("atom_ids covers formula");
                (v >> j) & 1 == 1
            };
            if formula.eval_with(&truth) {
                table[v / 64] |= 1u64 << (v % 64);
            }
        }
        Ok(TruthTable { atom_ids, table })
    }

    /// The assignments the formula holds under: the match entries the
    /// control plane installs.
    pub fn true_entries(&self) -> u64 {
        self.table.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Evaluate on a row by computing the atom bit-vector and indexing.
    pub fn eval(&self, atoms: &[Atom], row: &[u64]) -> bool {
        let mut v = 0usize;
        for (j, &id) in self.atom_ids.iter().enumerate() {
            if atoms[id].eval(row) {
                v |= 1 << j;
            }
        }
        self.table[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Evaluate every entry of a column-major block (`cols[atom.col][i]`
    /// for entry `i`, `out.len()` entries) — the switch's block path.
    /// Atom-major: one pass per atom ORs its bit into a stack lane of
    /// assignments with the operator resolved once per pass, then one
    /// table lookup per entry; no data-dependent branch anywhere.
    pub fn eval_block(&self, atoms: &[Atom], cols: &[&[u64]], out: &mut [Decision]) {
        for (c, out) in out.chunks_mut(EVAL_CHUNK).enumerate() {
            let (base, n) = (c * EVAL_CHUNK, out.len());
            let values = |col: usize| cols[col][base..base + n].iter().copied();
            self.eval_lanes(atoms, n, values, |i, hit| {
                out[i] = if hit {
                    Decision::Forward
                } else {
                    Decision::Prune
                };
            });
        }
    }

    /// [`Self::eval_block`] over the entries `idx` of the block only:
    /// `out[k]` is the formula on entry `idx[k]`. The master's re-check of
    /// a block's survivors.
    pub fn eval_indexed(&self, atoms: &[Atom], cols: &[&[u64]], idx: &[u16], out: &mut [bool]) {
        assert_eq!(idx.len(), out.len(), "one verdict per indexed entry");
        for (idx, out) in idx.chunks(EVAL_CHUNK).zip(out.chunks_mut(EVAL_CHUNK)) {
            let values = |col: usize| idx.iter().map(move |&i| cols[col][usize::from(i)]);
            self.eval_lanes(atoms, idx.len(), values, |k, hit| out[k] = hit);
        }
    }

    /// The shared kernel: the assignment lane of `n ≤ EVAL_CHUNK` entries
    /// whose lane `col` reads `values(col)`, looked up entry by entry into
    /// `emit(entry, formula value)`.
    fn eval_lanes<I: Iterator<Item = u64>>(
        &self,
        atoms: &[Atom],
        n: usize,
        values: impl Fn(usize) -> I,
        mut emit: impl FnMut(usize, bool),
    ) {
        let mut lane = [0u16; EVAL_CHUNK];
        let lane = &mut lane[..n];
        for (j, &id) in self.atom_ids.iter().enumerate() {
            let Atom {
                col, op, constant, ..
            } = atoms[id];
            or_bits(lane, j, op, constant, values(col));
        }
        for (i, &v) in lane.iter().enumerate() {
            let v = usize::from(v);
            emit(i, self.table[v / 64] >> (v % 64) & 1 != 0);
        }
    }

    /// Number of atoms (bit-vector width).
    pub fn arity(&self) -> usize {
        self.atom_ids.len()
    }
}

/// Entries a [`TruthTable`] block evaluation assigns at a time: a 2 KB
/// stack lane of `u16` assignments, L1-resident across the atom passes.
const EVAL_CHUNK: usize = 1024;

/// OR bit `j` of `lane[i]` with `values[i] op constant`. The operator is
/// matched once, outside the loop, so each arm is a tight compare-and-OR
/// loop of its own.
fn or_bits(lane: &mut [u16], j: usize, op: CmpOp, c: u64, values: impl Iterator<Item = u64>) {
    fn pass(
        lane: &mut [u16],
        j: usize,
        values: impl Iterator<Item = u64>,
        holds: impl Fn(u64) -> bool,
    ) {
        for (bits, v) in lane.iter_mut().zip(values) {
            *bits |= u16::from(holds(v)) << j;
        }
    }
    match op {
        CmpOp::Lt => pass(lane, j, values, |v| v < c),
        CmpOp::Le => pass(lane, j, values, |v| v <= c),
        CmpOp::Gt => pass(lane, j, values, |v| v > c),
        CmpOp::Ge => pass(lane, j, values, |v| v >= c),
        CmpOp::Eq => pass(lane, j, values, |v| v == c),
        CmpOp::Ne => pass(lane, j, values, |v| v != c),
    }
}

/// The complete filtering pruner: decomposed formula compiled to a truth
/// table; prunes rows the switch-evaluable relaxation rejects.
#[derive(Debug, Clone)]
pub struct FilterPruner {
    atoms: Vec<Atom>,
    /// The original (full) formula — what the master re-checks.
    original: Formula,
    /// The switch relaxation.
    switch_formula: Formula,
    table: TruthTable,
}

impl FilterPruner {
    /// Build from the atom list and the full `WHERE` formula.
    pub fn new(atoms: Vec<Atom>, formula: Formula) -> Result<Self, TooManyAtoms> {
        let switch_formula = formula.decompose(&atoms);
        let table = TruthTable::compile(&switch_formula)?;
        Ok(FilterPruner {
            atoms,
            original: formula,
            switch_formula,
            table,
        })
    }

    /// Switch decision for one row.
    pub fn process(&self, row: &[u64]) -> Decision {
        if self.table.eval(&self.atoms, row) {
            Decision::Forward
        } else {
            Decision::Prune
        }
    }

    /// The master's residual check (the full original predicate).
    pub fn master_accepts(&self, row: &[u64]) -> bool {
        self.original.eval(&self.atoms, row)
    }

    /// The decomposed switch formula (for inspection).
    pub fn switch_formula(&self) -> &Formula {
        &self.switch_formula
    }

    /// The atoms, each marked whether the switch evaluates it.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The full `WHERE` formula.
    pub fn formula(&self) -> &Formula {
        &self.original
    }

    /// The switch formula's compiled truth table.
    pub fn table(&self) -> &TruthTable {
        &self.table
    }

    /// Resources: one ALU and one 32-bit constant register per supported
    /// atom (Appendix A.2.2), plus the truth-table match entries.
    pub fn resources(&self) -> ResourceUsage {
        let preds = self.table.arity() as u32;
        let base = table2::filter(preds.max(1));
        ResourceUsage {
            sram_bits: base.sram_bits + (1u64 << self.table.arity()),
            ..base
        }
    }
}

impl RowPruner for FilterPruner {
    fn process_row(&mut self, row: &[u64]) -> Decision {
        self.process(row)
    }

    fn process_block(&mut self, cols: &[&[u64]], out: &mut [Decision]) {
        self.table.eval_block(&self.atoms, cols, out);
    }

    fn reset(&mut self) {}

    fn name(&self) -> &'static str {
        "filter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The paper's example: (taste > 5) OR (texture > 4 AND name LIKE e%s),
    /// with the LIKE unsupported. Columns: 0 = taste, 1 = texture,
    /// 2 = a stand-in numeric encoding the LIKE would inspect.
    fn paper_example() -> (Vec<Atom>, Formula) {
        let atoms = vec![
            Atom::cmp(0, CmpOp::Gt, 5),         // taste > 5
            Atom::cmp(1, CmpOp::Gt, 4),         // texture > 4
            Atom::unsupported(2, CmpOp::Eq, 1), // name LIKE e%s
        ];
        let f = Formula::Or(vec![
            Formula::Atom(0),
            Formula::And(vec![Formula::Atom(1), Formula::Atom(2)]),
        ]);
        (atoms, f)
    }

    #[test]
    fn paper_example_decomposition() {
        let (atoms, f) = paper_example();
        // Expected relaxation: (taste > 5) OR (texture > 4).
        let d = f.decompose(&atoms);
        assert_eq!(d, Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]));
    }

    #[test]
    fn decomposition_is_sound_never_prunes_a_match() {
        let (atoms, f) = paper_example();
        let p = FilterPruner::new(atoms, f).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let row = [
                rng.gen_range(0..10u64),
                rng.gen_range(0..10u64),
                rng.gen_range(0..2u64),
            ];
            if p.master_accepts(&row) {
                assert!(
                    p.process(&row).is_forward(),
                    "pruned a row the query selects: {row:?}"
                );
            }
        }
    }

    #[test]
    fn pruning_is_effective_where_it_can_be() {
        let (atoms, f) = paper_example();
        let p = FilterPruner::new(atoms, f).unwrap();
        // taste ≤ 5 and texture ≤ 4: provably rejected regardless of LIKE.
        assert!(p.process(&[3, 2, 1]).is_prune());
        // LIKE-only failures cannot be pruned (switch can't see it).
        assert!(p.process(&[3, 9, 0]).is_forward());
        assert!(!p.master_accepts(&[3, 9, 0]));
    }

    #[test]
    fn all_supported_formula_prunes_exactly() {
        let atoms = vec![Atom::cmp(0, CmpOp::Ge, 10), Atom::cmp(1, CmpOp::Lt, 3)];
        let f = Formula::And(vec![Formula::Atom(0), Formula::Atom(1)]);
        let p = FilterPruner::new(atoms, f).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5_000 {
            let row = [rng.gen_range(0..20u64), rng.gen_range(0..6u64)];
            assert_eq!(
                p.process(&row).is_forward(),
                p.master_accepts(&row),
                "fully-supported formula must prune exactly: {row:?}"
            );
        }
    }

    #[test]
    fn negated_literals_work() {
        // NOT (x == 5) AND y < 2 — NNF with a NotAtom literal.
        let atoms = vec![Atom::cmp(0, CmpOp::Eq, 5), Atom::cmp(1, CmpOp::Lt, 2)];
        let f = Formula::And(vec![Formula::NotAtom(0), Formula::Atom(1)]);
        let p = FilterPruner::new(atoms, f).unwrap();
        assert!(p.process(&[5, 1]).is_prune());
        assert!(p.process(&[4, 1]).is_forward());
        assert!(p.process(&[4, 3]).is_prune());
    }

    #[test]
    fn negated_unsupported_also_substituted() {
        // NOT LIKE is just as unsupported: must relax to True.
        let atoms = vec![Atom::unsupported(0, CmpOp::Eq, 1)];
        let f = Formula::NotAtom(0);
        assert_eq!(f.decompose(&atoms), Formula::True);
    }

    #[test]
    fn all_unsupported_means_no_pruning() {
        let atoms = vec![Atom::unsupported(0, CmpOp::Eq, 1)];
        let f = Formula::Atom(0);
        let p = FilterPruner::new(atoms, f).unwrap();
        assert!(p.process(&[0]).is_forward());
        assert!(p.process(&[1]).is_forward());
    }

    #[test]
    fn precomputed_atom_restores_pruning() {
        // The CWorker evaluates LIKE into column 2 (§4.1's alternative):
        // the whole formula becomes switch-checkable.
        let atoms = vec![
            Atom::cmp(0, CmpOp::Gt, 5),
            Atom::cmp(1, CmpOp::Gt, 4),
            Atom::precomputed(2),
        ];
        let f = Formula::Or(vec![
            Formula::Atom(0),
            Formula::And(vec![Formula::Atom(1), Formula::Atom(2)]),
        ]);
        let p = FilterPruner::new(atoms, f).unwrap();
        // texture > 4 but LIKE false: now pruned at the switch.
        assert!(p.process(&[3, 9, 0]).is_prune());
        assert!(p.process(&[3, 9, 1]).is_forward());
    }

    #[test]
    fn truth_table_matches_direct_eval() {
        let atoms = vec![
            Atom::cmp(0, CmpOp::Lt, 100),
            Atom::cmp(1, CmpOp::Ge, 50),
            Atom::cmp(2, CmpOp::Ne, 7),
        ];
        let f = Formula::Or(vec![
            Formula::And(vec![Formula::Atom(0), Formula::Atom(1)]),
            Formula::NotAtom(2),
        ]);
        let t = TruthTable::compile(&f).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2_000 {
            let row = [
                rng.gen_range(0..200u64),
                rng.gen_range(0..100u64),
                rng.gen_range(0..10u64),
            ];
            assert_eq!(t.eval(&atoms, &row), f.eval(&atoms, &row));
        }
    }

    #[test]
    fn block_and_indexed_eval_match_row_eval_across_chunks() {
        // Every operator, a negated literal, constants on the data's
        // edges; 2.5 evaluation chunks so the kernel's chunking is crossed.
        let atoms = vec![
            Atom::cmp(0, CmpOp::Lt, 3),
            Atom::cmp(1, CmpOp::Le, 0),
            Atom::cmp(2, CmpOp::Gt, 5),
            Atom::cmp(0, CmpOp::Ge, 7),
            Atom::cmp(1, CmpOp::Eq, 4),
            Atom::unsupported(2, CmpOp::Ne, 9),
        ];
        let f = Formula::Or(vec![
            Formula::And(vec![Formula::Atom(0), Formula::NotAtom(1)]),
            Formula::And(vec![Formula::Atom(2), Formula::Atom(5)]),
            Formula::Atom(3),
            Formula::Atom(4),
        ]);
        let t = TruthTable::compile(&f).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 2 * EVAL_CHUNK + EVAL_CHUNK / 2;
        let lanes: Vec<Vec<u64>> = (0..3)
            .map(|_| (0..n).map(|_| rng.gen_range(0..10u64)).collect())
            .collect();
        let cols: Vec<&[u64]> = lanes.iter().map(Vec::as_slice).collect();
        let row = |i: usize| [lanes[0][i], lanes[1][i], lanes[2][i]];
        let mut block = vec![Decision::Prune; n];
        t.eval_block(&atoms, &cols, &mut block);
        let idx: Vec<u16> = (0..n as u16).filter(|i| i % 3 != 1).collect();
        let mut indexed = vec![false; idx.len()];
        t.eval_indexed(&atoms, &cols, &idx, &mut indexed);
        for (i, d) in block.iter().enumerate() {
            assert_eq!(d.is_forward(), f.eval(&atoms, &row(i)), "entry {i}");
        }
        for (&i, &ok) in idx.iter().zip(&indexed) {
            assert_eq!(ok, f.eval(&atoms, &row(usize::from(i))), "index {i}");
        }
    }

    #[test]
    fn truth_table_rejects_wide_formulas() {
        let atoms: Vec<Atom> = (0..20).map(|i| Atom::cmp(i, CmpOp::Gt, 0)).collect();
        let f = Formula::Or((0..20).map(Formula::Atom).collect());
        let _ = &atoms;
        match TruthTable::compile(&f) {
            Err(TooManyAtoms(n)) => assert_eq!(n, 20),
            Ok(_) => panic!("20-atom formula must be rejected"),
        }
    }

    #[test]
    fn cmp_op_negation_roundtrip() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert_eq!(op.negate().negate(), op);
            for (a, b) in [(1u64, 2u64), (2, 2), (3, 2)] {
                assert_eq!(op.eval(a, b), !op.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn constant_folding() {
        let atoms = vec![Atom::cmp(0, CmpOp::Gt, 5)];
        // (True AND x) OR False → x
        let f = Formula::Or(vec![
            Formula::And(vec![Formula::True, Formula::Atom(0)]),
            Formula::False,
        ]);
        assert_eq!(f.decompose(&atoms), Formula::Atom(0));
        // True OR x → True
        let f = Formula::Or(vec![Formula::True, Formula::Atom(0)]);
        assert_eq!(f.decompose(&atoms), Formula::True);
        // False AND x → False
        let f = Formula::And(vec![Formula::False, Formula::Atom(0)]);
        assert_eq!(f.decompose(&atoms), Formula::False);
    }

    #[test]
    fn resources_scale_with_arity() {
        let atoms = vec![Atom::cmp(0, CmpOp::Gt, 5), Atom::cmp(1, CmpOp::Lt, 9)];
        let f = Formula::And(vec![Formula::Atom(0), Formula::Atom(1)]);
        let p = FilterPruner::new(atoms, f).unwrap();
        let r = p.resources();
        assert_eq!(r.stages, 1);
        assert_eq!(r.alus, 2);
    }
}
