//! Binding: [`Query::bind`] resolves every table and column a query
//! names, checks its shape and compiles the one `Program` its switch runs
//! (§3) — which program, at what geometry, and what it charges the
//! switch — once, before any arm streams a row. The deterministic scan,
//! the pool and Spark transports, serving and the planner all run the
//! [`Bound`] it returns; a malformed query is a [`QueryError`] here.

use std::fmt;

use cheetah_core::distinct::EvictionPolicy;
use cheetah_core::groupby::Extremum;
use cheetah_core::resources::{table2, ResourceUsage};

use crate::backend::{
    distinct_rows, having_by_registers, relax, spec, topn_geometry, JoinFilters, Matrix, SinglePass,
};
use crate::cheetah::PrunerConfig;
use crate::query::{Agg, FetchSpec, Predicate, Query};
use crate::sharded::lopsided;
use crate::table::{Database, Table};

/// The dataflow a bound query runs, at the geometry it is built at.
#[derive(Debug, Clone)]
pub(crate) enum Program<'a> {
    /// One row-pruned pass: the shapes serving can pack into a shared
    /// scan (Filter, DISTINCT, TOP N, GROUP BY MAX/MIN, SKYLINE).
    SinglePass(SinglePass),
    /// §6 register aggregation: GROUP BY SUM/COUNT, and a HAVING whose key
    /// domain fits the registers (`backend::having_by_registers`).
    Registers {
        /// A HAVING's threshold; `None` for GROUP BY.
        threshold: Option<u64>,
        /// The register matrix.
        matrix: Matrix,
    },
    /// §5's two-pass HAVING: a Count-Min observation pass, then the
    /// candidates' entries to the master.
    Having {
        /// The HAVING threshold `c`.
        threshold: u64,
        /// The Count-Min sketch.
        sketch: Matrix,
    },
    /// §4.3's JOIN of the bound table against `right`'s lane `right_col`.
    Join {
        /// The right table.
        right: &'a Table,
        /// Whether the pool arms take §4.3's asymmetric flow, streaming
        /// each side once. The deterministic arm ignores it.
        lopsided: bool,
        /// The right join lane.
        right_col: usize,
        /// The filter pair, sized for the whole tables. A shard of a
        /// sharded JOIN sizes its own pair for its partition, which is
        /// cut after bind (`sharded::join_shard`).
        filters: JoinFilters,
    },
}

/// A query resolved against a database under one switch configuration:
/// what every arm runs. Only [`Query::bind`] makes one.
#[derive(Debug)]
pub struct Bound<'a> {
    /// The query as written.
    pub(crate) query: &'a Query,
    /// The table it streams (a JOIN's left side).
    pub(crate) table: &'a Table,
    /// `table`'s lanes the switch sees, in query order (GROUP BY COUNT
    /// sums ones and has no value lane).
    pub(crate) cols: Vec<usize>,
    /// The program it runs.
    pub(crate) program: Program<'a>,
    /// What `program` occupies on the switch: what serving's packing and
    /// the planner's feasibility check charge it.
    pub(crate) charge: ResourceUsage,
}

/// Why a query cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The database has no table of this name.
    UnknownTable(String),
    /// `(table, column)`: the table has no column of this name.
    UnknownColumn(String, String),
    /// A DistinctMulti or SKYLINE (its [`Query::kind`]) names no column.
    NoColumns(&'static str),
    /// `(atom, column)`: a predicate atom reads a column the predicate
    /// does not name.
    AtomColumn(usize, usize),
    /// A formula literal names an atom the predicate does not have.
    FormulaAtom(usize),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownTable(t) => write!(f, "no table '{t}'"),
            QueryError::UnknownColumn(t, c) => write!(f, "no column '{c}' in table '{t}'"),
            QueryError::NoColumns(kind) => write!(f, "a {kind} query over no columns"),
            QueryError::AtomColumn(a, c) => write!(f, "predicate atom {a} reads no column {c}"),
            QueryError::FormulaAtom(a) => write!(f, "formula literal names no atom {a}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// `name`'s lane in `t`.
fn col(t: &Table, name: &str) -> Result<usize, QueryError> {
    let unknown = || QueryError::UnknownColumn(t.name().into(), name.into());
    t.position(name).ok_or_else(unknown)
}

/// Every atom reads one of the predicate's columns, and every formula
/// literal names one of its atoms.
fn check(p: &Predicate) -> Result<(), QueryError> {
    if let Some(a) = p.atoms.iter().position(|a| a.col >= p.columns.len()) {
        return Err(QueryError::AtomColumn(a, p.atoms[a].col));
    }
    match p.formula.atom_ids().pop() {
        Some(a) if a >= p.atoms.len() => Err(QueryError::FormulaAtom(a)),
        _ => Ok(()),
    }
}

impl Program<'_> {
    /// What the program occupies on the switch: the stages and SRAM its
    /// PISA twin allocates (`tests::every_charge_is_what_its_program_occupies`),
    /// but for two stage counts that stay Table 2's, deviations README's
    /// paper map records: the filter's, whose twin looks its truth table
    /// up a stage after its comparisons, and GROUP BY's, whose twin scans
    /// its row as one widened stage (`backend::groupby_spec`).
    fn charge(&self, cfg: &PrunerConfig) -> ResourceUsage {
        match *self {
            Program::SinglePass(SinglePass::Filter(ref f)) => {
                // An ALU per atom the relaxation reads, and a 17-bit match
                // entry per assignment it takes.
                let table = f.table();
                ResourceUsage {
                    sram_bits: 17 * table.true_entries(),
                    ..table2::filter(table.arity() as u32)
                }
            }
            Program::SinglePass(SinglePass::Distinct { d }) => {
                let (w, d) = (cfg.distinct_w as u32, d as u64);
                match cfg.distinct_policy {
                    EvictionPolicy::Lru => table2::distinct_lru(w, d),
                    EvictionPolicy::Fifo => ResourceUsage {
                        // Each row carries a cursor beside its w keys.
                        sram_bits: (u64::from(w) + 1) * d * 64,
                        ..table2::distinct_fifo(w, d, spec().alus_per_stage)
                    },
                }
            }
            Program::SinglePass(SinglePass::TopN { at, .. }) => at.resources(),
            Program::SinglePass(SinglePass::GroupBy(m, _))
            | Program::Registers { matrix: m, .. } => m.group_by(),
            Program::SinglePass(SinglePass::Skyline { w, dims }) => {
                // Stage 0 holds the 2¹⁶ − 1 entry log table, then each slot
                // takes a score stage and a dimensions stage.
                let aph = table2::skyline_aph(dims as u32, w as u32);
                ResourceUsage {
                    stages: 2 * w as u32 + 1,
                    sram_bits: aph.sram_bits - 32,
                    ..aph
                }
            }
            Program::Having { sketch, .. } => {
                table2::having(sketch.w as u64, sketch.d as u32, spec().alus_per_stage)
            }
            // A side's filter is a stage, a stateful ALU and its bits. Table
            // 2's RBF row adds a pattern table, which the twin, deriving each
            // key's pattern from its hash, does not allocate.
            Program::Join { filters, .. } => ResourceUsage {
                stages: 2,
                alus: 2,
                sram_bits: filters.bits.iter().sum(),
                tcam_entries: 0,
            },
        }
    }
}

impl Query {
    /// Resolve this query against `db` and compile its program under
    /// `cfg`: the one place a query's names are looked up, its shape
    /// checked, and its program chosen, sized and charged. A single-pass
    /// query also resolves the names a [`FetchSpec::Plus`] projection
    /// adds.
    pub fn bind<'a>(
        &'a self,
        db: &'a Database,
        cfg: &PrunerConfig,
    ) -> Result<Bound<'a>, QueryError> {
        let table = |name: &String| {
            let unknown = || QueryError::UnknownTable(name.clone());
            db.get(name).ok_or_else(unknown)
        };
        // The streamed table and its lanes' names, in query order.
        let (name, names): (_, Vec<&String>) = match self {
            Query::FilterCount { table, predicate } | Query::Filter { table, predicate } => {
                check(predicate)?;
                (table, predicate.columns.iter().collect())
            }
            Query::Distinct { table, column } => (table, vec![column]),
            Query::TopN {
                table, order_by, ..
            } => (table, vec![order_by]),
            Query::DistinctMulti { table, columns } | Query::Skyline { table, columns } => {
                if columns.is_empty() {
                    return Err(QueryError::NoColumns(self.kind()));
                }
                (table, columns.iter().collect())
            }
            Query::GroupBy {
                table, key, val, ..
            }
            | Query::Having {
                table, key, val, ..
            } => (table, vec![key, val]),
            Query::Join { left, left_col, .. } => (left, vec![left_col]),
        };
        let t = table(name)?;
        let groupby = Matrix {
            d: cfg.groupby_d,
            w: cfg.groupby_w,
        };
        let mut cols: Vec<usize> = names
            .into_iter()
            .map(|n| col(t, n))
            .collect::<Result<_, _>>()?;
        let program = match self {
            Query::GroupBy { agg, .. } if matches!(agg, Agg::Sum | Agg::Count) => {
                // COUNT sums ones: no value lane.
                cols.truncate(if *agg == Agg::Count { 1 } else { 2 });
                Program::Registers {
                    threshold: None,
                    matrix: groupby,
                }
            }
            Query::Having { threshold, .. } if having_by_registers(cfg, t, cols[0]) => {
                Program::Registers {
                    threshold: Some(*threshold),
                    matrix: groupby,
                }
            }
            Query::Having { threshold, .. } => Program::Having {
                threshold: *threshold,
                sketch: Matrix {
                    d: cfg.having_d,
                    w: cfg.having_w,
                },
            },
            Query::Join {
                right, right_col, ..
            } => {
                let r = table(right)?;
                // The one evaluation of §4.3's flow rule, on global sizes,
                // so every shard and pool arm agrees. The deterministic arm
                // ignores it: it streams `2 × (l + r)` where the pool arms
                // stream `l + r`, and `cheetah_bench::cost::cheetah` prices
                // it so.
                Program::Join {
                    right: r,
                    right_col: col(r, right_col)?,
                    lopsided: lopsided(t.rows(), r.rows()),
                    filters: JoinFilters::sized(cfg, t.rows(), r.rows()),
                }
            }
            Query::FilterCount { predicate, .. } | Query::Filter { predicate, .. } => {
                Program::SinglePass(SinglePass::Filter(Box::new(relax(predicate))))
            }
            Query::Distinct { .. } | Query::DistinctMulti { .. } => {
                let d = distinct_rows(cfg, t, &cols);
                Program::SinglePass(SinglePass::Distinct { d })
            }
            Query::TopN { n, .. } => Program::SinglePass(SinglePass::TopN {
                n: *n,
                at: topn_geometry(cfg, *n),
            }),
            Query::GroupBy { agg, .. } => {
                let ext = if *agg == Agg::Max {
                    Extremum::Max
                } else {
                    Extremum::Min
                };
                Program::SinglePass(SinglePass::GroupBy(groupby, ext))
            }
            Query::Skyline { .. } => Program::SinglePass(SinglePass::Skyline {
                w: cfg.skyline_w,
                dims: cols.len(),
            }),
        };
        if let (Program::SinglePass(_), FetchSpec::Plus(names)) = (&program, &cfg.fetch) {
            names.iter().try_for_each(|n| col(t, n).map(drop))?;
        }
        Ok(Bound {
            query: self,
            table: t,
            cols,
            charge: program.charge(cfg),
            program,
        })
    }

    /// [`Query::bind`], panicking with the error's message: how entry
    /// points returning a bare report reject a malformed query.
    pub(crate) fn bind_or_panic<'a>(&'a self, db: &'a Database, cfg: &PrunerConfig) -> Bound<'a> {
        self.bind(db, cfg).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use cheetah_core::filter::{Atom, CmpOp, Formula};
    use cheetah_core::SwitchModel;
    use cheetah_pisa::programs::{
        DetTopNProgram, DistinctFifoProgram, DistinctLruProgram, FilterProgram, GroupByProgram,
        HavingProgram, RandTopNProgram, RbfJoinProgram, SkylineProgram, SwitchProgram,
    };
    use proptest::prelude::*;

    use super::*;
    use crate::backend::{groupby_spec, skyline_spec, TopNGeometry};
    use crate::cheetah::tests::{all_queries, random_db};
    use crate::cheetah::CheetahExecutor;
    use crate::cost::CostModel;
    use cheetah_pisa::programs::SkylineScoring;

    /// The stages a program's metered pipeline occupies and the SRAM bits
    /// it allocates.
    fn metered(program: &impl SwitchProgram) -> (u32, u64) {
        let pipe = program.pipeline();
        (pipe.stages_occupied(), pipe.sram_used().iter().sum())
    }

    /// What the PISA twin of `b`'s program occupies, built at its bound
    /// geometry on the envelope the pisa backend builds it on.
    fn twin(cfg: &PrunerConfig, b: &Bound<'_>) -> (u32, u64) {
        let seed = cfg.seed;
        match b.program {
            Program::SinglePass(SinglePass::Filter(ref f)) => {
                metered(&FilterProgram::new(spec(), f.atoms().to_vec(), f.formula()).expect("fits"))
            }
            Program::SinglePass(SinglePass::Distinct { d }) => match cfg.distinct_policy {
                EvictionPolicy::Lru => metered(
                    &DistinctLruProgram::new(spec(), d, cfg.distinct_w, seed).expect("fits"),
                ),
                EvictionPolicy::Fifo => metered(
                    &DistinctFifoProgram::new(spec(), d, cfg.distinct_w, seed).expect("fits"),
                ),
            },
            Program::SinglePass(SinglePass::TopN { n, at }) => match at {
                TopNGeometry::Randomized { d, w } => {
                    metered(&RandTopNProgram::new(spec(), d, w, seed).expect("fits"))
                }
                TopNGeometry::Deterministic { w } => {
                    metered(&DetTopNProgram::new(spec(), n.max(1) as u64, w).expect("fits"))
                }
            },
            Program::SinglePass(SinglePass::GroupBy(m, ext)) => {
                metered(&GroupByProgram::new(groupby_spec(m.w), m.d, m.w, ext, seed).expect("fits"))
            }
            // §6's registers have no PISA program of their own: GROUP BY
            // MAX's matrix is their twin, keys, values and cursor alike.
            Program::Registers { matrix: m, .. } => metered(
                &GroupByProgram::new(groupby_spec(m.w), m.d, m.w, Extremum::Max, seed)
                    .expect("fits"),
            ),
            Program::SinglePass(SinglePass::Skyline { w, dims }) => metered(
                &SkylineProgram::new(
                    skyline_spec(),
                    dims,
                    w,
                    SkylineScoring::Aph { frac_bits: 8 },
                )
                .expect("fits"),
            ),
            Program::Having { threshold, sketch } => metered(
                &HavingProgram::new(spec(), sketch.d, sketch.w, threshold, seed).expect("fits"),
            ),
            Program::Join { filters, .. } => {
                let JoinFilters { bits: [a, b], h } = filters;
                metered(&RbfJoinProgram::new(spec(), a, b, h, seed, seed ^ 1).expect("fits"))
            }
        }
    }

    /// Every program is charged what its PISA twin occupies — the metered
    /// pipeline's stages and summed SRAM — for every shape at the default,
    /// a sized and a degenerate geometry. Two stage counts stay Table 2's,
    /// the deviations README's paper map records: GROUP BY's `w` stages,
    /// which its twin scans as one widened stage, and the filter's one
    /// stage, whose twin looks its truth table up a stage later.
    #[test]
    fn every_charge_is_what_its_program_occupies() {
        let db = random_db(3_000, 5);
        let default = PrunerConfig::default();
        let sized = PrunerConfig {
            distinct_d: 16,
            distinct_policy: EvictionPolicy::Fifo,
            groupby_d: 64,
            groupby_w: 2,
            having_d: 2,
            having_w: 64,
            skyline_w: 4,
            join_m_bits: 1 << 12,
            ..PrunerConfig::default()
        };
        let degenerate = PrunerConfig {
            distinct_d: 1,
            distinct_w: 1,
            topn_randomized: false,
            topn_w: 1,
            groupby_d: 2,
            groupby_w: 1,
            join_m_bits: 64,
            join_h: 1,
            having_d: 1,
            having_w: 2,
            skyline_w: 1,
            ..PrunerConfig::default()
        };
        let mut queries = all_queries();
        queries.extend(
            [0, 1, 25, 250, 1_000, 2_000, 5_000, 50_000].map(|n| Query::TopN {
                table: "t".into(),
                order_by: "v".into(),
                n,
            }),
        );
        let constant = Predicate {
            columns: Vec::new(),
            atoms: Vec::new(),
            formula: Formula::Or(vec![Formula::False, Formula::True]),
        };
        queries.extend([
            Query::FilterCount {
                table: "t".into(),
                predicate: constant,
            },
            wide_filter(24),
            Query::DistinctMulti {
                table: "t".into(),
                columns: vec!["k".into(), "w".into()],
            },
            Query::Skyline {
                table: "t".into(),
                columns: vec!["v".into(), "w".into(), "k".into()],
            },
        ]);
        let tofino = SwitchModel::tofino_like();
        for (name, cfg) in [
            ("default", &default),
            ("sized", &sized),
            ("degenerate", &degenerate),
        ] {
            for q in &queries {
                let b = q.bind(&db, cfg).expect("binds");
                let (stages, sram_bits) = twin(cfg, &b);
                let at = format!("{} at the {name} geometry", q.kind());
                assert_eq!(b.charge.sram_bits, sram_bits, "{at}");
                match b.program {
                    Program::SinglePass(SinglePass::GroupBy(m, _))
                    | Program::Registers { matrix: m, .. } => {
                        assert_eq!((b.charge.stages, stages), (m.w as u32, 1), "{at}");
                    }
                    Program::SinglePass(SinglePass::Filter(_)) => {
                        assert_eq!((b.charge.stages, stages), (1, 2), "{at}");
                    }
                    _ => assert_eq!(b.charge.stages, stages, "{at}"),
                }
                if let Program::SinglePass(SinglePass::TopN { .. }) = b.program {
                    assert!(b.charge.fits(&tofino), "{at}: a TOP N is sized to fit");
                }
            }
        }
        // SKYLINE at its default w = 10 never fits the pipeline, so
        // serving never packs it and the planner never reserves it one.
        let skyline = &all_queries()[10];
        assert!(matches!(skyline, Query::Skyline { .. }));
        let charge = skyline.bind(&db, &default).expect("binds").charge;
        assert_eq!(charge.stages, 21);
        assert!(!charge.fits(&tofino));
    }

    /// `v ≠ 0 ∧ v ≠ 1 ∧ … ∧ v ≠ atoms − 1` over `t`.
    fn wide_filter(atoms: u64) -> Query {
        Query::FilterCount {
            table: "t".into(),
            predicate: Predicate {
                columns: vec!["v".into()],
                atoms: (0..atoms).map(|c| Atom::cmp(0, CmpOp::Ne, c)).collect(),
                formula: Formula::And((0..atoms as usize).map(Formula::Atom).collect()),
            },
        }
    }

    /// A filter wider than a stage's ALUs binds to its relaxation over the
    /// first `alus_per_stage` atoms: one stage's comparisons and the one
    /// match entry their conjunction takes.
    #[test]
    fn a_wide_filter_is_charged_what_one_stage_holds() {
        let db = random_db(300, 1);
        let q = wide_filter(24);
        let b = q.bind(&db, &PrunerConfig::default()).expect("binds");
        let want = ResourceUsage {
            stages: 1,
            alus: SwitchModel::tofino_like().alus_per_stage,
            sram_bits: 17,
            tcam_entries: 0,
        };
        assert_eq!(b.charge, want);
    }

    /// Every name `q` reads, each with the table whose column it names
    /// (`None`: it names a table).
    fn names(q: &mut Query) -> Vec<(Option<String>, &mut String)> {
        match q {
            Query::FilterCount { table, predicate } | Query::Filter { table, predicate } => {
                let t = Some(table.clone());
                let cols = predicate.columns.iter_mut().map(|c| (t.clone(), c));
                std::iter::once((None, table)).chain(cols).collect()
            }
            Query::DistinctMulti { table, columns } | Query::Skyline { table, columns } => {
                let t = Some(table.clone());
                let cols = columns.iter_mut().map(|c| (t.clone(), c));
                std::iter::once((None, table)).chain(cols).collect()
            }
            Query::Distinct { table, column: c }
            | Query::TopN {
                table, order_by: c, ..
            } => {
                vec![(Some(table.clone()), c), (None, table)]
            }
            Query::GroupBy {
                table, key, val, ..
            }
            | Query::Having {
                table, key, val, ..
            } => {
                let t = Some(table.clone());
                vec![(t.clone(), key), (t, val), (None, table)]
            }
            Query::Join {
                left,
                right,
                left_col,
                right_col,
            } => vec![
                (Some(left.clone()), left_col),
                (Some(right.clone()), right_col),
                (None, left),
                (None, right),
            ],
        }
    }

    /// The names of the lanes `q` streams, in query order.
    fn lanes(q: &Query) -> Vec<&str> {
        let names: Vec<&String> = match q {
            Query::FilterCount { predicate, .. } | Query::Filter { predicate, .. } => {
                predicate.columns.iter().collect()
            }
            Query::DistinctMulti { columns, .. } | Query::Skyline { columns, .. } => {
                columns.iter().collect()
            }
            Query::Distinct { column: c, .. } | Query::TopN { order_by: c, .. } => vec![c],
            Query::GroupBy {
                key,
                agg: Agg::Count,
                ..
            } => vec![key],
            Query::GroupBy { key, val, .. } | Query::Having { key, val, .. } => vec![key, val],
            Query::Join { left_col, .. } => vec![left_col],
        };
        names.into_iter().map(String::as_str).collect()
    }

    /// `q`'s bind error under `cfg`, once `CheetahExecutor::execute` is
    /// seen to panic with its message.
    fn bind_error(db: &Database, cfg: &PrunerConfig, q: &Query) -> Option<QueryError> {
        let err = q.bind(db, cfg).err()?;
        let exec = CheetahExecutor::new(CostModel::default(), cfg.clone());
        let panic = catch_unwind(AssertUnwindSafe(|| exec.execute(db, q)))
            .expect_err("a malformed query panics at bind");
        assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
        Some(err)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every query of the shape matrix binds to its program over its
        /// lanes, a HAVING to registers exactly while its key domain fits
        /// half the register matrix; every unknown name, empty key list and
        /// dangling atom or literal is its `QueryError`, and surfaces from
        /// `execute` as a panic carrying that error's message.
        #[test]
        fn bind_resolves_every_query_and_rejects_every_malformed_one(
            rows in 0usize..600,
            seed in any::<u64>(),
            groupby_d in 1usize..128,
            past in 0usize..3,
        ) {
            let db = random_db(rows, seed);
            let cfg = PrunerConfig { groupby_d, groupby_w: 1, ..PrunerConfig::default() };
            let (t, s) = (db.table("t"), db.table("s"));
            let keys: HashSet<&u64> = t.col("k").iter().collect();
            let by_registers = keys.len() <= groupby_d / 2;
            for q in all_queries() {
                let b = q.bind(&db, &cfg).expect("the shape matrix binds");
                let bound: Vec<&str> = b.cols.iter().map(|&c| b.table.schema()[c].as_str()).collect();
                prop_assert_eq!(bound, lanes(&q), "{}", q.kind());
                let ok = match (&q, &b.program) {
                    (Query::GroupBy { agg: Agg::Sum | Agg::Count, .. }, Program::Registers { threshold, .. }) => {
                        threshold.is_none()
                    }
                    (Query::Having { threshold, .. }, Program::Registers { threshold: c, .. }) => {
                        by_registers && *c == Some(*threshold)
                    }
                    (Query::Having { threshold, .. }, Program::Having { threshold: c, .. }) => {
                        !by_registers && c == threshold
                    }
                    (Query::Join { .. }, Program::Join { right, right_col, lopsided: l, .. }) => {
                        std::ptr::eq(*right, s) && *right_col == 0 && *l == lopsided(t.rows(), s.rows())
                    }
                    (Query::GroupBy { agg: Agg::Max | Agg::Min, .. }, Program::SinglePass(_)) => true,
                    (Query::GroupBy { .. } | Query::Having { .. } | Query::Join { .. }, _) => false,
                    (_, program) => matches!(program, Program::SinglePass(_)),
                };
                prop_assert!(ok, "{} bound to the wrong program", q.kind());
                prop_assert_eq!(bind_error(&db, &cfg, &q), None);

                // Each name in turn replaced by an unknown one.
                for i in 0..names(&mut q.clone()).len() {
                    let mut bad = q.clone();
                    let (owner, name) = names(&mut bad).swap_remove(i);
                    *name = "nope".into();
                    let want = match owner {
                        Some(table) => QueryError::UnknownColumn(table, "nope".into()),
                        None => QueryError::UnknownTable("nope".into()),
                    };
                    prop_assert_eq!(bind_error(&db, &cfg, &bad), Some(want));
                }

                // A single-pass query resolves its projection's names too.
                let plus = PrunerConfig {
                    fetch: FetchSpec::Plus(vec!["v".into(), "nope".into()]),
                    ..cfg.clone()
                };
                let single = matches!(b.program, Program::SinglePass(_));
                let want = single.then(|| QueryError::UnknownColumn("t".into(), "nope".into()));
                prop_assert_eq!(bind_error(&db, &plus, &q), want);
            }

            // Key lists over no columns.
            for q in [
                Query::DistinctMulti { table: "t".into(), columns: Vec::new() },
                Query::Skyline { table: "t".into(), columns: Vec::new() },
            ] {
                prop_assert_eq!(bind_error(&db, &cfg, &q), Some(QueryError::NoColumns(q.kind())));
            }

            // An atom past the predicate's columns, a literal past its atoms.
            let filter = |atoms: Vec<Atom>, formula| Query::FilterCount {
                table: "t".into(),
                predicate: Predicate { columns: vec!["v".into(), "w".into()], atoms, formula },
            };
            let atoms = vec![Atom::cmp(0, CmpOp::Lt, 5), Atom::cmp(2 + past, CmpOp::Gt, 9)];
            let q = filter(atoms, Formula::Atom(0));
            prop_assert_eq!(bind_error(&db, &cfg, &q), Some(QueryError::AtomColumn(1, 2 + past)));
            let or = Formula::Or(vec![Formula::Atom(0), Formula::NotAtom(1 + past)]);
            let q = filter(vec![Atom::cmp(1, CmpOp::Lt, 5)], or);
            prop_assert_eq!(bind_error(&db, &cfg, &q), Some(QueryError::FormulaAtom(1 + past)));
        }
    }
}
