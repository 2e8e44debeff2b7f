//! Query specifications and canonical results.
//!
//! The enum covers every query shape the paper evaluates (Appendix B plus
//! the Big Data benchmark queries A/B and their combination). Results are
//! canonicalized (sorted, deduplicated where sets) so executors can be
//! compared with `==` — the pruning correctness equation
//! `Q(A_Q(D)) = Q(D)` in executable form.

use std::collections::BTreeMap;

use cheetah_core::filter::{Atom, Formula};

use crate::table::Table;

/// Aggregate functions for GROUP BY.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Agg {
    /// Per-group maximum.
    Max,
    /// Per-group minimum.
    Min,
    /// Per-group sum.
    Sum,
    /// Per-group row count.
    Count,
}

/// A `WHERE` predicate: atoms over a table's columns plus the formula.
///
/// `atoms[i].col` indexes into `columns`, the list of column names the
/// predicate reads (what the CWorker serializes for the metadata pass).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// Columns the predicate reads, in atom `col` order.
    pub columns: Vec<String>,
    /// The atomic comparisons.
    pub atoms: Vec<Atom>,
    /// The Boolean structure over the atoms.
    pub formula: Formula,
}

impl Predicate {
    /// Evaluate the full predicate on a row of the referenced columns.
    pub fn eval(&self, row: &[u64]) -> bool {
        self.formula.eval(&self.atoms, row)
    }

    /// Evaluate entry `i` of a column-major layout (`cols[atom.col][i]`)
    /// without materializing the row — the worker-task/master-recheck
    /// counterpart of the switch's block evaluation.
    #[inline]
    pub fn eval_at(&self, cols: &[&[u64]], i: usize) -> bool {
        self.formula.eval_with(&|a| {
            let atom = &self.atoms[a];
            atom.op.eval(cols[atom.col][i], atom.constant)
        })
    }
}

/// One query over a [`crate::table::Database`]. Equality and hashing are
/// structural — two values are equal iff they are the same shape over the
/// same tables, columns and constants — which is the one query identity
/// the serving layer coalesces and caches on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// `SELECT COUNT(*) FROM t WHERE …` (Big Data query A / App. B q1).
    FilterCount {
        /// Source table.
        table: String,
        /// The WHERE predicate.
        predicate: Predicate,
    },
    /// `SELECT * FROM t WHERE …` — returns matching row ids (late
    /// materialization fetches the full rows afterwards).
    Filter {
        /// Source table.
        table: String,
        /// The WHERE predicate.
        predicate: Predicate,
    },
    /// `SELECT DISTINCT col FROM t` (App. B q2).
    Distinct {
        /// Source table.
        table: String,
        /// Column whose distinct values are requested.
        column: String,
    },
    /// `SELECT DISTINCT c1, c2, … FROM t` — multi-column distinct; the
    /// CWorker ships a fingerprint of the combination (§5, Example 8),
    /// making this a probabilistic-guarantee query (Theorem 4).
    DistinctMulti {
        /// Source table.
        table: String,
        /// The combined key columns.
        columns: Vec<String>,
    },
    /// `SELECT TOP n * FROM t ORDER BY col` (App. B q4).
    TopN {
        /// Source table.
        table: String,
        /// Ordering column (maximized).
        order_by: String,
        /// Result size.
        n: usize,
    },
    /// `SELECT key, AGG(val) FROM t GROUP BY key` (App. B q5, Big Data B).
    GroupBy {
        /// Source table.
        table: String,
        /// Grouping column.
        key: String,
        /// Aggregated column (ignored for COUNT).
        val: String,
        /// Aggregate function.
        agg: Agg,
    },
    /// `SELECT key FROM t GROUP BY key HAVING SUM(val) > threshold`
    /// (App. B q7).
    Having {
        /// Source table.
        table: String,
        /// Grouping column.
        key: String,
        /// Summed column.
        val: String,
        /// The HAVING threshold `c`.
        threshold: u64,
    },
    /// `SELECT * FROM l JOIN r ON l.lcol = r.rcol` (App. B q6).
    Join {
        /// Left table.
        left: String,
        /// Right table.
        right: String,
        /// Left join column.
        left_col: String,
        /// Right join column.
        right_col: String,
    },
    /// `SELECT * FROM t SKYLINE OF c1, c2, …` (App. B q3), maximizing.
    Skyline {
        /// Source table.
        table: String,
        /// The skyline dimensions.
        columns: Vec<String>,
    },
}

impl Query {
    /// Short name for harness output.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::FilterCount { .. } => "filter-count",
            Query::Filter { .. } => "filter",
            Query::Distinct { .. } => "distinct",
            Query::DistinctMulti { .. } => "distinct",
            Query::TopN { .. } => "topn",
            Query::GroupBy { .. } => "groupby",
            Query::Having { .. } => "having",
            Query::Join { .. } => "join",
            Query::Skyline { .. } => "skyline",
        }
    }

    /// Projection analysis: the columns of `t` this query actually reads —
    /// predicate columns plus join/group/distinct/order keys. Indices are
    /// deduplicated (a column referenced twice is materialized once) and
    /// returned in schema order; columns the query never names are
    /// excluded, which is the whole point of projection pushdown. Names
    /// that do not resolve against `t`'s schema are skipped, so the
    /// two-table JOIN can ask each side for its own referenced set.
    pub fn referenced_columns(&self, t: &Table) -> Vec<usize> {
        let mut cols: Vec<usize> = Vec::new();
        {
            let mut touch = |name: &str| {
                if let Some(i) = t.schema().iter().position(|c| c == name) {
                    if !cols.contains(&i) {
                        cols.push(i);
                    }
                }
            };
            match self {
                Query::FilterCount { predicate, .. } | Query::Filter { predicate, .. } => {
                    predicate.columns.iter().for_each(|c| touch(c));
                }
                Query::Distinct { column, .. } => touch(column),
                Query::DistinctMulti { columns, .. } | Query::Skyline { columns, .. } => {
                    columns.iter().for_each(|c| touch(c));
                }
                Query::TopN { order_by, .. } => touch(order_by),
                Query::GroupBy { key, val, .. } | Query::Having { key, val, .. } => {
                    touch(key);
                    touch(val);
                }
                Query::Join {
                    left,
                    right,
                    left_col,
                    right_col,
                } => {
                    if left == t.name() {
                        touch(left_col);
                    }
                    if right == t.name() {
                        touch(right_col);
                    }
                }
            }
        }
        cols.sort_unstable();
        cols
    }

    /// Resolve the late-materialization fetch projection for this query
    /// over `t` under `spec` — the lanes the fetch reads per surviving
    /// row.
    pub fn projection(&self, t: &Table, spec: &FetchSpec) -> Projection {
        match spec {
            FetchSpec::All => Projection::all(t),
            FetchSpec::Referenced => Projection::of(t, self.referenced_columns(t)),
            FetchSpec::Plus(names) => {
                let mut cols = self.referenced_columns(t);
                cols.extend(names.iter().map(|n| t.col_index(n)));
                Projection::of(t, cols)
            }
        }
    }
}

/// Which columns the §7.1 late-materialization fetch materializes.
///
/// The default is [`FetchSpec::All`] — every column, bit-identical to the
/// pre-projection behavior (same rows, same `fetch_checksum`). Queries on
/// wide tables opt into [`FetchSpec::Referenced`] (or
/// [`FetchSpec::Plus`] with an explicit fetch-column set) so the fetch
/// loop, and on the distributed path the wire payload, only carry the
/// lanes the query touches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum FetchSpec {
    /// Materialize every column (seed behavior; pins bit-identical
    /// reports).
    #[default]
    All,
    /// Materialize only the columns the query references
    /// ([`Query::referenced_columns`]).
    Referenced,
    /// The referenced columns plus these explicitly requested ones —
    /// `SELECT a, b`-style fetch lists. Unknown names panic (unlike the
    /// referenced set, an explicit request for a missing column is a
    /// caller bug).
    Plus(Vec<String>),
}

/// A resolved fetch projection: deduplicated schema-order column indices.
///
/// Schema order matters — a full projection gathers exactly the
/// [`crate::table::Table::row_into`] row, so [`fetch_checksum`] over it
/// is bit-identical to the unprojected engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Projection {
    cols: Vec<usize>,
    full: bool,
}

impl Projection {
    /// The full-width projection over `t` (back-compat mode).
    pub fn all(t: &Table) -> Self {
        Projection {
            cols: (0..t.width()).collect(),
            full: true,
        }
    }

    /// A projection over explicit schema indices of `t` (deduplicated,
    /// reordered to schema order; may be empty — a fetch that verifies
    /// row ids without materializing any lane is legal).
    pub fn of(t: &Table, mut cols: Vec<usize>) -> Self {
        cols.sort_unstable();
        cols.dedup();
        assert!(
            cols.iter().all(|&c| c < t.width()),
            "projected column out of range for table '{}'",
            t.name()
        );
        let full = cols.len() == t.width();
        Projection { cols, full }
    }

    /// The projected column indices, schema order.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Entries one projected row materializes.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Whether this projection covers the whole schema (and therefore
    /// reproduces the unprojected fetch bit for bit).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Bytes one projected row materializes (u64 lanes).
    pub fn bytes_per_row(&self) -> u64 {
        8 * self.cols.len() as u64
    }
}

/// Canonical query output, comparable across executors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// A row count.
    Count(u64),
    /// Matching row ids, sorted (Filter).
    RowIds(Vec<u64>),
    /// A sorted set of values (DISTINCT).
    Values(Vec<u64>),
    /// The top-n values, sorted descending (TOP N).
    TopValues(Vec<u64>),
    /// `key → aggregate` (GROUP BY).
    Groups(BTreeMap<u64, u64>),
    /// Sorted output keys (HAVING).
    Keys(Vec<u64>),
    /// Join cardinality + an order-independent checksum of the matched
    /// pairs (full materialization would dwarf everything else).
    JoinSummary {
        /// Number of matching (left-row, right-row) pairs.
        pairs: u64,
        /// Commutative checksum over pair keys.
        checksum: u64,
    },
    /// Sorted, deduplicated skyline points.
    Points(Vec<Vec<u64>>),
}

impl QueryResult {
    /// Canonicalize a value set.
    pub fn values(mut v: Vec<u64>) -> Self {
        v.sort_unstable();
        v.dedup();
        QueryResult::Values(v)
    }

    /// Canonicalize top-n values (desc, truncated to n).
    pub fn top_values(mut v: Vec<u64>, n: usize) -> Self {
        v.sort_unstable_by(|a, b| b.cmp(a));
        v.truncate(n);
        QueryResult::TopValues(v)
    }

    /// Canonicalize keys.
    pub fn keys(mut v: Vec<u64>) -> Self {
        v.sort_unstable();
        v.dedup();
        QueryResult::Keys(v)
    }

    /// Canonicalize row ids.
    pub fn row_ids(mut v: Vec<u64>) -> Self {
        v.sort_unstable();
        QueryResult::RowIds(v)
    }

    /// Canonicalize points.
    pub fn points(mut v: Vec<Vec<u64>>) -> Self {
        v.sort();
        v.dedup();
        QueryResult::Points(v)
    }

    /// Number of output entries.
    pub fn output_size(&self) -> u64 {
        match self {
            QueryResult::Count(_) => 1,
            QueryResult::RowIds(v) => v.len() as u64,
            QueryResult::Values(v) => v.len() as u64,
            QueryResult::TopValues(v) => v.len() as u64,
            QueryResult::Groups(g) => g.len() as u64,
            QueryResult::Keys(k) => k.len() as u64,
            QueryResult::JoinSummary { pairs, .. } => *pairs,
            QueryResult::Points(p) => p.len() as u64,
        }
    }
}

/// Commutative checksum used by join summaries (order-independent).
pub fn pair_checksum(acc: u64, key: u64, left_row: u64, right_row: u64) -> u64 {
    acc.wrapping_add(cheetah_core::hash::mix64(
        key ^ left_row.rotate_left(17) ^ right_row.rotate_left(41),
    ))
}

/// Order-independent checksum over late-materialized rows: every executor
/// that fetches the same row set (whatever the fetch order) reports the
/// same value in [`crate::executor::ExecutionReport::fetch_checksum`].
pub fn fetch_checksum(acc: u64, row_id: u64, row: &[u64]) -> u64 {
    let h = row
        .iter()
        .fold(fetch_chain_seed(row_id), |h, &v| fetch_chain_step(h, v));
    acc.wrapping_add(h)
}

/// Where a fetched row's hash chain starts. [`fetch_checksum`] is this
/// seed, one [`fetch_chain_step`] per projected word in order, and a
/// wrapping add; the master's block kernel runs the same two functions
/// with many rows' chains advancing in lock-step, so the two can never
/// disagree.
#[inline]
pub(crate) fn fetch_chain_seed(row_id: u64) -> u64 {
    cheetah_core::hash::mix64(row_id.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// Absorb one projected word into a fetched row's hash chain.
#[inline]
pub(crate) fn fetch_chain_step(h: u64, word: u64) -> u64 {
    cheetah_core::hash::mix64(h ^ word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::filter::CmpOp;

    #[test]
    fn canonical_values() {
        assert_eq!(
            QueryResult::values(vec![3, 1, 3, 2]),
            QueryResult::Values(vec![1, 2, 3])
        );
        assert_eq!(
            QueryResult::top_values(vec![5, 9, 1, 7], 2),
            QueryResult::TopValues(vec![9, 7])
        );
        assert_eq!(
            QueryResult::keys(vec![2, 2, 1]),
            QueryResult::Keys(vec![1, 2])
        );
        assert_eq!(
            QueryResult::points(vec![vec![2, 1], vec![1, 2], vec![2, 1]]),
            QueryResult::Points(vec![vec![1, 2], vec![2, 1]])
        );
    }

    #[test]
    fn output_sizes() {
        assert_eq!(QueryResult::Count(5).output_size(), 1);
        assert_eq!(QueryResult::values(vec![1, 2, 3]).output_size(), 3);
        assert_eq!(
            QueryResult::JoinSummary {
                pairs: 42,
                checksum: 0
            }
            .output_size(),
            42
        );
    }

    #[test]
    fn checksum_is_commutative() {
        let a = pair_checksum(pair_checksum(0, 1, 2, 3), 4, 5, 6);
        let b = pair_checksum(pair_checksum(0, 4, 5, 6), 1, 2, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn fetch_checksum_is_commutative_and_row_sensitive() {
        let a = fetch_checksum(fetch_checksum(0, 1, &[10, 20]), 2, &[30, 40]);
        let b = fetch_checksum(fetch_checksum(0, 2, &[30, 40]), 1, &[10, 20]);
        assert_eq!(a, b);
        let c = fetch_checksum(fetch_checksum(0, 1, &[10, 21]), 2, &[30, 40]);
        assert_ne!(a, c);
    }

    #[test]
    fn predicate_eval_at_matches_row_eval() {
        let p = Predicate {
            columns: vec!["x".into(), "y".into()],
            atoms: vec![Atom::cmp(0, CmpOp::Lt, 10), Atom::cmp(1, CmpOp::Ge, 5)],
            formula: Formula::And(vec![Formula::Atom(0), Formula::Atom(1)]),
        };
        let xs = [3u64, 12, 9];
        let ys = [7u64, 7, 2];
        let cols: Vec<&[u64]> = vec![&xs, &ys];
        for i in 0..3 {
            assert_eq!(p.eval_at(&cols, i), p.eval(&[xs[i], ys[i]]), "entry {i}");
        }
    }

    #[test]
    fn predicate_eval() {
        let p = Predicate {
            columns: vec!["x".into()],
            atoms: vec![Atom::cmp(0, CmpOp::Lt, 10)],
            formula: Formula::Atom(0),
        };
        assert!(p.eval(&[5]));
        assert!(!p.eval(&[15]));
    }

    #[test]
    fn projection_analysis() {
        let t = Table::new(
            "t",
            vec![
                ("a", vec![1, 2]),
                ("b", vec![3, 4]),
                ("c", vec![5, 6]),
                ("unused", vec![7, 8]),
            ],
        );
        // Predicate referencing `c` twice and `a` once: dedup, schema order,
        // and the never-read column stays out.
        let q = Query::Filter {
            table: "t".into(),
            predicate: Predicate {
                columns: vec!["c".into(), "a".into(), "c".into()],
                atoms: vec![
                    Atom::cmp(0, CmpOp::Lt, 10),
                    Atom::cmp(1, CmpOp::Ge, 0),
                    Atom::cmp(2, CmpOp::Gt, 0),
                ],
                formula: Formula::And(vec![Formula::Atom(0), Formula::Atom(1), Formula::Atom(2)]),
            },
        };
        assert_eq!(q.referenced_columns(&t), vec![0, 2]);

        let full = q.projection(&t, &FetchSpec::All);
        assert!(full.is_full());
        assert_eq!(full.cols(), &[0, 1, 2, 3]);
        assert_eq!(full.bytes_per_row(), 32);

        let pruned = q.projection(&t, &FetchSpec::Referenced);
        assert!(!pruned.is_full());
        assert_eq!(pruned.cols(), &[0, 2]);
        assert_eq!(pruned.width(), 2);

        let plus = q.projection(&t, &FetchSpec::Plus(vec!["b".into(), "a".into()]));
        assert_eq!(
            plus.cols(),
            &[0, 1, 2],
            "explicit set unions with referenced"
        );

        // JOIN resolves per side by table name.
        let j = Query::Join {
            left: "t".into(),
            right: "r".into(),
            left_col: "b".into(),
            right_col: "k".into(),
        };
        assert_eq!(j.referenced_columns(&t), vec![1]);

        // Covering every column explicitly is recognized as full.
        let covering = q.projection(
            &t,
            &FetchSpec::Plus(vec!["a".into(), "b".into(), "c".into(), "unused".into()]),
        );
        assert!(covering.is_full());
        assert_eq!(covering, full);
    }

    #[test]
    fn kinds() {
        let q = Query::Distinct {
            table: "t".into(),
            column: "c".into(),
        };
        assert_eq!(q.kind(), "distinct");
    }
}
