//! Ground-truth single-node evaluator — the oracle every executor must
//! match (`Q(A_Q(D)) = Q(D)` made testable).

use std::collections::{BTreeMap, HashMap};

use cheetah_core::skyline::dominates;

use crate::query::{pair_checksum, Agg, Query, QueryResult};
use crate::table::Database;

/// Evaluate a query directly over the full tables.
pub fn evaluate(db: &Database, query: &Query) -> QueryResult {
    match query {
        Query::FilterCount { table, predicate } => {
            let t = db.table(table);
            let cols: Vec<&[u64]> = predicate.columns.iter().map(|c| t.col(c)).collect();
            let mut row = vec![0u64; cols.len()];
            let mut count = 0u64;
            for r in 0..t.rows() {
                for (i, c) in cols.iter().enumerate() {
                    row[i] = c[r];
                }
                if predicate.eval(&row) {
                    count += 1;
                }
            }
            QueryResult::Count(count)
        }
        Query::Filter { table, predicate } => {
            let t = db.table(table);
            let cols: Vec<&[u64]> = predicate.columns.iter().map(|c| t.col(c)).collect();
            let mut row = vec![0u64; cols.len()];
            let mut ids = Vec::new();
            for r in 0..t.rows() {
                for (i, c) in cols.iter().enumerate() {
                    row[i] = c[r];
                }
                if predicate.eval(&row) {
                    ids.push(r as u64);
                }
            }
            QueryResult::row_ids(ids)
        }
        Query::Distinct { table, column } => {
            QueryResult::values(db.table(table).col(column).to_vec())
        }
        Query::DistinctMulti { table, columns } => {
            let t = db.table(table);
            let cols: Vec<&[u64]> = columns.iter().map(|c| t.col(c)).collect();
            let tuples: Vec<Vec<u64>> = (0..t.rows())
                .map(|r| cols.iter().map(|c| c[r]).collect())
                .collect();
            QueryResult::points(tuples)
        }
        Query::TopN { table, order_by, n } => {
            QueryResult::top_values(db.table(table).col(order_by).to_vec(), *n)
        }
        Query::GroupBy {
            table,
            key,
            val,
            agg,
        } => {
            let t = db.table(table);
            let keys = t.col(key);
            let vals = t.col(val);
            let mut groups: BTreeMap<u64, u64> = BTreeMap::new();
            for (k, v) in keys.iter().zip(vals) {
                match agg {
                    Agg::Max => {
                        let e = groups.entry(*k).or_insert(0);
                        *e = (*e).max(*v);
                    }
                    Agg::Min => {
                        let e = groups.entry(*k).or_insert(u64::MAX);
                        *e = (*e).min(*v);
                    }
                    // Sums wrap mod 2⁶⁴, as every exact SUM does.
                    Agg::Sum => {
                        let e = groups.entry(*k).or_insert(0);
                        *e = e.wrapping_add(*v);
                    }
                    Agg::Count => *groups.entry(*k).or_insert(0) += 1,
                }
            }
            QueryResult::Groups(groups)
        }
        Query::Having {
            table,
            key,
            val,
            threshold,
        } => {
            let t = db.table(table);
            let mut sums: HashMap<u64, u64> = HashMap::new();
            for (k, v) in t.col(key).iter().zip(t.col(val)) {
                let e = sums.entry(*k).or_insert(0);
                *e = e.wrapping_add(*v);
            }
            QueryResult::keys(
                sums.into_iter()
                    .filter(|&(_, s)| s > *threshold)
                    .map(|(k, _)| k)
                    .collect(),
            )
        }
        Query::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let l = db.table(left);
            let r = db.table(right);
            // Hash join: build on the right, probe from the left.
            let mut build: HashMap<u64, Vec<u64>> = HashMap::new();
            for (row, k) in r.col(right_col).iter().enumerate() {
                build.entry(*k).or_default().push(row as u64);
            }
            let mut pairs = 0u64;
            let mut checksum = 0u64;
            for (lrow, k) in l.col(left_col).iter().enumerate() {
                if let Some(rrows) = build.get(k) {
                    for &rrow in rrows {
                        pairs += 1;
                        checksum = pair_checksum(checksum, *k, lrow as u64, rrow);
                    }
                }
            }
            QueryResult::JoinSummary { pairs, checksum }
        }
        Query::Skyline { table, columns } => {
            let t = db.table(table);
            let cols: Vec<&[u64]> = columns.iter().map(|c| t.col(c)).collect();
            let points: Vec<Vec<u64>> = (0..t.rows())
                .map(|r| cols.iter().map(|c| c[r]).collect())
                .collect();
            QueryResult::points(skyline_of(&points))
        }
    }
}

/// The exact skyline of a point set (block-nested-loop with a frontier —
/// quadratic worst case, fine at oracle scale).
pub fn skyline_of(points: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let mut frontier: Vec<Vec<u64>> = Vec::new();
    for p in points {
        if frontier.iter().any(|f| dominates(f, p)) {
            continue;
        }
        frontier.retain(|f| !dominates(p, f));
        if !frontier.contains(p) {
            frontier.push(p.clone());
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use cheetah_core::filter::{Atom, CmpOp, Formula};

    use crate::fixture::paper_example;

    #[test]
    fn filter_count() {
        let q = Query::FilterCount {
            table: "ratings".into(),
            predicate: Predicate {
                columns: vec!["taste".into()],
                atoms: vec![Atom::cmp(0, CmpOp::Gt, 5)],
                formula: Formula::Atom(0),
            },
        };
        assert_eq!(evaluate(&paper_example(), &q), QueryResult::Count(3));
    }

    #[test]
    fn distinct_sellers() {
        let q = Query::Distinct {
            table: "products".into(),
            column: "seller".into(),
        };
        assert_eq!(
            evaluate(&paper_example(), &q),
            QueryResult::Values(vec![10, 20, 30])
        );
    }

    #[test]
    fn top2_taste() {
        let q = Query::TopN {
            table: "ratings".into(),
            order_by: "taste".into(),
            n: 2,
        };
        assert_eq!(
            evaluate(&paper_example(), &q),
            QueryResult::TopValues(vec![9, 8])
        );
    }

    #[test]
    fn groupby_aggregates() {
        let mk = |agg| Query::GroupBy {
            table: "products".into(),
            key: "seller".into(),
            val: "price".into(),
            agg,
        };
        let max = evaluate(&paper_example(), &mk(Agg::Max));
        assert_eq!(
            max,
            QueryResult::Groups([(10, 4), (20, 7), (30, 5)].into_iter().collect())
        );
        let sum = evaluate(&paper_example(), &mk(Agg::Sum));
        assert_eq!(
            sum,
            QueryResult::Groups([(10, 6), (20, 7), (30, 5)].into_iter().collect())
        );
        let count = evaluate(&paper_example(), &mk(Agg::Count));
        assert_eq!(
            count,
            QueryResult::Groups([(10, 2), (20, 1), (30, 1)].into_iter().collect())
        );
        let min = evaluate(&paper_example(), &mk(Agg::Min));
        assert_eq!(
            min,
            QueryResult::Groups([(10, 2), (20, 7), (30, 5)].into_iter().collect())
        );
    }

    #[test]
    fn having_paper_example() {
        // SELECT seller … GROUP BY seller HAVING SUM(price) > 5 →
        // (McCheetah=10: 4+2=6, Papizza=20: 7) — not JellyFish (5).
        let q = Query::Having {
            table: "products".into(),
            key: "seller".into(),
            val: "price".into(),
            threshold: 5,
        };
        assert_eq!(
            evaluate(&paper_example(), &q),
            QueryResult::Keys(vec![10, 20])
        );
    }

    #[test]
    fn join_paper_example() {
        // Products JOIN Ratings ON name: Burger, Pizza, Jello match (the
        // "Fries" in products here is id 6, deliberately unmatched).
        let q = Query::Join {
            left: "products".into(),
            right: "ratings".into(),
            left_col: "name".into(),
            right_col: "name".into(),
        };
        match evaluate(&paper_example(), &q) {
            QueryResult::JoinSummary { pairs, .. } => assert_eq!(pairs, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn skyline_paper_example() {
        let q = Query::Skyline {
            table: "ratings".into(),
            columns: vec!["taste".into(), "texture".into()],
        };
        // {Cheetos(8,6), Jello(9,4), Burger(5,7)}.
        assert_eq!(
            evaluate(&paper_example(), &q),
            QueryResult::Points(vec![vec![5, 7], vec![8, 6], vec![9, 4]])
        );
    }

    #[test]
    fn filter_row_ids() {
        let q = Query::Filter {
            table: "ratings".into(),
            predicate: Predicate {
                columns: vec!["texture".into()],
                atoms: vec![Atom::cmp(0, CmpOp::Ge, 5)],
                formula: Formula::Atom(0),
            },
        };
        assert_eq!(
            evaluate(&paper_example(), &q),
            QueryResult::RowIds(vec![0, 1, 3])
        );
    }

    #[test]
    fn skyline_dedups_duplicates() {
        let pts = vec![vec![5, 5], vec![5, 5], vec![1, 1]];
        assert_eq!(skyline_of(&pts), vec![vec![5, 5]]);
    }
}
