//! The Spark-SQL-style baseline executor.
//!
//! Mirrors the §2.1 flow: each worker runs the query's task over its
//! partition (computing *real* partial results), ships the much smaller
//! partials to the master, which merges them. Completion time comes from
//! the [`CostModel`]: parallel worker tasks, compressed shuffle, master
//! merge, with the first run paying the JIT/indexing penalty the paper
//! discards in later figures (§8.2.2).

use std::collections::{BTreeMap, BinaryHeap, HashMap};

use crate::cost::{
    master_rate, spark_task_rate, CostModel, TimingBreakdown, FALLBACK_MASTER_RATE,
    FALLBACK_TASK_RATE,
};
use crate::executor::ExecutionReport;
use crate::master::fetch_and_checksum;
use crate::query::{pair_checksum, Agg, FetchSpec, Query, QueryResult};
use crate::reference::skyline_of;
use crate::table::Database;

/// The baseline executor.
#[derive(Debug, Clone)]
pub struct SparkExecutor {
    /// Cost/cluster parameters.
    pub model: CostModel,
    /// Late-materialization fetch projection — the same pushdown knob as
    /// [`crate::cheetah::PrunerConfig::fetch`], so baseline and pruned
    /// executors fetch (and checksum) the same lanes.
    pub fetch: FetchSpec,
}

impl SparkExecutor {
    /// An executor over the given model (full-row fetch).
    pub fn new(model: CostModel) -> Self {
        SparkExecutor {
            model,
            fetch: FetchSpec::All,
        }
    }

    /// Same executor with a fetch projection.
    pub fn with_fetch(mut self, fetch: FetchSpec) -> Self {
        self.fetch = fetch;
        self
    }

    /// Run the query: real partial computation per partition, real merge,
    /// modeled timing. [`ExecutionReport::timing`] is the warm run;
    /// [`ExecutionReport::first_run`] carries the JIT/indexing penalty.
    pub fn execute(&self, db: &Database, query: &Query) -> ExecutionReport {
        let p = self.model.workers;
        match query {
            Query::FilterCount { table, predicate } => {
                let t = db.table(table);
                let cols: Vec<&[u64]> = predicate.columns.iter().map(|c| t.col(c)).collect();
                let mut partials = Vec::with_capacity(p);
                for (s, e) in t.partition_bounds(p) {
                    // Worker task straight over the column lanes — no
                    // per-row scratch fill.
                    let count = (s..e).filter(|&r| predicate.eval_at(&cols, r)).count() as u64;
                    partials.push(count);
                }
                let result = QueryResult::Count(partials.iter().sum());
                self.report(query, t.rows() as u64, p as u64, 0, result)
            }
            Query::Filter { table, predicate } => {
                let t = db.table(table);
                let cols: Vec<&[u64]> = predicate.columns.iter().map(|c| t.col(c)).collect();
                let mut ids = Vec::new();
                for (s, e) in t.partition_bounds(p) {
                    ids.extend(
                        (s..e)
                            .filter(|&r| predicate.eval_at(&cols, r))
                            .map(|r| r as u64),
                    );
                }
                // Late materialization: the same fetch kernel the pruned
                // executors run — projected lanes only — so the baseline
                // is not handicapped and every executor's checksum can be
                // cross-checked.
                let proj = query.projection(t, &self.fetch);
                let checksum = fetch_and_checksum(t, proj.cols(), &ids);
                let shuffle = ids.len() as u64;
                let result = QueryResult::row_ids(ids);
                let mut report = self.report(query, t.rows() as u64, shuffle, shuffle, result);
                report.fetch_checksum = Some(checksum);
                report
            }
            Query::Distinct { table, column } => {
                let t = db.table(table);
                let col = t.col(column);
                let mut partials: Vec<Vec<u64>> = Vec::with_capacity(p);
                for (s, e) in t.partition_bounds(p) {
                    let mut set: Vec<u64> = col[s..e].to_vec();
                    set.sort_unstable();
                    set.dedup();
                    partials.push(set);
                }
                let shuffle: u64 = partials.iter().map(|s| s.len() as u64).sum();
                let merged: Vec<u64> = partials.into_iter().flatten().collect();
                let result = QueryResult::values(merged);
                self.report(query, t.rows() as u64, shuffle, 0, result)
            }
            Query::DistinctMulti { table, columns } => {
                let t = db.table(table);
                let cols: Vec<&[u64]> = columns.iter().map(|c| t.col(c)).collect();
                let mut merged: Vec<Vec<u64>> = Vec::new();
                let mut shuffle = 0u64;
                for (s, e) in t.partition_bounds(p) {
                    let mut set: Vec<Vec<u64>> = (s..e)
                        .map(|r| cols.iter().map(|c| c[r]).collect())
                        .collect();
                    set.sort();
                    set.dedup();
                    shuffle += set.len() as u64;
                    merged.extend(set);
                }
                let result = QueryResult::points(merged);
                self.report(query, t.rows() as u64, shuffle, 0, result)
            }
            Query::TopN { table, order_by, n } => {
                let t = db.table(table);
                let col = t.col(order_by);
                let mut merged = Vec::with_capacity(p * n);
                for (s, e) in t.partition_bounds(p) {
                    // Per-worker heap of the partition's top n.
                    let mut heap: BinaryHeap<std::cmp::Reverse<u64>> =
                        BinaryHeap::with_capacity(n + 1);
                    for &v in &col[s..e] {
                        if heap.len() < *n {
                            heap.push(std::cmp::Reverse(v));
                        } else if v > heap.peek().expect("nonempty").0 {
                            heap.pop();
                            heap.push(std::cmp::Reverse(v));
                        }
                    }
                    merged.extend(heap.into_iter().map(|r| r.0));
                }
                let shuffle = merged.len() as u64;
                let result = QueryResult::top_values(merged, *n);
                self.report(query, t.rows() as u64, shuffle, *n as u64, result)
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
                let mut shuffle = 0u64;
                let mut groups: BTreeMap<u64, u64> = BTreeMap::new();
                for (s, e) in t.partition_bounds(p) {
                    let mut partial: HashMap<u64, u64> = HashMap::new();
                    for r in s..e {
                        let (k, v) = (keys[r], vals[r]);
                        match agg {
                            Agg::Max => {
                                let ent = partial.entry(k).or_insert(0);
                                *ent = (*ent).max(v);
                            }
                            Agg::Min => {
                                let ent = partial.entry(k).or_insert(u64::MAX);
                                *ent = (*ent).min(v);
                            }
                            Agg::Sum => {
                                let ent = partial.entry(k).or_insert(0);
                                *ent = ent.wrapping_add(v);
                            }
                            Agg::Count => *partial.entry(k).or_insert(0) += 1,
                        }
                    }
                    shuffle += partial.len() as u64;
                    for (k, v) in partial {
                        match agg {
                            Agg::Max => {
                                let ent = groups.entry(k).or_insert(0);
                                *ent = (*ent).max(v);
                            }
                            Agg::Min => {
                                let ent = groups.entry(k).or_insert(u64::MAX);
                                *ent = (*ent).min(v);
                            }
                            Agg::Sum | Agg::Count => {
                                let ent = groups.entry(k).or_insert(0);
                                *ent = ent.wrapping_add(v);
                            }
                        }
                    }
                }
                let result = QueryResult::Groups(groups);
                self.report(query, t.rows() as u64, shuffle, 0, result)
            }
            Query::Having {
                table,
                key,
                val,
                threshold,
            } => {
                let t = db.table(table);
                let keys = t.col(key);
                let vals = t.col(val);
                let mut shuffle = 0u64;
                let mut sums: HashMap<u64, u64> = HashMap::new();
                for (s, e) in t.partition_bounds(p) {
                    let mut partial: HashMap<u64, u64> = HashMap::new();
                    for r in s..e {
                        let ent = partial.entry(keys[r]).or_insert(0);
                        *ent = ent.wrapping_add(vals[r]);
                    }
                    shuffle += partial.len() as u64;
                    for (k, v) in partial {
                        let ent = sums.entry(k).or_insert(0);
                        *ent = ent.wrapping_add(v);
                    }
                }
                let result = QueryResult::keys(
                    sums.into_iter()
                        .filter(|&(_, s)| s > *threshold)
                        .map(|(k, _)| k)
                        .collect(),
                );
                self.report(query, t.rows() as u64, shuffle, 0, result)
            }
            Query::Join {
                left,
                right,
                left_col,
                right_col,
            } => {
                let l = db.table(left);
                let r = db.table(right);
                let lcol = l.col(left_col);
                let rcol = r.col(right_col);
                // Shuffle hash join: repartition both inputs by key hash,
                // each worker joins its bucket (real results).
                let hasher = cheetah_core::hash::HashFn::new(0x5a5a);
                let mut pairs = 0u64;
                let mut checksum = 0u64;
                for w in 0..p {
                    let mut build: HashMap<u64, Vec<u64>> = HashMap::new();
                    for (row, k) in rcol.iter().enumerate() {
                        if hasher.bucket(*k, p) == w {
                            build.entry(*k).or_default().push(row as u64);
                        }
                    }
                    for (lrow, k) in lcol.iter().enumerate() {
                        if hasher.bucket(*k, p) == w {
                            if let Some(rrows) = build.get(k) {
                                for &rrow in rrows {
                                    pairs += 1;
                                    checksum = pair_checksum(checksum, *k, lrow as u64, rrow);
                                }
                            }
                        }
                    }
                }
                let rows = (l.rows() + r.rows()) as u64;
                // Repartitioning ships every row's (key, rowid) once.
                let result = QueryResult::JoinSummary { pairs, checksum };
                self.report(query, rows, rows, pairs, result)
            }
            Query::Skyline { table, columns } => {
                let t = db.table(table);
                let cols: Vec<&[u64]> = columns.iter().map(|c| t.col(c)).collect();
                let mut merged: Vec<Vec<u64>> = Vec::new();
                let mut shuffle = 0u64;
                for (s, e) in t.partition_bounds(p) {
                    let points: Vec<Vec<u64>> = (s..e)
                        .map(|r| cols.iter().map(|c| c[r]).collect())
                        .collect();
                    let partial = skyline_of(&points);
                    shuffle += partial.len() as u64;
                    merged.extend(partial);
                }
                let result = QueryResult::points(skyline_of(&merged));
                self.report(query, t.rows() as u64, shuffle, 0, result)
            }
        }
    }

    /// Assemble the report from measured sizes + the cost model.
    ///
    /// * `rows` — total rows scanned by worker tasks;
    /// * `shuffle_entries` — partial entries shipped to the master;
    /// * `fetch_rows` — rows fetched by late materialization.
    fn report(
        &self,
        query: &Query,
        rows: u64,
        shuffle_entries: u64,
        fetch_rows: u64,
        result: QueryResult,
    ) -> ExecutionReport {
        let m = &self.model;
        let kind = query.kind();
        let max_partition_rows = rows.div_ceil(m.workers as u64);
        let task_s =
            m.scaled(max_partition_rows) / spark_task_rate(kind).unwrap_or(FALLBACK_TASK_RATE);
        let merge_s = m.scaled(shuffle_entries) / master_rate(kind).unwrap_or(FALLBACK_MASTER_RATE);
        let shuffle_bytes = m.scaled(shuffle_entries) * m.shuffle_bytes_per_entry;
        let fetch_bytes = m.scaled(fetch_rows) * m.fetch_bytes_per_row;
        let network_s = m.transfer_s(shuffle_bytes + fetch_bytes);
        let later_run = TimingBreakdown {
            computation_s: task_s + merge_s,
            network_s,
            other_s: m.spark_overhead_s,
        };
        let first_run = TimingBreakdown {
            computation_s: (task_s + merge_s) * m.first_run_factor,
            network_s,
            other_s: m.spark_overhead_s,
        };
        ExecutionReport {
            executor: "spark",
            result,
            timing: later_run,
            first_run: Some(first_run),
            prune: None,
            passes: 1,
            fetch_rows,
            fetch_checksum: None,
            shuffle_entries,
            wall: None,
            pass_walls: Vec::new(),
            combine_wall: None,
            merge_walls: Vec::new(),
            resilience: None,
            plan: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::table::Table;
    use cheetah_core::filter::{Atom, CmpOp, Formula};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_db(rows: usize, seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        db.add(Table::new(
            "t",
            vec![
                ("k", (0..rows).map(|_| rng.gen_range(1..100u64)).collect()),
                (
                    "v",
                    (0..rows).map(|_| rng.gen_range(1..10_000u64)).collect(),
                ),
                ("w", (0..rows).map(|_| rng.gen_range(1..500u64)).collect()),
            ],
        ));
        db.add(Table::new(
            "s",
            vec![
                (
                    "k",
                    (0..rows / 2).map(|_| rng.gen_range(50..150u64)).collect(),
                ),
                (
                    "x",
                    (0..rows / 2).map(|_| rng.gen_range(1..100u64)).collect(),
                ),
            ],
        ));
        db
    }

    fn queries() -> Vec<Query> {
        vec![
            Query::FilterCount {
                table: "t".into(),
                predicate: crate::query::Predicate {
                    columns: vec!["v".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, 5000)],
                    formula: Formula::Atom(0),
                },
            },
            Query::Filter {
                table: "t".into(),
                predicate: crate::query::Predicate {
                    columns: vec!["v".into(), "w".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, 500), Atom::cmp(1, CmpOp::Gt, 400)],
                    formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
                },
            },
            Query::Distinct {
                table: "t".into(),
                column: "k".into(),
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
                agg: Agg::Sum,
            },
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold: 200_000,
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
    fn spark_matches_reference_on_all_query_kinds() {
        let db = random_db(5_000, 1);
        let exec = SparkExecutor::new(CostModel::default());
        for q in queries() {
            let report = exec.execute(&db, &q);
            let truth = reference::evaluate(&db, &q);
            assert_eq!(report.result, truth, "query {} diverged", q.kind());
        }
    }

    #[test]
    fn first_run_slower_than_later() {
        let db = random_db(10_000, 2);
        let exec = SparkExecutor::new(CostModel::default());
        let r = exec.execute(
            &db,
            &Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            },
        );
        assert!(r.first_run_total_s() > r.timing.total_s());
    }

    #[test]
    fn worker_count_divides_task_time() {
        let db = random_db(10_000, 3);
        let q = Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        };
        let t1 = SparkExecutor::new(CostModel {
            workers: 1,
            ..CostModel::default()
        })
        .execute(&db, &q);
        let t5 = SparkExecutor::new(CostModel::default()).execute(&db, &q);
        assert!(t1.timing.computation_s > t5.timing.computation_s * 3.0);
        assert_eq!(t1.result, t5.result, "parallelism must not change results");
    }

    #[test]
    fn shuffle_far_smaller_than_input_for_aggregates() {
        let db = random_db(50_000, 4);
        let exec = SparkExecutor::new(CostModel::default());
        let r = exec.execute(
            &db,
            &Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Max,
            },
        );
        assert!(
            r.shuffle_entries < 1_000,
            "≤99 keys × 5 workers, got {}",
            r.shuffle_entries
        );
    }
}
