//! The Spark-SQL-style baseline executor.
//!
//! Mirrors the §2.1 flow: each worker runs the query's task over its
//! partition (computing *real* partial results), ships the much smaller
//! partials to the master, which merges them. That is exactly a shard
//! program with the switch turned off, so the baseline runs the shard
//! programs ([`crate::sharded`]) over an unpruned transport: one range
//! shard, with one pool worker, per Spark worker. Completion time comes
//! from the [`CostModel`]: parallel worker tasks, compressed shuffle,
//! master merge, with the first run paying the JIT/indexing penalty the
//! paper discards in later figures (§8.2.2).

use crate::cheetah::PrunerConfig;
use crate::cost::{
    master_rate, spark_task_rate, CostModel, TimingBreakdown, FALLBACK_MASTER_RATE,
    FALLBACK_TASK_RATE,
};
use crate::executor::ExecutionReport;
use crate::query::{FetchSpec, Query, QueryResult};
use crate::sharded::{execute_on, Unpruned};
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
        let cfg = PrunerConfig {
            fetch: self.fetch.clone(),
            ..PrunerConfig::default()
        };
        let mut transport = Unpruned {
            shards: self.model.workers,
            shuffled: 0,
        };
        let (answer, _) = execute_on(&cfg, 1, &mut transport, db, query);
        let (rows, fetch_rows) = (answer.streamed, answer.fetch_rows);
        let mut report = self.report(query, rows, transport.shuffled, fetch_rows, answer.result);
        report.fetch_checksum = answer.fetch_checksum;
        report
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
    use crate::cheetah::tests::{all_queries, random_db};
    use crate::query::Agg;
    use crate::reference;
    use crate::table::Table;

    #[test]
    fn spark_matches_reference_on_all_query_kinds() {
        let db = random_db(5_000, 1);
        let exec = SparkExecutor::new(CostModel::default());
        for q in all_queries() {
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

    /// TOP 0 is empty, as on every other arm: the baseline's worker
    /// tasks used to panic on it.
    #[test]
    fn top_zero_is_empty() {
        let q = Query::TopN {
            table: "t".into(),
            order_by: "v".into(),
            n: 0,
        };
        let r = SparkExecutor::new(CostModel::default()).execute(&random_db(100, 3), &q);
        assert_eq!(r.result, QueryResult::TopValues(Vec::new()));
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
            "≤79 keys × 5 workers, got {}",
            r.shuffle_entries
        );
    }

    /// What `q` over `db` prices at `workers`, from the reference evaluator
    /// over each worker's slice of the table: `(rows scanned, entries
    /// shuffled, rows fetched)`. A worker ships its slice's partial — a
    /// HAVING's is its slice's per-key sums, a FilterCount's one count, a
    /// TopN's at most `n` values — and a JOIN repartitions every row of
    /// both sides, then fetches its pairs.
    fn oracle(db: &Database, q: &Query, workers: usize) -> (u64, u64, u64) {
        let truth = reference::evaluate(db, q);
        if let (Query::Join { left, right, .. }, QueryResult::JoinSummary { pairs, .. }) =
            (q, &truth)
        {
            let rows = (db.table(left).rows() + db.table(right).rows()) as u64;
            return (rows, rows, *pairs);
        }
        let t = db.table("t");
        let partial = match q {
            Query::Having { key, val, .. } => Query::GroupBy {
                table: "t".into(),
                key: key.clone(),
                val: val.clone(),
                agg: Agg::Sum,
            },
            _ => q.clone(),
        };
        let shuffle = t
            .partition_bounds(workers)
            .into_iter()
            .map(|(s, e)| {
                let cols = t
                    .schema()
                    .iter()
                    .map(|c| (c.as_str(), t.col(c)[s..e].to_vec()));
                let mut slice = Database::new();
                slice.add(Table::new("t", cols.collect()));
                reference::evaluate(&slice, &partial).output_size()
            })
            .sum();
        let fetch = match (q, &truth) {
            (Query::Filter { .. }, QueryResult::RowIds(ids)) => ids.len() as u64,
            (Query::TopN { n, .. }, _) => *n as u64,
            _ => 0,
        };
        (t.rows() as u64, shuffle, fetch)
    }

    /// The baseline's modeled inputs — entries shuffled, rows fetched,
    /// passes — and the timings they price are the per-slice partials'
    /// on every shape at 1, 3 and 5 workers, a table with fewer rows than
    /// workers included. Five workers divide a DISTINCT's task time.
    #[test]
    fn modeled_inputs_are_the_per_slice_partials() {
        let at = |workers| {
            SparkExecutor::new(CostModel {
                workers,
                ..CostModel::default()
            })
        };
        for (rows, seed) in [(3, 5), (4_000, 6)] {
            let db = random_db(rows, seed);
            for q in all_queries() {
                let truth = reference::evaluate(&db, &q);
                for workers in [1, 3, 5] {
                    let exec = at(workers);
                    let got = exec.execute(&db, &q);
                    let (scanned, shuffle, fetch) = oracle(&db, &q, workers);
                    let want = exec.report(&q, scanned, shuffle, fetch, truth.clone());
                    let what = format!("{} over {rows} rows at {workers} workers", q.kind());
                    assert_eq!(got.result, truth, "{what}");
                    assert_eq!(got.shuffle_entries, shuffle, "{what}: shuffle");
                    assert_eq!(got.fetch_rows, fetch, "{what}: fetch");
                    assert_eq!(got.passes, 1, "{what}: passes");
                    assert_eq!(got.timing, want.timing, "{what}: timing");
                    assert_eq!(got.first_run, want.first_run, "{what}: first run");
                }
                if rows > 3 && matches!(q, Query::Distinct { .. }) {
                    let (one, five) = (at(1).execute(&db, &q), at(5).execute(&db, &q));
                    assert!(one.timing.computation_s > 3.0 * five.timing.computation_s);
                }
            }
        }
    }
}
