//! The Spark-SQL-style baseline executor.
//!
//! Mirrors the §2.1 flow: each worker runs the query's task over its
//! partition (computing *real* partial results), ships the much smaller
//! partials to the master, which merges them. That is exactly a shard
//! program with the switch turned off, so the baseline runs the shard
//! programs ([`crate::sharded`]) over an unpruned transport: one range
//! shard, with one pool worker, per Spark worker. The report counts the
//! rows the worker tasks scanned (`streamed`), the partial entries they
//! shuffled and the rows fetched: what a completion-time model prices.

use crate::cheetah::PrunerConfig;
use crate::cost::CostModel;
use crate::executor::ExecutionReport;
use crate::query::{FetchSpec, Query};
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

    /// Run the query: real partial computation per partition, real merge.
    pub fn execute(&self, db: &Database, query: &Query) -> ExecutionReport {
        let cfg = PrunerConfig {
            fetch: self.fetch.clone(),
            ..PrunerConfig::default()
        };
        let mut transport = Unpruned {
            shards: self.model.workers,
            shuffled: 0,
        };
        let b = query.bind_or_panic(db, &cfg);
        let (answer, _) = execute_on(&cfg, 1, &mut transport, &b);
        answer.report("spark", None, transport.shuffled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{self, shape_db, KeyForm};
    use crate::query::{Agg, QueryResult};
    use crate::reference;
    use crate::table::Table;

    #[test]
    fn spark_matches_reference_on_all_query_kinds() {
        let db = shape_db(KeyForm::Narrow, 5_000, 1);
        let exec = SparkExecutor::new(CostModel::default());
        for (_, q) in fixture::shapes() {
            let report = exec.execute(&db, &q);
            let truth = reference::evaluate(&db, &q);
            assert_eq!(report.result, truth, "query {} diverged", q.kind());
        }
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
        let r = SparkExecutor::new(CostModel::default())
            .execute(&shape_db(KeyForm::Narrow, 100, 3), &q);
        assert_eq!(r.result, QueryResult::TopValues(Vec::new()));
    }

    #[test]
    fn shuffle_far_smaller_than_input_for_aggregates() {
        let db = shape_db(KeyForm::Narrow, 50_000, 4);
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

    /// The baseline's modeled inputs — rows scanned, entries shuffled,
    /// rows fetched, passes — are the per-slice partials' on every shape
    /// at 1, 3 and 5 workers, a table with fewer rows than workers
    /// included.
    #[test]
    fn modeled_inputs_are_the_per_slice_partials() {
        let at = |workers| {
            SparkExecutor::new(CostModel {
                workers,
                ..CostModel::default()
            })
        };
        for (rows, seed) in [(3, 5), (4_000, 6)] {
            let db = shape_db(KeyForm::Narrow, rows, seed);
            for (_, q) in fixture::shapes() {
                let truth = reference::evaluate(&db, &q);
                for workers in [1, 3, 5] {
                    let got = at(workers).execute(&db, &q);
                    let (scanned, shuffle, fetch) = oracle(&db, &q, workers);
                    let what = format!("{} over {rows} rows at {workers} workers", q.kind());
                    assert_eq!(got.result, truth, "{what}");
                    assert_eq!(got.streamed, scanned, "{what}: streamed");
                    assert_eq!(got.shuffle_entries, shuffle, "{what}: shuffle");
                    assert_eq!(got.fetch_rows, fetch, "{what}: fetch");
                    assert_eq!(got.passes, 1, "{what}: passes");
                }
            }
        }
    }
}
