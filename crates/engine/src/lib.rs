//! # cheetah-engine — a mini Spark-SQL-style engine with switch pruning
//!
//! The paper integrates Cheetah into Spark SQL (§3, Figure 1/3): a query
//! planner hands tasks to workers over partitioned columnar data, a master
//! merges results; with Cheetah, workers skip their computational tasks
//! and serialize the query's metadata columns straight through the switch,
//! which prunes, and the master completes the query on the survivors.
//!
//! This crate rebuilds that pipeline at library scale:
//!
//! * [`table`] — columnar tables, hash/range partitioning;
//! * [`stream`] — flat structure-of-arrays entry streams + the
//!   zero-allocation block-pruning driver every executor feeds through;
//! * [`executor`] — the shared [`Executor`] trait + [`ExecutionReport`]
//!   every completion strategy below implements and returns;
//! * [`query`] — the query specs of Appendix B + canonical results;
//! * [`bind`] — [`Query::bind`]: a query's names resolved, its shape
//!   checked and its switch program chosen once, before any arm runs it;
//! * [`mod@reference`] — single-node ground-truth evaluator (test oracle);
//! * [`spark`] — the baseline executor: per-partition worker tasks,
//!   shuffled partials, master merge (the shard programs with the switch
//!   turned off);
//! * [`cheetah`] — the Cheetah executor: CWorker serialization → switch
//!   pruning ([`cheetah-core`] pruners) → CMaster completion, plus late
//!   materialization (the master's fetch kernel, group fold and tuple
//!   runs are one private `master` module every arm below calls);
//! * [`threaded`] — a bounded-channel cluster running real worker/
//!   switch/master threads (wall-clock, non-deterministic interleaving);
//! * [`sharded`] — the multi-switch executor: N independent pool +
//!   watermark pipelines over shard-local partition views, merged by a
//!   per-shape combine layer (filter unions, sketch summation, group-run
//!   merges, global re-selection);
//! * [`distributed`] — the sharded pipelines run over the real §7.2
//!   wire protocol ([`cheetah-net`]'s master/worker/switch state
//!   machines on the simulated fabric), with failure injection, retry
//!   with bounded backoff, re-dispatch, and §3/§6 reboot recovery;
//! * [`serve`] — the concurrent serving front-end: admission scheduling,
//!   §6 multi-query TCAM packing with spill-to-software, a bounded solo
//!   dispatch pool, and the cross-query Bloom/Count-Min filter cache;
//! * [`cost`] — the cluster and network parameters ([`CostModel`]); the
//!   engine reads only its worker count.
//!
//! Every executor computes **real query results** over real data and
//! reports the counters it moved, and the integration tests require
//! Spark-baseline ≡ Cheetah ≡ reference for every query type. Completion
//! *times* are modeled (no testbed here) outside the engine, by the
//! experiment harness (`cheetah_bench::cost`), from those counters.
//!
//! [`cheetah-core`]: cheetah_core
//! [`cheetah-net`]: cheetah_net

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod bind;
pub mod cheetah;
pub mod cost;
pub mod distributed;
pub mod executor;
mod master;
pub mod multipass;
pub mod plan;
pub mod query;
pub mod reference;
pub mod serve;
pub mod sharded;
pub mod spark;
pub mod stream;
pub mod table;
pub mod threaded;

// The integration tests' shared fixture, compiled under the crate's own name.
#[cfg(test)]
extern crate self as cheetah_engine;
#[cfg(test)]
#[path = "../../../tests/common/fixture.rs"]
mod fixture;

pub use bind::{Bound, QueryError};
pub use cheetah::CheetahExecutor;
pub use cost::CostModel;
pub use distributed::{DistributedExecutor, FailurePlan, ShardOutput};
pub use executor::{ExecutionReport, Executor, ResilienceReport, ServeReport, ThreadedExecutor};
pub use plan::{PlanContext, PlanReport, PlannerExecutor};
pub use query::{Agg, FetchSpec, Predicate, Projection, Query, QueryResult};
pub use serve::ServeExecutor;
pub use sharded::ShardedExecutor;
pub use spark::SparkExecutor;
pub use stream::{Block, Blocks, EntryRef, EntryStream, BLOCK_ENTRIES};
pub use table::{Database, Table};
