//! # cheetah-workloads — evaluation datasets
//!
//! Seeded generators for the two benchmarks the paper evaluates on (§8.1):
//!
//! * the **Big Data benchmark** (the paper's reference \[3\]) —
//!   `rankings(pageURL, pageRank, avgDuration)` (roughly sorted on
//!   pageRank, hence the paper's random permutation footnotes) and
//!   `uservisits` with nine columns including `destURL`, `adRevenue`,
//!   `languageCode` and `userAgent` (zipfian);
//! * a **TPC-H subset** (reference \[2\]) — `customer`/`orders`/`lineitem`
//!   with the columns query Q3 touches, at a configurable scale factor;
//! * a **wide-table** workload ([`wide`]) — 50–200 columns of which a
//!   query references a handful, the schema shape that motivates
//!   projection pushdown.
//!
//! The paper's samples hold 31.7M uservisits / 18M rankings rows and TPC-H
//! at default scale; the generators reproduce the schema, key
//! cardinalities, skew and orderings at any row count, so the *fractional*
//! metrics (pruning rates, relative completion times) transfer.
//!
//! # Examples
//!
//! Generators are seeded and reproducible:
//!
//! ```
//! use cheetah_workloads::bigdata::{UserVisits, UserVisitsConfig};
//!
//! let cfg = UserVisitsConfig { rows: 1_000, ua_distinct: 50, url_distinct: 100, seed: 7 };
//! let a = UserVisits::generate(cfg);
//! let b = UserVisits::generate(cfg);
//! assert_eq!(a.len(), 1_000);
//! assert_eq!(a.user_agent, b.user_agent, "same seed, same data");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bigdata;
pub mod dist;
pub mod stream;
pub mod tpch;
pub mod wide;

pub use bigdata::{Rankings, UserVisits};
pub use dist::Zipf;
pub use tpch::TpchData;
pub use wide::{WideTable, WideTableConfig};
