//! # cheetah-core — switch pruning algorithms
//!
//! This crate implements the primary contribution of *"Cheetah: Accelerating
//! Database Queries with Switch Pruning"* (SIGMOD 2020): a family of
//! **pruning algorithms** designed to run on a programmable (PISA) switch
//! sitting between database workers and the master.
//!
//! A pruning algorithm `A_Q` for a query `Q` maps a dataset `D` to a subset
//! `A_Q(D) ⊆ D` such that running the query on the subset yields the same
//! output: `Q(A_Q(D)) = Q(D)`. Probabilistic variants relax this to
//! `Pr[Q(A_Q(D)) ≠ Q(D)] ≤ δ`. The switch never *completes* a query — it
//! only discards entries that provably (or with probability `1 − δ`) cannot
//! affect the output, and the master finishes the job on whatever survives.
//!
//! The algorithms in this crate are *reference implementations*: plain Rust,
//! structured exactly like the switch versions (row-partitioned matrices,
//! rolling minima, sketches) but without the PISA pipeline constraints. The
//! sibling crate `cheetah-pisa` re-expresses each of them as a constrained
//! switch program and differential-tests the two against each other.
//!
//! | Query | Module | Guarantee | Paper section |
//! |---|---|---|---|
//! | `WHERE` filtering | [`filter`] | deterministic | §4.1 |
//! | `DISTINCT` | [`distinct`] | det. / probabilistic (fingerprints) | §4.2, §5 |
//! | `TOP N` | [`topn`] | det. / probabilistic | §4.3, §5 |
//! | `GROUP BY` + MAX/MIN/SUM | [`groupby`] | deterministic | §4, §6 |
//! | `JOIN` | [`join`] | deterministic | §4.3 |
//! | `HAVING SUM/COUNT > c` | [`having`] | deterministic | §4.3 |
//! | `SKYLINE` | [`skyline`] | deterministic | §4.4 |
//! | dense key domains (beyond the paper) | [`dense`] | exact (OPT) | — |
//!
//! Supporting modules: [`hash`] (seedable mixing), [`fingerprint`]
//! (Theorem 4 sizing), [`params`] (Theorems 1–3 configuration maths,
//! Lambert W), [`resources`] (Table 2 switch-resource formulas), and
//! [`opt`] (unconstrained streaming baselines used as the `OPT` curves in
//! the paper's Figures 10 and 11).
//!
//! §6's multiple concurrent queries need no module here: each packed query
//! runs its own pruner, and whether they share the pipeline is decided by
//! the per-stage placer `cheetah_pisa::pack` over their [`resources`].
//!
//! §9's extensions are implemented too: [`batch`] (multiple entries per
//! packet with same-row collision skipping) and [`multiswitch`] (a
//! leaf/root switch tree for extra aggregate resources); outer joins
//! (footnote 3) live in [`join`], the minimizing skyline (footnote 4) in
//! [`skyline`], and the MAX/MIN HAVING variant in [`having`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod decision;
pub mod dense;
pub mod distinct;
pub mod filter;
pub mod fingerprint;
pub mod groupby;
pub mod hash;
pub mod having;
pub mod join;
pub mod multiswitch;
pub mod opt;
pub mod params;
pub mod resources;
pub mod skyline;
pub mod topn;

pub use decision::{Decision, PruneStats, RowPruner};
pub use resources::{ResourceUsage, SwitchModel};
