//! Distributed shards over the wire protocol, with failure injection
//! and retry/recovery.
//!
//! [`crate::sharded`] defines one shard program per dataflow and runs
//! it over an in-process transport. This module is the second transport,
//! the way the paper actually deploys it (§3 Figure 1/3, §7.2): every
//! shard's partial is **encoded to plain `u64` words** ([`ShardOutput`]),
//! chunked into §7.2 data packets, and shipped over the [`cheetah_net`]
//! master/worker/switch state machines on the discrete-event fabric — the
//! master folds *decoded* partials, in completion order, instead of
//! channel values. The programs, their merges and their roots are the
//! sharded executor's own; only the stages and the travel differ.
//!
//! On top of that sits the failure story the paper's guarantees imply:
//!
//! * **Loss, duplication, reordering** — the §7.2 sliding window
//!   retransmits on RTO with bounded exponential backoff; the master
//!   dedups by `(flow, seq)`, so folds see each shard exactly once.
//! * **Shard flow stalls** (net worker crash, a session past its
//!   simulated-time deadline — [`ResilienceReport::deadline_expiries`]) —
//!   the dispatcher re-ships the *same* shard output under a fresh flow
//!   id in the next attempt; a shard that exhausts
//!   [`FailurePlan::max_attempts`] falls back to its locally computed
//!   partial and the report says so ([`ResilienceReport::degraded`]).
//! * **Bad deliveries** — a delivered payload that does not decode, names
//!   a variant its shape never ships, or fails its shape's checks (a
//!   FILTER payload whose recomputed checksum differs from the shipped
//!   one: [`CodecError::Checksum`]) takes the same fallback instead of
//!   panicking.
//! * **Mid-query switch reboot** — §3's guarantee: pruning state is
//!   soft, so a rebooted switch resumes empty and merely forwards a
//!   superset; every partial is canonical before it is encoded, so the
//!   result stays exact. The §6 exception is honored where it must be:
//!   GROUP BY SUM/COUNT registers hold *real data*, so a scheduled shard
//!   reboot drains them first ([`ResilienceReport::register_drains`]) and
//!   the drained partials ride the FIN residual like any §6 eviction.
//! * **Shard compute crash** — re-dispatch: the first run's work is
//!   discarded and the shard recomputes, so processed counts match the
//!   deterministic reference exactly. Multi-pass programs whose
//!   in-stream state is *not* soft (JOIN build filters, HAVING sketch
//!   passes) treat a scheduled mid-compute reboot the same way.
//!
//! Every run reports its fault telemetry in
//! [`crate::executor::ExecutionReport::resilience`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cheetah_core::decision::{Decision, PruneStats, RowPruner};
use cheetah_core::groupby::GroupBySumPruner;
use cheetah_net::sim::FaultPlan;
use cheetah_net::wire::chunk_payload;
use cheetah_net::{MasterRx, Simulation, SimulationConfig, SwitchNode, WorkerTx};

use crate::backend::Matrix;
use crate::cheetah::CheetahExecutor;
use crate::executor::{ExecutionReport, Executor, ResilienceReport};
use crate::master::rows_payload_checksum;
use crate::multipass::GroupBySumStage;
use crate::query::Query;
use crate::sharded::{report_on, NewPruner, Reduced, ShardProgram, Site, Transport};
use crate::table::Database;
use crate::threaded::{ColumnChunk, PrunerStage, SwitchPhases};

/// Sliding-window size for shard-output shipping sessions.
const SHIP_WINDOW: u32 = 32;

/// Base retransmission timeout (µs) for attempt 0; doubles per retry
/// attempt (bounded exponential backoff, capped at 16×).
const BASE_RTO_US: u64 = 400;

/// Simulated-time budget of one shipping session, in units of
/// `rto × ⌈packets / window⌉` — what the session's longest flow needs on a
/// clean wire. Sessions measured over 10 seeds × 1–1,000 packets finished
/// within 19 units at 20% loss per hop (the most any suite injects) and
/// within 83 at 50%, so 256 never cuts a session that is merely lossy,
/// while one that delivers nothing stops after 256 rounds of
/// retransmissions instead of [`SimulationConfig::max_events`] events.
const SHIP_DEADLINE_RTOS: u64 = 256;

// ---------------------------------------------------------------------------
// Wire codec: shard partials as self-describing u64 payloads.
// ---------------------------------------------------------------------------

const TAG_COUNT: u64 = 1;
const TAG_ROWS: u64 = 2;
const TAG_VALUES: u64 = 3;
const TAG_TOP: u64 = 4;
const TAG_TUPLES: u64 = 5;
const TAG_EXTREMA: u64 = 6;
const TAG_SUM_DRAIN: u64 = 7;
const TAG_SKETCH: u64 = 8;
const TAG_CANDIDATE_SUMS: u64 = 9;
const TAG_JOIN_AGG: u64 = 10;

/// Why a [`ShardOutput`] payload failed to decode, or a decoded one was
/// refused by the query's shard program. Decoding never panics:
/// arbitrary garbage maps to one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the advertised structure was complete.
    Truncated,
    /// The leading tag word names no variant the decoder accepts: an
    /// unknown tag, or a variant the query's shape never ships.
    BadTag(u64),
    /// A structurally impossible header: zero sketch geometry, a length
    /// product overflowing `u64`, a tuple run misaligned with its width —
    /// or a well-formed one whose geometry is not the query's.
    Malformed,
    /// A well-formed value followed by trailing garbage words.
    Trailing,
    /// Shipped rows whose recomputed checksum differs from the shipped
    /// checksum word: a corruption the framing could not see.
    Checksum,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::BadTag(t) => write!(f, "unexpected shard-output tag {t}"),
            CodecError::Malformed => write!(f, "malformed shard-output header"),
            CodecError::Trailing => write!(f, "trailing words after shard output"),
            CodecError::Checksum => write!(f, "shipped rows fail their checksum"),
        }
    }
}

impl std::error::Error for CodecError {}

/// One shard's partial, as shipped over the wire: every variant has a
/// flat `u64`-word encoding ([`ShardOutput::encode`]) that survives §7.2
/// packetization and decodes without panicking
/// ([`ShardOutput::decode`]). Partials are canonical *before* encoding,
/// so a rebooted switch's forwarded superset ships the same exact value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutput {
    /// FILTER COUNT: the shard's re-checked survivor count.
    Count(u64),
    /// FILTER: surviving global row ids plus the shard's §7.1
    /// late-materialization fetch — the *projected* rows themselves,
    /// row-major, and the checksum over them. Projection pushdown is
    /// what keeps this payload affordable on wide tables: only the lanes
    /// the query touches ride the wire (`width` words per row instead of
    /// the full table width).
    Rows {
        /// Projected-row width in words.
        width: u64,
        /// Surviving global row ids.
        ids: Vec<u64>,
        /// `ids.len() × width` fetched projected-row words, row-major.
        flat: Vec<u64>,
        /// Wrapping checksum over the shard's fetched projected rows —
        /// recomputed from `flat` at the master as an end-to-end
        /// integrity check.
        checksum: u64,
    },
    /// DISTINCT: the shard's canonical (sorted, deduplicated) values.
    Values(Vec<u64>),
    /// TOP-N: the shard's descending candidate list (length ≤ n).
    TopCandidates(Vec<u64>),
    /// Multi-column DISTINCT / SKYLINE: a tuple run, row-major in one
    /// flat lane.
    Tuples {
        /// Tuple width in words.
        width: u64,
        /// `width × tuples` words, row-major.
        flat: Vec<u64>,
    },
    /// GROUP BY MAX/MIN: per-key extrema as `(key, extremum)` pairs.
    Extrema(Vec<(u64, u64)>),
    /// GROUP BY SUM/COUNT: the shard's drained §6 register totals as
    /// `(key, total)` pairs (keys are hash-partitioned, so shards are
    /// disjoint).
    SumDrain(Vec<(u64, u64)>),
    /// HAVING pass 1: the shard's Count-Min sketch with its geometry,
    /// rebuilt cell-exact at the master.
    Sketch {
        /// Sketch depth (rows).
        d: u64,
        /// Sketch width (counters per row).
        w: u64,
        /// The HAVING threshold the sketch prunes against.
        threshold: u64,
        /// Hash seed the counters were built with.
        seed: u64,
        /// `d × w` counter cells, row-major.
        counters: Vec<u64>,
    },
    /// HAVING pass 2: exact per-candidate sums as `(key, sum)` pairs.
    CandidateSums(Vec<(u64, u64)>),
    /// JOIN: the shard's commutative pair count and pair checksum.
    JoinAgg {
        /// Matched `(left, right)` pairs on this shard.
        pairs: u64,
        /// Wrapping checksum over the matched pairs.
        checksum: u64,
    },
}

/// Bounds-checked reader over a decoded payload.
struct Cursor<'a> {
    words: &'a [u64],
    at: usize,
}

impl Cursor<'_> {
    fn take(&mut self) -> Result<u64, CodecError> {
        let w = *self.words.get(self.at).ok_or(CodecError::Truncated)?;
        self.at += 1;
        Ok(w)
    }

    /// Take `n` words. The length check happens in `u64` *before* any
    /// cast or allocation, so a hostile length cannot wrap or OOM.
    fn take_n(&mut self, n: u64) -> Result<Vec<u64>, CodecError> {
        let remaining = (self.words.len() - self.at) as u64;
        if n > remaining {
            return Err(CodecError::Truncated);
        }
        let n = n as usize;
        let out = self.words[self.at..self.at + n].to_vec();
        self.at += n;
        Ok(out)
    }

    fn take_pairs(&mut self, n: u64) -> Result<Vec<(u64, u64)>, CodecError> {
        let total = n.checked_mul(2).ok_or(CodecError::Malformed)?;
        let flat = self.take_n(total)?;
        Ok(flat.chunks(2).map(|p| (p[0], p[1])).collect())
    }

    fn finish(self, v: ShardOutput) -> Result<ShardOutput, CodecError> {
        if self.at == self.words.len() {
            Ok(v)
        } else {
            Err(CodecError::Trailing)
        }
    }
}

impl ShardOutput {
    /// The variant's leading tag word.
    fn tag(&self) -> u64 {
        match self {
            ShardOutput::Count(_) => TAG_COUNT,
            ShardOutput::Rows { .. } => TAG_ROWS,
            ShardOutput::Values(_) => TAG_VALUES,
            ShardOutput::TopCandidates(_) => TAG_TOP,
            ShardOutput::Tuples { .. } => TAG_TUPLES,
            ShardOutput::Extrema(_) => TAG_EXTREMA,
            ShardOutput::SumDrain(_) => TAG_SUM_DRAIN,
            ShardOutput::Sketch { .. } => TAG_SKETCH,
            ShardOutput::CandidateSums(_) => TAG_CANDIDATE_SUMS,
            ShardOutput::JoinAgg { .. } => TAG_JOIN_AGG,
        }
    }

    /// The error a shard program's decode returns for this variant when
    /// its shape never ships it.
    pub(crate) fn unexpected(&self) -> CodecError {
        CodecError::BadTag(self.tag())
    }

    /// Flatten to the wire words. The layout is self-describing: a tag
    /// word, explicit lengths/geometry, then the data lanes.
    pub fn encode(&self) -> Vec<u64> {
        let mut out = vec![self.tag()];
        match self {
            ShardOutput::Count(v) => out.push(*v),
            ShardOutput::Rows {
                width,
                ids,
                flat,
                checksum,
            } => {
                out.extend([*checksum, *width, ids.len() as u64]);
                out.extend_from_slice(ids);
                out.extend_from_slice(flat);
            }
            ShardOutput::Values(values) | ShardOutput::TopCandidates(values) => {
                out.push(values.len() as u64);
                out.extend_from_slice(values);
            }
            ShardOutput::Tuples { width, flat } => {
                out.extend([*width, flat.len() as u64]);
                out.extend_from_slice(flat);
            }
            ShardOutput::Extrema(pairs)
            | ShardOutput::SumDrain(pairs)
            | ShardOutput::CandidateSums(pairs) => {
                out.push(pairs.len() as u64);
                out.extend(pairs.iter().flat_map(|&(k, v)| [k, v]));
            }
            ShardOutput::Sketch {
                d,
                w,
                threshold,
                seed,
                counters,
            } => {
                debug_assert_eq!(d * w, counters.len() as u64);
                out.extend([*d, *w, *threshold, *seed]);
                out.extend_from_slice(counters);
            }
            ShardOutput::JoinAgg { pairs, checksum } => out.extend([*pairs, *checksum]),
        }
        out
    }

    /// Parse a payload back into a shard output. Total over arbitrary
    /// input: garbage yields a [`CodecError`], never a panic.
    pub fn decode(words: &[u64]) -> Result<ShardOutput, CodecError> {
        let mut c = Cursor { words, at: 0 };
        let tag = c.take()?;
        let v = match tag {
            TAG_COUNT => ShardOutput::Count(c.take()?),
            TAG_ROWS => {
                let checksum = c.take()?;
                let width = c.take()?;
                let len = c.take()?;
                let ids = c.take_n(len)?;
                let payload = len.checked_mul(width).ok_or(CodecError::Malformed)?;
                ShardOutput::Rows {
                    width,
                    ids,
                    flat: c.take_n(payload)?,
                    checksum,
                }
            }
            TAG_VALUES => {
                let len = c.take()?;
                ShardOutput::Values(c.take_n(len)?)
            }
            TAG_TOP => {
                let len = c.take()?;
                ShardOutput::TopCandidates(c.take_n(len)?)
            }
            TAG_TUPLES => {
                let width = c.take()?;
                let len = c.take()?;
                if (width == 0 && len != 0) || (width != 0 && len % width != 0) {
                    return Err(CodecError::Malformed);
                }
                ShardOutput::Tuples {
                    width,
                    flat: c.take_n(len)?,
                }
            }
            TAG_EXTREMA => {
                let n = c.take()?;
                ShardOutput::Extrema(c.take_pairs(n)?)
            }
            TAG_SUM_DRAIN => {
                let n = c.take()?;
                ShardOutput::SumDrain(c.take_pairs(n)?)
            }
            TAG_SKETCH => {
                let d = c.take()?;
                let w = c.take()?;
                let threshold = c.take()?;
                let seed = c.take()?;
                if d == 0 || w == 0 {
                    return Err(CodecError::Malformed);
                }
                let cells = d.checked_mul(w).ok_or(CodecError::Malformed)?;
                ShardOutput::Sketch {
                    d,
                    w,
                    threshold,
                    seed,
                    counters: c.take_n(cells)?,
                }
            }
            TAG_CANDIDATE_SUMS => {
                let n = c.take()?;
                ShardOutput::CandidateSums(c.take_pairs(n)?)
            }
            TAG_JOIN_AGG => {
                let pairs = c.take()?;
                let checksum = c.take()?;
                ShardOutput::JoinAgg { pairs, checksum }
            }
            other => return Err(CodecError::BadTag(other)),
        };
        c.finish(v)
    }
}

/// Unpack a delivered [`ShardOutput::Rows`] of `width`-word projected
/// rows into its row ids and fetch checksum. The delivered rows — not the
/// shard's summary word — are the source of truth: the checksum is
/// recomputed from the payload and must agree with the shipped word, in
/// every build profile.
pub(crate) fn verified_rows(o: ShardOutput, width: usize) -> Result<(Vec<u64>, u64), CodecError> {
    let ShardOutput::Rows {
        width: shipped,
        ids,
        flat,
        checksum,
    } = o
    else {
        return Err(o.unexpected());
    };
    if shipped != width as u64 {
        return Err(CodecError::Malformed);
    }
    if rows_payload_checksum(width, &ids, &flat) != checksum {
        return Err(CodecError::Checksum);
    }
    Ok((ids, checksum))
}

// ---------------------------------------------------------------------------
// Failure plan + in-stream fault harnesses.
// ---------------------------------------------------------------------------

/// Fault-injection script for one distributed run: wire-level fault
/// rates for every shipping session, plus scripted crash/reboot events.
/// The default plan injects nothing and allows 4 shipping attempts.
#[derive(Debug, Clone, PartialEq)]
pub struct FailurePlan {
    /// Bernoulli loss probability per simulated wire hop.
    pub loss_rate: f64,
    /// Duplication probability per delivered message.
    pub dup_rate: f64,
    /// Reordering (extra-delay) probability per delivered message.
    pub reorder_rate: f64,
    /// Base RNG seed for the shipping sessions (attempts reseed
    /// deterministically from it).
    pub seed: u64,
    /// Scripted net worker crashes, `(worker index, at µs)`, injected
    /// into the first shipping session; the crashed flow is re-shipped
    /// on the next attempt.
    pub worker_crashes: Vec<(usize, u64)>,
    /// Scripted mid-session switch reboot times (µs) for the first
    /// shipping session (§3: the switch resumes with empty soft state).
    pub switch_reboots: Vec<u64>,
    /// Scripted mid-compute shard pruner reboots, `(shard, after
    /// rows)`: resumable programs reset in-stream and forward a
    /// superset; GROUP BY SUM/COUNT drains its registers first (§6);
    /// non-resumable multi-pass programs re-dispatch the shard.
    pub shard_reboots: Vec<(usize, u64)>,
    /// Shards whose first compute dispatch crashes (its work is
    /// discarded) and is re-dispatched.
    pub compute_crashes: Vec<usize>,
    /// Drop the first `n` FIN messages at the switch→master hop of the
    /// first shipping session (recovered via RTO).
    pub drop_first_fins: u64,
    /// Shipping attempts per shard flow, in `1..=63`; a shard that
    /// exhausts them falls back to its local output (degraded mode).
    pub max_attempts: u32,
}

impl Default for FailurePlan {
    fn default() -> Self {
        FailurePlan {
            loss_rate: 0.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            seed: 0,
            worker_crashes: Vec::new(),
            switch_reboots: Vec::new(),
            shard_reboots: Vec::new(),
            compute_crashes: Vec::new(),
            drop_first_fins: 0,
            max_attempts: 4,
        }
    }
}

/// Where a shard's scheduled mid-stream reboot falls: before entry
/// `reboot_after` of the shard's stream (`u64::MAX`: never), counted by
/// the entries decided so far.
struct RebootClock {
    reboot_after: u64,
    seen: u64,
}

impl RebootClock {
    /// Decide the next block: `decide` over the whole block, or — when the
    /// reboot falls inside it — over the entries before it, then `reboot`,
    /// then `decide` over the rest. The per-entry stream's decisions,
    /// without its per-entry call.
    fn block<T: ?Sized>(
        &mut self,
        state: &mut T,
        cols: &[&[u64]],
        out: &mut [Decision],
        decide: impl Fn(&mut T, &[&[u64]], &mut [Decision]),
        reboot: impl FnOnce(&mut T),
    ) {
        let n = out.len();
        let at = self.reboot_after.checked_sub(self.seen);
        self.seen += n as u64;
        let Some(at) = at.filter(|&at| at < n as u64).map(|at| at as usize) else {
            return decide(state, cols, out);
        };
        let (head, tail) = out.split_at_mut(at);
        let (before, after): (Vec<_>, Vec<_>) = cols.iter().map(|c| c.split_at(at)).unzip();
        decide(state, &before, head);
        reboot(state);
        decide(state, &after, tail);
    }
}

/// Wraps a [`RowPruner`] so a scheduled mid-stream reboot clears its
/// soft state exactly once (§3): decisions after the reboot start from
/// an empty structure, forwarding a superset the master's exact
/// completion absorbs.
struct RebootPruner {
    inner: Box<dyn RowPruner + Send>,
    clock: RebootClock,
    reboots: Arc<AtomicU64>,
}

impl RowPruner for RebootPruner {
    fn process_row(&mut self, row: &[u64]) -> Decision {
        let mut out = [Decision::Prune];
        let cols: Vec<&[u64]> = row.chunks(1).collect();
        self.process_block(&cols, &mut out);
        out[0]
    }

    fn process_block(&mut self, cols: &[&[u64]], out: &mut [Decision]) {
        let reboots = &self.reboots;
        self.clock.block(
            &mut *self.inner,
            cols,
            out,
            |pruner, cols, out| pruner.process_block(cols, out),
            |pruner| {
                pruner.reset();
                reboots.fetch_add(1, Ordering::Relaxed);
            },
        );
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Wraps [`GroupBySumStage`] so a scheduled mid-stream reboot honors
/// the §6 exception at its scheduled entry: the registers hold real
/// data, so they are drained *before* the soft state clears, and the
/// drained partials ride out with the block's evictions.
pub(crate) struct RebootSumStage {
    inner: GroupBySumStage,
    clock: RebootClock,
    reboots: Arc<AtomicU64>,
    drains: Arc<AtomicU64>,
}

impl SwitchPhases for RebootSumStage {
    fn process_cols(
        &mut self,
        phase: usize,
        cols: &[&[u64]],
        visible_cols: usize,
        out: &mut [Decision],
    ) {
        let (reboots, drains) = (&self.reboots, &self.drains);
        self.clock.block(
            &mut self.inner,
            cols,
            out,
            |stage, cols, out| stage.process_cols(phase, cols, visible_cols, out),
            |stage| {
                stage.drain_registers();
                reboots.fetch_add(1, Ordering::Relaxed);
                drains.fetch_add(1, Ordering::Relaxed);
            },
        );
    }

    fn residual(&mut self, phase: usize, fin: bool) -> Option<ColumnChunk> {
        self.inner.residual(phase, fin)
    }
}

// ---------------------------------------------------------------------------
// The distributed executor and its wire transport.
// ---------------------------------------------------------------------------

/// The distributed executor: [`crate::sharded`]'s shard programs with the
/// master-side combine fed by **decoded wire messages** instead of
/// channels, under an injectable [`FailurePlan`]. Result-equivalent to
/// every other executor at any fault rate short of degraded fallback —
/// and even degraded shards substitute their exact local partials, so
/// results stay correct; only the transport guarantee weakens.
#[derive(Debug, Clone)]
pub struct DistributedExecutor {
    /// Configuration shared with the deterministic executor (per-shard
    /// switch dimensions, worker count per shard pool, cost model).
    pub inner: CheetahExecutor,
    shards: usize,
    plan: FailurePlan,
}

impl DistributedExecutor {
    /// A distributed executor with a fixed shard count and a fault-free
    /// wire.
    pub fn with_shards(inner: CheetahExecutor, shards: usize) -> Self {
        Self::with_failure_plan(inner, shards, FailurePlan::default())
    }

    /// A distributed executor running every shipping session under
    /// `plan`'s fault script.
    pub fn with_failure_plan(inner: CheetahExecutor, shards: usize, plan: FailurePlan) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shards <= 0xff,
            "flow-id packing supports at most 255 shards"
        );
        assert!(
            (1..=0x3f).contains(&plan.max_attempts),
            "max_attempts must be in 1..=63 (flow-id packing)"
        );
        DistributedExecutor {
            inner,
            shards,
            plan,
        }
    }

    /// The fixed shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The fault script every shipping session runs under.
    pub fn plan(&self) -> &FailurePlan {
        &self.plan
    }

    /// Run the query's shard program(s) on the wire transport under the
    /// failure plan. Total over every [`Query`] shape; the returned
    /// report carries the measured whole-query wall, one switch span per
    /// shard per pass, the per-fold merge spans, the serial combine tail,
    /// and the resilience telemetry.
    pub fn execute_distributed(&self, db: &Database, query: &Query) -> ExecutionReport {
        let b = query.bind_or_panic(db, &self.inner.config);
        let mut wire = Wire::new(&self.plan, self.shards);
        let mut report = report_on(&self.inner, &mut wire, &b);
        let mut res = wire.res;
        res.shard_reboots += wire.faults.reboots.load(Ordering::Relaxed);
        res.register_drains += wire.faults.drains.load(Ordering::Relaxed);
        report.resilience = Some(res);
        report
    }
}

impl Executor for DistributedExecutor {
    fn name(&self) -> &'static str {
        "distributed"
    }

    fn execute(&self, db: &Database, query: &Query) -> ExecutionReport {
        let mut report = self.execute_distributed(db, query);
        report.executor = self.name();
        report
    }
}

/// The wire transport's stages: reboot-wrapped per the failure plan
/// (inert unless it schedules a reboot for the shard), counting into the
/// shared fault counters.
struct Faults<'a> {
    plan: &'a FailurePlan,
    reboots: Arc<AtomicU64>,
    drains: Arc<AtomicU64>,
}

impl Faults<'_> {
    /// Shard `s`'s reboot clock: its scheduled reboot row, or never.
    fn clock(&self, s: usize) -> RebootClock {
        let scheduled = self
            .plan
            .shard_reboots
            .iter()
            .find(|&&(shard, _)| shard == s);
        RebootClock {
            reboot_after: scheduled.map_or(u64::MAX, |&(_, after)| after),
            seen: 0,
        }
    }
}

impl Site for Faults<'_> {
    type RowStage = PrunerStage;
    type SumStage = RebootSumStage;
    const SHIPS: bool = true;

    fn pruner_stage(&self, s: usize, inner: NewPruner<'_>) -> PrunerStage {
        PrunerStage::new(Box::new(RebootPruner {
            inner: inner(),
            clock: self.clock(s),
            reboots: Arc::clone(&self.reboots),
        }))
    }

    fn sum_stage(&self, s: usize, m: Matrix, seed: u64) -> RebootSumStage {
        RebootSumStage {
            inner: GroupBySumStage::new(GroupBySumPruner::new(m.d, m.w, seed)),
            clock: self.clock(s),
            reboots: Arc::clone(&self.reboots),
            drains: Arc::clone(&self.drains),
        }
    }
}

/// The wire transport: compute every shard serially (each shard still
/// drives its own worker pool), re-dispatching the scripted crashes;
/// ship every encoded partial through one §7.2 round; fold the decoded
/// partials in master completion order. Program `k` of a query runs in
/// round `k`; only round 0 takes the scripted faults.
struct Wire<'a> {
    faults: Faults<'a>,
    shards: usize,
    round: u16,
    res: ResilienceReport,
}

impl<'a> Wire<'a> {
    fn new(plan: &'a FailurePlan, shards: usize) -> Self {
        Wire {
            faults: Faults {
                plan,
                reboots: Arc::default(),
                drains: Arc::default(),
            },
            shards,
            round: 0,
            res: ResilienceReport::default(),
        }
    }

    /// Shards whose first compute dispatch is discarded: the scripted
    /// compute crashes, plus — for programs whose in-stream state is not
    /// soft and so cannot resume in-stream — the scheduled reboots.
    fn redispatch(&mut self, resumable: bool) -> Vec<usize> {
        let plan = self.faults.plan;
        let shards = self.shards;
        let mut redisp: Vec<usize> = plan
            .compute_crashes
            .iter()
            .copied()
            .filter(|&s| s < shards)
            .collect();
        if !resumable {
            for &(s, _) in &plan.shard_reboots {
                if s < shards {
                    self.res.shard_reboots += 1;
                    if !redisp.contains(&s) {
                        redisp.push(s);
                    }
                }
            }
        }
        redisp
    }

    /// Ship every shard's encoded partial through one §7.2 transport
    /// round: chunk to data packets, run worker flows against a
    /// transparent persistent switch and master, retry incomplete flows
    /// on fresh flow ids with doubled RTO. Returns `(shard, delivered
    /// words)` in master completion order, then every shard that
    /// exhausted its attempts with `None`.
    fn ship(&mut self, outputs: &[ShardOutput], round: u16) -> Vec<(usize, Option<Vec<u64>>)> {
        debug_assert!(round <= 3, "flow-id packing supports rounds 0..=3");
        let plan = self.faults.plan;
        let res = &mut self.res;
        let shards = outputs.len();
        let payloads: Vec<Vec<Vec<u64>>> =
            outputs.iter().map(|o| chunk_payload(&o.encode())).collect();
        let mut master = MasterRx::new();
        let mut switch = SwitchNode::transparent();
        let mut pending: Vec<usize> = (0..shards).collect();
        let mut winner: Vec<Option<u16>> = vec![None; shards];
        for attempt in 0..plan.max_attempts {
            if pending.is_empty() {
                break;
            }
            let fid = |s: usize| (round << 14) | ((attempt as u16) << 8) | (s as u16);
            let rto = BASE_RTO_US << attempt.min(4);
            let mut workers: Vec<WorkerTx> = pending
                .iter()
                .map(|&s| WorkerTx::new(fid(s), payloads[s].clone(), SHIP_WINDOW, rto))
                .collect();
            let cfg = SimulationConfig {
                loss_rate: plan.loss_rate,
                dup_rate: plan.dup_rate,
                reorder_rate: plan.reorder_rate,
                rto_us: rto,
                window: SHIP_WINDOW,
                seed: plan.seed
                    ^ (u64::from(round) << 32)
                    ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ..SimulationConfig::default()
            };
            // A session is given up as dead — its unfinished flows go to
            // the next attempt, at twice the RTO and so twice the
            // patience — once it has run `SHIP_DEADLINE_RTOS` times what a
            // clean wire needs for its longest flow (one RTO per window
            // of packets, FIN included).
            let packets = pending.iter().map(|&s| payloads[s].len() + 1).max();
            let windows = packets.unwrap_or(1).div_ceil(SHIP_WINDOW as usize) as u64;
            // Scripted net faults fire once, on the first session of
            // the scripted round (pending order == shard ids there, so
            // worker indices in the plan mean shard indices).
            let mut faults = FaultPlan {
                deadline_us: Some(SHIP_DEADLINE_RTOS * rto * windows),
                ..FaultPlan::default()
            };
            if round == 0 && attempt == 0 {
                faults.worker_crashes = plan.worker_crashes.clone();
                faults.switch_reboots = plan.switch_reboots.clone();
                faults.drop_first_fins = plan.drop_first_fins;
            }
            let stats =
                Simulation::new(cfg).run_session(&mut workers, &mut switch, &mut master, &faults);
            res.ship_attempts += 1;
            res.deadline_expiries += u64::from(stats.deadline_expired);
            res.retransmissions += stats.retransmissions;
            res.losses += stats.losses;
            res.duplicates += stats.duplicates;
            res.fin_drops += stats.fin_drops;
            res.worker_crashes += stats.worker_crashes;
            res.net_reboots += stats.switch_reboots;
            res.redispatches += stats.worker_crashes;
            pending.retain(|&s| {
                if master.is_finished(fid(s)) {
                    winner[s] = Some(fid(s));
                    false
                } else {
                    true
                }
            });
            if !pending.is_empty() && attempt + 1 < plan.max_attempts {
                res.retries += pending.len() as u64;
            }
        }
        // Completion order: sort finished shards by when their last
        // packet landed at the master. Stale deliveries from earlier
        // (crashed/incomplete) attempts carry other flow ids and are
        // simply never read.
        let delivered = master.delivered();
        let mut done = Vec::with_capacity(shards);
        for (s, fid) in winner
            .iter()
            .enumerate()
            .filter_map(|(s, w)| Some((s, (*w)?)))
        {
            match delivered.iter().rposition(|&(f, _, _)| f == fid) {
                Some(last) => done.push((last, s, fid)),
                None => pending.push(s),
            }
        }
        done.sort_unstable();
        let mut out = Vec::with_capacity(shards);
        for (_, s, fid) in done {
            let mut entries: Vec<(u32, &[u64])> = delivered
                .iter()
                .filter(|&&(f, _, _)| f == fid)
                .map(|(_, seq, vals)| (*seq, vals.as_slice()))
                .collect();
            entries.sort_unstable_by_key(|&(seq, _)| seq);
            let words = entries.into_iter().flat_map(|(_, v)| v.iter().copied());
            out.push((s, Some(words.collect())));
        }
        out.extend(pending.into_iter().map(|s| (s, None)));
        out
    }
}

impl Transport for Wire<'_> {
    fn shards(&self) -> usize {
        self.shards
    }

    fn run<P: ShardProgram>(&mut self, program: &P) -> Reduced<P::Partial> {
        let round = self.round;
        self.round += 1;
        let redispatch = if round == 0 {
            self.redispatch(program.resumable())
        } else {
            Vec::new()
        };
        // A re-dispatched shard's first run is computed and **discarded**
        // — as if the shard died after the work but before shipping —
        // then run again, so only the successful run's stats enter the
        // report and processed counts match the reference exactly.
        let (faults, res) = (&self.faults, &mut self.res);
        let yields: Vec<_> = (0..self.shards)
            .map(|s| {
                if redispatch.contains(&s) {
                    drop(program.shard(s, faults));
                    res.redispatches += 1;
                }
                program.shard(s, faults)
            })
            .collect();
        // Pass walls phase-major, shard-minor: the in-process layout.
        let phases = yields.first().map_or(0, |y| y.phase_walls.len());
        let mut phase_stats = vec![PruneStats::default(); phases];
        let mut pass_walls = Vec::with_capacity(phases * yields.len());
        for (p, stats) in phase_stats.iter_mut().enumerate() {
            for y in &yields {
                stats.merge(y.phase_stats[p]);
                pass_walls.push(y.phase_walls[p]);
            }
        }
        let local: Vec<ShardOutput> = yields
            .into_iter()
            .map(|y| program.encode(y.value))
            .collect();
        // Fold in completion order, timing each step (decode + merge). A
        // shard that never arrived, or arrived as something its program
        // refuses, degrades to its exact local partial.
        let mut merge_walls = Vec::new();
        let mut merged = None;
        for (s, words) in self.ship(&local, round) {
            let t0 = Instant::now();
            let delivered = words.map(|w| ShardOutput::decode(&w).and_then(|o| program.decode(o)));
            let partial = match delivered {
                Some(Ok(partial)) => partial,
                _ => {
                    self.res.degraded = true;
                    program
                        .decode(local[s].clone())
                        .expect("a shard's own partial decodes")
                }
            };
            match &mut merged {
                None => merged = Some(partial),
                Some(acc) => {
                    program.merge(acc, partial);
                    merge_walls.push(t0.elapsed());
                }
            }
        }
        Reduced {
            value: merged.expect("at least one shard"),
            phase_stats,
            pass_walls,
            merge_walls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheetah::PrunerConfig;
    use crate::cost::CostModel;
    use crate::master::fetch_rows_flat;
    use crate::query::Agg;
    use crate::reference;
    use crate::sharded::tests::db;
    use crate::sharded::ShardYield;
    use cheetah_core::distinct::{DistinctPruner, EvictionPolicy};
    use cheetah_core::groupby::SumAction;
    use std::time::Duration;

    fn shapes() -> Vec<Query> {
        vec![
            Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            },
            Query::TopN {
                table: "t".into(),
                order_by: "v".into(),
                n: 12,
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
                threshold: 300_000,
            },
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
        ]
    }

    fn exec(shards: usize, plan: FailurePlan) -> DistributedExecutor {
        DistributedExecutor::with_failure_plan(
            CheetahExecutor::new(CostModel::default(), PrunerConfig::default()),
            shards,
            plan,
        )
    }

    #[test]
    fn every_variant_round_trips() {
        let variants = vec![
            ShardOutput::Count(42),
            ShardOutput::Rows {
                width: 2,
                ids: vec![3, 1, 99],
                flat: vec![30, 31, 10, 11, 990, 991],
                checksum: 0xdead_beef,
            },
            ShardOutput::Rows {
                width: 0,
                ids: vec![5, 6],
                flat: vec![],
                checksum: 7,
            },
            ShardOutput::Values(vec![1, 2, 5]),
            ShardOutput::TopCandidates(vec![9, 7, 7, 1]),
            ShardOutput::Tuples {
                width: 3,
                flat: vec![1, 2, 3, 4, 5, 6],
            },
            ShardOutput::Tuples {
                width: 0,
                flat: vec![],
            },
            ShardOutput::Extrema(vec![(1, 10), (2, 20)]),
            ShardOutput::SumDrain(vec![(7, 700)]),
            ShardOutput::Sketch {
                d: 2,
                w: 3,
                threshold: 50,
                seed: 9,
                counters: vec![0, 1, 2, 3, 4, 5],
            },
            ShardOutput::CandidateSums(vec![(4, 400), (6, 600)]),
            ShardOutput::JoinAgg {
                pairs: 12,
                checksum: 0x55,
            },
        ];
        for v in variants {
            let words = v.encode();
            assert_eq!(ShardOutput::decode(&words), Ok(v.clone()), "{v:?}");
            // Packetization reassembles to the same words.
            let rejoined: Vec<u64> = chunk_payload(&words).into_iter().flatten().collect();
            assert_eq!(rejoined, words);
        }
    }

    /// A shard's `Rows` output for rows 3, 1 and 99 of `t`, both lanes.
    fn shipped_rows() -> ShardOutput {
        let db = db(6_000, 2_000);
        let ids = vec![3, 1, 99];
        let (flat, checksum) = fetch_rows_flat(db.table("t"), &[0, 1], &ids);
        ShardOutput::Rows {
            width: 2,
            ids,
            flat,
            checksum,
        }
    }

    #[test]
    fn intact_rows_payload_verifies() {
        let ShardOutput::Rows { checksum, .. } = shipped_rows() else {
            unreachable!()
        };
        assert_eq!(
            verified_rows(shipped_rows(), 2),
            Ok((vec![3, 1, 99], checksum))
        );
        // Another shape's variant, or rows of another width, are refused.
        assert_eq!(
            verified_rows(ShardOutput::Count(3), 2),
            Err(CodecError::BadTag(TAG_COUNT))
        );
        assert_eq!(verified_rows(shipped_rows(), 3), Err(CodecError::Malformed));
    }

    /// The check runs in every build profile and reports, not panics.
    #[test]
    fn one_flipped_payload_word_fails_the_integrity_check() {
        let mut rows = shipped_rows();
        let ShardOutput::Rows { flat, .. } = &mut rows else {
            unreachable!()
        };
        flat[4] ^= 1;
        let rows = ShardOutput::decode(&rows.encode()).expect("still a well-formed frame");
        assert_eq!(verified_rows(rows, 2), Err(CodecError::Checksum));
    }

    #[test]
    fn decoding_garbage_errors_instead_of_panicking() {
        assert_eq!(ShardOutput::decode(&[]), Err(CodecError::Truncated));
        assert_eq!(ShardOutput::decode(&[0]), Err(CodecError::BadTag(0)));
        assert_eq!(
            ShardOutput::decode(&[99, 1, 2]),
            Err(CodecError::BadTag(99))
        );
        // Truncated bodies.
        assert_eq!(
            ShardOutput::decode(&[TAG_COUNT]),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            ShardOutput::decode(&[TAG_VALUES, 5, 1, 2]),
            Err(CodecError::Truncated)
        );
        // Hostile lengths never allocate.
        assert_eq!(
            ShardOutput::decode(&[TAG_VALUES, u64::MAX]),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            ShardOutput::decode(&[TAG_EXTREMA, u64::MAX]),
            Err(CodecError::Malformed)
        );
        assert_eq!(
            ShardOutput::decode(&[TAG_SKETCH, u64::MAX, u64::MAX, 0, 0]),
            Err(CodecError::Malformed)
        );
        assert_eq!(
            ShardOutput::decode(&[TAG_SKETCH, 0, 4, 0, 0]),
            Err(CodecError::Malformed)
        );
        // Misaligned tuple run.
        assert_eq!(
            ShardOutput::decode(&[TAG_TUPLES, 3, 4, 1, 2, 3, 4]),
            Err(CodecError::Malformed)
        );
        assert_eq!(
            ShardOutput::decode(&[TAG_TUPLES, 0, 4, 1, 2, 3, 4]),
            Err(CodecError::Malformed)
        );
        // Trailing garbage after a valid value.
        assert_eq!(
            ShardOutput::decode(&[TAG_COUNT, 7, 8]),
            Err(CodecError::Trailing)
        );
    }

    /// Where a scheduled reboot can fall: never, on the first entry,
    /// mid-block, exactly on a block boundary, or on the last entry.
    const BLOCK: usize = 64;
    const REBOOTS: [u64; 5] = [u64::MAX, 0, 100, 2 * BLOCK as u64, 5 * BLOCK as u64 - 1];

    /// The wire transport's stages for shard 0 rebooting before entry
    /// `reboot_after`.
    fn rebooting(plan: &FailurePlan) -> Faults<'_> {
        Faults {
            plan,
            reboots: Arc::default(),
            drains: Arc::default(),
        }
    }

    /// The reboot wrapper's block path, its one-entry row path and a plain
    /// pruner reset before the scheduled entry decide alike, and reboot
    /// once.
    #[test]
    fn reboot_block_path_equals_the_row_path() {
        let keys: Vec<u64> = (0..5 * BLOCK as u64).map(|i| i * 7 % 23).collect();
        let distinct = || Box::new(DistinctPruner::new(8, 2, EvictionPolicy::Lru, 5));
        for reboot_after in REBOOTS {
            let mut oracle = distinct();
            let expected: Vec<Decision> = (keys.iter().enumerate())
                .map(|(i, &k)| {
                    if i as u64 == reboot_after {
                        oracle.reset();
                    }
                    oracle.process_row(&[k])
                })
                .collect();
            let plan = FailurePlan {
                shard_reboots: vec![(0, reboot_after)],
                ..FailurePlan::default()
            };
            let (rows, blocks) = (rebooting(&plan), rebooting(&plan));
            let mut by_row = RebootPruner {
                inner: distinct(),
                clock: rows.clock(0),
                reboots: Arc::clone(&rows.reboots),
            };
            let by_row: Vec<Decision> = keys.iter().map(|&k| by_row.process_row(&[k])).collect();
            let mut stage = blocks.pruner_stage(0, &|| distinct());
            let mut by_block = vec![Decision::Prune; keys.len()];
            for (lane, out) in keys.chunks(BLOCK).zip(by_block.chunks_mut(BLOCK)) {
                stage.process_cols(0, &[lane], 1, out);
            }
            assert_eq!(by_row, expected, "reboot after {reboot_after}");
            assert_eq!(by_block, expected, "reboot after {reboot_after}");
            let fired = u64::from(reboot_after != u64::MAX);
            for faults in [&rows, &blocks] {
                assert_eq!(faults.reboots.load(Ordering::Relaxed), fired);
            }
        }
    }

    /// §6 on the wire: a rebooting register stage drains at its scheduled
    /// entry, not at the next block — its decisions, and the evicted plus
    /// drained pairs it ships in order, equal a per-entry register loop
    /// drained before that entry.
    #[test]
    fn reboot_sum_stage_drains_at_its_scheduled_entry() {
        let keys: Vec<u64> = (0..5 * BLOCK as u64).map(|i| i * 7 % 23).collect();
        let vals: Vec<u64> = (0..5 * BLOCK as u64).map(|i| i % 11 + 1).collect();
        let seed = PrunerConfig::default().seed;
        for reboot_after in REBOOTS {
            let mut registers = GroupBySumPruner::new(4, 2, seed);
            let (mut decided, mut expected) = (Vec::new(), Vec::new());
            for (i, (&k, &v)) in keys.iter().zip(&vals).enumerate() {
                if i as u64 == reboot_after {
                    expected.extend(registers.drain());
                }
                decided.push(match registers.process(k, v) {
                    SumAction::EvictAndForward { key, partial } => {
                        expected.push((key, partial));
                        Decision::Forward
                    }
                    SumAction::Absorb | SumAction::Start => Decision::Prune,
                });
            }
            expected.extend(registers.drain());

            let plan = FailurePlan {
                shard_reboots: vec![(0, reboot_after)],
                ..FailurePlan::default()
            };
            let faults = rebooting(&plan);
            let mut stage = faults.sum_stage(0, Matrix { d: 4, w: 2 }, seed);
            let (mut shipped, mut by_block) = (Vec::new(), vec![Decision::Prune; keys.len()]);
            let mut ship = |residual: Option<ColumnChunk>| {
                let cols = residual.expect("a register stage ships its pairs").cols;
                shipped.extend(cols[0].iter().copied().zip(cols[1].iter().copied()));
            };
            let lanes = keys.chunks(BLOCK).zip(vals.chunks(BLOCK));
            for ((k, v), out) in lanes.zip(by_block.chunks_mut(BLOCK)) {
                stage.process_cols(0, &[k, v], 2, out);
                ship(stage.residual(0, false));
            }
            ship(stage.residual(0, true));
            assert_eq!(by_block, decided, "reboot after {reboot_after}");
            assert_eq!(shipped, expected, "reboot after {reboot_after}");
            let fired = u64::from(reboot_after != u64::MAX);
            assert_eq!(faults.reboots.load(Ordering::Relaxed), fired);
            assert_eq!(faults.drains.load(Ordering::Relaxed), fired);
        }
    }

    /// Shard `s` contributes `s + 1`; the first delivery decoded is
    /// refused, as a payload corrupted in flight would be.
    struct RefuseFirst(AtomicU64);

    impl ShardProgram for RefuseFirst {
        type Partial = u64;
        type Root = u64;

        fn shard<S: Site>(&self, s: usize, _: &S) -> ShardYield<u64> {
            ShardYield {
                value: s as u64 + 1,
                phase_stats: vec![PruneStats::default()],
                phase_walls: vec![Duration::ZERO],
            }
        }

        fn merge(&self, acc: &mut u64, other: u64) {
            *acc += other;
        }

        fn encode(&self, v: u64) -> ShardOutput {
            ShardOutput::Count(v)
        }

        fn decode(&self, output: ShardOutput) -> Result<u64, CodecError> {
            match output {
                _ if self.0.fetch_add(1, Ordering::Relaxed) == 0 => Err(CodecError::Checksum),
                ShardOutput::Count(v) => Ok(v),
                other => Err(other.unexpected()),
            }
        }

        fn root(&self, v: u64) -> u64 {
            v
        }

        fn shuffled(&self, _: usize, _: &u64) -> u64 {
            1
        }
    }

    #[test]
    fn a_refused_delivery_degrades_to_the_local_partial() {
        let plan = FailurePlan::default();
        let mut wire = Wire::new(&plan, 3);
        let reduced = wire.run(&RefuseFirst(AtomicU64::new(0)));
        assert_eq!(reduced.value, 1 + 2 + 3, "the local partial stands in");
        assert!(wire.res.degraded, "a refused delivery is reported");
        assert_eq!(wire.res.retries, 0, "the wire itself delivered everything");
        assert_eq!(reduced.pass_walls.len(), 3);
    }

    #[test]
    fn clean_wire_matches_reference_with_quiet_telemetry() {
        let db = db(6_000, 2_000);
        let e = exec(3, FailurePlan::default());
        for q in &shapes() {
            let truth = reference::evaluate(&db, q);
            let r = Executor::execute(&e, &db, q);
            assert_eq!(r.result, truth, "{} diverged", q.kind());
            assert_eq!(r.executor, "distributed");
            let res = r.resilience.expect("distributed runs report resilience");
            assert_eq!(res.retries, 0, "{}: clean wire retries", q.kind());
            // A retransmission without loss means the RTO/ACK accounting
            // resends what the wire delivered.
            assert_eq!(res.retransmissions, 0, "{}: clean wire resends", q.kind());
            assert_eq!(res.deadline_expiries, 0, "{}: clean wire stalls", q.kind());
            assert_eq!(res.redispatches, 0);
            assert_eq!(res.losses, 0);
            assert_eq!(res.shard_reboots, 0);
            assert!(!res.degraded);
            assert!(res.ship_attempts >= 1, "at least one session per round");
            assert_eq!(
                r.pass_walls.len(),
                3 * r.passes as usize,
                "{}: one switch span per shard per pass",
                q.kind()
            );
        }
    }

    #[test]
    fn faults_leave_results_exact_and_telemetry_loud() {
        let db = db(6_000, 2_000);
        let truth_exec = exec(3, FailurePlan::default());
        let plan = FailurePlan {
            loss_rate: 0.2,
            dup_rate: 0.05,
            reorder_rate: 0.05,
            seed: 7,
            worker_crashes: vec![(0, 300)],
            switch_reboots: vec![700],
            shard_reboots: vec![(1, 500)],
            compute_crashes: vec![2],
            drop_first_fins: 1,
            ..FailurePlan::default()
        };
        let e = exec(3, plan);
        for q in &shapes() {
            let clean = Executor::execute(&truth_exec, &db, q);
            let r = Executor::execute(&e, &db, q);
            assert_eq!(r.result, clean.result, "{} diverged under faults", q.kind());
            assert_eq!(
                r.prune_stats().processed,
                clean.prune_stats().processed,
                "{}: re-dispatch must not change processed counts",
                q.kind()
            );
            let res = r.resilience.expect("resilience block present");
            assert!(res.losses > 0, "{}: lossy wire shows losses", q.kind());
            assert!(res.retries > 0, "{}: crashed flow retried", q.kind());
            assert!(res.worker_crashes >= 1, "{}: crash recorded", q.kind());
            assert!(res.net_reboots >= 1, "{}: switch reboot recorded", q.kind());
            assert!(
                res.shard_reboots >= 1,
                "{}: shard reboot recorded",
                q.kind()
            );
            assert!(res.redispatches >= 1, "{}: re-dispatch recorded", q.kind());
            assert!(!res.degraded, "{}: retry budget suffices", q.kind());
        }
    }

    #[test]
    fn groupby_sum_reboot_drains_registers_first() {
        let db = db(6_000, 2_000);
        let q = Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Sum,
        };
        let truth = reference::evaluate(&db, &q);
        let plan = FailurePlan {
            shard_reboots: vec![(0, 200), (1, 400)],
            ..FailurePlan::default()
        };
        let r = Executor::execute(&exec(2, plan), &db, &q);
        assert_eq!(r.result, truth, "§6 drain keeps SUM exact across reboots");
        let res = r.resilience.expect("resilience block present");
        assert_eq!(res.shard_reboots, 2);
        assert_eq!(
            res.register_drains, 2,
            "each rebooting shard drains its registers once"
        );
    }

    /// Every pair the registers drain reaches the master counted as
    /// forwarded: `t.k`'s 83 keys fit 4096 × 8 without an eviction, so one
    /// shard drains them once at FIN, and once more before a reboot that
    /// falls after all of them have been seen.
    #[test]
    fn register_drains_count_as_forwarded_a_rebooted_shards_included() {
        let db = db(6_000, 2_000);
        let q = Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Sum,
        };
        for (shard_reboots, drained) in [(vec![], 83), (vec![(0, 1_000)], 2 * 83)] {
            let plan = FailurePlan {
                shard_reboots,
                ..FailurePlan::default()
            };
            let stats = Executor::execute(&exec(1, plan), &db, &q).prune_stats();
            assert_eq!((stats.processed, stats.pruned), (6_000, 6_000));
            assert_eq!((stats.drained, stats.forwarded()), (drained, drained));
        }
        // The deterministic arm counts its drain alike, for a HAVING that
        // runs the registers too.
        let having = Query::Having {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            threshold: 0,
        };
        let deterministic = &exec(1, FailurePlan::default()).inner;
        for q in [q, having] {
            let stats = deterministic.execute(&db, &q).prune_stats();
            assert_eq!((stats.drained, stats.forwarded()), (83, 83), "{}", q.kind());
        }
    }

    #[test]
    fn exhausted_retry_budget_degrades_but_stays_exact() {
        let db = db(6_000, 2_000);
        let q = Query::Distinct {
            table: "t".into(),
            column: "k".into(),
        };
        let truth = reference::evaluate(&db, &q);
        let plan = FailurePlan {
            loss_rate: 1.0,
            seed: 3,
            max_attempts: 2,
            ..FailurePlan::default()
        };
        let r = Executor::execute(&exec(2, plan), &db, &q);
        assert_eq!(r.result, truth, "local fallback is the exact output");
        let res = r.resilience.expect("resilience block present");
        assert!(res.degraded, "total loss exhausts the budget");
        assert!(res.retries >= 1);
        assert_eq!(res.deadline_expiries, 2, "both sessions hit their deadline");
    }
}
