//! Distributed shards over the wire protocol, with failure injection
//! and retry/recovery.
//!
//! [`crate::sharded`] merges its shard pipelines through in-process
//! channels. This module is the same shard decomposition run the way
//! the paper actually deploys it (§3 Figure 1/3, §7.2): every shard's
//! phase output is **encoded to plain `u64` words** ([`ShardOutput`]),
//! chunked into §7.2 data packets, and shipped over the
//! [`cheetah_net`] master/worker/switch state machines on the
//! discrete-event fabric — the master folds *decoded* messages, in
//! completion order, instead of channel values.
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
//!   output and the report says so ([`ResilienceReport::degraded`]).
//! * **Mid-query switch reboot** — §3's guarantee: pruning state is
//!   soft, so a rebooted switch resumes empty and merely forwards a
//!   superset; every per-shard output is canonicalized before encoding,
//!   so the result stays exact. The §6 exception is honored where it
//!   must be: GROUP BY SUM/COUNT registers hold *real data*, so a
//!   scheduled shard reboot drains them first
//!   ([`ResilienceReport::register_drains`]) and the drained partials
//!   ride the FIN residual like any §6 eviction.
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
use std::time::{Duration, Instant};

use cheetah_core::decision::{Decision, PruneStats, RowPruner};
use cheetah_core::groupby::{Extremum, GroupBySumPruner};
use cheetah_core::having::{CountMinSketch, HavingPruner};
use cheetah_net::sim::FaultPlan;
use cheetah_net::wire::chunk_payload;
use cheetah_net::{MasterRx, Simulation, SimulationConfig, SwitchNode, WorkerTx};

use crate::backend;
use crate::cheetah::{tuple_fingerprinter, CheetahExecutor};
use crate::executor::{ExecutionReport, Executor, ResilienceReport};
use crate::master::{
    explode, fetch_rows_flat, rows_payload_checksum, GroupRun, GroupSink, TupleRun,
};
use crate::multipass::{GroupBySumStage, HavingShardProbe, HavingShardSketch};
use crate::query::{Agg, Query, QueryResult};
use crate::reference::skyline_of;
use crate::sharded::{
    join_shard, key_partition, merge_top, range_parts, run_shard, sum_shard, ShardYield,
};
use crate::stream::split_range;
use crate::table::{Database, Table};
use crate::threaded::{ColumnChunk, Lane, LanePartition, PhaseInput, PrunerStage, SwitchPhases};

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
// Wire codec: shard phase outputs as self-describing u64 payloads.
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
const TAG_FILTER: u64 = 11;

/// Why a [`ShardOutput`] payload failed to decode. Decoding never
/// panics: arbitrary garbage maps to one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the advertised structure was complete.
    Truncated,
    /// The leading tag word names no known variant.
    BadTag(u64),
    /// A structurally impossible header: zero sketch/filter geometry,
    /// a length product overflowing `u64`, or a tuple run misaligned
    /// with its width.
    Malformed,
    /// A well-formed value followed by trailing garbage words.
    Trailing,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::BadTag(t) => write!(f, "unknown shard-output tag {t}"),
            CodecError::Malformed => write!(f, "malformed shard-output header"),
            CodecError::Trailing => write!(f, "trailing words after shard output"),
        }
    }
}

impl std::error::Error for CodecError {}

/// One shard's mergeable phase output, as shipped over the wire: every
/// variant has a flat `u64`-word encoding ([`ShardOutput::encode`])
/// that survives §7.2 packetization and decodes without panicking
/// ([`ShardOutput::decode`]). Outputs are canonicalized per shard
/// *before* encoding, so a rebooted switch's forwarded superset ships
/// the same exact value.
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
    /// Multi-column DISTINCT / SKYLINE: a canonicalized tuple run,
    /// row-major in one flat lane.
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
    /// A Bloom filter's raw state (segmented geometry + word array) —
    /// the broadcast payload for cross-shard membership filters.
    Filter {
        /// Words per hash segment.
        seg_words: u64,
        /// Number of hash functions / segments.
        hashes: u64,
        /// Hash seed the filter was built with.
        seed: u64,
        /// `seg_words × hashes` filter words.
        words: Vec<u64>,
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
    /// Flatten to the wire words. The layout is self-describing: a tag
    /// word, explicit lengths/geometry, then the data lanes.
    pub fn encode(&self) -> Vec<u64> {
        let mut out = Vec::new();
        match self {
            ShardOutput::Count(v) => {
                out.push(TAG_COUNT);
                out.push(*v);
            }
            ShardOutput::Rows {
                width,
                ids,
                flat,
                checksum,
            } => {
                out.push(TAG_ROWS);
                out.push(*checksum);
                out.push(*width);
                out.push(ids.len() as u64);
                out.extend_from_slice(ids);
                out.extend_from_slice(flat);
            }
            ShardOutput::Values(values) => {
                out.push(TAG_VALUES);
                out.push(values.len() as u64);
                out.extend_from_slice(values);
            }
            ShardOutput::TopCandidates(values) => {
                out.push(TAG_TOP);
                out.push(values.len() as u64);
                out.extend_from_slice(values);
            }
            ShardOutput::Tuples { width, flat } => {
                out.push(TAG_TUPLES);
                out.push(*width);
                out.push(flat.len() as u64);
                out.extend_from_slice(flat);
            }
            ShardOutput::Extrema(pairs) => {
                out.push(TAG_EXTREMA);
                out.push(pairs.len() as u64);
                for &(k, v) in pairs {
                    out.push(k);
                    out.push(v);
                }
            }
            ShardOutput::SumDrain(pairs) => {
                out.push(TAG_SUM_DRAIN);
                out.push(pairs.len() as u64);
                for &(k, v) in pairs {
                    out.push(k);
                    out.push(v);
                }
            }
            ShardOutput::Sketch {
                d,
                w,
                threshold,
                seed,
                counters,
            } => {
                debug_assert_eq!(d * w, counters.len() as u64);
                out.push(TAG_SKETCH);
                out.push(*d);
                out.push(*w);
                out.push(*threshold);
                out.push(*seed);
                out.extend_from_slice(counters);
            }
            ShardOutput::CandidateSums(pairs) => {
                out.push(TAG_CANDIDATE_SUMS);
                out.push(pairs.len() as u64);
                for &(k, v) in pairs {
                    out.push(k);
                    out.push(v);
                }
            }
            ShardOutput::JoinAgg { pairs, checksum } => {
                out.push(TAG_JOIN_AGG);
                out.push(*pairs);
                out.push(*checksum);
            }
            ShardOutput::Filter {
                seg_words,
                hashes,
                seed,
                words,
            } => {
                debug_assert_eq!(seg_words * hashes, words.len() as u64);
                out.push(TAG_FILTER);
                out.push(*seg_words);
                out.push(*hashes);
                out.push(*seed);
                out.extend_from_slice(words);
            }
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
            TAG_FILTER => {
                let seg_words = c.take()?;
                let hashes = c.take()?;
                let seed = c.take()?;
                if seg_words == 0 || hashes == 0 {
                    return Err(CodecError::Malformed);
                }
                let n = seg_words.checked_mul(hashes).ok_or(CodecError::Malformed)?;
                ShardOutput::Filter {
                    seg_words,
                    hashes,
                    seed,
                    words: c.take_n(n)?,
                }
            }
            other => return Err(CodecError::BadTag(other)),
        };
        c.finish(v)
    }
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

/// Shared fault counters the in-stream harnesses bump; folded into the
/// report's resilience block after the query completes.
#[derive(Clone, Default)]
struct FaultCtx {
    reboots: Arc<AtomicU64>,
    drains: Arc<AtomicU64>,
}

/// Wraps a [`RowPruner`] so a scheduled mid-stream reboot clears its
/// soft state exactly once (§3): decisions after the reboot start from
/// an empty structure, forwarding a superset the master's exact
/// completion absorbs.
struct RebootPruner {
    inner: Box<dyn RowPruner + Send>,
    reboot_after: u64,
    seen: u64,
    fired: bool,
    reboots: Arc<AtomicU64>,
}

impl RowPruner for RebootPruner {
    fn process_row(&mut self, row: &[u64]) -> Decision {
        if !self.fired && self.seen >= self.reboot_after {
            self.fired = true;
            self.inner.reset();
            self.reboots.fetch_add(1, Ordering::Relaxed);
        }
        self.seen += 1;
        self.inner.process_row(row)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Wraps [`GroupBySumStage`] so a scheduled mid-stream reboot honors
/// the §6 exception: the registers hold real data, so they are drained
/// *before* the soft state clears, and the drained partials ride the
/// FIN residual exactly like §6's packet-riding evictions.
struct RebootSumStage {
    inner: GroupBySumStage,
    reboot_after: u64,
    seen: u64,
    fired: bool,
    drained: Vec<(u64, u64)>,
    reboots: Arc<AtomicU64>,
    drains: Arc<AtomicU64>,
}

impl SwitchPhases for RebootSumStage {
    fn rewrites_in_flight(&self) -> bool {
        true
    }

    fn process_chunk(
        &mut self,
        phase: usize,
        chunk: &mut ColumnChunk,
        visible_cols: usize,
        out: &mut [Decision],
    ) {
        if !self.fired && self.seen >= self.reboot_after {
            self.fired = true;
            self.drained.extend(self.inner.drain_registers());
            self.reboots.fetch_add(1, Ordering::Relaxed);
            self.drains.fetch_add(1, Ordering::Relaxed);
        }
        self.seen += chunk.rows() as u64;
        self.inner.process_chunk(phase, chunk, visible_cols, out);
    }

    fn fin(&mut self, phase: usize) -> Option<ColumnChunk> {
        let mut residual = self.inner.fin(phase).expect("sum stage drains at FIN");
        for &(k, p) in &self.drained {
            residual.cols[0].push(k);
            residual.cols[1].push(p);
        }
        Some(residual)
    }
}

// ---------------------------------------------------------------------------
// The distributed executor.
// ---------------------------------------------------------------------------

/// The distributed executor: [`crate::sharded`]'s shard pipelines with
/// the master-side combine fed by **decoded wire messages** instead of
/// channels, under an injectable [`FailurePlan`]. Result-equivalent to
/// every other executor at any fault rate short of degraded fallback —
/// and even degraded shards substitute their exact local outputs, so
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

    /// The scheduled reboot row for shard `s`, or `u64::MAX` (never).
    fn reboot_after(&self, s: usize) -> u64 {
        self.plan
            .shard_reboots
            .iter()
            .find(|&&(shard, _)| shard == s)
            .map_or(u64::MAX, |&(_, after)| after)
    }

    /// Shard `s`'s single-phase pruner stage, reboot-wrapped (inert
    /// unless the plan schedules a reboot for `s`).
    fn pruner_stage(
        &self,
        s: usize,
        inner: Box<dyn RowPruner + Send>,
        ctx: &FaultCtx,
    ) -> PrunerStage {
        PrunerStage::new(Box::new(RebootPruner {
            inner,
            reboot_after: self.reboot_after(s),
            seen: 0,
            fired: false,
            reboots: Arc::clone(&ctx.reboots),
        }))
    }

    /// Shard `s`'s GROUP BY SUM/COUNT stage, reboot-wrapped with the
    /// §6 register drain.
    fn sum_stage(&self, s: usize, ctx: &FaultCtx) -> RebootSumStage {
        let cfg = &self.inner.config;
        RebootSumStage {
            inner: GroupBySumStage::new(GroupBySumPruner::new(
                cfg.groupby_d,
                cfg.groupby_w,
                cfg.seed,
            )),
            reboot_after: self.reboot_after(s),
            seen: 0,
            fired: false,
            drained: Vec::new(),
            reboots: Arc::clone(&ctx.reboots),
            drains: Arc::clone(&ctx.drains),
        }
    }

    /// For multi-pass programs whose in-stream state is not soft (JOIN
    /// filters, HAVING sketches), a scheduled shard reboot cannot
    /// resume in-stream — the shard is re-dispatched instead: its
    /// reboots join the re-dispatch list alongside the scripted compute
    /// crashes.
    fn non_resumable_redispatch(
        &self,
        shards: usize,
        resumable: &[usize],
        res: &mut ResilienceReport,
    ) -> Vec<usize> {
        let mut redisp = resumable.to_vec();
        for &(s, _) in &self.plan.shard_reboots {
            if s < shards {
                res.shard_reboots += 1;
                if !redisp.contains(&s) {
                    redisp.push(s);
                }
            }
        }
        redisp
    }

    /// Ship every shard's encoded output through one §7.2 transport
    /// round: chunk to data packets, run worker flows against a
    /// transparent persistent switch and master, retry incomplete
    /// flows on fresh flow ids with doubled RTO, and return the
    /// **decoded** outputs in master completion order (degraded local
    /// fallbacks, if any, appended in shard order).
    fn ship(
        &self,
        outputs: &[ShardOutput],
        round: u16,
        scripted: bool,
        res: &mut ResilienceReport,
    ) -> Vec<ShardOutput> {
        debug_assert!(round <= 3, "flow-id packing supports rounds 0..=3");
        let shards = outputs.len();
        let payloads: Vec<Vec<Vec<u64>>> =
            outputs.iter().map(|o| chunk_payload(&o.encode())).collect();
        let mut master = MasterRx::new();
        let mut switch = SwitchNode::transparent();
        let mut pending: Vec<usize> = (0..shards).collect();
        let mut winner: Vec<Option<u16>> = vec![None; shards];
        for attempt in 0..self.plan.max_attempts {
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
                loss_rate: self.plan.loss_rate,
                dup_rate: self.plan.dup_rate,
                reorder_rate: self.plan.reorder_rate,
                rto_us: rto,
                window: SHIP_WINDOW,
                seed: self.plan.seed
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
            if scripted && attempt == 0 {
                faults.worker_crashes = self.plan.worker_crashes.clone();
                faults.switch_reboots = self.plan.switch_reboots.clone();
                faults.drop_first_fins = self.plan.drop_first_fins;
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
            if !pending.is_empty() && attempt + 1 < self.plan.max_attempts {
                res.retries += pending.len() as u64;
            }
        }
        if !pending.is_empty() {
            res.degraded = true;
        }
        // Completion order: sort finished shards by when their last
        // packet landed at the master. Stale deliveries from earlier
        // (crashed/incomplete) attempts carry other flow ids and are
        // simply never read.
        let delivered = master.delivered();
        let mut done: Vec<(usize, usize)> = winner
            .iter()
            .enumerate()
            .filter_map(|(s, w)| {
                w.map(|fid| {
                    let key = delivered
                        .iter()
                        .rposition(|&(f, _, _)| f == fid)
                        .expect("finished flow delivered at least one packet");
                    (key, s)
                })
            })
            .collect();
        done.sort_unstable();
        let mut out = Vec::with_capacity(shards);
        for (_, s) in done {
            let fid = winner[s].expect("sorted over finished shards");
            let mut entries: Vec<(u32, &[u64])> = delivered
                .iter()
                .filter(|&&(f, _, _)| f == fid)
                .map(|(_, seq, vals)| (*seq, vals.as_slice()))
                .collect();
            entries.sort_unstable_by_key(|&(seq, _)| seq);
            let words: Vec<u64> = entries
                .into_iter()
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            out.push(ShardOutput::decode(&words).expect("shipped shard payload round-trips"));
        }
        for &s in &pending {
            out.push(outputs[s].clone());
        }
        out
    }

    /// Assemble the distributed report: the shared cost-model pricing
    /// plus the per-shard pass spans, the per-fold merge spans, and the
    /// serial combine tail. The resilience block attaches afterwards,
    /// once the whole query (all rounds) has run.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        query: &Query,
        streamed_rows: u64,
        stats: PruneStats,
        passes: u32,
        fetch_rows: u64,
        result: QueryResult,
        pass_walls: Vec<Duration>,
        merge_walls: Vec<Duration>,
        combine_wall: Duration,
    ) -> ExecutionReport {
        let mut report = self
            .inner
            .report(query, streamed_rows, stats, passes, fetch_rows, result);
        report.pass_walls = pass_walls;
        report.combine_wall = Some(combine_wall);
        report.merge_walls = merge_walls;
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

/// Run every shard's compute serially (each shard still drives its own
/// worker pool internally), re-dispatching the scripted crash list:
/// a re-dispatched shard's first run is computed and **discarded** — as
/// if the shard died after the work but before shipping — then run
/// again, so only the successful run's stats enter the report and
/// processed counts match the deterministic reference exactly.
fn compute_shards<F>(
    shards: usize,
    redispatch: &[usize],
    res: &mut ResilienceReport,
    mut compute: F,
) -> Vec<ShardYield<ShardOutput>>
where
    F: FnMut(usize) -> ShardYield<ShardOutput>,
{
    (0..shards)
        .map(|s| {
            if redispatch.contains(&s) {
                drop(compute(s));
                res.redispatches += 1;
            }
            compute(s)
        })
        .collect()
}

/// Pass walls in phase-major, shard-minor order — the same layout
/// [`crate::sharded`] reports, so report consumers need no new cases.
fn phase_major_walls(yields: &[ShardYield<ShardOutput>]) -> Vec<Duration> {
    let phases = yields.first().map_or(0, |y| y.phase_walls.len());
    let mut walls = Vec::with_capacity(phases * yields.len());
    for p in 0..phases {
        for y in yields {
            walls.push(y.phase_walls[p]);
        }
    }
    walls
}

/// All shards' per-phase stats folded into one total.
fn stats_sum(yields: &[ShardYield<ShardOutput>]) -> PruneStats {
    let mut total = PruneStats::default();
    for y in yields {
        for s in &y.phase_stats {
            total.merge(*s);
        }
    }
    total
}

/// Fold decoded shard outputs in the order the master completed them:
/// each unpacks into the shape's mergeable value, the first becomes the
/// accumulator and every later one merges in, with the per-step span
/// (unpack + merge) recorded.
fn fold_decoded<T>(
    decoded: Vec<ShardOutput>,
    unpack: impl Fn(ShardOutput) -> T,
    mut merge: impl FnMut(&mut T, T),
    merge_walls: &mut Vec<Duration>,
) -> T {
    let mut it = decoded.into_iter();
    let mut acc = unpack(it.next().expect("at least one shard output"));
    for o in it {
        let t0 = Instant::now();
        merge(&mut acc, unpack(o));
        merge_walls.push(t0.elapsed());
    }
    acc
}

/// Unpack a delivered [`ShardOutput::Rows`] into its row ids and fetch
/// checksum. The delivered projected rows — not the shard's summary word
/// — are the source of truth: the checksum is recomputed from the payload
/// and must agree with the shipped word, in every build profile (end-to-end
/// payload integrity; a mismatch is a corrupted payload the codec could
/// not see).
fn verified_rows(o: ShardOutput) -> (Vec<u64>, u64) {
    let ShardOutput::Rows {
        width,
        ids,
        flat,
        checksum,
    } = o
    else {
        wrong(&o)
    };
    let delivered = rows_payload_checksum(width as usize, &ids, &flat);
    assert_eq!(
        delivered, checksum,
        "shipped fetch payload diverged from shard checksum"
    );
    (ids, delivered)
}

/// A shard shipped a variant its query shape never encodes — only
/// reachable through a bug, never through wire garbage (decode already
/// rejected that).
fn wrong(o: &ShardOutput) -> ! {
    panic!("shard shipped a mismatched output variant: {o:?}")
}

impl DistributedExecutor {
    /// Run the query across the shard pipelines, ship every shard's
    /// encoded phase output over the §7.2 transport under the failure
    /// plan, and fold the decoded messages in completion order. Total
    /// over every [`Query`] shape; the returned report carries the
    /// measured whole-query wall, one switch span per shard per pass,
    /// the per-fold merge spans, the serial combine tail, and the
    /// resilience telemetry.
    pub fn execute_distributed(&self, db: &Database, query: &Query) -> ExecutionReport {
        let shards = self.shards;
        let workers = self.inner.model.workers;
        let cfg = &self.inner.config;
        let started = Instant::now();
        let mut res = ResilienceReport::default();
        let ctx = FaultCtx::default();
        let resumable: Vec<usize> = self
            .plan
            .compute_crashes
            .iter()
            .copied()
            .filter(|&s| s < shards)
            .collect();
        let mut report = match query {
            Query::FilterCount { table, predicate } => {
                let t = db.table(table);
                let cols: Vec<usize> = predicate.columns.iter().map(|c| t.col_index(c)).collect();
                let bounds = t.partition_bounds(shards);
                let yields = compute_shards(shards, &resumable, &mut res, |s| {
                    run_shard(
                        vec![PhaseInput {
                            partitions: range_parts(t, &cols, bounds[s], workers, false),
                            visible_cols: cols.len(),
                        }],
                        self.pruner_stage(s, backend::filter(cfg, predicate), &ctx),
                        0u64,
                        // Master re-checks the full predicate on
                        // survivors, so a rebooted switch's extra
                        // forwards change nothing.
                        |count, _, block| {
                            block.for_each_row(|row| {
                                if predicate.eval(row) {
                                    *count += 1;
                                }
                            });
                        },
                        |_, count| ShardOutput::Count(count),
                    )
                });
                let stats = stats_sum(&yields);
                let walls = phase_major_walls(&yields);
                let outputs: Vec<ShardOutput> = yields.into_iter().map(|y| y.value).collect();
                let decoded = self.ship(&outputs, 0, true, &mut res);
                let mut merge_walls = Vec::new();
                let combine_t0 = Instant::now();
                let total = fold_decoded(
                    decoded,
                    |o| match o {
                        ShardOutput::Count(c) => c,
                        other => wrong(&other),
                    },
                    |acc, c| *acc += c,
                    &mut merge_walls,
                );
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    0,
                    QueryResult::Count(total),
                    walls,
                    merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::Filter { table, predicate } => {
                let t = db.table(table);
                let cols: Vec<usize> = predicate.columns.iter().map(|c| t.col_index(c)).collect();
                let npred = cols.len();
                let proj = query.projection(t, &cfg.fetch);
                let proj = &proj;
                let bounds = t.partition_bounds(shards);
                let yields = compute_shards(shards, &resumable, &mut res, |s| {
                    run_shard(
                        vec![PhaseInput {
                            partitions: range_parts(t, &cols, bounds[s], workers, true),
                            visible_cols: npred,
                        }],
                        self.pruner_stage(s, backend::filter(cfg, predicate), &ctx),
                        Vec::<u64>::new(),
                        // Rows arrive [pred cols…, rid]; the trailing
                        // row id rode switch-blind.
                        |ids, _, block| {
                            block.for_each_row(|row| {
                                if predicate.eval(row) {
                                    ids.push(row[npred]);
                                }
                            });
                        },
                        // §7.1 late materialization runs per shard
                        // before encoding: the projected rows themselves
                        // ship to the master, and the checksum fold is
                        // commutative, so shard partials just sum.
                        |_, ids| {
                            let (flat, checksum) = fetch_rows_flat(t, proj.cols(), &ids);
                            ShardOutput::Rows {
                                width: proj.width() as u64,
                                ids,
                                flat,
                                checksum,
                            }
                        },
                    )
                });
                let stats = stats_sum(&yields);
                let walls = phase_major_walls(&yields);
                let outputs: Vec<ShardOutput> = yields.into_iter().map(|y| y.value).collect();
                let decoded = self.ship(&outputs, 0, true, &mut res);
                let mut merge_walls = Vec::new();
                let combine_t0 = Instant::now();
                let (ids, checksum) = fold_decoded(
                    decoded,
                    verified_rows,
                    |acc, (mut ids, checksum)| {
                        acc.0.append(&mut ids);
                        acc.1 = acc.1.wrapping_add(checksum);
                    },
                    &mut merge_walls,
                );
                let fetch = ids.len() as u64;
                let mut report = self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    fetch,
                    QueryResult::row_ids(ids),
                    walls,
                    merge_walls,
                    combine_t0.elapsed(),
                );
                report.fetch_checksum = Some(checksum);
                report
            }
            Query::Distinct { table, column } => {
                let t = db.table(table);
                let cols = [t.col_index(column)];
                let bounds = t.partition_bounds(shards);
                let yields = compute_shards(shards, &resumable, &mut res, |s| {
                    run_shard(
                        vec![PhaseInput {
                            partitions: range_parts(t, &cols, bounds[s], workers, false),
                            visible_cols: 1,
                        }],
                        self.pruner_stage(s, backend::distinct(cfg), &ctx),
                        Vec::<u64>::new(),
                        |values, _, block| block.extend_lane_into(0, values),
                        // Canonicalize per shard: a rebooted switch's
                        // re-forwarded duplicates vanish here, so the
                        // wire ships the same exact run either way.
                        |_, mut values| {
                            values.sort_unstable();
                            values.dedup();
                            ShardOutput::Values(values)
                        },
                    )
                });
                let stats = stats_sum(&yields);
                let walls = phase_major_walls(&yields);
                let outputs: Vec<ShardOutput> = yields.into_iter().map(|y| y.value).collect();
                let decoded = self.ship(&outputs, 0, true, &mut res);
                let mut merge_walls = Vec::new();
                let combine_t0 = Instant::now();
                let values = fold_decoded(
                    decoded,
                    |o| match o {
                        ShardOutput::Values(v) => v,
                        other => wrong(&other),
                    },
                    |acc, mut v| acc.append(&mut v),
                    &mut merge_walls,
                );
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    0,
                    QueryResult::values(values),
                    walls,
                    merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::DistinctMulti { table, columns } => {
                let t = db.table(table);
                let cols: Vec<usize> = columns.iter().map(|c| t.col_index(c)).collect();
                let width = cols.len();
                let fp = tuple_fingerprinter(cfg);
                let bounds = t.partition_bounds(shards);
                let yields = compute_shards(shards, &resumable, &mut res, |s| {
                    let partitions = split_range(bounds[s].0, bounds[s].1, workers)
                        .into_iter()
                        .map(|(ws, we)| {
                            let slices: Vec<&[u64]> =
                                cols.iter().map(|&c| &t.col_at(c)[ws..we]).collect();
                            let mut lanes = vec![Lane::Fingerprint {
                                cols: slices.clone(),
                                fp: &fp,
                            }];
                            lanes.extend(slices.into_iter().map(Lane::Slice));
                            LanePartition {
                                rows: we - ws,
                                lanes,
                            }
                        })
                        .collect();
                    run_shard(
                        vec![PhaseInput {
                            partitions,
                            visible_cols: 1,
                        }],
                        self.pruner_stage(s, backend::distinct(cfg), &ctx),
                        Vec::<u64>::new(),
                        |flat, _, block| {
                            block.for_each_row(|row| flat.extend_from_slice(&row[1..]));
                        },
                        // Sort + dedup per shard in the flat buffer: the
                        // canonical run is what ships.
                        |_, flat| {
                            let (width, flat) = TupleRun::canonical(width, flat).into_parts();
                            ShardOutput::Tuples { width, flat }
                        },
                    )
                });
                let stats = stats_sum(&yields);
                let walls = phase_major_walls(&yields);
                let outputs: Vec<ShardOutput> = yields.into_iter().map(|y| y.value).collect();
                let decoded = self.ship(&outputs, 0, true, &mut res);
                let mut merge_walls = Vec::new();
                let combine_t0 = Instant::now();
                // A delivered run is re-verified canonical, not trusted.
                let tuples = fold_decoded(
                    decoded,
                    |o| match o {
                        ShardOutput::Tuples { width, flat } => {
                            TupleRun::canonical(width as usize, flat)
                        }
                        other => wrong(&other),
                    },
                    TupleRun::merge,
                    &mut merge_walls,
                );
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    0,
                    tuples.into_points(),
                    walls,
                    merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::TopN { table, order_by, n } => {
                let t = db.table(table);
                let cols = [t.col_index(order_by)];
                let bounds = t.partition_bounds(shards);
                let yields = compute_shards(shards, &resumable, &mut res, |s| {
                    run_shard(
                        vec![PhaseInput {
                            partitions: range_parts(t, &cols, bounds[s], workers, false),
                            visible_cols: 1,
                        }],
                        self.pruner_stage(s, backend::topn(cfg, *n), &ctx),
                        Vec::<u64>::new(),
                        |values, _, block| block.extend_lane_into(0, values),
                        // Every true shard winner is in the forwarded
                        // superset, so sort-desc + truncate is exact
                        // even after a reboot.
                        |_, mut values| {
                            values.sort_unstable_by(|a, b| b.cmp(a));
                            values.truncate(*n);
                            ShardOutput::TopCandidates(values)
                        },
                    )
                });
                let stats = stats_sum(&yields);
                let walls = phase_major_walls(&yields);
                let outputs: Vec<ShardOutput> = yields.into_iter().map(|y| y.value).collect();
                let decoded = self.ship(&outputs, 0, true, &mut res);
                let mut merge_walls = Vec::new();
                let combine_t0 = Instant::now();
                let top = fold_decoded(
                    decoded,
                    |o| match o {
                        ShardOutput::TopCandidates(v) => v,
                        other => wrong(&other),
                    },
                    |acc, v| merge_top(acc, v, *n),
                    &mut merge_walls,
                );
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    *n as u64,
                    QueryResult::top_values(top, *n),
                    walls,
                    merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::GroupBy {
                table,
                key,
                val,
                agg: agg @ (Agg::Max | Agg::Min),
            } => {
                let t = db.table(table);
                let cols = [t.col_index(key), t.col_index(val)];
                let ext = if *agg == Agg::Max {
                    Extremum::Max
                } else {
                    Extremum::Min
                };
                let bounds = t.partition_bounds(shards);
                let yields = compute_shards(shards, &resumable, &mut res, |s| {
                    run_shard(
                        vec![PhaseInput {
                            partitions: range_parts(t, &cols, bounds[s], workers, false),
                            visible_cols: 2,
                        }],
                        self.pruner_stage(s, backend::groupby(cfg, ext), &ctx),
                        GroupSink::new(*agg),
                        |groups, _, block| {
                            groups.fill(|pairs| block.extend_pairs_into(0, 1, pairs));
                        },
                        // Exact extrema recomputed over the forwarded
                        // superset — reboot-safe by construction.
                        |_, groups| ShardOutput::Extrema(groups.finish().into_pairs()),
                    )
                });
                let stats = stats_sum(&yields);
                let walls = phase_major_walls(&yields);
                let outputs: Vec<ShardOutput> = yields.into_iter().map(|y| y.value).collect();
                let decoded = self.ship(&outputs, 0, true, &mut res);
                let mut merge_walls = Vec::new();
                let combine_t0 = Instant::now();
                let groups = fold_decoded(
                    decoded,
                    |o| match o {
                        ShardOutput::Extrema(pairs) => GroupRun::fold(pairs, *agg),
                        other => wrong(&other),
                    },
                    GroupRun::merge,
                    &mut merge_walls,
                );
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    0,
                    QueryResult::Groups(groups.into_groups()),
                    walls,
                    merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::GroupBy {
                table,
                key,
                val,
                agg: agg @ (Agg::Sum | Agg::Count),
            } => {
                // Hash-sharded mode (§6 register aggregation): keys are
                // disjoint across shards, so the drained totals ship as
                // plain pairs and the fold is a disjoint map union. The
                // partition is computed once; a re-dispatched shard
                // streams the same lanes again.
                let t = db.table(table);
                let mut lanes = vec![t.col_at(t.col_index(key))];
                if *agg == Agg::Sum {
                    lanes.push(t.col_at(t.col_index(val)));
                }
                let partition = key_partition(cfg, &lanes, shards, false);
                let yields = compute_shards(shards, &resumable, &mut res, |s| {
                    let stage = self.sum_stage(s, &ctx);
                    match &partition {
                        Some(p) => sum_shard(cfg, &p[s], stage, workers),
                        None => sum_shard(cfg, &lanes, stage, workers),
                    }
                    .map(|sums| ShardOutput::SumDrain(sums.into_run().into_pairs()))
                });
                let stats = stats_sum(&yields);
                let walls = phase_major_walls(&yields);
                let outputs: Vec<ShardOutput> = yields.into_iter().map(|y| y.value).collect();
                let decoded = self.ship(&outputs, 0, true, &mut res);
                let mut merge_walls = Vec::new();
                let combine_t0 = Instant::now();
                let totals = fold_decoded(
                    decoded,
                    |o| match o {
                        ShardOutput::SumDrain(pairs) => GroupRun::fold(pairs, Agg::Sum),
                        other => wrong(&other),
                    },
                    GroupRun::merge,
                    &mut merge_walls,
                );
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    0,
                    QueryResult::Groups(totals.into_groups()),
                    walls,
                    merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::Having {
                table,
                key,
                val,
                threshold,
            } => {
                // Round 0 ships the per-shard sketches; the master
                // rebuilds and cell-merges them, then round 1 ships
                // exact candidate sums. Sketch state is not soft under
                // the two-pass contract, so scheduled shard reboots
                // re-dispatch instead of resuming.
                let t = db.table(table);
                let cols = [t.col_index(key), t.col_index(val)];
                let bounds = t.partition_bounds(shards);
                let redisp = self.non_resumable_redispatch(shards, &resumable, &mut res);
                let sketches = compute_shards(shards, &redisp, &mut res, |s| {
                    run_shard(
                        vec![PhaseInput {
                            partitions: range_parts(t, &cols, bounds[s], workers, false),
                            visible_cols: 2,
                        }],
                        HavingShardSketch::new(HavingPruner::new(
                            cfg.having_d,
                            cfg.having_w,
                            *threshold,
                            cfg.seed,
                        )),
                        (),
                        // Shard-local announcements are not global
                        // candidates; the merged sketch recomputes
                        // them in pass 2.
                        |(), _, _block| {},
                        |program, ()| {
                            let pruner = program.into_pruner();
                            ShardOutput::Sketch {
                                d: cfg.having_d as u64,
                                w: cfg.having_w as u64,
                                threshold: pruner.threshold(),
                                seed: cfg.seed,
                                counters: pruner.sketch().counters().to_vec(),
                            }
                        },
                    )
                });
                let mut stats = stats_sum(&sketches);
                let mut walls = phase_major_walls(&sketches);
                let outputs: Vec<ShardOutput> = sketches.into_iter().map(|y| y.value).collect();
                let decoded = self.ship(&outputs, 0, true, &mut res);
                let mut merge_walls = Vec::new();
                let merged = fold_decoded(
                    decoded,
                    |o| match o {
                        ShardOutput::Sketch {
                            d,
                            w,
                            threshold,
                            seed,
                            counters,
                        } => HavingPruner::from_sketch(
                            CountMinSketch::from_parts(d as usize, w as usize, seed, counters),
                            threshold,
                        ),
                        other => wrong(&other),
                    },
                    |acc, sketch| acc.merge(&sketch),
                    &mut merge_walls,
                );
                let probes = compute_shards(shards, &[], &mut res, |s| {
                    run_shard(
                        vec![PhaseInput {
                            partitions: range_parts(t, &cols, bounds[s], workers, false),
                            visible_cols: 2,
                        }],
                        HavingShardProbe::new(merged.clone()),
                        GroupSink::new(Agg::Sum),
                        |sums, _, block| sums.fill(|pairs| block.extend_pairs_into(0, 1, pairs)),
                        |_, sums| ShardOutput::CandidateSums(sums.finish().into_pairs()),
                    )
                });
                stats.merge(stats_sum(&probes));
                walls.extend(phase_major_walls(&probes));
                let outputs: Vec<ShardOutput> = probes.into_iter().map(|y| y.value).collect();
                let decoded = self.ship(&outputs, 1, false, &mut res);
                let combine_t0 = Instant::now();
                let sums = fold_decoded(
                    decoded,
                    |o| match o {
                        ShardOutput::CandidateSums(pairs) => GroupRun::fold(pairs, Agg::Sum),
                        other => wrong(&other),
                    },
                    GroupRun::merge,
                    &mut merge_walls,
                );
                self.finish(
                    query,
                    2 * t.rows() as u64,
                    stats,
                    2,
                    0,
                    sums.keys_above(*threshold),
                    walls,
                    merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::Join {
                left,
                right,
                left_col,
                right_col,
            } => {
                // Partition-local pairing, as on the sharded executor;
                // only the commutative (pairs, checksum) aggregates
                // cross the wire. Build filters are not soft state
                // under the two-phase contract, so scheduled shard
                // reboots re-dispatch — over the same key partition,
                // computed once.
                let l = db.table(left);
                let r = db.table(right);
                let lc = l.col_index(left_col);
                let rc = r.col_index(right_col);
                let rows = (l.rows() + r.rows()) as u64;
                let asymmetric = 2 * l.rows().min(r.rows()) <= l.rows().max(r.rows());
                let redisp = self.non_resumable_redispatch(shards, &resumable, &mut res);
                let side = |t: &Table, c| key_partition(cfg, &[t.col_at(c)], shards, true);
                let sides = side(l, lc).zip(side(r, rc));
                let yields = compute_shards(shards, &redisp, &mut res, |s| {
                    let lanes = sides.as_ref().map(|(lp, rp)| [&lp[s][..], &rp[s][..]]);
                    join_shard(cfg, (l, lc), (r, rc), asymmetric, lanes, workers)
                        .map(|(pairs, checksum)| ShardOutput::JoinAgg { pairs, checksum })
                });
                // Symmetric: only the probe pass makes real decisions;
                // asymmetric: both single-stream passes do.
                let stats = if asymmetric {
                    stats_sum(&yields)
                } else {
                    let mut total = PruneStats::default();
                    for y in &yields {
                        total.merge(y.phase_stats[1]);
                    }
                    total
                };
                let streamed = if asymmetric { rows } else { 2 * rows };
                let walls = phase_major_walls(&yields);
                let outputs: Vec<ShardOutput> = yields.into_iter().map(|y| y.value).collect();
                let decoded = self.ship(&outputs, 0, true, &mut res);
                let mut merge_walls = Vec::new();
                let combine_t0 = Instant::now();
                let (pairs, checksum) = fold_decoded(
                    decoded,
                    |o| match o {
                        ShardOutput::JoinAgg { pairs, checksum } => (pairs, checksum),
                        other => wrong(&other),
                    },
                    |acc, (pairs, checksum)| {
                        acc.0 += pairs;
                        acc.1 = acc.1.wrapping_add(checksum);
                    },
                    &mut merge_walls,
                );
                self.finish(
                    query,
                    streamed,
                    stats,
                    2,
                    pairs,
                    QueryResult::JoinSummary { pairs, checksum },
                    walls,
                    merge_walls,
                    combine_t0.elapsed(),
                )
            }
            Query::Skyline { table, columns } => {
                let t = db.table(table);
                let cols: Vec<usize> = columns.iter().map(|c| t.col_index(c)).collect();
                let dims = cols.len();
                let bounds = t.partition_bounds(shards);
                let yields = compute_shards(shards, &resumable, &mut res, |s| {
                    run_shard(
                        vec![PhaseInput {
                            partitions: range_parts(t, &cols, bounds[s], workers, false),
                            visible_cols: dims,
                        }],
                        self.pruner_stage(s, backend::skyline(cfg, dims), &ctx),
                        Vec::<Vec<u64>>::new(),
                        |points, _, block| {
                            block.for_each_row(|row| points.push(row.to_vec()));
                        },
                        // The local frontier of the forwarded superset
                        // is the shard's exact frontier.
                        |_, points| ShardOutput::Tuples {
                            width: dims as u64,
                            flat: skyline_of(&points).into_iter().flatten().collect(),
                        },
                    )
                });
                let stats = stats_sum(&yields);
                let walls = phase_major_walls(&yields);
                let outputs: Vec<ShardOutput> = yields.into_iter().map(|y| y.value).collect();
                let decoded = self.ship(&outputs, 0, true, &mut res);
                let mut merge_walls = Vec::new();
                let combine_t0 = Instant::now();
                let union = fold_decoded(
                    decoded,
                    |o| match o {
                        ShardOutput::Tuples { flat, .. } => flat,
                        other => wrong(&other),
                    },
                    |acc, mut flat| acc.append(&mut flat),
                    &mut merge_walls,
                );
                self.finish(
                    query,
                    t.rows() as u64,
                    stats,
                    1,
                    0,
                    QueryResult::points(skyline_of(&explode(dims, &union))),
                    walls,
                    merge_walls,
                    combine_t0.elapsed(),
                )
            }
        };
        res.shard_reboots += ctx.reboots.load(Ordering::Relaxed);
        res.register_drains += ctx.drains.load(Ordering::Relaxed);
        report.resilience = Some(res);
        report.wall = Some(started.elapsed());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheetah::PrunerConfig;
    use crate::cost::CostModel;
    use crate::reference;
    use crate::table::Table;

    fn db() -> Database {
        let mut db = Database::new();
        db.add(Table::new(
            "t",
            vec![
                ("k", (0..6_000u64).map(|i| i * 7 % 83 + 1).collect()),
                ("v", (0..6_000u64).map(|i| i * 31 % 9_973).collect()),
            ],
        ));
        db.add(Table::new(
            "s",
            vec![
                ("k", (0..2_000u64).map(|i| i * 11 % 140 + 40).collect()),
                ("x", (0..2_000u64).map(|i| i * 3 % 97).collect()),
            ],
        ));
        db
    }

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
            ShardOutput::Filter {
                seg_words: 2,
                hashes: 2,
                seed: 3,
                words: vec![0xff, 0, 1, 2],
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
        let db = db();
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
        assert_eq!(verified_rows(shipped_rows()), (vec![3, 1, 99], checksum));
    }

    /// `assert_eq!`, not `debug_assert_eq!`: this fails in release too.
    #[test]
    #[should_panic(expected = "shipped fetch payload diverged")]
    fn one_flipped_payload_word_fails_the_integrity_check() {
        let mut rows = shipped_rows();
        let ShardOutput::Rows { flat, .. } = &mut rows else {
            unreachable!()
        };
        flat[4] ^= 1;
        let rows = ShardOutput::decode(&rows.encode()).expect("still a well-formed frame");
        verified_rows(rows);
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

    #[test]
    fn clean_wire_matches_reference_with_quiet_telemetry() {
        let db = db();
        let e = exec(3, FailurePlan::default());
        for q in &shapes() {
            let truth = reference::evaluate(&db, q);
            let r = Executor::execute(&e, &db, q);
            assert_eq!(r.result, truth, "{} diverged", q.kind());
            assert_eq!(r.executor, "distributed");
            let res = r.resilience.expect("distributed runs report resilience");
            assert_eq!(res.retries, 0, "{}: clean wire retries", q.kind());
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
        let db = db();
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
        let db = db();
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

    #[test]
    fn exhausted_retry_budget_degrades_but_stays_exact() {
        let db = db();
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
