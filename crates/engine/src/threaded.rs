//! Real-threads pipeline: a **persistent worker pool**, one switch thread
//! and the master wired with channels, running multi-phase dataflows with
//! **pipelined phase handoff**.
//!
//! This is what one in-process shard runs on. A shard program
//! ([`crate::sharded`]) hands its phase inputs, switch stage and master
//! sink to [`run_phases_each`]; the threaded executor is one shard over
//! `InProcess(1)`, the sharded executor N of them. Worker threads race
//! into one switch thread (the pruning program runs serialized there, as
//! the single ASIC pipeline would), and the calling thread sinks
//! survivors. Entries travel in column-major **blocks** (§9's
//! multi-entry-packet shape) of [`WIRE_ENTRIES`] entries, serialized
//! straight from [`Lane`] sources — table column slices, synthesized row
//! ids, constant flow tags, worker-computed fingerprints. The blocks are
//! **zero-copy views**: the descriptor references the shared lanes, the
//! switch decides it via [`SwitchPhases::process_cols`], and survivors
//! return to the master as **index lists** over the same views
//! ([`SurvivorBlock`]), compacted branch-free by the hand-off every arm
//! shares (`master::survivors`) — no entry is copied anywhere on the path.
//! Entries a program ships itself instead — GROUP BY SUM's evicted
//! `(key, partial)` pairs, a FIN drain ([`SwitchPhases::residual`]) —
//! reach the master in the same form, every entry a survivor. No per-row
//! `Vec` in the steady state and O(1) allocations per block.
//!
//! Multi-pass programs (§6–§7: JOIN's partition exchange, GROUP BY SUM's
//! register aggregation) stream every pass through one
//! [`run_phases_each`] call, which spawns each worker **exactly once per
//! call**: a worker receives its partition for every phase up front and
//! streams them back-to-back, ending each with a per-worker **watermark**
//! (EOF marker) instead of joining at a global barrier. The switch opens
//! phase `p+1` — calling [`SwitchPhases::begin_phase`], the control-plane
//! rule flip of §4.3 — as soon as all watermarks for phase `p` have
//! arrived and its FIN residuals have flushed; blocks that raced ahead of
//! the flip are parked and replayed the moment their phase opens. So pass
//! `p+1` serialization overlaps pass `p` pruning and master completion,
//! the way the paper's switch pipeline never drains between stages. The
//! staged programs themselves live in [`crate::multipass`]; any
//! [`RowPruner`] runs as a one-phase program through [`PrunerStage`].
//!
//! Block arrival order is nondeterministic, so pruning *rates* vary run
//! to run, but Cheetah's guarantee is order-independent: the completed
//! result must always equal the reference — which is exactly what the
//! integration tests (`tests/threaded_multipass.rs`,
//! `tests/executor_trait.rs`) assert.

use std::cell::Cell;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cheetah_core::decision::{Decision, PruneStats, RowPruner};
use cheetah_core::fingerprint::Fingerprinter;

use crate::master::survivors;
use crate::stream::{fingerprint_rows, BLOCK_ENTRIES};

/// Entries per worker→switch message: eight switch blocks ride one
/// channel send. The switch still decides [`BLOCK_ENTRIES`]-aligned
/// lanes in one `process_cols` call (block loops accept any length);
/// batching the *transport* amortizes the channel wakeups, which
/// otherwise dominate on small hosts where worker, switch and master
/// time-share cores.
pub const WIRE_ENTRIES: usize = 8 * BLOCK_ENTRIES;

/// Entries a program ships itself ([`SwitchPhases::residual`]): column-major
/// lanes of equal length.
#[derive(Debug, Clone, Default)]
pub struct ColumnChunk {
    /// One lane per metadata column.
    pub cols: Vec<Vec<u64>>,
}

impl ColumnChunk {
    /// Number of entries.
    pub fn rows(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }
}

/// One lane of a worker's partition: where the worker reads entry values
/// as it serializes blocks onto the wire. Borrowed variants make the
/// partition a **view** — building a two-pass query's inputs copies no
/// column data at all (the per-pass re-partition copies of the old
/// barrier design are gone).
#[derive(Debug, Clone)]
pub enum Lane<'a> {
    /// A borrowed column slice (normally straight out of a [`crate::table::Table`]).
    Slice(&'a [u64]),
    /// Owned backing (tests, pre-materialized lanes).
    Owned(Vec<u64>),
    /// Synthesized constant (a §7.2 flow-id tag, COUNT's ones lane).
    Const(u64),
    /// Synthesized row ids `start, start+1, …` — the switch-blind fetch
    /// lane, generated on the fly instead of materialized.
    Iota(u64),
    /// Computed per entry by the worker: the §5 fingerprint over the
    /// given column slices, so multi-column key hashing runs *in the
    /// workers* (parallel across the pool), not on the master.
    Fingerprint {
        /// The key columns, gathered per row.
        cols: Vec<&'a [u64]>,
        /// The fingerprinter shared by every worker of the query.
        fp: &'a Fingerprinter,
    },
}

impl Lane<'_> {
    /// Append entries `start..start + len` of this lane onto `out`.
    fn fill(&self, start: usize, len: usize, out: &mut Vec<u64>) {
        match self {
            Lane::Slice(s) => out.extend_from_slice(&s[start..start + len]),
            Lane::Owned(v) => out.extend_from_slice(&v[start..start + len]),
            Lane::Const(c) => out.extend(std::iter::repeat_n(*c, len)),
            Lane::Iota(base) => {
                let lo = base + start as u64;
                out.extend(lo..lo + len as u64);
            }
            Lane::Fingerprint { cols, fp } => fingerprint_rows(cols, start, len, fp, out),
        }
    }
}

/// One worker's partition for one phase: `rows` entries read from `lanes`.
#[derive(Debug, Clone, Default)]
pub struct LanePartition<'a> {
    /// Entries this worker streams in the phase.
    pub rows: usize,
    /// Lane sources, one per column of the in-flight blocks.
    pub lanes: Vec<Lane<'a>>,
}

impl LanePartition<'_> {
    /// Number of lanes (the width of the blocks this partition ships).
    pub fn width(&self) -> usize {
        self.lanes.len()
    }
}

/// Owned column-major data is a partition of itself (test convenience).
impl From<ColumnChunk> for LanePartition<'static> {
    fn from(chunk: ColumnChunk) -> Self {
        LanePartition {
            rows: chunk.rows(),
            lanes: chunk.cols.into_iter().map(Lane::Owned).collect(),
        }
    }
}

/// One streaming pass of a multi-phase dataflow: what each worker sends,
/// and how much of it the switch program may look at.
#[derive(Debug, Clone, Default)]
pub struct PhaseInput<'a> {
    /// Per-worker partitions for this pass.
    pub partitions: Vec<LanePartition<'a>>,
    /// The leading lanes the switch program sees. Trailing lanes (e.g.
    /// the row-id lane of a fetch flow) ride through switch-blind, like
    /// the packet payload bytes the parser never extracts.
    pub visible_cols: usize,
}

/// A (possibly stateful, possibly multi-phase) switch program for the
/// threaded pipeline — the generalization of [`RowPruner`] that the
/// multi-pass dataflows need.
///
/// One value of this trait lives on the switch thread across **all**
/// phases of a [`run_phases_each`] call, so phase-1 state (a join Bloom
/// filter, a HAVING sketch, GROUP BY SUM registers) is visible to
/// phase 2, exactly as the ASIC's register arrays persist between the
/// control plane's rule flips.
pub trait SwitchPhases: Send {
    /// Re-arm for `phase` (the control-plane rule flip). Called when the
    /// phase **opens** — for `phase == 0` before any block, and for later
    /// phases once every worker's watermark for the previous phase has
    /// arrived and its residuals have flushed. Blocks that arrive ahead
    /// of the flip are parked by the switch loop and never reach the
    /// program early.
    fn begin_phase(&mut self, phase: usize) {
        let _ = phase;
    }

    /// Decide one block over **borrowed** column lanes:
    /// `cols[..visible_cols]` are the switch-visible lanes, `out[i]`
    /// receives entry `i`'s decision. Blocks are zero-copy views of the
    /// shared lanes, and so read-only.
    fn process_cols(
        &mut self,
        phase: usize,
        cols: &[&[u64]],
        visible_cols: usize,
        out: &mut [Decision],
    );

    /// Entries the program ships itself: asked after every block of
    /// `phase`, and once more when the phase's stream drains (`fin`).
    /// `None`, the default, forwards the block's survivors as an index
    /// list over its lanes. A `Some` residual travels to the master
    /// *instead*, every entry a survivor — which is how GROUP BY SUM's
    /// evicted `(key, partial)` pairs ride out after each block and its
    /// registers drain at FIN (§6). The entries beyond the block's
    /// forwarded decisions, a FIN residual's all, count as
    /// [`PruneStats::drained`].
    fn residual(&mut self, phase: usize, fin: bool) -> Option<ColumnChunk> {
        let _ = (phase, fin);
        None
    }
}

/// Adapter running a plain [`RowPruner`] as a one-phase switch program.
pub struct PrunerStage {
    pruner: Box<dyn RowPruner + Send>,
}

impl PrunerStage {
    /// Wrap a pruner.
    pub fn new(pruner: Box<dyn RowPruner + Send>) -> Self {
        PrunerStage { pruner }
    }
}

impl SwitchPhases for PrunerStage {
    fn process_cols(
        &mut self,
        _phase: usize,
        cols: &[&[u64]],
        visible_cols: usize,
        out: &mut [Decision],
    ) {
        self.pruner.process_block(&cols[..visible_cols], out);
    }
}

/// Outcome of one threaded streaming phase.
#[derive(Debug, Default)]
pub struct ThreadedRun {
    /// Switch pruning counters for this phase.
    pub stats: PruneStats,
    /// Switch-side span of the phase: from the phase opening
    /// (`begin_phase`) to its FIN flush. Phases overlap at the workers
    /// but are sequential at the switch, so these spans partition the
    /// switch thread's wall clock.
    pub wall: Duration,
}

thread_local! {
    static WORKER_SPAWNS: Cell<u64> = const { Cell::new(0) };
}

/// Total worker threads spawned by [`run_phases_each`] calls made **from the
/// current thread** — a diagnostic counter for tests asserting the pool
/// spawns each worker exactly once per query (thread-local, so
/// concurrently running tests never race it). Drivers that fan pipelines
/// out to helper threads (the sharded executor's per-shard runners) fold
/// their helpers' deltas back via the crate-internal
/// `credit_worker_spawns`, so a whole query's spawn total stays
/// observable from the calling thread.
pub fn worker_threads_spawned() -> u64 {
    WORKER_SPAWNS.with(Cell::get)
}

/// Fold `n` worker spawns observed on helper threads into the current
/// thread's counter (see [`worker_threads_spawned`]).
pub(crate) fn credit_worker_spawns(n: u64) {
    WORKER_SPAWNS.with(|c| c.set(c.get() + n));
}

/// One lane of an in-flight block view: either a direct reference into
/// the shared partition data or a small generated/owned payload.
#[derive(Debug)]
enum LaneView<'a> {
    /// Borrowed column slice — zero-copy serialization.
    Slice(&'a [u64]),
    /// Constant lane, generated on read.
    Const(u64),
    /// Row ids `base, base+1, …`, generated on read.
    Iota(u64),
    /// Worker-materialized payload (fingerprint lanes, owned test data,
    /// residuals).
    Owned(Vec<u64>),
}

impl LaneView<'_> {
    /// Entry `i` of the lane.
    #[inline]
    fn get(&self, i: usize) -> u64 {
        match self {
            LaneView::Slice(s) => s[i],
            LaneView::Owned(v) => v[i],
            LaneView::Const(v) => *v,
            LaneView::Iota(base) => base + i as u64,
        }
    }
}

/// A zero-copy block descriptor: `rows` entries over `lanes`.
#[derive(Debug)]
struct BlockView<'a> {
    rows: usize,
    lanes: Vec<LaneView<'a>>,
}

/// Worker → switch traffic: blocks, then one watermark per phase.
enum SwitchMsg<'a> {
    /// A serialized block of `phase`.
    Block(usize, BlockView<'a>),
    /// Per-worker end-of-phase watermark: this worker has streamed its
    /// whole `phase` partition (it may already be serializing the next).
    Eof(usize),
}

/// Switch → master traffic.
enum MasterMsg<'a> {
    /// Survivors of one block of `phase`.
    Survivors(usize, SurvivorBlock<'a>),
    /// `phase` fully drained at the switch: its counters and span.
    PhaseDone(usize, PruneStats, Duration),
}

/// One block's survivors, the one form every master sink reads: the
/// block's lanes and the ascending indices of its surviving entries. For
/// a decided block the lanes are the view the switch read, so nothing was
/// copied to get the survivors here; a residual's lanes are its own, and
/// every entry survives.
#[derive(Debug)]
pub struct SurvivorBlock<'a> {
    lanes: Vec<LaneView<'a>>,
    idx: Vec<u16>,
}

impl SurvivorBlock<'_> {
    /// The survivors' indices into the block, ascending.
    pub fn indices(&self) -> &[u16] {
        &self.idx
    }

    /// Entry `i` of lane `c` (`i` indexes the block, not the survivors).
    pub fn value(&self, c: usize, i: usize) -> u64 {
        self.lanes[c].get(i)
    }

    /// Lane `c`, every entry of the block. Panics on a generated lane (a
    /// constant or row ids), which has no storage to lend.
    pub fn lane(&self, c: usize) -> &[u64] {
        match &self.lanes[c] {
            LaneView::Slice(s) => s,
            LaneView::Owned(v) => v,
            LaneView::Const(_) | LaneView::Iota(_) => panic!("lane {c} is generated"),
        }
    }

    /// The lane's constant value, when it is a generated constant lane (a
    /// flow-id tag): lets sinks resolve per-block invariants (join
    /// partitions are single-sided) once instead of per entry.
    pub fn const_lane(&self, c: usize) -> Option<u64> {
        match self.lanes[c] {
            LaneView::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Append each surviving entry's `(lane c1, lane c2)` values onto
    /// `out` — the tight two-lane sweep behind pairing masters.
    pub fn extend_pairs_into(&self, c1: usize, c2: usize, out: &mut Vec<(u64, u64)>) {
        let (l1, l2) = (&self.lanes[c1], &self.lanes[c2]);
        let pair = |&i: &u16| (l1.get(usize::from(i)), l2.get(usize::from(i)));
        out.extend(self.idx.iter().map(pair));
    }
}

/// Run a staged switch program over a sequence of streaming phases on a
/// persistent worker pool, with a **streaming master**: every survivor
/// block is handed to `sink(phase, survivors)` on the calling thread as it
/// arrives, so masters overlap their completion work with the switch's
/// later phases. Residuals arrive through the same sink.
///
/// One thread per worker is spawned **once for the whole call** (plus
/// the switch thread; the calling thread is the master). Each worker
/// streams its partition of every phase back-to-back, closing each with
/// a watermark; the switch opens phase `p+1` (re-arming the program via
/// [`SwitchPhases::begin_phase`]) once all of phase `p`'s watermarks have
/// arrived and its FIN residuals have flushed, parking any blocks that
/// raced ahead of the flip. Returns one [`ThreadedRun`] per phase, in
/// phase order — callers pick which phases' counters matter (a JOIN build
/// pass forwards nothing; its stats are discarded).
pub fn run_phases_each<'a, F>(
    phases: Vec<PhaseInput<'a>>,
    switch: &mut dyn SwitchPhases,
    mut sink: F,
) -> Vec<ThreadedRun>
where
    F: FnMut(usize, SurvivorBlock<'a>),
{
    let n_phases = phases.len();
    if n_phases == 0 {
        return Vec::new();
    }
    let n_workers = phases.iter().map(|p| p.partitions.len()).max().unwrap_or(0);
    let mut visibles = Vec::with_capacity(n_phases);
    // Distribute every phase's partitions to the pool up front: worker
    // `w` owns partition `w` of each phase (padded with empty partitions
    // so every worker watermarks every phase).
    let mut jobs: Vec<Vec<(usize, LanePartition<'a>)>> = (0..n_workers)
        .map(|_| Vec::with_capacity(n_phases))
        .collect();
    for (p, phase) in phases.into_iter().enumerate() {
        let width = phase
            .partitions
            .iter()
            .map(LanePartition::width)
            .max()
            .unwrap_or(0);
        visibles.push(phase.visible_cols.min(width));
        let mut parts = phase.partitions.into_iter();
        for worker_jobs in &mut jobs {
            worker_jobs.push((p, parts.next().unwrap_or_default()));
        }
    }

    // View descriptors and index lists carry no entry data, so deep
    // channels let workers run far ahead into later phases (the pipelined
    // handoff) at ~zero memory cost.
    const DEPTH: usize = 4096;
    let (entry_tx, entry_rx) = mpsc::sync_channel::<SwitchMsg<'a>>(DEPTH);
    let (fwd_tx, fwd_rx) = mpsc::sync_channel::<MasterMsg<'a>>(DEPTH);

    std::thread::scope(|scope| {
        // The pool: spawned once per query, never re-spawned per phase.
        WORKER_SPAWNS.with(|c| c.set(c.get() + n_workers as u64));
        for worker_jobs in jobs {
            let tx = entry_tx.clone();
            scope.spawn(move || worker_loop(worker_jobs, &tx));
        }
        drop(entry_tx);

        // Switch: single consumer — the one pipeline. The program is
        // borrowed into the thread for the whole query.
        let switch_thread =
            scope.spawn(move || switch_loop(n_workers, &visibles, &entry_rx, &fwd_tx, switch));

        // Master: the current thread sinks survivor blocks as they
        // arrive, overlapping its completion work with the switch's
        // later phases.
        let mut runs: Vec<ThreadedRun> = (0..n_phases).map(|_| ThreadedRun::default()).collect();
        for msg in fwd_rx {
            match msg {
                MasterMsg::Survivors(phase, survivors) => sink(phase, survivors),
                MasterMsg::PhaseDone(phase, stats, wall) => {
                    runs[phase].stats = stats;
                    runs[phase].wall = wall;
                }
            }
        }
        switch_thread.join().expect("switch thread panicked");
        runs
    })
}

/// One pool worker: serialize each phase's partition into block views,
/// then watermark the phase — no joining, no re-spawn between phases.
/// Borrowed and generated lanes ship as zero-copy descriptors;
/// fingerprint lanes are computed here (the worker-side hashing of §5)
/// and owned test lanes are copied per block.
fn worker_loop<'a>(jobs: Vec<(usize, LanePartition<'a>)>, tx: &mpsc::SyncSender<SwitchMsg<'a>>) {
    for (phase, part) in jobs {
        let mut start = 0;
        while start < part.rows {
            let len = (part.rows - start).min(WIRE_ENTRIES);
            let lanes = part
                .lanes
                .iter()
                .map(|lane| match lane {
                    Lane::Slice(s) => LaneView::Slice(&s[start..start + len]),
                    Lane::Const(v) => LaneView::Const(*v),
                    Lane::Iota(base) => LaneView::Iota(base + start as u64),
                    Lane::Owned(_) | Lane::Fingerprint { .. } => {
                        let mut col = Vec::with_capacity(len);
                        lane.fill(start, len, &mut col);
                        LaneView::Owned(col)
                    }
                })
                .collect();
            let block = BlockView { rows: len, lanes };
            if tx.send(SwitchMsg::Block(phase, block)).is_err() {
                return; // switch gone (panic teardown)
            }
            start += len;
        }
        if tx.send(SwitchMsg::Eof(phase)).is_err() {
            return;
        }
    }
}

/// The switch thread: decide blocks of the open phase, park blocks that
/// raced ahead, flip phases on full watermarks.
fn switch_loop<'a>(
    n_workers: usize,
    visibles: &[usize],
    rx: &mpsc::Receiver<SwitchMsg<'a>>,
    fwd: &mpsc::SyncSender<MasterMsg<'a>>,
    switch: &mut dyn SwitchPhases,
) {
    let n_phases = visibles.len();
    let mut scratch = Scratch::default();
    let mut eofs = vec![0usize; n_phases];
    let mut parked: Vec<Vec<BlockView<'a>>> = (0..n_phases).map(|_| Vec::new()).collect();
    let mut stats = PruneStats::default();
    let mut current = 0usize;
    let mut opened_at = Instant::now();
    switch.begin_phase(0);
    loop {
        // Flip every phase whose watermarks are all in (possibly several
        // at once when the pool ran far ahead).
        while eofs[current] == n_workers {
            if let Some(residual) = switch.residual(current, true) {
                stats.drained += residual.rows() as u64;
                ship_residual(fwd, current, residual);
            }
            let _ = fwd.send(MasterMsg::PhaseDone(
                current,
                std::mem::take(&mut stats),
                opened_at.elapsed(),
            ));
            current += 1;
            if current == n_phases {
                return;
            }
            opened_at = Instant::now();
            switch.begin_phase(current);
            for block in std::mem::take(&mut parked[current]) {
                decide_block(
                    switch,
                    current,
                    visibles,
                    block,
                    &mut scratch,
                    &mut stats,
                    fwd,
                );
            }
        }
        match rx.recv() {
            Ok(SwitchMsg::Block(phase, block)) => {
                if phase == current {
                    decide_block(
                        switch,
                        phase,
                        visibles,
                        block,
                        &mut scratch,
                        &mut stats,
                        fwd,
                    );
                } else {
                    parked[phase].push(block);
                }
            }
            Ok(SwitchMsg::Eof(phase)) => eofs[phase] += 1,
            // Workers gone with phases unfinished: only reachable during
            // a panic teardown — bail rather than hang.
            Err(_) => return,
        }
    }
}

/// Reusable switch-thread buffers: the decision scratch, the survivor
/// index scratch and the materialization lanes for generated
/// (`Const`/`Iota`) visible columns.
#[derive(Default)]
struct Scratch {
    decisions: Vec<Decision>,
    idx: Vec<u16>,
    lanes: Vec<Vec<u64>>,
}

/// Decide one block and forward its survivors as an **index list** over
/// the block's own lanes — no survivor value is copied at all — or, when
/// the program ships a residual instead, that residual.
fn decide_block<'a>(
    switch: &mut dyn SwitchPhases,
    phase: usize,
    visibles: &[usize],
    view: BlockView<'a>,
    scratch: &mut Scratch,
    stats: &mut PruneStats,
    fwd: &mpsc::SyncSender<MasterMsg<'a>>,
) {
    // A block is its rows: one that carries no lane (a predicate over no
    // column) is decided all the same.
    let n = view.rows;
    let visible = visibles[phase].min(view.lanes.len());
    // Materialize generated visible lanes into reused buffers (borrowed
    // and owned lanes are read straight through).
    if scratch.lanes.len() < visible {
        scratch.lanes.resize_with(visible, Vec::new);
    }
    for (c, lane) in view.lanes[..visible].iter().enumerate() {
        match lane {
            LaneView::Const(v) => {
                scratch.lanes[c].clear();
                scratch.lanes[c].resize(n, *v);
            }
            LaneView::Iota(base) => {
                scratch.lanes[c].clear();
                scratch.lanes[c].extend(*base..*base + n as u64);
            }
            LaneView::Slice(_) | LaneView::Owned(_) => {}
        }
    }
    let colrefs: Vec<&[u64]> = view.lanes[..visible]
        .iter()
        .enumerate()
        .map(|(c, lane)| match lane {
            LaneView::Slice(s) => *s,
            LaneView::Owned(v) => v.as_slice(),
            LaneView::Const(_) | LaneView::Iota(_) => scratch.lanes[c].as_slice(),
        })
        .collect();
    if scratch.decisions.len() < n {
        scratch.decisions.resize(n, Decision::Prune);
        scratch.idx.resize(n, 0);
    }
    let out = &mut scratch.decisions[..n];
    switch.process_cols(phase, &colrefs, visible, out);
    stats.record_block(out);
    match switch.residual(phase, false) {
        Some(residual) => {
            // What rides out beyond the block's forwards is a drain.
            let forwarded = out.iter().filter(|d| d.is_forward()).count();
            stats.drained += residual.rows().saturating_sub(forwarded) as u64;
            ship_residual(fwd, phase, residual)
        }
        None => {
            let kept = survivors(out, &mut scratch.idx);
            if !kept.is_empty() {
                let survivors = SurvivorBlock {
                    lanes: view.lanes,
                    idx: kept.to_vec(),
                };
                let _ = fwd.send(MasterMsg::Survivors(phase, survivors));
            }
        }
    }
}

/// Forward a program's residual as survivor blocks of at most
/// [`WIRE_ENTRIES`] entries (so block indices stay `u16`), every entry a
/// survivor.
fn ship_residual(fwd: &mpsc::SyncSender<MasterMsg<'_>>, phase: usize, mut residual: ColumnChunk) {
    while residual.rows() > 0 {
        let len = residual.rows().min(WIRE_ENTRIES);
        // Each lane's first `len` entries leave; the rest stay behind.
        let head = |lane: &mut Vec<u64>| {
            let rest = lane.split_off(len);
            LaneView::Owned(std::mem::replace(lane, rest))
        };
        let survivors = SurvivorBlock {
            lanes: residual.cols.iter_mut().map(head).collect(),
            idx: (0..len as u16).collect(),
        };
        let _ = fwd.send(MasterMsg::Survivors(phase, survivors));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cheetah_core::distinct::{DistinctPruner, EvictionPolicy};
    use cheetah_core::groupby::{Extremum, GroupByPruner};
    use std::collections::{HashMap, HashSet};

    /// One phase's run with its survivors collected into flat lanes, in
    /// master arrival order.
    pub(crate) struct Collected {
        pub(crate) forwarded: ColumnChunk,
        pub(crate) stats: PruneStats,
        pub(crate) wall: Duration,
    }

    /// [`run_phases_each`] with a sink that appends every survivor block
    /// to its phase's lanes.
    pub(crate) fn collect_phases(
        phases: Vec<PhaseInput<'_>>,
        switch: &mut dyn SwitchPhases,
    ) -> Vec<Collected> {
        let mut lanes: Vec<ColumnChunk> = phases
            .iter()
            .map(|p| {
                let width = p.partitions.iter().map(LanePartition::width).max();
                ColumnChunk {
                    cols: vec![Vec::new(); width.unwrap_or(0)],
                }
            })
            .collect();
        let runs = run_phases_each(phases, switch, |phase, block| {
            for (c, lane) in lanes[phase].cols.iter_mut().enumerate() {
                let survivors = block.indices().iter();
                lane.extend(survivors.map(|&i| block.value(c, usize::from(i))));
            }
        });
        runs.into_iter()
            .zip(lanes)
            .map(|(run, forwarded)| Collected {
                forwarded,
                stats: run.stats,
                wall: run.wall,
            })
            .collect()
    }

    /// `partitions` through `pruner` in one phase, every lane visible.
    fn stream_one_phase(
        partitions: Vec<LanePartition<'_>>,
        pruner: Box<dyn RowPruner + Send>,
    ) -> Collected {
        let visible_cols = partitions.iter().map(LanePartition::width).max();
        let phase = PhaseInput {
            partitions,
            visible_cols: visible_cols.unwrap_or(0),
        };
        collect_phases(vec![phase], &mut PrunerStage::new(pruner))
            .pop()
            .expect("one phase in, one run out")
    }

    fn partitions(workers: usize, rows: usize, keys: u64) -> Vec<LanePartition<'static>> {
        (0..workers)
            .map(|w| {
                let k: Vec<u64> = (0..rows)
                    .map(|i| (w * rows + i) as u64 % keys + 1)
                    .collect();
                let v: Vec<u64> = (0..rows).map(|i| (i as u64 * 13) % 1000).collect();
                ColumnChunk { cols: vec![k, v] }.into()
            })
            .collect()
    }

    #[test]
    fn distinct_result_correct_under_races() {
        for trial in 0..5 {
            let parts = partitions(4, 2_000, 97);
            let truth: HashSet<u64> = parts
                .iter()
                .flat_map(|p| match &p.lanes[0] {
                    Lane::Owned(v) => v.clone(),
                    _ => unreachable!(),
                })
                .collect();
            let pruner = Box::new(DistinctPruner::new(256, 2, EvictionPolicy::Lru, trial));
            let run = stream_one_phase(parts, pruner);
            let got: HashSet<u64> = run.forwarded.cols[0].iter().copied().collect();
            assert_eq!(got, truth, "trial {trial}: distinct set diverged");
            assert_eq!(run.stats.processed, 8_000);
            assert!(run.stats.pruned > 0, "should prune duplicates");
        }
    }

    #[test]
    fn groupby_max_correct_under_races() {
        let data: Vec<(Vec<u64>, Vec<u64>)> = (0..3usize)
            .map(|w| {
                let k: Vec<u64> = (0..3_000)
                    .map(|i| (w * 3_000 + i) as u64 % 50 + 1)
                    .collect();
                let v: Vec<u64> = (0..3_000).map(|i| (i as u64 * 13) % 1000).collect();
                (k, v)
            })
            .collect();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for (k, v) in &data {
            for (&k, &v) in k.iter().zip(v) {
                let e = truth.entry(k).or_insert(0);
                *e = (*e).max(v);
            }
        }
        // Borrowed lane slices: no copy of the columns.
        let parts: Vec<LanePartition<'_>> = data
            .iter()
            .map(|(k, v)| LanePartition {
                rows: k.len(),
                lanes: vec![Lane::Slice(k), Lane::Slice(v)],
            })
            .collect();
        let pruner = Box::new(GroupByPruner::new(64, 4, Extremum::Max, 9));
        let run = stream_one_phase(parts, pruner);
        let mut got: HashMap<u64, u64> = HashMap::new();
        for (&k, &v) in run.forwarded.cols[0].iter().zip(&run.forwarded.cols[1]) {
            let e = got.entry(k).or_insert(0);
            *e = (*e).max(v);
        }
        assert_eq!(got, truth);
    }

    #[test]
    fn empty_partitions_complete() {
        let pruner = Box::new(DistinctPruner::new(4, 1, EvictionPolicy::Fifo, 0));
        let run = stream_one_phase(
            vec![
                ColumnChunk {
                    cols: vec![Vec::new()],
                }
                .into(),
                ColumnChunk {
                    cols: vec![Vec::new()],
                }
                .into(),
            ],
            pruner,
        );
        assert_eq!(run.forwarded.rows(), 0);
        assert_eq!(run.stats.processed, 0);
    }

    #[test]
    fn synthesized_lanes_fill_correctly() {
        // Const + Iota + Fingerprint lanes, all generated by the worker.
        let keys: Vec<u64> = (0..2_500).map(|i| i % 7).collect();
        let fp = Fingerprinter::new(3, 64);
        let parts = vec![LanePartition {
            rows: keys.len(),
            lanes: vec![
                Lane::Slice(&keys),
                Lane::Const(42),
                Lane::Iota(100),
                Lane::Fingerprint {
                    cols: vec![&keys],
                    fp: &fp,
                },
            ],
        }];
        // Forward everything: a filter with an always-true atom.
        let pruner = Box::new(
            cheetah_core::filter::FilterPruner::new(
                vec![cheetah_core::filter::Atom::cmp(
                    0,
                    cheetah_core::filter::CmpOp::Ge,
                    0,
                )],
                cheetah_core::filter::Formula::Atom(0),
            )
            .unwrap(),
        );
        let run = stream_one_phase(parts, pruner);
        assert_eq!(run.forwarded.rows(), keys.len());
        assert!(run.forwarded.cols[1].iter().all(|&c| c == 42));
        let mut iota = run.forwarded.cols[2].clone();
        iota.sort_unstable();
        assert_eq!(iota, (100..100 + keys.len() as u64).collect::<Vec<_>>());
        for (k, f) in run.forwarded.cols[0].iter().zip(&run.forwarded.cols[3]) {
            assert_eq!(*f, fp.fp_words(&[*k]), "worker-computed fingerprint");
        }
    }

    /// A two-phase program: phase 0 records the maximum it saw (no
    /// forwards), phase 1 forwards entries equal to that maximum — a toy
    /// shape of every build-then-probe flow.
    struct MaxThenMatch {
        max: u64,
        phases_armed: Vec<usize>,
    }

    impl SwitchPhases for MaxThenMatch {
        fn begin_phase(&mut self, phase: usize) {
            self.phases_armed.push(phase);
        }

        fn process_cols(
            &mut self,
            phase: usize,
            cols: &[&[u64]],
            visible_cols: usize,
            out: &mut [Decision],
        ) {
            assert_eq!(visible_cols, 1);
            for (i, d) in out.iter_mut().enumerate() {
                let v = cols[0][i];
                *d = if phase == 0 {
                    self.max = self.max.max(v);
                    Decision::Prune
                } else if v == self.max {
                    Decision::Forward
                } else {
                    Decision::Prune
                };
            }
        }
    }

    #[test]
    fn two_phase_state_survives_the_phase_flip() {
        let mk = || -> Vec<LanePartition<'static>> {
            vec![
                ColumnChunk {
                    cols: vec![vec![3, 9, 1]],
                }
                .into(),
                ColumnChunk {
                    cols: vec![vec![7, 9, 2]],
                }
                .into(),
            ]
        };
        let mut program = MaxThenMatch {
            max: 0,
            phases_armed: Vec::new(),
        };
        let runs = collect_phases(
            vec![
                PhaseInput {
                    partitions: mk(),
                    visible_cols: 1,
                },
                PhaseInput {
                    partitions: mk(),
                    visible_cols: 1,
                },
            ],
            &mut program,
        );
        assert_eq!(program.phases_armed, vec![0, 1]);
        assert_eq!(runs[0].forwarded.rows(), 0, "build pass forwards nothing");
        assert_eq!(runs[0].stats.processed, 6);
        assert_eq!(
            runs[1].forwarded.cols[0],
            vec![9, 9],
            "both maxima probe out"
        );
        assert_eq!(runs[1].stats.forwarded(), 2);
    }

    /// FIN residuals ship after the stream drains, counted as drained.
    struct HoldAll {
        seen: Vec<u64>,
    }

    impl SwitchPhases for HoldAll {
        fn process_cols(
            &mut self,
            _phase: usize,
            cols: &[&[u64]],
            _visible_cols: usize,
            out: &mut [Decision],
        ) {
            self.seen.extend_from_slice(cols[0]);
            out.fill(Decision::Prune);
        }

        fn residual(&mut self, _phase: usize, fin: bool) -> Option<ColumnChunk> {
            fin.then(|| {
                let mut lane = std::mem::take(&mut self.seen);
                lane.sort_unstable();
                ColumnChunk { cols: vec![lane] }
            })
        }
    }

    #[test]
    fn fin_residuals_are_counted_as_forwarded() {
        let parts = vec![ColumnChunk {
            cols: vec![vec![5, 1, 4]],
        }
        .into()];
        let mut program = HoldAll { seen: Vec::new() };
        let run = collect_phases(
            vec![PhaseInput {
                partitions: parts,
                visible_cols: 1,
            }],
            &mut program,
        )
        .pop()
        .unwrap();
        assert_eq!(run.forwarded.cols[0], vec![1, 4, 5]);
        assert_eq!((run.stats.processed, run.stats.pruned), (3, 3));
        assert_eq!(
            run.stats.drained, 3,
            "every drained entry reaches the master"
        );
        assert_eq!(run.stats.forwarded(), 3);
    }

    /// Lanes past `visible_cols` must ride through untouched and
    /// compacted in sync with the visible ones.
    #[test]
    fn hidden_lanes_ride_through_compaction() {
        let parts = vec![ColumnChunk {
            cols: vec![vec![10, 20, 10, 30], vec![100, 101, 102, 103]],
        }
        .into()];
        let pruner = Box::new(DistinctPruner::new(16, 2, EvictionPolicy::Lru, 0));
        let run = collect_phases(
            vec![PhaseInput {
                partitions: parts,
                visible_cols: 1,
            }],
            &mut PrunerStage::new(pruner),
        )
        .pop()
        .unwrap();
        // The duplicate 10 is pruned; its hidden 102 is dropped with it.
        assert_eq!(run.forwarded.cols[0], vec![10, 20, 30]);
        assert_eq!(run.forwarded.cols[1], vec![100, 101, 103]);
    }

    /// The pool contract: one spawn per worker per query, however many
    /// phases stream, and per-phase walls are measured.
    #[test]
    fn pool_spawns_each_worker_once_across_phases() {
        let mk = || partitions(3, 500, 13);
        let before = worker_threads_spawned();
        let mut program = MaxThenMatch {
            max: 0,
            phases_armed: Vec::new(),
        };
        let runs = collect_phases(
            vec![
                PhaseInput {
                    partitions: mk(),
                    visible_cols: 1,
                },
                PhaseInput {
                    partitions: mk(),
                    visible_cols: 1,
                },
                PhaseInput {
                    partitions: mk(),
                    visible_cols: 1,
                },
            ],
            &mut program,
        );
        assert_eq!(
            worker_threads_spawned() - before,
            3,
            "three phases must reuse the same three pool workers"
        );
        assert_eq!(runs.len(), 3);
        for run in &runs {
            assert!(run.wall > Duration::ZERO, "per-phase wall is measured");
        }
    }

    /// Phases with differing worker counts: the pool is sized by the
    /// widest phase and idle workers still watermark.
    #[test]
    fn uneven_phase_worker_counts_complete() {
        let mut program = MaxThenMatch {
            max: 0,
            phases_armed: Vec::new(),
        };
        let runs = collect_phases(
            vec![
                PhaseInput {
                    partitions: partitions(1, 300, 11),
                    visible_cols: 1,
                },
                PhaseInput {
                    partitions: partitions(4, 300, 11),
                    visible_cols: 1,
                },
            ],
            &mut program,
        );
        assert_eq!(runs[0].stats.processed, 300);
        assert_eq!(runs[1].stats.processed, 1_200);
    }
}
