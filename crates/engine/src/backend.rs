//! Switch backend selection: run the query's pruning on the unconstrained
//! `cheetah-core` references or on the metered `cheetah-pisa` pipeline
//! programs. Both see the same raw entries and decide each alike
//! (`tests::both_backends_decide_every_entry_alike`), but for a hashed
//! DISTINCT's or GROUP BY's `u64::MAX` key, which the PISA programs forward
//! without touching state: their cells hold `k + 1`, and 0 is the empty
//! cell. The pisa backend additionally proves the query fits the hardware
//! constraints end to end, but for §6's SUM/COUNT registers, which have no
//! PISA program, and the pool arms' two-pass HAVING, whose shard sketches
//! merge as core counters: both run the core pruners on either backend.

use cheetah_core::decision::{Decision, RowPruner};
use cheetah_core::dense::{DenseDistinct, DenseGroupBy, DenseRegisters, DenseSet, OffsetCode};
use cheetah_core::distinct::{DistinctPruner, EvictionPolicy};
use cheetah_core::filter::FilterPruner;
use cheetah_core::groupby::{Extremum, GroupByPruner, GroupBySumPruner};
use cheetah_core::having::{CountMinSketch, HavingPruner};
use cheetah_core::join::{JoinPruner, RegisterBloomFilter};
use cheetah_core::resources::{table2, ResourceUsage};
use cheetah_core::skyline::{Heuristic, SkylinePruner};
use cheetah_core::topn::{DeterministicTopN, RandomizedTopN};
use cheetah_core::{params, SwitchModel};
use cheetah_pisa::programs::{
    DenseJoinProgram, DenseOp, DenseProgram, DetTopNProgram, DistinctFifoProgram,
    DistinctLruProgram, FilterProgram, GroupByProgram, HavingPhase, HavingProgram, JoinMode,
    JoinProgram, RandTopNProgram, RbfJoinProgram, SkylineProgram, SkylineScoring, SwitchProgram,
};
use cheetah_pisa::ProgramPruner;

use crate::cheetah::PrunerConfig;
use crate::query::Predicate;
use crate::table::Table;

/// Which implementation family the switch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchBackend {
    /// Plain-Rust reference pruners (fast, used by the experiments).
    #[default]
    Reference,
    /// Metered PISA pipeline programs (every primitive budget-checked).
    Pisa,
}

/// Envelope for the pisa backend's single-pipeline programs.
pub fn spec() -> SwitchModel {
    SwitchModel::tofino_like()
}

/// SKYLINE needs more stages than one 12-stage pass (21 at the default
/// w=10); real Tofinos chain pipes / recirculate, modeled here as a
/// deeper envelope.
pub fn skyline_spec() -> SwitchModel {
    SwitchModel {
        stages: 40,
        ..SwitchModel::tofino2_like()
    }
}

/// A `d × w` register matrix: GROUP BY's and §6's, or a Count-Min sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Matrix {
    pub(crate) d: usize,
    pub(crate) w: usize,
}

impl Matrix {
    /// What a GROUP BY matrix occupies: Table 2's `w` stages and ALUs, and
    /// the `2·d·w·64 + d·64` SRAM bits of its keys, values and cursors.
    pub(crate) fn group_by(self) -> ResourceUsage {
        let values = table2::group_by(self.w as u32, self.d as u64);
        ResourceUsage {
            sram_bits: 2 * values.sram_bits + self.d as u64 * 64,
            ..values
        }
    }
}

/// Where a program finds a key's registers: Table 2's hashed geometry
/// `H`, or, where the key's domain fits one stage ([`dense`]), the
/// array its [`OffsetCode`] indexes. The registers themselves take the
/// same two forms ([`SumRegisters`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Keys<H, D = OffsetCode> {
    Hashed(H),
    Dense(D),
}

impl<H> Keys<H> {
    /// Whether the key's offset indexes the registers.
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self, Keys::Dense(_))
    }
}

impl Keys<Matrix> {
    /// Empty §6 registers at this geometry.
    pub(crate) fn sum_registers(&self, seed: u64) -> SumRegisters {
        match self {
            Keys::Hashed(m) => Keys::Hashed(GroupBySumPruner::new(m.d, m.w, seed)),
            Keys::Dense(code) => Keys::Dense(DenseRegisters::new(code.clone())),
        }
    }
}

/// §6's SUM/COUNT registers: a `d × w` accumulator matrix, whose
/// evictions ride out on packets, or a register per key offset, which
/// never evicts. Either drains its residuals at FIN.
pub(crate) type SumRegisters = Keys<GroupBySumPruner, DenseRegisters>;

impl SumRegisters {
    /// Fold a block of `(key, value)` entries: `out[i]` forwards iff entry
    /// `i` evicted an accumulator, which rides out via `on_evict(key,
    /// partial)`.
    pub(crate) fn process_block(
        &mut self,
        keys: &[u64],
        vals: &[u64],
        out: &mut [Decision],
        on_evict: impl FnMut(u64, u64),
    ) {
        match self {
            Keys::Hashed(p) => p.process_block(keys, vals, out, on_evict),
            Keys::Dense(p) => p.process_block(keys, vals, out),
        }
    }

    /// Every residual `(key, partial)`, leaving the registers empty.
    pub(crate) fn drain(&mut self) -> Vec<(u64, u64)> {
        match self {
            Keys::Hashed(p) => p.drain(),
            Keys::Dense(p) => p.drain(),
        }
    }
}

/// The one dense-domain decision: the offset code over key lanes spanning
/// `domains`, where the program indexing it fits one stage — a bitmap, or
/// with `registers` a 64-bit register beside each valid bit — and the
/// packet carries its lanes (and a register's value) in the header. `None`
/// where the hashed program runs: a lane is empty, or the range is past
/// what one stage's SRAM holds (`sram_per_stage_bits` keys of a bitmap,
/// about a 65th of that of registers).
pub(crate) fn dense(
    domains: impl IntoIterator<Item = Option<(u64, u64)>>,
    registers: bool,
) -> Option<OffsetCode> {
    let domains: Vec<(u64, u64)> = domains.into_iter().collect::<Option<_>>()?;
    let code = OffsetCode::new(&domains)?;
    let charge = if registers {
        code.registers()
    } else {
        code.bitmap()
    };
    let words = (code.lanes() + usize::from(registers)) as u32;
    let stage = SwitchModel {
        stages: 1,
        ..spec()
    };
    (charge.fits(&stage) && 64 * words <= stage.phv_bits).then_some(code)
}

/// A single-pass program at the geometry [`crate::bind`] sizes it to.
#[derive(Debug, Clone)]
pub(crate) enum SinglePass {
    /// The predicate's switch-evaluable relaxation, compiled once
    /// ([`relax`]).
    Filter(Box<FilterPruner>),
    /// A `d × cfg.distinct_w` matrix ([`distinct_rows`]), or a bitmap.
    Distinct(Keys<usize>),
    /// A TOP `n` at [`topn_geometry`]'s stage.
    TopN { n: usize, at: TopNGeometry },
    /// GROUP BY MAX/MIN's matrix, or registers.
    GroupBy(Keys<Matrix>, Extremum),
    /// SKYLINE (APH): `w` stored points of `dims` dimensions.
    Skyline { w: usize, dims: usize },
}

impl SinglePass {
    /// The program's pruner under `cfg.backend`.
    pub(crate) fn pruner(&self, cfg: &PrunerConfig) -> Box<dyn RowPruner + Send> {
        use SwitchBackend::{Pisa, Reference};
        use TopNGeometry::{Deterministic, Randomized};
        let seed = cfg.seed;
        match (cfg.backend, self.clone()) {
            (Reference, SinglePass::Filter(f)) => f,
            (Pisa, SinglePass::Filter(f)) => Box::new(ProgramPruner::new(
                FilterProgram::new(spec(), f.atoms().to_vec(), f.formula())
                    .unwrap_or_else(|e| panic!("filter program: {e:?}")),
            )),
            (Reference, SinglePass::Distinct(Keys::Hashed(d))) => Box::new(DistinctPruner::new(
                d,
                cfg.distinct_w,
                cfg.distinct_policy,
                seed,
            )),
            (Pisa, SinglePass::Distinct(Keys::Hashed(d))) => {
                let w = cfg.distinct_w;
                match cfg.distinct_policy {
                    EvictionPolicy::Lru => Box::new(ProgramPruner::new(
                        DistinctLruProgram::new(spec(), d, w, seed).expect("distinct program fits"),
                    )),
                    EvictionPolicy::Fifo => Box::new(ProgramPruner::new(
                        DistinctFifoProgram::new(spec(), d, w, seed)
                            .expect("distinct program fits"),
                    )),
                }
            }
            (backend, SinglePass::Distinct(Keys::Dense(code))) => {
                dense_pruner(backend, code, DenseOp::Distinct)
            }
            (Reference, SinglePass::TopN { n, at }) => match at {
                Randomized { d, w } => Box::new(RandomizedTopN::new(d, w, seed)),
                Deterministic { w } => Box::new(DeterministicTopN::new(n.max(1) as u64, w)),
            },
            (Pisa, SinglePass::TopN { n, at }) => match at {
                Randomized { d, w } => Box::new(ProgramPruner::new(
                    RandTopNProgram::new(spec(), d, w, seed).expect("topn program fits"),
                )),
                Deterministic { w } => Box::new(ProgramPruner::new(
                    DetTopNProgram::new(spec(), n.max(1) as u64, w).expect("topn program fits"),
                )),
            },
            (Reference, SinglePass::GroupBy(Keys::Hashed(m), ext)) => {
                Box::new(GroupByPruner::new(m.d, m.w, ext, seed))
            }
            (Pisa, SinglePass::GroupBy(Keys::Hashed(m), ext)) => Box::new(ProgramPruner::new(
                GroupByProgram::new(groupby_spec(m.w), m.d, m.w, ext, seed)
                    .expect("groupby program fits"),
            )),
            (backend, SinglePass::GroupBy(Keys::Dense(code), ext)) => {
                dense_pruner(backend, code, DenseOp::Extremum(ext))
            }
            (Reference, SinglePass::Skyline { w, dims }) => {
                Box::new(SkylinePruner::new(dims, w, Heuristic::aph_default()))
            }
            (Pisa, SinglePass::Skyline { w, dims }) => Box::new(ProgramPruner::new(
                SkylineProgram::new(
                    skyline_spec(),
                    dims,
                    w,
                    SkylineScoring::Aph { frac_bits: 8 },
                )
                .expect("skyline program fits the deep envelope"),
            )),
        }
    }
}

/// A dense DISTINCT's or GROUP BY MAX/MIN's pruner under `backend`.
fn dense_pruner(
    backend: SwitchBackend,
    code: OffsetCode,
    op: DenseOp,
) -> Box<dyn RowPruner + Send> {
    match (backend, op) {
        (SwitchBackend::Reference, DenseOp::Distinct) => Box::new(DenseDistinct::new(code)),
        (SwitchBackend::Reference, DenseOp::Extremum(ext)) => {
            Box::new(DenseGroupBy::new(code, ext))
        }
        (SwitchBackend::Pisa, op) => Box::new(ProgramPruner::new(
            DenseProgram::new(spec(), code, op).expect("bind sized it to a stage"),
        )),
    }
}

/// The envelope a `w`-column GROUP BY twin runs on: its row scan touches
/// 2w+1 cells in one stage — legal only under Table 2's `*` shared-memory
/// assumption, which we model as a stage with matching ALU fan-out.
pub fn groupby_spec(w: usize) -> SwitchModel {
    SwitchModel {
        alus_per_stage: (2 * w as u32 + 1).max(spec().alus_per_stage),
        ..spec()
    }
}

/// DISTINCT pruner at `cfg`'s own `distinct_d × distinct_w` (Table 2's
/// matrix unless configured).
pub fn distinct(cfg: &PrunerConfig) -> Box<dyn RowPruner + Send> {
    SinglePass::Distinct(Keys::Hashed(cfg.distinct_d)).pruner(cfg)
}

/// The one DISTINCT sizing decision: the matrix rows a DISTINCT or
/// DistinctMulti over table `t`'s key lanes `cols` runs with, and what the
/// planner and serving's packing charge. Theorem 1 ties pruning to matrix
/// cells per distinct key, and D̂, the product of the lanes' distinct
/// counts, bounds the keys. Past rows / 2 nearly every entry is a new key
/// and nothing is prunable, so `cfg.distinct_d` stays; otherwise
/// the rows are ⌈D̂ / w⌉ rounded up to a power of two, never fewer than
/// `cfg.distinct_d` and never more than one stage's SRAM holds. The
/// columns, and so every stage charge, stay `cfg.distinct_w`.
pub(crate) fn distinct_rows(cfg: &PrunerConfig, t: &Table, cols: &[usize]) -> usize {
    let mut keys: usize = 1;
    for &c in cols {
        // The product only grows: stop counting lanes once it is past.
        keys = keys.saturating_mul(t.distinct_count(c));
        if keys > t.rows() / 2 {
            return cfg.distinct_d;
        }
    }
    // A stage holds one LRU column, or as many FIFO columns as it has ALUs.
    let per_stage = match cfg.distinct_policy {
        EvictionPolicy::Lru => 1,
        EvictionPolicy::Fifo => cfg.distinct_w.min(spec().alus_per_stage as usize),
    };
    let stage_rows = (spec().sram_per_stage_bits / 64) as usize / per_stage;
    let rows = keys.div_ceil(cfg.distinct_w).next_power_of_two();
    rows.min(stage_rows).max(cfg.distinct_d)
}

/// The one HAVING program decision: whether `HAVING SUM(v) > c` over table
/// `t`'s key lane `key` runs as GROUP BY SUM's §6 register aggregation,
/// thresholded at the master, instead of §5's two Count-Min passes. Both
/// are exact at any size; what differs is what reaches the master. Pass 2
/// forwards every entry of every qualifying key, while the registers
/// forward their evictions and drain, which stay near zero while D̂(key)
/// fits half the `groupby_d × groupby_w` matrix.
pub(crate) fn having_by_registers(cfg: &PrunerConfig, t: &Table, key: usize) -> bool {
    t.distinct_count(key) <= cfg.groupby_d * cfg.groupby_w / 2
}

/// The failure probability a randomized TOP N is sized for (Theorem 2's
/// δ).
const TOPN_DELTA: f64 = 1e-4;

/// The switch stage a TOP N query runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TopNGeometry {
    /// Theorem 2's `d × w` matrix: exact with probability at least 1 − δ.
    Randomized { d: usize, w: usize },
    /// `w` speculative thresholds: exact always.
    Deterministic { w: usize },
}

impl TopNGeometry {
    /// What the program occupies: Table 2's row, plus, for the randomized
    /// matrix, the sequence counter that has stage 0 to itself, and for
    /// the ladder, the seen-count register beside its running minimum.
    pub(crate) fn resources(self) -> ResourceUsage {
        match self {
            TopNGeometry::Randomized { d, w } => {
                let counter = ResourceUsage {
                    stages: 1,
                    alus: 1,
                    sram_bits: 64,
                    tcam_entries: 0,
                };
                table2::topn_rand(w as u32, d as u64).plus(counter)
            }
            TopNGeometry::Deterministic { w } => ResourceUsage {
                sram_bits: (w as u64 + 2) * 64,
                ..table2::topn_det(w as u32)
            },
        }
    }
}

/// The one TOP N sizing decision: what [`topn`] builds, and what the
/// planner and serving's packing charge. Of the randomized matrices that
/// Theorem 2 makes exact with probability 1 − δ at δ = 10⁻⁴ for `n`, it
/// takes the one with the smallest d·w — and so, by Theorem 3, the fewest
/// expected forwards — whose w + 1 stages fit the pipeline, with at most
/// `cfg.topn_d` rows and at least `cfg.topn_w` columns. Where no matrix
/// fits, the deterministic ladder runs instead. A TOP 0 is sized as a
/// TOP 1: its answer is empty whatever is forwarded.
pub(crate) fn topn_geometry(cfg: &PrunerConfig, n: usize) -> TopNGeometry {
    let ladder = TopNGeometry::Deterministic { w: cfg.topn_w };
    if !cfg.topn_randomized {
        return ladder;
    }
    let n = n.max(1);
    let feasible = |d: usize, w: usize| {
        params::topn_columns(d, n, TOPN_DELTA).is_some_and(|columns| columns <= w)
    };
    // The program takes w + 1 stages: its sequence counter sits in stage 0.
    (cfg.topn_w..spec().stages as usize)
        .filter(|&w| feasible(cfg.topn_d, w))
        .map(|w| {
            // Theorem 2's columns fall as rows grow, so the fewest rows
            // that w columns serve is a binary search.
            let (mut lo, mut hi) = (1, cfg.topn_d);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if feasible(mid, w) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            (hi, w)
        })
        .min_by_key(|&(d, w)| d * w)
        .map_or(ladder, |(d, w)| TopNGeometry::Randomized { d, w })
}

/// TOP N pruner, sized by `topn_geometry`.
pub fn topn(cfg: &PrunerConfig, n: usize) -> Box<dyn RowPruner + Send> {
    let at = topn_geometry(cfg, n);
    SinglePass::TopN { n, at }.pruner(cfg)
}

/// GROUP BY MAX/MIN pruner at `cfg`'s `groupby_d × groupby_w`.
pub fn groupby(cfg: &PrunerConfig, ext: Extremum) -> Box<dyn RowPruner + Send> {
    let (d, w) = (cfg.groupby_d, cfg.groupby_w);
    SinglePass::GroupBy(Keys::Hashed(Matrix { d, w }), ext).pruner(cfg)
}

/// §4.1's relaxation of `p`, at most one stage's ALUs wide: past the
/// first `alus_per_stage` atoms the relaxation reads, in id order, each
/// supported atom is relaxed to `True` as an unsupported one is, so both
/// backends compile the same table. The master re-checks the full
/// predicate.
pub(crate) fn relax(p: &Predicate) -> FilterPruner {
    let mut atoms = p.atoms.clone();
    let reads = p.formula.decompose(&atoms).atom_ids();
    for id in reads.into_iter().skip(spec().alus_per_stage as usize) {
        atoms[id].supported = false;
    }
    FilterPruner::new(atoms, p.formula.clone()).expect("a stage's ALUs fit the truth table")
}

/// Filtering pruner over the predicate's switch-evaluable relaxation.
pub fn filter(cfg: &PrunerConfig, predicate: &Predicate) -> Box<dyn RowPruner + Send> {
    SinglePass::Filter(Box::new(relax(predicate))).pruner(cfg)
}

/// SKYLINE pruner storing `cfg.skyline_w` points.
pub fn skyline(cfg: &PrunerConfig, dims: usize) -> Box<dyn RowPruner + Send> {
    SinglePass::Skyline {
        w: cfg.skyline_w,
        dims,
    }
    .pruner(cfg)
}

/// Two-pass HAVING flow under either backend.
pub enum HavingFlow {
    /// Core reference sketch.
    Core(HavingPruner),
    /// Metered pipeline program.
    Pisa(HavingProgram),
}

impl HavingFlow {
    /// Build for `HAVING SUM > threshold` at `cfg`'s sketch.
    pub fn new(cfg: &PrunerConfig, threshold: u64) -> Self {
        let (d, w) = (cfg.having_d, cfg.having_w);
        Self::sized(cfg, Matrix { d, w }, threshold)
    }

    /// Build for `HAVING SUM > threshold` over the Count-Min `sketch`.
    pub(crate) fn sized(cfg: &PrunerConfig, sketch: Matrix, threshold: u64) -> Self {
        let Matrix { d, w } = sketch;
        match cfg.backend {
            SwitchBackend::Reference => {
                HavingFlow::Core(HavingPruner::new(d, w, threshold, cfg.seed))
            }
            SwitchBackend::Pisa => HavingFlow::Pisa(
                HavingProgram::new(spec(), d, w, threshold, cfg.seed).expect("having program fits"),
            ),
        }
    }

    /// Switch to pass 2 (control-plane phase flip for the program).
    pub fn begin_pass_two(&mut self) {
        if let HavingFlow::Pisa(p) = self {
            p.set_phase(HavingPhase::PassTwo);
        }
    }

    /// Pass 1 over a block: fold each entry into the sketch; a forward is
    /// a candidate announcement. The backend dispatch happens once per
    /// block instead of once per entry.
    pub fn pass_one_block(&mut self, keys: &[u64], vals: &[u64], out: &mut [Decision]) {
        match self {
            HavingFlow::Core(p) => p.pass_one_block(keys, vals, out),
            HavingFlow::Pisa(p) => {
                for ((d, &k), &v) in out.iter_mut().zip(keys).zip(vals) {
                    *d = p.process(&[k, v]).expect("no violations");
                }
            }
        }
    }

    /// Pass 2 over a block: forward candidate-key entries.
    pub fn pass_two_block(&mut self, keys: &[u64], vals: &[u64], out: &mut [Decision]) {
        match self {
            HavingFlow::Core(p) => p.pass_two_block(keys, out),
            HavingFlow::Pisa(p) => {
                for ((d, &k), &v) in out.iter_mut().zip(keys).zip(vals) {
                    *d = p.process(&[k, v]).expect("no violations");
                }
            }
        }
    }

    /// Borrow the pass-1 Count-Min sketch for export into a cross-query
    /// cache. `None` on the pisa backend, whose register state lives
    /// inside the metered program — those runs bypass the cache.
    pub fn sketch(&self) -> Option<&CountMinSketch> {
        match self {
            HavingFlow::Core(p) => Some(p.sketch()),
            HavingFlow::Pisa(_) => None,
        }
    }

    /// Rebuild a core flow from a cached pass-1 sketch, already armed for
    /// pass 2: a serving layer that cached this predicate's sketch can
    /// skip the observation pass entirely.
    pub fn from_sketch(sketch: CountMinSketch, threshold: u64) -> Self {
        HavingFlow::Core(HavingPruner::from_sketch(sketch, threshold))
    }
}

/// Filter bits the control plane provisions per row it expects to insert
/// on a join side. A register filter setting 3 bits of one 64-bit register
/// passes a never-inserted key 0.18% of the time at 32 bits a row (0.80%
/// at 16, 0.05% at 64; measured over 400k keys): at 32 the false positives
/// add under 0.1% to what the master receives on every benchmark workload
/// and both filters of a 400k ⋈ 80k join (1.9 MB) stay cache-resident.
const JOIN_BITS_PER_ROW: u64 = 32;

/// Two-pass JOIN flow under either backend: one register Bloom filter per
/// side (Table 2's JOIN/RBF row — one stage, one stateful ALU, one memory
/// access per key), each sized from the rows its side will insert — or,
/// where both sides' keys span a range a stage holds, one exact bitmap
/// per side.
pub enum JoinFlow {
    /// Core register Bloom filters.
    Core(JoinPruner<RegisterBloomFilter>),
    /// Core bitmaps, one a side over the sides' union range.
    Dense(JoinPruner<DenseSet>),
    /// Metered pipeline program: the register Bloom filters
    /// ([`RbfJoinProgram`]) or the bitmaps ([`DenseJoinProgram`]).
    Pisa(Box<dyn JoinProgram + Send>),
}

/// A JOIN's register Bloom filter pair: each side's filter bits, and the
/// bits a key sets in its register (Table 2's `H`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JoinFilters {
    pub(crate) bits: [u64; 2],
    pub(crate) h: u32,
}

impl JoinFilters {
    /// Filters sized for a `left_rows` ⋈ `right_rows` join (see
    /// [`JoinFlow::side_bits`]). Any size is exact — a Bloom filter has no
    /// false negatives — so sizing only trades filter memory for
    /// false-positive forwards.
    pub(crate) fn sized(cfg: &PrunerConfig, left_rows: usize, right_rows: usize) -> Self {
        JoinFilters {
            bits: [left_rows, right_rows].map(|rows| JoinFlow::side_bits(cfg, rows)),
            h: cfg.join_h as u32,
        }
    }
}

impl JoinFlow {
    /// A flow with both filters at the per-side cap `cfg.join_m_bits` —
    /// what a caller that knows neither cardinality gets.
    pub fn new(cfg: &PrunerConfig) -> Self {
        Self::sized(
            cfg,
            &Keys::Hashed(JoinFilters::sized(cfg, usize::MAX, usize::MAX)),
        )
    }

    /// A flow over the filter pair `filters`.
    pub(crate) fn sized(cfg: &PrunerConfig, filters: &Keys<JoinFilters>) -> Self {
        let seed = cfg.seed;
        match (cfg.backend, filters) {
            (SwitchBackend::Reference, &Keys::Hashed(JoinFilters { bits: [a, b], h })) => {
                JoinFlow::Core(JoinPruner::new(
                    RegisterBloomFilter::new(a, h, seed),
                    RegisterBloomFilter::new(b, h, seed ^ 1),
                ))
            }
            (SwitchBackend::Reference, Keys::Dense(code)) => {
                let side = || DenseSet::new(code.clone());
                JoinFlow::Dense(JoinPruner::new(side(), side()))
            }
            (SwitchBackend::Pisa, &Keys::Hashed(JoinFilters { bits: [a, b], h })) => {
                JoinFlow::Pisa(Box::new(
                    RbfJoinProgram::new(spec(), a, b, h, seed, seed ^ 1)
                        .expect("join program fits"),
                ))
            }
            (SwitchBackend::Pisa, Keys::Dense(code)) => JoinFlow::Pisa(Box::new(
                DenseJoinProgram::new(spec(), code.clone())
                    .expect("bind sized it to a stage a side"),
            )),
        }
    }

    /// Filter bits for a side inserting `rows` keys: 32 a row (a constant,
    /// not a knob), in whole 64-bit registers, at least one register and
    /// at most the per-side budget `cfg.join_m_bits` (Table 2's `M`).
    pub fn side_bits(cfg: &PrunerConfig, rows: usize) -> u64 {
        let cap = (cfg.join_m_bits / 64).max(1);
        let registers = (rows as u64).saturating_mul(JOIN_BITS_PER_ROW).div_ceil(64);
        64 * registers.clamp(1, cap)
    }

    /// Pass-1 block loop over `(flow id, key)` lanes (`sides[i]`: 0 = A,
    /// 1 = B): the backend dispatch happens once per block, and the core
    /// path inserts by runs of equal flow id.
    pub fn observe_block(&mut self, sides: &[u64], keys: &[u64]) {
        match self {
            JoinFlow::Core(p) => p.observe_block(sides, keys),
            JoinFlow::Dense(p) => p.observe_block(sides, keys),
            JoinFlow::Pisa(p) => {
                for (&s, &k) in sides.iter().zip(keys) {
                    p.set_mode(if s == 0 {
                        JoinMode::BuildA
                    } else {
                        JoinMode::BuildB
                    });
                    p.process(&[k]).expect("no violations");
                }
            }
        }
    }

    /// A copy of this flow's filters, armed for the probe pass: how a
    /// serving layer that cached this join's filters skips the observation
    /// pass. `None` on the pisa backend, whose filter state lives inside
    /// the metered program — those runs bypass the cache.
    pub fn rearmed(&self) -> Option<Self> {
        match self {
            JoinFlow::Core(p) => Some(JoinFlow::Core(p.clone())),
            JoinFlow::Dense(p) => Some(JoinFlow::Dense(p.clone())),
            JoinFlow::Pisa(_) => None,
        }
    }

    /// Pass-2 block loop: `out[i]` decides entry `i` against the opposite
    /// side's filter.
    pub fn probe_block(&mut self, sides: &[u64], keys: &[u64], out: &mut [Decision]) {
        match self {
            JoinFlow::Core(p) => p.probe_block(sides, keys, out),
            JoinFlow::Dense(p) => p.probe_block(sides, keys, out),
            JoinFlow::Pisa(p) => {
                for ((d, &s), &k) in out.iter_mut().zip(sides).zip(keys) {
                    p.set_mode(if s == 0 {
                        JoinMode::ProbeA
                    } else {
                        JoinMode::ProbeB
                    });
                    *d = p.process(&[k]).expect("no violations");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{Bound, Program};
    use crate::cheetah::tuple_fingerprinter;
    use crate::fixture::{self, shape_db, KeyForm};
    use crate::multipass::{SIDE_LEFT, SIDE_RIGHT};
    use crate::stream::{fingerprint_rows, BLOCK_ENTRIES};

    #[test]
    fn factories_build_under_both_backends() {
        for backend in [SwitchBackend::Reference, SwitchBackend::Pisa] {
            let cfg = PrunerConfig {
                backend,
                ..PrunerConfig::default()
            };
            let mut d = distinct(&cfg);
            assert!(d.process_row(&[5]).is_forward());
            assert!(d.process_row(&[5]).is_prune());
            let mut t = topn(&cfg, 10);
            assert!(t.process_row(&[100]).is_forward());
            let mut g = groupby(&cfg, Extremum::Max);
            assert!(g.process_row(&[1, 10]).is_forward());
            assert!(g.process_row(&[1, 5]).is_prune());
            let mut s = skyline(&cfg, 2);
            assert!(s.process_row(&[10, 10]).is_forward());
            assert!(s.process_row(&[1, 1]).is_prune());
        }
    }

    #[test]
    fn distinct_rows_follow_the_key_domain() {
        let rows = 40_000;
        let lane = |m: usize| (0..rows).map(|i| (i % m) as u64).collect();
        let t = Table::new(
            "t",
            vec![
                ("tiny", lane(40)),
                ("pair", lane(7)),
                ("half", lane(rows / 2)),
                ("past", lane(rows / 2 + 1)),
                ("unique", lane(rows)),
            ],
        );
        let cfg = PrunerConfig::default();
        let floor = PrunerConfig {
            distinct_d: 1,
            ..PrunerConfig::default()
        };
        // ⌈D̂ / w⌉ up to a power of two, D̂ the product of the key's counts.
        assert_eq!(distinct_rows(&floor, &t, &[0]), 32);
        assert_eq!(distinct_rows(&floor, &t, &[0, 1]), 256);
        assert_eq!(
            distinct_rows(&cfg, &t, &[2]),
            16_384,
            "D̂ = rows / 2 is sized"
        );
        // Table 2's rows are a floor.
        assert_eq!(distinct_rows(&cfg, &t, &[0, 1]), 4096);
        // Past rows / 2, near-unique keys included, the configured matrix
        // runs whatever the floor: nothing there is prunable.
        for key in [&[3][..], &[4], &[0, 2]] {
            assert_eq!(distinct_rows(&cfg, &t, key), 4096, "key {key:?}");
            assert_eq!(distinct_rows(&floor, &t, key), 1, "key {key:?}");
        }
        let empty = Table::new("e", vec![("k", Vec::new())]);
        assert_eq!(distinct_rows(&cfg, &empty, &[0]), 4096);
    }

    #[test]
    fn dense_flips_exactly_at_the_stage_cutoff() {
        // A stage's 2²⁵ bits hold a bitmap of 2²⁵ keys, and registers of
        // c keys while 64·c + 64·⌈c/64⌉ ≤ 2²⁵: up to c = ⌊2²⁵/65⌋ = 516,222.
        let bits = spec().sram_per_stage_bits;
        assert_eq!(bits, 1 << 25);
        let lane = |keys: u64| Some((7, 7 + keys - 1));
        let cells = |code: Option<OffsetCode>| code.map(|c| c.cells());
        assert_eq!(cells(dense([lane(bits)], false)), Some(bits));
        assert_eq!(dense([lane(bits + 1)], false), None);
        assert_eq!(cells(dense([lane(516_222)], true)), Some(516_222));
        assert_eq!(dense([lane(516_223)], true), None);
        // Several lanes: ⌈log₂ range⌉ bits each, 25 in all.
        let multi = |b: u32| [lane(1 << 12), lane(1 << b)];
        assert_eq!(cells(dense(multi(13), false)), Some(bits));
        assert_eq!(dense(multi(14), false), None);
        // An empty lane, or more lanes than the header carries, runs hashed.
        assert_eq!(dense([lane(3), None], false), None);
        assert_eq!(cells(dense([lane(2); 4], false)), Some(16));
        assert_eq!(dense([lane(2); 5], false), None);
    }

    #[test]
    fn having_by_registers_flips_exactly_at_the_cutoff() {
        // 16,384 keys at Table 2's 4096 × 8: half the matrix.
        let rows = 40_000;
        let lane = |m: usize| (0..rows).map(|i| (i % m) as u64).collect();
        let t = Table::new(
            "t",
            vec![
                ("tiny", lane(25)),
                ("cutoff", lane(16_384)),
                ("past", lane(16_385)),
                ("unique", lane(rows)),
            ],
        );
        let cfg = PrunerConfig::default();
        let chosen: Vec<bool> = (0..4).map(|c| having_by_registers(&cfg, &t, c)).collect();
        assert_eq!(chosen, [true, true, false, false]);
        // The cutoff follows the register matrix, not the Count-Min.
        let small = PrunerConfig {
            groupby_d: 25,
            groupby_w: 2,
            ..PrunerConfig::default()
        };
        assert!(having_by_registers(&small, &t, 0));
        let smaller = PrunerConfig {
            groupby_d: 24,
            ..small
        };
        assert!(!having_by_registers(&smaller, &t, 0));
        let empty = Table::new("e", vec![("k", Vec::new())]);
        assert!(having_by_registers(&cfg, &empty, 0));
    }

    #[test]
    fn distinct_rows_stop_at_one_stage() {
        // 600k keys over 1.2M rows ask for 2²⁰ rows at w = 1; one stage
        // holds 2¹⁹ LRU rows, or 2¹⁸ rows of a two-column FIFO matrix.
        let t = Table::new(
            "t",
            vec![("k", (0..1_200_000).map(|i| i % 600_000).collect())],
        );
        let stage = |distinct_policy, distinct_w| {
            let cfg = PrunerConfig {
                distinct_policy,
                distinct_w,
                ..PrunerConfig::default()
            };
            distinct_rows(&cfg, &t, &[0])
        };
        assert_eq!(stage(EvictionPolicy::Lru, 1), 1 << 19);
        assert_eq!(stage(EvictionPolicy::Fifo, 2), 1 << 18);
        let fifo_cfg = PrunerConfig {
            distinct_policy: EvictionPolicy::Fifo,
            ..PrunerConfig::default()
        };
        let mut fifo = SinglePass::Distinct(Keys::Hashed(1 << 18)).pruner(&fifo_cfg);
        assert!(fifo.process_row(&[5]).is_forward());
    }

    /// The PISA matrices take every key as it is: 0 is a key like any
    /// other, and `u64::MAX`, whose cell marker would be the empty cell,
    /// forwards every time.
    #[test]
    fn pisa_matrices_take_zero_and_forward_the_max_key() {
        let cfg = PrunerConfig {
            backend: SwitchBackend::Pisa,
            ..PrunerConfig::default()
        };
        let mut d = distinct(&cfg);
        assert!(
            d.process_row(&[0]).is_forward(),
            "zero key first occurrence"
        );
        assert!(d.process_row(&[0]).is_prune(), "zero key duplicate");
        assert!(d.process_row(&[1]).is_forward(), "distinct from zero");
        let mut g = groupby(&cfg, Extremum::Max);
        assert!(g.process_row(&[0, 7]).is_forward());
        assert!(g.process_row(&[0, 7]).is_prune());
        for _ in 0..2 {
            assert!(d.process_row(&[u64::MAX]).is_forward());
            assert!(g.process_row(&[u64::MAX, 7]).is_forward());
        }
    }

    /// Every decision the switch makes for `b` under `cfg`, its lanes fed
    /// `block` entries at a time as the deterministic arm feeds them: a
    /// single pass's, both passes of §5's HAVING, or a JOIN's probes of
    /// its left side, then its right, once both filters are built. `None`
    /// for §6's SUM/COUNT registers, which have no PISA program and run the
    /// core pruner on either backend.
    fn decisions(cfg: &PrunerConfig, b: &Bound<'_>, block: usize) -> Option<Vec<Decision>> {
        let spans = |rows: usize| {
            (0..rows)
                .step_by(block)
                .map(move |s| s..rows.min(s + block))
        };
        let lanes = |r: std::ops::Range<usize>| -> Vec<&[u64]> {
            let t = b.table;
            b.cols.iter().map(|&c| &t.col_at(c)[r.clone()]).collect()
        };
        let rows = b.table.rows();
        let mut out = Vec::new();
        match b.program {
            Program::SinglePass(ref p) => {
                let mut pruner = p.pruner(cfg);
                let fp = tuple_fingerprinter(cfg);
                let mut fp_lane = Vec::new();
                for r in spans(rows) {
                    let mut cols = lanes(r.clone());
                    if b.fingerprints() {
                        fp_lane.clear();
                        fingerprint_rows(&cols, 0, r.len(), &fp, &mut fp_lane);
                        cols = vec![&fp_lane];
                    }
                    let at = out.len();
                    out.resize(at + r.len(), Decision::Prune);
                    pruner.process_block(&cols, &mut out[at..]);
                }
            }
            Program::Having { threshold, sketch } => {
                let mut flow = HavingFlow::sized(cfg, sketch, threshold);
                for pass in [1, 2] {
                    if pass == 2 {
                        flow.begin_pass_two();
                    }
                    for r in spans(rows) {
                        let kv = lanes(r.clone());
                        let at = out.len();
                        out.resize(at + r.len(), Decision::Prune);
                        let decided = &mut out[at..];
                        match pass {
                            1 => flow.pass_one_block(kv[0], kv[1], decided),
                            _ => flow.pass_two_block(kv[0], kv[1], decided),
                        }
                    }
                }
            }
            Program::Join {
                right,
                right_col,
                ref filters,
                ..
            } => {
                let mut flow = JoinFlow::sized(cfg, filters);
                let sides = [
                    (SIDE_LEFT, b.table, b.cols[0]),
                    (SIDE_RIGHT, right, right_col),
                ];
                for (side, t, c) in sides {
                    for r in spans(t.rows()) {
                        flow.observe_block(&vec![side; r.len()], &t.col_at(c)[r]);
                    }
                }
                for (side, t, c) in sides {
                    for r in spans(t.rows()) {
                        let at = out.len();
                        out.resize(at + r.len(), Decision::Prune);
                        flow.probe_block(&vec![side; r.len()], &t.col_at(c)[r], &mut out[at..]);
                    }
                }
            }
            Program::Registers { .. } => return None,
        }
        Some(out)
    }

    /// The two backends decide every entry alike, block by block: every
    /// program the shape matrix binds, over keys that bind dense and their
    /// spread form, which binds the paper's hashed matrices, Bloom pair and
    /// Count-Min sketch, at Table 2's geometry and a small one (FIFO
    /// DISTINCT, the TOP N ladder, and a register matrix too small for the
    /// HAVING keys, so §5's two passes run), fed 1, 61 and `BLOCK_ENTRIES`
    /// entries at a time. §6's registers have no PISA twin (see
    /// [`decisions`]), and the fixture holds no `u64::MAX` key, which the
    /// PISA matrices alone forward without touching state
    /// (`pisa_matrices_take_zero_and_forward_the_max_key`).
    #[test]
    fn both_backends_decide_every_entry_alike() {
        let small = PrunerConfig {
            distinct_d: 16,
            distinct_w: 3,
            distinct_policy: EvictionPolicy::Fifo,
            topn_randomized: false,
            groupby_d: 8,
            groupby_w: 2,
            having_d: 2,
            having_w: 64,
            join_m_bits: 1 << 12,
            skyline_w: 4,
            ..PrunerConfig::default()
        };
        let (mut compared, mut diverged) = (Vec::new(), Vec::new());
        for form in KeyForm::BOTH {
            let db = shape_db(form, 3_000, 9);
            for (name, cfg) in [
                ("Table 2", PrunerConfig::default()),
                ("small", small.clone()),
            ] {
                let on = |backend| PrunerConfig {
                    backend,
                    ..cfg.clone()
                };
                let (reference, pisa) = (on(SwitchBackend::Reference), on(SwitchBackend::Pisa));
                for (label, q) in fixture::shapes() {
                    let b = q.bind(&db, &cfg).expect("the shape matrix binds");
                    for block in [1, 61, BLOCK_ENTRIES] {
                        let Some(want) = decisions(&reference, &b, block) else {
                            continue;
                        };
                        let got = decisions(&pisa, &b, block).expect("the same program");
                        assert_eq!(want.len(), got.len(), "{label}");
                        let mut blocks = want.chunks(block).zip(got.chunks(block));
                        if let Some(i) = blocks.position(|(want, got)| want != got) {
                            let at = format!("{label} over {form:?} keys at {name}");
                            diverged.push(format!("{at}: block {i} of {block} entries"));
                        }
                    }
                    compared.push((form, b.is_dense()));
                }
            }
        }
        assert!(diverged.is_empty(), "first diverging blocks: {diverged:#?}");
        // The hashed and the dense programs were both compared.
        assert!(compared.contains(&(KeyForm::Spread, Some(false))));
        assert!(compared.contains(&(KeyForm::Narrow, Some(true))));
    }

    #[test]
    fn join_flow_equivalent_across_backends() {
        let run = |backend| {
            let cfg = PrunerConfig {
                backend,
                join_m_bits: 3 * (1 << 14),
                ..PrunerConfig::default()
            };
            // Lopsided on purpose: each side lands in a filter of its own
            // size on both backends.
            let mut j = JoinFlow::sized(&cfg, &Keys::Hashed(JoinFilters::sized(&cfg, 500, 40)));
            let sides: Vec<u64> = (0..1_000).map(|i| i % 2).collect();
            let keys: Vec<u64> = (0..1_000).map(|i| i / 2 + 400 * (i % 2)).collect();
            j.observe_block(&sides, &keys);
            let probes: Vec<u64> = (0..1_000).collect();
            let mut out = vec![Decision::Prune; 2_000];
            j.probe_block(&[0; 1_000], &probes, &mut out[..1_000]);
            j.probe_block(&[1; 1_000], &probes, &mut out[1_000..]);
            out
        };
        assert_eq!(
            run(SwitchBackend::Reference),
            run(SwitchBackend::Pisa),
            "join decisions must match across backends"
        );
    }

    #[test]
    fn join_filters_are_sized_from_rows_within_the_cap() {
        use cheetah_core::join::KeyFilter;
        let bits = JoinFlow::side_bits;
        let cfg = PrunerConfig::default();
        assert_eq!(bits(&cfg, 0), 64, "an empty side still owns a register");
        assert_eq!(bits(&cfg, 2), 64);
        assert_eq!(bits(&cfg, 3), 128, "96 bits round up to whole registers");
        assert_eq!(bits(&cfg, 400_000), 400_000 * JOIN_BITS_PER_ROW);
        assert_eq!(bits(&cfg, usize::MAX), cfg.join_m_bits, "the cap holds");
        // The tiny-switch configs of the equivalence suites keep their
        // three registers; a cap that is no whole register rounds down,
        // but never below one.
        let capped = |join_m_bits| PrunerConfig {
            join_m_bits,
            ..PrunerConfig::default()
        };
        assert_eq!(bits(&capped(192), 3_000), 192);
        assert_eq!(bits(&capped(192), 1), 64);
        assert_eq!(bits(&capped(200), 3_000), 192);
        assert_eq!(bits(&capped(0), 3_000), 64);
        let geometry = |flow: JoinFlow| match flow {
            JoinFlow::Core(p) => {
                let (a, b) = p.filters();
                (a.bits(), b.bits())
            }
            JoinFlow::Pisa(_) | JoinFlow::Dense(_) => unreachable!("hashed reference filters"),
        };
        assert_eq!(
            geometry(JoinFlow::sized(
                &cfg,
                &Keys::Hashed(JoinFilters::sized(&cfg, 400_000, 80_000))
            )),
            (12_800_000, 2_560_000),
            "each side sized on its own"
        );
        assert_eq!(
            geometry(JoinFlow::new(&cfg)),
            (cfg.join_m_bits, cfg.join_m_bits),
            "`new` is `sized` at the cap"
        );
    }

    #[test]
    fn having_flow_equivalent_across_backends() {
        let entries: Vec<(u64, u64)> = (0..2_000).map(|i| (i % 37, (i * 13) % 100)).collect();
        let run = |backend| {
            let cfg = PrunerConfig {
                backend,
                ..PrunerConfig::default()
            };
            let mut h = HavingFlow::new(&cfg, 1_500);
            let (keys, vals): (Vec<u64>, Vec<u64>) = entries.iter().copied().unzip();
            let mut decisions = vec![Decision::Prune; 2 * entries.len()];
            let (one, two) = decisions.split_at_mut(entries.len());
            h.pass_one_block(&keys, &vals, one);
            h.begin_pass_two();
            h.pass_two_block(&keys, &vals, two);
            decisions
        };
        assert_eq!(run(SwitchBackend::Reference), run(SwitchBackend::Pisa));
    }

    #[test]
    fn topn_geometry_follows_n_and_every_n_builds() {
        use TopNGeometry::{Deterministic, Randomized};
        let cfg = PrunerConfig::default();
        // A TOP 0 or 1 is one row: w ≥ n cells make it exact outright.
        assert_eq!(topn_geometry(&cfg, 0), Randomized { d: 1, w: 9 });
        assert_eq!(topn_geometry(&cfg, 1), Randomized { d: 1, w: 9 });
        assert_eq!(topn_geometry(&cfg, 10), Randomized { d: 11, w: 9 });
        // Past a handful of rows the 11 columns of a 12-stage pipeline
        // give the smallest matrix; perfbench's TOP 250 runs 227 × 11
        // where Table 2's 4096 × 4 forwarded four times as many entries.
        assert_eq!(topn_geometry(&cfg, 25), Randomized { d: 21, w: 11 });
        assert_eq!(topn_geometry(&cfg, 250), Randomized { d: 227, w: 11 });
        assert_eq!(topn_geometry(&cfg, 2_000), Randomized { d: 1_999, w: 11 });
        // Past 11 columns at 4096 rows the program overflows the
        // pipeline; past n ≈ 26k Theorem 2 has no columns at d = 4096.
        assert_eq!(topn_geometry(&cfg, 4_000), Deterministic { w: 4 });
        assert_eq!(params::topn_columns(4096, 50_000, TOPN_DELTA), None);
        assert_eq!(topn_geometry(&cfg, 50_000), Deterministic { w: 4 });
        let ladder = PrunerConfig {
            topn_randomized: false,
            ..PrunerConfig::default()
        };
        assert_eq!(topn_geometry(&ladder, 100), Deterministic { w: 4 });
        for backend in [SwitchBackend::Reference, SwitchBackend::Pisa] {
            let cfg = PrunerConfig {
                backend,
                ..PrunerConfig::default()
            };
            for n in [0, 1, 277, 278, 2_000, 4_000, 10_000, 26_000, 50_000] {
                let mut t = topn(&cfg, n);
                assert!(t.process_row(&[100]).is_forward(), "{backend:?} n = {n}");
            }
        }
    }

    #[test]
    fn topn_geometry_is_the_smallest_feasible_matrix_in_the_budget() {
        let cfg = PrunerConfig::default();
        let stages = spec().stages as usize;
        let feasible = |d: usize, w: usize, n: usize| {
            params::topn_columns(d, n, TOPN_DELTA).is_some_and(|c| c <= w)
        };
        for n in [
            1, 2, 3, 7, 10, 25, 60, 100, 250, 277, 278, 640, 1_000, 2_000, 3_000, 4_000,
        ] {
            // Every (d, w) the budget allows: w + 1 stages, d ≤ topn_d.
            let best = (1..=cfg.topn_d)
                .flat_map(|d| (cfg.topn_w..stages).map(move |w| (d, w)))
                .filter(|&(d, w)| feasible(d, w, n))
                .map(|(d, w)| d * w)
                .min();
            match topn_geometry(&cfg, n) {
                TopNGeometry::Randomized { d, w } => {
                    assert!(
                        feasible(d, w, n) && w < stages && d <= cfg.topn_d,
                        "n = {n}"
                    );
                    assert_eq!(Some(d * w), best, "n = {n}: ({d}, {w}) is not the smallest");
                    // Never more expected forwards than Table 2's rows at
                    // Theorem 2's columns, the geometry this replaced.
                    let columns = params::topn_columns(cfg.topn_d, n, TOPN_DELTA).unwrap();
                    let old = params::topn_expected_unpruned(
                        400_000,
                        cfg.topn_d,
                        columns.max(cfg.topn_w),
                    );
                    assert!(
                        params::topn_expected_unpruned(400_000, d, w) <= old,
                        "n = {n}"
                    );
                }
                TopNGeometry::Deterministic { .. } => assert_eq!(best, None, "n = {n}"),
            }
        }
    }
}
