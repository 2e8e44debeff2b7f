//! Per-layer measurements of a traced run, outside in: every layer is
//! driven through the engine's public functions from here, so the spans
//! sit at the layer boundaries without touching the engine crates.
//!
//! A deterministic cell is *replayed* right after its timed `execute`:
//! lane gather, fingerprint, switch prune and late fetch run one by one
//! with the same inputs, each under its own span. What `execute` takes
//! beyond the replayed layers — master sink, finish, canonicalise — is
//! reported as `cheetah.other_ms`, the part invisible from outside.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use cheetah_core::decision::{Decision, PruneStats, RowPruner};
use cheetah_core::fingerprint::Fingerprinter;
use cheetah_core::groupby::{Extremum, GroupBySumPruner};
use cheetah_engine::backend::{self, HavingFlow, JoinFlow, SwitchBackend};
use cheetah_engine::query::fetch_checksum;
use cheetah_engine::reference;
use cheetah_engine::{
    Agg, CheetahExecutor, Database, EntryStream, Executor, PlannerExecutor, Query, QueryResult,
    ShardOutput, SparkExecutor, Table, BLOCK_ENTRIES,
};
use cheetah_net::wire::chunk_payload;
use cheetah_net::{DataPacket, Message, Simulation, SimulationConfig, SwitchNode, WorkerTx};

use crate::harness::{geomean, median, ms, quiet, Observer};
use crate::manifest::PISA_SHAPES;
use crate::trace::Recorder;
use crate::workloads::{self, Detail, Outcome, Setup, Work};

/// Named samples; a timing is the quiet quantile of its samples, a count
/// or a ratio their median.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    /// One value per sampled name.
    pub fn summaries(&self) -> BTreeMap<String, f64> {
        self.0
            .iter()
            .map(|(name, v)| {
                let timing = name.contains("_ms");
                (name.clone(), if timing { quiet(v) } else { median(v) })
            })
            .collect()
    }
}

/// What one replayed deterministic query spent in each layer.
#[derive(Default)]
pub struct Replayed {
    pub gather: Duration,
    pub gather_rows: u64,
    pub fingerprint: Duration,
    pub prune: Duration,
    pub stats: PruneStats,
    pub fetch: Duration,
    pub fetch_rows: u64,
    pub fetch_bytes: u64,
}

impl Replayed {
    /// Everything the replay accounts for.
    pub fn total(&self) -> Duration {
        self.gather + self.fingerprint + self.prune + self.fetch
    }
}

/// Run `f` under a leaf span.
fn timed<T>(
    rec: &mut Recorder,
    op: &'static str,
    label: &str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let start = Instant::now();
    let out = black_box(f());
    let end = Instant::now();
    rec.leaf(op, label, start, end);
    (out, end - start)
}

/// `(start, len)` of each switch block of an `n`-entry stream.
fn blocks(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n)
        .step_by(BLOCK_ENTRIES)
        .map(move |s| (s, (n - s).min(BLOCK_ENTRIES)))
}

/// Gather `cols` of `t` into a stream, as the CWorkers serialise them.
fn gather(
    rec: &mut Recorder,
    label: &str,
    out: &mut Replayed,
    t: &Table,
    cols: &[usize],
    workers: usize,
) -> EntryStream {
    let (stream, took) = timed(rec, "stream.gather", label, || {
        EntryStream::interleaved(t, cols, workers)
    });
    out.gather += took;
    out.gather_rows += stream.len() as u64;
    stream
}

/// Stream through a row pruner; returns the forwarded row ids.
fn prune(
    rec: &mut Recorder,
    label: &str,
    out: &mut Replayed,
    stream: &EntryStream,
    pruner: &mut dyn RowPruner,
) -> Vec<u64> {
    let stats = &mut out.stats;
    let (ids, took) = timed(rec, "core.prune", label, || {
        let mut ids = Vec::new();
        stream.prune(pruner, stats, |rid, _| ids.push(rid));
        ids
    });
    out.prune += took;
    ids
}

fn col_indices(t: &Table, names: &[String]) -> Vec<usize> {
    names.iter().map(|c| t.col_index(c)).collect()
}

/// Replay one deterministic query layer by layer, each under its own
/// span, with the executor's own switch configuration.
pub fn replay(
    rec: &mut Recorder,
    label: &str,
    db: &Database,
    query: &Query,
    exec: &CheetahExecutor,
) -> Replayed {
    let workers = exec.model.workers;
    let cfg = &exec.config;
    let mut out = Replayed::default();
    match query {
        Query::FilterCount { table, predicate } | Query::Filter { table, predicate } => {
            let t = db.table(table);
            let cols = col_indices(t, &predicate.columns);
            let stream = gather(rec, label, &mut out, t, &cols, workers);
            let mut pruner = backend::filter(cfg, predicate);
            let ids = prune(rec, label, &mut out, &stream, pruner.as_mut());
            if matches!(query, Query::Filter { .. }) {
                let proj = query.projection(t, &cfg.fetch);
                let (_, took) = timed(rec, "table.fetch", label, || {
                    let mut buf = Vec::with_capacity(proj.width());
                    ids.iter().fold(0u64, |sum, &rid| {
                        t.row_into_cols(rid as usize, proj.cols(), &mut buf);
                        fetch_checksum(sum, rid, &buf)
                    })
                });
                out.fetch = took;
                out.fetch_rows = ids.len() as u64;
                out.fetch_bytes = out.fetch_rows * proj.bytes_per_row();
            }
        }
        Query::Distinct { table, column } => {
            let t = db.table(table);
            let stream = gather(rec, label, &mut out, t, &[t.col_index(column)], workers);
            prune(
                rec,
                label,
                &mut out,
                &stream,
                backend::distinct(cfg).as_mut(),
            );
        }
        Query::DistinctMulti { table, columns } => {
            let t = db.table(table);
            let cols = col_indices(t, columns);
            let mut stream = gather(rec, label, &mut out, t, &cols, workers);
            let fp = Fingerprinter::new(cfg.seed ^ 0xf1f1, 64);
            let (_, took) = timed(rec, "stream.fingerprint", label, || {
                stream.fingerprint_lane(&fp);
            });
            out.fingerprint = took;
            prune(
                rec,
                label,
                &mut out,
                &stream,
                backend::distinct(cfg).as_mut(),
            );
        }
        Query::TopN { table, order_by, n } => {
            let t = db.table(table);
            let stream = gather(rec, label, &mut out, t, &[t.col_index(order_by)], workers);
            prune(
                rec,
                label,
                &mut out,
                &stream,
                backend::topn(cfg, *n).as_mut(),
            );
        }
        Query::Skyline { table, columns } => {
            let t = db.table(table);
            let cols = col_indices(t, columns);
            let stream = gather(rec, label, &mut out, t, &cols, workers);
            let mut pruner = backend::skyline(cfg, cols.len());
            prune(rec, label, &mut out, &stream, pruner.as_mut());
        }
        Query::GroupBy {
            table,
            key,
            val,
            agg,
        } => {
            let t = db.table(table);
            let cols = [t.col_index(key), t.col_index(val)];
            let stream = gather(rec, label, &mut out, t, &cols, workers);
            match agg {
                Agg::Max | Agg::Min => {
                    let ext = if *agg == Agg::Max {
                        Extremum::Max
                    } else {
                        Extremum::Min
                    };
                    prune(
                        rec,
                        label,
                        &mut out,
                        &stream,
                        backend::groupby(cfg, ext).as_mut(),
                    );
                }
                Agg::Sum | Agg::Count => {
                    let mut registers =
                        GroupBySumPruner::new(cfg.groupby_d, cfg.groupby_w, cfg.seed);
                    let ones = [1u64; BLOCK_ENTRIES];
                    let stats = &mut out.stats;
                    let (_, took) = timed(rec, "core.prune", label, || {
                        let mut decisions = [Decision::Prune; BLOCK_ENTRIES];
                        let mut evicted = 0u64;
                        for (s, len) in blocks(stream.len()) {
                            let vals = if *agg == Agg::Sum {
                                &stream.col(1)[s..s + len]
                            } else {
                                &ones[..len]
                            };
                            let block = &mut decisions[..len];
                            registers.process_block(
                                &stream.col(0)[s..s + len],
                                vals,
                                block,
                                |_, partial| evicted = evicted.wrapping_add(partial),
                            );
                            stats.record_block(block);
                        }
                        (evicted, registers.drain().len())
                    });
                    out.prune = took;
                }
            }
        }
        Query::Having {
            table,
            key,
            val,
            threshold,
        } => {
            let t = db.table(table);
            let cols = [t.col_index(key), t.col_index(val)];
            let stream = gather(rec, label, &mut out, t, &cols, workers);
            let mut flow = HavingFlow::new(cfg, *threshold);
            let stats = &mut out.stats;
            let (_, took) = timed(rec, "core.prune", label, || {
                let mut decisions = [Decision::Prune; BLOCK_ENTRIES];
                let (keys, vals) = (stream.col(0), stream.col(1));
                for (s, len) in blocks(stream.len()) {
                    let block = &mut decisions[..len];
                    flow.pass_one_block(&keys[s..s + len], &vals[s..s + len], block);
                    stats.record_block(block);
                }
                flow.begin_pass_two();
                for (s, len) in blocks(stream.len()) {
                    let block = &mut decisions[..len];
                    flow.pass_two_block(&keys[s..s + len], &vals[s..s + len], block);
                    stats.record_block(block);
                }
            });
            out.prune = took;
        }
        Query::Join {
            left,
            right,
            left_col,
            right_col,
        } => {
            let (l, r) = (db.table(left), db.table(right));
            let lstream = gather(rec, label, &mut out, l, &[l.col_index(left_col)], workers);
            let rstream = gather(rec, label, &mut out, r, &[r.col_index(right_col)], workers);
            let mut flow = JoinFlow::new(cfg);
            let stats = &mut out.stats;
            let (_, took) = timed(rec, "core.prune", label, || {
                let mut decisions = [Decision::Prune; BLOCK_ENTRIES];
                // Flow-id lanes: 0 = left side, 1 = right side.
                let sides = [[0u64; BLOCK_ENTRIES], [1u64; BLOCK_ENTRIES]];
                let streams = [&lstream, &rstream];
                for (side, stream) in sides.iter().zip(streams) {
                    for (s, len) in blocks(stream.len()) {
                        flow.observe_block(&side[..len], &stream.col(0)[s..s + len]);
                    }
                }
                for (side, stream) in sides.iter().zip(streams) {
                    for (s, len) in blocks(stream.len()) {
                        let block = &mut decisions[..len];
                        flow.probe_block(&side[..len], &stream.col(0)[s..s + len], block);
                        stats.record_block(block);
                    }
                }
            });
            out.prune = took;
        }
    }
    out
}

/// The traced run's observer: replays deterministic cells and folds the
/// counters each arm's report carries into per-round samples.
#[derive(Default)]
pub struct Probe {
    pub samples: Samples,
    /// Sums over the current round, sampled when it ends.
    round: BTreeMap<&'static str, f64>,
}

impl Probe {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.round.entry(name).or_insert(0.0) += value;
    }
}

impl Observer for Probe {
    fn cell(&mut self, rec: &mut Recorder, setup: &Setup, idx: usize, outcome: &Outcome) {
        let cell = &setup.cells[idx];
        let wall_ms = ms(outcome.wall());
        match &outcome.detail {
            Detail::Panicked => {}
            Detail::Batch(served) => {
                let n = served.queries.max(1) as f64;
                let s = &mut self.samples;
                s.push("serve.packed_frac", served.packed as f64 / n);
                s.push("serve.solo_frac", served.solo as f64 / n);
                s.push("serve.spilled_frac", served.spilled as f64 / n);
                s.push("serve.shared_scans", served.shared_scans as f64);
                s.push("serve.cache_hit_rate", served.cache_hit_rate());
                s.push("serve.cache_misses", served.cache_misses as f64);
            }
            Detail::Query(report) => match cell.arm {
                "threaded" => {
                    let pass: f64 = report.pass_walls.iter().map(|&d| ms(d)).sum();
                    self.add("threaded.pass_ms", pass);
                    self.add("threaded.outside_pass_ms", (wall_ms - pass).max(0.0));
                }
                "sharded" => {
                    // `shards × passes` spans, one chunk of `shards` per
                    // pass: the slowest shard of each pass sets its wall.
                    for pass in report.pass_walls.chunks(workloads::PARALLELISM) {
                        let spans: Vec<f64> = pass.iter().map(|&d| ms(d)).collect();
                        let slowest = spans.iter().copied().fold(0.0, f64::max);
                        let mean = spans.iter().sum::<f64>() / spans.len() as f64;
                        self.add("sharded.pass_ms", slowest);
                        if mean > 0.0 {
                            self.samples.push("sharded.pass_skew", slowest / mean);
                        }
                    }
                    let merge: f64 = report.merge_walls.iter().map(|&d| ms(d)).sum();
                    self.add("sharded.merge_ms", merge);
                    self.add("sharded.combine_ms", report.combine_wall.map_or(0.0, ms));
                }
                "distributed" => {
                    if let Some(res) = &report.resilience {
                        self.add("distributed.ship_attempts", res.ship_attempts as f64);
                        self.add("distributed.retries", res.retries as f64);
                        self.add("distributed.retransmissions", res.retransmissions as f64);
                        self.add("distributed.losses", res.losses as f64);
                        self.add("distributed.degraded", f64::from(u8::from(res.degraded)));
                    }
                }
                _ => {}
            },
        }
        let (Some(exec), Work::Query { query, .. }) = (&cell.replay, &cell.work) else {
            return;
        };
        let label = cell.label();
        rec.open("replay", &label);
        let layers = replay(rec, &label, &setup.db, query, exec);
        rec.close();
        let shape = cell.shape;
        self.add("stream.gather_ms", ms(layers.gather));
        self.add("stream.gather_rows", layers.gather_rows as f64);
        self.add("stream.fingerprint_ms", ms(layers.fingerprint));
        self.add("table.fetch_ms", ms(layers.fetch));
        self.add("table.fetch_rows", layers.fetch_rows as f64);
        self.add("table.fetch_bytes", layers.fetch_bytes as f64);
        let other = (wall_ms - ms(layers.total())).max(0.0);
        self.add("cheetah.other", other);
        self.add("cheetah.execute", wall_ms);
        let s = &mut self.samples;
        s.push(format!("core.prune_ms.{shape}"), ms(layers.prune));
        if layers.stats.processed > 0 {
            s.push(
                format!("core.forwarded_frac.{shape}"),
                layers.stats.forwarded() as f64 / layers.stats.processed as f64,
            );
        }
        s.push(format!("cheetah.other_ms.{shape}"), other);
    }

    fn round_end(&mut self) {
        let round = std::mem::take(&mut self.round);
        let get = |name: &str| round.get(name).copied().unwrap_or(0.0);
        if get("stream.gather_ms") > 0.0 {
            self.samples.push(
                "stream.gather_rows_per_s",
                get("stream.gather_rows") / (get("stream.gather_ms") / 1e3),
            );
        }
        if get("cheetah.execute") > 0.0 {
            self.samples.push(
                "cheetah.other_frac",
                get("cheetah.other") / get("cheetah.execute"),
            );
        }
        for (name, value) in round {
            self.samples.push(name, value);
        }
    }
}

/// Run `f` at least once and up to `max` times while `deadline` has not
/// passed; the fastest time it returned (too few samples for a quantile).
pub fn fastest(deadline: Instant, max: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut seen = vec![f()];
    while seen.len() < max && Instant::now() < deadline {
        seen.push(f());
    }
    seen.into_iter().fold(f64::INFINITY, f64::min)
}

/// Every query one round completes, cell by cell.
fn round_queries(setup: &Setup) -> impl Iterator<Item = &Query> {
    setup.cells.iter().flat_map(|c| c.queries())
}

fn time_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    ms(t0.elapsed())
}

/// `spark.round_ms` and `reference.round_ms`: the baseline executor and
/// the oracle over the same round of queries.
pub fn baselines(setup: &Setup, deadline: Instant, values: &mut BTreeMap<String, f64>) {
    let spark = SparkExecutor::new(workloads::deterministic(Default::default()).model);
    let spark_ms = fastest(deadline, 3, || {
        time_ms(|| round_queries(setup).for_each(|q| drop(black_box(spark.execute(&setup.db, q)))))
    });
    let reference_ms = fastest(deadline, 3, || {
        time_ms(|| {
            round_queries(setup).for_each(|q| drop(black_box(reference::evaluate(&setup.db, q))))
        })
    });
    values.insert("spark.round_ms".into(), spark_ms);
    values.insert("reference.round_ms".into(), reference_ms);
}

/// `pisa.prune_ms.*`: the switch pass of three shapes on the metered
/// PISA backend (diagnostic: what budget-checking every primitive costs).
pub fn pisa(setup: &Setup, deadline: Instant, values: &mut BTreeMap<String, f64>) {
    let mut off = Recorder::new(false);
    for cell in &setup.cells {
        let (Some(exec), Work::Query { query, .. }) = (&cell.replay, &cell.work) else {
            continue;
        };
        if !PISA_SHAPES.contains(&cell.shape) {
            continue;
        }
        let mut metered = exec.clone();
        metered.config.backend = SwitchBackend::Pisa;
        let took = fastest(deadline, 3, || {
            ms(replay(&mut off, "", &setup.db, query, &metered).prune)
        });
        values.insert(format!("pisa.prune_ms.{}", cell.shape), took);
    }
}

/// `serve.solo_sum_ms`: the batch's queries back to back through the
/// deterministic executor — the base of `serve.speedup_vs_solo`.
pub fn solo_sum(setup: &Setup, deadline: Instant, values: &mut BTreeMap<String, f64>) {
    let Some(Work::Batch { exec, queries, .. }) = setup.cells.first().map(|c| &c.work) else {
        return;
    };
    let solo = &exec.cheetah;
    let solo_ms = fastest(deadline, 3, || {
        time_ms(|| {
            queries
                .iter()
                .for_each(|q| drop(black_box(solo.execute(&setup.db, q))))
        })
    });
    values.insert("serve.solo_sum_ms".into(), solo_ms);
}

/// The `pipelines` workload's `distinct_multi` result as the shard
/// output that rides the wire.
fn wire_payload(setup: &Setup) -> Option<ShardOutput> {
    setup.cells.iter().find_map(|c| match &c.work {
        Work::Query {
            expected: QueryResult::Points(points),
            ..
        } if c.arm == "distributed" && c.shape == "distinct_multi" => Some(ShardOutput::Tuples {
            width: points.first().map_or(0, Vec::len) as u64,
            flat: points.iter().flatten().copied().collect(),
        }),
        _ => None,
    })
}

/// `distributed.codec_*` and `net.*`: encode, packetise, ship over the
/// simulated lossy fabric and decode the `distinct_multi` survivors, each
/// step on its own.
pub fn wire(setup: &Setup, seed: u64, deadline: Instant, values: &mut BTreeMap<String, f64>) {
    let Some(payload) = wire_payload(setup) else {
        return;
    };
    let words = payload.encode();
    let encode_ms = fastest(deadline, 5, || time_ms(|| payload.encode()));
    let decode_ms = fastest(deadline, 5, || time_ms(|| ShardOutput::decode(&words)));
    values.insert("distributed.codec_encode_ms".into(), encode_ms);
    values.insert("distributed.codec_decode_ms".into(), decode_ms);
    values.insert("distributed.codec_words".into(), words.len() as f64);

    let entries = chunk_payload(&words);
    let packets: Vec<Message> = entries
        .iter()
        .enumerate()
        .map(|(seq, values)| {
            Message::Data(DataPacket {
                fid: 1,
                seq: seq as u32,
                values: values.clone(),
            })
        })
        .collect();
    let frames: Vec<_> = packets.iter().map(Message::encode).collect();
    let net_encode = fastest(deadline, 5, || {
        time_ms(|| packets.iter().map(Message::encode).collect::<Vec<_>>())
    });
    let net_decode = fastest(deadline, 5, || {
        time_ms(|| {
            frames
                .iter()
                .map(|f| Message::decode(f.clone()).is_ok())
                .collect::<Vec<_>>()
        })
    });
    values.insert("net.encode_ms".into(), net_encode);
    values.insert("net.decode_ms".into(), net_decode);

    let cfg = SimulationConfig {
        loss_rate: workloads::LOSS_RATE,
        dup_rate: workloads::DUP_RATE,
        seed,
        ..SimulationConfig::default()
    };
    let mut retransmissions = 0.0;
    let session_ms = fastest(deadline, 5, || {
        let workers = vec![WorkerTx::new(1, entries.clone(), cfg.window, cfg.rto_us)];
        time_ms(|| {
            let (_, stats) = Simulation::new(cfg).run(workers, SwitchNode::transparent());
            retransmissions = stats.retransmissions as f64;
        })
    });
    values.insert("net.session_ms".into(), session_ms);
    values.insert("net.session_retransmissions".into(), retransmissions);
}

/// `plan.*`: the planner timed alone, then its chosen arm executed, over
/// the five pipeline shapes. Its choice depends on a timing probe, so it
/// stays out of the end-to-end loop.
pub fn planner(setup: &Setup, values: &mut BTreeMap<String, f64>) {
    let planner = PlannerExecutor::new(workloads::pipelined());
    let (mut plan_ms, mut execute_ms) = (0.0, 0.0);
    let (mut candidates, mut infeasible) = (0.0, 0.0);
    let mut misses = Vec::new();
    for cell in setup.cells.iter().filter(|c| c.arm == "threaded") {
        let Work::Query { query, .. } = &cell.work else {
            continue;
        };
        plan_ms += time_ms(|| planner.plan(&setup.db, query));
        let report = planner.execute(&setup.db, query);
        let Some(plan) = report.plan else { continue };
        execute_ms += plan.measured_s * 1e3;
        candidates += plan.candidates as f64;
        infeasible += plan.infeasible as f64;
        // Over- and under-estimates count alike.
        let miss = plan.misprediction();
        misses.push(miss.max(1.0 / miss));
    }
    values.insert("plan.plan_ms".into(), plan_ms);
    values.insert("plan.execute_ms".into(), execute_ms);
    values.insert("plan.misprediction_geomean".into(), geomean(&misses));
    values.insert(
        "plan.misprediction_max".into(),
        misses.iter().copied().fold(0.0, f64::max),
    );
    values.insert("plan.candidates".into(), candidates);
    values.insert("plan.infeasible".into(), infeasible);
}
