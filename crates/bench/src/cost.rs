//! The completion-time model of Figures 5–9 and Table 3's hardware
//! envelopes.
//!
//! No Tofino testbed exists here, so *times* are modeled while *results
//! and pruning rates* are computed for real. The model is a pure function
//! of the counters an [`ExecutionReport`] carries — rows streamed, entries
//! that reached the master, rows fetched — priced at a [`CostModel`]'s
//! rates and the query shape's [`Rates`]. Pass the model the executor ran
//! with: its `workers` split the stream the report counts.

use cheetah_engine::{CostModel, ExecutionReport, Query};

use crate::netaccel::NetAccelModel;

/// One query shape's processing rates.
///
/// Spark worker tasks are the computational bottleneck the paper
/// offloads; the task rates order the shapes by their per-row cost
/// (SKYLINE ≫ JOIN ≫ DISTINCT/GROUP BY ≫ TOP N ≫ scans). The master
/// rates are the Figure 9 service rates ("TOP N … processes millions of
/// entries per second; SKYLINE is computationally expensive").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// Spark worker-task rate (rows per second per worker).
    pub task: f64,
    /// Master completion rate over the entries that reach it (entries
    /// per second).
    pub master: f64,
}

impl Rates {
    const fn new(task: f64, master: f64) -> Self {
        Rates { task, master }
    }
}

/// FILTER and its COUNT.
pub const SCAN: Rates = Rates::new(8.0e6, 20.0e6);
/// DISTINCT, over one column or several.
pub const DISTINCT: Rates = Rates::new(1.8e6, 8.0e6);
/// TOP N.
pub const TOPN: Rates = Rates::new(3.0e6, 10.0e6);
/// GROUP BY, every aggregate.
pub const GROUPBY: Rates = Rates::new(2.2e6, 6.0e6);
/// HAVING.
pub const HAVING: Rates = Rates::new(2.5e6, 6.0e6);
/// JOIN.
pub const JOIN: Rates = Rates::new(1.2e6, 4.0e6);
/// SKYLINE.
pub const SKYLINE: Rates = Rates::new(0.35e6, 0.4e6);

/// The rates of `query`'s shape.
pub fn rates(query: &Query) -> Rates {
    match query {
        Query::FilterCount { .. } | Query::Filter { .. } => SCAN,
        Query::Distinct { .. } | Query::DistinctMulti { .. } => DISTINCT,
        Query::TopN { .. } => TOPN,
        Query::GroupBy { .. } => GROUPBY,
        Query::Having { .. } => HAVING,
        Query::Join { .. } => JOIN,
        Query::Skyline { .. } => SKYLINE,
    }
}

/// A completion time split the way Figure 8 plots it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimingBreakdown {
    /// Worker tasks + master merge (Spark) or master completion (Cheetah).
    pub computation_s: f64,
    /// Wire time: shuffle (Spark) or entry streaming (Cheetah).
    pub network_s: f64,
    /// Scheduling, setup, rule installation.
    pub other_s: f64,
}

impl TimingBreakdown {
    /// Total completion time.
    pub fn total_s(&self) -> f64 {
        self.computation_s + self.network_s + self.other_s
    }
}

/// Spark's worker-task time: the rows the report scanned, split over
/// `m.workers`, at the shape's task rate.
pub fn spark_task_s(query: &Query, report: &ExecutionReport, m: &CostModel) -> f64 {
    let max_partition_rows = report.streamed.div_ceil(m.workers as u64);
    m.scaled(max_partition_rows) / rates(query).task
}

/// Spark's warm run of `query`: parallel worker tasks, the compressed
/// shuffle of the partials and the rows fetched, the master's merge.
pub fn spark(query: &Query, report: &ExecutionReport, m: &CostModel) -> TimingBreakdown {
    spark_run(query, report, m, 1.0)
}

/// Spark's first run: the warm run with its computation paying the
/// JIT/indexing penalty the paper discards in later figures (§8.2.2).
pub fn spark_first_run(query: &Query, report: &ExecutionReport, m: &CostModel) -> TimingBreakdown {
    spark_run(query, report, m, m.first_run_factor)
}

fn spark_run(
    query: &Query,
    report: &ExecutionReport,
    m: &CostModel,
    factor: f64,
) -> TimingBreakdown {
    let task_s = spark_task_s(query, report, m);
    let merge_s = m.scaled(report.shuffle_entries) / rates(query).master;
    let shuffle_bytes = m.scaled(report.shuffle_entries) * m.shuffle_bytes_per_entry;
    let fetch_bytes = m.scaled(report.fetch_rows) * m.fetch_bytes_per_row;
    TimingBreakdown {
        computation_s: (task_s + merge_s) * factor,
        network_s: m.transfer_s(shuffle_bytes + fetch_bytes),
        other_s: m.spark_overhead_s,
    }
}

/// Cheetah's run of `query`: the stream, serialization and master
/// completion overlap (pipelining), so the streaming phase costs their
/// maximum; master work left when the stream drains is the blocking
/// effect of Figure 9, which bites only when the master is the
/// bottleneck.
pub fn cheetah(query: &Query, report: &ExecutionReport, m: &CostModel) -> TimingBreakdown {
    let per_worker = report.streamed.div_ceil(m.workers as u64);
    let serialize_s = m.scaled(per_worker) / m.serialize_cpu_pps;
    let network_s = m.scaled(per_worker) / m.worker_pps();
    let master_s = m.scaled(report.prune_stats().forwarded()) / rates(query).master;
    let fetch_s = m.transfer_s(m.scaled(report.fetch_rows) * m.fetch_bytes_per_row);
    let stream_phase = serialize_s.max(network_s).max(master_s);
    let residual = (master_s - serialize_s.max(network_s)).max(0.0);
    TimingBreakdown {
        computation_s: master_s.min(stream_phase) * 0.1 + residual,
        network_s: serialize_s.max(network_s),
        other_s: m.cheetah_setup_s + m.rule_install_s + fetch_s,
    }
}

/// The §8.2.4 NetAccel lower bound on `query`: pruning generously assumed
/// identical to Cheetah's, so it streams in as Cheetah's run does, but
/// its result must be drained out of the dataplane registers before
/// anything downstream can use it (Figure 7's dominant cost), and that
/// drain replaces the master completion.
pub fn netaccel(
    query: &Query,
    report: &ExecutionReport,
    m: &CostModel,
    na: &NetAccelModel,
) -> TimingBreakdown {
    TimingBreakdown {
        computation_s: na.drain_s(report.result.output_size()),
        ..cheetah(query, report, m)
    }
}

/// Figure 7's Cheetah side: a result of `entries` streams to the master
/// inline, so delivering it costs receiving and touching it once.
pub fn delivery_s(entries: u64, m: &CostModel) -> f64 {
    entries as f64 / JOIN.master + m.transfer_s(entries as f64 * 64.0)
}

/// One row of Table 3 (hardware choices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareEnvelope {
    /// Platform name.
    pub name: &'static str,
    /// Throughput range in Gbit/s.
    pub throughput_gbps: (f64, f64),
    /// Per-packet latency range in µs.
    pub latency_us: (f64, f64),
}

impl HardwareEnvelope {
    const fn new(name: &'static str, throughput_gbps: (f64, f64), latency_us: (f64, f64)) -> Self {
        HardwareEnvelope {
            name,
            throughput_gbps,
            latency_us,
        }
    }
}

/// Table 3: server / GPU / FPGA / SmartNIC / Tofino v2 envelopes.
pub const HARDWARE_COMPARISON: [HardwareEnvelope; 5] = [
    HardwareEnvelope::new("Server", (10.0, 100.0), (10.0, 100.0)),
    HardwareEnvelope::new("GPU", (40.0, 120.0), (8.0, 25.0)),
    HardwareEnvelope::new("FPGA", (10.0, 100.0), (10.0, 10.0)),
    HardwareEnvelope::new("SmartNIC", (10.0, 100.0), (5.0, 10.0)),
    HardwareEnvelope::new("Tofino V2", (12_800.0, 12_800.0), (0.0, 1.0)),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_order_query_costs() {
        const {
            assert!(SKYLINE.task < JOIN.task);
            assert!(JOIN.task < DISTINCT.task);
            assert!(DISTINCT.task < SCAN.task);
            assert!(SKYLINE.master < TOPN.master);
        }
        // A DISTINCT over several columns costs as one over one.
        let multi = Query::DistinctMulti {
            table: "t".into(),
            columns: vec!["k".into(), "v".into()],
        };
        assert_eq!(rates(&multi), DISTINCT);
    }

    #[test]
    fn breakdown_totals() {
        let b = TimingBreakdown {
            computation_s: 1.0,
            network_s: 2.0,
            other_s: 0.5,
        };
        assert!((b.total_s() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn table3_switch_dominates() {
        let switch = HARDWARE_COMPARISON.last().unwrap();
        for hw in &HARDWARE_COMPARISON[..4] {
            assert!(switch.throughput_gbps.0 > hw.throughput_gbps.1 * 10.0);
            assert!(switch.latency_us.1 <= hw.latency_us.0);
        }
    }
}
