//! The completion-time model and hardware envelopes.
//!
//! No Tofino testbed exists here, so *times* are modeled while *results
//! and pruning rates* are computed for real. The model's
//! constants come from the paper where quoted — 5 workers, 10G/20G NIC
//! caps, ~10–12 Mpps CWorker serialization at one entry per 64 B minimum
//! frame (§7.1), sub-millisecond rule installation (§3), Spark first-run
//! JIT/indexing penalties (§8.2.2) — and are otherwise chosen so the
//! *relative* shapes of Figures 5–9 hold; absolute seconds are not claims.

/// Conservative worker-task fallback rate for query kinds the model has
/// never been calibrated on: the SKYLINE floor, the slowest calibrated
/// kind. An unknown shape costs as the worst known one, so a planner
/// degrades to a pessimistic estimate instead of aborting.
pub const FALLBACK_TASK_RATE: f64 = 0.35e6;

/// Conservative master-completion fallback rate for unknown query kinds
/// (the SKYLINE floor — see [`FALLBACK_TASK_RATE`]).
pub const FALLBACK_MASTER_RATE: f64 = 0.4e6;

/// Per-query-kind processing rates (rows per second per worker).
///
/// Spark worker tasks are the computational bottleneck the paper
/// offloads; rates order the query kinds by their per-row cost
/// (SKYLINE ≫ JOIN ≫ DISTINCT/GROUP BY ≫ TOP N ≫ scans).
///
/// `None` for kinds the model was never calibrated on — callers on the
/// planning path fall back to [`FALLBACK_TASK_RATE`] rather than
/// aborting the query.
pub fn spark_task_rate(kind: &str) -> Option<f64> {
    match kind {
        "filter-count" | "filter" => Some(8.0e6),
        "distinct" => Some(1.8e6),
        "topn" => Some(3.0e6),
        "groupby" => Some(2.2e6),
        "having" => Some(2.5e6),
        "join" => Some(1.2e6),
        "skyline" => Some(0.35e6),
        _ => None,
    }
}

/// Master-side completion rates (entries per second) for the pruned
/// stream — the Figure 9 service rates ("TOP N … processes millions of
/// entries per second; SKYLINE is computationally expensive").
///
/// `None` for uncalibrated kinds; see [`FALLBACK_MASTER_RATE`].
pub fn master_rate(kind: &str) -> Option<f64> {
    match kind {
        "filter-count" | "filter" => Some(20.0e6),
        "distinct" => Some(8.0e6),
        "topn" => Some(10.0e6),
        "groupby" => Some(6.0e6),
        "having" => Some(6.0e6),
        "join" => Some(4.0e6),
        "skyline" => Some(0.4e6),
        _ => None,
    }
}

/// Cluster and network parameters shared by both executors.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Workers (the paper's testbed has five).
    pub workers: usize,
    /// NIC cap in Gbit/s (the paper restricts to 10 and 20).
    pub nic_gbps: f64,
    /// Achievable packets/s per Gbit/s of NIC (the paper observes
    /// ~10 Mpps ≈ 5.1 Gbps of minimum-size frames at a 10G cap).
    pub pps_per_gbps: f64,
    /// CWorker CPU serialization ceiling (§7.1: ≈12 Mpps).
    pub serialize_cpu_pps: f64,
    /// Spark job scheduling/dispatch overhead per query (s).
    pub spark_overhead_s: f64,
    /// Cheetah job setup (CWorker startup + control messages) (s).
    pub cheetah_setup_s: f64,
    /// Switch rule installation (§3: "less than 1 ms").
    pub rule_install_s: f64,
    /// Spark first-run penalty (JIT + indexing, §8.2.2).
    pub first_run_factor: f64,
    /// Compressed shuffle bytes per partial entry (Spark packs + zips).
    pub shuffle_bytes_per_entry: f64,
    /// Bytes per fetched row during late materialization (compressed).
    pub fetch_bytes_per_row: f64,
    /// Row-count multiplier applied inside the timing model only, letting
    /// scaled-down data report paper-scale times (pruning fractions are
    /// measured, then extrapolated linearly).
    pub model_scale: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            workers: 5,
            nic_gbps: 10.0,
            pps_per_gbps: 0.45e6,
            serialize_cpu_pps: 12.0e6,
            spark_overhead_s: 0.6,
            cheetah_setup_s: 0.4,
            rule_install_s: 0.001,
            first_run_factor: 1.8,
            shuffle_bytes_per_entry: 8.0,
            fetch_bytes_per_row: 64.0,
            model_scale: 1.0,
        }
    }
}

impl CostModel {
    /// Entry send rate per worker: min(CPU serialization, NIC pps).
    pub fn worker_pps(&self) -> f64 {
        self.serialize_cpu_pps
            .min(self.pps_per_gbps * self.nic_gbps)
    }

    /// Time to move `bytes` over the NIC.
    pub fn transfer_s(&self, bytes: f64) -> f64 {
        bytes * 8.0 / (self.nic_gbps * 1e9)
    }

    /// Scale a row count into the model's units.
    pub fn scaled(&self, rows: u64) -> f64 {
        rows as f64 * self.model_scale
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

/// Table 3: server / GPU / FPGA / SmartNIC / Tofino v2 envelopes.
pub const HARDWARE_COMPARISON: [HardwareEnvelope; 5] = [
    HardwareEnvelope {
        name: "Server",
        throughput_gbps: (10.0, 100.0),
        latency_us: (10.0, 100.0),
    },
    HardwareEnvelope {
        name: "GPU",
        throughput_gbps: (40.0, 120.0),
        latency_us: (8.0, 25.0),
    },
    HardwareEnvelope {
        name: "FPGA",
        throughput_gbps: (10.0, 100.0),
        latency_us: (10.0, 10.0),
    },
    HardwareEnvelope {
        name: "SmartNIC",
        throughput_gbps: (10.0, 100.0),
        latency_us: (5.0, 10.0),
    },
    HardwareEnvelope {
        name: "Tofino V2",
        throughput_gbps: (12_800.0, 12_800.0),
        latency_us: (0.0, 1.0),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_pps_respects_both_ceilings() {
        let m = CostModel::default();
        // 10G: NIC-limited (4.5 Mpps < 12 Mpps CPU).
        assert!((m.worker_pps() - 4.5e6).abs() < 1.0);
        let m = CostModel {
            nic_gbps: 40.0,
            ..CostModel::default()
        };
        // 40G: CPU-limited.
        assert!((m.worker_pps() - 12.0e6).abs() < 1.0);
    }

    #[test]
    fn doubling_nic_halves_network_time() {
        let m10 = CostModel::default();
        let m20 = CostModel {
            nic_gbps: 20.0,
            ..CostModel::default()
        };
        let t10 = 1.0e6 / m10.worker_pps();
        let t20 = 1.0e6 / m20.worker_pps();
        assert!((t10 / t20 - 2.0).abs() < 1e-9, "paper: ~2x at 20G");
    }

    #[test]
    fn rates_order_query_costs() {
        let task = |k| spark_task_rate(k).unwrap();
        assert!(task("skyline") < task("join"));
        assert!(task("join") < task("distinct"));
        assert!(task("distinct") < task("filter-count"));
        assert!(master_rate("skyline").unwrap() < master_rate("topn").unwrap());
    }

    #[test]
    fn unknown_kind_degrades_to_conservative_fallback() {
        assert_eq!(spark_task_rate("sort"), None);
        assert_eq!(master_rate("sort"), None);
        // The documented fallbacks are the slowest calibrated rates, so
        // an unknown kind is never costed optimistically.
        assert_eq!(spark_task_rate("skyline"), Some(FALLBACK_TASK_RATE));
        assert_eq!(master_rate("skyline"), Some(FALLBACK_MASTER_RATE));
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

    #[test]
    fn model_scale_multiplies() {
        let m = CostModel {
            model_scale: 10.0,
            ..CostModel::default()
        };
        assert_eq!(m.scaled(5), 50.0);
    }
}
