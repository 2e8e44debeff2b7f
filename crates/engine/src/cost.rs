//! The cluster and network parameters of the completion-time model.
//!
//! The engine reads only [`CostModel::workers`]: how many workers, or pool
//! workers a shard, a query is split over. The experiment harness
//! (`cheetah_bench::cost`) prices an execution report's counters with the
//! rest, since no Tofino testbed exists here to time. The constants come
//! from the paper where quoted — 5 workers, 10G/20G NIC caps, ~10–12 Mpps
//! CWorker serialization at one entry per 64 B minimum frame (§7.1),
//! sub-millisecond rule installation (§3), Spark first-run JIT/indexing
//! penalties (§8.2.2) — and are otherwise chosen so the *relative* shapes
//! of Figures 5–9 hold; absolute seconds are not claims.

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
    fn model_scale_multiplies() {
        let m = CostModel {
            model_scale: 10.0,
            ..CostModel::default()
        };
        assert_eq!(m.scaled(5), 50.0);
    }
}
