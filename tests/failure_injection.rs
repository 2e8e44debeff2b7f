//! Failure injection: §3's fault story — "If the switch fails, operators
//! can simply reboot the switch with empty states" — holds because
//! pruning state is *soft*: losing it only reduces the pruning rate. The
//! one exception is §6's SUM/COUNT partial aggregation, which holds real
//! data in registers and must drain before a reboot; these tests pin both
//! the guarantee and the exception.

use std::collections::{HashMap, HashSet};

use cheetah::core::distinct::{DistinctPruner, EvictionPolicy};
use cheetah::core::filter::{Atom, CmpOp, FilterPruner, Formula};
use cheetah::core::groupby::{Extremum, GroupByPruner, GroupBySumPruner, SumAction};
use cheetah::core::skyline::{Heuristic, SkylinePruner};
use cheetah::core::topn::DeterministicTopN;
use cheetah::core::RowPruner;
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::reference;
use cheetah::engine::{
    Agg, CostModel, DistributedExecutor, Executor, FailurePlan, Predicate, Query,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "common/fixture.rs"]
mod fixture;
use fixture::Lanes;

/// The fault suite's lanes: 79 keys of `t` and 80 of `s`, overlapping on
/// `40..80`.
const FAULT_LANES: Lanes = Lanes {
    k: 1..80,
    v: 1..9_000,
    w: 1..400,
    s_k: 40..120,
    x: 1..90,
    extremes: false,
};

/// Reboot (reset) the pruner at several points mid-stream; the master's
/// result must stay exact for every soft-state algorithm.
#[test]
fn distinct_survives_mid_stream_reboots() {
    let mut rng = StdRng::seed_from_u64(1);
    let stream: Vec<u64> = (0..30_000).map(|_| rng.gen_range(1..500u64)).collect();
    let truth: HashSet<u64> = stream.iter().copied().collect();
    let mut p = DistinctPruner::new(128, 2, EvictionPolicy::Lru, 3);
    let mut master = HashSet::new();
    for (i, &k) in stream.iter().enumerate() {
        if i % 7_000 == 3_500 {
            p.reset(); // switch reboot with empty state
        }
        if p.process(k).is_forward() {
            master.insert(k);
        }
    }
    assert_eq!(master, truth, "reboot must not lose distinct values");
}

#[test]
fn groupby_max_survives_mid_stream_reboots() {
    let mut rng = StdRng::seed_from_u64(2);
    let entries: Vec<(u64, u64)> = (0..30_000)
        .map(|_| (rng.gen_range(1..200u64), rng.gen_range(0..100_000u64)))
        .collect();
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for &(k, v) in &entries {
        let e = truth.entry(k).or_insert(0);
        *e = (*e).max(v);
    }
    let mut p = GroupByPruner::new(32, 4, Extremum::Max, 5);
    let mut master: HashMap<u64, u64> = HashMap::new();
    for (i, &(k, v)) in entries.iter().enumerate() {
        if i % 9_000 == 1_000 {
            RowPruner::reset(&mut p);
        }
        if p.process(k, v).is_forward() {
            let e = master.entry(k).or_insert(0);
            *e = (*e).max(v);
        }
    }
    assert_eq!(master, truth, "reboot must not lose maxima");
}

#[test]
fn det_topn_survives_mid_stream_reboots() {
    let mut rng = StdRng::seed_from_u64(3);
    let stream: Vec<u64> = (0..20_000)
        .map(|_| rng.gen_range(0..1_000_000u64))
        .collect();
    let n = 100usize;
    let mut p = DeterministicTopN::new(n as u64, 4);
    let mut forwarded: Vec<u64> = Vec::new();
    for (i, &v) in stream.iter().enumerate() {
        if i == 8_000 {
            RowPruner::reset(&mut p); // re-enters warm-up, forwards freely
        }
        if p.process(v).is_forward() {
            forwarded.push(v);
        }
    }
    let mut truth = stream.clone();
    truth.sort_unstable_by(|a, b| b.cmp(a));
    truth.truncate(n);
    forwarded.sort_unstable_by(|a, b| b.cmp(a));
    forwarded.truncate(n);
    assert_eq!(forwarded, truth, "reboot must not lose top-N entries");
}

#[test]
fn skyline_survives_mid_stream_reboots() {
    let mut rng = StdRng::seed_from_u64(4);
    let pts: Vec<Vec<u64>> = (0..8_000)
        .map(|_| vec![rng.gen_range(1..3_000u64), rng.gen_range(1..3_000u64)])
        .collect();
    let mut p = SkylinePruner::new(2, 8, Heuristic::aph_default());
    let mut survivors: Vec<Vec<u64>> = Vec::new();
    for (i, pt) in pts.iter().enumerate() {
        if i == 4_000 {
            RowPruner::reset(&mut p);
        }
        if p.process(pt).is_forward() {
            survivors.push(pt.clone());
        }
    }
    let frontier = |set: &[Vec<u64>]| -> HashSet<Vec<u64>> {
        use cheetah::core::skyline::dominates;
        set.iter()
            .filter(|p| !set.iter().any(|q| dominates(q, p)))
            .cloned()
            .collect()
    };
    assert_eq!(frontier(&survivors), frontier(&pts));
}

#[test]
fn filter_is_stateless_reboot_is_free() {
    let p = FilterPruner::new(vec![Atom::cmp(0, CmpOp::Gt, 100)], Formula::Atom(0)).unwrap();
    // Stateless: identical decisions forever, nothing to lose.
    assert!(p.process(&[200]).is_forward());
    assert!(p.process(&[50]).is_prune());
}

/// The documented exception: SUM partial aggregation holds hard state.
/// A reboot WITHOUT draining loses revenue; draining first is exact.
#[test]
fn groupby_sum_requires_drain_before_reboot() {
    let mut rng = StdRng::seed_from_u64(6);
    let entries: Vec<(u64, u64)> = (0..10_000)
        .map(|_| (rng.gen_range(1..100u64), rng.gen_range(1..1_000u64)))
        .collect();
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for &(k, v) in &entries {
        *truth.entry(k).or_insert(0) += v;
    }

    // Careless reboot at the midpoint: totals are silently wrong.
    let mut careless = GroupBySumPruner::new(16, 2, 1);
    let mut lost: HashMap<u64, u64> = HashMap::new();
    for (i, &(k, v)) in entries.iter().enumerate() {
        if i == 5_000 {
            // Reboot without drain: re-create the pruner, registers gone.
            careless = GroupBySumPruner::new(16, 2, 1);
        }
        if let SumAction::EvictAndForward { key, partial } = careless.process(k, v) {
            *lost.entry(key).or_insert(0) += partial;
        }
    }
    for (key, partial) in careless.drain() {
        *lost.entry(key).or_insert(0) += partial;
    }
    assert_ne!(
        lost, truth,
        "dropping accumulators must visibly corrupt sums"
    );

    // Drain-then-reboot: exact.
    let mut careful = GroupBySumPruner::new(16, 2, 1);
    let mut master: HashMap<u64, u64> = HashMap::new();
    for (i, &(k, v)) in entries.iter().enumerate() {
        if i == 5_000 {
            for (key, partial) in careful.drain() {
                *master.entry(key).or_insert(0) += partial;
            }
            careful = GroupBySumPruner::new(16, 2, 1);
        }
        if let SumAction::EvictAndForward { key, partial } = careful.process(k, v) {
            *master.entry(key).or_insert(0) += partial;
        }
    }
    for (key, partial) in careful.drain() {
        *master.entry(key).or_insert(0) += partial;
    }
    assert_eq!(
        master, truth,
        "drain-before-reboot must preserve exact sums"
    );
}

/// Reboots under the reliability protocol: workers re-synchronize via
/// retransmission because the switch starts expecting seq 0 again and
/// gap-drops everything until the stream's head is resent. (Real
/// deployments restart the query; this documents the failure mode.)
#[test]
fn protocol_seq_state_loss_is_detectable_not_silent() {
    use cheetah::net::wire::DataPacket;
    use cheetah::net::SwitchNode;
    let mut node = SwitchNode::transparent();
    for seq in 0..5u32 {
        let out = node.on_data(DataPacket {
            fid: 1,
            seq,
            values: vec![seq as u64],
        });
        assert!(out.to_master.is_some());
    }
    // "Reboot": fresh switch state.
    let mut node = SwitchNode::transparent();
    // In-flight packets past the head are gap-dropped, not misprocessed.
    let out = node.on_data(DataPacket {
        fid: 1,
        seq: 5,
        values: vec![5],
    });
    assert!(out.to_master.is_none(), "post-reboot gap must drop");
    assert!(out.to_worker.is_none(), "and not be acked");
    assert_eq!(node.gap_drops, 1);
}

// ---------------------------------------------------------------------------
// The same fault story, end-to-end through the DistributedExecutor: shards
// ship their phase outputs over the §7.2 wire protocol, faults are injected
// at the protocol layer AND at the shard layer, and results must still be
// bit-identical to the single-node reference oracle.
// ---------------------------------------------------------------------------

fn base_exec() -> CheetahExecutor {
    CheetahExecutor::new(CostModel::default(), PrunerConfig::default())
}

/// A shard worker crashing mid-phase is re-dispatched and the final
/// result stays bit-identical to the reference oracle.
#[test]
fn distributed_shard_crash_mid_phase_redispatches_and_stays_exact() {
    let db = fixture::random(3_000, &FAULT_LANES, 21);
    let q = Query::GroupBy {
        table: "t".into(),
        key: "k".into(),
        val: "v".into(),
        agg: Agg::Max,
    };
    let plan = FailurePlan {
        // Crash shard 0's transport worker almost immediately so the
        // session sees it even at zero loss, plus one compute crash.
        worker_crashes: vec![(0, 1)],
        compute_crashes: vec![1],
        seed: 101,
        ..FailurePlan::default()
    };
    let exec = DistributedExecutor::with_failure_plan(base_exec(), 3, plan);
    let report = exec.execute(&db, &q);
    assert_eq!(report.result, reference::evaluate(&db, &q));
    let res = report.resilience.expect("resilience telemetry");
    assert!(res.worker_crashes >= 1, "transport crash recorded");
    assert!(res.redispatches >= 2, "both crash kinds re-dispatched");
    assert!(!res.degraded, "recovery must not fall back");
}

/// The hash-sharded shapes under a compute crash: the key partition is
/// computed once per query and the re-dispatched shard streams the same
/// lanes again, so the result matches the reference and the processed
/// count equals the clean run's — a discarded first run leaking into the
/// stats, or a partition re-derived differently, would move it. (Pruned
/// counts race with the pool's arrival order and are not compared.)
#[test]
fn distributed_redispatch_reuses_the_key_partition() {
    let db = fixture::random(3_000, &FAULT_LANES, 24);
    let queries = [
        Query::Join {
            left: "t".into(),
            right: "s".into(),
            left_col: "k".into(),
            right_col: "k".into(),
        },
        Query::GroupBy {
            table: "t".into(),
            key: "k".into(),
            val: "v".into(),
            agg: Agg::Sum,
        },
    ];
    for q in &queries {
        let clean = DistributedExecutor::with_shards(base_exec(), 3).execute(&db, q);
        let plan = FailurePlan {
            compute_crashes: vec![1],
            seed: 104,
            ..FailurePlan::default()
        };
        let crashed = DistributedExecutor::with_failure_plan(base_exec(), 3, plan).execute(&db, q);
        assert_eq!(crashed.result, reference::evaluate(&db, q), "{}", q.kind());
        assert_eq!(
            crashed.prune_stats().processed,
            clean.prune_stats().processed,
            "{}",
            q.kind()
        );
        let res = crashed.resilience.expect("resilience telemetry");
        assert_eq!(res.redispatches, 1, "{}: shard 1 ran twice", q.kind());
        assert!(!res.degraded, "recovery must not fall back");
    }
}

/// A switch reboot between passes resumes with empty soft state (§3):
/// pruning-only state is lost, results stay exact; the §6 SUM registers
/// are drained first and the drain is visible in telemetry.
#[test]
fn distributed_switch_reboot_between_passes_resumes_soft_state() {
    let db = fixture::random(3_000, &FAULT_LANES, 22);

    // Soft state only: distinct pruner rebooted mid-stream on one shard.
    let q = Query::Distinct {
        table: "t".into(),
        column: "k".into(),
    };
    let plan = FailurePlan {
        shard_reboots: vec![(0, 400), (1, 900)],
        seed: 102,
        ..FailurePlan::default()
    };
    let exec = DistributedExecutor::with_failure_plan(base_exec(), 2, plan);
    let report = exec.execute(&db, &q);
    assert_eq!(report.result, reference::evaluate(&db, &q));
    let res = report.resilience.expect("resilience telemetry");
    assert!(res.shard_reboots >= 2, "both reboots recorded");
    assert_eq!(res.register_drains, 0, "soft state needs no drain");

    // Hard state: GROUP BY SUM must drain registers before rebooting.
    let q = Query::GroupBy {
        table: "t".into(),
        key: "k".into(),
        val: "v".into(),
        agg: Agg::Sum,
    };
    let plan = FailurePlan {
        shard_reboots: vec![(0, 500)],
        seed: 103,
        ..FailurePlan::default()
    };
    let exec = DistributedExecutor::with_failure_plan(base_exec(), 2, plan);
    let report = exec.execute(&db, &q);
    assert_eq!(report.result, reference::evaluate(&db, &q));
    let res = report.resilience.expect("resilience telemetry");
    assert!(res.shard_reboots >= 1, "reboot recorded");
    assert!(res.register_drains >= 1, "§6 drain before reboot recorded");
}

/// Lost FINs are recovered by the worker's FIN retransmission timer
/// (not a full session retry); the drops are visible in telemetry and
/// the result stays exact.
#[test]
fn distributed_fin_loss_is_retried_not_silent() {
    let db = fixture::random(3_000, &FAULT_LANES, 23);
    let q = Query::Filter {
        table: "t".into(),
        predicate: Predicate {
            columns: vec!["v".into(), "w".into()],
            atoms: vec![Atom::cmp(0, CmpOp::Lt, 600), Atom::cmp(1, CmpOp::Gt, 320)],
            formula: Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
        },
    };
    let plan = FailurePlan {
        drop_first_fins: 2,
        seed: 104,
        ..FailurePlan::default()
    };
    let exec = DistributedExecutor::with_failure_plan(base_exec(), 3, plan);
    let report = exec.execute(&db, &q);
    assert_eq!(report.result, reference::evaluate(&db, &q));
    let res = report.resilience.expect("resilience telemetry");
    assert!(res.fin_drops >= 2, "both FIN drops recorded");
    assert!(!res.degraded);
}

/// Chaos matrix: heavy loss + duplication + reordering + crashes +
/// reboots across every distributed query shape, still bit-identical to
/// the reference oracle. CI re-runs this across a seed × loss-rate
/// matrix via `FAULT_SEED` / `FAULT_LOSS_PCT`.
#[test]
fn distributed_results_bit_identical_to_reference_under_chaos() {
    let env_u64 = |name: &str, default: u64| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let fault_seed = env_u64("FAULT_SEED", 42);
    let loss_rate = env_u64("FAULT_LOSS_PCT", 20) as f64 / 100.0;
    let db = fixture::random(2_500, &FAULT_LANES, 24);
    let shapes: Vec<(&str, Query)> = vec![
        (
            "count",
            Query::FilterCount {
                table: "t".into(),
                predicate: Predicate {
                    columns: vec!["v".into()],
                    atoms: vec![Atom::cmp(0, CmpOp::Lt, 4500)],
                    formula: Formula::Atom(0),
                },
            },
        ),
        (
            "distinct",
            Query::Distinct {
                table: "t".into(),
                column: "k".into(),
            },
        ),
        (
            "topn",
            Query::TopN {
                table: "t".into(),
                order_by: "v".into(),
                n: 20,
            },
        ),
        (
            "groupby-sum",
            Query::GroupBy {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                agg: Agg::Sum,
            },
        ),
        (
            "join",
            Query::Join {
                left: "t".into(),
                right: "s".into(),
                left_col: "k".into(),
                right_col: "k".into(),
            },
        ),
    ];
    for (name, q) in shapes {
        let plan = FailurePlan {
            loss_rate,
            dup_rate: 0.05,
            reorder_rate: 0.05,
            seed: fault_seed,
            worker_crashes: vec![(0, 1)],
            switch_reboots: vec![5],
            drop_first_fins: 1,
            ..FailurePlan::default()
        };
        let exec = DistributedExecutor::with_failure_plan(base_exec(), 3, plan);
        let report = exec.execute(&db, &q);
        assert_eq!(
            report.result,
            reference::evaluate(&db, &q),
            "{name} diverged under chaos"
        );
        let res = report.resilience.expect("resilience telemetry");
        if loss_rate > 0.0 {
            assert!(res.losses > 0, "{name}: lossy wire shows losses");
        }
        assert!(res.ship_attempts >= 1, "{name}: shipping accounted");
        assert!(!res.degraded, "{name}: retry budget must suffice");
    }
}
