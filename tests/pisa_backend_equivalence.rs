//! Full-stack check: the query engine produces identical results whether
//! the switch runs the unconstrained reference pruners or the metered
//! PISA pipeline programs — i.e. every evaluated query genuinely fits the
//! hardware model end to end.

use cheetah::engine::backend::SwitchBackend;
use cheetah::engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah::engine::reference;
use cheetah::engine::{
    CostModel, Database, Executor, Query, ShardedExecutor, Table, ThreadedExecutor,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "common/fixture.rs"]
mod fixture;
use fixture::{KeyForm, Lanes};

/// 120 keys of `t` from 0 and 140 of `s` from 60, overlapping on
/// `60..120`.
const LANES: Lanes = Lanes {
    k: 0..120,
    v: 1..50_000,
    w: 1..900,
    s_k: 60..200,
    x: 1..100,
    extremes: false,
};

/// The shapes' HAVING threshold: about one key in nine of [`LANES`]' 120
/// sums past it over 6,000 rows.
const HAVING_AT: u64 = 1_500_000;

/// The executors under `backend`, with join filters kept
/// segment-divisible and modest.
fn exec(backend: SwitchBackend) -> CheetahExecutor {
    let cfg = PrunerConfig {
        backend,
        join_m_bits: 3 * (1 << 16),
        ..PrunerConfig::default()
    };
    CheetahExecutor::new(CostModel::default(), cfg)
}

/// The shard programs under PISA too: every shape runs the metered
/// programs but §6's registers, which run the core pruner on either
/// backend.
fn pisa_arms() -> [Box<dyn Executor>; 2] {
    [
        Box::new(ThreadedExecutor::new(exec(SwitchBackend::Pisa))),
        Box::new(ShardedExecutor::with_shards(exec(SwitchBackend::Pisa), 2)),
    ]
}

/// Every shape of the fixture over `db` answers what the oracle answers on
/// both backends and on the pool arms under PISA, and where `db` holds no
/// `u64::MAX` key the two backends forward the same entries.
fn assert_backends_agree(db: &Database, at: &str, max_key: bool) {
    let (reference_exec, pisa_exec) = (exec(SwitchBackend::Reference), exec(SwitchBackend::Pisa));
    for (label, q) in fixture::shapes_at(HAVING_AT) {
        let truth = reference::evaluate(db, &q);
        let a = reference_exec.execute(db, &q);
        let b = pisa_exec.execute(db, &q);
        assert_eq!(
            a.result, truth,
            "[{label}] {at}: reference backend != oracle"
        );
        assert_eq!(b.result, truth, "[{label}] {at}: pisa backend != oracle");
        // The per-entry decisions are differential-tested at the backend
        // seam; here the same pruning must reach the master.
        if !max_key {
            assert_eq!(
                a.prune_stats().forwarded(),
                b.prune_stats().forwarded(),
                "[{label}] {at}: forwarded diverged"
            );
        }
        for arm in &pisa_arms() {
            let r = arm.execute(db, &q);
            let at = format!("[{label}] {at}: {} on pisa", arm.name());
            assert_eq!(r.result, truth, "{at} != oracle");
            assert_eq!(
                r.prune_stats().processed,
                a.prune_stats().processed,
                "{at}: processed diverged"
            );
        }
    }
}

#[test]
fn pisa_backend_matches_reference_backend_and_oracle() {
    let cfg = PrunerConfig::default();
    for form in KeyForm::BOTH {
        let db = form.apply(fixture::random(6_000, &LANES, 31), fixture::KEYS);
        assert!(fixture::having_splits(&db, HAVING_AT), "{form:?}");
        assert_backends_agree(&db, &format!("{form:?} keys"), false);
        let shapes = fixture::shapes_at(HAVING_AT);
        let queries = shapes.iter().map(|(_, q)| q);
        assert!(fixture::reached(form, &db, queries, &cfg) > 0, "{form:?}");
    }
}

/// A key lane holding 0 and `u64::MAX`: the PISA matrices keep `k + 1` in
/// a cell, 0 being the empty one, so `u64::MAX` is the one key they must
/// forward without touching state, and 0 a key like any other.
#[test]
fn zero_and_max_keys_are_answered_on_both_backends() {
    let keys = |rows: u64| -> Vec<u64> {
        let edge = |i: u64| [0, u64::MAX, u64::MAX - 1][i as usize % 3];
        (0..rows)
            .map(|i| {
                if i % 4 == 0 {
                    edge(i / 4)
                } else {
                    KeyForm::Spread.value(i % 37)
                }
            })
            .collect()
    };
    let lane = |rows: u64, m: u64| (0..rows).map(|i| i * 7 % m + 1).collect();
    let db = fixture::tables(
        [keys(3_000), lane(3_000, 9_973), lane(3_000, 499)],
        [keys(900), lane(900, 97)],
    );
    assert_backends_agree(&db, "keys 0 and u64::MAX", true);
}

#[test]
fn distinct_multi_uses_fingerprints_correctly() {
    // Many (k, w) combinations, few distinct — the fingerprint path must
    // prune hard and lose nothing at 64 bits.
    let mut rng = StdRng::seed_from_u64(32);
    let rows = 20_000;
    let mut db = Database::new();
    db.add(Table::new(
        "t",
        vec![
            ("a", (0..rows).map(|_| rng.gen_range(0..40u64)).collect()),
            ("b", (0..rows).map(|_| rng.gen_range(0..25u64)).collect()),
        ],
    ));
    let q = Query::DistinctMulti {
        table: "t".into(),
        columns: vec!["a".into(), "b".into()],
    };
    let truth = reference::evaluate(&db, &q);
    let exec = CheetahExecutor::new(CostModel::default(), PrunerConfig::default());
    let r = exec.execute(&db, &q);
    assert_eq!(r.result, truth);
    assert!(
        r.prune_stats().pruned_fraction() > 0.9,
        "≤1000 combinations over 20k rows should prune >90%, got {:.3}",
        r.prune_stats().pruned_fraction()
    );
}
