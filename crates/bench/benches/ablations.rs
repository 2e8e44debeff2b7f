//! Ablation benches for the paper's design choices: each
//! group compares the paper's chosen design against its alternatives on
//! identical streams, reporting both speed (criterion) and — via the
//! printed side-channel — the pruning quality the choice buys.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use cheetah_core::decision::PruneStats;
use cheetah_core::distinct::{CacheMatrix, EvictionPolicy};
use cheetah_core::fingerprint::Fingerprinter;
use cheetah_core::join::{BloomFilter, KeyFilter, RegisterBloomFilter};
use cheetah_core::params::topn_optimal_config;
use cheetah_core::skyline::{Heuristic, SkylinePruner};
use cheetah_core::topn::{DeterministicTopN, RandomizedTopN};
use cheetah_workloads::dist::{rng_for, Zipf};
use rand::Rng;

const N: usize = 100_000;

/// Ablation: LRU vs FIFO replacement in the DISTINCT matrix.
fn ablate_distinct_policy(c: &mut Criterion) {
    let zipf = Zipf::new(5_000, 1.0);
    let mut rng = rng_for(1, "ablate-distinct");
    let stream: Vec<u64> = (0..N).map(|_| zipf.sample(&mut rng) as u64 + 1).collect();
    let mut g = c.benchmark_group("ablate_distinct_policy");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(20);
    for (name, policy) in [("lru", EvictionPolicy::Lru), ("fifo", EvictionPolicy::Fifo)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut m = CacheMatrix::new(1024, 2, policy, 3);
                let mut stats = PruneStats::default();
                for &v in &stream {
                    stats.record(m.process(v));
                }
                black_box(stats.pruned)
            })
        });
    }
    g.finish();
}

/// Ablation: deterministic thresholds vs randomized matrix for TOP N.
fn ablate_topn(c: &mut Criterion) {
    let mut rng = rng_for(2, "ablate-topn");
    let stream: Vec<u64> = (0..N)
        .map(|_| {
            let exp = rng.gen_range(0..24u32);
            rng.gen_range(0..(1u64 << exp).max(2))
        })
        .collect();
    let mut g = c.benchmark_group("ablate_topn");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(20);
    g.bench_function("deterministic_w4", |b| {
        b.iter(|| {
            let mut p = DeterministicTopN::new(250, 4);
            let mut fwd = 0u64;
            for &v in &stream {
                fwd += u64::from(p.process(v).is_forward());
            }
            black_box(fwd)
        })
    });
    g.bench_function("randomized_4096x4", |b| {
        b.iter(|| {
            let mut p = RandomizedTopN::new(4096, 4, 0);
            let mut fwd = 0u64;
            for &v in &stream {
                fwd += u64::from(p.process(v).is_forward());
            }
            black_box(fwd)
        })
    });
    g.finish();
}

/// Ablation: skyline projection heuristics.
fn ablate_skyline(c: &mut Criterion) {
    let mut rng = rng_for(3, "ablate-skyline");
    // Mismatched ranges — the case Appendix D designs APH for.
    let pts: Vec<[u64; 2]> = (0..N / 2)
        .map(|_| [rng.gen_range(1..256u64), rng.gen_range(1..65_536u64)])
        .collect();
    let mut g = c.benchmark_group("ablate_skyline");
    g.throughput(Throughput::Elements((N / 2) as u64));
    g.sample_size(15);
    for (name, h) in [
        ("sum", Heuristic::Sum),
        ("product_exact", Heuristic::Product),
        ("aph", Heuristic::aph_default()),
        ("baseline_first_w", Heuristic::Baseline),
    ] {
        let pts = &pts;
        g.bench_function(name, move |b| {
            b.iter(|| {
                let mut p = SkylinePruner::new(2, 10, h.clone());
                let mut fwd = 0u64;
                for pt in pts {
                    fwd += u64::from(p.process(pt).is_forward());
                }
                black_box(fwd)
            })
        });
    }
    g.finish();
}

/// Ablation: classic Bloom filter vs the single-stage Register variant.
fn ablate_join(c: &mut Criterion) {
    let mut rng = rng_for(4, "ablate-join");
    let keys: Vec<u64> = (0..N).map(|_| rng.gen_range(1..=2_000_000u64)).collect();
    let probes: Vec<u64> = (0..N).map(|_| rng.gen_range(1..=4_000_000u64)).collect();
    let m_bits = 8 << 20;
    let mut g = c.benchmark_group("ablate_join_filter");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(20);
    g.bench_function("bloom_h3", |b| {
        b.iter(|| {
            let mut f = BloomFilter::new(m_bits, 3, 0);
            for &k in &keys {
                f.insert(k);
            }
            let mut hits = 0u64;
            for &p in &probes {
                hits += u64::from(f.contains(p));
            }
            black_box(hits)
        })
    });
    g.bench_function("register_bloom_h3", |b| {
        b.iter(|| {
            let mut f = RegisterBloomFilter::new(m_bits, 3, 0);
            for &k in &keys {
                f.insert(k);
            }
            let mut hits = 0u64;
            for &p in &probes {
                hits += u64::from(f.contains(p));
            }
            black_box(hits)
        })
    });
    g.finish();
}

/// Ablation: randomized TOP N matrix shape at a fixed cell budget —
/// validates that the Lambert-W `(d*, w*)` shape is the right spend.
fn ablate_matrix_shape(c: &mut Criterion) {
    let mut rng = rng_for(5, "ablate-shape");
    let stream: Vec<u64> = (0..N).map(|_| rng.gen()).collect();
    let (d_star, w_star) = topn_optimal_config(250, 1e-4).unwrap();
    let budget = d_star * w_star;
    let shapes = [
        ("lambert_optimal", d_star, w_star),
        ("wide_rows", budget / (2 * w_star), 2 * w_star),
        ("narrow_rows", budget / 2, 2),
    ];
    let mut g = c.benchmark_group("ablate_topn_matrix_shape");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(20);
    for (name, d, w) in shapes {
        let stream = &stream;
        g.bench_function(name, move |b| {
            b.iter(|| {
                let mut p = RandomizedTopN::new(d.max(1), w.max(1), 0);
                let mut fwd = 0u64;
                for &v in stream {
                    fwd += u64::from(p.process(v).is_forward());
                }
                black_box(fwd)
            })
        });
    }
    g.finish();
}

/// Ablation: fingerprint width vs hashing cost (collision rates are
/// covered by Theorem 4's tests; this measures the dataplane cost).
fn ablate_fingerprint(c: &mut Criterion) {
    let mut rng = rng_for(6, "ablate-fp");
    let keys: Vec<u64> = (0..N).map(|_| rng.gen()).collect();
    let mut g = c.benchmark_group("ablate_fingerprint_width");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(20);
    for bits in [16u32, 32, 64] {
        let f = Fingerprinter::new(7, bits);
        g.bench_function(format!("fp_{bits}b"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &k in &keys {
                    acc ^= f.fp(k);
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

/// Ablation: §9 multi-entry packets — processing cost and pruning loss as
/// the per-packet entry count grows (the packet-count saving is the
/// payoff; the skipped-entry forwarding is the price).
fn ablate_batching(c: &mut Criterion) {
    use cheetah_core::batch::{BatchedPruner, DistinctBatchAccess};
    use cheetah_core::distinct::DistinctPruner;
    let mut rng = rng_for(7, "ablate-batch");
    let stream: Vec<u64> = (0..N).map(|_| rng.gen_range(1..2_000u64)).collect();
    let mut g = c.benchmark_group("ablate_batching");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(20);
    for per_packet in [1usize, 2, 4, 8] {
        let stream = &stream;
        g.bench_function(format!("{per_packet}_entries_per_packet"), move |b| {
            b.iter(|| {
                let inner =
                    DistinctBatchAccess::new(DistinctPruner::new(512, 2, EvictionPolicy::Lru, 3));
                let mut batched = BatchedPruner::new(inner);
                for chunk in stream.chunks(per_packet) {
                    let entries: Vec<Vec<u64>> = chunk.iter().map(|&k| vec![k]).collect();
                    let refs: Vec<&[u64]> = entries.iter().map(|v| v.as_slice()).collect();
                    batched.process_packet(&refs);
                }
                black_box(batched.stats.packets)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablate_distinct_policy,
    ablate_topn,
    ablate_skyline,
    ablate_join,
    ablate_matrix_shape,
    ablate_fingerprint,
    ablate_batching
);
criterion_main!(benches);
