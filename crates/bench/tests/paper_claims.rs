//! The paper's claims, pinned as inequalities on the figures the
//! experiment harness renders.
//!
//! Figures 5–8's completion times are a model (`cheetah_bench::cost`)
//! priced from the counters real executions report. Whatever the model's
//! absolute seconds, the paper's claims are ratios between them. Figure
//! 9's blocking columns are a queueing model, and Figures 10–11 are prune
//! counts over seeded generators, deterministic on any host. Each test
//! below asserts one figure's caption — as the harness prints it — on the
//! series its builder returns, so a change to an executor's counters, the
//! model or a pruner that breaks a claim fails here. README's paper map
//! records where the printed caption restates the paper's.

use std::fmt::Debug;
use std::sync::OnceLock;

use cheetah_bench::cost;
use cheetah_bench::experiments::{self as exp, priced, Figure, Values, SIM_ENTRIES};
use cheetah_bench::netaccel::NetAccelModel;
use cheetah_bench::{bigdata_db, q3};
use cheetah_core::filter::{Atom, CmpOp, Formula};
use cheetah_core::groupby::Extremum::Max;
use cheetah_core::SwitchModel;
use cheetah_engine::backend::{groupby_spec, skyline_spec, spec};
use cheetah_engine::cheetah::{CheetahExecutor, PrunerConfig};
use cheetah_engine::{CostModel, Database, Executor, Predicate, Query, Table};
use cheetah_pisa::programs::SkylineScoring::{Aph, Sum};
use cheetah_pisa::programs::{
    BloomJoinProgram, DetTopNProgram, DistinctFifoProgram, DistinctLruProgram, FilterProgram,
    GroupByProgram, HavingProgram, RandTopNProgram, RbfJoinProgram, SkylineProgram,
};
use cheetah_pisa::{PipelineViolation, SwitchProgram};
use cheetah_workloads::tpch::TpchData;

/// One accessor per figure, each computing its figure once for every
/// test that reads it.
macro_rules! figures {
    ($($name:ident => $build:path),* $(,)?) => {$(
        fn $name() -> &'static Figure {
            static FIGURE: OnceLock<Figure> = OnceLock::new();
            FIGURE.get_or_init($build)
        }
    )*};
}

figures! {
    fig5 => exp::fig_5,
    fig6a => exp::fig_6a,
    fig7 => exp::fig_7,
    fig8 => exp::fig_8,
    fig9 => exp::fig_9,
    fig10a => exp::fig_10a,
    fig10b => exp::fig_10b,
    fig10c => exp::fig_10c,
    fig10d => exp::fig_10d,
    fig10e => exp::fig_10e,
    fig10f => exp::fig_10f,
    fig11a => exp::fig_11a,
    fig11b => exp::fig_11b,
    fig11c => exp::fig_11c,
    fig11d => exp::fig_11d,
    fig11e => exp::fig_11e,
    fig11f => exp::fig_11f,
}

/// The series `name` of `f`: unpruned fractions or seconds.
fn values<'f>(f: &'f Figure, name: &str) -> &'f [f64] {
    let series = f.series.iter().find(|s| s.name == name);
    match series.map(|s| &s.values) {
        Some(Values::Frac(v) | Values::Seconds(_, v)) => v,
        _ => panic!("{} has no real-valued series '{name}'", f.id),
    }
}

/// The index of `f`'s x label `label`.
fn at(f: &Figure, label: &str) -> usize {
    let at = f.x.1.iter().position(|l| l == label);
    at.unwrap_or_else(|| panic!("{} has no point '{label}'", f.id))
}

/// Every series of `f`, by name.
fn series(f: &Figure) -> impl Iterator<Item = (&str, &[f64])> {
    f.series
        .iter()
        .map(|s| (s.name.as_str(), values(f, &s.name)))
}

/// `v` never rises.
fn falls(v: &[f64]) -> bool {
    v.windows(2).all(|p| p[1] <= p[0])
}

/// `v` never falls.
fn rises(v: &[f64]) -> bool {
    v.windows(2).all(|p| p[1] >= p[0])
}

// ------------------------------------------------------------ table 2

/// The series `name` of `f`: counts or sizes in bits.
fn counts<'f>(f: &'f Figure, name: &str) -> &'f [u64] {
    let series = f.series.iter().find(|s| s.name == name);
    match series.map(|s| &s.values) {
        Some(Values::Count(v) | Values::Bits(v)) => v,
        _ => panic!("{} has no integer series '{name}'", f.id),
    }
}

/// The parameter `key` a Table 2 row label prints, `M=4MB` in bits.
fn param(label: &str, key: &str) -> usize {
    let at = label.find(&format!("{key}=")).map(|at| at + key.len() + 1);
    let rest = &label[at.unwrap_or_else(|| panic!("'{label}' prints no {key}"))..];
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    let n: usize = rest[..digits].parse().expect("a number");
    if rest[digits..].starts_with("MB") {
        n * (8 << 20)
    } else {
        n
    }
}

/// The stages a twin's metered pipeline occupies and the SRAM bits it
/// allocates.
fn metered(twin: Result<impl SwitchProgram, impl Debug>) -> (u32, u64) {
    let pipe = twin.expect("the twin fits");
    let pipe = pipe.pipeline();
    (pipe.stages_occupied(), pipe.sram_used().iter().sum())
}

/// Table 2 against the metered pipeline: every row's PISA twin, built at
/// the row's printed parameters on the envelope the engine builds it on,
/// occupies the printed stages and SRAM bits, but for the exact
/// differences README's paper map records. The `bind` charge tests reach
/// neither JOIN BF nor SKYLINE SUM, which the engine never builds, nor
/// TOP N Det at the printed N = 250, w = 4.
#[test]
fn table2_rows_are_what_their_pisa_twins_occupy() {
    let t2 = exp::table_2();
    let (stages, sram) = (counts(&t2, "stages"), counts(&t2, "SRAM"));
    assert_eq!(t2.x.1.len(), 11, "one twin per row");
    for (i, label) in t2.x.1.iter().enumerate() {
        let p = |key| param(label, key);
        let algorithm = label.split(" (").next().expect("a name").trim_end();
        // The twin's (stages, bits) and what it occupies past the row.
        let (twin, past): ((u32, u64), (i64, i64)) = match algorithm {
            // A cursor column beside the w keys of each row.
            "DISTINCT FIFO" => (
                metered(DistinctFifoProgram::new(spec(), p("d"), p("w"), 0)),
                (0, 64 * p("d") as i64),
            ),
            "DISTINCT LRU" => (
                metered(DistinctLruProgram::new(spec(), p("d"), p("w"), 0)),
                (0, 0),
            ),
            "SKYLINE SUM" => (
                metered(SkylineProgram::new(skyline_spec(), p("D"), p("w"), Sum)),
                (0, 0),
            ),
            // 2w + 1 stages, the log table's among them, and a log table
            // of 2¹⁶ − 1 entries.
            "SKYLINE APH" => (
                metered(SkylineProgram::new(
                    skyline_spec(),
                    p("D"),
                    p("w"),
                    Aph { frac_bits: 8 },
                )),
                (-2, -32),
            ),
            // A running-minimum register beside the w + 1.
            "TOP N Det" => (
                metered(DetTopNProgram::new(spec(), p("N") as u64, p("w"))),
                (0, 64),
            ),
            // A stage holding the sequence counter.
            "TOP N Rand" => (
                metered(RandTopNProgram::new(spec(), p("d"), p("w"), 0)),
                (1, 64),
            ),
            // One widened stage scanning w keys, w values and a cursor.
            "GROUP BY" => {
                let (d, w) = (p("d"), p("w"));
                (
                    metered(GroupByProgram::new(groupby_spec(w), d, w, Max, 0)),
                    (1 - w as i64, (w as i64 + 1) * d as i64 * 64),
                )
            }
            // A filter per side, each of its H segments rounded up to
            // whole words: at M = 4 MB, 64 bits more than a Tofino-like
            // stage holds, so the row is metered on the Tofino-2 envelope.
            "JOIN BF" => {
                let (m, h) = (p("M") as u64, p("H"));
                let segment = m.div_ceil(64 * h as u64) * 64;
                let third_segment = PipelineViolation::SramBudget {
                    stage: 0,
                    requested_bits: segment,
                    remaining_bits: segment - 64,
                };
                let on_tofino = BloomJoinProgram::new(spec(), m, h, 0, 1);
                assert_eq!(on_tofino.err(), Some(third_segment), "{label}");
                let deeper = SwitchModel::tofino2_like();
                (
                    metered(BloomJoinProgram::new(deeper, m, h, 0, 1)),
                    (0, m as i64 + 128),
                )
            }
            // A filter per side, each in its stage, and no pattern table:
            // the twin derives a key's pattern from its hash.
            "JOIN RBF" => {
                let (m, h) = (p("M") as u64, p("H") as u32);
                let patterns = 64u64.div_ceil(u64::from(h)) * 64;
                (
                    metered(RbfJoinProgram::new(spec(), m, m, h, 0, 1)),
                    (1, (m - patterns) as i64),
                )
            }
            "HAVING" => (
                metered(HavingProgram::new(spec(), p("d"), p("w"), 1, 0)),
                (0, 0),
            ),
            // The truth table looks the comparison up a stage later, in
            // one 17-bit match entry in place of a 32-bit constant.
            "Filtering" => {
                assert!(label.ends_with("(1 predicate)"), "{label}");
                let lt = vec![Atom::cmp(0, CmpOp::Lt, 1)];
                (
                    metered(FilterProgram::new(spec(), lt, &Formula::Atom(0))),
                    (1, -15),
                )
            }
            other => panic!("Table 2 row '{other}' has no twin"),
        };
        let printed = (stages[i] as i64, sram[i] as i64);
        let metered = (i64::from(twin.0), twin.1 as i64);
        assert_eq!(
            (metered.0 - printed.0, metered.1 - printed.1),
            past,
            "{label}: twin {metered:?} vs printed {printed:?}"
        );
    }
}

// ------------------------------------------------------------ figures 5–8

/// Figure 5: Cheetah beats Spark's first run on every query but Big Data
/// A, a cheap filter, where it stays within 1.3× of it (§8.2.1) — and on
/// the benchmark's HAVING, which the figure leaves out, too.
#[test]
fn cheetah_beats_spark_on_compute_heavy_queries() {
    let f = fig5();
    let (first, cheetah) = (values(f, "spark 1st"), values(f, "cheetah"));
    for (i, name) in f.x.1.iter().enumerate() {
        let bound = if name == "BigData A" { 1.3 } else { 1.0 };
        assert!(
            cheetah[i] < first[i] * bound,
            "[{name}] Cheetah {:.4}s against Spark's first run {:.4}s",
            cheetah[i],
            first[i]
        );
    }
    let having = Query::Having {
        table: "uservisits".into(),
        key: "languageCode".into(),
        val: "adRevenue".into(),
        threshold: 2_000_000,
    };
    let model = CostModel {
        model_scale: 100.0,
        ..CostModel::default()
    };
    let db = bigdata_db(317_000, 180_000, 2_000, 0.10, 5);
    let p = priced(model, &db, &having);
    assert!(p.cheetah.total_s() < p.spark_first.total_s(), "{p:?}");
}

/// Spark's first run pays the JIT/indexing penalty on every Figure 5
/// query (§8.2.2).
#[test]
fn first_run_slower_than_later() {
    let f = fig5();
    let (first, warm) = (values(f, "spark 1st"), values(f, "spark warm"));
    for (i, name) in f.x.1.iter().enumerate() {
        let (first, warm) = (first[i], warm[i]);
        assert!(first > warm, "[{name}] first run {first}s, warm {warm}s");
    }
}

/// Figure 6a: Spark's task time divides by the worker count.
#[test]
fn worker_count_divides_task_time() {
    let f = fig6a();
    let (task, compute) = (values(f, "spark task"), values(f, "spark compute"));
    for (workers, t) in (1..).zip(task) {
        let ratio = task[0] / t;
        assert!(
            (ratio - workers as f64).abs() < 1e-9 * workers as f64,
            "{workers} workers divide the task time by {ratio}"
        );
    }
    assert!(compute[0] > compute[4] * 3.0);
}

/// The database of the engine's own executor tests: 4,000 rows, 37 keys.
fn tiny_db() -> Database {
    let mut db = Database::new();
    db.add(Table::new(
        "t",
        vec![
            ("k", (0..4_000u64).map(|i| i % 37 + 1).collect()),
            ("v", (0..4_000u64).map(|i| i * 31 % 9_973).collect()),
        ],
    ));
    db
}

/// Figure 7: NetAccel's drain out of the dataplane registers exceeds
/// Cheetah's streamed delivery at every result size — and replacing
/// Cheetah's completion by the drain costs more on a large result.
#[test]
fn netaccel_drain_dominates_cheetah_completion_on_large_results() {
    let f = fig7();
    let (cheetah, netaccel) = (values(f, "cheetah"), values(f, "NetAccel (bound)"));
    for (i, pct) in f.x.1.iter().enumerate() {
        let (cheetah_s, netaccel_s) = (cheetah[i], netaccel[i]);
        assert!(
            netaccel_s > cheetah_s,
            "{pct}: {netaccel_s}s vs {cheetah_s}s"
        );
    }
    let db = tiny_db();
    let model = CostModel::default();
    // Filter with a wide-open predicate → large result to drain.
    let q = Query::Filter {
        table: "t".into(),
        predicate: Predicate {
            columns: vec!["v".into()],
            atoms: vec![Atom::cmp(0, CmpOp::Lt, u64::MAX)],
            formula: Formula::Atom(0),
        },
    };
    let c = Executor::execute(
        &CheetahExecutor::new(model, PrunerConfig::default()),
        &db,
        &q,
    );
    let streamed = cost::cheetah(&q, &c, &model).computation_s;
    let drained = cost::netaccel(&q, &c, &model, &NetAccelModel::default()).computation_s;
    assert!(
        drained > streamed,
        "register drain ({drained:.4}s) must cost more than streamed completion ({streamed:.4}s)"
    );
}

/// Figure 8: doubling the NIC from 10G to 20G halves Cheetah's network
/// time, and Spark's network time stays below its computation — the
/// network is not Spark's bottleneck (§8.2.3).
#[test]
fn network_rate_scales_timing() {
    let f = fig8();
    let (network, computation) = (values(f, "network"), values(f, "computation"));
    for name in ["Distinct", "Group-By"] {
        let at = |system: &str| at(f, &format!("{name} {system}"));
        let ratio = network[at("Cheetah 10G")] / network[at("Cheetah 20G")];
        assert!((ratio - 2.0).abs() < 1e-9, "[{name}] 10G/20G = {ratio}");
        let spark = at("Spark (warm)");
        assert!(
            network[spark] < computation[spark],
            "[{name}] Spark network {}s, computation {}s",
            network[spark],
            computation[spark]
        );
    }
}

/// Figure 5's TPC-H bar: offloading Q3's joins beats Spark's first run.
#[test]
fn cheetah_faster_than_spark_first_run() {
    let d = TpchData::generate(0.002, 42);
    let model = CostModel::default();
    let s = q3::spark(&d, &model, true);
    let c = q3::cheetah(&d, &model, 1 << 20, 3, 7);
    assert!(
        c.timing.total_s() < s.timing.total_s(),
        "cheetah {:.4}s vs spark {:.4}s",
        c.timing.total_s(),
        s.timing.total_s()
    );
}

// ------------------------------------------------------------ figure 9

/// Figure 9, "latency grows super-linearly in the unpruned rate": in each
/// modeled column the latency per unpruned percent never falls, nor does
/// the slope, and at 50% it is at least twice what it is at 5%.
#[test]
fn fig9_blocking_latency_grows_super_linearly() {
    let f = fig9();
    let pct = [5.0, 10.0, 20.0, 30.0, 40.0, 50.0];
    for name in ["topn mdl", "dist mdl", "gby mdl"] {
        let l = values(f, name);
        let per_pct: Vec<f64> = l.iter().zip(pct).map(|(l, p)| l / p).collect();
        let slope: Vec<f64> = (1..l.len())
            .map(|i| (l[i] - l[i - 1]) / (pct[i] - pct[i - 1]))
            .collect();
        // The linear stretch below the knee repeats to the last bit or so.
        let grows = |v: &[f64]| v.windows(2).all(|p| p[1] >= p[0] * (1.0 - 1e-12));
        assert!(grows(&per_pct), "{name}: latency per percent {per_pct:?}");
        assert!(grows(&slope), "{name}: slopes {slope:?}");
        assert!(per_pct[5] >= 2.0 * per_pct[0], "{name}: {per_pct:?}");
    }
}

// ------------------------------------------------------------ figure 10

/// Figure 10a, "4096×2 prunes ~all duplicates": at d = 4096 both LRU and
/// FIFO prune at least 99.5% of the entries OPT prunes.
#[test]
fn fig10a_4096_by_2_prunes_nearly_all_duplicates() {
    let f = fig10a();
    let i = at(f, "4096");
    let duplicates = 1.0 - values(f, "OPT")[i];
    for policy in ["LRU", "FIFO"] {
        let pruned = 1.0 - values(f, policy)[i];
        assert!(
            pruned >= 0.995 * duplicates,
            "{policy} prunes {pruned} of {duplicates}"
        );
    }
}

/// Figure 10b, restated (the paper: "APH ≥ Sum ≫ Baseline; APH perfect by
/// w = 20"): APH forwards within 3% of Sum or less at every w, both
/// forward at most a tenth of Baseline, and at w = 20 APH forwards at most
/// twice OPT — not OPT itself.
#[test]
fn fig10b_aph_tracks_sum_far_below_baseline_and_nears_opt_by_20() {
    let f = fig10b();
    let (aph, sum, baseline) = (values(f, "APH"), values(f, "Sum"), values(f, "Baseline"));
    for (i, w) in f.x.1.iter().enumerate() {
        assert!(
            aph[i] <= 1.03 * sum[i],
            "w = {w}: APH {} Sum {}",
            aph[i],
            sum[i]
        );
        for (name, v) in [("APH", aph[i]), ("Sum", sum[i])] {
            assert!(
                v * 10.0 <= baseline[i],
                "w = {w}: {name} {v}, Baseline {}",
                baseline[i]
            );
        }
    }
    let (i, opt) = (at(f, "20"), values(f, "OPT"));
    assert!(aph[i] <= 2.0 * opt[i], "APH {} OPT {}", aph[i], opt[i]);
    assert!(aph[i] > opt[i], "APH is perfect by w = 20 after all");
}

/// Figure 10c, restated (the paper: "randomized ≈ 5× optimal;
/// deterministic far weaker"): randomized forwards within 20× of OPT at
/// w = 2 and within 85× at every w; deterministic forwards at least 5×
/// randomized up to w = 6 and less than it at w = 12.
#[test]
fn fig10c_randomized_within_85x_of_opt_and_deterministic_weaker_to_w6() {
    let f = fig10c();
    let (det, rand, opt) = (values(f, "Det"), values(f, "Rand"), values(f, "OPT"));
    let i = at(f, "2");
    assert!(rand[i] <= 20.0 * opt[i], "Rand {} OPT {}", rand[i], opt[i]);
    for (i, w) in f.x.1.iter().enumerate() {
        assert!(
            rand[i] <= 85.0 * opt[i],
            "w = {w}: Rand {} OPT {}",
            rand[i],
            opt[i]
        );
    }
    for w in ["2", "4", "6"] {
        let i = at(f, w);
        assert!(
            det[i] >= 5.0 * rand[i],
            "w = {w}: Det {} Rand {}",
            det[i],
            rand[i]
        );
    }
    let i = at(f, "12");
    assert!(det[i] < rand[i], "w = 12: Det {} Rand {}", det[i], rand[i]);
}

/// Figure 10d, restated (the paper: "99% pruning with 3 stages, all with
/// 9"): w = 5 is the first width to forward at most 1%, and every width
/// from 6 forwards exactly what OPT does.
#[test]
fn fig10d_99_percent_from_5_stages_and_all_from_6() {
    let f = fig10d();
    let (groupby, opt) = (values(f, "GroupBy"), values(f, "OPT"));
    for (i, w) in f.x.1.iter().enumerate() {
        let w: usize = w.parse().expect("numeric width");
        assert_eq!(groupby[i] <= 0.01, w >= 5, "w = {w}: {}", groupby[i]);
        if w >= 6 {
            assert_eq!(groupby[i], opt[i], "w = {w}");
        }
    }
}

/// Figure 10e, "≥1MB for a good rate; BF ≈ RBF; near-OPT at 16MB": from
/// 1 MB both filters forward within 2.5× of OPT, below it at least 10×;
/// the two stay within 1.35× of each other; at 16 MB within 1% of OPT.
#[test]
fn fig10e_a_megabyte_filter_prunes_well_and_16mb_nears_opt() {
    let f = fig10e();
    let (bf, rbf, opt) = (values(f, "BF"), values(f, "RBF"), values(f, "OPT"));
    for (i, size) in f.x.1.iter().enumerate() {
        let kb: u64 = size.trim_end_matches(" KB").parse().expect("size in KB");
        for (name, v) in [("BF", bf[i]), ("RBF", rbf[i])] {
            let ratio = v / opt[i];
            let good = if kb >= 1024 {
                ratio <= 2.5
            } else {
                ratio >= 10.0
            };
            assert!(good, "{size}: {name} forwards {ratio}× OPT");
        }
        let apart = bf[i].max(rbf[i]) / bf[i].min(rbf[i]);
        assert!(apart <= 1.35, "{size}: BF {} RBF {}", bf[i], rbf[i]);
    }
    let i = at(f, "16384 KB");
    assert!(
        bf[i].max(rbf[i]) <= 1.01 * opt[i],
        "BF {} RBF {}",
        bf[i],
        rbf[i]
    );
}

/// Figure 10f, "near-perfect pruning at 1024 counters/row": at 1024
/// counters HAVING forwards at most 0.1% more than OPT.
#[test]
fn fig10f_1024_counters_prune_near_perfectly() {
    let f = fig10f();
    let i = at(f, "1024");
    let (having, opt) = (values(f, "Having")[i], values(f, "OPT")[i]);
    assert!(having <= opt + 1e-3, "Having {having} OPT {opt}");
}

// ------------------------------------------------------------ figure 11

/// Figure 11a, restated (the paper: "improves with scale: first
/// occurrences amortize"): from d = 1024 up, and for OPT, the fraction
/// forwarded never rises with scale; at d ≤ 256 the matrix thrashes and
/// the fraction stays within 1% of where it starts.
#[test]
fn fig11a_distinct_improves_with_scale_from_d_1024() {
    for (name, v) in series(fig11a()) {
        if name == "d=64" || name == "d=256" {
            let drift = v[v.len() - 1] / v[0] - 1.0;
            assert!(drift.abs() < 0.01, "{name}: {v:?}");
        } else {
            assert!(falls(v), "{name}: {v:?}");
        }
    }
}

/// Figure 11b, "smaller output fraction at scale ⇒ better pruning": every
/// APH width and OPT forward a fraction that never rises with scale.
#[test]
fn fig11b_skyline_improves_with_scale() {
    for (name, v) in series(fig11b()) {
        assert!(falls(v), "{name}: {v:?}");
    }
}

/// Figure 11c, Theorem 3's logarithmic dependence on m: a `d × w` matrix
/// forwards O(d·w·ln(m / d·w)) of m entries, so at each checkpoint m the
/// count forwarded is at most `ln(m / d·w) / ln(m₀ / d·w)` times the
/// count at the first checkpoint m₀ — against `m / m₀` for a constant
/// fraction. OPT keeps N = 250 candidates.
#[test]
fn fig11c_topn_forwards_grow_logarithmically() {
    let f = fig11c();
    let m: Vec<f64> = (1..=5)
        .map(|i| (SIM_ENTRIES as f64 * 0.2 * i as f64).round())
        .collect();
    for (name, v) in series(f) {
        let cells = match name.strip_prefix("w=") {
            Some(w) => 4096.0 * w.parse::<f64>().expect("numeric width"),
            None => 250.0,
        };
        let forwarded: Vec<f64> = v.iter().zip(&m).map(|(v, m)| v * m).collect();
        for i in 1..m.len() {
            let bound = (m[i] / cells).ln() / (m[0] / cells).ln();
            let grew = forwarded[i] / forwarded[0];
            assert!(
                grew <= bound,
                "{name} at {}: grew {grew}×, bound {bound}×",
                f.x.1[i]
            );
        }
    }
}

/// Figure 11d (no claim in the paper's caption; the printed one): every
/// width forwards a fraction that never rises with scale, and from w = 6
/// it is OPT's at every checkpoint.
#[test]
fn fig11d_groupby_improves_with_scale_and_matches_opt_from_w6() {
    let f = fig11d();
    let opt = values(f, "OPT");
    for (name, v) in series(f) {
        assert!(falls(v), "{name}: {v:?}");
        let w: usize = name
            .strip_prefix("w=")
            .map_or(0, |w| w.parse().expect("width"));
        if w >= 6 {
            assert_eq!(v, opt, "{name}");
        }
    }
}

/// Figure 11e, "false positives accumulate ⇒ degrades with scale": every
/// filter forwards a fraction that never falls with scale, and the two
/// smallest forward a growing excess over OPT.
#[test]
fn fig11e_join_degrades_with_scale() {
    let f = fig11e();
    let opt = values(f, "OPT");
    for (name, v) in series(f) {
        assert!(rises(v), "{name}: {v:?}");
        if name == "0.25MB" || name == "1MB" {
            let excess: Vec<f64> = v.iter().zip(opt).map(|(v, o)| v - o).collect();
            assert!(rises(&excess), "{name}: excess over OPT {excess:?}");
            assert!(excess[4] > excess[0], "{name}: excess over OPT {excess:?}");
        }
    }
}

/// Figure 11f, "Count-Min false positives grow with the data": no width
/// forwards a fraction that falls with scale, and the two narrowest end
/// above where they start.
#[test]
fn fig11f_having_false_positives_grow_with_the_data() {
    for (name, v) in series(fig11f()) {
        assert!(rises(v), "{name}: {v:?}");
        if name == "w=2^5" || name == "w=2^6" {
            assert!(v[v.len() - 1] > v[0], "{name}: {v:?}");
        }
    }
}
