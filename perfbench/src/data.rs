//! The benchmark's inputs: tables built from the seed, the query lists of
//! each workload, and the checksum that pins them.
//!
//! The table-building code is the benchmark's own copy (not
//! `cheetah_bench::bigdata_db`), and [`PINS`] records what it produced at
//! the two reference seeds: an edit to a generator in `cheetah_workloads`
//! cannot silently change what a parent and a change are compared on.

use std::time::Instant;

use cheetah_core::filter::{Atom, CmpOp, Formula};
use cheetah_core::hash::mix64;
use cheetah_engine::{Agg, Database, Predicate, Query, Table};
use cheetah_workloads::bigdata::{Rankings, UserVisits, UserVisitsConfig};
use cheetah_workloads::stream::shuffled;
use cheetah_workloads::wide::{WideTable, WideTableConfig};

/// Table sizes of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub uv_rows: usize,
    pub rk_rows: usize,
    pub ua_distinct: usize,
    pub wide_rows: usize,
}

/// Lanes of the wide table; its queries name eight of them.
const WIDE_COLS: usize = 120;

/// Reference scale: 3.2 MB per `uservisits` lane, past L2 on the
/// reference host, so scans stream from memory as in the paper.
pub const FULL: Scale = Scale {
    uv_rows: 400_000,
    rk_rows: 80_000,
    ua_distinct: 2_000,
    wide_rows: 120_000,
};

/// `--smoke` scale: the whole harness in well under a second.
pub const SMOKE: Scale = Scale {
    uv_rows: 2_000,
    rk_rows: 400,
    ua_distinct: 50,
    wide_rows: 1_000,
};

/// Half of `uservisits.destURL` values exist in `rankings`.
const JOIN_MATCH_FRACTION: f64 = 0.5;

/// `(workload, seed, input checksum)` at [`FULL`] scale. A run at one of
/// these seeds whose inputs hash differently aborts.
pub const PINS: [(&str, u64, u64); 10] = [
    ("scan_det", 42, 0x628b_5d20_79d2_3ec1),
    ("scan_det", 7, 0xca79_3bcb_57d7_0087),
    ("low_prune_wide", 42, 0x47de_fbff_29da_726a),
    ("low_prune_wide", 7, 0x0db4_8989_c5cd_2fd7),
    ("pipelines", 42, 0x0735_fe64_2e5b_15fc),
    ("pipelines", 7, 0x47d3_c86a_d58b_89b7),
    ("serve_repeat", 42, 0x2b85_276e_b130_f211),
    ("serve_repeat", 7, 0x3aeb_00a8_e970_bc3f),
    ("serve_unique", 42, 0xfdf2_10ed_1e7b_b3d8),
    ("serve_unique", 7, 0x47fb_2312_aad0_a42b),
];

/// A built database plus how long generating and table-building took.
pub struct BuiltDb {
    pub db: Database,
    pub generate_s: f64,
    pub build_s: f64,
}

/// The scaled-down Big Data benchmark: `rankings` (4 lanes) and
/// `uservisits` (10 lanes).
pub fn bigdata_db(scale: Scale, seed: u64) -> BuiltDb {
    let t0 = Instant::now();
    let rk = Rankings::generate(scale.rk_rows, seed);
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: scale.uv_rows,
        ua_distinct: scale.ua_distinct,
        url_distinct: (scale.rk_rows as f64 / JOIN_MATCH_FRACTION) as usize,
        seed,
    });
    let generate_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut db = Database::new();
    let rank_shuffled = shuffled(&rk.page_rank, seed ^ 0x5ead);
    db.add(Table::new(
        "rankings",
        vec![
            ("pageURL", rk.page_url),
            ("pageRank", rk.page_rank),
            ("avgDuration", rk.avg_duration),
            ("pageRankShuffled", rank_shuffled),
        ],
    ));
    let source_prefix = uv.source_ip.iter().map(|ip| (ip >> 20) + 1).collect();
    db.add(Table::new(
        "uservisits",
        vec![
            ("destURL", uv.dest_url),
            ("adRevenue", uv.ad_revenue),
            ("languageCode", uv.language_code),
            ("userAgent", uv.user_agent),
            ("sourceIP", uv.source_ip),
            ("visitDate", uv.visit_date),
            ("countryCode", uv.country_code),
            ("searchWord", uv.search_word),
            ("duration", uv.duration),
            ("sourcePrefix", source_prefix),
        ],
    ));
    BuiltDb {
        db,
        generate_s,
        build_s: t1.elapsed().as_secs_f64(),
    }
}

/// One wide table named `wide`: `c000` uniform in 0..1000, `c001`
/// zipfian over 64 keys, every other lane near-unique.
pub fn wide_db(scale: Scale, seed: u64) -> BuiltDb {
    let t0 = Instant::now();
    let wt = WideTable::generate(WideTableConfig {
        rows: scale.wide_rows,
        cols: WIDE_COLS,
        seed,
    });
    let generate_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let names = wt.names;
    let pairs = names.iter().map(String::as_str).zip(wt.columns).collect();
    let mut db = Database::new();
    db.add(Table::new("wide", pairs));
    BuiltDb {
        db,
        generate_s,
        build_s: t1.elapsed().as_secs_f64(),
    }
}

fn uv_filter(columns: &[&str], atoms: Vec<Atom>, formula: Formula, fetch: bool) -> Query {
    let predicate = Predicate {
        columns: columns.iter().map(|c| (*c).to_string()).collect(),
        atoms,
        formula,
    };
    let table = "uservisits".to_string();
    if fetch {
        Query::Filter { table, predicate }
    } else {
        Query::FilterCount { table, predicate }
    }
}

fn revenue_or_duration(lt: u64, gt: u64) -> Query {
    uv_filter(
        &["adRevenue", "duration"],
        vec![Atom::cmp(0, CmpOp::Lt, lt), Atom::cmp(1, CmpOp::Gt, gt)],
        Formula::Or(vec![Formula::Atom(0), Formula::Atom(1)]),
        false,
    )
}

fn distinct(table: &str, column: &str) -> Query {
    Query::Distinct {
        table: table.into(),
        column: column.into(),
    }
}

fn distinct_multi(table: &str, columns: &[&str]) -> Query {
    Query::DistinctMulti {
        table: table.into(),
        columns: columns.iter().map(|c| (*c).to_string()).collect(),
    }
}

fn topn(order_by: &str, n: usize) -> Query {
    Query::TopN {
        table: "uservisits".into(),
        order_by: order_by.into(),
        n,
    }
}

fn groupby(table: &str, key: &str, val: &str, agg: Agg) -> Query {
    Query::GroupBy {
        table: table.into(),
        key: key.into(),
        val: val.into(),
        agg,
    }
}

fn having(key: &str, val: &str, threshold: u64) -> Query {
    Query::Having {
        table: "uservisits".into(),
        key: key.into(),
        val: val.into(),
        threshold,
    }
}

fn join() -> Query {
    Query::Join {
        left: "uservisits".into(),
        right: "rankings".into(),
        left_col: "destURL".into(),
        right_col: "pageURL".into(),
    }
}

/// `scan_det`: the ten shapes of the old snapshot's `queries[]` and
/// `multipass_queries()`, same columns and constants.
pub fn scan_det_queries() -> Vec<(&'static str, Query)> {
    vec![
        ("filter_count", revenue_or_duration(1_000, 5_000)),
        (
            "filter_fetch",
            uv_filter(
                &["adRevenue"],
                vec![Atom::cmp(0, CmpOp::Lt, 100)],
                Formula::Atom(0),
                true,
            ),
        ),
        ("distinct", distinct("uservisits", "userAgent")),
        (
            "distinct_multi",
            distinct_multi("uservisits", &["userAgent", "languageCode"]),
        ),
        ("topn", topn("adRevenue", 250)),
        (
            "groupby_max",
            groupby("uservisits", "userAgent", "adRevenue", Agg::Max),
        ),
        (
            "groupby_sum",
            groupby("uservisits", "sourcePrefix", "adRevenue", Agg::Sum),
        ),
        ("having", having("languageCode", "adRevenue", 2_000_000)),
        ("join", join()),
        (
            "skyline",
            Query::Skyline {
                table: "rankings".into(),
                columns: vec!["pageRankShuffled".into(), "avgDuration".into()],
            },
        ),
    ]
}

/// `pipelines`: the five shapes every threaded arm runs.
pub fn pipeline_queries() -> Vec<(&'static str, Query)> {
    let all = scan_det_queries();
    crate::manifest::S5
        .iter()
        .filter_map(|shape| all.iter().find(|(name, _)| name == shape).cloned())
        .collect()
}

/// `low_prune_wide`: shapes the switch can barely prune. `filter_fetch`
/// appears twice on purpose — the workload runs it under both fetch
/// projections.
pub fn wide_queries() -> Vec<(&'static str, Query)> {
    let fetch = Query::Filter {
        table: "wide".into(),
        predicate: Predicate {
            columns: vec!["c000".into(), "c001".into()],
            atoms: vec![Atom::cmp(0, CmpOp::Lt, 600), Atom::cmp(1, CmpOp::Le, 48)],
            formula: Formula::And(vec![Formula::Atom(0), Formula::Atom(1)]),
        },
    };
    vec![
        ("filter_fetch", fetch.clone()),
        ("filter_fetch_proj", fetch),
        (
            "distinct_multi",
            distinct_multi("wide", &["c002", "c003", "c004"]),
        ),
        ("groupby_max", groupby("wide", "c005", "c006", Agg::Max)),
        ("distinct", distinct("wide", "c007")),
    ]
}

/// Queries per served batch.
pub const BATCH: usize = 32;

/// `serve_repeat`: the old snapshot's six-query serving mix cycled to
/// [`BATCH`], so each fingerprint repeats five or six times.
pub fn repeat_batch() -> Vec<Query> {
    let mix = [
        revenue_or_duration(1_000, 5_000),
        distinct("uservisits", "userAgent"),
        topn("adRevenue", 250),
        groupby("uservisits", "userAgent", "adRevenue", Agg::Max),
        having("languageCode", "adRevenue", 2_000_000),
        join(),
    ];
    (0..BATCH).map(|i| mix[i % mix.len()].clone()).collect()
}

/// A tiny seeded generator for query constants (splitmix64).
struct Constants(u64);

impl Constants {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0) % bound
    }
}

/// `serve_unique`: the same shape proportions as [`repeat_batch`] with no
/// two queries alike. Columns cycle through the schema and constants
/// come from the seed; only one JOIN exists between the two tables, so
/// the other JOIN slots become HAVINGs on further keys.
pub fn unique_batch(seed: u64) -> Vec<Query> {
    const DISTINCT_COLS: [&str; 6] = [
        "userAgent",
        "languageCode",
        "countryCode",
        "searchWord",
        "visitDate",
        "sourcePrefix",
    ];
    const ORDER_COLS: [&str; 6] = [
        "adRevenue",
        "duration",
        "visitDate",
        "sourceIP",
        "searchWord",
        "destURL",
    ];
    const GROUPS: [(&str, &str); 6] = [
        ("userAgent", "adRevenue"),
        ("userAgent", "duration"),
        ("languageCode", "adRevenue"),
        ("countryCode", "duration"),
        ("searchWord", "adRevenue"),
        ("sourcePrefix", "duration"),
    ];
    const HAVINGS: [(&str, &str); 10] = [
        ("languageCode", "adRevenue"),
        ("countryCode", "adRevenue"),
        ("userAgent", "adRevenue"),
        ("searchWord", "adRevenue"),
        ("sourcePrefix", "adRevenue"),
        ("languageCode", "duration"),
        ("countryCode", "duration"),
        ("userAgent", "duration"),
        ("searchWord", "duration"),
        ("sourcePrefix", "duration"),
    ];
    let mut rng = Constants(seed ^ 0x5e27_e0b1);
    let mut joined = false;
    let mut havings = 0;
    (0..BATCH)
        .map(|i| {
            let nth = i / 6;
            match i % 6 {
                // Distinct constants per slot keep the predicates unalike
                // whatever the seed draws.
                0 => revenue_or_duration(
                    500 + 400 * nth as u64 + rng.below(300),
                    4_000 + 300 * nth as u64 + rng.below(200),
                ),
                1 => distinct("uservisits", DISTINCT_COLS[nth]),
                2 => topn(ORDER_COLS[nth], 100 + 25 * nth + rng.below(20) as usize),
                3 => {
                    let (key, val) = GROUPS[nth];
                    groupby("uservisits", key, val, Agg::Max)
                }
                5 if !joined => {
                    joined = true;
                    join()
                }
                _ => {
                    let (key, val) = HAVINGS[havings];
                    havings += 1;
                    having(
                        key,
                        val,
                        200_000 + 150_000 * havings as u64 + rng.below(100_000),
                    )
                }
            }
        })
        .collect()
}

/// Order-sensitive running hash behind [`input_checksum`].
struct InputHash(u64);

impl InputHash {
    fn word(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v).wrapping_add(0x9e37_79b9_7f4a_7c15);
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(u64::from(b)));
    }
}

/// Order-sensitive hash of every lane of every table (name order) and of
/// every query's debug rendering, in workload order.
pub fn input_checksum<'q>(db: &Database, queries: impl Iterator<Item = &'q Query>) -> u64 {
    let mut h = InputHash(0xcbf2_9ce4_8422_2325);
    for name in db.names() {
        let t = db.table(name);
        h.text(name);
        for (c, col_name) in t.schema().iter().enumerate() {
            h.text(col_name);
            t.col_at(c).iter().for_each(|&v| h.word(v));
        }
    }
    for q in queries {
        h.text(&format!("{q:?}"));
    }
    h.0
}

/// What [`PINS`] expects for this workload and seed, if pinned.
pub fn pinned(workload: &str, scale: Scale, seed: u64) -> Option<u64> {
    if scale != FULL {
        return None;
    }
    PINS.iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, sum)| sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_batch_repeats_no_query() {
        for seed in [42, 7, 0, u64::MAX] {
            let batch = unique_batch(seed);
            assert_eq!(batch.len(), BATCH);
            let mut seen: Vec<String> = batch.iter().map(|q| format!("{q:?}")).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), BATCH, "seed {seed}");
            let joins = batch
                .iter()
                .filter(|q| matches!(q, Query::Join { .. }))
                .count();
            assert_eq!(joins, 1);
        }
    }

    #[test]
    fn checksum_is_order_sensitive_and_seeded() {
        let a = bigdata_db(SMOKE, 42).db;
        let b = bigdata_db(SMOKE, 43).db;
        let qs = repeat_batch();
        let sum = |db: &Database, qs: &[Query]| input_checksum(db, qs.iter());
        assert_eq!(sum(&a, &qs), sum(&bigdata_db(SMOKE, 42).db, &qs));
        assert_ne!(sum(&a, &qs), sum(&b, &qs));
        let mut swapped = qs.clone();
        swapped.swap(0, 1);
        assert_ne!(sum(&a, &qs), sum(&a, &swapped));
    }
}
