//! Shared workload setup and formatting for the experiment harness and
//! the criterion benches. The per-figure experiment logic itself lives in
//! [`experiments`]; `src/bin/experiments.rs` is a thin CLI over it. The
//! modeled clock ([`cost`], [`netaccel`], [`q3`]) lives here too.

pub mod cost;
pub mod experiments;
pub mod netaccel;
pub mod q3;

use cheetah_engine::{Database, Table};
use cheetah_workloads::bigdata::{Rankings, UserVisits, UserVisitsConfig};
use cheetah_workloads::stream::shuffled;

/// Standard scaled-down Big Data benchmark database.
///
/// `uv_rows`/`rk_rows` size the two tables; `join_match_fraction` controls
/// which fraction of `destURL`s exist in `rankings` (the paper's footnote
/// 10 uses ~10% for the JOIN evaluation).
pub fn bigdata_db(
    uv_rows: usize,
    rk_rows: usize,
    ua_distinct: usize,
    join_match_fraction: f64,
    seed: u64,
) -> Database {
    let rk = Rankings::generate(rk_rows, seed);
    let url_domain = (rk_rows as f64 / join_match_fraction.clamp(0.01, 1.0)) as usize;
    let uv = UserVisits::generate(UserVisitsConfig {
        rows: uv_rows,
        ua_distinct,
        url_distinct: url_domain,
        seed,
    });
    let mut db = Database::new();
    let mut rankings = Table::new(
        "rankings",
        vec![
            ("pageURL", rk.page_url.clone()),
            ("pageRank", rk.page_rank.clone()),
            ("avgDuration", rk.avg_duration.clone()),
        ],
    );
    rankings.add_column("pageRankShuffled", shuffled(&rk.page_rank, seed ^ 0x5ead));
    db.add(rankings);
    let mut visits = Table::new(
        "uservisits",
        vec![
            ("destURL", uv.dest_url.clone()),
            ("adRevenue", uv.ad_revenue.clone()),
            ("languageCode", uv.language_code.clone()),
            ("userAgent", uv.user_agent.clone()),
            ("sourceIP", uv.source_ip.clone()),
            ("visitDate", uv.visit_date.clone()),
            ("countryCode", uv.country_code.clone()),
            ("searchWord", uv.search_word.clone()),
            ("duration", uv.duration.clone()),
        ],
    );
    visits.add_column(
        "sourcePrefix",
        uv.source_ip.iter().map(|ip| (ip >> 20) + 1).collect(),
    );
    db.add(visits);
    db
}

/// Format an unpruned fraction the way the paper's log-scale plots read.
pub fn fmt_frac(f: f64) -> String {
    if f <= 0.0 {
        "0 (perfect)".to_string()
    } else if f >= 0.01 {
        format!("{f:.4}")
    } else {
        format!("{f:.2e}")
    }
}
