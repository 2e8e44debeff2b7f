//! The one test fixture: the two-table database `t(k, v, w)`, `s(k, x)`
//! that every equivalence suite draws from, in its random and arithmetic
//! forms, one query of every shape over it, and the key-form axis that
//! decides whether bind runs the dense programs or the paper's hashed
//! ones (§4–§6: the DISTINCT matrix, the GROUP BY matrix, the register
//! Bloom JOIN, the Count-Min HAVING).
//!
//! The integration tests include it with
//! `#[path = "common/fixture.rs"] mod fixture;`, and the engine's unit
//! tests through the same `#[path]` from `crates/engine/src/lib.rs`, where
//! `extern crate self as cheetah_engine` makes the paths below resolve.

#![allow(dead_code)]

use std::ops::Range;

use cheetah_core::filter::{Atom, CmpOp, Formula};
use cheetah_engine::cheetah::PrunerConfig;
use cheetah_engine::{reference, Agg, Database, Predicate, Query, QueryResult, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where a database's key lanes lie, and so which program a key-indexed
/// query (DISTINCT, GROUP BY, HAVING, JOIN) binds: inside one stage's
/// dense array, or spread past any stage, where the hashed programs run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyForm {
    /// The keys as drawn: small key domains bind dense.
    Narrow,
    /// Every key shifted left by [`SPREAD`] bits (mod 2⁶⁴): for keys below
    /// 2²⁴, the same groups, duplicates and matches over ranges no stage
    /// holds, so every key lane of more than one value binds hashed.
    Spread,
}

/// The bits [`KeyForm::Spread`] shifts a key by.
pub const SPREAD: u32 = 40;

/// The key lanes of [`random`]'s and [`arithmetic`]'s tables: `t.k` and
/// `s.k`, which every key-indexed shape reads (DistinctMulti's `(k, w)`
/// binds hashed once `k` does).
pub const KEYS: &[&str] = &["k"];

impl KeyForm {
    /// Both forms, narrow first.
    pub const BOTH: [KeyForm; 2] = [KeyForm::Narrow, KeyForm::Spread];

    /// `v` in this form.
    pub fn value(self, v: u64) -> u64 {
        match self {
            KeyForm::Narrow => v,
            KeyForm::Spread => v << SPREAD,
        }
    }

    /// A lane's values in this form.
    pub fn lane(self, lane: &[u64]) -> Vec<u64> {
        lane.iter().map(|&v| self.value(v)).collect()
    }

    /// `db` with each lane named in `keys`, in every table, in this form.
    /// The other lanes stay as they are, so a filter, TOP N or SKYLINE
    /// selects alike in both forms, and GROUP BY and HAVING aggregate the
    /// same values against the same threshold.
    pub fn apply(self, db: Database, keys: &[&str]) -> Database {
        if self == KeyForm::Narrow {
            return db;
        }
        let mut spread = Database::new();
        for name in db.names() {
            let t = db.table(name);
            let lanes = t.schema().iter().enumerate().map(|(c, n)| {
                let lane = t.col_at(c);
                let lane = if keys.contains(&n.as_str()) {
                    self.lane(lane)
                } else {
                    lane.to_vec()
                };
                (n.as_str(), lane)
            });
            spread.add(Table::new(name, lanes.collect()));
        }
        spread
    }
}

/// `db` with a lane `twin` beside each `(table, lane, twin)` of `twins`:
/// `lane`'s values in [`KeyForm::Spread`], so a query over `twin` runs the
/// hashed programs while one over `lane` runs the dense ones.
pub fn with_spread_twins(mut db: Database, twins: &[(&str, &str, &str)]) -> Database {
    for &(table, lane, twin) in twins {
        let spread = KeyForm::Spread.lane(db.table(table).col(lane));
        db.table_mut(table).add_column(twin, spread);
    }
    db
}

/// The value ranges [`random`] draws each lane from.
#[derive(Debug, Clone)]
pub struct Lanes {
    /// `t.k`.
    pub k: Range<u64>,
    /// `t.v`.
    pub v: Range<u64>,
    /// `t.w`.
    pub w: Range<u64>,
    /// `s.k`.
    pub s_k: Range<u64>,
    /// `s.x`.
    pub x: Range<u64>,
    /// Whether each `t.v` is, with probability 1/20, one of [`EXTREMES`]
    /// instead.
    pub extremes: bool,
}

/// The values at the edges of the `u64` range a `t.v` draw can take.
pub const EXTREMES: [u64; 4] = [0, 1, u64::MAX - 1, u64::MAX / 2];

/// The shape matrix's lanes: 79 keys of `t` and 80 of `s`, overlapping on
/// `40..80`.
pub const SHAPE_LANES: Lanes = Lanes {
    k: 1..80,
    v: 1..10_000,
    w: 1..500,
    s_k: 40..120,
    x: 1..100,
    extremes: false,
};

/// Appendix B's lanes: 99 keys of `t` and 100 of `s`, overlapping on
/// `50..100`.
pub const APPENDIX_B_LANES: Lanes = Lanes {
    k: 1..100,
    v: 1..10_000,
    w: 1..500,
    s_k: 50..150,
    x: 1..100,
    extremes: false,
};

/// `t(k, v, w)` over `rows` rows and `s(k, x)` over `rows / 2`, drawn from
/// `lanes` by a generator seeded with `seed`, one lane after another in
/// that order.
pub fn random(rows: usize, lanes: &Lanes, seed: u64) -> Database {
    let rng = &mut StdRng::seed_from_u64(seed);
    let k = draw(rng, rows, &lanes.k);
    let v = (0..rows)
        .map(|_| {
            if lanes.extremes && rng.gen_bool(0.05) {
                EXTREMES[rng.gen_range(0..EXTREMES.len())]
            } else {
                rng.gen_range(lanes.v.clone())
            }
        })
        .collect();
    let w = draw(rng, rows, &lanes.w);
    let s_k = draw(rng, rows / 2, &lanes.s_k);
    let x = draw(rng, rows / 2, &lanes.x);
    tables([k, v, w], [s_k, x])
}

/// `n` values drawn uniformly from `range`.
fn draw(rng: &mut StdRng, n: usize, range: &Range<u64>) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(range.clone())).collect()
}

/// [`random`] over [`SHAPE_LANES`], its [`KEYS`] in `form`: the shape
/// matrix's database.
pub fn shape_db(form: KeyForm, rows: usize, seed: u64) -> Database {
    form.apply(random(rows, &SHAPE_LANES, seed), KEYS)
}

/// [`random`]'s arithmetic twin, with no generator state: `t.k = 7i mod
/// 83 + 1`, `t.v = 31i mod 9,973` and `t.w = 13i mod 499 + 1` over
/// `t_rows` rows, `s.k = 11i mod 140 + 40` and `s.x = 3i mod 97` over
/// `s_rows`, so the join keys overlap on `40..=83`.
pub fn arithmetic(t_rows: usize, s_rows: usize) -> Database {
    let lane = |rows: usize, f: fn(u64) -> u64| (0..rows as u64).map(f).collect();
    tables(
        [
            lane(t_rows, |i| i * 7 % 83 + 1),
            lane(t_rows, |i| i * 31 % 9_973),
            lane(t_rows, |i| i * 13 % 499 + 1),
        ],
        [
            lane(s_rows, |i| i * 11 % 140 + 40),
            lane(s_rows, |i| i * 3 % 97),
        ],
    )
}

/// `t(k, v, w)` and `s(k, x)` over explicit lanes.
pub fn tables([k, v, w]: [Vec<u64>; 3], [s_k, x]: [Vec<u64>; 2]) -> Database {
    let mut db = Database::new();
    db.add(Table::new("t", vec![("k", k), ("v", v), ("w", w)]));
    db.add(Table::new("s", vec![("k", s_k), ("x", x)]));
    db
}

/// The paper's running example: `ratings(name, taste, texture)` over
/// Pizza, Cheetos, Jello, Burger and Fries (names 1–5), and
/// `products(name, price, seller)`.
pub fn paper_example() -> Database {
    let mut db = Database::new();
    db.add(Table::new(
        "ratings",
        vec![
            ("name", vec![1, 2, 3, 4, 5]),
            ("taste", vec![7, 8, 9, 5, 3]),
            ("texture", vec![5, 6, 4, 7, 3]),
        ],
    ));
    db.add(Table::new(
        "products",
        vec![
            ("name", vec![4, 1, 6, 3]), // Burger Pizza Fries' Jello
            ("price", vec![4, 7, 2, 5]),
            ("seller", vec![10, 20, 10, 30]),
        ],
    ));
    db
}

/// One query of every shape over `t` and `s`, each labelled: a row filter
/// whose predicate reads `v` twice and a count filter that negates an
/// atom, each with an atom the switch cannot evaluate; DISTINCT over one
/// and two columns, TOP N, GROUP BY under each aggregate, HAVING at
/// 300,000, the JOIN and SKYLINE.
pub fn shapes() -> Vec<(&'static str, Query)> {
    shapes_at(300_000)
}

/// [`shapes`] with the HAVING at `threshold`: a suite sizes it to its
/// data, so that some keys qualify and some do not.
pub fn shapes_at(threshold: u64) -> Vec<(&'static str, Query)> {
    let group_by = |agg| Query::GroupBy {
        table: "t".into(),
        key: "k".into(),
        val: "v".into(),
        agg,
    };
    vec![
        (
            "filter-dup-col",
            Query::Filter {
                table: "t".into(),
                predicate: Predicate {
                    columns: vec!["v".into(), "w".into(), "v".into()],
                    atoms: vec![
                        Atom::cmp(0, CmpOp::Lt, 300),
                        Atom::unsupported(1, CmpOp::Gt, 450),
                        Atom::cmp(2, CmpOp::Gt, 9_000),
                    ],
                    formula: Formula::Or(vec![
                        Formula::And(vec![Formula::Atom(0), Formula::Atom(1)]),
                        Formula::Atom(2),
                    ]),
                },
            },
        ),
        (
            "filter-count",
            Query::FilterCount {
                table: "t".into(),
                predicate: Predicate {
                    columns: vec!["v".into(), "w".into()],
                    atoms: vec![
                        Atom::cmp(0, CmpOp::Lt, 5_000),
                        Atom::unsupported(1, CmpOp::Lt, 250),
                    ],
                    formula: Formula::And(vec![Formula::Atom(0), Formula::NotAtom(1)]),
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
            "distinct-multi",
            Query::DistinctMulti {
                table: "t".into(),
                columns: vec!["k".into(), "w".into()],
            },
        ),
        (
            "topn",
            Query::TopN {
                table: "t".into(),
                order_by: "v".into(),
                n: 50,
            },
        ),
        ("groupby-max", group_by(Agg::Max)),
        ("groupby-min", group_by(Agg::Min)),
        ("groupby-sum", group_by(Agg::Sum)),
        ("groupby-count", group_by(Agg::Count)),
        (
            "having",
            Query::Having {
                table: "t".into(),
                key: "k".into(),
                val: "v".into(),
                threshold,
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
        (
            "skyline",
            Query::Skyline {
                table: "t".into(),
                columns: vec!["v".into(), "w".into()],
            },
        ),
    ]
}

/// The query of [`shapes`] labelled `label`.
pub fn shape(label: &str) -> Query {
    let mut all = shapes().into_iter();
    all.find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("no shape {label}"))
        .1
}

/// How many of `queries` over `db` bind a key-indexed program in `form`'s
/// form under `cfg`: a dense one for [`KeyForm::Narrow`], a hashed one
/// for [`KeyForm::Spread`].
pub fn reached<'q>(
    form: KeyForm,
    db: &Database,
    queries: impl IntoIterator<Item = &'q Query>,
    cfg: &PrunerConfig,
) -> usize {
    let dense = form == KeyForm::Narrow;
    let binds = queries
        .into_iter()
        .map(|q| q.bind(db, cfg).ok()?.is_dense());
    binds.filter(|&d| d == Some(dense)).count()
}

/// Whether the HAVING of [`shapes_at`]`(threshold)` over `db` qualifies
/// some of `t.k`'s keys but not all: a threshold at which an arm that
/// dropped a qualifying key, or forwarded every key, would answer wrong.
pub fn having_splits(db: &Database, threshold: u64) -> bool {
    let q = shapes_at(threshold)
        .into_iter()
        .find(|(l, _)| *l == "having");
    let QueryResult::Keys(qualified) = reference::evaluate(db, &q.expect("a HAVING").1) else {
        unreachable!("a HAVING answers keys")
    };
    let keys: std::collections::HashSet<&u64> = db.table("t").col("k").iter().collect();
    !qualified.is_empty() && qualified.len() < keys.len()
}
