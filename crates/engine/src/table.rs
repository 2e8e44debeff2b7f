//! Columnar tables and partitioning.
//!
//! All engine values are 64-bit integers: string columns arrive
//! dictionary-encoded from `cheetah-workloads` (the CWorker would
//! fingerprint wide columns anyway, §3), money is in cents, dates are day
//! numbers. Tables split into row-range partitions, one per worker, as in
//! the Spark setup of §8.2 (five workers, one partition each).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::stream::split_range;

/// A named, columnar, u64-typed table.
///
/// Column lanes are immutable once built and held by shared reference:
/// [`Table::clone`] and every [`crate::stream::EntryStream`] over the
/// table share them instead of copying, and [`Table::add_column`] only
/// ever appends a lane. A stream is therefore a *snapshot* — it keeps
/// streaming the lanes and row count it was built over whatever happens
/// to the table (or its name in a [`Database`]) afterwards.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Vec<String>,
    columns: Vec<Arc<Vec<u64>>>,
    /// Each lane's distinct count, beside it and shared with it by clones
    /// ([`Table::distinct_count`]).
    distinct: Vec<LaneStat<usize>>,
    /// Each lane's `[min, max]`, kept the same way ([`Table::domain`]).
    domain: Vec<LaneStat<Option<(u64, u64)>>>,
    rows: usize,
    epoch: u64,
}

/// A statistic of one lane, found on first use and shared by clones.
type LaneStat<T> = Arc<OnceLock<T>>;

impl Table {
    /// Build a table from `(column name, data)` pairs (all equal length).
    pub fn new(name: impl Into<String>, cols: Vec<(&str, Vec<u64>)>) -> Self {
        assert!(!cols.is_empty(), "a table needs at least one column");
        let rows = cols[0].1.len();
        assert!(cols.iter().all(|(_, c)| c.len() == rows), "ragged columns");
        Table {
            name: name.into(),
            schema: cols.iter().map(|(n, _)| (*n).to_string()).collect(),
            distinct: cols.iter().map(|_| Arc::default()).collect(),
            domain: cols.iter().map(|_| Arc::default()).collect(),
            columns: cols.into_iter().map(|(_, c)| Arc::new(c)).collect(),
            rows,
            epoch: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Modification epoch: 0 for a fresh table, bumped on every mutation
    /// (derived columns, replacement under the same name in a
    /// [`Database`]). Cross-query caches key on `(name, epoch)` so stale
    /// filter state can never be replayed against changed data.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Column names in order.
    pub fn schema(&self) -> &[String] {
        &self.schema
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name, `None` if the table has no such column.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.schema.iter().position(|c| c == name)
    }

    /// Index of a column by name; panics on unknown names.
    pub fn col_index(&self, name: &str) -> usize {
        self.position(name)
            .unwrap_or_else(|| panic!("no column '{name}' in table '{}'", self.name))
    }

    /// A column's data by name.
    pub fn col(&self, name: &str) -> &[u64] {
        &self.columns[self.col_index(name)]
    }

    /// A column's data by index.
    pub fn col_at(&self, idx: usize) -> &[u64] {
        &self.columns[idx]
    }

    /// A column's lane by index, to share rather than copy.
    pub(crate) fn lane(&self, idx: usize) -> Arc<Vec<u64>> {
        Arc::clone(&self.columns[idx])
    }

    /// The exact number of distinct values in lane `idx`, counted on first
    /// use (one sort of one copy of the lane) and kept beside the lane:
    /// clones share it, and an added lane or a replacement table brings its
    /// own, so no epoch can make it stale.
    pub(crate) fn distinct_count(&self, idx: usize) -> usize {
        *self.distinct[idx].get_or_init(|| {
            let mut values = self.columns[idx].to_vec();
            values.sort_unstable();
            values.dedup();
            values.len()
        })
    }

    /// Lane `idx`'s `(min, max)`, `None` for an empty lane: found on first
    /// use in one pass over the lane and kept beside it, as
    /// [`Table::distinct_count`] is.
    pub(crate) fn domain(&self, idx: usize) -> Option<(u64, u64)> {
        *self.domain[idx].get_or_init(|| {
            let lane = &self.columns[idx];
            let first = *lane.first()?;
            Some(
                lane.iter()
                    .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
            )
        })
    }

    /// One full row (across all columns), freshly allocated. Test-only
    /// convenience: row loops go through [`Table::row_into`] or
    /// [`Table::row_into_cols`], which reuse one buffer per loop.
    #[doc(hidden)]
    pub fn row(&self, r: usize) -> Vec<u64> {
        let mut buf = Vec::new();
        self.row_into(r, &mut buf);
        buf
    }

    /// Fill `buf` with row `r` across all columns, reusing its capacity,
    /// so a loop over `k` rows costs one buffer, not `k` allocations.
    ///
    /// # Examples
    ///
    /// ```
    /// use cheetah_engine::Table;
    ///
    /// let t = Table::new("t", vec![("a", vec![1, 2]), ("b", vec![10, 20])]);
    /// let mut buf = Vec::new();
    /// for rid in [1usize, 0] {
    ///     t.row_into(rid, &mut buf); // clears and refills, no realloc churn
    ///     assert_eq!(buf.len(), t.width());
    /// }
    /// assert_eq!(buf, vec![1, 10]);
    /// ```
    pub fn row_into(&self, r: usize, buf: &mut Vec<u64>) {
        buf.clear();
        buf.extend(self.columns.iter().map(|c| c[r]));
    }

    /// Fill `buf` with row `r` gathered over just the columns in `cols`
    /// (schema indices, caller order) — the projected form of
    /// [`Table::row_into`]. Passing every column index in schema order
    /// produces exactly the [`Table::row_into`] row. The §7.1 fetch no
    /// longer comes through here (the executors read the same lanes a
    /// block of rows at a time, lane by lane); this is the row-at-a-time
    /// definition that kernel is tested against.
    ///
    /// # Examples
    ///
    /// ```
    /// use cheetah_engine::Table;
    ///
    /// let t = Table::new("t", vec![("a", vec![1, 2]), ("b", vec![10, 20]), ("c", vec![7, 8])]);
    /// let mut buf = Vec::new();
    /// t.row_into_cols(1, &[0, 2], &mut buf); // skip the `b` lane entirely
    /// assert_eq!(buf, vec![2, 8]);
    /// ```
    pub fn row_into_cols(&self, r: usize, cols: &[usize], buf: &mut Vec<u64>) {
        buf.clear();
        buf.extend(cols.iter().map(|&c| self.columns[c][r]));
    }

    /// Append a derived column (e.g. the `sourceIP` prefix of Big Data B).
    pub fn add_column(&mut self, name: &str, data: Vec<u64>) {
        assert_eq!(data.len(), self.rows, "column length mismatch");
        self.schema.push(name.to_string());
        self.columns.push(Arc::new(data));
        self.distinct.push(Arc::default());
        self.domain.push(Arc::default());
        self.epoch += 1;
    }

    /// Row-range partition bounds for `p` workers: `p` near-equal spans.
    pub fn partition_bounds(&self, p: usize) -> Vec<(usize, usize)> {
        split_range(0, self.rows, p)
    }
}

/// A named collection of tables — what the planner resolves against.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Insert (or replace) a table under its own name. Replacing an
    /// existing table advances the incoming table's epoch past the old
    /// one's, so cached per-table state keyed on `(name, epoch)` is
    /// invalidated by the swap.
    pub fn add(&mut self, mut table: Table) {
        if let Some(old) = self.tables.get(table.name()) {
            table.epoch = table.epoch.max(old.epoch) + 1;
        }
        self.tables.insert(table.name().to_string(), table);
    }

    /// Look a table up, `None` if there is no such table.
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Look a table up; panics on unknown names.
    pub fn table(&self, name: &str) -> &Table {
        self.get(name)
            .unwrap_or_else(|| panic!("no table '{name}'"))
    }

    /// Mutable lookup (for derived columns).
    pub fn table_mut(&mut self, name: &str) -> &mut Table {
        self.tables
            .get_mut(name)
            .unwrap_or_else(|| panic!("no table '{name}'"))
    }

    /// Table names (sorted, for deterministic iteration).
    pub fn names(&self) -> Vec<&str> {
        let mut n: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        n.sort_unstable();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::hash::mix64;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn t() -> Table {
        Table::new(
            "t",
            vec![("a", vec![1, 2, 3, 4, 5]), ("b", vec![10, 20, 30, 40, 50])],
        )
    }

    #[test]
    fn basic_access() {
        let t = t();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.width(), 2);
        assert_eq!(t.col("b")[2], 30);
        assert_eq!(t.row(1), vec![2, 20]);
        assert_eq!(t.col_index("a"), 0);
        let mut buf = vec![99; 7];
        t.row_into(3, &mut buf);
        assert_eq!(buf, vec![4, 40], "row_into must clear and refill");
    }

    #[test]
    fn projected_row_gather() {
        let t = t();
        let mut buf = vec![99; 7];
        t.row_into_cols(2, &[1], &mut buf);
        assert_eq!(buf, vec![30], "row_into_cols must clear and refill");
        t.row_into_cols(2, &[1, 0, 1], &mut buf);
        assert_eq!(buf, vec![30, 3, 30], "caller order and repeats honored");
        t.row_into_cols(4, &[], &mut buf);
        assert_eq!(buf, Vec::<u64>::new(), "empty projection is legal");
        // Full projection in schema order reproduces row_into exactly.
        let mut full = Vec::new();
        t.row_into(1, &mut full);
        t.row_into_cols(1, &[0, 1], &mut buf);
        assert_eq!(buf, full);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn unknown_column_panics() {
        t().col("zzz");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rejected() {
        Table::new("bad", vec![("a", vec![1]), ("b", vec![1, 2])]);
    }

    #[test]
    fn partitions_cover_exactly() {
        let t = Table::new("t", vec![("a", (0..103u64).collect())]);
        for p in 1..=7 {
            let bounds = t.partition_bounds(p);
            assert_eq!(bounds.len(), p);
            assert_eq!(bounds[0].0, 0);
            assert_eq!(bounds[p - 1].1, 103);
            for w in bounds.windows(2) {
                assert_eq!(w[0].1, w[1].0, "gaps/overlaps");
            }
            // Near-equal sizes.
            let sizes: Vec<usize> = bounds.iter().map(|(s, e)| e - s).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn derived_column() {
        let mut t = t();
        assert_eq!(t.epoch(), 0);
        t.add_column("c", vec![0, 0, 1, 1, 0]);
        assert_eq!(t.width(), 3);
        assert_eq!(t.col("c")[3], 1);
        assert_eq!(t.epoch(), 1, "mutation must bump the epoch");
    }

    #[test]
    fn clone_shares_lanes_and_keeps_the_epoch() {
        let mut original = t();
        original.add_column("c", vec![0; 5]);
        let copy = original.clone();
        assert_eq!(copy.epoch(), 1);
        for c in 0..original.width() {
            assert!(
                std::ptr::eq(original.col_at(c), copy.col_at(c)),
                "column {c} was copied"
            );
        }
        // Appending to one leaves the other's lanes and schema alone.
        original.add_column("d", vec![1; 5]);
        assert_eq!((original.width(), copy.width()), (4, 3));
        assert!(std::ptr::eq(original.col_at(2), copy.col_at(2)));
    }

    #[test]
    fn replacement_advances_epoch() {
        let mut db = Database::new();
        db.add(t());
        assert_eq!(db.table("t").epoch(), 0);
        db.add(t()); // fresh table, same name: must not look unchanged
        assert_eq!(db.table("t").epoch(), 1);
        db.table_mut("t").add_column("c", vec![0; 5]);
        assert_eq!(db.table("t").epoch(), 2);
        db.add(t());
        assert_eq!(db.table("t").epoch(), 3, "always past the replaced epoch");
    }

    #[test]
    fn added_and_replacing_lanes_count_their_own_values() {
        let mut db = Database::new();
        db.add(t());
        let copy = db.table("t").clone();
        assert_eq!(copy.distinct_count(0), 5);
        assert_eq!(db.table("t").distinct[0].get(), Some(&5), "clones share it");
        db.table_mut("t").add_column("c", vec![0, 0, 1, 1, 0]);
        let t = db.table("t");
        assert_eq!((t.distinct_count(0), t.distinct_count(2)), (5, 2));
        // A replacement under the same name brings its own lanes and counts.
        db.add(Table::new("t", vec![("a", vec![7; 5])]));
        assert_eq!(db.table("t").distinct_count(0), 1);
        assert_eq!(copy.distinct_count(0), 5, "the old snapshot keeps its own");
    }

    #[test]
    fn added_and_replacing_lanes_find_their_own_domains() {
        let mut db = Database::new();
        db.add(t());
        let copy = db.table("t").clone();
        assert_eq!(copy.domain(1), Some((10, 50)));
        assert_eq!(
            db.table("t").domain[1].get(),
            Some(&Some((10, 50))),
            "clones share it"
        );
        db.table_mut("t").add_column("c", vec![9, 0, 4, 4, 2]);
        let t = db.table("t");
        assert_eq!((t.domain(0), t.domain(2)), (Some((1, 5)), Some((0, 9))));
        db.add(Table::new("t", vec![("a", vec![7; 5])]));
        assert_eq!(db.table("t").domain(0), Some((7, 7)));
        assert_eq!(
            copy.domain(0),
            Some((1, 5)),
            "the old snapshot keeps its own"
        );
        let empty = Table::new("e", vec![("a", Vec::new())]);
        assert_eq!(empty.domain(0), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The count is exact on empty, single-row, all-equal and random
        /// lanes over small and full-width domains.
        #[test]
        fn distinct_count_matches_a_brute_force_count(
            rows in 0usize..2_000,
            shape in 0usize..4,
            salt in any::<u64>(),
        ) {
            let domain = if salt.is_multiple_of(2) { 1 + salt % 300 } else { u64::MAX };
            let lane: Vec<u64> = match shape {
                0 => Vec::new(),
                1 => vec![salt],
                2 => vec![salt; rows],
                _ => (0..rows as u64).map(|i| mix64(salt ^ i) % domain).collect(),
            };
            let brute = lane.iter().collect::<HashSet<_>>().len();
            let t = Table::new("t", vec![("a", lane)]);
            prop_assert_eq!(t.distinct_count(0), brute);
        }

        /// The cached `(min, max)` is a brute-force scan's on empty,
        /// single-row, all-equal and random lanes, and `None` exactly on an
        /// empty lane; a clone shares the cached value.
        #[test]
        fn domain_matches_a_brute_force_scan(
            rows in 0usize..2_000,
            shape in 0usize..4,
            salt in any::<u64>(),
        ) {
            let domain = if salt.is_multiple_of(2) { 1 + salt % 300 } else { u64::MAX };
            let lane: Vec<u64> = match shape {
                0 => Vec::new(),
                1 => vec![salt],
                2 => vec![salt; rows],
                _ => (0..rows as u64).map(|i| mix64(salt ^ i) % domain).collect(),
            };
            let brute = lane.iter().min().copied().zip(lane.iter().max().copied());
            let t = Table::new("t", vec![("a", lane)]);
            let copy = t.clone();
            prop_assert_eq!(t.domain(0), brute);
            prop_assert_eq!(copy.domain[0].get(), Some(&brute));
        }
    }

    #[test]
    fn database_roundtrip() {
        let mut db = Database::new();
        db.add(t());
        assert_eq!(db.table("t").rows(), 5);
        db.table_mut("t").add_column("x", vec![0; 5]);
        assert_eq!(db.table("t").width(), 3);
        assert_eq!(db.names(), vec!["t"]);
    }
}
