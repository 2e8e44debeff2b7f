//! Fingerprints for wide or multi-column keys (§5, Example 8).
//!
//! Switches parse a bounded number of bits per packet, so DISTINCT / JOIN /
//! GROUP BY queries over wide or multi-column keys cannot ship the raw key.
//! The CWorker instead sends a short hash — a *fingerprint*. Collisions are
//! harmless for JOIN (they only lower the pruning rate) but harmful for
//! DISTINCT (a collision can prune a never-seen value). Theorem 4 sizes the
//! fingerprint so that, with probability `1 − δ`, no two distinct values
//! that share a matrix *row* share a fingerprint — which is all DISTINCT
//! correctness needs.

use crate::hash::HashFn;
use crate::params::distinct_max_row_load;

/// Computes fixed-width fingerprints of switch entries.
///
/// Row selection and fingerprinting must use *independent* hash functions:
/// Theorem 4's analysis charges a collision only when two distinct values
/// land in the same row, which requires the row index not be a function of
/// the fingerprint.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    hash: HashFn,
    bits: u32,
}

impl Fingerprinter {
    /// A fingerprinter producing `bits`-wide fingerprints (1..=64).
    pub fn new(seed: u64, bits: u32) -> Self {
        assert!((1..=64).contains(&bits), "fingerprint width must be 1..=64");
        Fingerprinter {
            hash: HashFn::new(seed),
            bits,
        }
    }

    /// Fingerprint width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Fingerprint of a single 64-bit key.
    #[inline]
    pub fn fp(&self, key: u64) -> u64 {
        self.mask(self.hash.hash(key))
    }

    /// Fingerprint of a multi-column key.
    pub fn fp_words(&self, words: &[u64]) -> u64 {
        self.mask(self.hash.hash_words(words))
    }

    /// [`Self::fp_words`] of rows `rows` of a column set, one fingerprint
    /// per row into `out` (see [`HashFn::hash_columns`]).
    pub fn fp_columns(&self, cols: &[&[u64]], rows: std::ops::Range<usize>, out: &mut [u64]) {
        self.hash.hash_columns(cols, rows, out);
        if self.bits < 64 {
            out.iter_mut().for_each(|h| *h = self.mask(*h));
        }
    }

    /// Fingerprint of a variable-width (string) key.
    pub fn fp_bytes(&self, bytes: &[u8]) -> u64 {
        self.mask(self.hash.hash_bytes(bytes))
    }

    #[inline]
    fn mask(&self, h: u64) -> u64 {
        if self.bits == 64 {
            h
        } else {
            h & ((1u64 << self.bits) - 1)
        }
    }
}

/// Fingerprint width from Theorem 4/6: `f = ⌈log₂(d·M²/δ)⌉` bits, where `M`
/// is the maximum-row-load bound for `D` distinct values in `d` rows.
///
/// With `d = 1000` and `δ = 0.01%`, 64-bit fingerprints support 500M
/// distinct values regardless of the total data size — the paper's example,
/// pinned in the tests. The result does not depend on the matrix width `w`.
pub fn fingerprint_bits(distinct: u64, d: usize, delta: f64) -> u32 {
    let m = distinct_max_row_load(distinct, d, delta);
    let f = ((d as f64) * m * m / delta).log2().ceil();
    // Clamp into the representable range; wider than 64 means "infeasible
    // with 64-bit fingerprints", which we surface as 65 for callers to check.
    if f <= 1.0 {
        1
    } else if f > 64.0 {
        65
    } else {
        f as u32
    }
}

/// Largest number of distinct values supportable with `bits`-wide
/// fingerprints at `d` rows and failure budget `δ` (inverse of
/// [`fingerprint_bits`], found by binary search).
pub fn max_supported_distinct(bits: u32, d: usize, delta: f64) -> u64 {
    let mut lo = 1u64;
    let mut hi = u64::MAX / 4;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fingerprint_bits(mid, d, delta) <= bits {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_is_deterministic_and_masked() {
        let f = Fingerprinter::new(1, 16);
        assert_eq!(f.fp(12345), f.fp(12345));
        assert!(f.fp(12345) < (1 << 16));
        let f64b = Fingerprinter::new(1, 64);
        assert_eq!(f64b.fp(7), f64b.fp(7));
    }

    #[test]
    fn fp_words_and_bytes() {
        let f = Fingerprinter::new(2, 32);
        assert!(f.fp_words(&[1, 2, 3]) < (1 << 32));
        assert!(f.fp_bytes(b"userAgent=Mozilla") < (1 << 32));
        assert_ne!(f.fp_words(&[1, 2]), f.fp_words(&[2, 1]));
    }

    #[test]
    fn fp_columns_is_fp_words_of_every_row() {
        let (a, b) = ([1u64, 2, 3, 4], [9u64, 8, 7, 6]);
        for bits in [12, 64] {
            let f = Fingerprinter::new(3, bits);
            let mut out = [0u64; 3];
            f.fp_columns(&[&a, &b], 1..4, &mut out);
            let rows = [[2, 8], [3, 7], [4, 6]];
            assert_eq!(out, rows.map(|row| f.fp_words(&row)));
        }
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        Fingerprinter::new(0, 0);
    }

    #[test]
    fn paper_example_500m_distinct_fit_in_64_bits() {
        // d=1000, δ=0.01%: the paper says 64-bit fingerprints support "up
        // to 500M" distinct values. The exact 64-bit boundary of Theorem 4
        // is D = 4.9965×10⁸ — i.e. 500M to three significant figures.
        let bits = fingerprint_bits(499_000_000, 1000, 1e-4);
        assert!(
            bits <= 64,
            "paper: ~500M distinct @ d=1000, δ=1e-4 needs ≤64 bits, got {bits}"
        );
        // Just past the boundary it no longer fits.
        let bits = fingerprint_bits(510_000_000, 1000, 1e-4);
        assert!(bits > 64);
    }

    #[test]
    fn width_monotone_in_distinct() {
        let mut last = 0;
        for &d_count in &[1_000u64, 100_000, 10_000_000, 1_000_000_000] {
            let b = fingerprint_bits(d_count, 1000, 1e-4);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn width_decreases_with_more_rows() {
        let few_rows = fingerprint_bits(10_000_000, 100, 1e-4);
        let many_rows = fingerprint_bits(10_000_000, 100_000, 1e-4);
        assert!(
            many_rows <= few_rows,
            "more rows should not need wider fingerprints ({many_rows} vs {few_rows})"
        );
    }

    #[test]
    fn max_supported_is_inverse() {
        let d = 1000;
        let delta = 1e-4;
        let cap = max_supported_distinct(64, d, delta);
        // The paper's "up to 500M" example: the true boundary is ≈4.997e8.
        assert!(
            (490_000_000..510_000_000).contains(&cap),
            "cap {cap} should be ~500M"
        );
        assert!(fingerprint_bits(cap, d, delta) <= 64);
        assert!(fingerprint_bits(cap + cap / 2, d, delta) > 64);
    }

    #[test]
    fn collision_rate_matches_width() {
        // Empirical: 12-bit fingerprints over 4096 values collide often;
        // 64-bit ones should not collide at this scale.
        let f12 = Fingerprinter::new(5, 12);
        let f64b = Fingerprinter::new(5, 64);
        let mut seen12 = std::collections::HashSet::new();
        let mut seen64 = std::collections::HashSet::new();
        let mut col12 = 0;
        let mut col64 = 0;
        for x in 0..4096u64 {
            if !seen12.insert(f12.fp(x)) {
                col12 += 1;
            }
            if !seen64.insert(f64b.fp(x)) {
                col64 += 1;
            }
        }
        assert!(col12 > 100, "12-bit fps should collide heavily: {col12}");
        assert_eq!(col64, 0, "64-bit fps should not collide at 4K scale");
    }
}
