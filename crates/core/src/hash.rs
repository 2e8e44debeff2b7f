//! Seedable 64-bit hashing, modelled on the hash units of a PISA switch.
//!
//! Tofino-class switches expose a small number of hardware hash engines
//! (CRC-based) that programs use for row selection, Bloom-filter indices and
//! fingerprinting. We model them as a family of independent mixing functions
//! seeded by the control plane. The mixer is the SplitMix64 finalizer, which
//! has full avalanche — adequate for the balls-and-bins analyses the paper
//! relies on (Appendix C/E) and dependency-free.

/// SplitMix64 finalizer: a fast, full-avalanche 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// One seeded hash function, standing in for a switch hash engine.
///
/// Different seeds yield (empirically) independent functions; the Cheetah
/// algorithms use one engine for row selection, separate engines per
/// Bloom-filter/Count-Min row, and another for fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFn {
    seed: u64,
}

impl HashFn {
    /// Create a hash function with the given control-plane seed.
    pub fn new(seed: u64) -> Self {
        // Pre-mix the seed so that seeds 0,1,2,... are far apart.
        HashFn {
            seed: mix64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Hash a 64-bit value.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        mix64(x ^ self.seed)
    }

    /// Hash a multi-word value (e.g. a multi-column key) by chaining.
    pub fn hash_words(&self, words: &[u64]) -> u64 {
        let mut acc = self.seed;
        for &w in words {
            acc = mix64(acc ^ w).rotate_left(17);
        }
        mix64(acc)
    }

    /// [`Self::hash_words`] of rows `rows` of a column set, one hash per
    /// row into `out` (`out.len() == rows.len()`). The chain advances one
    /// column at a time across all the rows, so each lane is walked once
    /// and no row is ever gathered.
    pub fn hash_columns(&self, cols: &[&[u64]], rows: std::ops::Range<usize>, out: &mut [u64]) {
        debug_assert_eq!(out.len(), rows.len(), "one hash per row");
        out.fill(self.seed);
        for col in cols {
            for (acc, &w) in out.iter_mut().zip(&col[rows.clone()]) {
                *acc = mix64(*acc ^ w).rotate_left(17);
            }
        }
        for acc in out {
            *acc = mix64(*acc);
        }
    }

    /// Hash a byte string (variable-width columns) — FNV-1a folding into
    /// 64-bit lanes, finished with the mixer.
    pub fn hash_bytes(&self, data: &[u8]) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for &b in data {
            acc ^= u64::from(b);
            acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
        }
        mix64(acc)
    }

    /// Map a value uniformly into `0..n` (the matrix-row selector).
    ///
    /// Uses the multiply-shift range reduction, which is unbiased enough for
    /// our purposes and avoids the slow modulo on the hot path.
    #[inline]
    pub fn bucket(&self, x: u64, n: usize) -> usize {
        debug_assert!(n > 0, "bucket count must be positive");
        ((u128::from(self.hash(x)) * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), 42);
        assert_ne!(mix64(0), mix64(1));
    }

    #[test]
    fn different_seeds_differ() {
        let a = HashFn::new(0);
        let b = HashFn::new(1);
        let mut same = 0;
        for x in 0..1000u64 {
            if a.hash(x) == b.hash(x) {
                same += 1;
            }
        }
        assert_eq!(same, 0, "two seeds should behave independently");
    }

    #[test]
    fn bucket_in_range_and_roughly_uniform() {
        let h = HashFn::new(7);
        let n = 10;
        let mut counts = vec![0u32; n];
        for x in 0..10_000u64 {
            let b = h.bucket(x, n);
            assert!(b < n);
            counts[b] += 1;
        }
        // Each bucket expects ~1000; allow generous slack.
        for &c in &counts {
            assert!((700..1300).contains(&c), "skewed bucket count {c}");
        }
    }

    #[test]
    fn hash_words_order_sensitive() {
        let h = HashFn::new(3);
        assert_ne!(h.hash_words(&[1, 2]), h.hash_words(&[2, 1]));
        assert_eq!(h.hash_words(&[1, 2]), h.hash_words(&[1, 2]));
    }

    #[test]
    fn hash_columns_is_hash_words_of_every_row() {
        let h = HashFn::new(5);
        let a: Vec<u64> = (0..40).map(|i| i * 7 % 11).collect();
        let b: Vec<u64> = (0..40).map(|i| i * 13 % 5).collect();
        for cols in [&[&a[..], &b[..]][..], &[&b[..]][..], &[][..]] {
            let mut out = [0u64; 30];
            h.hash_columns(cols, 3..33, &mut out);
            for (i, &got) in out.iter().enumerate() {
                let row: Vec<u64> = cols.iter().map(|c| c[3 + i]).collect();
                assert_eq!(got, h.hash_words(&row), "row {i}");
            }
        }
    }

    #[test]
    fn hash_bytes_matches_length() {
        let h = HashFn::new(9);
        assert_ne!(h.hash_bytes(b"abc"), h.hash_bytes(b"abcd"));
        assert_eq!(h.hash_bytes(b"abc"), h.hash_bytes(b"abc"));
    }

    #[test]
    fn bucket_single_row() {
        let h = HashFn::new(11);
        for x in 0..100 {
            assert_eq!(h.bucket(x, 1), 0);
        }
    }
}
