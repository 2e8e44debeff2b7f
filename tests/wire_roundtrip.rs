//! Property tests for the distributed shard-output wire codec: every
//! [`ShardOutput`] variant must survive encode → §7.2 packetization →
//! reassembly → decode bit-identically, and decoding arbitrary garbage
//! must return an error — never panic, never over-allocate.

use proptest::collection::vec;
use proptest::prelude::*;

use cheetah::engine::distributed::{CodecError, ShardOutput};
use cheetah::net::wire::chunk_payload;

/// Encode, chop into ≤255-word §7.2 packets, reassemble, decode.
fn through_the_wire(v: &ShardOutput) -> Result<ShardOutput, CodecError> {
    let words = v.encode();
    let rejoined: Vec<u64> = chunk_payload(&words).into_iter().flatten().collect();
    assert_eq!(rejoined, words, "packetization must reassemble losslessly");
    ShardOutput::decode(&rejoined)
}

fn pairs_of(flat: &[u64]) -> Vec<(u64, u64)> {
    flat.chunks(2)
        .filter(|c| c.len() == 2)
        .map(|c| (c[0], c[1]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every variant round-trips bit-identically through packetization.
    #[test]
    fn every_shard_output_variant_round_trips(
        count in any::<u64>(),
        ids in vec(any::<u64>(), 0..300),
        checksum in any::<u64>(),
        values in vec(any::<u64>(), 0..300),
        width in 1u64..5,
        tuples in 0u64..40,
        flat_seed in vec(any::<u64>(), 0..160),
        pair_words in vec(any::<u64>(), 0..80),
        d in 1u64..5,
        w in 1u64..9,
        threshold in any::<u64>(),
        seed in any::<u64>(),
        cell_seed in vec(any::<u64>(), 0..40),
        join_pairs in any::<u64>(),
        join_checksum in any::<u64>(),
    ) {
        let flat: Vec<u64> = (0..width * tuples)
            .map(|i| flat_seed.get(i as usize % flat_seed.len().max(1)).copied().unwrap_or(i))
            .collect();
        let cells: Vec<u64> = (0..d * w)
            .map(|i| cell_seed.get(i as usize % cell_seed.len().max(1)).copied().unwrap_or(i))
            .collect();
        let variants = vec![
            ShardOutput::Count(count),
            ShardOutput::Rows {
                width: 3,
                ids: ids.clone(),
                flat: (0..ids.len() as u64 * 3).map(|i| i.wrapping_mul(seed)).collect(),
                checksum,
            },
            ShardOutput::Values(values.clone()),
            ShardOutput::TopCandidates(values),
            ShardOutput::Tuples { width, flat },
            ShardOutput::Extrema(pairs_of(&pair_words)),
            ShardOutput::SumDrain(pairs_of(&pair_words)),
            ShardOutput::Sketch { d, w, threshold, seed, counters: cells },
            ShardOutput::CandidateSums(pairs_of(&pair_words)),
            ShardOutput::JoinAgg { pairs: join_pairs, checksum: join_checksum },
        ];
        for v in variants {
            prop_assert_eq!(through_the_wire(&v), Ok(v.clone()));
        }
    }

    /// Decoding arbitrary garbage never panics and never succeeds by
    /// accident into allocating from a hostile length header.
    #[test]
    fn decoding_garbage_never_panics(garbage in vec(any::<u64>(), 0..64)) {
        // Any outcome is fine except a panic or an abort.
        let _ = ShardOutput::decode(&garbage);
        // Force hostile length headers explicitly: huge counts behind
        // every known tag must fail fast without allocating.
        for tag in 1u64..=11 {
            let hostile = [tag, u64::MAX, u64::MAX, u64::MAX, u64::MAX];
            prop_assert!(ShardOutput::decode(&hostile).is_err());
        }
    }

    /// Every strict prefix of a valid encoding is rejected (no silent
    /// partial decode), and the full encoding with trailing garbage is
    /// rejected too.
    #[test]
    fn truncation_and_trailing_garbage_are_rejected(
        ids in vec(any::<u64>(), 1..100),
        checksum in any::<u64>(),
        junk in any::<u64>(),
    ) {
        let flat: Vec<u64> = (0..ids.len() as u64 * 2).map(|i| i ^ junk).collect();
        let v = ShardOutput::Rows { width: 2, ids, flat, checksum };
        let words = v.encode();
        for cut in 0..words.len() {
            prop_assert_eq!(
                ShardOutput::decode(&words[..cut]),
                Err(CodecError::Truncated),
                "prefix of {} words must not decode", cut
            );
        }
        let mut extended = words;
        extended.push(junk);
        prop_assert_eq!(ShardOutput::decode(&extended), Err(CodecError::Trailing));
    }
}
