//! Fuzz harness for the packed-key vs exact-key partition parity
//! contract (the exact path behind `SeqEmbedder::embed_exact_keys`).
//!
//! [`check_packed_vs_exact`] decodes an arbitrary byte string into a
//! hybrid-level geometry plus a batch of points and asserts, at the bit
//! level, that the allocation-free [`HybridLevel::assign_packed`] /
//! [`HybridLevel::absorb_assignment_into`] hot paths agree with the
//! materialized [`HybridLevel::assign`] exact path. Any disagreement
//! panics, which the fuzzer (and the corpus replay test in
//! `tests/fuzz_corpus.rs`) reports as a failure.
//!
//! The same function backs the `packed_vs_exact` cargo-fuzz target
//! (`fuzz/fuzz_targets/packed_vs_exact.rs`) and the in-tree corpus
//! replay, so tier-1 CI exercises every checked-in corpus entry even on
//! machines without a fuzzer toolchain.
//!
//! ## Input encoding
//!
//! | bytes    | meaning                                             |
//! |----------|-----------------------------------------------------|
//! | 0        | `r` (buckets), mapped to `1..=4`                    |
//! | 1        | `bucket_dim`, mapped to `1..=4`                     |
//! | 2..10    | geometry seed (little-endian `u64`)                 |
//! | 10..12   | ball radius `w`, `u16` mapped to `[0.5, 20.0]`      |
//! | 12..     | coordinates, `u16` pairs mapped to `[-50, 50]`      |
//!
//! Trailing bytes that do not complete a `dim`-dimensional point are
//! ignored; inputs shorter than the 12-byte header are skipped. The
//! ranges mirror the `packed_and_exact_keys_induce_identical_partitions`
//! proptest family, whose generator seeds the initial corpus.

use crate::hybrid::HybridLevel;
use crate::ids::StructuralHash;

/// Max points decoded per input: enough for all-pairs grouping checks,
/// small enough to keep per-exec cost flat.
const MAX_POINTS: usize = 16;

/// Decoded fuzz case: geometry plus point batch.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Bucket count `r` in `1..=4`.
    pub r: usize,
    /// Per-bucket dimension in `1..=4`.
    pub bucket_dim: usize,
    /// Geometry seed.
    pub seed: u64,
    /// Ball radius in `[0.5, 20.0]`.
    pub w: f64,
    /// Decoded points, each of dimension `r * bucket_dim`.
    pub points: Vec<Vec<f64>>,
}

/// Decodes a byte string per the module's input encoding, or `None` if
/// it is shorter than the header.
pub fn decode(data: &[u8]) -> Option<FuzzCase> {
    if data.len() < 12 {
        return None;
    }
    let r = (data[0] % 4) as usize + 1;
    let bucket_dim = (data[1] % 4) as usize + 1;
    let dim = r * bucket_dim;
    let seed = u64::from_le_bytes(data[2..10].try_into().unwrap());
    let wq = u16::from_le_bytes([data[10], data[11]]);
    let w = 0.5 + (f64::from(wq) / 65535.0) * 19.5;
    let mut coords = data[12..].chunks_exact(2).map(|b| {
        let v = u16::from_le_bytes([b[0], b[1]]);
        (f64::from(v) / 65535.0 - 0.5) * 100.0
    });
    let mut points = Vec::new();
    while points.len() < MAX_POINTS {
        let p: Vec<f64> = coords.by_ref().take(dim).collect();
        if p.len() < dim {
            break;
        }
        points.push(p);
    }
    Some(FuzzCase {
        r,
        bucket_dim,
        seed,
        w,
        points,
    })
}

/// The parity oracle: panics iff the packed hot paths disagree with the
/// exact path on the decoded case. Returns the number of points checked
/// (0 when the input is too short), so replay harnesses can assert the
/// corpus actually exercises the oracle.
pub fn check_packed_vs_exact(data: &[u8]) -> usize {
    let Some(case) = decode(data) else {
        return 0;
    };
    let dim = case.r * case.bucket_dim;
    let lvl = HybridLevel::new(dim, case.r, case.w, 40, case.seed);
    let exact: Vec<_> = case.points.iter().map(|p| lvl.assign(p)).collect();
    let packed: Vec<_> = case.points.iter().map(|p| lvl.assign_packed(p)).collect();
    for (i, (e, k)) in exact.iter().zip(&packed).enumerate() {
        // Covering decisions must agree exactly.
        assert_eq!(
            e.is_some(),
            k.is_some(),
            "point {i}: exact and packed disagree on coverage"
        );
        let (Some(e), Some(k)) = (e, k) else { continue };
        // The packed key's low lane IS the structural chain over the
        // exact assignment's token stream — bit-identical, not merely
        // collision-free.
        let chain = e.absorb_into(StructuralHash::root());
        assert_eq!(
            k.lo,
            chain.value(),
            "point {i}: packed low lane diverged from the exact chain"
        );
        // And the streaming node-id fold must produce the same chain.
        let folded = lvl
            .absorb_assignment_into(&case.points[i], StructuralHash::root())
            .expect("covered point must fold");
        assert_eq!(
            folded.value(),
            chain.value(),
            "point {i}: absorb_assignment_into diverged from the exact chain"
        );
    }
    // Grouping parity: packed keys partition the batch exactly as the
    // materialized assignments do.
    for i in 0..case.points.len() {
        for j in (i + 1)..case.points.len() {
            if exact[i].is_some() && exact[j].is_some() {
                assert_eq!(
                    exact[i] == exact[j],
                    packed[i] == packed[j],
                    "points {i},{j}: grouping parity violated"
                );
            }
        }
    }
    case.points.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_input_is_skipped() {
        assert_eq!(check_packed_vs_exact(&[]), 0);
        assert_eq!(check_packed_vs_exact(&[1; 11]), 0);
    }

    #[test]
    fn header_only_input_checks_zero_points() {
        assert_eq!(check_packed_vs_exact(&[0; 12]), 0);
    }

    #[test]
    fn decode_ranges_are_respected() {
        let mut data = vec![0xFFu8; 40];
        data[0] = 7; // r = 7 % 4 + 1 = 4
        data[1] = 0; // bucket_dim = 1
        let case = decode(&data).unwrap();
        assert_eq!(case.r, 4);
        assert_eq!(case.bucket_dim, 1);
        assert!((0.5..=20.0).contains(&case.w));
        for p in &case.points {
            assert_eq!(p.len(), 4);
            for &c in p {
                assert!((-50.0..=50.0).contains(&c));
            }
        }
    }

    #[test]
    fn dense_input_checks_points() {
        // 12-byte header + 16 u16 coordinates: with r=1, bucket_dim=1,
        // that is 16 one-dimensional points.
        let mut data = vec![0u8; 12 + 32];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 37 + 11) as u8;
        }
        data[0] = 0;
        data[1] = 0;
        assert_eq!(check_packed_vs_exact(&data), 16);
    }
}
