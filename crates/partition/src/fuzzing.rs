//! The exact partition oracle, and the fuzz harness that checks the
//! production keying path against it.
//!
//! The oracle materializes what [`HybridLevel::key_into`] only streams.
//! [`assign_ball`] tests a sequence's grids one
//! [`BallGrid::ball_of`](crate::ball::BallGrid::ball_of) at a time and
//! returns the first covering ball; [`assign`] collects one
//! [`BallAssignment`] per bucket into a [`LevelAssignment`] (Definition
//! 3: two points share a partition iff their assignments are equal);
//! [`LevelAssignment::absorb_into`] folds an assignment into a
//! structural-hash chain over the tokens `key_into` emits.
//!
//! [`check_packed_vs_exact`] decodes an arbitrary byte string into a
//! hybrid-level geometry plus a batch of points and asserts, at the bit
//! level, that [`HybridLevel::key_into`] and [`HybridLevel::key`] agree
//! with the oracle: the same coverage decisions down to the first
//! uncovered bucket, the same hash chains and the same grouping. Any
//! disagreement panics, which the fuzzer (and the corpus replay test in
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

use crate::ball::GridSequence;
use crate::hybrid::HybridLevel;
use crate::ids::StructuralHash;

/// A point's exact assignment under a grid sequence: the index of the
/// first covering grid and the lattice coordinates of its ball.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BallAssignment {
    /// Index of the first grid whose ball covers the point.
    pub grid_index: u32,
    /// Lattice coordinates of the covering ball within that grid.
    pub cell: Vec<i64>,
}

impl BallAssignment {
    /// Folds this assignment into a structural hash chain: `0xBA11`,
    /// the grid index, the cell coordinates, then the terminator `0xE4D`.
    pub fn absorb_into(&self, h: StructuralHash) -> StructuralHash {
        let h = h.absorb(0xBA11).absorb(u64::from(self.grid_index));
        self.cell
            .iter()
            .fold(h, |h, &c| h.absorb_i64(c))
            .absorb(0xE4D)
    }
}

/// A point's exact assignment at one hybrid level: its ball assignment
/// in each of the `r` buckets, in bucket order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LevelAssignment {
    /// Per-bucket ball assignments, in bucket order.
    pub buckets: Vec<BallAssignment>,
}

impl LevelAssignment {
    /// Folds every bucket's assignment into a structural hash chain.
    pub fn absorb_into(&self, h: StructuralHash) -> StructuralHash {
        self.buckets.iter().fold(h, |h, a| a.absorb_into(h))
    }
}

/// The first ball of `seq` that covers `p`, found by testing one
/// [`crate::ball::BallGrid`] at a time, or `None` if no grid covers it.
pub fn assign_ball(seq: &GridSequence, p: &[f64]) -> Option<BallAssignment> {
    seq.grids().iter().enumerate().find_map(|(u, g)| {
        g.ball_of(p).map(|cell| BallAssignment {
            grid_index: u as u32,
            cell,
        })
    })
}

/// `p`'s exact hybrid partition at `level`, or `None` if some bucket's
/// grid sequence leaves it uncovered.
pub fn assign(level: &HybridLevel, p: &[f64]) -> Option<LevelAssignment> {
    assert_eq!(p.len(), level.dim(), "point dimension mismatch");
    let projections = p.chunks_exact(level.bucket_dim());
    let buckets = level
        .sequences()
        .iter()
        .zip(projections)
        .map(|(seq, proj)| assign_ball(seq, proj))
        .collect::<Option<_>>()?;
    Some(LevelAssignment { buckets })
}

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

/// The parity check: panics iff [`HybridLevel::key_into`] or
/// [`HybridLevel::key`] disagrees with the exact oracle on the decoded
/// case. Returns the number of points checked (0 when the input is too
/// short), so replay harnesses can assert the corpus actually exercises
/// the check.
pub fn check_packed_vs_exact(data: &[u8]) -> usize {
    let Some(case) = decode(data) else {
        return 0;
    };
    let dim = case.r * case.bucket_dim;
    let lvl = HybridLevel::new(dim, case.r, case.w, 40, case.seed);
    let exact: Vec<_> = case.points.iter().map(|p| assign(&lvl, p)).collect();
    let packed: Vec<_> = case.points.iter().map(|p| lvl.key(p)).collect();
    for (i, (p, (e, k))) in case
        .points
        .iter()
        .zip(exact.iter().zip(&packed))
        .enumerate()
    {
        // Covering decisions must agree exactly, down to the first
        // bucket the oracle finds uncovered.
        let first_uncovered = lvl
            .sequences()
            .iter()
            .zip(p.chunks_exact(case.bucket_dim))
            .position(|(seq, proj)| assign_ball(seq, proj).is_none());
        assert_eq!(
            k.err(),
            first_uncovered,
            "point {i}: key and oracle disagree on the first uncovered bucket"
        );
        assert_eq!(
            e.is_some(),
            k.is_ok(),
            "point {i}: exact and packed disagree on coverage"
        );
        let (Some(e), Ok(k)) = (e, k) else { continue };
        // The packed key's low lane IS the structural chain over the
        // exact assignment's token stream — bit-identical, not merely
        // collision-free.
        let chain = e.absorb_into(StructuralHash::root());
        assert_eq!(
            k.lo,
            chain.value(),
            "point {i}: packed low lane diverged from the exact chain"
        );
        // And the streamed node-id fold must produce the same chain.
        let mut folded = StructuralHash::root();
        lvl.key_into(p, |t| folded = folded.absorb(t))
            .expect("covered point must key");
        assert_eq!(
            folded.value(),
            chain.value(),
            "point {i}: key_into diverged from the exact chain"
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
