//! Hybrid partitioning (Definition 3) — the paper's core contribution.
//!
//! Dimensions are grouped into `r` contiguous buckets of `d/r`
//! dimensions each. Every bucket runs an independent ball partitioning
//! of the projected points; two points share a hybrid partition iff they
//! share a ball in **every** bucket. `r` interpolates between ball
//! partitioning (`r = 1`) and random shifted grids (`r = d` with radius
//! `ℓ/2`).

use crate::ball::GridSequence;
use crate::ids::{PackedHasher, PackedLevelKey};
use treeemb_linalg::random::mix2;

/// One scale ("level") of hybrid partitioning over `R^d`.
///
/// ```
/// use treeemb_partition::HybridLevel;
/// // d = 4 dimensions in r = 2 buckets, ball radius w = 2.
/// let level = HybridLevel::new(4, 2, 2.0, 200, 42);
/// let a = level.key(&[1.0, 1.0, 5.0, 5.0]);
/// let b = level.key(&[1.1, 1.0, 5.0, 5.0]); // 0.1 away
/// if let (Ok(a), Ok(b)) = (a, b) {
///     // Same partition implies within the diameter bound.
///     if a == b {
///         assert!(0.1 <= level.diameter_bound());
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct HybridLevel {
    dim: usize,
    r: usize,
    bucket_dim: usize,
    w: f64,
    sequences: Vec<GridSequence>,
}

impl HybridLevel {
    /// Builds a hybrid level with the paper's geometry: per bucket, a
    /// sequence of `grids_per_bucket` ball grids of radius `w` and cell
    /// length `4w`.
    ///
    /// # Panics
    /// Panics unless `r` divides `dim` (callers zero-pad, paper
    /// footnote 3) and parameters are positive.
    pub fn new(dim: usize, r: usize, w: f64, grids_per_bucket: usize, seed: u64) -> Self {
        Self::with_cell_factor(dim, r, w, 4.0, grids_per_bucket, seed)
    }

    /// [`Self::new`] with an explicit ball-grid cell factor (the paper
    /// uses 4; see [`GridSequence::build_with_cell_factor`]).
    pub fn with_cell_factor(
        dim: usize,
        r: usize,
        w: f64,
        factor: f64,
        grids_per_bucket: usize,
        seed: u64,
    ) -> Self {
        assert!(r >= 1 && r <= dim, "need 1 <= r <= dim");
        assert_eq!(dim % r, 0, "r must divide dim (zero-pad first)");
        assert!(w > 0.0);
        let bucket_dim = dim / r;
        let sequences = (0..r)
            .map(|j| {
                GridSequence::build_with_cell_factor(
                    bucket_dim,
                    w,
                    factor,
                    grids_per_bucket,
                    mix2(seed, j as u64),
                )
            })
            .collect();
        Self {
            dim,
            r,
            bucket_dim,
            w,
            sequences,
        }
    }

    /// Scale parameter `w` (ball radius).
    #[must_use]
    pub fn w(&self) -> f64 {
        self.w
    }

    /// Number of buckets `r`.
    #[must_use]
    pub fn r(&self) -> usize {
        self.r
    }

    /// Dimensions per bucket (`d/r`).
    #[must_use]
    pub fn bucket_dim(&self) -> usize {
        self.bucket_dim
    }

    /// Ambient dimension `d`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Per-bucket grid sequences.
    pub fn sequences(&self) -> &[GridSequence] {
        &self.sequences
    }

    /// Upper bound on the Euclidean diameter of any partition at this
    /// level: each bucket confines the projection to a ball of diameter
    /// `2w`, so the full diameter is at most `2w·√r` (Lemma 1's second
    /// part).
    pub fn diameter_bound(&self) -> f64 {
        2.0 * self.w * (self.r as f64).sqrt()
    }

    /// Keys `p` at this level by streaming its hybrid partition into
    /// `sink`: per bucket, the token `0xBA11`, the index of the first
    /// grid whose ball covers the bucket's projection, that ball's
    /// lattice coordinates (as `u64`) and the terminator `0xE4D`. Two
    /// points share a partition (Definition 3) iff their streams are
    /// equal.
    ///
    /// # Errors
    /// `Err(j)` for the first bucket `j` whose grid sequence covers no
    /// ball around `p` (a coverage failure, Lemma 7); the tokens of
    /// buckets `0..j` have already been streamed.
    pub fn key_into(&self, p: &[f64], mut sink: impl FnMut(u64)) -> Result<(), usize> {
        assert_eq!(p.len(), self.dim, "point dimension mismatch");
        let projections = p.chunks_exact(self.bucket_dim);
        for (j, (seq, proj)) in self.sequences.iter().zip(projections).enumerate() {
            let u = seq.first_covering(proj).ok_or(j)?;
            sink(0xBA11);
            sink(u64::from(u));
            seq.covering_cell(u, proj, |c| sink(c as u64));
            sink(0xE4D);
        }
        Ok(())
    }

    /// [`Self::key_into`] hashed into a 128-bit [`PackedLevelKey`]: two
    /// points get equal keys iff (w.h.p.) they share a partition, and
    /// the low lane is the [`crate::ids::StructuralHash::root`] chain
    /// over the token stream.
    ///
    /// # Errors
    /// The first uncovered bucket, as for [`Self::key_into`].
    pub fn key(&self, p: &[f64]) -> Result<PackedLevelKey, usize> {
        let mut h = PackedHasher::new();
        self.key_into(p, |t| h.absorb(t))?;
        Ok(h.key())
    }

    /// Total words the level's grids occupy when broadcast (Lemma 8's
    /// space accounting).
    pub fn words(&self) -> usize {
        self.sequences.iter().map(GridSequence::words).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::grids_needed;
    use crate::fuzzing::{assign, assign_ball, LevelAssignment};
    use crate::ids::StructuralHash;
    use treeemb_geom::metrics::dist;

    #[test]
    fn r_must_divide_dim() {
        let ok = HybridLevel::new(8, 4, 1.0, 4, 1);
        assert_eq!(ok.bucket_dim(), 2);
        let res = std::panic::catch_unwind(|| HybridLevel::new(8, 3, 1.0, 4, 1));
        assert!(res.is_err());
    }

    #[test]
    fn assignment_is_deterministic() {
        let lvl = HybridLevel::new(6, 2, 2.0, 64, 5);
        let p = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(assign(&lvl, &p), assign(&lvl, &p));
    }

    #[test]
    fn same_partition_iff_equal_in_every_bucket() {
        // Construct two points that differ wildly in the second bucket:
        // they can never share a partition even if bucket 1 matches.
        let lvl = HybridLevel::new(4, 2, 1.0, grids_needed(2, 100, 0.001), 9);
        let p = [0.3, 0.3, 0.0, 0.0];
        let q = [0.3, 0.3, 50.0, 50.0];
        if let (Some(ap), Some(aq)) = (assign(&lvl, &p), assign(&lvl, &q)) {
            assert_eq!(
                ap.buckets[0], aq.buckets[0],
                "identical first-bucket projections"
            );
            assert_ne!(ap, aq, "distant second bucket must separate them");
        } else {
            panic!("coverage failed with Lemma-7 grid budget");
        }
    }

    #[test]
    fn partition_diameter_respects_bound() {
        // Points in the same partition must be within 2w sqrt(r).
        let w = 3.0;
        let lvl = HybridLevel::new(4, 2, w, grids_needed(2, 1000, 0.001), 11);
        let mut groups: std::collections::HashMap<LevelAssignment, Vec<Vec<f64>>> =
            std::collections::HashMap::new();
        for i in 0..400 {
            let p = vec![
                (i % 20) as f64 * 0.9,
                (i / 20) as f64 * 0.9,
                (i % 7) as f64,
                (i % 13) as f64,
            ];
            if let Some(a) = assign(&lvl, &p) {
                groups.entry(a).or_default().push(p);
            }
        }
        let bound = lvl.diameter_bound() + 1e-9;
        for members in groups.values() {
            for a in members {
                for b in members {
                    assert!(dist(a, b) <= bound, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn r_equals_one_is_plain_ball_partitioning() {
        let lvl = HybridLevel::new(3, 1, 2.0, 128, 13);
        let p = [1.0, 2.0, 3.0];
        let direct = assign_ball(&lvl.sequences()[0], &p);
        let hybrid = assign(&lvl, &p).map(|a| a.buckets.into_iter().next().unwrap());
        assert_eq!(direct, hybrid);
    }

    #[test]
    fn packed_key_equality_matches_exact_assignment_equality() {
        let lvl = HybridLevel::new(4, 2, 2.5, grids_needed(2, 1000, 0.001), 31);
        let points: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                vec![
                    (i % 11) as f64 * 0.8,
                    (i / 11) as f64 * 0.8,
                    (i % 5) as f64 * 2.0,
                    (i % 3) as f64 * 2.0,
                ]
            })
            .collect();
        let exact: Vec<_> = points.iter().map(|p| assign(&lvl, p)).collect();
        let packed: Vec<_> = points.iter().map(|p| lvl.key(p).ok()).collect();
        for (e, k) in exact.iter().zip(&packed) {
            assert_eq!(e.is_some(), k.is_some(), "coverage must agree");
        }
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if exact[i].is_some() && exact[j].is_some() {
                    assert_eq!(
                        exact[i] == exact[j],
                        packed[i] == packed[j],
                        "pair ({i},{j}) grouped differently"
                    );
                }
            }
        }
    }

    #[test]
    fn absorb_assignment_into_matches_exact_chain() {
        let lvl = HybridLevel::new(6, 3, 1.5, 300, 17);
        let h0 = StructuralHash::root().absorb(9);
        for i in 0..80 {
            let p = vec![
                i as f64 * 0.4,
                1.0,
                (i % 7) as f64,
                -0.5 * i as f64,
                2.0,
                (i % 4) as f64,
            ];
            let exact = assign(&lvl, &p).map(|a| a.absorb_into(h0));
            let mut h = h0;
            let streamed = lvl.key_into(&p, |t| h = h.absorb(t)).ok().map(|()| h);
            assert_eq!(exact, streamed, "point {i}");
        }
    }

    #[test]
    fn key_reports_the_first_uncovered_bucket() {
        // One grid per bucket: bucket 0's projection sits on a ball
        // centre, bucket 1's on a cell centre (2w·√2 > w from every
        // vertex), so bucket 1 is the first to fail.
        let lvl = HybridLevel::new(6, 3, 1.0, 1, 23);
        let s0 = lvl.sequences()[0].grids()[0].shift().to_vec();
        let s1 = lvl.sequences()[1].grids()[0].shift().to_vec();
        let p = [s0[0], s0[1], s1[0] + 2.0, s1[1] + 2.0, 0.0, 0.0];
        let mut tokens = Vec::new();
        assert_eq!(lvl.key_into(&p, |t| tokens.push(t)), Err(1));
        assert_eq!(tokens, [0xBA11, 0, 0, 0, 0xE4D], "bucket 0 streams first");
        assert_eq!(lvl.key(&p), Err(1));
    }

    #[test]
    fn words_sums_buckets() {
        let lvl = HybridLevel::new(8, 2, 1.0, 10, 1);
        // Each bucket: 10 grids * (4 dims + 2 words) = 60; two buckets.
        assert_eq!(lvl.words(), 120);
    }

    #[test]
    fn uncovered_point_yields_none_with_tiny_budget() {
        // A single grid in 3-D covers ~ V_3/64 ~ 6.5% of space: some probe
        // point will be uncovered.
        let lvl = HybridLevel::new(3, 1, 1.0, 1, 40);
        let mut missed = false;
        for i in 0..200 {
            let p = [i as f64 * 0.37, i as f64 * 0.73, i as f64 * 0.11];
            if lvl.key(&p).is_err() {
                missed = true;
                break;
            }
        }
        assert!(missed, "one grid should leave gaps in 3-D");
    }
}
