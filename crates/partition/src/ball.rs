//! Ball partitioning (Definition 2; Charikar et al.).
//!
//! A *grid of balls* places a ball of radius `w` at every vertex of a
//! randomly shifted lattice of cell length `ℓ = 4w`. One grid leaves
//! gaps, so a **sequence** of independently shifted grids is drawn
//! (`BuildGrids` in Algorithm 1) and each point joins the first ball
//! that covers it.

use treeemb_linalg::random;

/// One grid of balls: lattice `shift + ℓ·Z^d`, ball radius `w = ℓ/4`
/// by the paper's convention (any `w ≤ ℓ/2` keeps balls disjoint).
#[derive(Debug, Clone, PartialEq)]
pub struct BallGrid {
    cell: f64,
    /// Precomputed `1/cell`: the per-coordinate lattice snap in
    /// [`Self::ball_of`] is a multiply instead of a divide.
    inv_cell: f64,
    radius: f64,
    shift: Vec<f64>,
}

impl BallGrid {
    /// Constructs a ball grid with an explicit shift in `[0, cell)^d`.
    pub fn new(cell: f64, radius: f64, shift: Vec<f64>) -> Self {
        assert!(cell > 0.0 && radius > 0.0, "scales must be positive");
        assert!(
            2.0 * radius <= cell + 1e-12,
            "balls of radius {radius} overlap at cell length {cell}"
        );
        Self {
            cell,
            inv_cell: 1.0 / cell,
            radius,
            shift,
        }
    }

    /// Derives the shift from a counter stream.
    pub fn from_seed(dim: usize, cell: f64, radius: f64, seed: u64) -> Self {
        Self::new(cell, radius, seeded_shift(dim, cell, seed).collect())
    }

    /// Dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.shift.len()
    }

    /// The lattice shift vector (each component in `[0, cell)`). Exposed
    /// so the MPC embedder can broadcast grids as raw words (Lemma 8's
    /// space accounting).
    pub fn shift(&self) -> &[f64] {
        &self.shift
    }

    /// If `p` lies within radius of its nearest lattice vertex, returns
    /// that vertex's integer lattice coordinates.
    pub fn ball_of(&self, p: &[f64]) -> Option<Vec<i64>> {
        debug_assert_eq!(p.len(), self.dim());
        let mut sq = 0.0;
        let mut coords = Vec::with_capacity(p.len());
        let r2 = self.radius * self.radius;
        for (x, s) in p.iter().zip(&self.shift) {
            let t = (x - s) * self.inv_cell;
            let m = t.round();
            let e = (t - m) * self.cell;
            sq += e * e;
            if sq > r2 {
                return None; // early exit: already outside every ball
            }
            coords.push(m as i64);
        }
        Some(coords)
    }
}

/// The shift of a grid of cell length `cell` drawn from the counter
/// stream `seed`: coordinate `j` is `unit_f64(seed, j)·cell`.
fn seeded_shift(dim: usize, cell: f64, seed: u64) -> impl Iterator<Item = f64> {
    (0..dim).map(move |j| random::unit_f64(seed, j as u64) * cell)
}

/// An ordered sequence of independently shifted ball grids at one scale
/// (the output of `BuildGrids`).
///
/// Every shift lives in one flat buffer, so the first-covering-grid scan
/// walks memory linearly; grid `u` is the [`BallGrid`] that
/// [`BallGrid::from_seed`] derives from the stream `mix2(seed, u)`.
#[derive(Debug, Clone)]
pub struct GridSequence {
    count: usize,
    dim: usize,
    cell: f64,
    inv_cell: f64,
    radius: f64,
    /// Grid `u`'s shift occupies `shifts[u*dim .. (u+1)*dim]`.
    shifts: Vec<f64>,
}

impl GridSequence {
    /// Builds `count` grids of cell length `4w`, radius `w` (the paper's
    /// Definition-2 geometry), with shifts derived from `(seed, grid
    /// index)` counter streams.
    pub fn build(dim: usize, w: f64, count: usize, seed: u64) -> Self {
        Self::build_with_cell_factor(dim, w, 4.0, count, seed)
    }

    /// Builds grids with cell length `factor·w` for radius `w`. The
    /// paper fixes `factor = 4`; smaller factors (≥ 2, keeping balls
    /// disjoint) cover more per grid (`V_m/factor^m`) at the price of a
    /// higher ball-boundary density — the E13 ablation quantifies the
    /// trade-off.
    pub fn build_with_cell_factor(
        dim: usize,
        w: f64,
        factor: f64,
        count: usize,
        seed: u64,
    ) -> Self {
        assert!(count > 0, "need at least one grid");
        assert!(w > 0.0, "scales must be positive");
        assert!(factor >= 2.0, "balls must stay disjoint (factor >= 2)");
        let cell = factor * w;
        let mut shifts = Vec::with_capacity(count * dim);
        for u in 0..count {
            shifts.extend(seeded_shift(dim, cell, random::mix2(seed, u as u64)));
        }
        Self {
            count,
            dim,
            cell,
            inv_cell: 1.0 / cell,
            radius: w,
            shifts,
        }
    }

    /// Number of grids (`U`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the sequence holds no grids. The constructors reject
    /// `count == 0`, so this is always `false` for a built sequence; it
    /// exists to satisfy the `len`/`is_empty` API convention.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Ball radius `w` of the sequence.
    #[must_use]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The grids, in priority order, rebuilt from the shift buffer.
    #[must_use]
    pub fn grids(&self) -> Vec<BallGrid> {
        (0..self.count)
            .map(|u| BallGrid::new(self.cell, self.radius, self.shift(u).to_vec()))
            .collect()
    }

    /// Grid `u`'s shift.
    fn shift(&self, u: usize) -> &[f64] {
        &self.shifts[u * self.dim..(u + 1) * self.dim]
    }

    /// Index of the first grid whose ball covers `p`, scanning the flat
    /// shift buffer cache-linearly. Shares `ball_of`'s arithmetic
    /// exactly (reciprocal multiply, same operation order), so it agrees
    /// with a per-grid [`BallGrid::ball_of`] scan bit for bit.
    #[must_use]
    pub fn first_covering(&self, p: &[f64]) -> Option<u32> {
        debug_assert_eq!(p.len(), self.dim);
        let r2 = self.radius * self.radius;
        for (u, shift) in self.shifts.chunks_exact(self.dim.max(1)).enumerate() {
            let mut sq = 0.0;
            let mut covered = true;
            for (x, s) in p.iter().zip(shift) {
                let t = (x - s) * self.inv_cell;
                let e = (t - t.round()) * self.cell;
                sq += e * e;
                if sq > r2 {
                    covered = false;
                    break; // early exit: outside every ball of this grid
                }
            }
            if covered {
                return Some(u as u32);
            }
        }
        None
    }

    /// Streams the lattice coordinates of `p`'s ball in grid `u` (as
    /// returned by [`Self::first_covering`]) without allocating. Must
    /// only be called for a covering grid.
    pub fn covering_cell(&self, u: u32, p: &[f64], mut emit: impl FnMut(i64)) {
        for (x, s) in p.iter().zip(self.shift(u as usize)) {
            let m = ((x - s) * self.inv_cell).round();
            emit(m as i64);
        }
    }

    /// Words of memory this sequence occupies when broadcast in MPC
    /// (one shift vector per grid).
    #[must_use]
    pub fn words(&self) -> usize {
        self.count * (self.dim + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzing::assign_ball;

    #[test]
    fn ball_of_detects_coverage() {
        // Unshifted 1-D grid: cells of length 4, balls of radius 1 at 0, 4, 8...
        let g = BallGrid::new(4.0, 1.0, vec![0.0]);
        assert_eq!(g.ball_of(&[0.5]), Some(vec![0]));
        assert_eq!(g.ball_of(&[3.6]), Some(vec![1]));
        assert_eq!(g.ball_of(&[2.0]), None, "midpoint is uncovered");
        assert_eq!(g.ball_of(&[8.4]), Some(vec![2]));
    }

    #[test]
    fn ball_of_euclidean_not_linf() {
        // Point at (0.9, 0.9): within 1 of origin in l-inf but not l2.
        let g = BallGrid::new(4.0, 1.0, vec![0.0, 0.0]);
        assert_eq!(g.ball_of(&[0.9, 0.0]), Some(vec![0, 0]));
        assert_eq!(g.ball_of(&[0.9, 0.9]), None);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_balls_rejected() {
        let _ = BallGrid::new(1.0, 0.6, vec![0.0]);
    }

    #[test]
    fn sequence_assign_prefers_earliest_grid() {
        let seq = GridSequence::build(2, 1.0, 50, 123);
        let p = [10.3, -4.7];
        if let Some(a) = assign_ball(&seq, &p) {
            // Every earlier grid must not cover p.
            for u in 0..a.grid_index {
                assert!(seq.grids()[u as usize].ball_of(&p).is_none());
            }
            assert!(seq.grids()[a.grid_index as usize].ball_of(&p).is_some());
        }
    }

    #[test]
    fn enough_grids_cover_low_dimensions() {
        // In 2-D the per-grid cover probability is pi/16 ~ 0.196, so 100
        // grids miss a point with probability ~ 3e-10.
        let seq = GridSequence::build(2, 2.0, 100, 7);
        for i in 0..100 {
            let p = [i as f64 * 1.37, (i * i % 19) as f64];
            assert!(assign_ball(&seq, &p).is_some(), "point {i} uncovered");
        }
    }

    #[test]
    fn coverage_rate_matches_ball_volume_fraction() {
        // One grid covers a random point with probability
        // V_d(w) / (4w)^d; in 2-D that is pi w^2 / 16 w^2 = pi/16.
        let trials = 4000;
        let mut covered = 0;
        for t in 0..trials {
            let g = BallGrid::from_seed(2, 4.0, 1.0, random::mix2(55, t as u64));
            // Fixed probe point: randomness of the shift is equivalent to
            // randomness of the point.
            if g.ball_of(&[0.0, 0.0]).is_some() {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        let expect = std::f64::consts::PI / 16.0;
        assert!((rate - expect).abs() < 0.02, "rate {rate} vs {expect}");
    }

    #[test]
    fn nearby_points_share_balls_when_covered_deep() {
        let seq = GridSequence::build(3, 5.0, 200, 99);
        let p = [1.0, 2.0, 3.0];
        let q = [1.05, 2.0, 3.0];
        let (ap, aq) = (assign_ball(&seq, &p), assign_ball(&seq, &q));
        if let (Some(ap), Some(aq)) = (ap, aq) {
            if ap.grid_index == aq.grid_index {
                assert_eq!(
                    ap.cell, aq.cell,
                    "same grid must give same ball for close points"
                );
            }
        }
    }

    #[test]
    fn grids_follow_the_seeded_derivation() {
        let (dim, w, factor, count, seed) = (3, 1.5, 2.5, 40, 77);
        let seq = GridSequence::build_with_cell_factor(dim, w, factor, count, seed);
        let grids = seq.grids();
        assert_eq!(grids.len(), count);
        for (u, g) in grids.iter().enumerate() {
            let expect = BallGrid::from_seed(dim, factor * w, w, random::mix2(seed, u as u64));
            assert_eq!(*g, expect, "grid {u}");
        }
        assert_eq!(seq.words(), count * (dim + 2));
    }

    #[test]
    fn words_counts_broadcast_size() {
        let seq = GridSequence::build(4, 1.0, 10, 1);
        assert_eq!(seq.words(), 10 * 6);
    }

    #[test]
    fn first_covering_matches_per_grid_scan() {
        let seq = GridSequence::build(3, 2.0, 60, 42);
        for i in 0..200 {
            let p = [i as f64 * 0.53, (i % 17) as f64 * 1.1, -(i as f64) * 0.21];
            let slow = seq
                .grids()
                .iter()
                .position(|g| g.ball_of(&p).is_some())
                .map(|u| u as u32);
            assert_eq!(seq.first_covering(&p), slow, "point {i}");
        }
    }

    #[test]
    fn covering_cell_streams_ball_of_coords() {
        let seq = GridSequence::build(4, 1.5, 80, 9);
        for i in 0..100 {
            let p = [i as f64 * 0.3, 1.0, (i % 5) as f64, -2.5];
            if let Some(u) = seq.first_covering(&p) {
                let expect = seq.grids()[u as usize].ball_of(&p).unwrap();
                let mut got = Vec::new();
                seq.covering_cell(u, &p, |c| got.push(c));
                assert_eq!(got, expect);
            }
        }
    }

    #[test]
    fn sequences_differ_across_seeds() {
        let a = GridSequence::build(2, 1.0, 5, 1);
        let b = GridSequence::build(2, 1.0, 5, 2);
        assert_ne!(a.grids()[0], b.grids()[0]);
    }
}
