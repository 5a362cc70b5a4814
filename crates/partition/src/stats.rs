//! Monte-Carlo estimators for the paper's probabilistic lemmas.
//!
//! * [`hybrid_cut_probability`] — Lemma 1/3: the probability two points
//!   are separated at scale `w` is `O(√d·‖p−q‖/w)`, independent of `r`;
//! * [`grid_cut_probability`] — the analogous quantity for random
//!   shifted grids (the Arora baseline);
//! * [`equator_band_probability`] — Lemmas 4/5: random unit vectors are
//!   unlikely to land near the equator.

use crate::grid::ShiftedGrid;
use crate::hybrid::HybridLevel;
use treeemb_linalg::random::mix2;

/// Estimates the probability that `p` and `q` are assigned to different
/// partitions by one draw of an `r`-bucket hybrid partitioning at scale
/// `w`, over `trials` independent draws.
///
/// A trial in which either point is left uncovered counts as a cut (the
/// grid budget should be chosen to make that rare; see
/// [`crate::coverage::grids_needed`]).
pub fn hybrid_cut_probability(
    p: &[f64],
    q: &[f64],
    r: usize,
    w: f64,
    grids_per_bucket: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    assert_eq!(p.len(), q.len());
    let d = p.len();
    let mut cuts = 0usize;
    for t in 0..trials {
        let lvl = HybridLevel::new(d, r, w, grids_per_bucket, mix2(seed, t as u64));
        match (lvl.key(p), lvl.key(q)) {
            (Ok(a), Ok(b)) if a == b => {}
            _ => cuts += 1,
        }
    }
    cuts as f64 / trials as f64
}

/// Estimates the probability that `p` and `q` land in different cells of
/// a random shifted grid of width `w`.
pub fn grid_cut_probability(p: &[f64], q: &[f64], w: f64, trials: usize, seed: u64) -> f64 {
    assert_eq!(p.len(), q.len());
    let d = p.len();
    let mut cuts = 0usize;
    for t in 0..trials {
        let g = ShiftedGrid::from_seed(d, w, mix2(seed, t as u64));
        if g.cell_of(p) != g.cell_of(q) {
            cuts += 1;
        }
    }
    cuts as f64 / trials as f64
}

/// The analytic bound of Lemma 1: `√d · ‖p−q‖ / w` (up to the `O(·)`
/// constant, which experiments chart empirically).
pub fn lemma1_bound(d: usize, dist: f64, w: f64) -> f64 {
    (d as f64).sqrt() * dist / w
}

/// Largest Euclidean distance observed between two points sharing a
/// hybrid partition — the empirical counterpart of Lemma 1's
/// `O(√r·w)` diameter bound ([`HybridLevel::diameter_bound`] is `2√r·w`).
/// Returns 0.0 when no two covered points share a partition.
pub fn empirical_partition_diameter(points: &[Vec<f64>], level: &HybridLevel) -> f64 {
    let mut groups: std::collections::HashMap<_, Vec<usize>> = std::collections::HashMap::new();
    for (i, p) in points.iter().enumerate() {
        if let Ok(key) = level.key(p) {
            groups.entry(key).or_default().push(i);
        }
    }
    let mut worst: f64 = 0.0;
    for members in groups.values() {
        for (k, &a) in members.iter().enumerate() {
            for &b in &members[k + 1..] {
                worst = worst.max(treeemb_geom::metrics::dist(&points[a], &points[b]));
            }
        }
    }
    worst
}

/// Estimates `Pr[|u_1| ≤ D/(2w)]` for `u` uniform on the unit sphere
/// (`Lemma 4`) or the unit ball (`Lemma 5`), via `trials` samples.
pub fn equator_band_probability(
    d: usize,
    band_half_width: f64,
    from_ball: bool,
    trials: usize,
    seed: u64,
) -> f64 {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut hits = 0usize;
    for _ in 0..trials {
        let v = if from_ball {
            treeemb_geom::sphere::unit_ball(&mut rng, d)
        } else {
            treeemb_geom::sphere::unit_sphere(&mut rng, d)
        };
        if v[0].abs() <= band_half_width {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::grids_needed;

    #[test]
    fn cut_probability_scales_inversely_with_w() {
        let p = [0.0, 0.0];
        let q = [1.0, 0.0];
        let u = grids_needed(1, 100, 0.001);
        let near = hybrid_cut_probability(&p, &q, 2, 8.0, u, 400, 1);
        let far = hybrid_cut_probability(&p, &q, 2, 64.0, u, 400, 2);
        assert!(far < near, "larger scale must cut less: {far} vs {near}");
    }

    #[test]
    fn cut_probability_roughly_independent_of_r_lemma1() {
        // d = 4, ||p-q|| = 1, w = 16: compare r = 1, 2, 4.
        let p = [0.0; 4];
        let mut q = [0.0; 4];
        q[0] = 1.0;
        let trials = 600;
        let pr: Vec<f64> = [1usize, 2, 4]
            .iter()
            .map(|&r| {
                let m = 4 / r;
                let u = grids_needed(m, 1000, 0.001);
                hybrid_cut_probability(&p, &q, r, 16.0, u, trials, 7 + r as u64)
            })
            .collect();
        // All within a constant factor of each other (Lemma 1 says the
        // bound is independent of r; empirical values fluctuate).
        let max = pr.iter().cloned().fold(0.0, f64::max);
        let min = pr.iter().cloned().fold(1.0, f64::min);
        assert!(max > 0.0, "never cut at all?");
        assert!(max / min.max(1e-3) < 5.0, "r-dependence too strong: {pr:?}");
    }

    #[test]
    fn cut_probability_below_lemma1_bound_scaled() {
        let p = [0.0; 4];
        let mut q = [0.0; 4];
        q[0] = 1.0;
        let u = grids_needed(2, 1000, 0.001);
        let est = hybrid_cut_probability(&p, &q, 2, 32.0, u, 500, 3);
        // Lemma 1: O(sqrt(d) * dist / w) = O(2/32); allow constant 8.
        assert!(est <= 8.0 * lemma1_bound(4, 1.0, 32.0), "est {est}");
    }

    #[test]
    fn grid_cut_probability_matches_union_bound_shape() {
        let p = [0.0, 0.0];
        let q = [0.5, 0.5];
        let est = grid_cut_probability(&p, &q, 10.0, 2000, 4);
        // Exact: 1 - (1 - 0.05)^2 = 0.0975.
        assert!((est - 0.0975).abs() < 0.03, "est {est}");
    }

    #[test]
    fn empirical_diameter_stays_within_lemma1_bound() {
        use treeemb_linalg::random::unit_f64;
        let level = HybridLevel::new(4, 2, 8.0, 400, 77);
        let points: Vec<Vec<f64>> = (0..300u64)
            .map(|i| (0..4).map(|j| unit_f64(i, j as u64) * 60.0).collect())
            .collect();
        let worst = empirical_partition_diameter(&points, &level);
        assert!(worst > 0.0, "no pair shared a partition");
        assert!(
            worst <= level.diameter_bound() + 1e-9,
            "{worst} > bound {}",
            level.diameter_bound()
        );
    }

    #[test]
    fn equator_band_shrinks_with_band() {
        let wide = equator_band_probability(8, 0.5, false, 3000, 1);
        let narrow = equator_band_probability(8, 0.05, false, 3000, 2);
        assert!(narrow < wide);
    }

    #[test]
    fn equator_band_grows_with_dimension() {
        // Lemma 4: Pr ~ sqrt(d) * band; higher d concentrates mass near
        // the equator.
        let lo = equator_band_probability(4, 0.1, false, 4000, 3);
        let hi = equator_band_probability(64, 0.1, false, 4000, 4);
        assert!(hi > lo, "{hi} vs {lo}");
    }

    #[test]
    fn ball_and_sphere_bands_are_close() {
        // Lemma 5 extends Lemma 4 from sphere to ball with the same
        // asymptotics.
        let sphere = equator_band_probability(16, 0.2, false, 4000, 5);
        let ball = equator_band_probability(16, 0.2, true, 4000, 6);
        assert!((sphere - ball).abs() < 0.15, "{sphere} vs {ball}");
    }
}
