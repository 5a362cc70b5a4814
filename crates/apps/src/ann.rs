//! Approximate nearest neighbors through the hierarchy — closing the
//! loop with Ailon–Chazelle, whose FJLT paper (the paper's \[2\],
//! *"Approximate nearest neighbors and the fast Johnson–Lindenstrauss
//! transform"*) built the transform *for* ANN.
//!
//! The index stores, per level, a map from partition-chain hashes to a
//! representative point. A query point is assigned through the *same*
//! seeded hybrid partitionings (out-of-sample assignment is just
//! [`HybridLevel::key_into`]); the deepest level whose chain matches an
//! indexed chain yields the answer. Points that share a partition at
//! scale `w` are within `2√r·w`, and a true nearest neighbor at
//! distance `δ` stays un-separated from the query down to scale
//! `w ≈ δ·√d` in expectation — so the returned point is an
//! `O(E[distortion])`-approximate nearest neighbor, in `O(logΔ)` query
//! time (hash probes), independent of `n`.

use std::collections::HashMap;
use treeemb_core::error::EmbedError;
use treeemb_core::params::HybridParams;
use treeemb_geom::metrics::dist;
use treeemb_geom::PointSet;
use treeemb_partition::ids::StructuralHash;
use treeemb_partition::HybridLevel;

/// A tree-embedding-backed approximate-nearest-neighbor index.
pub struct AnnIndex {
    levels: Vec<HybridLevel>,
    /// Per level: chain hash → representative point id (the first point
    /// indexed into that cluster).
    chains: Vec<HashMap<u64, usize>>,
    /// Working (padded) dimension.
    dim: usize,
    /// Any point id, the fallback when nothing matches at any level.
    fallback: usize,
}

impl AnnIndex {
    /// Builds the index over `ps` with an existing hybrid schedule and
    /// seed (the same [`HybridParams::build_levels`] derivation as the
    /// embedders, so an index and an embedding built with equal
    /// parameters see identical partitions).
    pub fn build(ps: &PointSet, params: &HybridParams, seed: u64) -> Result<Self, EmbedError> {
        if ps.is_empty() {
            return Err(EmbedError::EmptyInput);
        }
        let padded = ps.zero_pad(params.dim);
        let levels = params.build_levels(seed);
        let mut chains: Vec<HashMap<u64, usize>> = vec![HashMap::new(); levels.len()];
        for p in 0..padded.len() {
            let mut chain = StructuralHash::root();
            for (li, lvl) in levels.iter().enumerate() {
                chain = chain.absorb(li as u64);
                lvl.key_into(padded.point(p), |t| chain = chain.absorb(t))
                    .map_err(|bucket| EmbedError::CoverageFailure {
                        level: li,
                        bucket,
                        point: p,
                    })?;
                chains[li].entry(chain.value()).or_insert(p);
            }
        }
        Ok(Self {
            levels,
            chains,
            dim: params.dim,
            fallback: 0,
        })
    }

    /// Number of levels probed per query.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Returns an approximate nearest neighbor of `q` (point id into the
    /// indexed set): the representative of the deepest cluster whose
    /// partition chain `q` shares. `O(logΔ)` hash probes.
    ///
    /// `q.len()` must equal the original dimension (it is zero-padded
    /// internally like the indexed points).
    pub fn query(&self, q: &[f64]) -> usize {
        let mut padded = q.to_vec();
        padded.resize(self.dim, 0.0);
        let mut chain = StructuralHash::root();
        let mut best = self.fallback;
        for (li, lvl) in self.levels.iter().enumerate() {
            chain = chain.absorb(li as u64);
            if lvl.key_into(&padded, |t| chain = chain.absorb(t)).is_err() {
                break; // query fell outside coverage at this level
            }
            match self.chains[li].get(&chain.value()) {
                Some(&rep) => best = rep,
                None => break, // chain diverged from every indexed point
            }
        }
        best
    }

    /// Best-of-`k` query over independently seeded indices, the standard
    /// variance reduction: build several indices (different seeds) and
    /// return the candidate closest to `q` in true Euclidean distance.
    pub fn query_best_of(indices: &[AnnIndex], ps: &PointSet, q: &[f64]) -> usize {
        assert!(!indices.is_empty());
        indices
            .iter()
            .map(|ix| ix.query(q))
            .min_by(|&a, &b| {
                dist(ps.point(a), q)
                    .partial_cmp(&dist(ps.point(b), q))
                    .expect("finite distances")
            })
            .expect("at least one index")
    }
}

/// Exact nearest neighbor by linear scan (baseline).
pub fn exact_nearest(ps: &PointSet, q: &[f64]) -> usize {
    assert!(!ps.is_empty());
    (0..ps.len())
        .min_by(|&a, &b| {
            dist(ps.point(a), q)
                .partial_cmp(&dist(ps.point(b), q))
                .expect("finite distances")
        })
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use treeemb_geom::generators;

    fn build_index(ps: &PointSet, seed: u64) -> AnnIndex {
        let params = HybridParams::for_dataset(ps, 4).unwrap();
        AnnIndex::build(ps, &params, seed).unwrap()
    }

    #[test]
    fn indexed_points_find_themselves() {
        let ps = generators::uniform_cube(60, 8, 1 << 10, 3);
        let ix = build_index(&ps, 1);
        for p in 0..ps.len() {
            let hit = ix.query(ps.point(p));
            // Exact duplicates may shadow each other; distance must be 0.
            assert_eq!(
                treeemb_geom::metrics::dist(ps.point(hit), ps.point(p)),
                0.0,
                "point {p} found {hit}"
            );
        }
    }

    #[test]
    fn query_near_a_point_returns_something_close() {
        let ps = generators::gaussian_clusters(80, 8, 4, 3.0, 1 << 10, 5);
        let indices: Vec<AnnIndex> = (0..5).map(|s| build_index(&ps, 100 + s)).collect();
        let mut ratios = Vec::new();
        for t in 0..30 {
            // Perturb an indexed point slightly.
            let base = ps.point(t).to_vec();
            let q: Vec<f64> = base.iter().map(|x| x + 0.4).collect();
            let approx = AnnIndex::query_best_of(&indices, &ps, &q);
            let exact = exact_nearest(&ps, &q);
            let ra = dist(ps.point(approx), &q);
            let re = dist(ps.point(exact), &q).max(1e-9);
            ratios.push(ra / re);
        }
        let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean < 8.0, "mean ANN ratio {mean}");
        // Most queries should be answered near-exactly.
        let good = ratios.iter().filter(|&&r| r < 2.0).count();
        assert!(
            good * 2 >= ratios.len(),
            "only {good}/{} within 2x",
            ratios.len()
        );
    }

    #[test]
    fn far_query_still_returns_a_valid_id() {
        let ps = generators::uniform_cube(20, 8, 256, 7);
        let ix = build_index(&ps, 2);
        let q = vec![1e6; 8];
        let hit = ix.query(&q);
        assert!(hit < ps.len());
    }

    #[test]
    fn exact_nearest_baseline_is_correct() {
        let ps = PointSet::from_rows(&[vec![0.0, 0.0], vec![10.0, 0.0], vec![0.0, 3.0]]);
        assert_eq!(exact_nearest(&ps, &[0.0, 2.0]), 2);
        assert_eq!(exact_nearest(&ps, &[9.0, 0.0]), 1);
    }

    #[test]
    fn query_time_is_independent_of_n_probes() {
        // Structural check: levels probed equals the schedule length.
        let ps = generators::uniform_cube(100, 8, 1 << 10, 9);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let ix = AnnIndex::build(&ps, &params, 4).unwrap();
        assert_eq!(ix.num_levels(), params.num_levels());
    }
}
