//! Sequential tree embeddings: Algorithm 1 (hybrid partitioning,
//! Theorem 2) and the Arora grid-partitioning baseline it generalizes.
//!
//! Both embedders share a hierarchy driver: partition the point set at
//! the top scale, recurse into every part at half the scale, stop at
//! singletons (attaching the geometric-tail edge weight so the truncated
//! tree's metric equals the untruncated one), and attach surviving
//! duplicate groups as zero-weight sibling leaves after the last level.

use crate::error::EmbedError;
use crate::params::{GridParams, HybridParams};
use std::collections::HashMap;
use std::collections::VecDeque;
use treeemb_geom::PointSet;
use treeemb_hst::{Hst, HstBuilder};
use treeemb_linalg::random::mix3;
use treeemb_partition::{grid::ShiftedGrid, HybridLevel, PackedLevelKey};

/// Domain tag for hybrid-level seeds (see [`HybridParams::build_levels`],
/// the one derivation of a run's levels).
pub const HYBRID_LEVEL_TAG: u64 = 0x48594252; // "HYBR"
/// Domain tag for grid-level seeds.
pub const GRID_LEVEL_TAG: u64 = 0x47524944; // "GRID"

/// Per-level seed of the hybrid hierarchy.
#[inline]
pub fn hybrid_level_seed(seed: u64, level: usize) -> u64 {
    mix3(seed, HYBRID_LEVEL_TAG, level as u64)
}

/// A finished tree embedding.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The weighted tree; leaves carry the input point ids.
    pub tree: Hst,
    /// Which algorithm produced it.
    pub method: &'static str,
    /// Seed the randomness derived from.
    pub seed: u64,
}

impl Embedding {
    /// Tree-metric distance between two input points.
    pub fn tree_distance(&self, p: usize, q: usize) -> f64 {
        self.tree.distance(p, q)
    }
}

/// Builds a hierarchy from per-level assignment closures.
///
/// `assign(level, point)` returns the point's partition key at that
/// level (points with equal keys stay together), or `Err` on coverage
/// failure. `edge_weight(level)` / `tail_weight(level)` follow the
/// schedule semantics of [`HybridParams`].
pub(crate) fn build_hierarchy<K, F>(
    n: usize,
    num_levels: usize,
    assign: F,
    edge_weight: impl Fn(usize) -> f64,
    tail_weight: impl Fn(usize) -> f64,
) -> Result<Hst, EmbedError>
where
    K: Eq + std::hash::Hash,
    F: Fn(usize, usize) -> Result<K, EmbedError>,
{
    if n == 0 {
        return Err(EmbedError::EmptyInput);
    }
    let mut b = HstBuilder::new();
    let root = b.add_root();
    let mut queue: VecDeque<(usize, Vec<usize>, usize)> = VecDeque::new();
    queue.push_back((root, (0..n).collect(), 0));
    while let Some((parent, members, level)) = queue.pop_front() {
        if level == num_levels {
            // Only exact duplicates survive every level (the bottom
            // scale separates any pair at distance >= min_sep).
            for p in members {
                b.add_child(parent, 0.0, Some(p));
            }
            continue;
        }
        // Group members by their level key, preserving first-seen order
        // for determinism.
        let mut index: HashMap<K, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for p in members {
            let key = assign(level, p)?;
            match index.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(p),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(groups.len());
                    groups.push(vec![p]);
                }
            }
        }
        for group in groups {
            if group.len() == 1 {
                // Singleton: truncate the chain, attach the leaf with the
                // geometric tail weight.
                b.add_child(parent, tail_weight(level), Some(group[0]));
            } else {
                let node = b.add_child(parent, edge_weight(level), None);
                queue.push_back((node, group, level + 1));
            }
        }
    }
    b.finish()
        .map_err(|e| EmbedError::TreeAssembly(e.to_string()))
}

/// Algorithm 1: the sequential hybrid-partitioning embedder.
#[derive(Debug, Clone)]
pub struct SeqEmbedder {
    params: HybridParams,
}

impl SeqEmbedder {
    /// Creates an embedder for a fixed parameter schedule.
    pub fn new(params: HybridParams) -> Self {
        Self { params }
    }

    /// The schedule in force.
    pub fn params(&self) -> &HybridParams {
        &self.params
    }

    /// Embeds `ps` into a tree (Theorem 2 guarantees: domination always;
    /// expected distortion `O(√(d·r)·logΔ)`). Single-threaded; see
    /// [`Self::embed_parallel`].
    pub fn embed(&self, ps: &PointSet, seed: u64) -> Result<Embedding, EmbedError> {
        self.embed_parallel(ps, seed, 1)
    }

    /// [`Self::embed`] with all point assignments computed concurrently
    /// on `threads` workers. The tree is identical to the sequential
    /// result (assignments are pure functions; grouping order is fixed
    /// by point id).
    pub fn embed_parallel(
        &self,
        ps: &PointSet,
        seed: u64,
        threads: usize,
    ) -> Result<Embedding, EmbedError> {
        let padded = ps.zero_pad(self.params.dim);
        let levels = self.params.build_levels(seed);
        let tree = self.packed_hierarchy(&padded, &levels, threads.max(1))?;
        Ok(Embedding {
            tree,
            method: "hybrid",
            seed,
        })
    }

    /// The hot path: every (point, level) pair is keyed in parallel into
    /// a copyable 128-bit [`PackedLevelKey`], so grouping never clones
    /// per-bucket lattice cells. Packed keys collide with probability
    /// ~2^-128 per pair, so the tree equals the one grouped by exact
    /// assignments (see `exact_and_packed_paths_build_identical_trees`).
    fn packed_hierarchy(
        &self,
        padded: &PointSet,
        levels: &[HybridLevel],
        threads: usize,
    ) -> Result<treeemb_hst::Hst, EmbedError> {
        let per_point: Vec<Result<Vec<PackedLevelKey>, EmbedError>> =
            treeemb_mpc::exec::par_map_indexed(
                (0..padded.len()).collect::<Vec<usize>>(),
                threads,
                |_, p| {
                    levels
                        .iter()
                        .enumerate()
                        .map(|(level, lvl)| {
                            lvl.key(padded.point(p))
                                .map_err(|bucket| EmbedError::CoverageFailure {
                                    level,
                                    bucket,
                                    point: p,
                                })
                        })
                        .collect()
                },
            );
        let mut keys = Vec::with_capacity(per_point.len());
        for r in per_point {
            keys.push(r?);
        }
        build_hierarchy(
            padded.len(),
            levels.len(),
            |level, p| Ok(keys[p][level]),
            |level| self.params.edge_weight(level),
            |level| self.params.tail_weight(level),
        )
    }
}

/// The Arora random-shifted-grid embedder (the `O(log² n)`-distortion
/// baseline; E1/E8/E10 compare against it).
#[derive(Debug, Clone)]
pub struct GridEmbedder {
    params: GridParams,
}

impl GridEmbedder {
    /// Creates an embedder for a fixed grid schedule.
    pub fn new(params: GridParams) -> Self {
        Self { params }
    }

    /// The schedule in force.
    pub fn params(&self) -> &GridParams {
        &self.params
    }

    /// Embeds `ps` into a tree via hierarchical random shifted grids.
    /// Grid partitioning always covers, so this cannot fail on coverage.
    pub fn embed(&self, ps: &PointSet, seed: u64) -> Result<Embedding, EmbedError> {
        let grids: Vec<ShiftedGrid> = self
            .params
            .levels
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                ShiftedGrid::from_seed(ps.dim(), w, mix3(seed, GRID_LEVEL_TAG, i as u64))
            })
            .collect();
        let tree = build_hierarchy(
            ps.len(),
            grids.len(),
            |level, p| Ok(grids[level].cell_of(ps.point(p))),
            |level| self.params.edge_weight(level),
            |level| self.params.tail_weight(level),
        )?;
        Ok(Embedding {
            tree,
            method: "grid",
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treeemb_geom::{generators, metrics};
    use treeemb_partition::fuzzing::assign;

    fn small_set() -> PointSet {
        generators::uniform_cube(40, 8, 256, 11)
    }

    #[test]
    fn hybrid_embedding_builds_and_dominates() {
        let ps = small_set();
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let emb = SeqEmbedder::new(params).embed(&ps, 3).unwrap();
        assert_eq!(emb.tree.num_points(), ps.len());
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let e = metrics::dist(ps.point(i), ps.point(j));
                let t = emb.tree_distance(i, j);
                assert!(
                    t >= e * (1.0 - 1e-9),
                    "pair ({i},{j}): tree {t} < euclid {e}"
                );
            }
        }
    }

    #[test]
    fn grid_embedding_builds_and_dominates() {
        let ps = small_set();
        let params = GridParams::for_dataset(&ps).unwrap();
        let emb = GridEmbedder::new(params).embed(&ps, 5).unwrap();
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let e = metrics::dist(ps.point(i), ps.point(j));
                let t = emb.tree_distance(i, j);
                assert!(
                    t >= e * (1.0 - 1e-9),
                    "pair ({i},{j}): tree {t} < euclid {e}"
                );
            }
        }
    }

    #[test]
    fn embedding_is_deterministic_in_seed() {
        let ps = small_set();
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let e = SeqEmbedder::new(params.clone());
        let a = e.embed(&ps, 7).unwrap();
        let b = e.embed(&ps, 7).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(a.tree_distance(i, j), b.tree_distance(i, j));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_trees() {
        let ps = small_set();
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let e = SeqEmbedder::new(params);
        let a = e.embed(&ps, 1).unwrap();
        let b = e.embed(&ps, 2).unwrap();
        let mut differs = false;
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                if (a.tree_distance(i, j) - b.tree_distance(i, j)).abs() > 1e-12 {
                    differs = true;
                }
            }
        }
        assert!(differs, "independent draws should differ somewhere");
    }

    #[test]
    fn parallel_embedding_is_identical_to_sequential() {
        let ps = small_set();
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let e = SeqEmbedder::new(params);
        let seq = e.embed(&ps, 21).unwrap();
        let par = e.embed_parallel(&ps, 21, 8).unwrap();
        assert_eq!(seq.tree.num_nodes(), par.tree.num_nodes());
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                assert_eq!(
                    seq.tree_distance(i, j),
                    par.tree_distance(i, j),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn exact_and_packed_paths_build_identical_trees() {
        // The packed 128-bit keys must induce the same grouping as the
        // materialized per-bucket cells, hence bit-identical trees.
        let ps = small_set();
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let e = SeqEmbedder::new(params);
        for seed in [1u64, 7, 42] {
            let padded = ps.zero_pad(e.params.dim);
            let levels = e.params.build_levels(seed);
            let packed = e.packed_hierarchy(&padded, &levels, 1).unwrap();
            let exact = build_hierarchy(
                padded.len(),
                levels.len(),
                |level, p| Ok(assign(&levels[level], padded.point(p)).expect("covered")),
                |level| e.params.edge_weight(level),
                |level| e.params.tail_weight(level),
            )
            .unwrap();
            assert_eq!(packed.num_nodes(), exact.num_nodes(), "seed {seed}");
            for i in 0..ps.len() {
                for j in (i + 1)..ps.len() {
                    assert_eq!(packed.distance(i, j), exact.distance(i, j), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn duplicates_land_at_distance_zero() {
        let mut rows = vec![vec![5.0, 5.0], vec![5.0, 5.0]];
        rows.push(vec![200.0, 200.0]);
        let ps = PointSet::from_rows(&rows);
        let params = HybridParams::for_dataset(&ps, 2).unwrap();
        let emb = SeqEmbedder::new(params).embed(&ps, 9).unwrap();
        assert_eq!(emb.tree_distance(0, 1), 0.0);
        assert!(emb.tree_distance(0, 2) > 0.0);
    }

    #[test]
    fn singleton_input_embeds_to_single_leaf() {
        let ps = PointSet::from_rows(&[vec![3.0, 4.0]]);
        let params = HybridParams::for_dataset(&ps, 2).unwrap();
        let emb = SeqEmbedder::new(params).embed(&ps, 1).unwrap();
        assert_eq!(emb.tree.num_points(), 1);
        assert_eq!(emb.tree_distance(0, 0), 0.0);
    }

    #[test]
    fn tree_distance_bounded_by_diameter_scale() {
        // dist_T <= 2 * tail(0) = 4 sqrt(r) w_0 for every pair.
        let ps = small_set();
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let cap = 2.0 * params.tail_weight(0);
        let emb = SeqEmbedder::new(params).embed(&ps, 13).unwrap();
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                assert!(emb.tree_distance(i, j) <= cap * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn expected_distortion_is_moderate_on_small_sets() {
        // Average over seeds: E[dist_T]/dist should be far below the
        // deterministic worst case.
        let ps = generators::uniform_cube(16, 8, 128, 3);
        let params = HybridParams::for_dataset(&ps, 4).unwrap();
        let e = SeqEmbedder::new(params);
        let trees: Vec<_> = (0..12).map(|s| e.embed(&ps, s).unwrap()).collect();
        let mut worst: f64 = 0.0;
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let euclid = metrics::dist(ps.point(i), ps.point(j));
                let mean_t: f64 =
                    trees.iter().map(|t| t.tree_distance(i, j)).sum::<f64>() / trees.len() as f64;
                worst = worst.max(mean_t / euclid);
            }
        }
        // d = 8, r = 4, logΔ ~ 12: the Theorem-2 bound ~ sqrt(32)*12 ~ 68;
        // empirically far smaller. Guard loosely against regressions.
        assert!(worst < 60.0, "expected distortion {worst}");
    }
}
