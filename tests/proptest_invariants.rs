//! Property-based tests of the core invariants, across crates.
//!
//! These are the paper's *deterministic* guarantees — they must hold for
//! every input and every seed, so they are stated as properties:
//!
//! * domination: `dist_T(p,q) ≥ ‖p−q‖₂` (Lemma 2);
//! * the tree metric is a metric (symmetry + triangle inequality);
//! * partition diameter: points sharing a hybrid partition at scale `w`
//!   are within `2√r·w` (Lemma 1, second part);
//! * the normalized WHT is an involution and an isometry;
//! * grid/ball assignments are shift-consistent.

use proptest::prelude::*;
use treeemb::core::params::HybridParams;
use treeemb::core::seq::SeqEmbedder;
use treeemb::geom::{metrics, PointSet};
use treeemb::linalg::wht;
use treeemb::partition::fuzzing::assign;
use treeemb::partition::hybrid::HybridLevel;

/// Strategy: a small integer point set in [1, 64]^d with d in 2..=6.
fn point_set() -> impl Strategy<Value = PointSet> {
    (2usize..=6, 2usize..=12).prop_flat_map(|(d, n)| {
        proptest::collection::vec(proptest::collection::vec(1i32..=64, d), n).prop_map(
            move |rows| {
                let rows: Vec<Vec<f64>> = rows
                    .into_iter()
                    .map(|r| r.into_iter().map(f64::from).collect())
                    .collect();
                PointSet::from_rows(&rows)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn domination_holds_for_every_input_and_seed(ps in point_set(), seed in 0u64..1000) {
        let r = 2.min(ps.dim());
        let params = HybridParams::for_dataset(&ps, r).unwrap();
        let emb = SeqEmbedder::new(params).embed(&ps, seed).unwrap();
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                let e = metrics::dist(ps.point(i), ps.point(j));
                let t = emb.tree_distance(i, j);
                prop_assert!(t >= e * (1.0 - 1e-9), "({i},{j}): tree {t} < euclid {e}");
            }
        }
    }

    #[test]
    fn tree_metric_satisfies_metric_axioms(ps in point_set(), seed in 0u64..1000) {
        let r = 2.min(ps.dim());
        let params = HybridParams::for_dataset(&ps, r).unwrap();
        let emb = SeqEmbedder::new(params).embed(&ps, seed).unwrap();
        let n = ps.len();
        for i in 0..n {
            prop_assert_eq!(emb.tree_distance(i, i), 0.0);
            for j in 0..n {
                let dij = emb.tree_distance(i, j);
                prop_assert!((dij - emb.tree_distance(j, i)).abs() < 1e-12);
                for k in 0..n {
                    prop_assert!(
                        emb.tree_distance(i, k) <= dij + emb.tree_distance(j, k) + 1e-9,
                        "triangle violated"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hybrid_partition_diameter_bound(
        seed in 0u64..10_000,
        w in 0.5f64..64.0,
        coords in proptest::collection::vec((0f64..100.0, 0f64..100.0, 0f64..100.0, 0f64..100.0), 2..20),
    ) {
        let level = HybridLevel::new(4, 2, w, 600, seed);
        let bound = level.diameter_bound() + 1e-9;
        let points: Vec<[f64; 4]> = coords.iter().map(|&(a, b, c, d)| [a, b, c, d]).collect();
        let mut groups: std::collections::HashMap<_, Vec<usize>> = std::collections::HashMap::new();
        for (i, p) in points.iter().enumerate() {
            if let Some(a) = assign(&level, p) {
                groups.entry(a).or_default().push(i);
            }
        }
        for members in groups.values() {
            for &a in members {
                for &b in members {
                    let d = metrics::dist(&points[a], &points[b]);
                    prop_assert!(d <= bound, "{d} > {bound} at w={w}");
                }
            }
        }
    }

    #[test]
    fn wht_is_involutive_isometry(data in proptest::collection::vec(-100f64..100.0, 1..=64)) {
        let mut padded = data.clone();
        padded.resize(wht::next_pow2(data.len()), 0.0);
        let original = padded.clone();
        let norm_before: f64 = padded.iter().map(|x| x * x).sum();
        wht::wht_normalized_inplace(&mut padded);
        let norm_after: f64 = padded.iter().map(|x| x * x).sum();
        prop_assert!((norm_before - norm_after).abs() <= 1e-9 * (1.0 + norm_before));
        wht::wht_normalized_inplace(&mut padded);
        for (a, b) in padded.iter().zip(&original) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn grid_cells_are_translation_consistent(
        seed in 0u64..10_000,
        x in -1000f64..1000.0,
        y in -1000f64..1000.0,
        k in -20i64..20,
    ) {
        // Shifting a point by exactly k cells moves its cell id by k.
        use treeemb::partition::grid::ShiftedGrid;
        let w = 4.0;
        let g = ShiftedGrid::from_seed(2, w, seed);
        let c0 = g.cell_of(&[x, y]);
        let c1 = g.cell_of(&[x + k as f64 * w, y]);
        prop_assert_eq!(c1[0], c0[0] + k);
        prop_assert_eq!(c1[1], c0[1]);
    }
}
