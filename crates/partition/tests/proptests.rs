//! Property tests for the partitioning layer: geometric invariants that
//! must hold for every point, scale, and seed.
//!
//! Case count defaults to 64 (fast, every CI run); set
//! `TREEEMB_PROPTEST_CASES=2048` (or higher) for the promoted nightly
//! sweep — in particular the packed-key vs exact-key partition parity
//! property, which guards the `HybridLevel::key` hot path.

use proptest::prelude::*;
use treeemb_geom::metrics::dist;
use treeemb_partition::ball::{BallGrid, GridSequence};
use treeemb_partition::fuzzing::{assign, assign_ball};
use treeemb_partition::grid::ShiftedGrid;
use treeemb_partition::hybrid::HybridLevel;

/// `TREEEMB_PROPTEST_CASES` override, defaulting to 64.
fn cases() -> u32 {
    // lint:allow(env-read): test-harness knob (case-count budget), not
    // runtime configuration; documented alongside from_env.
    std::env::var("TREEEMB_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn covered_point_is_within_radius_of_its_ball(
        seed in 0u64..100_000,
        x in -500f64..500.0,
        y in -500f64..500.0,
        w in 0.5f64..50.0,
    ) {
        let g = BallGrid::from_seed(2, 4.0 * w, w, seed);
        if let Some(cell) = g.ball_of(&[x, y]) {
            // Reconstruct the ball center: shift + cell * cell-length.
            let center: Vec<f64> = cell
                .iter()
                .zip(g.shift())
                .map(|(&c, &s)| s + c as f64 * 4.0 * w)
                .collect();
            prop_assert!(dist(&center, &[x, y]) <= w * (1.0 + 1e-9));
        }
    }

    #[test]
    fn points_in_same_ball_are_within_diameter(
        seed in 0u64..100_000,
        x in -100f64..100.0,
        y in -100f64..100.0,
        dx in -10f64..10.0,
        dy in -10f64..10.0,
        w in 1.0f64..20.0,
    ) {
        let g = BallGrid::from_seed(2, 4.0 * w, w, seed);
        let p = [x, y];
        let q = [x + dx, y + dy];
        if let (Some(cp), Some(cq)) = (g.ball_of(&p), g.ball_of(&q)) {
            if cp == cq {
                prop_assert!(dist(&p, &q) <= 2.0 * w * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn sequence_assignment_respects_priority(
        seed in 0u64..100_000,
        x in -100f64..100.0,
        y in -100f64..100.0,
    ) {
        let seq = GridSequence::build(2, 2.0, 40, seed);
        if let Some(a) = assign_ball(&seq, &[x, y]) {
            for u in 0..a.grid_index as usize {
                prop_assert!(
                    seq.grids()[u].ball_of(&[x, y]).is_none(),
                    "earlier grid {u} covered the point"
                );
            }
        }
    }

    #[test]
    fn grid_cells_partition_space_consistently(
        seed in 0u64..100_000,
        x in -1000f64..1000.0,
        w in 0.1f64..100.0,
    ) {
        // A point strictly inside a cell stays in the same cell under
        // tiny perturbation.
        let g = ShiftedGrid::from_seed(1, w, seed);
        let cell = g.cell_of(&[x]);
        let lo = g.cell_of(&[x - 1e-12 * w]);
        let hi = g.cell_of(&[x + 1e-12 * w]);
        prop_assert!(cell == lo || cell == hi);
    }

    #[test]
    fn hybrid_equals_bucketwise_ball_partitions(
        seed in 0u64..100_000,
        coords in proptest::collection::vec(-50f64..50.0, 6),
    ) {
        // Definition 3: the hybrid assignment IS the tuple of per-bucket
        // ball assignments of the projections.
        let lvl = HybridLevel::new(6, 3, 5.0, 200, seed);
        let p: Vec<f64> = coords;
        if let Some(a) = assign(&lvl, &p) {
            prop_assert_eq!(a.buckets.len(), 3);
            for (j, seq) in lvl.sequences().iter().enumerate() {
                let proj = &p[j * 2..(j + 1) * 2];
                let direct = assign_ball(seq, proj).expect("bucket covered in hybrid");
                prop_assert_eq!(&a.buckets[j], &direct);
            }
        }
    }

    #[test]
    fn packed_and_exact_keys_induce_identical_partitions(
        seed in 0u64..100_000,
        bucket_dim in 1usize..4,
        r in 1usize..4,
        w in 0.5f64..20.0,
        probe in 0u64..1000,
    ) {
        // The packed 128-bit key must group points exactly as the
        // materialized per-bucket assignments do, for every geometry.
        let dim = bucket_dim * r;
        let lvl = HybridLevel::new(dim, r, w, 40, seed);
        let point = |t: u64| -> Vec<f64> {
            (0..dim)
                .map(|j| {
                    let u = treeemb_linalg::random::unit_f64(probe ^ 0x9E37, t * 31 + j as u64);
                    (u - 0.5) * 80.0
                })
                .collect()
        };
        let pts: Vec<Vec<f64>> = (0..12).map(point).collect();
        let exact: Vec<_> = pts.iter().map(|p| assign(&lvl, p)).collect();
        let packed: Vec<_> = pts.iter().map(|p| lvl.key(p).ok()).collect();
        for (e, k) in exact.iter().zip(&packed) {
            prop_assert_eq!(e.is_some(), k.is_some());
        }
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if exact[i].is_some() && exact[j].is_some() {
                    prop_assert_eq!(exact[i] == exact[j], packed[i] == packed[j]);
                }
            }
        }
    }

    #[test]
    fn cell_factor_two_covers_dimension_one_completely(
        seed in 0u64..100_000,
        x in -1000f64..1000.0,
        w in 0.5f64..50.0,
    ) {
        // In 1-D with cell = 2w, every point is within w of some vertex.
        let seq = GridSequence::build_with_cell_factor(1, w, 2.0, 1, seed);
        prop_assert!(assign_ball(&seq, &[x]).is_some());
    }
}
