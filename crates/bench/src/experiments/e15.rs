//! E15 — ablation: the ball-grid cell factor. Definition 2 fixes
//! `ℓ = 4w`; any `ℓ ≥ 2w` keeps balls disjoint. Smaller factors cover
//! far more per grid (`V_m/factor^m`) and so need far fewer grids, at a
//! higher ball-boundary density (more cuts). This quantifies a design
//! choice the paper makes silently.

use crate::{table::fnum, Scale, Table};
use treeemb_linalg::random::mix2;
use treeemb_partition::coverage::per_grid_cover_prob_factor;
use treeemb_partition::hybrid::HybridLevel;

/// Runs E15.
pub fn run(scale: Scale) -> Vec<Table> {
    let trials = scale.pick(400, 2000);
    let d = 8usize;
    let r = 2usize;
    let m = d / r;
    let w = 32.0;
    let dist = 4.0;
    let mut t = Table::new(
        "E15",
        "cell-factor ablation (d=8, r=2, w=32, pair at distance 4): coverage/grid vs cut probability",
        &[
            "factor",
            "per-grid cover p (m=4)",
            "grids for 99.9% cover",
            "cut probability",
            "cut × grids (cost proxy)",
        ],
    );
    for &factor in &[2.0f64, 2.5, 3.0, 4.0, 6.0] {
        let p_cover = per_grid_cover_prob_factor(m, factor);
        let grids = ((0.001f64).ln() / (1.0 - p_cover).ln()).ceil() as usize;
        // Cut probability with this factor, enough grids to cover.
        let budget = grids * 8;
        let mut cuts = 0usize;
        let p = vec![10.0; d];
        let mut q = p.clone();
        q[0] += dist;
        for trial in 0..trials {
            let lvl =
                HybridLevel::with_cell_factor(d, r, w, factor, budget, mix2(99, trial as u64));
            match (lvl.key(&p), lvl.key(&q)) {
                (Ok(a), Ok(b)) if a == b => {}
                _ => cuts += 1,
            }
        }
        let cut = cuts as f64 / trials as f64;
        t.row(vec![
            fnum(factor),
            fnum(p_cover),
            grids.to_string(),
            fnum(cut),
            fnum(cut * grids as f64),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_smaller_factor_needs_fewer_grids() {
        let tables = run(Scale::quick());
        let grids: Vec<usize> = tables[0]
            .rows
            .iter()
            .map(|r| r[2].parse().unwrap())
            .collect();
        assert!(
            grids.windows(2).all(|w| w[0] <= w[1]),
            "grid count should grow with factor: {grids:?}"
        );
        // Factor 2 vs 4: order-of-magnitude saving at m=4.
        assert!(grids[0] * 5 < grids[3], "{grids:?}");
    }
}
