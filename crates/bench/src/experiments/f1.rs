//! F1 — Figure 1: one level of grid, ball, and hybrid partitioning.
//!
//! The paper's Figure 1 is an illustration; we regenerate its content as
//! (a) ASCII raster renderings of the three partitionings of a 2-D/3-D
//! patch and (b) an occupancy table quantifying what the figure shows:
//! grids cover everything with one draw; one ball grid covers only a
//! `V_m/4^m` fraction; hybrid's per-bucket coverage matches the 1-D/2-D
//! products.

use crate::{table::fnum, Scale, Table};
use treeemb_partition::ball::BallGrid;
use treeemb_partition::grid::ShiftedGrid;
use treeemb_partition::hybrid::HybridLevel;

/// Renders one partitioning of the `[0, side)²` patch as an ASCII
/// raster: each sample point prints the symbol of its partition (or
/// `'.'` when uncovered).
fn raster(side: f64, res: usize, label: impl Fn(&[f64]) -> Option<u64>) -> String {
    const GLYPHS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    let mut ids: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
    let mut s = String::with_capacity(res * (res + 1));
    for iy in 0..res {
        for ix in 0..res {
            let p = [
                side * (ix as f64 + 0.5) / res as f64,
                side * (iy as f64 + 0.5) / res as f64,
            ];
            match label(&p) {
                None => s.push('.'),
                Some(key) => {
                    let next = (ids.len() % GLYPHS.len()) as u8;
                    let g = *ids.entry(key).or_insert(next);
                    s.push(GLYPHS[g as usize] as char);
                }
            }
        }
        s.push('\n');
    }
    s
}

fn hash_cells(cells: &[i64], salt: u64) -> u64 {
    let mut h = treeemb_partition::ids::StructuralHash::root().absorb(salt);
    for &c in cells {
        h = h.absorb_i64(c);
    }
    h.value()
}

/// Runs F1.
pub fn run(scale: Scale) -> Vec<Table> {
    let res = scale.pick(24, 48);
    let side = 4.0;
    let w = 1.0;
    let seed = 20230617;

    // (a) grid partitioning, cell width 1.
    let grid = ShiftedGrid::from_seed(2, w, seed);
    let grid_art = raster(side, res, |p| Some(hash_cells(&grid.cell_of(p), 1)));

    // (b) one grid of balls, radius 1/4, cell 1.
    let ball = BallGrid::from_seed(2, 4.0 * (w / 4.0), w / 4.0, seed);
    let ball_art = raster(side, res, |p| ball.ball_of(p).map(|c| hash_cells(&c, 2)));

    // (c) hybrid r = 2 in 3-D, sliced at z = 0.5: bucket {x,y} is a 2-D
    // ball partition, bucket {z} a 1-D ball partition.
    let hybrid = HybridLevel::new(4, 2, w / 4.0, 400, seed);
    let hybrid_art = raster(side, res, |p| {
        let p3 = [p[0], p[1], 0.5, 0.0]; // padded to 4 dims (r | d)
        hybrid.key(&p3).ok().map(|k| k.lo)
    });

    println!("F1(a) random shifted grid (w=1):\n{grid_art}");
    println!("F1(b) one grid of balls (w=1/4): '.' = uncovered\n{ball_art}");
    println!("F1(c) hybrid r=2 slice (w=1/4): '.' = uncovered\n{hybrid_art}");

    // Quantify the figure: coverage fraction of a single draw.
    let mut t = Table::new(
        "F1",
        "single-draw coverage fraction per method (paper Fig. 1: grids tile, one ball grid leaves gaps)",
        &["method", "dim", "covered_fraction", "analytic"],
    );
    let samples = scale.pick(4000, 40_000);
    let mut covered_ball = 0usize;
    let mut covered_hybrid = 0usize;
    for i in 0..samples {
        let x = side * treeemb_linalg::random::unit_f64(7, i as u64);
        let y = side * treeemb_linalg::random::unit_f64(8, i as u64);
        if ball.ball_of(&[x, y]).is_some() {
            covered_ball += 1;
        }
        let z = side * treeemb_linalg::random::unit_f64(9, i as u64);
        let hb = HybridLevel::new(
            4,
            2,
            w / 4.0,
            1,
            treeemb_linalg::random::mix2(seed, i as u64),
        );
        if hb.key(&[x, y, z, 0.0]).is_ok() {
            covered_hybrid += 1;
        }
    }
    t.row(vec![
        "grid".into(),
        "2".into(),
        "1.000".into(),
        "1 (tiles)".into(),
    ]);
    let pi16 = std::f64::consts::PI / 16.0;
    t.row(vec![
        "ball(1 grid)".into(),
        "2".into(),
        fnum(covered_ball as f64 / samples as f64),
        format!("pi/16 = {}", fnum(pi16)),
    ]);
    // Hybrid single-draw coverage in the 3-D slice: bucket {x,y} covers
    // with pi/16... buckets here are 2-D pairs: (x,y) and (z,0-pad).
    t.row(vec![
        "hybrid(r=2,1 grid/bucket)".into(),
        "3+pad".into(),
        fnum(covered_hybrid as f64 / samples as f64),
        format!("(pi/16)^2 = {}", fnum(pi16 * pi16)),
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_produces_coverage_table() {
        let tables = run(Scale::quick());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 3);
        // Ball single-grid coverage should be near pi/16.
        let ball_cov: f64 = tables[0].rows[1][2].parse().unwrap();
        assert!(
            (ball_cov - std::f64::consts::PI / 16.0).abs() < 0.05,
            "{ball_cov}"
        );
    }

    #[test]
    fn raster_marks_uncovered_with_dots() {
        let ball = BallGrid::from_seed(2, 1.0, 0.25, 3);
        let art = raster(4.0, 16, |p| ball.ball_of(p).map(|c| hash_cells(&c, 2)));
        assert!(art.contains('.'), "a single ball grid must leave gaps");
    }
}
