//! Regenerates the content of the paper's Figure 1 as ASCII rasters:
//! (a) a random shifted grid, (b) one grid of balls (with uncovered
//! gaps), (c) a hybrid partitioning slice with cylinder-shaped cells.
//!
//! ```text
//! cargo run --release --example partition_figure
//! ```

use treeemb::partition::ball::BallGrid;
use treeemb::partition::grid::ShiftedGrid;
use treeemb::partition::hybrid::HybridLevel;
use treeemb::partition::ids::StructuralHash;

const GLYPHS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ#@%&*+=<>";

fn raster(side: f64, res: usize, label: impl Fn(&[f64]) -> Option<u64>) -> String {
    let mut ids = std::collections::HashMap::new();
    let mut s = String::new();
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
    let mut h = StructuralHash::root().absorb(salt);
    for &c in cells {
        h = h.absorb_i64(c);
    }
    h.value()
}

fn main() {
    let side = 4.0;
    let res = 56;
    let seed = 20230617;

    let grid = ShiftedGrid::from_seed(2, 1.0, seed);
    println!("(a) random shifted grid, w = 1 — cells tile the plane:\n");
    println!(
        "{}",
        raster(side, res, |p| Some(hash_cells(&grid.cell_of(p), 1)))
    );

    let ball = BallGrid::from_seed(2, 1.0, 0.25, seed);
    println!("(b) one grid of balls, radius 1/4 — '.' is uncovered, so more grids are drawn:\n");
    println!(
        "{}",
        raster(side, res, |p| ball.ball_of(p).map(|c| hash_cells(&c, 2)))
    );

    // Hybrid with r = 2 over (x, y, z, pad): bucket 1 = {x, y} disks,
    // bucket 2 = {z, pad} intervals; the 3-D cells are cylinders. We
    // render the z = 0.5 slice.
    let hybrid = HybridLevel::new(4, 2, 0.25, 600, seed);
    println!("(c) hybrid partitioning slice (r = 2): disks × intervals = cylinders:\n");
    println!(
        "{}",
        raster(side, res, |p| {
            hybrid.key(&[p[0], p[1], 0.5, 0.0]).ok().map(|k| k.lo)
        })
    );
}
