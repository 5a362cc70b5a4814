//! MPC implementation of the FJLT (paper Algorithm 3 / Theorem 3).
//!
//! The transform runs in four phases on coordinate records
//! `(point, index, value)`:
//!
//! 1. **D** — multiply each record by the sign `D_{jj}` (machine-local;
//!    signs derive from the broadcast seed, so no table is shipped);
//! 2. **H** — distributed Walsh–Hadamard transform: the `log₂ d`
//!    butterfly stages are grouped into super-rounds of `b` bits. Each
//!    super-round co-locates, per point, the `2^b` coordinates sharing
//!    all index bits outside the group (one shuffle round), applies the
//!    `b` stages locally, and re-emits. `⌈log₂(d)/b⌉ = O(1/ε)` rounds —
//!    the same schedule as the MPC FFT of \[45\] that the paper invokes;
//! 3. **P** — a combiner on the sending machine: for each point it
//!    holds, a machine sums `P[i][j]·x_j` over its coordinates `j` and
//!    sends one record per output row `i` it touched; the receiver adds
//!    the partial sums by destination coordinate (one shuffle round +
//!    local fold). `P` is derived from the seed, built once per call and
//!    read by every machine through shared state; like the seed, it is
//!    not metered. The round sends at most `2·n·k` words per WHT class
//!    of a point (Theorem 3's `O(n·k)`);
//! 4. **gather** — output records are collected into a `k`-dimensional
//!    [`PointSet`].
//!
//! With the same [`FjltParams`], this computes the *same linear map* as
//! [`crate::fjlt::Fjlt`]. When the WHT runs in one super-round, each
//! point's coordinates sit on one machine and are summed in the order of
//! `CscMatrix::mul_vec`, so the output is bit-identical. With several
//! super-rounds a point's coordinates may be split across machines, and
//! adding their partial sums reassociates (differences well below the
//! tested `1e-9`).

use crate::fjlt::FjltParams;
use treeemb_geom::PointSet;
use treeemb_linalg::random::mix2;
use treeemb_linalg::sparse::fjlt_projection;
use treeemb_mpc::{MpcError, MpcResult, Runtime, Words};

/// One coordinate of one point in transit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coord {
    /// Point id.
    pub pt: u32,
    /// Coordinate index (input: `0..d_pad`; output: `0..k`).
    pub idx: u32,
    /// Value.
    pub val: f64,
}

impl Words for Coord {
    fn words(&self) -> usize {
        2 // packed (pt, idx) + value
    }
}

/// Applies the FJLT to `ps` on the simulated cluster. Returns the
/// `k`-dimensional embedded point set.
///
/// `ps.dim()` must equal `params.d`.
pub fn fjlt_mpc(rt: &mut Runtime, ps: &PointSet, params: &FjltParams) -> MpcResult<PointSet> {
    assert_eq!(ps.dim(), params.d, "params/point-set dimension mismatch");
    let mut sp = treeemb_obs::span!("fjlt.transform", "n" = ps.len(), "d" = params.d);
    sp.arg("k", params.k as u64);
    let n = ps.len();
    if n == 0 {
        return Ok(PointSet::new(params.k.max(1)));
    }
    if n > u32::MAX as usize {
        return Err(MpcError::AlgorithmFailure(
            "too many points for u32 ids".into(),
        ));
    }
    let m = rt.num_machines();

    // Load coordinate records (zeros omitted; they are implicit).
    let load_sp = treeemb_obs::span!("fjlt.load");
    let mut records = Vec::with_capacity(n * params.d);
    for (pt, p) in ps.iter().enumerate() {
        for (j, &v) in p.iter().enumerate() {
            if v != 0.0 {
                records.push(Coord {
                    pt: pt as u32,
                    idx: j as u32,
                    val: v,
                });
            }
        }
    }
    let mut dist = rt.distribute(records)?;
    drop(load_sp);

    // Phase D: machine-local sign flips.
    let sign_sp = treeemb_obs::span!("fjlt.sign");
    let p_d = *params;
    dist = rt.map_local(dist, move |_, mut shard| {
        for r in &mut shard {
            r.val *= p_d.d_sign(r.idx as usize);
        }
        shard
    })?;
    drop(sign_sp);

    // Phase H: butterfly super-rounds.
    let wht_sp = treeemb_obs::span!("fjlt.wht");
    let total_bits = params.d_pad.trailing_zeros();
    // Group size: each class holds 2^b coords of one point; a machine
    // must fit many classes, so bound 2^b by a quarter of capacity.
    let b_max = (rt.capacity() / 8).max(2).ilog2();
    let b = b_max.min(total_bits).max(1);
    let mut lo = 0u32;
    while lo < total_bits {
        let hi = (lo + b).min(total_bits);
        let width = hi - lo;
        let blk = 1usize << width;
        let group_mask: u32 = ((blk - 1) as u32) << lo;
        let label = format!("fjlt:wht:{lo}..{hi}");
        // Route: class = (pt, idx with group bits cleared).
        let routed = rt.round(&label, dist, move |_, shard, em| {
            for r in shard {
                let class = ((r.pt as u64) << 32) | (r.idx & !group_mask) as u64;
                let dest = (mix2(class, 0x87A5) % m as u64) as usize;
                em.send(dest, r);
            }
            Vec::new()
        })?;
        // Local stages: gather each class into a dense block, butterfly.
        dist = rt.map_local(routed, move |_, shard| {
            let mut classes: std::collections::BTreeMap<(u32, u32), Vec<f64>> =
                std::collections::BTreeMap::new();
            for r in shard {
                let rest = r.idx & !group_mask;
                let slot = ((r.idx & group_mask) >> lo) as usize;
                classes
                    .entry((r.pt, rest))
                    .or_insert_with(|| vec![0.0; blk])[slot] = r.val;
            }
            let mut out = Vec::with_capacity(classes.len() * blk);
            for ((pt, rest), mut vals) in classes {
                treeemb_linalg::wht::wht_inplace(&mut vals);
                for (t, v) in vals.into_iter().enumerate() {
                    if v != 0.0 {
                        out.push(Coord {
                            pt,
                            idx: rest | ((t as u32) << lo),
                            val: v,
                        });
                    }
                }
            }
            out
        })?;
        lo = hi;
    }
    drop(wht_sp);

    // Phase P: sender-side combine + aggregation. The round closure
    // owns `P`; every machine reads it by shared reference.
    let project_sp = treeemb_obs::span!("fjlt.project");
    let proj = fjlt_projection(params.k, params.d_pad, params.q, params.p_seed());
    let k = params.k;
    let routed = rt.round("fjlt:project", dist, move |_, mut shard, em| {
        // One run per point, coordinates ascending: the order in which
        // `CscMatrix::mul_vec` adds, so a point held whole by one
        // machine sums bit-identically to the sequential transform.
        shard.sort_unstable_by_key(|r| (r.pt, r.idx));
        // `None` marks a row no coordinate of the point touched.
        let mut acc: Vec<Option<f64>> = vec![None; k];
        for run in shard.chunk_by(|a, b| a.pt == b.pt) {
            let pt = run[0].pt;
            for r in run {
                for (i, pij) in proj.column(r.idx as usize) {
                    *acc[i as usize].get_or_insert(0.0) += pij * r.val;
                }
            }
            for (i, row) in acc.iter_mut().enumerate() {
                if let Some(val) = row.take() {
                    let key = ((pt as u64) << 32) | i as u64;
                    let dest = (mix2(key, 0x9B0B) % m as u64) as usize;
                    em.send(
                        dest,
                        Coord {
                            pt,
                            idx: i as u32,
                            val,
                        },
                    );
                }
            }
        }
        Vec::new()
    })?;
    let scale = params.output_scale();
    let summed = rt.map_local(routed, move |_, shard| {
        let mut acc: std::collections::BTreeMap<(u32, u32), f64> =
            std::collections::BTreeMap::new();
        for r in shard {
            *acc.entry((r.pt, r.idx)).or_insert(0.0) += r.val;
        }
        acc.into_iter()
            .map(|((pt, idx), val)| Coord {
                pt,
                idx,
                val: val * scale,
            })
            .collect()
    })?;

    drop(project_sp);

    // Gather into a dense k-dimensional point set.
    let _gather_sp = treeemb_obs::span!("fjlt.gather");
    let out_records = rt.gather(summed);
    let mut flat = vec![0.0; n * params.k];
    for r in out_records {
        flat[r.pt as usize * params.k + r.idx as usize] = r.val;
    }
    Ok(PointSet::from_flat(params.k, flat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fjlt::Fjlt;
    use treeemb_geom::generators;
    use treeemb_mpc::MpcConfig;

    fn runtime(cap: usize, machines: usize) -> Runtime {
        runtime_threads(cap, machines, 4)
    }

    fn runtime_threads(cap: usize, machines: usize, threads: usize) -> Runtime {
        Runtime::builder()
            .config(MpcConfig::explicit(1 << 16, cap, machines).with_threads(threads))
            .build()
    }

    fn bits(ps: &PointSet) -> Vec<u64> {
        ps.iter().flatten().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matches_sequential_transform() {
        let ps = generators::uniform_cube(12, 24, 256, 3);
        let params = FjltParams::explicit(24, 8, 0.5, 42);
        let seq = Fjlt::new(params).apply(&ps);
        let mut rt = runtime(4096, 8);
        let par = fjlt_mpc(&mut rt, &ps, &params).unwrap();
        assert_eq!(par.len(), 12);
        assert_eq!(par.dim(), 8);
        for i in 0..ps.len() {
            for j in 0..8 {
                let (a, b) = (seq.point(i)[j], par.point(i)[j]);
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                    "({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn matches_sequential_across_machine_counts() {
        let ps = generators::uniform_cube(6, 16, 64, 5);
        let params = FjltParams::explicit(16, 4, 0.7, 9);
        let seq = Fjlt::new(params).apply(&ps);
        for machines in [1usize, 3, 16] {
            let mut rt = runtime(8192, machines);
            let par = fjlt_mpc(&mut rt, &ps, &params).unwrap();
            for i in 0..ps.len() {
                for j in 0..4 {
                    assert!(
                        (seq.point(i)[j] - par.point(i)[j]).abs() < 1e-9,
                        "machines {machines}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_super_round_is_bit_identical_to_sequential() {
        let ps = generators::uniform_cube(12, 64, 256, 3);
        let params = FjltParams::explicit(64, 8, 0.5, 42);
        let seq = bits(&Fjlt::new(params).apply(&ps));
        for machines in [1usize, 3, 16] {
            for threads in [1usize, 4] {
                let mut rt = runtime_threads(1 << 14, machines, threads);
                let par = fjlt_mpc(&mut rt, &ps, &params).unwrap();
                assert_eq!(rt.metrics().rounds_labeled("fjlt:wht"), 1);
                assert_eq!(bits(&par), seq, "machines {machines} threads {threads}");
            }
        }
    }

    #[test]
    fn several_super_rounds_stay_close_and_thread_invariant() {
        let ps = generators::uniform_cube(12, 64, 256, 3);
        let params = FjltParams::explicit(64, 8, 0.5, 42);
        let seq = Fjlt::new(params).apply(&ps);
        let mut outs = Vec::new();
        for threads in [1usize, 4] {
            // Capacity 64 groups 3 bits per super-round: two rounds.
            let mut rt = runtime_threads(64, 256, threads);
            let par = fjlt_mpc(&mut rt, &ps, &params).unwrap();
            assert!(rt.metrics().rounds_labeled("fjlt:wht") > 1);
            for (a, b) in seq.iter().flatten().zip(par.iter().flatten()) {
                assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
            }
            outs.push(bits(&par));
        }
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn project_round_sends_at_most_n_k_records_per_wht_class() {
        // Theorem 3: after combining, the projection round carries
        // O(n·k) words — one `Coord` (2 words) per point, output row and
        // WHT class of the point (the last super-round's classes each
        // hold `2^b` coordinates of one point).
        let (n, d, k) = (32usize, 64usize, 8usize);
        let ps = generators::uniform_cube(n, d, 256, 8);
        let params = FjltParams::explicit(d, k, 0.5, 4);
        // Capacity 64 groups the 6 index bits as 3 + 3: 8 classes.
        for (cap, classes) in [(1usize << 14, 1usize), (64, 8)] {
            let mut rt = runtime(cap, 512);
            let _ = fjlt_mpc(&mut rt, &ps, &params).unwrap();
            let words = rt.metrics().words_labeled("fjlt:project");
            assert!(
                words <= 2 * n * k * classes,
                "cap {cap}: {words} words > 2·{n}·{k}·{classes}"
            );
        }
    }

    #[test]
    fn round_count_is_constant_in_n() {
        let params = FjltParams::explicit(32, 8, 0.5, 1);
        let mut rounds = Vec::new();
        for n in [8usize, 32, 128] {
            let ps = generators::uniform_cube(n, 32, 512, 7);
            let mut rt = runtime(1 << 14, 16);
            let _ = fjlt_mpc(&mut rt, &ps, &params).unwrap();
            rounds.push(rt.metrics().rounds());
        }
        assert_eq!(rounds[0], rounds[1]);
        assert_eq!(rounds[1], rounds[2]);
    }

    #[test]
    fn wht_rounds_shrink_with_capacity() {
        let ps = generators::uniform_cube(8, 64, 128, 2);
        let params = FjltParams::explicit(64, 8, 0.5, 3);
        // Strict capacity: the combined projection round fits too.
        let mut small = runtime(64, 64);
        let _ = fjlt_mpc(&mut small, &ps, &params).unwrap();
        let mut big = runtime(1 << 14, 64);
        let _ = fjlt_mpc(&mut big, &ps, &params).unwrap();
        let small_wht = small.metrics().rounds_labeled("fjlt:wht");
        let big_wht = big.metrics().rounds_labeled("fjlt:wht");
        assert!(small_wht > big_wht, "{small_wht} vs {big_wht}");
        assert_eq!(
            big_wht, 1,
            "big capacity should do the WHT in one super-round"
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let ps = PointSet::new(4);
        let params = FjltParams::explicit(4, 2, 0.5, 1);
        let mut rt = runtime(1024, 4);
        let out = fjlt_mpc(&mut rt, &ps, &params).unwrap();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn preserves_distances_like_sequential() {
        let ps = generators::uniform_cube(16, 48, 1024, 11);
        let params = FjltParams::for_dataset(16, 48, 0.45, 13);
        let mut rt = runtime(1 << 15, 8);
        let out = fjlt_mpc(&mut rt, &ps, &params).unwrap();
        let report = crate::audit::distortion_report(&ps, &out);
        assert!(
            report.max_expansion < 2.0 && report.max_contraction > 0.5,
            "{report:?}"
        );
    }
}
