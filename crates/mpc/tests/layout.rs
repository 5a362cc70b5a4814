//! The production primitives do not depend on how the input is laid out
//! across machines.
//!
//! One input is fed through [`Dist::from_parts`] in four contiguous,
//! order-preserving layouts: everything on machine 0 (what greedy
//! `distribute` produces), balanced, everything on the last machine, and
//! skewed. Hash-routed primitives deliver each destination its records
//! in source-machine order, so with an order-preserving layout their
//! output shards, and every round count, must be identical.

use treeemb_mpc::primitives::{aggregate, join, shuffle};
use treeemb_mpc::{Dist, MpcConfig, Runtime};

const MACHINES: usize = 8;

#[derive(Debug, Clone, Copy)]
enum Layout {
    Greedy,
    Balanced,
    Last,
    Skewed,
}

/// Splits `data` into `MACHINES` contiguous shards, in input order.
fn lay_out<T: Clone>(data: &[T], layout: Layout) -> Dist<T> {
    let mut parts: Vec<Vec<T>> = vec![Vec::new(); MACHINES];
    match layout {
        Layout::Greedy => parts[0] = data.to_vec(),
        Layout::Balanced => {
            for (i, chunk) in data.chunks(data.len().div_ceil(MACHINES)).enumerate() {
                parts[i] = chunk.to_vec();
            }
        }
        Layout::Last => parts[MACHINES - 1] = data.to_vec(),
        Layout::Skewed => {
            let cut = 3 * data.len() / 4;
            parts[1] = data[..cut].to_vec();
            parts[MACHINES - 2] = data[cut..].to_vec();
        }
    }
    Dist::from_parts(parts)
}

#[derive(Debug, PartialEq)]
struct Outcome {
    dedup: Vec<Vec<u64>>,
    groups: Vec<Vec<(u64, u64)>>,
    joined: Vec<Vec<(u64, u64)>>,
    max: Option<u64>,
    rounds: usize,
}

fn run(values: &[u64], table: &[(u64, u64)], layout: Layout) -> (Outcome, f64) {
    let mut rt = Runtime::builder()
        .config(MpcConfig::explicit(1 << 16, 8192, MACHINES).with_threads(2))
        .build();
    let dedup = shuffle::dedup_by_key(&mut rt, lay_out(values, layout), |x| *x).unwrap();
    let groups = shuffle::group_fold(
        &mut rt,
        lay_out(values, layout),
        |x| x % 97,
        |k, g| (k, g.iter().sum()),
    )
    .unwrap();
    let joined = join::join_by_key(
        &mut rt,
        lay_out(values, layout),
        lay_out(table, layout),
        |v| v % 100,
        |r: &(u64, u64)| r.0,
        |v, r| (*v, r.1),
    )
    .unwrap();
    let input = lay_out(values, layout);
    let max = aggregate::max_by(&mut rt, &input, |x| *x).unwrap();
    let sum = aggregate::sum_by(&mut rt, &input, |x| *x as f64 / 7.0).unwrap();
    let outcome = Outcome {
        dedup: dedup.parts().to_vec(),
        groups: groups.parts().to_vec(),
        joined: joined.parts().to_vec(),
        max,
        rounds: rt.metrics().rounds(),
    };
    (outcome, sum)
}

#[test]
fn hash_routed_primitives_are_layout_independent() {
    let values: Vec<u64> = (0..2000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) % 1500)
        .collect();
    let table: Vec<(u64, u64)> = (0..100u64).map(|k| (k, k * 7 + 1)).collect();
    let (reference, ref_sum) = run(&values, &table, Layout::Greedy);
    assert_eq!(reference.joined.iter().map(Vec::len).sum::<usize>(), 2000);
    for layout in [Layout::Balanced, Layout::Last, Layout::Skewed] {
        let (outcome, sum) = run(&values, &table, layout);
        assert_eq!(
            outcome, reference,
            "{layout:?} changed an output or a round count"
        );
        // The per-machine partial sums follow the layout, so the float
        // additions associate differently: agreement is up to rounding.
        assert!(
            (sum - ref_sum).abs() <= 1e-12 * ref_sum.abs(),
            "{layout:?}: sum {sum} vs {ref_sum}"
        );
    }
}
