//! Criterion benches for the MPC substrate primitives.

use criterion::{criterion_group, criterion_main, Criterion};
use treeemb_mpc::primitives::{aggregate, broadcast, shuffle};
use treeemb_mpc::{MpcConfig, Runtime};

fn rt(machines: usize) -> Runtime {
    Runtime::builder()
        .config(MpcConfig::explicit(1 << 20, 1 << 14, machines).with_threads(4))
        .build()
}

fn bench_shuffle(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpc_shuffle");
    g.sample_size(20);
    let data: Vec<u64> = (0..50_000u64).collect();
    g.bench_function("hash_shuffle_50k", |b| {
        b.iter(|| {
            let mut rt = rt(32);
            let dist = rt.distribute(data.clone()).unwrap();
            shuffle::shuffle_by_key(&mut rt, dist, |x| *x).unwrap()
        });
    });
    g.finish();
}

fn bench_reduce_broadcast(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpc_collectives");
    g.sample_size(20);
    let data: Vec<u64> = (0..100_000u64).collect();
    g.bench_function("count_100k_64m", |b| {
        b.iter(|| {
            let mut rt = rt(64);
            let dist = rt.distribute(data.clone()).unwrap();
            aggregate::count(&mut rt, &dist).unwrap()
        });
    });
    let payload: Vec<f64> = (0..1000).map(|i| i as f64).collect();
    g.bench_function("broadcast_1k_words_64m", |b| {
        b.iter(|| {
            let mut rt = rt(64);
            broadcast::broadcast(&mut rt, payload.clone()).unwrap()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_shuffle, bench_reduce_broadcast);
criterion_main!(benches);
