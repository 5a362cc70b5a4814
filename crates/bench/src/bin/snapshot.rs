//! Hot-path kernel snapshot: measures the optimized kernels against
//! their straightforward reference implementations in-process and writes
//! machine-readable `BENCH_1.json`.
//!
//! ```text
//! cargo run --release -p treeemb-bench --bin snapshot            # writes BENCH_1.json
//! cargo run --release -p treeemb-bench --bin snapshot -- --out x.json --quick
//! cargo run --release -p treeemb-bench --bin snapshot -- --trace-out trace.json
//! ```
//!
//! A flag without its value, or an unknown flag, prints the usage line
//! and exits with status 2 before anything is measured or written.
//!
//! The pairs measured:
//!
//! * `partition_keys` — exact `HybridLevel::assign` (materializes
//!   per-bucket `Vec<i64>` cells) vs the allocation-free
//!   `assign_packed` 128-bit structural-hash key;
//! * `node_id_chain` — `assign` + `absorb_into` vs the streaming
//!   `absorb_assignment_into` (the MPC node-id hot path);
//! * `wht` — plain stage-by-stage butterflies vs the cache-blocked
//!   `wht_inplace` on a large transform;
//! * `executor_round` — a `thread::scope` spawn per round vs the
//!   persistent worker pool behind `par_map_indexed`;
//! * `audit_pairs` — the `O(n²·d)` distortion audit at 1 thread vs all
//!   available threads (row-partial formulation; equal results).
//!
//! Criterion benches also emit machine-readable lines when
//! `CRITERION_OUTPUT_JSON` points at a file; this binary is the small,
//! checked-in snapshot CI smoke-runs.

use std::fmt::Write as _;
use std::time::Instant;
use treeemb_fjlt::audit::distortion_report_parallel;
use treeemb_geom::generators;
use treeemb_linalg::wht::{wht_inplace, wht_stages_inplace};
use treeemb_obs::json::escape;
use treeemb_partition::ids::StructuralHash;
use treeemb_partition::HybridLevel;

struct Entry {
    id: String,
    median_ns: u128,
    samples: usize,
}

/// Median wall time of `samples` runs of `f` (each run may loop
/// internally to stay measurable).
fn measure(id: &str, samples: usize, mut f: impl FnMut()) -> Entry {
    // One warmup run populates caches and the worker pool.
    f();
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    Entry {
        id: id.to_string(),
        median_ns: times[times.len() / 2],
        samples,
    }
}

const USAGE: &str = "usage: snapshot [--quick] [--out FILE] [--trace-out FILE]";

/// Prints `msg` and the usage line, then exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("snapshot: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut out = "BENCH_1.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .unwrap_or_else(|| usage_error(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = value(),
            // Arms span collection (same effect as TREEEMB_TRACE=PATH
            // in the environment).
            "--trace-out" => treeemb_obs::set_trace_path(value()),
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    let samples = if quick { 5 } else { 15 };
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());

    let mut entries: Vec<Entry> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    let mut pair = |name: &str, base: Entry, opt: Entry, entries: &mut Vec<Entry>| {
        let s = base.median_ns as f64 / opt.median_ns.max(1) as f64;
        eprintln!(
            "{name}: reference {} ns, optimized {} ns, speedup {s:.2}x",
            base.median_ns, opt.median_ns
        );
        entries.push(base);
        entries.push(opt);
        speedups.push((name.to_string(), s));
    };

    // Partition keys: exact materialized cells vs packed hash.
    {
        let dim = 16;
        let ps = generators::uniform_cube(if quick { 256 } else { 1024 }, dim, 1 << 10, 3);
        let lvl = HybridLevel::new(dim, 4, 24.0, 64, 7);
        let pts: Vec<&[f64]> = ps.iter().collect();
        let base = measure("partition_keys/exact", samples, || {
            let mut alive = 0usize;
            for p in &pts {
                if lvl.assign(p).is_some() {
                    alive += 1;
                }
            }
            assert!(alive > 0);
        });
        let opt = measure("partition_keys/packed", samples, || {
            let mut alive = 0usize;
            for p in &pts {
                if lvl.assign_packed(p).is_some() {
                    alive += 1;
                }
            }
            assert!(alive > 0);
        });
        pair("partition_keys", base, opt, &mut entries);

        // Node-id chains (the MPC path): materialize-then-absorb vs stream.
        let h0 = StructuralHash::root().absorb(1);
        let base = measure("node_id_chain/materialized", samples, || {
            let mut acc = 0u64;
            for p in &pts {
                if let Some(a) = lvl.assign(p) {
                    acc ^= a.absorb_into(h0).value();
                }
            }
            std::hint::black_box(acc);
        });
        let opt = measure("node_id_chain/streamed", samples, || {
            let mut acc = 0u64;
            for p in &pts {
                if let Some(h) = lvl.absorb_assignment_into(p, h0) {
                    acc ^= h.value();
                }
            }
            std::hint::black_box(acc);
        });
        pair("node_id_chain", base, opt, &mut entries);
    }

    // End-to-end sequential embed: exact keys (cloned per-bucket cells
    // in the grouping hot loop) vs packed keys (copyable 16-byte keys).
    {
        use treeemb_core::params::HybridParams;
        use treeemb_core::seq::SeqEmbedder;
        let n = if quick { 256 } else { 1024 };
        let ps = generators::uniform_cube(n, 8, 1 << 10, 11);
        let embedder = SeqEmbedder::new(HybridParams::for_dataset(&ps, 4).unwrap());
        let base = measure("embed_tree/exact_keys", samples, || {
            let emb = embedder.embed_exact_keys(&ps, 5, 1).unwrap();
            std::hint::black_box(emb.tree.num_nodes());
        });
        let opt = measure("embed_tree/packed_keys", samples, || {
            let emb = embedder.embed(&ps, 5).unwrap();
            std::hint::black_box(emb.tree.num_nodes());
        });
        pair("embed_tree", base, opt, &mut entries);
    }

    // WHT: plain staged butterflies vs the cache-blocked transform.
    {
        let n = 1usize << 18;
        let input: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let reps = if quick { 1 } else { 3 };
        let mut buf = input.clone();
        let base = measure("wht/staged_plain", samples, || {
            for _ in 0..reps {
                buf.copy_from_slice(&input);
                wht_stages_inplace(&mut buf, 0, n.trailing_zeros());
                std::hint::black_box(buf[0]);
            }
        });
        let mut buf2 = input.clone();
        let opt = measure("wht/cache_blocked", samples, || {
            for _ in 0..reps {
                buf2.copy_from_slice(&input);
                wht_inplace(&mut buf2);
                std::hint::black_box(buf2[0]);
            }
        });
        assert_eq!(buf, buf2, "blocked WHT must be bit-identical");
        pair("wht", base, opt, &mut entries);
    }

    // Executor rounds: spawn-per-round scope vs the persistent pool.
    {
        let rounds = if quick { 50 } else { 200 };
        let k = threads.max(2);
        let base = measure("executor_round/spawn_per_round", samples, || {
            let mut acc = 0u64;
            for r in 0..rounds {
                let mut outs = vec![0u64; k];
                std::thread::scope(|s| {
                    for (i, slot) in outs.iter_mut().enumerate() {
                        s.spawn(move || *slot = (i as u64).wrapping_mul(r + 1));
                    }
                });
                acc ^= outs.iter().sum::<u64>();
            }
            std::hint::black_box(acc);
        });
        let opt = measure("executor_round/worker_pool", samples, || {
            let mut acc = 0u64;
            for r in 0..rounds {
                let outs = treeemb_mpc::exec::par_map_indexed(
                    (0..k as u64).collect::<Vec<u64>>(),
                    k,
                    move |_, i| i.wrapping_mul(r + 1),
                );
                acc ^= outs.iter().sum::<u64>();
            }
            std::hint::black_box(acc);
        });
        pair("executor_round", base, opt, &mut entries);
    }

    // Audit: O(n² d) distortion sweep, 1 thread vs all threads.
    {
        let ps = generators::uniform_cube(if quick { 192 } else { 512 }, 16, 1 << 10, 5);
        let scaled = {
            let rows: Vec<Vec<f64>> = ps
                .iter()
                .map(|p| p.iter().map(|x| x * 1.01).collect())
                .collect();
            treeemb_geom::PointSet::from_rows(&rows)
        };
        let base = measure("audit_pairs/serial", samples, || {
            std::hint::black_box(distortion_report_parallel(&ps, &scaled, 1));
        });
        let opt = measure("audit_pairs/parallel", samples, || {
            std::hint::black_box(distortion_report_parallel(&ps, &scaled, threads));
        });
        pair("audit_pairs", base, opt, &mut entries);
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"BENCH_1\",\n");
    let _ = writeln!(
        json,
        "  \"description\": \"hot-path kernel snapshot: reference vs optimized, median of {samples} samples\","
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"id\": {}, \"median_ns\": {}, \"samples\": {}}}",
            escape(&e.id),
            e.median_ns,
            e.samples
        );
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"speedups\": {\n");
    for (i, (name, s)) in speedups.iter().enumerate() {
        let _ = write!(json, "    {}: {s:.3}", escape(name));
        json.push_str(if i + 1 < speedups.len() { ",\n" } else { "\n" });
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out, &json).expect("write snapshot json");
    eprintln!("wrote {out}");

    let st = treeemb_mpc::exec::stats();
    eprintln!(
        "executor: {} jobs ({} sequential), {} tasks, {} chunk claims, \
         peak {} concurrent workers, utilization {:.1}%",
        st.jobs,
        st.sequential_jobs,
        st.tasks,
        st.chunk_claims,
        st.max_concurrent_workers,
        st.utilization() * 100.0
    );
    if let Some(path) = treeemb_obs::flush_trace() {
        eprintln!("wrote trace {}", path.display());
    }
}
