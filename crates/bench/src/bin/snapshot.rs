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
//! * `wht` — plain stage-by-stage butterflies vs the cache-blocked
//!   `wht_inplace` on a large transform;
//! * `executor_round` — a `thread::scope` spawn per round vs the
//!   persistent worker pool behind `par_map_indexed`.
//!
//! End-to-end costs (the MPC FJLT, Algorithm 2's grid scans, fault
//! recovery) are measured by the `perfbench/` benchmark, not here.

use std::fmt::Write as _;
use std::time::Instant;
use treeemb_linalg::wht::{wht_inplace, wht_stages_inplace};
use treeemb_obs::json::escape;

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
