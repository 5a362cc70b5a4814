//! Integration tests for the tracing layer as wired into the MPC
//! runtime: spans recorded from executor workers, round spans with word
//! counters, and executor counters flowing into the trace.
//!
//! Runs as its own process, so arming the global collector here cannot
//! leak into the library's unit tests. Within this binary the tests
//! serialize on a mutex (the collector is process-global).

use std::sync::Mutex;
use std::sync::MutexGuard;
use treeemb_mpc::{MpcConfig, Runtime};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn spans_from_eight_executor_workers_interleave_without_loss() {
    let _g = test_lock();
    treeemb_obs::capture_start();
    treeemb_obs::drain();
    let n = 512usize;
    // 9 participants = the caller plus 8 pool workers; every item opens
    // a span inside the worker closure.
    let out = treeemb_mpc::exec::par_map_indexed((0..n as u64).collect::<Vec<u64>>(), 9, |i, x| {
        let _sp = treeemb_obs::span!("worker.item", "i" = i);
        std::thread::sleep(std::time::Duration::from_micros(50));
        x + 1
    });
    treeemb_obs::capture_stop();
    assert_eq!(out.len(), n);
    let events = treeemb_obs::drain();
    let items: Vec<_> = events.iter().filter(|e| e.name == "worker.item").collect();
    assert_eq!(items.len(), n, "every per-item span must be recorded");
    // All n distinct item indices survive, regardless of interleaving.
    let mut seen: Vec<u64> = items
        .iter()
        .map(|e| e.args.iter().find(|(k, _)| *k == "i").expect("arg i").1)
        .collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), n);
    // The items really ran on multiple threads.
    let tids: std::collections::HashSet<u64> = items.iter().map(|e| e.tid).collect();
    assert!(tids.len() >= 2, "expected multi-threaded execution");
    // The enclosing executor job span exists and contains the items.
    let job = events
        .iter()
        .find(|e| e.name == "exec.map")
        .expect("exec.map span");
    for item in &items {
        assert!(item.start_ns >= job.start_ns);
        assert!(item.start_ns + item.dur_ns <= job.start_ns + job.dur_ns);
    }
}

#[test]
fn round_spans_carry_word_counters_and_nest_under_primitives() {
    let _g = test_lock();
    treeemb_obs::capture_start();
    treeemb_obs::drain();
    let mut rt = Runtime::builder()
        .config(MpcConfig::explicit(1 << 12, 256, 8).with_threads(4))
        .build();
    let dist = rt.distribute((0..64u64).collect()).unwrap();
    let distinct = treeemb_mpc::primitives::shuffle::dedup_by_key(&mut rt, dist, |x| *x).unwrap();
    assert_eq!(rt.gather(distinct).len(), 64);
    treeemb_obs::capture_stop();
    let events = treeemb_obs::drain();

    let dedup_span = events
        .iter()
        .find(|e| e.name == "mpc.dedup")
        .expect("mpc.dedup span");
    let round_spans: Vec<_> = events
        .iter()
        .filter(|e| e.name.starts_with("mpc.round:"))
        .collect();
    assert!(!round_spans.is_empty(), "rounds must produce spans");
    for r in &round_spans {
        // Every round span carries the word counters as arguments.
        for key in ["round", "sent_words", "max_resident_words"] {
            assert!(
                r.args.iter().any(|(k, _)| *k == key),
                "round span {} missing arg {key}",
                r.name
            );
        }
        // Rounds belonging to the dedup (its inner shuffle) nest
        // strictly inside its span.
        if r.name.contains("shuffle") {
            assert!(r.depth > dedup_span.depth);
            assert!(r.start_ns >= dedup_span.start_ns);
            assert!(r.start_ns + r.dur_ns <= dedup_span.start_ns + dedup_span.dur_ns);
        }
    }
    // Round spans and metrics agree on attribution: the span-side word
    // counters sum to the meter's total.
    let span_sent: u64 = round_spans
        .iter()
        .filter_map(|r| r.args.iter().find(|(k, _)| *k == "sent_words"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(span_sent, rt.metrics().total_sent_words() as u64);
    // Executor counters were published into the trace.
    assert!(events.iter().any(|e| e.name == "exec.tasks"));
}

#[test]
fn metrics_round_timestamps_are_monotone() {
    let _g = test_lock();
    let mut rt = Runtime::builder()
        .config(MpcConfig::explicit(1 << 12, 256, 4).with_threads(2))
        .build();
    let mut dist = rt.distribute((0..32u64).collect()).unwrap();
    for step in 0..3 {
        dist = rt
            .round(&format!("step{step}"), dist, |_, shard, em| {
                for v in shard {
                    em.send((v % 4) as usize, v);
                }
                Vec::new()
            })
            .unwrap();
    }
    let stats = rt.metrics().round_stats();
    assert_eq!(stats.len(), 3);
    for w in stats.windows(2) {
        assert!(w[0].t_end_ns <= w[1].t_start_ns, "rounds overlap in time");
    }
    for s in stats {
        assert!(s.t_end_ns >= s.t_start_ns);
    }
}
