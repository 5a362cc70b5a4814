//! Integration tests for deterministic fault injection: the conformance
//! contract (retryable faults never change delivered data), fault-log
//! determinism across repeated runs and thread counts, retry
//! exhaustion, capacity squeezes, and fault events in the trace.
//!
//! Runs as its own process so arming the global trace collector cannot
//! leak into the library's unit tests.

use std::sync::{Mutex, MutexGuard};
use treeemb_mpc::error::CapacityPhase;
use treeemb_mpc::fault::{FaultEvent, FaultKind, FaultPlan, FaultRates, FaultSpec};
use treeemb_mpc::primitives::{broadcast, shuffle};
use treeemb_mpc::{Dist, MpcConfig, MpcError, Runtime};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn rt_with(threads: usize, plan: Option<FaultPlan>) -> Runtime {
    let mut builder = Runtime::builder()
        .config(MpcConfig::explicit(1 << 12, 256, 8))
        .threads(threads);
    if let Some(p) = plan {
        builder = builder.fault_plan(p);
    }
    builder.build()
}

/// Deduplicates a fixed input, folds the distinct values into per-decade
/// sums (two shuffle rounds), and returns (output, fault log, per-round
/// attempts).
fn shuffle_run(threads: usize, plan: Option<FaultPlan>) -> (Vec<u64>, Vec<FaultEvent>, Vec<u32>) {
    let mut rt = rt_with(threads, plan);
    let input: Vec<u64> = (0..600u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) % 1000)
        .collect();
    let dist = rt.distribute(input).unwrap();
    let distinct = shuffle::dedup_by_key(&mut rt, dist, |x| *x).unwrap();
    let sums = shuffle::group_fold(&mut rt, distinct, |x| x / 10, |_, g| g.iter().sum()).unwrap();
    let out = rt.gather(sums);
    let attempts = rt
        .metrics()
        .round_stats()
        .iter()
        .map(|r| r.attempts)
        .collect();
    let log = rt.take_fault_log();
    (out, log, attempts)
}

/// Light per-message rates: rounds here carry hundreds of messages, so
/// the per-attempt fault probability (≈ 1 − exp(−msgs · rate)) must
/// leave a clean attempt reachable within the retry budget.
fn noisy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_rates(FaultRates {
            drop: 0.001,
            duplicate: 0.0005,
            unavailable: 0.005,
            straggle: 0.02,
            straggle_ns: 20_000,
            crash: 0.0,
        })
        .with_max_retries(12)
}

#[test]
fn retryable_faults_leave_output_bit_identical() {
    let _g = test_lock();
    let (clean, clean_log, _) = shuffle_run(4, None);
    assert!(clean_log.is_empty());
    // Background rates plus one scheduled drop so at least one exchange
    // retry is guaranteed regardless of where the seeded faults land.
    let plan = noisy_plan(17).with_fault(FaultSpec::Drop {
        round: 1,
        attempt: 0,
        src: 0,
        msg_index: 0,
    });
    let (faulted, log, attempts) = shuffle_run(4, Some(plan));
    assert_eq!(faulted, clean, "retryable faults must not change output");
    assert!(
        !log.is_empty(),
        "the noisy plan should have injected faults"
    );
    assert!(
        attempts.iter().any(|&a| a > 1),
        "some round should have retried (attempts: {attempts:?})"
    );
}

#[test]
fn fault_log_and_outcome_identical_across_runs_and_thread_counts() {
    let _g = test_lock();
    let (out1, log1, att1) = shuffle_run(4, Some(noisy_plan(99)));
    let (out2, log2, att2) = shuffle_run(4, Some(noisy_plan(99)));
    assert_eq!(out1, out2);
    assert_eq!(log1, log2, "same plan + seed must replay identically");
    assert_eq!(att1, att2);
    for threads in [1, 2, 7] {
        let (out_t, log_t, att_t) = shuffle_run(threads, Some(noisy_plan(99)));
        assert_eq!(out_t, out1, "threads={threads} changed the output");
        assert_eq!(log_t, log1, "threads={threads} changed the fault log");
        assert_eq!(att_t, att1, "threads={threads} changed retry counts");
    }
}

#[test]
fn different_seeds_give_different_fault_sequences() {
    let _g = test_lock();
    let (_, log_a, _) = shuffle_run(2, Some(noisy_plan(1)));
    let (_, log_b, _) = shuffle_run(2, Some(noisy_plan(2)));
    assert_ne!(log_a, log_b);
}

#[test]
fn persistent_unavailability_exhausts_retries_with_typed_error() {
    let _g = test_lock();
    let mut plan = FaultPlan::new(0).with_max_retries(2);
    // Machine 3 is down for every attempt of round 0.
    for attempt in 0..3 {
        plan = plan.with_fault(FaultSpec::Unavailable {
            round: 0,
            attempt,
            machine: 3,
        });
    }
    let mut rt = rt_with(2, Some(plan));
    let dist = rt.distribute((0..64u64).collect()).unwrap();
    let err = rt
        .round("route", dist, |_, shard, em| {
            for v in shard {
                em.send((v % 8) as usize, v);
            }
            Vec::new()
        })
        .unwrap_err();
    match &err {
        MpcError::RetriesExhausted {
            round,
            label,
            attempts,
        } => {
            assert_eq!(*round, 0);
            assert_eq!(label.as_str(), "route");
            assert_eq!(*attempts, 3);
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
    assert!(err.is_retryable());
    // The log shows three unavailability hits and two backoffs.
    let unavailable = rt
        .fault_log()
        .iter()
        .filter(|e| e.kind == FaultKind::Unavailable)
        .count();
    let backoffs: Vec<u64> = rt
        .fault_log()
        .iter()
        .filter(|e| e.kind == FaultKind::Backoff)
        .map(|e| e.value)
        .collect();
    assert_eq!(unavailable, 3);
    assert_eq!(backoffs.len(), 2);
    assert!(backoffs[1] > backoffs[0], "backoff must grow: {backoffs:?}");
}

#[test]
fn scheduled_drop_forces_exactly_one_retry() {
    let _g = test_lock();
    let plan = FaultPlan::new(0).with_fault(FaultSpec::Drop {
        round: 0,
        attempt: 0,
        src: 0,
        msg_index: 0,
    });
    let mut rt = rt_with(2, Some(plan));
    let dist = rt.distribute((0..32u64).collect()).unwrap();
    let out = rt
        .round("route", dist, |_, shard, em| {
            for v in shard {
                em.send((v % 8) as usize, v);
            }
            Vec::new()
        })
        .unwrap();
    assert_eq!(out.total_len(), 32, "retried exchange delivers everything");
    assert_eq!(rt.metrics().round_stats()[0].attempts, 2);
    assert_eq!(rt.metrics().retried_rounds(), 1);
    assert_eq!(rt.metrics().faults_injected(), rt.fault_log().len());
    let kinds: Vec<FaultKind> = rt.fault_log().iter().map(|e| e.kind).collect();
    assert_eq!(kinds, vec![FaultKind::Drop, FaultKind::Backoff]);
}

#[test]
fn capacity_squeeze_shrinks_effective_capacity_and_fails_typed() {
    let _g = test_lock();
    let plan = FaultPlan::new(0).with_fault(FaultSpec::Squeeze {
        from_round: 1,
        capacity_words: 4,
        machine: None,
    });
    let mut rt = rt_with(2, Some(plan));
    assert_eq!(rt.capacity(), 256, "squeeze not yet in force");
    let dist = rt.distribute((0..64u64).collect()).unwrap();
    // Round 0 runs at full capacity.
    let dist = rt
        .round("spread", dist, |_, shard, em| {
            for v in shard {
                em.send((v % 8) as usize, v);
            }
            Vec::new()
        })
        .unwrap();
    assert_eq!(rt.capacity(), 4, "squeeze active from round 1");
    // Round 1: every machine now holds ~8 words > 4 ⇒ typed input error.
    let err = rt
        .round(
            "squeezed",
            dist,
            |_, shard, _em: &mut treeemb_mpc::Emitter<u64>| shard,
        )
        .unwrap_err();
    match err {
        MpcError::CapacityExceeded {
            round,
            phase,
            capacity,
            ..
        } => {
            assert_eq!(round, 1);
            assert_eq!(phase, CapacityPhase::Input);
            assert_eq!(capacity, 4);
        }
        other => panic!("expected CapacityExceeded, got {other}"),
    }
    assert!(!err.is_retryable(), "squeezes are not retryable");
    // The squeeze itself is on the fault log.
    assert!(rt
        .fault_log()
        .iter()
        .any(|e| e.kind == FaultKind::Squeeze && e.round == 1 && e.value == 4));
}

#[test]
fn broadcast_under_retryable_faults_is_conformant() {
    let _g = test_lock();
    let payload: Vec<u64> = (0..40).map(|i| i * 3 + 1).collect();
    let mut clean_rt = rt_with(2, None);
    let clean = broadcast::broadcast(&mut clean_rt, payload.clone()).unwrap();
    let mut rt = rt_with(2, Some(noisy_plan(5)));
    let faulted = broadcast::broadcast(&mut rt, payload).unwrap();
    assert_eq!(clean.parts(), faulted.parts());
    assert_eq!(
        clean_rt.metrics().rounds(),
        rt.metrics().rounds(),
        "retries must not add metered rounds"
    );
}

#[test]
fn replayed_event_log_reproduces_the_identical_fault_sequence() {
    let _g = test_lock();
    // Run a seeded plan, reconstruct an explicit plan from its event
    // log, and replay: the explicit plan must fire the same faults.
    let (out_seeded, log_seeded, _) = shuffle_run(2, Some(noisy_plan(123)));
    let explicit = FaultPlan::from_events(&log_seeded, 12, 1_000_000);
    assert!(explicit.rates.is_zero());
    let (out_explicit, log_explicit, _) = shuffle_run(2, Some(explicit));
    assert_eq!(out_explicit, out_seeded);
    let non_backoff = |log: &[FaultEvent]| -> Vec<FaultEvent> {
        log.iter()
            .copied()
            .filter(|e| e.kind != FaultKind::Backoff)
            .collect()
    };
    assert_eq!(non_backoff(&log_explicit), non_backoff(&log_seeded));
}

#[test]
fn fault_events_appear_in_the_trace() {
    let _g = test_lock();
    treeemb_obs::capture_start();
    treeemb_obs::drain();
    let plan = FaultPlan::new(0)
        .with_fault(FaultSpec::Drop {
            round: 0,
            attempt: 0,
            src: 0,
            msg_index: 0,
        })
        .with_fault(FaultSpec::Straggle {
            round: 0,
            machine: 1,
            delay_ns: 1_000,
        });
    let mut rt = rt_with(2, Some(plan));
    let dist = rt.distribute((0..32u64).collect()).unwrap();
    rt.round("route", dist, |_, shard, em| {
        for v in shard {
            em.send((v % 8) as usize, v);
        }
        Vec::new()
    })
    .unwrap();
    treeemb_obs::capture_stop();
    let events = treeemb_obs::drain();
    for name in ["fault.drop", "fault.straggle", "fault.backoff"] {
        let ev = events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("missing {name} mark in trace"));
        assert!(ev.args.iter().any(|(k, _)| *k == "round"));
        assert!(ev.args.iter().any(|(k, _)| *k == "attempt"));
    }
}

#[test]
fn empty_plan_changes_nothing_and_logs_nothing() {
    let _g = test_lock();
    let (clean, _, att_clean) = shuffle_run(2, None);
    let (armed, log, att_armed) = shuffle_run(2, Some(FaultPlan::new(42)));
    assert_eq!(clean, armed);
    assert!(log.is_empty());
    assert_eq!(att_clean, att_armed);
    assert!(att_armed.iter().all(|&a| a == 1));
}

#[test]
fn lenient_mode_still_retries_transient_faults() {
    let _g = test_lock();
    let cfg = MpcConfig::explicit(1 << 12, 256, 8)
        .with_threads(2)
        .lenient();
    let mut rt = Runtime::builder()
        .config(cfg)
        .fault_plan(FaultPlan::new(0).with_fault(FaultSpec::Drop {
            round: 0,
            attempt: 0,
            src: 0,
            msg_index: 0,
        }))
        .build();
    let dist = rt.distribute((0..32u64).collect()).unwrap();
    let out = rt
        .round("route", dist, |_, shard, em| {
            for v in shard {
                em.send((v % 8) as usize, v);
            }
            Vec::new()
        })
        .unwrap();
    assert_eq!(out.total_len(), 32);
    assert_eq!(rt.metrics().round_stats()[0].attempts, 2);
}

#[test]
fn map_local_and_distribute_respect_squeezed_capacity() {
    let _g = test_lock();
    let plan = FaultPlan::new(0).with_fault(FaultSpec::Squeeze {
        from_round: 0,
        capacity_words: 2,
        machine: None,
    });
    let mut rt = rt_with(1, Some(plan.clone()));
    // distribute packs by the squeezed capacity: 8 machines × 2 words.
    let err = rt.distribute((0..64u64).collect()).unwrap_err();
    assert!(matches!(
        err,
        MpcError::CapacityExceeded { capacity: 2, .. }
    ));
    let mut rt = rt_with(1, Some(plan));
    let dist = rt.distribute((0..8u64).collect()).unwrap();
    let err = rt
        .map_local(dist, |_, shard| {
            // Each machine inflates its 2 words to 6 > squeezed cap.
            shard
                .into_iter()
                .flat_map(|v| [v, v, v])
                .collect::<Vec<u64>>()
        })
        .unwrap_err();
    assert!(matches!(
        err,
        MpcError::CapacityExceeded { capacity: 2, .. }
    ));
}

#[test]
fn dist_roundtrip_unaffected_by_duplicate_faults() {
    let _g = test_lock();
    // A duplicate is detected and the exchange retried; the delivered
    // sequence must not contain the duplicate.
    let plan = FaultPlan::new(0).with_fault(FaultSpec::Duplicate {
        round: 0,
        attempt: 0,
        src: 0,
        msg_index: 1,
    });
    let mut rt = rt_with(2, Some(plan));
    let dist = Dist::from_parts(vec![
        vec![10u64, 11, 12],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
    ]);
    let out = rt
        .round("fan", dist, |_, shard, em| {
            for v in shard {
                em.send(1, v);
            }
            Vec::new()
        })
        .unwrap();
    assert_eq!(out.part(1), &[10, 11, 12], "no duplicate delivered");
    assert_eq!(rt.metrics().round_stats()[0].attempts, 2);
    assert!(rt
        .fault_log()
        .iter()
        .any(|e| e.kind == FaultKind::Duplicate));
}
