//! Helpers of the end-to-end pipeline benchmark: order statistics,
//! span self time, `/proc` memory readings and the fault-plan check.
//! The driver that uses them is `main.rs`.

use std::collections::BTreeMap;
use treeemb_mpc::metrics::Metrics;
use treeemb_obs::{Event, EventKind};

/// Median of `xs` (mean of the two middle values for an even count).
///
/// Panics on an empty slice or a NaN, both bugs in the caller.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles of `xs` by the exclusive method, the
/// default of Python's `statistics.quantiles(xs, n=4)` (extrapolating
/// past the data for fewer than three samples, as Python does), so the
/// spread this benchmark reports is the one its acceptance check
/// computes.
///
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = v.len();
    let at = |i: usize| {
        // Python: j = i·(n+1) // 4 clamped to [1, n−1], then a linear
        // blend of v[j−1] and v[j] with weight (i·(n+1) − 4j) / 4.
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Self time per span name: each span's duration minus the time its
/// direct children cover. A child is a span recorded on the same
/// thread whose interval lies inside the parent's; spans on other
/// threads (executor workers) never subtract from a caller's span even
/// when their intervals overlap it. Names that share a prefix up to the
/// first `:` are summed under that prefix (`mpc.round:fjlt:project`
/// counts as `mpc.round`). Counters and marks are ignored.
pub fn self_time_ns(events: &[Event]) -> BTreeMap<String, u64> {
    let mut by_tid: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == EventKind::Span) {
        by_tid.entry(e.tid).or_default().push(e);
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for spans in by_tid.values_mut() {
        // Parents sort before the children they contain: earlier start
        // first, and on equal starts the longer span first.
        spans.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        let mut child_ns = vec![0u64; spans.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, e) in spans.iter().enumerate() {
            let end = e.start_ns + e.dur_ns;
            while let Some(&top) = open.last() {
                if spans[top].start_ns + spans[top].dur_ns >= end {
                    break;
                }
                open.pop();
            }
            if let Some(&parent) = open.last() {
                child_ns[parent] += e.dur_ns;
            }
            open.push(i);
        }
        for (e, covered) in spans.iter().zip(child_ns) {
            *out.entry(span_key(&e.name)).or_default() += e.dur_ns.saturating_sub(covered);
        }
    }
    out
}

/// Total (inclusive) duration per span name on all threads, keyed like
/// [`self_time_ns`].
pub fn total_time_ns(events: &[Event]) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == EventKind::Span) {
        *out.entry(span_key(&e.name)).or_default() += e.dur_ns;
    }
    out
}

/// A span name up to its first `:` (labelled round spans share a key).
fn span_key(name: &str) -> String {
    name.split(':').next().unwrap_or(name).to_string()
}

/// Peak resident set size (`VmHWM`) in bytes from the text of
/// `/proc/<pid>/status`, or `None` when the line is missing or
/// malformed.
pub fn parse_vmhwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => kb.checked_mul(1024),
        _ => None,
    }
}

/// Reads this process's `VmHWM` in bytes.
pub fn read_vmhwm_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vmhwm_bytes(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Resets this process's `VmHWM` to its current resident size, so the
/// next reading is the peak of what runs in between.
pub fn reset_vmhwm() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("write /proc/self/clear_refs: {e}"))
}

/// Why a faulted run did not exercise recovery, or `None` when the
/// injected plan visibly fired: at least one crash was recovered from
/// a checkpoint and at least one round needed a second exchange
/// attempt. Without this check a plan that misses its rounds would
/// silently measure a clean run.
pub fn plan_not_fired(metrics: &Metrics) -> Option<String> {
    let (recoveries, retried) = (metrics.recoveries(), metrics.retried_rounds());
    if recoveries >= 1 && retried >= 1 {
        None
    } else {
        Some(format!(
            "fault plan did not fire: {recoveries} recoveries, {retried} retried rounds"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treeemb_mpc::metrics::RoundStats;

    fn span(name: &str, tid: u64, start_ns: u64, dur_ns: u64) -> Event {
        Event {
            name: name.to_string(),
            kind: EventKind::Span,
            tid,
            start_ns,
            dur_ns,
            depth: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([3.5, 1.25, 9.0, 2.0, 7.75, 4.0], n=4)
        //   == [1.8125, 3.75, 8.0625]
        assert_eq!(
            quartiles(&[3.5, 1.25, 9.0, 2.0, 7.75, 4.0]),
            (1.8125, 8.0625)
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // Two samples extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = vec![
            span("pipeline.run", 1, 0, 100),
            span("pipeline.embed", 1, 10, 80),
            span("embed.paths", 1, 20, 50),
            span("mpc.map_local", 1, 25, 40),
        ];
        let st = self_time_ns(&events);
        assert_eq!(st["pipeline.run"], 20);
        assert_eq!(st["pipeline.embed"], 30);
        assert_eq!(st["embed.paths"], 10);
        assert_eq!(st["mpc.map_local"], 40);
        let total: u64 = st.values().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn self_time_ignores_overlapping_worker_thread_spans() {
        // A worker span overlaps the caller's span in time but runs on
        // another thread: it is not a child.
        let events = vec![
            span("exec.map", 1, 0, 100),
            span("worker.chunk", 2, 10, 60),
            span("worker.chunk", 2, 70, 20),
        ];
        let st = self_time_ns(&events);
        assert_eq!(st["exec.map"], 100);
        assert_eq!(st["worker.chunk"], 80);
    }

    #[test]
    fn self_time_handles_siblings_equal_starts_and_label_prefixes() {
        let events = vec![
            span("fjlt.project", 1, 0, 50),
            // Starts with its parent: the longer span is the parent.
            span("mpc.round:fjlt:project", 1, 0, 30),
            span("mpc.map_local", 1, 30, 15),
            // A later sibling at the top level.
            span("mpc.round:shuffle", 1, 60, 10),
        ];
        let st = self_time_ns(&events);
        assert_eq!(st["fjlt.project"], 5);
        assert_eq!(st["mpc.round"], 40);
        assert_eq!(st["mpc.map_local"], 15);
        let tt = total_time_ns(&events);
        assert_eq!(tt["mpc.round"], 40);
        assert_eq!(tt["fjlt.project"], 50);
    }

    #[test]
    fn self_time_skips_counters_and_marks() {
        let mut mark = span("fault.crash", 1, 5, 0);
        mark.kind = EventKind::Mark;
        let events = vec![span("a", 1, 0, 10), mark];
        let st = self_time_ns(&events);
        assert_eq!(st.len(), 1);
        assert_eq!(st["a"], 10);
    }

    #[test]
    fn vmhwm_parses_kilobytes_and_rejects_junk() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_bytes(status), Some(123_456 * 1024));
        assert_eq!(parse_vmhwm_bytes("VmRSS:\t1000 kB\n"), None);
        assert_eq!(parse_vmhwm_bytes("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm_bytes("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vmhwm_bytes("VmHWM:\t12\n"), None);
    }

    #[test]
    fn vmhwm_reads_and_resets_on_this_process() {
        let before = read_vmhwm_bytes().expect("VmHWM is readable");
        assert!(before > 0);
        reset_vmhwm().expect("clear_refs is writable");
        let after = read_vmhwm_bytes().expect("VmHWM is readable");
        assert!(after > 0);
    }

    fn round(attempts: u32, recoveries: u32) -> RoundStats {
        RoundStats {
            round: 0,
            label: "fjlt:project".into(),
            sent_words: 0,
            max_out_words: 0,
            max_in_words: 0,
            max_resident_words: 0,
            violations: 0,
            t_start_ns: 0,
            t_end_ns: 0,
            attempts,
            faults: 0,
            recoveries,
            checkpoint_words: 0,
        }
    }

    fn metrics_of(rounds: &[RoundStats]) -> Metrics {
        let mut m = Metrics::new();
        for r in rounds {
            m.record_round(r.clone());
        }
        m
    }

    #[test]
    fn plan_fired_needs_a_recovery_and_a_retry() {
        assert!(plan_not_fired(&metrics_of(&[round(2, 1)])).is_none());
        assert!(plan_not_fired(&metrics_of(&[round(2, 0), round(1, 1)])).is_none());
        assert!(plan_not_fired(&metrics_of(&[round(1, 1)])).is_some());
        assert!(plan_not_fired(&metrics_of(&[round(2, 0)])).is_some());
        assert!(plan_not_fired(&metrics_of(&[])).is_some());
    }
}
