//! Chaos/conformance harness: sweeps seeded fault plans across the
//! FJLT, partition, and full-pipeline stages and checks the conformance
//! contract — under any retryable fault schedule a stage either produces
//! output **bit-identical** to its fault-free run (same RNG stream) or
//! returns a typed error; a mismatch or a panic is a bug. Failures
//! shrink to a minimal reproducing [`FaultPlan`] printed as JSON (see
//! the `chaos` binary and `tests/chaos.rs`).
//!
//! Everything here is deterministic: stage datasets derive from explicit
//! seeds, fault decisions from the plan seed, so a reported plan JSON
//! replays the identical run.

use std::panic::{self, AssertUnwindSafe};
use treeemb_core::mpc_embed::embed_mpc;
use treeemb_core::params::HybridParams;
use treeemb_core::pipeline::{self, PipelineConfig};
use treeemb_fjlt::fjlt::FjltParams;
use treeemb_fjlt::mpc::fjlt_mpc;
use treeemb_geom::generators;
use treeemb_mpc::fault::{shrink_plan, FaultEvent, FaultPlan, FaultRates, FaultSpec};
use treeemb_mpc::{FaultKind, Runtime};
use treeemb_obs::json;

/// Which pipeline stage a chaos check drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The MPC FJLT in isolation (output: projected coordinates).
    Fjlt,
    /// Hybrid partitioning / tree building in isolation (output: tree
    /// distances).
    Partition,
    /// The full embed pipeline (FJLT → schedule → embed).
    Pipeline,
}

impl Stage {
    /// All stages, in pipeline order.
    pub fn all() -> [Stage; 3] {
        [Stage::Fjlt, Stage::Partition, Stage::Pipeline]
    }

    /// Stable lowercase name (CLI and report key).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Fjlt => "fjlt",
            Stage::Partition => "partition",
            Stage::Pipeline => "pipeline",
        }
    }

    /// Parses a stage name as accepted by `--stage`.
    pub fn parse(s: &str) -> Option<Stage> {
        match s {
            "fjlt" => Some(Stage::Fjlt),
            "partition" => Some(Stage::Partition),
            "pipeline" => Some(Stage::Pipeline),
            _ => None,
        }
    }
}

/// Outcome of one chaos check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosVerdict {
    /// Output bit-identical to the fault-free run.
    Conformant,
    /// The stage failed with a typed error — the contract's other
    /// permitted outcome (carries the error's display form).
    TypedError(String),
    /// BUG: output differs from the fault-free run.
    Mismatch(String),
    /// BUG: the stage panicked instead of returning a typed error.
    Panicked(String),
}

impl ChaosVerdict {
    /// True for contract violations (mismatch or panic).
    pub fn is_failure(&self) -> bool {
        matches!(self, ChaosVerdict::Mismatch(_) | ChaosVerdict::Panicked(_))
    }
}

/// One chaos check's result: verdict plus the deterministic fault log
/// of the faulted run (empty on panic).
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Stage checked.
    pub stage: Stage,
    /// What happened.
    pub verdict: ChaosVerdict,
    /// Faults the runtime injected, in deterministic order.
    pub events: Vec<FaultEvent>,
    /// Faults injected (events minus backoff bookkeeping).
    pub faults: usize,
}

fn words_for(n: usize, d: usize) -> usize {
    n * (d + 1)
}

/// Machines a stage cluster simulates.
const STAGE_MACHINES: usize = 8;

/// Per-machine capacity overrides a heterogeneity factor induces:
/// every odd-indexed machine shrinks to `factor * capacity` words
/// (`factor <= 0` means a homogeneous cluster). Applied identically to
/// the fault-free reference and the faulted run, so conformance is
/// checked *on* the heterogeneous cluster, not against a homogeneous
/// baseline.
fn hetero_overrides(capacity: usize, factor: f64) -> Vec<(usize, usize)> {
    if factor <= 0.0 || factor >= 1.0 {
        return Vec::new();
    }
    let small = ((capacity as f64) * factor).ceil().max(1.0) as usize;
    (1..STAGE_MACHINES).step_by(2).map(|m| (m, small)).collect()
}

fn stage_runtime(
    n: usize,
    d: usize,
    capacity: usize,
    threads: usize,
    plan: Option<&FaultPlan>,
    hetero: f64,
) -> Runtime {
    let mut builder = Runtime::builder()
        .input_words(words_for(n, d))
        .capacity_words(capacity)
        .machines(STAGE_MACHINES)
        .threads(threads);
    for (machine, words) in hetero_overrides(capacity, hetero) {
        builder = builder.machine_capacity(machine, words);
    }
    if let Some(p) = plan {
        builder = builder.fault_plan(p.clone());
    }
    builder.build()
}

/// Bitwise fingerprint of a float sequence (NaN-safe, order-sensitive).
fn bits_of(vals: impl Iterator<Item = f64>) -> Vec<u64> {
    vals.map(f64::to_bits).collect()
}

fn compare_bits(reference: &[u64], candidate: &[u64], what: &str) -> ChaosVerdict {
    if reference.len() != candidate.len() {
        return ChaosVerdict::Mismatch(format!(
            "{what}: length {} vs fault-free {}",
            candidate.len(),
            reference.len()
        ));
    }
    match reference.iter().zip(candidate).position(|(a, b)| a != b) {
        None => ChaosVerdict::Conformant,
        Some(i) => ChaosVerdict::Mismatch(format!(
            "{what}: first divergence at index {i} ({:#x} vs fault-free {:#x})",
            candidate[i], reference[i]
        )),
    }
}

/// Runs `f` and folds a panic into [`ChaosVerdict::Panicked`].
fn catching(
    f: impl FnOnce() -> (ChaosVerdict, Vec<FaultEvent>),
) -> (ChaosVerdict, Vec<FaultEvent>) {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(out) => out,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            (ChaosVerdict::Panicked(detail), Vec::new())
        }
    }
}

/// Checks one `(stage, plan, data_seed)` triple against the conformance
/// contract. Deterministic: same arguments, same [`ChaosOutcome`].
pub fn check_stage(stage: Stage, plan: &FaultPlan, data_seed: u64) -> ChaosOutcome {
    check_stage_tuned(stage, plan, data_seed, 0.0)
}

/// Like [`check_stage`], on a heterogeneous cluster: `hetero` in
/// `(0, 1)` shrinks every odd-indexed machine to that fraction of the
/// stage capacity (0 = homogeneous). The fault-free reference runs on
/// the same cluster shape.
pub fn check_stage_tuned(
    stage: Stage,
    plan: &FaultPlan,
    data_seed: u64,
    hetero: f64,
) -> ChaosOutcome {
    let (verdict, events) = match stage {
        Stage::Fjlt => check_fjlt(plan, data_seed, hetero),
        Stage::Partition => check_partition(plan, data_seed, hetero),
        Stage::Pipeline => check_pipeline(plan, data_seed, hetero),
    };
    // Backoffs and recoveries are consequences of injected faults, not
    // faults themselves.
    let faults = events
        .iter()
        .filter(|e| e.kind != FaultKind::Backoff && e.kind != FaultKind::Recover)
        .count();
    ChaosOutcome {
        stage,
        verdict,
        events,
        faults,
    }
}

fn check_fjlt(plan: &FaultPlan, data_seed: u64, hetero: f64) -> (ChaosVerdict, Vec<FaultEvent>) {
    let (n, d) = (32usize, 96usize);
    let ps = generators::noisy_line(n, d, 1 << 10, 1.0, data_seed);
    let params = FjltParams::for_dataset(n, d, 0.45, data_seed ^ 0xF17);
    let mut clean_rt = stage_runtime(n, d, 1 << 17, 2, None, hetero);
    let clean = fjlt_mpc(&mut clean_rt, &ps, &params).expect("fault-free FJLT must succeed");
    let reference = bits_of((0..clean.len()).flat_map(|i| clean.point(i).iter().copied()));
    catching(|| {
        let mut rt = stage_runtime(n, d, 1 << 17, 2, Some(plan), hetero);
        let result = fjlt_mpc(&mut rt, &ps, &params);
        let events = rt.take_fault_log();
        let verdict = match result {
            Err(e) => ChaosVerdict::TypedError(e.to_string()),
            Ok(projected) => {
                let got =
                    bits_of((0..projected.len()).flat_map(|i| projected.point(i).iter().copied()));
                compare_bits(&reference, &got, "fjlt coordinates")
            }
        };
        (verdict, events)
    })
}

fn check_partition(
    plan: &FaultPlan,
    data_seed: u64,
    hetero: f64,
) -> (ChaosVerdict, Vec<FaultEvent>) {
    let (n, d) = (24usize, 8usize);
    let ps = generators::uniform_cube(n, d, 256, data_seed);
    let params =
        HybridParams::for_dataset_with_sep(&ps, 4, 1.0, 1e-3).expect("params must be valid");
    let embed_seed = data_seed ^ 0x7EED;
    let mut clean_rt = stage_runtime(n, d, 1 << 15, 2, None, hetero);
    let clean =
        embed_mpc(&mut clean_rt, &ps, &params, embed_seed).expect("fault-free embed must succeed");
    let all_pairs = |emb: &treeemb_core::seq::Embedding| {
        let mut dists = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                dists.push(emb.tree_distance(i, j));
            }
        }
        dists
    };
    let reference = bits_of(all_pairs(&clean).into_iter());
    catching(|| {
        let mut rt = stage_runtime(n, d, 1 << 15, 2, Some(plan), hetero);
        let result = embed_mpc(&mut rt, &ps, &params, embed_seed);
        let events = rt.take_fault_log();
        let verdict = match result {
            Err(e) => ChaosVerdict::TypedError(e.to_string()),
            Ok(emb) => compare_bits(
                &reference,
                &bits_of(all_pairs(&emb).into_iter()),
                "tree distances",
            ),
        };
        (verdict, events)
    })
}

fn check_pipeline(
    plan: &FaultPlan,
    data_seed: u64,
    hetero: f64,
) -> (ChaosVerdict, Vec<FaultEvent>) {
    let n = 24usize;
    let ps = generators::uniform_cube(n, 8, 256, data_seed);
    let mut builder = PipelineConfig::builder()
        .capacity_words(1 << 15)
        .machines(STAGE_MACHINES)
        .r(4)
        .threads(2)
        .seed(data_seed ^ 0x7EED);
    for (machine, words) in hetero_overrides(1 << 15, hetero) {
        builder = builder.machine_capacity(machine, words);
    }
    let cfg = builder.build();
    let clean = pipeline::run(&ps, &cfg).expect("fault-free pipeline must succeed");
    let all_pairs = |emb: &treeemb_core::seq::Embedding| {
        let mut dists = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                dists.push(emb.tree_distance(i, j));
            }
        }
        dists
    };
    let reference = bits_of(all_pairs(&clean.embedding).into_iter());
    catching(|| {
        let mut faulted_cfg = cfg.clone();
        faulted_cfg.faults = Some(plan.clone());
        faulted_cfg.fault_attempts = 2;
        let (result, events) = pipeline::run_faulted(&ps, &faulted_cfg);
        let verdict = match result {
            Err(e) => ChaosVerdict::TypedError(e.to_string()),
            Ok(report) => compare_bits(
                &reference,
                &bits_of(all_pairs(&report.embedding).into_iter()),
                "pipeline tree distances",
            ),
        };
        (verdict, events)
    })
}

/// The seeded plan matrix swept per seed: light transient noise, heavy
/// transient noise (low retry budget, so `RetriesExhausted` is
/// reachable), a drastic mid-run capacity squeeze (non-retryable; must
/// surface as a typed error), a deterministic first-attempt drop per
/// round, one scheduled machine crash per early round (must recover
/// bit-identically from the checkpoint), and a crash storm that
/// exhausts the recovery budget (must surface as the typed retryable
/// `RecoveryExhausted`).
pub fn plan_matrix(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    // Per-message rates scale with round fan-out: the FJLT rounds carry
    // thousands of messages, so "light" must stay well under 1 expected
    // fault per attempt there for the retry-then-succeed path to win.
    let light = FaultPlan::new(seed)
        .with_rates(FaultRates {
            drop: 0.0002,
            duplicate: 0.0001,
            unavailable: 0.002,
            straggle: 0.01,
            straggle_ns: 5_000,
            crash: 0.0,
        })
        .with_max_retries(12);
    let heavy = FaultPlan::new(seed ^ 0xBEEF)
        .with_rates(FaultRates {
            drop: 0.01,
            duplicate: 0.005,
            unavailable: 0.05,
            straggle: 0.05,
            straggle_ns: 5_000,
            crash: 0.0,
        })
        .with_max_retries(3);
    let squeeze = FaultPlan::new(seed).with_fault(FaultSpec::Squeeze {
        from_round: 2,
        capacity_words: 32,
        machine: None,
    });
    // One first-attempt drop per round: every stage deterministically
    // exercises the retry-then-succeed path (rounds where machine 0
    // sends nothing simply skip the fault), so conformance-after-retry
    // is checked even on stages whose fan-out makes rate plans exhaust.
    let mut pinpoint = FaultPlan::new(seed).with_max_retries(3);
    for round in 0..6 {
        pinpoint.scheduled.push(FaultSpec::Drop {
            round,
            attempt: 0,
            src: 0,
            msg_index: 0,
        });
    }
    // One scheduled crash per early round, rotating over machines: every
    // stage loses at least one shard mid-round and must recover from the
    // checkpoint bit-identically.
    let mut crash = FaultPlan::new(seed ^ 0xC4A5);
    for round in 0..4 {
        crash = crash.with_fault(FaultSpec::Crash {
            round,
            attempt: 0,
            machine: round % STAGE_MACHINES,
        });
    }
    // Crash machine 0 on the initial run and the single permitted
    // re-execution of round 0: recovery exhausts, so the stage must die
    // of the typed, retryable `RecoveryExhausted` (never a panic).
    // Blanket the early round indices so the schedule also bites in
    // stages whose first round indices are accounted analytically and
    // never execute.
    let mut crash_exhaust = FaultPlan::new(seed ^ 0xDEAD).with_max_recoveries(1);
    for round in 0..8 {
        for attempt in 0..2 {
            crash_exhaust = crash_exhaust.with_fault(FaultSpec::Crash {
                round,
                attempt,
                machine: 0,
            });
        }
    }
    vec![
        ("light", light),
        ("heavy", heavy),
        ("squeeze", squeeze),
        ("pinpoint", pinpoint),
        ("crash", crash),
        ("crash-exhaust", crash_exhaust),
    ]
}

/// A rate-based crash plan (per-machine, per-execution crash
/// probability) for `--crash-rate` sweeps; generous recovery budget so
/// moderate rates recover rather than exhaust.
pub fn crash_rate_plan(seed: u64, crash_rate: f64) -> FaultPlan {
    FaultPlan::new(seed ^ 0xC7A5)
        .with_rates(FaultRates {
            crash: crash_rate,
            ..FaultRates::default()
        })
        .with_max_recoveries(6)
}

/// One row of a sweep report.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Stage checked.
    pub stage: Stage,
    /// Plan-matrix entry name (`light`/`heavy`/`squeeze`/`crash`/…).
    pub plan_name: &'static str,
    /// Plan seed.
    pub seed: u64,
    /// The plan that ran.
    pub plan: FaultPlan,
    /// Heterogeneity factor the stage cluster ran with (0 =
    /// homogeneous).
    pub hetero: f64,
    /// Check outcome.
    pub outcome: ChaosOutcome,
}

/// Tuning knobs of a sweep, beyond the seeded plan matrix.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions {
    /// When positive, adds a `crash-rate` plan column sampling machine
    /// crashes at this probability per execution.
    pub crash_rate: f64,
    /// Heterogeneity factor in `(0, 1)`: odd-indexed machines shrink to
    /// this fraction of the stage capacity (0 = homogeneous).
    pub hetero: f64,
}

/// Sweeps the plan matrix over `seeds` seeds and every stage in
/// `stages`. Returns every row; callers decide what a failure means.
pub fn sweep(stages: &[Stage], seeds: u64) -> Vec<SweepRow> {
    sweep_with(stages, seeds, SweepOptions::default())
}

/// [`sweep`] with tuning: extra crash-rate plan column and/or a
/// heterogeneous stage cluster.
pub fn sweep_with(stages: &[Stage], seeds: u64, opts: SweepOptions) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for &stage in stages {
        for seed in 0..seeds {
            let mut plans = plan_matrix(seed);
            if opts.crash_rate > 0.0 {
                plans.push(("crash-rate", crash_rate_plan(seed, opts.crash_rate)));
            }
            for (plan_name, plan) in plans {
                let outcome = check_stage_tuned(stage, &plan, seed, opts.hetero);
                rows.push(SweepRow {
                    stage,
                    plan_name,
                    seed,
                    plan,
                    hetero: opts.hetero,
                    outcome,
                });
            }
        }
    }
    rows
}

/// Shrinks a failing row to a minimal reproducing plan: first replays
/// the observed fault events as an explicit schedule (if that still
/// fails), then greedily delta-debugs whichever plan reproduces.
pub fn shrink_failure(row: &SweepRow) -> FaultPlan {
    let fails = |p: &FaultPlan| {
        check_stage_tuned(row.stage, p, row.seed, row.hetero)
            .verdict
            .is_failure()
    };
    let explicit = FaultPlan::from_events(
        &row.outcome.events,
        row.plan.max_retries,
        row.plan.backoff_ns,
    );
    let base = if fails(&explicit) {
        explicit
    } else {
        row.plan.clone()
    };
    shrink_plan(&base, fails)
}

/// Renders sweep rows as a JSON report.
pub fn report_json(rows: &[SweepRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let (verdict, detail) = match &row.outcome.verdict {
            ChaosVerdict::Conformant => ("conformant", String::new()),
            ChaosVerdict::TypedError(e) => ("typed_error", e.clone()),
            ChaosVerdict::Mismatch(e) => ("mismatch", e.clone()),
            ChaosVerdict::Panicked(e) => ("panicked", e.clone()),
        };
        let _ = writeln!(
            out,
            "    {{\"stage\": \"{}\", \"plan\": \"{}\", \"seed\": {}, \"hetero\": {}, \"verdict\": \"{}\", \"faults\": {}, \"detail\": {}}}{}",
            row.stage.name(),
            row.plan_name,
            row.seed,
            row.hetero,
            verdict,
            row.outcome.faults,
            json::escape(&detail),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for stage in Stage::all() {
            assert_eq!(Stage::parse(stage.name()), Some(stage));
        }
        assert_eq!(Stage::parse("nope"), None);
    }

    #[test]
    fn empty_plan_is_conformant_on_every_stage() {
        for stage in Stage::all() {
            let outcome = check_stage(stage, &FaultPlan::new(0), 3);
            assert_eq!(
                outcome.verdict,
                ChaosVerdict::Conformant,
                "stage {}",
                stage.name()
            );
            assert!(outcome.events.is_empty());
        }
    }

    #[test]
    fn report_json_is_parseable() {
        let rows = vec![SweepRow {
            stage: Stage::Fjlt,
            plan_name: "light",
            seed: 1,
            plan: FaultPlan::new(1),
            hetero: 0.0,
            outcome: ChaosOutcome {
                stage: Stage::Fjlt,
                verdict: ChaosVerdict::TypedError("x \"quoted\"\n".into()),
                events: Vec::new(),
                faults: 0,
            },
        }];
        let text = report_json(&rows);
        let parsed = json::parse(&text).expect("report must parse");
        let arr = parsed.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("verdict").unwrap().as_str(), Some("typed_error"));
    }
}
