//! End-to-end benchmark of the Theorem-1 pipeline (MPC FJLT → schedule
//! → Algorithm 2) with a per-layer ledger.
//!
//! ```text
//! perfbench --workload <jl_line|lowdim_clusters|jl_faulted> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! One process runs one workload as a closed loop: a single client
//! makes back-to-back `pipeline::run` calls at two executor threads,
//! after a discarded warm-up call, for `--seconds` seconds. Every call's
//! output is checked. Set-up (input generation plus the cold warm-up
//! call) is also measured in two child processes of this executable
//! (`--setup-only 1`), and its median reported. With `--trace 1` the
//! untraced loop is followed by one traced call, one 1-thread call and
//! a sequential replay of the partition kernel, which give the
//! per-layer numbers.
//!
//! Results go to stdout one per line — `metric <name> <unit> <value>`,
//! `calls <attempted> <failed>` and `correct <0|1>` — and `run.py` turns
//! them into the benchmark's JSON result. Diagnostics go to stderr.

use perfbench::{
    median, plan_not_fired, quartiles, read_vmhwm_bytes, reset_vmhwm, self_time_ns, total_time_ns,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use treeemb_core::pipeline::{self, PipelineConfig, PipelineReport};
use treeemb_core::seq::hybrid_level_seed;
use treeemb_fjlt::Fjlt;
use treeemb_geom::{generators, metrics, PointSet};
use treeemb_mpc::{exec, CheckpointPolicy, FaultPlan, FaultSpec};
use treeemb_partition::HybridLevel;

/// Executor threads of the timed calls (the benchmark host has 2 cores).
const THREADS: usize = 2;
/// Point pairs sampled per call for the distortion and domination checks.
const PAIRS: usize = 65536;

/// End-to-end metrics, reported with `--trace 0`: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("pipeline_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rounds", "count"),
    ("sent_words", "words"),
    ("peak_machine_words", "words"),
    ("peak_total_words", "words"),
    ("distortion_mean", "ratio"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics, reported with `--trace 1`: name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("domination_min", "ratio"),
    ("stage.fjlt_s", "s"),
    ("stage.schedule_s", "s"),
    ("stage.embed_s", "s"),
    ("round.fjlt_project_s", "s"),
    ("round.fjlt_project_words", "words"),
    ("round.max_in_words", "words"),
    ("round.fjlt_wht_s", "s"),
    ("round.shuffle_s", "s"),
    ("mpc.exchange_attempts", "count"),
    ("mpc.retried_rounds", "count"),
    ("mpc.recoveries", "count"),
    ("mpc.peak_checkpoint_words", "words"),
    ("exec.busy_s", "s"),
    ("exec.utilization", "ratio"),
    ("exec.sequential_jobs", "count"),
    ("partition.grid_tests", "count"),
    ("partition.tests_per_assignment", "ratio"),
    ("partition.ns_per_grid_test", "ns"),
    ("span.embed.paths_s", "s"),
    ("span.embed.edges_s", "s"),
    ("span.embed.assemble_s", "s"),
    ("span.embed.grids_s", "s"),
    ("span.fjlt.load_s", "s"),
    ("span.fjlt.wht_s", "s"),
    ("span.fjlt.project_s", "s"),
    ("span.mpc.map_local_s", "s"),
    ("span.mpc.round_s", "s"),
    ("span.mpc.distribute_s", "s"),
    ("span.mpc.gather_s", "s"),
    ("span.exec.map_s", "s"),
    ("share.fjlt_pct", "%"),
    ("share.embed_pct", "%"),
    ("share.embed_paths_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("mem.rss_bytes_per_input_byte", "ratio"),
    ("scale.fjlt", "x"),
    ("scale.embed", "x"),
    ("scale.pipeline", "x"),
    ("pipeline.samples", "count"),
    ("pipeline.spread_pct", "%"),
];

/// Spans whose self time the traced call reports: span name, metric.
const SELF_TIME_SPANS: &[(&str, &str)] = &[
    ("embed.paths", "span.embed.paths_s"),
    ("embed.edges", "span.embed.edges_s"),
    ("embed.assemble", "span.embed.assemble_s"),
    ("embed.grids", "span.embed.grids_s"),
    ("fjlt.load", "span.fjlt.load_s"),
    ("fjlt.wht", "span.fjlt.wht_s"),
    ("fjlt.project", "span.fjlt.project_s"),
    ("mpc.map_local", "span.mpc.map_local_s"),
    ("mpc.round", "span.mpc.round_s"),
    ("mpc.distribute", "span.mpc.distribute_s"),
    ("mpc.gather", "span.mpc.gather_s"),
    ("exec.map", "span.exec.map_s"),
];

/// The benchmark's workloads. Why each exists is recorded in
/// `BENCHMARK.json`. Sizes keep one call between about 0.5 and 6 s on a
/// 2-core host, so a run holds several calls. `jl_line` uses n = 1024:
/// at n = 2048 a call takes 11–13 s, and at n = 512 the FJLT stage
/// falls below a fifth of the call.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    /// Default Theorem-1 path: FJLT on dense-ish `P`, then Algorithm 2.
    JlLine,
    /// Input below the JL target dimension: no FJLT, all partitioning.
    LowdimClusters,
    /// The `JlLine` input with 2-dimensional buckets and a fault plan
    /// that crashes and drops in both FJLT rounds.
    JlFaulted,
}

impl Workload {
    const ALL: [Workload; 3] = [Self::JlLine, Self::LowdimClusters, Self::JlFaulted];

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Self::JlLine => "jl_line",
            Self::LowdimClusters => "lowdim_clusters",
            Self::JlFaulted => "jl_faulted",
        }
    }

    fn generate(self, seed: u64) -> PointSet {
        match self {
            Self::JlLine | Self::JlFaulted => generators::noisy_line(1024, 256, 1 << 12, 2.0, seed),
            Self::LowdimClusters => generators::gaussian_clusters(1024, 32, 8, 40.0, 1 << 12, seed),
        }
    }

    /// Configuration of every call of a run; the algorithm seed derives
    /// from the workload seed.
    fn config(self, seed: u64, threads: usize) -> PipelineConfig {
        let b = PipelineConfig::builder()
            .seed(splitmix(splitmix(seed ^ 0x5EED)))
            .threads(threads);
        match self {
            Self::JlLine => b.xi(0.6).build(),
            Self::LowdimClusters => b.build(),
            Self::JlFaulted => b
                .xi(0.6)
                .r(85)
                .fault_plan(fault_plan(seed))
                .checkpoint(CheckpointPolicy::Auto)
                .build(),
        }
    }

    /// Lowest admissible tree-to-Euclidean ratio: the FJLT may contract
    /// distances by `1 − ξ`; without it the tree dominates exactly.
    fn domination_floor(self, cfg: &PipelineConfig) -> f64 {
        match self {
            Self::LowdimClusters => 1.0,
            Self::JlLine | Self::JlFaulted => (1.0 - cfg.xi) * (1.0 - 1e-9),
        }
    }
}

/// The fixed plan of `jl_faulted`: in each of rounds 0 and 1 (the two
/// executed FJLT rounds) one machine crashes on its first execution and
/// machine 0's first message is dropped on the first exchange attempt.
/// No straggles: those are wall-clock sleeps, not work.
fn fault_plan(seed: u64) -> FaultPlan {
    let crashed = (seed % 2) as usize;
    let mut plan = FaultPlan::new(seed);
    for round in 0..2 {
        plan = plan
            .with_fault(FaultSpec::Crash {
                round,
                attempt: 0,
                machine: crashed,
            })
            .with_fault(FaultSpec::Drop {
                round,
                attempt: 0,
                src: 0,
                msg_index: 0,
            });
    }
    plan
}

/// SplitMix64 finalizer: the benchmark's only source of randomness
/// beyond the generators, so seeds fully determine inputs.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
    /// Only set up (generate and make the warm-up call) and print the
    /// set-up time; used for the extra set-ups of a run.
    setup_only: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut out_dir = PathBuf::from(".");
        let mut setup_only = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                    })
                }
                "--out-dir" => out_dir = PathBuf::from(value),
                "--setup-only" => setup_only = value == "1",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out_dir,
            setup_only,
        })
    }
}

/// Checks every call's output against the input and the run's first
/// call, and measures tree quality on a seeded sample of pairs.
struct Checker {
    /// `(i, j, ‖p_i − p_j‖)` for the sampled pairs of distinct points.
    pairs: Vec<(usize, usize, f64)>,
    floor: f64,
    faulted: bool,
    /// Bit patterns of the first call's sampled tree distances.
    reference: Option<Vec<u64>>,
}

/// Tree quality on the sampled pairs.
struct Quality {
    /// `Σ dist_T / Σ ‖p − q‖`: the mean of `dist_T/‖p − q‖` weighted by
    /// `‖p − q‖`. The unweighted mean is dominated by the few closest
    /// pairs a tree happens to cut high up, and swings by ±20% from one
    /// seed to the next.
    distortion_mean: f64,
    /// Smallest `dist_T/‖p − q‖` over the sampled pairs.
    domination_min: f64,
}

impl Checker {
    fn new(ps: &PointSet, workload: Workload, seed: u64) -> Self {
        let n = ps.len() as u64;
        let mut state = splitmix(seed ^ 0xFA125);
        let mut pairs = Vec::with_capacity(PAIRS);
        while pairs.len() < PAIRS {
            state = splitmix(state);
            let i = (state % n) as usize;
            state = splitmix(state);
            let j = (state % n) as usize;
            let e = metrics::dist(ps.point(i), ps.point(j));
            if i != j && e > 0.0 {
                pairs.push((i, j, e));
            }
        }
        let cfg = workload.config(seed, THREADS);
        Self {
            pairs,
            floor: workload.domination_floor(&cfg),
            faulted: cfg.faults.is_some(),
            reference: None,
        }
    }

    fn check(&mut self, report: &PipelineReport) -> Result<Quality, String> {
        let violations = report.metrics.violations();
        if violations != 0 {
            return Err(format!("{violations} capacity violations"));
        }
        if self.faulted {
            if let Some(why) = plan_not_fired(&report.metrics) {
                return Err(why);
            }
        }
        let mut bits = Vec::with_capacity(self.pairs.len());
        let (mut sum_tree, mut sum_euclid, mut min) = (0.0, 0.0, f64::INFINITY);
        for &(i, j, e) in &self.pairs {
            let t = report.embedding.tree_distance(i, j);
            let ratio = t / e;
            if ratio.is_nan() || ratio < self.floor {
                return Err(format!(
                    "pair ({i},{j}) breaks domination: tree {t} vs euclid {e}"
                ));
            }
            sum_tree += t;
            sum_euclid += e;
            min = min.min(ratio);
            bits.push(t.to_bits());
        }
        match &self.reference {
            None => self.reference = Some(bits),
            Some(r) if *r != bits => {
                return Err("tree distances differ from the run's first call".into())
            }
            Some(_) => {}
        }
        Ok(Quality {
            distortion_mean: sum_tree / sum_euclid,
            domination_min: min,
        })
    }
}

/// One row of the ledger: every metric one checked call yields.
type Row = BTreeMap<&'static str, f64>;

struct Runner {
    ps: PointSet,
    workload: Workload,
    seed: u64,
    checker: Checker,
    attempted: u64,
    failed: u64,
}

impl Runner {
    /// Generates the input and prepares the checks (no pipeline call).
    fn new(workload: Workload, seed: u64) -> Self {
        let ps = workload.generate(seed);
        let checker = Checker::new(&ps, workload, seed);
        Self {
            ps,
            workload,
            seed,
            checker,
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs one checked call at `threads` executor threads; `None` (and
    /// a failure on the books) when the call errs or its output is wrong.
    fn call(&mut self, threads: usize) -> Option<(Row, PipelineReport)> {
        self.attempted += 1;
        match self.try_call(threads) {
            Ok(done) => Some(done),
            Err(why) => {
                self.failed += 1;
                eprintln!("perfbench: call {} failed: {why}", self.attempted);
                None
            }
        }
    }

    fn try_call(&mut self, threads: usize) -> Result<(Row, PipelineReport), String> {
        let cfg = self.workload.config(self.seed, threads);
        reset_vmhwm()?;
        exec::reset_stats();
        // lint:allow(wall-clock): the benchmark's end-to-end timer; the
        // measured pipeline never sees the value.
        let t0 = Instant::now();
        let result = black_box(pipeline::run(black_box(&self.ps), &cfg));
        let wall_s = t0.elapsed().as_secs_f64();
        let ex = exec::stats();
        let rss_bytes = read_vmhwm_bytes()?;
        let report = result.map_err(|e| format!("pipeline error: {e}"))?;
        let q = self.checker.check(&report)?;
        eprintln!(
            "perfbench: call {} ({threads} threads): {wall_s:.4} s, {}, peak RSS {} MB",
            self.attempted,
            report
                .stages
                .iter()
                .map(|s| format!("{} {:.4} s", s.name, s.wall_ns as f64 * 1e-9))
                .collect::<Vec<_>>()
                .join(", "),
            rss_bytes >> 20
        );

        let m = &report.metrics;
        let stage_s = |name: &str| {
            report
                .stages
                .iter()
                .filter(|s| s.name == name)
                .fold(0.0, |acc, s| acc + s.wall_ns as f64 * 1e-9)
        };
        let rounds_s = |prefix: &str| {
            m.round_stats()
                .iter()
                .filter(|r| r.label.starts_with(prefix))
                .fold(0.0, |acc, r| acc + r.wall_ns() as f64 * 1e-9)
        };
        let input_bytes = (self.ps.len() * self.ps.dim() * std::mem::size_of::<f64>()) as f64;
        let row: Row = [
            ("pipeline_s", wall_s),
            ("peak_rss_mb", rss_bytes as f64 / (1024.0 * 1024.0)),
            ("rounds", report.rounds as f64),
            ("sent_words", m.total_sent_words() as f64),
            ("peak_machine_words", report.peak_machine_words as f64),
            ("peak_total_words", report.peak_total_words as f64),
            ("distortion_mean", q.distortion_mean),
            ("domination_min", q.domination_min),
            ("stage.fjlt_s", stage_s("fjlt")),
            ("stage.schedule_s", stage_s("schedule")),
            ("stage.embed_s", stage_s("embed")),
            ("round.fjlt_project_s", rounds_s("fjlt:project")),
            (
                "round.fjlt_project_words",
                m.words_labeled("fjlt:project") as f64,
            ),
            (
                "round.max_in_words",
                m.round_stats()
                    .iter()
                    .map(|r| r.max_in_words)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            ("round.fjlt_wht_s", rounds_s("fjlt:wht")),
            ("round.shuffle_s", rounds_s("shuffle")),
            (
                "mpc.exchange_attempts",
                m.round_stats()
                    .iter()
                    .map(|r| u64::from(r.attempts))
                    .sum::<u64>() as f64,
            ),
            ("mpc.retried_rounds", m.retried_rounds() as f64),
            ("mpc.recoveries", f64::from(m.recoveries())),
            (
                "mpc.peak_checkpoint_words",
                m.peak_checkpoint_words() as f64,
            ),
            ("exec.busy_s", ex.busy_ns() as f64 * 1e-9),
            ("exec.utilization", ex.utilization()),
            ("exec.sequential_jobs", ex.sequential_jobs as f64),
            (
                "mem.rss_bytes_per_input_byte",
                rss_bytes as f64 / input_bytes,
            ),
        ]
        .into_iter()
        .collect();
        Ok((row, report))
    }
}

/// Median of every metric over the rows.
fn medians(rows: &[Row]) -> Row {
    let mut out = Row::new();
    for key in rows[0].keys() {
        let xs: Vec<f64> = rows.iter().map(|r| r[key]).collect();
        out.insert(key, median(&xs));
    }
    out
}

/// Grid tests and sequential time of the partition kernel over one
/// embed, measured from outside the pipeline: the run's levels are
/// rebuilt from `report.params` and the level seeds, the working set is
/// recomputed (zero-padded input, or the sequential FJLT of it — a
/// recomputation, not the MPC stage's own output), and
/// `GridSequence::first_covering` is counted and timed per bucket slice.
fn partition_kernel(ps: &PointSet, report: &PipelineReport, out: &mut Row) {
    let params = &report.params;
    let levels: Vec<HybridLevel> = params
        .levels
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            HybridLevel::new(
                params.dim,
                params.r,
                w,
                params.grids_per_bucket,
                hybrid_level_seed(report.embedding.seed, i),
            )
        })
        .collect();
    let working = match report.fjlt {
        Some(fp) => Fjlt::new(fp).apply(ps),
        None => ps.clone(),
    }
    .zero_pad(params.dim);
    let (mut tests, mut assigned) = (0u64, 0u64);
    // lint:allow(wall-clock): times the replayed kernel from outside.
    let t0 = Instant::now();
    for p in working.iter() {
        for level in &levels {
            let m = level.bucket_dim();
            for (j, seq) in level.sequences().iter().enumerate() {
                match black_box(seq.first_covering(&p[j * m..(j + 1) * m])) {
                    Some(u) => {
                        tests += u64::from(u) + 1;
                        assigned += 1;
                    }
                    None => tests += seq.len() as u64,
                }
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    out.insert("partition.grid_tests", tests as f64);
    out.insert(
        "partition.tests_per_assignment",
        tests as f64 / assigned.max(1) as f64,
    );
    out.insert("partition.ns_per_grid_test", ns / tests.max(1) as f64);
}

/// Set-ups measured per run, each in a fresh process so each warm-up
/// call is cold: this process plus `SETUPS - 1` children.
const SETUPS: usize = 3;

/// Input generation plus the cold warm-up call, whose output is
/// checked and then discarded. Returns the runner and the set-up time.
fn set_up(args: &Args) -> Result<(Runner, f64), String> {
    // lint:allow(wall-clock): times the set-up.
    let t0 = Instant::now();
    let mut runner = Runner::new(args.workload, args.seed);
    let warm = runner.call(THREADS);
    let setup_s = t0.elapsed().as_secs_f64();
    let (_, warm) = warm.ok_or("the warm-up call failed")?;
    eprintln!(
        "perfbench: {:?} seed {}: n={} d={} r={} levels={} grids/bucket={} machines={}",
        args.workload,
        args.seed,
        runner.ps.len(),
        runner.ps.dim(),
        warm.params.r,
        warm.params.num_levels(),
        warm.params.grids_per_bucket,
        warm.machines,
    );
    Ok((runner, setup_s))
}

/// Runs [`set_up`] in a child process of this executable and returns its
/// set-up time, or `None` when the child's warm-up call failed.
fn set_up_in_child(args: &Args) -> Result<Option<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", "0", "--trace", "0", "--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    if !out.status.success() {
        return Ok(None);
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let value = text
        .lines()
        .find_map(|l| l.strip_prefix("setup "))
        .ok_or("set-up child printed no time")?;
    value
        .trim()
        .parse()
        .map(Some)
        .map_err(|e| format!("set-up child time {value:?}: {e}"))
}

fn run(args: &Args) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut child_failures = 0;
    for _ in 1..SETUPS {
        match set_up_in_child(args)? {
            Some(s) => setups.push(s),
            None => child_failures += 1,
        }
    }
    let (mut runner, setup_s) = set_up(args)?;
    setups.push(setup_s);
    runner.attempted += (SETUPS - 1) as u64;
    runner.failed += child_failures;

    // The closed loop: back-to-back calls until the time is up.
    let mut rows = Vec::new();
    let mut last = None;
    // lint:allow(wall-clock): bounds the measuring window.
    let start = Instant::now();
    while rows.is_empty() || start.elapsed() < Duration::from_secs(args.seconds) {
        if let Some((row, report)) = runner.call(THREADS) {
            rows.push(row);
            last = Some(report);
        } else if rows.is_empty() && runner.failed > 3 {
            return Err("every timed call failed".into());
        }
    }
    let report = last.expect("at least one timed call succeeded");
    let mut out = medians(&rows);
    let wall: Vec<f64> = rows.iter().map(|r| r["pipeline_s"]).collect();
    eprintln!(
        "perfbench: {:?} seed {}: {} timed calls, pipeline_s median {:.4}, min {:.4}, max {:.4}",
        runner.workload,
        runner.seed,
        wall.len(),
        out["pipeline_s"],
        wall.iter().copied().fold(f64::INFINITY, f64::min),
        wall.iter().copied().fold(0.0, f64::max),
    );
    out.insert("setup_s", median(&setups));
    out.insert("pipeline.samples", rows.len() as f64);
    let spread = if wall.len() >= 2 {
        let (q1, q3) = quartiles(&wall);
        100.0 * (q3 - q1) / out["pipeline_s"]
    } else {
        0.0
    };
    out.insert("pipeline.spread_pct", spread);

    if args.trace {
        traced_layers(&mut runner, &report, args, &mut out)?;
    }
    out.insert(
        "success_rate",
        1.0 - runner.failed as f64 / runner.attempted as f64,
    );

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in wanted {
        let value = out
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        println!("metric {name} {unit} {value}");
    }
    println!("calls {} {}", runner.attempted, runner.failed);
    println!("correct {}", u8::from(runner.failed == 0));
    Ok(())
}

/// The per-layer pass: one traced call (self time per span, stage
/// shares, tracing overhead, Chrome trace on disk), one 1-thread call
/// (speed-up per stage) and the partition-kernel replay. Both calls are
/// checked bit for bit against the warm-up call like every other:
/// tracing and the thread count must not change the output.
fn traced_layers(
    runner: &mut Runner,
    report: &PipelineReport,
    args: &Args,
    out: &mut Row,
) -> Result<(), String> {
    treeemb_obs::capture_start();
    treeemb_obs::drain();
    let traced = runner.call(THREADS);
    treeemb_obs::capture_stop();
    let events = treeemb_obs::drain();
    let (traced_row, _) = traced.ok_or("the traced call failed")?;
    let path = args
        .out_dir
        .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    treeemb_obs::export::write_chrome_trace(&path, &events)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());

    let self_ns = self_time_ns(&events);
    for &(span, metric) in SELF_TIME_SPANS {
        out.insert(
            metric,
            self_ns.get(span).copied().unwrap_or(0) as f64 * 1e-9,
        );
    }
    let total_ns = total_time_ns(&events);
    let whole = total_ns.get("pipeline.run").copied().unwrap_or(0).max(1) as f64;
    let share = |name: &str| 100.0 * total_ns.get(name).copied().unwrap_or(0) as f64 / whole;
    out.insert("share.fjlt_pct", share("pipeline.fjlt"));
    out.insert("share.embed_pct", share("pipeline.embed"));
    out.insert("share.embed_paths_pct", share("embed.paths"));
    let untraced = out["pipeline_s"];
    out.insert(
        "trace.overhead_pct",
        100.0 * (traced_row["pipeline_s"] - untraced) / untraced,
    );

    let (one_row, _) = runner.call(1).ok_or("the 1-thread call failed")?;
    let speedup = |key: &str| {
        let two = out[key];
        if two > 0.0 {
            one_row[key] / two
        } else {
            0.0
        }
    };
    let scale = [
        ("scale.fjlt", speedup("stage.fjlt_s")),
        ("scale.embed", speedup("stage.embed_s")),
        ("scale.pipeline", speedup("pipeline_s")),
    ];
    out.extend(scale);

    partition_kernel(&runner.ps, report, out);
    Ok(())
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_only {
        match set_up(&args) {
            Ok((_, setup_s)) => println!("setup {setup_s}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
