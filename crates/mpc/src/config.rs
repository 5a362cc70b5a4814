//! MPC cluster configuration: the [`RuntimeBuilder`] construction path,
//! the [`MpcConfig`] knob set it produces, checkpoint policy, and the
//! single `TREEEMB_*` environment-override layer ([`from_env`]).

use crate::cluster::Runtime;
use crate::fault::FaultPlan;

/// Configuration for a simulated MPC cluster.
///
/// The one supported construction path is
/// [`Runtime::builder()`](crate::cluster::Runtime::builder) /
/// [`RuntimeBuilder`]; the associated constructors here
/// ([`MpcConfig::fully_scalable`], [`MpcConfig::explicit`]) remain the
/// sizing primitives the builder resolves to. The struct is
/// `#[non_exhaustive]`: downstream code reads and tweaks fields but
/// cannot literal-construct it, so new knobs can be added without
/// breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MpcConfig {
    /// Input size `N` in machine words (for the paper: `n · d`).
    pub input_words: usize,
    /// Scalability exponent `ε ∈ (0, 1)`; recorded for reporting.
    pub epsilon: f64,
    /// Local memory per machine, in words (`s`).
    pub capacity_words: usize,
    /// Number of machines `M`.
    pub num_machines: usize,
    /// OS threads used to execute machines concurrently.
    pub threads: usize,
    /// When true (the default), capacity violations abort the computation
    /// with an error; when false they are only recorded in the metrics.
    pub strict: bool,
    /// Heterogeneous per-machine capacity overrides as
    /// `(machine, words)` pairs; machines not listed keep
    /// [`MpcConfig::capacity_words`]. See [`MpcConfig::capacity_of`].
    pub machine_capacities: Vec<(usize, usize)>,
}

/// Multiplier on `N / s` when choosing the default machine count. MPC
/// algorithms routinely need constant-factor slack in total space; the
/// paper's bounds all carry an `O(·)`.
const MACHINE_SLACK: usize = 4;

/// Scalability exponent [`RuntimeBuilder`] assumes when sized from
/// `input_words` alone.
const DEFAULT_EPSILON: f64 = 0.5;

impl MpcConfig {
    /// Fully scalable configuration: `s = ⌈N^ε⌉` (at least 16 words so
    /// toy inputs remain runnable), `M = ⌈slack · N / s⌉`.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon < 1` and `input_words > 0`.
    pub fn fully_scalable(input_words: usize, epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must lie in (0,1)");
        assert!(input_words > 0, "input must be non-empty");
        let capacity = (input_words as f64).powf(epsilon).ceil() as usize;
        let capacity_words = capacity.max(16);
        let num_machines = (MACHINE_SLACK * input_words)
            .div_ceil(capacity_words)
            .max(1);
        Self {
            input_words,
            epsilon,
            capacity_words,
            num_machines,
            threads: default_threads(),
            strict: true,
            machine_capacities: Vec::new(),
        }
    }

    /// Explicit configuration (capacity and machine count chosen by the
    /// caller); `epsilon` is recorded as the implied `log s / log N`.
    pub fn explicit(input_words: usize, capacity_words: usize, num_machines: usize) -> Self {
        assert!(capacity_words > 0 && num_machines > 0);
        let epsilon = if input_words > 1 {
            (capacity_words as f64).ln() / (input_words as f64).ln()
        } else {
            1.0
        };
        Self {
            input_words: input_words.max(1),
            epsilon,
            capacity_words,
            num_machines,
            threads: default_threads(),
            strict: true,
            machine_capacities: Vec::new(),
        }
    }

    /// Overrides the per-machine capacity.
    pub fn with_capacity(mut self, capacity_words: usize) -> Self {
        assert!(capacity_words > 0);
        self.capacity_words = capacity_words;
        self
    }

    /// Overrides the machine count.
    pub fn with_machines(mut self, num_machines: usize) -> Self {
        assert!(num_machines > 0);
        self.num_machines = num_machines;
        self
    }

    /// Overrides the capacity of one machine (heterogeneous clusters);
    /// repeated calls for the same machine keep the last value.
    pub fn with_machine_capacity(mut self, machine: usize, capacity_words: usize) -> Self {
        assert!(capacity_words > 0);
        assert!(
            machine < self.num_machines,
            "machine {machine} outside 0..{}",
            self.num_machines
        );
        match self
            .machine_capacities
            .iter_mut()
            .find(|(m, _)| *m == machine)
        {
            Some(entry) => entry.1 = capacity_words,
            None => self.machine_capacities.push((machine, capacity_words)),
        }
        self
    }

    /// Overrides the executor thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0);
        self.threads = threads;
        self
    }

    /// Meter capacity violations instead of failing on them. Useful for
    /// experiments that chart *how close* an algorithm runs to the bound.
    pub fn lenient(mut self) -> Self {
        self.strict = false;
        self
    }

    /// Configured capacity of `machine`: its heterogeneous override if
    /// one is set, [`MpcConfig::capacity_words`] otherwise.
    pub fn capacity_of(&self, machine: usize) -> usize {
        self.machine_capacities
            .iter()
            .find(|(m, _)| *m == machine)
            .map_or(self.capacity_words, |&(_, w)| w)
    }

    /// Total space of the cluster in words (`Σ` per-machine capacity;
    /// `M · s` for a homogeneous cluster).
    pub fn total_space_words(&self) -> usize {
        (0..self.num_machines).map(|m| self.capacity_of(m)).sum()
    }
}

/// When the runtime snapshots a round's input `Dist` so a crashed
/// machine's partition can be re-executed (see `DESIGN.md`; the
/// checkpoint is word-metered against total space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// Snapshot exactly when the attached fault plan can inject crashes
    /// ([`FaultPlan::can_crash`]) — free for fault-free runs, safe for
    /// chaos runs. The default.
    #[default]
    Auto,
    /// Snapshot every round regardless of the fault plan (models an
    /// always-on production checkpointing policy; meters its space cost).
    Always,
    /// Never snapshot: any crash immediately exhausts recovery and the
    /// round fails with the typed
    /// [`MpcError::RecoveryExhausted`](crate::error::MpcError).
    Disabled,
}

/// Builder for [`Runtime`] — the one construction path for simulated
/// clusters.
///
/// Three sizing modes, resolved in this order:
///
/// 1. [`RuntimeBuilder::config`] — start from an existing [`MpcConfig`];
///    other setters override it.
/// 2. [`RuntimeBuilder::capacity_words`] + [`RuntimeBuilder::machines`]
///    — explicit sizing ([`MpcConfig::explicit`]); `input_words`
///    defaults to the cluster's total space when not given.
/// 3. [`RuntimeBuilder::input_words`] alone — fully scalable sizing
///    ([`MpcConfig::fully_scalable`]) with `ε` from
///    [`RuntimeBuilder::epsilon`] (default 0.5).
///
/// ```
/// use treeemb_mpc::cluster::Runtime;
/// use treeemb_mpc::config::CheckpointPolicy;
/// use treeemb_mpc::fault::FaultPlan;
///
/// let rt = Runtime::builder()
///     .machines(8)
///     .capacity_words(1 << 12)
///     .machine_capacity(3, 1 << 10) // one straggler-sized machine
///     .fault_plan(FaultPlan::new(42))
///     .checkpoint(CheckpointPolicy::Auto)
///     .threads(2)
///     .build();
/// assert_eq!(rt.num_machines(), 8);
/// assert_eq!(rt.capacity(), 1 << 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RuntimeBuilder {
    config: Option<MpcConfig>,
    input_words: Option<usize>,
    epsilon: Option<f64>,
    capacity_words: Option<usize>,
    machines: Option<usize>,
    machine_capacities: Vec<(usize, usize)>,
    threads: Option<usize>,
    strict: Option<bool>,
    fault_plan: Option<FaultPlan>,
    checkpoint: CheckpointPolicy,
    env: Option<EnvOverrides>,
}

impl RuntimeBuilder {
    /// An empty builder (equivalent to `Runtime::builder()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an existing configuration; later setters override
    /// individual knobs.
    pub fn config(mut self, cfg: MpcConfig) -> Self {
        self.config = Some(cfg);
        self
    }

    /// Input size `N` in machine words.
    pub fn input_words(mut self, words: usize) -> Self {
        self.input_words = Some(words);
        self
    }

    /// Scalability exponent for fully scalable sizing (mode 3).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Some(epsilon);
        self
    }

    /// Per-machine capacity `s` in words.
    pub fn capacity_words(mut self, words: usize) -> Self {
        self.capacity_words = Some(words);
        self
    }

    /// Machine count `M`.
    pub fn machines(mut self, machines: usize) -> Self {
        self.machines = Some(machines);
        self
    }

    /// Heterogeneous capacity override for one machine.
    pub fn machine_capacity(mut self, machine: usize, words: usize) -> Self {
        self.machine_capacities.push((machine, words));
        self
    }

    /// Executor thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Strict (fail on capacity violation, the default) vs lenient
    /// (meter violations) enforcement.
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = Some(strict);
        self
    }

    /// Shorthand for `strict(false)`.
    pub fn lenient(self) -> Self {
        self.strict(false)
    }

    /// Attaches a deterministic fault plan at construction.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the round-checkpoint policy (default
    /// [`CheckpointPolicy::Auto`]).
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }

    /// Applies the process environment's `TREEEMB_*` overrides (read
    /// once, via [`from_env`]) on top of whatever this builder resolves
    /// to. Opt-in: deterministic tests should not call this.
    pub fn env(self) -> Self {
        let overrides = from_env();
        self.env_overrides(overrides)
    }

    /// Applies an explicit override set (the testable form of
    /// [`RuntimeBuilder::env`]).
    pub fn env_overrides(mut self, overrides: EnvOverrides) -> Self {
        self.env = Some(overrides);
        self
    }

    /// Resolves the configuration and constructs the runtime.
    ///
    /// # Panics
    /// Panics when no sizing mode applies (neither `config`, nor
    /// `capacity_words` + `machines`, nor `input_words` was set), or on
    /// invalid knob values (zero capacities, out-of-range machines).
    pub fn build(self) -> Runtime {
        let env = self.env.unwrap_or_default();
        let capacity = env.capacity_words.or(self.capacity_words);
        let machines = env.machines.or(self.machines);
        let mut cfg = match (self.config, capacity, machines) {
            (Some(mut cfg), cap, m) => {
                if let Some(c) = cap {
                    cfg = cfg.with_capacity(c);
                }
                if let Some(m) = m {
                    cfg = cfg.with_machines(m);
                }
                if let Some(n) = self.input_words {
                    cfg.input_words = n.max(1);
                }
                cfg
            }
            (None, Some(cap), Some(m)) => {
                let input = self.input_words.unwrap_or_else(|| cap.saturating_mul(m));
                MpcConfig::explicit(input.max(1), cap, m)
            }
            (None, cap, m) => {
                let input = self.input_words.expect(
                    "RuntimeBuilder: set .config(..), .capacity_words(..) + .machines(..), \
                     or .input_words(..)",
                );
                let mut cfg =
                    MpcConfig::fully_scalable(input, self.epsilon.unwrap_or(DEFAULT_EPSILON));
                if let Some(c) = cap {
                    cfg = cfg.with_capacity(c);
                }
                if let Some(m) = m {
                    cfg = cfg.with_machines(m);
                }
                cfg
            }
        };
        if let Some(t) = env.threads.or(self.threads) {
            cfg = cfg.with_threads(t);
        }
        if let Some(strict) = self.strict {
            cfg.strict = strict;
        }
        for (machine, words) in self.machine_capacities {
            cfg = cfg.with_machine_capacity(machine, words);
        }
        Runtime::assemble(cfg, self.fault_plan, self.checkpoint)
    }
}

/// Overrides parsed from `TREEEMB_*` environment variables by
/// [`from_env`]. `None` means the variable was unset or unparsable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvOverrides {
    /// `TREEEMB_THREADS`: executor thread count.
    pub threads: Option<usize>,
    /// `TREEEMB_MACHINES`: machine count.
    pub machines: Option<usize>,
    /// `TREEEMB_CAPACITY_WORDS`: per-machine capacity in words.
    pub capacity_words: Option<usize>,
}

/// Reads every `TREEEMB_*` configuration override from the process
/// environment. This is the **only** place the workspace parses
/// configuration from the environment (tracing activation via
/// `TREEEMB_TRACE` lives in `treeemb-obs`, and test harnesses gate on
/// `TREEEMB_PROPTEST_CASES`); everything else takes these overrides
/// through [`RuntimeBuilder::env`] or reads the parsed struct directly.
pub fn from_env() -> EnvOverrides {
    fn num(v: Result<String, std::env::VarError>) -> Option<usize> {
        v.ok().and_then(|s| s.trim().parse().ok())
    }
    EnvOverrides {
        threads: num(std::env::var("TREEEMB_THREADS")),
        machines: num(std::env::var("TREEEMB_MACHINES")),
        capacity_words: num(std::env::var("TREEEMB_CAPACITY_WORDS")),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_scalable_derives_capacity() {
        let cfg = MpcConfig::fully_scalable(1 << 20, 0.5);
        assert_eq!(cfg.capacity_words, 1 << 10);
        assert_eq!(cfg.num_machines, MACHINE_SLACK * (1 << 10));
    }

    #[test]
    fn capacity_floor_keeps_toy_inputs_runnable() {
        let cfg = MpcConfig::fully_scalable(4, 0.3);
        assert!(cfg.capacity_words >= 16);
    }

    #[test]
    fn builders_override() {
        let cfg = MpcConfig::fully_scalable(1024, 0.5)
            .with_capacity(77)
            .with_machines(5)
            .with_threads(2)
            .lenient();
        assert_eq!(cfg.capacity_words, 77);
        assert_eq!(cfg.num_machines, 5);
        assert_eq!(cfg.threads, 2);
        assert!(!cfg.strict);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn epsilon_must_be_fractional() {
        let _ = MpcConfig::fully_scalable(100, 1.0);
    }

    #[test]
    fn total_space_is_machines_times_capacity() {
        let cfg = MpcConfig::explicit(100, 10, 7);
        assert_eq!(cfg.total_space_words(), 70);
    }

    #[test]
    fn machine_capacity_overrides_one_machine() {
        let cfg = MpcConfig::explicit(100, 10, 4)
            .with_machine_capacity(2, 3)
            .with_machine_capacity(1, 20)
            .with_machine_capacity(2, 4); // last write wins
        assert_eq!(cfg.capacity_of(0), 10);
        assert_eq!(cfg.capacity_of(1), 20);
        assert_eq!(cfg.capacity_of(2), 4);
        assert_eq!(cfg.total_space_words(), 10 + 20 + 4 + 10);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn machine_capacity_rejects_out_of_range_machines() {
        let _ = MpcConfig::explicit(100, 10, 4).with_machine_capacity(4, 10);
    }

    #[test]
    fn builder_explicit_mode_sizes_like_explicit() {
        let rt = Runtime::builder()
            .machines(7)
            .capacity_words(10)
            .threads(2)
            .build();
        assert_eq!(rt.num_machines(), 7);
        assert_eq!(rt.capacity(), 10);
        assert_eq!(rt.config().input_words, 70);
        assert_eq!(rt.config().threads, 2);
    }

    #[test]
    fn builder_fully_scalable_mode_uses_epsilon() {
        let rt = Runtime::builder().input_words(1 << 20).epsilon(0.5).build();
        assert_eq!(rt.capacity(), 1 << 10);
    }

    #[test]
    fn builder_config_mode_applies_overrides() {
        let base = MpcConfig::explicit(64, 8, 4);
        let rt = Runtime::builder()
            .config(base)
            .capacity_words(16)
            .machines(2)
            .lenient()
            .build();
        assert_eq!(rt.capacity(), 16);
        assert_eq!(rt.num_machines(), 2);
        assert!(!rt.config().strict);
    }

    #[test]
    fn builder_attaches_plan_and_hetero_capacities() {
        let rt = Runtime::builder()
            .machines(4)
            .capacity_words(100)
            .machine_capacity(3, 40)
            .fault_plan(FaultPlan::new(7))
            .build();
        assert_eq!(rt.config().capacity_of(3), 40);
        assert_eq!(rt.capacity(), 40, "cluster capacity is the minimum");
        assert_eq!(rt.fault_plan().map(|p| p.seed), Some(7));
    }

    #[test]
    #[should_panic(expected = "RuntimeBuilder")]
    fn builder_without_sizing_panics() {
        let _ = Runtime::builder().threads(2).build();
    }

    #[test]
    fn env_overrides_beat_builder_settings() {
        let rt = Runtime::builder()
            .machines(4)
            .capacity_words(100)
            .threads(1)
            .env_overrides(EnvOverrides {
                threads: Some(3),
                machines: Some(6),
                capacity_words: Some(50),
            })
            .build();
        assert_eq!(rt.config().threads, 3);
        assert_eq!(rt.num_machines(), 6);
        assert_eq!(rt.capacity(), 50);
    }

    #[test]
    fn from_env_parses_the_treeemb_namespace() {
        // Serialized with respect to other env-reading tests by var
        // names unique to this namespace check.
        std::env::set_var("TREEEMB_THREADS", "5");
        std::env::set_var("TREEEMB_CAPACITY_WORDS", " 2048 ");
        std::env::remove_var("TREEEMB_MACHINES");
        let ov = from_env();
        std::env::remove_var("TREEEMB_THREADS");
        std::env::remove_var("TREEEMB_CAPACITY_WORDS");
        assert_eq!(ov.threads, Some(5));
        assert_eq!(ov.capacity_words, Some(2048));
        assert_eq!(ov.machines, None);
    }
}
