//! Deterministic fault injection for the simulated MPC runtime.
//!
//! FoundationDB-style deterministic simulation testing: a [`FaultPlan`]
//! is a seeded, serializable schedule of faults — per-round machine
//! slowdown (stragglers), message drop/duplication on the exchange
//! path, transient machine unavailability with bounded retry/backoff,
//! machine crashes that lose a shard mid-round (recovered from the
//! round checkpoint, see `DESIGN.md`), and capacity squeezes —
//! cluster-wide or per machine — that shrink `s` mid-run. The runtime
//! consults
//! the plan at fixed points of [`crate::cluster::Runtime::round`]; every
//! decision is a pure function of `(plan seed, round, attempt, machine,
//! message index)`, so a fixed plan reproduces the identical fault
//! sequence and the identical run outcome across repeated runs and
//! across thread counts.
//!
//! **Failure model.** Exchange faults (drop, duplication, machine
//! unavailability) are *detected* by the simulated exchange protocol —
//! real shuffles run sequence numbers and acknowledgements — and the
//! whole exchange is retried with bounded backoff, re-transmitting from
//! the machines' already-computed outputs. A successful attempt
//! delivers exactly the fault-free message sequence, so a run under any
//! retryable fault schedule either produces output bit-identical to the
//! fault-free run or fails with the typed
//! [`MpcError::RetriesExhausted`](crate::error::MpcError) — never a
//! silently wrong result. Capacity squeezes are *not* retryable: they
//! shrink the effective `s` from a given round onward, and loads that
//! no longer fit surface as the usual typed capacity errors
//! ([`MpcError::CapacityExceeded`](crate::error::MpcError)), mirroring
//! Theorem 1's "report failure" contract. Crashes lose a machine's
//! *state*, not just an exchange attempt: the runtime re-executes the
//! lost partition from its round-input checkpoint (deterministic
//! closures make the re-execution bit-identical), and a machine that
//! crashes through the whole per-round recovery budget surfaces as the
//! typed, retryable
//! [`MpcError::RecoveryExhausted`](crate::error::MpcError).
//!
//! Plans round-trip through JSON ([`FaultPlan::to_json`] /
//! [`FaultPlan::from_json`], on the shared [`treeemb_obs::json`]
//! codec), which is what `treeemb-bench --bin chaos --
//! --faults plan.json` replays and what the shrinker
//! ([`shrink_plan`]) prints for a minimal reproducing schedule.

use crate::cluster::mix_seed;
use std::fmt;
use treeemb_obs::json;

/// Domain-separation tags for the per-fault-kind hash streams.
const TAG_DROP: u64 = 0xD809;
const TAG_DUP: u64 = 0xD7B1;
const TAG_UNAVAILABLE: u64 = 0x0FF1;
const TAG_STRAGGLE: u64 = 0x51C0;
const TAG_CRASH: u64 = 0xC4A5;

/// Seeded probabilistic fault rates, applied independently per decision
/// point through the plan's hash stream. All probabilities are clamped
/// to `[0, 1]`; `0` disables the class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability a message is dropped in transit (per message, per
    /// attempt).
    pub drop: f64,
    /// Probability a message is duplicated in transit (per message, per
    /// attempt).
    pub duplicate: f64,
    /// Probability a machine is unavailable for an exchange attempt
    /// (per machine, per attempt).
    pub unavailable: f64,
    /// Probability a machine straggles in a round (per machine, per
    /// round).
    pub straggle: f64,
    /// Injected delay when a rate-based straggle fires, nanoseconds.
    pub straggle_ns: u64,
    /// Probability a machine crashes and loses its shard during an
    /// execution of a round (per machine, per execution attempt; see
    /// [`FaultPlan::crashed`]).
    pub crash: f64,
}

impl FaultRates {
    /// True when every rate is zero (no probabilistic injection).
    pub fn is_zero(&self) -> bool {
        self.drop <= 0.0
            && self.duplicate <= 0.0
            && self.unavailable <= 0.0
            && self.straggle <= 0.0
            && self.crash <= 0.0
    }
}

/// One explicitly scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Machine `machine` sleeps `delay_ns` while computing round
    /// `round`.
    Straggle {
        /// Affected round (0-based, the runtime's round counter).
        round: usize,
        /// Straggling machine.
        machine: usize,
        /// Injected delay in nanoseconds.
        delay_ns: u64,
    },
    /// Message `msg_index` emitted by `src` is dropped in exchange
    /// attempt `attempt` of round `round`.
    Drop {
        /// Affected round.
        round: usize,
        /// Exchange attempt (0-based) within the round.
        attempt: u32,
        /// Source machine of the message.
        src: usize,
        /// Index of the message in the source's emission order.
        msg_index: usize,
    },
    /// Like [`FaultSpec::Drop`], but the message is duplicated.
    Duplicate {
        /// Affected round.
        round: usize,
        /// Exchange attempt within the round.
        attempt: u32,
        /// Source machine of the message.
        src: usize,
        /// Index of the message in the source's emission order.
        msg_index: usize,
    },
    /// Machine `machine` is unavailable for exchange attempt `attempt`
    /// of round `round`.
    Unavailable {
        /// Affected round.
        round: usize,
        /// Exchange attempt within the round.
        attempt: u32,
        /// Unavailable machine.
        machine: usize,
    },
    /// From round `from_round` onward the effective per-machine
    /// capacity shrinks to `capacity_words` (never grows; multiple
    /// squeezes take the minimum). Non-retryable. With `machine: Some`
    /// only that machine is squeezed (heterogeneous capacity); `None`
    /// squeezes the whole cluster.
    Squeeze {
        /// First affected round.
        from_round: usize,
        /// New effective capacity in words.
        capacity_words: usize,
        /// Affected machine; `None` = every machine.
        machine: Option<usize>,
    },
    /// Machine `machine` crashes and loses its shard during execution
    /// attempt `attempt` of round `round` (attempt 0 is the initial
    /// execution; attempt `k > 0` is the `k`-th re-execution from the
    /// round checkpoint). Recovered by checkpoint restore, bounded by
    /// [`FaultPlan::max_recoveries`].
    Crash {
        /// Affected round.
        round: usize,
        /// Execution attempt within the round (0 = initial run).
        attempt: u32,
        /// Crashing machine.
        machine: usize,
    },
}

/// What kind of fault an injected [`FaultEvent`] was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A machine slept during round compute.
    Straggle,
    /// A message was dropped in transit.
    Drop,
    /// A message was duplicated in transit.
    Duplicate,
    /// A machine was unavailable for an exchange attempt.
    Unavailable,
    /// The runtime backed off before retrying an exchange.
    Backoff,
    /// A capacity squeeze was in force for a round.
    Squeeze,
    /// A machine crashed and lost its shard during round compute.
    Crash,
    /// A crashed machine's shard was restored from the round checkpoint
    /// and re-executed (a consequence of a crash, not a cause).
    Recover,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Straggle => "straggle",
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Unavailable => "unavailable",
            FaultKind::Backoff => "backoff",
            FaultKind::Squeeze => "squeeze",
            FaultKind::Crash => "crash",
            FaultKind::Recover => "recover",
        };
        f.write_str(s)
    }
}

/// One fault the runtime actually injected, recorded in deterministic
/// order (rounds ascending; within a round: squeeze, straggles by
/// machine, then per attempt: unavailability by machine, message faults
/// by `(src, msg_index)`, backoff last).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Round the fault fired in.
    pub round: usize,
    /// Exchange attempt within the round (0 for straggle/squeeze).
    pub attempt: u32,
    /// What happened.
    pub kind: FaultKind,
    /// Affected machine (source machine for message faults).
    pub machine: usize,
    /// Message index for drop/duplicate faults. For squeeze events the
    /// field doubles as the scope marker: `usize::MAX` = cluster-wide,
    /// otherwise the squeezed machine. `usize::MAX` for all other kinds.
    pub msg_index: usize,
    /// Kind-specific value: delay (ns) for straggle/backoff, effective
    /// capacity (words) for squeeze, restored words for recover,
    /// 0 otherwise.
    pub value: u64,
}

/// A seeded, serializable fault schedule.
///
/// Attach to a runtime at construction with
/// [`RuntimeBuilder::fault_plan`](crate::config::RuntimeBuilder::fault_plan).
/// The default plan injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the probabilistic decision stream.
    pub seed: u64,
    /// Exchange retries per round beyond the first attempt; retryable
    /// faults that persist through `max_retries + 1` attempts surface
    /// as [`MpcError::RetriesExhausted`](crate::error::MpcError).
    pub max_retries: u32,
    /// Checkpoint restores a machine may consume per round; a machine
    /// that crashes on the initial execution *and* on `max_recoveries`
    /// re-executions surfaces as
    /// [`MpcError::RecoveryExhausted`](crate::error::MpcError).
    pub max_recoveries: u32,
    /// Base simulated backoff before retry `k` (recorded as
    /// `backoff_ns << k`, capped at 20 doublings; the simulation records
    /// rather than sleeps it).
    pub backoff_ns: u64,
    /// Probabilistic fault rates.
    pub rates: FaultRates,
    /// Explicitly scheduled faults.
    pub scheduled: Vec<FaultSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            max_retries: 3,
            max_recoveries: 3,
            backoff_ns: 1_000_000,
            rates: FaultRates::default(),
            scheduled: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan with the given decision seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Builder: sets the probabilistic rates.
    pub fn with_rates(mut self, rates: FaultRates) -> Self {
        self.rates = rates;
        self
    }

    /// Builder: sets the per-round exchange retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Builder: sets the per-round, per-machine checkpoint-restore
    /// budget for crash recovery.
    pub fn with_max_recoveries(mut self, max_recoveries: u32) -> Self {
        self.max_recoveries = max_recoveries;
        self
    }

    /// Builder: appends a scheduled fault.
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.scheduled.push(spec);
        self
    }

    /// True when the plan can never inject anything.
    pub fn is_empty(&self) -> bool {
        self.rates.is_zero() && self.scheduled.is_empty()
    }

    /// True when the plan can crash a machine (rate-sampled or
    /// scheduled) — the condition under which
    /// [`CheckpointPolicy::Auto`](crate::config::CheckpointPolicy)
    /// snapshots round inputs.
    pub fn can_crash(&self) -> bool {
        self.rates.crash > 0.0
            || self
                .scheduled
                .iter()
                .any(|s| matches!(s, FaultSpec::Crash { .. }))
    }

    /// Derives the plan for pipeline-level retry attempt `attempt`:
    /// attempt 0 is the plan verbatim; later attempts re-seed the
    /// probabilistic stream (scheduled faults are kept, so purely
    /// scheduled plans fail deterministically on every attempt).
    pub fn for_attempt(&self, attempt: u32) -> FaultPlan {
        let mut plan = self.clone();
        if attempt > 0 {
            plan.seed = mix_seed(self.seed, 0xA77E_0000 | attempt as u64);
        }
        plan
    }

    /// Builds an explicit (rate-free) plan that replays exactly the
    /// faults in `events` — the starting point for shrinking a failing
    /// seeded run down to a minimal reproducing schedule.
    pub fn from_events(events: &[FaultEvent], max_retries: u32, backoff_ns: u64) -> FaultPlan {
        let mut scheduled = Vec::new();
        for e in events {
            let spec = match e.kind {
                FaultKind::Straggle => FaultSpec::Straggle {
                    round: e.round,
                    machine: e.machine,
                    delay_ns: e.value,
                },
                FaultKind::Drop => FaultSpec::Drop {
                    round: e.round,
                    attempt: e.attempt,
                    src: e.machine,
                    msg_index: e.msg_index,
                },
                FaultKind::Duplicate => FaultSpec::Duplicate {
                    round: e.round,
                    attempt: e.attempt,
                    src: e.machine,
                    msg_index: e.msg_index,
                },
                FaultKind::Unavailable => FaultSpec::Unavailable {
                    round: e.round,
                    attempt: e.attempt,
                    machine: e.machine,
                },
                FaultKind::Squeeze => FaultSpec::Squeeze {
                    from_round: e.round,
                    capacity_words: e.value as usize,
                    // msg_index doubles as the scope marker: MAX =
                    // cluster-wide, otherwise the squeezed machine.
                    machine: (e.msg_index != usize::MAX).then_some(e.machine),
                },
                FaultKind::Crash => FaultSpec::Crash {
                    round: e.round,
                    attempt: e.attempt,
                    machine: e.machine,
                },
                // Backoffs and recoveries are consequences, not causes.
                FaultKind::Backoff | FaultKind::Recover => continue,
            };
            if !scheduled.contains(&spec) {
                scheduled.push(spec);
            }
        }
        FaultPlan {
            seed: 0,
            max_retries,
            backoff_ns,
            rates: FaultRates::default(),
            scheduled,
            ..FaultPlan::default()
        }
    }

    // ---- decision points (pure functions of the plan) ----

    /// One draw from the decision stream; uniform in `[0, 1)`.
    fn draw(&self, tag: u64, round: usize, attempt: u32, a: u64, b: u64) -> f64 {
        let h = mix_seed(
            mix_seed(
                mix_seed(self.seed, tag),
                mix_seed(round as u64, attempt as u64),
            ),
            mix_seed(a, b),
        );
        // 53 high bits -> uniform double in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn rate_hit(&self, p: f64, tag: u64, round: usize, attempt: u32, a: u64, b: u64) -> bool {
        if p <= 0.0 {
            return false;
        }
        p >= 1.0 || self.draw(tag, round, attempt, a, b) < p
    }

    /// Delay machine `machine` should sleep while computing `round`, in
    /// nanoseconds (0 = no straggle).
    pub fn straggle_ns(&self, round: usize, machine: usize) -> u64 {
        let mut delay = 0u64;
        for s in &self.scheduled {
            if let FaultSpec::Straggle {
                round: r,
                machine: m,
                delay_ns,
            } = s
            {
                if *r == round && *m == machine {
                    delay = delay.max(*delay_ns);
                }
            }
        }
        if self.rate_hit(
            self.rates.straggle,
            TAG_STRAGGLE,
            round,
            0,
            machine as u64,
            0,
        ) {
            delay = delay.max(self.rates.straggle_ns);
        }
        delay
    }

    /// Whether `machine` is unavailable for exchange attempt `attempt`
    /// of `round`.
    pub fn unavailable(&self, round: usize, attempt: u32, machine: usize) -> bool {
        self.scheduled.iter().any(|s| {
            matches!(s, FaultSpec::Unavailable { round: r, attempt: a, machine: m }
                     if *r == round && *a == attempt && *m == machine)
        }) || self.rate_hit(
            self.rates.unavailable,
            TAG_UNAVAILABLE,
            round,
            attempt,
            machine as u64,
            0,
        )
    }

    /// Fault, if any, hitting message `msg_index` from `src` in
    /// exchange attempt `attempt` of `round`. Drop shadows duplicate.
    pub fn msg_fault(
        &self,
        round: usize,
        attempt: u32,
        src: usize,
        msg_index: usize,
    ) -> Option<FaultKind> {
        for s in &self.scheduled {
            match s {
                FaultSpec::Drop {
                    round: r,
                    attempt: a,
                    src: sm,
                    msg_index: i,
                } if *r == round && *a == attempt && *sm == src && *i == msg_index => {
                    return Some(FaultKind::Drop)
                }
                FaultSpec::Duplicate {
                    round: r,
                    attempt: a,
                    src: sm,
                    msg_index: i,
                } if *r == round && *a == attempt && *sm == src && *i == msg_index => {
                    return Some(FaultKind::Duplicate)
                }
                _ => {}
            }
        }
        if self.rate_hit(
            self.rates.drop,
            TAG_DROP,
            round,
            attempt,
            src as u64,
            msg_index as u64,
        ) {
            return Some(FaultKind::Drop);
        }
        if self.rate_hit(
            self.rates.duplicate,
            TAG_DUP,
            round,
            attempt,
            src as u64,
            msg_index as u64,
        ) {
            return Some(FaultKind::Duplicate);
        }
        None
    }

    /// Cluster-wide capacity cap in force at `round`, if any
    /// machine-unscoped squeeze applies (the minimum over applicable
    /// squeezes). Machine-scoped squeezes are consulted through
    /// [`FaultPlan::squeeze_for`].
    pub fn squeeze_at(&self, round: usize) -> Option<usize> {
        self.scheduled
            .iter()
            .filter_map(|s| match s {
                FaultSpec::Squeeze {
                    from_round,
                    capacity_words,
                    machine: None,
                } if *from_round <= round => Some(*capacity_words),
                _ => None,
            })
            .min()
    }

    /// Capacity cap in force for `machine` at `round`, combining
    /// cluster-wide and machine-scoped squeezes (the minimum over all
    /// applicable squeezes).
    pub fn squeeze_for(&self, round: usize, machine: usize) -> Option<usize> {
        self.scheduled
            .iter()
            .filter_map(|s| match s {
                FaultSpec::Squeeze {
                    from_round,
                    capacity_words,
                    machine: m,
                } if *from_round <= round && m.is_none_or(|m| m == machine) => {
                    Some(*capacity_words)
                }
                _ => None,
            })
            .min()
    }

    /// Whether `machine` crashes (loses its shard) during execution
    /// attempt `attempt` of `round`. Attempt 0 is the initial execution;
    /// attempt `k > 0` is the `k`-th re-execution from the checkpoint.
    pub fn crashed(&self, round: usize, attempt: u32, machine: usize) -> bool {
        self.scheduled.iter().any(|s| {
            matches!(s, FaultSpec::Crash { round: r, attempt: a, machine: m }
                     if *r == round && *a == attempt && *m == machine)
        }) || self.rate_hit(
            self.rates.crash,
            TAG_CRASH,
            round,
            attempt,
            machine as u64,
            0,
        )
    }

    /// Simulated backoff before retry attempt `next_attempt`
    /// (exponential, capped at 20 doublings).
    pub fn backoff_for(&self, next_attempt: u32) -> u64 {
        self.backoff_ns
            .saturating_mul(1u64 << next_attempt.saturating_sub(1).min(20))
    }

    // ---- JSON codec ----

    /// Serializes the plan as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + 96 * self.scheduled.len());
        let _ = write!(
            out,
            "{{\n  \"seed\": {},\n  \"max_retries\": {},\n  \"max_recoveries\": {},\n  \"backoff_ns\": {},\n  \"rates\": {{\"drop\": {}, \"duplicate\": {}, \"unavailable\": {}, \"straggle\": {}, \"straggle_ns\": {}, \"crash\": {}}},\n  \"scheduled\": [",
            self.seed,
            self.max_retries,
            self.max_recoveries,
            self.backoff_ns,
            json::float(self.rates.drop),
            json::float(self.rates.duplicate),
            json::float(self.rates.unavailable),
            json::float(self.rates.straggle),
            self.rates.straggle_ns,
            json::float(self.rates.crash),
        );
        for (i, s) in self.scheduled.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            match s {
                FaultSpec::Straggle {
                    round,
                    machine,
                    delay_ns,
                } => {
                    let _ = write!(
                        out,
                        "{{\"kind\": \"straggle\", \"round\": {round}, \"machine\": {machine}, \"delay_ns\": {delay_ns}}}"
                    );
                }
                FaultSpec::Drop {
                    round,
                    attempt,
                    src,
                    msg_index,
                } => {
                    let _ = write!(
                        out,
                        "{{\"kind\": \"drop\", \"round\": {round}, \"attempt\": {attempt}, \"src\": {src}, \"msg_index\": {msg_index}}}"
                    );
                }
                FaultSpec::Duplicate {
                    round,
                    attempt,
                    src,
                    msg_index,
                } => {
                    let _ = write!(
                        out,
                        "{{\"kind\": \"duplicate\", \"round\": {round}, \"attempt\": {attempt}, \"src\": {src}, \"msg_index\": {msg_index}}}"
                    );
                }
                FaultSpec::Unavailable {
                    round,
                    attempt,
                    machine,
                } => {
                    let _ = write!(
                        out,
                        "{{\"kind\": \"unavailable\", \"round\": {round}, \"attempt\": {attempt}, \"machine\": {machine}}}"
                    );
                }
                FaultSpec::Squeeze {
                    from_round,
                    capacity_words,
                    machine,
                } => {
                    let _ = write!(
                        out,
                        "{{\"kind\": \"squeeze\", \"from_round\": {from_round}, \"capacity_words\": {capacity_words}"
                    );
                    if let Some(m) = machine {
                        let _ = write!(out, ", \"machine\": {m}");
                    }
                    out.push('}');
                }
                FaultSpec::Crash {
                    round,
                    attempt,
                    machine,
                } => {
                    let _ = write!(
                        out,
                        "{{\"kind\": \"crash\", \"round\": {round}, \"attempt\": {attempt}, \"machine\": {machine}}}"
                    );
                }
            }
        }
        out.push_str(if self.scheduled.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        out
    }

    /// Parses a plan from the JSON [`Self::to_json`] emits. Unknown
    /// keys are ignored; missing keys take their defaults. Integer
    /// fields must be integers that fit their type: an out-of-range
    /// value is an error naming its key, never a truncation.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let value = json::parse(text)?;
        let obj = value.as_obj().ok_or("fault plan must be a JSON object")?;
        let mut plan = FaultPlan::new(0);
        for (k, v) in obj {
            match k.as_str() {
                "seed" => plan.seed = uint(k, v)?,
                "max_retries" => plan.max_retries = uint(k, v)?,
                "max_recoveries" => plan.max_recoveries = uint(k, v)?,
                "backoff_ns" => plan.backoff_ns = uint(k, v)?,
                "rates" => {
                    let r = v.as_obj().ok_or("rates must be an object")?;
                    for (rk, rv) in r {
                        let rate = || rv.as_f64().ok_or("rate must be a number");
                        match rk.as_str() {
                            "drop" => plan.rates.drop = rate()?,
                            "duplicate" => plan.rates.duplicate = rate()?,
                            "unavailable" => plan.rates.unavailable = rate()?,
                            "straggle" => plan.rates.straggle = rate()?,
                            "straggle_ns" => plan.rates.straggle_ns = uint(rk, rv)?,
                            "crash" => plan.rates.crash = rate()?,
                            _ => {}
                        }
                    }
                }
                "scheduled" => {
                    let arr = v.as_arr().ok_or("scheduled must be an array")?;
                    for item in arr {
                        plan.scheduled.push(parse_spec(item)?);
                    }
                }
                _ => {}
            }
        }
        Ok(plan)
    }
}

/// Reads `v` as an unsigned integer of type `T`; the error names `key`.
fn uint<T: TryFrom<u64>>(key: &str, v: &json::Value) -> Result<T, String> {
    let n = v
        .as_u64()
        .ok_or_else(|| format!("{key} must be a non-negative integer"))?;
    T::try_from(n).map_err(|_| format!("{key} = {n} is out of range"))
}

fn parse_spec(v: &json::Value) -> Result<FaultSpec, String> {
    if v.as_obj().is_none() {
        return Err("scheduled fault must be an object".into());
    }
    let kind = v
        .get("kind")
        .and_then(json::Value::as_str)
        .ok_or("scheduled fault missing kind")?;
    fn field<T: TryFrom<u64>>(v: &json::Value, kind: &str, key: &str) -> Result<T, String> {
        let value = v
            .get(key)
            .ok_or_else(|| format!("{kind} fault missing {key}"))?;
        uint(key, value)
    }
    let index = |key| field::<usize>(v, kind, key);
    let attempt = || field::<u32>(v, kind, "attempt");
    Ok(match kind {
        "straggle" => FaultSpec::Straggle {
            round: index("round")?,
            machine: index("machine")?,
            delay_ns: field(v, kind, "delay_ns")?,
        },
        "drop" => FaultSpec::Drop {
            round: index("round")?,
            attempt: attempt()?,
            src: index("src")?,
            msg_index: index("msg_index")?,
        },
        "duplicate" => FaultSpec::Duplicate {
            round: index("round")?,
            attempt: attempt()?,
            src: index("src")?,
            msg_index: index("msg_index")?,
        },
        "unavailable" => FaultSpec::Unavailable {
            round: index("round")?,
            attempt: attempt()?,
            machine: index("machine")?,
        },
        "squeeze" => FaultSpec::Squeeze {
            from_round: index("from_round")?,
            capacity_words: index("capacity_words")?,
            // Optional for backward compatibility with plans emitted
            // before machine-scoped squeezes existed.
            machine: v.get("machine").map(|m| uint("machine", m)).transpose()?,
        },
        "crash" => FaultSpec::Crash {
            round: index("round")?,
            attempt: attempt()?,
            machine: index("machine")?,
        },
        other => return Err(format!("unknown fault kind {other:?}")),
    })
}

/// Greedily minimizes an explicit plan while `still_fails` keeps
/// returning true: repeatedly tries dropping each scheduled fault (and
/// zeroing each probabilistic rate), keeping any removal that preserves
/// the failure, until a fixpoint. The result is 1-minimal: removing any
/// single remaining element makes the failure disappear.
pub fn shrink_plan(plan: &FaultPlan, still_fails: impl Fn(&FaultPlan) -> bool) -> FaultPlan {
    let mut current = plan.clone();
    // Rates first: a failure that reproduces from the scheduled list
    // alone is far easier to read.
    if !current.rates.is_zero() {
        let mut zeroed = current.clone();
        zeroed.rates = FaultRates::default();
        if still_fails(&zeroed) {
            current = zeroed;
        }
    }
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < current.scheduled.len() {
            let mut candidate = current.clone();
            candidate.scheduled.remove(i);
            if still_fails(&candidate) {
                current = candidate;
                removed_any = true;
            } else {
                i += 1;
            }
        }
        if !removed_any {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let p = FaultPlan::new(7);
        assert!(p.is_empty());
        for round in 0..20 {
            for machine in 0..8 {
                assert_eq!(p.straggle_ns(round, machine), 0);
                assert!(!p.unavailable(round, 0, machine));
                assert_eq!(p.msg_fault(round, 0, machine, 0), None);
            }
            assert_eq!(p.squeeze_at(round), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_functions_of_inputs() {
        let p = FaultPlan::new(42).with_rates(FaultRates {
            drop: 0.5,
            duplicate: 0.3,
            unavailable: 0.2,
            straggle: 0.4,
            straggle_ns: 1_000,
            crash: 0.3,
        });
        for round in 0..10 {
            for attempt in 0..3 {
                for src in 0..6 {
                    for idx in 0..6 {
                        assert_eq!(
                            p.msg_fault(round, attempt, src, idx),
                            p.msg_fault(round, attempt, src, idx)
                        );
                    }
                    assert_eq!(
                        p.unavailable(round, attempt, src),
                        p.unavailable(round, attempt, src)
                    );
                    assert_eq!(
                        p.crashed(round, attempt, src),
                        p.crashed(round, attempt, src)
                    );
                }
            }
        }
    }

    #[test]
    fn rates_hit_at_roughly_their_probability() {
        let p = FaultPlan::new(3).with_rates(FaultRates {
            drop: 0.25,
            ..FaultRates::default()
        });
        let n = 4000;
        let hits = (0..n)
            .filter(|&i| p.msg_fault(0, 0, 0, i).is_some())
            .count();
        let rate = hits as f64 / n as f64;
        assert!((0.2..0.3).contains(&rate), "empirical rate {rate}");
    }

    #[test]
    fn extreme_rates_are_exact() {
        let always = FaultPlan::new(1).with_rates(FaultRates {
            drop: 1.0,
            ..FaultRates::default()
        });
        let never = FaultPlan::new(1);
        for i in 0..100 {
            assert_eq!(always.msg_fault(0, 0, 0, i), Some(FaultKind::Drop));
            assert_eq!(never.msg_fault(0, 0, 0, i), None);
        }
    }

    #[test]
    fn retries_decorrelate_attempts() {
        let p = FaultPlan::new(11).with_rates(FaultRates {
            drop: 0.5,
            ..FaultRates::default()
        });
        // Some message faulted at attempt 0 must be clean at a later
        // attempt (the whole point of retrying).
        let recovered =
            (0..64).any(|i| p.msg_fault(0, 0, 0, i).is_some() && p.msg_fault(0, 1, 0, i).is_none());
        assert!(recovered);
    }

    #[test]
    fn scheduled_faults_fire_exactly_where_scheduled() {
        let p = FaultPlan::new(0)
            .with_fault(FaultSpec::Drop {
                round: 2,
                attempt: 0,
                src: 1,
                msg_index: 3,
            })
            .with_fault(FaultSpec::Unavailable {
                round: 1,
                attempt: 1,
                machine: 0,
            })
            .with_fault(FaultSpec::Straggle {
                round: 0,
                machine: 2,
                delay_ns: 500,
            });
        assert_eq!(p.msg_fault(2, 0, 1, 3), Some(FaultKind::Drop));
        assert_eq!(p.msg_fault(2, 1, 1, 3), None, "retry attempt is clean");
        assert_eq!(p.msg_fault(2, 0, 1, 2), None);
        assert!(p.unavailable(1, 1, 0));
        assert!(!p.unavailable(1, 0, 0));
        assert_eq!(p.straggle_ns(0, 2), 500);
        assert_eq!(p.straggle_ns(0, 1), 0);
    }

    #[test]
    fn squeeze_takes_effect_from_round_and_minimizes() {
        let p = FaultPlan::new(0)
            .with_fault(FaultSpec::Squeeze {
                from_round: 3,
                capacity_words: 100,
                machine: None,
            })
            .with_fault(FaultSpec::Squeeze {
                from_round: 5,
                capacity_words: 40,
                machine: None,
            });
        assert_eq!(p.squeeze_at(2), None);
        assert_eq!(p.squeeze_at(3), Some(100));
        assert_eq!(p.squeeze_at(5), Some(40));
        assert_eq!(p.squeeze_at(100), Some(40));
    }

    #[test]
    fn machine_scoped_squeeze_hits_only_its_machine() {
        let p = FaultPlan::new(0)
            .with_fault(FaultSpec::Squeeze {
                from_round: 1,
                capacity_words: 50,
                machine: Some(2),
            })
            .with_fault(FaultSpec::Squeeze {
                from_round: 4,
                capacity_words: 80,
                machine: None,
            });
        // Machine-scoped squeezes are invisible to the cluster-wide view.
        assert_eq!(p.squeeze_at(1), None);
        assert_eq!(p.squeeze_at(4), Some(80));
        // Per-machine view combines both scopes.
        assert_eq!(p.squeeze_for(0, 2), None);
        assert_eq!(p.squeeze_for(1, 2), Some(50));
        assert_eq!(p.squeeze_for(1, 0), None);
        assert_eq!(p.squeeze_for(4, 0), Some(80));
        assert_eq!(p.squeeze_for(4, 2), Some(50));
    }

    #[test]
    fn scheduled_crashes_fire_exactly_where_scheduled() {
        let p = FaultPlan::new(0).with_fault(FaultSpec::Crash {
            round: 2,
            attempt: 0,
            machine: 1,
        });
        assert!(p.can_crash());
        assert!(p.crashed(2, 0, 1));
        assert!(!p.crashed(2, 1, 1), "re-execution from checkpoint is clean");
        assert!(!p.crashed(2, 0, 0));
        assert!(!p.crashed(1, 0, 1));
        assert!(!FaultPlan::new(0).can_crash());
        assert!(FaultPlan::new(0)
            .with_rates(FaultRates {
                crash: 0.1,
                ..FaultRates::default()
            })
            .can_crash());
    }

    #[test]
    fn crash_rate_hits_at_roughly_its_probability_and_decorrelates_attempts() {
        let p = FaultPlan::new(13).with_rates(FaultRates {
            crash: 0.25,
            ..FaultRates::default()
        });
        let n = 4000;
        let hits = (0..n).filter(|&m| p.crashed(0, 0, m)).count();
        let rate = hits as f64 / n as f64;
        assert!((0.2..0.3).contains(&rate), "empirical crash rate {rate}");
        // A machine crashed at attempt 0 must be able to survive a
        // re-execution (otherwise recovery could never succeed).
        let recovered = (0..64).any(|m| p.crashed(0, 0, m) && !p.crashed(0, 1, m));
        assert!(recovered);
    }

    #[test]
    fn backoff_is_exponential_and_saturates() {
        let p = FaultPlan {
            backoff_ns: 1000,
            ..FaultPlan::new(0)
        };
        assert_eq!(p.backoff_for(1), 1000);
        assert_eq!(p.backoff_for(2), 2000);
        assert_eq!(p.backoff_for(3), 4000);
        assert!(p.backoff_for(200) >= p.backoff_for(21));
    }

    #[test]
    fn json_round_trips() {
        let plan = FaultPlan {
            seed: u64::MAX - 3,
            max_retries: 5,
            max_recoveries: 2,
            backoff_ns: 123,
            rates: FaultRates {
                drop: 0.125,
                duplicate: 0.0,
                unavailable: 1.0,
                straggle: 0.5,
                straggle_ns: 777,
                crash: 0.0625,
            },
            scheduled: vec![
                FaultSpec::Straggle {
                    round: 1,
                    machine: 2,
                    delay_ns: 10,
                },
                FaultSpec::Drop {
                    round: 0,
                    attempt: 0,
                    src: 3,
                    msg_index: 9,
                },
                FaultSpec::Duplicate {
                    round: 2,
                    attempt: 1,
                    src: 0,
                    msg_index: 0,
                },
                FaultSpec::Unavailable {
                    round: 4,
                    attempt: 0,
                    machine: 7,
                },
                FaultSpec::Squeeze {
                    from_round: 3,
                    capacity_words: 64,
                    machine: None,
                },
                FaultSpec::Squeeze {
                    from_round: 2,
                    capacity_words: 48,
                    machine: Some(5),
                },
                FaultSpec::Crash {
                    round: 1,
                    attempt: 1,
                    machine: 3,
                },
            ],
        };
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn machine_less_squeeze_json_still_parses() {
        // Plans serialized before machine-scoped squeezes existed carry
        // no "machine" key; they must keep parsing as cluster-wide.
        let text = r#"{"scheduled": [{"kind": "squeeze", "from_round": 2, "capacity_words": 32}]}"#;
        let plan = FaultPlan::from_json(text).unwrap();
        assert_eq!(
            plan.scheduled,
            vec![FaultSpec::Squeeze {
                from_round: 2,
                capacity_words: 32,
                machine: None,
            }]
        );
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = FaultPlan::new(9);
        assert_eq!(plan, FaultPlan::from_json(&plan.to_json()).unwrap());
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(FaultPlan::from_json("").is_err());
        assert!(FaultPlan::from_json("[]").is_err());
        assert!(FaultPlan::from_json("{\"seed\": }").is_err());
        assert!(
            FaultPlan::from_json("{\"scheduled\": [{\"kind\": \"warp\", \"round\": 0}]}").is_err()
        );
        assert!(FaultPlan::from_json("{\"scheduled\": [{\"kind\": \"drop\"}]}").is_err());
    }

    #[test]
    fn from_json_reads_integers_exactly_and_rejects_out_of_range() {
        let mut plan = FaultPlan::new(1);
        plan.rates.straggle_ns = u64::MAX - 3;
        assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
        let err = FaultPlan::from_json(r#"{"max_retries": 4294967296}"#).unwrap_err();
        assert!(err.contains("max_retries"), "{err}");
        let err = FaultPlan::from_json(
            r#"{"scheduled": [{"kind": "drop", "round": 0, "attempt": 4294967297, "src": 0, "msg_index": 0}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("attempt"), "{err}");
    }

    #[test]
    fn from_events_reconstructs_specs_and_skips_backoffs() {
        let events = [
            FaultEvent {
                round: 1,
                attempt: 0,
                kind: FaultKind::Drop,
                machine: 2,
                msg_index: 5,
                value: 0,
            },
            FaultEvent {
                round: 1,
                attempt: 0,
                kind: FaultKind::Backoff,
                machine: 0,
                msg_index: usize::MAX,
                value: 1000,
            },
            FaultEvent {
                round: 2,
                attempt: 0,
                kind: FaultKind::Squeeze,
                machine: 0,
                msg_index: usize::MAX,
                value: 99,
            },
            FaultEvent {
                round: 2,
                attempt: 0,
                kind: FaultKind::Squeeze,
                machine: 0,
                msg_index: usize::MAX,
                value: 99,
            },
            FaultEvent {
                round: 3,
                attempt: 0,
                kind: FaultKind::Squeeze,
                machine: 4,
                msg_index: 4,
                value: 17,
            },
            FaultEvent {
                round: 4,
                attempt: 0,
                kind: FaultKind::Crash,
                machine: 1,
                msg_index: usize::MAX,
                value: 0,
            },
            FaultEvent {
                round: 4,
                attempt: 1,
                kind: FaultKind::Recover,
                machine: 1,
                msg_index: usize::MAX,
                value: 64,
            },
        ];
        let plan = FaultPlan::from_events(&events, 2, 10);
        assert_eq!(
            plan.scheduled,
            vec![
                FaultSpec::Drop {
                    round: 1,
                    attempt: 0,
                    src: 2,
                    msg_index: 5
                },
                FaultSpec::Squeeze {
                    from_round: 2,
                    capacity_words: 99,
                    machine: None,
                },
                FaultSpec::Squeeze {
                    from_round: 3,
                    capacity_words: 17,
                    machine: Some(4),
                },
                FaultSpec::Crash {
                    round: 4,
                    attempt: 0,
                    machine: 1,
                },
            ]
        );
        assert!(plan.rates.is_zero());
    }

    #[test]
    fn shrink_finds_the_single_culprit() {
        // Failure reproduces iff the plan contains the round-3 drop.
        let culprit = FaultSpec::Drop {
            round: 3,
            attempt: 0,
            src: 1,
            msg_index: 0,
        };
        let mut plan = FaultPlan::new(5).with_rates(FaultRates {
            straggle: 0.2,
            straggle_ns: 10,
            ..FaultRates::default()
        });
        for r in 0..6 {
            plan.scheduled.push(FaultSpec::Straggle {
                round: r,
                machine: 0,
                delay_ns: 1,
            });
        }
        plan.scheduled.insert(3, culprit);
        let shrunk = shrink_plan(&plan, |p| p.scheduled.contains(&culprit));
        assert_eq!(shrunk.scheduled, vec![culprit]);
        assert!(shrunk.rates.is_zero());
    }

    #[test]
    fn shrink_isolates_a_crash_spec_among_noise() {
        // Failure reproduces iff the plan still schedules the round-2
        // crash on machine 1 — the crash-spec analogue of the drop case.
        let culprit = FaultSpec::Crash {
            round: 2,
            attempt: 0,
            machine: 1,
        };
        let mut plan = FaultPlan::new(9).with_rates(FaultRates {
            crash: 0.05,
            ..FaultRates::default()
        });
        for r in 0..5 {
            plan.scheduled.push(FaultSpec::Crash {
                round: r,
                attempt: 0,
                machine: 0,
            });
            plan.scheduled.push(FaultSpec::Squeeze {
                from_round: r + 10,
                capacity_words: 1 << 12,
                machine: Some(r),
            });
        }
        plan.scheduled.insert(4, culprit);
        let shrunk = shrink_plan(&plan, |p| p.scheduled.contains(&culprit));
        assert_eq!(shrunk.scheduled, vec![culprit]);
        assert!(shrunk.rates.is_zero(), "crash rate must be shrunk away");
    }

    #[test]
    fn for_attempt_zero_is_identity_and_later_reseeds() {
        let plan = FaultPlan::new(77).with_fault(FaultSpec::Unavailable {
            round: 0,
            attempt: 0,
            machine: 1,
        });
        assert_eq!(plan.for_attempt(0), plan);
        let a1 = plan.for_attempt(1);
        assert_ne!(a1.seed, plan.seed);
        assert_eq!(a1.scheduled, plan.scheduled);
        assert_eq!(plan.for_attempt(1), plan.for_attempt(1));
        assert_ne!(plan.for_attempt(1).seed, plan.for_attempt(2).seed);
    }
}
