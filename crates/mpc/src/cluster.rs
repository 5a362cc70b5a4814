//! The simulated cluster: distributed collections and the round
//! primitive.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use crate::config::{CheckpointPolicy, MpcConfig, RuntimeBuilder};
use crate::error::{CapacityPhase, MpcError, MpcResult};
use crate::exec;
use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
use crate::metrics::{Metrics, RoundStats};
use crate::words::{self, Words};

/// Identifier of a machine, `0..num_machines`.
pub type MachineId = usize;

/// A distributed collection: one shard (`Vec<T>`) per machine.
#[derive(Debug, Clone)]
pub struct Dist<T> {
    parts: Vec<Vec<T>>,
}

impl<T> Dist<T> {
    /// An empty collection over `m` machines.
    pub fn empty(m: usize) -> Self {
        Self {
            parts: (0..m).map(|_| Vec::new()).collect(),
        }
    }

    /// Wraps explicit shards.
    pub fn from_parts(parts: Vec<Vec<T>>) -> Self {
        Self { parts }
    }

    /// Number of machines the collection spans.
    pub fn num_machines(&self) -> usize {
        self.parts.len()
    }

    /// Shard of machine `i`.
    pub fn part(&self, i: MachineId) -> &[T] {
        &self.parts[i]
    }

    /// All shards.
    pub fn parts(&self) -> &[Vec<T>] {
        &self.parts
    }

    /// Consumes the collection, yielding its shards.
    pub fn into_parts(self) -> Vec<Vec<T>> {
        self.parts
    }

    /// Total number of records across the cluster.
    pub fn total_len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }
}

impl<T: Words> Dist<T> {
    /// Total resident words across the cluster.
    pub fn total_words(&self) -> usize {
        self.parts.iter().map(|p| words::of_slice(p)).sum()
    }

    /// Largest shard in words.
    pub fn max_part_words(&self) -> usize {
        self.parts
            .iter()
            .map(|p| words::of_slice(p))
            .max()
            .unwrap_or(0)
    }
}

/// Outgoing-message buffer handed to round closures.
pub struct Emitter<U> {
    msgs: Vec<(MachineId, U)>,
    out_words: usize,
}

impl<U: Words> Emitter<U> {
    fn new() -> Self {
        Self {
            msgs: Vec::new(),
            out_words: 0,
        }
    }

    /// Queues `rec` for delivery to machine `to` at the end of the round.
    pub fn send(&mut self, to: MachineId, rec: U) {
        self.out_words += rec.words();
        self.msgs.push((to, rec));
    }

    /// Words queued so far.
    pub fn out_words(&self) -> usize {
        self.out_words
    }
}

/// Fault-injection state attached to a runtime (see [`crate::fault`]).
struct FaultState {
    plan: FaultPlan,
    log: Vec<FaultEvent>,
}

/// The simulated MPC runtime: executes rounds, enforces capacity, and
/// meters everything. Constructed through [`Runtime::builder`].
pub struct Runtime {
    cfg: MpcConfig,
    metrics: Metrics,
    /// Per-machine words pinned by accounted broadcasts (e.g. replicated
    /// grids): charged against capacity and total space in every
    /// subsequent round.
    overlay_words: usize,
    /// Deterministic fault injection; `None` (the default) costs one
    /// never-taken branch per decision point.
    faults: Option<Box<FaultState>>,
    /// Round-input checkpointing policy for crash recovery.
    checkpoint: CheckpointPolicy,
}

impl Runtime {
    /// Starts building a runtime — the one supported construction path.
    ///
    /// ```
    /// use treeemb_mpc::cluster::Runtime;
    /// let rt = Runtime::builder().machines(4).capacity_words(256).build();
    /// assert_eq!(rt.num_machines(), 4);
    /// ```
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// Assembles a runtime from fully resolved parts (the builder's
    /// terminal step).
    pub(crate) fn assemble(
        cfg: MpcConfig,
        plan: Option<FaultPlan>,
        checkpoint: CheckpointPolicy,
    ) -> Self {
        Self {
            cfg,
            metrics: Metrics::new(),
            overlay_words: 0,
            faults: plan.map(|plan| {
                Box::new(FaultState {
                    plan,
                    log: Vec::new(),
                })
            }),
            checkpoint,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MpcConfig {
        &self.cfg
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.cfg.num_machines
    }

    /// Minimum effective per-machine capacity across the cluster at the
    /// current round: the smallest [`Runtime::capacity_of`] over
    /// `0..num_machines` (configured capacity after heterogeneous
    /// overrides, shrunk by any squeeze in force; squeezes naming a
    /// machine outside the cluster do nothing). Capacity-driven sizing
    /// plans against this bound.
    pub fn capacity(&self) -> usize {
        (0..self.cfg.num_machines)
            .map(|i| self.capacity_of(i))
            .min()
            .unwrap_or(self.cfg.capacity_words)
    }

    /// Effective capacity of one machine at the current round (its
    /// configured capacity shrunk by applicable squeezes).
    pub fn capacity_of(&self, machine: MachineId) -> usize {
        let base = self.cfg.capacity_of(machine);
        match &self.faults {
            None => base,
            Some(f) => match f.plan.squeeze_for(self.metrics.rounds(), machine) {
                Some(squeezed) => squeezed.min(base),
                None => base,
            },
        }
    }

    /// Effective capacities of every machine at the current round.
    fn capacities(&self) -> Vec<usize> {
        (0..self.cfg.num_machines)
            .map(|i| self.capacity_of(i))
            .collect()
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| &f.plan)
    }

    /// Every fault injected so far, in deterministic order.
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.faults.as_ref().map_or(&[], |f| &f.log)
    }

    /// Drains the fault log (the plan stays attached).
    pub fn take_fault_log(&mut self) -> Vec<FaultEvent> {
        self.faults
            .as_mut()
            .map_or_else(Vec::new, |f| std::mem::take(&mut f.log))
    }

    /// Records the capacity squeezes an attached fault plan has in force
    /// (once per round index). Called by every entry point that consults
    /// capacities, so the fault log names the squeeze no matter where
    /// the squeezed run fails. Heterogeneous *configured* capacities are
    /// not faults and are never logged here, and neither are squeezes
    /// naming a machine outside the cluster.
    fn note_squeeze(&mut self) {
        let round = self.metrics.rounds();
        let Some(f) = self.faults.as_ref() else {
            return;
        };
        if f.log
            .iter()
            .any(|e| e.kind == FaultKind::Squeeze && e.round == round)
        {
            return;
        }
        // `(machine, msg_index, capacity)`; the cluster-wide squeeze
        // comes first with `msg_index == usize::MAX`.
        let mut events: Vec<(MachineId, usize, usize)> = Vec::new();
        if let Some(sq) = f.plan.squeeze_at(round) {
            let cap = sq.min(self.cfg.capacity_words);
            if cap < self.cfg.capacity_words {
                events.push((0, usize::MAX, cap));
            }
        }
        // Machine-scoped squeezes, one event per distinct machine (the
        // `msg_index == machine` marker lets `FaultPlan::from_events`
        // rebuild the scope).
        let mut scoped: BTreeMap<MachineId, usize> = BTreeMap::new();
        for spec in &f.plan.scheduled {
            if let FaultSpec::Squeeze {
                from_round,
                capacity_words,
                machine: Some(m),
            } = *spec
            {
                if from_round <= round && m < self.cfg.num_machines {
                    let cap = scoped.entry(m).or_insert(capacity_words);
                    *cap = (*cap).min(capacity_words);
                }
            }
        }
        events.extend(scoped.into_iter().map(|(m, cap)| (m, m, cap)));
        for (machine, msg_index, cap) in events {
            self.log_fault(FaultKind::Squeeze, 0, machine, msg_index, cap as u64);
        }
    }

    /// Appends an injected fault, stamped with the current round, to the
    /// log and the active trace.
    fn log_fault(
        &mut self,
        kind: FaultKind,
        attempt: u32,
        machine: MachineId,
        msg_index: usize,
        value: u64,
    ) {
        let ev = FaultEvent {
            round: self.metrics.rounds(),
            attempt,
            kind,
            machine,
            msg_index,
            value,
        };
        if treeemb_obs::enabled() {
            let name = match kind {
                FaultKind::Straggle => "fault.straggle",
                FaultKind::Drop => "fault.drop",
                FaultKind::Duplicate => "fault.duplicate",
                FaultKind::Unavailable => "fault.unavailable",
                FaultKind::Backoff => "fault.backoff",
                FaultKind::Squeeze => "fault.squeeze",
                FaultKind::Crash => "fault.crash",
                FaultKind::Recover => "recover.ok",
            };
            treeemb_obs::mark(
                name,
                &[
                    ("round", ev.round as u64),
                    ("attempt", attempt as u64),
                    ("machine", machine as u64),
                    (
                        "msg_index",
                        if msg_index == usize::MAX {
                            0
                        } else {
                            msg_index as u64
                        },
                    ),
                    ("value", value),
                ],
            );
        }
        if let Some(f) = &mut self.faults {
            f.log.push(ev);
        }
    }

    /// The typed error for `words` exceeding `capacity` on `machine` in
    /// the current round.
    fn capacity_error(
        &self,
        machine: MachineId,
        phase: CapacityPhase,
        words: usize,
        capacity: usize,
        label: &str,
    ) -> MpcError {
        MpcError::CapacityExceeded {
            machine,
            round: self.metrics.rounds(),
            phase,
            words,
            capacity,
            label: label.into(),
        }
    }

    /// Checks `words` against `capacity`: strict mode fails with
    /// [`MpcError::CapacityExceeded`], lenient mode returns the number
    /// of violations to meter (0 or 1).
    fn check(
        &self,
        machine: MachineId,
        phase: CapacityPhase,
        words: usize,
        capacity: usize,
        label: &str,
    ) -> MpcResult<usize> {
        if words <= capacity {
            Ok(0)
        } else if self.cfg.strict {
            Err(self.capacity_error(machine, phase, words, capacity, label))
        } else {
            Ok(1)
        }
    }

    /// Loads host data onto the cluster, filling machines greedily in
    /// word units. Mirrors the MPC convention that the input arrives
    /// pre-distributed; it does not count as a round.
    ///
    /// Fails if a single record exceeds every machine's capacity or the
    /// cluster's remaining space cannot hold the input.
    pub fn distribute<T: Words + Send>(&mut self, items: Vec<T>) -> MpcResult<Dist<T>> {
        let mut sp = treeemb_obs::span!("mpc.distribute", "items" = items.len());
        self.note_squeeze();
        let caps = self.capacities();
        let max_cap = caps.iter().copied().max().unwrap_or(0);
        let m = self.num_machines();
        let mut parts: Vec<Vec<T>> = (0..m).map(|_| Vec::new()).collect();
        let mut machine = 0usize;
        let mut used = 0usize;
        for item in items {
            let w = item.words();
            if w > max_cap {
                let label = "distribute";
                return Err(self.capacity_error(machine, CapacityPhase::Input, w, max_cap, label));
            }
            // Greedy fill; a record that does not fit the current
            // machine moves to the next (skipping machines it exceeds
            // outright, which only happens on heterogeneous clusters).
            while machine < m && used + w > caps[machine] {
                machine += 1;
                used = 0;
            }
            if machine >= m {
                let (last, cap) = (m - 1, caps[m - 1]);
                let label = "distribute (cluster full)";
                return Err(self.capacity_error(last, CapacityPhase::Input, cap + w, cap, label));
            }
            used += w;
            parts[machine].push(item);
        }
        let dist = Dist::from_parts(parts);
        self.metrics.record_total_resident(dist.total_words());
        sp.arg("total_words", dist.total_words() as u64);
        Ok(dist)
    }

    /// Executes one communication round.
    ///
    /// Each machine `i` runs `f(i, local_shard, emitter)` concurrently,
    /// returning the records it *keeps*; records passed to
    /// [`Emitter::send`] are routed to their destinations. A machine's
    /// shard in the output collection is its kept records followed by
    /// received records in source-machine order, each source's in
    /// emission order (deterministic).
    ///
    /// Capacity checks (strict mode), per machine against its effective
    /// capacity: input ≤ s, sent ≤ s, received ≤ s, kept + received ≤ s.
    ///
    /// **Crash recovery.** When the checkpoint policy is active (see
    /// [`CheckpointPolicy`]) the round's input is snapshotted before
    /// execution, word-metered against total space. A machine that
    /// crashes (loses its shard; [`FaultSpec::Crash`] or the plan's
    /// crash rate) is re-executed from the snapshot — determinism makes
    /// the replay bit-identical — up to the plan's `max_recoveries`
    /// budget; each restore is logged as a [`FaultKind::Recover`] event
    /// and counted in [`RoundStats::recoveries`]. A machine that crashes
    /// through the whole budget fails the round with the typed,
    /// retryable [`MpcError::RecoveryExhausted`].
    pub fn round<T, U, F>(&mut self, label: &str, input: Dist<T>, f: F) -> MpcResult<Dist<U>>
    where
        T: Words + Send + Clone,
        U: Words + Send,
        F: Fn(MachineId, Vec<T>, &mut Emitter<U>) -> Vec<U> + Sync,
    {
        let m = self.num_machines();
        assert_eq!(
            input.num_machines(),
            m,
            "collection spans a different cluster"
        );
        let round_idx = self.metrics.rounds();
        let mut violations = 0usize;
        let t_start_ns = treeemb_obs::now_ns();
        let mut sp = treeemb_obs::Span::enter_with(|| format!("mpc.round:{label}"));
        sp.arg("round", round_idx as u64);

        // Fault injection: a small cloned snapshot of the plan lets the
        // borrow of `self` stay free for event recording; the clone only
        // happens when a plan is attached.
        let plan: Option<FaultPlan> = self.faults.as_ref().map(|f| f.plan.clone());
        let log_mark = self.faults.as_ref().map_or(0, |f| f.log.len());
        self.note_squeeze();
        let caps = self.capacities();
        let straggle: Vec<u64> = match &plan {
            Some(p) => (0..m).map(|i| p.straggle_ns(round_idx, i)).collect(),
            None => Vec::new(),
        };
        for (machine, &delay_ns) in straggle.iter().enumerate() {
            if delay_ns > 0 {
                self.log_fault(FaultKind::Straggle, 0, machine, usize::MAX, delay_ns);
            }
        }

        // Input check: the largest overflow, lowest machine on ties.
        let worst_input = (0..m)
            .map(|i| (i, words::of_slice(input.part(i))))
            .filter(|&(i, w)| w > caps[i])
            .min_by_key(|&(i, w)| (Reverse(w), i));
        if let Some((i, w)) = worst_input {
            violations += self.check(i, CapacityPhase::Input, w, caps[i], label)?;
        }

        // With checkpointing active the round input is (conceptually)
        // snapshotted in full and metered against total space; only
        // crashed machines' shards are actually cloned in `execute`.
        let checkpoint_active = match self.checkpoint {
            CheckpointPolicy::Disabled => false,
            CheckpointPolicy::Always => true,
            CheckpointPolicy::Auto => plan.as_ref().is_some_and(|p| p.can_crash()),
        };
        let checkpoint_words = if checkpoint_active {
            input.total_words()
        } else {
            0
        };
        let crashes = match plan.as_ref().filter(|p| p.can_crash()) {
            Some(p) => self.plan(p, label, &input, checkpoint_active)?,
            None => vec![0; m],
        };
        let recoveries: u32 = crashes.iter().sum();

        let outputs = execute(input, &crashes, &straggle, self.cfg.threads, &f);

        let attempts = match plan.as_ref().filter(|p| !p.is_empty()) {
            Some(p) => {
                let msg_counts: Vec<usize> = outputs.iter().map(|(_, em)| em.msgs.len()).collect();
                self.exchange(p, label, &msg_counts)
                    .inspect_err(|_| sp.arg("attempts", p.max_retries.saturating_add(1) as u64))?
            }
            None => 1,
        };

        // Validate sends and destinations (source by source), then
        // receives, then residency, before anything moves.
        let mut sent_total = 0usize;
        let mut max_out = 0usize;
        let mut in_words = vec![0usize; m];
        let mut in_count = vec![0usize; m];
        for (src, (_, em)) in outputs.iter().enumerate() {
            violations += self.check(src, CapacityPhase::Send, em.out_words, caps[src], label)?;
            sent_total += em.out_words;
            max_out = max_out.max(em.out_words);
            for (dest, rec) in &em.msgs {
                if *dest >= m {
                    return Err(MpcError::BadDestination {
                        source: src,
                        dest: *dest,
                        num_machines: m,
                    });
                }
                in_words[*dest] += rec.words();
                in_count[*dest] += 1;
            }
        }
        for (dest, &w) in in_words.iter().enumerate() {
            violations += self.check(dest, CapacityPhase::Receive, w, caps[dest], label)?;
        }
        let max_in = in_words.iter().copied().max().unwrap_or(0);
        let mut max_resident = 0usize;
        for (i, (kept, _)) in outputs.iter().enumerate() {
            let resident = words::of_slice(kept) + in_words[i] + self.overlay_words;
            max_resident = max_resident.max(resident);
            violations += self.check(i, CapacityPhase::Residency, resident, caps[i], label)?;
        }

        // Deliver: each machine's kept records, then every message moved
        // once, in source order, into space reserved for exactly its
        // inbox.
        let (mut parts, emitters): (Vec<Vec<U>>, Vec<Emitter<U>>) = outputs.into_iter().unzip();
        for (part, &n) in parts.iter_mut().zip(&in_count) {
            part.reserve_exact(n);
        }
        for em in emitters {
            for (dest, rec) in em.msgs {
                parts[dest].push(rec);
            }
        }

        sp.arg("sent_words", sent_total as u64);
        sp.arg("max_out_words", max_out as u64);
        sp.arg("max_in_words", max_in as u64);
        sp.arg("max_resident_words", max_resident as u64);
        if recoveries > 0 {
            sp.arg("recoveries", recoveries as u64);
        }
        self.metrics.record_round(RoundStats {
            round: round_idx,
            label: label.into(),
            sent_words: sent_total,
            max_out_words: max_out,
            max_in_words: max_in,
            max_resident_words: max_resident,
            violations,
            t_start_ns,
            t_end_ns: treeemb_obs::now_ns(),
            attempts,
            faults: self.faults.as_ref().map_or(0, |f| f.log.len() - log_mark),
            recoveries,
            checkpoint_words,
        });
        let dist = Dist::from_parts(parts);
        // The checkpoint coexists with the round's live data until the
        // round commits, so it counts against total space.
        self.metrics
            .record_total_resident(dist.total_words() + checkpoint_words + self.overlay_words * m);
        Ok(dist)
    }

    /// Resolves the round's crash schedule up front. Crash decisions are
    /// pure functions of the plan: machine `i` crashes on executions
    /// `0..crashes[i]` and completes on execution `crashes[i]`. Logs each
    /// crash and restore, and fails with [`MpcError::RecoveryExhausted`]
    /// when a machine crashes through the recovery budget, or crashes at
    /// all without a checkpoint to re-execute from.
    fn plan<T: Words>(
        &mut self,
        p: &FaultPlan,
        label: &str,
        input: &Dist<T>,
        checkpoint_active: bool,
    ) -> MpcResult<Vec<u32>> {
        let round = self.metrics.rounds();
        let mut crashes = vec![0u32; input.num_machines()];
        for (machine, crash_count) in crashes.iter_mut().enumerate() {
            let mut k = 0u32;
            while k <= p.max_recoveries && p.crashed(round, k, machine) {
                k += 1;
            }
            if k == 0 {
                continue;
            }
            // Without a checkpoint there is nothing to re-execute from:
            // the first crash is final.
            let crashed_execs = if checkpoint_active { k } else { 1 };
            for attempt in 0..crashed_execs {
                self.log_fault(FaultKind::Crash, attempt, machine, usize::MAX, 0);
            }
            if !checkpoint_active || k > p.max_recoveries {
                if treeemb_obs::enabled() {
                    treeemb_obs::mark(
                        "recover.exhausted",
                        &[
                            ("round", round as u64),
                            ("machine", machine as u64),
                            ("attempts", crashed_execs as u64),
                        ],
                    );
                }
                return Err(MpcError::RecoveryExhausted {
                    round,
                    label: label.into(),
                    machine,
                    attempts: crashed_execs,
                });
            }
            let restored = words::of_slice(input.part(machine)) as u64;
            self.log_fault(FaultKind::Recover, k, machine, usize::MAX, restored);
            *crash_count = k;
        }
        Ok(crashes)
    }

    /// The exchange attempt loop, given each source's message count.
    /// Transient faults (machine unavailability, message
    /// drop/duplication) are detected by the simulated exchange protocol
    /// and the whole exchange retries with simulated backoff,
    /// re-transmitting from the already-computed machine outputs. A clean
    /// attempt therefore delivers exactly the fault-free message sequence
    /// — downstream state is bit-identical — and exhausting the retry
    /// budget surfaces as the typed [`MpcError::RetriesExhausted`], never
    /// as silently corrupted output. Returns the attempts taken.
    fn exchange(&mut self, p: &FaultPlan, label: &str, msg_counts: &[usize]) -> MpcResult<u32> {
        let round = self.metrics.rounds();
        let max_attempts = p.max_retries.saturating_add(1);
        for attempt in 0..max_attempts {
            let mut faulted = false;
            for machine in 0..msg_counts.len() {
                if p.unavailable(round, attempt, machine) {
                    self.log_fault(FaultKind::Unavailable, attempt, machine, usize::MAX, 0);
                    faulted = true;
                }
            }
            if !faulted {
                // All machines up: scan the exchange for message faults,
                // in (source, emission index) order.
                for (src, &count) in msg_counts.iter().enumerate() {
                    for idx in 0..count {
                        if let Some(kind) = p.msg_fault(round, attempt, src, idx) {
                            self.log_fault(kind, attempt, src, idx, 0);
                            faulted = true;
                        }
                    }
                }
            }
            if !faulted {
                return Ok(attempt + 1);
            }
            if attempt + 1 < max_attempts {
                let backoff = p.backoff_for(attempt + 1);
                self.log_fault(FaultKind::Backoff, attempt, 0, usize::MAX, backoff);
            }
        }
        Err(MpcError::RetriesExhausted {
            round,
            label: label.into(),
            attempts: max_attempts,
        })
    }

    /// Machine-local transformation with **no communication**. Does not
    /// advance the round counter: in the MPC model, local computation
    /// fuses into the surrounding communication rounds. Output residency
    /// is still capacity-checked (lenient mode meters violations).
    pub fn map_local<T, U, F>(&mut self, input: Dist<T>, f: F) -> MpcResult<Dist<U>>
    where
        T: Words + Send,
        U: Words + Send,
        F: Fn(MachineId, Vec<T>) -> Vec<U> + Sync,
    {
        let mut sp = treeemb_obs::span!("mpc.map_local", "items" = input.total_len());
        self.note_squeeze();
        let caps = self.capacities();
        let parts = exec::par_map_indexed(input.into_parts(), self.cfg.threads, f);
        let dist = Dist::from_parts(parts);
        sp.arg("out_words", dist.total_words() as u64);
        let mut violations = 0usize;
        for (i, p) in dist.parts().iter().enumerate() {
            let w = words::of_slice(p);
            violations += self.check(i, CapacityPhase::Residency, w, caps[i], "map_local")?;
        }
        self.metrics.record_local_violations(violations);
        self.metrics.record_total_resident(dist.total_words());
        Ok(dist)
    }

    /// Pins `words` of per-machine overlay residency (replicated payloads
    /// such as broadcast grids). Charged in every later round's capacity
    /// check and in the total-space meter.
    pub fn metrics_record_replicated(&mut self, words: usize) {
        self.overlay_words += words;
        self.metrics.bump_peak_machine(self.overlay_words);
        self.metrics
            .record_total_resident(self.overlay_words * self.cfg.num_machines);
    }

    /// Records an *accounted* round: a communication round whose loads
    /// are known analytically, without materializing the data. Used by
    /// collectives that would otherwise replicate identical payloads
    /// across every simulated machine (e.g. grid broadcasts), where
    /// materialization adds memory pressure but no fidelity — the round
    /// count, load metering, and capacity checks are identical. Loads
    /// are checked against the cluster-minimum capacity (conservative on
    /// heterogeneous clusters: the stated loads are per-machine maxima).
    ///
    /// Fails (strict mode) if any stated load exceeds capacity.
    pub fn record_accounted_round(
        &mut self,
        label: &str,
        sent_words: usize,
        max_out_words: usize,
        max_in_words: usize,
        max_resident_words: usize,
    ) -> MpcResult<()> {
        self.note_squeeze();
        let cap = self.capacity();
        let round = self.metrics.rounds();
        let mut violations = 0usize;
        for (phase, words) in [
            (CapacityPhase::Send, max_out_words),
            (CapacityPhase::Receive, max_in_words),
            (CapacityPhase::Residency, max_resident_words),
        ] {
            violations += self.check(0, phase, words, cap, label)?;
        }
        if treeemb_obs::enabled() {
            treeemb_obs::mark(
                format!("mpc.round:{label} (accounted)"),
                &[
                    ("round", round as u64),
                    ("sent_words", sent_words as u64),
                    ("max_out_words", max_out_words as u64),
                    ("max_resident_words", max_resident_words as u64),
                ],
            );
        }
        let now = treeemb_obs::now_ns();
        self.metrics.record_round(RoundStats {
            round,
            label: label.into(),
            sent_words,
            max_out_words,
            max_in_words,
            max_resident_words,
            violations,
            t_start_ns: now,
            t_end_ns: now,
            attempts: 1,
            faults: 0,
            recoveries: 0,
            checkpoint_words: 0,
        });
        Ok(())
    }

    /// Extracts a distributed collection to the host in machine order.
    /// This models reading off the final output and is not an MPC round.
    pub fn gather<T>(&mut self, input: Dist<T>) -> Vec<T> {
        let _sp = treeemb_obs::span!("mpc.gather", "items" = input.total_len());
        let mut out = Vec::with_capacity(input.total_len());
        for part in input.into_parts() {
            out.extend(part);
        }
        out
    }
}

/// Runs `f` on every machine concurrently, after any injected straggle
/// delay. A crashed machine really executes `f` once per lost execution
/// (the work is discarded, modeling lost compute) and once more from its
/// checkpoint snapshot for its surviving output.
fn execute<T, U, F>(
    input: Dist<T>,
    crashes: &[u32],
    straggle: &[u64],
    threads: usize,
    f: &F,
) -> Vec<(Vec<U>, Emitter<U>)>
where
    T: Words + Send + Clone,
    U: Words + Send,
    F: Fn(MachineId, Vec<T>, &mut Emitter<U>) -> Vec<U> + Sync,
{
    let work: Vec<(Vec<T>, Option<Vec<T>>)> = input
        .into_parts()
        .into_iter()
        .zip(crashes)
        .map(|(shard, &k)| {
            let snap = (k > 0).then(|| shard.clone());
            (shard, snap)
        })
        .collect();
    exec::par_map_indexed(work, threads, |i, (shard, snap)| {
        if let Some(&delay_ns) = straggle.get(i) {
            if delay_ns > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(delay_ns));
            }
        }
        let run = |shard: Vec<T>| {
            let mut em = Emitter::new();
            let kept = f(i, shard, &mut em);
            (kept, em)
        };
        let Some(snap) = snap else {
            return run(shard);
        };
        let _ = run(shard);
        for _ in 1..crashes[i] {
            let _ = run(snap.clone());
        }
        run(snap)
    })
}

/// SplitMix64 — the stateless mixer used to derive per-machine and
/// per-index random streams from a shared broadcast seed.
#[inline]
pub fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        .wrapping_add(b)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_rt(cap: usize, machines: usize) -> Runtime {
        Runtime::builder()
            .input_words(64)
            .capacity_words(cap)
            .machines(machines)
            .threads(4)
            .build()
    }

    #[test]
    fn distribute_packs_by_words() {
        let mut rt = small_rt(4, 8);
        let dist = rt.distribute((0..10u64).collect()).unwrap();
        assert_eq!(dist.total_len(), 10);
        for p in dist.parts() {
            assert!(p.len() <= 4);
        }
        // Greedy fill: machine 0 holds records 0..4.
        assert_eq!(dist.part(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn distribute_fails_when_cluster_full() {
        let mut rt = small_rt(4, 2);
        let err = rt.distribute((0..100u64).collect()).unwrap_err();
        assert!(matches!(err, MpcError::CapacityExceeded { .. }));
    }

    #[test]
    fn distribute_respects_heterogeneous_capacities() {
        let mut rt = Runtime::builder()
            .capacity_words(8)
            .machines(3)
            .machine_capacity(0, 2)
            .threads(2)
            .build();
        let dist = rt.distribute((0..12u64).collect()).unwrap();
        assert_eq!(dist.part(0).len(), 2, "machine 0 holds only 2 words");
        assert_eq!(dist.part(1).len(), 8);
        assert_eq!(dist.part(2).len(), 2);
    }

    #[test]
    fn round_routes_messages_deterministically() {
        let mut rt = small_rt(64, 4);
        let dist = rt.distribute((0..16u64).collect()).unwrap();
        // Send every record to machine (value % 4); keep nothing.
        let out = rt
            .round("route", dist, |_, shard, em| {
                for v in shard {
                    em.send((v % 4) as usize, v);
                }
                Vec::new()
            })
            .unwrap();
        for m in 0..4 {
            let vals = out.part(m);
            assert!(vals.iter().all(|v| (*v % 4) as usize == m));
            // Source-order delivery keeps values ascending here.
            let mut sorted = vals.to_vec();
            sorted.sort_unstable();
            assert_eq!(vals, &sorted[..]);
        }
        assert_eq!(rt.metrics().rounds(), 1);
        assert_eq!(rt.metrics().total_sent_words(), 16);
    }

    #[test]
    fn round_delivers_kept_then_messages_in_source_and_emission_order() {
        // Every machine first sends `100 - id` to machine 1; then it keeps
        // multiples of 3 and sends every other record `v` to `v % 4`.
        let parts = vec![vec![9u64, 8, 4, 7], vec![2, 16], vec![6], vec![]];
        for threads in [1, 4] {
            let mut rt = Runtime::builder()
                .capacity_words(64)
                .machines(4)
                .threads(threads)
                .build();
            let out = rt
                .round("order", Dist::from_parts(parts.clone()), |id, shard, em| {
                    em.send(1, 100 - id as u64);
                    let mut kept = Vec::new();
                    for v in shard {
                        if v % 3 == 0 {
                            kept.push(v);
                        } else {
                            em.send((v % 4) as usize, v);
                        }
                    }
                    kept
                })
                .unwrap();
            let want: Vec<Vec<u64>> = vec![
                vec![9, 8, 4, 16],
                vec![100, 99, 98, 97],
                vec![6, 2],
                vec![7],
            ];
            assert_eq!(out.parts(), &want[..], "threads={threads}");
        }
    }

    #[test]
    fn round_keep_retains_local_data() {
        let mut rt = small_rt(64, 2);
        let dist = rt.distribute(vec![1u64, 2, 3]).unwrap();
        let out = rt
            .round("keep", dist, |_, shard, _em: &mut Emitter<u64>| shard)
            .unwrap();
        assert_eq!(out.total_len(), 3);
        assert_eq!(rt.metrics().total_sent_words(), 0);
    }

    #[test]
    fn send_capacity_violation_is_strict_error() {
        let mut rt = small_rt(4, 4);
        let dist = rt.distribute(vec![0u64]).unwrap();
        let err = rt
            .round("flood", dist, |id, shard, em| {
                if id == 0 {
                    for i in 0..100u64 {
                        em.send(1, i);
                    }
                }
                shard
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                MpcError::CapacityExceeded {
                    phase: CapacityPhase::Send,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn receive_overflow_detected() {
        let mut rt = small_rt(8, 4);
        let dist = rt.distribute((0..24u64).collect()).unwrap();
        // All machines flood machine 0: each sends <= 8 (ok) but machine 0
        // receives 24 > 8.
        let err = rt
            .round("hotspot", dist, |_, shard, em| {
                for v in shard {
                    em.send(0, v);
                }
                Vec::new()
            })
            .unwrap_err();
        match err {
            MpcError::CapacityExceeded { machine, phase, .. } => {
                assert_eq!(machine, 0);
                assert!(phase == CapacityPhase::Receive || phase == CapacityPhase::Residency);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn hetero_round_checks_each_machine_against_its_own_capacity() {
        // Machine 1 has a quarter of the default capacity; routing more
        // than that to it must fail even though the cluster default
        // would allow it.
        let mut rt = Runtime::builder()
            .capacity_words(32)
            .machines(2)
            .machine_capacity(1, 4)
            .threads(2)
            .build();
        let dist = rt.distribute((0..8u64).collect()).unwrap();
        let err = rt
            .round("overflow-small", dist, |_, shard, em| {
                for v in shard {
                    em.send(1, v);
                }
                Vec::new()
            })
            .unwrap_err();
        assert!(
            matches!(err, MpcError::CapacityExceeded { machine: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn lenient_mode_meters_instead_of_failing() {
        let mut rt = Runtime::builder()
            .input_words(64)
            .capacity_words(8)
            .machines(4)
            .lenient()
            .build();
        let dist = rt.distribute((0..24u64).collect()).unwrap();
        let out = rt
            .round("hotspot", dist, |_, shard, em| {
                for v in shard {
                    em.send(0, v);
                }
                Vec::new()
            })
            .unwrap();
        assert_eq!(out.part(0).len(), 24);
        assert!(rt.metrics().violations() > 0);
    }

    #[test]
    fn bad_destination_is_an_error_even_lenient() {
        let mut rt = Runtime::builder()
            .input_words(64)
            .capacity_words(8)
            .machines(2)
            .lenient()
            .build();
        let dist = rt.distribute(vec![1u64]).unwrap();
        let err = rt
            .round("oops", dist, |_, shard, em| {
                em.send(99, 1u64);
                shard
            })
            .unwrap_err();
        assert!(matches!(err, MpcError::BadDestination { dest: 99, .. }));
    }

    #[test]
    fn lenient_map_local_meters_violations() {
        let mut rt = Runtime::builder()
            .capacity_words(4)
            .machines(2)
            .lenient()
            .build();
        let dist = rt.distribute(vec![1u64, 2, 3, 4]).unwrap();
        let grown = rt
            .map_local(dist, |_, shard| {
                shard.into_iter().flat_map(|x| [x; 5]).collect::<Vec<u64>>()
            })
            .unwrap();
        assert_eq!(grown.part(0).len(), 20);
        assert_eq!(rt.metrics().violations(), 1);
    }

    #[test]
    fn capacity_sees_only_squeezes_on_existing_machines() {
        // A squeeze naming a machine outside `0..m` does nothing.
        let plan = FaultPlan::new(0).with_fault(FaultSpec::Squeeze {
            from_round: 0,
            capacity_words: 8,
            machine: Some(99),
        });
        let mut rt = Runtime::builder()
            .capacity_words(64)
            .machines(4)
            .fault_plan(plan)
            .build();
        assert_eq!(rt.capacity(), 64);
        assert!((0..4).all(|i| rt.capacity_of(i) == 64));
        rt.record_accounted_round("bcast", 40, 40, 40, 40).unwrap();
        assert!(rt.fault_log().is_empty(), "{:?}", rt.fault_log());

        // An in-range machine-scoped squeeze lowers the cluster minimum
        // from its first round on.
        let plan = FaultPlan::new(0)
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
        let mut rt = Runtime::builder()
            .capacity_words(100)
            .machines(4)
            .fault_plan(plan)
            .build();
        assert_eq!(rt.capacity(), 100);
        rt.record_accounted_round("bcast", 1, 1, 1, 1).unwrap();
        assert_eq!(rt.capacity(), 50);
        assert_eq!(rt.capacity_of(0), 100);
    }

    #[test]
    fn failing_round_error_and_fault_log_follow_check_order() {
        struct Case {
            name: &'static str,
            plan: Option<FaultPlan>,
            input_words: u64,
            flood: Option<(MachineId, u64)>,
            want: fn(&MpcError) -> bool,
            log: &'static [FaultKind],
        }
        let cases = [
            Case {
                name: "straggle is logged before the input check fails",
                plan: Some(FaultPlan::new(0).with_fault(FaultSpec::Straggle {
                    round: 0,
                    machine: 1,
                    delay_ns: 1,
                })),
                input_words: 8,
                flood: None,
                want: |e| {
                    matches!(
                        e,
                        MpcError::CapacityExceeded {
                            machine: 0,
                            phase: CapacityPhase::Input,
                            ..
                        }
                    )
                },
                log: &[FaultKind::Straggle],
            },
            Case {
                name: "exhausted exchange wins over an over-cap sender",
                plan: Some(FaultPlan::new(0).with_max_retries(0).with_fault(
                    FaultSpec::Unavailable {
                        round: 0,
                        attempt: 0,
                        machine: 1,
                    },
                )),
                input_words: 1,
                flood: Some((1, 100)),
                want: |e| matches!(e, MpcError::RetriesExhausted { attempts: 1, .. }),
                log: &[FaultKind::Unavailable],
            },
            Case {
                name: "send cap is checked before the source's destinations",
                plan: None,
                input_words: 1,
                flood: Some((99, 100)),
                want: |e| {
                    matches!(
                        e,
                        MpcError::CapacityExceeded {
                            machine: 0,
                            phase: CapacityPhase::Send,
                            ..
                        }
                    )
                },
                log: &[],
            },
        ];
        for case in cases {
            let mut b = Runtime::builder().capacity_words(4).machines(2);
            if let Some(plan) = case.plan {
                b = b.fault_plan(plan);
            }
            let mut rt = b.build();
            let input = Dist::from_parts(vec![(0..case.input_words).collect(), vec![]]);
            let flood = case.flood;
            let err = rt
                .round("precedence", input, |id, shard, em| {
                    if let (0, Some((dest, n))) = (id, flood) {
                        (0..n).for_each(|i| em.send(dest, i));
                    }
                    shard
                })
                .unwrap_err();
            assert!((case.want)(&err), "{}: got {err}", case.name);
            let kinds: Vec<FaultKind> = rt.fault_log().iter().map(|e| e.kind).collect();
            assert_eq!(kinds, case.log, "{}", case.name);
        }
    }

    #[test]
    fn map_local_does_not_count_rounds() {
        let mut rt = small_rt(64, 2);
        let dist = rt.distribute(vec![1u64, 2, 3]).unwrap();
        let doubled = rt
            .map_local(dist, |_, shard| {
                shard.into_iter().map(|x| x * 2).collect::<Vec<u64>>()
            })
            .unwrap();
        assert_eq!(rt.metrics().rounds(), 0);
        assert_eq!(rt.gather(doubled), vec![2, 4, 6]);
    }

    #[test]
    fn metrics_track_peak_residency() {
        let mut rt = small_rt(64, 2);
        let dist = rt.distribute((0..32u64).collect()).unwrap();
        let _ = rt
            .round("concentrate", dist, |_, shard, em| {
                for v in shard {
                    em.send(1, v);
                }
                Vec::new()
            })
            .unwrap();
        assert_eq!(rt.metrics().peak_machine_words(), 32);
    }

    fn route_round(rt: &mut Runtime, values: Vec<u64>) -> MpcResult<Vec<u64>> {
        let m = rt.num_machines() as u64;
        let dist = rt.distribute(values)?;
        let out = rt.round("route", dist, move |_, shard, em| {
            for v in shard {
                em.send((v % m) as usize, v.wrapping_mul(3));
            }
            Vec::new()
        })?;
        Ok(rt.gather(out))
    }

    #[test]
    fn crashed_machine_recovers_bit_identical() {
        let values: Vec<u64> = (0..16).collect();
        let mut clean = small_rt(64, 4);
        let expected = route_round(&mut clean, values.clone()).unwrap();

        // Machine 0 holds the whole greedily-packed input, so its crash
        // loses real data.
        let plan = FaultPlan::new(9).with_fault(FaultSpec::Crash {
            round: 0,
            attempt: 0,
            machine: 0,
        });
        let mut rt = Runtime::builder()
            .input_words(64)
            .capacity_words(64)
            .machines(4)
            .threads(4)
            .fault_plan(plan)
            .build();
        let got = route_round(&mut rt, values).unwrap();
        assert_eq!(got, expected, "recovery must replay bit-identically");
        let stats = &rt.metrics().round_stats()[0];
        assert_eq!(stats.recoveries, 1);
        assert!(
            stats.checkpoint_words > 0,
            "Auto policy checkpoints when the plan can crash"
        );
        assert_eq!(rt.metrics().recoveries(), 1);
        assert!(rt.metrics().peak_checkpoint_words() > 0);
        let kinds: Vec<FaultKind> = rt.fault_log().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FaultKind::Crash));
        assert!(kinds.contains(&FaultKind::Recover));
        let recover = rt
            .fault_log()
            .iter()
            .find(|e| e.kind == FaultKind::Recover)
            .unwrap();
        assert_eq!(recover.machine, 0);
        assert_eq!(recover.attempt, 1, "restored on the first re-execution");
        assert!(recover.value > 0, "recover event carries restored words");
    }

    #[test]
    fn recovery_exhaustion_is_a_typed_retryable_error() {
        // Crash machine 2 on the initial run and both permitted
        // re-executions: the budget (max_recoveries = 2) is exhausted.
        let mut plan = FaultPlan::new(1).with_max_recoveries(2);
        for attempt in 0..3 {
            plan = plan.with_fault(FaultSpec::Crash {
                round: 0,
                attempt,
                machine: 2,
            });
        }
        let mut rt = Runtime::builder()
            .input_words(64)
            .capacity_words(64)
            .machines(4)
            .threads(2)
            .fault_plan(plan)
            .build();
        let err = route_round(&mut rt, (0..16).collect()).unwrap_err();
        match &err {
            MpcError::RecoveryExhausted {
                round,
                machine,
                attempts,
                ..
            } => {
                assert_eq!(*round, 0);
                assert_eq!(*machine, 2);
                assert_eq!(*attempts, 3);
            }
            other => panic!("expected RecoveryExhausted, got {other}"),
        }
        assert!(err.is_retryable());
        assert_eq!(
            rt.fault_log()
                .iter()
                .filter(|e| e.kind == FaultKind::Crash)
                .count(),
            3
        );
    }

    #[test]
    fn disabled_checkpointing_makes_any_crash_fatal() {
        let plan = FaultPlan::new(5).with_fault(FaultSpec::Crash {
            round: 0,
            attempt: 0,
            machine: 0,
        });
        let mut rt = Runtime::builder()
            .input_words(64)
            .capacity_words(64)
            .machines(2)
            .threads(2)
            .fault_plan(plan)
            .checkpoint(CheckpointPolicy::Disabled)
            .build();
        let err = route_round(&mut rt, (0..8).collect()).unwrap_err();
        assert!(
            matches!(err, MpcError::RecoveryExhausted { attempts: 1, .. }),
            "{err}"
        );
        assert!(err.is_retryable());
    }

    #[test]
    fn always_checkpointing_meters_even_without_faults() {
        let mut rt = Runtime::builder()
            .input_words(64)
            .capacity_words(64)
            .machines(2)
            .threads(2)
            .checkpoint(CheckpointPolicy::Always)
            .build();
        let _ = route_round(&mut rt, (0..8).collect()).unwrap();
        let stats = &rt.metrics().round_stats()[0];
        assert_eq!(stats.checkpoint_words, 8);
        assert_eq!(stats.recoveries, 0);
    }

    #[test]
    fn mix_seed_is_deterministic_and_spreads() {
        assert_eq!(mix_seed(1, 2), mix_seed(1, 2));
        assert_ne!(mix_seed(1, 2), mix_seed(2, 1));
        assert_ne!(mix_seed(0, 0), 0);
    }
}
