//! Flight recorder: a structured event trace of one simulation run, and
//! the conservation auditor that re-derives the full [`RunMetrics`] ledger
//! from it.
//!
//! The simulator's energy/cycle ledger is accumulated by scattered
//! accounting sites inside [`Simulator::run`](crate::Simulator::run)
//! (placements, idle spans, preemption refunds). Every headline claim of
//! the reproduction — the paper's ~28 % energy saving above all — rests on
//! that arithmetic, so this module provides an independent cross-check:
//!
//! * [`TraceSink`] receives one typed [`TraceEvent`] per accounting action
//!   as the run executes. The default [`NullSink`] compiles to nothing
//!   (the hot path is monomorphised against it); [`RecordingSink`] keeps
//!   the full stream.
//! * [`LedgerAuditor`] replays a recorded stream, enforcing structural
//!   conservation invariants (every arrival completes exactly once, no
//!   double-booked cores, evictions refund exactly the unexecuted
//!   remainder, idle spans never overlap occupancy) and re-deriving a
//!   complete [`RunMetrics`] — energy to f64 **bit identity**, counters to
//!   exact equality — that must match what the simulator returned.
//! * [`StallPurityChecked`] wraps any [`Scheduler`] and verifies the
//!   documented contract that a call returning
//!   [`Decision::Stall`](crate::Decision::Stall) leaves the policy's
//!   observable state untouched (the preemption probe depends on it),
//!   using the policy's [`state_fingerprint`](Scheduler::state_fingerprint).
//!
//! Bit identity is achievable because the auditor replays the *same*
//! floating-point operations in the *same* order the simulator performed
//! them: each event carries the exact operands (idle power, execution
//! energy, refund numerator/denominator) of its accounting site.

use crate::core_index::CoreIndex;
use crate::faults::{DegradedComponent, FallbackLevel, FaultKind, FaultStats, FaultedRun};
use crate::job::Job;
use crate::metrics::{ClassStats, RunMetrics};
use crate::scheduler::{CoreId, Decision, Scheduler};
use energy_model::EnergyBreakdown;
use std::collections::{BTreeMap, HashMap, HashSet};
use workloads::BenchmarkId;

/// How a job came to occupy a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// A regular scheduling-pass placement onto an idle core.
    Pass,
    /// A placement that evicted a running job (preemptive discipline);
    /// always immediately preceded by the matching
    /// [`TraceEvent::Eviction`].
    Preemption,
}

/// One accounting action of the simulator, in execution order.
///
/// Cycle timestamps are absolute simulation time. Energy fields carry the
/// exact `f64` operands the simulator used, so a replay reproduces its
/// ledger bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A job entered the ready queue.
    Arrival {
        /// Job sequence number (unique, arrival order).
        seq: u64,
        /// The benchmark the job executes.
        benchmark: BenchmarkId,
        /// Arrival cycle.
        at: u64,
        /// Scheduling priority.
        priority: u8,
    },
    /// A core sat idle over `[from, to)` and accrued leakage energy.
    IdleSpan {
        /// The idle core.
        core: CoreId,
        /// First idle cycle of the span.
        from: u64,
        /// One past the last idle cycle of the span.
        to: u64,
        /// Leakage power charged, in nJ/cycle (the policy's answer at
        /// accrual time — it depends on the loaded cache configuration).
        idle_power_nj_per_cycle: f64,
    },
    /// A job started executing on a core.
    Placement {
        /// The placed job.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
        /// Target core (idle at placement time).
        core: CoreId,
        /// Placement cycle.
        at: u64,
        /// Core-busy duration charged.
        cycles: u64,
        /// Dynamic energy charged, in nJ.
        dynamic_nj: f64,
        /// Busy-leakage energy charged, in nJ.
        static_nj: f64,
        /// Regular pass or preemption grab.
        kind: PlacementKind,
    },
    /// The policy stalled a job during a scheduling pass (the job returns
    /// to the back of the ready queue).
    Stall {
        /// The stalled job.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
        /// Cycle of the stall decision.
        at: u64,
    },
    /// The simulator probed the policy with a hypothetical view (victim's
    /// core idle) to ask whether a preemption would be worthwhile.
    PreemptionProbe {
        /// The urgent job the probe was made for.
        seq: u64,
        /// The candidate victim.
        victim: u64,
        /// The victim's core.
        core: CoreId,
        /// Probe cycle.
        at: u64,
        /// `true` when the policy accepted the freed core (the eviction
        /// was committed); `false` when it declined and the victim kept
        /// running.
        granted: bool,
    },
    /// A running job was evicted (restart semantics): its unexecuted
    /// remainder is refunded from the ledger and it re-enters the queue.
    Eviction {
        /// The evicted job.
        victim: u64,
        /// The core it lost.
        core: CoreId,
        /// Eviction cycle.
        at: u64,
        /// Total cycles of the interrupted execution.
        total_cycles: u64,
        /// Unexecuted cycles (refunded from busy time).
        remaining_cycles: u64,
        /// Full dynamic energy of the interrupted execution, in nJ (the
        /// refund is `dynamic_nj * remaining_cycles / total_cycles`).
        dynamic_nj: f64,
        /// Full busy-leakage energy of the interrupted execution, in nJ.
        static_nj: f64,
    },
    /// A job ran to completion and released its core.
    Completion {
        /// The completed job.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
        /// The core it released.
        core: CoreId,
        /// Completion cycle.
        at: u64,
        /// The job's arrival cycle (turnaround = `at - arrival`).
        arrival: u64,
        /// The job's priority class.
        priority: u8,
    },
    /// An injected fault terminated an execution early (core outage or
    /// crash) or a watchdog killed a hung run. Like an eviction, the
    /// unexecuted remainder `total_cycles - executed_cycles` is refunded
    /// (zero for a watchdog kill — the stretched run was fully charged).
    Fault {
        /// The victim job.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
        /// The core it was running on.
        core: CoreId,
        /// Cycle the fault struck.
        at: u64,
        /// What went wrong.
        kind: FaultKind,
        /// Total cycles the placement charged.
        total_cycles: u64,
        /// Cycles actually executed before the fault
        /// (`at - placement time`).
        executed_cycles: u64,
        /// Full dynamic energy the placement charged, in nJ.
        dynamic_nj: f64,
        /// Full busy-leakage energy the placement charged, in nJ.
        static_nj: f64,
    },
    /// A crashed/killed job was scheduled for retry after backoff, or
    /// abandoned once its failure count reached the cap.
    Retry {
        /// The failed job.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
        /// Cycle the retry decision was made.
        at: u64,
        /// Failure count so far (1-based).
        attempt: u32,
        /// Cycle the job re-enters the ready queue (`at` + backoff);
        /// equals `at` when abandoned.
        ready_at: u64,
        /// `true` when the job was abandoned (counts as failed, not
        /// lost — conservation tracks it explicitly).
        abandoned: bool,
    },
    /// A completion's best-size prediction was served by a fallback
    /// stage (the predictor chain degraded for this job at this time).
    Fallback {
        /// The completed job whose prediction degraded.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
        /// Completion cycle.
        at: u64,
        /// Which stage answered.
        level: FallbackLevel,
    },
    /// A component changed availability (core outage/recovery, predictor
    /// health transition). A core-down transition is always emitted
    /// *after* the eviction [`Fault`](TraceEvent::Fault) of any
    /// in-flight job, so the core is provably vacant when it drops.
    Degraded {
        /// Transition cycle.
        at: u64,
        /// The component changing state.
        component: DegradedComponent,
        /// `true` on recovery, `false` on degradation.
        online: bool,
    },
    /// An offered arrival was refused admission by the engine's overload
    /// governor and never entered the simulator. Shed jobs live in the
    /// *offered* sequence space (which counts every offered arrival,
    /// admitted or not) — the simulator's per-admitted `seq` space never
    /// sees them, so no placement/completion may ever reference one.
    Shed {
        /// Offered-stream sequence number (unique across the run).
        offered: u64,
        /// The benchmark the refused job would have executed.
        benchmark: BenchmarkId,
        /// The cycle the arrival was offered (and refused).
        at: u64,
        /// Its priority class.
        priority: u8,
        /// Which admission policy refused it.
        reason: crate::faults::ShedReason,
    },
}

impl TraceEvent {
    /// The absolute cycle this event is stamped with (for an
    /// [`IdleSpan`](TraceEvent::IdleSpan), the end of the span).
    /// Inline: called per event by cross-crate sinks on hot paths.
    #[inline]
    pub fn at(&self) -> u64 {
        match *self {
            TraceEvent::Arrival { at, .. }
            | TraceEvent::Placement { at, .. }
            | TraceEvent::Stall { at, .. }
            | TraceEvent::PreemptionProbe { at, .. }
            | TraceEvent::Eviction { at, .. }
            | TraceEvent::Completion { at, .. }
            | TraceEvent::Fault { at, .. }
            | TraceEvent::Retry { at, .. }
            | TraceEvent::Fallback { at, .. }
            | TraceEvent::Degraded { at, .. }
            | TraceEvent::Shed { at, .. } => at,
            TraceEvent::IdleSpan { to, .. } => to,
        }
    }

    /// A short stable name for the event kind (used by exports and
    /// summaries).
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::IdleSpan { .. } => "idle_span",
            TraceEvent::Placement { .. } => "placement",
            TraceEvent::Stall { .. } => "stall",
            TraceEvent::PreemptionProbe { .. } => "preemption_probe",
            TraceEvent::Eviction { .. } => "eviction",
            TraceEvent::Completion { .. } => "completion",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::Fallback { .. } => "fallback",
            TraceEvent::Degraded { .. } => "degraded",
            TraceEvent::Shed { .. } => "shed",
        }
    }
}

/// Receives the event stream of a simulation run.
///
/// The simulator is generic over the sink, so the default [`NullSink`]
/// monomorphises every `record` call (and the event construction feeding
/// it) away — tracing costs nothing unless a real sink is attached.
pub trait TraceSink {
    /// Observe one event.
    fn record(&mut self, event: TraceEvent);

    /// `false` when events need not be constructed at all. The simulator
    /// guards every emission site with this, which lets the optimiser
    /// delete the sites entirely for [`NullSink`].
    fn enabled(&self) -> bool {
        true
    }

    /// Hint that about `additional` more events are about to be recorded
    /// in one burst, so a sink that retains per-event records can grow
    /// its storage once (in the spirit of `Extend::extend_reserve`). A
    /// no-op by default; adaptors forward it to the sink they wrap.
    fn reserve(&mut self, additional: usize) {
        let _ = additional;
    }
}

/// The zero-overhead default sink: drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// Keeps the complete event stream in memory for auditing or export.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    events: Vec<TraceEvent>,
}

impl RecordingSink {
    /// An empty recorder.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// The recorded events in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the recorder, yielding the event stream.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for RecordingSink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// A small 64-bit folding hasher (FNV-1a over 64-bit words) for policy
/// state fingerprints.
///
/// Deterministic, order-sensitive, and dependency-free; collisions are
/// astronomically unlikely for the state sizes involved, and a collision
/// can only *hide* a violation, never invent one.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// FNV offset-basis start state.
    pub fn new() -> Self {
        Fingerprint {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Fold one 64-bit word into the state.
    pub fn write_u64(&mut self, value: u64) {
        self.state = (self.state ^ value).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a float by its exact bit pattern (distinguishes `-0.0`, NaN
    /// payloads — any observable change counts).
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// Fold a `usize`.
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Wraps a [`Scheduler`] and checks the stall-purity contract on every
/// call: a `schedule` invocation that returns
/// [`Decision::Stall`](crate::Decision::Stall) must leave the policy's
/// [`state_fingerprint`](Scheduler::state_fingerprint) unchanged. This
/// covers both regular scheduling passes and the simulator's preemption
/// probes (which rely on the contract to make declined probes
/// withdrawable).
///
/// Violations are collected, not panicked, so an audit run can report
/// every offending call site; use [`violations`](Self::violations) (or
/// [`assert_pure`](Self::assert_pure)) after the run.
#[derive(Debug, Clone)]
pub struct StallPurityChecked<S> {
    inner: S,
    violations: Vec<String>,
    stall_checks: u64,
}

impl<S: Scheduler> StallPurityChecked<S> {
    /// Wrap a policy.
    pub fn new(inner: S) -> Self {
        StallPurityChecked {
            inner,
            violations: Vec::new(),
            stall_checks: 0,
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Number of `Stall`-returning calls that were checked.
    pub fn stall_checks(&self) -> u64 {
        self.stall_checks
    }

    /// Every detected contract violation, in occurrence order.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Panic with the full violation list unless the run was clean.
    ///
    /// # Panics
    ///
    /// Panics if any `Stall`-returning call changed the policy's
    /// fingerprint.
    pub fn assert_pure(&self) {
        assert!(
            self.violations.is_empty(),
            "stall-purity contract violated ({} of {} stall calls):\n{}",
            self.violations.len(),
            self.stall_checks,
            self.violations.join("\n")
        );
    }
}

impl<S: Scheduler> Scheduler for StallPurityChecked<S> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        let before = self.inner.state_fingerprint();
        let decision = self.inner.schedule(job, cores, now);
        if matches!(decision, Decision::Stall) {
            self.stall_checks += 1;
            let after = self.inner.state_fingerprint();
            if after != before {
                self.violations.push(format!(
                    "schedule({job}) at cycle {now} returned Stall but mutated policy state \
                     (fingerprint {before:#018x} -> {after:#018x})"
                ));
            }
        }
        decision
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        self.inner.idle_power_nj_per_cycle(core)
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner.on_complete(job, core, now);
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner.on_preempt(job, core, now);
    }

    fn state_fingerprint(&self) -> u64 {
        self.inner.state_fingerprint()
    }
}

/// Replays a recorded event stream, enforcing conservation invariants and
/// re-deriving the complete [`RunMetrics`] ledger independently of the
/// simulator's own accumulation.
///
/// The derived ledger must equal the simulator's to the bit (energy) and
/// exactly (every counter); [`check`](Self::check) performs that
/// comparison. Any tampering with a single event — a dropped idle span, a
/// perturbed placement energy, a forged eviction refund — either trips a
/// structural invariant or lands as a ledger divergence.
#[derive(Debug, Clone, Copy)]
pub struct LedgerAuditor {
    num_cores: usize,
}

/// Core occupancy as reconstructed by the auditor.
#[derive(Debug, Clone, Copy)]
struct Occupied {
    seq: u64,
    until: u64,
    placed_at: u64,
}

/// The auditor's re-derivation of a governed (overload-controlled) run:
/// the ordinary faulted ledger plus the admission ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernedAudit {
    /// The replayed ledger and fault counters.
    pub run: FaultedRun,
    /// Jobs that entered the simulator (distinct `Arrival` events).
    pub admitted: u64,
    /// Offered arrivals refused by the admission layer (`Shed` events).
    pub sheds: u64,
}

impl GovernedAudit {
    /// Total arrivals offered to the admission layer.
    pub fn offered(&self) -> u64 {
        self.admitted + self.sheds
    }
}

impl LedgerAuditor {
    /// An auditor for a run over `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        LedgerAuditor { num_cores }
    }

    /// Replay `events`, returning the independently derived ledger, or
    /// the list of violated conservation invariants.
    ///
    /// # Errors
    ///
    /// Returns every structural violation found (out-of-range cores,
    /// double bookings, completions that don't match their placement,
    /// refunds that disagree with the occupancy, unfinished jobs, …).
    pub fn replay(&self, events: &[TraceEvent]) -> Result<RunMetrics, Vec<String>> {
        self.replay_with_faults(events).map(|run| run.metrics)
    }

    /// Replay `events` like [`replay`](Self::replay), additionally
    /// re-deriving the [`FaultStats`] counters of a faulted run. Fault
    /// events are validated against the same occupancy model as
    /// evictions (exact executed/total split, refund replay), core
    /// outages must strictly alternate and only drop vacant cores, and
    /// abandoned jobs are tracked so conservation holds: every arrival
    /// either completes or is explicitly abandoned — never lost.
    ///
    /// An empty event stream (or a zero-job run) is *valid* and replays
    /// to an all-zero ledger; malformed streams — including forged
    /// timestamps whose `at + cycles` would overflow — produce typed
    /// violation strings, never a panic.
    ///
    /// # Errors
    ///
    /// Returns every structural violation found.
    pub fn replay_with_faults(&self, events: &[TraceEvent]) -> Result<FaultedRun, Vec<String>> {
        self.replay_governed(events).map(|audit| audit.run)
    }

    /// Replay `events` like [`replay_with_faults`](Self::replay_with_faults),
    /// additionally re-deriving the admission ledger of a *governed*
    /// (overload-controlled) run: how many jobs were admitted into the
    /// simulator and how many offered arrivals were shed by the engine's
    /// admission layer. [`Shed`](TraceEvent::Shed) events are validated
    /// (unique offered ids) and counted; they are exempt from the
    /// chronological-watermark check because the governor flushes them
    /// only after the simulator stream has advanced past their timestamp;
    /// together with the existing job-conservation invariant this gives
    /// the extended ledger `offered = admitted + shed` and
    /// `admitted = completed + abandoned` — nothing offered is ever lost
    /// silently.
    ///
    /// # Errors
    ///
    /// Returns every structural violation found.
    pub fn replay_governed(&self, events: &[TraceEvent]) -> Result<GovernedAudit, Vec<String>> {
        let mut violations: Vec<String> = Vec::new();
        let mut energy = EnergyBreakdown::new();
        let mut busy_cycles = vec![0u64; self.num_cores];
        let mut jobs_completed = 0u64;
        let mut stall_episodes = 0u64;
        let mut stall_offers = 0u64;
        let mut turnaround = 0u64;
        let mut last_completion = 0u64;
        let mut by_priority: BTreeMap<u8, ClassStats> = BTreeMap::new();
        let mut preemptions = 0u64;

        // Reconstructed machine state.
        let mut cores: Vec<Option<Occupied>> = vec![None; self.num_cores];
        let mut arrived: HashMap<u64, u64> = HashMap::new(); // seq -> arrival cycle
        let mut completed: HashSet<u64> = HashSet::new();
        let mut stalled: HashSet<u64> = HashSet::new();
        let mut watermark = 0u64;

        // Fault-regime state.
        let mut faults = FaultStats::default();
        let mut offline = vec![false; self.num_cores];
        let mut failed: HashSet<u64> = HashSet::new();
        let mut retry_not_before: HashMap<u64, u64> = HashMap::new();
        let mut predictor = crate::faults::PredictorHealth::Healthy;

        // Admission-governor state (empty unless the run was governed).
        let mut shed_ids: HashSet<u64> = HashSet::new();
        let mut sheds = 0u64;

        for (index, event) in events.iter().enumerate() {
            let at = event.at();
            // `Shed` is exempt from the watermark: sheds are engine-side
            // events that legitimately trail the simulator stream — a shed
            // arrival never became a simulator stop point, so the governor
            // can only flush it once the stream has provably advanced past
            // its timestamp (the drain-safety rule). Sheds also never move
            // the watermark forward.
            if !matches!(event, TraceEvent::Shed { .. }) {
                if at < watermark {
                    violations.push(format!(
                        "event {index} ({}) at cycle {at} behind watermark {watermark}",
                        event.kind_name()
                    ));
                }
                watermark = watermark.max(at);
            }
            if let Some(core) = match *event {
                TraceEvent::IdleSpan { core, .. }
                | TraceEvent::Placement { core, .. }
                | TraceEvent::PreemptionProbe { core, .. }
                | TraceEvent::Eviction { core, .. }
                | TraceEvent::Completion { core, .. }
                | TraceEvent::Fault { core, .. } => Some(core),
                TraceEvent::Degraded {
                    component: DegradedComponent::Core(core),
                    ..
                } => Some(core),
                TraceEvent::Arrival { .. }
                | TraceEvent::Stall { .. }
                | TraceEvent::Retry { .. }
                | TraceEvent::Fallback { .. }
                | TraceEvent::Degraded { .. }
                | TraceEvent::Shed { .. } => None,
            } {
                if core.0 >= self.num_cores {
                    violations.push(format!(
                        "event {index} ({}) names {core} outside the {}-core system",
                        event.kind_name(),
                        self.num_cores
                    ));
                    continue;
                }
            }

            match *event {
                TraceEvent::Arrival { seq, at, .. } => {
                    if arrived.insert(seq, at).is_some() {
                        violations.push(format!("job#{seq} arrived twice (event {index})"));
                    }
                }
                TraceEvent::IdleSpan {
                    core,
                    from,
                    to,
                    idle_power_nj_per_cycle,
                } => {
                    if from >= to {
                        violations.push(format!(
                            "empty idle span [{from}, {to}) on {core} (event {index})"
                        ));
                    }
                    if cores[core.0].is_some() {
                        violations.push(format!(
                            "idle span [{from}, {to}) on busy {core} (event {index})"
                        ));
                    }
                    if offline[core.0] {
                        violations.push(format!(
                            "idle span [{from}, {to}) on offline {core} (event {index})"
                        ));
                    }
                    // Same operation, same order as the simulator.
                    energy.idle_nj += to.saturating_sub(from) as f64 * idle_power_nj_per_cycle;
                }
                TraceEvent::Placement {
                    seq,
                    core,
                    at,
                    cycles,
                    dynamic_nj,
                    static_nj,
                    ..
                } => {
                    if !arrived.contains_key(&seq) {
                        violations
                            .push(format!("job#{seq} placed without arriving (event {index})"));
                    }
                    if completed.contains(&seq) {
                        violations
                            .push(format!("job#{seq} placed after completing (event {index})"));
                    }
                    if cycles == 0 {
                        violations.push(format!(
                            "job#{seq} placed with a zero-cycle execution (event {index})"
                        ));
                    }
                    if let Some(previous) = cores[core.0] {
                        violations.push(format!(
                            "{core} double-booked: job#{seq} placed over job#{} (event {index})",
                            previous.seq
                        ));
                    }
                    if cores.iter().flatten().any(|o| o.seq == seq) {
                        violations.push(format!(
                            "job#{seq} placed while already running elsewhere (event {index})"
                        ));
                    }
                    if offline[core.0] {
                        violations.push(format!(
                            "job#{seq} placed on offline {core} (event {index})"
                        ));
                    }
                    if let Some(&ready_at) = retry_not_before.get(&seq) {
                        if at < ready_at {
                            violations.push(format!(
                                "job#{seq} placed at cycle {at} before its retry backoff \
                                 expires at {ready_at} (event {index})"
                            ));
                        }
                        retry_not_before.remove(&seq);
                    }
                    match at.checked_add(cycles) {
                        Some(until) => {
                            cores[core.0] = Some(Occupied {
                                seq,
                                until,
                                placed_at: at,
                            });
                        }
                        None => violations.push(format!(
                            "job#{seq} placement end {at} + {cycles} overflows (event {index})"
                        )),
                    }
                    energy.dynamic_nj += dynamic_nj;
                    energy.static_nj += static_nj;
                    busy_cycles[core.0] = busy_cycles[core.0].saturating_add(cycles);
                    stalled.remove(&seq);
                }
                TraceEvent::Stall { seq, .. } => {
                    if !arrived.contains_key(&seq) {
                        violations.push(format!(
                            "job#{seq} stalled without arriving (event {index})"
                        ));
                    }
                    stall_offers += 1;
                    if stalled.insert(seq) {
                        stall_episodes += 1;
                    }
                }
                TraceEvent::PreemptionProbe { victim, core, .. } => match cores[core.0] {
                    Some(occupied) if occupied.seq == victim => {}
                    _ => violations.push(format!(
                        "preemption probe names victim job#{victim} not running on {core} \
                             (event {index})"
                    )),
                },
                TraceEvent::Eviction {
                    victim,
                    core,
                    at,
                    total_cycles,
                    remaining_cycles,
                    dynamic_nj,
                    static_nj,
                } => {
                    match cores[core.0].take() {
                        Some(occupied) if occupied.seq == victim => {
                            if occupied.until.checked_sub(at) != Some(remaining_cycles) {
                                violations.push(format!(
                                    "eviction of job#{victim} claims {remaining_cycles} \
                                     remaining cycles, occupancy says {} (event {index})",
                                    occupied.until.saturating_sub(at)
                                ));
                            }
                            if occupied.until - occupied.placed_at != total_cycles {
                                violations.push(format!(
                                    "eviction of job#{victim} claims {total_cycles} total \
                                     cycles, placement charged {} (event {index})",
                                    occupied.until - occupied.placed_at
                                ));
                            }
                        }
                        _ => violations.push(format!(
                            "eviction of job#{victim} not running on {core} (event {index})"
                        )),
                    }
                    if remaining_cycles > total_cycles || total_cycles == 0 {
                        violations.push(format!(
                            "eviction refund fraction {remaining_cycles}/{total_cycles} \
                             out of range (event {index})"
                        ));
                    } else {
                        // The simulator's exact refund arithmetic.
                        let refund = remaining_cycles as f64 / total_cycles as f64;
                        energy.dynamic_nj -= dynamic_nj * refund;
                        energy.static_nj -= static_nj * refund;
                        busy_cycles[core.0] = busy_cycles[core.0].saturating_sub(remaining_cycles);
                    }
                    preemptions += 1;
                }
                TraceEvent::Completion {
                    seq,
                    core,
                    at,
                    arrival,
                    priority,
                    ..
                } => {
                    match cores[core.0].take() {
                        Some(occupied) if occupied.seq == seq => {
                            if occupied.until != at {
                                violations.push(format!(
                                    "job#{seq} completed at cycle {at}, placement ends at {} \
                                     (event {index})",
                                    occupied.until
                                ));
                            }
                        }
                        _ => violations.push(format!(
                            "completion of job#{seq} not running on {core} (event {index})"
                        )),
                    }
                    match arrived.get(&seq) {
                        Some(&arrived_at) if arrived_at != arrival => violations.push(format!(
                            "job#{seq} completion claims arrival {arrival}, trace recorded \
                             {arrived_at} (event {index})"
                        )),
                        Some(_) => {}
                        None => violations.push(format!(
                            "job#{seq} completed without arriving (event {index})"
                        )),
                    }
                    if failed.contains(&seq) {
                        violations.push(format!(
                            "job#{seq} completed after being abandoned (event {index})"
                        ));
                    }
                    if !completed.insert(seq) {
                        violations.push(format!("job#{seq} completed twice (event {index})"));
                    }
                    if at < arrival {
                        violations.push(format!(
                            "job#{seq} completes at cycle {at} before its claimed arrival \
                             {arrival} (event {index})"
                        ));
                    }
                    jobs_completed += 1;
                    turnaround += at.saturating_sub(arrival);
                    let class = by_priority.entry(priority).or_default();
                    class.jobs += 1;
                    class.turnaround_cycles += at.saturating_sub(arrival);
                    last_completion = last_completion.max(at);
                }
                TraceEvent::Fault {
                    seq,
                    core,
                    at,
                    kind,
                    total_cycles,
                    executed_cycles,
                    dynamic_nj,
                    static_nj,
                    ..
                } => {
                    match cores[core.0].take() {
                        Some(occupied) if occupied.seq == seq => {
                            if occupied.placed_at.checked_add(executed_cycles) != Some(at) {
                                violations.push(format!(
                                    "{} fault on job#{seq} claims {executed_cycles} executed \
                                     cycles, placement at {} says {} (event {index})",
                                    kind.name(),
                                    occupied.placed_at,
                                    at.saturating_sub(occupied.placed_at)
                                ));
                            }
                            if occupied.until - occupied.placed_at != total_cycles {
                                violations.push(format!(
                                    "{} fault on job#{seq} claims {total_cycles} total cycles, \
                                     placement charged {} (event {index})",
                                    kind.name(),
                                    occupied.until - occupied.placed_at
                                ));
                            }
                        }
                        _ => violations.push(format!(
                            "{} fault on job#{seq} not running on {core} (event {index})",
                            kind.name()
                        )),
                    }
                    if kind == FaultKind::Watchdog && executed_cycles != total_cycles {
                        violations.push(format!(
                            "watchdog kill of job#{seq} at {executed_cycles}/{total_cycles} \
                             cycles — watchdog charges the full stretched run (event {index})"
                        ));
                    }
                    if executed_cycles > total_cycles || total_cycles == 0 {
                        violations.push(format!(
                            "fault refund fraction ({total_cycles} - {executed_cycles})/\
                             {total_cycles} out of range (event {index})"
                        ));
                    } else {
                        // The simulator's exact refund arithmetic (the
                        // watchdog case refunds an exact 0.0).
                        let remaining_cycles = total_cycles - executed_cycles;
                        let refund = remaining_cycles as f64 / total_cycles as f64;
                        energy.dynamic_nj -= dynamic_nj * refund;
                        energy.static_nj -= static_nj * refund;
                        busy_cycles[core.0] = busy_cycles[core.0].saturating_sub(remaining_cycles);
                    }
                    match kind {
                        FaultKind::CoreOutage => faults.outage_evictions += 1,
                        FaultKind::Crash => faults.crashes += 1,
                        FaultKind::Watchdog => faults.watchdog_kills += 1,
                    }
                }
                TraceEvent::Retry {
                    seq,
                    at,
                    attempt,
                    ready_at,
                    abandoned,
                    ..
                } => {
                    if !arrived.contains_key(&seq) {
                        violations.push(format!(
                            "job#{seq} retried without arriving (event {index})"
                        ));
                    }
                    if completed.contains(&seq) {
                        violations.push(format!(
                            "job#{seq} retried after completing (event {index})"
                        ));
                    }
                    if cores.iter().flatten().any(|o| o.seq == seq) {
                        violations.push(format!(
                            "job#{seq} retried while still occupying a core (event {index})"
                        ));
                    }
                    if ready_at < at {
                        violations.push(format!(
                            "job#{seq} retry ready at cycle {ready_at} before the decision \
                             at {at} (event {index})"
                        ));
                    }
                    faults.max_attempts_observed = faults.max_attempts_observed.max(attempt);
                    if abandoned {
                        if !failed.insert(seq) {
                            violations.push(format!("job#{seq} abandoned twice (event {index})"));
                        }
                        faults.jobs_failed += 1;
                    } else {
                        retry_not_before.insert(seq, ready_at);
                        faults.retries += 1;
                    }
                }
                TraceEvent::Fallback { seq, .. } => {
                    if !arrived.contains_key(&seq) {
                        violations.push(format!(
                            "fallback recorded for job#{seq} which never arrived (event {index})"
                        ));
                    }
                    faults.fallbacks += 1;
                }
                TraceEvent::Degraded {
                    component, online, ..
                } => {
                    match component {
                        DegradedComponent::Core(core) => {
                            if online != offline[core.0] {
                                violations.push(format!(
                                    "redundant availability transition: {core} already \
                                     {} (event {index})",
                                    if online { "online" } else { "offline" }
                                ));
                            }
                            if !online && cores[core.0].is_some() {
                                violations.push(format!(
                                    "{core} went offline while occupied — the eviction \
                                     fault must precede the transition (event {index})"
                                ));
                            }
                            offline[core.0] = !online;
                        }
                        DegradedComponent::Predictor(health) => {
                            use crate::faults::PredictorHealth as Ph;
                            let valid = if online {
                                health == Ph::Healthy && predictor != Ph::Healthy
                            } else {
                                health != Ph::Healthy && predictor == Ph::Healthy
                            };
                            if !valid {
                                violations.push(format!(
                                    "invalid predictor transition {} -> {} (online: {online}) \
                                     (event {index})",
                                    predictor.name(),
                                    health.name()
                                ));
                            }
                            predictor = health;
                        }
                    }
                    faults.degraded_transitions += 1;
                }
                TraceEvent::Shed { offered, .. } => {
                    if !shed_ids.insert(offered) {
                        violations.push(format!(
                            "offered arrival #{offered} shed twice (event {index})"
                        ));
                    }
                    sheds += 1;
                }
            }
        }

        for (index, slot) in cores.iter().enumerate() {
            if let Some(occupied) = slot {
                violations.push(format!(
                    "job#{} still occupies {} at end of trace",
                    occupied.seq,
                    CoreId(index)
                ));
            }
        }
        // Conservation of jobs: every arrival either completed or was
        // explicitly abandoned after bounded retries — never lost.
        let unfinished = arrived
            .keys()
            .filter(|seq| !completed.contains(seq) && !failed.contains(seq))
            .count();
        if unfinished > 0 {
            violations.push(format!(
                "{unfinished} arrived job(s) neither completed nor abandoned \
                 (conservation of jobs)"
            ));
        }

        if !violations.is_empty() {
            return Err(violations);
        }
        Ok(GovernedAudit {
            run: FaultedRun {
                metrics: RunMetrics {
                    energy,
                    total_cycles: last_completion,
                    jobs_completed,
                    stalls: stall_episodes,
                    stall_offers,
                    busy_cycles,
                    turnaround_cycles: turnaround,
                    by_priority,
                    preemptions,
                },
                faults,
            },
            admitted: arrived.len() as u64,
            sheds,
        })
    }

    /// Replay `events` and compare the derived ledger against the
    /// simulator's `metrics`: energies must match to the bit, every
    /// counter exactly.
    ///
    /// # Errors
    ///
    /// Returns structural violations from [`replay`](Self::replay), or the
    /// list of ledger divergences.
    pub fn check(&self, events: &[TraceEvent], metrics: &RunMetrics) -> Result<(), Vec<String>> {
        let derived = self.replay(events)?;
        let divergences = ledger_divergences(&derived, metrics);
        if divergences.is_empty() {
            Ok(())
        } else {
            Err(divergences)
        }
    }

    /// Replay a *faulted* run's events and compare both the ledger and
    /// the fault counters against what the simulator reported: energies
    /// to the bit, every counter exactly.
    ///
    /// # Errors
    ///
    /// Returns structural violations from
    /// [`replay_with_faults`](Self::replay_with_faults), or the list of
    /// ledger / fault-counter divergences.
    pub fn check_faulted(
        &self,
        events: &[TraceEvent],
        run: &FaultedRun,
    ) -> Result<(), Vec<String>> {
        let derived = self.replay_with_faults(events)?;
        let mut divergences = ledger_divergences(&derived.metrics, &run.metrics);
        if derived.faults != run.faults {
            divergences.push(format!(
                "fault counters: derived {:?} != reported {:?}",
                derived.faults, run.faults
            ));
        }
        if divergences.is_empty() {
            Ok(())
        } else {
            Err(divergences)
        }
    }

    /// Replay a governed run's events and enforce the extended
    /// conservation invariant against what the overload governor
    /// reported: every counter exactly, energies to the bit, and
    /// `offered = admitted + shed` with the trace-derived admission
    /// ledger matching the governor's own counts. Combined with the
    /// structural replay (every admitted arrival completes or is
    /// explicitly abandoned, no core still occupied at the horizon),
    /// this proves no offered arrival was dropped off the books.
    ///
    /// # Errors
    ///
    /// Returns structural violations from
    /// [`replay_governed`](Self::replay_governed), or the list of
    /// ledger / admission divergences.
    pub fn check_governed(
        &self,
        events: &[TraceEvent],
        metrics: &RunMetrics,
        offered: u64,
        shed: u64,
    ) -> Result<(), Vec<String>> {
        let audit = self.replay_governed(events)?;
        let mut divergences = ledger_divergences(&audit.run.metrics, metrics);
        if audit.sheds != shed {
            divergences.push(format!(
                "sheds: trace carries {} Shed events, governor reported {shed}",
                audit.sheds
            ));
        }
        if audit.offered() != offered {
            divergences.push(format!(
                "admission conservation: {} admitted + {} shed != {offered} offered",
                audit.admitted, audit.sheds
            ));
        }
        if divergences.is_empty() {
            Ok(())
        } else {
            Err(divergences)
        }
    }
}

/// Every field-level difference between an auditor-derived ledger and the
/// simulator's, with bit-exact energy comparison. Empty means identical.
pub fn ledger_divergences(derived: &RunMetrics, reported: &RunMetrics) -> Vec<String> {
    let mut divergences = Vec::new();
    let mut float = |name: &str, d: f64, r: f64| {
        if d.to_bits() != r.to_bits() {
            divergences.push(format!(
                "{name}: derived {d} != reported {r} (bit mismatch)"
            ));
        }
    };
    float(
        "energy.idle_nj",
        derived.energy.idle_nj,
        reported.energy.idle_nj,
    );
    float(
        "energy.dynamic_nj",
        derived.energy.dynamic_nj,
        reported.energy.dynamic_nj,
    );
    float(
        "energy.static_nj",
        derived.energy.static_nj,
        reported.energy.static_nj,
    );
    let mut count = |name: &str, d: u64, r: u64| {
        if d != r {
            divergences.push(format!("{name}: derived {d} != reported {r}"));
        }
    };
    count("total_cycles", derived.total_cycles, reported.total_cycles);
    count(
        "jobs_completed",
        derived.jobs_completed,
        reported.jobs_completed,
    );
    count("stalls", derived.stalls, reported.stalls);
    count("stall_offers", derived.stall_offers, reported.stall_offers);
    count(
        "turnaround_cycles",
        derived.turnaround_cycles,
        reported.turnaround_cycles,
    );
    count("preemptions", derived.preemptions, reported.preemptions);
    if derived.busy_cycles != reported.busy_cycles {
        divergences.push(format!(
            "busy_cycles: derived {:?} != reported {:?}",
            derived.busy_cycles, reported.busy_cycles
        ));
    }
    if derived.by_priority != reported.by_priority {
        divergences.push(format!(
            "by_priority: derived {:?} != reported {:?}",
            derived.by_priority, reported.by_priority
        ));
    }
    divergences
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_reports_disabled() {
        assert!(!NullSink.enabled());
        NullSink.record(TraceEvent::Arrival {
            seq: 0,
            benchmark: BenchmarkId(0),
            at: 0,
            priority: 0,
        });
    }

    #[test]
    fn recording_sink_keeps_order() {
        let mut sink = RecordingSink::new();
        assert!(sink.is_empty());
        sink.record(TraceEvent::Arrival {
            seq: 0,
            benchmark: BenchmarkId(1),
            at: 5,
            priority: 0,
        });
        sink.record(TraceEvent::Stall {
            seq: 0,
            benchmark: BenchmarkId(1),
            at: 5,
        });
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events()[0].kind_name(), "arrival");
        assert_eq!(sink.events()[1].at(), 5);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fingerprint::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(Fingerprint::new().finish(), Fingerprint::new().finish());
    }

    #[test]
    fn auditor_flags_double_booking() {
        let place = |seq, at| TraceEvent::Placement {
            seq,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at,
            cycles: 10,
            dynamic_nj: 1.0,
            static_nj: 0.0,
            kind: PlacementKind::Pass,
        };
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            },
            TraceEvent::Arrival {
                seq: 1,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            },
            place(0, 0),
            place(1, 0),
        ];
        let violations = LedgerAuditor::new(1).replay(&events).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("double-booked")),
            "{violations:?}"
        );
    }

    #[test]
    fn auditor_flags_unfinished_jobs() {
        let events = vec![TraceEvent::Arrival {
            seq: 0,
            benchmark: BenchmarkId(0),
            at: 0,
            priority: 0,
        }];
        let violations = LedgerAuditor::new(1).replay(&events).unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("neither completed nor abandoned")),
            "{violations:?}"
        );
    }

    #[test]
    fn empty_trace_replays_to_a_zero_ledger() {
        let run = LedgerAuditor::new(4).replay_with_faults(&[]).unwrap();
        assert_eq!(run.metrics.jobs_completed, 0);
        assert_eq!(run.metrics.total_cycles, 0);
        assert_eq!(run.metrics.energy.idle_nj, 0.0);
        assert_eq!(run.faults, crate::faults::FaultStats::default());
        // A zero-core system with no events is likewise fine.
        assert!(LedgerAuditor::new(0).replay(&[]).is_ok());
    }

    #[test]
    fn forged_overflow_placement_is_a_violation_not_a_panic() {
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: u64::MAX - 5,
                priority: 0,
            },
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: u64::MAX - 5,
                cycles: 100, // at + cycles overflows u64
                dynamic_nj: 1.0,
                static_nj: 0.0,
                kind: PlacementKind::Pass,
            },
        ];
        let violations = LedgerAuditor::new(1).replay(&events).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("overflows")),
            "{violations:?}"
        );
    }

    #[test]
    fn abandoned_jobs_satisfy_conservation() {
        use crate::faults::FaultKind;
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            },
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 0,
                cycles: 100,
                dynamic_nj: 2.0,
                static_nj: 1.0,
                kind: PlacementKind::Pass,
            },
            TraceEvent::Fault {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 40,
                kind: FaultKind::Crash,
                total_cycles: 100,
                executed_cycles: 40,
                dynamic_nj: 2.0,
                static_nj: 1.0,
            },
            TraceEvent::Retry {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 40,
                attempt: 1,
                ready_at: 40,
                abandoned: true,
            },
        ];
        let run = LedgerAuditor::new(1).replay_with_faults(&events).unwrap();
        assert_eq!(run.metrics.jobs_completed, 0);
        assert_eq!(run.faults.crashes, 1);
        assert_eq!(run.faults.jobs_failed, 1);
        // The refund left only the executed fraction charged.
        assert!((run.metrics.energy.dynamic_nj - 2.0 * 0.4).abs() < 1e-12);
        assert_eq!(run.metrics.busy_cycles, vec![40]);

        // Without the Retry{abandoned} record the job counts as lost.
        let violations = LedgerAuditor::new(1)
            .replay_with_faults(&events[..3])
            .unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("conservation")),
            "{violations:?}"
        );
    }

    #[test]
    fn offline_cores_reject_placements_and_idle_spans() {
        use crate::faults::DegradedComponent;
        let down = TraceEvent::Degraded {
            at: 0,
            component: DegradedComponent::Core(CoreId(0)),
            online: false,
        };
        let arrival = TraceEvent::Arrival {
            seq: 0,
            benchmark: BenchmarkId(0),
            at: 0,
            priority: 0,
        };
        let place = TraceEvent::Placement {
            seq: 0,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 0,
            cycles: 10,
            dynamic_nj: 1.0,
            static_nj: 0.0,
            kind: PlacementKind::Pass,
        };
        let violations = LedgerAuditor::new(1)
            .replay_with_faults(&[down, arrival, place])
            .unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("offline")),
            "{violations:?}"
        );

        let idle = TraceEvent::IdleSpan {
            core: CoreId(0),
            from: 0,
            to: 5,
            idle_power_nj_per_cycle: 1.0,
        };
        let violations = LedgerAuditor::new(1)
            .replay_with_faults(&[down, idle])
            .unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("offline")),
            "{violations:?}"
        );

        // Redundant transitions are rejected too.
        let violations = LedgerAuditor::new(1)
            .replay_with_faults(&[down, down])
            .unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("redundant")),
            "{violations:?}"
        );
    }

    #[test]
    fn retry_backoff_violations_are_detected() {
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            },
            TraceEvent::Retry {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 10,
                attempt: 1,
                ready_at: 100,
                abandoned: false,
            },
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 50, // before the backoff expires
                cycles: 10,
                dynamic_nj: 1.0,
                static_nj: 0.0,
                kind: PlacementKind::Pass,
            },
            TraceEvent::Completion {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 60,
                arrival: 0,
                priority: 0,
            },
        ];
        let violations = LedgerAuditor::new(1)
            .replay_with_faults(&events)
            .unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("backoff")),
            "{violations:?}"
        );
    }

    #[test]
    fn governed_audit_counts_sheds_and_enforces_conservation() {
        use crate::faults::ShedReason;
        let shed = |offered, at| TraceEvent::Shed {
            offered,
            benchmark: BenchmarkId(3),
            at,
            priority: 0,
            reason: ShedReason::QueueFull,
        };
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            },
            shed(1, 2),
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 3,
                cycles: 10,
                dynamic_nj: 1.0,
                static_nj: 0.0,
                kind: PlacementKind::Pass,
            },
            shed(2, 5),
            TraceEvent::Completion {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 13,
                arrival: 0,
                priority: 0,
            },
        ];
        let audit = LedgerAuditor::new(1).replay_governed(&events).unwrap();
        assert_eq!(audit.admitted, 1);
        assert_eq!(audit.sheds, 2);
        assert_eq!(audit.offered(), 3);
        let metrics = audit.run.metrics.clone();
        LedgerAuditor::new(1)
            .check_governed(&events, &metrics, 3, 2)
            .unwrap();
        // A governor misreporting its shed count (or the offered total)
        // is a divergence.
        let divergences = LedgerAuditor::new(1)
            .check_governed(&events, &metrics, 3, 1)
            .unwrap_err();
        assert!(
            divergences.iter().any(|d| d.contains("sheds")),
            "{divergences:?}"
        );
        let divergences = LedgerAuditor::new(1)
            .check_governed(&events, &metrics, 4, 2)
            .unwrap_err();
        assert!(
            divergences.iter().any(|d| d.contains("conservation")),
            "{divergences:?}"
        );
    }

    #[test]
    fn late_flushed_sheds_are_exempt_from_the_watermark() {
        use crate::faults::ShedReason;
        // The governor flushes a shed only once the forwarded stream has
        // advanced past its timestamp, so a Shed legitimately appears
        // *after* later-timestamped events — and must not trip the
        // chronological watermark nor advance it for subsequent events.
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            },
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 0,
                cycles: 10,
                dynamic_nj: 1.0,
                static_nj: 0.0,
                kind: PlacementKind::Pass,
            },
            TraceEvent::Completion {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 10,
                arrival: 0,
                priority: 0,
            },
            // Flushed late: shed at cycle 4, emitted after the cycle-10
            // completion.
            TraceEvent::Shed {
                offered: 1,
                benchmark: BenchmarkId(2),
                at: 4,
                priority: 0,
                reason: ShedReason::Deadline,
            },
        ];
        let audit = LedgerAuditor::new(1).replay_governed(&events).unwrap();
        assert_eq!(audit.admitted, 1);
        assert_eq!(audit.sheds, 1);
    }

    #[test]
    fn duplicate_shed_ids_are_a_violation() {
        use crate::faults::ShedReason;
        let shed = TraceEvent::Shed {
            offered: 7,
            benchmark: BenchmarkId(0),
            at: 1,
            priority: 0,
            reason: ShedReason::RateLimit,
        };
        let violations = LedgerAuditor::new(1)
            .replay_governed(&[shed, shed])
            .unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("shed twice")),
            "{violations:?}"
        );
    }

    #[test]
    fn divergence_report_is_empty_for_identical_ledgers() {
        let metrics = RunMetrics {
            energy: EnergyBreakdown::new(),
            total_cycles: 10,
            jobs_completed: 1,
            stalls: 0,
            stall_offers: 0,
            busy_cycles: vec![10],
            turnaround_cycles: 10,
            by_priority: BTreeMap::new(),
            preemptions: 0,
        };
        assert!(ledger_divergences(&metrics, &metrics.clone()).is_empty());
        let mut skewed = metrics.clone();
        skewed.energy.dynamic_nj = 1e-300; // tiny but a different bit pattern
        assert_eq!(ledger_divergences(&metrics, &skewed).len(), 1);
    }
}
