//! The discrete-event engine.

use crate::core_index::{CoreIndex, SeqBitSet};
use crate::faults::{
    AttemptFault, DegradedComponent, FaultKind, FaultPlan, FaultStats, FaultedRun,
};
use crate::job::Job;
use crate::metrics::RunMetrics;
use crate::scheduler::{BusyInfo, CoreId, CoreView, Decision, Scheduler};
use crate::trace::{NullSink, PlacementKind, TraceEvent, TraceSink};
use energy_model::EnergyBreakdown;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};
use workloads::ArrivalPlan;

/// How the ready queue orders jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// First-come first-served — the paper's evaluation setting
    /// ("processed on a FIFO basis … assuming no form of preemption or
    /// priority").
    #[default]
    Fifo,
    /// Non-preemptive priority: higher-priority jobs are offered to the
    /// scheduler first; FIFO within a priority class. The paper's
    /// future-work extension.
    Priority,
    /// Preemptive priority: as [`Priority`](QueueDiscipline::Priority),
    /// and additionally a queued job may evict a strictly-lower-priority
    /// running job when every core is busy. The victim loses its progress
    /// (restart semantics — embedded cores without context-save hardware);
    /// the energy and busy cycles of its *executed* portion stay charged,
    /// the unexecuted remainder is refunded, and the job re-enters the
    /// ready queue.
    PreemptivePriority,
}

/// Priority-class key of a queued job: higher priority first, FIFO (seq
/// order) within a class — the exact order the reference loop's per-round
/// `sort_by_key` produces.
type PrioKey = (Reverse<u8>, u64);

fn prio_key(job: &Job) -> PrioKey {
    (Reverse(job.priority), job.seq)
}

/// The simulator's ready queue, indexed per discipline.
///
/// * FIFO keeps the reference loop's `VecDeque` rotation verbatim:
///   offered jobs pop from the front and stalled jobs re-append.
/// * The priority disciplines replace the reference's per-round
///   `sort_by_key` + rotation with a `BTreeMap` ordered by [`PrioKey`]:
///   admission and removal are O(log n), and a scheduling pass walks the
///   map with a cyclic cursor ([`offer`](Self::offer)), which visits
///   jobs in exactly the order the sorted rotation would — a stalled job
///   re-appended to a sorted deque lands back in key order, so
///   continuing past the cursor *is* the rotation. Residual queue order
///   after a pass differs from the rotated deque's, but is unobservable:
///   the reference re-sorts before every pass.
enum ReadyQueue {
    Fifo(VecDeque<Job>),
    Priority(BTreeMap<PrioKey, Job>),
}

impl ReadyQueue {
    fn new(priority_ordered: bool) -> Self {
        if priority_ordered {
            ReadyQueue::Priority(BTreeMap::new())
        } else {
            ReadyQueue::Fifo(VecDeque::new())
        }
    }

    fn len(&self) -> usize {
        match self {
            ReadyQueue::Fifo(queue) => queue.len(),
            ReadyQueue::Priority(map) => map.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit a job: arrival, retry re-admission, or eviction requeue.
    fn push(&mut self, job: Job) {
        match self {
            ReadyQueue::Fifo(queue) => queue.push_back(job),
            ReadyQueue::Priority(map) => {
                map.insert(prio_key(&job), job);
            }
        }
    }

    /// The most urgent queued job (front of the scheduling order).
    fn urgent(&self) -> Option<Job> {
        match self {
            ReadyQueue::Fifo(queue) => queue.front().copied(),
            ReadyQueue::Priority(map) => map.first_key_value().map(|(_, job)| *job),
        }
    }

    /// Remove and return the most urgent queued job.
    fn take_urgent(&mut self) -> Option<Job> {
        match self {
            ReadyQueue::Fifo(queue) => queue.pop_front(),
            ReadyQueue::Priority(map) => map.pop_first().map(|(_, job)| job),
        }
    }

    /// Next job of a scheduling pass. FIFO pops the front (a stalled job
    /// re-enters through [`stalled`](Self::stalled)); the priority map
    /// advances the cyclic cursor — successor of the last offered key,
    /// wrapping to the minimum — and leaves the job in place until the
    /// offer resolves.
    fn offer(&mut self, cursor: &mut Option<PrioKey>) -> Job {
        match self {
            ReadyQueue::Fifo(queue) => queue.pop_front().expect("offer on an empty queue"),
            ReadyQueue::Priority(map) => {
                let key = (*cursor)
                    .and_then(|after| {
                        map.range((Excluded(after), Unbounded))
                            .next()
                            .map(|(key, _)| *key)
                    })
                    .unwrap_or_else(|| *map.first_key_value().expect("offer on an empty queue").0);
                *cursor = Some(key);
                map[&key]
            }
        }
    }

    /// The offered job was placed: drop it from the queue.
    fn placed(&mut self, cursor: &Option<PrioKey>) {
        match self {
            ReadyQueue::Fifo(_) => {} // already popped by `offer`
            ReadyQueue::Priority(map) => {
                let key = cursor.expect("placed without an offer");
                map.remove(&key).expect("offered job still queued");
            }
        }
    }

    /// The offered job stalled: FIFO re-appends it (the rotation); the
    /// priority map never removed it.
    fn stalled(&mut self, job: Job) {
        match self {
            ReadyQueue::Fifo(queue) => queue.push_back(job),
            ReadyQueue::Priority(_) => {}
        }
    }
}

/// Discrete-event simulator over a fixed number of cores.
///
/// Events are job arrivals (from an [`ArrivalPlan`]) and job completions.
/// After processing all events at a timestamp, the simulator makes a
/// scheduling pass over the ready queue: each queued job is offered to
/// the [`Scheduler`] at most once per pass, stalled jobs return to the back
/// of the queue, and the pass repeats from the front after every successful
/// placement (occupancy changed, so earlier stall decisions may now
/// resolve differently). The queue order is FIFO by default; see
/// [`QueueDiscipline`].
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct Simulator {
    num_cores: usize,
    discipline: QueueDiscipline,
}

impl Simulator {
    /// A FIFO simulator over `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0`.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        Simulator {
            num_cores,
            discipline: QueueDiscipline::Fifo,
        }
    }

    /// Select the ready-queue discipline.
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// The active queue discipline.
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// Number of simulated cores.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Run the full arrival plan to completion under `scheduler`.
    ///
    /// Equivalent to [`run_with_sink`](Self::run_with_sink) with the
    /// zero-overhead [`NullSink`]: the sink is monomorphised away and the
    /// hot path carries no tracing cost (guarded by the perf gate's
    /// `sim_trace_overhead` stage against
    /// [`run_reference`](Self::run_reference)).
    ///
    /// # Panics
    ///
    /// Panics if the policy deadlocks (stalls a job while every core is
    /// idle and no future event can change the situation), if it returns
    /// [`Decision::Run`] for a busy core, or if it returns a zero-cycle
    /// execution (which would silently skew preemption-refund fractions).
    pub fn run(&self, plan: &ArrivalPlan, scheduler: &mut dyn Scheduler) -> RunMetrics {
        self.run_with_sink(plan, scheduler, &mut NullSink)
    }

    /// Run the full arrival plan to completion under `scheduler`, emitting
    /// one [`TraceEvent`] per accounting action into `sink` (the flight
    /// recorder). See [`crate::trace`] for the event schema and the
    /// [`LedgerAuditor`](crate::trace::LedgerAuditor) that replays it.
    ///
    /// # Panics
    ///
    /// As in [`run`](Self::run).
    pub fn run_with_sink<T: TraceSink + ?Sized>(
        &self,
        plan: &ArrivalPlan,
        scheduler: &mut dyn Scheduler,
        sink: &mut T,
    ) -> RunMetrics {
        self.run_stream(plan.iter().copied(), scheduler, sink)
    }

    /// Run an **arrival stream** to completion under `scheduler` — the
    /// streaming generalisation of [`run_with_sink`](Self::run_with_sink).
    ///
    /// `arrivals` is any time-ordered iterator of [`Arrival`]s, for example
    /// a bounded open-loop process
    /// (`workloads::OpenLoop::poisson(…).take(n)`). Arrivals are pulled
    /// lazily, one event at a time, so the schedule is never materialised:
    /// steady-state memory is O(cores + queued jobs), independent of the
    /// total job count. Every entry point — [`run`](Self::run),
    /// [`run_with_sink`](Self::run_with_sink), this one and
    /// [`run_with_faults`](Self::run_with_faults) — drives the same indexed
    /// event loop, so batch/stream bit-identity is structural, and locked
    /// in by the `engine_properties` suite.
    ///
    /// # Panics
    ///
    /// As in [`run`](Self::run), and additionally if the stream yields a
    /// decreasing timestamp (the plan invariant lazy processes must keep).
    pub fn run_stream<I, T>(
        &self,
        arrivals: I,
        scheduler: &mut dyn Scheduler,
        sink: &mut T,
    ) -> RunMetrics
    where
        I: IntoIterator<Item = workloads::Arrival>,
        T: TraceSink + ?Sized,
    {
        self.run_faulted_loop::<true, _, _>(arrivals, scheduler, &FaultPlan::empty(), sink)
            .metrics
    }

    /// The retained **linear-scan** reference loop: untraced, and kept on
    /// the pre-index data structures — `Vec<Option<BusyInfo>>` occupancy
    /// with `iter().all/any` scans, a `HashSet` stall tracker, and a
    /// `VecDeque` ready queue re-sorted per round — with a fresh
    /// [`CoreIndex`] rebuilt from the views at every scheduler offer
    /// (O(num_cores) plus an allocation, the cost the indexed loop
    /// eliminates). It is both the bit-identity oracle for the property
    /// suites and the baseline the perf gates measure against: the
    /// `sim_trace_overhead` stage requires [`run`](Self::run)
    /// (monomorphised [`NullSink`]) to stay within 2 % of this loop, and
    /// the `sim_manycore` stage requires ≥5x over it at 256 cores. It is
    /// deliberately a second, independent implementation of the event
    /// semantics of the one indexed loop: change both together, and let
    /// the property suites prove they still agree.
    ///
    /// # Panics
    ///
    /// As in [`run`](Self::run).
    pub fn run_reference(&self, plan: &ArrivalPlan, scheduler: &mut dyn Scheduler) -> RunMetrics {
        let mut clock: u64 = 0;
        let mut cores: Vec<Option<BusyInfo>> = vec![None; self.num_cores];
        let mut running_exec: Vec<Option<crate::job::JobExecution>> = vec![None; self.num_cores];
        let mut tokens: Vec<u64> = vec![0; self.num_cores];
        let mut ready: VecDeque<Job> = VecDeque::new();
        let mut completions: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
        let mut arrivals = plan.iter().peekable();
        let mut next_seq: u64 = 0;

        let mut energy = EnergyBreakdown::new();
        let mut busy_cycles = vec![0u64; self.num_cores];
        let mut jobs_completed = 0u64;
        let mut stall_episodes = 0u64;
        let mut stall_offers = 0u64;
        let mut stalled: HashSet<u64> = HashSet::new();
        let mut turnaround = 0u64;
        let mut last_completion = 0u64;
        let mut by_priority: std::collections::BTreeMap<u8, crate::metrics::ClassStats> =
            std::collections::BTreeMap::new();
        let mut preemptions = 0u64;
        let priority_ordered = matches!(
            self.discipline,
            QueueDiscipline::Priority | QueueDiscipline::PreemptivePriority
        );

        loop {
            while let Some(&Reverse((_, index, token))) = completions.peek() {
                if token == tokens[index] {
                    break;
                }
                completions.pop();
            }
            let next_arrival = arrivals.peek().map(|a| a.time);
            let next_completion = completions.peek().map(|Reverse((t, _, _))| *t);
            let now = match (next_arrival, next_completion) {
                (Some(a), Some(c)) => a.min(c),
                (Some(a), None) => a,
                (None, Some(c)) => c,
                (None, None) => break,
            };

            debug_assert!(now >= clock, "time must not run backwards");
            let span = now - clock;
            if span > 0 {
                for (index, core) in cores.iter().enumerate() {
                    if core.is_none() {
                        let power = scheduler.idle_power_nj_per_cycle(CoreId(index));
                        energy.idle_nj += span as f64 * power;
                    }
                }
            }
            clock = now;

            while let Some(&Reverse((t, index, token))) = completions.peek() {
                if t > clock {
                    break;
                }
                completions.pop();
                if token != tokens[index] {
                    continue;
                }
                let info = cores[index]
                    .take()
                    .expect("completion for an occupied core");
                running_exec[index] = None;
                debug_assert_eq!(info.busy_until, t);
                jobs_completed += 1;
                turnaround += t - info.job.arrival;
                let class = by_priority.entry(info.job.priority).or_default();
                class.jobs += 1;
                class.turnaround_cycles += t - info.job.arrival;
                last_completion = last_completion.max(t);
                scheduler.on_complete(&info.job, CoreId(index), clock);
            }

            while let Some(arrival) = arrivals.peek() {
                if arrival.time > clock {
                    break;
                }
                let arrival = arrivals.next().expect("peeked");
                ready.push_back(Job {
                    seq: next_seq,
                    benchmark: arrival.benchmark,
                    arrival: arrival.time,
                    priority: arrival.priority,
                });
                next_seq += 1;
            }

            loop {
                if priority_ordered {
                    ready
                        .make_contiguous()
                        .sort_by_key(|job| (Reverse(job.priority), job.seq));
                }

                let mut evicted = false;
                if self.discipline == QueueDiscipline::PreemptivePriority
                    && cores.iter().all(Option::is_some)
                    && !ready.is_empty()
                {
                    let urgent = ready.front().copied().expect("non-empty");
                    let victim = (0..self.num_cores)
                        .filter_map(|i| cores[i].map(|info| (i, info)))
                        .min_by_key(|(i, info)| (info.job.priority, Reverse(info.busy_until), *i));
                    if let Some((index, info)) = victim {
                        if info.job.priority < urgent.priority {
                            let views: Vec<CoreView> = cores
                                .iter()
                                .enumerate()
                                .map(|(core_index, busy)| CoreView {
                                    id: CoreId(core_index),
                                    busy: if core_index == index { None } else { *busy },
                                    online: true,
                                })
                                .collect();
                            let probe = CoreIndex::from_views(&views);
                            match scheduler.schedule(&urgent, &probe, clock) {
                                Decision::Run { core, execution } => {
                                    assert_eq!(
                                        core.0, index,
                                        "policy placed {urgent} on busy {core} during a \
                                         preemption probe at cycle {clock}"
                                    );
                                    assert!(
                                        execution.cycles > 0,
                                        "policy scheduled {urgent} with a zero-cycle \
                                         execution at cycle {clock}"
                                    );
                                    let old = running_exec[index].take().expect("occupied");
                                    let remaining_cycles = info.busy_until - clock;
                                    let refund = remaining_cycles as f64 / old.cycles as f64;
                                    energy.dynamic_nj -= old.energy.dynamic_nj * refund;
                                    energy.static_nj -= old.energy.static_nj * refund;
                                    busy_cycles[index] -= remaining_cycles;
                                    tokens[index] += 1;
                                    preemptions += 1;
                                    scheduler.on_preempt(&info.job, CoreId(index), clock);
                                    ready.pop_front();
                                    ready.push_back(info.job);
                                    cores[index] = Some(BusyInfo {
                                        job: urgent,
                                        started: clock,
                                        busy_until: clock + execution.cycles,
                                    });
                                    running_exec[index] = Some(execution);
                                    completions.push(Reverse((
                                        clock + execution.cycles,
                                        index,
                                        tokens[index],
                                    )));
                                    energy += execution.energy;
                                    busy_cycles[index] += execution.cycles;
                                    stalled.remove(&urgent.seq);
                                    evicted = true;
                                }
                                Decision::Stall => {}
                            }
                        }
                    }
                }

                let mut remaining = ready.len();
                while remaining > 0 && cores.iter().any(Option::is_none) {
                    let job = ready.pop_front().expect("remaining > 0 implies non-empty");
                    let views: Vec<CoreView> = cores
                        .iter()
                        .enumerate()
                        .map(|(index, busy)| CoreView {
                            id: CoreId(index),
                            busy: *busy,
                            online: true,
                        })
                        .collect();
                    let offer = CoreIndex::from_views(&views);
                    match scheduler.schedule(&job, &offer, clock) {
                        Decision::Run { core, execution } => {
                            let slot = &mut cores[core.0];
                            assert!(
                                slot.is_none(),
                                "policy scheduled {job} onto busy {core} at cycle {clock}"
                            );
                            assert!(
                                execution.cycles > 0,
                                "policy scheduled {job} with a zero-cycle execution at \
                                 cycle {clock}"
                            );
                            debug_assert_eq!(
                                execution.energy.idle_nj, 0.0,
                                "execution energy must not carry idle energy"
                            );
                            *slot = Some(BusyInfo {
                                job,
                                started: clock,
                                busy_until: clock + execution.cycles,
                            });
                            running_exec[core.0] = Some(execution);
                            completions.push(Reverse((
                                clock + execution.cycles,
                                core.0,
                                tokens[core.0],
                            )));
                            energy += execution.energy;
                            busy_cycles[core.0] += execution.cycles;
                            stalled.remove(&job.seq);
                            remaining = ready.len();
                        }
                        Decision::Stall => {
                            stall_offers += 1;
                            if stalled.insert(job.seq) {
                                stall_episodes += 1;
                            }
                            ready.push_back(job);
                            remaining -= 1;
                        }
                    }
                }

                if !evicted {
                    break;
                }
            }

            let live_completions = cores.iter().any(Option::is_some);
            if !live_completions && arrivals.peek().is_none() && !ready.is_empty() {
                panic!(
                    "scheduler deadlock: {} job(s) stalled with every core idle at cycle {clock}",
                    ready.len()
                );
            }
        }

        RunMetrics {
            energy,
            total_cycles: last_completion,
            jobs_completed,
            stalls: stall_episodes,
            stall_offers,
            busy_cycles,
            turnaround_cycles: turnaround,
            by_priority,
            preemptions,
        }
    }

    /// Run the arrival plan under an injected [`FaultPlan`], with graceful
    /// degradation and honest accounting:
    ///
    /// * **core outages** evict the in-flight job (its unexecuted
    ///   remainder is refunded, exactly like a preemption) and requeue it
    ///   immediately for migration to another core — no retry attempt is
    ///   charged; offline cores accept no placements and burn no leakage;
    /// * **crashes** charge the executed fraction, refund the rest, and
    ///   schedule a retry after bounded exponential backoff; a job that
    ///   fails `max_attempts` times is *abandoned* — recorded explicitly
    ///   (never lost) and excluded from `jobs_completed`;
    /// * **hangs** are killed by the watchdog after `watchdog_factor`×
    ///   the nominal cycles, with the full stretched energy charged (the
    ///   honest cost of a runaway execution), then retried like a crash;
    /// * **predictor outages / corrupt features** don't touch this loop's
    ///   accounting — policies consult the plan themselves — but each
    ///   affected completion is stamped with a
    ///   [`Fallback`](TraceEvent::Fallback) event, and every availability
    ///   transition with a [`Degraded`](TraceEvent::Degraded) event.
    ///
    /// This is the simulator's one event loop: [`run`](Self::run),
    /// [`run_with_sink`](Self::run_with_sink) and
    /// [`run_stream`](Self::run_stream) are this loop with an empty plan.
    /// With an empty plan ([`FaultPlan::is_empty`]) every fault branch is
    /// compiled out, and the metrics are **bit-identical** to
    /// [`run_reference`](Self::run_reference) (property-tested, and
    /// perf-gated by the `sim_fault_overhead` stage).
    ///
    /// # Panics
    ///
    /// As in [`run`](Self::run); additionally panics if a policy places a
    /// job on an offline core.
    pub fn run_with_faults<T: TraceSink + ?Sized>(
        &self,
        plan: &ArrivalPlan,
        scheduler: &mut dyn Scheduler,
        fault_plan: &FaultPlan,
        sink: &mut T,
    ) -> FaultedRun {
        // Monomorphise the loop on plan emptiness: with `QUIET = true`
        // every fault branch is compiled out (no transition can ever mark
        // a core offline, so the idle mask is pure vacancy), and the
        // no-fault path is the very loop `run` takes.
        let arrivals = plan.iter().copied();
        if fault_plan.is_empty() {
            self.run_faulted_loop::<true, _, T>(arrivals, scheduler, fault_plan, sink)
        } else {
            self.run_faulted_loop::<false, _, T>(arrivals, scheduler, fault_plan, sink)
        }
    }

    /// The event loop behind every entry point. `QUIET` must equal
    /// `fault_plan.is_empty()`: the quiet build reads and writes no fault
    /// state at all.
    ///
    /// Never inlined, so every entry point with the same arrival and sink
    /// types runs the same machine code: copies inlined into `run_stream`
    /// and `run_with_faults` were laid out differently and timed up to
    /// ~7% apart.
    #[inline(never)]
    fn run_faulted_loop<const QUIET: bool, I, T>(
        &self,
        arrivals: I,
        scheduler: &mut dyn Scheduler,
        fault_plan: &FaultPlan,
        sink: &mut T,
    ) -> FaultedRun
    where
        I: IntoIterator<Item = workloads::Arrival>,
        T: TraceSink + ?Sized,
    {
        /// How the execution occupying a core will end: a completion, or
        /// a crash or watchdog kill after `executed` charged cycles.
        #[derive(Clone, Copy, PartialEq)]
        enum AttemptOutcome {
            Complete,
            Fail { kind: FaultKind, executed: u64 },
        }

        let priority_ordered = matches!(
            self.discipline,
            QueueDiscipline::Priority | QueueDiscipline::PreemptivePriority
        );
        let mut clock: u64 = 0;
        // Indexed occupancy: per-core views plus the incrementally
        // maintained idle bitmask and population counters. The idle mask
        // is vacant ∧ online, so outage transitions update it through
        // `set_online` and every saturation/liveness check below is O(1).
        let mut cores = CoreIndex::new(self.num_cores);
        // The JobExecution behind each occupied core (for preemption
        // refunds), and a per-core token that lazily invalidates end
        // events of preempted or evicted executions.
        let mut running_exec: Vec<Option<crate::job::JobExecution>> = vec![None; self.num_cores];
        let mut tokens: Vec<u64> = vec![0; self.num_cores];
        let mut ready = ReadyQueue::new(priority_ordered);
        // Min-heap of (event_time, core_index, token); stale tokens are
        // skipped on pop.
        let mut completions: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
        let mut arrivals = arrivals.into_iter().peekable();
        let mut next_seq: u64 = 0;
        // Streams must be time-ordered (the sorted-plan invariant); an
        // out-of-order arrival would silently corrupt idle-span and
        // turnaround accounting, so fail loudly instead.
        let mut last_arrival_time: u64 = 0;

        let mut energy = EnergyBreakdown::new();
        let mut busy_cycles = vec![0u64; self.num_cores];
        let mut jobs_completed = 0u64;
        // Distinct per-job stall episodes vs raw per-offer stall count:
        // `stalled` marks jobs currently inside an episode (cleared on
        // placement), so a waiting job inflates only `stall_offers` on the
        // passes triggered by unrelated arrivals/completions.
        let mut stall_episodes = 0u64;
        let mut stall_offers = 0u64;
        let mut stalled = SeqBitSet::new();
        let mut turnaround = 0u64;
        let mut last_completion = 0u64;
        let mut by_priority: BTreeMap<u8, crate::metrics::ClassStats> = BTreeMap::new();
        let mut preemptions = 0u64;

        // Fault-regime state, never touched by the quiet build.
        let mut stats = FaultStats::default();
        let mut outcome = if QUIET {
            Vec::new()
        } else {
            vec![AttemptOutcome::Complete; self.num_cores]
        };
        let transitions = fault_plan.transitions();
        let mut transition_cursor = 0usize;
        // Min-heap of (ready_at, seq) retry wakeups, with the parked jobs.
        let mut retries: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut retry_jobs: std::collections::HashMap<u64, Job> = std::collections::HashMap::new();
        // Crash/watchdog failures per job (outage evictions are free).
        let mut failures: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        debug_assert_eq!(QUIET, fault_plan.is_empty(), "QUIET is plan emptiness");

        /// The fault-aware placement charge: what to book, when the heap
        /// event fires, and how the attempt ends.
        struct Charge {
            execution: crate::job::JobExecution,
            event_at: u64,
            outcome: AttemptOutcome,
        }
        let charge_for = |job: &Job,
                          execution: crate::job::JobExecution,
                          clock: u64,
                          failures: &std::collections::HashMap<u64, u32>|
         -> Charge {
            // Empty-plan fast path: no failure-count lookup, no fault draw.
            if QUIET {
                return Charge {
                    event_at: clock + execution.cycles,
                    execution,
                    outcome: AttemptOutcome::Complete,
                };
            }
            let attempt = failures.get(&job.seq).copied().unwrap_or(0) + 1;
            match fault_plan.attempt_fault(job.seq, attempt, execution.cycles) {
                None => Charge {
                    event_at: clock + execution.cycles,
                    execution,
                    outcome: AttemptOutcome::Complete,
                },
                Some(AttemptFault::Crash { fraction_permille }) => {
                    let executed =
                        ((execution.cycles as u128 * u128::from(fraction_permille)) / 1000) as u64;
                    let executed = executed.clamp(1, execution.cycles - 1);
                    Charge {
                        event_at: clock + executed,
                        execution,
                        outcome: AttemptOutcome::Fail {
                            kind: FaultKind::Crash,
                            executed,
                        },
                    }
                }
                Some(AttemptFault::Hang) => {
                    let stretched = fault_plan.watchdog_cycles(execution.cycles);
                    let factor = fault_plan.watchdog_energy_factor();
                    Charge {
                        event_at: clock + stretched,
                        execution: crate::job::JobExecution {
                            cycles: stretched,
                            energy: EnergyBreakdown {
                                dynamic_nj: execution.energy.dynamic_nj * factor,
                                static_nj: execution.energy.static_nj * factor,
                                ..EnergyBreakdown::new()
                            },
                        },
                        // The stretched run is fully charged: its refund
                        // is an exact 0.0 (honest accounting of waste).
                        outcome: AttemptOutcome::Fail {
                            kind: FaultKind::Watchdog,
                            executed: stretched,
                        },
                    }
                }
            }
        };

        loop {
            // Next event time. Skip completion events whose execution was
            // preempted or evicted (stale token).
            while let Some(&Reverse((_, index, token))) = completions.peek() {
                if token == tokens[index] {
                    break;
                }
                completions.pop();
            }
            let next_arrival = arrivals.peek().map(|a| a.time);
            let next_completion = completions.peek().map(|Reverse((t, _, _))| *t);
            let now = if QUIET {
                // Empty-plan fast path: retries and transitions cannot
                // exist, so event selection is the two-way match of
                // arrivals against completions.
                match (next_arrival, next_completion) {
                    (Some(a), Some(c)) => a.min(c),
                    (Some(a), None) => a,
                    (None, Some(c)) => c,
                    (None, None) => break,
                }
            } else {
                let next_retry = retries.peek().map(|Reverse((t, _))| *t);
                let next_transition = transitions.get(transition_cursor).map(|t| t.at);
                // Availability transitions alone are not work: once no
                // job can ever run again, stop — don't simulate trailing
                // outage windows (the untraced reference ends at its last
                // event too).
                let work_remaining = next_arrival.is_some()
                    || next_completion.is_some()
                    || next_retry.is_some()
                    || !ready.is_empty();
                if !work_remaining {
                    break;
                }
                [next_arrival, next_completion, next_retry, next_transition]
                    .into_iter()
                    .flatten()
                    .min()
                    .unwrap_or_else(|| {
                        panic!(
                            "scheduler deadlock: {} job(s) stalled with no future event at \
                             cycle {clock}",
                            ready.len()
                        )
                    })
            };

            // Accrue idle energy over [clock, now); offline cores are
            // powered down and burn nothing — the idle mask already
            // excludes them (vacant ∧ online), so one walk serves both
            // the quiet and the faulted regime.
            debug_assert!(now >= clock, "time must not run backwards");
            let span = now - clock;
            if span > 0 && cores.idle_count() > 0 {
                for core in cores.idle_cores() {
                    let power = scheduler.idle_power_nj_per_cycle(core);
                    energy.idle_nj += span as f64 * power;
                    if sink.enabled() {
                        sink.record(TraceEvent::IdleSpan {
                            core,
                            from: clock,
                            to: now,
                            idle_power_nj_per_cycle: power,
                        });
                    }
                }
            }
            clock = now;

            // Retire every execution-end event due now: completions,
            // crashes, and watchdog kills (skipping stale events).
            while let Some(&Reverse((t, index, token))) = completions.peek() {
                if t > clock {
                    break;
                }
                completions.pop();
                if token != tokens[index] {
                    continue; // preempted or outage-evicted execution
                }
                let info = cores
                    .vacate(CoreId(index))
                    .expect("event for an occupied core");
                let exec = running_exec[index].take();
                // The quiet build never reads `outcome`: every end event
                // is a completion.
                let ended = if QUIET {
                    AttemptOutcome::Complete
                } else {
                    outcome[index]
                };
                match ended {
                    AttemptOutcome::Complete => {
                        debug_assert_eq!(info.busy_until, t);
                        jobs_completed += 1;
                        turnaround += t - info.job.arrival;
                        let class = by_priority.entry(info.job.priority).or_default();
                        class.jobs += 1;
                        class.turnaround_cycles += t - info.job.arrival;
                        last_completion = last_completion.max(t);
                        if sink.enabled() {
                            sink.record(TraceEvent::Completion {
                                seq: info.job.seq,
                                benchmark: info.job.benchmark,
                                core: CoreId(index),
                                at: t,
                                arrival: info.job.arrival,
                                priority: info.job.priority,
                            });
                        }
                        // Environment record: this completion's prediction
                        // was (or would be) served degraded. Policies
                        // consult the same pure plan queries, so the
                        // trace agrees with their behaviour.
                        if !QUIET {
                            if let Some(level) = fault_plan.fallback_level(info.job.seq, t) {
                                stats.fallbacks += 1;
                                if sink.enabled() {
                                    sink.record(TraceEvent::Fallback {
                                        seq: info.job.seq,
                                        benchmark: info.job.benchmark,
                                        at: t,
                                        level,
                                    });
                                }
                            }
                        }
                        scheduler.on_complete(&info.job, CoreId(index), clock);
                    }
                    AttemptOutcome::Fail { kind, executed } => {
                        let exec = exec.expect("occupied");
                        outcome[index] = AttemptOutcome::Complete;
                        debug_assert_eq!(info.started + executed, t);
                        // Refund the unexecuted remainder — the exact
                        // eviction arithmetic, replayed by the auditor.
                        let remaining_cycles = exec.cycles - executed;
                        let refund = remaining_cycles as f64 / exec.cycles as f64;
                        energy.dynamic_nj -= exec.energy.dynamic_nj * refund;
                        energy.static_nj -= exec.energy.static_nj * refund;
                        busy_cycles[index] -= remaining_cycles;
                        match kind {
                            FaultKind::Crash => stats.crashes += 1,
                            _ => stats.watchdog_kills += 1,
                        }
                        if sink.enabled() {
                            sink.record(TraceEvent::Fault {
                                seq: info.job.seq,
                                benchmark: info.job.benchmark,
                                core: CoreId(index),
                                at: t,
                                kind,
                                total_cycles: exec.cycles,
                                executed_cycles: executed,
                                dynamic_nj: exec.energy.dynamic_nj,
                                static_nj: exec.energy.static_nj,
                            });
                        }
                        scheduler.on_preempt(&info.job, CoreId(index), clock);
                        Self::schedule_retry(
                            info.job,
                            fault_plan,
                            clock,
                            &mut failures,
                            &mut retries,
                            &mut retry_jobs,
                            &mut stats,
                            sink,
                        );
                    }
                }
            }

            // Fault-regime events due now (the quiet build has none).
            if !QUIET {
                // Process availability transitions due now. A core dropping
                // offline evicts its occupant first (refund + requeue for
                // migration — no retry attempt charged), then announces the
                // transition, so the trace proves the core was vacant.
                while let Some(transition) = transitions.get(transition_cursor) {
                    if transition.at > clock {
                        break;
                    }
                    transition_cursor += 1;
                    if let DegradedComponent::Core(core) = transition.component {
                        let index = core.0;
                        if index >= self.num_cores {
                            continue; // plan built for a wider machine
                        }
                        if !transition.online {
                            if let Some(info) = cores.vacate(core) {
                                let exec = running_exec[index].take().expect("occupied");
                                let executed = clock - info.started;
                                let remaining_cycles = exec.cycles - executed;
                                let refund = remaining_cycles as f64 / exec.cycles as f64;
                                energy.dynamic_nj -= exec.energy.dynamic_nj * refund;
                                energy.static_nj -= exec.energy.static_nj * refund;
                                busy_cycles[index] -= remaining_cycles;
                                tokens[index] += 1; // invalidate its end event
                                outcome[index] = AttemptOutcome::Complete;
                                stats.outage_evictions += 1;
                                if sink.enabled() {
                                    sink.record(TraceEvent::Fault {
                                        seq: info.job.seq,
                                        benchmark: info.job.benchmark,
                                        core,
                                        at: clock,
                                        kind: FaultKind::CoreOutage,
                                        total_cycles: exec.cycles,
                                        executed_cycles: executed,
                                        dynamic_nj: exec.energy.dynamic_nj,
                                        static_nj: exec.energy.static_nj,
                                    });
                                }
                                scheduler.on_preempt(&info.job, core, clock);
                                ready.push(info.job);
                            }
                            cores.set_online(core, false);
                        } else {
                            cores.set_online(core, true);
                        }
                    }
                    stats.degraded_transitions += 1;
                    if sink.enabled() {
                        sink.record(TraceEvent::Degraded {
                            at: clock,
                            component: transition.component,
                            online: transition.online,
                        });
                    }
                }

                // Re-admit retries whose backoff has expired.
                while let Some(&Reverse((t, seq))) = retries.peek() {
                    if t > clock {
                        break;
                    }
                    retries.pop();
                    let job = retry_jobs.remove(&seq).expect("parked retry job");
                    ready.push(job);
                }
            }

            // Enqueue every arrival due now.
            while let Some(arrival) = arrivals.peek() {
                if arrival.time > clock {
                    break;
                }
                let arrival = arrivals.next().expect("peeked");
                assert!(
                    arrival.time >= last_arrival_time,
                    "arrival stream must be time-ordered: {} after {}",
                    arrival.time,
                    last_arrival_time
                );
                last_arrival_time = arrival.time;
                let job = Job {
                    seq: next_seq,
                    benchmark: arrival.benchmark,
                    arrival: arrival.time,
                    priority: arrival.priority,
                };
                if sink.enabled() {
                    sink.record(TraceEvent::Arrival {
                        seq: job.seq,
                        benchmark: job.benchmark,
                        at: job.arrival,
                        priority: job.priority,
                    });
                }
                ready.push(job);
                next_seq += 1;
            }

            // Preempt-and-schedule rounds: under the preemptive
            // discipline, a queued job that outranks the lowest-priority
            // running job may evict it when every core is busy; the
            // scheduling pass then places queued jobs. Rounds repeat until
            // no eviction occurs (non-preemptive disciplines run exactly
            // one round). "Every core busy" counts offline cores as
            // unavailable rather than idle — exactly an empty idle mask
            // with something running.
            //
            // Eviction is committed only if the policy will place the
            // urgent job on the freed core *right now*: the scheduler is
            // probed with the victim's core vacated, then restored on
            // decline. A `Stall` answer leaves the victim running (this
            // relies on the documented contract that `schedule` has no side
            // effects when it returns `Stall`), preventing evict/stall/
            // retake livelock with policies that prefer to wait for a
            // specific core.
            loop {
                let mut evicted = false;
                if self.discipline == QueueDiscipline::PreemptivePriority
                    && cores.idle_count() == 0
                    && cores.busy_count() > 0
                    && !ready.is_empty()
                {
                    let urgent = ready.urgent().expect("non-empty");
                    // Victim: lowest priority, then most remaining cycles
                    // (greatest refund), then core index.
                    let victim = cores
                        .views()
                        .iter()
                        .filter_map(|view| view.busy.map(|info| (view.id.0, info)))
                        .min_by_key(|(i, info)| (info.job.priority, Reverse(info.busy_until), *i));
                    if let Some((index, info)) = victim {
                        if info.job.priority < urgent.priority {
                            let saved = cores.vacate(CoreId(index)).expect("victim occupied");
                            debug_assert_eq!(saved, info);
                            match scheduler.schedule(&urgent, &cores, clock) {
                                Decision::Run { core, execution } => {
                                    assert_eq!(
                                        core.0, index,
                                        "policy placed {urgent} on busy {core} during a \
                                         preemption probe at cycle {clock}"
                                    );
                                    assert!(
                                        execution.cycles > 0,
                                        "policy scheduled {urgent} with a zero-cycle \
                                         execution at cycle {clock}"
                                    );
                                    if sink.enabled() {
                                        sink.record(TraceEvent::PreemptionProbe {
                                            seq: urgent.seq,
                                            victim: info.job.seq,
                                            core: CoreId(index),
                                            at: clock,
                                            granted: true,
                                        });
                                    }
                                    // Evict: refund against the *charged*
                                    // execution (nominal for a pending
                                    // crash, stretched for a hang) — the
                                    // busy_until horizon matches it in
                                    // every case.
                                    let old = running_exec[index].take().expect("occupied");
                                    let remaining_cycles = info.busy_until - clock;
                                    let refund = remaining_cycles as f64 / old.cycles as f64;
                                    energy.dynamic_nj -= old.energy.dynamic_nj * refund;
                                    energy.static_nj -= old.energy.static_nj * refund;
                                    busy_cycles[index] -= remaining_cycles;
                                    tokens[index] += 1;
                                    preemptions += 1;
                                    if sink.enabled() {
                                        sink.record(TraceEvent::Eviction {
                                            victim: info.job.seq,
                                            core: CoreId(index),
                                            at: clock,
                                            total_cycles: old.cycles,
                                            remaining_cycles,
                                            dynamic_nj: old.energy.dynamic_nj,
                                            static_nj: old.energy.static_nj,
                                        });
                                    }
                                    scheduler.on_preempt(&info.job, CoreId(index), clock);
                                    let _ = ready.take_urgent();
                                    ready.push(info.job);
                                    // Place the urgent job through the
                                    // fault draw.
                                    let charge = charge_for(&urgent, execution, clock, &failures);
                                    cores.place(
                                        CoreId(index),
                                        BusyInfo {
                                            job: urgent,
                                            started: clock,
                                            busy_until: clock + charge.execution.cycles,
                                        },
                                    );
                                    running_exec[index] = Some(charge.execution);
                                    if !QUIET {
                                        outcome[index] = charge.outcome;
                                    }
                                    completions.push(Reverse((
                                        charge.event_at,
                                        index,
                                        tokens[index],
                                    )));
                                    energy += charge.execution.energy;
                                    busy_cycles[index] += charge.execution.cycles;
                                    stalled.remove(urgent.seq);
                                    if sink.enabled() {
                                        sink.record(TraceEvent::Placement {
                                            seq: urgent.seq,
                                            benchmark: urgent.benchmark,
                                            core: CoreId(index),
                                            at: clock,
                                            cycles: charge.execution.cycles,
                                            dynamic_nj: charge.execution.energy.dynamic_nj,
                                            static_nj: charge.execution.energy.static_nj,
                                            kind: PlacementKind::Preemption,
                                        });
                                    }
                                    evicted = true;
                                }
                                Decision::Stall => {
                                    cores.place(CoreId(index), saved);
                                    if sink.enabled() {
                                        sink.record(TraceEvent::PreemptionProbe {
                                            seq: urgent.seq,
                                            victim: info.job.seq,
                                            core: CoreId(index),
                                            at: clock,
                                            granted: false,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }

                // Scheduling pass: offer each queued job once; restart the
                // count after every placement. The saturation check is an
                // O(1) idle-count read; the offer order is the cyclic
                // cursor under priority disciplines (see [`ReadyQueue`]).
                let mut remaining = ready.len();
                let mut cursor: Option<PrioKey> = None;
                while remaining > 0 && cores.idle_count() > 0 {
                    let job = ready.offer(&mut cursor);
                    match scheduler.schedule(&job, &cores, clock) {
                        Decision::Run { core, execution } => {
                            assert!(
                                QUIET || cores.view(core).online,
                                "policy scheduled {job} onto offline {core} at cycle {clock}"
                            );
                            assert!(
                                cores.view(core).busy.is_none(),
                                "policy scheduled {job} onto busy {core} at cycle {clock}"
                            );
                            assert!(
                                execution.cycles > 0,
                                "policy scheduled {job} with a zero-cycle execution at \
                                 cycle {clock}"
                            );
                            debug_assert_eq!(
                                execution.energy.idle_nj, 0.0,
                                "execution energy must not carry idle energy"
                            );
                            let charge = charge_for(&job, execution, clock, &failures);
                            ready.placed(&cursor);
                            cores.place(
                                core,
                                BusyInfo {
                                    job,
                                    started: clock,
                                    busy_until: clock + charge.execution.cycles,
                                },
                            );
                            running_exec[core.0] = Some(charge.execution);
                            if !QUIET {
                                outcome[core.0] = charge.outcome;
                            }
                            completions.push(Reverse((charge.event_at, core.0, tokens[core.0])));
                            energy += charge.execution.energy;
                            busy_cycles[core.0] += charge.execution.cycles;
                            stalled.remove(job.seq);
                            if sink.enabled() {
                                sink.record(TraceEvent::Placement {
                                    seq: job.seq,
                                    benchmark: job.benchmark,
                                    core,
                                    at: clock,
                                    cycles: charge.execution.cycles,
                                    dynamic_nj: charge.execution.energy.dynamic_nj,
                                    static_nj: charge.execution.energy.static_nj,
                                    kind: PlacementKind::Pass,
                                });
                            }
                            remaining = ready.len();
                        }
                        Decision::Stall => {
                            stall_offers += 1;
                            if stalled.insert(job.seq) {
                                stall_episodes += 1;
                            }
                            if sink.enabled() {
                                sink.record(TraceEvent::Stall {
                                    seq: job.seq,
                                    benchmark: job.benchmark,
                                    at: clock,
                                });
                            }
                            ready.stalled(job);
                            remaining -= 1;
                        }
                    }
                }

                if !evicted {
                    break;
                }
            }

            // Deadlock guard: nothing in flight, nothing arriving, no
            // retry or availability transition pending, but jobs remain
            // queued — the policy can never make progress. O(1) via the
            // busy counter.
            let live_completions = cores.busy_count() > 0;
            if !live_completions
                && arrivals.peek().is_none()
                && (QUIET || (retries.is_empty() && transition_cursor >= transitions.len()))
                && !ready.is_empty()
            {
                panic!(
                    "scheduler deadlock: {} job(s) stalled with every core idle at cycle {clock}",
                    ready.len()
                );
            }
        }

        debug_assert!(ready.is_empty(), "loop exited with queued jobs");
        debug_assert!(retry_jobs.is_empty(), "loop exited with parked retries");
        debug_assert_eq!(
            jobs_completed + stats.jobs_failed,
            next_seq,
            "conservation: every arrival completes or is abandoned"
        );
        FaultedRun {
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
            faults: stats,
        }
    }

    /// Crash/watchdog aftermath: charge the failure, then either park the
    /// job for retry after exponential backoff or abandon it at the cap.
    #[allow(clippy::too_many_arguments)]
    fn schedule_retry<T: TraceSink + ?Sized>(
        job: Job,
        fault_plan: &FaultPlan,
        clock: u64,
        failures: &mut std::collections::HashMap<u64, u32>,
        retries: &mut BinaryHeap<Reverse<(u64, u64)>>,
        retry_jobs: &mut std::collections::HashMap<u64, Job>,
        stats: &mut FaultStats,
        sink: &mut T,
    ) {
        let count = failures.entry(job.seq).or_insert(0);
        *count += 1;
        let count = *count;
        stats.max_attempts_observed = stats.max_attempts_observed.max(count);
        if count >= fault_plan.max_attempts() {
            stats.jobs_failed += 1;
            if sink.enabled() {
                sink.record(TraceEvent::Retry {
                    seq: job.seq,
                    benchmark: job.benchmark,
                    at: clock,
                    attempt: count,
                    ready_at: clock,
                    abandoned: true,
                });
            }
        } else {
            let ready_at = clock.saturating_add(fault_plan.backoff(count));
            stats.retries += 1;
            if sink.enabled() {
                sink.record(TraceEvent::Retry {
                    seq: job.seq,
                    benchmark: job.benchmark,
                    at: clock,
                    attempt: count,
                    ready_at,
                    abandoned: false,
                });
            }
            retries.push(Reverse((ready_at, job.seq)));
            retry_jobs.insert(job.seq, job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobExecution;
    use workloads::{Arrival, BenchmarkId};

    /// Runs everything on core 0 for a fixed duration.
    struct SingleCore {
        duration: u64,
        completions_seen: Vec<u64>,
    }

    impl Scheduler for SingleCore {
        fn schedule(&mut self, _job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            if cores.is_idle(CoreId(0)) {
                Decision::run(
                    CoreId(0),
                    JobExecution {
                        cycles: self.duration,
                        energy: EnergyBreakdown {
                            dynamic_nj: 5.0,
                            ..EnergyBreakdown::new()
                        },
                    },
                )
            } else {
                Decision::Stall
            }
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            1.0
        }

        fn on_complete(&mut self, job: &Job, _core: CoreId, _now: u64) {
            self.completions_seen.push(job.seq);
        }
    }

    fn plan(times: &[u64]) -> ArrivalPlan {
        ArrivalPlan::from_arrivals(
            times
                .iter()
                .enumerate()
                .map(|(i, &t)| Arrival::new(t, BenchmarkId(i % 3)))
                .collect(),
        )
    }

    #[test]
    fn serial_execution_on_one_core() {
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(2).run(&plan(&[0, 10, 20]), &mut policy);
        assert_eq!(metrics.jobs_completed, 3);
        // Jobs run back-to-back on core 0: completions at 100, 200, 300.
        assert_eq!(metrics.total_cycles, 300);
        assert_eq!(metrics.busy_cycles[0], 300);
        assert_eq!(metrics.busy_cycles[1], 0);
        assert_eq!(
            policy.completions_seen,
            vec![0, 1, 2],
            "FIFO completion order"
        );
    }

    #[test]
    fn dynamic_energy_accumulates_per_job() {
        let mut policy = SingleCore {
            duration: 50,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(1).run(&plan(&[0, 0, 0, 0]), &mut policy);
        assert_eq!(metrics.energy.dynamic_nj, 20.0);
    }

    #[test]
    fn idle_energy_accrues_on_unused_cores() {
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(2).run(&plan(&[0]), &mut policy);
        // Core 1 idles for the whole 100-cycle run at 1 nJ/cycle.
        assert_eq!(metrics.energy.idle_nj, 100.0);
    }

    #[test]
    fn idle_energy_counts_gaps_between_arrivals() {
        let mut policy = SingleCore {
            duration: 10,
            completions_seen: Vec::new(),
        };
        // Job at 0 (busy 0-10), gap, job at 50 (busy 50-60).
        let metrics = Simulator::new(1).run(&plan(&[0, 50]), &mut policy);
        // Core 0 idle during [10, 50): 40 cycles.
        assert_eq!(metrics.energy.idle_nj, 40.0);
        assert_eq!(metrics.total_cycles, 60);
    }

    #[test]
    fn stalls_are_counted() {
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(2).run(&plan(&[0, 0]), &mut policy);
        // Second job arrives while core 0 is busy: it stalls once at t=0,
        // then succeeds at t=100.
        assert_eq!(metrics.stalls, 1);
        assert_eq!(metrics.jobs_completed, 2);
    }

    #[test]
    fn turnaround_includes_queueing() {
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(1).run(&plan(&[0, 0]), &mut policy);
        // Job 0: 0 -> 100 (100). Job 1: 0 -> 200 (200).
        assert_eq!(metrics.turnaround_cycles, 300);
        assert_eq!(metrics.mean_turnaround(), 150.0);
    }

    /// Stalls the head job a bounded number of times but would run any
    /// other job: exercises the at-most-once-per-pass rule.
    struct StallFirstJob {
        stalls_left: u32,
    }

    impl Scheduler for StallFirstJob {
        fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            if job.seq == 0 && self.stalls_left > 0 {
                self.stalls_left -= 1;
                return Decision::Stall;
            }
            match cores.first_idle() {
                Some(core) => Decision::run(
                    core,
                    JobExecution {
                        cycles: 10,
                        energy: EnergyBreakdown::new(),
                    },
                ),
                None => Decision::Stall,
            }
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            0.0
        }
    }

    #[test]
    fn stalled_head_does_not_block_later_jobs() {
        let mut policy = StallFirstJob { stalls_left: 1 };
        let metrics = Simulator::new(2).run(&plan(&[0, 0, 0]), &mut policy);
        assert_eq!(metrics.jobs_completed, 3);
        // Jobs 1 and 2 ran in parallel at t=0 while job 0 stalled; job 0
        // ran when the cores freed at t=10.
        assert_eq!(metrics.stalls, 1);
        assert_eq!(metrics.total_cycles, 20);
    }

    /// Always stalls: must be detected as a deadlock.
    struct AlwaysStall;

    impl Scheduler for AlwaysStall {
        fn schedule(&mut self, _job: &Job, _cores: &CoreIndex, _now: u64) -> Decision {
            Decision::Stall
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            0.0
        }
    }

    #[test]
    #[should_panic(expected = "scheduler deadlock")]
    fn deadlock_is_detected() {
        let _ = Simulator::new(1).run(&plan(&[0]), &mut AlwaysStall);
    }

    #[test]
    #[should_panic(expected = "arrival stream must be time-ordered")]
    fn out_of_order_stream_is_rejected() {
        let mut policy = SingleCore {
            duration: 10,
            completions_seen: Vec::new(),
        };
        let stream = [50, 20].map(|t| Arrival::new(t, BenchmarkId(0)));
        let _ = Simulator::new(1).run_stream(stream, &mut policy, &mut NullSink);
    }

    /// Schedules onto a busy core: must be caught.
    struct DoubleBook;

    impl Scheduler for DoubleBook {
        fn schedule(&mut self, _job: &Job, _cores: &CoreIndex, _now: u64) -> Decision {
            Decision::run(
                CoreId(0),
                JobExecution {
                    cycles: 100,
                    energy: EnergyBreakdown::new(),
                },
            )
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            0.0
        }
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn double_booking_is_detected() {
        // Two cores so the pass keeps offering jobs after core 0 fills;
        // the policy then targets the busy core 0 again.
        let _ = Simulator::new(2).run(&plan(&[0, 0]), &mut DoubleBook);
    }

    #[test]
    fn priority_discipline_reorders_the_queue() {
        // Three jobs at t=0 with priorities 0, 0, 2 on one core: under
        // FIFO they run in arrival order; under Priority the urgent job
        // jumps ahead.
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 0,
                benchmark: BenchmarkId(1),
                priority: 0,
            },
            Arrival {
                time: 0,
                benchmark: BenchmarkId(2),
                priority: 2,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);

        let mut fifo_policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let _ = Simulator::new(1).run(&plan, &mut fifo_policy);
        assert_eq!(fifo_policy.completions_seen, vec![0, 1, 2]);

        let mut priority_policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let _ = Simulator::new(1)
            .with_discipline(QueueDiscipline::Priority)
            .run(&plan, &mut priority_policy);
        assert_eq!(
            priority_policy.completions_seen,
            vec![2, 0, 1],
            "urgent job first"
        );
    }

    #[test]
    fn priority_is_fifo_within_a_class() {
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 1,
            },
            Arrival {
                time: 0,
                benchmark: BenchmarkId(1),
                priority: 1,
            },
            Arrival {
                time: 0,
                benchmark: BenchmarkId(2),
                priority: 1,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let mut policy = SingleCore {
            duration: 50,
            completions_seen: Vec::new(),
        };
        let _ = Simulator::new(1)
            .with_discipline(QueueDiscipline::Priority)
            .run(&plan, &mut policy);
        assert_eq!(policy.completions_seen, vec![0, 1, 2]);
    }

    #[test]
    fn priority_is_non_preemptive() {
        // A low-priority job running when an urgent one arrives keeps the
        // core (no preemption — the paper's future-work boundary we keep).
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 10,
                benchmark: BenchmarkId(1),
                priority: 5,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(1)
            .with_discipline(QueueDiscipline::Priority)
            .run(&plan, &mut policy);
        assert_eq!(policy.completions_seen, vec![0, 1]);
        assert_eq!(
            metrics.total_cycles, 200,
            "urgent job waits for the running one"
        );
    }

    #[test]
    fn empty_plan_completes_trivially() {
        let metrics = Simulator::new(3).run(&ArrivalPlan::from_arrivals(vec![]), &mut AlwaysStall);
        assert_eq!(metrics.jobs_completed, 0);
        assert_eq!(metrics.total_cycles, 0);
        assert_eq!(metrics.energy.total(), 0.0);
    }

    #[test]
    fn preemption_evicts_a_lower_priority_job() {
        // Background job running since t=0 (duration 100); an urgent job
        // arrives at t=30 with every core busy: the victim is evicted,
        // the urgent job runs 30..130, and the victim restarts after it.
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 30,
                benchmark: BenchmarkId(1),
                priority: 3,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(1)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut policy);
        assert_eq!(metrics.preemptions, 1);
        assert_eq!(policy.completions_seen, vec![1, 0], "urgent finishes first");
        // Urgent: 30..130; victim restarts: 130..230.
        assert_eq!(metrics.total_cycles, 230);
        // Busy cycles: 30 (wasted partial) + 100 (urgent) + 100 (restart).
        assert_eq!(metrics.busy_cycles[0], 230);
    }

    #[test]
    fn preemption_refunds_unexecuted_energy() {
        // Same scenario; each execution charges 5 nJ dynamic. The evicted
        // job ran 30 of 100 cycles: 70% of its 5 nJ is refunded, then the
        // restart charges 5 nJ again: total = 5*0.3 + 5 + 5 = 11.5.
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 30,
                benchmark: BenchmarkId(1),
                priority: 3,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(1)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut policy);
        assert!(
            (metrics.energy.dynamic_nj - 11.5).abs() < 1e-9,
            "{}",
            metrics.energy.dynamic_nj
        );
    }

    #[test]
    fn no_preemption_between_equal_priorities() {
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 1,
            },
            Arrival {
                time: 30,
                benchmark: BenchmarkId(1),
                priority: 1,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(1)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut policy);
        assert_eq!(metrics.preemptions, 0);
        assert_eq!(policy.completions_seen, vec![0, 1]);
    }

    #[test]
    fn preemption_prefers_an_idle_core_when_one_exists() {
        // Two cores, one busy with low priority, one idle: the urgent job
        // takes the idle core; no eviction.
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 30,
                benchmark: BenchmarkId(1),
                priority: 3,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        struct AnyIdle;
        impl Scheduler for AnyIdle {
            fn schedule(&mut self, _job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
                match cores.first_idle() {
                    Some(core) => Decision::run(
                        core,
                        JobExecution {
                            cycles: 100,
                            energy: EnergyBreakdown::new(),
                        },
                    ),
                    None => Decision::Stall,
                }
            }
            fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
                0.0
            }
        }
        let metrics = Simulator::new(2)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut AnyIdle);
        assert_eq!(metrics.preemptions, 0);
        assert_eq!(metrics.jobs_completed, 2);
    }

    #[test]
    fn on_preempt_hook_fires() {
        struct Recorder {
            inner: SingleCore,
            preempted: Vec<u64>,
        }
        impl Scheduler for Recorder {
            fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
                self.inner.schedule(job, cores, now)
            }
            fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
                self.inner.idle_power_nj_per_cycle(core)
            }
            fn on_preempt(&mut self, job: &Job, _core: CoreId, _now: u64) {
                self.preempted.push(job.seq);
            }
        }
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 10,
                benchmark: BenchmarkId(1),
                priority: 2,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let mut policy = Recorder {
            inner: SingleCore {
                duration: 100,
                completions_seen: Vec::new(),
            },
            preempted: Vec::new(),
        };
        let _ = Simulator::new(1)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut policy);
        assert_eq!(policy.preempted, vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = Simulator::new(0);
    }

    #[test]
    fn stall_offers_exceed_episodes_for_a_long_wait() {
        // Two cores, but the policy only ever uses core 0, so core 1 stays
        // idle and every scheduling pass re-offers the whole queue: offers
        // pile up while each waiting job has exactly one episode.
        let mut policy = SingleCore {
            duration: 1_000,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(2).run(&plan(&[0, 10, 20, 30]), &mut policy);
        assert_eq!(metrics.jobs_completed, 4);
        // Jobs 1..3 each stall exactly once as an episode...
        assert_eq!(metrics.stalls, 3);
        // ...but are re-offered on later passes: job 1 is offered at t=10,
        // 20, 30 (3 offers), job 2 at 20, 30 (2), job 3 at 30 (1). When
        // job 0 completes at t=1000 the pass places job 1 then stalls jobs
        // 2 and 3 again (+2); job 2's completion stalls job 3 once more
        // (+1). Total offers strictly exceed episodes.
        assert!(metrics.stall_offers > metrics.stalls);
        assert_eq!(metrics.stall_offers, 9);
    }

    /// Pins job `seq` to core `seq % 2`; stalls when that core is busy.
    struct PinBySeq;

    impl Scheduler for PinBySeq {
        fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            let core = CoreId((job.seq % 2) as usize);
            if cores.is_idle(core) {
                Decision::run(
                    core,
                    JobExecution {
                        cycles: 100,
                        energy: EnergyBreakdown::new(),
                    },
                )
            } else {
                Decision::Stall
            }
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            0.0
        }
    }

    #[test]
    fn preemption_requeue_starts_a_new_stall_episode() {
        // Jobs 0 and 1 fill both cores at t=0; an urgent job (seq 2, pinned
        // to core 0) evicts job 0 at t=30. When core 1 frees at t=100 the
        // evicted job is offered there but declines (pinned to core 0):
        // that wait is a fresh stall episode even though job 0 had already
        // run once without stalling.
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 0,
                benchmark: BenchmarkId(1),
                priority: 0,
            },
            Arrival {
                time: 30,
                benchmark: BenchmarkId(2),
                priority: 3,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let metrics = Simulator::new(2)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut PinBySeq);
        assert_eq!(metrics.preemptions, 1);
        assert_eq!(metrics.stalls, 1, "the evicted job's re-queue wait");
        assert_eq!(metrics.stall_offers, 1);
        assert_eq!(metrics.jobs_completed, 3);
    }

    /// Returns a zero-cycle execution: must be rejected at placement.
    struct ZeroCycle;

    impl Scheduler for ZeroCycle {
        fn schedule(&mut self, _job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            Decision::run(
                cores.view(CoreId(0)).id,
                JobExecution {
                    cycles: 0,
                    energy: EnergyBreakdown::new(),
                },
            )
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            0.0
        }
    }

    #[test]
    #[should_panic(expected = "zero-cycle execution")]
    fn zero_cycle_execution_is_rejected() {
        let _ = Simulator::new(1).run(&plan(&[0]), &mut ZeroCycle);
    }

    #[test]
    fn run_and_run_reference_agree_bit_for_bit() {
        for discipline in [
            QueueDiscipline::Fifo,
            QueueDiscipline::Priority,
            QueueDiscipline::PreemptivePriority,
        ] {
            let plan = ArrivalPlan::uniform_with_priorities(40, 3_000, 3, 3, 7);
            let sim = Simulator::new(2).with_discipline(discipline);
            let traced = sim.run(
                &plan,
                &mut SingleCore {
                    duration: 100,
                    completions_seen: Vec::new(),
                },
            );
            let reference = sim.run_reference(
                &plan,
                &mut SingleCore {
                    duration: 100,
                    completions_seen: Vec::new(),
                },
            );
            assert_eq!(traced, reference, "{discipline:?}");
            assert_eq!(
                traced.energy.idle_nj.to_bits(),
                reference.energy.idle_nj.to_bits()
            );
            assert_eq!(
                traced.energy.dynamic_nj.to_bits(),
                reference.energy.dynamic_nj.to_bits()
            );
            assert_eq!(
                traced.energy.static_nj.to_bits(),
                reference.energy.static_nj.to_bits()
            );
        }
    }

    #[test]
    fn recorded_trace_passes_the_ledger_audit() {
        use crate::trace::{LedgerAuditor, RecordingSink};
        for discipline in [
            QueueDiscipline::Fifo,
            QueueDiscipline::Priority,
            QueueDiscipline::PreemptivePriority,
        ] {
            let plan = ArrivalPlan::uniform_with_priorities(30, 2_000, 3, 3, 11);
            let sim = Simulator::new(2).with_discipline(discipline);
            let mut sink = RecordingSink::new();
            let mut policy = SingleCore {
                duration: 100,
                completions_seen: Vec::new(),
            };
            let metrics = sim.run_with_sink(&plan, &mut policy, &mut sink);
            LedgerAuditor::new(2)
                .check(sink.events(), &metrics)
                .unwrap_or_else(|problems| {
                    panic!("{discipline:?} audit failed:\n{}", problems.join("\n"))
                });
        }
    }

    #[test]
    fn empty_fault_plan_matches_reference_bit_for_bit() {
        use crate::faults::{FaultPlan, FaultStats};
        for discipline in [
            QueueDiscipline::Fifo,
            QueueDiscipline::Priority,
            QueueDiscipline::PreemptivePriority,
        ] {
            let plan = ArrivalPlan::uniform_with_priorities(40, 3_000, 3, 3, 7);
            let sim = Simulator::new(2).with_discipline(discipline);
            let faulted = sim.run_with_faults(
                &plan,
                &mut SingleCore {
                    duration: 100,
                    completions_seen: Vec::new(),
                },
                &FaultPlan::empty(),
                &mut NullSink,
            );
            let reference = sim.run_reference(
                &plan,
                &mut SingleCore {
                    duration: 100,
                    completions_seen: Vec::new(),
                },
            );
            assert_eq!(faulted.metrics, reference, "{discipline:?}");
            assert_eq!(
                faulted.metrics.energy.idle_nj.to_bits(),
                reference.energy.idle_nj.to_bits()
            );
            assert_eq!(
                faulted.metrics.energy.dynamic_nj.to_bits(),
                reference.energy.dynamic_nj.to_bits()
            );
            assert_eq!(faulted.faults, FaultStats::default());
        }
    }

    #[test]
    fn watchdog_kills_and_eventually_abandons_a_hung_job() {
        use crate::faults::{FaultConfig, FaultPlan};
        let config = FaultConfig {
            hang_rate: 1.0,
            ..FaultConfig::none()
        };
        let fault_plan = FaultPlan::build(&config, 1);
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let run =
            Simulator::new(1).run_with_faults(&plan(&[0]), &mut policy, &fault_plan, &mut NullSink);
        // Every attempt hangs: 5 attempts, each killed by the watchdog at
        // 4x the nominal 100 cycles, then 4 backoffs and a final abandon.
        assert_eq!(run.faults.watchdog_kills, 5);
        assert_eq!(run.faults.retries, 4);
        assert_eq!(run.faults.jobs_failed, 1);
        assert_eq!(run.faults.max_attempts_observed, 5);
        assert_eq!(run.metrics.jobs_completed, 0);
        assert!(policy.completions_seen.is_empty(), "on_complete never ran");
        // Honest accounting: each stretched run is fully charged at 4x the
        // nominal 5 nJ with no refund.
        assert_eq!(run.metrics.energy.dynamic_nj, 5.0 * 4.0 * 5.0);
        assert_eq!(run.metrics.busy_cycles[0], 400 * 5);
    }

    #[test]
    fn crashes_retry_with_backoff_then_abandon() {
        use crate::faults::{FaultConfig, FaultPlan};
        let config = FaultConfig {
            crash_rate: 1.0,
            max_attempts: 3,
            ..FaultConfig::none()
        };
        let fault_plan = FaultPlan::build(&config, 1);
        let run = Simulator::new(1).run_with_faults(
            &plan(&[0]),
            &mut SingleCore {
                duration: 100,
                completions_seen: Vec::new(),
            },
            &fault_plan,
            &mut NullSink,
        );
        assert_eq!(run.faults.crashes, 3);
        assert_eq!(run.faults.retries, 2);
        assert_eq!(run.faults.jobs_failed, 1);
        assert_eq!(run.metrics.jobs_completed, 0);
        // Each crash charged only its executed fraction: strictly less
        // than three full 5 nJ executions, but more than zero.
        assert!(run.metrics.energy.dynamic_nj > 0.0);
        assert!(run.metrics.energy.dynamic_nj < 15.0);
        assert!(run.metrics.busy_cycles[0] < 300);
    }

    #[test]
    fn faulted_trace_passes_the_fault_audit() {
        use crate::faults::FaultConfig;
        use crate::trace::{LedgerAuditor, RecordingSink};
        for (rate, seed) in [(0.05, 9u64), (0.3, 10), (0.8, 11)] {
            let arrival_plan = ArrivalPlan::uniform_with_priorities(60, 50_000, 4, 3, seed);
            let config = FaultConfig::chaos(rate, seed, 60_000);
            let fault_plan = crate::faults::FaultPlan::build(&config, 2);
            let sim = Simulator::new(2);
            let mut sink = RecordingSink::new();
            let run = sim.run_with_faults(
                &arrival_plan,
                &mut SingleCore {
                    duration: 100,
                    completions_seen: Vec::new(),
                },
                &fault_plan,
                &mut sink,
            );
            // Conservation of jobs: every arrival completed or abandoned.
            assert_eq!(
                run.metrics.jobs_completed + run.faults.jobs_failed,
                60,
                "rate {rate}"
            );
            assert!(run.faults.max_attempts_observed <= config.max_attempts);
            LedgerAuditor::new(2)
                .check_faulted(sink.events(), &run)
                .unwrap_or_else(|problems| {
                    panic!("rate {rate} audit failed:\n{}", problems.join("\n"))
                });
        }
    }

    #[test]
    fn outage_evicts_and_migration_completes_the_job() {
        use crate::faults::{FaultConfig, FaultPlan};
        // Saturate the outage rate: with a 200k horizon each core gets
        // eight outage windows. SingleCore insists on core 0, so it rides
        // through evictions (each one requeues without charging a retry)
        // and still completes everything once the core returns.
        let config = FaultConfig {
            core_outage_rate: 0.9,
            seed: 3,
            horizon: 200_000,
            ..FaultConfig::none()
        };
        let fault_plan = FaultPlan::build(&config, 1);
        assert!(!fault_plan.transitions().is_empty());
        let run = Simulator::new(1).run_with_faults(
            &plan(&[0, 10, 20, 30]),
            &mut SingleCore {
                duration: 30_000,
                completions_seen: Vec::new(),
            },
            &fault_plan,
            &mut NullSink,
        );
        assert_eq!(run.metrics.jobs_completed, 4, "no job is ever lost");
        assert_eq!(run.faults.jobs_failed, 0, "outages never charge retries");
        assert!(
            run.faults.outage_evictions > 0,
            "30k-cycle executions must straddle an outage window"
        );
        assert!(run.faults.degraded_transitions >= 2);
    }
}
