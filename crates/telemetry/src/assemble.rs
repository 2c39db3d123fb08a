//! Causal span assembly: folds the flight-recorder event stream into
//! per-job lifecycle spans and per-core occupancy spans.
//!
//! The [`MetricsSink`](crate::MetricsSink) answers *how much* (counters,
//! histograms, window series); this module answers *when and why*: for
//! every job, the alternating `queued → running → (stalled | preempted |
//! faulted → backoff → queued …) → completed` timeline, and for every
//! core, the tiling of busy / idle / offline occupancy. The assembled
//! spans are the data model behind the Chrome-trace (Perfetto) export in
//! `hetero-bench` — the assembler itself stays JSON-free so the crate
//! keeps zero serialisation dependencies.
//!
//! Span conservation is structural: each lifecycle span is closed by
//! exactly one event (or by [`SpanAssembler::finish`] at run end), so the
//! number of spans per job is a pure function of that job's event counts
//! — `running` spans == placements, `queued` spans == 1 + evictions +
//! non-abandoned retries + requeueing faults, and a shed offer produces
//! exactly one terminal [`JobPhase::Shed`] span. The export tests in
//! `crates/bench` assert exactly this arithmetic against the raw stream.

use multicore_sim::{CoreId, DegradedComponent, TraceEvent, TraceSink};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use workloads::BenchmarkId;

/// Multiply-shift hasher for the assembler's job map. Keys are dense
/// job sequence numbers from a trusted source (the simulator), so
/// SipHash's DoS resistance buys nothing here and its cost lands on
/// every traced event; one xor-multiply spreads sequential keys fine.
#[derive(Debug, Default, Clone, Copy)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0 ^ value).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type SeqMap<V> = HashMap<u64, V, BuildHasherDefault<SeqHasher>>;

/// Grow-on-demand slot access for the per-core tables (core indices are
/// small and dense, so a flat vector beats any hash map).
fn core_slot<T>(slots: &mut Vec<Option<T>>, core: usize) -> &mut Option<T> {
    if slots.len() <= core {
        slots.resize_with(core + 1, || None);
    }
    &mut slots[core]
}

/// Close `job`'s open span into `spans`. A free function (not a method)
/// so callers can hold a `&mut` into the job map at the same time — the
/// hot path updates job state in place with a single map lookup.
fn close_job_span(spans: &mut Vec<JobSpan>, seq: u64, job: OpenJob, end: u64, close: SpanClose) {
    let (phase, start, core) = match job.state {
        JobState::Queued { since } => (JobPhase::Queued, since, None),
        JobState::Running { core, since } => (JobPhase::Running, since, Some(core)),
    };
    // A zero-length queued placeholder between a fault and its retry
    // decision (same cycle) is bookkeeping, not lifecycle: skip it.
    if !(phase == JobPhase::Queued && start == end && close == SpanClose::Requeued) {
        spans.push(JobSpan {
            seq,
            benchmark: job.benchmark,
            phase,
            start,
            end,
            core,
            close,
        });
    }
}

/// Lifecycle phase covered by one [`JobSpan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting in the ready queue (from arrival, requeue, or retry
    /// release until placement).
    Queued,
    /// Executing on a core.
    Running,
    /// Crash/kill backoff: retry scheduled but not yet ready.
    Backoff,
    /// A refused admission. Zero-length terminal span; the `seq` lives
    /// in the *offered* sequence space, not the admitted one.
    Shed,
}

impl JobPhase {
    /// Stable lower-case name (used by exports).
    pub fn name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Backoff => "backoff",
            JobPhase::Shed => "shed",
        }
    }
}

/// What closed a [`JobSpan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanClose {
    /// A queued span ended because the job was placed on a core.
    Placed,
    /// A running span ended in normal completion (terminal).
    Completed,
    /// A running span ended in preemption; the job requeued.
    Preempted,
    /// A running span ended in an injected fault.
    Faulted,
    /// A backoff span ended with the retry re-entering the queue.
    Requeued,
    /// Any span ended because the retry budget was exhausted (terminal).
    Abandoned,
    /// The offer was refused admission (terminal).
    Shed,
    /// The run ended with the span still open; `end` is the horizon.
    RunEnd,
}

impl SpanClose {
    /// Stable lower-case name (used by exports).
    pub fn name(&self) -> &'static str {
        match self {
            SpanClose::Placed => "placed",
            SpanClose::Completed => "completed",
            SpanClose::Preempted => "preempted",
            SpanClose::Faulted => "faulted",
            SpanClose::Requeued => "requeued",
            SpanClose::Abandoned => "abandoned",
            SpanClose::Shed => "shed",
            SpanClose::RunEnd => "run_end",
        }
    }

    /// `true` when this close reason ends the job's whole lifecycle.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SpanClose::Completed | SpanClose::Abandoned | SpanClose::Shed
        )
    }
}

/// One closed interval of a job's lifecycle timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpan {
    /// Job sequence number ([`JobPhase::Shed`]: offered-space number).
    pub seq: u64,
    /// The benchmark the job executes.
    pub benchmark: BenchmarkId,
    /// Which lifecycle phase the span covers.
    pub phase: JobPhase,
    /// First cycle of the span.
    pub start: u64,
    /// One past the last cycle (== `start` for instant terminal spans).
    pub end: u64,
    /// The occupied core for [`JobPhase::Running`] spans.
    pub core: Option<CoreId>,
    /// Why the span closed.
    pub close: SpanClose,
}

/// Occupancy class of a [`CoreSpan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreSpanKind {
    /// The core executed this job.
    Busy {
        /// The occupying job.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
    },
    /// The core sat idle accruing leakage.
    Idle,
    /// The core was taken down by a fault plan.
    Offline,
}

/// One interval of a core's occupancy timeline. Busy, idle, and offline
/// spans of one core never overlap (the flight-recorder audit guarantees
/// the underlying events do not double-book cores).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreSpan {
    /// The core.
    pub core: CoreId,
    /// First cycle of the span.
    pub start: u64,
    /// One past the last cycle.
    pub end: u64,
    /// What occupied the core.
    pub kind: CoreSpanKind,
}

/// An instant lifecycle marker: stalls, preemption probes, faults,
/// retries, fallbacks, sheds, availability transitions, and alert
/// transitions injected via [`SpanAssembler::note_alert`].
#[derive(Debug, Clone, PartialEq)]
pub struct Mark {
    /// The cycle the marker is stamped with.
    pub at: u64,
    /// Stable marker label (e.g. `"stall"`, `"fault"`, `"alert"`).
    pub label: &'static str,
    /// The job involved, when any.
    pub seq: Option<u64>,
    /// The core involved, when any.
    pub core: Option<CoreId>,
    /// Free-form qualifier (fault kind, fallback level, shed reason,
    /// alert name). Static names are borrowed, so marks for sheds,
    /// faults and fallbacks do not allocate.
    pub detail: Option<Cow<'static, str>>,
}

#[derive(Debug, Clone, Copy)]
enum JobState {
    Queued { since: u64 },
    Running { core: CoreId, since: u64 },
}

#[derive(Debug, Clone, Copy)]
struct OpenJob {
    benchmark: BenchmarkId,
    state: JobState,
}

/// A [`TraceSink`] that assembles the event stream into causal spans.
///
/// Attach it (alone or fanned out next to a [`MetricsSink`](crate::MetricsSink))
/// to any traced run, then call [`finish`](Self::finish) to close
/// stragglers at the horizon. Memory is O(in-flight jobs + emitted
/// spans); the span vectors grow with the trace, so the assembler is an
/// export-path tool, not a bounded-memory service component.
#[derive(Debug, Default)]
pub struct SpanAssembler {
    jobs: SeqMap<OpenJob>,
    job_spans: Vec<JobSpan>,
    core_spans: Vec<CoreSpan>,
    marks: Vec<Mark>,
    core_busy: Vec<Option<(u64, BenchmarkId, u64)>>,
    core_offline_since: Vec<Option<u64>>,
    arrivals: u64,
    completed: u64,
    abandoned: u64,
    shed: u64,
    last_at: u64,
    finished: bool,
}

impl SpanAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        SpanAssembler::default()
    }

    /// Per-job lifecycle spans, in close order.
    pub fn job_spans(&self) -> &[JobSpan] {
        &self.job_spans
    }

    /// Per-core occupancy spans, in close order.
    pub fn core_spans(&self) -> &[CoreSpan] {
        &self.core_spans
    }

    /// Instant markers, in event order.
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    /// Jobs that arrived (admitted sequence space).
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Jobs that ran to completion.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Jobs abandoned after exhausting their retry budget.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Offers refused admission (terminal shed spans emitted).
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// The latest event cycle seen.
    pub fn last_at(&self) -> u64 {
        self.last_at
    }

    /// Jobs whose lifecycle is still open (no terminal close yet).
    pub fn open_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Record an alert state transition as an instant marker so burn-rate
    /// firings land on the exported timeline next to the scheduler
    /// decisions that caused them.
    pub fn note_alert(&mut self, at: u64, rule: &str, transition: &'static str) {
        self.last_at = self.last_at.max(at);
        self.marks.push(Mark {
            at,
            label: "alert",
            seq: None,
            core: None,
            detail: Some(Cow::Owned(format!("{rule}:{transition}"))),
        });
    }

    /// Close every open span at `horizon` (with [`SpanClose::RunEnd`])
    /// and freeze the assembler. Idempotent.
    pub fn finish(&mut self, horizon: u64) {
        if self.finished {
            return;
        }
        self.finished = true;
        let horizon = horizon.max(self.last_at);
        let mut open: Vec<(u64, OpenJob)> = self.jobs.drain().collect();
        open.sort_by_key(|(seq, _)| *seq);
        for (seq, job) in open {
            let (phase, start, core) = match job.state {
                JobState::Queued { since } => (JobPhase::Queued, since, None),
                JobState::Running { core, since } => (JobPhase::Running, since, Some(core)),
            };
            self.job_spans.push(JobSpan {
                seq,
                benchmark: job.benchmark,
                phase,
                start: start.min(horizon),
                end: horizon,
                core,
                close: SpanClose::RunEnd,
            });
        }
        // The flat per-core tables are already in core order.
        for (core, slot) in std::mem::take(&mut self.core_busy).into_iter().enumerate() {
            if let Some((seq, benchmark, since)) = slot {
                self.core_spans.push(CoreSpan {
                    core: CoreId(core),
                    start: since,
                    end: horizon,
                    kind: CoreSpanKind::Busy { seq, benchmark },
                });
            }
        }
        let offline = std::mem::take(&mut self.core_offline_since);
        for (core, slot) in offline.into_iter().enumerate() {
            if let Some(since) = slot {
                self.core_spans.push(CoreSpan {
                    core: CoreId(core),
                    start: since,
                    end: horizon,
                    kind: CoreSpanKind::Offline,
                });
            }
        }
    }

    fn close_busy(&mut self, core: CoreId, end: u64) {
        if let Some(slot) = self.core_busy.get_mut(core.0) {
            if let Some((seq, benchmark, since)) = slot.take() {
                self.core_spans.push(CoreSpan {
                    core,
                    start: since,
                    end,
                    kind: CoreSpanKind::Busy { seq, benchmark },
                });
            }
        }
    }

    fn mark(&mut self, at: u64, label: &'static str, seq: Option<u64>, core: Option<CoreId>) {
        self.marks.push(Mark {
            at,
            label,
            seq,
            core,
            detail: None,
        });
    }
}

impl TraceSink for SpanAssembler {
    /// A burst of sheds adds one job span and one mark per event, so
    /// both vectors grow once for the whole burst.
    fn reserve(&mut self, additional: usize) {
        self.job_spans.reserve(additional);
        self.marks.reserve(additional);
    }

    fn record(&mut self, event: TraceEvent) {
        self.last_at = self.last_at.max(event.at());
        match event {
            TraceEvent::Arrival {
                seq, benchmark, at, ..
            } => {
                self.arrivals += 1;
                self.jobs.insert(
                    seq,
                    OpenJob {
                        benchmark,
                        state: JobState::Queued { since: at },
                    },
                );
            }
            TraceEvent::Placement { seq, core, at, .. } => {
                if let Some(job) = self.jobs.get_mut(&seq) {
                    let closed = *job;
                    job.state = JobState::Running { core, since: at };
                    close_job_span(&mut self.job_spans, seq, closed, at, SpanClose::Placed);
                    *core_slot(&mut self.core_busy, core.0) = Some((seq, closed.benchmark, at));
                }
            }
            TraceEvent::Stall { seq, at, .. } => {
                self.mark(at, "stall", Some(seq), None);
            }
            TraceEvent::PreemptionProbe {
                seq,
                victim,
                core,
                at,
                granted,
            } => {
                let label = if granted {
                    "probe_granted"
                } else {
                    "probe_denied"
                };
                self.mark(at, label, Some(seq), Some(core));
                let _ = victim;
            }
            TraceEvent::Eviction {
                victim, core, at, ..
            } => {
                self.close_busy(core, at);
                if let Some(job) = self.jobs.get_mut(&victim) {
                    let closed = *job;
                    job.state = JobState::Queued { since: at };
                    close_job_span(
                        &mut self.job_spans,
                        victim,
                        closed,
                        at,
                        SpanClose::Preempted,
                    );
                }
                self.mark(at, "evicted", Some(victim), Some(core));
            }
            TraceEvent::Completion { seq, core, at, .. } => {
                self.close_busy(core, at);
                if let Some(job) = self.jobs.remove(&seq) {
                    close_job_span(&mut self.job_spans, seq, job, at, SpanClose::Completed);
                }
                self.completed += 1;
            }
            TraceEvent::Fault {
                seq,
                core,
                at,
                kind,
                ..
            } => {
                self.close_busy(core, at);
                if let Some(job) = self.jobs.get_mut(&seq) {
                    let closed = *job;
                    // The job requeues at the fault cycle unless a retry
                    // event (same cycle) reschedules or abandons it.
                    job.state = JobState::Queued { since: at };
                    close_job_span(&mut self.job_spans, seq, closed, at, SpanClose::Faulted);
                }
                self.marks.push(Mark {
                    at,
                    label: "fault",
                    seq: Some(seq),
                    core: Some(core),
                    detail: Some(Cow::Borrowed(kind.name())),
                });
            }
            TraceEvent::Retry {
                seq,
                at,
                attempt,
                ready_at,
                abandoned,
                ..
            } => {
                if abandoned {
                    if let Some(job) = self.jobs.remove(&seq) {
                        close_job_span(&mut self.job_spans, seq, job, at, SpanClose::Abandoned);
                    }
                    self.abandoned += 1;
                    self.mark(at, "abandoned", Some(seq), None);
                } else if let Some(job) = self.jobs.get_mut(&seq) {
                    let closed = *job;
                    let benchmark = closed.benchmark;
                    job.state = JobState::Queued { since: ready_at };
                    close_job_span(&mut self.job_spans, seq, closed, at, SpanClose::Requeued);
                    if ready_at > at {
                        self.job_spans.push(JobSpan {
                            seq,
                            benchmark,
                            phase: JobPhase::Backoff,
                            start: at,
                            end: ready_at,
                            core: None,
                            close: SpanClose::Requeued,
                        });
                    }
                    self.marks.push(Mark {
                        at,
                        label: "retry",
                        seq: Some(seq),
                        core: None,
                        detail: Some(Cow::Owned(format!("attempt {attempt}"))),
                    });
                }
            }
            TraceEvent::Fallback { seq, at, level, .. } => {
                self.marks.push(Mark {
                    at,
                    label: "fallback",
                    seq: Some(seq),
                    core: None,
                    detail: Some(Cow::Borrowed(level.name())),
                });
            }
            TraceEvent::Shed {
                offered,
                benchmark,
                at,
                reason,
                ..
            } => {
                self.shed += 1;
                self.job_spans.push(JobSpan {
                    seq: offered,
                    benchmark,
                    phase: JobPhase::Shed,
                    start: at,
                    end: at,
                    core: None,
                    close: SpanClose::Shed,
                });
                self.marks.push(Mark {
                    at,
                    label: "shed",
                    seq: Some(offered),
                    core: None,
                    detail: Some(Cow::Borrowed(reason.name())),
                });
            }
            TraceEvent::IdleSpan { core, from, to, .. } => {
                self.core_spans.push(CoreSpan {
                    core,
                    start: from,
                    end: to,
                    kind: CoreSpanKind::Idle,
                });
            }
            TraceEvent::Degraded {
                at,
                component,
                online,
            } => match component {
                DegradedComponent::Core(core) => {
                    if online {
                        let slot = core_slot(&mut self.core_offline_since, core.0);
                        if let Some(since) = slot.take() {
                            self.core_spans.push(CoreSpan {
                                core,
                                start: since,
                                end: at,
                                kind: CoreSpanKind::Offline,
                            });
                        }
                        self.mark(at, "core_up", None, Some(core));
                    } else {
                        *core_slot(&mut self.core_offline_since, core.0) = Some(at);
                        self.mark(at, "core_down", None, Some(core));
                    }
                }
                DegradedComponent::Predictor(health) => {
                    self.marks.push(Mark {
                        at,
                        label: if online {
                            "predictor_up"
                        } else {
                            "predictor_down"
                        },
                        seq: None,
                        core: None,
                        detail: Some(Cow::Borrowed(health.name())),
                    });
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multicore_sim::PlacementKind;

    fn arrival(seq: u64, at: u64) -> TraceEvent {
        TraceEvent::Arrival {
            seq,
            benchmark: BenchmarkId(1),
            at,
            priority: 0,
        }
    }

    fn placement(seq: u64, core: usize, at: u64) -> TraceEvent {
        TraceEvent::Placement {
            seq,
            benchmark: BenchmarkId(1),
            core: CoreId(core),
            at,
            cycles: 100,
            dynamic_nj: 1.0,
            static_nj: 0.5,
            kind: PlacementKind::Pass,
        }
    }

    fn completion(seq: u64, core: usize, at: u64, arrival: u64) -> TraceEvent {
        TraceEvent::Completion {
            seq,
            benchmark: BenchmarkId(1),
            core: CoreId(core),
            at,
            arrival,
            priority: 0,
        }
    }

    #[test]
    fn a_plain_job_folds_into_queued_then_running() {
        let mut assembler = SpanAssembler::new();
        assembler.record(arrival(0, 10));
        assembler.record(placement(0, 2, 40));
        assembler.record(completion(0, 2, 140, 10));
        assembler.finish(140);
        let spans = assembler.job_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].phase, spans[0].start, spans[0].end, spans[0].close),
            (JobPhase::Queued, 10, 40, SpanClose::Placed)
        );
        assert_eq!(
            (spans[1].phase, spans[1].start, spans[1].end, spans[1].close),
            (JobPhase::Running, 40, 140, SpanClose::Completed)
        );
        assert_eq!(spans[1].core, Some(CoreId(2)));
        let busy: Vec<_> = assembler
            .core_spans()
            .iter()
            .filter(|span| matches!(span.kind, CoreSpanKind::Busy { .. }))
            .collect();
        assert_eq!(busy.len(), 1);
        assert_eq!((busy[0].start, busy[0].end), (40, 140));
        assert_eq!(assembler.completed(), 1);
        assert_eq!(assembler.open_jobs(), 0);
    }

    #[test]
    fn eviction_reopens_the_queued_phase() {
        let mut assembler = SpanAssembler::new();
        assembler.record(arrival(0, 0));
        assembler.record(placement(0, 0, 5));
        assembler.record(TraceEvent::Eviction {
            victim: 0,
            core: CoreId(0),
            at: 30,
            total_cycles: 100,
            remaining_cycles: 75,
            dynamic_nj: 1.0,
            static_nj: 0.5,
        });
        assembler.record(placement(0, 1, 50));
        assembler.record(completion(0, 1, 150, 0));
        assembler.finish(150);
        let phases: Vec<_> = assembler
            .job_spans()
            .iter()
            .map(|span| (span.phase, span.close))
            .collect();
        assert_eq!(
            phases,
            vec![
                (JobPhase::Queued, SpanClose::Placed),
                (JobPhase::Running, SpanClose::Preempted),
                (JobPhase::Queued, SpanClose::Placed),
                (JobPhase::Running, SpanClose::Completed),
            ]
        );
        // Two busy spans on two cores, neither overlapping on its core.
        let busy: Vec<_> = assembler
            .core_spans()
            .iter()
            .filter(|span| matches!(span.kind, CoreSpanKind::Busy { .. }))
            .collect();
        assert_eq!(busy.len(), 2);
    }

    #[test]
    fn retries_produce_backoff_spans_and_abandonment_is_terminal() {
        let mut assembler = SpanAssembler::new();
        assembler.record(arrival(0, 0));
        assembler.record(placement(0, 0, 0));
        assembler.record(TraceEvent::Fault {
            seq: 0,
            benchmark: BenchmarkId(1),
            core: CoreId(0),
            at: 60,
            kind: multicore_sim::FaultKind::Crash,
            total_cycles: 100,
            executed_cycles: 60,
            dynamic_nj: 1.0,
            static_nj: 0.5,
        });
        assembler.record(TraceEvent::Retry {
            seq: 0,
            benchmark: BenchmarkId(1),
            at: 60,
            attempt: 1,
            ready_at: 1_060,
            abandoned: false,
        });
        assembler.record(placement(0, 1, 1_100));
        assembler.record(TraceEvent::Fault {
            seq: 0,
            benchmark: BenchmarkId(1),
            core: CoreId(1),
            at: 1_160,
            kind: multicore_sim::FaultKind::Crash,
            total_cycles: 100,
            executed_cycles: 60,
            dynamic_nj: 1.0,
            static_nj: 0.5,
        });
        assembler.record(TraceEvent::Retry {
            seq: 0,
            benchmark: BenchmarkId(1),
            at: 1_160,
            attempt: 2,
            ready_at: 1_160,
            abandoned: true,
        });
        assembler.finish(1_160);
        let spans = assembler.job_spans();
        let phases: Vec<_> = spans.iter().map(|span| (span.phase, span.close)).collect();
        assert_eq!(
            phases,
            vec![
                (JobPhase::Queued, SpanClose::Placed),
                (JobPhase::Running, SpanClose::Faulted),
                (JobPhase::Backoff, SpanClose::Requeued),
                (JobPhase::Queued, SpanClose::Placed),
                (JobPhase::Running, SpanClose::Faulted),
                (JobPhase::Queued, SpanClose::Abandoned),
            ]
        );
        // Abandonment closes the requeue placeholder as a zero-length
        // terminal span (symmetric with shed) and counts the job.
        assert_eq!(assembler.abandoned(), 1);
        assert_eq!(assembler.open_jobs(), 0);
        let backoff = &spans[2];
        assert_eq!((backoff.start, backoff.end), (60, 1_060));
    }

    #[test]
    fn shed_offers_get_a_zero_length_terminal_span() {
        let mut assembler = SpanAssembler::new();
        assembler.record(TraceEvent::Shed {
            offered: 7,
            benchmark: BenchmarkId(3),
            at: 500,
            priority: 2,
            reason: multicore_sim::ShedReason::QueueFull,
        });
        assembler.finish(500);
        assert_eq!(assembler.shed(), 1);
        let spans = assembler.job_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].phase, JobPhase::Shed);
        assert_eq!(spans[0].close, SpanClose::Shed);
        assert_eq!((spans[0].start, spans[0].end), (500, 500));
        assert!(spans[0].close.is_terminal());
    }

    #[test]
    fn finish_closes_stragglers_at_the_horizon() {
        let mut assembler = SpanAssembler::new();
        assembler.record(arrival(0, 10));
        assembler.record(arrival(1, 20));
        assembler.record(placement(1, 0, 25));
        assembler.finish(1_000);
        let spans = assembler.job_spans();
        assert_eq!(spans.len(), 3, "{spans:?}");
        let run_end: Vec<_> = spans
            .iter()
            .filter(|span| span.close == SpanClose::RunEnd)
            .collect();
        assert_eq!(run_end.len(), 2);
        assert!(run_end.iter().all(|span| span.end == 1_000));
        // Idempotent.
        assembler.finish(2_000);
        assert_eq!(assembler.job_spans().len(), 3);
    }

    #[test]
    fn mark_details_read_exactly_as_exported() {
        use multicore_sim::{FallbackLevel, FaultKind, PredictorHealth, ShedReason};

        let mut assembler = SpanAssembler::new();
        assembler.reserve(8);
        assembler.record(arrival(0, 10));
        assembler.record(placement(0, 1, 20));
        assembler.record(TraceEvent::Fault {
            seq: 0,
            benchmark: BenchmarkId(1),
            core: CoreId(1),
            at: 30,
            kind: FaultKind::Crash,
            total_cycles: 100,
            executed_cycles: 10,
            dynamic_nj: 1.0,
            static_nj: 0.5,
        });
        assembler.record(TraceEvent::Retry {
            seq: 0,
            benchmark: BenchmarkId(1),
            at: 30,
            attempt: 2,
            ready_at: 40,
            abandoned: false,
        });
        assembler.record(TraceEvent::Fallback {
            seq: 0,
            benchmark: BenchmarkId(1),
            at: 50,
            level: FallbackLevel::Knn,
        });
        assembler.record(TraceEvent::Degraded {
            at: 60,
            component: DegradedComponent::Predictor(PredictorHealth::AnnDown),
            online: false,
        });
        for (offered, reason) in [
            (1, ShedReason::QueueFull),
            (2, ShedReason::Deadline),
            (3, ShedReason::Priority),
            (4, ShedReason::RateLimit),
        ] {
            assembler.record(TraceEvent::Shed {
                offered,
                benchmark: BenchmarkId(1),
                at: 70,
                priority: 0,
                reason,
            });
        }
        assembler.note_alert(80, "p99", "firing");
        let marks: Vec<(&str, Option<&str>)> = assembler
            .marks()
            .iter()
            .map(|mark| (mark.label, mark.detail.as_deref()))
            .collect();
        assert_eq!(
            marks,
            [
                ("fault", Some("crash")),
                ("retry", Some("attempt 2")),
                ("fallback", Some("knn")),
                ("predictor_down", Some("ann_down")),
                ("shed", Some("queue_full")),
                ("shed", Some("deadline")),
                ("shed", Some("priority")),
                ("shed", Some("rate_limit")),
                ("alert", Some("p99:firing")),
            ]
        );
        // Static names are borrowed, not copied per mark.
        assert!(assembler
            .marks()
            .iter()
            .filter(|mark| matches!(mark.label, "fault" | "fallback" | "shed"))
            .all(|mark| matches!(mark.detail, Some(Cow::Borrowed(_)))));
    }

    #[test]
    fn alert_marks_land_on_the_timeline() {
        let mut assembler = SpanAssembler::new();
        assembler.note_alert(42, "p99-burn", "firing");
        assert_eq!(assembler.marks().len(), 1);
        assert_eq!(assembler.marks()[0].label, "alert");
        assert_eq!(
            assembler.marks()[0].detail.as_deref(),
            Some("p99-burn:firing")
        );
        assert_eq!(assembler.last_at(), 42);
    }
}
