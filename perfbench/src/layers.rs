//! Traced-run wrappers around the public layer boundaries.
//!
//! Each wrapper forwards to the layer it wraps and folds every call into
//! a [`Span`]: a call count and the total nanoseconds spent inside. Only
//! the two numbers are kept, so a traced run's memory does not grow with
//! its length. Self time of a layer is its span minus the spans of the
//! wrappers nested inside it.

use hetero_sched::multicore_sim::{
    CoreId, CoreIndex, Decision, Job, Scheduler, TraceEvent, TraceSink,
};
use hetero_sched::workloads::Arrival;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Calls into one layer and the host time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
}

impl Span {
    #[inline]
    fn close(&mut self, start: Instant) {
        self.calls += 1;
        self.ns += start.elapsed().as_nanos() as u64;
    }
}

/// Times `Iterator::next` of an arrival source.
pub struct TimedArrivals<'s, I> {
    inner: I,
    span: &'s mut Span,
}

impl<'s, I> TimedArrivals<'s, I> {
    pub fn new(inner: I, span: &'s mut Span) -> Self {
        TimedArrivals { inner, span }
    }
}

impl<I: Iterator<Item = Arrival>> Iterator for TimedArrivals<'_, I> {
    type Item = Arrival;

    #[inline]
    fn next(&mut self) -> Option<Arrival> {
        let start = Instant::now();
        let next = self.inner.next();
        self.span.close(start);
        next
    }
}

/// Times `schedule` and `on_complete` of a scheduling policy and counts
/// the offers that placed a job.
pub struct TimedScheduler<'s> {
    inner: &'s mut dyn Scheduler,
    pub schedule: Span,
    pub placed: u64,
    pub on_complete: Span,
}

impl<'s> TimedScheduler<'s> {
    pub fn new(inner: &'s mut dyn Scheduler) -> Self {
        TimedScheduler {
            inner,
            schedule: Span::default(),
            placed: 0,
            on_complete: Span::default(),
        }
    }
}

impl Scheduler for TimedScheduler<'_> {
    #[inline]
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        let start = Instant::now();
        let decision = self.inner.schedule(job, cores, now);
        self.schedule.close(start);
        if matches!(decision, Decision::Run { .. }) {
            self.placed += 1;
        }
        decision
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        self.inner.idle_power_nj_per_cycle(core)
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        let start = Instant::now();
        self.inner.on_complete(job, core, now);
        self.on_complete.close(start);
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner.on_preempt(job, core, now);
    }

    fn state_fingerprint(&self) -> u64 {
        self.inner.state_fingerprint()
    }
}

/// What a [`TimedSink`] saw, in cells so the numbers can be read while
/// the sink is still borrowed by a wrapper around it. With `latencies`
/// set it also keeps every completion's turnaround.
#[derive(Debug, Default)]
pub struct SinkStats {
    pub record: Cell<Span>,
    pub sheds: Cell<u64>,
    depth: Cell<u64>,
    pub depth_max: Cell<u64>,
    /// Integral of the ready-queue depth over simulated cycles.
    pub depth_area: Cell<u128>,
    /// Timestamp of the last arrival or placement seen.
    pub last_at: Cell<u64>,
    pub latencies: Option<RefCell<Vec<u64>>>,
}

impl SinkStats {
    /// Stats that also collect completion latencies.
    pub fn collecting() -> Self {
        SinkStats {
            latencies: Some(RefCell::new(Vec::new())),
            ..SinkStats::default()
        }
    }

    fn follow(&self, event: &TraceEvent) {
        let delta = match *event {
            TraceEvent::Arrival { .. } => 1i64,
            TraceEvent::Placement { .. } => -1,
            TraceEvent::Shed { .. } => {
                self.sheds.set(self.sheds.get() + 1);
                return;
            }
            TraceEvent::Completion { at, arrival, .. } => {
                if let Some(latencies) = &self.latencies {
                    latencies.borrow_mut().push(at - arrival);
                }
                return;
            }
            _ => return,
        };
        let (at, last) = (event.at(), self.last_at.get());
        if at > last {
            let area = u128::from(self.depth.get()) * u128::from(at - last);
            self.depth_area.set(self.depth_area.get() + area);
            self.last_at.set(at);
        }
        let depth = self.depth.get().saturating_add_signed(delta);
        self.depth.set(depth);
        self.depth_max.set(self.depth_max.get().max(depth));
    }
}

/// Times `record` of a trace sink. Outside the timed window it also
/// follows the ready-queue depth (arrivals in, placements out), weighted
/// by simulated time, and counts forwarded shed events.
pub struct TimedSink<'s, T: TraceSink + ?Sized> {
    inner: &'s mut T,
    stats: &'s SinkStats,
}

impl<'s, T: TraceSink + ?Sized> TimedSink<'s, T> {
    pub fn new(inner: &'s mut T, stats: &'s SinkStats) -> Self {
        TimedSink { inner, stats }
    }
}

impl<T: TraceSink + ?Sized> TraceSink for TimedSink<'_, T> {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.stats.follow(&event);
        let start = Instant::now();
        self.inner.record(event);
        let mut span = self.stats.record.get();
        span.close(start);
        self.stats.record.set(span);
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}
