//! The engine sink and streaming runner.

use crate::slo::{SloPolicy, SloReport};
use crate::snapshot::Snapshot;
use hetero_telemetry::{Histogram, MetricsSink, RunTotals};
use multicore_sim::{RunMetrics, Scheduler, Simulator, TraceEvent, TraceSink};
use std::collections::VecDeque;
use workloads::Arrival;

/// Configuration of a streaming run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Telemetry window length in cycles (the [`MetricsSink`] interval).
    pub window_cycles: u64,
    /// Windows per snapshot span: finished windows are folded into a
    /// [`Snapshot`] and freed every `snapshot_windows` windows.
    pub snapshot_windows: u64,
    /// Most recent snapshots retained in memory. Older snapshots are
    /// dropped from the ring (their counters live on in the cumulative
    /// totals), keeping a run of any length in bounded space.
    pub max_snapshots: usize,
    /// Budgets evaluated at the end of the run.
    pub slo: SloPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            window_cycles: 1_000_000,
            snapshot_windows: 10,
            max_snapshots: 512,
            slo: SloPolicy::default(),
        }
    }
}

impl EngineConfig {
    /// Snapshot span length in cycles.
    pub fn snapshot_cycles(&self) -> u64 {
        self.window_cycles * self.snapshot_windows
    }
}

/// A [`TraceSink`] that folds the event stream into periodic
/// [`Snapshot`]s with bounded memory.
///
/// The sink wraps a [`MetricsSink`] and adds the drain protocol that
/// keeps it O(1): when an event with a *strictly later* timestamp
/// arrives, every earlier cycle is final (the simulator emits events in
/// clock order, and back-dated spans never reach before the previous
/// event), so all snapshot boundaries at or before the previous
/// timestamp can be closed — their windows drained, folded, and freed.
/// Windowed latency histograms are kept per open span (at most two are
/// live, because completions carry non-decreasing timestamps).
#[derive(Debug)]
pub struct EngineSink {
    metrics: MetricsSink,
    snapshot_cycles: u64,
    /// Next snapshot boundary to close, in cycles.
    next_snapshot: u64,
    /// Latency histograms of spans that are still open, keyed by span
    /// index (`at / snapshot_cycles`), oldest first.
    open_latency: VecDeque<(u64, Histogram)>,
    snapshots: VecDeque<Snapshot>,
    max_snapshots: usize,
    snapshots_emitted: u64,
    /// Run-wide p99 latency and the completion count it was computed at:
    /// the bucket scan reruns only when a completion arrived since.
    cumulative_p99: (u64, u64),
}

impl EngineSink {
    /// A sink for `num_cores` cores under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles == 0` or `snapshot_windows == 0`.
    pub fn new(num_cores: usize, config: &EngineConfig) -> Self {
        assert!(
            config.snapshot_windows > 0,
            "need at least one window per snapshot"
        );
        EngineSink {
            metrics: MetricsSink::new(num_cores, config.window_cycles),
            snapshot_cycles: config.snapshot_cycles(),
            next_snapshot: config.snapshot_cycles(),
            open_latency: VecDeque::new(),
            snapshots: VecDeque::new(),
            max_snapshots: config.max_snapshots.max(1),
            snapshots_emitted: 0,
            cumulative_p99: (0, 0),
        }
    }

    /// The wrapped metrics sink (cumulative histograms and totals).
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Snapshots emitted so far (including any dropped from the ring).
    pub fn snapshots_emitted(&self) -> u64 {
        self.snapshots_emitted
    }

    /// The retained snapshot ring, oldest first (live view for the
    /// scrape endpoint).
    pub fn snapshots(&self) -> impl ExactSizeIterator<Item = &Snapshot> {
        self.snapshots.iter()
    }

    /// Close every snapshot boundary at or before the latest event
    /// timestamp. Called automatically as time advances; callers only
    /// need it for mid-run inspection.
    pub fn emit_ready_snapshots(&mut self) {
        while self.next_snapshot <= self.metrics.last_event_at() {
            let boundary = self.next_snapshot;
            self.next_snapshot += self.snapshot_cycles;
            self.close_span(boundary);
        }
    }

    /// Fold the span ending at `boundary` into a snapshot and free its
    /// windows. `boundary` must be `<= metrics.last_event_at()`.
    fn close_span(&mut self, boundary: u64) {
        let start = boundary - self.snapshot_cycles;
        let span_index = start / self.snapshot_cycles;
        let points = self.metrics.drain_points(boundary);
        let latency = self.take_open_latency(span_index);
        self.push_snapshot(start, boundary, &points, latency.as_ref());
    }

    /// Pop the windowed latency histogram of `span_index` (`None` if no
    /// job completed in that span).
    fn take_open_latency(&mut self, span_index: u64) -> Option<Histogram> {
        match self.open_latency.front() {
            Some((index, _)) if *index == span_index => {
                self.open_latency.pop_front().map(|(_, hist)| hist)
            }
            _ => None,
        }
    }

    /// Fold a closed span into the ring. `latency` is `None` for a span
    /// with no completion (windowed p50/p99 read 0, as an empty
    /// histogram's would).
    fn push_snapshot(
        &mut self,
        start: u64,
        end: u64,
        points: &[hetero_telemetry::SeriesPoint],
        latency: Option<&Histogram>,
    ) {
        let completed = self.metrics.latency_cycles().count();
        if completed != self.cumulative_p99.0 {
            self.cumulative_p99 = (completed, self.metrics.latency_cycles().p99());
        }
        let totals = self.metrics.totals();
        let cumulative_energy = totals.dynamic_nj + totals.static_nj + totals.idle_energy_nj;
        let cumulative_energy_per_job = if totals.completions == 0 {
            0.0
        } else {
            cumulative_energy / totals.completions as f64
        };
        let snapshot = Snapshot::from_points(
            self.snapshots_emitted,
            start,
            end,
            points,
            latency,
            crate::snapshot::Cumulative {
                completions: totals.completions,
                p99_latency_cycles: self.cumulative_p99.1,
                energy_per_job_nj: cumulative_energy_per_job,
            },
        );
        if self.snapshots.len() == self.max_snapshots {
            self.snapshots.pop_front();
        }
        self.snapshots.push_back(snapshot);
        self.snapshots_emitted += 1;
    }

    /// Finish the run: close every remaining boundary, emit the final
    /// partial snapshot, and evaluate the SLO policy.
    pub fn finish(mut self, slo: &SloPolicy) -> EngineReport {
        // No further events: everything observed is final.
        self.emit_ready_snapshots();
        let tail = self.metrics.report();
        let start = self.next_snapshot - self.snapshot_cycles;
        if tail.horizon > start || !tail.points.is_empty() && tail.horizon > 0 {
            // Residual partial span up to the last event.
            let latency = std::mem::take(&mut self.open_latency)
                .into_iter()
                .map(|(_, hist)| hist)
                .reduce(|mut merged, hist| {
                    merged.merge(&hist);
                    merged
                });
            let end = tail.horizon.max(start);
            self.push_snapshot(start, end, &tail.points, latency.as_ref());
        }
        let totals = *self.metrics.totals();
        let horizon = tail.horizon;
        let energy_nj = totals.dynamic_nj + totals.static_nj + totals.idle_energy_nj;
        let energy_per_job = if totals.completions == 0 {
            0.0
        } else {
            energy_nj / totals.completions as f64
        };
        let throughput = if horizon == 0 {
            0.0
        } else {
            totals.completions as f64 / horizon as f64 * 1e6
        };
        let p99 = self.metrics.latency_cycles().p99();
        EngineReport {
            num_cores: tail.num_cores,
            horizon,
            totals,
            latency_cycles: self.metrics.latency_cycles().clone(),
            job_energy_nj: self.metrics.job_energy_nj().clone(),
            stall_cycles: self.metrics.stall_cycles().clone(),
            snapshots: self.snapshots.into_iter().collect(),
            snapshots_emitted: self.snapshots_emitted,
            slo: SloReport::evaluate(slo, totals.completions, p99, energy_per_job, throughput),
        }
    }
}

impl TraceSink for EngineSink {
    fn record(&mut self, event: TraceEvent) {
        // A strictly later event finalises every earlier cycle: close all
        // due snapshot boundaries *before* folding the new event.
        if event.at() > self.metrics.last_event_at() {
            self.emit_ready_snapshots();
        }
        if let TraceEvent::Completion { at, arrival, .. } = event {
            let span = at / self.snapshot_cycles;
            let latency = at - arrival;
            match self.open_latency.back_mut() {
                Some((index, hist)) if *index == span => hist.record(latency),
                _ => {
                    debug_assert!(
                        self.open_latency.back().is_none_or(|(i, _)| *i < span),
                        "completions must carry non-decreasing spans"
                    );
                    let mut hist = Histogram::new();
                    hist.record(latency);
                    self.open_latency.push_back((span, hist));
                }
            }
        }
        self.metrics.record(event);
    }
}

/// Everything a streaming run distilled: cumulative statistics, the
/// snapshot ring, and the SLO verdict.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Cores simulated.
    pub num_cores: usize,
    /// Last event timestamp (the observed horizon in cycles).
    pub horizon: u64,
    /// Run-wide counters.
    pub totals: RunTotals,
    /// Run-wide job latency histogram, in cycles.
    pub latency_cycles: Histogram,
    /// Run-wide per-job energy histogram, in nJ.
    pub job_energy_nj: Histogram,
    /// Run-wide stall-episode duration histogram, in cycles.
    pub stall_cycles: Histogram,
    /// The retained snapshots, oldest first (up to
    /// [`EngineConfig::max_snapshots`]).
    pub snapshots: Vec<Snapshot>,
    /// Snapshots emitted over the run, including dropped ones.
    pub snapshots_emitted: u64,
    /// The SLO verdict.
    pub slo: SloReport,
}

impl EngineReport {
    /// Total energy charged over the run, in nJ.
    pub fn energy_nj(&self) -> f64 {
        self.totals.dynamic_nj + self.totals.static_nj + self.totals.idle_energy_nj
    }

    /// Run-wide energy per completed job, in nJ.
    pub fn energy_per_job_nj(&self) -> f64 {
        if self.totals.completions == 0 {
            0.0
        } else {
            self.energy_nj() / self.totals.completions as f64
        }
    }

    /// Run-wide completion throughput, in jobs per mega-cycle.
    pub fn throughput_jobs_per_mcycle(&self) -> f64 {
        if self.horizon == 0 {
            0.0
        } else {
            self.totals.completions as f64 / self.horizon as f64 * 1e6
        }
    }
}

/// The result of [`run_streaming`]: the simulator's exact metrics plus
/// the engine's report.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Bit-exact run metrics, as the batch driver would return.
    pub metrics: RunMetrics,
    /// Snapshots, histograms, totals, and the SLO verdict.
    pub report: EngineReport,
}

/// Drive `scheduler` over a streaming arrival source to completion.
///
/// `arrivals` is any time-ordered iterator — an
/// [`OpenLoop`](workloads::OpenLoop) process bounded with `.take(n)`, a
/// [`Compose`](workloads::Compose) merge, or a materialised plan's
/// `iter().copied()`. Memory stays bounded regardless of `arrivals`
/// length; the returned [`RunMetrics`] are bit-identical to a batch run
/// of the same schedule.
pub fn run_streaming<I>(
    simulator: &Simulator,
    arrivals: I,
    scheduler: &mut dyn Scheduler,
    config: &EngineConfig,
) -> StreamOutcome
where
    I: IntoIterator<Item = Arrival>,
{
    let mut sink = EngineSink::new(simulator.num_cores(), config);
    let metrics = simulator.run_stream(arrivals, scheduler, &mut sink);
    let report = sink.finish(&config.slo);
    StreamOutcome { metrics, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use energy_model::EnergyBreakdown;
    use multicore_sim::{CoreIndex, Decision, Job, JobExecution};
    use workloads::OpenLoop;

    /// Fixed-cost policy: first idle core, cycles keyed to the benchmark.
    struct FirstIdle;

    impl Scheduler for FirstIdle {
        fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            match cores.first_idle() {
                Some(core) => Decision::run(
                    core,
                    JobExecution {
                        cycles: 40 + 17 * (job.benchmark.0 as u64 % 5),
                        energy: EnergyBreakdown {
                            idle_nj: 0.0,
                            dynamic_nj: 1.0,
                            static_nj: 0.5,
                        },
                    },
                ),
                None => Decision::Stall,
            }
        }

        fn idle_power_nj_per_cycle(&self, _core: multicore_sim::CoreId) -> f64 {
            1.0
        }
    }

    fn config() -> EngineConfig {
        EngineConfig {
            window_cycles: 10_000,
            snapshot_windows: 5,
            max_snapshots: 16,
            slo: SloPolicy::default(),
        }
    }

    #[test]
    fn streaming_matches_the_batch_run_bit_for_bit() {
        let source = || OpenLoop::poisson(20.0, 20, 42).take(3_000);
        let plan = workloads::ArrivalPlan::from_stream(source(), 3_000);
        let simulator = Simulator::new(4);

        let batch = simulator.run(&plan, &mut FirstIdle);
        let outcome = run_streaming(&simulator, source(), &mut FirstIdle, &config());

        assert_eq!(outcome.metrics, batch);
        assert_eq!(outcome.report.totals.completions, 3_000);
    }

    #[test]
    fn snapshots_conserve_the_run_totals() {
        let source = OpenLoop::poisson(20.0, 20, 7).take(2_000);
        let outcome = run_streaming(&Simulator::new(4), source, &mut FirstIdle, &{
            let mut config = config();
            config.max_snapshots = usize::MAX;
            config
        });
        let report = &outcome.report;
        assert_eq!(report.snapshots.len() as u64, report.snapshots_emitted);
        let arrivals: u64 = report.snapshots.iter().map(|s| s.arrivals).sum();
        let completions: u64 = report.snapshots.iter().map(|s| s.completions).sum();
        let energy: f64 = report.snapshots.iter().map(|s| s.energy_nj).sum();
        assert_eq!(arrivals, report.totals.arrivals);
        assert_eq!(completions, report.totals.completions);
        assert!(
            (energy - report.energy_nj()).abs() <= 1e-6 * report.energy_nj().abs().max(1.0),
            "snapshot energy {energy} vs totals {}",
            report.energy_nj()
        );
        // Spans tile the run: contiguous, ending at the horizon.
        for pair in report.snapshots.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(report.snapshots.last().unwrap().end, report.horizon);
        // Windowed latency covers every completion exactly once.
        let windowed: u64 = report.snapshots.iter().map(|s| s.completions).sum();
        assert_eq!(windowed, report.latency_cycles.count());
    }

    #[test]
    fn the_ring_is_bounded_but_the_count_is_not() {
        let source = OpenLoop::poisson(20.0, 20, 3).take(4_000);
        let mut cfg = config();
        cfg.max_snapshots = 4;
        let outcome = run_streaming(&Simulator::new(4), source, &mut FirstIdle, &cfg);
        assert_eq!(outcome.report.snapshots.len(), 4);
        assert!(outcome.report.snapshots_emitted > 4);
        // The ring keeps the most recent spans.
        assert_eq!(
            outcome.report.snapshots.last().unwrap().index + 1,
            outcome.report.snapshots_emitted
        );
    }

    #[test]
    fn slo_verdict_reflects_the_budgets() {
        let mut cfg = config();
        cfg.slo = SloPolicy {
            max_p99_latency_cycles: Some(u64::MAX),
            max_energy_per_job_nj: Some(f64::MAX),
            min_throughput_jobs_per_mcycle: Some(0.0),
        };
        let pass = run_streaming(
            &Simulator::new(4),
            OpenLoop::poisson(10.0, 20, 1).take(500),
            &mut FirstIdle,
            &cfg,
        );
        assert!(pass.report.slo.passed());
        assert_eq!(pass.report.slo.checks.len(), 3);

        cfg.slo.min_throughput_jobs_per_mcycle = Some(1e12);
        let fail = run_streaming(
            &Simulator::new(4),
            OpenLoop::poisson(10.0, 20, 1).take(500),
            &mut FirstIdle,
            &cfg,
        );
        assert!(!fail.report.slo.passed());
    }

    #[test]
    fn duplicate_event_timestamps_close_each_boundary_exactly_once() {
        use multicore_sim::{CoreId, PlacementKind, TraceEvent};
        use workloads::BenchmarkId;

        // Two arrivals sharing a timestamp, then two completions sharing
        // one that jumps past the 50k snapshot boundary: the boundary
        // must close once (on the first of the pair), and the second
        // event must fold into the already-open span, not re-close it.
        let mut sink = EngineSink::new(2, &config());
        for seq in 0..2 {
            sink.record(TraceEvent::Arrival {
                seq,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            });
            sink.record(TraceEvent::Placement {
                seq,
                benchmark: BenchmarkId(0),
                core: CoreId(seq as usize),
                at: 0,
                cycles: 60_000,
                dynamic_nj: 1.0,
                static_nj: 0.5,
                kind: PlacementKind::Pass,
            });
        }
        for seq in 0..2 {
            sink.record(TraceEvent::Completion {
                seq,
                benchmark: BenchmarkId(0),
                core: CoreId(seq as usize),
                at: 60_000,
                arrival: 0,
                priority: 0,
            });
        }
        let report = sink.finish(&SloPolicy::default());
        assert_eq!(report.totals.arrivals, 2);
        assert_eq!(report.totals.completions, 2);
        // One full span [0, 50k) plus the final partial [50k, 60k).
        assert_eq!(report.snapshots_emitted, 2);
        assert_eq!(report.snapshots[0].arrivals, 2);
        assert_eq!(report.snapshots[1].completions, 2);
        assert_eq!(report.snapshots[1].end, 60_000);
        let windowed: u64 = report.snapshots.iter().map(|s| s.completions).sum();
        assert_eq!(windowed, report.latency_cycles.count());
    }

    #[test]
    fn backdated_arrivals_fold_into_the_open_span_without_reopening_closed_ones() {
        use multicore_sim::{CoreId, PlacementKind, TraceEvent};
        use workloads::BenchmarkId;

        let mut sink = EngineSink::new(2, &config());
        sink.record(TraceEvent::Arrival {
            seq: 0,
            benchmark: BenchmarkId(0),
            at: 0,
            priority: 0,
        });
        sink.record(TraceEvent::Placement {
            seq: 0,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 0,
            cycles: 60_000,
            dynamic_nj: 1.0,
            static_nj: 0.5,
            kind: PlacementKind::Pass,
        });
        // This completion closes the [0, 50k) span.
        sink.record(TraceEvent::Completion {
            seq: 0,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 60_000,
            arrival: 0,
            priority: 0,
        });
        // Boundaries close lazily: only a strictly later event proves
        // the span is final, so nothing is emitted yet.
        assert_eq!(sink.snapshots_emitted(), 0);
        // An arrival backdated to 55k — earlier than the last event but
        // still inside the open [50k, …) span — must land in that span
        // and must not close the still-pending [0, 50k) boundary.
        sink.record(TraceEvent::Arrival {
            seq: 1,
            benchmark: BenchmarkId(0),
            at: 55_000,
            priority: 0,
        });
        sink.record(TraceEvent::Placement {
            seq: 1,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 60_000,
            cycles: 10_000,
            dynamic_nj: 1.0,
            static_nj: 0.5,
            kind: PlacementKind::Pass,
        });
        sink.record(TraceEvent::Completion {
            seq: 1,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 70_000,
            arrival: 55_000,
            priority: 0,
        });
        // The completion at 70k is the first event past the 50k
        // boundary's proof point, so exactly one span has closed; the
        // backdated arrival itself closed nothing.
        assert_eq!(sink.snapshots_emitted(), 1);
        let report = sink.finish(&SloPolicy::default());
        assert_eq!(report.totals.arrivals, 2);
        assert_eq!(report.totals.completions, 2);
        assert_eq!(report.snapshots_emitted, 2);
        assert_eq!(report.snapshots[1].start, 50_000);
        assert_eq!(
            report.snapshots[1].arrivals, 1,
            "backdated arrival lands in the open span"
        );
        assert_eq!(report.snapshots[1].end, 70_000);
    }

    /// Wraps an [`EngineSink`] and checks, as each event closes spans,
    /// that every new snapshot's cumulative p99 equals a fresh
    /// histogram's over the completions folded before that event.
    struct FreshCumulative {
        sink: EngineSink,
        completions: Vec<(u64, u64)>,
        checked: u64,
    }

    impl TraceSink for FreshCumulative {
        fn record(&mut self, event: TraceEvent) {
            let before = self.sink.snapshots_emitted();
            self.sink.record(event);
            let closed = (self.sink.snapshots_emitted() - before) as usize;
            if closed > 0 {
                let mut fresh = Histogram::new();
                self.completions.iter().for_each(|&(_, l)| fresh.record(l));
                let ring = self.sink.snapshots();
                let kept = ring.len() - closed;
                for snapshot in ring.skip(kept) {
                    assert_eq!(
                        snapshot.cumulative_p99_latency_cycles,
                        fresh.p99(),
                        "snapshot {}",
                        snapshot.index
                    );
                    self.checked += 1;
                }
            }
            if let TraceEvent::Completion { at, arrival, .. } = event {
                self.completions.push((at, at - arrival));
            }
        }
    }

    #[test]
    fn cached_snapshot_quantiles_match_fresh_histograms_across_quiet_gaps() {
        // Bursts of 1..=9 same-cycle arrivals (queueing spreads their
        // latencies), separated alternately by seven quiet snapshot spans
        // and by a gap inside one span.
        let mut arrivals = Vec::new();
        let mut time = 0;
        for burst in 0..40u64 {
            for job in 0..=burst % 9 {
                arrivals.push(Arrival {
                    time,
                    benchmark: workloads::BenchmarkId(((burst + job) % 7) as usize),
                    priority: 0,
                });
            }
            time += if burst % 2 == 0 {
                7 * 50_000 + 123
            } else {
                3_000
            };
        }
        let jobs = arrivals.len() as u64;
        let mut cfg = config();
        cfg.max_snapshots = usize::MAX;
        let mut shadow = FreshCumulative {
            sink: EngineSink::new(4, &cfg),
            completions: Vec::new(),
            checked: 0,
        };
        let metrics = Simulator::new(4).run_stream(arrivals, &mut FirstIdle, &mut shadow);
        assert_eq!(metrics.jobs_completed, jobs);
        assert!(
            shadow.checked > 100,
            "only {} closes checked",
            shadow.checked
        );
        let completions = shadow.completions;
        let report = shadow.sink.finish(&cfg.slo);
        let quiet = report
            .snapshots
            .iter()
            .filter(|s| s.completions == 0)
            .count();
        assert!(quiet > 100, "only {quiet} completion-free spans");
        let last = report.snapshots.len() - 1;
        for (position, snapshot) in report.snapshots.iter().enumerate() {
            // The final partial span also holds completions at the horizon.
            let inside = |at: u64| at >= snapshot.start && (at < snapshot.end || position == last);
            let mut fresh = Histogram::new();
            completions
                .iter()
                .filter(|&&(at, _)| inside(at))
                .for_each(|&(_, latency)| fresh.record(latency));
            assert_eq!(fresh.count(), snapshot.completions, "snapshot {position}");
            assert_eq!(
                (snapshot.p50_latency_cycles, snapshot.p99_latency_cycles),
                (fresh.p50(), fresh.p99()),
                "snapshot {position}"
            );
        }
    }

    #[test]
    fn empty_stream_yields_an_empty_report() {
        let outcome = run_streaming(
            &Simulator::new(2),
            std::iter::empty(),
            &mut FirstIdle,
            &config(),
        );
        assert_eq!(outcome.metrics.jobs_completed, 0);
        assert_eq!(outcome.report.snapshots_emitted, 0);
        assert!(outcome.report.slo.passed());
    }
}
