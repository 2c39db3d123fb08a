//! Streaming-engine fidelity: the bounded-memory streaming path must be
//! a pure re-plumbing of the batch event loop — same schedule, same
//! ledger, same metrics, to the bit — with the snapshot ring a lossless
//! re-aggregation of the run's telemetry.
//!
//! Three contracts, property-tested over every system and discipline:
//!
//! 1. `run_streaming` over a pre-materialised [`ArrivalPlan`] returns
//!    `RunMetrics` bit-identical to the batch `Simulator::run`.
//! 2. `run_stream` emits the *same event ledger* as the batch
//!    `run_with_sink`, and that ledger replays clean through
//!    [`LedgerAuditor`].
//! 3. Snapshot counters conserve the run totals (nothing lost or double
//!    counted when windows are drained mid-flight), and the engine's
//!    cumulative energy equals the simulator's to the bit.

use hetero_bench::Testbed;
use hetero_core::{BaseSystem, EnergyCentricSystem, OptimalSystem, ProposedSystem};
use hetero_engine::{run_streaming, EngineConfig, EngineReport, OverloadConfig, SloPolicy};
use multicore_sim::{
    LedgerAuditor, QueueDiscipline, RecordingSink, RunMetrics, Scheduler, Simulator,
};
use proptest::prelude::*;
use std::sync::OnceLock;
use workloads::{ArrivalPlan, OpenLoop};

fn testbed() -> &'static Testbed {
    static TESTBED: OnceLock<Testbed> = OnceLock::new();
    TESTBED.get_or_init(Testbed::small)
}

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::Priority,
    QueueDiscipline::PreemptivePriority,
];

/// Windows small enough that a property-scale run crosses many snapshot
/// boundaries (drains actually happen mid-run, not just at the end).
fn engine_config() -> EngineConfig {
    EngineConfig {
        window_cycles: 50_000,
        snapshot_windows: 4,
        max_snapshots: usize::MAX,
        slo: SloPolicy::default(),
    }
}

struct BothPaths {
    batch: RunMetrics,
    streamed: RunMetrics,
    report: EngineReport,
}

fn run_both(system_index: usize, discipline: QueueDiscipline, plan: &ArrivalPlan) -> BothPaths {
    fn go<S: Scheduler>(
        build: impl Fn() -> S,
        discipline: QueueDiscipline,
        plan: &ArrivalPlan,
    ) -> BothPaths {
        let sim = Simulator::new(testbed().arch.num_cores()).with_discipline(discipline);
        let batch = sim.run(plan, &mut build());
        let outcome = run_streaming(&sim, plan.iter().copied(), &mut build(), &engine_config());
        BothPaths {
            batch,
            streamed: outcome.metrics,
            report: outcome.report,
        }
    }

    let t = testbed();
    match system_index {
        0 => go(
            || BaseSystem::new(&t.oracle, t.model, t.arch.num_cores()),
            discipline,
            plan,
        ),
        1 => go(
            || OptimalSystem::new(&t.arch, &t.oracle, t.model),
            discipline,
            plan,
        ),
        2 => go(
            || EnergyCentricSystem::new(&t.arch, &t.oracle, t.model, t.predictor.clone()),
            discipline,
            plan,
        ),
        _ => go(
            || ProposedSystem::with_model(&t.arch, &t.oracle, t.model, t.predictor.clone()),
            discipline,
            plan,
        ),
    }
}

fn assert_bit_identical(a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(a, b);
    assert_eq!(a.energy.dynamic_nj.to_bits(), b.energy.dynamic_nj.to_bits());
    assert_eq!(a.energy.static_nj.to_bits(), b.energy.static_nj.to_bits());
    assert_eq!(a.energy.idle_nj.to_bits(), b.energy.idle_nj.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Contract 1 + 3: for every system and discipline, streaming a
    /// pre-materialised plan reproduces the batch `RunMetrics` to the
    /// bit, and the snapshot ring conserves every counter the run
    /// produced.
    #[test]
    fn streaming_a_materialised_plan_matches_batch_bit_for_bit(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..100,
        seed in 0u64..1_000,
    ) {
        let t = testbed();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        let paths = run_both(system_index, DISCIPLINES[discipline_index], &plan);
        assert_bit_identical(&paths.batch, &paths.streamed);
        prop_assert_eq!(paths.streamed.jobs_completed, jobs as u64);

        // Snapshot conservation: the ring re-aggregates the run without
        // loss. Energy must match the simulator's own ledger to the bit
        // (each side sums the identical event stream left to right).
        let report = &paths.report;
        prop_assert_eq!(
            report.snapshots.iter().map(|s| s.arrivals).sum::<u64>(),
            jobs as u64
        );
        prop_assert_eq!(
            report.snapshots.iter().map(|s| s.completions).sum::<u64>(),
            jobs as u64
        );
        prop_assert_eq!(report.latency_cycles.count(), jobs as u64);
        prop_assert_eq!(
            report.totals.evictions,
            paths.batch.preemptions
        );
        let span_energy: f64 = report.snapshots.iter().map(|s| s.energy_nj).sum();
        let total = report.energy_nj();
        prop_assert!(
            (span_energy - total).abs() <= 1e-9 * total.abs().max(1.0),
            "snapshot energy {} vs cumulative {}", span_energy, total
        );
        // Spans tile the horizon with no gaps.
        for pair in report.snapshots.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
        if let Some(last) = report.snapshots.last() {
            prop_assert_eq!(last.end, report.horizon);
        }
    }

    /// Contract 2: the streaming entry point emits the batch loop's
    /// exact event ledger, and that ledger audits clean.
    #[test]
    fn streamed_ledger_is_the_batch_ledger_and_audits_clean(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..80,
        seed in 0u64..1_000,
    ) {
        let t = testbed();
        let num_cores = t.arch.num_cores();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        let discipline = DISCIPLINES[discipline_index];

        fn ledgers<S: Scheduler>(
            build: impl Fn() -> S,
            discipline: QueueDiscipline,
            plan: &ArrivalPlan,
            num_cores: usize,
        ) -> (RunMetrics, Vec<multicore_sim::TraceEvent>, Vec<multicore_sim::TraceEvent>) {
            let sim = Simulator::new(num_cores).with_discipline(discipline);
            let mut batch_sink = RecordingSink::new();
            let batch = sim.run_with_sink(plan, &mut build(), &mut batch_sink);
            let mut stream_sink = RecordingSink::new();
            let streamed = sim.run_stream(plan.iter().copied(), &mut build(), &mut stream_sink);
            assert_eq!(batch, streamed);
            (batch, batch_sink.into_events(), stream_sink.into_events())
        }

        let (metrics, batch_events, stream_events) = match system_index {
            0 => ledgers(|| BaseSystem::new(&t.oracle, t.model, num_cores), discipline, &plan, num_cores),
            1 => ledgers(|| OptimalSystem::new(&t.arch, &t.oracle, t.model), discipline, &plan, num_cores),
            2 => ledgers(
                || EnergyCentricSystem::new(&t.arch, &t.oracle, t.model, t.predictor.clone()),
                discipline, &plan, num_cores,
            ),
            _ => ledgers(
                || ProposedSystem::with_model(&t.arch, &t.oracle, t.model, t.predictor.clone()),
                discipline, &plan, num_cores,
            ),
        };
        prop_assert_eq!(&batch_events, &stream_events);
        let outcome = LedgerAuditor::new(num_cores).check(&stream_events, &metrics);
        prop_assert!(outcome.is_ok(), "streamed ledger audit failed: {:?}", outcome.err());
    }

    /// A disabled overload governor is bit-invisible on every system and
    /// discipline: `run_streaming_observed` with `OverloadConfig::disabled()`
    /// and the observability plane disabled returns the exact batch
    /// `RunMetrics` (no admission decision, no tier change, no shed — the
    /// wrapped sinks are pure pass-through).
    #[test]
    fn disabled_governor_is_bit_invisible_on_every_system(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..100,
        seed in 0u64..1_000,
    ) {
        let t = testbed();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        let discipline = DISCIPLINES[discipline_index];

        fn governed<S: Scheduler>(
            build: impl Fn() -> S,
            discipline: QueueDiscipline,
            plan: &ArrivalPlan,
        ) -> (RunMetrics, RunMetrics, hetero_engine::OverloadReport) {
            let sim = Simulator::new(testbed().arch.num_cores()).with_discipline(discipline);
            let batch = sim.run(plan, &mut build());
            let outcome = hetero_engine::run_streaming_observed(
                &sim,
                plan.iter().copied(),
                &mut build(),
                &engine_config(),
                &OverloadConfig::disabled(),
                &hetero_engine::ObserveConfig::disabled(),
                None,
            );
            (batch, outcome.metrics, outcome.overload)
        }

        let (batch, governed_metrics, overload) = match system_index {
            0 => governed(|| BaseSystem::new(&t.oracle, t.model, t.arch.num_cores()), discipline, &plan),
            1 => governed(|| OptimalSystem::new(&t.arch, &t.oracle, t.model), discipline, &plan),
            2 => governed(
                || EnergyCentricSystem::new(&t.arch, &t.oracle, t.model, t.predictor.clone()),
                discipline, &plan,
            ),
            _ => governed(
                || ProposedSystem::with_model(&t.arch, &t.oracle, t.model, t.predictor.clone()),
                discipline, &plan,
            ),
        };
        assert_bit_identical(&batch, &governed_metrics);
        prop_assert_eq!(overload.shed(), 0);
        prop_assert_eq!(overload.offered, jobs as u64);
        prop_assert_eq!(overload.admitted, jobs as u64);
        prop_assert_eq!(overload.tier_transitions, 0);
    }

    /// Window reclamation at exact boundaries: when every arrival and
    /// completion timestamp lands exactly on a telemetry-window boundary
    /// (the off-by-one sweet spot for `drain_points`), the snapshot ring
    /// still conserves every counter and tiles the horizon — nothing is
    /// drained twice (the sink would panic) or silently lost.
    #[test]
    fn drains_at_exact_window_boundaries_conserve_everything(
        jobs in 1usize..60,
        stride_windows in 1u64..4,
        service_windows in 1u64..6,
    ) {
        use energy_model::EnergyBreakdown;
        use multicore_sim::{CoreIndex, Decision, Job, JobExecution};
        use workloads::{Arrival, BenchmarkId};

        struct ExactCycles(u64);
        impl Scheduler for ExactCycles {
            fn schedule(&mut self, _job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
                match cores.first_idle() {
                    Some(core) => Decision::run(core, JobExecution {
                        cycles: self.0,
                        energy: EnergyBreakdown { idle_nj: 0.0, dynamic_nj: 1.0, static_nj: 0.5 },
                    }),
                    None => Decision::Stall,
                }
            }
            fn idle_power_nj_per_cycle(&self, _core: multicore_sim::CoreId) -> f64 { 0.25 }
        }

        let window = engine_config().window_cycles;
        // Arrivals on exact window boundaries, service an exact number of
        // windows: every event timestamp is a multiple of the interval.
        let arrivals: Vec<Arrival> = (0..jobs)
            .map(|i| Arrival::new(i as u64 * stride_windows * window, BenchmarkId(i % 8)))
            .collect();
        let sim = Simulator::new(2);
        let outcome = run_streaming(
            &sim,
            arrivals.clone(),
            &mut ExactCycles(service_windows * window),
            &engine_config(),
        );
        let report = &outcome.report;
        prop_assert_eq!(report.totals.arrivals, jobs as u64);
        prop_assert_eq!(report.totals.completions, jobs as u64);
        prop_assert_eq!(
            report.snapshots.iter().map(|s| s.arrivals).sum::<u64>(),
            jobs as u64
        );
        prop_assert_eq!(
            report.snapshots.iter().map(|s| s.completions).sum::<u64>(),
            jobs as u64
        );
        prop_assert_eq!(report.latency_cycles.count(), jobs as u64);
        let span_energy: f64 = report.snapshots.iter().map(|s| s.energy_nj).sum();
        let total = report.energy_nj();
        prop_assert!(
            (span_energy - total).abs() <= 1e-9 * total.abs().max(1.0),
            "snapshot energy {} vs cumulative {}", span_energy, total
        );
        for pair in report.snapshots.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
        if let Some(last) = report.snapshots.last() {
            prop_assert_eq!(last.end, report.horizon);
        }
    }

    /// Open-loop determinism end to end: materialising an [`OpenLoop`]
    /// stream into a plan and batch-running it equals streaming the
    /// same-seeded stream directly into the engine.
    #[test]
    fn open_loop_streams_replay_deterministically(
        rate_tenths in 20u64..200,
        jobs in 50usize..150,
        seed in 0u64..1_000,
    ) {
        let t = testbed();
        let rate = rate_tenths as f64 / 10.0;
        let source = || OpenLoop::poisson(rate, t.suite.len(), seed).take(jobs);
        let plan = ArrivalPlan::from_stream(source(), jobs);
        let sim = Simulator::new(t.arch.num_cores());

        let batch = sim.run(&plan, &mut BaseSystem::new(&t.oracle, t.model, t.arch.num_cores()));
        let outcome = run_streaming(
            &sim,
            source(),
            &mut BaseSystem::new(&t.oracle, t.model, t.arch.num_cores()),
            &engine_config(),
        );
        assert_bit_identical(&batch, &outcome.metrics);
        prop_assert_eq!(outcome.report.totals.arrivals, jobs as u64);
    }
}
