//! Chaos sweep: graceful degradation of all four systems under injected
//! faults.
//!
//! Sweeps fault rates x seeds x systems (base / optimal / energy-centric /
//! proposed) through [`Simulator::run_with_faults`], injecting transient
//! core outages, job crashes with bounded exponential-backoff retry, hangs
//! killed by the watchdog, corrupted profiling features, and predictor
//! outages. The predictive systems degrade through the
//! [`FallbackChain`] (ANN -> kNN -> static base configuration). Every run
//! is checked for:
//!
//! 1. **no panic** — any unwind fails the whole sweep;
//! 2. **conservation of jobs** — every arrival either completes or is
//!    explicitly abandoned at the retry cap (no job is ever lost);
//! 3. **bounded retries** — observed failure counts never exceed the
//!    configured `max_attempts`;
//! 4. **bit-exact accounting** — the recorded trace replays through
//!    [`LedgerAuditor::check_faulted`] to the simulator's own ledger *and*
//!    fault counters, energies compared to the bit;
//! 5. **stall purity** — fault handling must not break the Scheduler
//!    contract that `Stall`-returning calls leave state untouched;
//! 6. **zero-rate identity** — at fault rate 0 the faulted loop must equal
//!    the untraced reference loop bit for bit, with all-zero fault
//!    counters.
//!
//! The sweep ends with a **drift drill**: every benchmark's profiling
//! counters are miscalibrated by a fixed multiplicative factor (the
//! persistent cousin of the transient corrupted-feature fault), the
//! deployed predictor's accuracy is shown to degrade, and
//! [`BestCorePredictor::refine`] must recover it online — continuing SGD
//! on the drifted readings with the stale memo invalidated — without a
//! full characterise-and-retrain rebuild.
//!
//! It then runs an **overload drill**: a bursty storm at ~2.5x the
//! sustainable service rate through the admission governor and brownout
//! controller on all four systems, gated on (a) bounded queue depth,
//! (b) a disabled governor being bit-identical to a plain stream —
//! event ledger included — and (c) the serving tier returning to full
//! service after the storm. The report lands in the artifact's
//! `"overload"` section.
//!
//! Finally, a **burn-rate drill** replays the storm through the
//! observability plane with the SLO burn-rate alert wired to a
//! serving-tier floor: the drill gates on the full causal lifecycle —
//! the paging rule fires under sustained budget burn, the firing alert
//! browns the service out to the distilled tier, and the post-storm
//! quiet resolves the alert and lifts the floor. The transition
//! timeline lands in the artifact's `"burn"` section.
//!
//! Usage: `chaos [--smoke]`
//!
//! * `--smoke` — one seed, two rates, reduced jobs (`scripts/check.sh`).
//!
//! The full sweep writes a degradation report to
//! `results/BENCH_chaos.json`. Exits non-zero on any check failure.

use cache_sim::CacheSizeKb;
use energy_model::EnergyModel;
use hetero_bench::json::Json;
use hetero_bench::Testbed;
use hetero_core::{
    BaseSystem, BestCorePredictor, EnergyCentricSystem, FallbackChain, OptimalSystem,
    ProposedSystem, SuiteOracle, SystemStats,
};
use hetero_engine::{
    run_streaming_observed, BrownoutConfig, EngineConfig, GovernorHandle, ObserveConfig,
    OverloadConfig, ShedPolicy, SloPolicy,
};
use hetero_telemetry::{AlertState, BurnRateRule, Histogram};
use multicore_sim::{
    tier_cell, FaultConfig, FaultPlan, FaultStats, FaultedRun, LedgerAuditor, QueueDiscipline,
    RecordingSink, Scheduler, ServingTier, Simulator, StallPurityChecked, TierCell, TraceEvent,
};
use std::process::ExitCode;
use tinyann::{DistillConfig, TrainConfig};
use workloads::{Arrival, ArrivalPlan, BenchmarkId, SplitMix64};

const SYSTEMS: [&str; 4] = ["base", "optimal", "energy-centric", "proposed"];

const DISCIPLINES: [(QueueDiscipline, &str); 2] = [
    (QueueDiscipline::Fifo, "fifo"),
    (QueueDiscipline::PreemptivePriority, "preemptive-priority"),
];

const PRIORITY_LEVELS: u8 = 3;

/// One chaos run: the faulted ledger, the recorded stream, purity
/// outcome, and (for the predictive systems) degradation counters.
struct ChaosRun {
    run: FaultedRun,
    events: Vec<TraceEvent>,
    purity_violations: Vec<String>,
    stats: Option<SystemStats>,
}

fn chaos_one<S: Scheduler>(
    system: S,
    num_cores: usize,
    discipline: QueueDiscipline,
    plan: &ArrivalPlan,
    faults: &FaultPlan,
) -> (ChaosRun, S) {
    let mut checked = StallPurityChecked::new(system);
    let mut sink = RecordingSink::new();
    let run = Simulator::new(num_cores)
        .with_discipline(discipline)
        .run_with_faults(plan, &mut checked, faults, &mut sink);
    let purity_violations = checked.violations().to_vec();
    (
        ChaosRun {
            run,
            events: sink.into_events(),
            purity_violations,
            stats: None,
        },
        checked.into_inner(),
    )
}

/// Run `system_index` (paper presentation order) under the fault plan.
/// `check_identity` additionally replays a fresh instance through the
/// untraced reference loop and demands bit-exact agreement (only
/// meaningful when the plan is empty).
fn run_system(
    testbed: &Testbed,
    chain: &FallbackChain,
    system_index: usize,
    discipline: QueueDiscipline,
    plan: &ArrivalPlan,
    faults: &FaultPlan,
    check_identity: bool,
) -> (ChaosRun, Vec<String>) {
    let num_cores = testbed.arch.num_cores();
    let model: EnergyModel = testbed.model;
    let mut problems = Vec::new();

    let chaos = match system_index {
        0 => {
            let system = BaseSystem::new(&testbed.oracle, model, num_cores);
            let (chaos, _) = chaos_one(system, num_cores, discipline, plan, faults);
            chaos
        }
        1 => {
            let system = OptimalSystem::new(&testbed.arch, &testbed.oracle, model);
            let (mut chaos, system) = chaos_one(system, num_cores, discipline, plan, faults);
            chaos.stats = Some(system.stats());
            chaos
        }
        2 => {
            let system = EnergyCentricSystem::new(
                &testbed.arch,
                &testbed.oracle,
                model,
                testbed.predictor.clone(),
            )
            .with_faults(faults, chain.clone());
            let (mut chaos, system) = chaos_one(system, num_cores, discipline, plan, faults);
            chaos.stats = Some(system.stats());
            chaos
        }
        _ => {
            let system = ProposedSystem::with_model(
                &testbed.arch,
                &testbed.oracle,
                model,
                testbed.predictor.clone(),
            )
            .with_faults(faults, chain.clone());
            let (mut chaos, system) = chaos_one(system, num_cores, discipline, plan, faults);
            chaos.stats = Some(system.stats());
            chaos
        }
    };

    if check_identity {
        let reference = match system_index {
            0 => {
                let mut system = BaseSystem::new(&testbed.oracle, model, num_cores);
                Simulator::new(num_cores)
                    .with_discipline(discipline)
                    .run_reference(plan, &mut system)
            }
            1 => {
                let mut system = OptimalSystem::new(&testbed.arch, &testbed.oracle, model);
                Simulator::new(num_cores)
                    .with_discipline(discipline)
                    .run_reference(plan, &mut system)
            }
            2 => {
                let mut system = EnergyCentricSystem::new(
                    &testbed.arch,
                    &testbed.oracle,
                    model,
                    testbed.predictor.clone(),
                )
                .with_faults(faults, chain.clone());
                Simulator::new(num_cores)
                    .with_discipline(discipline)
                    .run_reference(plan, &mut system)
            }
            _ => {
                let mut system = ProposedSystem::with_model(
                    &testbed.arch,
                    &testbed.oracle,
                    model,
                    testbed.predictor.clone(),
                )
                .with_faults(faults, chain.clone());
                Simulator::new(num_cores)
                    .with_discipline(discipline)
                    .run_reference(plan, &mut system)
            }
        };
        if chaos.run.metrics != reference
            || chaos.run.metrics.energy.idle_nj.to_bits() != reference.energy.idle_nj.to_bits()
            || chaos.run.metrics.energy.dynamic_nj.to_bits()
                != reference.energy.dynamic_nj.to_bits()
            || chaos.run.metrics.energy.static_nj.to_bits() != reference.energy.static_nj.to_bits()
        {
            problems.push("zero-rate run diverges from the reference loop".to_string());
        }
        if chaos.run.faults != FaultStats::default() {
            problems.push(format!(
                "zero-rate run reports fault activity: {:?}",
                chaos.run.faults
            ));
        }
    }

    (chaos, problems)
}

/// Fold the completed jobs' turnaround times out of the recorded trace
/// into a log-linear histogram, so the degradation table carries tail
/// percentiles and not just the makespan.
fn latency_histogram(events: &[TraceEvent]) -> Histogram {
    let mut histogram = Histogram::new();
    for event in events {
        if let TraceEvent::Completion { at, arrival, .. } = event {
            histogram.record(at - arrival);
        }
    }
    histogram
}

#[allow(clippy::too_many_arguments)]
fn report_row(
    rate: f64,
    seed: u64,
    discipline: &str,
    system: &str,
    jobs: usize,
    chaos: &ChaosRun,
    latency: &Histogram,
) -> Json {
    let faults = chaos.run.faults;
    let metrics = &chaos.run.metrics;
    let mut pairs = vec![
        ("rate", Json::Num(rate)),
        ("seed", Json::UInt(seed)),
        ("discipline", Json::str(discipline)),
        ("system", Json::str(system)),
        ("jobs", Json::UInt(jobs as u64)),
        ("completed", Json::UInt(metrics.jobs_completed)),
        ("abandoned", Json::UInt(faults.jobs_failed)),
        ("crashes", Json::UInt(faults.crashes)),
        ("watchdog_kills", Json::UInt(faults.watchdog_kills)),
        ("outage_evictions", Json::UInt(faults.outage_evictions)),
        ("retries", Json::UInt(faults.retries)),
        ("fallbacks", Json::UInt(faults.fallbacks)),
        (
            "degraded_transitions",
            Json::UInt(faults.degraded_transitions),
        ),
        (
            "max_attempts_observed",
            Json::UInt(u64::from(faults.max_attempts_observed)),
        ),
        ("total_energy_nj", Json::Num(metrics.energy.total())),
        ("makespan_cycles", Json::UInt(metrics.total_cycles)),
        ("latency_p50_cycles", Json::UInt(latency.p50())),
        ("latency_p95_cycles", Json::UInt(latency.p95())),
        ("latency_p99_cycles", Json::UInt(latency.p99())),
        ("latency_max_cycles", Json::UInt(latency.max())),
        ("events", Json::UInt(chaos.events.len() as u64)),
    ];
    if let Some(stats) = chaos.stats {
        pairs.push(("degraded_placements", Json::UInt(stats.degraded_placements)));
        pairs.push((
            "fallback_predictions",
            Json::UInt(stats.fallback_predictions),
        ));
    }
    Json::object(pairs)
}

/// Per-feature multiplicative drift factors — a deterministic,
/// systematic miscalibration of the profiling counters (the persistent
/// cousin of the fault plan's transient corrupted-feature regime, which
/// the fallback chain handles by *dropping* the features; drift instead
/// has to be *learned*).
fn drift_factors(strength: f64, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..workloads::FEATURE_COUNT)
        .map(|_| 1.0 + strength * (rng.next_f64() * 2.0 - 1.0))
        .collect()
}

/// Exact-size hit count and mean energy degradation of `predictor`
/// evaluated directly (no memo) on the given feature rows.
fn drift_accuracy(
    predictor: &BestCorePredictor,
    oracle: &SuiteOracle,
    rows: &[(BenchmarkId, Vec<f64>)],
) -> (usize, f64) {
    let mut hits = 0usize;
    let mut degradation = 0.0f64;
    for (benchmark, features) in rows {
        let predicted = CacheSizeKb::nearest(predictor.predict_raw_features(features));
        if predicted == oracle.best_size(*benchmark) {
            hits += 1;
        }
        let best = oracle.best_config(*benchmark).1.total_nj();
        degradation += oracle
            .best_config_with_size(*benchmark, predicted)
            .1
            .total_nj()
            / best
            - 1.0;
    }
    (hits, degradation / rows.len() as f64)
}

/// End-to-end incremental-retraining drill: drift every benchmark's
/// counters by a fixed multiplicative miscalibration, watch the deployed
/// predictor degrade, then [`BestCorePredictor::refine`] it on the
/// drifted readings (labelled by the oracle, i.e. by observed outcomes)
/// and demand that accuracy recovers — **without** a full
/// characterise-and-retrain rebuild. Returns the report row and any
/// violated guarantees.
fn drift_scenario(testbed: &Testbed, refine_epochs: usize) -> (Json, Vec<String>) {
    let oracle = &testbed.oracle;
    let factors = drift_factors(0.5, 0xD21F7);
    let clean: Vec<(BenchmarkId, Vec<f64>)> = oracle
        .benchmarks()
        .map(|b| (b, oracle.execution_statistics(b).to_vector().to_vec()))
        .collect();
    let drifted: Vec<(BenchmarkId, Vec<f64>)> = clean
        .iter()
        .map(|(b, row)| (*b, row.iter().zip(&factors).map(|(v, f)| v * f).collect()))
        .collect();

    let mut predictor = testbed.predictor.clone();
    let total = clean.len();
    let (baseline_hits, baseline_deg) = drift_accuracy(&predictor, oracle, &clean);
    let (degraded_hits, degraded_deg) = drift_accuracy(&predictor, oracle, &drifted);

    let samples: Vec<(BenchmarkId, Vec<f64>, CacheSizeKb)> = drifted
        .iter()
        .map(|(b, row)| (*b, row.clone(), oracle.best_size(*b)))
        .collect();
    let updated = predictor.refine(
        &samples,
        &TrainConfig {
            epochs: refine_epochs,
            ..TrainConfig::default()
        },
    );
    let (recovered_hits, recovered_deg) = drift_accuracy(&predictor, oracle, &drifted);

    println!("\ndrift scenario: persistent counter miscalibration (x0.5..x1.5 per feature)");
    println!(
        "  clean features          {baseline_hits:>3}/{total} exact, {:+.2}% mean energy",
        baseline_deg * 100.0
    );
    println!(
        "  drifted, before refine  {degraded_hits:>3}/{total} exact, {:+.2}% mean energy",
        degraded_deg * 100.0
    );
    println!(
        "  drifted, after refine   {recovered_hits:>3}/{total} exact, {:+.2}% mean energy  ({refine_epochs} epochs, no rebuild)",
        recovered_deg * 100.0
    );

    let mut problems = Vec::new();
    if !updated {
        problems.push("drift refine reported no model update".to_string());
    }
    // The drill is only meaningful if the drift really hurt, and only
    // passes if online refinement genuinely repairs the damage.
    if degraded_hits >= baseline_hits {
        problems.push(format!(
            "drift did not degrade the predictor ({degraded_hits} >= {baseline_hits} exact hits)"
        ));
    }
    if recovered_hits < baseline_hits {
        problems.push(format!(
            "refine failed to recover accuracy: {recovered_hits}/{total} exact after \
             refine vs {baseline_hits}/{total} on clean features"
        ));
    }
    if recovered_deg > degraded_deg {
        problems.push(format!(
            "refine worsened mean energy degradation: {:.3}% -> {:.3}%",
            degraded_deg * 100.0,
            recovered_deg * 100.0
        ));
    }

    let row = Json::object([
        ("drift_strength", Json::Num(0.5)),
        ("benchmarks", Json::UInt(total as u64)),
        ("refine_epochs", Json::UInt(refine_epochs as u64)),
        ("baseline_exact", Json::UInt(baseline_hits as u64)),
        ("degraded_exact", Json::UInt(degraded_hits as u64)),
        ("recovered_exact", Json::UInt(recovered_hits as u64)),
        ("baseline_mean_degradation", Json::Num(baseline_deg)),
        ("degraded_mean_degradation", Json::Num(degraded_deg)),
        ("recovered_mean_degradation", Json::Num(recovered_deg)),
        ("recovered", Json::Bool(problems.is_empty())),
    ]);
    (row, problems)
}

/// Build one system for the overload drill, subscribing the predictive
/// systems to the shared serving-tier cell (the base and optimal systems
/// take no predictions at completion time, so the cell has nothing to
/// steer there — the governor still accounts tier dwell for them).
fn overload_system<'a>(
    testbed: &'a Testbed,
    system_index: usize,
    cell: Option<TierCell>,
    student: Option<&BestCorePredictor>,
) -> Box<dyn Scheduler + 'a> {
    let model = testbed.model;
    let num_cores = testbed.arch.num_cores();
    match system_index {
        0 => Box::new(BaseSystem::new(&testbed.oracle, model, num_cores)),
        1 => Box::new(OptimalSystem::new(&testbed.arch, &testbed.oracle, model)),
        2 => {
            let mut system = EnergyCentricSystem::new(
                &testbed.arch,
                &testbed.oracle,
                model,
                testbed.predictor.clone(),
            );
            if let Some(cell) = cell {
                system = system.with_serving_tier(cell, student.cloned());
            }
            Box::new(system)
        }
        _ => {
            let mut system = ProposedSystem::with_model(
                &testbed.arch,
                &testbed.oracle,
                model,
                testbed.predictor.clone(),
            );
            if let Some(cell) = cell {
                system = system.with_serving_tier(cell, student.cloned());
            }
            Box::new(system)
        }
    }
}

/// Overload chaos drill: a bursty storm at ~2.5x the sustainable service
/// rate followed by a trickle, run through the admission governor and
/// brownout controller on all four systems. Three gates per system:
///
/// (a) **bounded queue depth** — in-flight never exceeds the configured
///     capacity plus the documented one-peek staleness;
/// (b) **disabled bit-identity** — the same storm through a *disabled*
///     governor equals a plain `run_stream` bit for bit, **including the
///     event ledger**;
/// (c) **post-storm recovery** — the serving tier is back at full
///     service by the horizon.
///
/// Returns the `"overload"` report rows and any violated gates.
fn overload_drill(testbed: &Testbed, smoke: bool) -> (Json, Vec<String>) {
    let num_cores = testbed.arch.num_cores();
    let suite_len = testbed.suite.len();

    // Sustainable service rate from the oracle: mean best-config cycles
    // across the suite, spread over every core.
    let mean_cycles = (testbed
        .oracle
        .benchmarks()
        .map(|b| testbed.oracle.best_config(b).1.cycles)
        .sum::<u64>() as f64
        / suite_len as f64)
        .max(1.0) as u64;
    let max_cycles = testbed
        .oracle
        .benchmarks()
        .map(|b| testbed.oracle.best_config(b).1.cycles)
        .max()
        .unwrap_or(mean_cycles);

    // Storm at 2.5x the sustainable rate, then a trickle at ~25% load so
    // the backlog drains and the brownout controller can climb back.
    let storm_gap = (mean_cycles / (num_cores as u64 * 5 / 2)).max(1);
    let trickle_gap = max_cycles;
    let (storm_jobs, trickle_jobs) = if smoke {
        (150u64, 80u64)
    } else {
        (600u64, 200u64)
    };
    let storm_end = storm_jobs * storm_gap;
    let arrivals: Vec<Arrival> = (0..storm_jobs)
        .map(|i| (i * storm_gap, i))
        .chain((0..trickle_jobs).map(|i| (storm_end + (i + 1) * trickle_gap, storm_jobs + i)))
        .map(|(time, i)| Arrival {
            time,
            benchmark: BenchmarkId(i as usize % suite_len),
            priority: (i % 3) as u8,
        })
        .collect();

    // Drop-tail keeps the queue-depth signal honest: the backlog is
    // allowed to fill to capacity (so the brownout's depth trigger
    // engages) instead of being pre-empted by a latency estimate. The
    // age- and priority-based policies are covered by the engine's unit
    // tests.
    // The cadence must resolve the storm: at mean-service granularity the
    // ~12x-mean storm spans a dozen-plus control windows, enough for the
    // two-window hysteresis to walk the whole tier ladder.
    let control_window = mean_cycles;
    let queue_capacity = num_cores as u64 * 8;
    let overload = OverloadConfig {
        queue_capacity: Some(queue_capacity),
        policy: ShedPolicy::DropTail,
        rate_limit: None,
        brownout: Some(BrownoutConfig {
            control_window_cycles: control_window,
            depth_high: queue_capacity / 2,
            depth_low: num_cores as u64,
            latency_budget_cycles: 3 * max_cycles,
            breach_fraction: 0.5,
            step_up_after: 2,
            step_down_after: 2,
        }),
        breaker: None,
    };
    let engine_config = EngineConfig {
        window_cycles: control_window,
        snapshot_windows: 4,
        max_snapshots: 64,
        slo: SloPolicy::default(),
    };
    let student = testbed.predictor.distill(
        &testbed.oracle,
        &DistillConfig {
            replicas: 2,
            hidden: vec![8],
            train: TrainConfig {
                epochs: 80,
                ..TrainConfig::default()
            },
            ..DistillConfig::default()
        },
    );

    println!(
        "\noverload drill: storm {storm_jobs} jobs @2.5x sustainable (gap {storm_gap}), \
         trickle {trickle_jobs}, queue capacity {queue_capacity}"
    );
    let mut problems = Vec::new();
    let mut rows = Vec::new();
    for (system_index, system_name) in SYSTEMS.iter().enumerate() {
        let sim = Simulator::new(num_cores);
        let cell = tier_cell();
        let mut system =
            overload_system(testbed, system_index, Some(cell.clone()), student.as_ref());
        let outcome = run_streaming_observed(
            &sim,
            arrivals.iter().copied(),
            &mut *system,
            &engine_config,
            &overload,
            &ObserveConfig::disabled(),
            Some(cell),
        );
        let report = &outcome.overload;

        // Gate (a): bounded queue depth (capacity + one-peek staleness).
        if report.max_in_flight > queue_capacity + 1 {
            problems.push(format!(
                "{system_name}: in-flight peaked at {} over the bound of {}",
                report.max_in_flight,
                queue_capacity + 1
            ));
        }
        // The drill must actually overload: an untouched governor proves
        // nothing about degradation.
        if report.shed() == 0 {
            problems.push(format!(
                "{system_name}: the storm shed nothing — drill not overloaded"
            ));
        }
        if report.tier_transitions == 0 {
            problems.push(format!(
                "{system_name}: the brownout controller never stepped — drill not overloaded"
            ));
        }
        // Gate (c): full service restored by the horizon.
        if report.final_tier != ServingTier::Full {
            problems.push(format!(
                "{system_name}: still serving at tier {} at the horizon",
                report.final_tier.name()
            ));
        }
        let recovered_at = report.recovered_at.unwrap_or(outcome.report.horizon);
        let recovery_cycles = recovered_at.saturating_sub(storm_end);

        // Gate (b): shedding disabled is bit-identical to a plain
        // `run_stream`, event ledger included.
        let mut plain_sink = RecordingSink::new();
        let mut plain_system = overload_system(testbed, system_index, None, None);
        let plain = sim.run_stream(
            arrivals.iter().copied(),
            &mut *plain_system,
            &mut plain_sink,
        );
        let governor = GovernorHandle::new(&OverloadConfig::disabled(), num_cores, None);
        let mut governed_sink = RecordingSink::new();
        let mut governed_system = overload_system(testbed, system_index, None, None);
        let governed = {
            let mut wrapped = governor.sink(&mut governed_sink);
            let metrics = sim.run_stream(
                governor.gate(arrivals.iter().copied()),
                &mut *governed_system,
                &mut wrapped,
            );
            wrapped.finish();
            metrics
        };
        if plain != governed
            || plain.energy.dynamic_nj.to_bits() != governed.energy.dynamic_nj.to_bits()
            || plain.energy.static_nj.to_bits() != governed.energy.static_nj.to_bits()
            || plain.energy.idle_nj.to_bits() != governed.energy.idle_nj.to_bits()
        {
            problems.push(format!(
                "{system_name}: disabled governor diverges from the plain stream"
            ));
        }
        if plain_sink.events() != governed_sink.events() {
            problems.push(format!(
                "{system_name}: disabled governor rewrites the event ledger"
            ));
        }

        let goodput = outcome.report.throughput_jobs_per_mcycle();
        println!(
            "  {system_name:<14} offered {:>4} admitted {:>4} shed {:>3} ({:>4.1}%)  \
             depth max {:>2}  tiers {}  recovery {:>9} cycles  goodput {goodput:.2}/Mcy",
            report.offered,
            report.admitted,
            report.shed(),
            report.shed_fraction() * 100.0,
            report.max_in_flight,
            report.tier_transitions,
            recovery_cycles,
        );
        rows.push(Json::object([
            ("system", Json::str(*system_name)),
            ("offered", Json::UInt(report.offered)),
            ("admitted", Json::UInt(report.admitted)),
            ("shed", Json::UInt(report.shed())),
            ("shed_fraction", Json::Num(report.shed_fraction())),
            ("shed_queue_full", Json::UInt(report.shed_by_reason[0])),
            ("shed_deadline", Json::UInt(report.shed_by_reason[1])),
            ("shed_priority", Json::UInt(report.shed_by_reason[2])),
            ("shed_rate_limit", Json::UInt(report.shed_by_reason[3])),
            ("max_in_flight", Json::UInt(report.max_in_flight)),
            ("completed", Json::UInt(outcome.metrics.jobs_completed)),
            ("goodput_jobs_per_mcycle", Json::Num(goodput)),
            (
                "tier_dwell_cycles",
                Json::Array(
                    report
                        .tier_dwell_cycles
                        .iter()
                        .map(|&d| Json::UInt(d))
                        .collect(),
                ),
            ),
            ("tier_transitions", Json::UInt(report.tier_transitions)),
            ("final_tier", Json::str(report.final_tier.name())),
            ("recovery_cycles_after_storm", Json::UInt(recovery_cycles)),
        ]));
    }

    let section = Json::object([
        ("storm_jobs", Json::UInt(storm_jobs)),
        ("trickle_jobs", Json::UInt(trickle_jobs)),
        ("storm_gap_cycles", Json::UInt(storm_gap)),
        ("trickle_gap_cycles", Json::UInt(trickle_gap)),
        ("queue_capacity", Json::UInt(queue_capacity)),
        ("mean_service_cycles", Json::UInt(mean_cycles)),
        ("rows", Json::Array(rows)),
    ]);
    (section, problems)
}

/// Burn-rate storm drill: the same storm-then-trickle shape pushed
/// through the *observability plane* on the proposed system, with the
/// SLO burn-rate rule wired to a serving-tier floor instead of the
/// queue-depth brownout controller. The drill demands the full alert
/// lifecycle in causal order:
///
/// 1. **fire** — sustained storm latency burns the p99 budget and the
///    paging rule transitions `pending → firing`;
/// 2. **brownout** — the firing alert engages the serving-tier floor
///    (the governor's ladder steps down and dwells below full);
/// 3. **resolve** — the post-storm trickle rolls quiet windows, the
///    rule clears, and the lifted floor returns the tier to full.
///
/// Returns the `"burn"` report section and any violated gates.
fn burn_drill(testbed: &Testbed, smoke: bool) -> (Json, Vec<String>) {
    let num_cores = testbed.arch.num_cores();
    let suite_len = testbed.suite.len();
    let mean_cycles = (testbed
        .oracle
        .benchmarks()
        .map(|b| testbed.oracle.best_config(b).1.cycles)
        .sum::<u64>() as f64
        / suite_len as f64)
        .max(1.0) as u64;
    let max_cycles = testbed
        .oracle
        .benchmarks()
        .map(|b| testbed.oracle.best_config(b).1.cycles)
        .max()
        .unwrap_or(mean_cycles);

    // Storm at 2.5x sustainable, then a light trickle (one arrival per
    // base window) long enough for the backlog to drain, the slow burn
    // window to forget the storm, and the clearing streak to complete.
    let storm_gap = (mean_cycles / (num_cores as u64 * 5 / 2)).max(1);
    let (storm_jobs, trickle_jobs) = if smoke {
        (150u64, 60u64)
    } else {
        (600u64, 60u64)
    };
    let storm_end = storm_jobs * storm_gap;
    let arrivals: Vec<Arrival> = (0..storm_jobs)
        .map(|i| (i * storm_gap, i))
        .chain((0..trickle_jobs).map(|i| (storm_end + (i + 1) * mean_cycles, storm_jobs + i)))
        .map(|(time, i)| Arrival {
            time,
            benchmark: BenchmarkId(i as usize % suite_len),
            priority: (i % 3) as u8,
        })
        .collect();

    // A bounded drop-tail queue keeps storm latency finite (and the
    // drill fast) without any tier control of its own: every tier move
    // here is the alert floor's doing.
    let queue_capacity = num_cores as u64 * 8;
    let overload = OverloadConfig {
        queue_capacity: Some(queue_capacity),
        policy: ShedPolicy::DropTail,
        rate_limit: None,
        brownout: None,
        breaker: None,
    };
    // Any wait beyond roughly one mean service is "bad": storm queueing
    // (~8 means deep) breaches it, pure trickle service never does.
    let rule = BurnRateRule {
        name: "p99-latency".to_string(),
        latency_budget_cycles: max_cycles + mean_cycles,
        error_budget: 0.01,
        fast_windows: 3,
        slow_windows: 12,
        fire_burn_rate: 6.0,
        clear_burn_rate: 1.0,
        sustain_evals: 4,
        clear_evals: 3,
    };
    let observe = ObserveConfig {
        rules: vec![rule.clone()],
        assemble_spans: false,
        alert_tier_floor: Some(ServingTier::Distilled),
        serve_port: None,
    };
    let engine_config = EngineConfig {
        window_cycles: mean_cycles,
        snapshot_windows: 4,
        max_snapshots: 64,
        slo: SloPolicy::default(),
    };

    let sim = Simulator::new(num_cores);
    let cell = tier_cell();
    let mut system = overload_system(testbed, 3, Some(cell.clone()), None);
    let outcome = run_streaming_observed(
        &sim,
        arrivals.iter().copied(),
        &mut *system,
        &engine_config,
        &overload,
        &observe,
        Some(cell),
    );
    let alerts = &outcome.alerts;
    let report = &outcome.overload;

    let fired_at = alerts
        .transitions
        .iter()
        .find(|t| t.to == AlertState::Firing)
        .map(|t| t.at);
    let resolved_at = alerts
        .transitions
        .iter()
        .find(|t| t.from == AlertState::Firing && t.to == AlertState::Inactive)
        .map(|t| t.at);

    println!(
        "\nburn drill: storm {storm_jobs} jobs @2.5x sustainable, trickle {trickle_jobs}, \
         p99 budget {} cycles, floor distilled",
        rule.latency_budget_cycles
    );
    println!(
        "  fired {} resolved {}  floor engagements {}  tier transitions {}  \
         dwell distilled {} cycles  final tier {}",
        alerts.fired,
        alerts.resolved,
        report.alert_floor_engagements,
        report.tier_transitions,
        report.tier_dwell_cycles[1],
        report.final_tier.name(),
    );
    match (fired_at, resolved_at) {
        (Some(fire), Some(resolve)) => println!(
            "  lifecycle: fired at cycle {fire} (storm ends {storm_end}) -> \
             browned out -> resolved at cycle {resolve} -> floor lifted"
        ),
        _ => println!("  lifecycle incomplete (see gate failures)"),
    }

    let mut problems = Vec::new();
    if alerts.fired == 0 {
        problems.push("burn drill: the storm never fired the paging rule".to_string());
    }
    if report.alert_floor_engagements == 0 {
        problems.push("burn drill: the firing alert never engaged the tier floor".to_string());
    }
    if report.tier_dwell_cycles[1] == 0 {
        problems.push("burn drill: the service never dwelled at the distilled floor".to_string());
    }
    if alerts.resolved == 0 || !alerts.firing().is_empty() {
        problems.push(format!(
            "burn drill: the alert never resolved (still firing: {:?})",
            alerts.firing()
        ));
    }
    if report.alert_floor != ServingTier::Full {
        problems.push(format!(
            "burn drill: the floor was never lifted (still {})",
            report.alert_floor.name()
        ));
    }
    if report.final_tier != ServingTier::Full {
        problems.push(format!(
            "burn drill: finished at tier {} instead of full serving",
            report.final_tier.name()
        ));
    }
    if let (Some(fire), Some(resolve)) = (fired_at, resolved_at) {
        if fire >= resolve {
            problems.push(format!(
                "burn drill: resolve at {resolve} does not follow fire at {fire}"
            ));
        }
    }

    let section = Json::object([
        ("storm_jobs", Json::UInt(storm_jobs)),
        ("trickle_jobs", Json::UInt(trickle_jobs)),
        ("storm_gap_cycles", Json::UInt(storm_gap)),
        ("queue_capacity", Json::UInt(queue_capacity)),
        (
            "latency_budget_cycles",
            Json::UInt(rule.latency_budget_cycles),
        ),
        ("fire_burn_rate", Json::Num(rule.fire_burn_rate)),
        ("clear_burn_rate", Json::Num(rule.clear_burn_rate)),
        ("fired", Json::UInt(alerts.fired)),
        ("resolved", Json::UInt(alerts.resolved)),
        (
            "fired_at_cycle",
            fired_at.map(Json::UInt).unwrap_or(Json::Null),
        ),
        (
            "resolved_at_cycle",
            resolved_at.map(Json::UInt).unwrap_or(Json::Null),
        ),
        (
            "alert_floor_engagements",
            Json::UInt(report.alert_floor_engagements),
        ),
        ("tier_transitions", Json::UInt(report.tier_transitions)),
        (
            "tier_dwell_cycles",
            Json::Array(
                report
                    .tier_dwell_cycles
                    .iter()
                    .map(|&d| Json::UInt(d))
                    .collect(),
            ),
        ),
        ("final_tier", Json::str(report.final_tier.name())),
        (
            "transitions",
            Json::Array(
                alerts
                    .transitions
                    .iter()
                    .map(|t| {
                        Json::object([
                            ("at", Json::UInt(t.at)),
                            ("rule", Json::str(t.name.clone())),
                            ("from", Json::str(t.from.name())),
                            ("to", Json::str(t.to.name())),
                            ("fast_burn", Json::Num(t.fast_burn)),
                            ("slow_burn", Json::Num(t.slow_burn)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    (section, problems)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if let Some(unknown) = args.iter().find(|a| *a != "--smoke") {
        eprintln!("unknown argument: {unknown} (expected --smoke)");
        return ExitCode::FAILURE;
    }

    let (jobs, horizon, rates, seeds, disciplines): (usize, u64, &[f64], &[u64], &[_]) = if smoke {
        (100, 10_000_000, &[0.0, 0.15], &[101], &DISCIPLINES[..1])
    } else {
        (
            300,
            30_000_000,
            &[0.0, 0.05, 0.15, 0.30],
            &[101, 202, 303],
            &DISCIPLINES[..],
        )
    };

    println!(
        "chaos sweep: 4 systems x {} rate(s) x {} seed(s) x {} discipline(s), {jobs} jobs each",
        rates.len(),
        seeds.len(),
        disciplines.len()
    );
    let testbed = Testbed::small();
    let chain = FallbackChain::train(&testbed.oracle);
    let num_cores = testbed.arch.num_cores();
    let auditor = LedgerAuditor::new(num_cores);

    let mut failures = 0u32;
    let mut runs = 0u32;
    let mut rows: Vec<Json> = Vec::new();

    for &rate in rates {
        for &seed in seeds {
            let plan = ArrivalPlan::uniform_with_priorities(
                jobs,
                horizon,
                testbed.suite.len(),
                PRIORITY_LEVELS,
                seed,
            );
            // The fault horizon covers the arrival window; the makespan
            // tail past it simply sees no further fault activity.
            let config = FaultConfig::chaos(rate, seed, horizon);
            let faults = FaultPlan::build(&config, num_cores);
            for &(discipline, discipline_name) in disciplines {
                for (system_index, system_name) in SYSTEMS.iter().enumerate() {
                    let (chaos, mut problems) = run_system(
                        &testbed,
                        &chain,
                        system_index,
                        discipline,
                        &plan,
                        &faults,
                        rate == 0.0,
                    );
                    runs += 1;

                    // Conservation of jobs: nothing is ever lost.
                    let accounted = chaos.run.metrics.jobs_completed + chaos.run.faults.jobs_failed;
                    if accounted != jobs as u64 {
                        problems.push(format!(
                            "{accounted} of {jobs} jobs accounted for (lost jobs!)"
                        ));
                    }
                    // Bounded retries.
                    if chaos.run.faults.max_attempts_observed > config.max_attempts {
                        problems.push(format!(
                            "observed {} attempts exceeds the cap of {}",
                            chaos.run.faults.max_attempts_observed, config.max_attempts
                        ));
                    }
                    // Bit-exact accounting under every fault regime.
                    if let Err(divergences) = auditor.check_faulted(&chaos.events, &chaos.run) {
                        problems.extend(divergences);
                    }
                    problems.extend(chaos.purity_violations.iter().cloned());

                    let latency = latency_histogram(&chaos.events);
                    let verdict = if problems.is_empty() { "ok" } else { "FAIL" };
                    let faults_seen = chaos.run.faults;
                    println!(
                        "  rate {rate:<4} seed {seed:>3} {discipline_name:<20} {system_name:<14} \
                         {:>4} ok {:>3} abandoned  {:>3} crash {:>3} hang {:>3} outage  \
                         lat p95 {:>8}  {verdict}",
                        chaos.run.metrics.jobs_completed,
                        faults_seen.jobs_failed,
                        faults_seen.crashes,
                        faults_seen.watchdog_kills,
                        faults_seen.outage_evictions,
                        latency.p95(),
                    );
                    if !problems.is_empty() {
                        failures += 1;
                        for problem in &problems {
                            eprintln!("    {problem}");
                        }
                    }
                    rows.push(report_row(
                        rate,
                        seed,
                        discipline_name,
                        system_name,
                        jobs,
                        &chaos,
                        &latency,
                    ));
                }
            }
        }
    }

    println!("{runs} chaos runs executed");

    // Persistent-drift drill: the corrupted-feature regime above drops bad
    // features per job; a lasting counter miscalibration instead gets
    // repaired online through incremental retraining.
    let (drift_row, drift_problems) = drift_scenario(&testbed, if smoke { 80 } else { 200 });
    if !drift_problems.is_empty() {
        failures += 1;
        for problem in &drift_problems {
            eprintln!("    {problem}");
        }
    }

    // Overload drill: storms at multiples of the sustainable rate through
    // the admission governor and brownout controller.
    let (overload_section, overload_problems) = overload_drill(&testbed, smoke);
    if !overload_problems.is_empty() {
        failures += 1;
        for problem in &overload_problems {
            eprintln!("    {problem}");
        }
    }

    // Burn-rate drill: the SLO alert engine drives the brownout instead
    // of the queue-depth controller — fire, floor, resolve, lift.
    let (burn_section, burn_problems) = burn_drill(&testbed, smoke);
    if !burn_problems.is_empty() {
        failures += 1;
        for problem in &burn_problems {
            eprintln!("    {problem}");
        }
    }

    if failures > 0 {
        eprintln!("CHAOS SWEEP FAILED: {failures} run(s) violated degradation guarantees");
        return ExitCode::FAILURE;
    }

    if !smoke {
        let doc = Json::object([
            ("experiment", Json::str("chaos")),
            ("jobs", Json::UInt(jobs as u64)),
            (
                "rates",
                Json::Array(rates.iter().map(|&r| Json::Num(r)).collect()),
            ),
            (
                "seeds",
                Json::Array(seeds.iter().map(|&s| Json::UInt(s)).collect()),
            ),
            ("runs", Json::UInt(u64::from(runs))),
            ("rows", Json::Array(rows)),
            ("drift", drift_row),
            ("overload", overload_section),
            ("burn", burn_section),
        ]);
        let path = "results/BENCH_chaos.json";
        match std::fs::write(path, doc.to_pretty()) {
            Ok(()) => println!("wrote {path}"),
            Err(err) => {
                eprintln!("export to {path} failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "CHAOS SWEEP PASSED: jobs conserved, retries bounded, ledgers bit-exact, \
         stall paths pure, drift repaired online, overload shed and recovered, \
         burn alert fired and resolved"
    );
    ExitCode::SUCCESS
}
