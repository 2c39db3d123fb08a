//! Golden cross-version decisions: every profiled system on one fixed,
//! contended plan must reproduce the recorded ledger, counters and
//! profiling-table contents exactly.
//!
//! The recorded values were captured from the string-keyed profiling
//! table that preceded the index-addressed one. A change to the
//! `explored()` iteration order, to a `min_by` tie-break in the optimal
//! system, or to any placement moves at least one digest. On a mismatch
//! the test prints every scenario's actual values, so an intended
//! behaviour change can re-record them in one pass.

use cache_sim::CacheSizeKb;
use energy_model::EnergyModel;
use hetero_core::{
    Architecture, BestCorePredictor, DecisionPolicy, FallbackChain, OptimalSystem, PredictorConfig,
    ProfilingTable, ProposedSystem, SuiteOracle, SystemStats,
};
use multicore_sim::{
    FaultConfig, FaultPlan, FaultStats, NullSink, QueueDiscipline, RunMetrics, Scheduler, Simulator,
};
use workloads::{ArrivalPlan, Suite};

/// FNV-1a over 64-bit words; floats enter by their bit patterns.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn str(&mut self, text: &str) {
        for byte in text.bytes() {
            self.u64(u64::from(byte));
        }
        self.u64(u64::MAX);
    }
}

/// The readable half of one scenario's outcome, plus digests over the
/// whole of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    jobs_completed: u64,
    total_cycles: u64,
    stalls: u64,
    stall_offers: u64,
    preemptions: u64,
    tuning_runs: u64,
    decisions_evaluated: u64,
    decisions_ran_non_best: u64,
    explored_total: usize,
    /// Every `RunMetrics` field (and the fault counters, when faulted).
    metrics_digest: u64,
    /// Every `SystemStats` field.
    stats_digest: u64,
    /// Each benchmark's id, prediction and `explored()` sequence, in
    /// table order: config names, cycles and energies.
    table_digest: u64,
}

fn observe(
    metrics: &RunMetrics,
    faults: Option<&FaultStats>,
    stats: SystemStats,
    table: &ProfilingTable,
) -> Golden {
    let mut m = Digest::new();
    m.f64(metrics.energy.idle_nj);
    m.f64(metrics.energy.dynamic_nj);
    m.f64(metrics.energy.static_nj);
    m.u64(metrics.total_cycles);
    m.u64(metrics.jobs_completed);
    m.u64(metrics.stalls);
    m.u64(metrics.stall_offers);
    for &busy in &metrics.busy_cycles {
        m.u64(busy);
    }
    m.u64(metrics.turnaround_cycles);
    for (&priority, class) in &metrics.by_priority {
        m.u64(u64::from(priority));
        m.u64(class.jobs);
        m.u64(class.turnaround_cycles);
    }
    m.u64(metrics.preemptions);
    if let Some(f) = faults {
        for value in [
            f.outage_evictions,
            f.crashes,
            f.watchdog_kills,
            f.retries,
            f.jobs_failed,
            u64::from(f.max_attempts_observed),
            f.fallbacks,
            f.degraded_transitions,
        ] {
            m.u64(value);
        }
    }

    let mut s = Digest::new();
    s.u64(stats.profiling_runs);
    s.f64(stats.profiling_energy_nj);
    s.u64(stats.tuning_runs);
    s.u64(stats.decisions_evaluated);
    s.u64(stats.decisions_ran_non_best);
    s.u64(stats.degraded_placements);
    s.u64(stats.fallback_predictions);
    s.u64(stats.distilled_predictions);

    let mut t = Digest::new();
    let mut explored_total = 0;
    for (benchmark, entry) in table.iter() {
        t.u64(benchmark.0 as u64);
        t.u64(u64::from(entry.predicted_best_size.kilobytes()));
        for (config, cost) in entry.explored() {
            explored_total += 1;
            t.str(&config.to_string());
            t.u64(cost.cycles);
            t.f64(cost.energy.dynamic_nj);
            t.f64(cost.energy.static_nj);
            t.f64(cost.energy.idle_nj);
        }
        for size in CacheSizeKb::ALL {
            match entry.best_known_for_size(size) {
                Some((config, _)) => t.str(&config.to_string()),
                None => t.u64(0),
            }
        }
    }

    Golden {
        jobs_completed: metrics.jobs_completed,
        total_cycles: metrics.total_cycles,
        stalls: metrics.stalls,
        stall_offers: metrics.stall_offers,
        preemptions: metrics.preemptions,
        tuning_runs: stats.tuning_runs,
        decisions_evaluated: stats.decisions_evaluated,
        decisions_ran_non_best: stats.decisions_ran_non_best,
        explored_total,
        metrics_digest: m.0,
        stats_digest: s.0,
        table_digest: t.0,
    }
}

struct Testbed {
    suite: Suite,
    model: EnergyModel,
    oracle: SuiteOracle,
    arch: Architecture,
    predictor: BestCorePredictor,
}

impl Testbed {
    fn new() -> Self {
        let suite = Suite::eembc_like_small();
        let model = EnergyModel::default();
        let oracle = SuiteOracle::build(&suite, &model);
        let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
        Testbed {
            suite,
            model,
            oracle,
            arch: Architecture::paper_quad(),
            predictor,
        }
    }

    /// The fixed contended plan: 400 jobs over 10M cycles keeps every
    /// core busy, so the Sec. IV.E evaluation, tuning steps and stalls all
    /// occur.
    fn plan(&self) -> ArrivalPlan {
        ArrivalPlan::uniform(400, 10_000_000, self.suite.len(), 35)
    }

    fn priority_plan(&self) -> ArrivalPlan {
        ArrivalPlan::uniform_with_priorities(400, 10_000_000, self.suite.len(), 3, 35)
    }

    fn proposed(&self) -> ProposedSystem<'_> {
        ProposedSystem::with_model(&self.arch, &self.oracle, self.model, self.predictor.clone())
    }

    /// The energy-centric system. Its scenarios were recorded from the
    /// standalone type that preceded this policy.
    fn energy_centric(&self) -> ProposedSystem<'_> {
        self.proposed()
            .with_decision_policy(DecisionPolicy::BestCoreOnly)
    }
}

fn run<S: Scheduler>(
    plan: &ArrivalPlan,
    discipline: QueueDiscipline,
    system: &mut S,
) -> RunMetrics {
    Simulator::new(4)
        .with_discipline(discipline)
        .run(plan, system)
}

fn scenarios(bed: &Testbed) -> Vec<(&'static str, Golden)> {
    let plan = bed.plan();
    let mut out = Vec::new();

    let mut proposed = bed.proposed();
    let metrics = run(&plan, QueueDiscipline::Fifo, &mut proposed);
    out.push((
        "proposed_fifo",
        observe(&metrics, None, proposed.stats(), proposed.table()),
    ));

    let mut optimal = OptimalSystem::new(&bed.arch, &bed.oracle, bed.model);
    let metrics = run(&plan, QueueDiscipline::Fifo, &mut optimal);
    out.push((
        "optimal_fifo",
        observe(&metrics, None, optimal.stats(), optimal.table()),
    ));

    let mut centric = bed.energy_centric();
    let metrics = run(&plan, QueueDiscipline::Fifo, &mut centric);
    out.push((
        "energy_centric_fifo",
        observe(&metrics, None, centric.stats(), centric.table()),
    ));

    let priority_plan = bed.priority_plan();
    let mut proposed = bed.proposed();
    let metrics = run(
        &priority_plan,
        QueueDiscipline::PreemptivePriority,
        &mut proposed,
    );
    out.push((
        "proposed_preemptive",
        observe(&metrics, None, proposed.stats(), proposed.table()),
    ));

    let mut optimal = OptimalSystem::new(&bed.arch, &bed.oracle, bed.model);
    let metrics = run(
        &priority_plan,
        QueueDiscipline::PreemptivePriority,
        &mut optimal,
    );
    out.push((
        "optimal_preemptive",
        observe(&metrics, None, optimal.stats(), optimal.table()),
    ));

    let fault_plan = FaultPlan::build(&FaultConfig::chaos(0.3, 6, 10_000_000), 4);
    let mut proposed = bed
        .proposed()
        .with_faults(&fault_plan, FallbackChain::train(&bed.oracle));
    let faulted =
        Simulator::new(4).run_with_faults(&plan, &mut proposed, &fault_plan, &mut NullSink);
    out.push((
        "proposed_faulted",
        observe(
            &faulted.metrics,
            Some(&faulted.faults),
            proposed.stats(),
            proposed.table(),
        ),
    ));

    let mut centric = bed.energy_centric();
    let metrics = run(
        &priority_plan,
        QueueDiscipline::PreemptivePriority,
        &mut centric,
    );
    out.push((
        "energy_centric_preemptive",
        observe(&metrics, None, centric.stats(), centric.table()),
    ));

    let mut centric = bed
        .energy_centric()
        .with_faults(&fault_plan, FallbackChain::train(&bed.oracle));
    let faulted =
        Simulator::new(4).run_with_faults(&plan, &mut centric, &fault_plan, &mut NullSink);
    out.push((
        "energy_centric_faulted",
        observe(
            &faulted.metrics,
            Some(&faulted.faults),
            centric.stats(),
            centric.table(),
        ),
    ));

    let blackout = FaultPlan::build(&FaultConfig::predictor_blackout(7), 4);
    let mut centric = bed
        .energy_centric()
        .with_faults(&blackout, FallbackChain::train(&bed.oracle));
    let faulted = Simulator::new(4).run_with_faults(&plan, &mut centric, &blackout, &mut NullSink);
    out.push((
        "energy_centric_blackout",
        observe(
            &faulted.metrics,
            Some(&faulted.faults),
            centric.stats(),
            centric.table(),
        ),
    ));

    out
}

const EXPECTED: &[(&str, Golden)] = &[
    (
        "proposed_fifo",
        Golden {
            jobs_completed: 400,
            total_cycles: 10_869_729,
            stalls: 92,
            stall_offers: 1119,
            preemptions: 0,
            tuning_runs: 183,
            decisions_evaluated: 152,
            decisions_ran_non_best: 120,
            explored_total: 200,
            metrics_digest: 0x1789603d086d5f9e,
            stats_digest: 0x255679ac825b597d,
            table_digest: 0xce15e9f5359e9c0d,
        },
    ),
    (
        "optimal_fifo",
        Golden {
            jobs_completed: 400,
            total_cycles: 11_941_897,
            stalls: 18,
            stall_offers: 65,
            preemptions: 0,
            tuning_runs: 309,
            decisions_evaluated: 0,
            decisions_ran_non_best: 0,
            explored_total: 319,
            metrics_digest: 0xafe93f652c8a2f5d,
            stats_digest: 0xcb357f30ad3b82e4,
            table_digest: 0x9fb6ce8597c98e6a,
        },
    ),
    (
        "energy_centric_fifo",
        Golden {
            jobs_completed: 400,
            total_cycles: 25_278_100,
            stalls: 248,
            stall_offers: 58_329,
            preemptions: 0,
            tuning_runs: 66,
            decisions_evaluated: 0,
            decisions_ran_non_best: 0,
            explored_total: 86,
            metrics_digest: 0x1c407d54e0056294,
            stats_digest: 0x9bd96b7ef975eb28,
            table_digest: 0x85ea9290fcc18474,
        },
    ),
    (
        "proposed_preemptive",
        Golden {
            jobs_completed: 400,
            total_cycles: 12_645_566,
            stalls: 118,
            stall_offers: 1614,
            preemptions: 119,
            tuning_runs: 297,
            decisions_evaluated: 151,
            decisions_ran_non_best: 133,
            explored_total: 202,
            metrics_digest: 0x58bb33b3a98636a1,
            stats_digest: 0xee64c24867c12d28,
            table_digest: 0xd56063a511928f8e,
        },
    ),
    (
        "optimal_preemptive",
        Golden {
            jobs_completed: 400,
            total_cycles: 14_658_499,
            stalls: 18,
            stall_offers: 62,
            preemptions: 136,
            tuning_runs: 417,
            decisions_evaluated: 0,
            decisions_ran_non_best: 0,
            explored_total: 302,
            metrics_digest: 0x233faaa16eb3ff88,
            stats_digest: 0x676259cd5a24376d,
            table_digest: 0x95fcdac81881e2a1,
        },
    ),
    (
        "proposed_faulted",
        Golden {
            jobs_completed: 399,
            total_cycles: 20_414_908,
            stalls: 132,
            stall_offers: 463,
            preemptions: 0,
            tuning_runs: 295,
            decisions_evaluated: 136,
            decisions_ran_non_best: 136,
            explored_total: 211,
            metrics_digest: 0xee4d1eb95a2a54e8,
            stats_digest: 0x6b63fc159dbf8874,
            table_digest: 0x556b2adc447925f6,
        },
    ),
    (
        "energy_centric_preemptive",
        Golden {
            jobs_completed: 400,
            total_cycles: 25_278_100,
            stalls: 252,
            stall_offers: 54_395,
            preemptions: 2,
            tuning_runs: 68,
            decisions_evaluated: 0,
            decisions_ran_non_best: 0,
            explored_total: 86,
            metrics_digest: 0x884c01a15ff7eca8,
            stats_digest: 0x51b36b22f262bfae,
            table_digest: 0x85ea9290fcc18474,
        },
    ),
    (
        "energy_centric_faulted",
        Golden {
            jobs_completed: 399,
            total_cycles: 26_600_095,
            stalls: 497,
            stall_offers: 106_939,
            preemptions: 0,
            tuning_runs: 113,
            decisions_evaluated: 0,
            decisions_ran_non_best: 0,
            explored_total: 86,
            metrics_digest: 0xef44a109fef7171f,
            stats_digest: 0xf2aee994159966cc,
            table_digest: 0xf163bc0a129ea837,
        },
    ),
    (
        "energy_centric_blackout",
        Golden {
            jobs_completed: 400,
            total_cycles: 10_551_854,
            stalls: 0,
            stall_offers: 0,
            preemptions: 0,
            tuning_runs: 0,
            decisions_evaluated: 0,
            decisions_ran_non_best: 0,
            explored_total: 0,
            metrics_digest: 0xe4d7240c2f4a8884,
            stats_digest: 0xfefcf9eba30ccd1a,
            table_digest: 0xcbf29ce484222325,
        },
    ),
];

#[test]
fn decisions_match_the_recorded_golden_runs() {
    let bed = Testbed::new();
    let actual = scenarios(&bed);
    let mismatched: Vec<&str> = actual
        .iter()
        .filter(|(name, golden)| {
            EXPECTED
                .iter()
                .find(|(expected, _)| expected == name)
                .is_none_or(|(_, expected)| expected != golden)
        })
        .map(|(name, _)| *name)
        .collect();
    if !mismatched.is_empty() {
        for (name, golden) in &actual {
            println!("{name}: {golden:?}");
        }
    }
    assert!(
        mismatched.is_empty(),
        "scenarios {mismatched:?} moved from the recorded golden runs"
    );
    assert_eq!(actual.len(), EXPECTED.len());
}
