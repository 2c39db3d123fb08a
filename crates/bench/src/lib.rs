//! Shared experiment harness for reproducing the paper's evaluation
//! (Section V/VI): builds the suite, oracle, and predictor once, runs the
//! four systems on one arrival plan, and formats the Figure 6 / Figure 7
//! normalisations.
//!
//! The experiment binaries (`figure6`, `figure7`, `ann_accuracy`,
//! `overheads`, `ablations`, `table1`) are thin wrappers over this crate.

pub mod json;
pub mod perf;
pub mod perfetto;
pub mod report;
pub mod telemetry_json;
pub mod trace_json;

use energy_model::{EnergyBreakdown, EnergyModel};
use hetero_core::{
    Architecture, BaseSystem, BestCorePredictor, DecisionPolicy, FallbackChain, OptimalSystem,
    PredictorConfig, ProposedSystem, SystemStats,
};
use multicore_sim::{
    CoreId, CoreIndex, Decision, FaultPlan, Job, RunMetrics, Scheduler, Simulator, TierCell,
};
use workloads::{ArrivalPlan, Suite};

pub use hetero_core::SuiteOracle;

/// Everything the experiments share: suite, energy model, oracle,
/// architecture, and the trained predictor.
pub struct Testbed {
    /// The benchmark suite.
    pub suite: Suite,
    /// The Figure 4 energy model.
    pub model: EnergyModel,
    /// Exhaustive design-space characterisation.
    pub oracle: SuiteOracle,
    /// The Figure 1 architecture.
    pub arch: Architecture,
    /// The trained bagged-ANN predictor.
    pub predictor: BestCorePredictor,
}

impl Testbed {
    /// Build the full-size testbed with the paper's predictor
    /// configuration.
    pub fn paper() -> Self {
        Self::with_suite(Suite::eembc_like(), PredictorConfig::paper())
    }

    /// A reduced testbed for fast runs.
    pub fn small() -> Self {
        Self::with_suite(Suite::eembc_like_small(), PredictorConfig::fast())
    }

    /// Build over an explicit suite and predictor configuration.
    pub fn with_suite(suite: Suite, predictor_config: PredictorConfig) -> Self {
        let model = EnergyModel::default();
        let oracle = SuiteOracle::build(&suite, &model);
        let arch = Architecture::paper_quad();
        let predictor = BestCorePredictor::train(&oracle, &predictor_config);
        Testbed {
            suite,
            model,
            oracle,
            arch,
            predictor,
        }
    }

    /// The paper's arrival workload: `jobs` uniform arrivals over
    /// `horizon` cycles (Sec. V uses 5000 arrivals).
    pub fn plan(&self, jobs: usize, horizon: u64, seed: u64) -> ArrivalPlan {
        ArrivalPlan::uniform(jobs, horizon, self.suite.len(), seed)
    }

    /// Build system `index` of [`SYSTEMS`] over this testbed. The two
    /// predictive systems (energy-centric, proposed) subscribe to `faults`,
    /// a fault plan plus the fallback chain to degrade through, and to
    /// `tier`, a brownout serving-tier cell plus an optional distilled
    /// student. Base and optimal take no predictions and ignore both.
    pub fn system<'a>(
        &'a self,
        index: usize,
        faults: Option<(&'a FaultPlan, &FallbackChain)>,
        tier: Option<(TierCell, Option<&BestCorePredictor>)>,
    ) -> PaperSystem<'a> {
        match index {
            0 => PaperSystem::Base(BaseSystem::new(
                &self.oracle,
                self.model,
                self.arch.num_cores(),
            )),
            1 => PaperSystem::Optimal(OptimalSystem::new(&self.arch, &self.oracle, self.model)),
            _ => {
                let policy = if index == 2 {
                    DecisionPolicy::BestCoreOnly
                } else {
                    DecisionPolicy::Evaluate
                };
                let mut system = ProposedSystem::with_model(
                    &self.arch,
                    &self.oracle,
                    self.model,
                    self.predictor.clone(),
                )
                .with_decision_policy(policy);
                if let Some((plan, chain)) = faults {
                    system = system.with_faults(plan, chain.clone());
                }
                if let Some((cell, student)) = tier {
                    system = system.with_serving_tier(cell, student.cloned());
                }
                PaperSystem::Predictive(system)
            }
        }
    }

    /// Run all four systems on one plan.
    ///
    /// The four simulations are independent (each builds its own scheduler
    /// state over shared read-only inputs), so they fan out across worker
    /// threads (`HETERO_THREADS` governs the count) and merge back in the
    /// paper's presentation order — the outcome is identical at any worker
    /// count; see [`run_all_with_threads`](Self::run_all_with_threads).
    pub fn run_all(&self, plan: &ArrivalPlan) -> Comparison {
        self.run_all_with_threads(plan, hetero_parallel::worker_count())
    }

    /// [`run_all`](Self::run_all) with an explicit worker count.
    /// `workers = 1` runs the four systems sequentially on the caller in
    /// the legacy order (base, optimal, energy-centric, proposed).
    pub fn run_all_with_threads(&self, plan: &ArrivalPlan, workers: usize) -> Comparison {
        let mut runs = hetero_parallel::map_indexed(SYSTEMS.len(), workers, |index| {
            let mut system = self.system(index, None, None);
            let metrics = Simulator::new(self.arch.num_cores()).run(plan, &mut system);
            SystemRun {
                metrics,
                stats: system.stats().unwrap_or_default(),
            }
        });
        let proposed = runs.pop().expect("four runs");
        let energy_centric = runs.pop().expect("four runs");
        let optimal = runs.pop().expect("four runs");
        let base = runs.pop().expect("four runs");
        Comparison {
            base,
            optimal,
            energy_centric,
            proposed,
        }
    }
}

/// The paper's four systems in presentation order; [`Testbed::system`]
/// takes an index into this list.
pub const SYSTEMS: [&str; 4] = ["base", "optimal", "energy-centric", "proposed"];

/// One of the paper's four systems, as built by [`Testbed::system`]. The
/// energy-centric system is a [`ProposedSystem`] under
/// [`DecisionPolicy::BestCoreOnly`].
// One value per run, built once and never stored in bulk, so the size
// gap between the variants costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PaperSystem<'a> {
    /// Fixed `8KB_4W_64B` on every core.
    Base(BaseSystem<'a>),
    /// Exhaustive-search comparator.
    Optimal(OptimalSystem<'a>),
    /// Energy-centric or proposed.
    Predictive(ProposedSystem<'a>),
}

impl<'a> PaperSystem<'a> {
    /// Scheduler-level counters; `None` for the base system, which keeps
    /// none.
    pub fn stats(&self) -> Option<SystemStats> {
        match self {
            PaperSystem::Base(_) => None,
            PaperSystem::Optimal(system) => Some(system.stats()),
            PaperSystem::Predictive(system) => Some(system.stats()),
        }
    }

    fn inner(&self) -> &(dyn Scheduler + 'a) {
        match self {
            PaperSystem::Base(system) => system,
            PaperSystem::Optimal(system) => system,
            PaperSystem::Predictive(system) => system,
        }
    }

    fn inner_mut(&mut self) -> &mut (dyn Scheduler + 'a) {
        match self {
            PaperSystem::Base(system) => system,
            PaperSystem::Optimal(system) => system,
            PaperSystem::Predictive(system) => system,
        }
    }
}

impl Scheduler for PaperSystem<'_> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        self.inner_mut().schedule(job, cores, now)
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        self.inner().idle_power_nj_per_cycle(core)
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner_mut().on_complete(job, core, now);
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner_mut().on_preempt(job, core, now);
    }

    fn state_fingerprint(&self) -> u64 {
        self.inner().state_fingerprint()
    }
}

/// One system's simulation outcome plus its instrumentation counters.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// Simulator-level metrics.
    pub metrics: RunMetrics,
    /// Scheduler-level counters.
    pub stats: SystemStats,
}

/// The four systems' outcomes on one shared arrival plan.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Fixed `8KB_4W_64B` on every core.
    pub base: SystemRun,
    /// Exhaustive-search comparator.
    pub optimal: SystemRun,
    /// ANN + always-stall comparator.
    pub energy_centric: SystemRun,
    /// The paper's proposed system.
    pub proposed: SystemRun,
}

impl Comparison {
    /// Iterate as (name, run) pairs in the paper's presentation order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &SystemRun)> {
        SYSTEMS.into_iter().zip([
            &self.base,
            &self.optimal,
            &self.energy_centric,
            &self.proposed,
        ])
    }
}

/// The paper's energy reporting convention: its figures show **idle**,
/// **dynamic**, and **total** bars. All leakage (idle cores + busy cores)
/// is grouped under "idle"-style static energy in our breakdown; we report
/// both groupings so the mapping is explicit.
#[derive(Debug, Clone, Copy)]
pub struct EnergyRow {
    /// Idle-core leakage only.
    pub idle_nj: f64,
    /// Dynamic energy.
    pub dynamic_nj: f64,
    /// Busy-core leakage.
    pub static_nj: f64,
    /// Everything.
    pub total_nj: f64,
}

impl EnergyRow {
    /// Extract from a breakdown.
    pub fn from_breakdown(energy: &EnergyBreakdown) -> Self {
        EnergyRow {
            idle_nj: energy.idle_nj,
            dynamic_nj: energy.dynamic_nj,
            static_nj: energy.static_nj,
            total_nj: energy.total(),
        }
    }

    /// Component-wise ratio to a baseline row (Figure 6/7 bars).
    pub fn normalized_to(&self, baseline: &EnergyRow) -> [f64; 3] {
        [
            self.idle_nj / baseline.idle_nj,
            self.dynamic_nj / baseline.dynamic_nj,
            self.total_nj / baseline.total_nj,
        ]
    }
}

/// Print a Figure 6/7-style normalised table.
///
/// `baseline` picks the normalisation row (Figure 6: base; Figure 7:
/// optimal). Cycles are included for Figure 7's performance series.
pub fn print_normalized_table(comparison: &Comparison, baseline_name: &str) {
    let baseline = comparison
        .iter()
        .find(|(name, _)| *name == baseline_name)
        .expect("baseline exists")
        .1;
    let baseline_row = EnergyRow::from_breakdown(&baseline.metrics.energy);
    let baseline_cycles = baseline.metrics.total_cycles as f64;

    println!(
        "{:<16} {:>8} {:>9} {:>8} {:>8}   (normalised to {})",
        "system", "idle", "dynamic", "total", "cycles", baseline_name
    );
    for (name, run) in comparison.iter() {
        let row = EnergyRow::from_breakdown(&run.metrics.energy);
        let [idle, dynamic, total] = row.normalized_to(&baseline_row);
        println!(
            "{:<16} {:>8.3} {:>9.3} {:>8.3} {:>8.3}",
            name,
            idle,
            dynamic,
            total,
            run.metrics.total_cycles as f64 / baseline_cycles,
        );
    }
}

/// Standard experiment scale: the paper's 5000 uniform arrivals, with a
/// horizon that yields moderate contention on the quad-core system.
pub const PAPER_JOBS: usize = 5000;

/// Default arrival horizon in cycles for [`PAPER_JOBS`] arrivals.
pub const PAPER_HORIZON: u64 = 700_000_000;

/// Default arrival-plan seed (printed by every binary for reproduction).
pub const PAPER_SEED: u64 = 20190325; // DATE 2019 conference date

/// Parse `jobs horizon seed` from argv with defaults.
pub fn parse_plan_args() -> (usize, u64, u64) {
    let mut args = std::env::args().skip(1);
    let jobs = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(PAPER_JOBS);
    let horizon = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(PAPER_HORIZON);
    let seed = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(PAPER_SEED);
    (jobs, horizon, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_testbed_runs_all_four_systems() {
        let testbed = Testbed::small();
        let plan = testbed.plan(120, 30_000_000, 1);
        let comparison = testbed.run_all(&plan);
        for (name, run) in comparison.iter() {
            assert_eq!(run.metrics.jobs_completed, 120, "{name}");
            assert!(run.metrics.energy.total() > 0.0, "{name}");
        }
    }

    #[test]
    fn proposed_beats_base_on_the_standard_shape() {
        // End-to-end smoke test of the fused characterisation pipeline:
        // the testbed's oracle and predictor were built through the fused
        // sweep and threaded fan-out, and the paper's headline ordering
        // must survive at any worker count.
        let testbed = Testbed::small();
        let plan = testbed.plan(300, 50_000_000, 2);
        for workers in [1, 4] {
            let comparison = testbed.run_all_with_threads(&plan, workers);
            assert!(
                comparison.proposed.metrics.energy.total() < comparison.base.metrics.energy.total(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn threaded_run_all_is_bit_identical_to_one_worker() {
        let testbed = Testbed::small();
        let plan = testbed.plan(150, 30_000_000, 7);
        let one = testbed.run_all_with_threads(&plan, 1);
        let four = testbed.run_all_with_threads(&plan, 4);
        for ((name, a), (_, b)) in one.iter().zip(four.iter()) {
            assert_eq!(a.metrics.total_cycles, b.metrics.total_cycles, "{name}");
            assert_eq!(a.metrics.jobs_completed, b.metrics.jobs_completed, "{name}");
            assert_eq!(a.metrics.busy_cycles, b.metrics.busy_cycles, "{name}");
            assert_eq!(a.metrics.stalls, b.metrics.stalls, "{name}");
            for (x, y) in [
                (a.metrics.energy.dynamic_nj, b.metrics.energy.dynamic_nj),
                (a.metrics.energy.static_nj, b.metrics.energy.static_nj),
                (a.metrics.energy.idle_nj, b.metrics.energy.idle_nj),
                (a.stats.profiling_energy_nj, b.stats.profiling_energy_nj),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}: energy bits");
            }
            assert_eq!(a.stats.profiling_runs, b.stats.profiling_runs, "{name}");
            assert_eq!(a.stats.tuning_runs, b.stats.tuning_runs, "{name}");
            assert_eq!(
                a.stats.decisions_evaluated, b.stats.decisions_evaluated,
                "{name}"
            );
            assert_eq!(
                a.stats.decisions_ran_non_best, b.stats.decisions_ran_non_best,
                "{name}"
            );
        }
    }

    /// Satellite check: memoizing ensemble predictions per benchmark id
    /// changes no observable outcome — all four systems' `RunMetrics` and
    /// scheduler counters are bitwise identical with and without the memo
    /// table, at one worker and at several.
    #[test]
    fn memoized_predictor_leaves_run_metrics_unchanged() {
        let mut testbed = Testbed::small();
        let plan = testbed.plan(150, 30_000_000, 11);
        let memoized: Vec<Comparison> = [1usize, 4]
            .iter()
            .map(|&w| testbed.run_all_with_threads(&plan, w))
            .collect();
        testbed.predictor = testbed.predictor.without_memo();
        let direct: Vec<Comparison> = [1usize, 4]
            .iter()
            .map(|&w| testbed.run_all_with_threads(&plan, w))
            .collect();
        for (workers, (with_memo, without)) in [1, 4].iter().zip(memoized.iter().zip(&direct)) {
            for ((name, a), (_, b)) in with_memo.iter().zip(without.iter()) {
                assert_eq!(
                    a.metrics.total_cycles, b.metrics.total_cycles,
                    "{name} workers={workers}"
                );
                assert_eq!(a.metrics.jobs_completed, b.metrics.jobs_completed, "{name}");
                assert_eq!(a.metrics.busy_cycles, b.metrics.busy_cycles, "{name}");
                assert_eq!(a.metrics.stalls, b.metrics.stalls, "{name}");
                for (x, y) in [
                    (a.metrics.energy.dynamic_nj, b.metrics.energy.dynamic_nj),
                    (a.metrics.energy.static_nj, b.metrics.energy.static_nj),
                    (a.metrics.energy.idle_nj, b.metrics.energy.idle_nj),
                    (a.stats.profiling_energy_nj, b.stats.profiling_energy_nj),
                ] {
                    assert_eq!(x.to_bits(), y.to_bits(), "{name}: energy bits");
                }
                assert_eq!(a.stats.profiling_runs, b.stats.profiling_runs, "{name}");
                assert_eq!(a.stats.tuning_runs, b.stats.tuning_runs, "{name}");
            }
        }
    }

    #[test]
    fn energy_row_normalisation_is_component_wise() {
        let row = EnergyRow {
            idle_nj: 2.0,
            dynamic_nj: 4.0,
            static_nj: 1.0,
            total_nj: 7.0,
        };
        let baseline = EnergyRow {
            idle_nj: 4.0,
            dynamic_nj: 2.0,
            static_nj: 1.0,
            total_nj: 7.0,
        };
        assert_eq!(row.normalized_to(&baseline), [0.5, 2.0, 1.0]);
    }
}
