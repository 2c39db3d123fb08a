//! State shared by the profiled systems (optimal, energy-centric,
//! proposed).

use crate::arch::Architecture;
use crate::oracle::SuiteOracle;
use crate::profiling::{ProfileEntry, ProfilingTable};
use cache_sim::{CacheConfig, CacheSizeKb, BASE_CONFIG};
use energy_model::{EnergyModel, ExecutionCost};
use multicore_sim::{CoreId, CoreIndex, Decision, Fingerprint, Job, JobExecution};
use std::collections::HashMap;
use workloads::BenchmarkId;

/// Instrumentation counters exposed by every system, backing the paper's
/// Section VI overhead claims (profiling < 0.5 % of total energy; tuning
/// explores a small fraction of the design space).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SystemStats {
    /// Profiling executions performed.
    pub profiling_runs: u64,
    /// Energy consumed by profiling executions, in nanojoules.
    pub profiling_energy_nj: f64,
    /// Executions whose configuration was chosen by the tuning explorer.
    pub tuning_runs: u64,
    /// Section IV.E candidate evaluations, committed only when the call
    /// results in a `Run` decision (stall-returning calls must leave all
    /// observable state untouched — the Scheduler contract the preemption
    /// probe relies on).
    pub decisions_evaluated: u64,
    /// Decisions that sent the job to a non-best core.
    pub decisions_ran_non_best: u64,
    /// Placements made in predictor-blackout degraded mode: first idle
    /// core in the base configuration, i.e. the base system's behaviour.
    pub degraded_placements: u64,
    /// Profile predictions served by a fallback stage (kNN or static)
    /// instead of the primary predictor.
    pub fallback_predictions: u64,
    /// Profile predictions served by the distilled student (brownout
    /// tier 1) instead of the full ensemble.
    pub distilled_predictions: u64,
}

/// What a scheduled execution means, applied to the profiling table when
/// the job completes (the paper records results as executions finish).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pending {
    /// A profiling execution in the base configuration.
    Profile {
        /// The benchmark being profiled.
        benchmark: BenchmarkId,
    },
    /// A normal execution in some configuration.
    Execution {
        /// The executing benchmark.
        benchmark: BenchmarkId,
        /// The configuration it runs in.
        config: CacheConfig,
    },
}

/// A record of what currently occupies a core, for the remaining-energy
/// estimate of the Section IV.E decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Running {
    /// Sequence number of the occupying job.
    pub seq: u64,
    /// Total cost of the occupying execution.
    pub cost: ExecutionCost,
}

/// Mutable state common to the profiled systems.
#[derive(Debug, Clone)]
pub struct Shared<'a> {
    pub arch: &'a Architecture,
    pub oracle: &'a SuiteOracle,
    pub model: EnergyModel,
    /// Current cache configuration loaded on each core (idle power and
    /// direct-configuration bookkeeping).
    pub core_config: Vec<CacheConfig>,
    pub table: ProfilingTable,
    pub stats: SystemStats,
    /// Pending profiling-table update of the execution on each core, with
    /// its job sequence number, indexed by core. Every launch ends in
    /// `complete` or `abort` on its own core; a preemption probe is the
    /// one interleaving, placing the urgent job before the victim's
    /// `on_preempt` arrives (see [`launch`](Self::launch)).
    pub pending: Vec<Option<(u64, Pending)>>,
    /// Occupancy records keyed by core index. Like `pending`, a record
    /// carries its job's seq, so the victim's late abort after a granted
    /// preemption probe cannot clear the urgent job's record.
    pub running: Vec<Option<Running>>,
    /// Benchmarks whose profiling execution is in flight: further
    /// instances must wait (no information exists yet).
    pub profiling_in_flight: HashMap<BenchmarkId, u64>,
}

impl<'a> Shared<'a> {
    /// Fresh state over an architecture/oracle pair.
    pub fn new(arch: &'a Architecture, oracle: &'a SuiteOracle, model: EnergyModel) -> Self {
        let core_config = arch.cores().map(|c| arch.default_config(c)).collect();
        Shared {
            arch,
            oracle,
            model,
            core_config,
            table: ProfilingTable::new(),
            stats: SystemStats::default(),
            pending: vec![None; arch.num_cores()],
            running: vec![None; arch.num_cores()],
            profiling_in_flight: HashMap::new(),
        }
    }

    /// Leakage power of `core` in its currently-loaded configuration.
    pub fn idle_power(&self, core: CoreId) -> f64 {
        self.model.static_nj_per_cycle(self.core_config[core.0])
    }

    /// Launch `job` on `core` in `config`, registering all bookkeeping.
    /// The execution's true cost comes from the oracle — this is the
    /// physical act of running the job.
    ///
    /// A granted preemption probe launches onto the victim's core before
    /// the victim's `on_preempt`; the victim's pending record is retired
    /// here (as [`abort`](Self::abort) would) and its late `abort` then
    /// finds both slots owned by another job and leaves them alone.
    pub fn launch(
        &mut self,
        job: &Job,
        core: CoreId,
        config: CacheConfig,
        pending: Pending,
    ) -> Decision {
        let cost = self.oracle.cost(job.benchmark, config);
        self.core_config[core.0] = config;
        self.running[core.0] = Some(Running { seq: job.seq, cost });
        if let Some((_, displaced)) = self.pending[core.0].replace((job.seq, pending)) {
            self.retire_aborted(displaced);
        }
        if let Pending::Profile { benchmark } = pending {
            self.profiling_in_flight.insert(benchmark, job.seq);
            self.stats.profiling_runs += 1;
            self.stats.profiling_energy_nj += cost.total_nj();
        }
        Decision::run(
            core,
            JobExecution {
                cycles: cost.cycles,
                energy: cost.energy,
            },
        )
    }

    /// Try to start a profiling execution for `job` on the primary (then
    /// secondary) profiling core; stall when both are busy or when this
    /// benchmark's profile is already being gathered.
    pub fn try_profile(&mut self, job: &Job, cores: &CoreIndex) -> Decision {
        if self.profiling_in_flight.contains_key(&job.benchmark) {
            return Decision::Stall;
        }
        let primary = self.arch.primary_profiling_core();
        let secondary = self.arch.secondary_profiling_core();
        for core in std::iter::once(primary).chain(secondary) {
            if cores.is_idle(core) {
                return self.launch(
                    job,
                    core,
                    BASE_CONFIG,
                    Pending::Profile {
                        benchmark: job.benchmark,
                    },
                );
            }
        }
        Decision::Stall
    }

    /// Apply the profiling-table effects of a completed job. The caller
    /// supplies the best-size prediction to store for fresh profiles
    /// (ANN output, or ground truth for the optimal comparator).
    pub fn complete(
        &mut self,
        job: &Job,
        core: CoreId,
        predict: impl FnOnce(&Self) -> CacheSizeKb,
    ) {
        self.running[core.0] = None;
        match self.take_pending(job, core) {
            Some(Pending::Profile { benchmark }) => {
                self.profiling_in_flight.remove(&benchmark);
                let statistics = self.oracle.execution_statistics(benchmark);
                let base_cost = self.oracle.cost(benchmark, BASE_CONFIG);
                let predicted = predict(self);
                let mut entry = ProfileEntry::new(statistics, base_cost, predicted);
                entry.record_execution(BASE_CONFIG, base_cost);
                self.table.insert(benchmark, entry);
            }
            Some(Pending::Execution { benchmark, config }) => {
                let cost = self.oracle.cost(benchmark, config);
                if let Some(entry) = self.table.get_mut(benchmark) {
                    entry.record_execution(config, cost);
                }
            }
            None => {}
        }
    }

    /// Discard the bookkeeping of a preempted (never-completed) execution:
    /// the pending profiling-table update is dropped — the scheduler never
    /// observed the run finish — and an interrupted profiling execution is
    /// un-marked so the benchmark can be profiled again.
    pub fn abort(&mut self, job: &Job, core: CoreId) {
        self.running[core.0].take_if(|running| running.seq == job.seq);
        if let Some(pending) = self.take_pending(job, core) {
            self.retire_aborted(pending);
        }
    }

    /// Take `core`'s pending record if it belongs to `job`.
    fn take_pending(&mut self, job: &Job, core: CoreId) -> Option<Pending> {
        self.pending[core.0]
            .take_if(|(seq, _)| *seq == job.seq)
            .map(|(_, pending)| pending)
    }

    /// Drop the record of an execution that never completed; an
    /// interrupted profiling execution is un-marked.
    fn retire_aborted(&mut self, pending: Pending) {
        if let Pending::Profile { benchmark } = pending {
            self.profiling_in_flight.remove(&benchmark);
            // The energy was (partially) spent but the statistics were
            // lost; keep profiling_runs/energy as-charged counters of
            // attempts, which is what the overhead experiment reports.
        }
    }

    /// First idle core in id order, if any (one trailing-zeros scan over
    /// the idle mask words).
    pub fn first_idle(cores: &CoreIndex) -> Option<CoreId> {
        cores.first_idle()
    }

    /// Digest of every piece of observable policy state, backing
    /// [`Scheduler::state_fingerprint`](multicore_sim::Scheduler::state_fingerprint)
    /// for the stall-purity checker: two `Shared` values that differ in any
    /// decision-relevant field must fingerprint differently.
    ///
    /// The `HashMap` field is folded order-independently (XOR of
    /// per-entry sub-digests); indexed state iterates in index order.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.stats.profiling_runs);
        fp.write_f64(self.stats.profiling_energy_nj);
        fp.write_u64(self.stats.tuning_runs);
        fp.write_u64(self.stats.decisions_evaluated);
        fp.write_u64(self.stats.decisions_ran_non_best);
        fp.write_u64(self.stats.degraded_placements);
        fp.write_u64(self.stats.fallback_predictions);
        for config in &self.core_config {
            fp.write_usize(config.design_space_index());
        }
        for slot in &self.running {
            match slot {
                Some(running) => {
                    fp.write_u64(1);
                    fp.write_u64(running.seq);
                    fp.write_u64(running.cost.cycles);
                    fp.write_f64(running.cost.energy.dynamic_nj);
                    fp.write_f64(running.cost.energy.static_nj);
                }
                None => fp.write_u64(0),
            }
        }
        for slot in &self.pending {
            match slot {
                None => fp.write_u64(0),
                Some((seq, Pending::Profile { benchmark })) => {
                    fp.write_u64(1);
                    fp.write_u64(*seq);
                    fp.write_usize(benchmark.0);
                }
                Some((seq, Pending::Execution { benchmark, config })) => {
                    fp.write_u64(2);
                    fp.write_u64(*seq);
                    fp.write_usize(benchmark.0);
                    fp.write_usize(config.design_space_index());
                }
            }
        }
        let mut in_flight_digest = 0u64;
        for (&benchmark, &seq) in &self.profiling_in_flight {
            let mut sub = Fingerprint::new();
            sub.write_usize(benchmark.0);
            sub.write_u64(seq);
            in_flight_digest ^= sub.finish();
        }
        fp.write_u64(in_flight_digest);
        for (benchmark, entry) in self.table.iter() {
            fp.write_usize(benchmark.0);
            fp.write_u64(u64::from(entry.predicted_best_size.kilobytes()));
            for (config, cost) in entry.explored() {
                fp.write_usize(config.design_space_index());
                fp.write_u64(cost.cycles);
                fp.write_f64(cost.energy.dynamic_nj);
                fp.write_f64(cost.energy.static_nj);
            }
            for size in CacheSizeKb::ALL {
                match entry.tuner(size) {
                    Some(tuner) => {
                        fp.write_u64(1 + u64::from(tuner.is_done()));
                        fp.write_usize(tuner.explored_count());
                        match tuner.best() {
                            Some((config, energy)) => {
                                fp.write_usize(config.design_space_index());
                                fp.write_f64(energy);
                            }
                            None => fp.write_u64(0),
                        }
                    }
                    None => fp.write_u64(0),
                }
            }
        }
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multicore_sim::BusyInfo;
    use workloads::Suite;

    fn fixture() -> (&'static Architecture, &'static SuiteOracle, EnergyModel) {
        let model = EnergyModel::default();
        let oracle = Box::leak(Box::new(SuiteOracle::build(
            &Suite::eembc_like_small(),
            &model,
        )));
        let arch = Box::leak(Box::new(Architecture::paper_quad()));
        (arch, oracle, model)
    }

    fn job(seq: u64, benchmark: usize) -> Job {
        Job {
            seq,
            benchmark: BenchmarkId(benchmark),
            arrival: 0,
            priority: 0,
        }
    }

    fn all_idle(n: usize) -> CoreIndex {
        CoreIndex::new(n)
    }

    fn occupy(cores: &mut CoreIndex, core: CoreId, seq: u64) {
        cores.place(
            core,
            BusyInfo {
                job: job(seq, 0),
                started: 0,
                busy_until: 100,
            },
        );
    }

    #[test]
    fn launch_charges_the_oracle_cost_and_tracks_occupancy() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let config = arch.default_config(CoreId(0));
        let job = job(0, 3);
        let decision = shared.launch(
            &job,
            CoreId(0),
            config,
            Pending::Execution {
                benchmark: job.benchmark,
                config,
            },
        );
        let expected = oracle.cost(job.benchmark, config);
        match decision {
            Decision::Run { core, execution } => {
                assert_eq!(core, CoreId(0));
                assert_eq!(execution.cycles, expected.cycles);
                assert_eq!(execution.energy, expected.energy);
            }
            Decision::Stall => panic!("launch must run"),
        }
        assert!(shared.running[0].is_some());
        assert_eq!(shared.core_config[0], config);
        assert_eq!(shared.pending[0].map(|(seq, _)| seq), Some(0));
    }

    #[test]
    fn profile_then_complete_builds_the_table_entry() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let job = job(7, 2);
        let decision = shared.try_profile(&job, &all_idle(4));
        assert!(
            matches!(decision, Decision::Run { core, .. } if core == CoreId(3)),
            "profiling must start on the primary profiling core"
        );
        assert_eq!(shared.stats.profiling_runs, 1);
        assert!(shared.profiling_in_flight.contains_key(&BenchmarkId(2)));

        shared.complete(&job, CoreId(3), |_| cache_sim::CacheSizeKb::K4);
        assert!(!shared.profiling_in_flight.contains_key(&BenchmarkId(2)));
        let entry = shared.table.get(BenchmarkId(2)).expect("profiled");
        assert_eq!(entry.predicted_best_size, cache_sim::CacheSizeKb::K4);
        assert!(entry.known_cost(cache_sim::BASE_CONFIG).is_some());
    }

    #[test]
    fn second_instance_stalls_while_profile_is_in_flight() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let first = job(0, 5);
        let _ = shared.try_profile(&first, &all_idle(4));
        // Same benchmark again, before the profile completes.
        let second = job(1, 5);
        assert_eq!(shared.try_profile(&second, &all_idle(4)), Decision::Stall);
    }

    #[test]
    fn profiling_falls_back_to_the_secondary_core() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        // Core 4 (index 3) busy, core 3 (index 2) idle.
        let mut cores = all_idle(4);
        occupy(&mut cores, CoreId(3), 99);
        let decision = shared.try_profile(&job(0, 1), &cores);
        assert!(matches!(decision, Decision::Run { core, .. } if core == CoreId(2)));
        // Both profiling cores busy: stall.
        occupy(&mut cores, CoreId(2), 98);
        assert_eq!(shared.try_profile(&job(1, 2), &cores), Decision::Stall);
    }

    #[test]
    fn abort_discards_pending_knowledge() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let job = job(0, 4);
        let _ = shared.try_profile(&job, &all_idle(4));
        shared.abort(&job, CoreId(3));
        assert!(shared.running[3].is_none());
        assert!(!shared.profiling_in_flight.contains_key(&BenchmarkId(4)));
        assert!(
            !shared.table.contains(BenchmarkId(4)),
            "no entry from an aborted profile"
        );
        // The benchmark can be profiled again afterwards.
        let again = Job {
            seq: 1,
            benchmark: BenchmarkId(4),
            arrival: 10,
            priority: 0,
        };
        assert!(matches!(
            shared.try_profile(&again, &all_idle(4)),
            Decision::Run { .. }
        ));
    }

    #[test]
    fn probe_launch_retires_the_victims_pending_record() {
        // A granted preemption probe launches the urgent job onto the
        // victim's core before the victim's `on_preempt` arrives.
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let victim = job(0, 4);
        let _ = shared.try_profile(&victim, &all_idle(4));
        let urgent = job(1, 5);
        let _ = shared.launch(
            &urgent,
            CoreId(3),
            BASE_CONFIG,
            Pending::Execution {
                benchmark: urgent.benchmark,
                config: BASE_CONFIG,
            },
        );
        assert!(
            !shared.profiling_in_flight.contains_key(&BenchmarkId(4)),
            "the displaced profile is un-marked"
        );
        shared.abort(&victim, CoreId(3));
        assert_eq!(
            shared.pending[3].map(|(seq, _)| seq),
            Some(1),
            "the victim's late abort leaves the urgent job's record alone"
        );
        shared.complete(&urgent, CoreId(3), |_| unreachable!("not a profile"));
        assert_eq!(shared.pending[3], None);
    }

    #[test]
    fn probe_abort_keeps_the_urgent_jobs_occupancy() {
        // The Sec. IV.E decision reads the occupant's energy rate from
        // `running`: the victim's late abort after a granted probe must
        // not erase the urgent job's record on the same core.
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let config = arch.default_config(CoreId(2));
        let victim = job(0, 4);
        let urgent = job(1, 5);
        for job in [&victim, &urgent] {
            let _ = shared.launch(
                job,
                CoreId(2),
                config,
                Pending::Execution {
                    benchmark: job.benchmark,
                    config,
                },
            );
        }
        shared.abort(&victim, CoreId(2));
        let occupant = shared.running[2].expect("the urgent job still occupies core 2");
        assert_eq!(occupant.seq, 1);
        assert_eq!(occupant.cost, oracle.cost(urgent.benchmark, config));
        shared.abort(&urgent, CoreId(2));
        assert!(shared.running[2].is_none(), "its own abort clears it");
    }

    #[test]
    fn idle_power_follows_the_loaded_configuration() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let small = shared.idle_power(CoreId(0)); // 2KB default config
        let big = shared.idle_power(CoreId(3)); // 8KB default config
        assert!(big > small, "bigger caches leak more while idle");
        // Loading the base configuration raises core 4's idle power to the max.
        let job = job(0, 0);
        let _ = shared.launch(
            &job,
            CoreId(3),
            cache_sim::BASE_CONFIG,
            Pending::Execution {
                benchmark: job.benchmark,
                config: cache_sim::BASE_CONFIG,
            },
        );
        assert_eq!(
            shared.idle_power(CoreId(3)),
            model.static_nj_per_cycle(cache_sim::BASE_CONFIG)
        );
    }

    #[test]
    fn fingerprint_tracks_observable_state() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let fresh = shared.fingerprint();
        assert_eq!(shared.fingerprint(), fresh, "digest is deterministic");

        // A profiling launch changes stats, pending, running, in-flight
        // markers and the loaded configuration: the digest must move.
        let job = job(0, 2);
        let _ = shared.try_profile(&job, &all_idle(4));
        let launched = shared.fingerprint();
        assert_ne!(launched, fresh);

        // Completing moves state again (table entry appears).
        shared.complete(&job, CoreId(3), |_| cache_sim::CacheSizeKb::K4);
        let completed = shared.fingerprint();
        assert_ne!(completed, launched);
        assert_ne!(completed, fresh);

        // A bare counter bump alone must be visible.
        shared.stats.decisions_evaluated += 1;
        assert_ne!(shared.fingerprint(), completed);
    }

    #[test]
    fn first_idle_prefers_lowest_core_id() {
        let mut cores = all_idle(3);
        occupy(&mut cores, CoreId(0), 0);
        assert_eq!(Shared::first_idle(&cores), Some(CoreId(1)));
    }
}
