#![warn(missing_docs)]

//! The paper's contribution: an ANN-predictive, energy-aware dynamic
//! scheduler for heterogeneous multicores with configurable caches.
//!
//! *Dynamic Scheduling on Heterogeneous Multicores* (Edun, Vazquez,
//! Gordon-Ross, Stitt — DATE 2019) schedules applications on a quad-core
//! system whose cores offer **fixed cache sizes** (2/4/8/8 KB) with
//! **configurable line size and associativity** (Table 1). The scheduler:
//!
//! 1. **profiles** a never-before-seen application once, in the base
//!    configuration (`8KB_4W_64B`) on the profiling core ([`Architecture`],
//!    [`ProfilingTable`]);
//! 2. feeds the profiled hardware counters to a bagged **ANN** that
//!    predicts the application's best *cache size* and therefore its best
//!    *core* ([`BestCorePredictor`]);
//! 3. on non-best cores, discovers the best line/associativity with the
//!    incremental Figure 5 **tuning heuristic** ([`TuningExplorer`]);
//! 4. when the best core is busy, evaluates the Section IV.E
//!    **energy-advantageous decision** ([`StallDecision`]) to choose
//!    between stalling and borrowing an idle non-best core.
//!
//! The four systems of the paper's evaluation are [`Scheduler`]
//! implementations in [`systems`]: [`BaseSystem`], [`OptimalSystem`], and
//! [`ProposedSystem`], which is also the energy-centric system under
//! [`DecisionPolicy::BestCoreOnly`] (the paper defines that comparator by
//! its one difference: it only ever runs a job on the job's best core).
//!
//! # Example: run the proposed system on 200 arrivals
//!
//! ```
//! use hetero_core::{Architecture, BestCorePredictor, PredictorConfig, ProposedSystem, SuiteOracle};
//! use energy_model::EnergyModel;
//! use multicore_sim::Simulator;
//! use workloads::{ArrivalPlan, Suite};
//!
//! let suite = Suite::eembc_like_small();
//! let model = EnergyModel::default();
//! let oracle = SuiteOracle::build(&suite, &model);
//! let arch = Architecture::paper_quad();
//! let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
//!
//! let plan = ArrivalPlan::uniform(200, 40_000_000, suite.len(), 42);
//! let mut system = ProposedSystem::new(&arch, &oracle, predictor);
//! let metrics = Simulator::new(arch.num_cores()).run(&plan, &mut system);
//! assert_eq!(metrics.jobs_completed, 200);
//! ```
//!
//! [`Scheduler`]: multicore_sim::Scheduler

mod arch;
mod decision;
mod fallback;
mod oracle;
mod predictor;
mod profiling;
mod stages;
pub mod systems;
mod tuning;

pub use arch::Architecture;
pub use decision::StallDecision;
pub use fallback::{FallbackChain, PredictionSource};
pub use oracle::{BenchmarkTruth, SuiteOracle};
pub use predictor::{BestCorePredictor, PredictorConfig, PredictorKind};
pub use profiling::{ProfileEntry, ProfilingTable};
pub use stages::{observed, NullStageObserver, StageObserver};
pub use systems::{BaseSystem, DecisionPolicy, OptimalSystem, ProposedSystem, SystemStats};
pub use tuning::{TuningExplorer, TuningPhase, TuningStatus};
