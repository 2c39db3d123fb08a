//! The four systems of the paper's evaluation (Sec. V), as
//! [`Scheduler`](multicore_sim::Scheduler) implementations:
//!
//! * [`BaseSystem`] — every core fixed at `8KB_4W_64B`; no profiling, no
//!   ANN, no tuning. The Figure 6 normalisation baseline.
//! * [`OptimalSystem`] — subsetted cores (Figure 1); knows each
//!   benchmark's best configuration per core from an exhaustive search;
//!   schedules to the best core when idle, otherwise to any idle core in
//!   that core's best configuration; never stalls.
//! * energy-centric — [`ProposedSystem`] under
//!   [`DecisionPolicy::BestCoreOnly`]: profiles, predicts the best core with
//!   the ANN, tunes on it, and **always stalls** for it. Unlike the
//!   [`DecisionPolicy::AlwaysStall`] ablation it never places a job on an
//!   idle non-best core, not even to gather tuning information.
//! * [`ProposedSystem`] — the full Figure 2 flow: profiling, ANN
//!   prediction, Figure 5 tuning on cores whose best configuration is
//!   unknown, and the Section IV.E energy-advantageous stall decision.

mod base;
mod common;
mod optimal;
mod proposed;

pub use base::BaseSystem;
pub use common::SystemStats;
pub use optimal::OptimalSystem;
pub use proposed::{DecisionPolicy, ProposedSystem};
