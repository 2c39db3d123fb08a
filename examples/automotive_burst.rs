//! A bursty automotive scenario: engine-control kernels arrive in dense
//! bursts (ignition events) separated by quiet cruising periods, stressing
//! the stall-vs-borrow decision far harder than uniform arrivals.
//!
//! The proposed system's Section IV.E decision matters exactly here: during
//! a burst the best core is always busy, and naively stalling (energy-
//! centric) or naively borrowing (optimal) both leave energy on the table.
//!
//! ```sh
//! cargo run --release --example automotive_burst
//! ```

use hetero_sched::energy_model::EnergyModel;
use hetero_sched::hetero_core::{
    Architecture, BaseSystem, BestCorePredictor, DecisionPolicy, OptimalSystem, PredictorConfig,
    ProposedSystem, SuiteOracle,
};
use hetero_sched::multicore_sim::Simulator;
use hetero_sched::workloads::{Arrival, ArrivalPlan, BenchmarkId, Domain, SplitMix64, Suite};

/// Build a bursty arrival plan: `bursts` ignition events, each a cluster
/// of automotive jobs within a tight window, with long gaps between.
fn bursty_plan(suite: &Suite, bursts: usize, jobs_per_burst: usize, seed: u64) -> ArrivalPlan {
    let automotive: Vec<BenchmarkId> = suite
        .iter()
        .filter(|k| k.domain() == Domain::Automotive)
        .map(|k| k.id())
        .collect();
    let everything: Vec<BenchmarkId> = suite.iter().map(|k| k.id()).collect();

    let mut rng = SplitMix64::new(seed);
    let mut arrivals = Vec::new();
    let burst_gap = 4_000_000u64; // quiet cruising period
    let burst_width = 150_000u64; // dense ignition window
    for burst in 0..bursts {
        let start = burst as u64 * burst_gap;
        for _ in 0..jobs_per_burst {
            // Bursts are dominated by engine-control kernels with some
            // background (infotainment/diagnostic) traffic mixed in.
            let benchmark = if rng.chance(0.75) {
                automotive[rng.next_below(automotive.len() as u64) as usize]
            } else {
                everything[rng.next_below(everything.len() as u64) as usize]
            };
            arrivals.push(Arrival::new(start + rng.next_below(burst_width), benchmark));
        }
    }
    ArrivalPlan::from_arrivals(arrivals)
}

fn main() {
    let suite = Suite::eembc_like();
    let model = EnergyModel::default();
    println!(
        "characterising {} kernels x 18 configurations ...",
        suite.len()
    );
    let oracle = SuiteOracle::build(&suite, &model);
    let arch = Architecture::paper_quad();
    println!("training the bagged ANN best-core predictor ...");
    let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::paper());

    let plan = bursty_plan(&suite, 12, 35, 2024);
    println!(
        "running {} jobs in 12 ignition bursts (35 jobs / 150k cycles each)\n",
        plan.len()
    );

    let simulator = Simulator::new(arch.num_cores());

    let mut base = BaseSystem::new(&oracle, model, arch.num_cores());
    let base_metrics = simulator.run(&plan, &mut base);
    let mut optimal = OptimalSystem::new(&arch, &oracle, model);
    let optimal_metrics = simulator.run(&plan, &mut optimal);
    let mut energy_centric = ProposedSystem::with_model(&arch, &oracle, model, predictor.clone())
        .with_decision_policy(DecisionPolicy::BestCoreOnly);
    let energy_centric_metrics = simulator.run(&plan, &mut energy_centric);
    let mut proposed = ProposedSystem::with_model(&arch, &oracle, model, predictor);
    let proposed_metrics = simulator.run(&plan, &mut proposed);

    println!(
        "{:<16} {:>13} {:>13} {:>12} {:>8} {:>14}",
        "system", "total (nJ)", "vs base", "stalls", "", "mean turnaround"
    );
    for (name, metrics) in [
        ("base", &base_metrics),
        ("optimal", &optimal_metrics),
        ("energy-centric", &energy_centric_metrics),
        ("proposed", &proposed_metrics),
    ] {
        println!(
            "{:<16} {:>13.0} {:>12.1}% {:>12} {:>8} {:>14.0}",
            name,
            metrics.energy.total(),
            (1.0 - metrics.energy.total() / base_metrics.energy.total()) * 100.0,
            metrics.stalls,
            "",
            metrics.mean_turnaround(),
        );
    }

    let stats = proposed.stats();
    println!(
        "\nproposed system under bursts: {} IV.E decisions evaluated, {} borrowed a non-best core",
        stats.decisions_evaluated, stats.decisions_ran_non_best
    );
}
