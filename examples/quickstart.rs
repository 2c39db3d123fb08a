//! Quickstart: build the paper's quad-core system, run a few hundred jobs
//! through all four schedulers, and compare their energy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hetero_sched::cache_sim::BASE_CONFIG;
use hetero_sched::energy_model::EnergyModel;
use hetero_sched::hetero_core::{
    Architecture, BaseSystem, BestCorePredictor, DecisionPolicy, OptimalSystem, PredictorConfig,
    ProposedSystem, SuiteOracle,
};
use hetero_sched::multicore_sim::Simulator;
use hetero_sched::workloads::{ArrivalPlan, Suite};

fn main() {
    // 1. The substrate: a 20-kernel embedded suite, the Figure 4 energy
    //    model, and the exhaustive design-space characterisation the paper
    //    performed offline with SimpleScalar + CACTI.
    let suite = Suite::eembc_like();
    let model = EnergyModel::default();
    println!(
        "characterising {} kernels x 18 configurations ...",
        suite.len()
    );
    let oracle = SuiteOracle::build(&suite, &model);

    // 2. The Figure 1 architecture and the paper's bagged-ANN predictor.
    let arch = Architecture::paper_quad();
    println!("training the bagged ANN best-core predictor ...");
    let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::paper());

    // 3. One shared arrival schedule (scaled-down version of the paper's
    //    5000 uniform arrivals).
    let jobs = 500;
    let horizon = 60_000_000;
    let plan = ArrivalPlan::uniform(jobs, horizon, suite.len(), 42);
    println!("running {jobs} arrivals over {horizon} cycles on 4 cores\n");

    // 4. All four systems on identical arrivals.
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
        "{:<16} {:>14} {:>14} {:>14} {:>14}  {:>8}",
        "system", "idle (nJ)", "dynamic (nJ)", "total (nJ)", "cycles", "vs base"
    );
    for (name, metrics) in [
        ("base (8KB_4W_64B)", &base_metrics),
        ("optimal", &optimal_metrics),
        ("energy-centric", &energy_centric_metrics),
        ("proposed", &proposed_metrics),
    ] {
        println!(
            "{:<16} {:>14.0} {:>14.0} {:>14.0} {:>14}  {:>7.1}%",
            name,
            metrics.energy.idle_nj,
            metrics.energy.dynamic_nj,
            metrics.energy.total(),
            metrics.total_cycles,
            (1.0 - metrics.energy.total() / base_metrics.energy.total()) * 100.0,
        );
    }

    println!(
        "\nbase configuration: {BASE_CONFIG}; proposed system saved {:.1}% total energy",
        (1.0 - proposed_metrics.energy.total() / base_metrics.energy.total()) * 100.0
    );
}
