//! End-to-end integration tests: the four systems on shared arrival plans,
//! checking the orderings the paper's Figures 6 and 7 rest on.

use hetero_sched::energy_model::EnergyModel;
use hetero_sched::hetero_core::{
    Architecture, BaseSystem, BestCorePredictor, DecisionPolicy, OptimalSystem, PredictorConfig,
    ProposedSystem, SuiteOracle,
};
use hetero_sched::multicore_sim::{RunMetrics, Simulator};
use hetero_sched::workloads::{ArrivalPlan, Suite};

struct World {
    suite: Suite,
    model: EnergyModel,
    oracle: SuiteOracle,
    arch: Architecture,
    predictor: BestCorePredictor,
}

fn world() -> World {
    let suite = Suite::eembc_like_small();
    let model = EnergyModel::default();
    let oracle = SuiteOracle::build(&suite, &model);
    let arch = Architecture::paper_quad();
    let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
    World {
        suite,
        model,
        oracle,
        arch,
        predictor,
    }
}

struct AllRuns {
    base: RunMetrics,
    optimal: RunMetrics,
    energy_centric: RunMetrics,
    proposed: RunMetrics,
}

fn run_all(w: &World, jobs: usize, horizon: u64, seed: u64) -> AllRuns {
    let plan = ArrivalPlan::uniform(jobs, horizon, w.suite.len(), seed);
    let simulator = Simulator::new(w.arch.num_cores());
    let mut base = BaseSystem::new(&w.oracle, w.model, w.arch.num_cores());
    let mut optimal = OptimalSystem::new(&w.arch, &w.oracle, w.model);
    let mut energy_centric =
        ProposedSystem::with_model(&w.arch, &w.oracle, w.model, w.predictor.clone())
            .with_decision_policy(DecisionPolicy::BestCoreOnly);
    let mut proposed = ProposedSystem::with_model(&w.arch, &w.oracle, w.model, w.predictor.clone());
    AllRuns {
        base: simulator.run(&plan, &mut base),
        optimal: simulator.run(&plan, &mut optimal),
        energy_centric: simulator.run(&plan, &mut energy_centric),
        proposed: simulator.run(&plan, &mut proposed),
    }
}

#[test]
fn every_system_completes_every_job() {
    let w = world();
    let runs = run_all(&w, 250, 30_000_000, 101);
    for (name, metrics) in [
        ("base", &runs.base),
        ("optimal", &runs.optimal),
        ("energy-centric", &runs.energy_centric),
        ("proposed", &runs.proposed),
    ] {
        assert_eq!(metrics.jobs_completed, 250, "{name}");
        assert!(metrics.total_cycles > 0, "{name}");
    }
}

#[test]
fn figure6_orderings_hold_under_contention() {
    let w = world();
    // Contended regime comparable to the canonical figure runs (the
    // always-stall policy is only punished when best cores are busy; at
    // low utilisation it degenerates into the proposed system).
    let runs = run_all(&w, 400, 6_000_000, 103);

    // The headline: the proposed system has the lowest total energy.
    let proposed = runs.proposed.energy.total();
    assert!(
        proposed < runs.base.energy.total(),
        "proposed must beat base"
    );
    assert!(
        proposed < runs.energy_centric.energy.total(),
        "proposed must beat energy-centric"
    );

    // The predictive systems cut dynamic energy below the base system
    // (Figure 6's deepest bars).
    assert!(runs.energy_centric.energy.dynamic_nj < runs.base.energy.dynamic_nj);
    assert!(runs.proposed.energy.dynamic_nj < runs.base.energy.dynamic_nj);

    // Energy-centric pays for its stalls with idle energy (the paper's
    // "slight increase in idle" — the direction, not the magnitude).
    assert!(runs.energy_centric.energy.idle_nj > runs.proposed.energy.idle_nj);
}

#[test]
fn energy_centric_is_slowest_under_contention() {
    let w = world();
    let runs = run_all(&w, 400, 25_000_000, 105);
    assert!(
        runs.energy_centric.total_cycles >= runs.proposed.total_cycles,
        "always-stall cannot finish earlier than the decision-based system"
    );
    assert!(runs.energy_centric.stalls > runs.proposed.stalls);
}

#[test]
fn proposed_total_energy_savings_in_the_paper_band() {
    // The headline claim: ~28-29% total energy reduction vs base. Allow a
    // generous band (the synthetic substrate shifts magnitudes) but
    // require substantial, double-digit savings.
    let w = world();
    let runs = run_all(&w, 500, 60_000_000, 107);
    let saving = 1.0 - runs.proposed.energy.total() / runs.base.energy.total();
    assert!(
        (0.10..0.60).contains(&saving),
        "proposed-vs-base saving {saving:.3} outside the plausible band"
    );
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let w = world();
    let a = run_all(&w, 150, 20_000_000, 109);
    let b = run_all(&w, 150, 20_000_000, 109);
    assert_eq!(a.base, b.base);
    assert_eq!(a.optimal, b.optimal);
    assert_eq!(a.energy_centric, b.energy_centric);
    assert_eq!(a.proposed, b.proposed);
}

#[test]
fn proposed_system_survives_every_queue_discipline() {
    use hetero_sched::multicore_sim::{QueueDiscipline, Simulator};
    use hetero_sched::workloads::Arrival;

    let w = world();
    // Mixed-priority arrivals under contention.
    let mut arrivals = Vec::new();
    let mut rng = hetero_sched::workloads::SplitMix64::new(4242);
    for _ in 0..300 {
        arrivals.push(Arrival {
            time: rng.next_below(5_000_000),
            benchmark: hetero_sched::workloads::BenchmarkId(rng.next_below(20) as usize),
            priority: rng.next_below(3) as u8,
        });
    }
    let plan = ArrivalPlan::from_arrivals(arrivals);

    let mut totals = Vec::new();
    for discipline in [
        QueueDiscipline::Fifo,
        QueueDiscipline::Priority,
        QueueDiscipline::PreemptivePriority,
    ] {
        let mut system =
            ProposedSystem::with_model(&w.arch, &w.oracle, w.model, w.predictor.clone());
        let metrics = Simulator::new(w.arch.num_cores())
            .with_discipline(discipline)
            .run(&plan, &mut system);
        assert_eq!(metrics.jobs_completed, 300, "{discipline:?}");
        totals.push(metrics.energy.total());
    }
    // Non-preemptive disciplines only reorder the queue; energy may shift
    // slightly (different configs explored in different orders) but stays
    // in the same regime. Preemption adds restart waste.
    assert!(totals[1] < totals[0] * 1.25, "priority vs fifo: {totals:?}");
    assert!(
        totals[2] < totals[0] * 1.60,
        "preemptive adds bounded waste: {totals:?}"
    );
}

#[test]
fn different_seeds_change_runs_but_not_orderings() {
    let w = world();
    for seed in [111, 222, 333] {
        let runs = run_all(&w, 400, 6_000_000, seed);
        assert!(
            runs.proposed.energy.total() < runs.base.energy.total(),
            "seed {seed}: proposed must beat base"
        );
    }
}
