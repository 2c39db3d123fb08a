//! Cross-path bit-identity for the indexed event loop: for every system
//! and discipline, the four ways of driving a simulation — the indexed
//! loop (`run`), the retained linear-scan reference (`run_reference`),
//! the traced loop with a recording sink (`run_with_sink`), and the
//! fault-injection loop with an empty plan (`run_with_faults`) — must
//! produce one `RunMetrics`, equal to the bit in every energy field.
//!
//! This is the contract that lets `run_reference` serve as the oracle for
//! the `sim_manycore` perf stage: the indexed structures may only change
//! the *cost* of a run, never its result.

use cache_sim::CacheSizeKb;
use hetero_bench::Testbed;
use hetero_core::{Architecture, BaseSystem, DecisionPolicy, OptimalSystem, ProposedSystem};
use multicore_sim::{
    CoreId, FaultPlan, LedgerAuditor, NullSink, QueueDiscipline, RecordingSink, RunMetrics,
    Scheduler, Simulator,
};
use proptest::prelude::*;
use std::sync::OnceLock;
use workloads::ArrivalPlan;

fn testbed() -> &'static Testbed {
    static TESTBED: OnceLock<Testbed> = OnceLock::new();
    TESTBED.get_or_init(Testbed::small)
}

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::Priority,
    QueueDiscipline::PreemptivePriority,
];

/// All four execution paths for one freshly-built system.
struct FourPaths {
    indexed: RunMetrics,
    reference: RunMetrics,
    traced: RunMetrics,
    faulted: RunMetrics,
}

fn run_four_paths(
    system_index: usize,
    discipline: QueueDiscipline,
    plan: &ArrivalPlan,
) -> FourPaths {
    fn go<S: Scheduler>(
        build: impl Fn() -> S,
        discipline: QueueDiscipline,
        plan: &ArrivalPlan,
    ) -> FourPaths {
        let sim = Simulator::new(testbed().arch.num_cores()).with_discipline(discipline);
        let indexed = sim.run(plan, &mut build());
        let reference = sim.run_reference(plan, &mut build());
        let mut sink = RecordingSink::new();
        let traced = sim.run_with_sink(plan, &mut build(), &mut sink);
        let faulted = sim
            .run_with_faults(plan, &mut build(), &FaultPlan::empty(), &mut NullSink)
            .metrics;
        FourPaths {
            indexed,
            reference,
            traced,
            faulted,
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
            || {
                ProposedSystem::with_model(&t.arch, &t.oracle, t.model, t.predictor.clone())
                    .with_decision_policy(DecisionPolicy::BestCoreOnly)
            },
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

    /// The indexed loop, the linear-scan reference, the traced loop, and
    /// the no-fault faulted loop agree to the bit for every system and
    /// discipline on the paper's 4-core configuration.
    #[test]
    fn all_four_paths_agree_bit_for_bit(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..100,
        seed in 0u64..1_000,
    ) {
        let t = testbed();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        let paths = run_four_paths(system_index, DISCIPLINES[discipline_index], &plan);
        assert_bit_identical(&paths.indexed, &paths.reference);
        assert_bit_identical(&paths.indexed, &paths.traced);
        assert_bit_identical(&paths.indexed, &paths.faulted);
        prop_assert_eq!(paths.indexed.jobs_completed, jobs as u64);
    }
}

/// The paper's 2/4/8/8 quad tiled to 64 cores: the proposed system's
/// masked size-set placements (`first_idle_in` over the intersection of
/// the architecture's `CoreSet` and the idle mask) must still complete
/// every job, agree with the linear-scan reference to the bit, and
/// replay to a clean ledger at a scale where the masks span a full word.
#[test]
fn manycore_tiled_proposed_matches_reference_and_audits_clean() {
    use CacheSizeKb::{K2, K4, K8};
    let t = testbed();
    let cores = 64;
    let sizes = (0..cores).map(|i| [K2, K4, K8, K8][i % 4]).collect();
    let arch = Architecture::new(sizes, CoreId(cores - 1), Some(CoreId(cores - 2)));
    let plan = ArrivalPlan::uniform_with_priorities(640, 8_000_000, t.suite.len(), 3, 9);
    let sim = Simulator::new(cores).with_discipline(QueueDiscipline::Priority);

    let mut sink = RecordingSink::new();
    let mut system = ProposedSystem::with_model(&arch, &t.oracle, t.model, t.predictor.clone());
    let traced = sim.run_with_sink(&plan, &mut system, &mut sink);
    assert_eq!(traced.jobs_completed, 640);
    let outcome = LedgerAuditor::new(cores).check(sink.events(), &traced);
    assert!(outcome.is_ok(), "64-core audit failed: {:?}", outcome.err());

    let mut again = ProposedSystem::with_model(&arch, &t.oracle, t.model, t.predictor.clone());
    let reference = sim.run_reference(&plan, &mut again);
    assert_eq!(traced, reference);
    assert_eq!(
        traced.energy.idle_nj.to_bits(),
        reference.energy.idle_nj.to_bits()
    );
}
