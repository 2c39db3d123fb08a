//! Observability-plane fidelity: attaching the plane must never change
//! the run, and what the plane records must be a lossless account of it.
//!
//! Three contracts, property-tested over every system and discipline:
//!
//! 1. `run_streaming_observed` with [`ObserveConfig::disabled`] (and a
//!    disabled governor) returns `RunMetrics` bit-identical to the
//!    batch `Simulator::run` — the plane is pure observation.
//! 2. Assembled spans conserve jobs (every arrival ends in exactly one
//!    terminal span) and the Perfetto export both passes the schema
//!    validator and survives a round-trip through the in-repo JSON
//!    parser unchanged.
//! 3. Under a shedding governor, every shed arrival gets a terminal
//!    shed span: arrivals = completed + shed on the span books exactly
//!    as on the governor's ledger.

use hetero_bench::json::Json;
use hetero_bench::perfetto::{perfetto_document, validate_perfetto};
use hetero_bench::Testbed;
use hetero_core::{BaseSystem, DecisionPolicy, OptimalSystem, ProposedSystem};
use hetero_engine::{
    run_streaming_observed, EngineConfig, EngineSink, ObserveConfig, OverloadConfig, ShedPolicy,
    SloPolicy,
};
use hetero_telemetry::{BurnEngine, BurnRateRule, JobPhase, SpanClose};
use multicore_sim::{QueueDiscipline, RunMetrics, Scheduler, Simulator};
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

fn engine_config() -> EngineConfig {
    EngineConfig {
        window_cycles: 50_000,
        snapshot_windows: 4,
        max_snapshots: usize::MAX,
        slo: SloPolicy::default(),
    }
}

fn assert_bit_identical(a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(a, b);
    assert_eq!(a.energy.dynamic_nj.to_bits(), b.energy.dynamic_nj.to_bits());
    assert_eq!(a.energy.static_nj.to_bits(), b.energy.static_nj.to_bits());
    assert_eq!(a.energy.idle_nj.to_bits(), b.energy.idle_nj.to_bits());
}

/// Run `body` with a freshly built scheduler for `system_index`.
fn with_system<R>(system_index: usize, body: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
    let t = testbed();
    match system_index {
        0 => body(&mut BaseSystem::new(&t.oracle, t.model, t.arch.num_cores())),
        1 => body(&mut OptimalSystem::new(&t.arch, &t.oracle, t.model)),
        2 => body(
            &mut ProposedSystem::with_model(&t.arch, &t.oracle, t.model, t.predictor.clone())
                .with_decision_policy(DecisionPolicy::BestCoreOnly),
        ),
        _ => body(&mut ProposedSystem::with_model(
            &t.arch,
            &t.oracle,
            t.model,
            t.predictor.clone(),
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Contract 1: the fully disabled plane is bit-invisible on every
    /// system and discipline.
    #[test]
    fn disabled_plane_is_bit_invisible_on_every_system(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..100,
        seed in 0u64..1_000,
    ) {
        let t = testbed();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        let discipline = DISCIPLINES[discipline_index];
        let sim = Simulator::new(t.arch.num_cores()).with_discipline(discipline);

        let batch = with_system(system_index, |scheduler| sim.run(&plan, scheduler));
        let outcome = with_system(system_index, |scheduler| {
            run_streaming_observed(
                &sim,
                plan.iter().copied(),
                scheduler,
                &engine_config(),
                &OverloadConfig::disabled(),
                &ObserveConfig::disabled(),
                None,
            )
        });
        assert_bit_identical(&batch, &outcome.metrics);
        prop_assert!(outcome.spans.is_none());
        prop_assert!(outcome.alerts.rules.is_empty());
        prop_assert!(outcome.alerts.transitions.is_empty());
        prop_assert!(outcome.server.is_none());
        prop_assert_eq!(outcome.overload.shed(), 0);
        prop_assert_eq!(outcome.overload.tier_transitions, 0);
    }

    /// Contract 2: spans conserve the run and the Perfetto artifact
    /// validates and round-trips through the in-repo JSON parser. The
    /// armed plane, unlike the disabled one, runs its `ObservedSink`
    /// layer, so this is also where that layer is shown bit-invisible.
    #[test]
    fn spans_conserve_and_the_perfetto_export_round_trips(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..90,
        seed in 0u64..1_000,
    ) {
        let t = testbed();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        let sim = Simulator::new(t.arch.num_cores())
            .with_discipline(DISCIPLINES[discipline_index]);
        let observe = ObserveConfig {
            assemble_spans: true,
            ..ObserveConfig::disabled()
        };
        let batch = with_system(system_index, |scheduler| sim.run(&plan, scheduler));
        let outcome = with_system(system_index, |scheduler| {
            run_streaming_observed(
                &sim,
                plan.iter().copied(),
                scheduler,
                &engine_config(),
                &OverloadConfig::disabled(),
                &observe,
                None,
            )
        });
        assert_bit_identical(&batch, &outcome.metrics);
        let spans = outcome.spans.as_ref().expect("spans were assembled");
        prop_assert_eq!(spans.arrivals(), jobs as u64);
        prop_assert_eq!(spans.completed(), jobs as u64);
        prop_assert_eq!(spans.shed(), 0);
        prop_assert_eq!(spans.open_jobs(), 0);
        // Exactly one terminal span per job.
        let terminal = spans
            .job_spans()
            .iter()
            .filter(|span| span.close.is_terminal())
            .count();
        prop_assert_eq!(terminal, jobs);

        let doc = perfetto_document(spans, "test", seed);
        let direct = validate_perfetto(&doc);
        prop_assert!(direct.is_ok(), "invalid export: {:?}", direct.err());
        let reparsed = Json::parse(&doc.to_pretty());
        prop_assert!(reparsed.is_ok(), "reparse failed: {:?}", reparsed.err());
        let round_tripped = validate_perfetto(&reparsed.unwrap());
        prop_assert_eq!(direct.ok(), round_tripped.ok());
    }

    /// Contract 3: shed arrivals end in terminal shed spans, and the
    /// span books balance against the governor's ledger.
    #[test]
    fn shed_jobs_get_terminal_shed_spans(
        system_index in 0usize..4,
        jobs in 60usize..120,
        seed in 0u64..1_000,
        capacity in 2u64..6,
    ) {
        let t = testbed();
        // A tight arrival horizon so the bounded queue actually sheds.
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 400_000, t.suite.len(), 3, seed);
        let sim = Simulator::new(t.arch.num_cores());
        let overload = OverloadConfig {
            queue_capacity: Some(capacity),
            policy: ShedPolicy::DropTail,
            rate_limit: None,
            brownout: None,
            breaker: None,
        };
        let observe = ObserveConfig {
            assemble_spans: true,
            ..ObserveConfig::disabled()
        };
        let outcome = with_system(system_index, |scheduler| {
            run_streaming_observed(
                &sim,
                plan.iter().copied(),
                scheduler,
                &engine_config(),
                &overload,
                &observe,
                None,
            )
        });
        let spans = outcome.spans.as_ref().expect("spans were assembled");
        // Shed arrivals never reach the simulator, so the span books see
        // them only as shed spans: admitted + shed = offered.
        prop_assert_eq!(spans.arrivals(), outcome.overload.admitted);
        prop_assert_eq!(spans.completed(), outcome.overload.admitted);
        prop_assert_eq!(spans.shed(), outcome.overload.shed());
        prop_assert_eq!(
            spans.arrivals() + spans.shed(),
            outcome.overload.offered
        );
        prop_assert_eq!(spans.open_jobs(), 0);
        let shed_spans = spans
            .job_spans()
            .iter()
            .filter(|span| span.phase == JobPhase::Shed && span.close == SpanClose::Shed)
            .count();
        prop_assert_eq!(shed_spans as u64, outcome.overload.shed());
        // The export stays loadable with shed tracks present.
        let doc = perfetto_document(spans, "test", seed);
        prop_assert!(validate_perfetto(&doc).is_ok());
    }
}

#[test]
fn health_body_escapes_control_characters_in_rule_names() {
    // RFC 8259 forbids raw U+0000–U+001F inside strings: a tab or carriage
    // return in a rule name must leave `/health` parseable, and the name
    // must survive the round trip intact.
    let name = "p99\tbudget\r\"x\"";
    let engine = EngineSink::new(2, &engine_config());
    let burn = BurnEngine::new(1_000, vec![BurnRateRule::paging(name, 5_000)]);
    let body = hetero_engine::observe::health_body(&engine, Some(&burn), None);
    assert!(
        !body.chars().any(char::is_control),
        "raw control character in {body:?}"
    );
    let doc = Json::parse(&body).unwrap_or_else(|err| panic!("{err}: {body:?}"));
    let Some(Json::Array(alerts)) = doc.get("alerts") else {
        panic!("no alerts array in {body:?}");
    };
    assert_eq!(alerts.len(), 1);
    assert_eq!(alerts[0].get("rule").and_then(Json::as_str), Some(name));
}
