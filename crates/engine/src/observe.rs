//! The live observability plane: burn-rate alerting, causal span
//! assembly, and the HTTP scrape endpoint, wired around a governed
//! streaming run.
//!
//! [`run_streaming_observed`] is the engine's governed entry point (the
//! other is the plain [`run_streaming`](crate::run_streaming)): the
//! overload governor wraps the arrival stream and the event stream, and
//! an [`ObservedSink`] sits between the governor and the
//! [`EngineSink`] (a disabled plane skips that layer). Every forwarded
//! event still lands in the engine sink first (identical folding, so the
//! plane is bit-invisible — property-tested in `crates/bench`), and
//! then, when enabled,
//!
//! * a [`BurnEngine`] folds completions into multi-window SLO burn
//!   rates, with `pending → firing → resolved` transitions recorded as
//!   timeline marks and (optionally) translated into a serving-tier
//!   floor via [`GovernorHandle::set_alert_floor`] — a sustained p99
//!   burn browns the service out, and resolution lifts the floor;
//! * a [`SpanAssembler`] folds the same events into per-job lifecycle
//!   and per-core occupancy spans for the Perfetto export in
//!   `hetero-bench`;
//! * a [`ScrapeServer`] answers `/metrics` (Prometheus text exposition
//!   from the live [`MetricsSink`](hetero_telemetry::MetricsSink)),
//!   `/health` (alert and tier state), and `/snapshot` (the snapshot
//!   ring's tail) from a thread of its own. The simulation thread does no
//!   socket I/O: at each snapshot boundary (never per event) it makes one
//!   relaxed atomic load, and only when a scraper is waiting does it
//!   render the requested routes and publish them. [`ObservedSink::finish`]
//!   publishes the final state, which the server keeps answering for as
//!   long as the caller holds it.
//!
//! See DESIGN.md §16 for the architecture and the burn-rate math.

use crate::engine::{EngineConfig, EngineReport, EngineSink};
use crate::overload::{AdmissionGate, GovernorHandle, OverloadConfig, OverloadReport};
use crate::serve::{Response, ScrapeServer};
use hetero_telemetry::{AlertState, AlertTransition, BurnEngine, BurnRateRule, SpanAssembler};
use multicore_sim::{
    tier_cell, RunMetrics, Scheduler, ServingTier, Simulator, TierCell, TraceEvent, TraceSink,
};
use std::fmt::Write as _;
use workloads::Arrival;

/// What the observability plane should run. Everything defaults off;
/// [`ObserveConfig::disabled`] is the bit-invisible configuration.
#[derive(Debug, Clone, Default)]
pub struct ObserveConfig {
    /// Burn-rate alert rules evaluated over completion latencies.
    pub rules: Vec<BurnRateRule>,
    /// Assemble causal job/core spans (export-path memory: grows with
    /// the trace).
    pub assemble_spans: bool,
    /// While any rule fires, impose this serving-tier floor on the
    /// governor (lifted on resolve). `None` leaves the ladder alone.
    pub alert_tier_floor: Option<ServingTier>,
    /// Bind the scrape endpoint on `127.0.0.1:port` (`Some(0)` picks a
    /// free port).
    pub serve_port: Option<u16>,
}

impl ObserveConfig {
    /// Every plane component off.
    pub fn disabled() -> Self {
        ObserveConfig::default()
    }

    /// `true` when any component is on.
    pub fn enabled(&self) -> bool {
        !self.rules.is_empty() || self.assemble_spans || self.serve_port.is_some()
    }
}

/// One rule's end-of-run outcome.
#[derive(Debug, Clone)]
pub struct AlertRuleOutcome {
    /// Rule name.
    pub name: String,
    /// State at the horizon.
    pub state: AlertState,
    /// Final (fast, slow) window burn rates.
    pub burn_rates: (f64, f64),
}

/// What the alerting component saw over the run.
#[derive(Debug, Clone, Default)]
pub struct AlertReport {
    /// Per-rule outcomes, in rule order.
    pub rules: Vec<AlertRuleOutcome>,
    /// Every state transition, in evaluation order.
    pub transitions: Vec<AlertTransition>,
    /// `pending → firing` transitions over the run.
    pub fired: u64,
    /// `firing → inactive` resolutions over the run.
    pub resolved: u64,
}

impl AlertReport {
    /// Names of rules still firing at the horizon.
    pub fn firing(&self) -> Vec<&str> {
        self.rules
            .iter()
            .filter(|rule| rule.state == AlertState::Firing)
            .map(|rule| rule.name.as_str())
            .collect()
    }
}

/// The result of [`run_streaming_observed`].
#[derive(Debug)]
pub struct ObservedOutcome {
    /// Bit-exact run metrics over the admitted stream.
    pub metrics: RunMetrics,
    /// Snapshots, histograms, totals, and the SLO verdict.
    pub report: EngineReport,
    /// What the governor admitted, shed, and degraded.
    pub overload: OverloadReport,
    /// Burn-rate alert outcomes.
    pub alerts: AlertReport,
    /// Assembled spans, when [`ObserveConfig::assemble_spans`] was on
    /// (already [`finish`](SpanAssembler::finish)ed at the horizon).
    pub spans: Option<SpanAssembler>,
    /// The still-bound scrape server. Its thread keeps answering from
    /// the run's final state until it is dropped (`engine --serve`
    /// lingers on it); [`ScrapeServer::stats`] counts what it answered.
    pub server: Option<ScrapeServer>,
}

/// A [`TraceSink`] wrapping an [`EngineSink`] with the observability
/// plane. Feed it through an
/// [`OverloadSink`](crate::overload::OverloadSink) so shed events reach
/// the span assembler too.
#[derive(Debug)]
pub struct ObservedSink {
    engine: EngineSink,
    burn: Option<BurnEngine>,
    assembler: Option<SpanAssembler>,
    server: Option<ScrapeServer>,
    /// Governor to floor while alerts fire (with the configured floor).
    governor: Option<(GovernorHandle, ServingTier)>,
    floor_engaged: bool,
    seen_transitions: usize,
    /// Scrape-check cadence in cycles (the engine's snapshot span).
    boundary_cycles: u64,
    next_boundary: u64,
}

impl ObservedSink {
    /// Build the plane around a fresh [`EngineSink`]. `governor` is
    /// required only when [`ObserveConfig::alert_tier_floor`] is set.
    ///
    /// # Panics
    ///
    /// Panics if a tier floor is configured without a governor, or if
    /// the scrape port cannot be bound.
    pub fn new(
        num_cores: usize,
        config: &EngineConfig,
        observe: &ObserveConfig,
        governor: Option<GovernorHandle>,
    ) -> Self {
        let burn = (!observe.rules.is_empty())
            .then(|| BurnEngine::new(config.window_cycles, observe.rules.clone()));
        let governor = observe.alert_tier_floor.map(|floor| {
            let handle = governor.expect("alert tier floor needs the run's governor handle");
            (handle, floor)
        });
        let server = observe.serve_port.map(|port| {
            ScrapeServer::bind(port, ROUTES)
                .unwrap_or_else(|err| panic!("bind 127.0.0.1:{port}: {err}"))
        });
        ObservedSink {
            engine: EngineSink::new(num_cores, config),
            burn,
            assembler: observe.assemble_spans.then(SpanAssembler::new),
            server,
            governor,
            floor_engaged: false,
            seen_transitions: 0,
            boundary_cycles: config.snapshot_cycles(),
            next_boundary: config.snapshot_cycles(),
        }
    }

    /// The scrape address, when serving.
    pub fn serve_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(ScrapeServer::addr)
    }

    /// Render the routes waiting scrapers asked for and hand them to the
    /// server thread; with `finished`, render every route as the final
    /// state.
    #[cold]
    #[inline(never)]
    fn publish(&self, finished: bool) {
        let Some(server) = &self.server else { return };
        let engine = &self.engine;
        let burn = self.burn.as_ref();
        let governor = self.governor.as_ref().map(|(handle, _)| handle);
        let mut render = |path: &str| respond(path, engine, burn, governor);
        if finished {
            server.publish_final(&mut render);
        } else {
            server.publish(&mut render);
        }
    }

    /// Fold any alert transitions that fired since the last event into
    /// timeline marks and the governor floor.
    fn apply_transitions(&mut self) {
        let Some(burn) = &self.burn else { return };
        let fresh = burn.transitions_since(self.seen_transitions);
        if fresh.is_empty() {
            return;
        }
        let fresh: Vec<AlertTransition> = fresh.to_vec();
        self.seen_transitions += fresh.len();
        let firing = burn.any_firing();
        if let Some(assembler) = &mut self.assembler {
            for transition in &fresh {
                assembler.note_alert(transition.at, &transition.name, transition.to.name());
            }
        }
        if let Some((governor, floor)) = &self.governor {
            if firing != self.floor_engaged {
                let at = fresh.last().expect("non-empty").at;
                let target = if firing { *floor } else { ServingTier::Full };
                governor.set_alert_floor(at, target);
                self.floor_engaged = firing;
            }
        }
    }

    /// Finish the run at the horizon: close the engine report, the
    /// span assembler, and the alert books, and publish the final state
    /// to the scrape server (its `/snapshot` shows the last closed
    /// boundary; the trailing partial span goes to the report only).
    pub fn finish(mut self, config: &EngineConfig) -> ObservedPlaneOutcome {
        let alerts = match &mut self.burn {
            Some(burn) => {
                let rules: Vec<AlertRuleOutcome> = burn
                    .rules()
                    .enumerate()
                    .map(|(index, rule)| AlertRuleOutcome {
                        name: rule.name.clone(),
                        state: burn.state(index),
                        burn_rates: burn.burn_rates(index),
                    })
                    .collect();
                AlertReport {
                    rules,
                    transitions: burn.transitions().to_vec(),
                    fired: burn.fired(),
                    resolved: burn.resolved(),
                }
            }
            None => AlertReport::default(),
        };
        let horizon = self.engine.metrics().last_event_at();
        if let Some(assembler) = &mut self.assembler {
            assembler.finish(horizon);
        }
        self.publish(true);
        ObservedPlaneOutcome {
            report: self.engine.finish(&config.slo),
            alerts,
            spans: self.assembler,
            server: self.server,
        }
    }
}

/// The plane-side pieces of a finished observed run (the caller adds
/// `RunMetrics` and the overload report).
#[derive(Debug)]
pub struct ObservedPlaneOutcome {
    /// The engine report.
    pub report: EngineReport,
    /// Burn-rate alert outcomes.
    pub alerts: AlertReport,
    /// Assembled spans, when enabled.
    pub spans: Option<SpanAssembler>,
    /// The still-bound server, answering from the final state.
    pub server: Option<ScrapeServer>,
}

impl TraceSink for ObservedSink {
    fn record(&mut self, event: TraceEvent) {
        let at = event.at();
        self.engine.record(event);
        if let Some(assembler) = &mut self.assembler {
            assembler.record(event);
        }
        if let Some(burn) = &mut self.burn {
            if let TraceEvent::Completion { at, arrival, .. } = event {
                burn.observe_completion(at, at.saturating_sub(arrival));
            } else {
                burn.advance(at);
            }
            if burn.transitions().len() != self.seen_transitions {
                self.apply_transitions();
            }
        }
        if let Some(server) = &self.server {
            if at >= self.next_boundary {
                // Snapshot-boundary cadence, skipping quiet gaps in one step.
                let spans_past = (at - self.next_boundary) / self.boundary_cycles + 1;
                self.next_boundary += spans_past * self.boundary_cycles;
                if server.wanted() {
                    self.publish(false);
                }
            }
        }
    }

    fn reserve(&mut self, additional: usize) {
        if let Some(assembler) = &mut self.assembler {
            assembler.reserve(additional);
        }
    }
}

/// The scrape routes, rendered by [`respond`].
const ROUTES: &[&str] = &["/metrics", "/health", "/snapshot"];

/// Render one scrape route against the live engine state.
fn respond(
    path: &str,
    engine: &EngineSink,
    burn: Option<&BurnEngine>,
    governor: Option<&GovernorHandle>,
) -> Response {
    match path {
        "/metrics" => {
            Response::prometheus(engine.metrics().report().to_registry("engine").prometheus())
        }
        "/health" => Response::json(health_body(
            engine,
            burn,
            governor.map(GovernorHandle::report).as_ref(),
        )),
        "/snapshot" => Response::json(snapshot_body(engine)),
        other => unreachable!("unrouted scrape path {other}"),
    }
}

/// The `/health` body: overall status, progress counters, per-rule
/// alert states, and the governor's tier view when present. Plain JSON,
/// hand-formatted (this crate deliberately has no JSON dependency).
pub fn health_body(
    engine: &EngineSink,
    burn: Option<&BurnEngine>,
    overload: Option<&OverloadReport>,
) -> String {
    let totals = engine.metrics().totals();
    let firing = burn.is_some_and(BurnEngine::any_firing);
    let degraded = overload.is_some_and(|report| report.final_tier != ServingTier::Full);
    let status = if firing {
        "alerting"
    } else if degraded {
        "degraded"
    } else {
        "ok"
    };
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"status\": \"{status}\", \"horizon_cycles\": {}, \"completions\": {}, \"sheds\": {}",
        engine.metrics().last_event_at(),
        totals.completions,
        totals.sheds,
    );
    if let Some(burn) = burn {
        out.push_str(", \"alerts\": [");
        for (index, rule) in burn.rules().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let (fast, slow) = burn.burn_rates(index);
            out.push_str("{\"rule\": \"");
            push_json_escaped(&mut out, &rule.name);
            let _ = write!(
                out,
                "\", \"state\": \"{}\", \"fast_burn\": {:.3}, \"slow_burn\": {:.3}}}",
                burn.state(index).name(),
                fast,
                slow,
            );
        }
        out.push(']');
    }
    if let Some(report) = overload {
        let _ = write!(
            out,
            ", \"tier\": \"{}\", \"alert_floor\": \"{}\", \"shed\": {}",
            report.final_tier.name(),
            report.alert_floor.name(),
            report.shed(),
        );
    }
    out.push('}');
    out
}

/// The `/snapshot` body: ring length and the most recent snapshot (or
/// `null` before the first boundary closes).
pub fn snapshot_body(engine: &EngineSink) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"emitted\": {}, \"retained\": {}, \"latest\": ",
        engine.snapshots_emitted(),
        engine.snapshots().len(),
    );
    match engine.snapshots().last() {
        Some(snap) => {
            let _ = write!(
                out,
                "{{\"index\": {}, \"start\": {}, \"end\": {}, \"arrivals\": {}, \
                 \"completions\": {}, \"sheds\": {}, \"ready_depth\": {}, \
                 \"p50_latency_cycles\": {}, \"p99_latency_cycles\": {}, \
                 \"energy_nj\": {:.3}, \"mean_utilisation\": {:.6}, \
                 \"throughput_jobs_per_mcycle\": {:.6}, \
                 \"cumulative_completions\": {}}}",
                snap.index,
                snap.start,
                snap.end,
                snap.arrivals,
                snap.completions,
                snap.sheds,
                snap.ready_depth,
                snap.p50_latency_cycles,
                snap.p99_latency_cycles,
                snap.energy_nj,
                snap.mean_utilisation,
                snap.throughput_jobs_per_mcycle(),
                snap.cumulative_completions,
            );
        }
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// Append `text` to `out` as the inside of a JSON string: quote,
/// backslash and every control character U+0000–U+001F escaped, as
/// RFC 8259 requires.
fn push_json_escaped(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
}

/// [`run_streaming`](crate::run_streaming) under an overload governor,
/// with the observability plane attached: arrivals pass through an
/// [`AdmissionGate`](crate::AdmissionGate), the event stream through an
/// [`OverloadSink`](crate::OverloadSink) and an [`ObservedSink`], and the
/// outcome carries an [`OverloadReport`] and the plane's results next to
/// the usual engine report.
///
/// With [`ObserveConfig::disabled`] and [`OverloadConfig::disabled`] the
/// run is bit-identical to [`run_streaming`](crate::run_streaming)
/// (identical `RunMetrics`, identical event stream — property-tested,
/// and gated by the chaos drill including ledgers). With the plane
/// disabled alone, it is the governed run, and no [`ObservedSink`] is
/// layered in at all.
///
/// `tier` is the serving-tier cell shared with the scheduling system;
/// when `None` and either a brownout or an alert floor is configured, a
/// private cell keeps dwell accounting alive.
pub fn run_streaming_observed<I>(
    simulator: &Simulator,
    arrivals: I,
    scheduler: &mut dyn Scheduler,
    config: &EngineConfig,
    overload: &OverloadConfig,
    observe: &ObserveConfig,
    tier: Option<TierCell>,
) -> ObservedOutcome
where
    I: IntoIterator<Item = Arrival>,
{
    let cell = tier.or_else(|| {
        (overload.brownout.is_some() || observe.alert_tier_floor.is_some()).then(tier_cell)
    });
    let governor = GovernorHandle::new(overload, simulator.num_cores(), cell);
    let mut plane = ObservedSink::new(
        simulator.num_cores(),
        config,
        observe,
        Some(governor.clone()),
    );
    let arrivals = governor.gate(arrivals.into_iter());
    // A disabled plane is bit-invisible, so a governed-only run skips its
    // layer and the governor feeds the engine sink directly.
    let metrics = if observe.enabled() {
        governed_run(simulator, arrivals, scheduler, &governor, &mut plane)
    } else {
        governed_run(simulator, arrivals, scheduler, &governor, &mut plane.engine)
    };
    let plane = plane.finish(config);
    ObservedOutcome {
        metrics,
        report: plane.report,
        overload: governor.report(),
        alerts: plane.alerts,
        spans: plane.spans,
        server: plane.server,
    }
}

/// Stream the gated `arrivals` with the governor's sink wrapped around
/// `sink`, flushing the governor's buffered sheds at the horizon.
fn governed_run<I: Iterator<Item = Arrival>, T: TraceSink>(
    simulator: &Simulator,
    arrivals: AdmissionGate<I>,
    scheduler: &mut dyn Scheduler,
    governor: &GovernorHandle,
    sink: &mut T,
) -> RunMetrics {
    let mut wrapped = governor.sink(sink);
    let metrics = simulator.run_stream(arrivals, scheduler, &mut wrapped);
    wrapped.finish();
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloPolicy;
    use energy_model::EnergyBreakdown;
    use multicore_sim::{CoreIndex, Decision, Job, JobExecution};
    use std::io::{Read as _, Write as _};
    use workloads::OpenLoop;

    struct FirstIdle;

    impl Scheduler for FirstIdle {
        fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            match cores.first_idle() {
                Some(core) => Decision::run(
                    core,
                    JobExecution {
                        cycles: 400 + 170 * (job.benchmark.0 as u64 % 5),
                        energy: EnergyBreakdown {
                            idle_nj: 0.0,
                            dynamic_nj: 1.0,
                            static_nj: 0.5,
                        },
                    },
                ),
                None => Decision::Stall,
            }
        }

        fn idle_power_nj_per_cycle(&self, _core: multicore_sim::CoreId) -> f64 {
            1.0
        }
    }

    fn engine_config() -> EngineConfig {
        EngineConfig {
            window_cycles: 10_000,
            snapshot_windows: 5,
            max_snapshots: 16,
            slo: SloPolicy::default(),
        }
    }

    #[test]
    fn observed_run_assembles_spans_that_conserve_jobs() {
        let observe = ObserveConfig {
            assemble_spans: true,
            ..ObserveConfig::disabled()
        };
        let outcome = run_streaming_observed(
            &Simulator::new(4),
            OpenLoop::poisson(20.0, 20, 5).take(500),
            &mut FirstIdle,
            &engine_config(),
            &OverloadConfig::disabled(),
            &observe,
            None,
        );
        let spans = outcome.spans.expect("spans assembled");
        assert_eq!(spans.arrivals(), 500);
        assert_eq!(spans.completed(), 500);
        assert_eq!(spans.open_jobs(), 0);
        // Every job contributes exactly one queued + one running span.
        let running = spans
            .job_spans()
            .iter()
            .filter(|span| span.phase == hetero_telemetry::JobPhase::Running)
            .count();
        assert_eq!(running, 500);
    }

    #[test]
    fn sustained_burn_fires_floors_the_tier_and_resolves() {
        // Budget 1 cycle of latency: every completion is "bad", so the
        // burn rate saturates and the paging rule must fire; after the
        // stream ends the alert stays firing (no quiet windows), so this
        // drives the floor engagement path.
        let observe = ObserveConfig {
            rules: vec![BurnRateRule::paging("p99-latency", 1)],
            alert_tier_floor: Some(ServingTier::Distilled),
            ..ObserveConfig::disabled()
        };
        let outcome = run_streaming_observed(
            &Simulator::new(2),
            OpenLoop::poisson(50.0, 20, 9).take(4_000),
            &mut FirstIdle,
            &engine_config(),
            &OverloadConfig::disabled(),
            &observe,
            None,
        );
        assert!(outcome.alerts.fired >= 1, "{:?}", outcome.alerts);
        assert_eq!(outcome.alerts.firing(), vec!["p99-latency"]);
        assert_eq!(outcome.overload.alert_floor, ServingTier::Distilled);
        assert!(outcome.overload.alert_floor_engagements >= 1);
        assert_eq!(outcome.overload.final_tier, ServingTier::Distilled);
        assert!(outcome.overload.tier_transitions >= 1);
    }

    #[test]
    fn a_healthy_run_never_fires() {
        let observe = ObserveConfig {
            rules: vec![BurnRateRule::paging("p99-latency", u64::MAX / 2)],
            alert_tier_floor: Some(ServingTier::Distilled),
            ..ObserveConfig::disabled()
        };
        let outcome = run_streaming_observed(
            &Simulator::new(4),
            OpenLoop::poisson(20.0, 20, 3).take(2_000),
            &mut FirstIdle,
            &engine_config(),
            &OverloadConfig::disabled(),
            &observe,
            None,
        );
        assert_eq!(outcome.alerts.fired, 0);
        assert!(outcome.alerts.transitions.is_empty());
        assert_eq!(outcome.overload.alert_floor, ServingTier::Full);
        assert_eq!(outcome.overload.alert_floor_engagements, 0);
        assert_eq!(outcome.overload.final_tier, ServingTier::Full);
    }

    #[test]
    fn scrape_endpoints_answer_during_a_live_run() {
        let observe = ObserveConfig {
            rules: vec![BurnRateRule::paging("p99-latency", 100_000)],
            serve_port: Some(0),
            ..ObserveConfig::disabled()
        };
        let mut plane = ObservedSink::new(
            2,
            &engine_config(),
            &observe,
            Some(GovernorHandle::new(&OverloadConfig::disabled(), 2, None)),
        );
        let addr = plane.serve_addr().expect("server bound");
        let fetch = move |path: &str| {
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            stream
                .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .expect("write");
            let mut out = String::new();
            stream.read_to_string(&mut out).expect("read");
            out
        };
        // The clients ask once the run is 500 arrivals in (so snapshots
        // exist), and the run then paces its arrivals until all three are
        // answered: the answers come from boundary publications mid-run,
        // not from the final state.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Mutex};
        let answered = Arc::new(AtomicUsize::new(0));
        let clients = Arc::new(Mutex::new(Vec::new()));
        let (pace, spawned) = (Arc::clone(&answered), Arc::clone(&clients));
        let arrivals =
            OpenLoop::poisson(20.0, 20, 1)
                .take(3_000)
                .enumerate()
                .map(move |(index, arrival)| {
                    if index == 500 {
                        for &path in ROUTES {
                            let answered = Arc::clone(&pace);
                            spawned.lock().unwrap().push(std::thread::spawn(move || {
                                let reply = fetch(path);
                                answered.fetch_add(1, Ordering::SeqCst);
                                reply
                            }));
                        }
                    }
                    if index >= 500 && pace.load(Ordering::SeqCst) < 3 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    arrival
                });
        let metrics = Simulator::new(2).run_stream(arrivals, &mut FirstIdle, &mut plane);
        assert_eq!(metrics.jobs_completed, 3_000);
        assert_eq!(
            answered.load(Ordering::SeqCst),
            3,
            "answered before the end"
        );
        let clients = std::mem::take(&mut *clients.lock().unwrap());
        let replies: Vec<String> = clients
            .into_iter()
            .map(|client| client.join().expect("client"))
            .collect();
        let metrics_reply = replies
            .iter()
            .find(|r| r.contains("# TYPE"))
            .expect("metrics");
        assert!(
            metrics_reply.contains("sched_completions_total"),
            "{metrics_reply}"
        );
        let health = replies
            .iter()
            .find(|r| r.contains("\"status\""))
            .expect("health");
        let completions: u64 = health
            .split("\"completions\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .expect("completions field");
        assert!(
            0 < completions && completions < 3_000,
            "answered mid-run: {health}"
        );
        assert!(health.contains("\"alerts\": ["), "{health}");
        let snapshot = replies
            .iter()
            .find(|r| r.contains("\"emitted\""))
            .expect("snapshot");
        assert!(snapshot.contains("\"latest\": {"), "{snapshot}");

        // One more arrival that never completes, so the final `/health`
        // must count completions, not arrivals.
        plane.record(TraceEvent::Arrival {
            seq: 3_000,
            benchmark: workloads::BenchmarkId(0),
            at: plane.engine.metrics().last_event_at() + 1,
            priority: 0,
        });
        // After the finish the server answers from the final state, with
        // the run's exact counts.
        let outcome = plane.finish(&engine_config());
        let server = outcome.server.as_ref().expect("server stays bound");
        assert_eq!(server.stats().served, 3);
        let health = fetch("/health");
        assert!(health.contains("\"completions\": 3000,"), "{health}");
        assert!(health.contains("\"sheds\": 0"), "{health}");
        // `/snapshot` shows the last closed boundary; the report adds the
        // trailing partial span after it.
        let snapshot = fetch("/snapshot");
        let index: u64 = snapshot
            .split("\"index\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .expect("index field");
        let closed = outcome
            .report
            .snapshots
            .iter()
            .find(|snap| snap.index == index)
            .expect("a retained snapshot");
        assert_eq!(outcome.report.snapshots_emitted, index + 2, "{snapshot}");
        assert!(
            snapshot.contains(&format!("\"completions\": {}, ", closed.completions)),
            "{snapshot}"
        );
        assert!(
            snapshot.contains(&format!(
                "\"cumulative_completions\": {}}}",
                closed.cumulative_completions
            )),
            "{snapshot}"
        );
        let metrics_reply = fetch("/metrics");
        assert!(
            metrics_reply.contains("sched_completions_total{system=\"engine\"} 3000\n"),
            "{metrics_reply}"
        );
        assert_eq!(server.stats().served, 6);
    }

    #[test]
    fn adversarial_scrape_clients_neither_stall_nor_perturb_the_run() {
        let observe = ObserveConfig {
            rules: vec![BurnRateRule::paging("p99-latency", 100_000)],
            assemble_spans: true,
            serve_port: Some(0),
            ..ObserveConfig::disabled()
        };
        // The arrivals are paced so the clients overlap the run; pacing
        // changes wall time only, never the simulated stream.
        let arrivals = || {
            OpenLoop::poisson(20.0, 20, 11)
                .take(4_000)
                .enumerate()
                .map(|(index, arrival)| {
                    if index < 2_000 {
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    }
                    arrival
                })
        };
        let quiet = run_streaming_observed(
            &Simulator::new(2),
            arrivals(),
            &mut FirstIdle,
            &engine_config(),
            &OverloadConfig::disabled(),
            &ObserveConfig {
                serve_port: None,
                ..observe.clone()
            },
            None,
        );

        let mut plane = ObservedSink::new(2, &engine_config(), &observe, None);
        let addr = plane.serve_addr().expect("server bound");
        // A slowloris that connects and never sends, and a client that
        // asks for `/metrics` and never reads the answer.
        let slowloris = std::net::TcpStream::connect(addr).expect("connect");
        let mut never_reads = std::net::TcpStream::connect(addr).expect("connect");
        never_reads
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write");
        let flood: Vec<std::thread::JoinHandle<String>> = (0..64)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
                    stream
                        .write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
                        .expect("write");
                    let mut out = String::new();
                    let _ = stream.read_to_string(&mut out);
                    out
                })
            })
            .collect();
        let metrics = Simulator::new(2).run_stream(arrivals(), &mut FirstIdle, &mut plane);
        let outcome = plane.finish(&engine_config());
        assert_eq!(metrics, quiet.metrics, "scrapes must not perturb the run");
        assert_eq!(outcome.report.totals, quiet.report.totals);

        for client in flood {
            let reply = client.join().expect("flood client");
            assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        }
        let server = outcome.server.as_ref().expect("server stays bound");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let total = |stats: crate::ServeStats| stats.served + stats.not_found + stats.rejected;
        while total(server.stats()) < 66 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let stats = server.stats();
        assert_eq!(
            total(stats),
            66,
            "every connection accounted for: {stats:?}"
        );
        assert!(stats.served >= 64, "{stats:?}");
        assert!(stats.rejected >= 1, "the slowloris times out: {stats:?}");
        assert_eq!(stats.not_found, 0);
        drop((slowloris, never_reads));
    }

    #[test]
    fn health_and_snapshot_bodies_are_well_formed_when_empty() {
        let plane = ObservedSink::new(2, &engine_config(), &ObserveConfig::disabled(), None);
        let health = health_body(&plane.engine, None, None);
        assert!(health.starts_with("{\"status\": \"ok\""), "{health}");
        let snapshot = snapshot_body(&plane.engine);
        assert!(snapshot.contains("\"latest\": null"), "{snapshot}");
        assert!(snapshot.starts_with('{') && snapshot.ends_with('}'));
    }
}
