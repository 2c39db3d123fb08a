//! End-to-end and per-layer benchmark of the streaming scheduler.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload paper_poisson|manycore_saturated|storm_observed|all] \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One invocation builds the paper testbed (suite oracle + bagged-ANN
//! predictor) several times, then streams one workload through the public
//! `hetero_engine` entry points again and again for `--seconds` seconds of
//! streaming. Every repeat must produce bit-identical simulated results;
//! host time takes each episode at its fastest repeat.
//!
//! With `--trace 0` the last line of stdout is a JSON object with the
//! end-to-end metrics; with `--trace 1` untraced and traced repeats
//! alternate, the traced ones run through the wrappers in [`layers`], and
//! the JSON carries the per-layer metrics. Any failed check makes the
//! process exit non-zero. `--workload all` runs each workload in a child
//! process of its own (so each reports its own peak RSS), one after the
//! other, and fails if any of them fails.
//!
//! See `perfbench/METRICS.md` for what each metric means and which layer
//! should move which end-to-end number.

mod layers;

use hetero_sched::energy_model::EnergyModel;
use hetero_sched::hetero_core::{
    Architecture, BestCorePredictor, PredictorConfig, ProposedSystem, SuiteOracle,
};
use hetero_sched::hetero_engine::{
    run_streaming, run_streaming_observed, BrownoutConfig, EngineConfig, EngineReport, EngineSink,
    GovernorHandle, ObserveConfig, ObservedSink, OverloadConfig, OverloadReport, ShedPolicy,
};
use hetero_sched::hetero_telemetry::{BurnRateRule, Histogram};
use hetero_sched::multicore_sim::{tier_cell, CoreId, RunMetrics, Simulator};
use hetero_sched::tinyann::{DistillConfig, TrainConfig};
use hetero_sched::workloads::{BurstyRate, ConstantRate, OpenLoop, Suite};
use layers::{SinkStats, Span, TimedArrivals, TimedScheduler, TimedSink};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["paper_poisson", "manycore_saturated", "storm_observed"];

/// Testbed builds per invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Streaming repeats run at least this often, however long each takes.
const MIN_REPEATS: usize = 3;

/// Set-up workers (`HETERO_THREADS`): at most two, so set-up time does
/// not depend on how many more CPUs a host has.
const SETUP_THREADS: usize = 2;

/// The paper's operating point: 5000 jobs per 700M cycles, in jobs/Mcycle
/// (the `engine` bin's default rate).
const PAPER_RATE: f64 = 7.1;

/// Jobs offered per episode and episodes per repeat. Every episode has a
/// seed of its own and a fresh scheduler; the simulated figures pool the
/// episodes, and host time takes each episode at its fastest repeat.
const PAPER_JOBS: usize = 125_000;
const PAPER_EPISODES: usize = 8;
const MANYCORE_JOBS: usize = 20_000;
const MANYCORE_EPISODES: usize = 1;
/// The admission gate sheds the rest of a storm episode once its queue
/// first fills, so each episode completes only a few dozen jobs; the
/// latency and energy figures need many episodes.
const STORM_JOBS: usize = 50_000;
const STORM_EPISODES: usize = 100;

/// Cores of the many-core workload: the paper quad tiled 16 times.
const MANYCORE_CORES: usize = 64;

/// Storm phases, in cycles: a quarter of each 40M-cycle period is the
/// on-phase (the `engine` bin's bursty shape).
const STORM_ON_CYCLES: u64 = 10_000_000;
const STORM_OFF_CYCLES: u64 = 30_000_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected {} or all)",
            parsed.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// The paper testbed plus what it took to build.
struct Testbed {
    model: EnergyModel,
    oracle: SuiteOracle,
    predictor: BestCorePredictor,
    /// Distilled student for the storm's brownout tier.
    student: Option<BestCorePredictor>,
    oracle_s: f64,
    train_s: f64,
    setup_s: f64,
}

fn build_testbed(with_student: bool) -> Testbed {
    let start = Instant::now();
    let suite = Suite::eembc_like();
    let model = EnergyModel::default();
    let oracle = SuiteOracle::build(&suite, &model);
    let oracle_s = start.elapsed().as_secs_f64();
    let train_start = Instant::now();
    let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::paper());
    let train_s = train_start.elapsed().as_secs_f64();
    // The `chaos` bin's overload-drill student.
    let student = with_student.then(|| {
        predictor
            .distill(
                &oracle,
                &DistillConfig {
                    replicas: 2,
                    hidden: vec![8],
                    train: TrainConfig {
                        epochs: 80,
                        ..TrainConfig::default()
                    },
                    ..DistillConfig::default()
                },
            )
            .expect("the paper predictor is an ANN ensemble")
    });
    Testbed {
        model,
        oracle,
        predictor,
        student,
        oracle_s,
        train_s,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

/// The paper's 2/4/8/8 KB quad tiled to `num_cores`, with the last two
/// (8 KB) cores profiling, as the `scaling --manycore` sweep builds it.
fn tiled_architecture(num_cores: usize) -> Architecture {
    use hetero_sched::cache_sim::CacheSizeKb::{K2, K4, K8};
    let sizes = (0..num_cores).map(|i| [K2, K4, K8, K8][i % 4]).collect();
    Architecture::new(sizes, CoreId(num_cores - 1), Some(CoreId(num_cores - 2)))
}

/// Mean and maximum best-configuration cycles over the suite.
fn service_cycles(oracle: &SuiteOracle) -> (u64, u64) {
    let cycles: Vec<u64> = oracle
        .benchmarks()
        .map(|b| oracle.best_config(b).1.cycles)
        .collect();
    let mean = cycles.iter().sum::<u64>() / cycles.len() as u64;
    (mean, cycles.iter().copied().max().unwrap_or(mean))
}

/// Layer numbers of one traced episode (or, summed, of a whole repeat).
#[derive(Debug, Clone, Copy, Default)]
struct LayerTimes {
    run_ns: u64,
    arrivals: Span,
    gate_outer: Span,
    schedule: Span,
    placed: u64,
    on_complete: Span,
    /// The sink the simulator records into (the governor's, when armed).
    sim_sink: Span,
    /// The engine-level sink (`EngineSink`, or the observability plane).
    engine_sink: Span,
    overload_finish_ns: u64,
    sheds_flushed_at_finish: u64,
    observe_finish_ns: u64,
    depth_max: u64,
    depth_area: u128,
    depth_cycles: u64,
}

impl LayerTimes {
    fn add(&mut self, other: &LayerTimes) {
        let add = |a: &mut Span, b: Span| {
            a.calls += b.calls;
            a.ns += b.ns;
        };
        self.run_ns += other.run_ns;
        add(&mut self.arrivals, other.arrivals);
        add(&mut self.gate_outer, other.gate_outer);
        add(&mut self.schedule, other.schedule);
        self.placed += other.placed;
        add(&mut self.on_complete, other.on_complete);
        add(&mut self.sim_sink, other.sim_sink);
        add(&mut self.engine_sink, other.engine_sink);
        self.overload_finish_ns += other.overload_finish_ns;
        self.sheds_flushed_at_finish += other.sheds_flushed_at_finish;
        self.observe_finish_ns += other.observe_finish_ns;
        self.depth_max = self.depth_max.max(other.depth_max);
        self.depth_area += other.depth_area;
        self.depth_cycles += other.depth_cycles;
    }

    /// The counts a deterministic simulation must repeat exactly.
    fn counts(&self) -> [u64; 9] {
        [
            self.arrivals.calls,
            self.gate_outer.calls,
            self.schedule.calls,
            self.placed,
            self.on_complete.calls,
            self.sim_sink.calls,
            self.engine_sink.calls,
            self.sheds_flushed_at_finish,
            self.depth_max,
        ]
    }

    fn take_sink(&mut self, sim: &SinkStats, engine: &SinkStats) {
        self.sim_sink = sim.record.get();
        self.depth_max = sim.depth_max.get();
        self.depth_area = sim.depth_area.get();
        self.depth_cycles = sim.last_at.get();
        self.engine_sink = engine.record.get();
    }

    fn take_scheduler(&mut self, scheduler: &TimedScheduler) {
        self.schedule = scheduler.schedule;
        self.placed = scheduler.placed;
        self.on_complete = scheduler.on_complete;
    }
}

/// How an episode is run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Through the public entry point, timed as a whole.
    Untraced,
    /// The same composition with every boundary wrapped.
    Traced,
    /// Traced, and every completion's turnaround kept.
    Collect,
}

/// One episode: a single offered stream served to the end.
struct Episode {
    metrics: RunMetrics,
    report: EngineReport,
    overload: Option<OverloadReport>,
    alerts_fired: u64,
    spans: u64,
    wall_s: f64,
    layers: Option<LayerTimes>,
    latencies: Vec<u64>,
}

/// A workload: the architecture, the offered streams, and how they are
/// served.
struct Workload<'t> {
    name: &'static str,
    testbed: &'t Testbed,
    arch: Architecture,
    /// Jobs offered per episode.
    jobs: usize,
    /// Episodes per repeat, each with a seed of its own.
    episodes: usize,
    seed: u64,
    storm: Option<Storm>,
}

/// The storm's calibrated rate and governor settings.
struct Storm {
    sustainable: f64,
    queue_capacity: u64,
    overload: OverloadConfig,
    observe: ObserveConfig,
    config: EngineConfig,
}

impl Storm {
    fn calibrate(testbed: &Testbed, num_cores: usize) -> Storm {
        let (mean, max) = service_cycles(&testbed.oracle);
        let queue_capacity = num_cores as u64 * 8;
        Storm {
            sustainable: num_cores as f64 / mean as f64 * 1e6,
            queue_capacity,
            overload: OverloadConfig {
                queue_capacity: Some(queue_capacity),
                policy: ShedPolicy::DropTail,
                rate_limit: None,
                brownout: Some(BrownoutConfig {
                    control_window_cycles: mean,
                    depth_high: queue_capacity / 2,
                    depth_low: num_cores as u64,
                    latency_budget_cycles: 3 * max,
                    breach_fraction: 0.5,
                    step_up_after: 2,
                    step_down_after: 2,
                }),
                breaker: None,
            },
            observe: ObserveConfig {
                rules: vec![BurnRateRule::paging("p99-latency", 3 * max)],
                assemble_spans: true,
                alert_tier_floor: None,
                serve_port: Some(0),
            },
            config: EngineConfig {
                window_cycles: mean,
                snapshot_windows: 4,
                max_snapshots: 64,
                ..EngineConfig::default()
            },
        }
    }
}

impl Workload<'_> {
    fn new<'t>(name: &str, testbed: &'t Testbed, seed: u64) -> Workload<'t> {
        let (name, arch, jobs, episodes, storm) = match name {
            "paper_poisson" => (
                "paper_poisson",
                Architecture::paper_quad(),
                PAPER_JOBS,
                PAPER_EPISODES,
                None,
            ),
            "manycore_saturated" => (
                "manycore_saturated",
                tiled_architecture(MANYCORE_CORES),
                MANYCORE_JOBS,
                MANYCORE_EPISODES,
                None,
            ),
            _ => (
                "storm_observed",
                Architecture::paper_quad(),
                STORM_JOBS,
                STORM_EPISODES,
                Some(Storm::calibrate(testbed, 4)),
            ),
        };
        Workload {
            name,
            testbed,
            arch,
            jobs,
            episodes,
            seed,
            storm,
        }
    }

    fn describe(&self) -> String {
        let cores = self.arch.num_cores();
        match &self.storm {
            None => format!(
                "proposed system, {cores} cores, {} episodes of {} jobs: Poisson {} jobs/Mcycle, \
                 seed {}",
                self.episodes,
                self.jobs,
                self.rate(),
                self.seed
            ),
            Some(storm) => format!(
                "proposed system, {cores} cores, {} episodes of {} offered: bursty {:.4}/{:.4} \
                 jobs/Mcycle over {STORM_ON_CYCLES}/{STORM_OFF_CYCLES} cycles on/off \
                 (sustainable {:.4}), queue {}, seed {}",
                self.episodes,
                self.jobs,
                2.5 * storm.sustainable,
                0.25 * storm.sustainable,
                storm.sustainable,
                storm.queue_capacity,
                self.seed
            ),
        }
    }

    /// Offered Poisson rate in jobs/Mcycle: the paper's rate per quad.
    fn rate(&self) -> f64 {
        PAPER_RATE * self.arch.num_cores() as f64 / 4.0
    }

    /// The seed of episode `index`: distinct across seeds and episodes.
    fn episode_seed(&self, index: usize) -> u64 {
        self.seed
            .wrapping_mul(self.episodes as u64)
            .wrapping_add(index as u64)
    }

    fn poisson(&self, index: usize) -> std::iter::Take<OpenLoop<ConstantRate>> {
        OpenLoop::poisson(
            self.rate(),
            self.testbed.oracle.len(),
            self.episode_seed(index),
        )
        .take(self.jobs)
    }

    fn bursty(&self, storm: &Storm, index: usize) -> std::iter::Take<OpenLoop<BurstyRate>> {
        OpenLoop::bursty(
            2.5 * storm.sustainable,
            0.25 * storm.sustainable,
            STORM_ON_CYCLES,
            STORM_OFF_CYCLES,
            self.testbed.oracle.len(),
            self.episode_seed(index),
        )
        .take(self.jobs)
    }

    /// A fresh scheduler: every episode starts cold.
    fn system(&self) -> ProposedSystem<'_> {
        let testbed = self.testbed;
        ProposedSystem::with_model(
            &self.arch,
            &testbed.oracle,
            testbed.model,
            testbed.predictor.clone(),
        )
    }

    fn run(&self, index: usize, mode: Mode) -> Episode {
        match &self.storm {
            None => self.run_plain(index, mode),
            Some(storm) => self.run_storm(storm, index, mode),
        }
    }

    /// `run_streaming`, or the same composition with each boundary
    /// wrapped.
    fn run_plain(&self, index: usize, mode: Mode) -> Episode {
        let simulator = Simulator::new(self.arch.num_cores());
        let config = EngineConfig::default();
        let mut system = self.system();
        if mode == Mode::Untraced {
            let start = Instant::now();
            let outcome = run_streaming(&simulator, self.poisson(index), &mut system, &config);
            let wall_s = start.elapsed().as_secs_f64();
            return Episode {
                metrics: outcome.metrics,
                report: outcome.report,
                overload: None,
                alerts_fired: 0,
                spans: 0,
                wall_s,
                layers: None,
                latencies: Vec::new(),
            };
        }
        let mut times = LayerTimes::default();
        let stats = if mode == Mode::Collect {
            SinkStats::collecting()
        } else {
            SinkStats::default()
        };
        let start = Instant::now();
        let mut engine = EngineSink::new(simulator.num_cores(), &config);
        let mut scheduler = TimedScheduler::new(&mut system);
        let metrics = simulator.run_stream(
            TimedArrivals::new(self.poisson(index), &mut times.arrivals),
            &mut scheduler,
            &mut TimedSink::new(&mut engine, &stats),
        );
        times.run_ns = start.elapsed().as_nanos() as u64;
        times.take_sink(&stats, &stats);
        times.take_scheduler(&scheduler);
        let report = engine.finish(&config.slo);
        Episode {
            metrics,
            report,
            overload: None,
            alerts_fired: 0,
            spans: 0,
            wall_s: start.elapsed().as_secs_f64(),
            layers: Some(times),
            latencies: stats.latencies.map(RefCell::into_inner).unwrap_or_default(),
        }
    }

    /// `run_streaming_observed`, or the same composition with the gate
    /// between two timed iterators and the governor's sink between two
    /// timed sinks, so the governor's self time falls out.
    fn run_storm(&self, storm: &Storm, index: usize, mode: Mode) -> Episode {
        let simulator = Simulator::new(self.arch.num_cores());
        let cell = tier_cell();
        let mut system = self
            .system()
            .with_serving_tier(cell.clone(), self.testbed.student.clone());
        if mode == Mode::Untraced {
            let start = Instant::now();
            let outcome = run_streaming_observed(
                &simulator,
                self.bursty(storm, index),
                &mut system,
                &storm.config,
                &storm.overload,
                &storm.observe,
                Some(cell),
            );
            let wall_s = start.elapsed().as_secs_f64();
            return Episode {
                metrics: outcome.metrics,
                report: outcome.report,
                overload: Some(outcome.overload),
                alerts_fired: outcome.alerts.fired,
                spans: outcome.spans.map_or(0, |s| s.job_spans().len() as u64),
                wall_s,
                layers: None,
                latencies: Vec::new(),
            };
        }
        let mut times = LayerTimes::default();
        let sim_stats = SinkStats::default();
        let engine_stats = if mode == Mode::Collect {
            SinkStats::collecting()
        } else {
            SinkStats::default()
        };
        let start = Instant::now();
        let governor = GovernorHandle::new(&storm.overload, simulator.num_cores(), Some(cell));
        let mut plane = ObservedSink::new(
            simulator.num_cores(),
            &storm.config,
            &storm.observe,
            Some(governor.clone()),
        );
        let mut scheduler = TimedScheduler::new(&mut system);
        let mut engine_sink = TimedSink::new(&mut plane, &engine_stats);
        let mut governed = governor.sink(&mut engine_sink);
        let arrivals = TimedArrivals::new(
            governor.gate(TimedArrivals::new(
                self.bursty(storm, index),
                &mut times.arrivals,
            )),
            &mut times.gate_outer,
        );
        let run_start = Instant::now();
        let metrics = simulator.run_stream(
            arrivals,
            &mut scheduler,
            &mut TimedSink::new(&mut governed, &sim_stats),
        );
        times.run_ns = run_start.elapsed().as_nanos() as u64;
        let flushed_before = engine_stats.sheds.get();
        let finish_start = Instant::now();
        governed.finish();
        times.overload_finish_ns = finish_start.elapsed().as_nanos() as u64;
        times.sheds_flushed_at_finish = engine_stats.sheds.get() - flushed_before;
        times.take_sink(&sim_stats, &engine_stats);
        times.take_scheduler(&scheduler);
        let finish_start = Instant::now();
        let plane = plane.finish(&storm.config);
        times.observe_finish_ns = finish_start.elapsed().as_nanos() as u64;
        Episode {
            metrics,
            report: plane.report,
            overload: Some(governor.report()),
            alerts_fired: plane.alerts.fired,
            spans: plane.spans.map_or(0, |s| s.job_spans().len() as u64),
            wall_s: start.elapsed().as_secs_f64(),
            layers: Some(times),
            latencies: engine_stats
                .latencies
                .map(RefCell::into_inner)
                .unwrap_or_default(),
        }
    }

    /// Every episode once, in order, each handed to `each` as it ends so
    /// that no more than one episode's results are held at a time.
    fn repeat(&self, mode: Mode, mut each: impl FnMut(Episode)) {
        (0..self.episodes).for_each(|index| each(self.run(index, mode)));
    }
}

/// FNV-1a over every simulated number an episode produced, so repeats,
/// traced and untraced runs, or two commits can be compared for a
/// bit-identical simulation.
fn digest(hash: &mut u64, episode: &Episode) {
    let mut eat = |value: u64| {
        for byte in value.to_le_bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let m = &episode.metrics;
    for energy in [m.energy.idle_nj, m.energy.dynamic_nj, m.energy.static_nj] {
        eat(energy.to_bits());
    }
    for value in [
        m.total_cycles,
        m.jobs_completed,
        m.stalls,
        m.stall_offers,
        m.turnaround_cycles,
        m.preemptions,
    ] {
        eat(value);
    }
    m.busy_cycles.iter().for_each(|&busy| eat(busy));
    for (&priority, class) in &m.by_priority {
        eat(u64::from(priority));
        eat(class.jobs);
        eat(class.turnaround_cycles);
    }
    let r = &episode.report;
    let totals = &r.totals;
    for value in [
        r.horizon,
        r.snapshots_emitted,
        totals.arrivals,
        totals.placements,
        totals.completions,
        totals.sheds,
        totals.dynamic_nj.to_bits(),
        totals.static_nj.to_bits(),
        totals.idle_energy_nj.to_bits(),
    ] {
        eat(value);
    }
    for hist in [&r.latency_cycles, &r.job_energy_nj, &r.stall_cycles] {
        for value in [hist.count(), hist.min(), hist.max(), hist.p50(), hist.p99()] {
            eat(value);
        }
        eat(hist.sum() as u64);
    }
    if let Some(overload) = &episode.overload {
        for value in [
            overload.offered,
            overload.admitted,
            overload.shed(),
            overload.max_in_flight,
            overload.tier_transitions,
        ] {
            eat(value);
        }
        overload.tier_dwell_cycles.iter().for_each(|&c| eat(c));
    }
    eat(episode.alerts_fired);
    eat(episode.spans);
}

/// The FNV-1a starting value of a repeat's digest.
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Conservation checks on one episode; returns the problems found.
fn check(workload: &Workload, episode: &Episode) -> Vec<String> {
    let mut problems = Vec::new();
    let offered = workload.jobs as u64;
    let completed = episode.metrics.jobs_completed;
    let shed = episode.overload.as_ref().map_or(0, OverloadReport::shed);
    if offered != completed + shed {
        problems.push(format!(
            "offered {offered} != completed {completed} + shed {shed}"
        ));
    }
    let totals = &episode.report.totals;
    if totals.completions != completed || totals.sheds != shed {
        problems.push(format!(
            "engine report counts {} completions and {} sheds, the run {completed} and {shed}",
            totals.completions, totals.sheds
        ));
    }
    match (&episode.overload, &workload.storm) {
        (None, _) if completed != offered => {
            problems.push(format!("ungoverned run completed {completed} of {offered}"))
        }
        (Some(overload), Some(storm)) => {
            if overload.offered != offered || overload.admitted != completed {
                problems.push(format!(
                    "governor offered {} admitted {}, expected {offered} and {completed}",
                    overload.offered, overload.admitted
                ));
            }
            // The gate decides at the simulator's peek: one arrival stale.
            if overload.max_in_flight > storm.queue_capacity + 1 {
                problems.push(format!(
                    "in-flight depth {} exceeded the queue bound {}",
                    overload.max_in_flight, storm.queue_capacity
                ));
            }
        }
        _ => {}
    }
    let energy = episode.metrics.energy.total();
    if completed == 0 || energy.is_nan() || energy <= 0.0 {
        problems.push("no job completed with positive energy".to_string());
    }
    problems
}

/// Checks one episode's collected turnarounds against the simulator's
/// ledger.
fn check_turnarounds(episode: &Episode) -> Option<String> {
    let sum: u64 = episode.latencies.iter().sum();
    let ledger = &episode.metrics;
    (episode.latencies.len() as u64 != ledger.jobs_completed || sum != ledger.turnaround_cycles)
        .then(|| {
            format!(
                "{} turnarounds summing to {sum}, the ledger has {} and {}",
                episode.latencies.len(),
                ledger.jobs_completed,
                ledger.turnaround_cycles
            )
        })
}

/// Checks the engine's latency histogram against the exact quantiles: it
/// may overshoot a quantile by at most 1/32, never undershoot it.
fn check_histogram(sorted: &[u64], pooled: &Histogram) -> Vec<String> {
    [0.5, 0.99]
        .into_iter()
        .filter_map(|q| {
            let exact = nearest_rank(sorted, q);
            let estimate = pooled.quantile(q);
            (estimate < exact || estimate as f64 > exact as f64 * (1.0 + 1.0 / 32.0) + 1.0)
                .then(|| format!("engine histogram q{q} = {estimate}, exact quantile {exact}"))
        })
        .collect()
}

/// Nearest-rank quantile of sorted samples (0 when there are none).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0)
}

/// The quantile to report for `q`: `q` itself, or with fewer than 1000
/// samples the highest whole percentile with ten samples beyond it.
fn supported_quantile(n: usize, q: f64) -> f64 {
    if n >= 1000 {
        return q;
    }
    let supported = (n.saturating_sub(10) as f64 / n.max(1) as f64 * 100.0).floor() / 100.0;
    q.min(supported).max(0.5)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported number: name, value, unit, and how it was obtained.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
    /// `false` for rows printed in the table but left out of the result
    /// line.
    in_result: bool,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
        in_result: true,
    }
}

impl Metric {
    fn table_only(self) -> Metric {
        Metric {
            in_result: false,
            ..self
        }
    }
}

/// Setup times of every testbed build in this invocation.
#[derive(Default)]
struct Setup {
    oracle_s: Vec<f64>,
    train_s: Vec<f64>,
    setup_s: Vec<f64>,
}

/// Totals over the episodes of one repeat.
#[derive(Default)]
struct Pooled {
    offered: u64,
    completed: u64,
    shed: u64,
    energy_nj: f64,
    horizon: u64,
    latency: Histogram,
    admitted: u64,
    tier_transitions: u64,
    alerts_fired: u64,
    spans: u64,
    governed: bool,
}

impl Pooled {
    fn add(&mut self, offered: u64, episode: &Episode) {
        self.offered += offered;
        self.completed += episode.metrics.jobs_completed;
        self.energy_nj += episode.metrics.energy.total();
        self.horizon += episode.report.horizon;
        self.latency.merge(&episode.report.latency_cycles);
        self.alerts_fired += episode.alerts_fired;
        self.spans += episode.spans;
        if let Some(overload) = &episode.overload {
            self.shed += overload.shed();
            self.admitted += overload.admitted;
            self.tier_transitions += overload.tier_transitions;
        }
    }
}

/// The per-layer numbers: times are medians over the traced repeats,
/// counts are per repeat. Times of the governor and the observability
/// plane exist on `storm_observed` only, so they stay out of the result
/// line, which every workload fills with the same names.
fn layer_metrics(
    traced: &[LayerTimes],
    overhead: f64,
    setup: &Setup,
    pooled: &Pooled,
) -> Vec<Metric> {
    let first = &traced[0];
    let med = |f: &dyn Fn(&LayerTimes) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let ns = |span: Span| span.ns as f64;
    let per = |total: f64, count: f64| if count > 0.0 { total / count } else { 0.0 };
    let storm = pooled.governed;
    let sim_self_ns = med(&|t| {
        let arrivals = if storm { t.gate_outer } else { t.arrivals };
        t.run_ns as f64 - ns(arrivals) - ns(t.schedule) - ns(t.on_complete) - ns(t.sim_sink)
    });
    let events = first.sim_sink.calls as f64;
    let schedule_ns = med(&|t| ns(t.schedule));
    let calls = first.schedule.calls as f64;
    let sink_ns = med(&|t| ns(t.engine_sink));
    let records = first.engine_sink.calls as f64;
    let storm_only = |value: f64| if storm { value } else { 0.0 };
    let timed = format!("median of {} traced repeats", traced.len());
    let builds = format!("median of {} builds", setup.oracle_s.len());
    vec![
        metric("core.oracle_build_s", median(&setup.oracle_s), "s", &builds),
        metric(
            "core.predictor_train_s",
            median(&setup.train_s),
            "s",
            &builds,
        ),
        metric(
            "workloads.arrivals_ms",
            med(&|t| ns(t.arrivals)) / 1e6,
            "ms",
            &timed,
        ),
        metric(
            "sim.events",
            events,
            "count",
            "events the simulator emitted",
        ),
        metric(
            "sim.self_ms",
            sim_self_ns / 1e6,
            "ms",
            "run_stream minus arrivals, scheduler, sink",
        ),
        metric(
            "sim.ns_per_event",
            per(sim_self_ns, events),
            "ns",
            "sim.self_ms per event",
        ),
        metric(
            "sim.ready_depth_max",
            first.depth_max as f64,
            "jobs",
            "arrivals minus placements",
        ),
        metric(
            "sim.ready_depth_mean",
            per(first.depth_area as f64, first.depth_cycles as f64),
            "jobs",
            "weighted by simulated cycles",
        ),
        metric(
            "core.schedule_calls",
            calls,
            "count",
            "Scheduler::schedule offers",
        ),
        metric(
            "core.schedule_placed",
            first.placed as f64,
            "count",
            "offers that placed a job",
        ),
        metric(
            "core.place_ratio",
            per(first.placed as f64, calls),
            "ratio",
            "placed / offers",
        ),
        metric(
            "core.offers_per_job",
            per(calls, pooled.completed as f64),
            "offers/job",
            "offers / completed jobs",
        ),
        metric("core.schedule_ms", schedule_ns / 1e6, "ms", &timed),
        metric(
            "core.ns_per_schedule",
            per(schedule_ns, calls),
            "ns",
            "schedule time per offer",
        ),
        metric(
            "core.on_complete_ms",
            med(&|t| ns(t.on_complete)) / 1e6,
            "ms",
            &timed,
        ),
        metric(
            "engine.sink_records",
            records,
            "count",
            "records into the engine-level sink",
        ),
        metric("engine.sink_ms", sink_ns / 1e6, "ms", &timed),
        metric(
            "engine.ns_per_record",
            per(sink_ns, records),
            "ns",
            "engine sink time per record",
        ),
        metric(
            "engine.overload.gate_ms",
            storm_only(med(&|t| ns(t.gate_outer) - ns(t.arrivals)) / 1e6),
            "ms",
            "gate self time; storm only",
        )
        .table_only(),
        metric(
            "engine.overload.sink_ms",
            storm_only(
                med(&|t| ns(t.sim_sink) + t.overload_finish_ns as f64 - ns(t.engine_sink)) / 1e6,
            ),
            "ms",
            "governor sink self time incl. finish; storm only",
        )
        .table_only(),
        metric(
            "engine.overload.admitted",
            pooled.admitted as f64,
            "count",
            "governor admissions",
        ),
        metric(
            "engine.overload.shed",
            pooled.shed as f64,
            "count",
            "governor refusals",
        ),
        metric(
            "engine.overload.sheds_flushed_at_finish",
            first.sheds_flushed_at_finish as f64,
            "count",
            "sheds held until OverloadSink::finish",
        ),
        metric(
            "engine.overload.tier_transitions",
            pooled.tier_transitions as f64,
            "count",
            "brownout tier changes",
        ),
        metric(
            "engine.observe.record_ms",
            storm_only(sink_ns / 1e6),
            "ms",
            "plane record time (= engine.sink_ms); storm only",
        )
        .table_only(),
        metric(
            "engine.observe.finish_ms",
            storm_only(med(&|t| t.observe_finish_ns as f64) / 1e6),
            "ms",
            "ObservedSink::finish; storm only",
        )
        .table_only(),
        metric(
            "telemetry.spans",
            pooled.spans as f64,
            "count",
            "job spans assembled",
        ),
        metric(
            "telemetry.alerts_fired",
            pooled.alerts_fired as f64,
            "count",
            "burn-rate alerts fired",
        ),
        metric(
            "bench.tracing_overhead",
            overhead,
            "ratio",
            "traced / untraced jobs_per_s",
        ),
    ]
}

/// Host wall times of the repeats of one mode.
#[derive(Default)]
struct Walls {
    /// Fastest wall time seen per episode.
    best: Vec<f64>,
    /// Wall time of every whole repeat.
    repeats: Vec<f64>,
}

impl Walls {
    fn add(&mut self, episode_walls: &[f64]) {
        if self.best.is_empty() {
            self.best = vec![f64::INFINITY; episode_walls.len()];
        }
        for (best, wall) in self.best.iter_mut().zip(episode_walls) {
            *best = best.min(*wall);
        }
        self.repeats.push(episode_walls.iter().sum());
    }

    /// The estimate: every episode at its fastest (min-of-N). The host's
    /// slowdowns come in phases lasting seconds and only ever slow an
    /// episode down, so the minimum is the steady figure.
    fn estimate(&self) -> f64 {
        self.best.iter().sum()
    }

    fn summary(&self) -> String {
        format!(
            "{} repeats, sum of per-episode minima {:.4} s, repeat median {:.4} s \
             (min {:.4}, max {:.4})",
            self.repeats.len(),
            self.estimate(),
            median(&self.repeats),
            self.repeats.iter().copied().fold(f64::INFINITY, f64::min),
            self.repeats.iter().copied().fold(0.0, f64::max),
        )
    }
}

/// Run one workload; prints its tables and returns the result line.
fn run_one(args: &Args) -> (bool, String) {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(SETUP_THREADS);
    std::env::set_var("HETERO_THREADS", threads.to_string());
    let storm = args.workload == "storm_observed";

    let mut setup = Setup::default();
    let mut testbed = None;
    for _ in 0..SETUP_REPEATS {
        drop(testbed.take());
        let built = build_testbed(storm);
        setup.oracle_s.push(built.oracle_s);
        setup.train_s.push(built.train_s);
        setup.setup_s.push(built.setup_s);
        testbed = Some(built);
    }
    let testbed = testbed.expect("at least one build");
    let workload = Workload::new(&args.workload, &testbed, args.seed);
    println!("== {}: {}", workload.name, workload.describe());
    println!(
        "setup: {SETUP_REPEATS} builds with HETERO_THREADS={threads}: oracle {:.3} s, \
         predictor {:.3} s, total {:.3} s (medians)",
        median(&setup.oracle_s),
        median(&setup.train_s),
        median(&setup.setup_s)
    );

    // Repeat until the time budget is spent; a traced invocation
    // alternates untraced and traced repeats.
    let budget = std::time::Duration::from_secs_f64(args.seconds);
    let min_repeats = if args.trace { 2 } else { MIN_REPEATS };
    let start = Instant::now();
    let mut problems = Vec::new();
    let mut reference: Option<(u64, Vec<RunMetrics>)> = None;
    let mut pooled = Pooled::default();
    let (mut walls, mut traced_walls, mut traced_layers) =
        (Walls::default(), Walls::default(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut next_traced = false;
    while start.elapsed() < budget
        || walls.repeats.len() < min_repeats
        || (args.trace && traced_walls.repeats.len() < min_repeats)
    {
        let mode = if next_traced {
            Mode::Traced
        } else {
            Mode::Untraced
        };
        next_traced = args.trace && !next_traced;
        let first = reference.is_none();
        let (mut hash, mut metrics, mut episode_walls) = (DIGEST_SEED, Vec::new(), Vec::new());
        let mut layers = LayerTimes::default();
        workload.repeat(mode, |episode| {
            attempted += workload.jobs as u64;
            let settled = episode.metrics.jobs_completed
                + episode.overload.as_ref().map_or(0, OverloadReport::shed);
            failed += (workload.jobs as u64).saturating_sub(settled);
            problems.extend(check(&workload, &episode));
            digest(&mut hash, &episode);
            episode_walls.push(episode.wall_s);
            if let Some(traced) = &episode.layers {
                layers.add(traced);
            }
            if first {
                pooled.add(workload.jobs as u64, &episode);
            }
            metrics.push(episode.metrics);
        });
        if mode == Mode::Traced {
            traced_walls.add(&episode_walls);
            traced_layers.push(layers);
        } else {
            walls.add(&episode_walls);
        }
        match &reference {
            None => reference = Some((hash, metrics)),
            Some((expected, reference)) if *expected != hash || *reference != metrics => {
                problems.push(format!(
                    "{mode:?} repeat (digest {hash:016x}) differs from the first \
                     (digest {expected:016x})"
                ));
            }
            Some(_) => {}
        }
    }
    let rss_mb = peak_rss_mb();
    let first_digest = reference.as_ref().map_or(DIGEST_SEED, |(hash, _)| *hash);
    pooled.governed = workload.storm.is_some();
    println!(
        "stream ({:.1} s): untraced {}",
        start.elapsed().as_secs_f64(),
        walls.summary()
    );
    if args.trace {
        println!("stream: traced {}", traced_walls.summary());
    }
    println!("digest {} {first_digest:016x}", workload.name);
    if pooled.governed {
        println!(
            "governor: offered {} admitted {} shed {} ({:.6}), tier transitions {}, \
             alerts fired {}, job spans {}",
            pooled.offered,
            pooled.admitted,
            pooled.shed,
            pooled.shed as f64 / pooled.offered as f64,
            pooled.tier_transitions,
            pooled.alerts_fired,
            pooled.spans
        );
    }

    let completed = pooled.completed as f64;
    let rows: Vec<Metric> = if args.trace {
        if traced_layers
            .iter()
            .any(|t| t.counts() != traced_layers[0].counts())
        {
            problems.push("traced repeats disagree on layer call counts".to_string());
        }
        let overhead = walls.estimate() / traced_walls.estimate();
        layer_metrics(&traced_layers, overhead, &setup, &pooled)
    } else {
        // One more traced pass keeps every turnaround: exact quantiles,
        // checked against the ledger and the engine's histogram.
        let (mut hash, mut sorted) = (DIGEST_SEED, Vec::new());
        workload.repeat(Mode::Collect, |episode| {
            digest(&mut hash, &episode);
            problems.extend(check_turnarounds(&episode));
            sorted.extend_from_slice(&episode.latencies);
        });
        if hash != first_digest {
            problems.push("the traced pass differs from the untraced repeats".to_string());
        }
        sorted.sort_unstable();
        problems.extend(check_histogram(&sorted, &pooled.latency));
        let n = sorted.len();
        let q99 = supported_quantile(n, 0.99);
        vec![
            metric(
                "setup_s",
                median(&setup.setup_s),
                "s",
                format!("median of {SETUP_REPEATS} builds"),
            ),
            metric(
                "jobs_per_s",
                completed / walls.estimate(),
                "1/s",
                format!(
                    "{completed} completed / per-episode min wall over {} repeats",
                    walls.repeats.len()
                ),
            ),
            metric(
                "rss_mb",
                rss_mb.unwrap_or(f64::NAN),
                "MiB",
                "VmHWM of this process",
            ),
            metric(
                "energy_per_job_nj",
                pooled.energy_nj / completed,
                "nJ",
                format!("over {completed} completions"),
            ),
            metric(
                "p50_latency_cycles",
                nearest_rank(&sorted, 0.5) as f64,
                "cycles",
                format!("p50 of {n} completions"),
            ),
            metric(
                "p99_latency_cycles",
                nearest_rank(&sorted, q99) as f64,
                "cycles",
                format!("p{:.0} of {n} completions", q99 * 100.0),
            ),
            metric(
                "served_jobs_per_mcycle",
                completed / pooled.horizon as f64 * 1e6,
                "jobs/Mcycle",
                format!("over {} cycles", pooled.horizon),
            ),
            metric(
                "served_fraction",
                completed / pooled.offered as f64,
                "ratio",
                format!("{completed} completed of {} offered", pooled.offered),
            ),
        ]
    };

    println!("{:<42} {:>18} {:<12} note", "metric", "value", "unit");
    for row in &rows {
        if !row.value.is_finite() {
            problems.push(format!("{} is not a finite number", row.name));
        }
        println!(
            "{:<42} {:>18.4} {:<12} {}{}",
            row.name,
            row.value,
            row.unit,
            row.note,
            if row.in_result { "" } else { " [table only]" }
        );
    }

    for problem in &problems {
        eprintln!("CHECK FAILED ({}): {problem}", workload.name);
    }
    let correct = problems.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let reported = rows
        .iter()
        .filter(|row| row.in_result && row.value.is_finite());
    for (index, row) in reported.enumerate() {
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if index == 0 { "" } else { ", " },
            row.name,
            row.value,
            row.unit
        );
    }
    line.push_str("}}");
    (correct, line)
}

/// `--workload all`: each workload in a child process of its own, its
/// output passed through; true when every one of them succeeded.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perfbench: cannot find its own executable: {err}");
            return false;
        }
    };
    let mut all_ok = true;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(status) => all_ok &= status.success(),
            Err(err) => {
                eprintln!("perfbench: cannot start {name}: {err}");
                all_ok = false;
            }
        }
        println!();
    }
    all_ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("perfbench: {problem}");
            return ExitCode::from(2);
        }
    };
    let correct = if args.workload == "all" {
        run_all(&args)
    } else {
        let (correct, line) = run_one(&args);
        println!("{line}");
        correct
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
