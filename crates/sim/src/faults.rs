//! Deterministic, seed-driven fault injection.
//!
//! A [`FaultPlan`] is built once from a [`FaultConfig`] and is fully
//! reproducible: every fault the simulator injects — transient core
//! outages, job crashes, hung (runaway) executions, corrupted profiling
//! features, predictor unavailability — is a pure function of the plan's
//! seed and the (job, attempt, time) coordinates asking about it. The
//! same plan therefore produces the same fault schedule on every run,
//! which is what lets the chaos harness demand bit-exact ledger agreement
//! under every fault regime.
//!
//! The plan is split into two kinds of state:
//!
//! * **window faults** — core outages and predictor outages are
//!   precomputed, sorted, non-overlapping `[from, to)` windows; the
//!   simulator turns their boundaries into [`Degraded`] trace events and
//!   queries [`FaultPlan::predictor_health`] at decision time;
//! * **point faults** — whether attempt `k` of job `seq` crashes or
//!   hangs, and whether a job's profiling features are corrupt, are
//!   position-independent draws from a per-(seq, attempt) derived RNG,
//!   so injecting one fault never perturbs the draw for another.
//!
//! Recovery parameters (retry cap, exponential backoff, watchdog
//! stretch) live on the config so the chaos bin can sweep them.
//!
//! [`Degraded`]: crate::trace::TraceEvent::Degraded

use crate::scheduler::CoreId;
use workloads::SplitMix64;

/// What killed an execution mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The core went offline; the in-flight job was evicted and requeued
    /// (no retry attempt is charged — the job did nothing wrong).
    CoreOutage,
    /// The job crashed partway through; the attempt is charged and the
    /// job retries after exponential backoff.
    Crash,
    /// The job hung; the watchdog killed it after `watchdog_factor`×
    /// its nominal cycles, charging the full stretched energy.
    Watchdog,
}

impl FaultKind {
    /// Stable lowercase name (used by the JSON trace schema).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::CoreOutage => "core_outage",
            FaultKind::Crash => "crash",
            FaultKind::Watchdog => "watchdog",
        }
    }
}

/// Which stage of the prediction fallback chain served a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackLevel {
    /// The ANN ensemble was down; the kNN stage answered.
    Knn,
    /// Every predictor was down (or the features were corrupt); the
    /// static base configuration was used.
    Static,
}

impl FallbackLevel {
    /// Stable lowercase name (used by the JSON trace schema).
    pub fn name(self) -> &'static str {
        match self {
            FallbackLevel::Knn => "knn",
            FallbackLevel::Static => "static",
        }
    }
}

/// Why an offered arrival was refused admission by an overload governor
/// (carried by [`Shed`](crate::trace::TraceEvent::Shed) events; the
/// simulator itself never sheds — the engine's admission layer does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The bounded admission queue was full (drop-tail).
    QueueFull,
    /// The arrival's projected queueing delay exceeded the age/deadline
    /// bound of the deadline-based policy.
    Deadline,
    /// A low-priority arrival was refused while the governor protected
    /// higher classes under pressure.
    Priority,
    /// The token-bucket rate limiter was out of tokens.
    RateLimit,
}

impl ShedReason {
    /// Stable lowercase name (used by the JSON trace schema).
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Deadline => "deadline",
            ShedReason::Priority => "priority",
            ShedReason::RateLimit => "rate_limit",
        }
    }
}

/// One rung of the serving-path degradation ladder a brownout controller
/// steps through under SLO pressure. Tier 0 is the full-quality path;
/// each higher tier trades prediction quality for decision cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServingTier {
    /// Full f64 bagged ensemble (normal serving).
    Full = 0,
    /// The distilled f32 student answers instead of the ensemble.
    Distilled = 1,
    /// The kNN fallback stage answers.
    Knn = 2,
    /// Static `BASE_CONFIG` placement, no prediction at all.
    Static = 3,
}

impl ServingTier {
    /// All tiers, mildest first (the ladder order).
    pub const LADDER: [ServingTier; 4] = [
        ServingTier::Full,
        ServingTier::Distilled,
        ServingTier::Knn,
        ServingTier::Static,
    ];

    /// Stable lowercase name (used by JSON exports).
    pub fn name(self) -> &'static str {
        match self {
            ServingTier::Full => "full",
            ServingTier::Distilled => "distilled",
            ServingTier::Knn => "knn",
            ServingTier::Static => "static",
        }
    }

    /// The next-worse rung (saturating at [`Static`](Self::Static)).
    pub fn worse(self) -> ServingTier {
        match self {
            ServingTier::Full => ServingTier::Distilled,
            ServingTier::Distilled => ServingTier::Knn,
            ServingTier::Knn | ServingTier::Static => ServingTier::Static,
        }
    }

    /// The next-better rung (saturating at [`Full`](Self::Full)).
    pub fn better(self) -> ServingTier {
        match self {
            ServingTier::Full | ServingTier::Distilled => ServingTier::Full,
            ServingTier::Knn => ServingTier::Distilled,
            ServingTier::Static => ServingTier::Knn,
        }
    }

    /// The fallback-chain level this tier forces on the prediction path
    /// (`None` for the tiers served by the primary/distilled models).
    pub fn fallback_level(self) -> Option<FallbackLevel> {
        match self {
            ServingTier::Full | ServingTier::Distilled => None,
            ServingTier::Knn => Some(FallbackLevel::Knn),
            ServingTier::Static => Some(FallbackLevel::Static),
        }
    }
}

/// A shared, interior-mutable serving-tier cell: the engine-side brownout
/// controller writes it between scheduler calls, the scheduling system
/// reads it when serving predictions. Single-threaded by construction
/// (one simulation run owns both ends).
pub type TierCell = std::rc::Rc<std::cell::Cell<ServingTier>>;

/// A fresh tier cell starting at [`ServingTier::Full`].
pub fn tier_cell() -> TierCell {
    std::rc::Rc::new(std::cell::Cell::new(ServingTier::Full))
}

/// Availability of the prediction service at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorHealth {
    /// Primary predictor answering normally.
    Healthy,
    /// The ANN ensemble is down but the kNN fallback still answers.
    AnnDown,
    /// No predictor answers; systems must degrade to the static base
    /// configuration.
    AllDown,
}

impl PredictorHealth {
    /// Stable lowercase name (used by the JSON trace schema).
    pub fn name(self) -> &'static str {
        match self {
            PredictorHealth::Healthy => "healthy",
            PredictorHealth::AnnDown => "ann_down",
            PredictorHealth::AllDown => "all_down",
        }
    }
}

/// The component a [`Degraded`](crate::trace::TraceEvent::Degraded)
/// transition refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradedComponent {
    /// A core going offline (`online: false`) or returning
    /// (`online: true`).
    Core(CoreId),
    /// The predictor entering the given health state.
    Predictor(PredictorHealth),
}

/// A point fault drawn for one attempt of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptFault {
    /// Crash after `fraction_permille`/1000 of the nominal cycles.
    Crash {
        /// Progress at crash time, in thousandths of the nominal run
        /// (clamped to `1..=999` so a crash always wastes some work and
        /// never completes).
        fraction_permille: u16,
    },
    /// Hang: never completes on its own; killed by the watchdog.
    Hang,
}

/// Tunable fault rates and recovery parameters. Build a [`FaultPlan`]
/// from it with [`FaultPlan::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Root seed; every derived draw mixes this in.
    pub seed: u64,
    /// Arrival horizon of the workload the plan targets; outage windows
    /// are laid out inside `[0, horizon)`.
    pub horizon: u64,
    /// Per-slot probability that a core suffers a transient outage.
    pub core_outage_rate: f64,
    /// Per-attempt probability that an execution crashes partway.
    pub crash_rate: f64,
    /// Per-attempt probability that an execution hangs (watchdog kill).
    pub hang_rate: f64,
    /// Per-job probability that its profiling features are corrupt.
    pub feature_corruption_rate: f64,
    /// Per-slot probability of a predictor outage window; `>= 1.0`
    /// means a single permanent all-down blackout.
    pub predictor_outage_rate: f64,
    /// Maximum crash/watchdog failures per job before it is abandoned.
    pub max_attempts: u32,
    /// First retry backoff, in cycles; doubles per failure.
    pub backoff_base_cycles: u64,
    /// Upper bound on any single backoff delay, in cycles.
    pub backoff_cap_cycles: u64,
    /// Watchdog kill threshold as a multiple of nominal cycles (>= 2).
    pub watchdog_factor: u64,
}

impl FaultConfig {
    /// A plan that injects nothing. [`FaultPlan::build`] on this config
    /// yields an empty plan, and the faulted simulator loop is
    /// bit-identical to the untraced reference under it.
    pub fn none() -> FaultConfig {
        FaultConfig {
            seed: 0,
            horizon: 0,
            core_outage_rate: 0.0,
            crash_rate: 0.0,
            hang_rate: 0.0,
            feature_corruption_rate: 0.0,
            predictor_outage_rate: 0.0,
            max_attempts: 5,
            backoff_base_cycles: 20_000,
            backoff_cap_cycles: 2_000_000,
            watchdog_factor: 4,
        }
    }

    /// One-knob chaos: scale every fault class off a single `rate` in
    /// `[0, 1]`. Used by the chaos sweep.
    pub fn chaos(rate: f64, seed: u64, horizon: u64) -> FaultConfig {
        FaultConfig {
            seed,
            horizon,
            core_outage_rate: (rate * 0.6).min(0.9),
            crash_rate: rate.min(0.9),
            hang_rate: (rate * 0.25).min(0.5),
            feature_corruption_rate: rate.min(1.0),
            predictor_outage_rate: (rate * 0.8).min(0.99),
            ..FaultConfig::none()
        }
    }

    /// A permanent, total predictor blackout (and nothing else). Under
    /// this plan the proposed system must place jobs exactly like the
    /// base system.
    pub fn predictor_blackout(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            predictor_outage_rate: 1.0,
            ..FaultConfig::none()
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// One precomputed availability transition, consumed in order by the
/// faulted simulator loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Simulation time of the transition.
    pub at: u64,
    /// Component changing state. For predictor transitions the payload
    /// is the health being *entered*.
    pub component: DegradedComponent,
    /// `true` when the component recovers, `false` when it degrades.
    pub online: bool,
}

/// A predictor outage window `[from, to)` with its severity.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PredictorWindow {
    from: u64,
    to: u64,
    severity: PredictorHealth,
}

/// Slots the horizon is divided into when laying out outage windows;
/// one window at most per (component, slot) keeps windows per component
/// disjoint and sorted by construction.
const OUTAGE_SLOTS: u64 = 8;

/// Fully reproducible fault schedule for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
    /// Core and predictor availability transitions, sorted by time.
    transitions: Vec<Transition>,
    /// Predictor outage windows, sorted and disjoint.
    predictor_windows: Vec<PredictorWindow>,
    /// Fast-path flags: when both are false and `transitions` is empty
    /// the plan injects nothing.
    point_faults_possible: bool,
    corruption_possible: bool,
}

/// Derive an independent RNG stream from the root seed and up to two
/// coordinates. SplitMix64's output function mixes well enough that
/// xor-ing pre-whitened coordinates into the seed gives independent
/// streams for our purposes.
fn stream(seed: u64, tag: u64, a: u64, b: u64) -> SplitMix64 {
    let mut whiten = SplitMix64::new(seed ^ tag);
    let base = whiten.next_u64();
    let mut wa = SplitMix64::new(a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag);
    let mut wb = SplitMix64::new(b.wrapping_add(0xD1B5_4A32_D192_ED03));
    SplitMix64::new(base ^ wa.next_u64() ^ wb.next_u64().rotate_left(17))
}

impl FaultPlan {
    /// Precompute the fault schedule for `num_cores` cores.
    pub fn build(config: &FaultConfig, num_cores: usize) -> FaultPlan {
        let mut transitions = Vec::new();
        let mut predictor_windows = Vec::new();

        let slot_len = config.horizon / OUTAGE_SLOTS;
        if config.core_outage_rate > 0.0 && slot_len >= 4 {
            for core in 0..num_cores {
                let mut rng = stream(config.seed, 0xC0DE, core as u64, 0);
                for slot in 0..OUTAGE_SLOTS {
                    if !rng.chance(config.core_outage_rate) {
                        // Burn the draws anyway so a window in slot k
                        // never shifts the layout of slot k+1.
                        let _ = rng.next_u64();
                        let _ = rng.next_u64();
                        continue;
                    }
                    let slot_start = slot * slot_len;
                    let from = slot_start + rng.next_below(slot_len / 2);
                    let len = 1 + rng.next_below(slot_len / 4);
                    let to = (from + len).min(slot_start + slot_len);
                    if to <= from {
                        continue;
                    }
                    let component = DegradedComponent::Core(CoreId(core));
                    transitions.push(Transition {
                        at: from,
                        component,
                        online: false,
                    });
                    transitions.push(Transition {
                        at: to,
                        component,
                        online: true,
                    });
                }
            }
        }

        if config.predictor_outage_rate >= 1.0 {
            // Permanent total blackout: one window covering all time,
            // announced by a single transition at t = 0.
            predictor_windows.push(PredictorWindow {
                from: 0,
                to: u64::MAX,
                severity: PredictorHealth::AllDown,
            });
            transitions.push(Transition {
                at: 0,
                component: DegradedComponent::Predictor(PredictorHealth::AllDown),
                online: false,
            });
        } else if config.predictor_outage_rate > 0.0 && slot_len >= 4 {
            let mut rng = stream(config.seed, 0xFA11, 1, 0);
            for slot in 0..OUTAGE_SLOTS {
                if !rng.chance(config.predictor_outage_rate) {
                    let _ = rng.next_u64();
                    let _ = rng.next_u64();
                    let _ = rng.next_u64();
                    continue;
                }
                let slot_start = slot * slot_len;
                let from = slot_start + rng.next_below(slot_len / 2);
                let len = 1 + rng.next_below(slot_len / 4);
                let to = (from + len).min(slot_start + slot_len);
                let severity = if rng.chance(1.0 / 3.0) {
                    PredictorHealth::AllDown
                } else {
                    PredictorHealth::AnnDown
                };
                if to <= from {
                    continue;
                }
                predictor_windows.push(PredictorWindow { from, to, severity });
                transitions.push(Transition {
                    at: from,
                    component: DegradedComponent::Predictor(severity),
                    online: false,
                });
                transitions.push(Transition {
                    at: to,
                    component: DegradedComponent::Predictor(PredictorHealth::Healthy),
                    online: true,
                });
            }
        }

        // Deterministic total order: time, then component class, then
        // core index, then offline-before-online.
        transitions.sort_by_key(|t| {
            let (class, index) = match t.component {
                DegradedComponent::Core(c) => (0u8, c.0),
                DegradedComponent::Predictor(_) => (1u8, 0),
            };
            (t.at, class, index, t.online)
        });

        FaultPlan {
            point_faults_possible: config.crash_rate > 0.0 || config.hang_rate > 0.0,
            corruption_possible: config.feature_corruption_rate > 0.0,
            config: config.clone(),
            transitions,
            predictor_windows,
        }
    }

    /// An empty, inject-nothing plan (no allocation beyond two empty
    /// vecs); equivalent to `build(&FaultConfig::none(), _)`.
    pub fn empty() -> FaultPlan {
        FaultPlan::build(&FaultConfig::none(), 0)
    }

    /// `true` when the plan injects nothing at all — the event loop's
    /// quiet build.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty() && !self.point_faults_possible && !self.corruption_possible
    }

    /// The config the plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Availability transitions, sorted by time.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// The point fault (if any) injected into attempt `attempt`
    /// (1-based) of job `seq`. Pure: independent of call order.
    /// Executions of fewer than 2 cycles never crash (there is no
    /// strictly-partial progress to charge).
    pub fn attempt_fault(
        &self,
        seq: u64,
        attempt: u32,
        nominal_cycles: u64,
    ) -> Option<AttemptFault> {
        if !self.point_faults_possible {
            return None;
        }
        let mut rng = stream(self.config.seed, 0xBAD0, seq, u64::from(attempt));
        if rng.chance(self.config.hang_rate) {
            return Some(AttemptFault::Hang);
        }
        if nominal_cycles >= 2 && rng.chance(self.config.crash_rate) {
            let fraction_permille = 1 + rng.next_below(999) as u16;
            return Some(AttemptFault::Crash { fraction_permille });
        }
        None
    }

    /// Whether job `seq`'s profiling features are corrupt. Pure.
    pub fn features_corrupt(&self, seq: u64) -> bool {
        if !self.corruption_possible {
            return false;
        }
        let mut rng = stream(self.config.seed, 0xF007, seq, 0);
        rng.chance(self.config.feature_corruption_rate)
    }

    /// Predictor availability at time `now`.
    pub fn predictor_health(&self, now: u64) -> PredictorHealth {
        for window in &self.predictor_windows {
            if window.from > now {
                break;
            }
            if now < window.to {
                return window.severity;
            }
        }
        PredictorHealth::Healthy
    }

    /// Which fallback stage (if any) a prediction for job `seq` at time
    /// `now` must be served from: total predictor outage or corrupt
    /// features force the static base configuration; an ANN-only outage
    /// falls back to kNN.
    pub fn fallback_level(&self, seq: u64, now: u64) -> Option<FallbackLevel> {
        if self.is_empty() {
            return None;
        }
        match self.predictor_health(now) {
            PredictorHealth::AllDown => Some(FallbackLevel::Static),
            _ if self.features_corrupt(seq) => Some(FallbackLevel::Static),
            PredictorHealth::AnnDown => Some(FallbackLevel::Knn),
            PredictorHealth::Healthy => None,
        }
    }

    /// Retry cap: failures at or beyond this count abandon the job.
    pub fn max_attempts(&self) -> u32 {
        self.config.max_attempts.max(1)
    }

    /// Exponential backoff before retry number `failures` (1-based):
    /// `base << (failures - 1)`, capped.
    pub fn backoff(&self, failures: u32) -> u64 {
        // `checked_shl` only guards the shift *amount*, not value
        // overflow, so scale through `saturating_mul` instead.
        let shift = failures.saturating_sub(1).min(63);
        let shifted = self
            .config
            .backoff_base_cycles
            .saturating_mul(1u64 << shift);
        shifted.min(self.config.backoff_cap_cycles).max(1)
    }

    /// Watchdog kill threshold for an execution of `nominal_cycles`.
    pub fn watchdog_cycles(&self, nominal_cycles: u64) -> u64 {
        nominal_cycles.saturating_mul(self.config.watchdog_factor.max(2))
    }

    /// Energy stretch applied to a watchdog-killed execution.
    pub fn watchdog_energy_factor(&self) -> f64 {
        self.config.watchdog_factor.max(2) as f64
    }
}

/// Fault-side counters for one faulted run; returned alongside the
/// [`RunMetrics`](crate::metrics::RunMetrics) ledger and re-derived
/// independently by the auditor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// In-flight jobs evicted by a core outage (requeued, not charged).
    pub outage_evictions: u64,
    /// Executions that crashed partway.
    pub crashes: u64,
    /// Executions killed by the watchdog.
    pub watchdog_kills: u64,
    /// Retries scheduled (crash/watchdog failures below the cap).
    pub retries: u64,
    /// Jobs abandoned after `max_attempts` failures.
    pub jobs_failed: u64,
    /// Highest failure count observed on any single job.
    pub max_attempts_observed: u32,
    /// Completions whose prediction was served by a fallback stage.
    pub fallbacks: u64,
    /// Availability transitions processed (Degraded events).
    pub degraded_transitions: u64,
}

/// Result of a faulted run: the ordinary ledger plus fault counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultedRun {
    /// The conservation ledger (identical schema to a fault-free run;
    /// `jobs_completed` excludes abandoned jobs).
    pub metrics: crate::metrics::RunMetrics,
    /// Fault and recovery counters.
    pub faults: FaultStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        assert!(plan.transitions().is_empty());
        assert_eq!(plan.attempt_fault(3, 1, 1_000), None);
        assert!(!plan.features_corrupt(7));
        assert_eq!(plan.predictor_health(0), PredictorHealth::Healthy);
        assert_eq!(plan.fallback_level(3, 0), None);
    }

    #[test]
    fn plans_are_reproducible() {
        let config = FaultConfig::chaos(0.3, 42, 10_000_000);
        let a = FaultPlan::build(&config, 4);
        let b = FaultPlan::build(&config, 4);
        assert_eq!(a, b);
        for seq in 0..50 {
            for attempt in 1..4 {
                assert_eq!(
                    a.attempt_fault(seq, attempt, 1_000),
                    b.attempt_fault(seq, attempt, 1_000)
                );
            }
            assert_eq!(a.features_corrupt(seq), b.features_corrupt(seq));
        }
    }

    #[test]
    fn point_faults_are_position_independent() {
        let config = FaultConfig::chaos(0.5, 7, 1_000_000);
        let plan = FaultPlan::build(&config, 2);
        let forward: Vec<_> = (0..20).map(|s| plan.attempt_fault(s, 1, 100)).collect();
        let backward: Vec<_> = (0..20)
            .rev()
            .map(|s| plan.attempt_fault(s, 1, 100))
            .collect();
        let reversed: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn transitions_are_sorted_and_windows_disjoint_per_core() {
        let config = FaultConfig::chaos(0.8, 99, 80_000_000);
        let plan = FaultPlan::build(&config, 6);
        let ts = plan.transitions();
        assert!(ts.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        // Per-core down/up transitions must strictly alternate.
        for core in 0..6 {
            let mut online = true;
            for t in ts {
                if t.component == DegradedComponent::Core(CoreId(core)) {
                    assert_eq!(t.online, !online, "core {core} transition must flip state");
                    online = t.online;
                }
            }
            assert!(online, "every outage window must close");
        }
    }

    #[test]
    fn blackout_is_permanent_and_total() {
        let plan = FaultPlan::build(&FaultConfig::predictor_blackout(5), 4);
        assert!(!plan.is_empty());
        assert_eq!(plan.predictor_health(0), PredictorHealth::AllDown);
        assert_eq!(
            plan.predictor_health(u64::MAX - 1),
            PredictorHealth::AllDown
        );
        assert_eq!(plan.fallback_level(0, 123), Some(FallbackLevel::Static));
        // Only the single t=0 down transition; nothing for the sim loop
        // to jump to at u64::MAX.
        assert_eq!(plan.transitions().len(), 1);
        assert_eq!(plan.transitions()[0].at, 0);
        assert!(!plan.transitions()[0].online);
        // No sim-level faults: crash/hang/outage draws all come up empty.
        assert_eq!(plan.attempt_fault(1, 1, 1_000), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut config = FaultConfig::none();
        config.backoff_base_cycles = 1_000;
        config.backoff_cap_cycles = 6_000;
        let plan = FaultPlan::build(&config, 1);
        assert_eq!(plan.backoff(1), 1_000);
        assert_eq!(plan.backoff(2), 2_000);
        assert_eq!(plan.backoff(3), 4_000);
        assert_eq!(plan.backoff(4), 6_000, "capped");
        assert_eq!(plan.backoff(64), 6_000, "shift overflow saturates to cap");
    }

    #[test]
    fn watchdog_parameters_are_sane() {
        let plan = FaultPlan::build(&FaultConfig::none(), 1);
        assert_eq!(plan.watchdog_cycles(1_000), 4_000);
        assert_eq!(plan.watchdog_energy_factor(), 4.0);
        let huge = plan.watchdog_cycles(u64::MAX / 2);
        assert_eq!(huge, u64::MAX, "saturates instead of overflowing");
    }

    #[test]
    fn crash_fraction_is_strictly_partial() {
        let config = FaultConfig {
            crash_rate: 1.0,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::build(&config, 1);
        for seq in 0..200 {
            match plan.attempt_fault(seq, 1, 1_000) {
                Some(AttemptFault::Crash { fraction_permille }) => {
                    assert!((1..=999).contains(&fraction_permille));
                }
                other => panic!("expected a crash, got {other:?}"),
            }
            // Single-cycle executions cannot crash partway.
            assert_eq!(plan.attempt_fault(seq, 1, 1), None);
        }
    }

    #[test]
    fn fallback_chain_ordering() {
        // Corrupt features force Static even while the ANN is healthy.
        let config = FaultConfig {
            feature_corruption_rate: 1.0,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::build(&config, 2);
        assert_eq!(plan.fallback_level(0, 0), Some(FallbackLevel::Static));
    }
}
