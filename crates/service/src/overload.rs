//! Overload control: pressure levels, brownout policy, and the admission
//! predictor's latency models.
//!
//! The engine degrades in *levels* instead of falling over:
//!
//! * **Nominal** — every admitted job runs with its requested resources.
//! * **Degraded** (brownout) — sustained pressure; jobs run with
//!   axis-wise tightened [`MatchBudget`] caps, producing
//!   valid-but-smaller ε-Pareto fronts flagged in `stats.brownout`.
//!   Degraded results are never cached.
//! * **Shedding** — the queue is nearly full; lowest-priority submissions
//!   are rejected outright with a `retry_after_ms` hint, and a full queue
//!   evicts its lowest-priority waiter in favor of a strictly
//!   higher-priority newcomer.
//!
//! The [`PressureController`] is a pure state machine over
//! [`PressureInputs`] (queue occupancy, deadline-miss rate, warm-state
//! eviction churn) with hysteresis: escalation is immediate, recovery
//! steps down one level at a time and only once the inputs clear a lower
//! *recovery* threshold, so the level cannot flap on a noisy boundary.
//! The theoretical license for brownout comes from the paper's ε-Pareto
//! semantics: a front computed under tighter caps is a valid (possibly
//! coarser) anytime answer, not a wrong one.

use fairsqg_algo::MatchBudget;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How hard the engine is currently working to stay inside its bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// No degradation: full budgets, all priorities.
    Nominal,
    /// Brownout: tightened budgets, results flagged.
    Degraded,
    /// Brownout plus priority-based load shedding.
    Shedding,
}

impl PressureLevel {
    /// The wire/stats name.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Nominal => "nominal",
            Self::Degraded => "degraded",
            Self::Shedding => "shedding",
        }
    }

    /// Parses a wire name (used by the `brownout.level` fail point).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "nominal" => Self::Nominal,
            "degraded" => Self::Degraded,
            "shedding" => Self::Shedding,
            _ => return None,
        })
    }
}

/// Brownout policy knobs (thresholds are queue-occupancy ratios in
/// `[0, 1]`; the miss rate is an EWMA of deadline misses per completion).
#[derive(Debug, Clone, Copy)]
pub struct BrownoutConfig {
    /// Master switch; off pins the level to `Nominal`.
    pub enabled: bool,
    /// Occupancy at or above which the engine enters `Degraded`.
    pub degraded_ratio: f64,
    /// Occupancy at or above which the engine enters `Shedding`.
    pub shedding_ratio: f64,
    /// Deadline-miss rate at or above which the engine enters `Degraded`
    /// even with queue headroom (workers are the bottleneck, not the
    /// queue).
    pub miss_rate_degraded: f64,
    /// Occupancy below which the level may step back down (hysteresis:
    /// strictly lower than `degraded_ratio`).
    pub recover_ratio: f64,
    /// Warm-state evictions observed between two evaluations at or above
    /// which the engine enters `Degraded` (cache churn: warm tables are
    /// being rebuilt faster than they pay off).
    pub eviction_burst: u64,
    /// Budget caps applied axis-wise (tightening only) to jobs run while
    /// `Degraded` or `Shedding`.
    pub degraded_budget: MatchBudget,
    /// While `Shedding`, submissions with priority strictly below this
    /// are rejected with a retry hint.
    pub shed_below_priority: u8,
    /// Minimum time a level must be held before it may step *down*.
    /// Recovery evaluations happen per-submission, so under sustained
    /// offered load a calm streak can accumulate in single-digit
    /// milliseconds — without a dwell the level flaps: brownout drains
    /// the queue, the controller recovers, the queue instantly re-stacks.
    /// Escalation is never delayed.
    pub recover_dwell: Duration,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            degraded_ratio: 0.5,
            shedding_ratio: 0.85,
            miss_rate_degraded: 0.25,
            recover_ratio: 0.25,
            eviction_burst: 4,
            degraded_budget: MatchBudget {
                max_candidates: Some(50_000),
                max_steps: Some(2_000_000),
                max_matches: Some(20_000),
            },
            shed_below_priority: 1,
            recover_dwell: Duration::from_millis(200),
        }
    }
}

/// One evaluation's inputs to the [`PressureController`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PressureInputs {
    /// Queued jobs / queue capacity, in `[0, 1]`.
    pub queue_ratio: f64,
    /// EWMA of deadline misses per completed job, in `[0, 1]`.
    pub miss_rate: f64,
    /// Warm-pool evictions since the previous evaluation.
    pub evictions_delta: u64,
}

/// Hysteretic pressure state machine. Pure (no clocks, no locks): the
/// engine owns one behind its overload mutex and feeds it fresh inputs on
/// every admission and settlement.
#[derive(Debug)]
pub struct PressureController {
    config: BrownoutConfig,
    level: PressureLevel,
    /// Level changes in either direction (the `stats.brownout` counter).
    transitions: u64,
    /// Consecutive evaluations whose inputs cleared the recovery bar; the
    /// level steps down only after a few in a row, so a single idle probe
    /// between two bursts does not bounce the level.
    calm_streak: u32,
    /// When the current level was entered (dwell clock for step-downs).
    held_since: Instant,
}

/// Evaluations below the recovery thresholds required before stepping the
/// level down by one.
const RECOVERY_STREAK: u32 = 3;

impl PressureController {
    /// A controller starting at `Nominal`.
    pub fn new(config: BrownoutConfig) -> Self {
        Self {
            config,
            level: PressureLevel::Nominal,
            transitions: 0,
            calm_streak: 0,
            held_since: Instant::now(),
        }
    }

    /// The current level (last `evaluate` outcome).
    pub fn level(&self) -> PressureLevel {
        self.level
    }

    /// Level changes so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The policy in force.
    pub fn config(&self) -> &BrownoutConfig {
        &self.config
    }

    /// Feeds one observation and returns the (possibly new) level.
    pub fn evaluate(&mut self, inputs: PressureInputs) -> PressureLevel {
        if !self.config.enabled {
            return PressureLevel::Nominal;
        }
        let c = &self.config;
        let target = if inputs.queue_ratio >= c.shedding_ratio {
            PressureLevel::Shedding
        } else if inputs.queue_ratio >= c.degraded_ratio
            || inputs.miss_rate >= c.miss_rate_degraded
            || inputs.evictions_delta >= c.eviction_burst.max(1)
        {
            PressureLevel::Degraded
        } else {
            PressureLevel::Nominal
        };
        if target > self.level {
            // Escalation is immediate: overload hurts now.
            self.level = target;
            self.transitions += 1;
            self.calm_streak = 0;
            self.held_since = Instant::now();
        } else if target < self.level {
            // Recovery is hysteretic: the inputs must clear the *recovery*
            // bar for a streak AND the level must have been held for the
            // dwell, then it steps down one notch. The streak saturates
            // while the dwell runs out, so the first calm evaluation past
            // the dwell completes the step-down.
            let calm = inputs.queue_ratio < c.recover_ratio
                && inputs.miss_rate < c.miss_rate_degraded / 2.0
                && inputs.evictions_delta == 0;
            if calm {
                self.calm_streak = self.calm_streak.saturating_add(1);
                if self.calm_streak >= RECOVERY_STREAK
                    && self.held_since.elapsed() >= c.recover_dwell
                {
                    self.level = match self.level {
                        PressureLevel::Shedding => PressureLevel::Degraded,
                        _ => PressureLevel::Nominal,
                    };
                    self.transitions += 1;
                    self.calm_streak = 0;
                    self.held_since = Instant::now();
                }
            } else {
                self.calm_streak = 0;
            }
        } else {
            self.calm_streak = 0;
        }
        self.level
    }

    /// Forces the level (the `brownout.level` fail point and tests).
    pub fn force(&mut self, level: PressureLevel) {
        if self.level != level {
            self.level = level;
            self.transitions += 1;
            self.held_since = Instant::now();
        }
        self.calm_streak = 0;
    }
}

/// Exponentially weighted moving average over irregular observations.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// A fresh average with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        Self { alpha, value: None }
    }

    /// Absorbs one observation.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// The current average, if anything was observed.
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// The current average, or `default` before the first observation.
    pub fn get_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }
}

/// Per-template service-time model: an [`Ewma`] of plan+generate
/// milliseconds keyed by the spec's plan key, plus an overall fallback for
/// templates never seen before. Bounded: at capacity, an unseen key
/// updates only the overall average.
#[derive(Debug)]
pub struct ServiceModel {
    per_template: HashMap<u64, Ewma>,
    overall: Ewma,
    queue_wait: Ewma,
    capacity: usize,
    alpha: f64,
}

/// Smoothing for service/wait estimates: heavy enough to damp one outlier,
/// light enough to track a workload shift within a few jobs.
const MODEL_ALPHA: f64 = 0.2;

/// Distinct templates tracked before falling back to the overall average.
const MODEL_CAPACITY: usize = 512;

/// Optimistic prior (ms) used before any completion has been observed:
/// admission must not reject the very first jobs on zero information.
const COLD_SERVICE_MS: f64 = 1.0;

impl Default for ServiceModel {
    fn default() -> Self {
        Self {
            per_template: HashMap::new(),
            overall: Ewma::new(MODEL_ALPHA),
            queue_wait: Ewma::new(MODEL_ALPHA),
            capacity: MODEL_CAPACITY,
            alpha: MODEL_ALPHA,
        }
    }
}

impl ServiceModel {
    /// Records one completed job's service time.
    pub fn observe_service(&mut self, template_key: u64, elapsed: Duration) {
        let ms = elapsed.as_secs_f64() * 1e3;
        self.overall.observe(ms);
        if let Some(e) = self.per_template.get_mut(&template_key) {
            e.observe(ms);
        } else if self.per_template.len() < self.capacity {
            let mut e = Ewma::new(self.alpha);
            e.observe(ms);
            self.per_template.insert(template_key, e);
        }
    }

    /// Records one job's time from admission to pickup.
    pub fn observe_queue_wait(&mut self, elapsed: Duration) {
        self.queue_wait.observe(elapsed.as_secs_f64() * 1e3);
    }

    /// Predicted service milliseconds for `template_key` (per-template
    /// average, overall average, or an optimistic cold-start prior).
    pub fn predict_service_ms(&self, template_key: u64) -> f64 {
        self.per_template
            .get(&template_key)
            .and_then(Ewma::get)
            .or_else(|| self.overall.get())
            .unwrap_or(COLD_SERVICE_MS)
    }

    /// The overall service-time average (ms), if observed.
    pub fn overall_service_ms(&self) -> Option<f64> {
        self.overall.get()
    }

    /// The queue-wait average (ms), if observed.
    pub fn queue_wait_ms(&self) -> Option<f64> {
        self.queue_wait.get()
    }

    /// Predicted total milliseconds until a job submitted *now* would
    /// complete: the queue ahead of it drained at the overall service
    /// rate across `workers`, plus its own predicted service time.
    pub fn predict_completion_ms(
        &self,
        template_key: u64,
        queue_depth: usize,
        workers: usize,
    ) -> f64 {
        let per_job = self.overall.get_or(COLD_SERVICE_MS);
        let drain = per_job * queue_depth as f64 / workers.max(1) as f64;
        drain + self.predict_service_ms(template_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(queue_ratio: f64) -> PressureInputs {
        PressureInputs {
            queue_ratio,
            miss_rate: 0.0,
            evictions_delta: 0,
        }
    }

    /// Default policy minus the recovery dwell: streak-logic tests drive
    /// the controller tick by tick without a wall clock.
    fn no_dwell() -> BrownoutConfig {
        BrownoutConfig {
            recover_dwell: Duration::ZERO,
            ..BrownoutConfig::default()
        }
    }

    #[test]
    fn escalates_immediately_and_recovers_with_hysteresis() {
        let mut c = PressureController::new(no_dwell());
        assert_eq!(c.evaluate(inputs(0.1)), PressureLevel::Nominal);
        assert_eq!(c.evaluate(inputs(0.6)), PressureLevel::Degraded);
        assert_eq!(c.evaluate(inputs(0.9)), PressureLevel::Shedding);
        assert_eq!(c.transitions(), 2);

        // Dropping below the degraded threshold is NOT enough to recover…
        assert_eq!(c.evaluate(inputs(0.4)), PressureLevel::Shedding);
        // …and even below the recovery bar it takes a calm streak, one
        // level at a time.
        for _ in 0..RECOVERY_STREAK {
            c.evaluate(inputs(0.1));
        }
        assert_eq!(c.level(), PressureLevel::Degraded);
        for _ in 0..RECOVERY_STREAK {
            c.evaluate(inputs(0.1));
        }
        assert_eq!(c.level(), PressureLevel::Nominal);
    }

    #[test]
    fn a_busy_probe_resets_the_calm_streak() {
        let mut c = PressureController::new(no_dwell());
        c.evaluate(inputs(0.7));
        assert_eq!(c.level(), PressureLevel::Degraded);
        c.evaluate(inputs(0.1));
        c.evaluate(inputs(0.1));
        c.evaluate(inputs(0.4)); // below degraded, above recovery: not calm
        c.evaluate(inputs(0.1));
        c.evaluate(inputs(0.1));
        assert_eq!(c.level(), PressureLevel::Degraded, "streak was reset");
    }

    #[test]
    fn a_calm_streak_cannot_step_down_before_the_dwell() {
        let mut c = PressureController::new(BrownoutConfig {
            recover_dwell: Duration::from_millis(40),
            ..BrownoutConfig::default()
        });
        c.evaluate(inputs(0.7));
        assert_eq!(c.level(), PressureLevel::Degraded);
        for _ in 0..RECOVERY_STREAK * 3 {
            c.evaluate(inputs(0.0));
        }
        assert_eq!(
            c.level(),
            PressureLevel::Degraded,
            "calm ticks inside the dwell must not step the level down"
        );
        std::thread::sleep(Duration::from_millis(50));
        c.evaluate(inputs(0.0));
        assert_eq!(
            c.level(),
            PressureLevel::Nominal,
            "first calm tick past the dwell recovers"
        );
    }

    #[test]
    fn miss_rate_and_eviction_churn_trigger_brownout_without_queue_depth() {
        let mut c = PressureController::new(BrownoutConfig::default());
        let by_misses = PressureInputs {
            queue_ratio: 0.0,
            miss_rate: 0.5,
            evictions_delta: 0,
        };
        assert_eq!(c.evaluate(by_misses), PressureLevel::Degraded);

        let mut c2 = PressureController::new(BrownoutConfig::default());
        let by_churn = PressureInputs {
            queue_ratio: 0.0,
            miss_rate: 0.0,
            evictions_delta: 10,
        };
        assert_eq!(c2.evaluate(by_churn), PressureLevel::Degraded);
    }

    #[test]
    fn disabled_controller_is_pinned_nominal() {
        let mut c = PressureController::new(BrownoutConfig {
            enabled: false,
            ..BrownoutConfig::default()
        });
        assert_eq!(c.evaluate(inputs(1.0)), PressureLevel::Nominal);
        assert_eq!(c.transitions(), 0);
    }

    #[test]
    fn force_overrides_and_counts_once() {
        let mut c = PressureController::new(BrownoutConfig::default());
        c.force(PressureLevel::Shedding);
        c.force(PressureLevel::Shedding);
        assert_eq!(c.level(), PressureLevel::Shedding);
        assert_eq!(c.transitions(), 1);
    }

    #[test]
    fn service_model_prefers_per_template_over_overall() {
        let mut m = ServiceModel::default();
        assert_eq!(m.predict_service_ms(1), COLD_SERVICE_MS, "cold prior");
        m.observe_service(1, Duration::from_millis(100));
        m.observe_service(2, Duration::from_millis(10));
        assert!(m.predict_service_ms(1) > m.predict_service_ms(2));
        // An unseen template falls back to the overall average, which sits
        // between the two observed extremes.
        let unseen = m.predict_service_ms(99);
        assert!(unseen > m.predict_service_ms(2));
        assert!(unseen < m.predict_service_ms(1));
    }

    #[test]
    fn service_model_is_bounded() {
        let mut m = ServiceModel {
            capacity: 4,
            ..ServiceModel::default()
        };
        for k in 0..100u64 {
            m.observe_service(k, Duration::from_millis(5));
        }
        assert!(m.per_template.len() <= 4);
        assert!(m.overall_service_ms().is_some());
    }

    #[test]
    fn completion_prediction_scales_with_queue_depth() {
        let mut m = ServiceModel::default();
        for _ in 0..5 {
            m.observe_service(1, Duration::from_millis(100));
        }
        let empty = m.predict_completion_ms(1, 0, 2);
        let deep = m.predict_completion_ms(1, 10, 2);
        assert!(deep > empty + 400.0, "10 queued at 100ms over 2 workers");
    }

    #[test]
    fn level_names_roundtrip() {
        for l in [
            PressureLevel::Nominal,
            PressureLevel::Degraded,
            PressureLevel::Shedding,
        ] {
            assert_eq!(PressureLevel::parse(l.as_str()), Some(l));
        }
        assert_eq!(PressureLevel::parse("bogus"), None);
    }
}
