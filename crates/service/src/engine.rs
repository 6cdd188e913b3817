//! The job engine: a fixed worker pool over a bounded queue.
//!
//! Admission is explicit: `submit` either serves the request from the
//! cross-request result cache, enqueues it, or rejects it with
//! [`SubmitError::Overloaded`] when the queue is at capacity — jobs are
//! never silently dropped and the queue never grows unbounded.
//!
//! Each job carries a [`CancelToken`]; the worker arms its deadline before
//! running and the search loops observe it between verifications, so a
//! deadline-exceeded job returns its partial archive flagged `truncated`
//! instead of hanging a worker. Shutdown drains: workers finish what is
//! queued, then exit.
//!
//! Workers are **supervised**: a panic inside planning/generation marks the
//! job `Failed`, then the panic is re-raised to retire the thread and a
//! replacement worker is spawned in its place, so the pool stays at full
//! strength. Locks are poison-tolerant throughout (see [`crate::sync`]).
//! Jobs may carry a client-supplied `request_key`; resubmitting the same
//! key returns the original job id instead of running the work twice.
//! Settled job records stay readable for a bounded window
//! ([`EngineConfig::dedup_entries`] most recent settlements); older ones
//! are evicted with their keys, and `status`/`result` then report the id
//! as unknown.
//!
//! Under sustained load the engine **degrades by levels** instead of
//! queueing into uselessness (see [`crate::overload`]): admission
//! predicts whether a deadline can still be met (rejecting with a
//! `retry_after_ms` hint when it can't), a brownout controller tightens
//! budgets while pressure lasts, and at the top level low-priority
//! submissions are shed. A **watchdog** escalates past
//! cooperative cancellation for workers stuck beyond deadline + grace
//! (hard-stop flag, then declaring the worker lost and respawning), and
//! [`Engine::begin_drain`] bounces queued jobs with a typed `Drained`
//! outcome so clients replay them elsewhere via their request keys.
//!
//! This file is the shell — public API, overload gate, worker and watchdog
//! threads, `run_job`, `stats_value`. Every piece of per-job state (records,
//! queue, running set, coalescing map, quotas, subscriptions, the
//! shutdown/drain flags) lives in [`crate::sched::Sched`], whose transitions
//! are pure and return what must happen outside the lock. The engine has
//! four locks — `sched`, the result `cache`, the `observed` load figures
//! and the `threads` handles — and no lock is held while another is taken
//! or a sink is called.

use crate::cache::{CacheStats, LruCache};
use crate::job::{
    check_lattice, diversity_for_spec, entry_bindings, entry_to_value, generated_to_value_with,
    plan_key, plan_spec, plan_spec_cached, run_plan_observed, BrownoutMark, JobSpec, Plan,
};
use crate::overload::{
    BrownoutConfig, Ewma, PressureController, PressureInputs, PressureLevel, ServiceModel,
};
use crate::registry::{GraphRegistry, DEFAULT_WARM_BUDGET_BYTES};
use crate::sched::{Admission, Effects, Refused, Run, Sched, Settled};
use crate::sync;
use fairsqg_algo::{ArchiveDelta, ArchiveObserver, CancelToken, MatchBudget};
use fairsqg_faults::Fault;
use fairsqg_wire::Value;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum queued (admitted, not yet running) jobs.
    pub queue_capacity: usize,
    /// Result-cache entry budget (0 disables caching).
    pub cache_entries: usize,
    /// Deadline applied when a job does not set `deadline_ms`.
    pub default_deadline: Option<Duration>,
    /// Default per-verification resource caps; a job's own caps override
    /// these axis by axis.
    pub budget: MatchBudget,
    /// Settled job records kept for later `status`/`result` calls and
    /// `request_key` replays; the oldest are evicted beyond this many.
    /// Unsettled jobs are never evicted.
    pub dedup_entries: usize,
    /// Keep per-`(graph, epoch)` warm evaluation state (diversity tables,
    /// plan pool) alive across jobs. Warm results are bit-identical to
    /// cold ones; disabling this only costs throughput.
    pub warm_state: bool,
    /// Byte budget for the registry's warm pool (LRU-evicted across
    /// graphs). Applied at engine start when `warm_state` is on.
    pub warm_budget_bytes: usize,
    /// Attach submissions whose fingerprint matches an in-flight job as
    /// followers of that job instead of running the work again.
    pub coalesce: bool,
    /// Brownout policy: pressure thresholds and the tightened caps
    /// applied while degraded (see [`crate::overload`]).
    pub brownout: BrownoutConfig,
    /// Deadline-aware admission: reject a deadline-bearing job when the
    /// service model predicts the queue ahead of it already spends its
    /// deadline. An idle engine always admits — prediction only guards
    /// *queueing* delay; execution delay is the budget/deadline's job.
    pub admission_control: bool,
    /// Maximum unsettled jobs per client identity (`0` = no quota).
    pub client_quota: usize,
    /// Watchdog escalation grace: a running job is hard-stopped once it
    /// exceeds its deadline by this much, and its worker declared lost
    /// (and replaced) after a second grace. `None` disables the
    /// watchdog. Jobs with no effective deadline are never escalated.
    pub watchdog_grace: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            cache_entries: 128,
            default_deadline: None,
            budget: MatchBudget::UNLIMITED,
            dedup_entries: 4096,
            warm_state: true,
            warm_budget_bytes: DEFAULT_WARM_BUDGET_BYTES,
            coalesce: true,
            brownout: BrownoutConfig::default(),
            admission_control: true,
            client_quota: 0,
            watchdog_grace: Some(Duration::from_secs(2)),
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; retry later.
    Overloaded {
        /// Queue capacity at rejection time.
        capacity: usize,
        /// Suggested wait before retrying (one queue slot's predicted
        /// drain time).
        retry_after_ms: u64,
    },
    /// The service model predicts the job's deadline lapses before a
    /// worker would reach it — running it would only burn a worker on a
    /// result the client has already given up on.
    DeadlineUnmeetable {
        /// The job's effective deadline.
        deadline_ms: u64,
        /// Predicted queue-drain + service time.
        predicted_ms: u64,
        /// Suggested wait before retrying.
        retry_after_ms: u64,
    },
    /// The submitting client already has `limit` unsettled jobs.
    QuotaExceeded {
        /// The client identity the quota applies to.
        client: String,
        /// The configured per-client limit.
        limit: usize,
        /// Suggested wait before retrying.
        retry_after_ms: u64,
    },
    /// Shed under overload: the engine is at its `Shedding` pressure
    /// level and the job's priority is below the shed threshold.
    Shed {
        /// Suggested wait before retrying.
        retry_after_ms: u64,
    },
    /// The referenced graph is not in the registry.
    UnknownGraph(String),
    /// The spec cannot run on its graph: its instance lattice overflows
    /// `usize`.
    BadRequest(String),
    /// The engine is draining: it completes what it has but accepts
    /// nothing new. Clients replay via their request keys elsewhere.
    Draining,
    /// The engine is shutting down.
    ShuttingDown,
    /// Admission failed for an internal reason (e.g. an injected fault).
    Internal(String),
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; a result is available (possibly truncated).
    Done,
    /// Failed with an error message.
    Failed,
    /// Cancelled before producing a result.
    Cancelled,
    /// Bounced by a drain before running; replay elsewhere.
    Drained,
}

impl JobState {
    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed => "failed",
            Self::Cancelled => "cancelled",
            Self::Drained => "drained",
        }
    }

    /// Whether the job has settled (no further transitions).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Self::Done | Self::Failed | Self::Cancelled | Self::Drained
        )
    }
}

/// A streamed job event, delivered to [`EventSink`]s registered via
/// [`Engine::subscribe`] / [`Engine::submit_streaming`].
///
/// Delivery contract: zero or more `Delta` events (each an incremental
/// change to the job's Pareto archive, in version order), then exactly
/// one `Settled`. For a sink attached before the job starts running, the
/// union of all deltas reconstructs the final result's entry set exactly
/// — the engine emits a catch-up delta at settlement covering anything
/// the anytime loop never streamed (cache hits, coalesced followers,
/// archive rescales, algorithms that build their archive at the end).
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// The job's archive changed: `added` entries entered the front (in
    /// their rendered wire form, identical to the final result's
    /// `entries` elements) and `removed` (identified by their `bindings`
    /// strings) were dominated out.
    Delta {
        /// The job id.
        id: u64,
        /// The archive's monotonic version after this change.
        version: u64,
        /// Rendered entries that entered the archive.
        added: Vec<Value>,
        /// `bindings` keys of entries that left the archive.
        removed: Vec<String>,
    },
    /// The job reached a terminal state; no further events follow.
    Settled {
        /// The job id.
        id: u64,
        /// The terminal state.
        state: JobState,
        /// Whether the result is a deadline/cancellation partial.
        truncated: bool,
        /// Whether the result came from the cross-request cache.
        from_cache: bool,
        /// Error message (`Failed` only).
        error: Option<String>,
        /// The full rendered result (`Done` only).
        result: Option<Arc<Value>>,
    },
}

/// A subscriber callback. Called from engine worker threads (or from the
/// thread that subscribes to an already-settled job) with no engine lock
/// held; it should be cheap — a slow sink stalls the worker that calls it.
pub type EventSink = Arc<dyn Fn(&JobEvent) + Send + Sync>;

/// Point-in-time view of one job, as reported by `status`.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job id.
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Whether the result came from the cross-request cache.
    pub from_cache: bool,
    /// Whether the result is a deadline/cancellation partial.
    pub truncated: bool,
    /// Error message (`Failed` only).
    pub error: Option<String>,
}

#[derive(Default)]
struct StageLatency {
    count: u64,
    total: Duration,
    max: Duration,
}

impl StageLatency {
    fn record(&mut self, d: Duration) {
        self.count += 1;
        self.total += d;
        self.max = self.max.max(d);
    }

    fn to_value(&self) -> Value {
        let mean_ms = if self.count == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e3 / self.count as f64
        };
        Value::object([
            ("count", Value::from(self.count)),
            ("mean_ms", Value::from(mean_ms)),
            ("max_ms", Value::from(self.max.as_secs_f64() * 1e3)),
        ])
    }
}

#[derive(Default)]
struct Latencies {
    queue_wait: StageLatency,
    plan: StageLatency,
    generate: StageLatency,
    render: StageLatency,
}

/// The engine's event totals. Crate-visible because the state machine
/// ([`crate::sched`]) counts the transitions it makes.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) truncated: AtomicU64,
    // Per-evaluator memoization totals, summed over completed jobs.
    eval_verified: AtomicU64,
    eval_cache_hits: AtomicU64,
    // Matcher hot-path totals, summed over completed jobs: the candidate
    // computation paths, the cross-call memo and the adaptive re-plans.
    match_index_candidates: AtomicU64,
    match_scan_candidates: AtomicU64,
    match_scan_fallbacks: AtomicU64,
    match_pool_restrictions: AtomicU64,
    match_order_replans: AtomicU64,
    match_cand_memo_hits: AtomicU64,
    // Robustness counters.
    job_panics: AtomicU64,
    worker_respawns: AtomicU64,
    budget_trips: AtomicU64,
    dedup_hits: AtomicU64,
    // Coalescing: submissions attached to an in-flight leader, followers
    // served from a leader's result, and followers promoted + requeued
    // because the leader's outcome was unusable.
    pub(crate) coalesced_attached: AtomicU64,
    pub(crate) coalesced_served: AtomicU64,
    pub(crate) coalesced_requeued: AtomicU64,
    // Overload control: typed rejections by cause, queued victims evicted
    // in favor of higher-priority submissions, and jobs run degraded.
    deadline_rejected: AtomicU64,
    quota_rejected: AtomicU64,
    shed: AtomicU64,
    pub(crate) shed_evicted: AtomicU64,
    brownout_jobs: AtomicU64,
    deadline_misses: AtomicU64,
    // Watchdog escalations and drain bounces.
    pub(crate) watchdog_hard_stops: AtomicU64,
    watchdog_lost_workers: AtomicU64,
    pub(crate) drained: AtomicU64,
    // Streaming: live delta events published, settlement catch-up deltas
    // emitted, and subscriptions that reached their Settled event.
    stream_deltas: AtomicU64,
    pub(crate) stream_catchups: AtomicU64,
    pub(crate) stream_settled: AtomicU64,
}

/// What the engine has observed of its own load: the inputs to admission
/// prediction and the brownout ladder, and the stage latencies `stats`
/// reports. Written at the same two points of every job (pickup and
/// completion), hence one lock.
struct Observed {
    /// Per-template service-time and queue-wait EWMAs.
    model: ServiceModel,
    /// The hysteretic pressure state machine.
    controller: PressureController,
    /// EWMA of deadline misses per completed deadline-bearing job.
    miss_ewma: Ewma,
    /// Warm-pool eviction total at the previous pressure evaluation.
    last_warm_evictions: u64,
    latencies: Latencies,
}

struct Shared {
    config: EngineConfig,
    registry: Arc<GraphRegistry>,
    sched: Mutex<Sched>,
    /// Signalled (on `sched`) when a job enters the queue or the engine
    /// shuts down; only workers wait on it.
    work_ready: Condvar,
    /// Signalled (on `sched`) at shutdown; only the watchdog waits on it,
    /// so it never swallows a worker's wake-up.
    watchdog_wake: Condvar,
    cache: Mutex<LruCache<Arc<Value>>>,
    observed: Mutex<Observed>,
    /// Live worker handles (replacements register themselves here) and
    /// the watchdog's.
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    counters: Counters,
    /// Name sequence for respawned worker threads.
    worker_seq: AtomicU64,
    workers_alive: AtomicU64,
    /// Workers the watchdog replaced while their predecessor was still
    /// wedged: when the original thread eventually returns, one surplus
    /// worker exits voluntarily so the pool converges back to size.
    workers_excess: AtomicI64,
}

impl Shared {
    /// Carries out what a `sched` session left to do once its lock is
    /// released.
    fn apply(&self, fx: Effects) {
        if fx.wake {
            self.work_ready.notify_one();
        }
        for flush in fx.flushes {
            flush.fire(&self.counters);
        }
    }

    /// One `sched` session around `f`, then its effects.
    fn transition<T>(&self, f: impl FnOnce(&mut Sched, &mut Effects) -> T) -> T {
        let mut fx = Effects::default();
        let out = f(&mut sync::lock(&self.sched), &mut fx);
        self.apply(fx);
        out
    }
}

/// Clamps a predicted wait into an honest `retry_after_ms` hint: never so
/// small that clients busy-spin, never so large that they give up on a
/// transient.
fn hint_ms(predicted: f64) -> u64 {
    (predicted.ceil() as u64).clamp(25, 60_000)
}

/// The concurrent generation engine. See the module docs.
pub struct Engine {
    shared: Arc<Shared>,
}

impl Engine {
    /// Starts the worker pool over `registry`.
    pub fn start(registry: Arc<GraphRegistry>, config: EngineConfig) -> Self {
        if config.warm_state {
            registry.set_warm_budget(config.warm_budget_bytes);
        }
        let pool = config.workers.max(1) as u64;
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched::new(&config)),
            work_ready: Condvar::new(),
            watchdog_wake: Condvar::new(),
            cache: Mutex::new(LruCache::new(config.cache_entries)),
            observed: Mutex::new(Observed {
                model: ServiceModel::default(),
                controller: PressureController::new(config.brownout),
                miss_ewma: Ewma::new(0.2),
                last_warm_evictions: 0,
                latencies: Latencies::default(),
            }),
            threads: Mutex::new(Vec::new()),
            config,
            registry,
            counters: Counters::default(),
            worker_seq: AtomicU64::new(pool),
            workers_alive: AtomicU64::new(0),
            workers_excess: AtomicI64::new(0),
        });
        for i in 0..pool {
            spawn_worker(&shared, i);
        }
        if let Some(grace) = config.watchdog_grace {
            let arc = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("fairsqg-watchdog".to_string())
                .spawn(move || watchdog_loop(&arc, grace))
                .expect("spawn watchdog");
            sync::lock(&shared.threads).push(handle);
        }
        Self { shared }
    }

    /// The registry this engine resolves graph names against.
    pub fn registry(&self) -> &GraphRegistry {
        &self.shared.registry
    }

    /// Submits a job. On a cache hit the returned job is already `Done`;
    /// on a `request_key` replay the original job's id is returned and
    /// nothing new runs.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        self.admit(spec, None)
    }

    /// Admission, with the submission's sink (if it is a streaming one)
    /// attached in the same `sched` session that creates or finds the job,
    /// so no event can precede it.
    fn admit(&self, mut spec: JobSpec, mut sink: Option<EventSink>) -> Result<u64, SubmitError> {
        let shared = &*self.shared;
        let c = &shared.counters;
        let attach = |s: &mut Sched, id: u64, sink: Option<EventSink>, fx: &mut Effects| {
            if let Some(sink) = sink {
                s.subscribe(id, sink, fx);
            }
        };

        // Idempotent replay: a retried submission (same request_key) maps
        // to the job admitted the first time, whatever state it is in.
        // The same session reads what the later checks need of the state
        // machine (they re-check under the lock if it matters).
        let (replayed, draining, depth) = shared.transition(|s, fx| {
            let replayed = spec.request_key.as_deref().and_then(|key| s.replay(key));
            if let Some(id) = replayed {
                attach(s, id, sink.take(), fx);
            }
            (replayed, s.is_draining(), s.queue_depth())
        });
        if let Some(id) = replayed {
            c.dedup_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(id);
        }

        if let Some(fault) = fairsqg_faults::fire("queue.admit") {
            c.rejected.fetch_add(1, Ordering::Relaxed);
            let message = match fault {
                Fault::Error(m) => m,
                Fault::ReturnEarly => "admission rejected (injected)".to_string(),
            };
            return Err(SubmitError::Internal(message));
        }

        // A draining engine completes what it has but takes nothing new;
        // the typed rejection tells clients to replay elsewhere.
        if draining {
            c.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Draining);
        }

        let entry = shared
            .registry
            .get(&spec.graph)
            .ok_or_else(|| SubmitError::UnknownGraph(spec.graph.clone()))?;
        c.submitted.fetch_add(1, Ordering::Relaxed);

        // Per-job caps override the engine defaults axis by axis; the
        // merged budget is what runs and what the cache keys on.
        spec.budget = spec.budget.or(&shared.config.budget);

        let fingerprint = spec.fingerprint(entry.epoch);
        let cached = sync::lock(&shared.cache).get(&fingerprint);
        if let Some(result) = cached {
            let id = shared.transition(|s, fx| {
                let id = s.admit_cached(spec, result, Instant::now());
                attach(s, id, sink, fx);
                id
            });
            c.completed.fetch_add(1, Ordering::Relaxed);
            return Ok(id);
        }

        check_lattice(&entry.graph, &spec).map_err(SubmitError::BadRequest)?;
        let deadline = spec
            .deadline_ms
            .map(Duration::from_millis)
            .or(shared.config.default_deadline);
        let template = plan_key(&spec);
        let level = self.overload_gate(&spec, template, deadline, depth)?;
        // Read before the token starts ticking: a job its deadline cut
        // short has then always outlived `submitted_at + deadline`.
        let now = Instant::now();
        let admission = Admission {
            cancel: match deadline {
                Some(d) => CancelToken::with_deadline(d),
                None => CancelToken::new(),
            },
            spec,
            deadline,
            entry,
            fingerprint,
            shedding: level == PressureLevel::Shedding,
        };
        let admitted = shared.transition(|s, fx| {
            let id = s.admit(admission, now, c, fx)?;
            attach(s, id, sink, fx);
            Ok(id)
        });
        let workers = shared.config.workers.max(1) as f64;
        admitted.map_err(|refused| match refused {
            Refused::ShuttingDown => SubmitError::ShuttingDown,
            Refused::Draining => {
                c.rejected.fetch_add(1, Ordering::Relaxed);
                SubmitError::Draining
            }
            Refused::Quota(client) => {
                c.quota_rejected.fetch_add(1, Ordering::Relaxed);
                c.rejected.fetch_add(1, Ordering::Relaxed);
                let per_job = sync::lock(&shared.observed)
                    .model
                    .predict_service_ms(template);
                SubmitError::QuotaExceeded {
                    client,
                    limit: shared.config.client_quota,
                    retry_after_ms: hint_ms(per_job / workers),
                }
            }
            Refused::Full => {
                c.rejected.fetch_add(1, Ordering::Relaxed);
                // One queue slot's worth of predicted drain.
                let per_job = sync::lock(&shared.observed).model.overall_service_ms();
                SubmitError::Overloaded {
                    capacity: shared.config.queue_capacity,
                    retry_after_ms: hint_ms(per_job.unwrap_or(25.0) / workers),
                }
            }
        })
    }

    /// One overload-gate pass: refresh the pressure level, shed if
    /// warranted, check deadline admission. Returns the level it computed.
    fn overload_gate(
        &self,
        spec: &JobSpec,
        template: u64,
        deadline: Option<Duration>,
        depth: usize,
    ) -> Result<PressureLevel, SubmitError> {
        let c = &self.shared.counters;
        let capacity = self.shared.config.queue_capacity.max(1);
        let warm_evictions = if self.shared.config.warm_state {
            self.shared.registry.warm_stats().evictions
        } else {
            0
        };
        let workers = self.shared.config.workers.max(1);
        let mut ov = sync::lock(&self.shared.observed);

        // Deterministic override for tests and drills: the
        // `brownout.level` fail point pins the controller to a named
        // level (`error(degraded)` / `error(shedding)` / `error(nominal)`).
        if let Some(Fault::Error(name)) = fairsqg_faults::fire("brownout.level") {
            if let Some(forced) = PressureLevel::parse(&name) {
                ov.controller.force(forced);
            }
        } else {
            let inputs = PressureInputs {
                queue_ratio: depth as f64 / capacity as f64,
                miss_rate: ov.miss_ewma.get_or(0.0),
                evictions_delta: warm_evictions.saturating_sub(ov.last_warm_evictions),
            };
            ov.last_warm_evictions = warm_evictions;
            ov.controller.evaluate(inputs);
        }
        let level = ov.controller.level();

        if level == PressureLevel::Shedding
            && spec.priority < self.shared.config.brownout.shed_below_priority
        {
            let predicted = ov.model.predict_completion_ms(template, depth, workers);
            drop(ov);
            c.shed.fetch_add(1, Ordering::Relaxed);
            c.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Shed {
                retry_after_ms: hint_ms(predicted),
            });
        }

        // Deadline admission guards *queueing* delay: an idle engine
        // always admits (running to the deadline and truncating is the
        // contract), but a deadline the queue ahead would already spend
        // is rejected up front with an honest retry hint.
        if self.shared.config.admission_control {
            if let Some(d) = deadline {
                let deadline_ms = d.as_millis() as u64;
                let forced = matches!(
                    fairsqg_faults::fire("admission.reject"),
                    Some(Fault::Error(_) | Fault::ReturnEarly)
                );
                let predicted = ov.model.predict_completion_ms(template, depth, workers);
                if forced || (depth > 0 && predicted > deadline_ms as f64) {
                    drop(ov);
                    c.deadline_rejected.fetch_add(1, Ordering::Relaxed);
                    c.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::DeadlineUnmeetable {
                        deadline_ms,
                        predicted_ms: predicted.ceil() as u64,
                        retry_after_ms: hint_ms(predicted - deadline_ms as f64),
                    });
                }
            }
        }
        Ok(level)
    }

    /// Snapshot of a job's state.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        sync::lock(&self.shared.sched).status(id)
    }

    /// The result of a `Done` job (shared, render-once).
    pub fn result(&self, id: u64) -> Option<Arc<Value>> {
        sync::lock(&self.shared.sched).result(id)
    }

    /// Requests cancellation of a job. Queued jobs are skipped by the
    /// worker; running jobs stop at the next verification boundary.
    /// Returns `false` for unknown ids.
    pub fn cancel(&self, id: u64) -> bool {
        sync::lock(&self.shared.sched).cancel(id)
    }

    /// Registers `sink` for a job's [`JobEvent`] stream. Returns `false`
    /// for unknown ids. If the job has already settled, the sink receives
    /// its catch-up delta (for `Done` jobs) and `Settled` event
    /// synchronously before this returns. A sink attached while the job
    /// is mid-run misses nothing material: entries it never saw as live
    /// deltas arrive in the settlement catch-up.
    pub fn subscribe(&self, id: u64, sink: EventSink) -> bool {
        self.shared.transition(|s, fx| s.subscribe(id, sink, fx))
    }

    /// [`Self::submit`] with a [`JobEvent`] subscription attached before
    /// the job can settle: forces `spec.subscribe` on (so the worker
    /// streams archive deltas as the front improves) and registers `sink`
    /// for the job's event stream. Cache hits and coalesced followers
    /// stream too — their entire entry set arrives as one settlement
    /// catch-up delta.
    pub fn submit_streaming(&self, mut spec: JobSpec, sink: EventSink) -> Result<u64, SubmitError> {
        spec.subscribe = true;
        self.admit(spec, Some(sink))
    }

    /// Current queue depth (admitted, not yet picked up).
    pub fn queue_depth(&self) -> usize {
        sync::lock(&self.shared.sched).queue_depth()
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        sync::lock(&self.shared.cache).stats()
    }

    /// Worker threads currently alive (dips briefly during a respawn).
    pub fn workers_alive(&self) -> u64 {
        self.shared.workers_alive.load(Ordering::SeqCst)
    }

    /// Whether [`Self::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        sync::lock(&self.shared.sched).is_draining()
    }

    /// Starts a graceful drain: new submissions are rejected with
    /// [`SubmitError::Draining`], every still-queued job (and its
    /// followers) is settled as [`JobState::Drained`] so clients replay
    /// it elsewhere via their request keys, and running jobs finish
    /// normally. Returns `(bounced, running)`. Idempotent; the workers
    /// stay up for status/result traffic until [`Self::shutdown`].
    pub fn begin_drain(&self) -> (usize, usize) {
        let c = &self.shared.counters;
        self.shared.transition(|s, fx| s.begin_drain(c, fx))
    }

    /// Whether a drain has finished: draining was requested and nothing
    /// is queued or running any more.
    pub fn drain_complete(&self) -> bool {
        let s = sync::lock(&self.shared.sched);
        s.is_draining() && s.idle()
    }

    /// Engine statistics in wire form (the `stats` response body).
    pub fn stats_value(&self) -> Value {
        let c = &self.shared.counters;
        // A zero-capacity cache is off, not "a cache with no entries" —
        // report it as such instead of an all-zero block.
        let result_cache = if self.shared.config.cache_entries == 0 {
            Value::object([("disabled", Value::from(true))])
        } else {
            let cache = self.cache_stats();
            Value::object([
                ("hits", Value::from(cache.hits)),
                ("misses", Value::from(cache.misses)),
                ("evictions", Value::from(cache.evictions)),
                ("entries", Value::from(cache.entries)),
                ("hit_rate", Value::from(cache.hit_rate())),
            ])
        };
        let warm = if self.shared.config.warm_state {
            let ws = self.shared.registry.warm_stats();
            Value::object([
                ("enabled", Value::from(true)),
                ("graphs", Value::from(ws.graphs)),
                ("approx_bytes", Value::from(ws.approx_bytes)),
                ("budget_bytes", Value::from(ws.budget_bytes)),
                ("evictions", Value::from(ws.evictions)),
                ("diversity_hits", Value::from(ws.diversity_hits)),
                ("diversity_misses", Value::from(ws.diversity_misses)),
                ("plan_hits", Value::from(ws.plan_hits)),
                ("plan_misses", Value::from(ws.plan_misses)),
                ("match_hits", Value::from(ws.match_hits)),
                ("match_misses", Value::from(ws.match_misses)),
                ("budget_refusals", Value::from(ws.budget_refusals)),
            ])
        } else {
            Value::object([("enabled", Value::from(false))])
        };
        let (pressure, latency) = {
            let ov = sync::lock(&self.shared.observed);
            let pressure = Value::object([
                ("level", Value::from(ov.controller.level().as_str())),
                ("transitions", Value::from(ov.controller.transitions())),
                (
                    "miss_rate",
                    ov.miss_ewma.get().map_or(Value::Null, Value::from),
                ),
                (
                    "service_ms",
                    ov.model
                        .overall_service_ms()
                        .map_or(Value::Null, Value::from),
                ),
                (
                    "queue_wait_ms",
                    ov.model.queue_wait_ms().map_or(Value::Null, Value::from),
                ),
                (
                    "deadline_rejected",
                    Value::from(c.deadline_rejected.load(Ordering::Relaxed)),
                ),
                (
                    "quota_rejected",
                    Value::from(c.quota_rejected.load(Ordering::Relaxed)),
                ),
                ("shed", Value::from(c.shed.load(Ordering::Relaxed))),
                (
                    "shed_evicted",
                    Value::from(c.shed_evicted.load(Ordering::Relaxed)),
                ),
                (
                    "brownout_jobs",
                    Value::from(c.brownout_jobs.load(Ordering::Relaxed)),
                ),
                (
                    "deadline_misses",
                    Value::from(c.deadline_misses.load(Ordering::Relaxed)),
                ),
            ]);
            let lat = &ov.latencies;
            let latency = Value::object([
                ("queue_wait", lat.queue_wait.to_value()),
                ("plan", lat.plan.to_value()),
                ("generate", lat.generate.to_value()),
                ("render", lat.render.to_value()),
            ]);
            (pressure, latency)
        };
        let (queue_depth, draining, streams) = {
            let s = sync::lock(&self.shared.sched);
            (s.queue_depth(), s.is_draining(), s.streams())
        };
        let eval_verified = c.eval_verified.load(Ordering::Relaxed);
        let eval_hits = c.eval_cache_hits.load(Ordering::Relaxed);
        let eval_lookups = eval_verified + eval_hits;
        let eval_rate = if eval_lookups == 0 {
            0.0
        } else {
            eval_hits as f64 / eval_lookups as f64
        };
        Value::object([
            ("workers", Value::from(self.shared.config.workers)),
            ("queue_depth", Value::from(queue_depth)),
            (
                "queue_capacity",
                Value::from(self.shared.config.queue_capacity),
            ),
            (
                "submitted",
                Value::from(c.submitted.load(Ordering::Relaxed)),
            ),
            (
                "completed",
                Value::from(c.completed.load(Ordering::Relaxed)),
            ),
            ("rejected", Value::from(c.rejected.load(Ordering::Relaxed))),
            (
                "cancelled",
                Value::from(c.cancelled.load(Ordering::Relaxed)),
            ),
            ("failed", Value::from(c.failed.load(Ordering::Relaxed))),
            (
                "truncated",
                Value::from(c.truncated.load(Ordering::Relaxed)),
            ),
            (
                "robustness",
                Value::object([
                    ("workers_alive", Value::from(self.workers_alive())),
                    (
                        "job_panics",
                        Value::from(c.job_panics.load(Ordering::Relaxed)),
                    ),
                    (
                        "worker_respawns",
                        Value::from(c.worker_respawns.load(Ordering::Relaxed)),
                    ),
                    (
                        "budget_trips",
                        Value::from(c.budget_trips.load(Ordering::Relaxed)),
                    ),
                    (
                        "dedup_hits",
                        Value::from(c.dedup_hits.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            ("pressure", pressure),
            (
                "watchdog",
                Value::object([
                    (
                        "enabled",
                        Value::from(self.shared.config.watchdog_grace.is_some()),
                    ),
                    (
                        "hard_stops",
                        Value::from(c.watchdog_hard_stops.load(Ordering::Relaxed)),
                    ),
                    (
                        "lost_workers",
                        Value::from(c.watchdog_lost_workers.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "drain",
                Value::object([
                    ("draining", Value::from(draining)),
                    ("drained", Value::from(c.drained.load(Ordering::Relaxed))),
                ]),
            ),
            ("result_cache", result_cache),
            (
                "coalescing",
                Value::object([
                    ("enabled", Value::from(self.shared.config.coalesce)),
                    (
                        "attached",
                        Value::from(c.coalesced_attached.load(Ordering::Relaxed)),
                    ),
                    (
                        "served",
                        Value::from(c.coalesced_served.load(Ordering::Relaxed)),
                    ),
                    (
                        "requeued",
                        Value::from(c.coalesced_requeued.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "streaming",
                Value::object([
                    (
                        "deltas",
                        Value::from(c.stream_deltas.load(Ordering::Relaxed)),
                    ),
                    (
                        "catchups",
                        Value::from(c.stream_catchups.load(Ordering::Relaxed)),
                    ),
                    (
                        "settled",
                        Value::from(c.stream_settled.load(Ordering::Relaxed)),
                    ),
                    ("active", Value::from(streams as u64)),
                ]),
            ),
            ("warm_state", warm),
            ("registry", {
                let r = self.shared.registry.stats();
                Value::object([
                    ("graphs", Value::from(r.graphs as u64)),
                    ("parse_loads", Value::from(r.parse_loads)),
                    ("mmap_loads", Value::from(r.mmap_loads)),
                    ("heap_bytes", Value::from(r.heap_bytes as u64)),
                    ("mapped_bytes", Value::from(r.mapped_bytes as u64)),
                    ("quarantined", Value::from(r.quarantined as u64)),
                ])
            }),
            (
                "evaluator_cache",
                Value::object([
                    ("verified", Value::from(eval_verified)),
                    ("hits", Value::from(eval_hits)),
                    ("hit_rate", Value::from(eval_rate)),
                ]),
            ),
            (
                "matching",
                Value::object([
                    (
                        "index_candidates",
                        Value::from(c.match_index_candidates.load(Ordering::Relaxed)),
                    ),
                    (
                        "scan_candidates",
                        Value::from(c.match_scan_candidates.load(Ordering::Relaxed)),
                    ),
                    (
                        "scan_fallbacks",
                        Value::from(c.match_scan_fallbacks.load(Ordering::Relaxed)),
                    ),
                    (
                        "pool_restrictions",
                        Value::from(c.match_pool_restrictions.load(Ordering::Relaxed)),
                    ),
                    (
                        "order_replans",
                        Value::from(c.match_order_replans.load(Ordering::Relaxed)),
                    ),
                    (
                        "cand_memo_hits",
                        Value::from(c.match_cand_memo_hits.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            ("latency", latency),
        ])
    }

    /// Drains the queue and stops the workers: already-admitted jobs run to
    /// completion (their deadlines still apply), new submissions are
    /// rejected with [`SubmitError::ShuttingDown`].
    pub fn shutdown(&self) {
        sync::lock(&self.shared.sched).shut_down();
        self.shared.work_ready.notify_all();
        self.shared.watchdog_wake.notify_all();
        // A dying worker registers its replacement's handle before
        // terminating, so keep draining until the vector stays empty.
        loop {
            let drained: Vec<_> = sync::lock(&self.shared.threads).drain(..).collect();
            if drained.is_empty() {
                break;
            }
            for h in drained {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_worker(shared: &Arc<Shared>, seq: u64) {
    let arc = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("fairsqg-worker-{seq}"))
        .spawn(move || worker_loop(&arc))
        .expect("spawn worker");
    sync::lock(&shared.threads).push(handle);
}

/// Supervision guard living on each worker thread's stack: when the thread
/// unwinds out of [`worker_loop`] (a re-raised job panic), a replacement
/// worker is spawned so the pool returns to full strength. Normal exits
/// (shutdown drain) do not respawn.
struct WorkerGuard {
    shared: Arc<Shared>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.shared.workers_alive.fetch_sub(1, Ordering::SeqCst);
        if std::thread::panicking() && !sync::lock(&self.shared.sched).is_shutdown() {
            self.shared
                .counters
                .worker_respawns
                .fetch_add(1, Ordering::Relaxed);
            let seq = self.shared.worker_seq.fetch_add(1, Ordering::Relaxed);
            spawn_worker(&self.shared, seq);
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let _guard = WorkerGuard {
        shared: Arc::clone(shared),
    };
    shared.workers_alive.fetch_add(1, Ordering::SeqCst);
    loop {
        // The watchdog over-provisions the pool when it declares a wedged
        // worker lost; once any worker is between jobs the surplus drains
        // here so the pool converges back to its configured size.
        loop {
            let excess = shared.workers_excess.load(Ordering::SeqCst);
            if excess <= 0 {
                break;
            }
            if shared
                .workers_excess
                .compare_exchange(excess, excess - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return;
            }
        }
        let mut fx = Effects::default();
        let run = {
            let mut s = sync::lock(&shared.sched);
            loop {
                if let Some(id) = s.pop() {
                    break s.start(id, Instant::now(), &shared.counters, &mut fx);
                }
                if s.is_shutdown() {
                    return;
                }
                s = sync::wait(&shared.work_ready, s);
            }
        };
        shared.apply(fx);
        if let Some(run) = run {
            run_job(shared, run);
        }
    }
}

/// The stuck-job supervisor. Cooperative cancellation (the deadline on a
/// job's [`CancelToken`]) is observed *between* verifications; a single
/// adversarial verification — or an injected wedge — can overstay it. The
/// watchdog escalates in two stages, each one `grace` past the last:
///
/// 1. **Hard stop** — sets the token's hard-stop flag, which the matcher
///    inner loops poll every few thousand extension steps, tearing the
///    search down *inside* a verification.
/// 2. **Worker lost** — the thread ignored even the hard stop (wedged in
///    foreign code or an injected sleep): the job is settled `Failed`, a
///    replacement worker is spawned, and the pool's excess counter makes
///    the original thread exit voluntarily if it ever returns.
///
/// Overruns are measured from when the worker *started* the job, not from
/// submission (which is what a deadline miss is measured from): the
/// watchdog bounds how long a worker may be held, not how long a client
/// waited. Jobs with no effective deadline are never escalated — "stuck"
/// is only defined relative to a promise.
fn watchdog_loop(shared: &Arc<Shared>, grace: Duration) {
    let tick = (grace / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
    let c = &shared.counters;
    let mut s = sync::lock(&shared.sched);
    while !s.is_shutdown() {
        s = sync::wait_timeout(&shared.watchdog_wake, s, tick);
        let lost = s.overdue(Instant::now(), grace, c);
        if lost.is_empty() {
            continue;
        }
        drop(s);
        for id in lost {
            c.watchdog_lost_workers.fetch_add(1, Ordering::Relaxed);
            // Over-provision first, settle second: the pool must not dip
            // below strength while the wedged thread holds its slot. If
            // the original thread ever returns, its settlement is a
            // no-op and one surplus worker exits.
            shared.workers_excess.fetch_add(1, Ordering::SeqCst);
            let seq = shared.worker_seq.fetch_add(1, Ordering::Relaxed);
            spawn_worker(shared, seq);
            let reason = "watchdog: worker unresponsive past deadline + grace; job abandoned";
            shared.transition(|s, fx| s.settle(id, Settled::Failed(reason.into()), c, fx));
        }
        s = sync::lock(&shared.sched);
    }
}

/// The worker-side [`ArchiveObserver`]: renders each accepted archive
/// mutation on the generation thread (entries hold `Rc`s and must not
/// cross threads un-rendered) and publishes it as a [`JobEvent::Delta`].
struct StreamObs<'a, 'g> {
    shared: &'a Shared,
    id: u64,
    plan: &'a Plan<'g>,
}

impl ArchiveObserver for StreamObs<'_, '_> {
    fn archive_updated(&self, delta: &ArchiveDelta) {
        // Render only while someone is listening — an unsubscribed (or
        // already-flushed) job skips the render cost entirely, and the
        // settlement catch-up covers whatever is skipped.
        if !sync::lock(&self.shared.sched).listening(self.id) {
            return;
        }
        let added: Vec<Value> = delta
            .added
            .iter()
            .map(|e| entry_to_value(self.plan, e))
            .collect();
        let removed: Vec<String> = delta
            .removed
            .iter()
            .map(|e| entry_bindings(self.plan, e))
            .collect();
        let (id, version) = (self.id, delta.version);
        let sinks = sync::lock(&self.shared.sched).stream_delta(id, version, &added, &removed);
        if sinks.is_empty() {
            return;
        }
        self.shared
            .counters
            .stream_deltas
            .fetch_add(1, Ordering::Relaxed);
        let ev = JobEvent::Delta {
            id,
            version,
            added,
            removed,
        };
        for sink in &sinks {
            sink(&ev);
        }
    }
}

fn run_job(shared: &Shared, run: Run) {
    let Run {
        id,
        spec,
        cancel,
        submitted_at,
        entry,
        deadline,
    } = run;
    let c = &shared.counters;
    let picked_up = Instant::now();
    let level = {
        let mut ov = sync::lock(&shared.observed);
        ov.latencies.queue_wait.record(picked_up - submitted_at);
        ov.model.observe_queue_wait(picked_up - submitted_at);
        ov.controller.level()
    };

    // Brownout: while the engine is Degraded or Shedding the job runs
    // with axis-wise *tightened* caps. The result is a valid (possibly
    // coarser) ε-Pareto archive, flagged in `stats.brownout` and never
    // cached.
    let mark = (level >= PressureLevel::Degraded).then(|| {
        c.brownout_jobs.fetch_add(1, Ordering::Relaxed);
        BrownoutMark {
            level: level.as_str(),
            budget: spec.budget.tighten(&shared.config.brownout.degraded_budget),
        }
    });

    // A panic inside planning/generation must not lose the job: it is
    // marked Failed, then the panic is re-raised so the supervisor retires
    // this thread and spawns a replacement.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(fault) = fairsqg_faults::fire("worker.run") {
            return Err(match fault {
                Fault::Error(m) => m,
                Fault::ReturnEarly => "job aborted (injected)".to_string(),
            });
        }
        // Warm state is keyed by the *pinned* epoch: a job admitted just
        // before a reload warms (or reuses) its own epoch's tables, never
        // the new graph's.
        let warm = shared
            .config
            .warm_state
            .then(|| shared.registry.warm_state(&spec.graph, entry.epoch));
        let plan_started = Instant::now();
        let plan = match &warm {
            Some(w) => plan_spec_cached(&entry.graph, &spec, w)?,
            None => plan_spec(&entry.graph, &spec)?,
        };
        let planned = Instant::now();
        let shared_div = warm.as_ref().map(|w| {
            w.diversity_cache(
                &entry.graph,
                plan.template.output_label(),
                &diversity_for_spec(&spec),
            )
        });
        // Streaming jobs watch the anytime loop's archive; observation is
        // passive, so the archive (and the rendered result) stays
        // bit-identical to an unobserved run.
        let observer = spec.subscribe.then_some(StreamObs {
            shared,
            id,
            plan: &plan,
        });
        let out = run_plan_observed(
            &plan,
            &spec,
            &cancel,
            shared_div.as_ref(),
            mark.map(|m| m.budget),
            observer.as_ref().map(|o| o as &dyn ArchiveObserver),
        );
        let generated = Instant::now();
        let rendered = generated_to_value_with(&plan, &out, mark.as_ref());
        let stages = [
            planned - plan_started,
            generated - planned,
            generated.elapsed(),
        ];
        for (counter, value) in [
            (&c.eval_verified, out.stats.verified),
            (&c.eval_cache_hits, out.stats.cache_hits),
            (&c.match_index_candidates, out.stats.index_candidates),
            (&c.match_scan_candidates, out.stats.scan_candidates),
            (&c.match_scan_fallbacks, out.stats.scan_fallbacks),
            (&c.match_pool_restrictions, out.stats.pool_restrictions),
            (&c.match_order_replans, out.stats.order_replans),
            (&c.match_cand_memo_hits, out.stats.cand_memo_hits),
        ] {
            counter.fetch_add(value, Ordering::Relaxed);
        }
        if out.stats.budget_tripped.is_some() {
            c.budget_trips.fetch_add(1, Ordering::Relaxed);
        }
        Ok::<_, String>((Arc::new(rendered), out.truncated, stages))
    }));

    // Feed the admission predictor whatever happened: service time for
    // the model, and — for deadline-bearing jobs — whether the deadline
    // was held, counted from submission (the job's token has been ticking
    // since then, so a job the queue delayed and the deadline then cut
    // short is a miss even though its run was brief). Observed before
    // settling so a follower-promotion requeue already sees fresh numbers.
    {
        let mut ov = sync::lock(&shared.observed);
        ov.model
            .observe_service(plan_key(&spec), picked_up.elapsed());
        if let Some(d) = deadline {
            let missed = submitted_at.elapsed() > d;
            ov.miss_ewma.observe(if missed { 1.0 } else { 0.0 });
            if missed {
                c.deadline_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Ok(Ok((_, _, [plan, generate, render]))) = &outcome {
            ov.latencies.plan.record(*plan);
            ov.latencies.generate.record(*generate);
            ov.latencies.render.record(*render);
        }
    }

    let settle = |outcome| shared.transition(|s, fx| s.settle(id, outcome, c, fx));
    match outcome {
        Ok(Ok((result, truncated, _))) => {
            if !truncated && mark.is_none() {
                // Partial archives are deadline/budget artifacts and
                // brownout archives reflect degraded caps; only complete,
                // nominally-resourced results are worth sharing across
                // requests. The insert is fenced: a panic here (e.g.
                // injected through the `cache.insert` fail point) poisons
                // the cache lock but the job still completes, and later
                // lock takers recover.
                let key = spec.fingerprint(entry.epoch);
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    let mut cache = sync::lock(&shared.cache);
                    match fairsqg_faults::fire("cache.insert") {
                        Some(_) => {} // injected: serve the result uncached
                        None => cache.put(&key, Arc::clone(&result)),
                    }
                }));
            }
            // A brownout archive still serves coalesced followers: it is
            // a valid (flagged) answer to exactly the job they submitted,
            // and re-running them would churn work precisely while the
            // engine is overloaded.
            settle(Settled::Done { result, truncated });
        }
        Ok(Err(message)) => settle(Settled::Failed(message)),
        Err(panic) => {
            c.job_panics.fetch_add(1, Ordering::Relaxed);
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            settle(Settled::Failed(format!("panic: {message}")));
            // The thread's state can't be trusted after an arbitrary
            // panic; re-raise so WorkerGuard replaces this worker.
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AlgoKind, DEFAULT_PRIORITY};
    use fairsqg_datagen::{social_graph, SocialConfig};
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    fn spec(lambda: f64, request_key: Option<&str>) -> JobSpec {
        JobSpec {
            graph: "g".into(),
            template: "node u0 : director\nnode u1 : user\nedge u1 -recommend-> u0\n\
                       where u1.yearsOfExp >= ?\noutput u0\n"
                .into(),
            group_attr: "gender".into(),
            cover: 3,
            algo: AlgoKind::EnumQGen,
            threads: 1,
            eps: 0.05,
            lambda,
            deadline_ms: None,
            budget: MatchBudget::UNLIMITED,
            request_key: request_key.map(str::to_string),
            priority: DEFAULT_PRIORITY,
            client: None,
            subscribe: false,
        }
    }

    fn registry(directors: usize) -> Arc<GraphRegistry> {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert(
            "g",
            social_graph(SocialConfig {
                directors,
                majority_share: 0.6,
                seed: 9,
            }),
        );
        registry
    }

    fn wait_settled(engine: &Engine, id: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !engine.status(id).expect("job exists").state.is_terminal() {
            assert!(Instant::now() < deadline, "job {id} never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Settled records are FIFO-evicted beyond `dedup_entries`; unsettled
    /// ones never are, and a request key lives exactly as long as the
    /// record it names.
    #[test]
    fn job_table_keeps_a_bounded_window_of_settled_records() {
        const CAP: usize = 4;
        let engine = Engine::start(
            registry(60),
            EngineConfig {
                workers: 2,
                dedup_entries: CAP,
                ..EngineConfig::default()
            },
        );

        // A job that cannot settle until the test lets it: its sink,
        // attached at admission, parks the worker on the first live
        // archive delta.
        let (release, parked) = mpsc::channel::<()>();
        let parked = Mutex::new(parked);
        let first = AtomicBool::new(true);
        let sink: EventSink = Arc::new(move |_: &JobEvent| {
            if first.swap(false, Ordering::SeqCst) {
                let _ = sync::lock(&parked).recv();
            }
        });
        let held = engine.submit_streaming(spec(0.9, None), sink).unwrap();

        // 3×CAP more jobs settle one after another: unique runs and cache
        // hits alike, the first of them keyed.
        let oldest = engine.submit(spec(0.1, Some("k-old"))).unwrap();
        wait_settled(&engine, oldest);
        let mut ids = vec![oldest];
        for i in 1..3 * CAP {
            let keyed = (i == 3 * CAP - 2).then_some("k-new");
            let id = engine
                .submit(spec(0.1 * (1 + i % 3) as f64, keyed))
                .unwrap();
            wait_settled(&engine, id);
            ids.push(id);
        }
        let newest = *ids.last().unwrap();

        let readable: Vec<JobStatus> = (1..=newest).filter_map(|id| engine.status(id)).collect();
        let settled = readable.iter().filter(|s| s.state.is_terminal()).count();
        assert!(settled <= CAP, "{settled} settled records kept");
        assert!(
            readable.len() <= CAP + 1,
            "{} records for {CAP} settled + 1 unsettled",
            readable.len()
        );
        assert!(engine.status(oldest).is_none(), "the oldest id is gone");
        assert!(engine.result(oldest).is_none());
        assert!(engine.result(newest).is_some(), "the newest is intact");
        assert!(
            !engine.status(held).unwrap().state.is_terminal(),
            "the unsettled job outlived 3×CAP settlements"
        );

        // Inside the window a keyed replay dedups to the original id;
        // past it the key went with its record and names a fresh job.
        let replayed = engine.submit(spec(0.1, Some("k-new"))).unwrap();
        assert_eq!(replayed, ids[3 * CAP - 2]);
        let reissued = engine.submit(spec(0.1, Some("k-old"))).unwrap();
        assert!(reissued > newest);

        release.send(()).unwrap();
        wait_settled(&engine, held);
        assert!(engine.result(held).is_some());
        engine.shutdown();
    }

    /// A job's deadline token ticks from admission, so a deadline miss is
    /// measured from submission too: a job that queued for most of its
    /// deadline and was then cut short ran only briefly, and is a miss all
    /// the same — the brownout ladder must see the misses queueing causes.
    #[test]
    fn deadline_misses_count_the_time_spent_queued() {
        let engine = Engine::start(
            registry(4000),
            EngineConfig {
                workers: 1,
                admission_control: false,
                cache_entries: 0,
                ..EngineConfig::default()
            },
        );
        let ids: Vec<u64> = (0..12)
            .map(|i| {
                let mut s = spec(0.05 + 0.07 * i as f64, None);
                s.deadline_ms = Some(9);
                engine.submit(s).unwrap()
            })
            .collect();
        let mut truncated = 0;
        for &id in &ids {
            wait_settled(&engine, id);
            truncated += u64::from(engine.status(id).unwrap().truncated);
        }
        let stats = engine.stats_value();
        let pressure = stats.get("pressure").unwrap();
        let misses = pressure.get("deadline_misses").and_then(Value::as_u64);
        let miss_rate = pressure.get("miss_rate").and_then(Value::as_f64);
        // Nothing but the deadline truncates these jobs, and a job its
        // deadline cut short has by definition outlived it.
        assert!(
            misses >= Some(truncated) && (truncated == 0 || miss_rate > Some(0.0)),
            "{truncated} of 12 results truncated by their deadline, \
             yet deadline_misses = {misses:?}, miss_rate = {miss_rate:?}"
        );
        engine.shutdown();
    }

    /// Shutdown signals the watchdog instead of waiting out its tick
    /// (250 ms at the default 2 s grace).
    #[test]
    fn shutdown_of_an_idle_engine_does_not_wait_for_the_watchdog_tick() {
        let engine = Engine::start(registry(10), EngineConfig::default());
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        engine.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(50), "shutdown took {took:?}");
    }
}
