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
//! budgets and pair-sampling while pressure lasts, and at the top level
//! low-priority submissions are shed. A **watchdog** escalates past
//! cooperative cancellation for workers stuck beyond deadline + grace
//! (hard-stop flag, then declaring the worker lost and respawning), and
//! [`Engine::begin_drain`] bounces queued jobs with a typed `Drained`
//! outcome so clients replay them elsewhere via their request keys.

use crate::cache::{CacheStats, LruCache};
use crate::job::{
    diversity_for_spec, entry_bindings, entry_to_value, generated_to_value_with, plan_key,
    plan_spec, plan_spec_cached, run_plan_observed, BrownoutMark, JobSpec, Plan,
};
use crate::overload::{
    BrownoutConfig, Ewma, PressureController, PressureInputs, PressureLevel, ServiceModel,
};
use crate::registry::{GraphEntry, GraphRegistry, DEFAULT_WARM_BUDGET_BYTES};
use crate::sync;
use fairsqg_algo::{ArchiveDelta, ArchiveObserver, CancelToken, MatchBudget};
use fairsqg_faults::Fault;
use fairsqg_wire::Value;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
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

struct JobRecord {
    spec: JobSpec,
    state: JobState,
    cancel: CancelToken,
    result: Option<Arc<Value>>,
    error: Option<String>,
    from_cache: bool,
    truncated: bool,
    submitted_at: Instant,
    /// Effective deadline (spec's or the engine default) — what the
    /// watchdog measures overruns against.
    deadline: Option<Duration>,
    /// When a worker picked the job up (`Running` and later).
    started_at: Option<Instant>,
    /// When the watchdog escalated to a hard stop, if it did.
    hard_stopped_at: Option<Instant>,
    /// The graph pinned at admission; a reload between admission and
    /// execution must not change what a job runs against (its fingerprint
    /// was computed for this epoch). Cleared on completion.
    entry: Option<GraphEntry>,
    /// The cache/coalescing fingerprint computed at admission.
    fingerprint: Option<String>,
    /// Jobs coalesced onto this one: they are served from this job's
    /// result when it completes cleanly, or promoted/requeued otherwise.
    followers: Vec<u64>,
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

/// A subscriber callback. Called from engine worker threads — it must be
/// cheap and must **not** call back into the [`Engine`] (the engine may
/// hold internal locks while delivering).
pub type EventSink = Arc<dyn Fn(&JobEvent) + Send + Sync>;

/// Per-job streaming state: the registered sinks plus the set of entry
/// keys already delivered via deltas (what the settlement catch-up diffs
/// the final result against).
struct StreamState {
    sinks: Vec<EventSink>,
    streamed: BTreeSet<String>,
    last_version: u64,
}

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

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    truncated: AtomicU64,
    // Per-evaluator memoization totals, summed over completed jobs.
    eval_verified: AtomicU64,
    eval_cache_hits: AtomicU64,
    // Matcher hot-path totals, summed over completed jobs: the candidate
    // computation paths, the cross-call memo and the adaptive re-plans.
    match_index_candidates: AtomicU64,
    match_scan_candidates: AtomicU64,
    match_scan_fallbacks: AtomicU64,
    match_pool_restrictions: AtomicU64,
    match_shard_skips: AtomicU64,
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
    coalesced_attached: AtomicU64,
    coalesced_served: AtomicU64,
    coalesced_requeued: AtomicU64,
    // Overload control: typed rejections by cause, queued victims evicted
    // in favor of higher-priority submissions, and jobs run degraded.
    deadline_rejected: AtomicU64,
    quota_rejected: AtomicU64,
    shed: AtomicU64,
    shed_evicted: AtomicU64,
    brownout_jobs: AtomicU64,
    deadline_misses: AtomicU64,
    // Watchdog escalations and drain bounces.
    watchdog_hard_stops: AtomicU64,
    watchdog_lost_workers: AtomicU64,
    drained: AtomicU64,
    // Streaming: live delta events published, settlement catch-up deltas
    // emitted, and subscriptions that reached their Settled event.
    stream_deltas: AtomicU64,
    stream_catchups: AtomicU64,
    stream_settled: AtomicU64,
}

struct QueueState {
    queue: VecDeque<u64>,
    shutdown: bool,
}

/// Job records by id, plus the `request_key` → job id memory that makes
/// resubmission idempotent. Settled records stay readable for `status`,
/// `result` and key replays, with FIFO eviction beyond `capacity`: large
/// enough that a polling or retrying client always finds its job, bounded
/// so the table (and every scan over it) cannot grow with the number of
/// jobs ever submitted. A key is forgotten with its record, so a replay
/// never resolves to an evicted id.
struct JobTable {
    records: HashMap<u64, JobRecord>,
    keys: HashMap<String, u64>,
    /// Ids of settled records, oldest settlement first.
    settled: VecDeque<u64>,
    capacity: usize,
}

impl JobTable {
    fn new(capacity: usize) -> Self {
        Self {
            records: HashMap::new(),
            keys: HashMap::new(),
            settled: VecDeque::new(),
            capacity,
        }
    }

    /// Makes room by evicting the oldest settled records at capacity,
    /// then adds `record`, remembering its `request_key` (the first job
    /// to claim a key keeps it). Eviction runs here because this is the
    /// only place the table grows; a record inserted already settled (a
    /// cache hit) is therefore never evicted by its own insertion.
    fn insert(&mut self, id: u64, record: JobRecord) {
        while self.settled.len() >= self.capacity {
            let Some(old) = self.settled.pop_front() else {
                break;
            };
            if let Some(key) = self.records.remove(&old).and_then(|r| r.spec.request_key) {
                if self.keys.get(&key) == Some(&old) {
                    self.keys.remove(&key);
                }
            }
        }
        if let Some(key) = &record.spec.request_key {
            self.keys.entry(key.clone()).or_insert(id);
        }
        if record.state.is_terminal() {
            self.settled.push_back(id);
        }
        self.records.insert(id, record);
    }
}

/// Mutable overload-control state. The mutex guarding it is a **leaf**:
/// it is never held while acquiring (or waiting on) any other engine
/// lock, so it cannot participate in a lock cycle.
struct OverloadState {
    /// Per-template service-time and queue-wait EWMAs.
    model: ServiceModel,
    /// The hysteretic pressure state machine.
    controller: PressureController,
    /// Unsettled jobs per client identity (quota accounting).
    quotas: HashMap<String, usize>,
    /// EWMA of deadline misses per completed deadline-bearing job.
    miss_ewma: Ewma,
    /// Warm-pool eviction total at the previous pressure evaluation.
    last_warm_evictions: u64,
}

struct Shared {
    config: EngineConfig,
    registry: Arc<GraphRegistry>,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    jobs: Mutex<JobTable>,
    /// Fingerprint → leader job id for every admitted-but-unsettled job.
    /// Lock order everywhere: `inflight` → `queue` → `jobs`.
    inflight: Mutex<HashMap<String, u64>>,
    cache: Mutex<LruCache<Arc<Value>>>,
    counters: Counters,
    latencies: Mutex<Latencies>,
    next_id: AtomicU64,
    // Supervision state: live handles (replacements register themselves
    // here), a name sequence for respawned threads, and the live count.
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    worker_seq: AtomicU64,
    workers_alive: AtomicU64,
    /// Streaming subscriptions by job id. Leaf-ish: taken after `jobs`
    /// where both are needed ([`flush_settled`]), never the other way.
    subscriptions: Mutex<HashMap<u64, StreamState>>,
    /// Leaf lock (see [`OverloadState`]).
    overload: Mutex<OverloadState>,
    /// Mirror of the controller's level for lock-free reads on the worker
    /// hot path (0 = nominal, 1 = degraded, 2 = shedding).
    level: AtomicU8,
    /// Set by [`Engine::begin_drain`]; rejects new submissions.
    draining: AtomicBool,
    /// Workers the watchdog replaced while their predecessor was still
    /// wedged: when the original thread eventually returns, one surplus
    /// worker exits voluntarily so the pool converges back to size.
    workers_excess: AtomicI64,
    watchdog: Mutex<Option<std::thread::JoinHandle<()>>>,
}

fn level_to_u8(level: PressureLevel) -> u8 {
    match level {
        PressureLevel::Nominal => 0,
        PressureLevel::Degraded => 1,
        PressureLevel::Shedding => 2,
    }
}

fn level_from_u8(v: u8) -> PressureLevel {
    match v {
        0 => PressureLevel::Nominal,
        1 => PressureLevel::Degraded,
        _ => PressureLevel::Shedding,
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
            cache: Mutex::new(LruCache::new(config.cache_entries)),
            config,
            registry,
            queue: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            jobs: Mutex::new(JobTable::new(config.dedup_entries)),
            inflight: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            latencies: Mutex::new(Latencies::default()),
            next_id: AtomicU64::new(1),
            subscriptions: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
            worker_seq: AtomicU64::new(pool),
            workers_alive: AtomicU64::new(0),
            overload: Mutex::new(OverloadState {
                model: ServiceModel::default(),
                controller: PressureController::new(config.brownout),
                quotas: HashMap::new(),
                miss_ewma: Ewma::new(0.2),
                last_warm_evictions: 0,
            }),
            level: AtomicU8::new(0),
            draining: AtomicBool::new(false),
            workers_excess: AtomicI64::new(0),
            watchdog: Mutex::new(None),
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
            *sync::lock(&shared.watchdog) = Some(handle);
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
    pub fn submit(&self, mut spec: JobSpec) -> Result<u64, SubmitError> {
        // Idempotent replay: a retried submission (same request_key) maps
        // to the job admitted the first time, whatever state it is in.
        if let Some(key) = &spec.request_key {
            let replayed = sync::lock(&self.shared.jobs).keys.get(key).copied();
            if let Some(id) = replayed {
                self.shared
                    .counters
                    .dedup_hits
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(id);
            }
        }

        if let Some(fault) = fairsqg_faults::fire("queue.admit") {
            self.shared
                .counters
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            let message = match fault {
                Fault::Error(m) => m,
                Fault::ReturnEarly => "admission rejected (injected)".to_string(),
            };
            return Err(SubmitError::Internal(message));
        }

        // A draining engine completes what it has but takes nothing new;
        // the typed rejection tells clients to replay elsewhere.
        if self.shared.draining.load(Ordering::SeqCst) {
            self.shared
                .counters
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Draining);
        }

        let entry = self
            .shared
            .registry
            .get(&spec.graph)
            .ok_or_else(|| SubmitError::UnknownGraph(spec.graph.clone()))?;
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);

        // Per-job caps override the engine defaults axis by axis; the
        // merged budget is what runs and what the cache keys on.
        spec.budget = spec.budget.or(&self.shared.config.budget);

        let key = spec.fingerprint(entry.epoch);
        let cached = sync::lock(&self.shared.cache).get(&key);
        if let Some(result) = cached {
            let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
            let truncated = result
                .get("truncated")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            sync::lock(&self.shared.jobs).insert(
                id,
                JobRecord {
                    spec,
                    state: JobState::Done,
                    cancel: CancelToken::new(),
                    result: Some(result),
                    error: None,
                    from_cache: true,
                    truncated,
                    submitted_at: Instant::now(),
                    deadline: None,
                    started_at: None,
                    hard_stopped_at: None,
                    entry: None,
                    fingerprint: None,
                    followers: Vec::new(),
                },
            );
            self.shared
                .counters
                .completed
                .fetch_add(1, Ordering::Relaxed);
            return Ok(id);
        }

        let deadline = spec
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.shared.config.default_deadline);

        // The overload gate: one leaf-lock session deciding shedding,
        // deadline admission, and the quota reservation. A reservation
        // made here is released on every later rejection path.
        let quota_client = self.overload_gate(&spec, deadline)?;

        let cancel = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };

        // Coalesce: an identical in-flight job (same fingerprint, still
        // queued or running) becomes this submission's leader — the new
        // job attaches as a follower and is served from the leader's
        // result instead of occupying a queue slot. The inflight guard is
        // held across admission so a settling leader cannot slip away
        // between the lookup and the attach. Lock order:
        // inflight → queue → jobs.
        let mut inflight = self
            .shared
            .config
            .coalesce
            .then(|| sync::lock(&self.shared.inflight));
        if let Some(map) = inflight.as_deref_mut() {
            if let Some(&leader) = map.get(&key) {
                let mut jobs = sync::lock(&self.shared.jobs);
                let attachable = jobs
                    .records
                    .get(&leader)
                    .is_some_and(|r| matches!(r.state, JobState::Queued | JobState::Running));
                if attachable {
                    let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
                    jobs.insert(
                        id,
                        JobRecord {
                            spec,
                            state: JobState::Queued,
                            cancel,
                            result: None,
                            error: None,
                            from_cache: false,
                            truncated: false,
                            submitted_at: Instant::now(),
                            deadline,
                            started_at: None,
                            hard_stopped_at: None,
                            entry: Some(entry),
                            fingerprint: Some(key),
                            followers: Vec::new(),
                        },
                    );
                    if let Some(r) = jobs.records.get_mut(&leader) {
                        r.followers.push(id);
                    }
                    drop(jobs);
                    self.shared
                        .counters
                        .coalesced_attached
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(id);
                }
                // The mapped job already settled; fall through and lead.
                map.remove(&key);
            }
        }

        let mut q = sync::lock(&self.shared.queue);
        if q.shutdown {
            drop(q);
            drop(inflight);
            self.release_quota(quota_client.as_deref());
            return Err(SubmitError::ShuttingDown);
        }
        let mut evicted: Option<(u64, Option<String>)> = None;
        if q.queue.len() >= self.shared.config.queue_capacity {
            // At the Shedding level a full queue prefers its
            // highest-priority work: evict the lowest-priority waiter
            // (strictly below the newcomer, follower-free so nobody else
            // rides on it) instead of bouncing the newcomer.
            let level = level_from_u8(self.shared.level.load(Ordering::SeqCst));
            if level == PressureLevel::Shedding {
                let mut jobs = sync::lock(&self.shared.jobs);
                let victim = q
                    .queue
                    .iter()
                    .enumerate()
                    .filter_map(|(pos, &jid)| {
                        let r = jobs.records.get(&jid)?;
                        (r.spec.priority < spec.priority && r.followers.is_empty()).then_some((
                            pos,
                            jid,
                            r.spec.priority,
                        ))
                    })
                    .min_by_key(|&(_, _, p)| p);
                if let Some((pos, jid, _)) = victim {
                    q.queue.remove(pos);
                    if let Some(r) = jobs.records.get_mut(&jid) {
                        r.state = JobState::Failed;
                        r.error = Some("shed: displaced by higher-priority work".to_string());
                        r.entry = None;
                        evicted = Some((jid, r.spec.client.clone()));
                        if let Some(fp) = r.fingerprint.clone() {
                            if let Some(map) = inflight.as_deref_mut() {
                                if map.get(&fp) == Some(&jid) {
                                    map.remove(&fp);
                                }
                            }
                        }
                        jobs.settled.push_back(jid);
                    }
                    self.shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .counters
                        .shed_evicted
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            if evicted.is_none() {
                drop(q);
                drop(inflight);
                self.release_quota(quota_client.as_deref());
                self.shared
                    .counters
                    .rejected
                    .fetch_add(1, Ordering::Relaxed);
                let retry_after_ms = self.retry_hint(1);
                return Err(SubmitError::Overloaded {
                    capacity: self.shared.config.queue_capacity,
                    retry_after_ms,
                });
            }
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        sync::lock(&self.shared.jobs).insert(
            id,
            JobRecord {
                spec,
                state: JobState::Queued,
                cancel,
                result: None,
                error: None,
                from_cache: false,
                truncated: false,
                submitted_at: Instant::now(),
                deadline,
                started_at: None,
                hard_stopped_at: None,
                entry: Some(entry),
                fingerprint: Some(key.clone()),
                followers: Vec::new(),
            },
        );
        if let Some(map) = inflight.as_deref_mut() {
            map.insert(key, id);
        }
        q.queue.push_back(id);
        drop(q);
        drop(inflight);
        if let Some((victim, victim_client)) = evicted {
            self.release_quota(victim_client.as_deref());
            // The evicted job settled Failed inline above; deliver its
            // streaming events (if anyone subscribed) now that every
            // lock is released.
            flush_settled(&self.shared, victim);
        }
        self.shared.work_ready.notify_one();
        Ok(id)
    }

    /// One overload-gate pass under the leaf lock: refresh the pressure
    /// level, shed if warranted, check deadline admission, and reserve a
    /// quota slot. Returns the client whose slot was reserved (released
    /// by [`Self::release_quota`] on later rejection, or at settlement).
    fn overload_gate(
        &self,
        spec: &JobSpec,
        deadline: Option<Duration>,
    ) -> Result<Option<String>, SubmitError> {
        let depth = self.queue_depth();
        let capacity = self.shared.config.queue_capacity.max(1);
        let warm_evictions = if self.shared.config.warm_state {
            self.shared.registry.warm_stats().evictions
        } else {
            0
        };
        let workers = self.shared.config.workers.max(1);
        let mut ov = sync::lock(&self.shared.overload);

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
        self.shared
            .level
            .store(level_to_u8(level), Ordering::SeqCst);

        if level == PressureLevel::Shedding
            && spec.priority < self.shared.config.brownout.shed_below_priority
        {
            let retry_after_ms = hint_ms(ov.model.predict_completion_ms(
                plan_key(spec),
                depth,
                workers,
            ));
            drop(ov);
            self.shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            self.shared
                .counters
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Shed { retry_after_ms });
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
                let predicted = ov
                    .model
                    .predict_completion_ms(plan_key(spec), depth, workers);
                if forced || (depth > 0 && predicted > deadline_ms as f64) {
                    let predicted_ms = predicted.ceil() as u64;
                    let retry_after_ms = hint_ms(predicted - deadline_ms as f64);
                    drop(ov);
                    self.shared
                        .counters
                        .deadline_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .counters
                        .rejected
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::DeadlineUnmeetable {
                        deadline_ms,
                        predicted_ms,
                        retry_after_ms,
                    });
                }
            }
        }

        // Quota: reserve the slot now (check-and-increment under the one
        // lock), so two racing submissions cannot both squeeze under the
        // limit.
        let limit = self.shared.config.client_quota;
        if limit > 0 {
            if let Some(client) = &spec.client {
                let used = ov.quotas.entry(client.clone()).or_insert(0);
                if *used >= limit {
                    let retry_after_ms =
                        hint_ms(ov.model.predict_service_ms(plan_key(spec)) / workers as f64);
                    drop(ov);
                    self.shared
                        .counters
                        .quota_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .counters
                        .rejected
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::QuotaExceeded {
                        client: client.clone(),
                        limit,
                        retry_after_ms,
                    });
                }
                *used += 1;
                return Ok(Some(client.clone()));
            }
        }
        Ok(None)
    }

    /// Releases a quota slot reserved by [`Self::overload_gate`].
    fn release_quota(&self, client: Option<&str>) {
        let Some(client) = client else { return };
        let mut ov = sync::lock(&self.shared.overload);
        if let Some(used) = ov.quotas.get_mut(client) {
            *used = used.saturating_sub(1);
            if *used == 0 {
                ov.quotas.remove(client);
            }
        }
    }

    /// A retry hint for `slots` queue slots' worth of predicted drain.
    fn retry_hint(&self, slots: usize) -> u64 {
        let workers = self.shared.config.workers.max(1);
        let ov = sync::lock(&self.shared.overload);
        let per_job = ov.model.overall_service_ms().unwrap_or(25.0);
        hint_ms(per_job * slots as f64 / workers as f64)
    }

    /// Snapshot of a job's state.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let jobs = sync::lock(&self.shared.jobs);
        jobs.records.get(&id).map(|r| JobStatus {
            id,
            state: r.state,
            from_cache: r.from_cache,
            truncated: r.truncated,
            error: r.error.clone(),
        })
    }

    /// The result of a `Done` job (shared, render-once).
    pub fn result(&self, id: u64) -> Option<Arc<Value>> {
        let jobs = sync::lock(&self.shared.jobs);
        jobs.records.get(&id).and_then(|r| r.result.clone())
    }

    /// Requests cancellation of a job. Queued jobs are skipped by the
    /// worker; running jobs stop at the next verification boundary.
    /// Returns `false` for unknown ids.
    pub fn cancel(&self, id: u64) -> bool {
        let jobs = sync::lock(&self.shared.jobs);
        match jobs.records.get(&id) {
            Some(r) => {
                r.cancel.cancel();
                true
            }
            None => false,
        }
    }

    /// Registers `sink` for a job's [`JobEvent`] stream. Returns `false`
    /// for unknown ids. If the job has already settled, the sink receives
    /// its catch-up delta (for `Done` jobs) and `Settled` event
    /// synchronously before this returns. A sink attached while the job
    /// is mid-run misses nothing material: entries it never saw as live
    /// deltas arrive in the settlement catch-up.
    pub fn subscribe(&self, id: u64, sink: EventSink) -> bool {
        if !sync::lock(&self.shared.jobs).records.contains_key(&id) {
            return false;
        }
        {
            let mut subs = sync::lock(&self.shared.subscriptions);
            let st = subs.entry(id).or_insert_with(|| StreamState {
                sinks: Vec::new(),
                streamed: BTreeSet::new(),
                last_version: 0,
            });
            st.sinks.push(sink);
        }
        // The job may have settled between the existence check and the
        // registration; flushing here makes the race benign (the flush
        // removes the subscription atomically, so events fire once).
        flush_settled(&self.shared, id);
        true
    }

    /// [`Self::submit`] with a [`JobEvent`] subscription attached before
    /// the job can settle: forces `spec.subscribe` on (so the worker
    /// streams archive deltas as the front improves) and registers `sink`
    /// for the job's event stream. Cache hits and coalesced followers
    /// stream too — their entire entry set arrives as one settlement
    /// catch-up delta.
    pub fn submit_streaming(&self, mut spec: JobSpec, sink: EventSink) -> Result<u64, SubmitError> {
        spec.subscribe = true;
        let id = self.submit(spec)?;
        self.subscribe(id, sink);
        Ok(id)
    }

    /// Current queue depth (admitted, not yet picked up).
    pub fn queue_depth(&self) -> usize {
        sync::lock(&self.shared.queue).queue.len()
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        sync::lock(&self.shared.cache).stats()
    }

    /// Worker threads currently alive (dips briefly during a respawn).
    pub fn workers_alive(&self) -> u64 {
        self.shared.workers_alive.load(Ordering::SeqCst)
    }

    /// The current pressure level (last admission/settlement evaluation).
    pub fn pressure_level(&self) -> PressureLevel {
        level_from_u8(self.shared.level.load(Ordering::SeqCst))
    }

    /// Whether [`Self::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Starts a graceful drain: new submissions are rejected with
    /// [`SubmitError::Draining`], every still-queued job (and its
    /// followers) is settled as [`JobState::Drained`] so clients replay
    /// it elsewhere via their request keys, and running jobs finish
    /// normally. Returns `(bounced, running)`. Idempotent; the workers
    /// stay up for status/result traffic until [`Self::shutdown`].
    pub fn begin_drain(&self) -> (usize, usize) {
        self.shared.draining.store(true, Ordering::SeqCst);
        let queued: Vec<u64> = {
            let mut q = sync::lock(&self.shared.queue);
            q.queue.drain(..).collect()
        };
        let bounced = queued.len();
        for id in queued {
            settle_job(&self.shared, id, Settled::Drained);
        }
        let running = sync::lock(&self.shared.jobs)
            .records
            .values()
            .filter(|r| r.state == JobState::Running)
            .count();
        (bounced, running)
    }

    /// Whether a drain has finished: draining was requested and nothing
    /// is queued or running any more.
    pub fn drain_complete(&self) -> bool {
        if !self.is_draining() {
            return false;
        }
        if !sync::lock(&self.shared.queue).queue.is_empty() {
            return false;
        }
        !sync::lock(&self.shared.jobs)
            .records
            .values()
            .any(|r| matches!(r.state, JobState::Queued | JobState::Running))
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
            ])
        } else {
            Value::object([("enabled", Value::from(false))])
        };
        let lat = sync::lock(&self.shared.latencies);
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
            ("queue_depth", Value::from(self.queue_depth())),
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
            ("pressure", {
                let ov = sync::lock(&self.shared.overload);
                Value::object([
                    ("level", Value::from(self.pressure_level().as_str())),
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
                ])
            }),
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
                    ("draining", Value::from(self.is_draining())),
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
                    (
                        "active",
                        Value::from(sync::lock(&self.shared.subscriptions).len() as u64),
                    ),
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
                        "shard_skips",
                        Value::from(c.match_shard_skips.load(Ordering::Relaxed)),
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
            (
                "latency",
                Value::object([
                    ("queue_wait", lat.queue_wait.to_value()),
                    ("plan", lat.plan.to_value()),
                    ("generate", lat.generate.to_value()),
                    ("render", lat.render.to_value()),
                ]),
            ),
        ])
    }

    /// Drains the queue and stops the workers: already-admitted jobs run to
    /// completion (their deadlines still apply), new submissions are
    /// rejected with [`SubmitError::ShuttingDown`].
    pub fn shutdown(&self) {
        {
            let mut q = sync::lock(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        // A dying worker registers its replacement's handle before
        // terminating, so keep draining until the vector stays empty.
        loop {
            let drained: Vec<_> = sync::lock(&self.shared.workers).drain(..).collect();
            if drained.is_empty() {
                break;
            }
            for h in drained {
                let _ = h.join();
            }
        }
        // The watchdog observes the shutdown flag within one poll tick.
        if let Some(h) = sync::lock(&self.shared.watchdog).take() {
            let _ = h.join();
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
    sync::lock(&shared.workers).push(handle);
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
        if std::thread::panicking() && !sync::lock(&self.shared.queue).shutdown {
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
        let id = {
            let mut q = sync::lock(&shared.queue);
            loop {
                if let Some(id) = q.queue.pop_front() {
                    break id;
                }
                if q.shutdown {
                    return;
                }
                q = sync::wait(&shared.work_ready, q);
            }
        };
        run_job(shared, id);
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
/// Jobs with no effective deadline are never escalated — "stuck" is only
/// defined relative to a promise.
fn watchdog_loop(shared: &Arc<Shared>, grace: Duration) {
    let tick = (grace / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
    loop {
        if sync::lock(&shared.queue).shutdown {
            return;
        }
        std::thread::sleep(tick);
        let now = Instant::now();
        let mut lost: Vec<u64> = Vec::new();
        {
            let mut jobs = sync::lock(&shared.jobs);
            for (&id, r) in jobs.records.iter_mut() {
                if r.state != JobState::Running {
                    continue;
                }
                let (Some(started), Some(deadline)) = (r.started_at, r.deadline) else {
                    continue;
                };
                if now.saturating_duration_since(started) <= deadline + grace {
                    continue;
                }
                match r.hard_stopped_at {
                    None => {
                        r.cancel.hard_stop();
                        r.hard_stopped_at = Some(now);
                        shared
                            .counters
                            .watchdog_hard_stops
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Some(at) if now.saturating_duration_since(at) > grace => lost.push(id),
                    Some(_) => {}
                }
            }
        }
        for id in lost {
            shared
                .counters
                .watchdog_lost_workers
                .fetch_add(1, Ordering::Relaxed);
            // Over-provision first, settle second: the pool must not dip
            // below strength while the wedged thread holds its slot. If
            // the original thread ever returns, its settlement is a
            // guarded no-op and one surplus worker exits.
            shared.workers_excess.fetch_add(1, Ordering::SeqCst);
            let seq = shared.worker_seq.fetch_add(1, Ordering::Relaxed);
            spawn_worker(shared, seq);
            settle_job(
                shared,
                id,
                Settled::Failed(
                    "watchdog: worker unresponsive past deadline + grace; job abandoned".into(),
                ),
            );
        }
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
        if !sync::lock(&self.shared.subscriptions).contains_key(&self.id) {
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
        publish_delta(self.shared, self.id, delta.version, added, removed);
    }
}

/// Delivers one live delta to a job's sinks, recording the delivered entry
/// keys so the settlement catch-up knows what the stream already carries.
/// Sinks fire after the subscription lock is released.
fn publish_delta(shared: &Shared, id: u64, version: u64, added: Vec<Value>, removed: Vec<String>) {
    let sinks: Vec<EventSink> = {
        let mut subs = sync::lock(&shared.subscriptions);
        let Some(st) = subs.get_mut(&id) else { return };
        for b in &removed {
            st.streamed.remove(b);
        }
        for v in &added {
            if let Some(b) = v.get("bindings").and_then(Value::as_str) {
                st.streamed.insert(b.to_string());
            }
        }
        st.last_version = version;
        st.sinks.clone()
    };
    shared
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

/// Fires a settled job's terminal events: a catch-up [`JobEvent::Delta`]
/// reconciling the stream with the final entry set (covers cache hits,
/// coalesced followers, rescales, and end-built archives), then the
/// [`JobEvent::Settled`]. Removing the subscription under its lock makes
/// the function idempotent — concurrent callers (a settling worker and a
/// racing [`Engine::subscribe`]) deliver the events exactly once.
fn flush_settled(shared: &Shared, id: u64) {
    let snapshot = {
        let jobs = sync::lock(&shared.jobs);
        match jobs.records.get(&id) {
            Some(r) if r.state.is_terminal() => Some((
                r.state,
                r.truncated,
                r.from_cache,
                r.error.clone(),
                r.result.clone(),
            )),
            _ => None,
        }
    };
    let Some((state, truncated, from_cache, error, result)) = snapshot else {
        return;
    };
    let Some(st) = sync::lock(&shared.subscriptions).remove(&id) else {
        return;
    };
    if state == JobState::Done {
        if let Some(result) = &result {
            let final_entries: Vec<&Value> = result
                .get("entries")
                .and_then(Value::as_array)
                .map(|a| a.iter().collect())
                .unwrap_or_default();
            let final_keys: BTreeSet<&str> = final_entries
                .iter()
                .filter_map(|e| e.get("bindings").and_then(Value::as_str))
                .collect();
            let added: Vec<Value> = final_entries
                .iter()
                .filter(|e| {
                    e.get("bindings")
                        .and_then(Value::as_str)
                        .is_some_and(|b| !st.streamed.contains(b))
                })
                .map(|e| (*e).clone())
                .collect();
            let removed: Vec<String> = st
                .streamed
                .iter()
                .filter(|b| !final_keys.contains(b.as_str()))
                .cloned()
                .collect();
            if !added.is_empty() || !removed.is_empty() {
                shared
                    .counters
                    .stream_catchups
                    .fetch_add(1, Ordering::Relaxed);
                let ev = JobEvent::Delta {
                    id,
                    version: st.last_version + 1,
                    added,
                    removed,
                };
                for sink in &st.sinks {
                    sink(&ev);
                }
            }
        }
    }
    shared
        .counters
        .stream_settled
        .fetch_add(1, Ordering::Relaxed);
    let ev = JobEvent::Settled {
        id,
        state,
        truncated,
        from_cache,
        error,
        result,
    };
    for sink in &st.sinks {
        sink(&ev);
    }
}

/// Terminal outcome of a leader job, consumed by [`settle_job`].
enum Settled {
    Done {
        result: Arc<Value>,
        truncated: bool,
    },
    Failed(String),
    Cancelled,
    /// Bounced by [`Engine::begin_drain`] before running.
    Drained,
}

fn run_job(shared: &Shared, id: u64) {
    // Snapshot what the job needs; the jobs lock is NOT held while running.
    let (spec, cancel, submitted_at, pinned, deadline) = {
        let mut jobs = sync::lock(&shared.jobs);
        let Some(r) = jobs.records.get_mut(&id) else {
            return;
        };
        // A drain or double-settle may have already finished this id.
        if r.state.is_terminal() {
            return;
        }
        // Explicit cancellation skips the job entirely; a lapsed deadline
        // does not — the generation runs and returns immediately with an
        // empty archive flagged truncated, which is what deadline-bound
        // callers are promised.
        if r.cancel.cancel_requested() {
            drop(jobs);
            settle_job(shared, id, Settled::Cancelled);
            return;
        }
        r.state = JobState::Running;
        r.started_at = Some(Instant::now());
        (
            r.spec.clone(),
            r.cancel.clone(),
            r.submitted_at,
            r.entry.clone(),
            r.deadline,
        )
    };
    let picked_up = Instant::now();
    sync::lock(&shared.latencies)
        .queue_wait
        .record(picked_up - submitted_at);
    sync::lock(&shared.overload)
        .model
        .observe_queue_wait(picked_up - submitted_at);

    // Brownout: while the engine is Degraded or Shedding the job runs
    // with axis-wise *tightened* caps. The result is a valid (possibly
    // coarser) ε-Pareto archive, flagged in `stats.brownout` and never
    // cached.
    let level = level_from_u8(shared.level.load(Ordering::SeqCst));
    let mark = (level >= PressureLevel::Degraded).then(|| {
        shared
            .counters
            .brownout_jobs
            .fetch_add(1, Ordering::Relaxed);
        BrownoutMark {
            level: level.as_str(),
            budget: spec.budget.tighten(&shared.config.brownout.degraded_budget),
        }
    });

    // The graph was pinned at admission (reloads must not change what an
    // admitted job runs against); the registry fallback only covers
    // records that predate pinning.
    let entry = match pinned.or_else(|| shared.registry.get(&spec.graph)) {
        Some(e) => e,
        None => {
            settle_job(
                shared,
                id,
                Settled::Failed(format!("graph '{}' disappeared", spec.graph)),
            );
            return;
        }
    };

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
        let render_done = Instant::now();
        {
            let mut lat = sync::lock(&shared.latencies);
            lat.plan.record(planned - plan_started);
            lat.generate.record(generated - planned);
            lat.render.record(render_done - generated);
        }
        shared
            .counters
            .eval_verified
            .fetch_add(out.stats.verified, Ordering::Relaxed);
        shared
            .counters
            .eval_cache_hits
            .fetch_add(out.stats.cache_hits, Ordering::Relaxed);
        let c = &shared.counters;
        for (counter, value) in [
            (&c.match_index_candidates, out.stats.index_candidates),
            (&c.match_scan_candidates, out.stats.scan_candidates),
            (&c.match_scan_fallbacks, out.stats.scan_fallbacks),
            (&c.match_pool_restrictions, out.stats.pool_restrictions),
            (&c.match_shard_skips, out.stats.shard_skips),
            (&c.match_order_replans, out.stats.order_replans),
            (&c.match_cand_memo_hits, out.stats.cand_memo_hits),
        ] {
            counter.fetch_add(value, Ordering::Relaxed);
        }
        if out.stats.budget_tripped.is_some() {
            shared.counters.budget_trips.fetch_add(1, Ordering::Relaxed);
        }
        Ok::<(Arc<Value>, bool), String>((Arc::new(rendered), out.truncated))
    }));

    // Feed the admission predictor whatever happened: service time for
    // the model, and — for deadline-bearing jobs — whether the deadline
    // was held. Observed before settling so a follower-promotion requeue
    // already sees fresh numbers.
    let elapsed = picked_up.elapsed();
    {
        let mut ov = sync::lock(&shared.overload);
        ov.model.observe_service(plan_key(&spec), elapsed);
        if let Some(d) = deadline {
            let missed = elapsed > d;
            ov.miss_ewma.observe(if missed { 1.0 } else { 0.0 });
            if missed {
                shared
                    .counters
                    .deadline_misses
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    match outcome {
        Ok(Ok((result, truncated))) => {
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
            settle_job(shared, id, Settled::Done { result, truncated });
        }
        Ok(Err(message)) => settle_job(shared, id, Settled::Failed(message)),
        Err(panic) => {
            shared.counters.job_panics.fetch_add(1, Ordering::Relaxed);
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            settle_job(shared, id, Settled::Failed(format!("panic: {message}")));
            // The thread's state can't be trusted after an arbitrary
            // panic; re-raise so WorkerGuard replaces this worker.
            resume_unwind(panic);
        }
    }
}

/// Terminal bookkeeping for a job: records the outcome, then deals with
/// any coalesced followers. A clean (non-truncated) result is distributed
/// to every live follower; an unusable outcome — failed, cancelled, or
/// truncated (a partial archive reflects the *leader's* deadline, not the
/// followers') — promotes the first live follower to a fresh leader that
/// inherits the rest, and requeues it. Lock order: inflight → queue →
/// jobs; the requeue push takes the queue lock only after the others are
/// released.
fn settle_job(shared: &Shared, id: u64, outcome: Settled) {
    let served = match &outcome {
        Settled::Done {
            result,
            truncated: false,
        } => Some(Arc::clone(result)),
        _ => None,
    };
    // A drain bounces followers along with their leader: none of them ran,
    // all of them should be replayed elsewhere, so promotion would be
    // exactly wrong.
    let draining = matches!(outcome, Settled::Drained);
    let mut promoted: Option<u64> = None;
    // Client identities whose quota slots free up here; released after the
    // job locks are dropped (the overload mutex is a leaf).
    let mut released: Vec<String> = Vec::new();
    // Jobs that reached a terminal state in this pass; their streaming
    // events fire after every lock is dropped.
    let mut settled_ids: Vec<u64> = Vec::new();
    {
        let mut inflight = sync::lock(&shared.inflight);
        let mut jobs = sync::lock(&shared.jobs);
        let (fingerprint, followers) = match jobs.records.get_mut(&id) {
            Some(r) => {
                // Double-settle guard: the watchdog may declare a job lost
                // while its worker is still wedged; whichever settlement
                // lands first wins and the straggler is a no-op.
                if r.state.is_terminal() {
                    return;
                }
                let fp = r.fingerprint.clone();
                let fw = std::mem::take(&mut r.followers);
                r.entry = None;
                if let Some(c) = &r.spec.client {
                    released.push(c.clone());
                }
                match &outcome {
                    Settled::Done { result, truncated } => {
                        r.state = JobState::Done;
                        r.result = Some(Arc::clone(result));
                        r.truncated = *truncated;
                        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                        if *truncated {
                            shared.counters.truncated.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Settled::Failed(message) => {
                        r.state = JobState::Failed;
                        r.error = Some(message.clone());
                        shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                    }
                    Settled::Cancelled => {
                        r.state = JobState::Cancelled;
                        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                    Settled::Drained => {
                        r.state = JobState::Drained;
                        shared.counters.drained.fetch_add(1, Ordering::Relaxed);
                    }
                }
                settled_ids.push(id);
                (fp, fw)
            }
            None => (None, Vec::new()),
        };
        let mut rest = followers.into_iter();
        if let Some(result) = &served {
            for f in rest.by_ref() {
                if let Some(fr) = jobs.records.get_mut(&f) {
                    fr.entry = None;
                    if let Some(c) = &fr.spec.client {
                        released.push(c.clone());
                    }
                    if fr.cancel.cancel_requested() {
                        fr.state = JobState::Cancelled;
                        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    } else {
                        fr.state = JobState::Done;
                        fr.result = Some(Arc::clone(result));
                        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                        shared
                            .counters
                            .coalesced_served
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    settled_ids.push(f);
                }
            }
        } else if draining {
            for f in rest.by_ref() {
                if let Some(fr) = jobs.records.get_mut(&f) {
                    fr.entry = None;
                    fr.state = JobState::Drained;
                    if let Some(c) = &fr.spec.client {
                        released.push(c.clone());
                    }
                    shared.counters.drained.fetch_add(1, Ordering::Relaxed);
                    settled_ids.push(f);
                }
            }
        } else {
            for f in rest.by_ref() {
                let mut freed: Option<String> = None;
                let live = jobs.records.get_mut(&f).is_some_and(|fr| {
                    if fr.cancel.cancel_requested() {
                        fr.state = JobState::Cancelled;
                        fr.entry = None;
                        freed = fr.spec.client.clone();
                        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                        settled_ids.push(f);
                        false
                    } else {
                        true
                    }
                });
                if let Some(c) = freed {
                    released.push(c);
                }
                if live {
                    promoted = Some(f);
                    break;
                }
            }
            if let Some(nl) = promoted {
                let remaining: Vec<u64> = rest.collect();
                if let Some(fr) = jobs.records.get_mut(&nl) {
                    fr.followers = remaining;
                }
                if let Some(fp) = &fingerprint {
                    inflight.insert(fp.clone(), nl);
                }
                shared
                    .counters
                    .coalesced_requeued
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        if promoted.is_none() {
            if let Some(fp) = &fingerprint {
                if inflight.get(fp) == Some(&id) {
                    inflight.remove(fp);
                }
            }
        }
        jobs.settled.extend(&settled_ids);
    }
    if !released.is_empty() && shared.config.client_quota > 0 {
        let mut ov = sync::lock(&shared.overload);
        for c in released {
            if let Some(used) = ov.quotas.get_mut(&c) {
                *used = used.saturating_sub(1);
                if *used == 0 {
                    ov.quotas.remove(&c);
                }
            }
        }
    }
    for sid in settled_ids {
        flush_settled(shared, sid);
    }
    if let Some(nl) = promoted {
        let mut q = sync::lock(&shared.queue);
        if q.shutdown {
            // Workers are draining out; don't strand the promoted job in a
            // queue nobody may read again — settle it (and, recursively,
            // anything attached to it) as failed.
            drop(q);
            settle_job(shared, nl, Settled::Failed("engine shutting down".into()));
        } else if shared.draining.load(Ordering::SeqCst) {
            // Same for a graceful drain, but with the typed outcome so
            // the client replays instead of treating it as a failure.
            drop(q);
            settle_job(shared, nl, Settled::Drained);
        } else {
            q.queue.push_back(nl);
            drop(q);
            shared.work_ready.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AlgoKind, DEFAULT_PRIORITY};
    use fairsqg_datagen::{social_graph, SocialConfig};
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
        let registry = Arc::new(GraphRegistry::new());
        registry.insert(
            "g",
            social_graph(SocialConfig {
                directors: 60,
                majority_share: 0.6,
                seed: 9,
            }),
        );
        let engine = Engine::start(
            registry,
            EngineConfig {
                workers: 2,
                dedup_entries: CAP,
                ..EngineConfig::default()
            },
        );

        // A job that cannot settle until the test lets it: its sink parks
        // the worker on the first live archive delta. The subscription is
        // registered under the id the job is about to get, so the sink is
        // in place before a worker can pick the job up.
        let (release, parked) = mpsc::channel::<()>();
        let parked = Mutex::new(parked);
        let first = AtomicBool::new(true);
        let sink: EventSink = Arc::new(move |_: &JobEvent| {
            if first.swap(false, Ordering::SeqCst) {
                let _ = sync::lock(&parked).recv();
            }
        });
        let held = engine.shared.next_id.load(Ordering::Relaxed);
        sync::lock(&engine.shared.subscriptions).insert(
            held,
            StreamState {
                sinks: vec![sink],
                streamed: BTreeSet::new(),
                last_version: 0,
            },
        );
        let mut streamed = spec(0.9, None);
        streamed.subscribe = true;
        assert_eq!(engine.submit(streamed).unwrap(), held);

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

        {
            let jobs = sync::lock(&engine.shared.jobs);
            assert!(jobs.settled.len() <= CAP);
            assert!(
                jobs.records.len() <= CAP + 1,
                "{} records for {CAP} settled + 1 unsettled",
                jobs.records.len()
            );
            assert!(jobs.keys.values().all(|id| jobs.records.contains_key(id)));
        }
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
}
