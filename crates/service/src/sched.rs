//! The job state machine: every piece of per-job state the engine keeps —
//! job records with their `request_key` memory and bounded settled window,
//! the queue, the running set, the coalescing map, per-client quota counts
//! and streaming subscriptions — as one plain struct, [`Sched`], that the
//! engine guards with one mutex.
//!
//! `Sched`'s methods never block, spawn, read the clock, take a lock or
//! call a sink: time comes in as `now`, counters are atomics, and whatever
//! must happen outside the lock goes out as an [`Effects`] value the caller
//! applies after unlocking (wake a worker; fire each [`Flush`]). That is
//! what makes every interleaving of submit / start / settle / cancel /
//! drain / watchdog a deterministic unit test (see the seeded schedules in
//! this module's tests).
//!
//! A job is `Queued` (in the queue, or following a coalescing leader), then
//! `Running`, then terminal (`Done | Failed | Cancelled | Drained`). A
//! record becomes terminal only in [`Sched::finish`]; followers are
//! disposed of only in [`Sched::settle`].

use crate::engine::{Counters, EngineConfig, EventSink, JobEvent, JobState, JobStatus};
use crate::job::JobSpec;
use crate::registry::GraphEntry;
use fairsqg_algo::CancelToken;
use fairsqg_wire::Value;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The key a rendered archive entry is identified by on a stream.
fn bindings(entry: &Value) -> Option<&str> {
    entry.get("bindings").and_then(Value::as_str)
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
    /// was computed for this epoch). Held exactly while the job is live.
    entry: Option<GraphEntry>,
    /// The cache/coalescing fingerprint computed at admission.
    fingerprint: Option<String>,
    /// Jobs coalesced onto this one: they are served from this job's
    /// result when it completes cleanly, or promoted/requeued otherwise.
    followers: Vec<u64>,
}

/// Per-job streaming state: the registered sinks plus the set of entry
/// keys already delivered via deltas (what the settlement catch-up diffs
/// the final result against).
#[derive(Default)]
struct StreamState {
    sinks: Vec<EventSink>,
    streamed: BTreeSet<String>,
    last_version: u64,
}

/// Terminal outcome of a job, consumed by [`Sched::settle`].
pub(crate) enum Settled {
    Done {
        result: Arc<Value>,
        truncated: bool,
    },
    Failed(String),
    Cancelled,
    /// Bounced by a drain before running.
    Drained,
}

/// What a transition asks its caller to do once the lock is released.
#[derive(Default)]
pub(crate) struct Effects {
    /// Settled jobs whose subscribers are owed their terminal events.
    pub(crate) flushes: Vec<Flush>,
    /// A job entered the queue: wake one worker.
    pub(crate) wake: bool,
}

/// One settled job's terminal events, detached from the state machine so
/// the sinks run with no lock held.
pub(crate) struct Flush {
    id: u64,
    state: JobState,
    truncated: bool,
    from_cache: bool,
    error: Option<String>,
    result: Option<Arc<Value>>,
    stream: StreamState,
}

impl Flush {
    fn of(id: u64, r: &JobRecord, stream: StreamState) -> Self {
        Self {
            id,
            state: r.state,
            truncated: r.truncated,
            from_cache: r.from_cache,
            error: r.error.clone(),
            result: r.result.clone(),
            stream,
        }
    }

    /// Fires a catch-up [`JobEvent::Delta`] reconciling the stream with
    /// the final entry set (covers cache hits, coalesced followers,
    /// rescales, and end-built archives), then the [`JobEvent::Settled`].
    pub(crate) fn fire(self, c: &Counters) {
        let Self { id, stream: st, .. } = self;
        if let (JobState::Done, Some(result)) = (self.state, &self.result) {
            let final_entries: Vec<&Value> = result
                .get("entries")
                .and_then(Value::as_array)
                .map(|a| a.iter().collect())
                .unwrap_or_default();
            let final_keys: BTreeSet<&str> =
                final_entries.iter().filter_map(|e| bindings(e)).collect();
            let added: Vec<Value> = final_entries
                .iter()
                .filter(|e| bindings(e).is_some_and(|b| !st.streamed.contains(b)))
                .map(|e| (*e).clone())
                .collect();
            let removed: Vec<String> = st
                .streamed
                .iter()
                .filter(|b| !final_keys.contains(b.as_str()))
                .cloned()
                .collect();
            if !added.is_empty() || !removed.is_empty() {
                bump(&c.stream_catchups);
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
        bump(&c.stream_settled);
        let ev = JobEvent::Settled {
            id,
            state: self.state,
            truncated: self.truncated,
            from_cache: self.from_cache,
            error: self.error,
            result: self.result,
        };
        for sink in &st.sinks {
            sink(&ev);
        }
    }
}

/// A submission that passed the engine's overload gate, ready to be
/// admitted.
pub(crate) struct Admission {
    pub(crate) spec: JobSpec,
    pub(crate) cancel: CancelToken,
    pub(crate) deadline: Option<Duration>,
    pub(crate) entry: GraphEntry,
    pub(crate) fingerprint: String,
    /// The engine is at its `Shedding` level: a full queue may evict its
    /// lowest-priority waiter in favour of this job.
    pub(crate) shedding: bool,
}

/// Why [`Sched::admit`] turned a submission away.
pub(crate) enum Refused {
    ShuttingDown,
    Draining,
    /// The named client already holds its full quota of unsettled jobs.
    Quota(String),
    Full,
}

/// What a worker needs to run a job it just started.
pub(crate) struct Run {
    pub(crate) id: u64,
    pub(crate) spec: JobSpec,
    pub(crate) cancel: CancelToken,
    pub(crate) submitted_at: Instant,
    pub(crate) entry: GraphEntry,
    pub(crate) deadline: Option<Duration>,
}

/// See the module docs.
pub(crate) struct Sched {
    /// Job records by id. Settled records stay readable for `status`,
    /// `result` and key replays, FIFO-evicted beyond `window`: large
    /// enough that a polling or retrying client always finds its job,
    /// bounded so the table cannot grow with the number of jobs ever
    /// submitted. Unsettled records are never evicted.
    records: HashMap<u64, JobRecord>,
    /// `request_key` → job id; a key is forgotten with its record, so a
    /// replay never resolves to an evicted id.
    keys: HashMap<String, u64>,
    /// Ids of settled records, oldest settlement first.
    settled: VecDeque<u64>,
    window: usize,
    /// Admitted jobs waiting for a worker, in pickup order.
    queue: VecDeque<u64>,
    queue_capacity: usize,
    running: Vec<u64>,
    /// Fingerprint → leader job id for every live leader; empty when
    /// coalescing is off.
    inflight: HashMap<String, u64>,
    coalesce: bool,
    /// Live jobs per client identity; maintained only under a quota.
    quotas: HashMap<String, usize>,
    quota: usize,
    subscriptions: HashMap<u64, StreamState>,
    next_id: u64,
    shutdown: bool,
    draining: bool,
}

impl Sched {
    pub(crate) fn new(config: &EngineConfig) -> Self {
        Self {
            records: HashMap::new(),
            keys: HashMap::new(),
            settled: VecDeque::new(),
            window: config.dedup_entries,
            queue: VecDeque::new(),
            queue_capacity: config.queue_capacity,
            running: Vec::new(),
            inflight: HashMap::new(),
            coalesce: config.coalesce,
            quotas: HashMap::new(),
            quota: config.client_quota,
            subscriptions: HashMap::new(),
            next_id: 1,
            shutdown: false,
            draining: false,
        }
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Workers finish what is queued, then exit; nothing new is admitted.
    pub(crate) fn shut_down(&mut self) {
        self.shutdown = true;
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Nothing is queued or running (and so nothing is following).
    pub(crate) fn idle(&self) -> bool {
        self.queue.is_empty() && self.running.is_empty()
    }

    /// Jobs with at least one sink attached.
    pub(crate) fn streams(&self) -> usize {
        self.subscriptions.len()
    }

    /// The job a `request_key` was first admitted as, while its record
    /// lasts.
    pub(crate) fn replay(&self, key: &str) -> Option<u64> {
        self.keys.get(key).copied()
    }

    /// Makes room by evicting the oldest settled records beyond the
    /// window, then adds `record` under a fresh id, remembering its
    /// `request_key` (the first job to claim a key keeps it). Eviction
    /// runs here because this is the only place the table grows; a record
    /// inserted already settled (a cache hit) is therefore never evicted
    /// by its own insertion.
    fn insert(&mut self, record: JobRecord) -> u64 {
        while self.settled.len() >= self.window {
            let Some(old) = self.settled.pop_front() else {
                break;
            };
            if let Some(key) = self.records.remove(&old).and_then(|r| r.spec.request_key) {
                if self.keys.get(&key) == Some(&old) {
                    self.keys.remove(&key);
                }
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        if let Some(key) = &record.spec.request_key {
            self.keys.entry(key.clone()).or_insert(id);
        }
        if record.state.is_terminal() {
            self.settled.push_back(id);
        }
        self.records.insert(id, record);
        id
    }

    /// Records a job answered from the result cache: born `Done`.
    pub(crate) fn admit_cached(&mut self, spec: JobSpec, result: Arc<Value>, now: Instant) -> u64 {
        let truncated = result
            .get("truncated")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        self.insert(JobRecord {
            spec,
            state: JobState::Done,
            cancel: CancelToken::new(),
            result: Some(result),
            error: None,
            from_cache: true,
            truncated,
            submitted_at: now,
            deadline: None,
            started_at: None,
            hard_stopped_at: None,
            entry: None,
            fingerprint: None,
            followers: Vec::new(),
        })
    }

    /// Admits a job: as a follower of the live job with the same
    /// fingerprint if there is one (it is then served from that leader's
    /// result instead of occupying a queue slot), else into the queue.
    /// The quota slot is taken only once nothing can refuse the job any
    /// more, so there is no reservation to undo.
    pub(crate) fn admit(
        &mut self,
        a: Admission,
        now: Instant,
        c: &Counters,
        fx: &mut Effects,
    ) -> Result<u64, Refused> {
        if self.draining {
            return Err(Refused::Draining);
        }
        if self.quota > 0 {
            if let Some(client) = &a.spec.client {
                if self.quotas.get(client).is_some_and(|&n| n >= self.quota) {
                    return Err(Refused::Quota(client.clone()));
                }
            }
        }
        let leader = self.inflight.get(&a.fingerprint).copied();
        if leader.is_none() {
            if self.shutdown {
                return Err(Refused::ShuttingDown);
            }
            if self.queue.len() >= self.queue_capacity
                && !(a.shedding && self.evict_below(a.spec.priority, c, fx))
            {
                return Err(Refused::Full);
            }
        }
        if self.quota > 0 {
            if let Some(client) = &a.spec.client {
                *self.quotas.entry(client.clone()).or_insert(0) += 1;
            }
        }
        let lead = (leader.is_none() && self.coalesce).then(|| a.fingerprint.clone());
        let id = self.insert(JobRecord {
            spec: a.spec,
            state: JobState::Queued,
            cancel: a.cancel,
            result: None,
            error: None,
            from_cache: false,
            truncated: false,
            submitted_at: now,
            deadline: a.deadline,
            started_at: None,
            hard_stopped_at: None,
            entry: Some(a.entry),
            fingerprint: Some(a.fingerprint),
            followers: Vec::new(),
        });
        match leader.and_then(|l| self.records.get_mut(&l)) {
            Some(l) => {
                l.followers.push(id);
                bump(&c.coalesced_attached);
            }
            None => {
                if let Some(fingerprint) = lead {
                    self.inflight.insert(fingerprint, id);
                }
                self.queue.push_back(id);
                fx.wake = true;
            }
        }
        Ok(id)
    }

    /// At the `Shedding` level a full queue prefers its highest-priority
    /// work: evicts the lowest-priority waiter strictly below `priority`
    /// (follower-free, so nobody else rides on it). Returns whether a slot
    /// was freed.
    fn evict_below(&mut self, priority: u8, c: &Counters, fx: &mut Effects) -> bool {
        let victim = self
            .queue
            .iter()
            .enumerate()
            .filter_map(|(pos, id)| {
                let r = self.records.get(id)?;
                (r.spec.priority < priority && r.followers.is_empty()).then_some((
                    pos,
                    *id,
                    r.spec.priority,
                ))
            })
            .min_by_key(|&(_, _, p)| p);
        let Some((pos, id, _)) = victim else {
            return false;
        };
        self.queue.remove(pos);
        let reason = "shed: displaced by higher-priority work".to_string();
        self.settle(id, Settled::Failed(reason), c, fx);
        bump(&c.shed_evicted);
        true
    }

    /// The next queued job, if any.
    pub(crate) fn pop(&mut self) -> Option<u64> {
        self.queue.pop_front()
    }

    /// Moves a popped job to `Running`. `None` when there is nothing to
    /// run: the job already settled (a drain or the watchdog got there
    /// first), or cancellation was requested — which settles it here. A
    /// lapsed deadline does *not* skip the job: the generation runs and
    /// returns at once with an empty archive flagged truncated, which is
    /// what deadline-bound callers are promised.
    pub(crate) fn start(
        &mut self,
        id: u64,
        now: Instant,
        c: &Counters,
        fx: &mut Effects,
    ) -> Option<Run> {
        let r = self.records.get_mut(&id)?;
        if r.state.is_terminal() {
            return None;
        }
        if r.cancel.cancel_requested() {
            self.settle(id, Settled::Cancelled, c, fx);
            return None;
        }
        r.state = JobState::Running;
        r.started_at = Some(now);
        self.running.push(id);
        Some(Run {
            id,
            spec: r.spec.clone(),
            cancel: r.cancel.clone(),
            submitted_at: r.submitted_at,
            entry: r.entry.clone().expect("a live job holds its graph pin"),
            deadline: r.deadline,
        })
    }

    /// Settles a live job and disposes of its coalesced followers. A clean
    /// (non-truncated) result is distributed to every live follower; a
    /// drain bounces them all without consulting their cancel flags (none
    /// ran, all should be replayed elsewhere); an unusable outcome —
    /// failed, cancelled, or truncated (a partial archive reflects the
    /// *leader's* deadline, not the followers') — promotes the first live
    /// follower to a fresh leader that inherits the rest, and requeues it.
    /// A second settlement of the same job is a no-op: the watchdog may
    /// declare a job lost while its worker is still wedged, and whichever
    /// settlement lands first wins.
    pub(crate) fn settle(&mut self, id: u64, outcome: Settled, c: &Counters, fx: &mut Effects) {
        let Some(r) = self.records.get_mut(&id) else {
            return;
        };
        if r.state.is_terminal() {
            return;
        }
        let fingerprint = r.fingerprint.clone();
        let mut followers = std::mem::take(&mut r.followers).into_iter();
        let served = match &outcome {
            Settled::Done {
                result,
                truncated: false,
            } => Some(Arc::clone(result)),
            _ => None,
        };
        let drained = matches!(outcome, Settled::Drained);
        self.finish(id, outcome, c, fx);

        let mut promoted = None;
        for f in followers.by_ref() {
            let cancelled = self
                .records
                .get(&f)
                .is_some_and(|r| r.cancel.cancel_requested());
            if drained {
                self.finish(f, Settled::Drained, c, fx);
            } else if cancelled {
                self.finish(f, Settled::Cancelled, c, fx);
            } else if let Some(result) = &served {
                let result = Arc::clone(result);
                let truncated = false;
                self.finish(f, Settled::Done { result, truncated }, c, fx);
                bump(&c.coalesced_served);
            } else {
                promoted = Some(f);
                break;
            }
        }
        let Some(heir) = promoted else {
            if let Some(fingerprint) = fingerprint {
                if self.inflight.get(&fingerprint) == Some(&id) {
                    self.inflight.remove(&fingerprint);
                }
            }
            return;
        };
        if let Some(r) = self.records.get_mut(&heir) {
            r.followers = followers.collect();
        }
        if let Some(fingerprint) = fingerprint {
            self.inflight.insert(fingerprint, heir);
        }
        bump(&c.coalesced_requeued);
        if self.shutdown {
            // Workers are draining out; don't strand the heir in a queue
            // nobody may read again — settle it (and, recursively,
            // anything attached to it) as failed.
            self.settle(heir, Settled::Failed("engine shutting down".into()), c, fx);
        } else if self.draining {
            // Same for a graceful drain, but with the typed outcome so
            // the client replays instead of treating it as a failure.
            self.settle(heir, Settled::Drained, c, fx);
        } else {
            self.queue.push_back(heir);
            fx.wake = true;
        }
    }

    /// The only place a record becomes terminal: records the outcome and
    /// counts it, drops the graph pin, releases the quota slot, leaves the
    /// running set, enters the settled window, and hands the subscription
    /// (if any) to the caller as a [`Flush`].
    fn finish(&mut self, id: u64, outcome: Settled, c: &Counters, fx: &mut Effects) {
        let Some(r) = self.records.get_mut(&id) else {
            return;
        };
        match outcome {
            Settled::Done { result, truncated } => {
                r.state = JobState::Done;
                r.result = Some(result);
                r.truncated = truncated;
                bump(&c.completed);
                if truncated {
                    bump(&c.truncated);
                }
            }
            Settled::Failed(message) => {
                r.state = JobState::Failed;
                r.error = Some(message);
                bump(&c.failed);
            }
            Settled::Cancelled => {
                r.state = JobState::Cancelled;
                bump(&c.cancelled);
            }
            Settled::Drained => {
                r.state = JobState::Drained;
                bump(&c.drained);
            }
        }
        r.entry = None;
        if self.quota > 0 {
            if let Some(client) = &r.spec.client {
                if let Some(used) = self.quotas.get_mut(client) {
                    *used = used.saturating_sub(1);
                    if *used == 0 {
                        self.quotas.remove(client);
                    }
                }
            }
        }
        self.running.retain(|&running| running != id);
        self.settled.push_back(id);
        if let Some(stream) = self.subscriptions.remove(&id) {
            fx.flushes.push(Flush::of(id, r, stream));
        }
    }

    /// Starts a graceful drain: nothing new is admitted, every queued job
    /// (and its followers) settles `Drained`, running jobs finish
    /// normally. Returns `(bounced, running)`.
    pub(crate) fn begin_drain(&mut self, c: &Counters, fx: &mut Effects) -> (usize, usize) {
        self.draining = true;
        let queued: Vec<u64> = self.queue.drain(..).collect();
        for &id in &queued {
            self.settle(id, Settled::Drained, c, fx);
        }
        (queued.len(), self.running.len())
    }

    /// The watchdog's scan. A running job more than `grace` past its
    /// deadline — measured from when its worker started it, since this
    /// bounds a *worker's* overrun, not the client's wait — is hard-stopped;
    /// one still running `grace` after that is returned as lost. Jobs with
    /// no effective deadline are never escalated.
    pub(crate) fn overdue(&mut self, now: Instant, grace: Duration, c: &Counters) -> Vec<u64> {
        let mut lost = Vec::new();
        for &id in &self.running {
            let Some(r) = self.records.get_mut(&id) else {
                continue;
            };
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
                    bump(&c.watchdog_hard_stops);
                }
                Some(at) if now.saturating_duration_since(at) > grace => lost.push(id),
                Some(_) => {}
            }
        }
        lost
    }

    /// Attaches `sink` to a job's event stream; `false` for unknown ids.
    /// A job that already settled yields its [`Flush`] at once.
    pub(crate) fn subscribe(&mut self, id: u64, sink: EventSink, fx: &mut Effects) -> bool {
        let Some(r) = self.records.get(&id) else {
            return false;
        };
        if r.state.is_terminal() {
            let stream = StreamState {
                sinks: vec![sink],
                ..StreamState::default()
            };
            fx.flushes.push(Flush::of(id, r, stream));
        } else {
            self.subscriptions.entry(id).or_default().sinks.push(sink);
        }
        true
    }

    /// Whether anyone would hear a live delta for `id`.
    pub(crate) fn listening(&self, id: u64) -> bool {
        self.subscriptions.contains_key(&id)
    }

    /// Records one live delta as delivered — so the settlement catch-up
    /// knows what the stream already carries — and returns the sinks to
    /// deliver it to (none once the job has settled).
    pub(crate) fn stream_delta(
        &mut self,
        id: u64,
        version: u64,
        added: &[Value],
        removed: &[String],
    ) -> Vec<EventSink> {
        let Some(st) = self.subscriptions.get_mut(&id) else {
            return Vec::new();
        };
        for b in removed {
            st.streamed.remove(b);
        }
        for v in added {
            if let Some(b) = bindings(v) {
                st.streamed.insert(b.to_string());
            }
        }
        st.last_version = version;
        st.sinks.clone()
    }

    pub(crate) fn status(&self, id: u64) -> Option<JobStatus> {
        self.records.get(&id).map(|r| JobStatus {
            id,
            state: r.state,
            from_cache: r.from_cache,
            truncated: r.truncated,
            error: r.error.clone(),
        })
    }

    pub(crate) fn result(&self, id: u64) -> Option<Arc<Value>> {
        self.records.get(&id).and_then(|r| r.result.clone())
    }

    /// Requests cancellation; `false` for unknown ids.
    pub(crate) fn cancel(&self, id: u64) -> bool {
        self.records.get(&id).map(|r| r.cancel.cancel()).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::AlgoKind;
    use fairsqg_algo::MatchBudget;
    use fairsqg_datagen::{social_graph, SocialConfig};
    use std::sync::atomic::AtomicUsize;

    impl Sched {
        /// Walks every structural invariant of the state machine.
        fn check(&self) {
            let live = |id: &u64| self.records.get(id).is_some_and(|r| !r.state.is_terminal());
            // Queue, running set and follower lists partition the live
            // records, and each container holds the state it stands for.
            let mut seen: Vec<u64> = Vec::new();
            for id in &self.queue {
                assert_eq!(self.records[id].state, JobState::Queued, "queued {id}");
                seen.push(*id);
            }
            for id in &self.running {
                assert_eq!(self.records[id].state, JobState::Running, "running {id}");
                seen.push(*id);
            }
            for (id, r) in &self.records {
                if r.state.is_terminal() {
                    assert!(r.followers.is_empty(), "terminal {id} keeps followers");
                    assert!(r.entry.is_none(), "terminal {id} keeps its graph pin");
                    assert!(
                        !self.subscriptions.contains_key(id),
                        "terminal {id} streams"
                    );
                    continue;
                }
                assert!(r.entry.is_some(), "live {id} lost its graph pin");
                for f in &r.followers {
                    assert_eq!(self.records[f].state, JobState::Queued, "follower {f}");
                    assert_eq!(self.records[f].fingerprint, r.fingerprint);
                    seen.push(*f);
                }
            }
            let mut live_ids: Vec<u64> =
                self.records.keys().filter(|id| live(id)).copied().collect();
            seen.sort_unstable();
            live_ids.sort_unstable();
            assert_eq!(seen, live_ids, "queue ∪ running ∪ followers ≠ live records");

            let settled = self.records.len() - live_ids.len();
            assert_eq!(
                self.settled.len(),
                settled,
                "settled window ≠ terminal records"
            );
            for (key, id) in &self.keys {
                let r = self.records.get(id).expect("a key names a kept record");
                assert_eq!(r.spec.request_key.as_deref(), Some(key.as_str()));
            }
            assert!(self.subscriptions.keys().all(live));
            for (fingerprint, leader) in &self.inflight {
                assert!(self.coalesce && live(leader), "inflight names {leader}");
                assert!(self.queue.contains(leader) || self.running.contains(leader));
                let r = &self.records[leader];
                assert_eq!(r.fingerprint.as_ref(), Some(fingerprint));
            }
            let mut held: HashMap<&str, usize> = HashMap::new();
            for id in &live_ids {
                if let Some(client) = &self.records[id].spec.client {
                    *held.entry(client).or_insert(0) += 1;
                }
            }
            assert_eq!(self.quotas.len(), held.len(), "quota clients");
            for (client, n) in &self.quotas {
                assert_eq!(held.get(client.as_str()), Some(n), "quota of {client}");
                assert!(*n <= self.quota);
            }
        }
    }

    /// A 31-bit linear congruential generator (Knuth's MMIX constants).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
    }

    fn spec(rng: &mut Lcg) -> JobSpec {
        JobSpec {
            graph: "g".into(),
            template: String::new(),
            group_attr: "gender".into(),
            cover: 1,
            algo: AlgoKind::EnumQGen,
            threads: 1,
            eps: 0.1,
            lambda: 0.5,
            deadline_ms: None,
            budget: MatchBudget::UNLIMITED,
            request_key: (rng.below(4) == 0).then(|| format!("k{}", rng.below(6))),
            priority: rng.below(4) as u8,
            client: (rng.below(3) > 0).then(|| format!("c{}", rng.below(2))),
            subscribe: false,
        }
    }

    fn done(truncated: bool) -> Settled {
        let entry = Value::object([("bindings", Value::from("u1=3"))]);
        let result = Arc::new(Value::object([
            ("entries", Value::Array(vec![entry])),
            ("truncated", Value::from(truncated)),
        ]));
        Settled::Done { result, truncated }
    }

    /// The simulator: random interleavings of every transition, with the
    /// invariants walked after each step and the end-to-end promises —
    /// everything admitted settles, nothing stays reserved, every
    /// subscriber hears exactly one `Settled` — checked at quiescence.
    #[test]
    fn seeded_schedules_keep_the_invariants() {
        let entry = GraphEntry {
            graph: Arc::new(social_graph(SocialConfig {
                directors: 2,
                majority_share: 0.5,
                seed: 1,
            })),
            epoch: 1,
        };
        let grace = Duration::from_millis(20);
        let t0 = Instant::now();
        for seed in 0..320u64 {
            let mut rng = Lcg(seed);
            let mut s = Sched::new(&EngineConfig {
                dedup_entries: 5,
                queue_capacity: 4,
                client_quota: 3,
                coalesce: seed % 4 != 0,
                ..EngineConfig::default()
            });
            let c = Counters::default();
            let mut fx = Effects::default();
            let mut clock = t0;
            let mut admitted: Vec<u64> = Vec::new();
            // Jobs a simulated worker holds; a job the watchdog gave up on
            // stays here, because its worker may still come back.
            let mut held: Vec<u64> = Vec::new();
            let mut heard: Vec<(u64, Arc<AtomicUsize>)> = Vec::new();
            let mut listen = |s: &mut Sched, id: u64, fx: &mut Effects| {
                let count = Arc::new(AtomicUsize::new(0));
                heard.push((id, Arc::clone(&count)));
                let sink: EventSink = Arc::new(move |ev: &JobEvent| {
                    if matches!(ev, JobEvent::Settled { .. }) {
                        count.fetch_add(1, Ordering::SeqCst);
                    }
                });
                assert!(s.subscribe(id, sink, fx));
            };

            let steps = 40 + rng.below(81);
            let drain_at = (seed % 5 == 0).then(|| rng.below(steps));
            for step in 0..steps {
                clock += Duration::from_millis(rng.below(8));
                if drain_at == Some(step) {
                    let (_, running) = s.begin_drain(&c, &mut fx);
                    assert_eq!((running, s.queue_depth()), (s.running.len(), 0));
                }
                match rng.below(10) {
                    0..=3 => {
                        let spec = spec(&mut rng);
                        if spec
                            .request_key
                            .as_deref()
                            .and_then(|k| s.replay(k))
                            .is_some()
                        {
                            continue;
                        }
                        let a = Admission {
                            spec,
                            cancel: CancelToken::new(),
                            deadline: (rng.below(2) == 0).then_some(Duration::from_millis(10)),
                            entry: entry.clone(),
                            fingerprint: format!("fp{}", rng.below(3)),
                            shedding: rng.below(3) == 0,
                        };
                        if let Ok(id) = s.admit(a, clock, &c, &mut fx) {
                            admitted.push(id);
                            listen(&mut s, id, &mut fx);
                        }
                    }
                    4 if !s.is_draining() => {
                        let Settled::Done { result, .. } = done(false) else {
                            unreachable!()
                        };
                        let id = s.admit_cached(spec(&mut rng), result, clock);
                        admitted.push(id);
                        listen(&mut s, id, &mut fx);
                    }
                    4 | 5 => {
                        if let Some(id) = s.pop() {
                            held.extend(s.start(id, clock, &c, &mut fx).map(|run| run.id));
                        }
                    }
                    6 | 7 if !held.is_empty() => {
                        let id = held.swap_remove(rng.below(held.len() as u64) as usize);
                        let outcome = match rng.below(4) {
                            0 => Settled::Failed("boom".into()),
                            1 => done(true),
                            _ => done(false),
                        };
                        s.settle(id, outcome, &c, &mut fx);
                    }
                    8 if !admitted.is_empty() => {
                        s.cancel(admitted[rng.below(admitted.len() as u64) as usize]);
                    }
                    _ => {
                        for id in s.overdue(clock, grace, &c) {
                            s.settle(id, Settled::Failed("lost".into()), &c, &mut fx);
                        }
                    }
                }
                s.check();
                for flush in fx.flushes.drain(..) {
                    flush.fire(&c);
                }
            }

            // Run the schedule out: every worker reports, everything queued
            // (promoted followers included) gets picked up, until nothing
            // is left.
            while !(s.idle() && held.is_empty()) {
                for id in held.drain(..) {
                    s.settle(id, done(false), &c, &mut fx);
                }
                while let Some(id) = s.pop() {
                    held.extend(s.start(id, clock, &c, &mut fx).map(|run| run.id));
                }
                s.check();
            }
            for flush in fx.flushes.drain(..) {
                flush.fire(&c);
            }
            assert!(s.quotas.is_empty() && s.inflight.is_empty(), "seed {seed}");
            assert!(s.subscriptions.is_empty(), "seed {seed}");
            for id in &admitted {
                let kept = s.status(*id);
                assert!(
                    kept.is_none_or(|st| st.state.is_terminal()),
                    "seed {seed}: {id}"
                );
            }
            for (id, count) in &heard {
                assert_eq!(count.load(Ordering::SeqCst), 1, "seed {seed}: sink of {id}");
            }
        }
    }
}
