//! The client for the NDJSON wire protocol: many `rid`-tagged requests
//! and streaming subscriptions in flight on one connection, with retry,
//! reconnect and keyed replay.
//!
//! * **Connection** — one at a time, dialed with backoff
//!   ([`RetryPolicy`]) and shared by every thread: each method takes
//!   `&self`. A background reader demultiplexes inbound frames by their
//!   `rid` echo: responses complete their pending request, `event` frames
//!   feed their subscription's accumulator. A transport failure, EOF, or a
//!   frame that fits no waiter (the typed [`ClientError::UnexpectedFrame`]:
//!   the stream is desynchronized) breaks that connection — its waiters
//!   fail and the next call redials. Concurrent failures redial once.
//! * **Retries** — idempotent calls (reads, `cancel`, `load`, and submits
//!   carrying a `request_key`) replay on the fresh connection with
//!   backoff, honoring the server's `retry_after_ms` hints, bounded by
//!   `max_attempts` and `retry_budget`; the server dedups the key, so a
//!   replayed submit maps to the original job. Unkeyed submits, `drain`,
//!   `shutdown` and [`MuxClient::submit_streaming`] are sent once.
//! * **Timeouts** — `read_timeout` bounds each call's wait for its reply,
//!   not the socket, so an idle subscription never times out. A reply
//!   that arrives after its caller gave up is dropped.
//! * **Subscriptions** stay on the connection they were opened on. If it
//!   breaks, [`Subscription::wait`] returns the typed error; the job's
//!   result stays fetchable with [`MuxClient::result`].
//!
//! Delta frames arriving after their subscription settled (the server
//! sheds none after the settled frame, but a lossy reorder across a
//! refetch can look like one) are dropped, not errors; see
//! [`MuxClient::stale_deltas`].

use crate::job::JobSpec;
use crate::sync::lock;
use fairsqg_faults::Fault;
use fairsqg_wire::{FrameDecoder, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The connection closed, or a reply lacked a field it must carry.
    Protocol(String),
    /// The server answered `{"ok": false, ...}`.
    Server {
        /// Machine-readable error code (see the protocol table).
        code: String,
        /// Human-readable explanation.
        message: String,
        /// The server's suggested wait before retrying, when the
        /// rejection carried one (`overloaded`, `shed`, …).
        retry_after_ms: Option<u64>,
    },
    /// A reply did not arrive within `read_timeout`, or a job did not
    /// settle within the budget given to `wait`. The connection stays up.
    Timeout,
    /// A multiplexed frame arrived with an unknown correlation id
    /// (`rid`), or its job `id` contradicts the subscription it was
    /// routed to — the stream is desynchronized, so the connection is
    /// discarded and the next call redials.
    UnexpectedFrame(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server {
                code,
                message,
                retry_after_ms,
            } => {
                write!(f, "server [{code}]: {message}")?;
                if let Some(ms) = retry_after_ms {
                    write!(f, " (retry after {ms}ms)")?;
                }
                Ok(())
            }
            ClientError::Timeout => write!(f, "timed out"),
            ClientError::UnexpectedFrame(m) => write!(f, "unexpected frame: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The connection this error came from is gone (and discarded).
    fn lost_connection(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_) | ClientError::Protocol(_) | ClientError::UnexpectedFrame(_)
        )
    }
}

/// Maps a reply to `Ok(value)` when it carries `"ok": true`, otherwise to
/// the typed [`ClientError::Server`].
fn check_ok(value: Value) -> Result<Value, ClientError> {
    match value.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(value),
        _ => {
            let error = value.get("error");
            let field = |name: &str| error.and_then(|e| e.get(name));
            Err(ClientError::Server {
                code: field("code")
                    .and_then(Value::as_str)
                    .unwrap_or("internal")
                    .to_string(),
                message: field("message")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
                retry_after_ms: field("retry_after_ms").and_then(Value::as_u64),
            })
        }
    }
}

/// Server rejection codes worth retrying on an idempotent call: all of
/// them mean "not now", carry (or imply) a wait hint, and are safe to
/// replay.
fn is_retryable_code(code: &str) -> bool {
    matches!(code, "overloaded" | "shed" | "quota_exceeded" | "draining")
}

/// Retry/timeout policy of a [`MuxClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per operation (connect, or idempotent request), ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// How long a call waits for its reply (None = forever). Not a
    /// socket timeout: an idle subscription never times out, and
    /// [`Subscription::wait`] takes its own.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout (None = block forever).
    pub write_timeout: Option<Duration>,
    /// Wall-clock cap across *all* retries of one idempotent request,
    /// including honoring server `retry_after_ms` hints (`None` = bounded
    /// by `max_attempts` alone). When the budget runs out the last error
    /// is returned as-is.
    pub retry_budget: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            retry_budget: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never times out (useful in tests
    /// that assert on first-failure semantics).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            read_timeout: None,
            write_timeout: None,
            retry_budget: None,
        }
    }

    /// Exponential backoff for the retry after `attempt` (0-based), with
    /// ±50% multiplicative jitter so synchronized clients fan out.
    fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        // Deterministic-free jitter from the wall clock's nanoseconds: no
        // RNG dependency, good enough to de-synchronize a retry herd.
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::from(d.subsec_nanos()))
            .unwrap_or(0);
        let percent = 50 + ((nanos ^ salt) % 101); // 50..=150
        exp.mul_f64(percent as f64 / 100.0)
    }
}

/// Outcome of one streamed job, assembled from its delta frames.
#[derive(Debug)]
pub struct StreamedResult {
    /// Server-assigned job id.
    pub id: u64,
    /// Terminal state name (`done`, `failed`, `cancelled`, `drained`).
    pub state: String,
    /// The job hit its deadline and the result is the best-so-far.
    pub truncated: bool,
    /// Served from the warm result cache.
    pub from_cache: bool,
    /// The server shed delta frames under backpressure; `result` is
    /// `None` and must be refetched via [`MuxClient::result`].
    pub lossy: bool,
    /// Delta frames applied to build `result`.
    pub deltas: u64,
    /// Failure detail for non-`done` states.
    pub error_message: Option<String>,
    /// The full result value reconstructed from the deltas — built to be
    /// byte-identical (after canonical serialization) to the `result`
    /// field of the `result` op's reply for the same job. `None` unless
    /// `state` is `done` and the stream was lossless.
    pub result: Option<Value>,
}

type DoneSender = mpsc::Sender<Result<StreamedResult, ClientError>>;

/// Accumulates one subscription's deltas until it settles.
struct SubState {
    job_id: Option<u64>,
    entries: BTreeMap<String, Value>,
    deltas: u64,
    done: DoneSender,
}

/// The error variant a broken connection reports, and its detail.
type Broken = (fn(String) -> ClientError, String);

/// What one connection's reader thread shares with request threads.
struct Router {
    pending: Mutex<HashMap<u64, mpsc::Sender<Result<Value, ClientError>>>>,
    subs: Mutex<HashMap<u64, SubState>>,
    /// `rid`s whose late frames are dropped rather than treated as
    /// protocol errors: settled subscriptions (their deltas count as
    /// stale) and calls whose caller stopped waiting.
    retired: Mutex<HashSet<u64>>,
    stale_deltas: Arc<AtomicU64>,
    /// Why the connection broke; sticky for its life.
    broken: Mutex<Option<Broken>>,
}

impl Router {
    /// Records why the connection broke and fails every waiter, present
    /// and future.
    fn fail(&self, kind: fn(String) -> ClientError, detail: String) {
        lock(&self.broken).get_or_insert((kind, detail.clone()));
        let pending: Vec<_> = lock(&self.pending).drain().collect();
        for (_, tx) in pending {
            let _ = tx.send(Err(kind(detail.clone())));
        }
        let subs: Vec<_> = lock(&self.subs).drain().collect();
        for (_, sub) in subs {
            let _ = sub.done.send(Err(kind(detail.clone())));
        }
    }

    fn broken(&self) -> Option<ClientError> {
        lock(&self.broken)
            .as_ref()
            .map(|(kind, detail)| kind(detail.clone()))
    }

    /// Forgets `rid`'s waiters. Retiring it first means a frame racing
    /// the removal is dropped, not mistaken for a desync.
    fn abandon(&self, rid: u64) {
        lock(&self.retired).insert(rid);
        lock(&self.pending).remove(&rid);
        lock(&self.subs).remove(&rid);
    }
}

/// One connection: its write half, its router, and the reader thread
/// feeding the router. Dropping it closes the socket and joins the reader.
struct Conn {
    stream: Mutex<TcpStream>,
    router: Arc<Router>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Conn {
    fn dial(addr: &str, policy: &RetryPolicy, stale: &Arc<AtomicU64>) -> Result<Self, ClientError> {
        if let Some(fault) = fairsqg_faults::fire("client.connect") {
            let message = match fault {
                Fault::Error(m) => m,
                Fault::ReturnEarly => "connect aborted (injected)".to_string(),
            };
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                message,
            )));
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(policy.write_timeout)?;
        let router = Arc::new(Router {
            pending: Mutex::new(HashMap::new()),
            subs: Mutex::new(HashMap::new()),
            retired: Mutex::new(HashSet::new()),
            stale_deltas: Arc::clone(stale),
            broken: Mutex::new(None),
        });
        let read_half = stream.try_clone()?;
        let r = Arc::clone(&router);
        let reader = std::thread::Builder::new()
            .name("fairsqg-mux-client".to_string())
            .spawn(move || reader_loop(read_half, &r))?;
        Ok(Self {
            stream: Mutex::new(stream),
            router,
            reader: Some(reader),
        })
    }

    /// Sends `request` tagged with `rid` (registering `sub` to receive
    /// its events) and waits up to `timeout` for the reply.
    fn call(
        &self,
        rid: u64,
        mut request: Value,
        sub: Option<SubState>,
        timeout: Option<Duration>,
    ) -> Result<Value, ClientError> {
        let router = &self.router;
        let streaming = sub.is_some();
        let (tx, rx) = mpsc::channel();
        lock(&router.pending).insert(rid, tx);
        if let Some(sub) = sub {
            lock(&router.subs).insert(rid, sub);
        }
        // Checked after registering: a connection that breaks from here on
        // fails these waiters itself.
        if let Some(err) = router.broken() {
            router.abandon(rid);
            return Err(err);
        }
        if let Value::Object(map) = &mut request {
            map.insert("rid".to_string(), Value::from(rid));
        }
        let mut line = request.to_string();
        line.push('\n');
        let sent = {
            let mut stream = lock(&self.stream);
            stream
                .write_all(line.as_bytes())
                .and_then(|()| stream.flush())
        };
        if let Err(e) = sent {
            router.abandon(rid);
            return Err(e.into());
        }
        let reply = match timeout {
            Some(t) => rx.recv_timeout(t),
            None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        };
        let outcome = match reply {
            Ok(reply) => reply.and_then(check_ok),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ClientError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(router
                .broken()
                .unwrap_or_else(|| ClientError::Protocol("connection closed".into()))),
        };
        match &outcome {
            Ok(reply) if streaming => {
                let id = reply.get("id").and_then(Value::as_u64);
                if let (Some(sub), Some(id)) = (lock(&router.subs).get_mut(&rid), id) {
                    sub.job_id.get_or_insert(id);
                }
            }
            Ok(_) => {}
            // The caller stops waiting: a late reply (and, for a streaming
            // submit, its events) is dropped instead of breaking the
            // connection for everyone else on it.
            Err(ClientError::Timeout) => router.abandon(rid),
            // A rejected or lost submit never streams.
            Err(_) if streaming => {
                lock(&router.subs).remove(&rid);
            }
            Err(_) => {}
        }
        outcome
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = lock(&self.stream).shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// A handle to one streaming submission; consume with
/// [`Subscription::wait`].
pub struct Subscription {
    /// The job id from the submit acknowledgement.
    pub id: u64,
    rx: mpsc::Receiver<Result<StreamedResult, ClientError>>,
}

impl Subscription {
    /// Blocks until the job settles (or `timeout` elapses) and returns
    /// the assembled outcome.
    pub fn wait(self, timeout: Duration) -> Result<StreamedResult, ClientError> {
        match self.rx.recv_timeout(timeout) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ClientError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ClientError::Protocol(
                "connection closed before the job settled".into(),
            )),
        }
    }
}

/// Blocking multiplexed client; cheap to share behind an `Arc` — every
/// method takes `&self`, so many threads can drive one connection.
pub struct MuxClient {
    addr: String,
    policy: RetryPolicy,
    /// The current connection; calls clone it out and release the lock.
    conn: Mutex<Option<Arc<Conn>>>,
    /// Request `rid`s and generated request keys, never reused.
    seq: AtomicU64,
    stale_deltas: Arc<AtomicU64>,
}

impl MuxClient {
    /// Connects to `addr` (`host:port`) with the default [`RetryPolicy`].
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        Self::connect_with(addr, RetryPolicy::default())
    }

    /// Connects with an explicit policy, retrying the connect itself with
    /// backoff.
    pub fn connect_with(addr: &str, policy: RetryPolicy) -> Result<Self, ClientError> {
        let client = Self {
            addr: addr.to_string(),
            policy,
            conn: Mutex::new(None),
            seq: AtomicU64::new(1),
            stale_deltas: Arc::new(AtomicU64::new(0)),
        };
        client.current()?;
        Ok(client)
    }

    /// Deltas dropped because their subscription had already settled or
    /// been abandoned.
    pub fn stale_deltas(&self) -> u64 {
        self.stale_deltas.load(Ordering::Relaxed)
    }

    /// The current connection, redialing (with backoff) when there is
    /// none or it broke. Dialing holds the lock, so threads that lost the
    /// same connection wait for one redial instead of each making one.
    fn current(&self) -> Result<Arc<Conn>, ClientError> {
        let mut slot = lock(&self.conn);
        if let Some(conn) = slot.as_ref().filter(|c| c.router.broken().is_none()) {
            return Ok(Arc::clone(conn));
        }
        *slot = None;
        let mut attempt = 0u32;
        let conn = loop {
            match Conn::dial(&self.addr, &self.policy, &self.stale_deltas) {
                Ok(conn) => break Arc::new(conn),
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.policy.max_attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(self.policy.backoff(attempt - 1, u64::from(attempt)));
                }
            }
        };
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Sends `request` once and waits for its reply. A lost connection is
    /// discarded if it is still the current one, so the next call redials.
    fn call(&self, request: Value, sub: Option<SubState>) -> Result<Value, ClientError> {
        let conn = self.current()?;
        let rid = self.seq.fetch_add(1, Ordering::Relaxed);
        let outcome = conn.call(rid, request, sub, self.policy.read_timeout);
        if matches!(&outcome, Err(e) if e.lost_connection()) {
            let mut slot = lock(&self.conn);
            if slot.as_ref().is_some_and(|c| Arc::ptr_eq(c, &conn)) {
                *slot = None;
            }
        }
        outcome
    }

    /// Like [`MuxClient::call`], but replays the request on a fresh
    /// connection (with backoff) when the connection is lost, and retries
    /// structured load rejections (`overloaded`, `shed`,
    /// `quota_exceeded`, `draining`) honoring the server's
    /// `retry_after_ms` hint. Only for requests that are safe to execute
    /// more than once. Retries are bounded by `max_attempts` and, when
    /// set, the policy's wall-clock `retry_budget`.
    fn call_idempotent(&self, request: Value) -> Result<Value, ClientError> {
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            let outcome = self.call(request.clone(), None);
            let hint = match &outcome {
                Err(e) if e.lost_connection() => None,
                Err(ClientError::Server {
                    code,
                    retry_after_ms,
                    ..
                }) if is_retryable_code(code) => *retry_after_ms,
                _ => return outcome,
            };
            attempt += 1;
            if attempt >= self.policy.max_attempts.max(1) {
                return outcome;
            }
            let mut sleep = match hint {
                // Prefer the server's own prediction over blind backoff —
                // it knows its queue — but cap it: a server predicting a
                // minute of drain should not pin this thread that long.
                Some(ms) => Duration::from_millis(ms).min(Duration::from_secs(10)),
                None => self.policy.backoff(attempt - 1, u64::from(attempt)),
            };
            if let Some(budget) = self.policy.retry_budget {
                let remaining = budget.saturating_sub(started.elapsed());
                if remaining.is_zero() {
                    return outcome;
                }
                sleep = sleep.min(remaining);
            }
            std::thread::sleep(sleep);
        }
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), ClientError> {
        self.call_idempotent(op("ping", [])).map(|_| ())
    }

    /// Plain (non-streaming) submit; returns the job id. Specs without a
    /// `request_key` are sent once (a lost connection could leave the job
    /// running server-side unobserved) — prefer
    /// [`MuxClient::submit_idempotent`].
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, ClientError> {
        let mut spec = spec.clone();
        spec.subscribe = false;
        let request = op("submit", [("job", spec.to_value())]);
        let reply = if spec.request_key.is_some() {
            self.call_idempotent(request)?
        } else {
            self.call(request, None)?
        };
        job_id(&reply)
    }

    /// Submits with a generated `request_key` (when the spec has none), so
    /// retries can never run the job twice. Returns the job id.
    pub fn submit_idempotent(&self, spec: &JobSpec) -> Result<u64, ClientError> {
        if spec.request_key.is_some() {
            return self.submit(spec);
        }
        // Wall-clock time plus a number this client never hands out twice.
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO);
        let mut keyed = spec.clone();
        keyed.request_key = Some(format!(
            "ck-{:x}-{:x}-{:x}",
            now.as_secs(),
            now.subsec_nanos(),
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        self.submit(&keyed)
    }

    /// Streaming submit, sent once: the job runs with `subscribe: true`
    /// and its archive deltas flow back over the current connection.
    /// Returns once the acknowledgement arrives; the [`Subscription`]
    /// settles later.
    pub fn submit_streaming(&self, spec: &JobSpec) -> Result<Subscription, ClientError> {
        let mut spec = spec.clone();
        spec.subscribe = true;
        let (done, rx) = mpsc::channel();
        let sub = SubState {
            job_id: None,
            entries: BTreeMap::new(),
            deltas: 0,
            done,
        };
        let reply = self.call(op("submit", [("job", spec.to_value())]), Some(sub))?;
        Ok(Subscription {
            id: job_id(&reply)?,
            rx,
        })
    }

    /// Fetches a job's status body.
    pub fn status(&self, id: u64) -> Result<Value, ClientError> {
        self.call_idempotent(op("status", [("id", Value::from(id))]))
    }

    /// Fetches a settled job's `result` reply body: the archive is its
    /// `result` field (the lossy-stream fallback).
    pub fn result(&self, id: u64) -> Result<Value, ClientError> {
        self.call_idempotent(op("result", [("id", Value::from(id))]))
    }

    /// Requests cancellation of a job (idempotent server-side).
    pub fn cancel(&self, id: u64) -> Result<(), ClientError> {
        self.call_idempotent(op("cancel", [("id", Value::from(id))]))
            .map(|_| ())
    }

    /// Engine statistics (the `stats` op).
    pub fn stats(&self) -> Result<Value, ClientError> {
        self.call_idempotent(op("stats", []))
    }

    /// Registered graphs.
    pub fn graphs(&self) -> Result<Value, ClientError> {
        self.call_idempotent(op("graphs", []))
    }

    /// Prometheus text exposition of the engine statistics.
    pub fn metrics(&self) -> Result<String, ClientError> {
        let reply = self.call_idempotent(op("metrics", []))?;
        reply
            .get("metrics")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics reply missing 'metrics'".into()))
    }

    /// Loads a graph file server-side under `name`; returns its epoch.
    pub fn load(&self, name: &str, path: &str) -> Result<u64, ClientError> {
        let reply = self.call_idempotent(op(
            "load",
            [("name", Value::from(name)), ("path", Value::from(path))],
        ))?;
        reply
            .get("epoch")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("load reply missing 'epoch'".into()))
    }

    /// Asks the server to begin a graceful drain: queued jobs come back
    /// `drained` (replay them elsewhere via their request keys), running
    /// jobs finish, new submissions are rejected with code `draining`.
    /// Returns `(bounced, running)`.
    pub fn drain(&self) -> Result<(u64, u64), ClientError> {
        let reply = self.call(op("drain", []), None)?;
        let field = |name: &str| reply.get(name).and_then(Value::as_u64).unwrap_or(0);
        Ok((field("bounced"), field("running")))
    }

    /// Asks the server to drain and stop.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        self.call(op("shutdown", []), None).map(|_| ())
    }

    /// Polls `status` until the job settles, then returns the `result`
    /// reply body for `done` jobs. Cancelled jobs yield a `Server` error
    /// with code `"cancelled"`; drained jobs one with code `"draining"` —
    /// resubmit elsewhere with the same request key.
    pub fn wait(&self, id: u64, budget: Duration) -> Result<Value, ClientError> {
        let deadline = Instant::now() + budget;
        loop {
            let status = self.status(id)?;
            let (code, message) = match status.get("state").and_then(Value::as_str) {
                Some("done") => return self.result(id),
                Some("failed") => (
                    "internal",
                    status
                        .get("error_message")
                        .and_then(Value::as_str)
                        .unwrap_or("job failed")
                        .to_string(),
                ),
                Some("cancelled") => ("cancelled", format!("job {id} was cancelled")),
                Some("drained") => (
                    "draining",
                    format!("job {id} was drained before running; replay elsewhere"),
                ),
                _ => {
                    if Instant::now() >= deadline {
                        return Err(ClientError::Timeout);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            return Err(ClientError::Server {
                code: code.into(),
                message,
                retry_after_ms: None,
            });
        }
    }
}

/// A request object for `op` with extra `fields`.
fn op<const N: usize>(op: &str, fields: [(&'static str, Value); N]) -> Value {
    Value::object(std::iter::once(("op", Value::from(op))).chain(fields))
}

fn job_id(reply: &Value) -> Result<u64, ClientError> {
    reply
        .get("id")
        .and_then(Value::as_u64)
        .ok_or_else(|| ClientError::Protocol("submit reply missing 'id'".into()))
}

/// The reader thread: demultiplexes frames until EOF or a desync.
fn reader_loop(mut stream: TcpStream, router: &Router) {
    let mut decoder = FrameDecoder::new(64 * 1024 * 1024);
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        decoder.push(&buf[..n]);
        while let Some(frame) = decoder.next_frame() {
            let line = match frame {
                Ok(l) => l,
                Err(e) => {
                    router.fail(
                        ClientError::UnexpectedFrame,
                        format!("undecodable frame: {e}"),
                    );
                    return;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let value = match fairsqg_wire::parse(&line) {
                Ok(v) => v,
                Err(e) => {
                    router.fail(
                        ClientError::UnexpectedFrame,
                        format!("invalid JSON frame: {e}"),
                    );
                    return;
                }
            };
            if let Err(detail) = route_frame(router, value) {
                router.fail(ClientError::UnexpectedFrame, detail);
                return;
            }
        }
    }
    router.fail(ClientError::Protocol, "connection closed".into());
}

/// Routes one frame; `Err` names the desync that breaks the connection.
fn route_frame(router: &Router, mut value: Value) -> Result<(), String> {
    let rid = value.get("rid").and_then(Value::as_u64);
    if let Some(event) = value.get("event").and_then(Value::as_str) {
        let rid = rid.ok_or_else(|| format!("'{event}' event frame without a rid"))?;
        return route_event(router, rid, event, &value);
    }
    let rid = rid.ok_or("response frame without a rid")?;
    // Bind before matching: the guard must not live across the arms.
    let waiter = lock(&router.pending).remove(&rid);
    match waiter {
        Some(tx) => {
            // The caller gets the op's reply body, not the correlation echo.
            if let Value::Object(map) = &mut value {
                map.remove("rid");
            }
            let _ = tx.send(Ok(value));
            Ok(())
        }
        None if lock(&router.retired).contains(&rid) => Ok(()),
        None => Err(format!("response for unknown rid {rid}")),
    }
}

/// Applies one `delta`/`settled` event frame to its subscription.
fn route_event(router: &Router, rid: u64, event: &str, value: &Value) -> Result<(), String> {
    let id = value.get("id").and_then(Value::as_u64);
    let mut subs = lock(&router.subs);
    let Some(sub) = subs.get_mut(&rid) else {
        drop(subs);
        if !lock(&router.retired).contains(&rid) {
            return Err(format!("'{event}' event for unknown rid {rid}"));
        }
        if event == "delta" {
            router.stale_deltas.fetch_add(1, Ordering::Relaxed);
        }
        return Ok(());
    };
    match (sub.job_id, id) {
        (Some(expected), Some(got)) if expected != got => {
            return Err(format!(
                "'{event}' for rid {rid} names job {got}, subscription is job {expected}"
            ));
        }
        (None, Some(got)) => sub.job_id = Some(got),
        _ => {}
    }
    match event {
        "delta" => {
            sub.deltas += 1;
            if let Some(added) = value.get("added").and_then(Value::as_array) {
                for entry in added {
                    if let Some(bindings) = entry.get("bindings").and_then(Value::as_str) {
                        sub.entries.insert(bindings.to_string(), entry.clone());
                    }
                }
            }
            if let Some(removed) = value.get("removed").and_then(Value::as_array) {
                for bindings in removed {
                    if let Some(b) = bindings.as_str() {
                        sub.entries.remove(b);
                    }
                }
            }
            Ok(())
        }
        "settled" => {
            let sub = subs.remove(&rid).expect("sub present");
            drop(subs);
            lock(&router.retired).insert(rid);
            let (done, result) = assemble_settled(sub, value);
            let _ = done.send(Ok(result));
            Ok(())
        }
        other => Err(format!("unknown event kind '{other}' for rid {rid}")),
    }
}

/// Builds the final [`StreamedResult`] from the accumulator and the
/// settled frame — reassembling the canonical result value when the
/// stream was lossless. Returns the channel to deliver it on.
fn assemble_settled(sub: SubState, frame: &Value) -> (DoneSender, StreamedResult) {
    let state = frame
        .get("state")
        .and_then(Value::as_str)
        .unwrap_or("unknown")
        .to_string();
    let truncated = frame
        .get("truncated")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let from_cache = frame
        .get("from_cache")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let lossy = frame.get("lossy").and_then(Value::as_bool).unwrap_or(false);
    let error_message = frame
        .get("error_message")
        .and_then(Value::as_str)
        .map(str::to_string);
    let mut result = None;
    if state == "done" && !lossy {
        let order = frame.get("order").and_then(Value::as_array);
        let eps = frame.get("eps");
        let stats = frame.get("stats");
        if let (Some(order), Some(eps), Some(stats)) = (order, eps, stats) {
            let mut entries = Vec::with_capacity(order.len());
            let mut complete = true;
            for bindings in order {
                match bindings.as_str().and_then(|b| sub.entries.get(b)) {
                    Some(entry) => entries.push(entry.clone()),
                    None => {
                        // An entry the deltas never delivered: treat the
                        // stream as lossy rather than invent data.
                        complete = false;
                        break;
                    }
                }
            }
            if complete && entries.len() == sub.entries.len() {
                result = Some(Value::object([
                    ("eps", eps.clone()),
                    ("truncated", Value::from(truncated)),
                    ("entries", Value::Array(entries)),
                    ("stats", stats.clone()),
                ]));
            }
        }
    }
    (
        sub.done,
        StreamedResult {
            id: sub.job_id.unwrap_or(0),
            state,
            truncated,
            from_cache,
            lossy: lossy || (result.is_none() && frame.get("order").is_some()),
            deltas: sub.deltas,
            error_message,
            result,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            read_timeout: None,
            write_timeout: None,
            retry_budget: None,
        };
        // Jitter is 50%..150%, so bound-check instead of equality.
        let b0 = p.backoff(0, 1);
        assert!(b0 >= Duration::from_millis(5) && b0 <= Duration::from_millis(15));
        let b9 = p.backoff(9, 1);
        assert!(b9 <= Duration::from_millis(150), "cap applies: {b9:?}");
    }

    #[test]
    fn connect_fails_after_max_attempts() {
        // Port 1 on localhost: connection refused immediately.
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            read_timeout: None,
            write_timeout: None,
            retry_budget: None,
        };
        let started = Instant::now();
        let err = match MuxClient::connect_with("127.0.0.1:1", policy) {
            Ok(_) => panic!("connect to a closed port succeeded"),
            Err(e) => e,
        };
        assert!(matches!(err, ClientError::Io(_)));
        // One backoff happened, not max_attempts worth of hanging.
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
