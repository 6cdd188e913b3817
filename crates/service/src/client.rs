//! Blocking client for the NDJSON wire protocol, with retry/backoff.
//!
//! Transport robustness lives here so callers don't re-implement it:
//!
//! * **Connect retries** — `connect` retries with exponential backoff and
//!   jitter (policy-controlled) before giving up.
//! * **Timeouts** — every socket gets per-request read/write timeouts, so
//!   a stalled server surfaces as an error instead of a hang.
//! * **Reconnect + idempotent retry** — read-only requests (and submits
//!   carrying a `request_key`) are replayed on a fresh connection when the
//!   old one dies mid-request; the server dedups the key, so a replayed
//!   submit maps to the original job instead of running twice.

use crate::job::JobSpec;
use fairsqg_faults::Fault;
use fairsqg_wire::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's reply was not valid JSON.
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
    /// `wait` ran out of budget before the job settled.
    Timeout,
    /// A multiplexed frame arrived with an unknown correlation id
    /// (`rid`), or its job `id` contradicts the subscription it was
    /// routed to — the stream is desynchronized and the connection
    /// should be abandoned.
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
            ClientError::Timeout => write!(f, "timed out waiting for the job"),
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

/// Maps a reply to `Ok(value)` when it carries `"ok": true`, otherwise to
/// the typed [`ClientError::Server`] (shared by [`Client`] and
/// [`crate::MuxClient`] so both surface identical errors).
pub(crate) fn check_ok(value: Value) -> Result<Value, ClientError> {
    match value.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(value),
        _ => {
            let code = value
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .unwrap_or("internal")
                .to_string();
            let message = value
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap_or("unknown error")
                .to_string();
            let retry_after_ms = value
                .get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Value::as_u64);
            Err(ClientError::Server {
                code,
                message,
                retry_after_ms,
            })
        }
    }
}

/// Retry/timeout policy of a [`Client`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per operation (connect, or idempotent request), ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Socket read timeout (None = block forever).
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
    /// A policy that never retries and never times out (the pre-robustness
    /// behavior; useful in tests that assert on first-failure semantics).
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

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A connected client. One request/response in flight at a time.
pub struct Client {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Conn>,
    request_seq: u64,
}

impl Client {
    /// Connects to `addr` (`host:port`) with the default [`RetryPolicy`].
    pub fn connect(addr: &str) -> Result<Self, ClientError> {
        Self::connect_with(addr, RetryPolicy::default())
    }

    /// Connects with an explicit policy, retrying the connect itself with
    /// backoff.
    pub fn connect_with(addr: &str, policy: RetryPolicy) -> Result<Self, ClientError> {
        let mut client = Self {
            addr: addr.to_string(),
            policy,
            conn: None,
            request_seq: 0,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// The retry policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    fn dial(&self) -> Result<Conn, ClientError> {
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
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(self.policy.read_timeout)?;
        stream.set_write_timeout(self.policy.write_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut attempt = 0u32;
        loop {
            match self.dial() {
                Ok(conn) => {
                    self.conn = Some(conn);
                    return Ok(());
                }
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.policy.max_attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(self.policy.backoff(attempt - 1, u64::from(attempt)));
                }
            }
        }
    }

    /// Sends one request object, returns the `ok: true` response body or a
    /// [`ClientError::Server`] for `ok: false` replies. Transport failures
    /// drop the connection (a later request reconnects) and are returned
    /// to the caller — use [`Client::request_idempotent`] when the request
    /// is safe to replay.
    pub fn request(&mut self, request: &Value) -> Result<Value, ClientError> {
        self.ensure_connected()?;
        let outcome = self.exchange(request);
        if matches!(outcome, Err(ClientError::Io(_) | ClientError::Protocol(_))) {
            self.conn = None;
        }
        outcome
    }

    /// Like [`Client::request`], but replays the request on a fresh
    /// connection (with backoff) when the transport fails, and retries
    /// *structured load rejections* (`overloaded`, `shed`,
    /// `quota_exceeded`, `draining`) honoring the server's
    /// `retry_after_ms` hint. Only use for requests that are safe to
    /// execute more than once — reads, cancels, and submits carrying a
    /// `request_key`. Retries are bounded by `max_attempts` and, when
    /// set, the policy's wall-clock `retry_budget`.
    pub fn request_idempotent(&mut self, request: &Value) -> Result<Value, ClientError> {
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            let outcome = self.request(request);
            let pause = match &outcome {
                Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => None,
                Err(ClientError::Server {
                    code,
                    retry_after_ms,
                    ..
                }) if is_retryable_code(code) => {
                    // Prefer the server's own prediction over blind
                    // exponential backoff — it knows its queue.
                    Some(retry_after_ms.map(Duration::from_millis))
                }
                _ => return outcome,
            };
            attempt += 1;
            if attempt >= self.policy.max_attempts.max(1) {
                return outcome;
            }
            let mut sleep = match pause {
                // Cap the hint: a server predicting a minute of drain
                // should not pin this thread for a minute per attempt.
                Some(Some(hint)) => hint.min(Duration::from_secs(10)),
                _ => self.policy.backoff(attempt - 1, u64::from(attempt)),
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

    fn exchange(&mut self, request: &Value) -> Result<Value, ClientError> {
        let conn = self.conn.as_mut().expect("connected");
        let mut line = request.to_string();
        line.push('\n');
        conn.writer.write_all(line.as_bytes())?;
        conn.writer.flush()?;
        let mut reply = String::new();
        let n = conn.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(ClientError::Protocol("connection closed".into()));
        }
        let value =
            fairsqg_wire::parse(&reply).map_err(|e| ClientError::Protocol(e.to_string()))?;
        check_ok(value)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request_idempotent(&Value::object([("op", Value::from("ping"))]))
            .map(|_| ())
    }

    /// Submits a job; returns its id. Specs without a `request_key` are
    /// sent once (a transport failure could leave the job running
    /// server-side unobserved) — prefer [`Client::submit_idempotent`].
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, ClientError> {
        let request = Value::object([("op", Value::from("submit")), ("job", spec.to_value())]);
        let reply = if spec.request_key.is_some() {
            self.request_idempotent(&request)?
        } else {
            self.request(&request)?
        };
        reply
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("submit reply missing 'id'".into()))
    }

    /// Submits with a generated `request_key` (when the spec has none), so
    /// transport-level retries can never run the job twice. Returns the
    /// job id.
    pub fn submit_idempotent(&mut self, spec: &JobSpec) -> Result<u64, ClientError> {
        if spec.request_key.is_some() {
            return self.submit(spec);
        }
        let mut keyed = spec.clone();
        keyed.request_key = Some(self.fresh_request_key());
        self.submit(&keyed)
    }

    /// A key unique enough for server-side dedup: wall-clock nanoseconds
    /// plus a per-client sequence number.
    fn fresh_request_key(&mut self) -> String {
        self.request_seq += 1;
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO);
        format!(
            "ck-{:x}-{:x}-{:x}",
            now.as_secs(),
            now.subsec_nanos(),
            self.request_seq
        )
    }

    /// Fetches a job's status body.
    pub fn status(&mut self, id: u64) -> Result<Value, ClientError> {
        self.request_idempotent(&Value::object([
            ("op", Value::from("status")),
            ("id", Value::from(id)),
        ]))
    }

    /// Fetches a finished job's result body.
    pub fn result(&mut self, id: u64) -> Result<Value, ClientError> {
        self.request_idempotent(&Value::object([
            ("op", Value::from("result")),
            ("id", Value::from(id)),
        ]))
    }

    /// Requests cancellation of a job (idempotent server-side).
    pub fn cancel(&mut self, id: u64) -> Result<(), ClientError> {
        self.request_idempotent(&Value::object([
            ("op", Value::from("cancel")),
            ("id", Value::from(id)),
        ]))
        .map(|_| ())
    }

    /// Engine statistics.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.request_idempotent(&Value::object([("op", Value::from("stats"))]))
    }

    /// Registered graphs.
    pub fn graphs(&mut self) -> Result<Value, ClientError> {
        self.request_idempotent(&Value::object([("op", Value::from("graphs"))]))
    }

    /// Engine statistics rendered as Prometheus text exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let reply = self.request_idempotent(&Value::object([("op", Value::from("metrics"))]))?;
        reply
            .get("metrics")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics reply missing 'metrics'".into()))
    }

    /// Loads a TSV graph file server-side under `name`.
    pub fn load(&mut self, name: &str, path: &str) -> Result<u64, ClientError> {
        let reply = self.request_idempotent(&Value::object([
            ("op", Value::from("load")),
            ("name", Value::from(name)),
            ("path", Value::from(path)),
        ]))?;
        reply
            .get("epoch")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("load reply missing 'epoch'".into()))
    }

    /// Asks the server to begin a graceful drain: queued jobs come back
    /// `drained` (replay them elsewhere via their request keys), running
    /// jobs finish, new submissions are rejected with code `draining`.
    /// Returns `(bounced, running)`.
    pub fn drain(&mut self) -> Result<(u64, u64), ClientError> {
        let reply = self.request(&Value::object([("op", Value::from("drain"))]))?;
        let field = |name: &str| reply.get(name).and_then(Value::as_u64).unwrap_or(0);
        Ok((field("bounced"), field("running")))
    }

    /// Asks the server to drain and stop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Value::object([("op", Value::from("shutdown"))]))
            .map(|_| ())
    }

    /// Polls `status` until the job settles, then returns the `result`
    /// body for `done` jobs. Cancelled jobs yield a `Server` error with
    /// code `"cancelled"`; drained jobs one with code `"draining"` —
    /// resubmit elsewhere with the same request key.
    pub fn wait(&mut self, id: u64, budget: Duration) -> Result<Value, ClientError> {
        let deadline = Instant::now() + budget;
        loop {
            let status = self.status(id)?;
            match status.get("state").and_then(Value::as_str) {
                Some("done") => return self.result(id),
                Some("failed") => {
                    return Err(ClientError::Server {
                        code: "internal".into(),
                        message: status
                            .get("error_message")
                            .and_then(Value::as_str)
                            .unwrap_or("job failed")
                            .to_string(),
                        retry_after_ms: None,
                    })
                }
                Some("cancelled") => {
                    return Err(ClientError::Server {
                        code: "cancelled".into(),
                        message: format!("job {id} was cancelled"),
                        retry_after_ms: None,
                    })
                }
                Some("drained") => {
                    return Err(ClientError::Server {
                        code: "draining".into(),
                        message: format!("job {id} was drained before running; replay elsewhere"),
                        retry_after_ms: None,
                    })
                }
                _ => {}
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Server rejection codes that are worth retrying from
/// [`Client::request_idempotent`]: all of them mean "not now", carry (or
/// imply) a wait hint, and are safe to replay.
fn is_retryable_code(code: &str) -> bool {
    matches!(code, "overloaded" | "shed" | "quota_exceeded" | "draining")
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
        let err = match Client::connect_with("127.0.0.1:1", policy) {
            Ok(_) => panic!("connect to a closed port succeeded"),
            Err(e) => e,
        };
        assert!(matches!(err, ClientError::Io(_)));
        // One backoff happened, not max_attempts worth of hanging.
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
