//! The server: a readiness-driven, multiplexed TCP front end.
//!
//! One event-loop thread drives every connection off a
//! [`fairsqg_aio::Poller`] (epoll; serving is Linux-only):
//! nonblocking sockets, a push-based [`FrameDecoder`] per connection, and
//! a per-connection outbound byte queue that engine worker threads append
//! to directly (via [`EventSink`]s) before waking the loop. Generation
//! work itself still runs on the engine's worker pool — the loop only
//! parses, dispatches, and shuttles bytes, so hundreds of multiplexed
//! clients cost one thread instead of one thread each.
//!
//! ## Multiplexing
//!
//! Requests may carry a `rid` field (any JSON value); the response echoes
//! it verbatim, so a client can keep many requests in flight on one
//! connection and correlate replies arriving in any order. Requests
//! without a `rid` are answered without one (strict pipelining order
//! still holds per connection).
//!
//! ## Streaming subscriptions
//!
//! A `submit` whose job sets `"subscribe": true` first receives the
//! normal acknowledgement (`{"ok":true,"id",...,"rid"}`), then zero or
//! more delta frames `{"event":"delta","rid","id","version","added",
//! "removed"}` as the job's Pareto archive improves, then exactly one
//! `{"event":"settled","rid","id","state",...}` frame. For `done` jobs
//! the settled frame carries the result's `eps`, `stats`, and an `order`
//! array — the `bindings` keys of the final entries in render order — so
//! the client reassembles the exact final result from the deltas without
//! the entries ever being sent twice. Frames for one subscription are
//! correlated by the submit's `rid`.
//!
//! ## Backpressure
//!
//! Each connection's outbound queue has two caps. Above the **soft** cap
//! the server stops reading the connection (level-triggered interest is
//! dropped until the peer drains) and sheds subscription *delta* frames,
//! marking the subscription lossy — its settled frame then carries
//! `"lossy": true` and the client refetches the full result via the
//! `result` op. Above the **hard** cap the connection is closed: a peer
//! that far behind is not consuming.
//!
//! ## Metrics
//!
//! The `metrics` op returns the engine's statistics flattened to
//! Prometheus text exposition (see [`metrics_text`]); a literal
//! `GET /metrics` line gets the same text as a plain HTTP/1.0 response
//! (then the connection closes), so a scraper needs no protocol support.

use crate::engine::{Engine, EventSink, JobEvent};
use crate::job::JobSpec;
use crate::proto::{
    error_response, handle_request_from, metrics_text, submit_error_response, submit_ok_response,
};
use crate::sync;
use fairsqg_aio::{Interest, Poller, Waker};
use fairsqg_wire::{FrameDecoder, FrameError, Value};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Connection sequence for per-connection client tags (`mux-<n>`).
static MUX_CONN_SEQ: AtomicU64 = AtomicU64::new(1);

const TOKEN_LISTENER: u64 = u64::MAX - 1;
const TOKEN_WAKER: u64 = u64::MAX;

/// How long a stopping server keeps flushing pending outbound bytes
/// before dropping connections.
const SHUTDOWN_FLUSH_GRACE: Duration = Duration::from_secs(1);

/// Transport limits of a [`MuxServer`].
#[derive(Debug, Clone, Copy)]
pub struct MuxOptions {
    /// Maximum request frame size in bytes; larger frames are rejected
    /// with a `bad_request` response and the stream resyncs at the next
    /// newline.
    pub max_frame_bytes: usize,
    /// Outbound bytes above which the connection stops being read and
    /// subscription delta frames are shed (subscriptions turn lossy).
    pub soft_outbound_bytes: usize,
    /// Outbound bytes above which the connection is closed outright.
    pub hard_outbound_bytes: usize,
}

impl Default for MuxOptions {
    fn default() -> Self {
        Self {
            max_frame_bytes: 4 * 1024 * 1024,
            soft_outbound_bytes: 1024 * 1024,
            hard_outbound_bytes: 8 * 1024 * 1024,
        }
    }
}

/// A per-connection outbound byte queue. Shared between the event loop
/// (which drains it into the socket) and engine worker threads (whose
/// event sinks append frames); the mutex is held only for memcpy-scale
/// work.
struct Outbound {
    buf: Vec<u8>,
    /// Read cursor into `buf` (compacted opportunistically).
    start: usize,
    /// Delta frames shed over the soft cap (connection-lifetime total).
    dropped_deltas: u64,
    /// Set when the connection must be torn down (hard cap, write error).
    closed: bool,
}

impl Outbound {
    fn new() -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            dropped_deltas: 0,
            closed: false,
        }
    }

    fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        // Compact once the dead prefix dominates, so the buffer cannot
        // grow without bound across a long-lived connection.
        if self.start > 64 * 1024 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Appends one frame (newline-terminated JSON) to `out`, enforcing the
/// hard cap, and wakes the event loop. Safe from any thread.
fn enqueue_frame(out: &Mutex<Outbound>, waker: &Waker, hard_cap: usize, frame: &Value) {
    {
        let mut o = sync::lock(out);
        if o.closed {
            return;
        }
        let mut text = frame.to_string();
        text.push('\n');
        o.push(text.as_bytes());
        if o.len() > hard_cap {
            // The peer is unboundedly behind; close instead of buffering
            // toward OOM. The loop tears the connection down on wake.
            o.closed = true;
        }
    }
    waker.wake();
}

/// Echoes the request's `rid` (verbatim, any JSON value) into a response.
fn with_rid(mut response: Value, rid: Option<&Value>) -> Value {
    if let (Value::Object(map), Some(r)) = (&mut response, rid) {
        map.insert("rid".to_string(), r.clone());
    }
    response
}

/// One connection's event-loop state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Arc<Mutex<Outbound>>,
    tag: String,
    /// The interest currently registered with the poller.
    interest: Interest,
    /// Close once the outbound queue drains (metrics scrape, fatal
    /// protocol state).
    close_after_flush: bool,
    /// Transport is gone (EOF, read/write error, hard cap).
    dead: bool,
}

/// A running multiplexed server bound to a local address.
pub struct MuxServer {
    engine: Arc<Engine>,
    listener: TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
    stopping: Arc<AtomicBool>,
    options: MuxOptions,
}

/// Stops a [`MuxServer`]'s event loop from another thread.
#[derive(Clone)]
pub struct MuxStopHandle {
    stopping: Arc<AtomicBool>,
    waker: Arc<Waker>,
}

impl MuxStopHandle {
    /// Flags the server to stop and wakes its event loop.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        self.waker.wake();
    }
}

impl MuxServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) with default
    /// [`MuxOptions`]. Fails with `ErrorKind::Unsupported` on targets
    /// without a readiness facility.
    pub fn bind(addr: &str, engine: Arc<Engine>) -> std::io::Result<Self> {
        Self::bind_with(addr, engine, MuxOptions::default())
    }

    /// Binds with explicit transport limits.
    pub fn bind_with(
        addr: &str,
        engine: Arc<Engine>,
        options: MuxOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        poller.register(waker.fd(), TOKEN_WAKER, Interest::READABLE)?;
        Ok(Self {
            engine,
            listener,
            poller,
            waker,
            stopping: Arc::new(AtomicBool::new(false)),
            options,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops the event loop from another thread.
    pub fn stop_handle(&self) -> MuxStopHandle {
        MuxStopHandle {
            stopping: Arc::clone(&self.stopping),
            waker: Arc::clone(&self.waker),
        }
    }

    /// Runs the event loop until a `shutdown` request (or a
    /// [`MuxStopHandle`]) stops it, then drains the engine. Pending
    /// outbound bytes get a short flush grace before connections drop.
    pub fn serve(self) -> std::io::Result<()> {
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut events = Vec::new();
        let mut next_token: u64 = 0;
        let mut stop_deadline: Option<Instant> = None;
        loop {
            let stopping = self.stopping.load(Ordering::Acquire);
            if stopping {
                let deadline =
                    *stop_deadline.get_or_insert_with(|| Instant::now() + SHUTDOWN_FLUSH_GRACE);
                let drained = conns.values().all(|c| sync::lock(&c.out).len() == 0);
                if drained || Instant::now() >= deadline {
                    break;
                }
            }
            events.clear();
            let timeout = stopping.then_some(Duration::from_millis(20));
            self.poller.wait(&mut events, timeout)?;
            for ev in &events {
                match ev.token {
                    TOKEN_WAKER => self.waker.drain(),
                    TOKEN_LISTENER => self.accept_ready(&mut conns, &mut next_token),
                    token => {
                        if let Some(conn) = conns.get_mut(&token) {
                            if ev.readable {
                                self.read_ready(conn);
                            }
                            if ev.closed && sync::lock(&conn.out).len() == 0 {
                                conn.dead = true;
                            }
                        }
                    }
                }
            }
            // Flush, retune interest, and reap — for every connection,
            // because worker-thread sinks enqueue outside any event.
            conns.retain(|&token, conn| {
                if !conn.dead {
                    flush_outbound(conn);
                }
                let closed = sync::lock(&conn.out).closed;
                if conn.dead || closed {
                    let _ = self.poller.deregister(conn.stream.as_raw_fd());
                    return false;
                }
                let (pending, over_soft) = {
                    let o = sync::lock(&conn.out);
                    (o.len() > 0, o.len() > self.options.soft_outbound_bytes)
                };
                let want = Interest {
                    readable: !over_soft && !conn.close_after_flush,
                    writable: pending,
                };
                if want.readable != conn.interest.readable
                    || want.writable != conn.interest.writable
                {
                    if self
                        .poller
                        .modify(conn.stream.as_raw_fd(), token, want)
                        .is_err()
                    {
                        let _ = self.poller.deregister(conn.stream.as_raw_fd());
                        return false;
                    }
                    conn.interest = want;
                }
                true
            });
            if self.stopping.load(Ordering::Acquire) {
                continue;
            }
        }
        drop(conns);
        self.engine.shutdown();
        Ok(())
    }

    /// Accepts every pending connection (nonblocking accept loop).
    fn accept_ready(&self, conns: &mut HashMap<u64, Conn>, next_token: &mut u64) {
        loop {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Small tagged frames must not sit in Nagle's buffer waiting
            // on delayed ACKs: an ack or delta is useful the moment it
            // exists.
            stream.set_nodelay(true).ok();
            let token = *next_token;
            *next_token += 1;
            if self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READABLE)
                .is_err()
            {
                continue;
            }
            let tag = format!("mux-{}", MUX_CONN_SEQ.fetch_add(1, Ordering::Relaxed));
            conns.insert(
                token,
                Conn {
                    stream,
                    decoder: FrameDecoder::new(self.options.max_frame_bytes),
                    out: Arc::new(Mutex::new(Outbound::new())),
                    tag,
                    interest: Interest::READABLE,
                    close_after_flush: false,
                    dead: false,
                },
            );
        }
    }

    /// Drains the socket into the frame decoder and dispatches every
    /// complete frame. The `server.read` fail point injects a transport
    /// error exactly like a dead peer.
    fn read_ready(&self, conn: &mut Conn) {
        // Over the soft cap the connection is not read (interest already
        // dropped); this guard covers the event that raced the retune.
        if sync::lock(&conn.out).len() > self.options.soft_outbound_bytes {
            return;
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // The peer is done sending but may still be reading
                    // (a half-close after a pipelined burst): answer what
                    // it sent, then close.
                    conn.decoder.finish();
                    self.dispatch_frames(conn);
                    conn.close_after_flush = true;
                    return;
                }
                Ok(n) => {
                    if fairsqg_faults::fire("server.read").is_some() {
                        conn.dead = true;
                        return;
                    }
                    conn.decoder.push(&buf[..n]);
                    self.dispatch_frames(conn);
                    if conn.dead || conn.close_after_flush {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Handles every frame the decoder has ready.
    fn dispatch_frames(&self, conn: &mut Conn) {
        while let Some(frame) = conn.decoder.next_frame() {
            match frame {
                Ok(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    if line.starts_with("GET /metrics") {
                        self.serve_metrics_scrape(conn);
                        return;
                    }
                    self.handle_line(conn, &line);
                    if conn.close_after_flush {
                        return;
                    }
                }
                Err(FrameError::TooLarge { limit }) => self.enqueue(
                    conn,
                    &error_response(
                        "bad_request",
                        &format!("frame exceeds {limit} bytes; line discarded"),
                    ),
                ),
                Err(FrameError::Io(e)) if e.kind() == ErrorKind::InvalidData => self.enqueue(
                    conn,
                    &error_response("bad_request", &format!("unreadable frame: {e}")),
                ),
                Err(FrameError::Io(_)) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Answers a plain-HTTP metrics scrape and closes after the flush.
    fn serve_metrics_scrape(&self, conn: &mut Conn) {
        let body = metrics_text(&self.engine);
        let http = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let mut o = sync::lock(&conn.out);
        if !o.closed {
            o.push(http.as_bytes());
        }
        drop(o);
        conn.close_after_flush = true;
    }

    /// Parses and executes one request line.
    fn handle_line(&self, conn: &mut Conn, line: &str) {
        let request = match fairsqg_wire::parse(line) {
            Ok(v) => v,
            Err(e) => {
                self.enqueue(
                    conn,
                    &error_response("bad_request", &format!("invalid JSON: {e}")),
                );
                return;
            }
        };
        let rid = request.get("rid").cloned();
        let subscribe = request.get("op").and_then(Value::as_str) == Some("submit")
            && request
                .get("job")
                .and_then(|j| j.get("subscribe"))
                .and_then(Value::as_bool)
                == Some(true);
        if subscribe {
            self.handle_streaming_submit(conn, &request, rid.as_ref());
            return;
        }
        let (response, shutdown) = handle_request_from(&self.engine, &request, Some(&conn.tag));
        self.enqueue(conn, &with_rid(response, rid.as_ref()));
        if shutdown {
            self.stopping.store(true, Ordering::Release);
        }
    }

    /// A subscribing submit: acknowledge first (so the ack always
    /// precedes the event frames on the wire), then attach the sink —
    /// the engine's settlement catch-up covers anything the job streamed
    /// in between.
    fn handle_streaming_submit(&self, conn: &mut Conn, request: &Value, rid: Option<&Value>) {
        let Some(job) = request.get("job") else {
            self.enqueue(
                conn,
                &with_rid(error_response("bad_request", "missing 'job'"), rid),
            );
            return;
        };
        let mut spec = match JobSpec::from_value(job) {
            Ok(s) => s,
            Err(m) => {
                self.enqueue(conn, &with_rid(error_response("bad_request", &m), rid));
                return;
            }
        };
        if spec.client.is_none() {
            spec.client = Some(conn.tag.clone());
        }
        match self.engine.submit(spec) {
            Ok(id) => {
                self.enqueue(conn, &with_rid(submit_ok_response(&self.engine, id), rid));
                let sink = self.make_event_sink(conn, rid.cloned());
                self.engine.subscribe(id, sink);
            }
            Err(e) => self.enqueue(conn, &with_rid(submit_error_response(&e), rid)),
        }
    }

    /// Builds the [`EventSink`] bridging one subscription onto this
    /// connection. Runs on engine worker threads: it renders the event
    /// to a frame, appends it to the outbound queue, and wakes the loop.
    /// Over the soft cap delta frames are shed (the subscription turns
    /// lossy); settled frames always go out (the hard cap is their only
    /// limit).
    fn make_event_sink(&self, conn: &Conn, rid: Option<Value>) -> EventSink {
        let out = Arc::clone(&conn.out);
        let waker = Arc::clone(&self.waker);
        let soft = self.options.soft_outbound_bytes;
        let hard = self.options.hard_outbound_bytes;
        let lossy = AtomicBool::new(false);
        Arc::new(move |ev: &JobEvent| {
            let frame = match ev {
                JobEvent::Delta {
                    id,
                    version,
                    added,
                    removed,
                } => {
                    {
                        let mut o = sync::lock(&out);
                        if o.closed {
                            return;
                        }
                        if o.len() > soft {
                            o.dropped_deltas += 1;
                            lossy.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                    let removed: Vec<Value> =
                        removed.iter().map(|b| Value::from(b.as_str())).collect();
                    let mut pairs = vec![
                        ("event", Value::from("delta")),
                        ("id", Value::from(*id)),
                        ("version", Value::from(*version)),
                        ("added", Value::Array(added.clone())),
                        ("removed", Value::Array(removed)),
                    ];
                    if let Some(r) = &rid {
                        pairs.push(("rid", r.clone()));
                    }
                    Value::object(pairs)
                }
                JobEvent::Settled {
                    id,
                    state,
                    truncated,
                    from_cache,
                    error,
                    result,
                } => {
                    let mut pairs = vec![
                        ("event", Value::from("settled")),
                        ("id", Value::from(*id)),
                        ("state", Value::from(state.name())),
                        ("truncated", Value::from(*truncated)),
                        ("from_cache", Value::from(*from_cache)),
                        ("lossy", Value::from(lossy.load(Ordering::Relaxed))),
                    ];
                    if let Some(e) = error {
                        pairs.push(("error_message", Value::from(e.as_str())));
                    }
                    if let Some(result) = result {
                        if let Some(eps) = result.get("eps") {
                            pairs.push(("eps", eps.clone()));
                        }
                        if let Some(stats) = result.get("stats") {
                            pairs.push(("stats", stats.clone()));
                        }
                        let order: Vec<Value> = result
                            .get("entries")
                            .and_then(Value::as_array)
                            .map(|entries| {
                                entries
                                    .iter()
                                    .filter_map(|e| e.get("bindings"))
                                    .cloned()
                                    .collect()
                            })
                            .unwrap_or_default();
                        pairs.push(("order", Value::Array(order)));
                    }
                    if let Some(r) = &rid {
                        pairs.push(("rid", r.clone()));
                    }
                    Value::object(pairs)
                }
            };
            enqueue_frame(&out, &waker, hard, &frame);
        })
    }

    /// Enqueues a response frame from the event-loop thread.
    fn enqueue(&self, conn: &Conn, frame: &Value) {
        enqueue_frame(
            &conn.out,
            &self.waker,
            self.options.hard_outbound_bytes,
            frame,
        );
    }
}

/// Writes as much pending outbound as the socket accepts. Marks the
/// connection dead on transport errors (the `server.write` fail point
/// injects one) or once a `close_after_flush` connection drains.
fn flush_outbound(conn: &mut Conn) {
    let mut o = sync::lock(&conn.out);
    while o.len() > 0 {
        if fairsqg_faults::fire("server.write").is_some() {
            o.closed = true;
            conn.dead = true;
            return;
        }
        let slice_start = o.start;
        match conn.stream.write(&o.buf[slice_start..]) {
            Ok(0) => {
                o.closed = true;
                conn.dead = true;
                return;
            }
            Ok(n) => o.consume(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                o.closed = true;
                conn.dead = true;
                return;
            }
        }
    }
    if conn.close_after_flush && o.len() == 0 {
        conn.dead = true;
    }
}

/// Convenience: serve `engine` on `addr` in a background thread, returning
/// the bound address, the stop handle, and the server thread's handle.
pub fn spawn_mux(
    addr: &str,
    engine: Arc<Engine>,
) -> std::io::Result<(
    SocketAddr,
    MuxStopHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
)> {
    spawn_mux_with(addr, engine, MuxOptions::default())
}

/// [`spawn_mux`] with explicit transport limits.
pub fn spawn_mux_with(
    addr: &str,
    engine: Arc<Engine>,
    options: MuxOptions,
) -> std::io::Result<(
    SocketAddr,
    MuxStopHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
)> {
    let server = MuxServer::bind_with(addr, engine, options)?;
    let bound = server.local_addr()?;
    let stop = server.stop_handle();
    let handle = std::thread::Builder::new()
        .name("fairsqg-mux".to_string())
        .spawn(move || server.serve())
        .expect("spawn mux server thread");
    Ok((bound, stop, handle))
}
