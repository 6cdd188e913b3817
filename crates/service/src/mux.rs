//! The server: a readiness-driven, multiplexed TCP front end.
//!
//! One event-loop thread drives every connection off a
//! [`fairsqg_aio::Poller`] (epoll; serving is Linux-only):
//! nonblocking sockets, a push-based [`FrameDecoder`] per connection, and
//! a per-connection outbound byte queue that engine worker threads append
//! to directly (via [`EventSink`]s) before waking the loop. Generation
//! work itself still runs on the engine's worker pool — the loop only
//! parses, dispatches, and shuttles bytes, so hundreds of multiplexed
//! clients cost one thread instead of one thread each. Frames are written
//! once, straight into the outbound queue, from borrowed values
//! ([`fairsqg_wire::write_object`]); only other threads wake the loop,
//! because each iteration ends in a flush pass over every connection.
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
//! A readable connection gets one `read` per readiness: a short read
//! means the socket is empty, and level-triggered readiness reports any
//! later bytes on the next wait. A peer that has closed is read on to
//! EOF, so a half-closed peer's last request is still answered.
//!
//! ## Metrics
//!
//! The `metrics` op returns the engine's statistics flattened to
//! Prometheus text exposition (see [`metrics_text`]); a literal
//! `GET /metrics` line gets the same text as a plain HTTP/1.0 response
//! (then the connection closes), so a scraper needs no protocol support.

use crate::engine::{Added, Engine, EventSink, JobEvent};
use crate::job::JobSpec;
use crate::proto::{
    error_response, handle_request_from, metrics_text, submit_error_response, submit_ok_response,
    Reply,
};
use crate::sync;
use fairsqg_aio::{Interest, Poller, Waker};
use fairsqg_wire::{write_object, Field, FrameDecoder, FrameError, Value};
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
/// event sinks append frames); the mutex is held for one frame's
/// serialization at most.
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
        self.rewind_if_empty();
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one newline-terminated frame, serialized by `write`
    /// straight into the queue, unless the connection is closed. Past
    /// `hard_cap` the peer is unboundedly behind: the connection closes
    /// instead of buffering toward OOM, and the loop tears it down.
    fn push_frame(&mut self, hard_cap: usize, write: impl FnOnce(&mut Vec<u8>)) {
        if self.closed {
            return;
        }
        self.rewind_if_empty();
        write(&mut self.buf);
        self.buf.push(b'\n');
        if self.len() > hard_cap {
            self.closed = true;
        }
    }

    fn rewind_if_empty(&mut self) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
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

/// Writes a response object with the request's `rid` (verbatim, any JSON
/// value) echoed into it.
fn write_response(buf: &mut Vec<u8>, response: &Value, rid: Option<&Value>) {
    let Value::Object(map) = response else {
        // Every response the protocol builds is an object; anything else
        // has no key to echo the rid under and goes out as it is.
        buf.extend_from_slice(response.to_string().as_bytes());
        return;
    };
    let mut fields: Vec<(&str, Field)> = map
        .iter()
        .map(|(k, v)| (k.as_str(), Field::Value(v)))
        .chain(rid.map(|r| ("rid", Field::Value(r))))
        .collect();
    write_object(buf, &mut fields);
}

/// Writes a reply, with the request's `rid` echoed into it: a `result`
/// reply from the shared result, borrowed.
fn write_reply(buf: &mut Vec<u8>, reply: &Reply, rid: Option<&Value>) {
    let (id, from_cache, result) = match reply {
        Reply::Value(response) => return write_response(buf, response, rid),
        Reply::Result {
            id,
            from_cache,
            result,
        } => (id, from_cache, result),
    };
    let mut fields = vec![
        ("ok", Field::Bool(true)),
        ("id", Field::U64(*id)),
        ("from_cache", Field::Bool(*from_cache)),
        ("result", Field::Value(result)),
    ];
    if let Some(r) = rid {
        fields.push(("rid", Field::Value(r)));
    }
    write_object(buf, &mut fields);
}

/// Writes one subscription event frame from the event's own fields and,
/// for a catch-up delta or a settled `Done` job, the shared result's:
/// nothing is cloned. A catch-up that carries every entry is written from
/// the result's stored encoding (built on first use), and a settled frame
/// uses it once it exists. Returns whether the stored encoding was
/// written.
fn write_event_frame(buf: &mut Vec<u8>, ev: &JobEvent, lossy: bool, rid: Option<&Value>) -> bool {
    let picked: Vec<&Value>;
    let order: Vec<&Value>;
    let mut stored = false;
    let mut fields: Vec<(&str, Field)> = Vec::with_capacity(11);
    match ev {
        JobEvent::Delta {
            id,
            version,
            added,
            removed,
        } => {
            let added = match added {
                Added::Live(entries) => Field::Values(entries),
                Added::All(result) => {
                    stored = true;
                    Field::Json(&result.wire().added)
                }
                Added::Missing(result, at) => {
                    let entries = result.entries();
                    picked = at.iter().map(|&i| &entries[i]).collect();
                    Field::Refs(&picked)
                }
            };
            fields.extend([
                ("event", Field::Str("delta")),
                ("id", Field::U64(*id)),
                ("version", Field::U64(*version)),
                ("added", added),
                ("removed", Field::Strs(removed)),
            ]);
        }
        JobEvent::Settled {
            id,
            state,
            truncated,
            from_cache,
            error,
            result,
        } => {
            fields.extend([
                ("event", Field::Str("settled")),
                ("id", Field::U64(*id)),
                ("state", Field::Str(state.name())),
                ("truncated", Field::Bool(*truncated)),
                ("from_cache", Field::Bool(*from_cache)),
                ("lossy", Field::Bool(lossy)),
            ]);
            if let Some(e) = error {
                fields.push(("error_message", Field::Str(e)));
            }
            if let Some(result) = result {
                if let Some(wire) = result.encoded() {
                    stored = true;
                    if let Some(eps) = &wire.eps {
                        fields.push(("eps", Field::Json(eps)));
                    }
                    if let Some(stats) = &wire.stats {
                        fields.push(("stats", Field::Json(stats)));
                    }
                    fields.push(("order", Field::Json(&wire.order)));
                } else {
                    if let Some(eps) = result.get("eps") {
                        fields.push(("eps", Field::Value(eps)));
                    }
                    if let Some(stats) = result.get("stats") {
                        fields.push(("stats", Field::Value(stats)));
                    }
                    order = result
                        .entries()
                        .iter()
                        .filter_map(|e| e.get("bindings"))
                        .collect();
                    fields.push(("order", Field::Refs(&order)));
                }
            }
        }
    }
    if let Some(r) = rid {
        fields.push(("rid", Field::Value(r)));
    }
    write_object(buf, &mut fields);
    stored
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
    /// The engine's `streaming.stored_frames` counter.
    stored_frames: Arc<AtomicU64>,
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
            stored_frames: engine.stored_frames(),
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
                                self.read_ready(conn, ev.closed);
                            }
                            if ev.closed && sync::lock(&conn.out).len() == 0 {
                                conn.dead = true;
                            }
                        }
                    }
                }
            }
            // Flush, retune interest, and reap — for every connection,
            // because worker-thread sinks enqueue outside any event. This
            // pass is also what sends the frames this thread enqueued
            // above, which is why the loop never wakes itself.
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

    /// Reads the socket into the frame decoder and dispatches every
    /// complete frame. A short read ends the pass (level-triggered
    /// readiness reports anything that arrives later) unless the peer has
    /// closed: then reading goes on to EOF, so the decoder gets to finish
    /// a half-closed peer's last request. The `server.read` fail point
    /// injects a transport error exactly like a dead peer.
    fn read_ready(&self, conn: &mut Conn, peer_closed: bool) {
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
                    if conn.dead || conn.close_after_flush || (n < buf.len() && !peer_closed) {
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
                    None,
                ),
                Err(FrameError::Io(e)) if e.kind() == ErrorKind::InvalidData => self.enqueue(
                    conn,
                    &error_response("bad_request", &format!("unreadable frame: {e}")),
                    None,
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
                    None,
                );
                return;
            }
        };
        let rid = request.get("rid");
        let subscribe = request.get("op").and_then(Value::as_str) == Some("submit")
            && request
                .get("job")
                .and_then(|j| j.get("subscribe"))
                .and_then(Value::as_bool)
                == Some(true);
        if subscribe {
            self.handle_streaming_submit(conn, &request, rid);
            return;
        }
        let (reply, shutdown) = handle_request_from(&self.engine, &request, Some(&conn.tag));
        sync::lock(&conn.out).push_frame(self.options.hard_outbound_bytes, |buf| {
            write_reply(buf, &reply, rid);
        });
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
            self.enqueue(conn, &error_response("bad_request", "missing 'job'"), rid);
            return;
        };
        let mut spec = match JobSpec::from_value(job) {
            Ok(s) => s,
            Err(m) => {
                self.enqueue(conn, &error_response("bad_request", &m), rid);
                return;
            }
        };
        if spec.client.is_none() {
            spec.client = Some(conn.tag.clone());
        }
        match self.engine.submit(spec) {
            Ok(id) => {
                self.enqueue(conn, &submit_ok_response(&self.engine, id), rid);
                let sink = self.make_event_sink(conn, rid.cloned());
                self.engine.subscribe(id, sink);
            }
            Err(e) => self.enqueue(conn, &submit_error_response(&e), rid),
        }
    }

    /// Builds the [`EventSink`] bridging one subscription onto this
    /// connection. It writes each event's frame into the outbound queue
    /// and, unless it runs on this server's loop thread (a job that had
    /// already settled when subscribed, or one settled by a request this
    /// loop handles), wakes the loop. Over the soft cap delta frames are
    /// shed (the subscription turns lossy); settled frames always go out
    /// (the hard cap is their only limit).
    fn make_event_sink(&self, conn: &Conn, rid: Option<Value>) -> EventSink {
        let out = Arc::clone(&conn.out);
        let waker = Arc::clone(&self.waker);
        // Subscriptions are made while handling a request, on the loop
        // thread. Per server, not per process: servers may share an engine.
        let loop_thread = std::thread::current().id();
        let soft = self.options.soft_outbound_bytes;
        let hard = self.options.hard_outbound_bytes;
        let lossy = AtomicBool::new(false);
        let stored_frames = Arc::clone(&self.stored_frames);
        Arc::new(move |ev: &JobEvent| {
            {
                let mut o = sync::lock(&out);
                if o.closed {
                    return;
                }
                if matches!(ev, JobEvent::Delta { .. }) && o.len() > soft {
                    o.dropped_deltas += 1;
                    lossy.store(true, Ordering::Relaxed);
                    return;
                }
                let lossy = lossy.load(Ordering::Relaxed);
                let mut stored = false;
                o.push_frame(hard, |buf| {
                    stored = write_event_frame(buf, ev, lossy, rid.as_ref());
                });
                if stored {
                    stored_frames.fetch_add(1, Ordering::Relaxed);
                }
            }
            if std::thread::current().id() != loop_thread {
                waker.wake();
            }
        })
    }

    /// Enqueues a response frame from the event-loop thread. No wake:
    /// this iteration's flush pass sends it.
    fn enqueue(&self, conn: &Conn, response: &Value, rid: Option<&Value>) {
        sync::lock(&conn.out).push_frame(self.options.hard_outbound_bytes, |buf| {
            write_response(buf, response, rid);
        });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{entry_key, JobResult, JobState};

    /// The frames as the server built them before [`write_event_frame`]:
    /// an owned [`Value`] deep-copied out of the event. Kept as the oracle.
    fn event_frame_value(ev: &JobEvent, lossy: bool, rid: Option<&Value>) -> Value {
        let mut pairs = match ev {
            JobEvent::Delta {
                id,
                version,
                added,
                removed,
            } => {
                let added: Vec<Value> = match added {
                    Added::Live(entries) => entries.clone(),
                    Added::All(result) => result
                        .entries()
                        .iter()
                        .filter(|e| entry_key(e).is_some())
                        .cloned()
                        .collect(),
                    Added::Missing(result, at) => {
                        at.iter().map(|&i| result.entries()[i].clone()).collect()
                    }
                };
                let removed: Vec<Value> = removed.iter().map(|b| Value::from(b.as_str())).collect();
                vec![
                    ("event", Value::from("delta")),
                    ("id", Value::from(*id)),
                    ("version", Value::from(*version)),
                    ("added", Value::Array(added)),
                    ("removed", Value::Array(removed)),
                ]
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
                    ("lossy", Value::from(lossy)),
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
                pairs
            }
        };
        if let Some(r) = rid {
            pairs.push(("rid", r.clone()));
        }
        Value::object(pairs)
    }

    /// The `result` reply as the protocol built it before [`Reply::Result`]:
    /// the whole result deep-copied into the response. Kept as the oracle.
    fn result_reply_value(reply: &Reply, rid: Option<&Value>) -> Value {
        let mut oracle = match reply {
            Reply::Value(v) => v.clone(),
            Reply::Result {
                id,
                from_cache,
                result,
            } => Value::object([
                ("ok", Value::from(true)),
                ("id", Value::from(*id)),
                ("from_cache", Value::from(*from_cache)),
                ("result", (**result).clone()),
            ]),
        };
        if let (Value::Object(map), Some(r)) = (&mut oracle, rid) {
            map.insert("rid".to_string(), r.clone());
        }
        oracle
    }

    fn entry(bindings: &str, query: &str) -> Value {
        Value::object([
            ("bindings", Value::from(bindings)),
            ("query", Value::from(query)),
            ("score", Value::Float(0.5)),
            ("matches", Value::from(vec![3i64, 1])),
        ])
    }

    const TRICKY: &str = "u1.yearsOfExp >= 3 \"quoted\" \\ back\nslash\t中 é 🦀 \u{1}\u{1f}";

    /// Results of every shape a frame meets: with and without `eps`, a
    /// keyless entry among keyed ones, only keyed entries, no entries,
    /// no `entries` at all, and escaped strings throughout.
    fn results() -> Vec<Value> {
        let keyed = vec![
            entry("u1.yearsOfExp=3", "node u0 : director\nwhere u1.x >= 3"),
            entry(TRICKY, TRICKY),
        ];
        let mut mixed = keyed.clone();
        mixed.push(Value::object([("no_bindings", Value::Null)]));
        let stats = Value::object([
            ("verified", Value::from(12u64)),
            ("note", Value::from(TRICKY)),
        ]);
        vec![
            Value::object([
                ("entries", Value::Array(mixed.clone())),
                ("stats", stats.clone()),
                ("truncated", Value::Bool(false)),
                ("eps", Value::Float(0.05)),
            ]),
            Value::object([
                ("entries", Value::Array(mixed)),
                ("stats", stats.clone()),
                ("truncated", Value::Bool(true)),
            ]),
            Value::object([
                ("entries", Value::Array(keyed)),
                ("stats", stats),
                ("eps", Value::Float(0.05)),
            ]),
            Value::object([("entries", Value::Array(Vec::new()))]),
            Value::object([]),
        ]
    }

    /// Every event shape, each on a result of its own that nothing has
    /// encoded yet.
    fn events() -> Vec<JobEvent> {
        let live = results().swap_remove(0);
        let live = live.get("entries").and_then(Value::as_array).unwrap();
        let mut events = Vec::new();
        for added in [Vec::new(), live.to_vec()] {
            for removed in [Vec::new(), vec!["a=1".to_string(), TRICKY.to_string()]] {
                events.push(JobEvent::Delta {
                    id: 42,
                    version: 7,
                    added: Added::Live(added.clone()),
                    removed,
                });
            }
        }
        for value in results() {
            let entries = value
                .get("entries")
                .and_then(Value::as_array)
                .unwrap_or_default();
            let keyed: Vec<usize> = (0..entries.len())
                .filter(|&i| entry_key(&entries[i]).is_some())
                .collect();
            let result = || Arc::new(JobResult::new(value.clone()));
            for removed in [Vec::new(), vec![TRICKY.to_string()]] {
                events.push(JobEvent::Delta {
                    id: 9,
                    version: 1,
                    added: Added::All(result()),
                    removed: removed.clone(),
                });
                for at in [keyed.clone(), keyed.iter().copied().skip(1).collect()] {
                    events.push(JobEvent::Delta {
                        id: 9,
                        version: 3,
                        added: Added::Missing(result(), at),
                        removed: removed.clone(),
                    });
                }
            }
            for (truncated, from_cache) in [(false, true), (true, false)] {
                events.push(JobEvent::Settled {
                    id: u64::MAX,
                    state: JobState::Done,
                    truncated,
                    from_cache,
                    error: None,
                    result: Some(result()),
                });
            }
        }
        for (state, error) in [
            (JobState::Failed, Some(TRICKY.to_string())),
            (JobState::Cancelled, None),
        ] {
            events.push(JobEvent::Settled {
                id: u64::MAX,
                state,
                truncated: false,
                from_cache: false,
                error,
                result: None,
            });
        }
        events
    }

    fn rids() -> [Option<Value>; 4] {
        [
            None,
            Some(Value::from(3u64)),
            Some(Value::from(TRICKY)),
            Some(Value::object([("k", Value::from(vec![1i64]))])),
        ]
    }

    /// Frames match the oracle whether written from values or from a
    /// result's stored encoding, and the stored encoding is written
    /// exactly where it should be: a catch-up carrying every entry builds
    /// it, a settled frame uses it once it exists, and live and partial
    /// deltas never touch it.
    #[test]
    fn event_frames_match_the_value_oracle_byte_for_byte() {
        let events = events();
        for encoded_first in [false, true] {
            for ev in &events {
                let (expect_stored, result) = match ev {
                    JobEvent::Delta { added, .. } => match added {
                        Added::All(r) => (true, Some(r)),
                        Added::Missing(r, _) => (false, Some(r)),
                        Added::Live(_) => (false, None),
                    },
                    JobEvent::Settled { result, .. } => {
                        (result.is_some() && encoded_first, result.as_ref())
                    }
                };
                if let (true, Some(r)) = (encoded_first, result) {
                    r.wire();
                }
                for rid in &rids() {
                    for lossy in [false, true] {
                        let mut buf = b"earlier frame\n".to_vec();
                        let stored = write_event_frame(&mut buf, ev, lossy, rid.as_ref());
                        let oracle = event_frame_value(ev, lossy, rid.as_ref()).to_string();
                        assert_eq!(
                            std::str::from_utf8(&buf).unwrap(),
                            format!("earlier frame\n{oracle}"),
                            "{ev:?} lossy={lossy} rid={rid:?}"
                        );
                        assert_eq!(stored, expect_stored, "{ev:?}");
                    }
                }
                if let (JobEvent::Settled { .. }, Some(r)) = (ev, result) {
                    assert_eq!(r.encoded().is_some(), encoded_first);
                }
            }
        }
    }

    /// A `result` reply is written from the shared result, borrowed, and
    /// builds no stored encoding.
    #[test]
    fn result_replies_match_the_value_oracle_byte_for_byte() {
        let mut replies: Vec<Reply> = results()
            .into_iter()
            .flat_map(|value| {
                let result = Arc::new(JobResult::new(value));
                [true, false].map(|from_cache| Reply::Result {
                    id: 17,
                    from_cache,
                    result: Arc::clone(&result),
                })
            })
            .collect();
        replies.push(Reply::Value(error_response("internal", TRICKY)));
        for reply in &replies {
            for rid in &rids() {
                let mut buf = Vec::new();
                write_reply(&mut buf, reply, rid.as_ref());
                let oracle = result_reply_value(reply, rid.as_ref()).to_string();
                assert_eq!(String::from_utf8(buf).unwrap(), oracle, "{reply:?}");
                if let Reply::Result { result, .. } = reply {
                    assert!(result.encoded().is_none());
                }
            }
        }
    }

    #[test]
    fn responses_echo_the_rid_like_an_inserted_key() {
        let responses = [
            error_response("bad_request", "bad \"line\"\n"),
            Value::object([
                ("ok", Value::Bool(true)),
                ("id", Value::from(5u64)),
                ("state", Value::from("done")),
            ]),
            Value::object([]),
        ];
        for response in &responses {
            for rid in [None, Some(Value::from("r-1")), Some(Value::Null)] {
                let mut oracle = response.clone();
                if let (Value::Object(map), Some(r)) = (&mut oracle, &rid) {
                    map.insert("rid".to_string(), r.clone());
                }
                let mut buf = Vec::new();
                write_response(&mut buf, response, rid.as_ref());
                assert_eq!(String::from_utf8(buf).unwrap(), oracle.to_string());
            }
        }
    }

    #[test]
    fn frames_close_the_queue_past_the_hard_cap() {
        let mut o = Outbound::new();
        o.push_frame(64, |buf| buf.extend_from_slice(b"{}"));
        assert_eq!(&o.buf[o.start..], b"{}\n");
        assert!(!o.closed);
        o.push_frame(64, |buf| buf.extend_from_slice(&[b'x'; 80]));
        assert!(o.closed);
        let len = o.len();
        o.push_frame(64, |buf| buf.extend_from_slice(b"{}"));
        assert_eq!(o.len(), len, "a closed queue takes no more frames");
    }
}
