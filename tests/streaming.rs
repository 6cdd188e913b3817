//! Streaming-subscription tests against the multiplexed server: the
//! concatenation of delta frames must reconstruct the Pareto archive
//! bit-identically to the non-streaming `result` op — including for
//! deadline-truncated jobs — and the demultiplexing client must turn
//! protocol violations into typed errors and drop stale deltas.

#![cfg(unix)]

use fairsqg::datagen::{social_graph, SocialConfig};
use fairsqg::service::{
    spawn_mux, AlgoKind, ClientError, Engine, EngineConfig, GraphRegistry, JobSpec, MuxClient,
    RetryPolicy,
};
use fairsqg::wire::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const TEMPLATE: &str = "\
    node u0 : director\n\
    node u1 : user\n\
    edge u1 -recommend-> u0\n\
    where u1.yearsOfExp >= ?\n\
    output u0\n";

fn spec(graph: &str, deadline_ms: Option<u64>) -> JobSpec {
    JobSpec {
        graph: graph.into(),
        template: TEMPLATE.into(),
        group_attr: "gender".into(),
        cover: 5,
        algo: AlgoKind::EnumQGen,
        threads: 0,
        eps: 0.05,
        lambda: 0.5,
        deadline_ms,
        budget: fairsqg::algo::MatchBudget::UNLIMITED,
        request_key: None,
        priority: fairsqg::service::DEFAULT_PRIORITY,
        client: None,
        subscribe: false,
    }
}

fn serve(directors: usize, seed: u64) -> (String, Arc<Engine>) {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert(
        "g",
        social_graph(SocialConfig {
            directors,
            majority_share: 0.6,
            seed,
        }),
    );
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 2,
            queue_capacity: 32,
            cache_entries: 32,
            default_deadline: None,
            ..EngineConfig::default()
        },
    ));
    let (addr, _stop, _handle) = spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    (addr.to_string(), engine)
}

/// The reconstruction contract: applying every delta frame in order and
/// sorting by the settled frame's `order` list yields a value whose
/// canonical serialization is byte-identical to the `result` op's body.
#[test]
fn streamed_deltas_reconstruct_result_bit_identically() {
    let (addr, _engine) = serve(120, 7);
    let client = MuxClient::connect(&addr).unwrap();

    let sub = client.submit_streaming(&spec("g", None)).unwrap();
    let id = sub.id;
    let streamed = sub.wait(Duration::from_secs(120)).unwrap();
    assert_eq!(streamed.state, "done", "err: {:?}", streamed.error_message);
    assert!(!streamed.lossy, "local test stream must not shed deltas");
    let reconstructed = streamed.result.expect("lossless done stream has a result");

    let fetched = client.result(id).unwrap();
    assert_eq!(
        reconstructed.to_string(),
        fetched.get("result").unwrap().to_string(),
        "delta reconstruction must be bit-identical to the result op"
    );
    assert!(
        !reconstructed
            .get("entries")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty(),
        "a completed run must stream suggestions"
    );
}

/// Deadline truncation: the job settles `done` + `truncated` with a
/// partial archive, and the stream still reconstructs it exactly (the
/// settlement catch-up delta covers whatever the cutoff left unsent).
#[test]
fn truncated_stream_reconstructs_partial_archive() {
    let (addr, _engine) = serve(400, 2);
    let client = MuxClient::connect(&addr).unwrap();

    let sub = client.submit_streaming(&spec("g", Some(0))).unwrap();
    let id = sub.id;
    let streamed = sub.wait(Duration::from_secs(120)).unwrap();
    assert_eq!(streamed.state, "done");
    assert!(streamed.truncated, "a zero deadline must truncate");
    let reconstructed = streamed.result.expect("truncated stream still settles");
    assert_eq!(
        reconstructed.get("truncated").and_then(Value::as_bool),
        Some(true)
    );

    let fetched = client.result(id).unwrap();
    assert_eq!(
        reconstructed.to_string(),
        fetched.get("result").unwrap().to_string()
    );
}

/// A cache-hit replay streams the whole archive as one settlement
/// catch-up delta and still reconstructs bit-identically.
#[test]
fn cached_replay_streams_identical_archive() {
    let (addr, _engine) = serve(100, 3);
    let client = MuxClient::connect(&addr).unwrap();

    let first = client.submit_streaming(&spec("g", None)).unwrap();
    let first = first.wait(Duration::from_secs(120)).unwrap();
    assert_eq!(first.state, "done");

    let replay = client.submit_streaming(&spec("g", None)).unwrap();
    let id = replay.id;
    let replay = replay.wait(Duration::from_secs(120)).unwrap();
    assert_eq!(replay.state, "done");
    assert!(
        replay.from_cache,
        "identical resubmission must hit the cache"
    );
    let reconstructed = replay.result.expect("cached stream has a result");
    assert_eq!(
        reconstructed.to_string(),
        client
            .result(id)
            .unwrap()
            .get("result")
            .unwrap()
            .to_string()
    );
}

/// Many threads multiplex one connection: every request gets its own
/// reply, every subscription settles, ids never cross wires.
#[test]
fn concurrent_requests_share_one_connection() {
    let (addr, _engine) = serve(80, 11);
    let client = Arc::new(MuxClient::connect(&addr).unwrap());

    let mut threads = Vec::new();
    for t in 0..8u64 {
        let client = Arc::clone(&client);
        threads.push(std::thread::spawn(move || {
            let mut s = spec("g", None);
            // Distinct eps per thread → distinct jobs, no coalescing.
            s.eps = 0.05 + (t as f64) * 0.01;
            let sub = client.submit_streaming(&s).unwrap();
            let id = sub.id;
            let out = sub.wait(Duration::from_secs(120)).unwrap();
            assert_eq!(out.state, "done");
            assert_eq!(out.id, id);
            let reconstructed = out.result.expect("lossless stream");
            assert_eq!(
                reconstructed.to_string(),
                client
                    .result(id)
                    .unwrap()
                    .get("result")
                    .unwrap()
                    .to_string()
            );
            id
        }));
    }
    let ids: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "job ids crossed wires: {ids:?}");
}

/// The `metrics` op returns Prometheus text exposition with the stats
/// families the docs promise.
#[test]
fn metrics_op_exposes_engine_stats() {
    let (addr, _engine) = serve(60, 5);
    let client = MuxClient::connect(&addr).unwrap();
    let sub = client.submit_streaming(&spec("g", None)).unwrap();
    sub.wait(Duration::from_secs(120)).unwrap();

    let text = client.metrics().unwrap();
    for family in [
        "fairsqg_completed",
        "fairsqg_result_cache_",
        "fairsqg_streaming_deltas",
        "fairsqg_watchdog_",
        "fairsqg_registry_",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(family)),
            "metrics text missing family {family}:\n{text}"
        );
    }
}

/// A literal `GET /metrics` line gets a plain HTTP response — no wire
/// protocol needed for a scraper.
#[test]
fn http_metrics_scrape() {
    let (addr, _engine) = serve(60, 6);
    let mut sock = TcpStream::connect(&addr).unwrap();
    sock.write_all(b"GET /metrics HTTP/1.0\r\n").unwrap();
    let mut response = String::new();
    sock.take(1 << 20).read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    assert!(response.contains("text/plain"), "{response}");
    assert!(response.contains("fairsqg_workers"), "{response}");
}

/// A reply with an unknown `rid` is a typed [`ClientError::UnexpectedFrame`]
/// — the connection is desynchronized, not silently wrong — and the client
/// discards that connection: the next call redials.
#[test]
fn unknown_rid_is_a_typed_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut line = String::new();
        BufReader::new(sock.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        // Echo a response correlated to a rid nobody asked for.
        sock.write_all(b"{\"ok\":true,\"pong\":true,\"rid\":424242}\n")
            .unwrap();
        // The redial gets an honest answer.
        let (mut again, _) = listener.accept().unwrap();
        line.clear();
        BufReader::new(again.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        let rid = fairsqg::wire::parse(&line)
            .unwrap()
            .get("rid")
            .and_then(Value::as_u64)
            .unwrap();
        again
            .write_all(format!("{{\"ok\":true,\"pong\":true,\"rid\":{rid}}}\n").as_bytes())
            .unwrap();
        (sock, again)
    });
    let once = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    let client = MuxClient::connect_with(&addr.to_string(), once).unwrap();
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err, ClientError::UnexpectedFrame(_)),
        "want UnexpectedFrame, got {err:?}"
    );
    client.ping().expect("the next call redials");
    drop(fake.join().unwrap());
}

/// Deltas that arrive after their subscription settled are dropped and
/// counted, not treated as protocol violations.
#[test]
fn stale_deltas_after_settle_are_dropped() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // the streaming submit
        let rid = fairsqg::wire::parse(&line)
            .unwrap()
            .get("rid")
            .and_then(Value::as_u64)
            .unwrap();
        let frames = format!(
            "{{\"ok\":true,\"id\":1,\"state\":\"queued\",\"rid\":{rid}}}\n\
             {{\"event\":\"settled\",\"id\":1,\"state\":\"failed\",\"truncated\":false,\
             \"from_cache\":false,\"lossy\":false,\"error_message\":\"boom\",\"rid\":{rid}}}\n\
             {{\"event\":\"delta\",\"id\":1,\"version\":9,\"added\":[],\"removed\":[],\"rid\":{rid}}}\n"
        );
        sock.write_all(frames.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap(); // the trailing ping
        let rid = fairsqg::wire::parse(&line)
            .unwrap()
            .get("rid")
            .and_then(Value::as_u64)
            .unwrap();
        sock.write_all(format!("{{\"ok\":true,\"pong\":true,\"rid\":{rid}}}\n").as_bytes())
            .unwrap();
        sock
    });
    let client = MuxClient::connect(&addr.to_string()).unwrap();
    let sub = client.submit_streaming(&spec("g", None)).unwrap();
    let out = sub.wait(Duration::from_secs(30)).unwrap();
    assert_eq!(out.state, "failed");
    assert_eq!(out.error_message.as_deref(), Some("boom"));
    // The ping reply is ordered after the stale delta on the stream, so
    // once it returns the delta has been routed (and dropped).
    client.ping().unwrap();
    assert_eq!(client.stale_deltas(), 1);
    drop(fake.join().unwrap());
}

/// A multiplexed shutdown op stops the server loop and drains the engine.
#[test]
fn mux_shutdown_drains() {
    let (addr, engine) = serve(60, 9);
    let client = MuxClient::connect(&addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    // The engine refuses new work once the server loop winds it down.
    // Probes submitted before the loop breaks may still be accepted (or
    // coalesced), so use a distinct spec each time and wait for the
    // first refusal.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut probe = 0u64;
    loop {
        // eps is part of the cache fingerprint, so every probe is a new
        // job — coalescing can't serve it without consulting the queue.
        let mut s = spec("g", None);
        s.eps = 0.05 + (probe as f64) * 1e-6;
        probe += 1;
        match engine.submit(s) {
            Err(_) => break,
            Ok(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(_) => panic!("engine still accepting jobs after shutdown"),
        }
    }
}
