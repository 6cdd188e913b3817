//! Robustness tests that need no fail-point injection: resource budgets
//! surfacing through the service, idempotent submission dedup, and the
//! server's tolerance of hostile wire input.

use fairsqg::algo::MatchBudget;
use fairsqg::datagen::{social_graph, SocialConfig};
use fairsqg::service::{
    AlgoKind, Engine, EngineConfig, GraphRegistry, JobSpec, JobState, MuxClient, RetryPolicy,
    SubmitError,
};
use fairsqg::wire::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TEMPLATE: &str = "\
    node u0 : director\n\
    node u1 : user\n\
    edge u1 -recommend-> u0\n\
    where u1.yearsOfExp >= ?\n\
    output u0\n";

fn registry(name: &str, directors: usize, seed: u64) -> Arc<GraphRegistry> {
    let r = Arc::new(GraphRegistry::new());
    r.insert(
        name,
        social_graph(SocialConfig {
            directors,
            majority_share: 0.6,
            seed,
        }),
    );
    r
}

fn spec(graph: &str) -> JobSpec {
    JobSpec {
        graph: graph.into(),
        template: TEMPLATE.into(),
        group_attr: "gender".into(),
        cover: 5,
        algo: AlgoKind::EnumQGen,
        threads: 0,
        eps: 0.05,
        lambda: 0.5,
        deadline_ms: None,
        budget: MatchBudget::UNLIMITED,
        request_key: None,
        priority: fairsqg::service::DEFAULT_PRIORITY,
        client: None,
        subscribe: false,
    }
}

fn wait_done(engine: &Engine, id: u64) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = engine.status(id).unwrap().state;
        if matches!(
            state,
            JobState::Done | JobState::Failed | JobState::Cancelled
        ) {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} never settled");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A starved step budget produces a partial archive flagged `truncated`,
/// and the result stats name the budget that tripped (acceptance criterion
/// for resource budgets).
#[test]
fn budget_trip_yields_truncated_result_naming_the_budget() {
    let registry = registry("g", 200, 3);
    let engine = Engine::start(Arc::clone(&registry), EngineConfig::default());

    let mut capped = spec("g");
    capped.budget = MatchBudget {
        max_steps: Some(1),
        ..MatchBudget::UNLIMITED
    };
    let id = engine.submit(capped).unwrap();
    assert_eq!(wait_done(&engine, id), JobState::Done);
    let status = engine.status(id).unwrap();
    assert!(status.truncated, "budget-capped run must be truncated");

    let result = engine.result(id).unwrap();
    let tripped = result
        .get("stats")
        .and_then(|s| s.get("budget_tripped"))
        .expect("stats.budget_tripped");
    assert_eq!(
        tripped.get("budget").and_then(Value::as_str),
        Some("max_steps"),
        "the tripped budget is named"
    );
    assert_eq!(tripped.get("limit").and_then(Value::as_u64), Some(1));

    let stats = engine.stats_value();
    let trips = stats
        .get("robustness")
        .and_then(|r| r.get("budget_trips"))
        .and_then(Value::as_u64)
        .unwrap();
    assert!(trips >= 1, "budget trip must be counted, got {trips}");

    // Truncated results must not poison the cross-request cache: an
    // uncapped resubmission computes fresh and completes fully.
    let id2 = engine.submit(spec("g")).unwrap();
    assert_eq!(wait_done(&engine, id2), JobState::Done);
    let full = engine.status(id2).unwrap();
    assert!(!full.from_cache && !full.truncated);
    engine.shutdown();
}

/// An engine-level default budget applies to specs that don't set one, and
/// per-job budgets win over the default.
#[test]
fn engine_default_budget_merges_into_specs() {
    let registry = registry("g", 200, 4);
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            budget: MatchBudget {
                max_steps: Some(1),
                ..MatchBudget::UNLIMITED
            },
            ..EngineConfig::default()
        },
    );
    let id = engine.submit(spec("g")).unwrap();
    assert_eq!(wait_done(&engine, id), JobState::Done);
    assert!(
        engine.status(id).unwrap().truncated,
        "default budget must apply"
    );

    // A per-job budget overrides the engine default on that axis.
    let mut generous = spec("g");
    generous.budget = MatchBudget {
        max_steps: Some(u64::MAX),
        ..MatchBudget::UNLIMITED
    };
    let id2 = engine.submit(generous).unwrap();
    assert_eq!(wait_done(&engine, id2), JobState::Done);
    assert!(!engine.status(id2).unwrap().truncated);
    engine.shutdown();
}

/// Two submissions carrying the same `request_key` map to one job — the
/// contract that makes client-side resend-on-reconnect safe.
#[test]
fn request_key_dedups_to_one_job() {
    let registry = registry("g", 100, 5);
    let engine = Engine::start(Arc::clone(&registry), EngineConfig::default());
    let mut keyed = spec("g");
    keyed.request_key = Some("replay-1".into());
    let id1 = engine.submit(keyed.clone()).unwrap();
    let id2 = engine.submit(keyed.clone()).unwrap();
    assert_eq!(id1, id2, "same request_key must reuse the job");
    let stats = engine.stats_value();
    assert_eq!(
        stats
            .get("robustness")
            .and_then(|r| r.get("dedup_hits"))
            .and_then(Value::as_u64),
        Some(1)
    );

    // A different key is a different job.
    let mut other = keyed.clone();
    other.request_key = Some("replay-2".into());
    let id3 = engine.submit(other).unwrap();
    assert_ne!(id1, id3);
    engine.shutdown();
}

/// Raw-socket abuse of a live server: garbage JSON, binary noise, and an
/// over-limit frame each get a structured error response on a connection
/// that keeps working — and the server survives to serve a clean client.
#[cfg(unix)]
#[test]
fn server_answers_garbage_with_structured_errors() {
    let registry = registry("g", 100, 6);
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig::default(),
    ));
    let (addr, stop, server) = fairsqg::service::spawn_mux_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        fairsqg::service::MuxOptions {
            max_frame_bytes: 512,
            ..Default::default()
        },
    )
    .unwrap();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |payload: &[u8]| -> Value {
        writer.write_all(payload).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        fairsqg::wire::parse(&line).expect("server replies are always valid JSON")
    };

    for payload in [
        b"this is not json\n".to_vec(),
        b"{\"op\": \n".to_vec(),
        vec![0xff, 0x00, 0x9b, b'\n'],
        {
            let mut big = vec![b'x'; 4096];
            big.push(b'\n');
            big
        },
        b"{\"op\":\"submit\",\"job\":{\"graph\":42}}\n".to_vec(),
        b"{\"op\":\"no_such_op\"}\n".to_vec(),
    ] {
        let reply = roundtrip(&payload);
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
        assert!(
            reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .is_some(),
            "error replies carry a code: {reply}"
        );
    }

    // The same connection still serves valid requests after all that.
    let pong = roundtrip(b"{\"op\":\"ping\"}\n");
    assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));

    // And a fresh protocol client works end to end.
    let client = MuxClient::connect_with(&addr.to_string(), RetryPolicy::default()).unwrap();
    client.ping().unwrap();
    let id = client.submit_idempotent(&spec("g")).unwrap();
    let result = client.wait(id, Duration::from_secs(60)).unwrap();
    assert!(result.get("result").is_some());

    client.shutdown().unwrap();
    stop.stop();
    server.join().unwrap().unwrap();
}

/// Requests without a `rid` are answered in request order, without one —
/// the contract a line client such as `nc` relies on — however
/// the bytes of a pipelined burst are split across reads, and a peer that
/// half-closes right after its last request (no terminator) still gets
/// that request answered before the server closes its side.
#[cfg(unix)]
#[test]
fn ridless_requests_pipeline_in_order_across_arbitrary_splits() {
    let registry = registry("g", 50, 8);
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig::default(),
    ));
    let (addr, stop, server) =
        fairsqg::service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();

    // Unknown job ids make every reply name the request it answers.
    const N: u64 = 24;
    let burst: String = (0..N)
        .map(|i| format!("{{\"op\":\"status\",\"id\":{}}}\n", 9000 + i))
        .collect();
    let burst = burst.trim_end().as_bytes();
    for split in [1, burst.len() / 3, burst.len() / 2 + 5, burst.len() - 1] {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(&burst[..split]).unwrap();
        writer.flush().unwrap();
        // Makes two server-side reads likely; the contract holds however
        // the kernel coalesces them.
        std::thread::sleep(Duration::from_millis(5));
        writer.write_all(&burst[split..]).unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();

        let replies: Vec<String> = BufReader::new(stream).lines().map(Result::unwrap).collect();
        assert_eq!(replies.len() as u64, N, "split at {split}");
        for (i, line) in replies.iter().enumerate() {
            let reply = fairsqg::wire::parse(line).unwrap();
            assert!(reply.get("rid").is_none(), "no rid was sent: {reply}");
            let message = reply
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap();
            assert_eq!(message, format!("no job {}", 9000 + i), "split at {split}");
        }
    }

    stop.stop();
    server.join().unwrap().unwrap();
}

/// The `load` op reports TSV syntax errors as typed protocol errors with
/// line/column positions, and missing files as `load_failed`.
#[cfg(unix)]
#[test]
fn load_op_reports_typed_parse_positions() {
    let registry = registry("g", 50, 7);
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig::default(),
    ));
    let (addr, stop, server) =
        fairsqg::service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();

    let dir = std::env::temp_dir().join(format!("fairsqg-robust-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.tsv");
    std::fs::write(&bad, "0\tdirector\tgender=x\n\n").unwrap();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut request = |v: &Value| -> Value {
        let mut text = v.to_string();
        text.push('\n');
        writer.write_all(text.as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        fairsqg::wire::parse(&line).unwrap()
    };

    let reply = request(&Value::object([
        ("op", Value::from("load")),
        ("name", Value::from("bad")),
        ("path", Value::from(bad.to_string_lossy().to_string())),
    ]));
    let error = reply.get("error").expect("load of a bad file fails");
    assert_eq!(
        error.get("code").and_then(Value::as_str),
        Some("parse_error")
    );
    assert_eq!(error.get("line").and_then(Value::as_u64), Some(1));
    assert!(error.get("column").and_then(Value::as_u64).unwrap() > 1);

    // An edge line with a field after its target is positioned the same way.
    std::fs::write(&bad, "0\tdirector\n\n0\tknows\t0\tjunk\n").unwrap();
    let reply = request(&Value::object([
        ("op", Value::from("load")),
        ("name", Value::from("bad")),
        ("path", Value::from(bad.to_string_lossy().to_string())),
    ]));
    let error = reply
        .get("error")
        .expect("trailing edge fields are refused");
    assert_eq!(error.get("line").and_then(Value::as_u64), Some(3));
    assert_eq!(error.get("column").and_then(Value::as_u64), Some(11));

    let reply = request(&Value::object([
        ("op", Value::from("load")),
        ("name", Value::from("gone")),
        ("path", Value::from("/nonexistent/graph.tsv")),
    ]));
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("load_failed")
    );

    // The failed loads left the registry serving the original graph.
    let reply = request(&Value::object([("op", Value::from("ping"))]));
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));

    let _ = std::fs::remove_dir_all(&dir);
    drop(writer);
    drop(reader);
    stop.stop();
    server.join().unwrap().unwrap();
}

/// Overload soak (CI smoke): 2× the queue capacity of mixed-priority jobs
/// thrown at a 2-worker engine from concurrent submitters. Every accepted
/// job settles (zero hangs), every rejection is a *typed* overload
/// response — never `Internal`, never a panic — and the queue never grows
/// past its bound.
#[test]
fn overload_soak_settles_everything_with_structured_rejections() {
    let registry = registry("g", 120, 31);
    let capacity = 8;
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 2,
            queue_capacity: capacity,
            cache_entries: 0,
            coalesce: false,
            client_quota: 4,
            ..EngineConfig::default()
        },
    ));
    let total = capacity * 2 * 2; // 2× capacity, from each of 2 submitters
    let handles: Vec<_> = (0..2u64)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                let mut rejected = 0u64;
                for i in 0..(total / 2) as u64 {
                    let mut s = spec("g");
                    s.eps = 0.03 + (t as f64 * 64.0 + i as f64) * 1e-4; // distinct work
                    s.priority = (i % 4) as u8;
                    s.client = Some(format!("soak-{t}"));
                    s.deadline_ms = Some(5_000);
                    match engine.submit(s) {
                        Ok(id) => accepted.push(id),
                        Err(
                            SubmitError::Overloaded { .. }
                            | SubmitError::Shed { .. }
                            | SubmitError::DeadlineUnmeetable { .. }
                            | SubmitError::QuotaExceeded { .. },
                        ) => rejected += 1,
                        Err(other) => panic!("unstructured rejection under load: {other:?}"),
                    }
                }
                (accepted, rejected)
            })
        })
        .collect();
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for h in handles {
        let (a, r) = h.join().expect("submitter panicked");
        accepted.extend(a);
        rejected += r;
    }
    assert_eq!(accepted.len() as u64 + rejected, total as u64);
    // Zero hangs: every accepted job reaches a terminal state.
    for id in &accepted {
        let state = wait_done(&engine, *id);
        assert!(state.is_terminal(), "job {id} settled as {state:?}");
    }
    assert!(
        engine.queue_depth() <= capacity,
        "the queue bound held under soak"
    );
    // The stats surface stays coherent after the storm.
    let stats = engine.stats_value();
    assert!(stats.get("pressure").is_some());
    assert!(stats.get("submitted").and_then(Value::as_u64).unwrap() >= accepted.len() as u64);
    assert!(
        stats.get("rejected").and_then(Value::as_u64).unwrap() >= rejected,
        "typed rejections are counted"
    );
    engine.shutdown();
}
