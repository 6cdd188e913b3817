//! End-to-end tests of the `fairsqg-service` subsystem: wire round-trips
//! against an in-process server on an ephemeral port, deadline truncation,
//! cancellation, admission control, and concurrent in-flight jobs.

use fairsqg::datagen::{social_graph, SocialConfig};
use fairsqg::service::{
    AlgoKind, Engine, EngineConfig, GraphRegistry, JobSpec, JobState, MuxClient, SubmitError,
};
use fairsqg::wire::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TEMPLATE: &str = "\
    node u0 : director\n\
    node u1 : user\n\
    edge u1 -recommend-> u0\n\
    where u1.yearsOfExp >= ?\n\
    output u0\n";

/// Four range variables: `|I(Q)|` = 9⁴ = 6561 under the service's default
/// domains. Jobs that must still be running when the test looks again use
/// this template, so their duration comes from the size of the lattice
/// and not from what one verification costs: `enum` on `graph(400, 10)`
/// takes 1.7 s under `cargo test`'s debug profile and 0.11 s in release
/// (2-vCPU Xeon 2.1 GHz), against the 1 ms poll the tests watch it with.
const SLOW_TEMPLATE: &str = "\
    node u0 : director\n\
    node u1 : user\n\
    node u2 : org\n\
    edge u1 -recommend-> u0\n\
    edge u1 -worksAt-> u2\n\
    where u0.yearsOfExp >= ?\n\
    where u1.yearsOfExp >= ?\n\
    where u1.endorsements >= ?\n\
    where u2.employees >= ?\n\
    output u0\n";

fn graph(directors: usize, seed: u64) -> fairsqg::graph::Graph {
    social_graph(SocialConfig {
        directors,
        majority_share: 0.6,
        seed,
    })
}

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

fn slow_spec(graph: &str, deadline_ms: Option<u64>) -> JobSpec {
    JobSpec {
        template: SLOW_TEMPLATE.into(),
        ..spec(graph, deadline_ms)
    }
}

/// submit → poll → result over TCP, result caching, deadline truncation,
/// and cancel-frees-worker — all against one served engine.
#[cfg(unix)]
#[test]
fn wire_roundtrip_cache_deadline_cancel() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("small", graph(100, 1));
    registry.insert("slow", graph(400, 2));
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 2,
            queue_capacity: 16,
            cache_entries: 32,
            default_deadline: None,
            ..EngineConfig::default()
        },
    ));
    let (addr, _stop, server) =
        fairsqg::service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let client = MuxClient::connect(&addr.to_string()).unwrap();
    client.ping().unwrap();

    // Round trip: submit, wait, inspect the result body.
    let id = client.submit(&spec("small", None)).unwrap();
    let result = client.wait(id, Duration::from_secs(60)).unwrap();
    assert_eq!(
        result.get("from_cache").and_then(Value::as_bool),
        Some(false)
    );
    let body = result.get("result").expect("result body");
    assert_eq!(body.get("truncated").and_then(Value::as_bool), Some(false));
    assert!(
        !body
            .get("entries")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty(),
        "a completed run must return suggestions"
    );

    // Identical resubmission is served from the cross-request cache.
    let id2 = client.submit(&spec("small", None)).unwrap();
    let cached = client.wait(id2, Duration::from_secs(60)).unwrap();
    assert_eq!(
        cached.get("from_cache").and_then(Value::as_bool),
        Some(true)
    );
    let stats = client.stats().unwrap();
    let hits = stats
        .get("result_cache")
        .and_then(|c| c.get("hits"))
        .and_then(Value::as_u64)
        .unwrap();
    assert!(hits >= 1, "cache hit must be visible in stats, got {hits}");

    // A tiny deadline yields a truncated partial archive, not a hang.
    let id3 = client.submit(&slow_spec("slow", Some(0))).unwrap();
    let truncated = client.wait(id3, Duration::from_secs(60)).unwrap();
    assert_eq!(
        truncated
            .get("result")
            .and_then(|r| r.get("truncated"))
            .and_then(Value::as_bool),
        Some(true)
    );

    // Cancelling a job frees its worker: a subsequent job still completes.
    let id4 = client.submit(&slow_spec("slow", None)).unwrap();
    client.cancel(id4).unwrap();
    match client.wait(id4, Duration::from_secs(60)) {
        // The cancel raced the run. Either it landed mid-run (truncated
        // partial) or the run finished first (complete archive) — both
        // are legal; what matters is the worker is freed afterwards.
        Ok(r) => {
            let body = r.get("result").expect("result body");
            match body.get("truncated").and_then(Value::as_bool) {
                Some(true) => {}
                Some(false) => assert!(
                    !body
                        .get("entries")
                        .and_then(Value::as_array)
                        .unwrap()
                        .is_empty(),
                    "a run that beat the cancel must return a full archive"
                ),
                None => panic!("missing truncated flag"),
            }
        }
        // Cancelled while still queued.
        Err(e) => assert!(e.to_string().contains("cancelled"), "unexpected: {e}"),
    }
    let id5 = client.submit(&spec("small", Some(60_000))).unwrap();
    let after = client.wait(id5, Duration::from_secs(60)).unwrap();
    assert!(after.get("result").is_some(), "worker was not freed");

    // Per-stage latency aggregates are exposed.
    let stats = client.stats().unwrap();
    let generate_count = stats
        .get("latency")
        .and_then(|l| l.get("generate"))
        .and_then(|g| g.get("count"))
        .and_then(Value::as_u64)
        .unwrap();
    assert!(generate_count >= 1);

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// Eight jobs on eight distinct graphs are all in flight simultaneously.
#[test]
fn engine_sustains_eight_concurrent_jobs() {
    let registry = Arc::new(GraphRegistry::new());
    for i in 0..8u64 {
        registry.insert(&format!("g{i}"), graph(400, 10 + i));
    }
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 8,
            queue_capacity: 16,
            cache_entries: 0,
            default_deadline: None,
            ..EngineConfig::default()
        },
    );
    let ids: Vec<u64> = (0..8)
        .map(|i| engine.submit(slow_spec(&format!("g{i}"), None)).unwrap())
        .collect();

    // All eight must be observed Running at the same instant.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let running = ids
            .iter()
            .filter(|&&id| engine.status(id).unwrap().state == JobState::Running)
            .count();
        if running == 8 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "never saw 8 simultaneous running jobs (last count: {running})"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Wind down quickly; a mid-run cancel settles as a truncated Done.
    for &id in &ids {
        engine.cancel(id);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let settled = ids
            .iter()
            .filter(|&&id| {
                matches!(
                    engine.status(id).unwrap().state,
                    JobState::Done | JobState::Cancelled | JobState::Failed
                )
            })
            .count();
        if settled == 8 {
            break;
        }
        assert!(Instant::now() < deadline, "jobs failed to settle");
        std::thread::sleep(Duration::from_millis(1));
    }
    for &id in &ids {
        assert_ne!(engine.status(id).unwrap().state, JobState::Failed);
    }
    engine.shutdown();
}

/// A full queue rejects with a structured `Overloaded`, and the rejection
/// is counted in stats.
#[test]
fn engine_overload_is_structured() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("g", graph(400, 42));
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 1,
            queue_capacity: 1,
            cache_entries: 0,
            default_deadline: None,
            ..EngineConfig::default()
        },
    );

    // Occupy the single worker, then fill the single queue slot.
    let running = engine.submit(slow_spec("g", None)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.status(running).unwrap().state != JobState::Running {
        assert!(Instant::now() < deadline, "worker never picked up the job");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut slow = spec("g", None);
    slow.eps = 0.07; // distinct fingerprint — not served from cache
    let queued = engine.submit(slow).unwrap();

    let mut third = spec("g", None);
    third.eps = 0.09;
    match engine.submit(third) {
        Err(SubmitError::Overloaded { capacity, .. }) => assert_eq!(capacity, 1),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = engine.stats_value();
    assert!(stats.get("rejected").and_then(Value::as_u64).unwrap() >= 1);

    // Unknown graphs are rejected up front, not queued.
    assert!(matches!(
        engine.submit(spec("missing", None)),
        Err(SubmitError::UnknownGraph(_))
    ));

    engine.cancel(running);
    engine.cancel(queued);
    engine.shutdown();
}

/// `item` nodes with 21 integer attributes `a0`..`a20` of 16 distinct
/// values each, so every range variable's default domain holds 9 values
/// (8 constants and the wildcard), and two genders.
fn wide_graph() -> fairsqg::graph::Graph {
    use fairsqg::graph::{AttrValue, GraphBuilder};
    let names: Vec<String> = (0..21).map(|k| format!("a{k}")).collect();
    let mut b = GraphBuilder::new();
    for i in 0..64i64 {
        let mut attrs: Vec<(&str, AttrValue)> = names
            .iter()
            .zip(0..)
            .map(|(name, k)| (name.as_str(), AttrValue::Int((i * 5 + k) % 16)))
            .collect();
        attrs.push(("gender", AttrValue::Int(i % 2)));
        b.add_named_node("item", &attrs);
    }
    b.finish()
}

/// A template with `vars` range literals on its one node: `|I(Q)| = 9^vars`.
fn wide_spec(vars: usize, algo: AlgoKind) -> JobSpec {
    let mut template = "node u0 : item\n".to_string();
    for k in 0..vars {
        template += &format!("where u0.a{k} >= ?\n");
    }
    JobSpec {
        template: template + "output u0\n",
        algo,
        threads: 2,
        ..spec("wide", Some(300))
    }
}

/// A job over a lattice far too large to verify (`9^12 ≈ 2.8·10^11`
/// instances) runs until its deadline and settles truncated, whichever
/// full-lattice algorithm it names: nothing allocates per instance of
/// `I(Q)` up front, so the server stays up. A lattice whose size
/// overflows `usize` is refused with `bad_request` at admission, and by
/// planning.
#[cfg(unix)]
#[test]
fn a_full_lattice_job_settles_truncated_and_the_server_stays_up() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("wide", wide_graph());
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
    ));
    let (addr, _stop, server) =
        fairsqg::service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let client = MuxClient::connect(&addr.to_string()).unwrap();
    for algo in [
        AlgoKind::EnumQGen,
        AlgoKind::Kungs,
        AlgoKind::Cbm,
        AlgoKind::ParEnum,
    ] {
        let id = client.submit(&wide_spec(12, algo)).unwrap();
        let result = client.wait(id, Duration::from_secs(60)).unwrap();
        let body = result.get("result").expect("result body");
        assert_eq!(
            body.get("truncated").and_then(Value::as_bool),
            Some(true),
            "{algo:?}"
        );
    }
    client.ping().unwrap();
    assert!(client.stats().unwrap().get("result_cache").is_some());

    let overflowing = wide_spec(21, AlgoKind::EnumQGen);
    let graph = wide_graph();
    let planned = fairsqg::service::plan_spec(&graph, &overflowing);
    let refusal = planned.err().expect("an overflowing lattice is refused");
    assert!(refusal.contains("instances"), "{refusal}");
    let err = client.submit(&overflowing).unwrap_err();
    assert!(err.to_string().contains("bad_request"), "{err}");
    assert!(err.to_string().contains(&refusal), "{err}");
    assert_eq!(
        engine.submit(overflowing),
        Err(SubmitError::BadRequest(refusal))
    );
    client.ping().unwrap();

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// A λ outside `[0, 1]` or a non-positive ε is a `bad_request` at
/// `submit`; the edges λ = 0 and λ = 1 are served.
#[cfg(unix)]
#[test]
fn out_of_range_lambda_and_eps_are_bad_requests() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("g", graph(40, 3));
    let engine = Arc::new(Engine::start(registry, EngineConfig::default()));
    let (addr, _stop, server) =
        fairsqg::service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let client = MuxClient::connect(&addr.to_string()).unwrap();
    for lambda in [0.0, 1.0] {
        let id = client
            .submit(&JobSpec {
                lambda,
                ..spec("g", None)
            })
            .unwrap();
        let result = client.wait(id, Duration::from_secs(60)).unwrap();
        assert!(result.get("result").is_some(), "λ {lambda}");
    }
    for (lambda, eps) in [(-0.1, 0.05), (1.5, 0.05), (0.5, 0.0), (0.5, -1.0)] {
        let err = client
            .submit(&JobSpec {
                lambda,
                eps,
                ..spec("g", None)
            })
            .unwrap_err();
        assert!(
            err.to_string().contains("bad_request"),
            "λ {lambda} ε {eps}: {err}"
        );
    }
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}
