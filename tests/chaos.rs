//! Chaos integration suite: drives the service through injected faults
//! (`crates/faults`) and asserts it degrades the way `docs/service.md`
//! promises — structured errors, supervised recovery, no hangs, no
//! corrupted state.
//!
//! Compiled (and meaningful) only with the `failpoints` feature:
//!
//! ```text
//! cargo test --features failpoints --test chaos
//! ```
#![cfg(feature = "failpoints")]

use fairsqg::algo::MatchBudget;
use fairsqg::datagen::{social_graph, SocialConfig};
use fairsqg::faults::Guard;
use fairsqg::service::{
    AlgoKind, ClientError, Engine, EngineConfig, GraphRegistry, JobSpec, JobState, MuxClient,
    RetryPolicy, SubmitError,
};
use fairsqg::wire::Value;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Fail points are process-global; chaos tests must not run concurrently
/// or one test's armed point fires inside another's engine.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const TEMPLATE: &str = "\
    node u0 : director\n\
    node u1 : user\n\
    edge u1 -recommend-> u0\n\
    where u1.yearsOfExp >= ?\n\
    output u0\n";

fn registry(name: &str, seed: u64) -> Arc<GraphRegistry> {
    let r = Arc::new(GraphRegistry::new());
    r.insert(
        name,
        social_graph(SocialConfig {
            directors: 100,
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

fn wait_settled(engine: &Engine, id: u64) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = engine.status(id).unwrap().state;
        if state.is_terminal() {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} never settled");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn robustness_counter(engine: &Engine, name: &str) -> u64 {
    engine
        .stats_value()
        .get("robustness")
        .and_then(|r| r.get(name))
        .and_then(Value::as_u64)
        .unwrap()
}

/// Acceptance criterion: a worker panic mid-job marks that job `Failed`
/// with a structured message, the pool respawns to full size, and the next
/// job completes normally.
#[test]
fn worker_panic_fails_job_respawns_pool_and_recovers() {
    let _serial = serial();
    let registry = registry("g", 11);
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
    );
    // Workers start asynchronously; wait for full strength first so the
    // respawn assertion below is unambiguous.
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.workers_alive() < 2 {
        assert!(Instant::now() < deadline, "pool never reached full size");
        std::thread::yield_now();
    }

    let _fp = Guard::arm("worker.run", "1*panic(injected chaos)").unwrap();
    let id = engine.submit(spec("g")).unwrap();
    assert_eq!(wait_settled(&engine, id), JobState::Failed);
    let status = engine.status(id).unwrap();
    assert!(
        status
            .error
            .as_deref()
            .unwrap_or("")
            .contains("injected chaos"),
        "panic message surfaces in the job error: {:?}",
        status.error
    );

    // Supervision: the pool returns to full size.
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.workers_alive() < 2 {
        assert!(Instant::now() < deadline, "pool never respawned");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(robustness_counter(&engine, "job_panics") >= 1);
    assert!(robustness_counter(&engine, "worker_respawns") >= 1);

    // The replacement worker serves the next job (fail point is spent).
    let id2 = engine.submit(spec("g")).unwrap();
    assert_eq!(wait_settled(&engine, id2), JobState::Done);
    engine.shutdown();
}

/// An injected admission fault comes back as `SubmitError::Internal`, is
/// counted as a rejection, and the engine keeps admitting afterwards.
#[test]
fn queue_admission_fault_is_structured_and_transient() {
    let _serial = serial();
    let registry = registry("g", 12);
    let engine = Engine::start(Arc::clone(&registry), EngineConfig::default());
    let _fp = Guard::arm("queue.admit", "1*error(admission disabled)").unwrap();
    match engine.submit(spec("g")) {
        Err(SubmitError::Internal(m)) => assert!(m.contains("admission disabled")),
        other => panic!("expected Internal, got {other:?}"),
    }
    let id = engine.submit(spec("g")).unwrap();
    assert_eq!(wait_settled(&engine, id), JobState::Done);
    engine.shutdown();
}

/// A panic inside the result-cache insert poisons the cache lock but not
/// the job: the result is still delivered, later jobs still run, and later
/// cache takers recover from the poison.
#[test]
fn cache_insert_panic_does_not_lose_the_job() {
    let _serial = serial();
    let registry = registry("g", 13);
    let engine = Engine::start(Arc::clone(&registry), EngineConfig::default());
    let _fp = Guard::arm("cache.insert", "1*panic(cache chaos)").unwrap();
    let id = engine.submit(spec("g")).unwrap();
    assert_eq!(
        wait_settled(&engine, id),
        JobState::Done,
        "the job survives a cache-insert panic"
    );
    assert!(engine.result(id).is_some());

    // The cache mutex was poisoned mid-insert; both the stats reader and
    // the next job's insert recover instead of propagating the poison.
    let _ = engine.cache_stats();
    let mut again = spec("g");
    again.eps = 0.07; // distinct fingerprint: forces a fresh cache insert
    let id2 = engine.submit(again.clone()).unwrap();
    assert_eq!(wait_settled(&engine, id2), JobState::Done);
    let id3 = engine.submit(again).unwrap();
    assert_eq!(wait_settled(&engine, id3), JobState::Done);
    assert!(
        engine.status(id3).unwrap().from_cache,
        "the cache keeps caching after poison recovery"
    );
    engine.shutdown();
}

/// The client's connect retry absorbs transient connection failures: two
/// injected refusals, then the real connection succeeds.
#[cfg(unix)]
#[test]
fn client_connect_retries_through_transient_refusals() {
    let _serial = serial();
    let registry = registry("g", 14);
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig::default(),
    ));
    let (addr, stop, server) =
        fairsqg::service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();

    let _fp = Guard::arm("client.connect", "2*error(connection refused)").unwrap();
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    let client = MuxClient::connect_with(&addr.to_string(), policy).unwrap();
    assert_eq!(fairsqg::faults::hits("client.connect"), 2);
    client.ping().unwrap();

    // With retries exhausted before the faults are spent, connect fails.
    let _fp2 = Guard::arm("client.connect", "error(connection refused)").unwrap();
    let strict = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        ..RetryPolicy::default()
    };
    assert!(MuxClient::connect_with(&addr.to_string(), strict).is_err());
    drop(_fp2);

    client.shutdown().unwrap();
    drop(client);
    stop.stop();
    server.join().unwrap().unwrap();
}

/// A write fault after a keyed submit reached the engine loses only the
/// ack, and kills the connection mid-request. The same client reconnects
/// and replays the submit; because it carries a request key, the server
/// dedups the replay onto the original job instead of running it twice.
#[cfg(unix)]
#[test]
fn idempotent_submit_survives_a_killed_connection() {
    let _serial = serial();
    let registry = registry("g", 15);
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig::default(),
    ));
    let (addr, stop, server) =
        fairsqg::service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let client = MuxClient::connect_with(&addr.to_string(), fast_retries()).unwrap();
    client.ping().unwrap();

    let _fp = Guard::arm("server.write", "1*error(wire cut)").unwrap();
    let mut keyed = spec("g");
    keyed.request_key = Some("chaos-replay".into());
    let id = client.submit(&keyed).unwrap();
    assert_eq!(
        fairsqg::faults::hits("server.write"),
        1,
        "the fault did fire mid-submit"
    );
    let result = client.wait(id, Duration::from_secs(60)).unwrap();
    assert!(result.get("result").is_some());

    // Exactly one job ran: the replay was deduped, not re-executed.
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("submitted").and_then(Value::as_u64), Some(1));
    assert_eq!(robustness_counter(&engine, "dedup_hits"), 1);

    client.shutdown().unwrap();
    drop(client);
    stop.stop();
    server.join().unwrap().unwrap();
}

/// An injected read fault on an established connection kills only that
/// connection; the retrying client transparently reconnects.
#[cfg(unix)]
#[test]
fn client_reconnects_after_server_read_fault() {
    let _serial = serial();
    let registry = registry("g", 16);
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig::default(),
    ));
    let (addr, stop, server) =
        fairsqg::service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let client = MuxClient::connect_with(&addr.to_string(), fast_retries()).unwrap();
    client.ping().unwrap();

    let _fp = Guard::arm("server.read", "1*error(read torn down)").unwrap();
    client
        .ping()
        .expect("idempotent ping rides out the dead connection");

    client.shutdown().unwrap();
    drop(client);
    stop.stop();
    server.join().unwrap().unwrap();
}

/// An injected graph-load failure surfaces as a typed `load_failed`
/// protocol error; the connection and the registry's existing graphs are
/// untouched.
#[cfg(unix)]
#[test]
fn graph_load_fault_is_typed_and_non_fatal() {
    let _serial = serial();
    let registry = registry("g", 17);
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig::default(),
    ));
    let (addr, stop, server) =
        fairsqg::service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let client = MuxClient::connect_with(&addr.to_string(), RetryPolicy::none()).unwrap();

    // A perfectly valid file, failed by injection: callers see the same
    // typed error a real I/O fault would produce.
    let dir = std::env::temp_dir().join(format!("fairsqg-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ok_file = dir.join("ok.tsv");
    std::fs::write(&ok_file, "0\tdirector\tgender=1\n\n").unwrap();

    let _fp = Guard::arm("graph.load", "1*error(disk detached)").unwrap();
    match client.load("fresh", &ok_file.to_string_lossy()) {
        Err(ClientError::Server { code, message, .. }) => {
            assert_eq!(code, "load_failed");
            assert!(message.contains("disk detached"));
        }
        other => panic!("expected a load_failed server error, got {other:?}"),
    }

    // Same connection, fault spent: the load now succeeds and the graph
    // serves jobs.
    let epoch = client.load("fresh", &ok_file.to_string_lossy()).unwrap();
    assert!(epoch >= 1);
    let id = client.submit_idempotent(&spec("g")).unwrap();
    assert!(client
        .wait(id, Duration::from_secs(60))
        .unwrap()
        .get("result")
        .is_some());

    let _ = std::fs::remove_dir_all(&dir);
    client.shutdown().unwrap();
    drop(client);
    stop.stop();
    server.join().unwrap().unwrap();
}

fn engine_counter(engine: &Engine, block: &str, name: &str) -> u64 {
    engine
        .stats_value()
        .get(block)
        .and_then(|r| r.get(name))
        .and_then(Value::as_u64)
        .unwrap()
}

/// A coalesced follower whose leader panics is promoted to a fresh
/// leader and requeued: the follower still gets a real answer, and the
/// leader's failure stays the leader's alone.
#[test]
fn leader_panic_promotes_follower_to_fresh_leader() {
    let _serial = serial();
    let registry = registry("g", 21);
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 1,
            cache_entries: 0,
            coalesce: true,
            ..EngineConfig::default()
        },
    );
    // Park the single worker inside an injected stall so the leader and
    // follower can be enqueued (and coalesced) behind it.
    let _stall = Guard::arm("worker.run", "1*sleep(200)").unwrap();
    let mut blocker = spec("g");
    blocker.eps = 0.09; // distinct fingerprint: must not coalesce
    let _blocker = engine.submit(blocker).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while fairsqg::faults::hits("worker.run") < 1 {
        assert!(Instant::now() < deadline, "blocker never hit the stall");
        std::thread::yield_now();
    }
    // Re-arm: the *next* worker.run firing (the leader) panics.
    let _fp = Guard::arm("worker.run", "1*panic(leader chaos)").unwrap();
    let leader = engine.submit(spec("g")).unwrap();
    let follower = engine.submit(spec("g")).unwrap();
    assert_ne!(leader, follower);
    assert_eq!(engine_counter(&engine, "coalescing", "attached"), 1);

    assert_eq!(wait_settled(&engine, leader), JobState::Failed);
    assert_eq!(
        wait_settled(&engine, follower),
        JobState::Done,
        "the promoted follower reruns the work and completes"
    );
    assert!(engine.result(follower).is_some());
    assert_eq!(engine_counter(&engine, "coalescing", "requeued"), 1);
    engine.shutdown();
}

/// Promotion ordering across a brownout change: a follower promoted while
/// the engine is Degraded runs under the *current* level — its archive is
/// flagged `stats.brownout` even though it was admitted at Nominal.
#[test]
fn promoted_follower_runs_under_current_brownout_level() {
    let _serial = serial();
    let registry = registry("g", 22);
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 1,
            cache_entries: 0,
            coalesce: true,
            ..EngineConfig::default()
        },
    );
    let _stall = Guard::arm("worker.run", "1*sleep(200)").unwrap();
    let mut blocker = spec("g");
    blocker.eps = 0.09;
    let _blocker = engine.submit(blocker).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while fairsqg::faults::hits("worker.run") < 1 {
        assert!(Instant::now() < deadline, "blocker never hit the stall");
        std::thread::yield_now();
    }
    let _fp = Guard::arm("worker.run", "1*panic(leader chaos)").unwrap();
    // Admitted at Nominal...
    let leader = engine.submit(spec("g")).unwrap();
    let follower = engine.submit(spec("g")).unwrap();
    // ...but by the time the leader fails and the follower is promoted,
    // the controller has been forced Degraded.
    let _level = Guard::arm("brownout.level", "error(degraded)").unwrap();
    let mut probe = spec("g");
    probe.eps = 0.08; // distinct fingerprint: only drives a gate evaluation
    let probe_id = engine.submit(probe).unwrap();

    assert_eq!(wait_settled(&engine, leader), JobState::Failed);
    assert_eq!(wait_settled(&engine, follower), JobState::Done);
    wait_settled(&engine, probe_id);
    let result = engine.result(follower).unwrap();
    let brownout = result
        .get("stats")
        .and_then(|s| s.get("brownout"))
        .cloned()
        .unwrap_or(Value::Null);
    assert!(
        !matches!(brownout, Value::Null),
        "the promoted rerun carries the brownout mark: {result}"
    );
    assert_eq!(
        brownout.get("level").and_then(Value::as_str),
        Some("degraded")
    );
    engine.shutdown();
}

/// Watchdog escalation: a worker wedged far past the job's deadline is
/// hard-stopped, then declared lost — the job settles with a structured
/// watchdog failure (never hangs) and a replacement worker serves the
/// next job.
#[test]
fn watchdog_escalates_wedged_worker_and_recovers() {
    let _serial = serial();
    let registry = registry("g", 23);
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 1,
            watchdog_grace: Some(Duration::from_millis(40)),
            ..EngineConfig::default()
        },
    );
    // The stall ignores cooperative cancellation AND the hard-stop flag —
    // exactly the wedge the watchdog exists for.
    let _fp = Guard::arm("worker.run", "1*sleep(700)").unwrap();
    let mut wedged = spec("g");
    wedged.deadline_ms = Some(1);
    let id = engine.submit(wedged).unwrap();
    let state = wait_settled(&engine, id);
    assert_eq!(state, JobState::Failed);
    assert!(
        engine
            .status(id)
            .unwrap()
            .error
            .as_deref()
            .unwrap_or("")
            .contains("watchdog"),
        "the settlement names the watchdog"
    );
    assert!(engine_counter(&engine, "watchdog", "hard_stops") >= 1);
    assert!(engine_counter(&engine, "watchdog", "lost_workers") >= 1);

    // The replacement worker serves the next job; the woken straggler's
    // own settlement is a no-op (double-settle guard).
    let id2 = engine.submit(spec("g")).unwrap();
    assert_eq!(wait_settled(&engine, id2), JobState::Done);
    engine.shutdown();
}

/// Forced shedding (deterministic `brownout.level` fail point): priority
/// below the threshold is rejected with a typed `Shed` and a retry hint;
/// default-priority work is still admitted.
#[test]
fn forced_shedding_rejects_low_priority_only() {
    let _serial = serial();
    let registry = registry("g", 24);
    let engine = Engine::start(Arc::clone(&registry), EngineConfig::default());
    let _level = Guard::arm("brownout.level", "error(shedding)").unwrap();
    let mut low = spec("g");
    low.priority = 0;
    match engine.submit(low) {
        Err(SubmitError::Shed { retry_after_ms }) => assert!(retry_after_ms > 0),
        other => panic!("expected Shed, got {other:?}"),
    }
    assert!(engine_counter(&engine, "pressure", "shed") >= 1);
    let id = engine.submit(spec("g")).unwrap();
    assert_eq!(wait_settled(&engine, id), JobState::Done);
    engine.shutdown();
}

/// The `admission.reject` fail point deterministically forces the
/// deadline-admission path: a deadline-bearing job is refused with the
/// full typed payload; a deadline-free job passes the same gate.
#[test]
fn forced_admission_rejection_is_typed() {
    let _serial = serial();
    let registry = registry("g", 25);
    let engine = Engine::start(Arc::clone(&registry), EngineConfig::default());
    let _fp = Guard::arm("admission.reject", "1*error(forced)").unwrap();
    let mut dl = spec("g");
    dl.deadline_ms = Some(5_000);
    match engine.submit(dl) {
        Err(SubmitError::DeadlineUnmeetable {
            deadline_ms,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(deadline_ms, 5_000);
            assert!(retry_after_ms > 0);
        }
        other => panic!("expected DeadlineUnmeetable, got {other:?}"),
    }
    assert!(engine_counter(&engine, "pressure", "deadline_rejected") >= 1);
    let id = engine.submit(spec("g")).unwrap();
    assert_eq!(wait_settled(&engine, id), JobState::Done);
    engine.shutdown();
}

/// Graceful drain with work in flight: the running job completes, every
/// queued job (and its followers) settles `Drained`, new submissions are
/// refused with the typed `Draining`, and `drain_complete` turns true.
#[test]
fn drain_bounces_queued_work_and_finishes_running_jobs() {
    let _serial = serial();
    let registry = registry("g", 26);
    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 1,
            cache_entries: 0,
            coalesce: true,
            ..EngineConfig::default()
        },
    );
    let _stall = Guard::arm("worker.run", "1*sleep(150)").unwrap();
    let running = engine.submit(spec("g")).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while fairsqg::faults::hits("worker.run") < 1 {
        assert!(Instant::now() < deadline, "running job never started");
        std::thread::yield_now();
    }
    let mut queued = spec("g");
    queued.eps = 0.07;
    let queued_id = engine.submit(queued.clone()).unwrap();
    let follower_id = engine.submit(queued).unwrap(); // coalesces onto queued_id

    let (bounced, in_flight) = engine.begin_drain();
    assert!(bounced >= 1, "the queued leader is bounced");
    assert!(in_flight >= 1, "the running job is not bounced");
    assert_eq!(wait_settled(&engine, queued_id), JobState::Drained);
    assert_eq!(
        wait_settled(&engine, follower_id),
        JobState::Drained,
        "followers drain with their leader; promotion would be wrong"
    );
    assert!(matches!(
        engine.submit(spec("g")),
        Err(SubmitError::Draining)
    ));
    assert_eq!(
        wait_settled(&engine, running),
        JobState::Done,
        "in-flight work still completes during a drain"
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while !engine.drain_complete() {
        assert!(Instant::now() < deadline, "drain never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(engine_counter(&engine, "drain", "drained") >= 2);
    engine.shutdown();
}

/// A slow worker (injected stall) plus a short deadline degrades to a
/// truncated partial archive — not a hang, not a failure.
#[test]
fn slow_worker_with_deadline_degrades_to_truncated() {
    let _serial = serial();
    let registry = registry("g", 18);
    let engine = Engine::start(Arc::clone(&registry), EngineConfig::default());
    let _fp = Guard::arm("worker.run", "1*sleep(50)").unwrap();
    let mut slow = spec("g");
    slow.deadline_ms = Some(1);
    let id = engine.submit(slow).unwrap();
    assert_eq!(wait_settled(&engine, id), JobState::Done);
    assert!(
        engine.status(id).unwrap().truncated,
        "a lapsed deadline yields a truncated partial, never a hang"
    );
    engine.shutdown();
}

/// Manifest crash drills: an injected `manifest.write` fault surfaces as
/// a typed I/O error (and `return_early` silently loses the write — the
/// kill-before-flush case); after a real write, a fresh registry (the
/// restarted process) recovers every file-backed graph, and a
/// `manifest.read` fault degrades the restart to an empty registry
/// instead of a crash.
#[test]
fn manifest_faults_are_typed_and_recovery_survives_a_kill() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("fairsqg-chaos-man-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fsg = dir.join("g.fsg");
    fairsqg::store::write_graph_to_path(
        &social_graph(SocialConfig {
            directors: 40,
            majority_share: 0.6,
            seed: 27,
        }),
        &fsg,
    )
    .unwrap();
    let manifest = dir.join("manifest.json");
    let manifest_path = manifest.to_str().unwrap();

    let registry = GraphRegistry::new();
    registry.load_path("g", fsg.to_str().unwrap()).unwrap();

    // Injected write failure: typed, nothing half-written.
    {
        let _fp = Guard::arm("manifest.write", "1*error(disk full)").unwrap();
        let err = registry.write_manifest(manifest_path).unwrap_err();
        assert!(err.to_string().contains("disk full"), "typed: {err}");
        assert!(!manifest.exists(), "a failed write leaves no manifest");
    }
    // Injected lost write (killed before flush): silently absent.
    {
        let _fp = Guard::arm("manifest.write", "1*return_early").unwrap();
        registry.write_manifest(manifest_path).unwrap();
        assert!(!manifest.exists(), "a lost write leaves no manifest");
    }
    // Real write, then "kill": a brand-new registry recovers the graph.
    registry.write_manifest(manifest_path).unwrap();
    drop(registry);
    let restarted = GraphRegistry::new();
    let report = restarted.load_manifest(manifest_path).unwrap();
    assert_eq!(report.loaded, vec!["g".to_string()]);
    assert!(restarted.get("g").is_some());

    // A read fault on the next restart degrades to "no graphs", typed.
    {
        let _fp = Guard::arm("manifest.read", "1*error(manifest unreadable)").unwrap();
        let err = GraphRegistry::new()
            .load_manifest(manifest_path)
            .unwrap_err();
        assert!(err.to_string().contains("manifest unreadable"));
    }
    {
        let _fp = Guard::arm("manifest.read", "1*return_early").unwrap();
        let empty = GraphRegistry::new().load_manifest(manifest_path).unwrap();
        assert!(empty.loaded.is_empty() && empty.skipped.is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A read fault on a multiplexed connection kills only that connection:
/// a client that never retries sees a typed stream error, while a fresh
/// connection to the same event loop works immediately.
#[cfg(unix)]
#[test]
fn mux_read_fault_kills_only_that_connection() {
    use fairsqg::service::spawn_mux;

    let _serial = serial();
    let registry = registry("g", 31);
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig::default(),
    ));
    let (addr, stop, server) = spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();

    let victim = MuxClient::connect_with(&addr.to_string(), RetryPolicy::none()).unwrap();
    victim.ping().unwrap();

    let _fp = Guard::arm("server.read", "1*error(read torn down)").unwrap();
    victim
        .ping()
        .expect_err("the poisoned connection surfaces a typed error, not a hang");
    assert_eq!(fairsqg::faults::hits("server.read"), 1);

    // The event loop is unharmed: a new connection serves jobs end to end.
    let fresh = MuxClient::connect(&addr.to_string()).unwrap();
    fresh.ping().unwrap();
    let id = fresh.submit(&spec("g")).unwrap();
    assert_eq!(wait_settled(&engine, id), JobState::Done);
    let reply = fresh.result(id).unwrap();
    assert!(reply.get("result").and_then(|r| r.get("entries")).is_some());

    drop(victim);
    drop(fresh);
    stop.stop();
    server.join().unwrap().unwrap();
}

/// A reply that arrives after its call timed out is dropped: it neither
/// breaks the connection for a subscription in flight on it nor for the
/// next call.
#[cfg(unix)]
#[test]
fn late_reply_leaves_the_connection_usable() {
    let _serial = serial();
    let registry = registry("g", 33);
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig::default(),
    ));
    let (addr, stop, server) =
        fairsqg::service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let policy = RetryPolicy {
        read_timeout: Some(Duration::from_millis(50)),
        ..RetryPolicy::default()
    };
    let client = MuxClient::connect_with(&addr.to_string(), policy).unwrap();

    // The subscribed job stalls in its worker, so it is still in flight
    // when the late reply lands.
    let _stall = Guard::arm("worker.run", "1*sleep(1000)").unwrap();
    let sub = client.submit_streaming(&spec("g")).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while fairsqg::faults::hits("worker.run") < 1 {
        assert!(Instant::now() < deadline, "the job never started");
        std::thread::yield_now();
    }

    // The event loop stalls 300 ms before writing the pong.
    let _slow = Guard::arm("server.write", "1*sleep(300)").unwrap();
    assert!(matches!(client.ping(), Err(ClientError::Timeout)));

    let streamed = sub.wait(Duration::from_secs(60)).unwrap();
    assert_eq!(streamed.state, "done");
    assert_eq!(fairsqg::faults::hits("server.write"), 1);
    client
        .ping()
        .expect("the connection survives the late reply");

    drop(client);
    stop.stop();
    server.join().unwrap().unwrap();
}

/// Four threads share one client through a killed connection: every
/// idempotent call completes on the one redialed connection, and no
/// unkeyed submit runs twice — the engine counts exactly the submits that
/// returned `Ok`, and one whose connection died is not replayed.
#[cfg(unix)]
#[test]
fn shared_client_rides_out_a_killed_connection() {
    let _serial = serial();
    let registry = registry("g", 34);
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig::default(),
    ));
    let (addr, stop, server) =
        fairsqg::service::spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let client = Arc::new(MuxClient::connect_with(&addr.to_string(), fast_retries()).unwrap());

    // The server's first read on the shared connection kills it: the
    // threads start together, and each one's first call is a ping on it.
    let _fp = Guard::arm("server.read", "1*error(read torn down)").unwrap();
    let start = Arc::new(std::sync::Barrier::new(4));
    let threads: Vec<_> = (0..4u32)
        .map(|t| {
            let client = Arc::clone(&client);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut ok = 0u64;
                for round in 0..3u32 {
                    client.ping().unwrap();
                    client.stats().unwrap();
                    let mut unkeyed = spec("g");
                    unkeyed.eps = 0.05 + f64::from(t * 3 + round) * 0.001;
                    if let Ok(id) = client.submit(&unkeyed) {
                        ok += 1;
                        client.wait(id, Duration::from_secs(60)).unwrap();
                    }
                }
                ok
            })
        })
        .collect();
    let ok: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(fairsqg::faults::hits("server.read"), 1);
    let submitted = |client: &MuxClient| {
        client
            .stats()
            .unwrap()
            .get("submitted")
            .and_then(Value::as_u64)
    };
    assert_eq!(submitted(&client), Some(ok));

    // An unkeyed submit whose connection dies is sent once: it fails.
    let _fp = Guard::arm("server.read", "1*error(read torn down)").unwrap();
    client
        .submit(&spec("g"))
        .expect_err("an unkeyed submit is not replayed");
    assert_eq!(submitted(&client), Some(ok));

    drop(client);
    stop.stop();
    server.join().unwrap().unwrap();
}

/// Retries fast enough for a test: five attempts, 1–10 ms apart.
fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
        ..RetryPolicy::default()
    }
}
