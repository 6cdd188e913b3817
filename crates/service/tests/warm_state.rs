//! Integration tests for the cross-request warm layer: epoch invalidation
//! on reload, coalescing semantics across reloads, follower distribution,
//! and the stats surface.

use fairsqg_datagen::{social_graph, SocialConfig};
use fairsqg_service::{AlgoKind, Engine, EngineConfig, GraphRegistry, JobSpec, JobState};
use fairsqg_wire::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TEMPLATE: &str = "node u0 : director\nnode u1 : user\nedge u1 -recommend-> u0\n\
                        where u1.yearsOfExp >= ?\noutput u0\n";

/// Four range variables: `|I(Q)|` = 9⁴ = 6561 under the service's default
/// domains, so a job over it is long because its lattice is large, not
/// because one verification is slow.
const SLOW_TEMPLATE: &str = "node u0 : director\nnode u1 : user\nnode u2 : org\n\
                             edge u1 -recommend-> u0\nedge u1 -worksAt-> u2\n\
                             where u0.yearsOfExp >= ?\nwhere u1.yearsOfExp >= ?\n\
                             where u1.endorsements >= ?\nwhere u2.employees >= ?\n\
                             output u0\n";

fn graph(directors: usize, seed: u64) -> fairsqg_graph::Graph {
    social_graph(SocialConfig {
        directors,
        majority_share: 0.6,
        seed,
    })
}

fn spec(lambda: f64) -> JobSpec {
    JobSpec {
        graph: "g".into(),
        template: TEMPLATE.into(),
        group_attr: "gender".into(),
        cover: 3,
        algo: AlgoKind::BiQGen,
        threads: 1,
        eps: 0.05,
        lambda,
        deadline_ms: None,
        budget: fairsqg_algo::MatchBudget::UNLIMITED,
        request_key: None,
        priority: fairsqg_service::DEFAULT_PRIORITY,
        client: None,
        subscribe: false,
    }
}

/// Holds the single worker while a test queues jobs behind it: `enum` over
/// [`SLOW_TEMPLATE`] on `graph(400, _)` runs 1.6 s under `cargo test`'s
/// debug profile and 0.11 s in release (2-vCPU Xeon 2.1 GHz); the submits
/// and the reload it must outlast take ≈20 ms and ≈3 ms respectively.
fn blocker() -> JobSpec {
    JobSpec {
        template: SLOW_TEMPLATE.into(),
        algo: AlgoKind::EnumQGen,
        ..spec(0.31)
    }
}

fn config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        // Result caching off: these tests exercise the warm layer and
        // coalescing, which only see traffic the result cache misses.
        cache_entries: 0,
        ..EngineConfig::default()
    }
}

fn wait(engine: &Engine, id: u64) -> Arc<Value> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match engine.status(id).expect("job exists").state {
            JobState::Done => return engine.result(id).expect("result"),
            JobState::Failed => panic!("job {id} failed: {:?}", engine.status(id).unwrap().error),
            JobState::Cancelled => panic!("job {id} cancelled"),
            _ => {
                assert!(Instant::now() < deadline, "job {id} stuck");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// The archive portion of a rendered result (entry order, bindings, and
/// JSON-rendered objective values); the stats block is volatile.
fn archive(result: &Value) -> String {
    fairsqg_wire::to_string_pretty(result.get("entries").expect("entries"))
}

fn stat(stats: &Value, path: &[&str]) -> u64 {
    let mut v = stats;
    for p in path {
        v = v.get(p).unwrap_or_else(|| panic!("stats missing {p}"));
    }
    v.as_u64().unwrap_or_else(|| panic!("{path:?} not a u64"))
}

/// Acceptance: a graph reload bumps the epoch and drops the warm state —
/// jobs after the reload build fresh profiles over the new graph and their
/// archives are bit-identical to a cold engine's on that graph (no stale
/// diversity profile survives the reload).
#[test]
fn reload_invalidates_warm_state() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("g", graph(60, 1));
    let engine = Engine::start(Arc::clone(&registry), config(1));

    let first = wait(&engine, engine.submit(spec(0.5)).unwrap());
    let warm_before = registry.warm_stats();
    assert_eq!(warm_before.graphs, 1, "warm state exists after a job");
    assert!(warm_before.diversity_misses >= 1);

    // Reload with a *different* graph under the same name.
    registry.insert("g", graph(90, 2));
    assert_eq!(
        registry.warm_stats().graphs,
        0,
        "reload must drop the old epoch's warm state eagerly"
    );

    let second = wait(&engine, engine.submit(spec(0.5)).unwrap());
    assert_ne!(
        archive(&first),
        archive(&second),
        "post-reload jobs must run on the new graph"
    );
    let warm_after = registry.warm_stats();
    assert_eq!(warm_after.graphs, 1, "new epoch gets fresh warm state");
    assert!(
        warm_after.diversity_misses > warm_before.diversity_misses,
        "post-reload profiles are built fresh, not reused"
    );

    // Ground truth: a cold engine over the new graph.
    let cold_registry = Arc::new(GraphRegistry::new());
    cold_registry.insert("g", graph(90, 2));
    let cold = Engine::start(
        cold_registry,
        EngineConfig {
            warm_state: false,
            coalesce: false,
            ..config(1)
        },
    );
    let reference = wait(&cold, cold.submit(spec(0.5)).unwrap());
    assert_eq!(
        archive(&second),
        archive(&reference),
        "warm archive after reload must be bit-identical to a cold run"
    );
}

/// Acceptance: identical specs coalesce while in flight, but never across
/// a reload — the fingerprint carries the epoch, so a post-reload
/// duplicate becomes a fresh leader against the new graph.
#[test]
fn no_coalescing_across_reload() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("g", graph(400, 1));
    let engine = Engine::start(Arc::clone(&registry), config(1));

    // One worker: the blocker occupies it while the rest of the
    // submissions land in the queue.
    let blocker = engine.submit(blocker()).unwrap();
    let leader = engine.submit(spec(0.5)).unwrap();
    let follower = engine.submit(spec(0.5)).unwrap();

    registry.insert("g", graph(400, 2));
    let post_reload = engine.submit(spec(0.5)).unwrap();

    let _ = wait(&engine, blocker);
    let leader_result = wait(&engine, leader);
    let follower_result = wait(&engine, follower);
    let post_result = wait(&engine, post_reload);

    let stats = engine.stats_value();
    assert_eq!(
        stat(&stats, &["coalescing", "attached"]),
        1,
        "only the same-epoch duplicate may attach"
    );
    assert_eq!(stat(&stats, &["coalescing", "served"]), 1);
    assert_eq!(
        archive(&leader_result),
        archive(&follower_result),
        "the follower is served the leader's archive"
    );
    assert_ne!(
        archive(&leader_result),
        archive(&post_result),
        "the post-reload job must run against the new graph"
    );
    // The pre-reload jobs ran on their pinned (old-epoch) graph even
    // though the reload happened while they were queued.
    assert!(engine.status(leader).unwrap().state == JobState::Done);
}

/// Every live follower of a cleanly finished leader gets the leader's
/// exact result; the coalescing counters account for each.
#[test]
fn followers_served_from_leader_result() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("g", graph(400, 3));
    let engine = Engine::start(registry, config(1));

    let blocker = engine.submit(blocker()).unwrap();
    let ids: Vec<u64> = (0..3).map(|_| engine.submit(spec(0.6)).unwrap()).collect();
    let _ = wait(&engine, blocker);
    let results: Vec<String> = ids.iter().map(|&id| archive(&wait(&engine, id))).collect();
    assert!(results.windows(2).all(|w| w[0] == w[1]));

    let stats = engine.stats_value();
    assert_eq!(stat(&stats, &["coalescing", "attached"]), 2);
    assert_eq!(stat(&stats, &["coalescing", "served"]), 2);
    assert_eq!(stat(&stats, &["coalescing", "requeued"]), 0);
}

/// Satellite: a zero-capacity result cache reports `disabled: true`
/// instead of an all-zero cache block.
#[test]
fn disabled_result_cache_reports_disabled() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("g", graph(40, 1));
    let disabled = Engine::start(Arc::clone(&registry), config(1));
    let block = disabled.stats_value();
    let cache = block.get("result_cache").expect("result_cache block");
    assert_eq!(cache.get("disabled").and_then(Value::as_bool), Some(true));
    assert!(cache.get("hits").is_none());

    let enabled = Engine::start(
        registry,
        EngineConfig {
            cache_entries: 8,
            ..config(1)
        },
    );
    let block = enabled.stats_value();
    let cache = block.get("result_cache").expect("result_cache block");
    assert!(cache.get("disabled").is_none());
    assert!(cache.get("hits").is_some());
}

/// The stats surface carries the warm-state block (budget, bytes, hit
/// counters) when warm state is on, and marks it disabled when off.
#[test]
fn stats_expose_warm_state_block() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("g", graph(60, 1));
    let engine = Engine::start(Arc::clone(&registry), config(1));
    let _ = wait(&engine, engine.submit(spec(0.5)).unwrap());
    let stats = engine.stats_value();
    let warm = stats.get("warm_state").expect("warm_state block");
    assert_eq!(warm.get("enabled").and_then(Value::as_bool), Some(true));
    assert!(stat(&stats, &["warm_state", "diversity_misses"]) >= 1);
    assert!(stat(&stats, &["warm_state", "budget_bytes"]) > 0);

    let off = Engine::start(
        registry,
        EngineConfig {
            warm_state: false,
            ..config(1)
        },
    );
    let warm = off.stats_value();
    let warm = warm.get("warm_state").expect("warm_state block");
    assert_eq!(warm.get("enabled").and_then(Value::as_bool), Some(false));
    assert!(warm.get("diversity_hits").is_none());
}
