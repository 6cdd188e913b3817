//! Integration tests for the cross-request warm layer: epoch invalidation
//! on reload, coalescing semantics across reloads, follower distribution,
//! the stats surface, the per-plan match tables a λ sweep shares, and the
//! byte budget.

use fairsqg_algo::{ArchiveDelta, ArchiveObserver, CancelToken, Generated, MatchBudget};
use fairsqg_datagen::{social_graph, SocialConfig};
use fairsqg_service::warm::{PlanKey, WarmCounters, WarmState};
use fairsqg_service::{
    diversity_for_spec, plan_spec, plan_spec_cached, run_plan_observed, AlgoKind, BrownoutConfig,
    Engine, EngineConfig, GraphRegistry, JobSpec, JobState,
};
use fairsqg_wire::Value;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
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

/// Records every streamed archive delta as text: version, then each added
/// entry's instance and objective bits, then each removed instance.
#[derive(Default)]
struct Deltas(Mutex<Vec<String>>);

impl ArchiveObserver for Deltas {
    fn archive_updated(&self, d: &ArchiveDelta) {
        let added: Vec<String> = d
            .added
            .iter()
            .map(|e| {
                format!(
                    "{:?}/{:016x}/{:016x}",
                    e.inst,
                    e.objectives().delta.to_bits(),
                    e.objectives().fcov.to_bits()
                )
            })
            .collect();
        let removed: Vec<String> = d.removed.iter().map(|e| format!("{:?}", e.inst)).collect();
        self.0
            .lock()
            .unwrap()
            .push(format!("v{} +{added:?} -{removed:?}", d.version));
    }
}

/// What a warm run must share bit for bit with a cold one: per entry the
/// instance, δ and `f` bits, match set and group counts, then the flags.
fn bits(out: &Generated) -> String {
    let entries: Vec<String> = out
        .entries
        .iter()
        .map(|e| {
            format!(
                "{:?}|{:016x}|{:016x}|{:?}|{:?}",
                e.inst,
                e.objectives().delta.to_bits(),
                e.objectives().fcov.to_bits(),
                e.result.matches,
                e.result.counts,
            )
        })
        .collect();
    format!(
        "{entries:?} truncated={} tripped={:?}",
        out.truncated, out.stats.budget_tripped
    )
}

/// One job in process, the way an engine worker runs it: on `warm`'s
/// pooled plan and profile when given, else cold. Returns the run and its
/// streamed deltas.
fn run_in_process(
    g: &fairsqg_graph::Graph,
    spec: &JobSpec,
    warm: Option<&WarmState>,
    budget: Option<MatchBudget>,
) -> (Generated, Vec<String>) {
    let deltas = Deltas::default();
    let out = match warm {
        Some(w) => {
            let plan = plan_spec_cached(g, spec, w).unwrap();
            let profile =
                w.diversity_cache(g, plan.template.output_label(), &diversity_for_spec(spec));
            let token = CancelToken::new();
            run_plan_observed(&plan, spec, &token, Some(&profile), budget, Some(&deltas))
        }
        None => {
            let plan = plan_spec(g, spec).unwrap();
            let token = CancelToken::new();
            run_plan_observed(&plan, spec, &token, None, budget, Some(&deltas))
        }
    };
    (out, deltas.0.into_inner().unwrap())
}

/// The instances `warm`'s pooled plan for `spec` holds in its table.
fn table_len(warm: &WarmState, spec: &JobSpec) -> usize {
    let plan = warm.plan(&PlanKey::of(spec)).expect("a pooled plan");
    plan.matches
        .as_ref()
        .expect("a pooled plan has a table")
        .len()
}

fn sweep_spec(algo: AlgoKind, lambda: f64, eps: f64) -> JobSpec {
    JobSpec {
        algo,
        threads: 2,
        eps,
        ..spec(lambda)
    }
}

/// Acceptance: a λ sweep and an ε change through one warm plan, under
/// every served search algorithm, give archives, match sets, counts and
/// streamed deltas bit-identical to cold runs, and every job after the
/// first takes match sets from the table.
#[test]
fn lambda_and_eps_sweeps_through_one_warm_plan_match_cold_runs_bit_for_bit() {
    let g = graph(120, 4);
    let sweep = [
        (0.5, 0.05),
        (0.1, 0.05),
        (0.3, 0.05),
        (0.7, 0.05),
        (0.9, 0.05),
        (0.3, 0.2),
    ];
    for algo in [
        AlgoKind::EnumQGen,
        AlgoKind::RfQGen,
        AlgoKind::BiQGen,
        AlgoKind::ParEnum,
    ] {
        let counters = Arc::new(WarmCounters::default());
        let warm = WarmState::new(1, Arc::clone(&counters));
        for (i, &(lambda, eps)) in sweep.iter().enumerate() {
            let s = sweep_spec(algo, lambda, eps);
            let (cold, cold_deltas) = run_in_process(&g, &s, None, None);
            let (hot, hot_deltas) = run_in_process(&g, &s, Some(&warm), None);
            let at = format!("{} λ={lambda} ε={eps}", algo.name());
            assert!(!cold.entries.is_empty(), "{at}");
            assert_eq!(bits(&hot), bits(&cold), "{at}");
            assert_eq!(hot_deltas, cold_deltas, "{at}");
            assert_eq!(hot.stats.verified, cold.stats.verified, "{at}");
            if i == 0 {
                assert_eq!(hot.stats.warm_match_hits, 0, "{at}");
            } else {
                assert!(hot.stats.warm_match_hits > 0, "{at}");
            }
        }
        assert!(counters.match_hits.load(Ordering::Relaxed) > 0);
        assert!(counters.match_misses.load(Ordering::Relaxed) > 0);
    }
}

/// Acceptance: a served λ sweep on a warm engine renders the archives a
/// `--warm off` engine renders, and the `stats` op counts table hits.
#[test]
fn served_lambda_sweep_matches_a_warm_off_engine() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("g", graph(120, 4));
    let warm = Engine::start(Arc::clone(&registry), config(1));
    let cold = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            warm_state: false,
            ..config(1)
        },
    );
    for algo in [AlgoKind::BiQGen, AlgoKind::ParEnum] {
        for lambda in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let s = sweep_spec(algo, lambda, 0.05);
            let a = wait(&warm, warm.submit(s.clone()).unwrap());
            let b = wait(&cold, cold.submit(s).unwrap());
            assert_eq!(archive(&a), archive(&b), "{} λ={lambda}", algo.name());
        }
    }
    let stats = warm.stats_value();
    assert!(stat(&stats, &["warm_state", "match_hits"]) > 0);
    assert!(stat(&stats, &["warm_state", "match_misses"]) > 0);
    assert_eq!(stat(&stats, &["warm_state", "budget_refusals"]), 0);
    let text = fairsqg_service::proto::metrics_text(&warm);
    assert!(text.contains("fairsqg_warm_state_match_hits "), "{text}");
}

/// Acceptance: a `max_steps`-capped job and a brownout-tightened job
/// neither read nor publish, so they trip exactly where a cold run trips
/// and leave the table as they found it.
#[test]
fn capped_and_brownout_runs_trip_like_cold_runs_and_leave_the_table_untouched() {
    let g = graph(120, 4);
    let counters = Arc::new(WarmCounters::default());
    let warm = WarmState::new(1, Arc::clone(&counters));
    let nominal = sweep_spec(AlgoKind::BiQGen, 0.5, 0.05);
    run_in_process(&g, &nominal, Some(&warm), None);
    let held = table_len(&warm, &nominal);
    assert!(held > 0);
    let lookups = || {
        (
            counters.match_hits.load(Ordering::Relaxed),
            counters.match_misses.load(Ordering::Relaxed),
        )
    };
    let before = lookups();

    let mut capped = sweep_spec(AlgoKind::BiQGen, 0.3, 0.05);
    capped.budget.max_steps = Some(400);
    let brownout = MatchBudget {
        max_steps: Some(400),
        ..BrownoutConfig::default().degraded_budget
    };
    for (s, budget) in [
        (capped, None),
        (sweep_spec(AlgoKind::RfQGen, 0.3, 0.05), Some(brownout)),
    ] {
        let (cold, cold_deltas) = run_in_process(&g, &s, None, budget);
        let (hot, hot_deltas) = run_in_process(&g, &s, Some(&warm), budget);
        assert!(cold.truncated && cold.stats.budget_tripped.is_some());
        assert_eq!(bits(&hot), bits(&cold));
        assert_eq!(hot_deltas, cold_deltas);
        assert_eq!(hot.stats.verified, cold.stats.verified);
        assert_eq!(hot.stats.witness_hits, cold.stats.witness_hits);
        assert_eq!(hot.stats.warm_match_hits, 0);
    }
    assert_eq!(table_len(&warm, &nominal), held);
    assert_eq!(lookups(), before, "a capped run consulted the table");
}

/// Acceptance: a reload's new epoch starts with an empty table — its
/// first job takes nothing from the old epoch's match sets.
#[test]
fn reload_starts_the_new_epoch_with_an_empty_match_table() {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("g", graph(60, 1));
    let engine = Engine::start(Arc::clone(&registry), config(1));
    let _ = wait(&engine, engine.submit(spec(0.5)).unwrap());
    let _ = wait(&engine, engine.submit(spec(0.6)).unwrap());
    let hits_before = registry.warm_stats().match_hits;
    assert!(
        hits_before > 0,
        "the second job of an epoch reuses the first's"
    );

    registry.insert("g", graph(90, 2));
    let after = wait(&engine, engine.submit(spec(0.7)).unwrap());
    assert_eq!(registry.warm_stats().match_hits, hits_before);
    let state = registry.warm_snapshot("g").expect("the new epoch's state");
    assert_eq!(state.epoch(), 2);
    assert!(table_len(&state, &spec(0.7)) > 0);

    let cold_registry = Arc::new(GraphRegistry::new());
    cold_registry.insert("g", graph(90, 2));
    let cold = Engine::start(
        cold_registry,
        EngineConfig {
            warm_state: false,
            ..config(1)
        },
    );
    let reference = wait(&cold, cold.submit(spec(0.7)).unwrap());
    assert_eq!(archive(&after), archive(&reference));
}

/// Acceptance: two workers racing on one plan, each reading what the
/// other publishes mid-run, both compute the cold archives. A barrier
/// starts each round's two jobs together; `parenum` adds its own two
/// workers' races on the same table.
#[test]
fn two_workers_racing_on_one_plan_agree() {
    let g = graph(120, 4);
    let counters = Arc::new(WarmCounters::default());
    let warm = WarmState::new(1, Arc::clone(&counters));
    let start = std::sync::Barrier::new(2);
    let algos = [AlgoKind::BiQGen, AlgoKind::ParEnum, AlgoKind::EnumQGen];
    for round in 0..6 {
        let specs = [0, 1].map(|side| {
            let lambda = 0.05 + 0.15 * round as f64 + 0.07 * side as f64;
            sweep_spec(algos[(round + side) % algos.len()], lambda, 0.05)
        });
        // A run's archive holds `Rc`s; each thread hands back its text.
        let runs: Vec<(String, Vec<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|s| {
                    let (g, warm, start) = (&g, &warm, &start);
                    scope.spawn(move || {
                        start.wait();
                        let (out, deltas) = run_in_process(g, s, Some(warm), None);
                        (bits(&out), deltas)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (s, (hot, hot_deltas)) in specs.iter().zip(runs) {
            let (cold, cold_deltas) = run_in_process(&g, s, None, None);
            assert_eq!(hot, bits(&cold), "round {round} λ={}", s.lambda);
            assert_eq!(hot_deltas, cold_deltas, "round {round} λ={}", s.lambda);
        }
    }
    assert!(counters.match_hits.load(Ordering::Relaxed) > 0);
}

/// Satellite: the byte budget holds while a live state takes in plans and
/// match records — a hundred distinct templates on one graph under a tiny
/// budget — and what it refuses the jobs still run with privately.
#[test]
fn a_tiny_budget_bounds_a_live_state_and_leaves_archives_unchanged() {
    let budget = 96 * 1024;
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("g", graph(60, 1));
    let warm = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            warm_budget_bytes: budget,
            ..config(1)
        },
    );
    let cold = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            warm_state: false,
            ..config(1)
        },
    );
    for i in 0..100 {
        let s = JobSpec {
            template: format!("# tenant {i}\n{TEMPLATE}"),
            ..spec(0.5)
        };
        let a = wait(&warm, warm.submit(s.clone()).unwrap());
        if i % 10 == 0 {
            let b = wait(&cold, cold.submit(s).unwrap());
            assert_eq!(archive(&a), archive(&b), "template {i}");
        }
        let state = registry.warm_snapshot("g").expect("pooled state");
        assert!(state.approx_bytes() <= budget, "template {i}");
    }
    let stats = registry.warm_stats();
    assert!(stats.approx_bytes <= budget);
    assert!(stats.budget_refusals > 0, "a hundred plans cannot fit");
    assert_eq!(stats.plan_misses, 100);
}
