//! A settled result reaches the wire in four ways — a cache hit's
//! catch-up and settled frames, a coalesced follower's, a late
//! subscriber's to a job that already settled, and a `result` reply. The
//! three subscriptions' frames are written from the result's stored
//! encoding, the reply from the borrowed result. Each must be byte for
//! byte what `fairsqg_wire::to_string` writes for the same values.

#![cfg(unix)]

use fairsqg::datagen::{social_graph, SocialConfig};
use fairsqg::service::{
    spawn_mux, AlgoKind, Engine, EngineConfig, GraphRegistry, JobSpec, JobState,
};
use fairsqg::wire::{to_string, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const TEMPLATE: &str = "\
    node u0 : director\n\
    node u1 : user\n\
    edge u1 -recommend-> u0\n\
    where u1.yearsOfExp >= ?\n\
    output u0\n";

/// Four range variables: slow enough (|I(Q)| = 6561) to hold the one
/// worker while the jobs behind it queue up.
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

fn spec(graph: &str, template: &str) -> JobSpec {
    JobSpec {
        graph: graph.into(),
        template: template.into(),
        group_attr: "gender".into(),
        cover: 5,
        algo: AlgoKind::EnumQGen,
        threads: 0,
        eps: 0.05,
        lambda: 0.5,
        deadline_ms: None,
        budget: fairsqg::algo::MatchBudget::UNLIMITED,
        request_key: None,
        priority: fairsqg::service::DEFAULT_PRIORITY,
        client: None,
        subscribe: false,
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Self {
        let writer = TcpStream::connect(addr).unwrap();
        writer
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Self { reader, writer }
    }

    fn send(&mut self, request: &Value) {
        let mut line = to_string(request);
        line.push('\n');
        self.writer.write_all(line.as_bytes()).unwrap();
    }

    fn submit(&mut self, spec: &JobSpec, rid: &str) {
        self.send(&Value::object([
            ("op", Value::from("submit")),
            ("job", spec.to_value()),
            ("rid", Value::from(rid)),
        ]));
    }

    /// The next frame, exactly as it came off the socket.
    fn line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        assert_eq!(line.pop(), Some('\n'), "a whole frame");
        line
    }

    /// The id an acknowledgement carries.
    fn ack(&mut self) -> u64 {
        let ack = fairsqg::wire::parse(&self.line()).unwrap();
        assert_eq!(ack.get("ok").and_then(Value::as_bool), Some(true), "{ack}");
        ack.get("id").and_then(Value::as_u64).unwrap()
    }
}

/// The value at `path` under `v`.
fn at<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(v, |v, key| {
        v.get(key).unwrap_or_else(|| panic!("no {key} in {v}"))
    })
}

/// The catch-up delta and settled frame a subscriber to settled job `id`
/// is owed, built as values.
fn oracle_frames(engine: &Engine, id: u64, rid: &str) -> [String; 2] {
    let status = engine.status(id).unwrap();
    assert_eq!(status.state, JobState::Done);
    let result = engine.result(id).unwrap();
    let entries = result.get("entries").and_then(Value::as_array).unwrap();
    assert!(!entries.is_empty());
    let order: Vec<Value> = entries
        .iter()
        .map(|e| at(e, &["bindings"]).clone())
        .collect();
    let delta = Value::object([
        ("event", Value::from("delta")),
        ("id", Value::from(id)),
        ("version", Value::from(1u64)),
        ("added", Value::Array(entries.to_vec())),
        ("removed", Value::Array(Vec::new())),
        ("rid", Value::from(rid)),
    ]);
    let settled = Value::object([
        ("event", Value::from("settled")),
        ("id", Value::from(id)),
        ("state", Value::from("done")),
        ("truncated", Value::from(status.truncated)),
        ("from_cache", Value::from(status.from_cache)),
        ("lossy", Value::from(false)),
        ("eps", at(&result, &["eps"]).clone()),
        ("stats", at(&result, &["stats"]).clone()),
        ("order", Value::Array(order)),
        ("rid", Value::from(rid)),
    ]);
    [to_string(&delta), to_string(&settled)]
}

#[test]
fn settled_results_are_written_as_their_values_serialize() {
    let registry = Arc::new(GraphRegistry::new());
    for (name, directors) in [("g", 120), ("slow", 400)] {
        registry.insert(
            name,
            social_graph(SocialConfig {
                directors,
                majority_share: 0.6,
                seed: 7,
            }),
        );
    }
    let engine = Arc::new(Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers: 1,
            queue_capacity: 32,
            cache_entries: 32,
            default_deadline: None,
            ..EngineConfig::default()
        },
    ));
    let (addr, stop, handle) = spawn_mux("127.0.0.1:0", Arc::clone(&engine)).unwrap();
    let addr = addr.to_string();
    let mut conn = Conn::open(&addr);

    // The one worker runs the slow job while the keyed leader queues
    // behind it, so the subscribing twin is sure to coalesce onto it; once
    // the twin is acknowledged it has, and the slow job is cancelled.
    let mut leader = spec("g", TEMPLATE);
    leader.request_key = Some("lead".into());
    let mut follower = spec("g", TEMPLATE);
    follower.subscribe = true;
    conn.submit(&spec("slow", SLOW_TEMPLATE), "slow");
    conn.submit(&leader, "lead");
    conn.submit(&follower, "follow");
    let slow_id = conn.ack();
    let leader_id = conn.ack();
    let follower_id = conn.ack();
    assert!(engine.cancel(slow_id));
    let frames = [conn.line(), conn.line()];
    assert_eq!(frames, oracle_frames(&engine, follower_id, "follow"));
    let stats = engine.stats_value();
    assert_eq!(at(&stats, &["coalescing", "served"]).as_u64(), Some(1));

    // A cache hit, then a late subscriber: the keyed resubmit replays the
    // settled leader.
    conn.submit(&follower, "hit");
    let hit_id = conn.ack();
    let frames = [conn.line(), conn.line()];
    assert_eq!(frames, oracle_frames(&engine, hit_id, "hit"));
    assert!(engine.status(hit_id).unwrap().from_cache);
    leader.subscribe = true;
    conn.submit(&leader, "late");
    assert_eq!(conn.ack(), leader_id);
    let frames = [conn.line(), conn.line()];
    assert_eq!(frames, oracle_frames(&engine, leader_id, "late"));

    conn.send(&Value::object([
        ("op", Value::from("result")),
        ("id", Value::from(leader_id)),
        ("rid", Value::from("res")),
    ]));
    let reply = Value::object([
        ("ok", Value::from(true)),
        ("id", Value::from(leader_id)),
        ("from_cache", Value::from(false)),
        ("result", Value::clone(&engine.result(leader_id).unwrap())),
        ("rid", Value::from("res")),
    ]);
    assert_eq!(conn.line(), to_string(&reply));

    // Three subscriptions of two frames each; the reply is not counted.
    let stats = engine.stats_value();
    assert_eq!(
        at(&stats, &["streaming", "stored_frames"]).as_u64(),
        Some(6)
    );
    stop.stop();
    handle.join().unwrap().unwrap();
}
