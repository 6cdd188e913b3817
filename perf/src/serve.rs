//! The serving workloads: `serve-hot` (closed loop, result-cache hits)
//! and `serve-open` (open loop, every job unique), both through the real
//! `fairsqg serve --mux on` child over loopback.

use crate::inputs;
use crate::load::{poisson_schedule, sub_seed, SplitMix64, Zipf};
use crate::metrics::Report;
use crate::span::{self, Tracer};
use crate::stats::{median, ratio, Summary};
use crate::{proc, Ctx};
use fairsqg_algo::{CancelToken, MatchBudget};
use fairsqg_datagen::{stream_tsv_to_path, DatasetKind};
use fairsqg_graph::Graph;
use fairsqg_query::{parse_template, DomainConfig, RefinementDomains};
use fairsqg_service::warm::{WarmCounters, WarmState};
use fairsqg_service::{
    diversity_for_spec, generated_to_value, plan_spec, plan_spec_cached, run_plan_shared, AlgoKind,
    JobSpec, MuxClient, StreamedResult, Subscription, DEFAULT_PRIORITY,
};
use fairsqg_store::{convert_tsv_path, open_path};
use fairsqg_wire::{FrameDecoder, Value};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// `|V_uo|` of each served LKI graph, and how many are drawn and served.
/// One draw moves a unique job's cost by ±25 % (the root match set by a
/// tenth, the pairs scored with its square); jobs spread over eight draws
/// cost the same from seed to seed within a few per cent.
const DIRECTORS: usize = 600;
const GRAPHS: usize = 8;
/// ε of every served job.
const EPS: f64 = 0.05;
/// `serve-hot`: jobs each connection keeps in flight, and the λ values
/// that with the four templates make its 32 specs. Four in flight keep
/// the server's event loop busy without a standing queue; at eight, two
/// cores shared with the load generator queue erratically and throughput
/// swings by a fifth from run to run.
const IN_FLIGHT: usize = 4;
const HOT_LAMBDAS: usize = 8;
/// Connections (one driving thread each), capped by `nproc`.
const CONNECTIONS: usize = 2;
/// Untimed jobs before a timed phase, about a second and a half of
/// them: they fill the warm tables and give this box the second or so it
/// takes to hand over its second core. A count, not a duration, because
/// the server keeps a record of every job it has served: its memory at
/// the start of the timed phase repeats only if the job count does.
const HOT_WARM_JOBS: usize = 12_000;
const OPEN_WARM_JOBS: usize = 1_200;
/// `serve-open` arrival rates in jobs/s: about 20, 40 and 60 % of the
/// closed-loop capacity this mix showed on the reference box at its
/// slowest (about 600 jobs/s; it ranged up to 930 — see perf/README.md),
/// then frozen. The issue's 25/50/75 % left the middle rate's median
/// latency swinging by a fifth with the box's speed: past half load,
/// queueing amplifies every change in service time.
pub const OPEN_RATES: [f64; 3] = [120.0, 240.0, 360.0];
/// Share of `--seconds` each rate runs for: the higher rates get the time
/// they need to collect the thousand samples a p99 wants.
const OPEN_SHARES: [f64; 3] = [0.2, 0.5, 0.3];
/// A rate is sustained when its p99 stays under this, nothing fails and
/// the backlog does not grow over the second half of the phase.
pub const OPEN_P99_LIMIT_MS: f64 = 200.0;
/// Threads per open-loop connection, each sending one arrival at its due
/// time and waiting for it: the jobs a connection can have outstanding
/// before its arrivals run late.
const OPEN_POOL: usize = 16;
const WAIT: Duration = Duration::from_secs(60);
const SETUP_REPS: usize = 9;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Open,
}

/// The `fairsqg serve` child. Killed on drop if still running.
pub struct ServerChild {
    child: Child,
    pub addr: String,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl ServerChild {
    /// Spawns `fairsqg serve --mux on` on an ephemeral port with the
    /// `i`-th of `fsgs` loaded as graph `g<i>`, everything else at CLI
    /// defaults, and returns once it has printed the address it listens
    /// on.
    pub fn spawn(bin: &Path, fsgs: &[PathBuf], workers: usize) -> Result<Self, String> {
        let mut command = Command::new(bin);
        command
            .args(["serve", "--mux", "on", "--addr", "127.0.0.1:0"])
            .args(["--workers", &workers.to_string(), "--queue", "4096"]);
        for (i, fsg) in fsgs.iter().enumerate() {
            command
                .arg("--load")
                .arg(format!("{}={}", graph_name(i), fsg.display()));
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pipe = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        // Keeps reading to EOF so the child never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some((_, addr)) = line.split_once("listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut server = Self {
            child,
            addr: String::new(),
            stderr: Some(stderr),
        };
        server.addr = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| "the server did not report a listening address".to_string())?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<MuxClient, String> {
        let client = MuxClient::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        Ok(client)
    }

    /// Asks the server to shut down and waits until the process has
    /// ended.
    pub fn stop(mut self, client: &MuxClient) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                self.reap();
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("the server did not exit after shutdown".into())
    }

    fn reap(&mut self) {
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.reap();
    }
}

/// The files and child of one serving set-up.
struct Served {
    server: ServerChild,
    fsgs: Vec<PathBuf>,
    /// The TSV emission's part of the set-up time.
    datagen_s: f64,
}

/// Set-up of the serving workloads: emit the LKI TSVs, convert them to
/// `.fsg`, spawn the server on them and wait for its `ping`.
fn set_up(bin: &Path, dir: &Path, seed: u64, workers: usize) -> Result<Served, String> {
    let mut datagen_s = 0.0;
    let mut fsgs = Vec::with_capacity(GRAPHS);
    for g in 0..GRAPHS {
        let tsv = dir.join(format!("g{g}.tsv"));
        let fsg = dir.join(format!("g{g}.fsg"));
        let datagen = Instant::now();
        stream_tsv_to_path(
            DatasetKind::Lki,
            DIRECTORS,
            sub_seed(seed, 1 + g as u64),
            &tsv,
        )
        .map_err(|e| e.to_string())?;
        datagen_s += datagen.elapsed().as_secs_f64();
        convert_tsv_path(&tsv, &fsg).map_err(|e| e.to_string())?;
        fsgs.push(fsg);
    }
    let server = ServerChild::spawn(bin, &fsgs, workers)?;
    server.connect()?;
    Ok(Served {
        server,
        fsgs,
        datagen_s,
    })
}

/// The registry name of the `i`-th served graph.
fn graph_name(i: usize) -> String {
    format!("g{i}")
}

/// A job on the `graph`-th served graph.
pub fn job(graph: usize, template: &str, cover: u32, lambda: f64) -> JobSpec {
    JobSpec {
        graph: graph_name(graph),
        template: template.into(),
        group_attr: "gender".into(),
        cover,
        algo: AlgoKind::BiQGen,
        threads: 0,
        eps: EPS,
        lambda,
        deadline_ms: None,
        budget: MatchBudget::UNLIMITED,
        request_key: None,
        priority: DEFAULT_PRIORITY,
        client: None,
        subscribe: true,
    }
}

/// Covers of the four serving templates on `graph`.
fn covers(graph: &Graph) -> Result<Vec<u32>, String> {
    inputs::LKI_SERVE
        .iter()
        .map(|dsl| {
            let plan = plan_spec(graph, &job(0, dsl, 1, 0.5))?;
            Ok(inputs::half_root_cover(
                graph,
                &plan.template,
                &plan.domains,
                &plan.groups,
            ))
        })
        .collect()
}

/// The in-process answer to served jobs: `plan_spec*` + `run_plan_shared`
/// on the same `.fsg` files, with the warm tables a server would keep.
pub struct Reference<'g> {
    /// `g<i>` and its warm state.
    graphs: Vec<(&'g Graph, WarmState)>,
}

impl<'g> Reference<'g> {
    pub fn new(graphs: impl IntoIterator<Item = &'g Graph>) -> Self {
        Self {
            graphs: graphs
                .into_iter()
                .map(|g| (g, WarmState::new(1, Arc::new(WarmCounters::default()))))
                .collect(),
        }
    }

    /// The graph a spec names, with its warm state.
    fn graph_of(&self, spec: &JobSpec) -> Result<&(&'g Graph, WarmState), String> {
        (0..self.graphs.len())
            .find(|&i| graph_name(i) == spec.graph)
            .map(|i| &self.graphs[i])
            .ok_or_else(|| format!("no graph '{}'", spec.graph))
    }

    /// The `entries` array the server must return for `spec`.
    pub fn entries(&self, spec: &JobSpec) -> Result<Value, String> {
        let (graph, warm) = self.graph_of(spec)?;
        let plan = plan_spec_cached(graph, spec, warm)?;
        let shared = warm.diversity_cache(
            graph,
            plan.template.output_label(),
            &diversity_for_spec(spec),
        );
        let out = run_plan_shared(&plan, spec, &CancelToken::new(), Some(&shared));
        if out.truncated {
            return Err("the in-process run was truncated".into());
        }
        generated_to_value(&plan, &out)
            .get("entries")
            .cloned()
            .ok_or_else(|| "rendered result has no entries".to_string())
    }
}

/// Entries as a set of `(bindings, δ bits, f bits, matches, counts)`:
/// what two archives must share whatever order they are listed in.
fn entry_set(entries: &Value) -> Option<Vec<String>> {
    let mut set: Vec<String> = entries
        .as_array()?
        .iter()
        .map(|e| {
            Some(format!(
                "{}|{:016x}|{:016x}|{}|{}",
                e.get("bindings")?.as_str()?,
                e.get("delta")?.as_f64()?.to_bits(),
                e.get("fcov")?.as_f64()?.to_bits(),
                e.get("matches")?.as_u64()?,
                e.get("group_counts")?,
            ))
        })
        .collect::<Option<_>>()?;
    set.sort();
    Some(set)
}

/// What a settled subscription delivered: the served `entries` of a
/// complete, nominal answer, or why it does not count.
fn served_entries(outcome: &StreamedResult) -> Result<&Value, String> {
    if outcome.state != "done" || outcome.truncated || outcome.lossy {
        return Err(format!(
            "settled {} (truncated={}, lossy={})",
            outcome.state, outcome.truncated, outcome.lossy
        ));
    }
    let result = outcome.result.as_ref().ok_or("no result")?;
    if result.get("stats").and_then(|s| s.get("brownout")) != Some(&Value::Null) {
        return Err("brownout-marked".into());
    }
    result
        .get("entries")
        .ok_or_else(|| "no entries".to_string())
}

/// Same archive: the same rendered entries, or at least the same set.
fn same_entries(served: &Value, expected: &Value) -> bool {
    served == expected || entry_set(served) == entry_set(expected)
}

/// Whether a served outcome is the complete, nominal, correct answer.
fn served_ok(outcome: &StreamedResult, expected: &Value) -> bool {
    served_entries(outcome).is_ok_and(|entries| same_entries(entries, expected))
}

/// A snapshot of the server's `stats` op.
struct Snap(Value);

impl Snap {
    fn take(client: &MuxClient) -> Result<Self, String> {
        client.stats().map(Snap).map_err(|e| format!("stats: {e}"))
    }

    fn num(&self, path: &[&str]) -> f64 {
        path.iter()
            .try_fold(&self.0, |v, key| v.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }

    /// Total milliseconds and sample count of one engine stage.
    fn stage(&self, stage: &str) -> (f64, f64) {
        let count = self.num(&["latency", stage, "count"]);
        (self.num(&["latency", stage, "mean_ms"]) * count, count)
    }
}

/// Mean milliseconds per sample a stage added between two snapshots.
fn stage_mean_ms(before: &Snap, after: &Snap, stage: &str) -> f64 {
    let (b_ms, b_n) = before.stage(stage);
    let (a_ms, a_n) = after.stage(stage);
    ratio(a_ms - b_ms, a_n - b_n)
}

/// The engine's own counters over a timed phase, as deltas.
fn engine_deltas(report: &mut Report, before: &Snap, after: &Snap) {
    let delta = |path: &[&str]| after.num(path) - before.num(path);
    let rate = |hits: &[&str], misses: &[&str]| {
        let h = delta(hits);
        ratio(h, h + delta(misses))
    };
    for (name, stage) in [
        ("engine.queue_wait_ms", "queue_wait"),
        ("engine.generate_ms", "generate"),
        ("engine.plan_ms", "plan"),
        ("engine.render_ms", "render"),
    ] {
        report.set(name, stage_mean_ms(before, after, stage));
    }
    report.set(
        "engine.cache_hit_rate",
        rate(&["result_cache", "hits"], &["result_cache", "misses"]),
    );
    report.set(
        "engine.coalesced_share",
        ratio(delta(&["coalescing", "attached"]), delta(&["submitted"])),
    );
    report.set("engine.rejected", delta(&["rejected"]));
    report.set(
        "engine.brownout_jobs",
        delta(&["pressure", "brownout_jobs"]),
    );
    report.set(
        "warm.plan_hit_rate",
        rate(&["warm_state", "plan_hits"], &["warm_state", "plan_misses"]),
    );
    report.set(
        "warm.diversity_hit_rate",
        rate(
            &["warm_state", "diversity_hits"],
            &["warm_state", "diversity_misses"],
        ),
    );
    report.set(
        "stream.deltas_per_job",
        ratio(
            delta(&["streaming", "deltas"]),
            delta(&["streaming", "settled"]),
        ),
    );
}

/// One finished (or refused) job of a closed loop.
struct Done {
    spec: usize,
    latency_ms: f64,
    outcome: Result<StreamedResult, String>,
}

/// One connection's closed loop: keep `IN_FLIGHT` jobs outstanding, each
/// spec drawn by `pick`, until `pick` has no more; then drain. `on_done`
/// sees every outcome as it arrives.
fn closed_loop(
    client: &MuxClient,
    specs: &[JobSpec],
    mut pick: impl FnMut() -> Option<usize>,
    mut on_done: impl FnMut(Done),
) {
    let mut window: VecDeque<(Instant, usize, Subscription)> = VecDeque::new();
    let mut more = true;
    loop {
        while more && window.len() < IN_FLIGHT {
            let Some(spec) = pick() else {
                more = false;
                break;
            };
            let sent = Instant::now();
            match client.submit_streaming(&specs[spec]) {
                Ok(sub) => window.push_back((sent, spec, sub)),
                Err(e) => on_done(Done {
                    spec,
                    latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                    outcome: Err(format!("submit: {e}")),
                }),
            }
        }
        let Some((sent, spec, sub)) = window.pop_front() else {
            return;
        };
        let outcome = sub.wait(WAIT).map_err(|e| format!("wait: {e}"));
        on_done(Done {
            spec,
            latency_ms: sent.elapsed().as_secs_f64() * 1e3,
            outcome,
        });
    }
}

/// λ of the `k`-th unique job: the golden-ratio sequence never repeats a
/// value, and `offset` moves the whole sequence with the seed.
fn unique_lambda(k: u64, offset: f64) -> f64 {
    0.05 + 0.9 * (offset + k as f64 * 0.618_033_988_749_894_9).fract()
}

/// The spec of the `k`-th job of the unique-λ stream: templates and
/// graphs in rotation.
fn unique_job(k: u64, covers: &[Vec<u32>], offset: f64) -> JobSpec {
    let templates = inputs::LKI_SERVE.len();
    let t = k as usize % templates;
    let g = k as usize / templates % covers.len();
    job(
        g,
        inputs::LKI_SERVE[t],
        covers[g][t],
        unique_lambda(k, offset),
    )
}

/// One arrival of an open-loop phase.
struct Arrival {
    /// Index into the unique-λ stream.
    k: u64,
    due: Instant,
    /// How long after `due` the generator got to send it.
    late_ms: f64,
    done: Instant,
    /// The served `entries`, or what went wrong.
    outcome: Result<Value, String>,
}

/// Runs one open-loop phase: every arrival is sent at its due time
/// whatever the server's state. Each connection has a pool of threads;
/// a thread takes the next arrival, sleeps until it is due, submits it
/// and waits for it to settle. An arrival is late only when every thread
/// of its connection still waits on an earlier job — and its latency is
/// counted from when it was due, not from when it was sent.
fn open_phase(
    clients: &[MuxClient],
    covers: &[Vec<u32>],
    offset: f64,
    first_k: u64,
    due_ns: &[u64],
) -> Vec<Arrival> {
    let start = Instant::now() + Duration::from_millis(20);
    let done: Mutex<Vec<Arrival>> = Mutex::new(Vec::with_capacity(due_ns.len()));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..OPEN_POOL * clients.len() {
            let (done, next) = (&done, &next);
            let client = &clients[t % clients.len()];
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&ns) = due_ns.get(i) else {
                    return;
                };
                let due = start + Duration::from_nanos(ns);
                // Sleep most of the way, spin the last stretch.
                loop {
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    let ahead = due - now;
                    if ahead > Duration::from_micros(300) {
                        std::thread::sleep(ahead - Duration::from_micros(200));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                let k = first_k + i as u64;
                let late_ms = (Instant::now() - due).as_secs_f64() * 1e3;
                let outcome = client
                    .submit_streaming(&unique_job(k, covers, offset))
                    .and_then(|sub| sub.wait(WAIT));
                let at = Instant::now();
                let outcome = outcome
                    .map_err(|e| e.to_string())
                    .and_then(|o| served_entries(&o).cloned());
                done.lock().expect("samples poisoned").push(Arrival {
                    k,
                    due,
                    late_ms,
                    done: at,
                    outcome,
                });
            });
        }
    });
    done.into_inner().expect("samples poisoned")
}

/// Jobs due by `at` and not finished by then.
fn backlog(arrivals: &[Arrival], at: Instant) -> usize {
    arrivals
        .iter()
        .filter(|a| a.due <= at && a.done > at)
        .count()
}

/// Job-path replay: what the server does with one request, from frame
/// bytes in to frame bytes out, with a span around each layer's call.
fn replay_jobs(graphs: &[Graph], specs: &[JobSpec], tr: &mut Tracer) {
    let reference = Reference::new(graphs);
    let mut planned_cold = std::collections::BTreeSet::new();
    for (i, spec) in specs.iter().enumerate() {
        let req = i as u64 + 1;
        let frame = {
            let mut line = Value::object([
                ("op", Value::from("submit")),
                ("job", spec.to_value()),
                ("rid", Value::Int(req as i64)),
            ])
            .to_string();
            line.push('\n');
            line
        };
        tr.enter("job", req);
        let request = tr.time("wire.decode", req, || {
            let mut decoder = FrameDecoder::new(1 << 20);
            decoder.push(frame.as_bytes());
            let line = decoder
                .next_frame()
                .expect("one whole frame")
                .expect("a well-formed frame");
            fairsqg_wire::parse(&line).expect("the benchmark's own JSON")
        });
        let parsed = tr.time("service.spec", req, || {
            JobSpec::from_value(request.get("job").expect("a job field")).expect("a valid job")
        });
        // The first job of a template on a graph plans cold, like the
        // first job a server sees; the rest find the plan in the warm pool.
        let (graph, warm) = reference.graph_of(&parsed).expect("a served graph");
        let stage = if planned_cold.insert((parsed.graph.clone(), parsed.template.clone())) {
            "service.plan_cold"
        } else {
            "service.plan_warm"
        };
        let plan = tr
            .time(stage, req, || plan_spec_cached(graph, &parsed, warm))
            .expect("the serving templates fit the graph");
        let out = tr.time("service.generate", req, || {
            let shared = warm.diversity_cache(
                graph,
                plan.template.output_label(),
                &diversity_for_spec(&parsed),
            );
            run_plan_shared(&plan, &parsed, &CancelToken::new(), Some(&shared))
        });
        let rendered = tr.time("service.render", req, || generated_to_value(&plan, &out));
        tr.time("wire.encode", req, || {
            let mut line = Value::object([
                ("ok", Value::from(true)),
                ("rid", Value::Int(req as i64)),
                ("result", rendered),
            ])
            .to_string();
            line.push('\n');
            std::hint::black_box(line);
        });
        tr.exit();
    }
}

/// Median duration in µs of the spans named `name`.
fn span_median_us(spans: &[span::Span], name: &str) -> f64 {
    let us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    median(&us)
}

/// Sets the per-layer metrics the job-path replay yields.
fn replay_metrics(report: &mut Report, graphs: &[Graph], specs: &[JobSpec], name: &str, ctx: &Ctx) {
    let mut tracer = Tracer::new(true);
    let graph = &graphs[0];
    for dsl in inputs::LKI_SERVE {
        let template = tracer.time("query.parse", 0, || {
            parse_template(graph.schema(), dsl).expect("the serving templates fit the graph")
        });
        tracer.time("query.domains", 0, || {
            std::hint::black_box(RefinementDomains::build(
                &template,
                graph,
                DomainConfig::default(),
            ));
        });
    }
    let wall = Instant::now();
    replay_jobs(graphs, specs, &mut tracer);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    // The same path with the tracer off is the untraced reference.
    let plain = Instant::now();
    replay_jobs(graphs, specs, &mut Tracer::new(false));
    let plain_ms = plain.elapsed().as_secs_f64() * 1e3;

    let spans = tracer.spans();
    for (metric, name) in [
        ("query.parse_us", "query.parse"),
        ("query.domains_us", "query.domains"),
        ("wire.decode_us", "wire.decode"),
        ("service.spec_us", "service.spec"),
        ("service.plan_cold_us", "service.plan_cold"),
        ("service.plan_warm_us", "service.plan_warm"),
        ("service.generate_us", "service.generate"),
        ("service.render_us", "service.render"),
        ("wire.encode_us", "wire.encode"),
    ] {
        report.set(metric, span_median_us(spans, name));
    }
    let jobs_ms: f64 = spans
        .iter()
        .filter(|s| s.name == "job")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum();
    report.set(
        "trace.sum_gap_share",
        ratio((wall_ms - jobs_ms).abs(), wall_ms),
    );
    report.set("trace.overhead_share", ratio(wall_ms - plain_ms, plain_ms));
    report.note(format!(
        "job-path replay: {} jobs, {wall_ms:.2} ms traced over {} spans, {plain_ms:.2} ms untraced",
        specs.len(),
        spans.len()
    ));
    ctx.write_trace(name, Vec::new(), spans);
}

/// `mux.ping_us` and `mux.hit_overhead_us`: the live round trip of a
/// request that never reaches the engine, and what a result-cache hit
/// adds to it with one job in flight.
fn mux_probe(report: &mut Report, client: &MuxClient, spec: &JobSpec) -> Result<(), String> {
    let mut ping_us = Vec::with_capacity(1000);
    for _ in 0..1000 {
        let t = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        ping_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut hit_us = Vec::with_capacity(500);
    for i in 0..501 {
        let t = Instant::now();
        let outcome = client
            .submit_streaming(spec)
            .and_then(|sub| sub.wait(WAIT))
            .map_err(|e| format!("cache-hit probe: {e}"))?;
        // The first submission computes; every later one must hit.
        if i > 0 {
            if !outcome.from_cache {
                return Err("a repeated spec was not served from the result cache".into());
            }
            hit_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    report.set("mux.ping_us", median(&ping_us));
    report.set("mux.hit_overhead_us", median(&hit_us) - median(&ping_us));
    Ok(())
}

fn latency_metrics(report: &mut Report, latency_ms: &[f64], what: &str) -> Result<(), String> {
    let s = Summary::of(latency_ms).ok_or_else(|| format!("{what}: no job completed"))?;
    report.set("lat_p50_ms", s.median);
    report.set("lat_p99_ms", s.p99);
    report.note(format!(
        "{what} latency: n={} q1={:.4} median={:.4} q3={:.4} p99={:.4} ms{}",
        s.n,
        s.q1,
        s.median,
        s.q3,
        s.p99,
        if s.supports_p99() {
            ""
        } else {
            " (fewer than 1000 samples: p99 has under ten beyond it)"
        }
    ));
    Ok(())
}

/// `peak_rss_mb` is the server's peak resident set when the timed phase
/// starts — graph, caches, warm tables and the warm-up's job records.
/// What the timed jobs add on top is reported per thousand jobs: the
/// engine never drops a finished job's record, so its peak grows with the
/// job count, in steps where its tables double.
fn memory_metrics(report: &mut Report, server: &ServerChild, rss_before: Option<f64>, jobs: usize) {
    report.set_opt("peak_rss_mb", rss_before);
    let rss_after = proc::peak_rss_mb(Some(server.pid()));
    report.set_opt(
        "engine.rss_kb_per_kjob",
        rss_before
            .zip(rss_after)
            .map(|(b, a)| (a - b) * 1024.0 / (jobs.max(1) as f64 / 1e3)),
    );
}

/// What a serving workload runs against.
struct Session<'a> {
    ctx: &'a Ctx,
    server: &'a ServerChild,
    /// A connection for pre-fill, probes and the `stats` op.
    control: &'a MuxClient,
    /// The load-carrying connections, one driving thread each.
    clients: &'a [MuxClient],
    /// The served `.fsg` files, opened in this process for the reference
    /// runs.
    graphs: &'a [Graph],
    /// Cover of each template on each graph.
    covers: &'a [Vec<u32>],
}

pub fn run(workload: Workload, name: &str, ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let bin = ctx.server_binary()?;
    let dir = ctx.scratch_dir();
    let workers = ctx.host.nproc;

    // Set-up, repeated to report a median; the last one is kept.
    let mut setup_s = Vec::new();
    let mut datagen_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        if let Some(Served { server, .. }) = served.take() {
            let client = server.connect()?;
            server.stop(&client)?;
        }
        let t = Instant::now();
        let s = set_up(&bin, &dir, ctx.seed, workers)?;
        setup_s.push(t.elapsed().as_secs_f64());
        datagen_s.push(s.datagen_s);
        served = Some(s);
    }
    let Served { server, fsgs, .. } = served.expect("at least one set-up");
    report.set("setup_s", median(&setup_s));
    report.set("datagen.build_s", median(&datagen_s));

    let graphs: Vec<Graph> = fsgs
        .iter()
        .map(|fsg| {
            open_path(fsg)
                .map(|loaded| loaded.graph)
                .map_err(|e| format!("open {}: {e}", fsg.display()))
        })
        .collect::<Result<_, _>>()?;
    let covers: Vec<Vec<u32>> = graphs.iter().map(covers).collect::<Result<_, _>>()?;
    report.note(format!(
        "{GRAPHS} x LKI-{DIRECTORS}: {} nodes and {} edges each, covers of g0 {:?}, {workers} workers",
        graphs[0].node_count(),
        graphs[0].edge_count(),
        covers[0]
    ));
    let connections = CONNECTIONS.min(ctx.host.nproc);
    let clients: Vec<MuxClient> = (0..connections)
        .map(|_| server.connect())
        .collect::<Result<_, _>>()?;
    let control = server.connect()?;
    let session = Session {
        ctx,
        server: &server,
        control: &control,
        clients: &clients,
        graphs: &graphs,
        covers: &covers,
    };
    let outcome = match workload {
        Workload::Hot => hot(&mut report, &session),
        Workload::Open => open(&mut report, &session),
    };
    drop(clients);
    server.stop(&control)?;
    let replay_specs = outcome?;
    report.set("fail_share", report.fail_share());

    crate::check::validation_input(&mut report, ctx.seed);
    if ctx.trace {
        replay_metrics(&mut report, &graphs, &replay_specs, name, ctx);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// `serve-hot`. Returns the specs the job-path replay should follow.
fn hot(report: &mut Report, session: &Session<'_>) -> Result<Vec<JobSpec>, String> {
    let &Session {
        ctx,
        server,
        control,
        clients,
        graphs,
        covers,
    } = session;
    let reference = Reference::new(graphs);
    // λ value `l` is asked of graph `l`: 32 specs over the eight graphs.
    let specs: Vec<JobSpec> = (0..HOT_LAMBDAS)
        .flat_map(|l| {
            let g = l % graphs.len();
            inputs::LKI_SERVE
                .iter()
                .zip(&covers[g])
                .map(move |(dsl, &cover)| job(g, dsl, cover, 0.1 + 0.1 * l as f64))
        })
        .collect();
    let expected: Vec<Value> = specs
        .iter()
        .map(|s| reference.entries(s))
        .collect::<Result<_, _>>()?;

    // Pre-fill the result cache: one computed answer per spec.
    for (spec, want) in specs.iter().zip(&expected) {
        let outcome = control
            .submit_streaming(spec)
            .and_then(|sub| sub.wait(WAIT))
            .map_err(|e| format!("pre-fill: {e}"))?;
        report.check(served_ok(&outcome, want));
    }
    mux_probe(report, control, &specs[0])?;

    let zipf = Zipf::new(specs.len(), 1.0);
    // Drives every connection's closed loop until `go_on` says stop.
    let drive = |go_on: &(dyn Fn() -> bool + Sync), stream: u64| -> Vec<Vec<(f64, bool)>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(c, client)| {
                    let (specs, expected, zipf) = (&specs, &expected, &zipf);
                    scope.spawn(move || {
                        let mut rng = SplitMix64::new(sub_seed(ctx.seed, stream + c as u64));
                        let mut samples = Vec::new();
                        closed_loop(
                            client,
                            specs,
                            || go_on().then(|| zipf.sample(&mut rng)),
                            |done| {
                                let ok = done
                                    .outcome
                                    .as_ref()
                                    .is_ok_and(|o| served_ok(o, &expected[done.spec]));
                                samples.push((done.latency_ms, ok));
                            },
                        );
                        samples
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a driving thread panicked"))
                .collect()
        })
    };

    let warmed = AtomicUsize::new(0);
    drive(
        &|| warmed.fetch_add(1, Ordering::Relaxed) < HOT_WARM_JOBS,
        100,
    );
    let rss_before = proc::peak_rss_mb(Some(server.pid()));
    let before = Snap::take(control)?;
    let cpu_before = proc::cpu_ms(Some(server.pid()));
    let phase = Instant::now();
    let until = phase + Duration::from_secs_f64(ctx.seconds);
    let samples: Vec<(f64, bool)> = drive(&|| Instant::now() < until, 200)
        .into_iter()
        .flatten()
        .collect();
    let elapsed_s = phase.elapsed().as_secs_f64();
    let cpu_after = proc::cpu_ms(Some(server.pid()));
    let after = Snap::take(control)?;

    let latency_ms: Vec<f64> = samples.iter().map(|&(ms, _)| ms).collect();
    let good = samples.iter().filter(|&&(_, ok)| ok).count();
    for &(_, ok) in &samples {
        report.check(ok);
    }
    latency_metrics(report, &latency_ms, "closed-loop")?;
    report.set("jobs_per_s", good as f64 / elapsed_s);
    report.set_opt(
        "cpu_ms_per_job",
        cpu_before
            .zip(cpu_after)
            .map(|(b, a)| (a - b) / samples.len().max(1) as f64),
    );
    engine_deltas(report, &before, &after);
    memory_metrics(report, server, rss_before, samples.len());
    Ok(specs)
}

/// `serve-open`. Returns the specs the job-path replay should follow.
fn open(report: &mut Report, session: &Session<'_>) -> Result<Vec<JobSpec>, String> {
    let &Session {
        ctx,
        server,
        control,
        clients,
        graphs,
        covers,
    } = session;
    let offset = SplitMix64::new(sub_seed(ctx.seed, 2)).next_unit();

    // Warm-up: first plans, warm tables, and the box's second core. The
    // closed loop draws fresh λ values too, so nothing it leaves in the
    // result cache can answer a timed job.
    let warm_specs: Vec<JobSpec> = (0..OPEN_WARM_JOBS as u64)
        .map(|k| unique_job(k, covers, offset))
        .collect();
    let mut next_k = warm_specs.len() as u64;
    {
        let warm = Instant::now();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for client in clients {
                let (warm_specs, cursor) = (&warm_specs, &cursor);
                scope.spawn(move || {
                    closed_loop(
                        client,
                        warm_specs,
                        || {
                            Some(cursor.fetch_add(1, Ordering::Relaxed))
                                .filter(|&i| i < warm_specs.len())
                        },
                        |_| {},
                    )
                });
            }
        });
        // What the fixed rates were once calibrated against.
        report.note(format!(
            "warm-up closed loop ({} x {IN_FLIGHT} in flight): {:.0} jobs/s",
            clients.len(),
            warm_specs.len() as f64 / warm.elapsed().as_secs_f64()
        ));
    }
    mux_probe(report, control, &unique_job(next_k, covers, offset))?;
    next_k += 1;
    let rss_before = proc::peak_rss_mb(Some(server.pid()));

    let mut all: Vec<Arrival> = Vec::new();
    let mut max_rate_ok = 0.0;
    let mut cpu_ms = Some(0.0);
    for (i, &rate) in OPEN_RATES.iter().enumerate() {
        let phase_s = ctx.seconds * OPEN_SHARES[i];
        let due_ns = poisson_schedule(sub_seed(ctx.seed, 10 + i as u64), rate, phase_s);
        let before = Snap::take(control)?;
        let cpu_before = proc::cpu_ms(Some(server.pid()));
        let begin = Instant::now();
        let arrivals = open_phase(clients, covers, offset, next_k, &due_ns);
        next_k += due_ns.len() as u64;
        let cpu_after = proc::cpu_ms(Some(server.pid()));
        let after = Snap::take(control)?;
        cpu_ms = cpu_ms
            .zip(cpu_before.zip(cpu_after))
            .map(|(t, (b, a))| t + a - b);

        let latency_ms: Vec<f64> = arrivals
            .iter()
            .map(|a| (a.done - a.due).as_secs_f64() * 1e3)
            .collect();
        let s = Summary::of(&latency_ms).ok_or("an open-loop phase had no arrivals")?;
        let failures = arrivals.iter().filter(|a| a.outcome.is_err()).count();
        let first_due = arrivals.iter().map(|a| a.due).min().unwrap_or(begin);
        let mid = first_due + Duration::from_secs_f64(phase_s / 2.0);
        let end = first_due + Duration::from_secs_f64(phase_s);
        let (backlog_mid, backlog_end) = (backlog(&arrivals, mid), backlog(&arrivals, end));
        // A backlog that grows under overload grows by a large share of
        // the arrivals; a burst near the end of a phase does not.
        let sustained = s.p99 <= OPEN_P99_LIMIT_MS
            && failures == 0
            && backlog_end <= backlog_mid + (arrivals.len() / 20).max(IN_FLIGHT);
        if sustained {
            max_rate_ok = rate;
        }
        let queue_wait = stage_mean_ms(&before, &after, "queue_wait");
        let (p99_name, wait_name) = [
            ("open.r1.p99_ms", "open.r1.queue_wait_ms"),
            ("open.r2.p99_ms", "open.r2.queue_wait_ms"),
            ("open.r3.p99_ms", "open.r3.queue_wait_ms"),
        ][i];
        report.set(p99_name, s.p99);
        report.set(wait_name, queue_wait);
        report.note(format!(
            "r{}={rate}/s: n={} p50={:.3} p99={:.3} ms, queue wait {queue_wait:.3} ms, backlog mid {backlog_mid} end {backlog_end}, {failures} failed{}",
            i + 1,
            s.n,
            s.median,
            s.p99,
            if sustained { "" } else { " — not sustained" }
        ));
        if i == 1 {
            // The end-to-end latency, the engine's counters and the
            // generator's lateness are all taken at r2.
            latency_metrics(report, &latency_ms, "open-loop r2")?;
            engine_deltas(report, &before, &after);
            let late: Vec<f64> = arrivals.iter().map(|a| a.late_ms).collect();
            report.set(
                "open.late_p99_ms",
                Summary::of(&late).map_or(0.0, |l| l.p99),
            );
        }
        if i + 1 == OPEN_RATES.len() {
            report.set("open.backlog_end", backlog_end as f64);
        }
        all.extend(arrivals);
    }
    report.set("max_rate_ok", max_rate_ok);
    // What the system sustains is the throughput a user of it sees.
    report.set("jobs_per_s", max_rate_ok);
    report.set_opt(
        "cpu_ms_per_job",
        cpu_ms.map(|ms| ms / all.len().max(1) as f64),
    );
    memory_metrics(report, server, rss_before, all.len());

    // Every served archive against the in-process answer, on all cores.
    let threads = ctx.host.nproc.max(1);
    let chunk = all.len().div_ceil(threads).max(1);
    let verdicts: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = all
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let reference = Reference::new(graphs);
                    part.iter()
                        .map(|a| match &a.outcome {
                            Err(_) => false,
                            Ok(entries) => reference
                                .entries(&unique_job(a.k, covers, offset))
                                .is_ok_and(|want| same_entries(entries, &want)),
                        })
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a verifying thread panicked"))
            .collect()
    });
    if let Some(a) = all.iter().find(|a| a.outcome.is_err()) {
        report.note(format!(
            "first failure: job {}: {}",
            a.k,
            a.outcome.as_ref().unwrap_err()
        ));
    }
    for ok in verdicts {
        report.check(ok);
    }
    Ok((0..64)
        .map(|k| unique_job(next_k + k, covers, offset))
        .collect())
}
