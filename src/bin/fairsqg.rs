//! `fairsqg` — command-line front end.
//!
//! ```text
//! fairsqg generate --graph g.tsv --template q.dsl \
//!     --group-attr topic --cover 10 [--algo biqgen] [--eps 0.1] [--top 10]
//!     [--format human|json]
//! fairsqg stats --graph g.tsv
//! fairsqg convert --input g.tsv --output g.fsg
//! fairsqg datagen --kind dbp|lki|cite --scale 1000000 --output g.fsg
//! fairsqg serve --addr 127.0.0.1:7878 --load name=g.tsv [--load ...]
//! fairsqg client --addr 127.0.0.1:7878 --op stats
//! fairsqg demo
//! ```
//!
//! `generate` loads a graph (TSV text, or a binary `.fsg` container — see
//! `docs/storage.md`) and a DSL template (see
//! `fairsqg::query::parse_template`), induces one group per distinct
//! value of `--group-attr` over the template's output label, requires
//! `--cover` matches per group, and prints the suggested ε-Pareto query
//! set. Everywhere a graph path is accepted (`generate`, `stats`,
//! `serve --load`), a `.fsg` extension selects the zero-copy mmap load
//! path instead of the TSV parser.
//!
//! `convert` turns TSV text into a `.fsg` container (it reads the text
//! one line at a time, builds the columns and writes them); `datagen` emits a synthetic preset at a
//! chosen scale, directly as TSV or chained through the converter when
//! the output path ends in `.fsg`.
//!
//! `serve` runs the concurrent generation server (`fairsqg::service`,
//! Linux only): one event-loop thread serves every connection and many
//! requests can ride one connection via `rid`-tagged frames. `client`
//! speaks its newline-delimited JSON protocol over one `MuxClient`, with
//! reconnect and retry; `--op submit --subscribe on` streams Pareto
//! archive deltas as the job runs, and `--op metrics` scrapes the
//! Prometheus text exposition. See `docs/service.md` for the full
//! protocol.

use fairsqg::algo::MatchBudget;
use fairsqg::prelude::*;
use fairsqg::query::{render_concrete_query, render_instance, ConcreteQuery};
use fairsqg::service::{
    plan_spec, run_plan, AlgoKind, Engine, EngineConfig, GraphRegistry, JobSpec, MuxClient,
    RetryPolicy,
};
use fairsqg::wire::Value;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         fairsqg generate --graph <tsv> --template <dsl> --group-attr <attr> --cover <n>\n      \
         [--algo enum|kungs|cbm|rfqgen|biqgen|parenum] [--eps <f>] [--lambda <f>] [--top <n>]\n      \
         [--threads <n>  (parenum; 0 = all hardware threads)]\n      \
         [--deadline-ms <n>] [--format human|json]\n      \
         [--max-candidates <n>] [--max-steps <n>] [--max-matches <n>]\n  \
         fairsqg stats --graph <tsv|fsg>\n  \
         fairsqg convert --input <tsv> --output <fsg>\n  \
         fairsqg datagen --kind dbp|lki|cite --scale <n> --output <tsv|fsg> [--seed <n>]\n  \
         fairsqg serve --addr <host:port> --load <name>=<tsv|fsg> [--load ...]\n      \
         [--manifest <json>  (reload graphs on start, rewritten on drain/stop)]\n      \
         [--workers <n>] [--queue <n>] [--cache <n>] [--default-deadline-ms <n>]\n      \
         [--warm on|off] [--warm-budget-mb <n>] [--coalesce on|off]\n      \
         [--brownout on|off] [--admission on|off] [--client-quota <n>]\n      \
         [--watchdog-grace-ms <n>  (0 = watchdog off)]\n      \
         [--max-candidates <n>] [--max-steps <n>] [--max-matches <n>]\n  \
         fairsqg client --addr <host:port> --op ping|stats|graphs|status|result|cancel|drain|shutdown|submit|metrics\n      \
         [--subscribe on|off  (submit: stream archive deltas as the job runs)]\n      \
         [--id <n>] [--graph <name> --template <dsl> --group-attr <attr> --cover <n>\n      \
         [--algo ...] [--eps <f>] [--lambda <f>] [--deadline-ms <n>] [--wait-ms <n>]\n      \
         [--priority <0..=9>] [--retries <n>] [--retry-budget-ms <n>] [--timeout-ms <n>]\n      \
         [--request-key <key>] [--max-candidates <n>] [--max-steps <n>] [--max-matches <n>]]\n  \
         fairsqg demo"
    );
    ExitCode::from(2)
}

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Option<Args> {
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let name = flag.strip_prefix("--")?;
            let value = it.next()?;
            flags.push((name.to_string(), value.clone()));
        }
        Some(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects an integer, got '{v}'")),
        }
    }

    fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got '{v}'")),
        }
    }

    /// An `on|off` switch (the CLI's flags are strictly `--name value`
    /// pairs, so boolean knobs take an explicit value).
    fn get_switch(&self, name: &str, default: bool) -> Result<bool, String> {
        match self.get(name) {
            None => Ok(default),
            Some("on") => Ok(true),
            Some("off") => Ok(false),
            Some(v) => Err(format!("--{name} expects on|off, got '{v}'")),
        }
    }

    fn get_opt_u64(&self, name: &str) -> Result<Option<u64>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} expects an integer, got '{v}'"))
            })
            .transpose()
    }

    /// Verification caps shared by `generate`, `serve`, and `submit`.
    fn budget(&self) -> Result<MatchBudget, String> {
        Ok(MatchBudget {
            max_candidates: self.get_opt_u64("max-candidates")?,
            max_steps: self.get_opt_u64("max-steps")?,
            max_matches: self.get_opt_u64("max-matches")?,
        })
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    if fairsqg::store::is_store_path(std::path::Path::new(path)) {
        let loaded = fairsqg::store::open_path(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        return Ok(loaded.graph);
    }
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    fairsqg::graph::read_tsv(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn cmd_convert(args: &Args) -> Result<(), String> {
    let input = args.get("input").ok_or("--input is required")?;
    let output = args.get("output").ok_or("--output is required")?;
    let stats =
        fairsqg::store::convert_tsv_path(std::path::Path::new(input), std::path::Path::new(output))
            .map_err(|e| e.to_string())?;
    let tsv_bytes = std::fs::metadata(input).map(|m| m.len()).unwrap_or(0);
    println!(
        "converted {input} -> {output}: {} nodes, {} edges, {} -> {} bytes",
        stats.nodes, stats.edges, tsv_bytes, stats.bytes
    );
    Ok(())
}

fn cmd_datagen(args: &Args) -> Result<(), String> {
    use fairsqg::datagen::{stream_tsv_to_path, DatasetKind};
    let kind = match args.get("kind").ok_or("--kind is required")? {
        "dbp" => DatasetKind::Dbp,
        "lki" => DatasetKind::Lki,
        "cite" => DatasetKind::Cite,
        other => return Err(format!("unknown kind '{other}' (dbp|lki|cite)")),
    };
    let scale = args.get_usize("scale", 10_000)?;
    let seed = args.get_opt_u64("seed")?.unwrap_or(0xFA1);
    let output = args.get("output").ok_or("--output is required")?;
    let out_path = std::path::Path::new(output);
    if fairsqg::store::is_store_path(out_path) {
        // Stream TSV to a sibling temp file, convert, clean up: neither
        // step holds the graph in memory.
        let tmp = format!("{output}.tsv.tmp");
        let tmp_path = std::path::Path::new(&tmp);
        let stats =
            stream_tsv_to_path(kind, scale, seed, tmp_path).map_err(|e| format!("{tmp}: {e}"))?;
        let converted = fairsqg::store::convert_tsv_path(tmp_path, out_path);
        std::fs::remove_file(tmp_path).ok();
        let cstats = converted.map_err(|e| e.to_string())?;
        println!(
            "{} scale {scale} seed {seed}: {} nodes, {} edge lines -> {output} ({} bytes)",
            kind.name(),
            stats.nodes,
            stats.edges,
            cstats.bytes
        );
    } else {
        let stats = stream_tsv_to_path(kind, scale, seed, out_path)
            .map_err(|e| format!("{output}: {e}"))?;
        println!(
            "{} scale {scale} seed {seed}: {} nodes, {} edge lines -> {output}",
            kind.name(),
            stats.nodes,
            stats.edges
        );
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let graph = load_graph(args.get("graph").ok_or("--graph is required")?)?;
    let stats = fairsqg::graph::GraphStats::compute(&graph);
    println!(
        "nodes: {}\nedges: {}\nnode labels: {}\nedge labels: {}\navg attrs/node: {:.2}",
        stats.nodes, stats.edges, stats.node_labels, stats.edge_labels, stats.avg_attrs
    );
    for l in &stats.labels {
        println!(
            "  {:<16} count={:<8} avg_in={:.2} max_in={} avg_out={:.2}",
            graph.schema().node_label_name(l.label),
            l.count,
            l.avg_in_degree,
            l.max_in_degree,
            l.avg_out_degree
        );
    }
    Ok(())
}

/// Builds a [`JobSpec`] from generate/submit-style flags. `graph_name` is
/// the registry name the spec refers to (unused when planning locally).
fn job_spec_from_args(args: &Args, graph_name: &str) -> Result<JobSpec, String> {
    let template_path = args.get("template").ok_or("--template is required")?;
    let template = std::fs::read_to_string(template_path)
        .map_err(|e| format!("cannot read {template_path}: {e}"))?;
    let cover: u32 = args
        .get("cover")
        .ok_or("--cover is required")?
        .parse()
        .map_err(|_| "--cover expects an integer".to_string())?;
    let deadline_ms = args
        .get("deadline-ms")
        .map(|v| {
            v.parse()
                .map_err(|_| "--deadline-ms expects an integer".to_string())
        })
        .transpose()?;
    let spec = JobSpec {
        graph: graph_name.to_string(),
        template,
        group_attr: args
            .get("group-attr")
            .ok_or("--group-attr is required")?
            .to_string(),
        cover,
        algo: AlgoKind::parse(args.get("algo").unwrap_or("biqgen"))?,
        threads: args.get_usize("threads", 0)?,
        eps: args.get_f64("eps", 0.1)?,
        lambda: args.get_f64("lambda", 0.5)?,
        deadline_ms,
        budget: args.budget()?,
        request_key: args.get("request-key").map(str::to_string),
        priority: match args.get_opt_u64("priority")? {
            None => fairsqg::service::DEFAULT_PRIORITY,
            Some(p) if p <= u64::from(fairsqg::service::MAX_PRIORITY) => p as u8,
            Some(p) => {
                return Err(format!(
                    "--priority expects 0..={}, got {p}",
                    fairsqg::service::MAX_PRIORITY
                ))
            }
        },
        client: None,
        subscribe: false,
    };
    spec.check_parameters()?;
    Ok(spec)
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let graph_path = args.get("graph").ok_or("--graph is required")?;
    let graph = load_graph(graph_path)?;
    let spec = job_spec_from_args(args, graph_path)?;
    let top = args.get_usize("top", 10)?;
    let format = args.get("format").unwrap_or("human");

    // The same planning/execution path the server's workers run.
    let plan = plan_spec(&graph, &spec)?;
    let cancel = match spec.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    let result = run_plan(&plan, &spec, &cancel);

    match format {
        "json" => {
            let rendered = fairsqg::service::generated_to_value(&plan, &result);
            println!("{}", fairsqg::wire::to_string_pretty(&rendered));
        }
        "human" => {
            println!(
                "searched {} instantiations, verified {}, {} suggestions ({} ms){}:",
                plan.domains.instance_space_size(),
                result.stats.verified,
                result.entries.len(),
                result.stats.elapsed.as_millis(),
                if result.truncated {
                    " [truncated by deadline]"
                } else {
                    ""
                }
            );
            let mut entries = result.entries.clone();
            entries.sort_by(|a, b| {
                b.objectives()
                    .fcov
                    .partial_cmp(&a.objectives().fcov)
                    .unwrap()
                    .then(
                        b.objectives()
                            .delta
                            .partial_cmp(&a.objectives().delta)
                            .unwrap(),
                    )
            });
            for (rank, e) in entries.iter().take(top).enumerate() {
                println!(
                    "\n#{} δ={:.3} f={:.1} matches={} per-group={:?}",
                    rank + 1,
                    e.result.objectives.delta,
                    e.result.objectives.fcov,
                    e.result.matches.len(),
                    e.result.counts
                );
                println!(
                    "  bindings: {}",
                    render_instance(graph.schema(), &plan.template, &plan.domains, &e.inst)
                );
                let q = ConcreteQuery::materialize(&plan.template, &plan.domains, &e.inst);
                for line in render_concrete_query(graph.schema(), &q).lines() {
                    println!("  {line}");
                }
            }
        }
        other => return Err(format!("unknown format '{other}' (human|json)")),
    }
    Ok(())
}

/// SIGTERM → graceful drain. Minimal libc-free FFI (the workspace adds no
/// dependencies): `signal(2)` flips an atomic the serve monitor polls.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        // Only async-signal-safe work here: set the flag, nothing else.
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGTERM handler. Idempotent.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: `signal(2)` with a valid signal number and an
        // `extern "C"` handler that only stores to a static atomic, which
        // is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        }
    }

    /// Whether SIGTERM has been received since [`install`].
    pub fn triggered() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let manifest = args.get("manifest").map(str::to_string);
    let registry = Arc::new(GraphRegistry::new());
    if let Some(path) = &manifest {
        if std::path::Path::new(path).exists() {
            let report = registry.load_manifest(path)?;
            for name in &report.loaded {
                eprintln!("manifest: reloaded graph '{name}'");
            }
            for (name, reason) in &report.skipped {
                eprintln!("manifest: skipped graph '{name}': {reason}");
            }
        }
    }
    for load in args.get_all("load") {
        let (name, path) = load
            .split_once('=')
            .ok_or_else(|| format!("--load expects <name>=<tsv|fsg>, got '{load}'"))?;
        let (epoch, kind) = registry.load_path(name, path)?;
        eprintln!(
            "loaded graph '{name}' from {path} (epoch {epoch}, {})",
            kind.as_str()
        );
    }
    if registry.is_empty() {
        return Err(
            "no graphs loaded; pass at least one --load <name>=<tsv|fsg> or a --manifest".into(),
        );
    }
    let brownout = fairsqg::service::BrownoutConfig {
        enabled: args.get_switch("brownout", true)?,
        ..Default::default()
    };
    let config = EngineConfig {
        workers: args.get_usize("workers", 4)?,
        queue_capacity: args.get_usize("queue", 64)?,
        cache_entries: args.get_usize("cache", 128)?,
        default_deadline: args
            .get("default-deadline-ms")
            .map(|v| {
                v.parse::<u64>()
                    .map(Duration::from_millis)
                    .map_err(|_| "--default-deadline-ms expects an integer".to_string())
            })
            .transpose()?,
        budget: args.budget()?,
        warm_state: args.get_switch("warm", true)?,
        warm_budget_bytes: match args.get_opt_u64("warm-budget-mb")? {
            Some(mb) => (mb as usize).saturating_mul(1024 * 1024),
            None => EngineConfig::default().warm_budget_bytes,
        },
        coalesce: args.get_switch("coalesce", true)?,
        brownout,
        admission_control: args.get_switch("admission", true)?,
        client_quota: args.get_usize("client-quota", 0)?,
        watchdog_grace: match args.get_opt_u64("watchdog-grace-ms")? {
            None => EngineConfig::default().watchdog_grace,
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
        },
        ..EngineConfig::default()
    };
    serve(addr, Arc::new(Engine::start(registry, config)), manifest)
}

/// Binds the server and runs its event loop until a `shutdown` request or
/// SIGTERM stops it.
#[cfg(unix)]
fn serve(addr: &str, engine: Arc<Engine>, manifest: Option<String>) -> Result<(), String> {
    let server = fairsqg::service::MuxServer::bind(addr, Arc::clone(&engine))
        .map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("fairsqg-service listening on {bound}");

    // SIGTERM monitor: drain admissions, let running jobs settle, persist
    // the manifest, then stop the event loop. Queued jobs were answered
    // `drained` — clients replay them elsewhere via their request keys.
    sigterm::install();
    let stop = server.stop_handle();
    let sig_engine = Arc::clone(&engine);
    let sig_manifest = manifest.clone();
    std::thread::Builder::new()
        .name("fairsqg-sigterm".to_string())
        .spawn(move || loop {
            if sigterm::triggered() {
                let (bounced, running) = sig_engine.begin_drain();
                eprintln!("SIGTERM: draining ({bounced} queued jobs bounced, {running} running)");
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                while !sig_engine.drain_complete() && std::time::Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(20));
                }
                if let Some(path) = &sig_manifest {
                    match sig_engine.registry().write_manifest(path) {
                        Ok(n) => eprintln!("SIGTERM: wrote manifest {path} ({n} graphs)"),
                        Err(e) => eprintln!("SIGTERM: manifest write failed: {e}"),
                    }
                }
                stop.stop();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        })
        .map_err(|e| format!("spawn sigterm monitor: {e}"))?;

    let served = server.serve().map_err(|e| e.to_string());
    // Any exit path (shutdown op, SIGTERM) leaves a fresh manifest behind
    // so the next start recovers the same graph set.
    if let Some(path) = &manifest {
        match engine.registry().write_manifest(path) {
            Ok(n) => eprintln!("wrote manifest {path} ({n} graphs)"),
            Err(e) => eprintln!("manifest write failed: {e}"),
        }
    }
    served
}

#[cfg(not(unix))]
fn serve(_addr: &str, _engine: Arc<Engine>, _manifest: Option<String>) -> Result<(), String> {
    Err("serve requires Linux (epoll readiness)".into())
}

fn cmd_client(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let op = args.get("op").ok_or("--op is required")?;
    let mut policy = RetryPolicy::default();
    if let Some(retries) = args.get_opt_u64("retries")? {
        policy.max_attempts = (retries.max(1)).min(u64::from(u32::MAX)) as u32;
    }
    if let Some(ms) = args.get_opt_u64("timeout-ms")? {
        let t = (ms > 0).then(|| Duration::from_millis(ms));
        policy.read_timeout = t;
        policy.write_timeout = t;
    }
    if let Some(ms) = args.get_opt_u64("retry-budget-ms")? {
        // Wall-clock cap across ALL retries (including server-suggested
        // `retry_after_ms` waits); 0 disables retry sleeps entirely.
        policy.retry_budget = Some(Duration::from_millis(ms));
    }
    let client = MuxClient::connect_with(addr, policy).map_err(|e| e.to_string())?;
    let id_arg = || -> Result<u64, String> {
        args.get("id")
            .ok_or("--id is required for this op")?
            .parse()
            .map_err(|_| "--id expects an integer".to_string())
    };
    let reply = match op {
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            Value::object([("pong", Value::from(true))])
        }
        "stats" => client.stats().map_err(|e| e.to_string())?,
        "metrics" => {
            // Raw text exposition, not JSON: print as-is for scrapers.
            print!("{}", client.metrics().map_err(|e| e.to_string())?);
            return Ok(());
        }
        "graphs" => client.graphs().map_err(|e| e.to_string())?,
        "status" => client.status(id_arg()?).map_err(|e| e.to_string())?,
        "result" => client.result(id_arg()?).map_err(|e| e.to_string())?,
        "cancel" => {
            let id = id_arg()?;
            client.cancel(id).map_err(|e| e.to_string())?;
            Value::object([("cancelled", Value::from(id))])
        }
        "drain" => {
            let (bounced, running) = client.drain().map_err(|e| e.to_string())?;
            Value::object([
                ("draining", Value::from(true)),
                ("bounced", Value::from(bounced)),
                ("running", Value::from(running)),
            ])
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            Value::object([("stopping", Value::from(true))])
        }
        "submit" => {
            let graph = args
                .get("graph")
                .ok_or("--graph (registry name) is required")?;
            let spec = job_spec_from_args(args, graph)?;
            let wait_ms = args.get_usize("wait-ms", 60_000)?;
            if args.get_switch("subscribe", false)? {
                subscribed(&client, &spec, wait_ms)?
            } else {
                let id = client.submit_idempotent(&spec).map_err(|e| e.to_string())?;
                if wait_ms == 0 {
                    Value::object([("id", Value::from(id))])
                } else {
                    client
                        .wait(id, Duration::from_millis(wait_ms as u64))
                        .map_err(|e| e.to_string())?
                }
            }
        }
        other => return Err(format!("unknown op '{other}'")),
    };
    println!("{}", fairsqg::wire::to_string_pretty(&reply));
    Ok(())
}

/// `client --op submit --subscribe on`: streams the job's Pareto archive
/// as delta frames and returns the assembled outcome.
fn subscribed(client: &MuxClient, spec: &JobSpec, wait_ms: usize) -> Result<Value, String> {
    let sub = client.submit_streaming(spec).map_err(|e| e.to_string())?;
    let streamed = sub
        .wait(Duration::from_millis(wait_ms.max(1) as u64))
        .map_err(|e| e.to_string())?;
    let mut pairs = vec![
        ("id", Value::from(streamed.id)),
        ("state", Value::from(streamed.state.as_str())),
        ("truncated", Value::from(streamed.truncated)),
        ("from_cache", Value::from(streamed.from_cache)),
        ("lossy", Value::from(streamed.lossy)),
        ("deltas", Value::from(streamed.deltas)),
    ];
    if let Some(msg) = &streamed.error_message {
        pairs.push(("error", Value::from(msg.as_str())));
    }
    match streamed.result {
        Some(result) => pairs.push(("result", result)),
        // Backpressure shed deltas: fall back to the result op.
        None if streamed.lossy => {
            let reply = client.result(streamed.id).map_err(|e| e.to_string())?;
            let result = reply.get("result").ok_or("result reply missing 'result'")?;
            pairs.push(("result", result.clone()));
        }
        None => {}
    }
    Ok(Value::object(pairs))
}

fn cmd_demo() -> Result<(), String> {
    use fairsqg::datagen::{gender_groups, social_graph, SocialConfig};
    let graph = social_graph(SocialConfig {
        directors: 400,
        majority_share: 0.65,
        seed: 7,
    });
    let s = graph.schema();
    let mut tb = fairsqg::query::TemplateBuilder::new();
    let u0 = tb.node(s.find_node_label("director").unwrap());
    let u1 = tb.node(s.find_node_label("user").unwrap());
    tb.edge(u1, u0, s.find_edge_label("recommend").unwrap());
    tb.range_literal(u1, s.find_attr("yearsOfExp").unwrap(), CmpOp::Ge);
    let template = tb.finish(u0).map_err(|e| e.to_string())?;
    let groups = gender_groups(&graph);
    let spec = CoverageSpec::equal_opportunity(2, 100);
    let fair = FairSqg::new(&graph).epsilon(0.1);
    let result = fair.generate(&template, &groups, &spec, Algorithm::BiQGen);
    println!(
        "demo: {} suggestions over a synthetic talent-search graph",
        result.entries.len()
    );
    let domains = fair.domains_for(&template);
    for e in &result.entries {
        println!(
            "  δ={:.2} f={:.0} counts={:?}  {}",
            e.result.objectives.delta,
            e.result.objectives.fcov,
            e.result.counts,
            render_instance(s, &template, &domains, &e.inst)
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first() else {
        return usage();
    };
    let Some(args) = Args::parse(&raw[1..]) else {
        return usage();
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&args),
        "stats" => cmd_stats(&args),
        "convert" => cmd_convert(&args),
        "datagen" => cmd_datagen(&args),
        "serve" => cmd_serve(&args),
        "client" => cmd_client(&args),
        "demo" => cmd_demo(),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn args(v: &[&str]) -> Option<Args> {
        let owned: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        Args::parse(&owned)
    }

    #[test]
    fn parses_flag_pairs() {
        let a = args(&["--graph", "g.tsv", "--cover", "10"]).unwrap();
        assert_eq!(a.get("graph"), Some("g.tsv"));
        assert_eq!(a.get("cover"), Some("10"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(args(&["graph", "g.tsv"]).is_none(), "missing -- prefix");
        assert!(args(&["--graph"]).is_none(), "missing value");
    }

    #[test]
    fn numeric_defaults_and_errors() {
        let a = args(&["--eps", "0.25"]).unwrap();
        assert_eq!(a.get_f64("eps", 0.1).unwrap(), 0.25);
        assert_eq!(a.get_f64("lambda", 0.5).unwrap(), 0.5);
        let bad = args(&["--eps", "abc"]).unwrap();
        assert!(bad.get_f64("eps", 0.1).is_err());
    }
}
