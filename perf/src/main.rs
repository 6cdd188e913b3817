//! `fairsqg-perf`: the repository's benchmark.
//!
//! ```text
//! fairsqg-perf run   [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! fairsqg-perf trace [--workload W] [--seed N] [--seconds S]
//! fairsqg-perf --list
//! ```
//!
//! `run` sets up a workload's inputs from the seed, measures for
//! `--seconds`, checks the program's outputs, prints every metric by name
//! with its unit, and ends with one JSON result line. Without
//! `--workload` it does so for each workload in turn. `trace` is `run
//! --trace 1`: the same run plus the replay that attributes time to
//! layers, with the spans written to `perf/out/trace-<workload>.json`.

mod check;
mod gen;
mod inputs;
mod load;
mod metrics;
mod proc;
mod replay;
mod serve;
mod span;
mod stats;
mod store;

use fairsqg_wire::Value;
use metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The seed of a run that names none.
const DEFAULT_SEED: u64 = 2022;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// What every workload needs to know about this run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub host: proc::Host,
    repo_root: PathBuf,
    out_dir: PathBuf,
}

impl Ctx {
    /// A private directory for this run's files, under `perf/out/`.
    pub fn scratch_dir(&self) -> PathBuf {
        let dir = self.out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory under perf/out");
        dir
    }

    pub fn write_trace(
        &self,
        workload: &str,
        mut header: Vec<(&'static str, Value)>,
        spans: &[span::Span],
    ) {
        header.push(("workload", Value::from(workload)));
        header.push(("seed", Value::Int(self.seed as i64)));
        header.push(("host", Value::from(self.host.describe())));
        let path = self.out_dir.join(format!("trace-{workload}.json"));
        let text = fairsqg_wire::to_string(&span::trace_value(header, spans));
        std::fs::create_dir_all(&self.out_dir)
            .and_then(|()| std::fs::write(&path, text))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("trace written to {}", path.display());
    }

    /// Builds (or finds up to date) the real `fairsqg` binary from the
    /// repository's sources, into the same target directory cargo uses
    /// for this benchmark.
    pub fn server_binary(&self) -> Result<PathBuf, String> {
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) if Path::new(&dir).is_absolute() => PathBuf::from(dir),
            Some(dir) => std::env::current_dir()
                .map_err(|e| e.to_string())?
                .join(dir),
            None => self.repo_root.join("target"),
        };
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "fairsqg",
            ])
            .current_dir(&self.repo_root)
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .map_err(|e| format!("run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the fairsqg binary failed ({status})"));
        }
        let bin = target.join("release").join("fairsqg");
        if bin.exists() {
            Ok(bin)
        } else {
            Err(format!("{} is missing after the build", bin.display()))
        }
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Report, String> {
    match name {
        "gen-div" => Ok(gen::run(gen::Workload::Div, name, ctx)),
        "gen-match" => Ok(gen::run(gen::Workload::Match, name, ctx)),
        "gen-par" => Ok(gen::run(gen::Workload::Par, name, ctx)),
        "serve-hot" => serve::run(serve::Workload::Hot, name, ctx),
        "serve-open" => serve::run(serve::Workload::Open, name, ctx),
        "store-load" => store::run(name, ctx),
        other => Err(format!("unknown workload '{other}' (see --list)")),
    }
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    println!("end-to-end metrics (--trace 0):");
    for d in END_TO_END {
        println!("  {:<28} {}", d.name, d.unit);
    }
    println!("per-layer metrics (--trace 1):");
    for d in PER_LAYER {
        println!("  {:<28} {}", d.name, d.unit);
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    match argv.next().as_deref() {
        Some("run") => {}
        Some("trace") => args.trace = true,
        Some("--list") => return Ok(None),
        other => {
            return Err(format!(
                "expected 'run', 'trace' or '--list', got {other:?}"
            ))
        }
    }
    while let Some(flag) = argv.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            list();
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: fairsqg-perf run|trace [--workload W] [--seed N] [--seconds S] [--trace 0|1] | --list"
            );
            return ExitCode::from(2);
        }
    };
    let perf_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo_root = perf_dir
        .parent()
        .expect("perf/ sits in the repository root")
        .to_path_buf();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        host: proc::Host::probe(&repo_root),
        repo_root,
        out_dir: perf_dir.join("out"),
    };
    println!("host: {}", ctx.host.describe());
    println!(
        "seed={} seconds={} trace={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );

    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut all_correct = true;
    for name in names {
        println!("== {name} ==");
        let line = run_workload(name, &ctx).and_then(|report| {
            for note in &report.notes {
                println!("{note}");
            }
            for line in report.lines() {
                println!("{line}");
            }
            all_correct &= report.failed == 0;
            report.result_line(ctx.trace)
        });
        match line {
            Ok(line) => println!("{line}"),
            Err(msg) => {
                eprintln!("error: {name}: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
