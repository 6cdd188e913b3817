//! `repro` — regenerates the paper's tables and figures as text reports.
//!
//! Usage:
//!
//! ```text
//! repro all                 # every experiment
//! repro fig9a fig10a        # specific experiments
//! FAIRSQG_SCALE=small repro all
//! ```

use fairsqg_bench::scales::ExpScale;
use fairsqg_bench::{run_experiment, EXPERIMENTS};
use std::io::{self, ErrorKind, Write};

fn export_workload(scale: &ExpScale) -> String {
    use fairsqg_algo::{online_qgen, OnlineOptions, ShuffledStream};
    use fairsqg_bench::common::configuration;
    use fairsqg_bench::export::workload_json;
    use fairsqg_datagen::{workload, CoverageMode, DatasetKind, WorkloadParams};
    let params = WorkloadParams {
        coverage: CoverageMode::AutoFraction(0.5),
        ..WorkloadParams::default()
    };
    let w = workload(DatasetKind::Lki, scale.lki, &params);
    let cfg = configuration(&w, 0.01);
    let stream = ShuffledStream::new(&w.domains, 0xE19);
    let (generated, _) = online_qgen(
        cfg,
        OnlineOptions {
            k: 10,
            window: 40,
            initial_eps: 0.01,
        },
        stream,
    );
    workload_json(&w, &generated)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = ExpScale::from_env();
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    match run(&scale, selected) {
        // The reader went away (`repro all | head`): nothing to report.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            let _ = writeln!(io::stderr(), "repro: {e}");
            std::process::exit(1);
        }
        Ok(true) => {}
        Ok(false) => std::process::exit(2),
    }
}

/// Prints each selected report; `Ok(false)` when a name was unknown.
fn run(scale: &ExpScale, selected: Vec<&str>) -> io::Result<bool> {
    let mut out = io::stdout().lock();
    writeln!(
        io::stderr(),
        "# FairSQG reproduction harness (scale: DBP={}, LKI={}, Cite={}; set FAIRSQG_SCALE to change)",
        scale.dbp, scale.lki, scale.cite
    )?;
    let mut unknown = Vec::new();
    for name in selected {
        if name == "export" {
            writeln!(out, "{}", export_workload(scale))?;
            continue;
        }
        match run_experiment(name, scale) {
            Some(report) => writeln!(out, "\n{report}")?,
            None => unknown.push(name.to_string()),
        }
    }
    if !unknown.is_empty() {
        writeln!(
            io::stderr(),
            "unknown experiment(s): {}; available: {}",
            unknown.join(", "),
            EXPERIMENTS.join(", ")
        )?;
        return Ok(false);
    }
    Ok(true)
}
