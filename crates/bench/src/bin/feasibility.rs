//! Feasibility probe (the paper's headline efficiency claim: "it takes
//! 78 seconds to produce instances with desired coverage in real-life
//! graphs with 30 million nodes and edges").
//!
//! Builds the LKI-like graph at a requested scale, runs `BiQGen` once on
//! the default workload, and reports sizes and wall-clock time.
//!
//! ```text
//! cargo run -p fairsqg-bench --release --bin feasibility -- 100000
//! ```

use fairsqg_algo::{biqgen, BiQGenOptions};
use fairsqg_bench::common::configuration;
use fairsqg_datagen::{workload, CoverageMode, DatasetKind, WorkloadParams};
use std::io::{self, ErrorKind, Write};
use std::time::Instant;

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);
    match run(scale) {
        // The reader went away (`feasibility | head -3`): nothing to report.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("feasibility: {e}");
            std::process::exit(1);
        }
        Ok(()) => {}
    }
}

fn run(scale: usize) -> io::Result<()> {
    let mut out = io::stdout().lock();
    let t0 = Instant::now();
    let params = WorkloadParams {
        coverage: CoverageMode::AutoFraction(0.5),
        ..WorkloadParams::default()
    };
    let w = workload(DatasetKind::Lki, scale, &params);
    writeln!(
        out,
        "graph built in {:.1}s: |V| = {}, |E| = {} ({} total elements)",
        t0.elapsed().as_secs_f64(),
        w.graph.node_count(),
        w.graph.edge_count(),
        w.graph.node_count() + w.graph.edge_count()
    )?;
    writeln!(
        out,
        "workload: |I(Q)| = {}, coverage {:?}",
        w.instance_space_size(),
        w.spec.constraints()
    )?;

    let cfg = configuration(&w, 0.01);
    let t1 = Instant::now();
    let result = biqgen(cfg, BiQGenOptions::default());
    writeln!(
        out,
        "BiQGen: {} suggestions in {:.1}s ({} verified, {} quick-pruned, {} sandwich-pruned)",
        result.entries.len(),
        t1.elapsed().as_secs_f64(),
        result.stats.verified,
        result.stats.pruned_infeasible,
        result.stats.pruned_sandwich
    )?;
    for e in result.entries.iter().take(5) {
        writeln!(
            out,
            "  δ={:.1} f={:.0} counts={:?}",
            e.result.objectives.delta, e.result.objectives.fcov, e.result.counts
        )?;
    }
    Ok(())
}
