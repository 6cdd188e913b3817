//! Exp-3 (RQ3): online generation — Fig. 11(a) (delay time) and
//! Fig. 11(b) (anytime effectiveness).

use crate::common::configuration;
use crate::scales::ExpScale;
use fairsqg_algo::{evaluate_universe, EvalResult, OnlineOptions, OnlineQGen, ShuffledStream};
use fairsqg_datagen::{workload, CoverageMode, DatasetKind, WorkloadParams};
use fairsqg_measures::{min_eps, Objectives};
use fairsqg_query::Instantiation;
use std::collections::HashMap;
use std::time::Instant;

fn lki_workload(scale: &ExpScale) -> fairsqg_datagen::Workload {
    let params = WorkloadParams {
        template_edges: 4,
        range_vars: 2,
        edge_vars: 1,
        coverage: CoverageMode::AutoFraction(0.5),
        max_values_per_range_var: 30,
        ..WorkloadParams::default()
    };
    workload(DatasetKind::Lki, scale.lki, &params)
}

/// Fig. 11(a): delay time of `OnlineQGen` per batch of streamed instances
/// (batch sizes 40/80), varying `k ∈ [5, 20]` and window `w ∈ {10, 40}`.
pub fn fig11a(scale: &ExpScale) -> String {
    let w = lki_workload(scale);
    let cfg = configuration(&w, 0.01);
    let mut rows = Vec::new();
    for &k in &[3usize, 5, 10, 20] {
        for &win in &[10usize, 40] {
            for &batch in &[40usize, 80] {
                let mut gen = OnlineQGen::new(
                    cfg,
                    OnlineOptions {
                        k,
                        window: win,
                        initial_eps: 0.01,
                    },
                );
                let stream: Vec<_> = ShuffledStream::new(&w.domains, 0xF11A)
                    .take(batch)
                    .collect();
                let start = Instant::now();
                for inst in &stream {
                    gen.push(inst);
                }
                let total = start.elapsed();
                rows.push(vec![
                    k.to_string(),
                    win.to_string(),
                    batch.to_string(),
                    format!("{:.1}", total.as_secs_f64() * 1e3),
                    format!("{:.2}", total.as_secs_f64() * 1e3 / batch as f64),
                    format!("{:.3}", gen.eps()),
                ]);
            }
        }
    }
    format!(
        "Fig 11(a) — OnlineQGen delay per batch (LKI)\n{}",
        crate::common::render_table(
            &["k", "w", "batch", "batch_ms", "per_inst_ms", "final_eps"],
            &rows
        )
    )
}

/// Fig. 11(b): anytime `I_ε` of `OnlineQGen` against the universe of
/// instances streamed so far, for `k ∈ {10, 20}` and `w ∈ {40, 80}`.
///
/// The indicator reference tolerance is fixed at `ε_ref = 1.0` so the
/// downward trend (more instances ⇒ larger maintained ε ⇒ lower `I_ε`)
/// is directly visible, mirroring the paper's plot.
pub fn fig11b(scale: &ExpScale) -> String {
    let w = lki_workload(scale);
    let cfg = configuration(&w, 0.01);
    // Every instance's result, looked up as the online algorithm sees it.
    let universe = evaluate_universe(cfg);
    let results: HashMap<&Instantiation, &EvalResult> = universe
        .entries
        .iter()
        .map(|e| (&e.inst, &*e.result))
        .collect();
    let eps_ref = 1.0;

    let mut rows = Vec::new();
    for &k in &[5usize, 10, 20] {
        for &win in &[40usize, 80] {
            let mut gen = OnlineQGen::new(
                cfg,
                OnlineOptions {
                    k,
                    window: win,
                    initial_eps: 0.01,
                },
            );
            let stream: Vec<_> = ShuffledStream::new(&w.domains, 0xF11B).collect();
            let mut seen: Vec<Objectives> = Vec::new();
            let checkpoint = (stream.len() / 5).max(1);
            for (i, inst) in stream.iter().enumerate() {
                gen.push(inst);
                let r = results[inst];
                if r.feasible {
                    seen.push(r.objectives);
                }
                if (i + 1) % checkpoint == 0 || i + 1 == stream.len() {
                    let set: Vec<Objectives> =
                        gen.current().iter().map(|e| e.objectives()).collect();
                    let em = min_eps(&set, &seen);
                    let ieps = if em.is_infinite() {
                        0.0
                    } else {
                        (1.0 - em / eps_ref).max(0.0)
                    };
                    rows.push(vec![
                        k.to_string(),
                        win.to_string(),
                        (i + 1).to_string(),
                        format!("{:.3}", ieps),
                        format!("{:.3}", gen.eps()),
                        gen.current().len().to_string(),
                    ]);
                }
            }
        }
    }
    format!(
        "Fig 11(b) — anytime I_eps of OnlineQGen (LKI, eps_ref = 1.0); universe |I(Q)| = {}\n{}",
        universe.entries.len(),
        crate::common::render_table(
            &["k", "w", "seen", "I_eps", "maintained_eps", "|set|"],
            &rows
        )
    )
}
