//! Ablation study of the design choices DESIGN.md calls out:
//!
//! * `incVerify` (parent-restricted verification) on/off,
//! * template refinement (`G_q^d` domain restriction) on/off,
//! * sandwich pruning (Lemma 3) on/off,
//! * sequential vs parallel enumeration (the paper's future-work item).
//!
//! Each variant reports runtime, verified instances, and the normalized
//! hypervolume of its result set — the quality must be unaffected by every
//! optimization (they only skip provably redundant work).

use crate::common::{configuration, universe, Algo};
use crate::scales::ExpScale;
use fairsqg_algo::{
    biqgen, effective_threads, enum_qgen, par_enum_qgen, rfqgen, BiQGenOptions, Generated,
    RfQGenOptions, SpawnOptions,
};
use fairsqg_datagen::{workload, CoverageMode, DatasetKind, WorkloadParams};
use fairsqg_measures::hypervolume_normalized;

fn row(name: &str, out: &Generated, hv: f64) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.1}", out.stats.elapsed.as_secs_f64() * 1e3),
        out.stats.verified.to_string(),
        out.stats.pruned_infeasible.to_string(),
        out.stats.pruned_sandwich.to_string(),
        out.entries.len().to_string(),
        format!("{hv:.4}"),
    ]
}

/// Runs the ablation grid on the default LKI workload.
pub fn ablation(scale: &ExpScale) -> String {
    let params = WorkloadParams {
        coverage: CoverageMode::AutoFraction(0.5),
        ..WorkloadParams::default()
    };
    let w = workload(DatasetKind::Lki, scale.lki, &params);
    let cfg = configuration(&w, 0.05);
    let uni = universe(cfg);
    let hv = |out: &Generated| hypervolume_normalized(&out.objectives(), uni.delta_max, uni.f_max);

    let mut rows = Vec::new();

    // Enumeration: sequential vs parallel.
    let seq = enum_qgen(cfg, false);
    rows.push(row("EnumQGen (sequential)", &seq, hv(&seq)));
    let par = par_enum_qgen(cfg, effective_threads(4));
    rows.push(row("EnumQGen (parallel x4)", &par, hv(&par)));

    // RfQGen grid.
    for (name, inc, tr) in [
        ("RfQGen (incVerify + template-refinement)", true, true),
        ("RfQGen (no incVerify)", false, true),
        ("RfQGen (no template-refinement)", true, false),
        ("RfQGen (neither)", false, false),
    ] {
        let out = rfqgen(
            cfg,
            RfQGenOptions {
                inc_verify: inc,
                spawn: SpawnOptions {
                    template_refinement: tr,
                },
                collect_anytime: false,
            },
        );
        rows.push(row(name, &out, hv(&out)));
    }

    // BiQGen: sandwich pruning on/off and backward-band width.
    for (name, sandwich, slack) in [
        ("BiQGen (sandwich + slack 2)", true, 2usize),
        ("BiQGen (no sandwich pruning)", false, 2),
        ("BiQGen (slack 0)", true, 0),
        ("BiQGen (unbounded backward, paper)", true, usize::MAX),
    ] {
        let out = biqgen(
            cfg,
            BiQGenOptions {
                sandwich_pruning: sandwich,
                backward_slack: slack,
                ..BiQGenOptions::default()
            },
        );
        rows.push(row(name, &out, hv(&out)));
    }

    format!(
        "Ablation — optimization on/off grid (LKI default workload, eps=0.05)\n\
         Quality (normalized hypervolume) must be stable across each family.\n{}",
        crate::common::render_table(
            &[
                "variant",
                "time_ms",
                "verified",
                "pruned_inf",
                "pruned_sand",
                "|set|",
                "hv"
            ],
            &rows
        )
    )
}

/// Baseline shoot-out including WSM (weighted-sum) and CBM against the
/// paper's lineup, on the DBP default workload.
pub fn baselines(scale: &ExpScale) -> String {
    let params = WorkloadParams {
        coverage: CoverageMode::AutoFraction(0.5),
        ..WorkloadParams::default()
    };
    let w = workload(DatasetKind::Dbp, scale.dbp, &params);
    let cfg = configuration(&w, 0.05);
    let uni = universe(cfg);
    let hv = |out: &Generated| hypervolume_normalized(&out.objectives(), uni.delta_max, uni.f_max);
    let mut rows = Vec::new();
    for algo in [
        Algo::Kungs,
        Algo::EnumQGen,
        Algo::RfQGen,
        Algo::BiQGen,
        Algo::Cbm,
    ] {
        let out = crate::common::run(cfg, algo, false);
        rows.push(row(algo.name(), &out, hv(&out)));
    }
    let wsm_out = fairsqg_algo::wsm(cfg, fairsqg_algo::WsmOptions::default());
    rows.push(row("WSM", &wsm_out, hv(&wsm_out)));
    format!(
        "Baselines — including WSM (weighted-sum, supported points only) and CBM\n{}",
        crate::common::render_table(
            &[
                "algorithm",
                "time_ms",
                "verified",
                "pruned_inf",
                "pruned_sand",
                "|set|",
                "hv"
            ],
            &rows
        )
    )
}
