//! Shared experiment machinery: algorithm dispatch, indicator computation,
//! and text-table rendering.

use fairsqg_algo::{
    biqgen, cbm, enum_qgen, evaluate_universe, kungs, rfqgen, BiQGenOptions, CbmOptions,
    Configuration, Evaluator, Generated, RfQGenOptions,
};
use fairsqg_datagen::Workload;
use fairsqg_measures::{eps_indicator, r_indicator, DiversityConfig, Objectives, Relevance};

/// The algorithms compared throughout Section V.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Exact Pareto baseline.
    Kungs,
    /// Naive enumeration baseline.
    EnumQGen,
    /// Refinement-driven generation.
    RfQGen,
    /// Bi-directional generation.
    BiQGen,
    /// Constraint-based bi-objective baseline.
    Cbm,
}

impl Algo {
    /// Display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Kungs => "Kungs",
            Algo::EnumQGen => "EnumQGen",
            Algo::RfQGen => "RfQGen",
            Algo::BiQGen => "BiQGen",
            Algo::Cbm => "CBM",
        }
    }

    /// The four-algorithm lineup of Exp-1/Exp-2.
    pub const LINEUP: [Algo; 4] = [Algo::Kungs, Algo::EnumQGen, Algo::RfQGen, Algo::BiQGen];
}

/// Diversity configuration for experiments: λ = 0.5, in-degree relevance.
pub fn exp_diversity() -> DiversityConfig {
    DiversityConfig {
        lambda: 0.5,
        relevance: Relevance::InDegreeNormalized,
    }
}

/// Builds a [`Configuration`] over a workload.
pub fn configuration<'a>(w: &'a Workload, eps: f64) -> Configuration<'a> {
    Configuration::new(
        &w.graph,
        &w.template,
        &w.domains,
        &w.groups,
        &w.spec,
        eps,
        exp_diversity(),
    )
}

/// Runs one algorithm.
pub fn run(cfg: Configuration<'_>, algo: Algo, collect_anytime: bool) -> Generated {
    match algo {
        Algo::Kungs => kungs(cfg),
        Algo::EnumQGen => enum_qgen(cfg, collect_anytime),
        Algo::RfQGen => rfqgen(
            cfg,
            RfQGenOptions {
                collect_anytime,
                ..RfQGenOptions::default()
            },
        ),
        Algo::BiQGen => biqgen(
            cfg,
            BiQGenOptions {
                collect_anytime,
                ..BiQGenOptions::default()
            },
        ),
        Algo::Cbm => cbm(cfg, CbmOptions::default()),
    }
}

/// The evaluated feasible universe of a configuration (used by every
/// indicator), plus the diversity normalizer `δ_max = |V_uo|`.
pub struct Universe {
    /// Objectives of every feasible instance in `I(Q)`.
    pub feasible: Vec<Objectives>,
    /// `|I(Q)|`.
    pub total_instances: u64,
    /// Diversity normalizer for `I_R`.
    pub delta_max: f64,
    /// Coverage normalizer `C` for `I_R`.
    pub f_max: f64,
}

/// Evaluates the full instance universe of a configuration.
pub fn universe(cfg: Configuration<'_>) -> Universe {
    let mut ev = Evaluator::new(cfg);
    let all = evaluate_universe(&mut ev);
    let total_instances = all.len() as u64;
    let feasible = all
        .iter()
        .filter(|(_, r)| r.feasible)
        .map(|(_, r)| r.objectives)
        .collect::<Vec<_>>();
    // Normalize δ by the best achieved diversity (the universe optimum),
    // which keeps I_R in a meaningful range across graph scales.
    let delta_max = feasible
        .iter()
        .map(|o| o.delta)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    Universe {
        feasible,
        total_instances,
        delta_max,
        f_max: cfg.spec.total() as f64,
    }
}

/// The ε-indicator of a generated set against a universe.
pub fn i_eps(gen: &Generated, uni: &Universe, eps: f64) -> f64 {
    eps_indicator(&gen.objectives(), &uni.feasible, eps)
}

/// The R-indicator of a generated set.
pub fn i_r(gen: &Generated, uni: &Universe, lambda_r: f64) -> f64 {
    r_indicator(&gen.objectives(), lambda_r, uni.delta_max, uni.f_max)
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| -> String {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<width$} |", c, width = widths[i]));
        }
        s
    };
    let mut out = String::new();
    out.push_str(&line(headers.iter().map(|h| h.to_string()).collect()));
    out.push('\n');
    out.push_str(&line(widths.iter().map(|w| "-".repeat(*w)).collect()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row.clone()));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["a", "metric"],
            &[
                vec!["x".into(), "1.00".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let len = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == len));
    }

    #[test]
    fn algo_names() {
        assert_eq!(Algo::BiQGen.name(), "BiQGen");
        assert_eq!(Algo::LINEUP.len(), 4);
    }
}
