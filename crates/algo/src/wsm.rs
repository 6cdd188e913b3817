//! `WSM` — weighted-sum scalarization baseline (Hwang & Masud [23],
//! discussed in the paper's related work on skyline search).
//!
//! WSM collapses the bi-objective problem into a family of single-objective
//! problems `max_q  w·δ_norm(q) + (1-w)·f_norm(q)` for a sweep of weights
//! `w ∈ [0, 1]`, returning the distinct optima. It is simple and fast but,
//! unlike the ε-Pareto archive, can only discover **supported** (convex
//! hull) Pareto points — instances in non-convex dents of the front are
//! invisible to every weight, which is exactly why the paper adopts
//! ε-dominance instead.

use crate::archive::ArchiveEntry;
use crate::config::{Configuration, GenStats};
use crate::enumerate::evaluate_universe;
use crate::output::Generated;
use std::time::Instant;

/// Options of the weighted-sum baseline.
#[derive(Debug, Clone, Copy)]
pub struct WsmOptions {
    /// Number of weights swept across `[0, 1]` (inclusive endpoints).
    pub weights: usize,
}

impl Default for WsmOptions {
    fn default() -> Self {
        Self { weights: 11 }
    }
}

/// Runs the weighted-sum baseline on a configuration.
pub fn wsm(cfg: Configuration<'_>, opts: WsmOptions) -> Generated {
    let start = Instant::now();
    let universe = evaluate_universe(cfg);
    let feasible: Vec<&ArchiveEntry> = universe
        .entries
        .iter()
        .filter(|e| e.result.feasible)
        .collect();

    // Weighted-sum optima are always Pareto-optimal; dedupe is enough.
    let mut entries: Vec<ArchiveEntry> = Vec::new();
    if !feasible.is_empty() {
        let delta_max = feasible
            .iter()
            .map(|e| e.objectives().delta)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let f_max = feasible
            .iter()
            .map(|e| e.objectives().fcov)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let n_weights = opts.weights.max(2);
        for k in 0..n_weights {
            let w = k as f64 / (n_weights - 1) as f64;
            let score = |e: &ArchiveEntry| {
                let o = e.objectives();
                w * o.delta / delta_max + (1.0 - w) * o.fcov / f_max
            };
            let best = feasible
                .iter()
                .max_by(|a, b| score(a).partial_cmp(&score(b)).unwrap())
                .expect("nonempty feasible set");
            if !entries.iter().any(|e| e.inst == best.inst) {
                entries.push((*best).clone());
            }
        }
    }

    Generated {
        entries,
        stats: GenStats {
            spawned: feasible.len() as u64,
            elapsed: start.elapsed(),
            ..universe.stats
        },
        ..universe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::kungs;
    use crate::test_support::talent_fixture;

    #[test]
    fn wsm_optima_lie_on_the_exact_front() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let w = wsm(cfg, WsmOptions::default());
        let k = kungs(cfg);
        assert!(!w.entries.is_empty());
        let front = k.objectives();
        for e in &w.entries {
            assert!(
                front.iter().all(|o| !o.dominates(&e.objectives())),
                "WSM selected a dominated instance"
            );
        }
        // WSM only finds supported points: never more than the exact front.
        assert!(w.entries.len() <= k.entries.len());
    }

    #[test]
    fn extreme_weights_recover_anchor_points() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let w = wsm(cfg, WsmOptions { weights: 2 });
        let k = kungs(cfg);
        let max = |g: &Generated, f: fn(fairsqg_measures::Objectives) -> f64| {
            g.entries
                .iter()
                .map(|e| f(e.objectives()))
                .fold(0.0, f64::max)
        };
        assert!((max(&w, |o| o.delta) - max(&k, |o| o.delta)).abs() < 1e-9);
        assert!((max(&w, |o| o.fcov) - max(&k, |o| o.fcov)).abs() < 1e-9);
    }

    #[test]
    fn weight_count_bounds_output() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let w = wsm(cfg, WsmOptions { weights: 5 });
        assert!(w.entries.len() <= 5);
    }
}
