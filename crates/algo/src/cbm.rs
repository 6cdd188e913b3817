//! `CBM` — the constraint-based bi-objective baseline [10] used in the
//! paper's Exp-1 comparison.
//!
//! CBM first computes the two *anchor points* (the feasible instance of
//! maximum diversity and the one of maximum coverage), then bisects the
//! coverage range between them with a fixed vertical separation: each
//! subproblem is a single-objective optimization
//! `max δ(q)  s.t.  f(q) ≥ θ` solved over the enumerated instance space.
//! The union of subproblem optima approximates the Pareto frontier.
//!
//! As the paper observes, CBM pays an enumeration *per subproblem*
//! ("a more expensive bi-level optimization procedure"), which is why the
//! `Kungs` baseline outperforms it by ~1.2× despite producing comparable
//! fronts.

use crate::archive::ArchiveEntry;
use crate::config::{Configuration, GenStats};
use crate::enumerate::evaluate_universe;
use crate::output::Generated;
use fairsqg_matcher::matcher_stats;
use std::time::Instant;

/// Options of the CBM baseline.
#[derive(Debug, Clone, Copy)]
pub struct CbmOptions {
    /// Number of ε-constraint subproblems between the anchors.
    pub subproblems: usize,
}

impl Default for CbmOptions {
    fn default() -> Self {
        Self { subproblems: 16 }
    }
}

/// Runs CBM on a configuration.
pub fn cbm(cfg: Configuration<'_>, opts: CbmOptions) -> Generated {
    let start = Instant::now();
    let matcher_baseline = matcher_stats();
    // CBM is a *bi-level* method: the anchor solves and the ε-constraint
    // sweep are independent single-objective optimizations [10]. Ported
    // faithfully, each level evaluates the instance space with its own
    // sweep (no shared memoization across levels), which is why the
    // paper reports Kungs outperforming CBM (~1.2×) despite equal fronts.
    let anchor_pass = evaluate_universe(cfg);
    let universe = evaluate_universe(cfg);
    let feasible: Vec<&ArchiveEntry> = universe
        .entries
        .iter()
        .filter(|e| e.result.feasible)
        .collect();

    let mut selected: Vec<&ArchiveEntry> = Vec::new();
    if !feasible.is_empty() {
        // Anchor points.
        let max_delta = argmax(feasible.iter().copied(), delta).unwrap();
        let max_f = argmax(feasible.iter().copied(), fcov).unwrap();
        selected.push(max_delta);
        if max_f.inst != max_delta.inst {
            selected.push(max_f);
        }

        // ε-constraint subproblems at evenly spaced coverage thresholds
        // (the "fixed vertical separation distance" of [10]). Each
        // subproblem re-scans the feasible space — CBM's bi-level cost.
        let f_lo = fcov(max_delta);
        let f_hi = fcov(max_f);
        if f_hi > f_lo && opts.subproblems > 0 {
            for s in 1..=opts.subproblems {
                let theta = f_lo + (f_hi - f_lo) * s as f64 / (opts.subproblems + 1) as f64;
                let eligible = feasible.iter().copied().filter(|e| fcov(e) >= theta);
                if let Some(best) = argmax(eligible, delta) {
                    if !selected.iter().any(|e| e.inst == best.inst) {
                        selected.push(best);
                    }
                }
            }
        }
    }

    // Keep only mutually non-dominated picks (the anchors can dominate
    // interior subproblem optima).
    let objectives: Vec<_> = selected.iter().map(|e| e.objectives()).collect();
    let entries = fairsqg_measures::kung_pareto(&objectives)
        .into_iter()
        .map(|i| selected[i].clone())
        .collect();

    let mut stats = GenStats {
        spawned: feasible.len() as u64,
        verified: anchor_pass.stats.verified + universe.stats.verified,
        elapsed: start.elapsed(),
        budget_tripped: anchor_pass
            .stats
            .budget_tripped
            .or(universe.stats.budget_tripped),
        threads_used: 1,
        warm_match_hits: anchor_pass.stats.warm_match_hits + universe.stats.warm_match_hits,
        ..GenStats::default()
    };
    // Both levels ran on this thread, so the thread-local delta spans them.
    stats.record_hot_path(matcher_stats().delta_since(matcher_baseline));
    Generated {
        entries,
        eps: cfg.eps,
        stats,
        anytime: Vec::new(),
        truncated: anchor_pass.truncated || universe.truncated,
    }
}

fn delta(e: &ArchiveEntry) -> f64 {
    e.objectives().delta
}

fn fcov(e: &ArchiveEntry) -> f64 {
    e.objectives().fcov
}

/// The last entry maximising `f`, as [`Iterator::max_by`] breaks ties.
fn argmax<'e>(
    entries: impl Iterator<Item = &'e ArchiveEntry>,
    f: fn(&ArchiveEntry) -> f64,
) -> Option<&'e ArchiveEntry> {
    entries.max_by(|a, b| f(a).partial_cmp(&f(b)).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::kungs;
    use crate::test_support::talent_fixture;

    #[test]
    fn cbm_selects_non_dominated_instances() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let out = cbm(cfg, CbmOptions::default());
        assert!(!out.entries.is_empty());
        for a in &out.entries {
            for b in &out.entries {
                assert!(!a.objectives().dominates(&b.objectives()));
            }
        }
    }

    #[test]
    fn cbm_anchors_match_kungs_extremes() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let c = cbm(cfg, CbmOptions::default());
        let k = kungs(cfg);
        let max = |g: &Generated, f: fn(&ArchiveEntry) -> f64| {
            g.entries.iter().map(f).fold(0.0, f64::max)
        };
        assert!(
            (max(&c, |e| e.objectives().delta) - max(&k, |e| e.objectives().delta)).abs() < 1e-9
        );
        assert!((max(&c, |e| e.objectives().fcov) - max(&k, |e| e.objectives().fcov)).abs() < 1e-9);
    }

    #[test]
    fn cbm_front_is_subset_of_exact_pareto() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let c = cbm(cfg, CbmOptions::default());
        let k = kungs(cfg);
        let kset: Vec<_> = k.objectives();
        for e in &c.entries {
            // Every CBM pick must be non-dominated by the exact front.
            assert!(kset.iter().all(|o| !o.dominates(&e.objectives())));
        }
        assert!(c.entries.len() <= k.entries.len());
    }
}
