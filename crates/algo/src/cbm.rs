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
use crate::evaluator::{EvalResult, Evaluator};
use crate::output::Generated;
use fairsqg_query::Instantiation;
use std::rc::Rc;
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
    // CBM is a *bi-level* method: the anchor solves and the ε-constraint
    // sweep are independent single-objective optimizations [10]. Ported
    // faithfully, each level evaluates the instance space with its own
    // verifier (no shared memoization across levels), which is why the
    // paper reports Kungs outperforming CBM (~1.2×) despite equal fronts.
    let mut anchor_ev = Evaluator::new(cfg);
    let (_anchor_pass, cut_anchor) =
        crate::enumerate::evaluate_universe_cancellable(&mut anchor_ev);
    let mut ev = Evaluator::new(cfg);
    let (universe, cut_sweep) = crate::enumerate::evaluate_universe_cancellable(&mut ev);
    let truncated = cut_anchor || cut_sweep;
    let feasible: Vec<(Instantiation, Rc<EvalResult>)> =
        universe.into_iter().filter(|(_, r)| r.feasible).collect();

    let mut selected: Vec<(Instantiation, Rc<EvalResult>)> = Vec::new();
    if !feasible.is_empty() {
        // Anchor points.
        let max_delta = feasible
            .iter()
            .max_by(|a, b| {
                a.1.objectives
                    .delta
                    .partial_cmp(&b.1.objectives.delta)
                    .unwrap()
            })
            .unwrap();
        let max_f = feasible
            .iter()
            .max_by(|a, b| {
                a.1.objectives
                    .fcov
                    .partial_cmp(&b.1.objectives.fcov)
                    .unwrap()
            })
            .unwrap();
        selected.push(max_delta.clone());
        if max_f.0 != max_delta.0 {
            selected.push(max_f.clone());
        }

        // ε-constraint subproblems at evenly spaced coverage thresholds
        // (the "fixed vertical separation distance" of [10]). Each
        // subproblem re-scans the feasible space — CBM's bi-level cost.
        let f_lo = max_delta.1.objectives.fcov;
        let f_hi = max_f.1.objectives.fcov;
        if f_hi > f_lo && opts.subproblems > 0 {
            for s in 1..=opts.subproblems {
                let theta = f_lo + (f_hi - f_lo) * s as f64 / (opts.subproblems + 1) as f64;
                if let Some(best) = feasible
                    .iter()
                    .filter(|(_, r)| r.objectives.fcov >= theta)
                    .max_by(|a, b| {
                        a.1.objectives
                            .delta
                            .partial_cmp(&b.1.objectives.delta)
                            .unwrap()
                    })
                {
                    if !selected.iter().any(|(i, _)| *i == best.0) {
                        selected.push(best.clone());
                    }
                }
            }
        }
    }

    // Keep only mutually non-dominated picks (the anchors can dominate
    // interior subproblem optima).
    let objectives: Vec<_> = selected.iter().map(|(_, r)| r.objectives).collect();
    let front = fairsqg_measures::kung_pareto(&objectives);
    let entries = front
        .into_iter()
        .map(|i| {
            let (inst, r) = &selected[i];
            ArchiveEntry {
                inst: inst.clone(),
                result: Rc::clone(r),
                bx: r.objectives.boxed(cfg.eps),
            }
        })
        .collect();

    let mut stats = GenStats {
        spawned: feasible.len() as u64,
        verified: anchor_ev.verified_count() + ev.verified_count(),
        cache_hits: anchor_ev.cache_hit_count() + ev.cache_hit_count(),
        elapsed: start.elapsed(),
        budget_tripped: anchor_ev.budget_tripped().or(ev.budget_tripped()),
        threads_used: 1,
        ..GenStats::default()
    };
    // Matcher counters are thread-local and monotone, so the delta since
    // the *first* evaluator's baseline already spans both levels.
    anchor_ev.apply_hot_path_stats(&mut stats);
    Generated {
        entries,
        eps: cfg.eps,
        stats,
        anytime: Vec::new(),
        truncated,
    }
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
