//! Enumeration baselines: `EnumQGen` (naive ε-Pareto, Theorem 1's Δ₂ᵖ
//! algorithm) and `Kungs` (exact Pareto set via Kung's algorithm [13]).

use crate::archive::{ArchiveEntry, EpsParetoArchive};
use crate::config::{Configuration, GenStats};
use crate::evaluator::{EvalResult, Evaluator};
use crate::output::{AnytimePoint, Generated};
use fairsqg_measures::kung_pareto;
use fairsqg_query::{InstanceLattice, Instantiation};
use std::rc::Rc;
use std::time::Instant;

/// Evaluates the entire instance space `I(Q)` in lexicographic order.
///
/// Lexicographic order visits every lattice parent before its children, so
/// incremental verification (`incVerify`) is used throughout. Returns all
/// instances with their results (feasible and infeasible alike) — this is
/// the evaluated universe the indicators are computed against.
pub fn evaluate_universe(ev: &mut Evaluator<'_>) -> Vec<(Instantiation, Rc<EvalResult>)> {
    evaluate_universe_cancellable(ev).0
}

/// Like [`evaluate_universe`], but stops early when the configuration's
/// [`CancelToken`](crate::CancelToken) fires or a verification trips its
/// resource budget; the second component is `true` iff the sweep was cut
/// short.
pub fn evaluate_universe_cancellable(
    ev: &mut Evaluator<'_>,
) -> (Vec<(Instantiation, Rc<EvalResult>)>, bool) {
    let cfg = *ev.config();
    let lat = InstanceLattice::new(cfg.domains);
    let mut out = Vec::new();
    for inst in lat.enumerate() {
        if ev.should_stop() {
            return (out, true);
        }
        let r = ev.verify_with_best_parent(&inst);
        out.push((inst, r));
    }
    (out, ev.should_stop())
}

/// `EnumQGen`: enumerate `I(Q)`, verify every instance, and maintain the
/// ε-Pareto archive with a pairwise (`Update`) comparison.
pub fn enum_qgen(cfg: Configuration<'_>, collect_anytime: bool) -> Generated {
    let start = Instant::now();
    let mut ev = Evaluator::new(cfg);
    let mut archive = EpsParetoArchive::new(cfg.eps);
    let mut anytime = Vec::new();
    let lat = InstanceLattice::new(cfg.domains);
    let mut spawned = 0u64;
    let mut truncated = false;
    for inst in lat.enumerate() {
        if ev.should_stop() {
            truncated = true;
            break;
        }
        spawned += 1;
        let r = ev.verify_with_best_parent(&inst);
        if r.feasible {
            cfg.offer(&mut archive, &inst, &r);
            if collect_anytime {
                anytime.push(AnytimePoint {
                    verified: ev.verified_count(),
                    delta_star: archive
                        .entries()
                        .iter()
                        .map(|e| e.objectives().delta)
                        .fold(0.0, f64::max),
                    f_star: archive
                        .entries()
                        .iter()
                        .map(|e| e.objectives().fcov)
                        .fold(0.0, f64::max),
                });
            }
        }
    }
    truncated |= ev.budget_tripped().is_some();
    let mut stats = GenStats {
        spawned,
        verified: ev.verified_count(),
        cache_hits: ev.cache_hit_count(),
        elapsed: start.elapsed(),
        budget_tripped: ev.budget_tripped(),
        threads_used: 1,
        ..GenStats::default()
    };
    ev.apply_hot_path_stats(&mut stats);
    Generated {
        entries: archive.entries().to_vec(),
        eps: cfg.eps,
        stats,
        anytime,
        truncated,
    }
}

/// `Kungs`: enumerate + verify everything, then compute the **exact** Pareto
/// set of the feasible instances with Kung's algorithm. Scores `I_ε = 1` by
/// construction and serves as the quality reference of Exp-1.
pub fn kungs(cfg: Configuration<'_>) -> Generated {
    let start = Instant::now();
    let mut ev = Evaluator::new(cfg);
    // Inline the universe sweep so a cancellation/deadline token can stop
    // it; the Kung front of a partial universe is only exact for what was
    // seen, which `truncated` signals to the caller.
    let mut universe: Vec<(Instantiation, Rc<EvalResult>)> = Vec::new();
    let mut truncated = false;
    for inst in InstanceLattice::new(cfg.domains).enumerate() {
        if ev.should_stop() {
            truncated = true;
            break;
        }
        let r = ev.verify_with_best_parent(&inst);
        universe.push((inst, r));
    }
    truncated |= ev.budget_tripped().is_some();
    let feasible: Vec<&(Instantiation, Rc<EvalResult>)> =
        universe.iter().filter(|(_, r)| r.feasible).collect();
    let objectives: Vec<_> = feasible.iter().map(|(_, r)| r.objectives).collect();
    let front = kung_pareto(&objectives);
    let entries = front
        .into_iter()
        .map(|i| {
            let (inst, r) = feasible[i];
            ArchiveEntry {
                inst: inst.clone(),
                result: Rc::clone(r),
                bx: r.objectives.boxed(cfg.eps),
            }
        })
        .collect();
    let mut stats = GenStats {
        spawned: universe.len() as u64,
        verified: ev.verified_count(),
        cache_hits: ev.cache_hit_count(),
        elapsed: start.elapsed(),
        budget_tripped: ev.budget_tripped(),
        threads_used: 1,
        ..GenStats::default()
    };
    ev.apply_hot_path_stats(&mut stats);
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
    use crate::test_support::talent_fixture;
    use fairsqg_measures::{eps_indicator, min_eps, Objectives};

    #[test]
    fn universe_is_fully_evaluated() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let mut ev = Evaluator::new(cfg);
        let universe = evaluate_universe(&mut ev);
        assert_eq!(universe.len() as u64, fx.domains().instance_space_size());
        assert!(universe.iter().any(|(_, r)| r.feasible));
    }

    #[test]
    fn kungs_front_is_exact_pareto() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let out = kungs(cfg);
        assert!(!out.entries.is_empty());
        // Nothing in the front is dominated by any feasible instance.
        let mut ev = Evaluator::new(cfg);
        let feasible: Vec<Objectives> = evaluate_universe(&mut ev)
            .into_iter()
            .filter(|(_, r)| r.feasible)
            .map(|(_, r)| r.objectives)
            .collect();
        for e in &out.entries {
            assert!(feasible.iter().all(|o| !o.dominates(&e.objectives())));
        }
        // The exact Pareto set ε-dominates everything with ε_m = 0.
        assert_eq!(min_eps(&out.objectives(), &feasible), 0.0);
        assert_eq!(eps_indicator(&out.objectives(), &feasible, 0.3), 1.0);
    }

    #[test]
    fn enum_qgen_is_valid_eps_pareto_set() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let out = enum_qgen(cfg, false);
        assert!(!out.entries.is_empty());
        let mut ev = Evaluator::new(cfg);
        let feasible: Vec<Objectives> = evaluate_universe(&mut ev)
            .into_iter()
            .filter(|(_, r)| r.feasible)
            .map(|(_, r)| r.objectives)
            .collect();
        // Box-shifted ε-coverage of the whole feasible universe.
        let archive = {
            let mut a = EpsParetoArchive::new(cfg.eps);
            for e in &out.entries {
                a.update(&e.inst, &e.result);
            }
            a
        };
        assert!(archive.covers_shifted(&feasible));
        // The archive is much smaller than the universe.
        assert!(out.entries.len() < feasible.len());
    }

    #[test]
    fn output_restriction_bounds_every_answer() {
        let fx = talent_fixture();
        let base = fx.configuration(0.3);
        // Restrict to the even-id half of the output population.
        let pool: Vec<fairsqg_graph::NodeId> = fx
            .graph()
            .nodes_with_label(base.template.output_label())
            .iter()
            .copied()
            .filter(|v| v.index() % 2 == 0)
            .collect();
        let cfg = base.with_output_restriction(&pool);
        let mut ev = Evaluator::new(cfg);
        for (_, r) in evaluate_universe(&mut ev) {
            for m in &r.matches {
                assert!(pool.binary_search(m).is_ok(), "match outside restriction");
            }
        }
        // Restricted generation still returns a valid (possibly empty) set
        // whose members' counts reflect the restricted population.
        let out = enum_qgen(cfg, false);
        for e in &out.entries {
            assert!(e
                .result
                .matches
                .iter()
                .all(|m| pool.binary_search(m).is_ok()));
        }
    }

    #[test]
    fn enum_qgen_anytime_trace_is_monotone() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let out = enum_qgen(cfg, true);
        assert!(!out.anytime.is_empty());
        for w in out.anytime.windows(2) {
            assert!(w[1].verified >= w[0].verified);
        }
        for p in &out.anytime {
            assert!(p.delta_star >= 0.0 && p.f_star >= 0.0);
        }
    }

    #[test]
    fn tripped_budget_truncates_and_is_named_in_stats() {
        use fairsqg_matcher::{BudgetKind, MatchBudget};
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3).with_budget(MatchBudget {
            max_steps: Some(1),
            ..MatchBudget::UNLIMITED
        });
        let out = enum_qgen(cfg, false);
        assert!(out.truncated, "a tripped budget must flag truncation");
        let tripped = out.stats.budget_tripped.expect("budget trip recorded");
        assert_eq!(tripped.kind, BudgetKind::Steps);
        assert_eq!(tripped.limit, 1);
    }

    #[test]
    fn generous_budget_matches_unlimited_run() {
        use fairsqg_matcher::MatchBudget;
        let fx = talent_fixture();
        let unlimited = enum_qgen(fx.configuration(0.3), false);
        let capped = enum_qgen(
            fx.configuration(0.3).with_budget(MatchBudget {
                max_candidates: Some(1_000_000),
                max_steps: Some(100_000_000),
                max_matches: Some(1_000_000),
            }),
            false,
        );
        assert!(!capped.truncated);
        assert!(capped.stats.budget_tripped.is_none());
        assert_eq!(unlimited.entries.len(), capped.entries.len());
    }

    /// 75 steps is the smallest `max_steps` under which every generator
    /// finishes the fixture by search alone (the reference path, which
    /// reads no witnesses, trips at 74). A certified root is charged one
    /// step per non-root query node, never more than the successful
    /// search it replaces, and a skipped root nothing, so witnesses cannot
    /// make that cap trip. (The fixture is too small for the re-planner,
    /// whose timing is the one thing certified roots can shift.)
    #[test]
    fn witnesses_pass_the_step_cap_the_search_alone_passes() {
        use crate::{biqgen, rfqgen, BiQGenOptions, RfQGenOptions};
        use fairsqg_matcher::MatchBudget;
        type Generator = dyn Fn(Configuration<'_>) -> Generated;
        const SEARCH_ONLY_MIN_STEPS: u64 = 75;
        let fx = talent_fixture();
        let capped = |steps: u64| {
            fx.configuration(0.3).with_budget(MatchBudget {
                max_steps: Some(steps),
                ..MatchBudget::UNLIMITED
            })
        };
        let runs: [(&str, &Generator); 3] = [
            ("enum_qgen", &|cfg| enum_qgen(cfg, false)),
            ("rfqgen", &|cfg| rfqgen(cfg, RfQGenOptions::default())),
            ("biqgen", &|cfg| biqgen(cfg, BiQGenOptions::default())),
        ];
        for (name, run) in runs {
            let below = run(capped(SEARCH_ONLY_MIN_STEPS - 1).with_reference_path());
            assert!(
                below.truncated,
                "{name}: the search alone fits a tighter cap"
            );
            assert!(!run(capped(SEARCH_ONLY_MIN_STEPS).with_reference_path()).truncated);
            let out = run(capped(SEARCH_ONLY_MIN_STEPS));
            assert!(!out.truncated, "{name}: witnesses tripped the cap");
            assert!(out.stats.witness_hits > 0, "{name}: no witness fired");
            let unlimited = run(fx.configuration(0.3));
            let key = |g: &Generated| -> Vec<_> {
                g.entries
                    .iter()
                    .map(|e| (e.inst.clone(), e.result.matches.clone()))
                    .collect()
            };
            assert_eq!(key(&out), key(&unlimited), "{name}");
        }
    }

    #[test]
    fn enum_archive_boxes_form_an_antichain() {
        // The Update invariant: no archived box dominates another.
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let out = enum_qgen(cfg, false);
        for (i, a) in out.entries.iter().enumerate() {
            for (j, b) in out.entries.iter().enumerate() {
                if i != j {
                    assert!(!a.bx.dominates(&b.bx), "box-dominated pair in archive");
                    assert_ne!(a.bx, b.bx, "two representatives of one box");
                }
            }
        }
    }
}
