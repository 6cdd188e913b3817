//! Enumeration baselines: `EnumQGen` (naive ε-Pareto, Theorem 1's Δ₂ᵖ
//! algorithm) and `Kungs` (exact Pareto set via Kung's algorithm [13]),
//! both folds of the one lattice sweep.

use crate::archive::{ArchiveEntry, EpsParetoArchive};
use crate::config::{Configuration, GenStats};
use crate::output::{AnytimePoint, Generated};
use crate::parallel::sweep;
use fairsqg_measures::kung_pareto;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Verifies the entire instance space `I(Q)` in lexicographic order.
///
/// Lexicographic order visits every lattice parent before its children, so
/// incremental verification (`incVerify`) is used throughout. The entries
/// are every verified instance, feasible and infeasible alike, in that
/// order — the evaluated universe the indicators are computed against.
/// The sweep stops early when the configuration's
/// [`CancelToken`](crate::CancelToken) fires or a verification trips its
/// resource budget, and then flags the result truncated.
pub fn evaluate_universe(cfg: Configuration<'_>) -> Generated {
    let mut verified = Vec::new();
    let swept = sweep(&cfg, 1, |inst, v| verified.push((inst, Arc::clone(v))));
    let entries = verified.into_iter().map(|(inst, v)| {
        let result = Arc::into_inner(v)
            .expect("the sweep's store is gone")
            .result;
        let bx = result.objectives.boxed(cfg.eps);
        let result = Rc::new(result);
        ArchiveEntry { inst, result, bx }
    });
    Generated {
        entries: entries.collect(),
        ..swept
    }
}

/// `EnumQGen`: enumerate `I(Q)`, verify every instance, and maintain the
/// ε-Pareto archive with a pairwise (`Update`) comparison.
pub fn enum_qgen(cfg: Configuration<'_>, collect_anytime: bool) -> Generated {
    archive_sweep(cfg, 1, collect_anytime)
}

/// `EnumQGen` on `workers` workers: every finished instance is offered to
/// the archive in lattice order as the sweep verifies it.
pub(crate) fn archive_sweep(
    cfg: Configuration<'_>,
    workers: usize,
    collect_anytime: bool,
) -> Generated {
    let mut archive = EpsParetoArchive::new(cfg.eps);
    let mut anytime = Vec::new();
    let mut folded = 0;
    let swept = sweep(&cfg, workers, |inst, v| {
        let result = &v.result;
        folded += 1;
        if result.feasible {
            cfg.offer(&mut archive, &inst, result);
            if collect_anytime {
                anytime.push(AnytimePoint {
                    verified: folded,
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
    });
    Generated {
        entries: archive.entries().to_vec(),
        anytime,
        ..swept
    }
}

/// `Kungs`: enumerate + verify everything, then compute the **exact** Pareto
/// set of the feasible instances with Kung's algorithm. Scores `I_ε = 1` by
/// construction and serves as the quality reference of Exp-1. The Kung
/// front of a truncated universe is only exact for what was verified.
pub fn kungs(cfg: Configuration<'_>) -> Generated {
    let start = Instant::now();
    let universe = evaluate_universe(cfg);
    let feasible: Vec<&ArchiveEntry> = universe
        .entries
        .iter()
        .filter(|e| e.result.feasible)
        .collect();
    let objectives: Vec<_> = feasible.iter().map(|e| e.objectives()).collect();
    let entries = kung_pareto(&objectives)
        .into_iter()
        .map(|i| feasible[i].clone())
        .collect();
    Generated {
        entries,
        stats: GenStats {
            elapsed: start.elapsed(),
            ..universe.stats
        },
        ..universe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{feasible_universe, talent_fixture};
    use fairsqg_measures::{eps_indicator, min_eps};

    #[test]
    fn universe_is_fully_evaluated() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let universe = evaluate_universe(cfg);
        assert_eq!(
            universe.entries.len() as u64,
            fx.domains().instance_space_size()
        );
        assert!(!universe.truncated);
        assert!(universe.entries.iter().any(|e| e.result.feasible));
    }

    #[test]
    fn kungs_front_is_exact_pareto() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let out = kungs(cfg);
        assert!(!out.entries.is_empty());
        // Nothing in the front is dominated by any feasible instance.
        let feasible = feasible_universe(cfg);
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
        let feasible = feasible_universe(cfg);
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
        for e in evaluate_universe(cfg).entries {
            for m in &e.result.matches {
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

    /// `kungs` and `wsm` verify `I(Q)` once and `cbm` twice, one sweep per
    /// level, each picking the same front it always has; a token fired
    /// beforehand truncates each.
    #[test]
    fn universe_sweeps_verify_the_lattice_once_per_level() {
        use crate::{cbm, wsm, CancelToken, CbmOptions, WsmOptions};
        type Sweeper = fn(Configuration<'_>) -> Generated;
        let fx = talent_fixture();
        let size = fx.domains().instance_space_size();
        let runs: [(&str, Sweeper, u64, [[u16; 3]; 2]); 3] = [
            ("kungs", kungs, size, [[0, 0, 0], [0, 3, 0]]),
            (
                "wsm",
                |c| wsm(c, WsmOptions::default()),
                size,
                [[3, 3, 1], [1, 1, 1]],
            ),
            (
                "cbm",
                |c| cbm(c, CbmOptions::default()),
                2 * size,
                [[1, 1, 1], [3, 3, 1]],
            ),
        ];
        for (name, run, verified, front) in runs {
            let out = run(fx.configuration(0.3));
            assert!(!out.truncated, "{name}");
            assert_eq!(out.stats.verified, verified, "{name}");
            let picked: Vec<&[u16]> = out.entries.iter().map(|e| e.inst.indices()).collect();
            assert_eq!(picked, front, "{name}");

            let token = CancelToken::new();
            token.cancel();
            let out = run(fx.configuration(0.3).with_cancel(&token));
            assert!(out.truncated, "{name}");
            assert_eq!(out.stats.verified, 0, "{name}");
            assert!(out.entries.is_empty(), "{name}");
        }
    }
}
