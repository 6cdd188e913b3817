//! `RfQGen` (Fig. 3): depth-first "refine as always" query generation.
//!
//! Starts from the lattice root `q_r` (the most relaxed instance) and
//! explores refinements depth-first. Each feasible instance is offered to
//! the `Update` archive; infeasible instances cut their whole refinement
//! subtree (Lemma 2: refinement only shrinks match sets, so no descendant
//! can become feasible again).

use crate::archive::EpsParetoArchive;
use crate::config::{Configuration, GenStats};
use crate::evaluator::Evaluator;
use crate::output::{AnytimePoint, Generated};
use crate::spawn::SpawnOptions;
use fairsqg_query::Instantiation;
use std::collections::HashSet;
use std::time::Instant;

/// Options of the refinement-driven generator.
#[derive(Debug, Clone, Copy)]
pub struct RfQGenOptions {
    /// Spawner behavior (template refinement on/off).
    pub spawn: SpawnOptions,
    /// Record the anytime-quality trace.
    pub collect_anytime: bool,
    /// Use incremental verification against cached lattice parents.
    pub inc_verify: bool,
}

impl Default for RfQGenOptions {
    fn default() -> Self {
        Self {
            spawn: SpawnOptions::default(),
            collect_anytime: false,
            inc_verify: true,
        }
    }
}

/// Runs `RfQGen` on a configuration.
pub fn rfqgen(cfg: Configuration<'_>, opts: RfQGenOptions) -> Generated {
    let start = Instant::now();
    let mut ev = Evaluator::new(cfg);
    let mut archive = EpsParetoArchive::new(cfg.eps);
    let mut anytime = Vec::new();
    let mut stats = GenStats::default();

    let root = Instantiation::root(cfg.domains);
    let mut visited: HashSet<Instantiation> = HashSet::new();
    let mut stack: Vec<Instantiation> = vec![root];
    stats.spawned = 1;
    let mut truncated = false;

    while let Some(inst) = stack.pop() {
        if ev.should_stop() {
            truncated = true;
            break;
        }
        if !visited.insert(inst.clone()) {
            continue;
        }
        // Certain infeasibility is detectable from the candidate set alone
        // — prune the subtree without paying the matching cost T_q.
        if ev.quick_infeasible(&inst) {
            stats.pruned_infeasible += 1;
            continue;
        }
        let verified = if opts.inc_verify {
            ev.verify_with_best_parent(&inst)
        } else {
            ev.verify(&inst)
        };
        let result = &verified.result;
        if !result.feasible {
            // Lemma 2: every refinement of an infeasible instance is
            // infeasible — backtrack.
            stats.pruned_infeasible += 1;
            continue;
        }
        cfg.offer(&mut archive, &inst, result);
        if opts.collect_anytime {
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
        // Spawn the front set Q_F and continue depth-first.
        for (_, child) in ev.spawn(&inst, &verified, opts.spawn) {
            if !visited.contains(&child) {
                stats.spawned += 1;
                stack.push(child);
            }
        }
    }

    stats.elapsed = start.elapsed();
    stats.threads_used = 1;
    ev.add_to(&mut stats);
    truncated |= stats.budget_tripped.is_some();
    Generated {
        entries: archive.entries().to_vec(),
        eps: cfg.eps,
        stats,
        anytime,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enum_qgen;
    use crate::test_support::{feasible_universe, talent_fixture};

    #[test]
    fn rfqgen_produces_valid_eps_pareto_set() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let out = rfqgen(cfg, RfQGenOptions::default());
        assert!(!out.entries.is_empty());

        // Validity over the whole feasible universe (stronger than the
        // paper's per-generated-instance claim, possible here because the
        // fixture's universe is small).
        let feasible = feasible_universe(cfg);
        let mut a = EpsParetoArchive::new(cfg.eps);
        for e in &out.entries {
            a.update(&e.inst, &e.result);
        }
        assert!(a.covers_shifted(&feasible));
    }

    #[test]
    fn rfqgen_verifies_fewer_instances_than_enum() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let rf = rfqgen(cfg, RfQGenOptions::default());
        let en = enum_qgen(cfg, false);
        assert!(
            rf.stats.verified <= en.stats.verified,
            "RfQGen ({}) must not verify more than EnumQGen ({})",
            rf.stats.verified,
            en.stats.verified
        );
    }

    #[test]
    fn template_refinement_does_not_change_the_result_quality() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let with_tr = rfqgen(cfg, RfQGenOptions::default());
        let without_tr = rfqgen(
            cfg,
            RfQGenOptions {
                spawn: SpawnOptions {
                    template_refinement: false,
                },
                ..RfQGenOptions::default()
            },
        );
        // Both archives must cover each other's entries under ε.
        let a_objs = with_tr.objectives();
        let b_objs = without_tr.objectives();
        let mut a = EpsParetoArchive::new(cfg.eps);
        for e in &with_tr.entries {
            a.update(&e.inst, &e.result);
        }
        let mut b = EpsParetoArchive::new(cfg.eps);
        for e in &without_tr.entries {
            b.update(&e.inst, &e.result);
        }
        assert!(a.covers_shifted(&b_objs));
        assert!(b.covers_shifted(&a_objs));
    }

    #[test]
    fn inc_verify_matches_full_verify() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let inc = rfqgen(cfg, RfQGenOptions::default());
        let full = rfqgen(
            cfg,
            RfQGenOptions {
                inc_verify: false,
                ..RfQGenOptions::default()
            },
        );
        let mut io: Vec<_> = inc
            .entries
            .iter()
            .map(|e| (e.objectives().delta, e.objectives().fcov))
            .collect();
        let mut fo: Vec<_> = full
            .entries
            .iter()
            .map(|e| (e.objectives().delta, e.objectives().fcov))
            .collect();
        io.sort_by(|a, b| a.partial_cmp(b).unwrap());
        fo.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(io.len(), fo.len());
        for (a, b) in io.iter().zip(fo.iter()) {
            assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn anytime_trace_is_recorded() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let out = rfqgen(
            cfg,
            RfQGenOptions {
                collect_anytime: true,
                ..RfQGenOptions::default()
            },
        );
        assert!(!out.anytime.is_empty());
        assert!(out
            .anytime
            .windows(2)
            .all(|w| w[0].verified <= w[1].verified));
    }
}
