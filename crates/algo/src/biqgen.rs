//! `BiQGen` (Fig. 6): bi-directional query generation with "sandwich"
//! pruning (Lemma 3).
//!
//! A forward exploration refines from the lattice root `q_r` (high
//! diversity first) while a backward exploration relaxes from the bottom
//! `q_b` (converging early to instances with high coverage). When a
//! feasible forward/backward pair `(q, q')` with `q' ⪰_I q` shares a box
//! coordinate (`Box(q).δ = Box(q').δ` or `Box(q).f = Box(q').f`), every
//! instance strictly between them in refinement order is provably outside
//! the ε-Pareto set (Lemma 3) and its **verification is skipped**.
//!
//! Implementation note: the paper skips sandwiched instances "without
//! further exploration". We skip their verification (the dominant cost,
//! `T_q`) but still expand their lattice children, so that regions beyond a
//! sandwich stay reachable regardless of queue interleaving; the children
//! themselves are sandwich-checked recursively.

use crate::archive::EpsParetoArchive;
use crate::config::{Configuration, GenStats};
use crate::evaluator::Evaluator;
use crate::output::{AnytimePoint, Generated};
use crate::spawn::{plain_refinements, spawn_relaxations, SpawnOptions};
use fairsqg_measures::BoxCoord;
use fairsqg_query::Instantiation;
use std::collections::{HashSet, VecDeque};
use std::time::Instant;

/// Options of the bi-directional generator.
#[derive(Debug, Clone, Copy)]
pub struct BiQGenOptions {
    /// Spawner behavior for the forward direction.
    pub spawn: SpawnOptions,
    /// Record the anytime-quality trace.
    pub collect_anytime: bool,
    /// Enable sandwich pruning (disable to measure its benefit).
    pub sandwich_pruning: bool,
    /// How many relaxation steps past the feasibility boundary the
    /// backward exploration keeps fanning out. Among feasible instances,
    /// coverage `f` only *decreases* with further relaxation (Lemma 2), so
    /// the high-coverage instances the backward search exists to find all
    /// sit within a thin band above the boundary; beyond it the forward
    /// exploration (which is complete on its own) takes over. `usize::MAX`
    /// restores the paper's unbounded backward sweep.
    pub backward_slack: usize,
}

impl Default for BiQGenOptions {
    fn default() -> Self {
        Self {
            spawn: SpawnOptions::default(),
            collect_anytime: false,
            sandwich_pruning: true,
            backward_slack: 2,
        }
    }
}

/// A sandwich bound pair `(lo, hi)`: `hi ⪰_I lo`, both feasible and
/// verified, sharing a box coordinate.
#[derive(Debug, Clone)]
struct SandwichPair {
    lo: Instantiation,
    hi: Instantiation,
}

/// The `SBounds` set with subsumption-aware insertion.
#[derive(Debug, Default)]
struct SBounds {
    pairs: Vec<SandwichPair>,
}

impl SBounds {
    /// `SPrune`: is `q` strictly inside some sandwich?
    fn prunes(&self, q: &Instantiation) -> bool {
        self.pairs
            .iter()
            .any(|p| q.strictly_refines(&p.lo) && p.hi.strictly_refines(q))
    }

    /// Inserts a new pair, widening or discarding per the paper's update
    /// rule: a pair subsumed by an existing one is dropped; existing pairs
    /// subsumed by the new one are replaced.
    fn insert(&mut self, lo: Instantiation, hi: Instantiation) {
        // Subsumed by an existing pair?
        if self
            .pairs
            .iter()
            .any(|p| lo.refines(&p.lo) && p.hi.refines(&hi))
        {
            return;
        }
        // Remove pairs the new one subsumes.
        self.pairs
            .retain(|p| !(p.lo.refines(&lo) && hi.refines(&p.hi)));
        self.pairs.push(SandwichPair { lo, hi });
    }
}

/// Runs `BiQGen` on a configuration.
pub fn biqgen(cfg: Configuration<'_>, opts: BiQGenOptions) -> Generated {
    let start = Instant::now();
    let mut ev = Evaluator::new(cfg);
    let mut archive = EpsParetoArchive::new(cfg.eps);
    let mut anytime = Vec::new();
    let mut stats = GenStats::default();

    let mut s_f: VecDeque<Instantiation> = VecDeque::from([Instantiation::root(cfg.domains)]);
    // Backward queue items carry the number of relaxation steps taken
    // since the feasibility boundary was crossed (0 while infeasible).
    let mut s_b: VecDeque<(Instantiation, usize)> =
        VecDeque::from([(Instantiation::bottom(cfg.domains), 0)]);
    stats.spawned = 2;
    let mut seen_f: HashSet<Instantiation> = HashSet::new();
    let mut seen_b: HashSet<Instantiation> = HashSet::new();
    let mut sbounds = SBounds::default();

    // Verified feasible instances per direction, with boxes, for pair
    // detection (Lemma 3 requires one from each frontier).
    let mut fwd_feasible: Vec<(Instantiation, BoxCoord)> = Vec::new();
    let mut bwd_feasible: Vec<(Instantiation, BoxCoord)> = Vec::new();

    let record =
        |archive: &EpsParetoArchive, ev: &Evaluator<'_>, anytime: &mut Vec<AnytimePoint>| {
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
        };

    let mut truncated = false;
    while !s_f.is_empty() || !s_b.is_empty() {
        if ev.should_stop() {
            truncated = true;
            break;
        }
        // -------- forward exploration (refinement from q_r) --------
        if let Some(q) = s_f.pop_front() {
            if seen_f.insert(q.clone()) {
                let pruned = opts.sandwich_pruning && sbounds.prunes(&q);
                if pruned {
                    stats.pruned_sandwich += 1;
                    // Keep exploring (cheap index steps), skip verification.
                    for (_, child) in plain_refinements(&cfg, &q) {
                        if !seen_f.contains(&child) {
                            stats.spawned += 1;
                            s_f.push_back(child);
                        }
                    }
                } else if ev.quick_infeasible(&q) {
                    // Certainly infeasible from the candidate set alone:
                    // the refinement subtree is dead (Lemma 2).
                    stats.pruned_infeasible += 1;
                } else {
                    let verified = ev.verify_with_best_parent(&q);
                    let r = &verified.result;
                    if !r.feasible {
                        stats.pruned_infeasible += 1;
                    } else {
                        cfg.offer(&mut archive, &q, r);
                        if opts.collect_anytime {
                            record(&archive, &ev, &mut anytime);
                        }
                        let bx = r.objectives.boxed(cfg.eps);
                        // Pair detection against backward-verified instances.
                        if opts.sandwich_pruning {
                            for (hi, hbx) in &bwd_feasible {
                                if hi.strictly_refines(&q)
                                    && (hbx.delta == bx.delta || hbx.fcov == bx.fcov)
                                {
                                    sbounds.insert(q.clone(), hi.clone());
                                }
                            }
                            fwd_feasible.push((q.clone(), bx));
                        }
                        for (_, child) in ev.spawn(&q, &verified, opts.spawn) {
                            if !seen_f.contains(&child) {
                                stats.spawned += 1;
                                s_f.push_back(child);
                            }
                        }
                    }
                }
            }
        }

        // -------- backward exploration (relaxation from q_b) --------
        if let Some((q, slack)) = s_b.pop_front() {
            if seen_b.insert(q.clone()) {
                let pruned = opts.sandwich_pruning && sbounds.prunes(&q);
                if pruned {
                    stats.pruned_sandwich += 1;
                    if slack < opts.backward_slack {
                        for (_, parent) in spawn_relaxations(&q) {
                            if !seen_b.contains(&parent) {
                                stats.spawned += 1;
                                s_b.push_back((parent, slack + 1));
                            }
                        }
                    }
                } else if ev.quick_infeasible(&q) {
                    // Certainly infeasible: skip the matching cost and
                    // relax *greedily* toward feasibility instead of
                    // fanning out — the infeasible bottom region is
                    // exponentially large, and completeness is already
                    // guaranteed by the forward exploration. Relaxing the
                    // most-refined variable walks the shortest path to the
                    // feasibility boundary, where the backward search
                    // resumes exhaustive relaxation (that is where the
                    // high-coverage instances live).
                    stats.pruned_infeasible += 1;
                    let most_refined = (0..q.var_count())
                        .filter(|&x| q.indices()[x] > 0)
                        .max_by_key(|&x| q.indices()[x]);
                    if let Some(x) = most_refined {
                        if let Some(parent) = q.relax_step(x) {
                            if !seen_b.contains(&parent) {
                                stats.spawned += 1;
                                s_b.push_back((parent, 0));
                            }
                        }
                    }
                } else {
                    let r = &ev.verify_with_best_parent(&q).result;
                    if r.feasible {
                        cfg.offer(&mut archive, &q, r);
                        if opts.collect_anytime {
                            record(&archive, &ev, &mut anytime);
                        }
                        if opts.sandwich_pruning {
                            let bx = r.objectives.boxed(cfg.eps);
                            for (lo, lbx) in &fwd_feasible {
                                if q.strictly_refines(lo)
                                    && (lbx.delta == bx.delta || lbx.fcov == bx.fcov)
                                {
                                    sbounds.insert(lo.clone(), q.clone());
                                }
                            }
                            bwd_feasible.push((q.clone(), bx));
                        }
                    }
                    if r.feasible {
                        // Fan out only within the slack band above the
                        // feasibility boundary — f can only drop from here
                        // on (Lemma 2), and the forward exploration covers
                        // the relaxed remainder on its own.
                        if slack < opts.backward_slack {
                            for (_, parent) in spawn_relaxations(&q) {
                                if !seen_b.contains(&parent) {
                                    stats.spawned += 1;
                                    s_b.push_back((parent, slack + 1));
                                }
                            }
                        }
                    } else {
                        // Verified infeasible (the quick check was
                        // inconclusive): still below the boundary — keep
                        // descending greedily along a single path rather
                        // than fanning out through the infeasible region.
                        let most_refined = (0..q.var_count())
                            .filter(|&x| q.indices()[x] > 0)
                            .max_by_key(|&x| q.indices()[x]);
                        if let Some(x) = most_refined {
                            if let Some(parent) = q.relax_step(x) {
                                if !seen_b.contains(&parent) {
                                    stats.spawned += 1;
                                    s_b.push_back((parent, 0));
                                }
                            }
                        }
                    }
                }
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
    fn biqgen_produces_valid_eps_pareto_set() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let out = biqgen(cfg, BiQGenOptions::default());
        assert!(!out.entries.is_empty());
        let feasible = feasible_universe(cfg);
        let mut a = EpsParetoArchive::new(cfg.eps);
        for e in &out.entries {
            a.update(&e.inst, &e.result);
        }
        assert!(a.covers_shifted(&feasible));
    }

    #[test]
    fn sandwich_pruning_preserves_quality() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let with_sp = biqgen(cfg, BiQGenOptions::default());
        let without_sp = biqgen(
            cfg,
            BiQGenOptions {
                sandwich_pruning: false,
                ..BiQGenOptions::default()
            },
        );
        let mut a = EpsParetoArchive::new(cfg.eps);
        for e in &with_sp.entries {
            a.update(&e.inst, &e.result);
        }
        assert!(a.covers_shifted(&without_sp.objectives()));
        assert!(with_sp.stats.verified <= without_sp.stats.verified);
    }

    #[test]
    fn biqgen_does_not_verify_more_than_enum() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let bi = biqgen(cfg, BiQGenOptions::default());
        let en = enum_qgen(cfg, false);
        assert!(bi.stats.verified <= en.stats.verified);
    }

    #[test]
    fn backward_slack_does_not_affect_quality() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let feasible = feasible_universe(cfg);
        for slack in [0usize, 1, 3, usize::MAX] {
            let out = biqgen(
                cfg,
                BiQGenOptions {
                    backward_slack: slack,
                    ..BiQGenOptions::default()
                },
            );
            let mut a = EpsParetoArchive::new(cfg.eps);
            for e in &out.entries {
                a.update(&e.inst, &e.result);
            }
            assert!(a.covers_shifted(&feasible), "slack {slack}: coverage lost");
        }
    }

    #[test]
    fn sbounds_subsumption() {
        let mut sb = SBounds::default();
        let lo = Instantiation::new(vec![0, 0]);
        let hi = Instantiation::new(vec![3, 3]);
        sb.insert(lo.clone(), hi.clone());
        assert_eq!(sb.pairs.len(), 1);
        // A narrower pair is subsumed.
        sb.insert(
            Instantiation::new(vec![1, 1]),
            Instantiation::new(vec![2, 2]),
        );
        assert_eq!(sb.pairs.len(), 1);
        // A wider pair replaces.
        let wider_hi = Instantiation::new(vec![4, 4]);
        sb.insert(lo.clone(), wider_hi);
        assert_eq!(sb.pairs.len(), 1);
        assert_eq!(sb.pairs[0].hi, Instantiation::new(vec![4, 4]));
        // Pruning is strict on both sides.
        assert!(sb.prunes(&Instantiation::new(vec![2, 2])));
        assert!(!sb.prunes(&lo));
        assert!(!sb.prunes(&Instantiation::new(vec![4, 4])));
        assert!(!sb.prunes(&Instantiation::new(vec![5, 0])));
    }

    #[test]
    fn backward_exploration_reaches_high_coverage_early() {
        // BiQGen's anytime f* should reach its maximum at least as early
        // (in verified instances) as RfQGen's.
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let bi = biqgen(
            cfg,
            BiQGenOptions {
                collect_anytime: true,
                ..BiQGenOptions::default()
            },
        );
        let rf = crate::rfqgen::rfqgen(
            cfg,
            crate::rfqgen::RfQGenOptions {
                collect_anytime: true,
                ..crate::rfqgen::RfQGenOptions::default()
            },
        );
        let peak = |pts: &[AnytimePoint]| -> (f64, u64) {
            let best = pts.iter().map(|p| p.f_star).fold(0.0, f64::max);
            let first = pts
                .iter()
                .find(|p| p.f_star >= best - 1e-9)
                .map(|p| p.verified)
                .unwrap_or(u64::MAX);
            (best, first)
        };
        let (bi_best, bi_first) = peak(&bi.anytime);
        let (rf_best, rf_first) = peak(&rf.anytime);
        assert!((bi_best - rf_best).abs() < 1e-9, "both reach the same f*");
        assert!(
            bi_first <= rf_first,
            "BiQGen should reach peak coverage no later ({bi_first} vs {rf_first})"
        );
    }
}
