//! Parallel query generation — the paper's stated future-work extension
//! ("a future topic is to study parallel query generation over large
//! graphs").
//!
//! Verification cost `T_q` varies wildly across the instance space (a
//! relaxed instance matches far more nodes than a tight one), so static
//! chunking leaves threads idle at the tail. Workers instead *claim*
//! instances one at a time from a shared atomic cursor over the
//! lexicographically enumerated space, and verify each incrementally
//! (`incVerify`) against a shared table of finished instances indexed by
//! lattice position: on every axis the nearest ancestor that is already
//! *finished* — never one still in flight — gives its match set as a
//! candidate pool and its embeddings as witnesses. Which ancestors a
//! verification sees depends on the schedule, but its match set does not
//! (Lemma 2, and a witness certifies only what it proves). After the pool
//! joins, the table is folded into the ε-Pareto archive in ascending
//! lattice order — the order the sequential fold uses — so the archive
//! (including `Update`'s order-dependent same-box tie-breaks) is
//! bit-identical to `enum_qgen`'s.

use crate::archive::EpsParetoArchive;
use crate::config::{Configuration, GenStats};
use crate::evaluator::{verify_instance, EvalResult, Verification};
use crate::output::Generated;
use fairsqg_graph::NodeId;
use fairsqg_matcher::{take_stats, BudgetExceeded, MatchScratch, MatcherStats, Witnesses};
use fairsqg_query::InstanceLattice;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Resolves a requested worker count: `0` means "one per hardware
/// thread", and any request is clamped to
/// `std::thread::available_parallelism`. Verification is CPU-bound, so
/// workers beyond the core count add nothing but preemption — measured on
/// this workload, an 8-worker pool on one core burns ~30% more CPU than
/// one worker for the same instances, purely from mid-verification cache
/// eviction.
pub fn effective_threads(requested: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if requested == 0 {
        hw
    } else {
        requested.min(hw)
    }
}

/// A finished verification as the shared table holds it: the result and
/// one row per match. A verification that tripped its
/// budget leaves its slot empty, so it never serves as an ancestor.
type Finished = OnceLock<(EvalResult, Arc<[NodeId]>)>;

/// Parallel `EnumQGen`: verifies the whole instance space on a pool of
/// self-scheduling workers and folds the results into an ε-Pareto archive
/// identical to the sequential one. `threads` is a *request*: `0` means
/// "all hardware threads", and any count is clamped to the hardware (see
/// [`effective_threads`]); `GenStats::threads_used` reports the actual
/// pool size.
pub fn par_enum_qgen(cfg: Configuration<'_>, threads: usize) -> Generated {
    run_par_enum(cfg, effective_threads(threads))
}

/// The pool itself, taking the worker count literally. Exposed for tests
/// that must run several workers on machines with fewer cores than
/// workers.
#[doc(hidden)]
pub fn par_enum_qgen_exact(cfg: Configuration<'_>, workers: usize) -> Generated {
    run_par_enum(cfg, workers.max(1))
}

fn run_par_enum(cfg: Configuration<'_>, threads: usize) -> Generated {
    let start = Instant::now();
    let all = InstanceLattice::new(cfg.domains).enumerate();
    let total = all.len();
    // Mixed-radix strides of the lexicographic enumeration: the parent of
    // instance `i` on axis `x` is `i - strides[x]`.
    let mut strides = vec![1; cfg.domains.var_count()];
    for x in (1..strides.len()).rev() {
        strides[x - 1] = strides[x] * cfg.domains.domain(x).len();
    }
    let table: Vec<Finished> = (0..total).map(|_| OnceLock::new()).collect();

    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    // One measure — one `O(|V|)` profile, the caller's when it brought
    // one — for the whole pool.
    let measure = cfg.diversity_measure();

    let workers: Vec<(Option<BudgetExceeded>, MatcherStats, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let (cfg, all, strides, table) = (&cfg, &all, &strides, &table);
            let (cursor, stop, measure) = (&cursor, &stop, &measure);
            handles.push(scope.spawn(move || {
                // Matcher counters are thread-local; reset them so the
                // final snapshot is exactly this worker's contribution
                // even if the closure ever runs on a reused thread.
                let _ = take_stats();
                let mut tripped = None;
                let mut warm_match_hits = 0;
                let mut scratch = MatchScratch::default();
                // Every worker observes the shared token; a fired token
                // stops the whole pool within one T_q.
                while !stop.load(Ordering::Relaxed) && !cfg.cancelled() {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(inst) = all.get(i) else { break };
                    // On each axis, walk down to the nearest finished
                    // ancestor; an axis with none offers nothing.
                    let ancestors: Vec<Witnesses<'_>> = strides
                        .iter()
                        .zip(inst.indices())
                        .filter_map(|(&stride, &k)| {
                            (1..=usize::from(k)).find_map(|s| {
                                let j = i - s * stride;
                                let (result, rows) = table[j].get()?;
                                debug_assert!(inst.refines(&all[j]));
                                Some(Witnesses {
                                    matches: &result.matches,
                                    rows,
                                })
                            })
                        })
                        .collect();
                    match verify_instance(cfg, measure, inst, &ancestors, &mut scratch) {
                        Ok(Verification {
                            result,
                            rows,
                            from_table,
                        }) => {
                            warm_match_hits += u64::from(from_table);
                            let slot = table[i].set((result, rows));
                            assert!(slot.is_ok(), "instance {i} claimed twice");
                        }
                        Err(e) => {
                            // A tripped budget stops the pool; the
                            // partial match set is discarded, never
                            // reported.
                            tripped = Some(e);
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                }
                (tripped, take_stats(), warm_match_hits)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("verification worker panicked"))
            .collect()
    });

    let mut budget_tripped = None;
    let mut matcher = MatcherStats::default();
    let mut warm_match_hits = 0;
    for (tripped, worker_matcher, hits) in workers {
        budget_tripped = budget_tripped.or(tripped);
        matcher.merge(worker_matcher);
        warm_match_hits += hits;
    }

    // Fold in lattice order: `Update` keeps the first representative of a
    // box it sees, so only the sequential enumeration order reproduces
    // `enum_qgen`'s archive bit-for-bit.
    let mut verified = 0;
    let mut archive = EpsParetoArchive::new(cfg.eps);
    for (inst, slot) in all.iter().zip(table) {
        if let Some((result, _rows)) = slot.into_inner() {
            verified += 1;
            if result.feasible {
                cfg.offer(&mut archive, inst, &Rc::new(result));
            }
        }
    }
    let truncated = verified < total as u64 || budget_tripped.is_some();

    let mut stats = GenStats {
        spawned: verified,
        verified,
        elapsed: start.elapsed(),
        budget_tripped,
        threads_used: threads as u64,
        warm_match_hits,
        ..GenStats::default()
    };
    stats.record_hot_path(matcher);
    Generated {
        entries: archive.entries().to_vec(),
        eps: cfg.eps,
        stats,
        anytime: Vec::new(),
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enum_qgen;
    use crate::test_support::talent_fixture;

    #[test]
    fn parallel_matches_sequential_enum() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let seq = enum_qgen(cfg, false);
        // Exact worker count: 4 shards must merge correctly even on
        // machines with fewer than 4 cores.
        let par = par_enum_qgen_exact(cfg, 4);
        // The index-ordered refold makes the archive *identical*, entry
        // for entry — same instances, same order, bit-equal objectives.
        assert_eq!(seq.entries.len(), par.entries.len());
        for (a, b) in seq.entries.iter().zip(par.entries.iter()) {
            assert_eq!(a.inst, b.inst);
            assert_eq!(
                a.objectives().delta.to_bits(),
                b.objectives().delta.to_bits()
            );
            assert_eq!(a.objectives().fcov.to_bits(), b.objectives().fcov.to_bits());
            assert_eq!(a.result.matches, b.result.matches);
        }
        assert_eq!(par.stats.threads_used, 4);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let out = par_enum_qgen(cfg, 0);
        assert_eq!(out.stats.threads_used, effective_threads(0) as u64);
        assert!(out.stats.threads_used >= 1);
        assert!(!out.entries.is_empty());
    }

    #[test]
    fn oversubscribed_requests_are_clamped_to_hardware() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let hw = effective_threads(0);
        let out = par_enum_qgen(cfg, 1024);
        assert_eq!(out.stats.threads_used, hw as u64);
        assert_eq!(effective_threads(1024), hw);
        assert_eq!(effective_threads(1), 1);
    }

    #[test]
    fn single_thread_degenerates_gracefully() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let out = par_enum_qgen(cfg, 1);
        assert!(!out.entries.is_empty());
    }

    #[test]
    fn reference_path_gives_identical_entries() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let fast = par_enum_qgen_exact(cfg, 2);
        let slow = par_enum_qgen_exact(cfg.with_reference_path(), 2);
        assert_eq!(fast.entries.len(), slow.entries.len());
        for (a, b) in fast.entries.iter().zip(slow.entries.iter()) {
            assert_eq!(a.inst, b.inst);
            assert_eq!(
                a.objectives().delta.to_bits(),
                b.objectives().delta.to_bits()
            );
            assert_eq!(a.objectives().fcov.to_bits(), b.objectives().fcov.to_bits());
        }
        // The reference path must not touch the index.
        assert_eq!(slow.stats.index_candidates, 0);
        assert!(fast.stats.index_candidates > 0 || fast.stats.scan_fallbacks > 0);
    }

    /// A verification that trips its budget leaves its table slot empty,
    /// so no later instance takes its partial match set as a pool or its
    /// rows as witnesses: whatever the pool did finish is exact. On the
    /// fixture the root costs 45 steps and lattice instance 1 more than 74
    /// whichever ancestors it sees, so every cap in between lets the root
    /// finish and trips the pool on instance 1.
    #[test]
    fn a_tripped_verification_never_serves_as_an_ancestor() {
        use crate::evaluator::Evaluator;
        use fairsqg_matcher::{BudgetKind, MatchBudget};
        let fx = talent_fixture();
        let mut exact = Evaluator::new(fx.configuration(0.3));
        for steps in [45, 60, 74] {
            let cfg = fx.configuration(0.3).with_budget(MatchBudget {
                max_steps: Some(steps),
                ..MatchBudget::UNLIMITED
            });
            let out = par_enum_qgen_exact(cfg, 2);
            assert!(out.truncated, "cap {steps}");
            assert_eq!(
                out.stats.budget_tripped.map(|b| b.kind),
                Some(BudgetKind::Steps)
            );
            assert!(
                out.stats.verified >= 1 && !out.entries.is_empty(),
                "cap {steps}"
            );
            for e in &out.entries {
                assert_eq!(
                    e.result.matches,
                    exact.verify(&e.inst).matches,
                    "cap {steps}"
                );
            }
        }
    }

    /// The archive fingerprint — instances, bit-level objectives, and
    /// match sets — is invariant across worker counts, on the default
    /// and the reference path. Regression guard for the per-worker
    /// matcher state: a memo or an adaptive re-plan firing on one shard
    /// but not another must never leak into results.
    #[test]
    fn archive_fingerprint_invariant_across_thread_counts() {
        let fx = talent_fixture();
        for reference in [false, true] {
            let cfg = fx.configuration(0.3);
            let cfg = if reference {
                cfg.with_reference_path()
            } else {
                cfg
            };
            let fingerprint = |out: &Generated| -> Vec<_> {
                out.entries
                    .iter()
                    .map(|e| {
                        (
                            e.inst.clone(),
                            e.objectives().delta.to_bits(),
                            e.objectives().fcov.to_bits(),
                            e.result.matches.clone(),
                        )
                    })
                    .collect()
            };
            let one = par_enum_qgen_exact(cfg, 1);
            let base = fingerprint(&one);
            assert!(!base.is_empty());
            for workers in [2, 4] {
                let out = par_enum_qgen_exact(cfg, workers);
                assert_eq!(
                    base,
                    fingerprint(&out),
                    "archive diverged at {workers} workers (reference={reference})"
                );
            }
        }
    }

    /// Workers read and publish one shared table concurrently: a second
    /// run under another λ takes every match set from it, and both runs'
    /// archives are the cold pool's.
    #[test]
    fn a_shared_match_table_leaves_the_pool_archive_unchanged() {
        use crate::test_support::CountingTable;
        let fx = talent_fixture();
        let table = CountingTable::default();
        for lambda in [0.5, 0.1] {
            let cfg = fx.configuration_at(0.3, lambda);
            let cold = par_enum_qgen_exact(cfg, 2);
            let warm = par_enum_qgen_exact(cfg.with_shared_matches(&table), 2);
            assert_eq!(warm.entries.len(), cold.entries.len());
            for (a, b) in warm.entries.iter().zip(&cold.entries) {
                assert_eq!(a.inst, b.inst);
                assert_eq!(
                    a.objectives().delta.to_bits(),
                    b.objectives().delta.to_bits()
                );
                assert_eq!(a.objectives().fcov.to_bits(), b.objectives().fcov.to_bits());
                assert_eq!(a.result.matches, b.result.matches);
            }
            let expected_hits = if lambda == 0.5 {
                0
            } else {
                warm.stats.verified
            };
            assert_eq!(warm.stats.warm_match_hits, expected_hits, "λ {lambda}");
        }
    }
}
