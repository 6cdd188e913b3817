//! The lattice sweep: every algorithm that verifies all of `I(Q)` —
//! `EnumQGen`, `Kungs`, `CBM`, `WSM` and their parallel form, the paper's
//! stated future-work extension ("a future topic is to study parallel
//! query generation over large graphs") — runs this one pool.
//!
//! Verification cost `T_q` varies wildly across the instance space (a
//! relaxed instance matches far more nodes than a tight one), so static
//! chunking leaves threads idle at the tail. Workers instead *claim*
//! lattice indices one at a time from a shared atomic cursor, decode each
//! into its instance, and verify it incrementally (`incVerify`) through an
//! [`Evaluator`] view over one shared verified-instance store: on every
//! axis the nearest ancestor that is already *finished* — never one still
//! in flight — gives its match set as a candidate pool and its embeddings
//! as witnesses. The store holds only what was verified. Which ancestors a
//! verification sees depends on the schedule, but its match set does not
//! (Lemma 2, and a witness certifies only what it proves).
//!
//! The calling thread is worker 0, so one worker spawns no thread and
//! claims the lattice in exactly the sequential order. After each of its
//! own verifications it folds the longest finished prefix of the store in
//! lattice order — the order `Update`'s same-box tie-breaks depend on — so
//! an archive grows as the sweep verifies and is bit-identical at any
//! worker count. Instances a budget trip or a cancellation left
//! unverified are skipped only after the join.

use crate::config::{Configuration, GenStats};
use crate::enumerate::archive_sweep;
use crate::evaluator::{Evaluator, Verification};
use crate::output::Generated;
use crate::store::Store;
use fairsqg_query::Instantiation;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Resolves a worker count that arrives from outside the program (a
/// served job, `fairsqg generate --threads`): `0` means "one per hardware
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

/// Parallel `EnumQGen`: the sweep on `workers` self-scheduling workers,
/// folded into an ε-Pareto archive identical to [`enum_qgen`]'s, as it
/// verifies. `workers` is taken literally, except that `0` means one per
/// hardware thread; [`effective_threads`] clamps a count from outside the
/// program. `GenStats::threads_used` reports the pool size.
///
/// [`enum_qgen`]: crate::enum_qgen
pub fn par_enum_qgen(cfg: Configuration<'_>, workers: usize) -> Generated {
    let workers = if workers == 0 {
        effective_threads(0)
    } else {
        workers
    };
    archive_sweep(cfg, workers, false)
}

/// Verifies all of `I(Q)` on `workers` workers (at least one: the calling
/// thread), calling `fold` on every verified instance exactly once, in
/// lattice order, on the calling thread. The run's report is returned
/// without entries: they are what the caller folds.
pub(crate) fn sweep(
    cfg: &Configuration<'_>,
    workers: usize,
    mut fold: impl FnMut(Instantiation, &Arc<Verification>),
) -> Generated {
    let start = Instant::now();
    let store = Arc::new(Store::new(*cfg));
    let size = store.lattice.size();
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let stats = Mutex::new(GenStats {
        threads_used: workers as u64,
        ..GenStats::default()
    });

    // One worker: a view over the shared store that claims and verifies
    // instances until the lattice runs out, the token fires or a
    // verification trips its budget (either stops the whole pool), calling
    // `after_each` after each of its own verifications that did not.
    let work = |after_each: &mut dyn FnMut()| {
        let mut ev = Evaluator::over(Arc::clone(&store));
        while !stop.load(Ordering::Relaxed) && !ev.should_stop() {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= size {
                break;
            }
            ev.verify_with_best_parent(&store.lattice.instance(i));
            if ev.should_stop() {
                stop.store(true, Ordering::Relaxed);
            } else {
                after_each();
            }
        }
        ev.add_to(&mut stats.lock().unwrap_or_else(PoisonError::into_inner));
    };

    let mut folded = 0;
    // Folds instance `i` if it was verified.
    let mut fold_at = |i: usize| {
        let v = store.verified.get(i)?;
        fold(store.lattice.instance(i), &v);
        Some(())
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| scope.spawn(|| work(&mut || {})))
            .collect();
        work(&mut || {
            while folded < size && fold_at(folded).is_some() {
                folded += 1;
            }
        });
        for helper in helpers {
            helper.join().expect("verification worker panicked");
        }
    });
    // Instances a trip or a cancellation left unverified are skipped only
    // now, when nothing more will be verified.
    let mut rest = store.verified.indices();
    rest.retain(|&i| i >= folded);
    rest.sort_unstable();
    for i in rest {
        fold_at(i);
    }

    let mut stats = stats.into_inner().unwrap_or_else(PoisonError::into_inner);
    stats.spawned = stats.verified;
    stats.elapsed = start.elapsed();
    Generated {
        entries: Vec::new(),
        eps: cfg.eps,
        stats,
        anytime: Vec::new(),
        truncated: store.verified.len() < size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{ArchiveDelta, ArchiveEntry, ArchiveObserver, EpsParetoArchive};
    use crate::enumerate::{enum_qgen, evaluate_universe};
    use crate::test_support::talent_fixture;
    use crate::CancelToken;
    use fairsqg_graph::NodeId;

    /// Per entry: the instance, both objectives' bits and the match set.
    fn fingerprint(entries: &[ArchiveEntry]) -> Vec<(Instantiation, u64, u64, Vec<NodeId>)> {
        entries
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
    }

    #[test]
    fn parallel_matches_sequential_enum() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let seq = enum_qgen(cfg, false);
        // The count is literal: 4 workers must merge correctly even on
        // machines with fewer than 4 cores.
        let par = par_enum_qgen(cfg, 4);
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
        let fast = par_enum_qgen(cfg, 2);
        let slow = par_enum_qgen(cfg.with_reference_path(), 2);
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
            let out = par_enum_qgen(cfg, 2);
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
                    exact.verify(&e.inst).result.matches,
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
            let one = par_enum_qgen(cfg, 1);
            let base = fingerprint(&one.entries);
            assert!(!base.is_empty());
            for workers in [2, 4] {
                let out = par_enum_qgen(cfg, workers);
                assert_eq!(
                    base,
                    fingerprint(&out.entries),
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
            let cold = par_enum_qgen(cfg, 2);
            let warm = par_enum_qgen(cfg.with_shared_matches(&table), 2);
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

    /// The sweep folds as it verifies: an observer that fires the token on
    /// the archive's first delta stops the run before the next claim, and
    /// the archive is exactly the fold of the verified prefix.
    #[test]
    fn the_sweep_folds_as_it_verifies() {
        struct CancelOnFirstDelta<'t>(&'t CancelToken);
        impl ArchiveObserver for CancelOnFirstDelta<'_> {
            fn archive_updated(&self, _delta: &ArchiveDelta) {
                self.0.cancel();
            }
        }
        type Generator = fn(Configuration<'_>) -> Generated;
        let fx = talent_fixture();
        let universe = evaluate_universe(fx.configuration(0.3)).entries;
        let runs: [(&str, Generator); 2] = [
            ("enum_qgen", |cfg| enum_qgen(cfg, false)),
            ("par_enum_qgen/1", |cfg| par_enum_qgen(cfg, 1)),
        ];
        for (name, run) in runs {
            let token = CancelToken::new();
            let observer = CancelOnFirstDelta(&token);
            let cfg = fx.configuration(0.3);
            let out = run(cfg.with_cancel(&token).with_progress(&observer));
            assert!(out.truncated, "{name}");
            assert!(out.stats.verified < universe.len() as u64, "{name}");
            let mut prefix = EpsParetoArchive::new(cfg.eps);
            for e in &universe[..out.stats.verified as usize] {
                if e.result.feasible {
                    prefix.update(&e.inst, &e.result);
                }
            }
            assert_eq!(
                fingerprint(&out.entries),
                fingerprint(prefix.entries()),
                "{name}"
            );
        }
    }
}
