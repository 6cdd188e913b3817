//! Parallel query generation — the paper's stated future-work extension
//! ("a future topic is to study parallel query generation over large
//! graphs").
//!
//! Verification cost `T_q` varies wildly across the instance space (a
//! relaxed instance matches far more nodes than a tight one), so static
//! chunking leaves threads idle at the tail. Workers instead *claim* small
//! batches of instances from a shared atomic cursor over the
//! lexicographically enumerated space: fast workers drain whatever slow
//! ones leave behind. Workers share the graph and one diversity measure
//! immutably and collect results in private shards; the shards are merged
//! by lattice index and folded into the ε-Pareto archive in ascending
//! order — the same order the sequential fold uses, so the archive
//! (including `Update`'s order-dependent same-box tie-breaks) is
//! bit-identical to `enum_qgen`'s.

use crate::archive::EpsParetoArchive;
use crate::config::{Configuration, GenStats};
use crate::evaluator::EvalResult;
use crate::output::Generated;
use fairsqg_matcher::{
    take_stats, try_match_output_set_with, BudgetExceeded, MatchOptions, MatchScratch, MatcherStats,
};
use fairsqg_measures::{coverage_score, is_feasible, DiversityMeasure, Objectives};
use fairsqg_query::{ConcreteQuery, InstanceLattice, Instantiation};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Instances a worker claims per cursor bump — enough to amortize the
/// atomic traffic, small enough that the tail stays balanced.
const CLAIM_BATCH: usize = 8;

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

/// Verifies one instance without any cache (thread-friendly). `scratch`
/// is the worker's reusable matcher working memory.
fn verify_standalone(
    cfg: &Configuration<'_>,
    measure: &DiversityMeasure<'_>,
    inst: &Instantiation,
    scratch: &mut MatchScratch,
) -> Result<EvalResult, BudgetExceeded> {
    let query = ConcreteQuery::materialize(cfg.template, cfg.domains, inst);
    let matches = try_match_output_set_with(
        cfg.graph,
        &query,
        MatchOptions {
            restrict_output: cfg.output_restriction,
            use_index: !cfg.reference_path,
            stop: cfg.hard_stop_flag(),
            ..MatchOptions::default()
        },
        &cfg.budget,
        scratch,
    )?;
    let counts = cfg.groups.count_in_groups(&matches);
    let delta = cfg.diversity_of(measure, &matches);
    let fcov = coverage_score(&counts, cfg.spec);
    let feasible = is_feasible(&counts, cfg.spec);
    Ok(EvalResult {
        matches,
        counts,
        objectives: Objectives::new(delta, fcov),
        feasible,
    })
}

/// What one worker brings home: its result shard keyed by lattice index,
/// the budget trip that stopped it (if any), and its hot-path counters.
type Shard = (
    Vec<(usize, EvalResult)>,
    Option<BudgetExceeded>,
    MatcherStats,
);

/// Parallel `EnumQGen`: verifies the whole instance space on a pool of
/// work-stealing workers and folds the results into an ε-Pareto archive
/// identical to the sequential one. `threads` is a *request*: `0` means
/// "all hardware threads", and any count is clamped to the hardware (see
/// [`effective_threads`]); `GenStats::threads_used` reports the actual
/// pool size.
pub fn par_enum_qgen(cfg: Configuration<'_>, threads: usize) -> Generated {
    run_par_enum(cfg, effective_threads(threads))
}

/// The pool itself, taking the worker count literally. Exposed for tests
/// that must exercise multi-shard merging on machines with fewer cores
/// than shards.
#[doc(hidden)]
pub fn par_enum_qgen_exact(cfg: Configuration<'_>, workers: usize) -> Generated {
    run_par_enum(cfg, workers.max(1))
}

fn run_par_enum(cfg: Configuration<'_>, threads: usize) -> Generated {
    let start = Instant::now();
    let lat = InstanceLattice::new(cfg.domains);
    let all = lat.enumerate();
    let total = all.len();

    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    // One measure — one `O(|V|)` profile, the caller's when it brought
    // one — for the whole pool.
    let measure = cfg.diversity_measure();

    let shards: Vec<Shard> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let (cfg_ref, all_ref, cursor_ref, stop_ref) = (&cfg, &all, &cursor, &stop);
            let measure = &measure;
            handles.push(scope.spawn(move || {
                // Matcher counters are thread-local; reset them so the
                // final snapshot is exactly this worker's contribution
                // even if the closure ever runs on a reused thread.
                let _ = take_stats();
                let mut out = Vec::new();
                let mut tripped = None;
                let mut scratch = MatchScratch::default();
                'claim: while !stop_ref.load(Ordering::Relaxed) {
                    let base = cursor_ref.fetch_add(CLAIM_BATCH, Ordering::Relaxed);
                    if base >= total {
                        break;
                    }
                    let end = (base + CLAIM_BATCH).min(total);
                    for (i, inst) in (base..end).zip(&all_ref[base..end]) {
                        // Every worker observes the shared token; a fired
                        // token stops the whole pool within one T_q.
                        if cfg_ref.cancelled() || stop_ref.load(Ordering::Relaxed) {
                            break 'claim;
                        }
                        match verify_standalone(cfg_ref, measure, inst, &mut scratch) {
                            Ok(result) => out.push((i, result)),
                            Err(e) => {
                                // A tripped budget stops the pool; the
                                // partial match set is discarded, never
                                // reported.
                                tripped = Some(e);
                                stop_ref.store(true, Ordering::Relaxed);
                                break 'claim;
                            }
                        }
                    }
                }
                (out, tripped, take_stats())
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("verification worker panicked"))
            .collect()
    });

    let mut budget_tripped = None;
    let mut matcher = MatcherStats::default();
    let mut results: Vec<(usize, EvalResult)> = Vec::with_capacity(total);
    for (shard, tripped, worker_matcher) in shards {
        budget_tripped = budget_tripped.or(tripped);
        matcher.merge(worker_matcher);
        results.extend(shard);
    }

    // Refold in lattice order: `Update` keeps the first representative of
    // a box it sees, so only the sequential enumeration order reproduces
    // `enum_qgen`'s archive bit-for-bit.
    results.sort_unstable_by_key(|&(i, _)| i);
    let verified = results.len() as u64;
    let truncated = verified < total as u64 || budget_tripped.is_some();
    let mut archive = EpsParetoArchive::new(cfg.eps);
    for (i, result) in results {
        if result.feasible {
            let rc = Rc::new(result);
            cfg.offer(&mut archive, &all[i], &rc);
        }
    }

    let mut stats = GenStats {
        spawned: verified,
        verified,
        elapsed: start.elapsed(),
        budget_tripped,
        threads_used: threads as u64,
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
}
