//! `OnlineQGen` (Fig. 8): progressive maintenance of a **fixed-size**
//! ε-Pareto set over a stream of instances.
//!
//! The algorithm keeps at most `k` instances at all times and grows ε only
//! when forced (Lemma 4: growing ε preserves every established ε-dominance
//! relation). A sliding window of recently-rejected instances (`W_Q`, size
//! `w`) is kept so that, after a replacement frees archive structure, a
//! cached instance can be re-offered without increasing the set size.

use crate::archive::{ArchiveEntry, EpsParetoArchive, UpdateOutcome};
use crate::config::{Configuration, GenStats};
use crate::evaluator::{EvalResult, Evaluator, Verification};
use crate::output::Generated;
use fairsqg_query::Instantiation;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Options of the online generator.
#[derive(Debug, Clone, Copy)]
pub struct OnlineOptions {
    /// Target set size `k` (`|Q_{(ε,k)}| ≤ k` at all times).
    pub k: usize,
    /// Sliding-window capacity `w` (cached rejected instances).
    pub window: usize,
    /// Initial tolerance `ε_m > 0`.
    pub initial_eps: f64,
}

impl Default for OnlineOptions {
    fn default() -> Self {
        Self {
            k: 10,
            window: 40,
            initial_eps: 0.01,
        }
    }
}

/// One point of the ε-trajectory: after processing instance `t`, the
/// maintained ε and set size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsTrace {
    /// Stream position (1-based count of processed instances).
    pub t: u64,
    /// Maintained tolerance.
    pub eps: f64,
    /// Maintained set size.
    pub len: usize,
}

/// Incremental state of `OnlineQGen`.
pub struct OnlineQGen<'a> {
    evaluator: Evaluator<'a>,
    archive: EpsParetoArchive,
    options: OnlineOptions,
    /// `W_Q`: (timestamp, instance, result) of cached rejected instances.
    window: VecDeque<(u64, Instantiation, Arc<Verification>)>,
    t: u64,
    trace: Vec<EpsTrace>,
}

impl<'a> OnlineQGen<'a> {
    /// Creates the online generator.
    pub fn new(cfg: Configuration<'a>, options: OnlineOptions) -> Self {
        assert!(options.k > 0, "k must be positive");
        assert!(
            options.initial_eps > 0.0,
            "initial epsilon must be positive"
        );
        Self {
            evaluator: Evaluator::new(cfg),
            archive: EpsParetoArchive::new(options.initial_eps),
            options,
            window: VecDeque::new(),
            t: 0,
            trace: Vec::new(),
        }
    }

    /// Current tolerance ε.
    pub fn eps(&self) -> f64 {
        self.archive.eps()
    }

    /// Current maintained set (`|set| ≤ k`).
    pub fn current(&self) -> &[ArchiveEntry] {
        self.archive.entries()
    }

    /// ε/size trajectory, one point per processed instance.
    pub fn trace(&self) -> &[EpsTrace] {
        &self.trace
    }

    /// Number of instances processed so far.
    pub fn processed(&self) -> u64 {
        self.t
    }

    /// Processes the next streamed instance.
    pub fn push(&mut self, inst: &Instantiation) {
        self.t += 1;
        // Verify q (the per-instance delay is dominated by this step).
        let result = self.evaluator.verify(inst);

        // Expire window entries older than w timestamps.
        let horizon = self.t.saturating_sub(self.options.window as u64);
        while let Some(&(ts, _, _)) = self.window.front() {
            if ts < horizon {
                self.window.pop_front();
            } else {
                break;
            }
        }

        if result.result.feasible {
            self.offer(inst.clone(), result);
        }
        self.trace.push(EpsTrace {
            t: self.t,
            eps: self.archive.eps(),
            len: self.archive.len(),
        });
    }

    /// Offers a feasible instance to the size-capped archive.
    fn offer(&mut self, inst: Instantiation, result: Arc<Verification>) {
        if self.archive.len() < self.options.k {
            let outcome = self.archive.update(&inst, &result.result);
            if !outcome.accepted() {
                self.cache(inst, result);
            }
            return;
        }

        // |Q| = k. Cases (1)/(2) of Update replace without growth; apply
        // directly. Case (3) would grow past k: grow ε via the nearest
        // neighbor's distance, which merges boxes and makes room.
        let outcome = self.archive.update(&inst, &result.result);
        match outcome {
            UpdateOutcome::ReplacedBoxes(_)
            | UpdateOutcome::ReplacedInstance
            | UpdateOutcome::KeptIncumbent
            | UpdateOutcome::Rejected => {
                if !outcome.accepted() {
                    self.cache(inst, result);
                }
                // ReplacedBoxes may have *shrunk* the set; try cached
                // instances to refill for free.
                self.refill_from_window();
            }
            UpdateOutcome::AddedNewBox => {
                // Now len = k + 1: enlarge ε to the distance between the
                // new instance and its nearest neighbor, rescale, and keep
                // growing geometrically until the size bound holds again.
                let mut eps = self
                    .nearest_neighbor_distance(&result.result)
                    .max(self.archive.eps());
                loop {
                    // Strictly grow to guarantee progress.
                    eps = (eps * 1.25).max(self.archive.eps() * 1.25);
                    self.archive.rescale(eps);
                    if self.archive.len() <= self.options.k {
                        break;
                    }
                }
                self.refill_from_window();
            }
        }
    }

    /// Euclidean distance in the (δ, f) plane between `q` and its nearest
    /// archived neighbor, expressed as a relative ε (the paper's line 16).
    fn nearest_neighbor_distance(&self, result: &EvalResult) -> f64 {
        let o = result.objectives;
        self.archive
            .entries()
            .iter()
            .filter(|e| e.result.objectives != o)
            .map(|e| {
                let eo = e.objectives();
                let dd = (eo.delta - o.delta).abs() / (1.0 + o.delta.max(eo.delta));
                let df = (eo.fcov - o.fcov).abs() / (1.0 + o.fcov.max(eo.fcov));
                (dd * dd + df * df).sqrt()
            })
            .fold(f64::INFINITY, f64::min)
            .min(1.0) // cap: a single step never explodes ε
    }

    /// Lines 18–20: re-offer cached instances that can now join without
    /// growing the set past `k`.
    fn refill_from_window(&mut self) {
        let mut kept = VecDeque::new();
        while let Some((ts, inst, result)) = self.window.pop_front() {
            if self.archive.len() >= self.options.k {
                kept.push_back((ts, inst, result));
                continue;
            }
            let outcome = self.archive.update(&inst, &result.result);
            if !outcome.accepted() {
                kept.push_back((ts, inst, result));
            }
        }
        self.window = kept;
    }

    fn cache(&mut self, inst: Instantiation, result: Arc<Verification>) {
        if self.options.window == 0 {
            return;
        }
        if self.window.len() >= self.options.window {
            self.window.pop_front();
        }
        self.window.push_back((self.t, inst, result));
    }

    /// Whether a verification tripped the configuration's resource budget
    /// (the stream should stop feeding this generator).
    pub fn should_stop(&self) -> bool {
        self.evaluator.should_stop()
    }

    /// Finalizes the run into a [`Generated`] report.
    pub fn finish(self, started: Instant) -> Generated {
        let mut stats = GenStats {
            spawned: self.t,
            elapsed: started.elapsed(),
            threads_used: 1,
            ..GenStats::default()
        };
        self.evaluator.add_to(&mut stats);
        Generated {
            entries: self.archive.entries().to_vec(),
            eps: self.archive.eps(),
            stats,
            anytime: Vec::new(),
            truncated: stats.budget_tripped.is_some(),
        }
    }
}

/// Convenience driver: runs `OnlineQGen` over a finite stream.
pub fn online_qgen<I>(
    cfg: Configuration<'_>,
    options: OnlineOptions,
    stream: I,
) -> (Generated, Vec<EpsTrace>)
where
    I: IntoIterator<Item = Instantiation>,
{
    let start = Instant::now();
    let mut gen = OnlineQGen::new(cfg, options);
    let mut truncated = false;
    for inst in stream {
        if cfg.cancelled() || gen.should_stop() {
            truncated = true;
            break;
        }
        gen.push(&inst);
    }
    let trace = gen.trace().to_vec();
    let mut out = gen.finish(start);
    out.truncated |= truncated;
    (out, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::ShuffledStream;
    use crate::test_support::talent_fixture;

    #[test]
    fn size_never_exceeds_k() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let opts = OnlineOptions {
            k: 3,
            window: 5,
            initial_eps: 0.05,
        };
        let stream = ShuffledStream::new(fx.domains(), 42);
        let (out, trace) = online_qgen(cfg, opts, stream);
        assert!(out.entries.len() <= 3);
        assert!(trace.iter().all(|p| p.len <= 3));
        assert!(!out.entries.is_empty());
    }

    #[test]
    fn eps_is_monotone_nondecreasing() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let opts = OnlineOptions {
            k: 2,
            window: 4,
            initial_eps: 0.01,
        };
        let stream = ShuffledStream::new(fx.domains(), 7);
        let (_, trace) = online_qgen(cfg, opts, stream);
        for w in trace.windows(2) {
            assert!(w[1].eps >= w[0].eps, "epsilon must never shrink (Lemma 4)");
        }
    }

    #[test]
    fn larger_k_needs_smaller_eps() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let run = |k: usize| {
            let stream = ShuffledStream::new(fx.domains(), 99);
            let (out, _) = online_qgen(
                cfg,
                OnlineOptions {
                    k,
                    window: 10,
                    initial_eps: 0.01,
                },
                stream,
            );
            out.eps
        };
        let eps_small_k = run(2);
        let eps_large_k = run(16);
        assert!(
            eps_large_k <= eps_small_k + 1e-12,
            "larger k should not require a larger epsilon ({eps_large_k} vs {eps_small_k})"
        );
    }

    #[test]
    fn final_set_members_are_feasible() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let stream = ShuffledStream::new(fx.domains(), 1);
        let (out, _) = online_qgen(cfg, OnlineOptions::default(), stream);
        assert!(out.entries.iter().all(|e| e.result.feasible));
    }

    #[test]
    fn window_zero_disables_caching() {
        let fx = talent_fixture();
        let cfg = fx.configuration(0.3);
        let stream = ShuffledStream::new(fx.domains(), 5);
        let (out, _) = online_qgen(
            cfg,
            OnlineOptions {
                k: 4,
                window: 0,
                initial_eps: 0.05,
            },
            stream,
        );
        assert!(out.entries.len() <= 4);
    }
}
