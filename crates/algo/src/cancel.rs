//! Cooperative cancellation and deadlines for generation runs.
//!
//! The verification cost `T_q` dominates every algorithm (Section V), so a
//! runaway template can pin a core for minutes. A [`CancelToken`] threaded
//! through [`Configuration`](crate::Configuration) lets a caller — the
//! service layer, a CLI timeout, a test — stop a run between
//! verifications: the algorithms return the partial ε-Pareto archive built
//! so far, flagged [`Generated::truncated`](crate::Generated::truncated).
//!
//! Cancellation is *cooperative*: the token is checked before each
//! verification (the unit of work), so cancellation latency is bounded by
//! one `T_q`, and the archive is never left mid-update.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cancellation token with an optional deadline.
///
/// Cheap to clone (the flag is shared); a clone observes and controls the
/// same cancellation state, while the deadline is per-token value state set
/// at construction.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Hard-stop escalation: unlike `flag` (checked *between*
    /// verifications), this is checked *inside* the matcher's backtracking
    /// loops, so it stops even a verification wedged in a long
    /// gallop/intersection. Set by the service watchdog when cooperative
    /// cancellation has not taken effect by deadline + grace.
    hard: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires unless [`cancel`](Self::cancel)ed.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that fires `budget` from now (or when cancelled, whichever
    /// comes first).
    pub fn with_deadline(budget: Duration) -> Self {
        Self {
            flag: Arc::new(AtomicBool::new(false)),
            hard: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now().checked_add(budget),
        }
    }

    /// Requests cancellation. Every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the run should stop: explicitly cancelled, or past the
    /// deadline.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Whether [`cancel`](Self::cancel) was called, ignoring the deadline.
    ///
    /// Lets a scheduler distinguish an explicit cancellation (skip the job)
    /// from a deadline that has already lapsed (still run it — the
    /// generation returns immediately with an empty archive flagged
    /// truncated, which is the contract deadline-bound callers expect).
    pub fn cancel_requested(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Remaining time until the deadline (`None` when no deadline is set).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Escalates to a **hard stop**: the matcher's inner backtracking loops
    /// poll this flag and abort the in-flight verification, so it takes
    /// effect even when the run is wedged *inside* one verification and
    /// cooperative cancellation (checked only between verifications) cannot
    /// fire. Implies [`cancel`](Self::cancel).
    pub fn hard_stop(&self) {
        self.flag.store(true, Ordering::Release);
        self.hard.store(true, Ordering::Release);
    }

    /// The shared hard-stop flag, for threading into matcher
    /// [`MatchOptions`](fairsqg_matcher::MatchOptions) inner-loop checks.
    pub fn hard_stop_flag(&self) -> &Arc<AtomicBool> {
        &self.hard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_cancellation_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled() && !c.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled() && c.is_cancelled());
    }

    #[test]
    fn hard_stop_is_shared_and_implies_cancel() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.hard_stop_flag().load(Ordering::Acquire));
        c.hard_stop();
        assert!(t.hard_stop_flag().load(Ordering::Acquire));
        assert!(t.is_cancelled() && t.cancel_requested());
    }

    #[test]
    fn deadline_fires() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.remaining().unwrap() > Duration::from_secs(3000));
    }
}
