//! Common output types of the generation algorithms.

use crate::archive::ArchiveEntry;
use crate::config::GenStats;

/// A point on an algorithm's anytime-quality curve: the best diversity and
/// coverage present in the maintained set after `verified` verifications
/// (drives the R-indicator convergence experiment, Fig. 9(e)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnytimePoint {
    /// Number of instances verified so far.
    pub verified: u64,
    /// Best diversity `δ*` in the maintained set.
    pub delta_star: f64,
    /// Best coverage `f*` in the maintained set.
    pub f_star: f64,
}

/// The result of a generation run.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The returned instance set (ε-Pareto set, or the exact Pareto set for
    /// the `Kungs` baseline; every verified instance, in lattice order, for
    /// [`evaluate_universe`](crate::evaluate_universe)).
    pub entries: Vec<ArchiveEntry>,
    /// The ε the set conforms to (may have grown for the online algorithm).
    pub eps: f64,
    /// Run statistics.
    pub stats: GenStats,
    /// Anytime-quality trace (one point per `Update` invocation); empty when
    /// tracing was disabled.
    pub anytime: Vec<AnytimePoint>,
    /// `true` when the run stopped early because its
    /// [`CancelToken`](crate::CancelToken) fired (deadline or explicit
    /// cancellation); `entries` is then the partial ε-Pareto archive built
    /// so far.
    pub truncated: bool,
}

impl Generated {
    /// The objective coordinates of the returned set.
    pub fn objectives(&self) -> Vec<fairsqg_measures::Objectives> {
        self.entries.iter().map(|e| e.objectives()).collect()
    }

    /// Best diversity in the returned set.
    pub fn delta_star(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.objectives().delta)
            .fold(0.0, f64::max)
    }

    /// Best coverage in the returned set.
    pub fn f_star(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.objectives().fcov)
            .fold(0.0, f64::max)
    }
}
