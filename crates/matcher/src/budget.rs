//! Resource budgets for one match-set computation.
//!
//! Subgraph isomorphism is NP-hard; one adversarial template can pin a
//! core or exhaust memory long before any wall-clock deadline check runs.
//! A [`MatchBudget`] caps the three quantities that grow without bound —
//! candidate-set size, backtracking steps, and emitted matches — and trips
//! a structured [`BudgetExceeded`] instead, letting callers degrade to a
//! partial, `truncated`-flagged result.

use std::fmt;

/// Caps applied to a single verification (all `None` = unlimited).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchBudget {
    /// Maximum size of any per-query-node candidate set.
    pub max_candidates: Option<u64>,
    /// Maximum units of matching work: backtracking extension steps
    /// (candidate nodes tried) plus candidate-set construction (one
    /// unit per candidate kept), so a query whose cost is dominated by
    /// giant candidate spaces trips the cap even before enumeration
    /// starts.
    pub max_steps: Option<u64>,
    /// Maximum output matches emitted.
    pub max_matches: Option<u64>,
}

impl MatchBudget {
    /// A budget with no caps.
    pub const UNLIMITED: MatchBudget = MatchBudget {
        max_candidates: None,
        max_steps: None,
        max_matches: None,
    };

    /// Whether any cap is set.
    pub fn is_limited(&self) -> bool {
        self.max_candidates.is_some() || self.max_steps.is_some() || self.max_matches.is_some()
    }

    /// Field-wise: this budget's caps, falling back to `default` where
    /// unset. Used by the service to merge per-job caps over engine
    /// defaults.
    pub fn or(&self, default: &MatchBudget) -> MatchBudget {
        MatchBudget {
            max_candidates: self.max_candidates.or(default.max_candidates),
            max_steps: self.max_steps.or(default.max_steps),
            max_matches: self.max_matches.or(default.max_matches),
        }
    }

    /// Field-wise: the tighter of this budget's caps and `caps` — on each
    /// axis a set cap wins over an unset one, and when both are set the
    /// smaller applies. Used by the service's brownout controller, which
    /// may only ever *shrink* the resources a job runs with.
    pub fn tighten(&self, caps: &MatchBudget) -> MatchBudget {
        fn axis(a: Option<u64>, b: Option<u64>) -> Option<u64> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        MatchBudget {
            max_candidates: axis(self.max_candidates, caps.max_candidates),
            max_steps: axis(self.max_steps, caps.max_steps),
            max_matches: axis(self.max_matches, caps.max_matches),
        }
    }
}

/// Which cap a verification tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// A candidate set exceeded `max_candidates`.
    Candidates,
    /// The backtracking search exceeded `max_steps`.
    Steps,
    /// The match set exceeded `max_matches`.
    Matches,
    /// An external hard-stop flag ([`MatchOptions::stop`]
    /// (crate::MatchOptions::stop)) fired mid-search — e.g. a watchdog
    /// escalating past cooperative cancellation.
    HardStop,
}

impl BudgetKind {
    /// The wire/stats name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Candidates => "max_candidates",
            Self::Steps => "max_steps",
            Self::Matches => "max_matches",
            Self::HardStop => "hard_stop",
        }
    }
}

/// A verification stopped because a [`MatchBudget`] cap was reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The cap that tripped.
    pub kind: BudgetKind,
    /// Its configured limit.
    pub limit: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kind == BudgetKind::HardStop {
            return write!(f, "verification hard-stopped mid-search");
        }
        write!(
            f,
            "verification budget exceeded: {} > {}",
            self.kind.name(),
            self.limit
        )
    }
}

impl std::error::Error for BudgetExceeded {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_prefers_specific_caps() {
        let default = MatchBudget {
            max_candidates: Some(100),
            max_steps: Some(1000),
            max_matches: None,
        };
        let specific = MatchBudget {
            max_steps: Some(10),
            ..MatchBudget::default()
        };
        let merged = specific.or(&default);
        assert_eq!(merged.max_candidates, Some(100));
        assert_eq!(merged.max_steps, Some(10));
        assert_eq!(merged.max_matches, None);
        assert!(merged.is_limited());
        assert!(!MatchBudget::UNLIMITED.is_limited());
    }

    #[test]
    fn tighten_takes_the_smaller_cap_per_axis() {
        let merged = MatchBudget {
            max_candidates: Some(100),
            max_steps: None,
            max_matches: Some(5),
        };
        let brownout = MatchBudget {
            max_candidates: Some(50),
            max_steps: Some(1000),
            max_matches: Some(500),
        };
        let tight = merged.tighten(&brownout);
        assert_eq!(tight.max_candidates, Some(50), "both set: min wins");
        assert_eq!(tight.max_steps, Some(1000), "unset axis picks up the cap");
        assert_eq!(tight.max_matches, Some(5), "an already-tighter cap stays");
        // Tightening with UNLIMITED is the identity.
        assert_eq!(merged.tighten(&MatchBudget::UNLIMITED), merged);
    }

    #[test]
    fn display_names_the_cap() {
        let e = BudgetExceeded {
            kind: BudgetKind::Steps,
            limit: 42,
        };
        assert!(e.to_string().contains("max_steps"));
        assert!(e.to_string().contains("42"));
    }
}
