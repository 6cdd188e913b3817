//! Experiment scales.
//!
//! The paper runs on graphs with 1M–4.9M nodes; the harness defaults to a
//! laptop-friendly scale that preserves every qualitative trend and can be
//! raised through the `FAIRSQG_SCALE` environment variable (`small`,
//! `medium`, `large`, `paper`, or a plain multiplier like `4x`).

/// Output-label population per dataset.
#[derive(Debug, Clone, Copy)]
pub struct ExpScale {
    /// DBP movies.
    pub dbp: usize,
    /// LKI directors.
    pub lki: usize,
    /// Cite papers.
    pub cite: usize,
}

impl ExpScale {
    /// Small (CI-friendly) scale.
    pub const SMALL: ExpScale = ExpScale {
        dbp: 800,
        lki: 600,
        cite: 700,
    };
    /// Default experiment scale.
    pub const MEDIUM: ExpScale = ExpScale {
        dbp: 2000,
        lki: 1500,
        cite: 1600,
    };
    /// Large scale (minutes per experiment).
    pub const LARGE: ExpScale = ExpScale {
        dbp: 20_000,
        lki: 15_000,
        cite: 16_000,
    };
    /// Paper-order scale (total graph sizes in the millions; slow).
    pub const PAPER: ExpScale = ExpScale {
        dbp: 250_000,
        lki: 400_000,
        cite: 500_000,
    };

    /// Reads the scale from `FAIRSQG_SCALE` (default: medium).
    pub fn from_env() -> ExpScale {
        match std::env::var("FAIRSQG_SCALE").ok().as_deref() {
            Some("small") => Self::SMALL,
            Some("medium") | None => Self::MEDIUM,
            Some("large") => Self::LARGE,
            Some("paper") => Self::PAPER,
            Some(other) => {
                if let Some(mult) = other
                    .strip_suffix('x')
                    .and_then(|m| m.parse::<usize>().ok())
                {
                    ExpScale {
                        dbp: Self::MEDIUM.dbp * mult,
                        lki: Self::MEDIUM.lki * mult,
                        cite: Self::MEDIUM.cite * mult,
                    }
                } else {
                    Self::MEDIUM
                }
            }
        }
    }
}
