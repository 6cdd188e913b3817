//! # fairsqg-measures
//!
//! Quality measures for FairSQG query instances (Section III) and the
//! machinery of Pareto optimality:
//!
//! * [`DiversityMeasure`] — max-sum result diversification `δ(q, G)`,
//! * [`coverage_score`] / [`is_feasible`] — group-coverage quality
//!   `f(q, P)` and the feasibility test,
//! * [`Objectives`] with dominance, ε-dominance, and the "boxing"
//!   coordinates that discretize the bi-objective space (Section IV),
//! * [`kung_pareto`] — Kung's algorithm for exact Pareto sets (the `Kungs`
//!   baseline of Section V),
//! * [`eps_indicator`] / [`r_indicator`] — the effectiveness indicators
//!   used throughout the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coverage;
mod diversity;
mod hypervolume;
mod indicators;
mod objectives;
mod pareto;

pub use coverage::{coverage_score, is_feasible};
pub use diversity::{DiversityConfig, DiversityMeasure, DiversityProfile, Relevance};
pub use hypervolume::{hypervolume, hypervolume_normalized};
pub use indicators::{eps_indicator, min_eps, r_indicator};
pub use objectives::{BoxCoord, Objectives};
pub use pareto::{kung_pareto, sweep_pareto};
