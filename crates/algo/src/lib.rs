//! # fairsqg-algo
//!
//! The FairSQG query-generation algorithms (Section IV of "Subgraph Query
//! Generation with Fairness and Diversity Constraints", ICDE 2022):
//!
//! * [`enum_qgen`] — the naive enumeration baseline (`EnumQGen`),
//! * [`kungs`] — exact Pareto sets via Kung's algorithm (`Kungs`),
//! * [`cbm`] — the ε-constraint bi-objective baseline (`CBM`, \[10\]),
//! * [`wsm`] — the weighted-sum scalarization baseline (\[23\]),
//! * [`rfqgen`] — depth-first "refine as always" generation with template
//!   refinement and infeasibility pruning (`RfQGen`),
//! * [`biqgen`] — bi-directional generation with "sandwich" pruning
//!   (`BiQGen`),
//! * [`OnlineQGen`] — fixed-size ε-Pareto maintenance over instance streams
//!   (`OnlineQGen`),
//! * [`par_enum_qgen`] — parallel verification (the paper's future-work
//!   extension).
//!
//! Every verification goes through one verified-instance store keyed by
//! lattice index, with one nearest-ancestor walk (`incVerify`); an
//! [`Evaluator`] is a per-run view over it. `EnumQGen`, `Kungs`, `CBM`,
//! `WSM` and the parallel pool fold one lattice sweep (`parallel.rs`, one
//! worker for the sequential ones) whose workers share a store; RfQGen,
//! BiQGen and OnlineQGen verify through a view of their own. Every
//! algorithm updates the [`EpsParetoArchive`] implementing procedure
//! `Update` (Fig. 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod archive;
mod biqgen;
mod cancel;
mod cbm;
mod config;
mod enumerate;
mod evaluator;
mod online;
mod output;
mod parallel;
mod rfqgen;
mod spawn;
mod store;
mod stream;
mod wsm;

#[cfg(test)]
pub(crate) mod test_support;

pub use archive::{ArchiveDelta, ArchiveEntry, ArchiveObserver, EpsParetoArchive, UpdateOutcome};
pub use biqgen::{biqgen, BiQGenOptions};
pub use cancel::CancelToken;
pub use cbm::{cbm, CbmOptions};
pub use config::{Configuration, GenStats};
pub use enumerate::{enum_qgen, evaluate_universe, kungs};
pub use evaluator::{EvalResult, Evaluator, MatchRecord, MatchTable, SpawnStep, Verification};
pub use fairsqg_matcher::{BudgetExceeded, BudgetKind, MatchBudget};
pub use online::{online_qgen, EpsTrace, OnlineOptions, OnlineQGen};
pub use output::{AnytimePoint, Generated};
pub use parallel::{effective_threads, par_enum_qgen};
pub use rfqgen::{rfqgen, RfQGenOptions};
pub use spawn::{plain_refinements, spawn_refinements, spawn_relaxations, SpawnOptions};
pub use store::LatticeTable;
pub use stream::{RandomStream, ShuffledStream};
pub use wsm::{wsm, WsmOptions};
