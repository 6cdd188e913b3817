//! # fairsqg-bench
//!
//! Experiment harness reproducing **every table and figure** of the
//! FairSQG paper's evaluation (Section V). Run via the `repro` binary:
//!
//! ```text
//! cargo run -p fairsqg-bench --release --bin repro -- all
//! cargo run -p fairsqg-bench --release --bin repro -- fig9a fig10a
//! FAIRSQG_SCALE=large cargo run -p fairsqg-bench --release --bin repro -- fig10a
//! ```
//!
//! See `DESIGN.md` for the experiment ↔ module mapping and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod case_study;
pub mod common;
pub mod export;
pub mod fig10;
pub mod fig11;
pub mod fig9;
pub mod pruning;
pub mod render;
pub mod scales;
pub mod table2;

use scales::ExpScale;

/// All experiment names accepted by the `repro` binary.
pub const EXPERIMENTS: &[&str] = &[
    "table2",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig9d",
    "fig9e",
    "fig9f",
    "fig9gh",
    "cbm",
    "fig10a",
    "fig10b",
    "fig10c",
    "fig10d",
    "fig11a",
    "fig11b",
    "case_study",
    "pruning",
    "ablation",
    "baselines",
];

/// Dispatches one experiment by name, returning its rendered report.
pub fn run_experiment(name: &str, scale: &ExpScale) -> Option<String> {
    Some(match name {
        "table2" => table2::table2(scale),
        "fig9a" => fig9::fig9a(scale),
        "fig9b" => fig9::fig9b(scale),
        "fig9c" => fig9::fig9c(scale),
        "fig9d" => fig9::fig9d(scale),
        "fig9e" => fig9::fig9e(scale),
        "fig9f" => fig9::fig9f(scale),
        "fig9gh" => fig9::fig9gh(scale),
        "cbm" => fig9::cbm_comparison(scale),
        "fig10a" => fig10::fig10a(scale),
        "fig10b" => fig10::fig10b(scale),
        "fig10c" => fig10::fig10c(scale),
        "fig10d" => fig10::fig10d(scale),
        "fig11a" => fig11::fig11a(scale),
        "fig11b" => fig11::fig11b(scale),
        "case_study" => case_study::case_study(scale),
        "pruning" => pruning::pruning(scale),
        "ablation" => ablation::ablation(scale),
        "baselines" => ablation::baselines(scale),
        _ => return None,
    })
}
