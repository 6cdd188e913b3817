//! # fairsqg-datagen
//!
//! Synthetic datasets and workload generation for the FairSQG evaluation
//! (Section V). Three seeded generators stand in for the paper's real-life
//! graphs — see `DESIGN.md` for the substitution rationale:
//!
//! * [`movies_graph`] — DBP-like movie knowledge graph (genre groups),
//! * [`social_graph`] — LKI-like professional network (gender groups),
//! * [`citations_graph`] — Cite-like citation graph (topic groups),
//!
//! plus a template generator ([`generate_template`]) controlled by
//! `|Q(u_o)|`, `|X_L|`, `|X_E|`, and topology, and end-to-end workload
//! presets ([`workload`]) that reproduce the experiment settings of
//! Table II with feasibility-checked templates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod citations;
mod movies;
mod presets;
mod social;
mod stream;
mod templates;
mod util;

pub use citations::{citations_graph, topic_groups, CitationsConfig, TOPICS};
pub use movies::{genre_groups, movies_graph, MoviesConfig, COUNTRIES, GENRES};
pub use presets::{workload, CoverageMode, DatasetKind, Workload, WorkloadParams};
pub use social::{gender_groups, social_graph, SocialConfig, MAJORS};
pub use stream::{stream_tsv, stream_tsv_to_path, StreamStats};
pub use templates::{generate_template, generate_template_with_retry, TemplateSpec, Topology};
pub use util::{log_uniform, zipf_approx};
