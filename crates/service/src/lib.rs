//! # fairsqg-service
//!
//! A concurrent query-generation service over the FairSQG algorithms:
//!
//! * [`GraphRegistry`] — named graphs loaded once, shared immutably via
//!   `Arc`, with per-name epochs for cache invalidation on reload;
//! * [`Engine`] — a fixed worker pool over a bounded queue with explicit
//!   admission control ([`SubmitError::Overloaded`]), per-job deadlines
//!   and cooperative cancellation (partial results come back flagged
//!   `truncated`), and a cross-request LRU result cache keyed by
//!   `(graph epoch, template text, parameters)`;
//! * [`MuxServer`] — a newline-delimited JSON TCP wire surface
//!   (`submit`/`status`/`result`/`cancel`/`stats`/`graphs`/`shutdown`)
//!   served by one readiness-driven event loop (Linux only; see [`mux`]),
//!   with [`proto`] holding the protocol table and error codes;
//! * [`MuxClient`] — the client: many `rid`-tagged requests and streaming
//!   subscriptions on one connection, shared across threads, with
//!   connect retry, reconnect and idempotent replay ([`RetryPolicy`]).
//!
//! ```
//! use fairsqg_service::{Engine, EngineConfig, GraphRegistry, JobSpec, AlgoKind, JobState};
//! use fairsqg_datagen::{social_graph, SocialConfig};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(GraphRegistry::new());
//! registry.insert("talent", social_graph(SocialConfig {
//!     directors: 60, majority_share: 0.6, seed: 5,
//! }));
//! let engine = Engine::start(Arc::clone(&registry), EngineConfig::default());
//! let id = engine.submit(JobSpec {
//!     graph: "talent".into(),
//!     template: "node u0 : director\nnode u1 : user\n\
//!                edge u1 -recommend-> u0\nwhere u1.yearsOfExp >= ?\noutput u0\n".into(),
//!     group_attr: "gender".into(),
//!     cover: 5,
//!     algo: AlgoKind::BiQGen,
//!     threads: 0,
//!     eps: 0.1,
//!     lambda: 0.5,
//!     deadline_ms: None,
//!     budget: fairsqg_algo::MatchBudget::UNLIMITED,
//!     request_key: None,
//!     priority: fairsqg_service::job::DEFAULT_PRIORITY,
//!     client: None,
//!     subscribe: false,
//! }).unwrap();
//! while engine.status(id).unwrap().state != JobState::Done {
//!     std::thread::yield_now();
//! }
//! assert!(engine.result(id).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
pub mod job;
#[cfg(unix)]
pub mod mux;
mod mux_client;
pub mod overload;
pub mod proto;
mod registry;
mod sched;
pub mod sync;
pub mod warm;

pub use cache::{CacheStats, LruCache};
pub use engine::{
    Added, Engine, EngineConfig, EventSink, JobEvent, JobResult, JobState, JobStatus, SubmitError,
};
pub use job::{
    diversity_for_spec, entry_bindings, entry_to_value, generated_to_value,
    generated_to_value_with, plan_key, plan_spec, plan_spec_cached, run_plan, run_plan_observed,
    run_plan_shared, AlgoKind, BrownoutMark, JobSpec, Plan, DEFAULT_PRIORITY, MAX_PRIORITY,
};
#[cfg(unix)]
pub use mux::{spawn_mux, spawn_mux_with, MuxOptions, MuxServer, MuxStopHandle};
pub use mux_client::{ClientError, MuxClient, RetryPolicy, StreamedResult, Subscription};
pub use overload::{
    BrownoutConfig, Ewma, PressureController, PressureInputs, PressureLevel, ServiceModel,
};
pub use registry::{
    GraphEntry, GraphRegistry, LoadError, LoadKind, ManifestReport, RegistryStats, WarmPoolStats,
};
pub use warm::{WarmCounters, WarmPlan, WarmState};
