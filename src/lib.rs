//! # fairsqg
//!
//! A Rust implementation of **FairSQG** — *Subgraph Query Generation with
//! Fairness and Diversity Constraints* (Ma, Guan, Wang, Chang, Wu;
//! ICDE 2022).
//!
//! Given an attributed graph `G`, a query template `Q(u_o)` with range and
//! edge variables, and disjoint node groups with coverage constraints,
//! FairSQG computes a small, representative **ε-Pareto set** of query
//! instances that trade off answer *diversity* against *group coverage*.
//!
//! This crate re-exports the full workspace and adds a one-stop façade,
//! [`FairSqg`]:
//!
//! ```
//! use fairsqg::prelude::*;
//!
//! // A toy professional network.
//! let mut b = GraphBuilder::new();
//! let mut people = Vec::new();
//! for i in 0..8i64 {
//!     people.push(b.add_named_node(
//!         "director",
//!         &[("gender", AttrValue::Int(i % 2)), ("major", AttrValue::Int(i % 3))],
//!     ));
//! }
//! for i in 0..4i64 {
//!     let u = b.add_named_node("user", &[("yearsOfExp", AttrValue::Int(5 * i))]);
//!     for j in 0..4usize {
//!         b.add_named_edge(u, people[(i as usize + j * 2) % 8], "recommend");
//!     }
//! }
//! let graph = b.finish();
//!
//! // Template: director u0 <-recommend- user u1 (yearsOfExp >= x).
//! let s = graph.schema();
//! let mut tb = TemplateBuilder::new();
//! let u0 = tb.node(s.find_node_label("director").unwrap());
//! let u1 = tb.node(s.find_node_label("user").unwrap());
//! tb.edge(u1, u0, s.find_edge_label("recommend").unwrap());
//! tb.range_literal(u1, s.find_attr("yearsOfExp").unwrap(), CmpOp::Ge);
//! let template = tb.finish(u0).unwrap();
//!
//! // Gender groups, two matches required per group.
//! let gender = s.find_attr("gender").unwrap();
//! let groups = GroupSet::by_attribute(&graph, gender, &[AttrValue::Int(0), AttrValue::Int(1)]);
//! let spec = CoverageSpec::equal_opportunity(2, 2);
//!
//! let fair = FairSqg::new(&graph).epsilon(0.2);
//! let result = fair.generate(&template, &groups, &spec, Algorithm::BiQGen);
//! assert!(!result.entries.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fairsqg_algo as algo;
pub use fairsqg_datagen as datagen;
pub use fairsqg_faults as faults;
pub use fairsqg_graph as graph;
pub use fairsqg_matcher as matcher;
pub use fairsqg_measures as measures;
pub use fairsqg_query as query;
pub use fairsqg_service as service;
pub use fairsqg_store as store;
pub use fairsqg_wire as wire;

use fairsqg_algo::{
    biqgen, cbm, enum_qgen, kungs, rfqgen, BiQGenOptions, CancelToken, CbmOptions, Configuration,
    Generated, RfQGenOptions,
};
use fairsqg_graph::{CoverageSpec, Graph, GroupSet};
use fairsqg_measures::DiversityConfig;
use fairsqg_query::{DomainConfig, QueryTemplate, RefinementDomains};

/// Algorithm selector for [`FairSqg::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Naive enumeration with `Update` (baseline).
    EnumQGen,
    /// Exact Pareto set via Kung's algorithm (baseline).
    Kungs,
    /// ε-constraint bi-objective baseline.
    Cbm,
    /// Depth-first refinement with pruning (recommended for diversity-first
    /// convergence).
    RfQGen,
    /// Bi-directional generation with sandwich pruning (recommended
    /// default; fastest, balanced convergence).
    BiQGen,
}

/// High-level façade: configure once, generate ε-Pareto query sets.
pub struct FairSqg<'g> {
    graph: &'g Graph,
    eps: f64,
    diversity: DiversityConfig,
    domain_config: DomainConfig,
    output_restriction: Option<Vec<fairsqg_graph::NodeId>>,
}

impl<'g> FairSqg<'g> {
    /// Creates a façade over a graph with the paper's default settings
    /// (`ε = 0.01`, `λ = 0.5`).
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            eps: 0.01,
            diversity: DiversityConfig::default(),
            domain_config: DomainConfig::default(),
            output_restriction: None,
        }
    }

    /// Restricts the output population: only these nodes may appear in any
    /// suggested query's answer — a way to layer constraints the template
    /// language cannot express (sorted/deduplicated internally).
    pub fn restrict_output(mut self, mut pool: Vec<fairsqg_graph::NodeId>) -> Self {
        pool.sort_unstable();
        pool.dedup();
        self.output_restriction = Some(pool);
        self
    }

    /// Sets the ε-dominance tolerance.
    pub fn epsilon(mut self, eps: f64) -> Self {
        assert!(eps > 0.0, "epsilon must be positive");
        self.eps = eps;
        self
    }

    /// Sets the diversity-measure configuration (λ, relevance).
    pub fn diversity(mut self, config: DiversityConfig) -> Self {
        self.diversity = config;
        self
    }

    /// Sets the refinement-domain construction config (value caps).
    pub fn domain_config(mut self, config: DomainConfig) -> Self {
        self.domain_config = config;
        self
    }

    /// Builds the refinement domains the façade would use for a template.
    pub fn domains_for(&self, template: &QueryTemplate) -> RefinementDomains {
        RefinementDomains::build(template, self.graph, self.domain_config)
    }

    /// Generates an ε-Pareto instance set for `template` under the group
    /// coverage constraints, using `algorithm`.
    pub fn generate(
        &self,
        template: &QueryTemplate,
        groups: &GroupSet,
        spec: &CoverageSpec,
        algorithm: Algorithm,
    ) -> Generated {
        self.generate_inner(template, groups, spec, algorithm, None)
    }

    /// Like [`generate`](Self::generate), but observing a cancellation /
    /// deadline token: when it fires, the returned set is the partial
    /// archive built so far, flagged [`Generated::truncated`].
    pub fn generate_cancellable(
        &self,
        template: &QueryTemplate,
        groups: &GroupSet,
        spec: &CoverageSpec,
        algorithm: Algorithm,
        cancel: &CancelToken,
    ) -> Generated {
        self.generate_inner(template, groups, spec, algorithm, Some(cancel))
    }

    fn generate_inner(
        &self,
        template: &QueryTemplate,
        groups: &GroupSet,
        spec: &CoverageSpec,
        algorithm: Algorithm,
        cancel: Option<&CancelToken>,
    ) -> Generated {
        let domains = self.domains_for(template);
        // The matcher requires restriction pools to be label-homogeneous
        // with the template's output node; user pools may contain
        // anything, so drop foreign-label nodes here —
        // they could never be output matches anyway.
        let sanitized: Option<Vec<fairsqg_graph::NodeId>> =
            self.output_restriction.as_ref().map(|pool| {
                pool.iter()
                    .copied()
                    .filter(|&v| self.graph.label(v) == template.output_label())
                    .collect()
            });
        let mut cfg = Configuration::new(
            self.graph,
            template,
            &domains,
            groups,
            spec,
            self.eps,
            self.diversity,
        );
        if let Some(pool) = &sanitized {
            cfg = cfg.with_output_restriction(pool);
        }
        if let Some(token) = cancel {
            cfg = cfg.with_cancel(token);
        }
        match algorithm {
            Algorithm::EnumQGen => enum_qgen(cfg, false),
            Algorithm::Kungs => kungs(cfg),
            Algorithm::Cbm => cbm(cfg, CbmOptions::default()),
            Algorithm::RfQGen => rfqgen(cfg, RfQGenOptions::default()),
            Algorithm::BiQGen => biqgen(cfg, BiQGenOptions::default()),
        }
    }
}

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::{Algorithm, FairSqg};
    pub use fairsqg_algo::{
        biqgen, cbm, enum_qgen, kungs, online_qgen, rfqgen, BiQGenOptions, CancelToken, CbmOptions,
        Configuration, EvalResult, Evaluator, GenStats, Generated, OnlineOptions, OnlineQGen,
        RfQGenOptions, ShuffledStream,
    };
    pub use fairsqg_graph::{
        AttrValue, CmpOp, CoverageSpec, Graph, GraphBuilder, GroupId, GroupSet, NodeId,
    };
    pub use fairsqg_measures::{
        coverage_score, eps_indicator, is_feasible, kung_pareto, min_eps, r_indicator,
        DiversityConfig, DiversityMeasure, Objectives, Relevance,
    };
    pub use fairsqg_query::{
        ConcreteQuery, DomainConfig, Instantiation, QueryTemplate, RefinementDomains,
        TemplateBuilder,
    };
}
