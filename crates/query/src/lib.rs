//! # fairsqg-query
//!
//! Query templates, variables, instantiations, and the refinement lattice of
//! the FairSQG system (Sections II and IV of "Subgraph Query Generation with
//! Fairness and Diversity Constraints", ICDE 2022).
//!
//! A [`QueryTemplate`] carries parameterized search predicates (range
//! variables) and optional edges (Boolean edge variables). Binding every
//! variable — possibly to the wildcard `_` — yields an [`Instantiation`],
//! which materializes into a variable-free [`ConcreteQuery`] whose matches
//! in a graph the downstream crates evaluate.
//!
//! The per-variable [`RefinementDomains`] order each variable's values from
//! most relaxed to most refined, turning the paper's refinement preorder
//! into a coordinate-wise comparison of index vectors and the instance
//! lattice into simple ±1 index steps ([`InstanceLattice`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod display;
mod domain;
mod instance;
mod lattice;
mod parser;
mod template;
mod to_dsl;

pub use display::{explain_revision, render_concrete_query, render_instance, render_template};
pub use domain::{DomainConfig, DomainValue, RefinementDomains, VarDomain, VarKind};
pub use instance::{BoundLiteral, ConcreteNode, ConcreteQuery, Instantiation};
pub use lattice::{InstanceLattice, LatticeIndex};
pub use parser::{parse_template, ParseError};
pub use template::{
    ConstLiteral, QNodeId, QueryTemplate, RangeLiteral, TemplateBuilder, TemplateEdge,
    TemplateError, TemplateNode, VarId,
};
pub use to_dsl::template_to_dsl;
