//! # fairsqg-graph
//!
//! Attributed directed graph substrate for the FairSQG system (ICDE 2022,
//! "Subgraph Query Generation with Fairness and Diversity Constraints").
//!
//! Provides the data model of Section II: graphs `G = (V, E, L, T)` with
//! node/edge labels and per-node attribute tuples, plus the auxiliary
//! structures the generation algorithms rely on — label indexes, active
//! domains `adom(A)`, `d`-hop neighborhoods (`G_q^d`), and disjoint node
//! groups with coverage constraints.
//!
//! ```
//! use fairsqg_graph::{GraphBuilder, AttrValue};
//!
//! let mut b = GraphBuilder::new();
//! let alice = b.add_named_node("user", &[("yearsOfExp", AttrValue::Int(12))]);
//! let corp = b.add_named_node("org", &[("employees", AttrValue::Int(1500))]);
//! b.add_named_edge(alice, corp, "worksAt");
//! let g = b.finish();
//! assert_eq!(g.node_count(), 2);
//! ```

// `unsafe` is denied crate-wide; the only two modules allowed to use it
// are `seg` (owned-or-mapped segments) and `cols` (Pod impls for the
// layout-stable records), each with a narrow, documented safety contract.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cols;
mod domains;
mod graph;
mod groups;
mod ids;
mod index;
mod interner;
mod io;
mod schema;
mod seg;
mod stats;
mod value;

pub use builder::GraphBuilder;
pub use cols::{Adj, AttrEntry, PostEntry, RawVal, TAG_INT, TAG_STR};
pub use domains::ActiveDomains;
pub use graph::{Graph, GraphColumns, GraphParts, StorageFootprint};
pub use groups::{CoverageSpec, GroupSet};
pub use ids::{AttrId, EdgeLabelId, GroupId, LabelId, NodeId, SymbolId};
pub use index::{gallop_intersect, AttrIndex, NodeBitset, Postings};
pub use interner::Interner;
pub use io::{parse_tsv, read_tsv, read_tsv_path, write_tsv, IoError};
pub use schema::{Schema, SchemaFull};
pub use seg::{Pod, Segment, SegmentError, StableBytes};
pub use stats::{GraphStats, LabelStats};
pub use value::{AttrValue, CmpOp};
