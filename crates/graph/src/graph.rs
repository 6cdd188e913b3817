//! The attributed directed graph `G = (V, E, L, T)` (Section II of the
//! paper) with CSR adjacency, a label index, and active domains.

use crate::cols::{Adj, AttrEntry};
use crate::domains::ActiveDomains;
use crate::ids::{AttrId, EdgeLabelId, LabelId, NodeId};
use crate::index::AttrIndex;
use crate::schema::Schema;
use crate::seg::Segment;
use crate::value::AttrValue;

/// Allocates a fresh process-unique graph uid (see [`Graph::uid`]).
fn next_uid() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_UID: AtomicU64 = AtomicU64::new(1);
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

/// An immutable attributed directed graph.
///
/// Built through [`GraphBuilder`](crate::GraphBuilder) or loaded from an
/// `.fsg` container; both end in [`Graph::from_parts`]. The graph
/// exposes:
///
/// * CSR out/in adjacency with edge labels (`O(log deg)` edge lookups),
/// * a node-label index (`V(u_o)` in the paper: all nodes with a label),
/// * per-`(label, attribute)` **active domains** — the sorted distinct values
///   an attribute takes over nodes of a label, read off the postings, which
///   parameterize the refinement domains of range variables,
/// * per-`(label, attribute)` sorted value postings for indexed
///   range-literal evaluation,
/// * `d`-hop neighborhood extraction used by template refinement (Spawn).
///
/// Every large array is a [`Segment`]: owned heap for built graphs,
/// zero-copy views into a shared (typically memory-mapped) buffer for
/// stored graphs. The accessor surface is identical either way.
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) schema: Schema,
    pub(crate) node_labels: Segment<LabelId>,
    /// Prefix offsets into `attr_entries`, length `n + 1`.
    pub(crate) attr_offsets: Segment<u32>,
    /// Per-node attribute runs `T(v)`, each sorted by attribute id.
    pub(crate) attr_entries: Segment<AttrEntry>,
    pub(crate) out_offsets: Segment<u32>,
    /// Out-neighbors, per source sorted by `(target, edge label)`.
    pub(crate) out_adj: Segment<Adj>,
    pub(crate) in_offsets: Segment<u32>,
    /// In-neighbors, per target sorted by `(source, edge label)`.
    pub(crate) in_adj: Segment<Adj>,
    /// Prefix offsets into `label_nodes`, length `label_count + 1`.
    pub(crate) label_offsets: Segment<u32>,
    /// Nodes grouped by label, each run sorted ascending.
    pub(crate) label_nodes: Segment<NodeId>,
    pub(crate) domains: ActiveDomains,
    /// Per-`(label, attribute)` sorted value postings for indexed range
    /// literal evaluation.
    pub(crate) attr_index: AttrIndex,
    /// Process-unique identity (see [`Graph::uid`]). Clones keep the
    /// uid — their data is identical, which is what uid consumers key on.
    pub(crate) uid: u64,
}

/// The raw columnar parts of a [`Graph`], the exchange format between the
/// in-memory builder and storage adapters (`fairsqg-store`).
///
/// Invariants are the builder's: offsets are monotone prefix sums ending
/// at the entry count, adjacency runs are `(endpoint, label)`-sorted and
/// deduplicated, attribute runs are attribute-id-sorted with unique ids,
/// label runs ascending, postings `(value, node)`-sorted. Callers
/// assembling parts from untrusted bytes must validate before calling
/// [`Graph::from_parts`] — the graph trusts them.
pub struct GraphParts {
    /// Labels, attributes and symbols.
    pub schema: Schema,
    /// Per-node labels.
    pub node_labels: Segment<LabelId>,
    /// Prefix offsets into `attr_entries`, length `node_count + 1`.
    pub attr_offsets: Segment<u32>,
    /// Flattened per-node attribute runs.
    pub attr_entries: Segment<AttrEntry>,
    /// Prefix offsets into `out_adj`, length `node_count + 1`.
    pub out_offsets: Segment<u32>,
    /// Out-adjacency runs.
    pub out_adj: Segment<Adj>,
    /// Prefix offsets into `in_adj`, length `node_count + 1`.
    pub in_offsets: Segment<u32>,
    /// In-adjacency runs.
    pub in_adj: Segment<Adj>,
    /// Prefix offsets into `label_nodes`, length `label_count + 1`.
    pub label_offsets: Segment<u32>,
    /// Nodes grouped by label.
    pub label_nodes: Segment<NodeId>,
    /// Value postings per `(label, attribute)`; the active domains are
    /// read off them.
    pub attr_index: AttrIndex,
}

/// Borrowed views of a graph's raw columnar arrays, in exactly the layout
/// the `.fsg` container serializes. Used by `fairsqg-store`'s writer; the
/// slices obey the [`GraphParts`] invariants.
pub struct GraphColumns<'a> {
    /// Per-node labels.
    pub node_labels: &'a [LabelId],
    /// Prefix offsets into `attr_entries`, length `node_count + 1`.
    pub attr_offsets: &'a [u32],
    /// Flattened per-node attribute runs.
    pub attr_entries: &'a [AttrEntry],
    /// Prefix offsets into `out_adj`, length `node_count + 1`.
    pub out_offsets: &'a [u32],
    /// Out-adjacency runs.
    pub out_adj: &'a [Adj],
    /// Prefix offsets into `in_adj`, length `node_count + 1`.
    pub in_offsets: &'a [u32],
    /// In-adjacency runs.
    pub in_adj: &'a [Adj],
    /// Prefix offsets into `label_nodes`, length `label_count + 1`.
    pub label_offsets: &'a [u32],
    /// Nodes grouped by label.
    pub label_nodes: &'a [NodeId],
}

/// Byte accounting of a graph's storage, split by backing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageFootprint {
    /// Bytes owned on the heap (large arrays plus index/domain tables).
    pub heap_bytes: usize,
    /// Bytes served zero-copy out of a shared mapping.
    pub mapped_bytes: usize,
}

impl Graph {
    /// Assembles a graph from columnar parts (see [`GraphParts`] for the
    /// invariants the caller must guarantee), deriving the active domains
    /// from the postings. Every graph, built or loaded, is assembled here.
    pub fn from_parts(parts: GraphParts) -> Self {
        Self {
            uid: next_uid(),
            schema: parts.schema,
            node_labels: parts.node_labels,
            attr_offsets: parts.attr_offsets,
            attr_entries: parts.attr_entries,
            out_offsets: parts.out_offsets,
            out_adj: parts.out_adj,
            in_offsets: parts.in_offsets,
            in_adj: parts.in_adj,
            label_offsets: parts.label_offsets,
            label_nodes: parts.label_nodes,
            domains: ActiveDomains::from_postings(&parts.attr_index),
            attr_index: parts.attr_index,
        }
    }

    /// A process-unique identity for this graph's *contents*: every
    /// [`Graph::from_parts`] assembly (and thus every builder `finish` or
    /// container load) gets a fresh uid; clones share their original's.
    /// Lets long-lived caches keyed on graph data (e.g. the matcher's
    /// candidate memo) detect that they are being reused against a
    /// different graph without holding a borrow.
    #[inline]
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The graph's schema (labels, attributes, symbols).
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of directed edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_adj.len()
    }

    /// The label of node `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> LabelId {
        self.node_labels[v.index()]
    }

    /// The attribute tuple `T(v)`, sorted by attribute id.
    #[inline]
    pub fn tuple(&self, v: NodeId) -> &[AttrEntry] {
        let lo = self.attr_offsets[v.index()] as usize;
        let hi = self.attr_offsets[v.index() + 1] as usize;
        &self.attr_entries[lo..hi]
    }

    /// The value of attribute `a` on node `v`, if present.
    #[inline]
    pub fn attr(&self, v: NodeId, a: AttrId) -> Option<AttrValue> {
        let t = self.tuple(v);
        t.binary_search_by_key(&a, |e| e.attr())
            .ok()
            .map(|i| t[i].value())
    }

    /// Out-neighbors of `v` as [`Adj`] entries sorted by
    /// `(target, label)`.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[Adj] {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        &self.out_adj[lo..hi]
    }

    /// In-neighbors of `v` as [`Adj`] entries sorted by
    /// `(source, label)`.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[Adj] {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        &self.in_adj[lo..hi]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Whether the labeled edge `src --label--> dst` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId, label: EdgeLabelId) -> bool {
        self.out_neighbors(src)
            .binary_search_by_key(&(dst, label), |a| a.key())
            .is_ok()
    }

    /// All nodes carrying `label` (the paper's `V(u_o)`), sorted ascending.
    pub fn nodes_with_label(&self, label: LabelId) -> &[NodeId] {
        let i = label.index();
        if i + 1 >= self.label_offsets.len() {
            return &[];
        }
        let lo = self.label_offsets[i] as usize;
        let hi = self.label_offsets[i + 1] as usize;
        &self.label_nodes[lo..hi]
    }

    /// Number of nodes with `label`, i.e. `|V(u_o)|`.
    #[inline]
    pub fn label_population(&self, label: LabelId) -> usize {
        self.nodes_with_label(label).len()
    }

    /// Active domains of the graph's attributes.
    #[inline]
    pub fn domains(&self) -> &ActiveDomains {
        &self.domains
    }

    /// The per-`(label, attribute)` sorted value index built at
    /// construction time, backing indexed candidate computation.
    #[inline]
    pub fn attr_index(&self) -> &AttrIndex {
        &self.attr_index
    }

    /// Borrowed views of the raw columnar arrays (serialization).
    pub fn columns(&self) -> GraphColumns<'_> {
        GraphColumns {
            node_labels: &self.node_labels,
            attr_offsets: &self.attr_offsets,
            attr_entries: &self.attr_entries,
            out_offsets: &self.out_offsets,
            out_adj: &self.out_adj,
            in_offsets: &self.in_offsets,
            in_adj: &self.in_adj,
            label_offsets: &self.label_offsets,
            label_nodes: &self.label_nodes,
        }
    }

    /// Whether the graph's large arrays are served out of a shared
    /// mapping (an `.fsg` load) rather than owned heap.
    pub fn is_mapped(&self) -> bool {
        self.out_adj.is_mapped() || self.node_labels.is_mapped()
    }

    /// Byte accounting of the graph's storage (large arrays plus the
    /// index and domain tables; the schema's interned strings
    /// are excluded — they are small and always owned).
    pub fn storage(&self) -> StorageFootprint {
        let heap_bytes = self.node_labels.heap_bytes()
            + self.attr_offsets.heap_bytes()
            + self.attr_entries.heap_bytes()
            + self.out_offsets.heap_bytes()
            + self.out_adj.heap_bytes()
            + self.in_offsets.heap_bytes()
            + self.in_adj.heap_bytes()
            + self.label_offsets.heap_bytes()
            + self.label_nodes.heap_bytes()
            + self.domains.heap_bytes()
            + self.attr_index.heap_bytes();
        let mapped_bytes = self.node_labels.mapped_bytes()
            + self.attr_offsets.mapped_bytes()
            + self.attr_entries.mapped_bytes()
            + self.out_offsets.mapped_bytes()
            + self.out_adj.mapped_bytes()
            + self.in_offsets.mapped_bytes()
            + self.in_adj.mapped_bytes()
            + self.label_offsets.mapped_bytes()
            + self.label_nodes.mapped_bytes()
            + self.attr_index.mapped_bytes();
        StorageFootprint {
            heap_bytes,
            mapped_bytes,
        }
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Computes the set of nodes within `d` undirected hops of `seeds`
    /// (including the seeds), sorted ascending.
    ///
    /// This is the paper's `G_q^d`: template refinement restricts the values
    /// a range variable can take to those observed on same-labeled nodes in
    /// the `d`-hop neighborhood of the current match set.
    ///
    /// Test oracle: `crates/algo/tests/proptest_spawn.rs` holds `Spawn`'s
    /// template refinement to this definition of `G_q^d`.
    pub fn d_hop_neighborhood(&self, seeds: &[NodeId], d: usize) -> Vec<NodeId> {
        let mut visited = vec![false; self.node_count()];
        let mut frontier: Vec<NodeId> = Vec::with_capacity(seeds.len());
        let mut result: Vec<NodeId> = Vec::with_capacity(seeds.len());
        for &s in seeds {
            if !visited[s.index()] {
                visited[s.index()] = true;
                frontier.push(s);
                result.push(s);
            }
        }
        for _ in 0..d {
            if frontier.is_empty() {
                break;
            }
            let mut next = Vec::new();
            for &v in &frontier {
                for a in self.out_neighbors(v).iter().chain(self.in_neighbors(v)) {
                    let w = a.to();
                    if !visited[w.index()] {
                        visited[w.index()] = true;
                        next.push(w);
                        result.push(w);
                    }
                }
            }
            frontier = next;
        }
        result.sort_unstable();
        result
    }

    /// Average number of attributes per node (Table II's "avg. # attr").
    pub fn avg_attrs_per_node(&self) -> f64 {
        if self.node_count() == 0 {
            return 0.0;
        }
        self.attr_entries.len() as f64 / self.node_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let person = b.schema_mut().node_label("person");
        let org = b.schema_mut().node_label("org");
        let knows = b.schema_mut().edge_label("knows");
        let works = b.schema_mut().edge_label("worksAt");
        let age = b.schema_mut().attr("age");

        let a = b.add_node(person, &[(age, AttrValue::Int(30))]);
        let c = b.add_node(person, &[(age, AttrValue::Int(40))]);
        let o = b.add_node(org, &[]);
        b.add_edge(a, c, knows);
        b.add_edge(a, o, works);
        b.add_edge(c, o, works);
        b.finish()
    }

    #[test]
    fn counts_and_labels() {
        let g = small_graph();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let person = g.schema().find_node_label("person").unwrap();
        assert_eq!(g.nodes_with_label(person).len(), 2);
        assert_eq!(g.label_population(person), 2);
    }

    #[test]
    fn adjacency_queries() {
        let g = small_graph();
        let knows = g.schema().find_edge_label("knows").unwrap();
        let works = g.schema().find_edge_label("worksAt").unwrap();
        let (a, c, o) = (NodeId(0), NodeId(1), NodeId(2));
        assert!(g.has_edge(a, c, knows));
        assert!(!g.has_edge(c, a, knows));
        assert!(g.has_edge(a, o, works));
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(o), 2);
        assert_eq!(g.in_neighbors(o).len(), 2);
    }

    #[test]
    fn attr_lookup() {
        let g = small_graph();
        let age = g.schema().find_attr("age").unwrap();
        assert_eq!(g.attr(NodeId(0), age), Some(AttrValue::Int(30)));
        assert_eq!(g.attr(NodeId(2), age), None);
    }

    #[test]
    fn d_hop_neighborhood_expands_undirected() {
        let g = small_graph();
        let hop0 = g.d_hop_neighborhood(&[NodeId(0)], 0);
        assert_eq!(hop0, vec![NodeId(0)]);
        let hop1 = g.d_hop_neighborhood(&[NodeId(0)], 1);
        assert_eq!(hop1, vec![NodeId(0), NodeId(1), NodeId(2)]);
        // From the org, one undirected hop reaches both persons.
        let hop1_o = g.d_hop_neighborhood(&[NodeId(2)], 1);
        assert_eq!(hop1_o.len(), 3);
    }

    #[test]
    fn avg_attrs() {
        let g = small_graph();
        // Two nodes carry one attribute, one carries none.
        assert!((g.avg_attrs_per_node() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn built_graphs_are_owned_and_accounted() {
        let g = small_graph();
        assert!(!g.is_mapped());
        let f = g.storage();
        assert!(f.heap_bytes > 0);
        assert_eq!(f.mapped_bytes, 0);
        assert!(g.attr_index().pair_count() >= 1);
    }
}
