//! Mutable construction of [`Graph`]s.

use crate::cols::{Adj, AttrEntry};
use crate::graph::{Graph, GraphParts};
use crate::ids::{AttrId, EdgeLabelId, LabelId, NodeId};
use crate::index::AttrIndex;
use crate::schema::Schema;
use crate::seg::Segment;
use crate::value::AttrValue;

/// The offsets array of a counting sort: `offsets[k]..offsets[k + 1]` is
/// where the items whose key is `k` go, for keys `< buckets`.
fn bucket_offsets(buckets: usize, keys: impl Iterator<Item = usize>) -> Vec<u32> {
    let mut offsets = vec![0u32; buckets + 1];
    for k in keys {
        offsets[k + 1] += 1;
    }
    for k in 0..buckets {
        offsets[k + 1] += offsets[k];
    }
    offsets
}

/// Incremental graph builder.
///
/// Nodes receive ids in insertion order. Attributes accumulate in the
/// graph's own columnar layout (one offsets array, one entries array — no
/// allocation per node), so memory while building is proportional to the
/// finished columns. Duplicate labeled edges are deduplicated at
/// [`finish`](GraphBuilder::finish) time (the graph is a set of labeled
/// edges, per Section II).
#[derive(Debug, PartialEq, Eq)]
pub struct GraphBuilder {
    schema: Schema,
    node_labels: Vec<LabelId>,
    /// `attr_entries[attr_offsets[v]..attr_offsets[v + 1]]` is node `v`'s
    /// run, sorted by attribute id with each id at most once.
    attr_offsets: Vec<u32>,
    attr_entries: Vec<AttrEntry>,
    edges: Vec<(NodeId, NodeId, EdgeLabelId)>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::with_schema(Schema::default())
    }
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder seeded with an existing schema (useful when a
    /// template vocabulary must be shared across graphs).
    pub fn with_schema(schema: Schema) -> Self {
        Self {
            schema,
            node_labels: Vec::new(),
            attr_offsets: vec![0],
            attr_entries: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Mutable access to the schema for interning labels/attrs/symbols.
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// Read access to the schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Adds a node with `label` and attribute tuple `attrs`.
    ///
    /// Attributes are sorted by id internally; duplicate attribute ids keep
    /// the last value.
    pub fn add_node(&mut self, label: LabelId, attrs: &[(AttrId, AttrValue)]) -> NodeId {
        let id = NodeId::from_index(self.node_labels.len());
        self.node_labels.push(label);
        let start = self.attr_entries.len();
        self.attr_entries
            .extend(attrs.iter().map(|&(a, v)| AttrEntry::new(a, v)));
        // Stable, so among duplicated ids the later value stays later and
        // overwrites the earlier one in the compaction below.
        self.attr_entries[start..].sort_by_key(|e| e.attr());
        let mut kept = start;
        for i in start..self.attr_entries.len() {
            let e = self.attr_entries[i];
            if kept > start && self.attr_entries[kept - 1].attr() == e.attr() {
                self.attr_entries[kept - 1] = e;
            } else {
                self.attr_entries[kept] = e;
                kept += 1;
            }
        }
        self.attr_entries.truncate(kept);
        self.attr_offsets.push(kept as u32);
        id
    }

    /// Convenience: adds a node whose label and attributes are given by
    /// name, interning as needed.
    pub fn add_named_node(&mut self, label: &str, attrs: &[(&str, AttrValue)]) -> NodeId {
        let label = self.schema.node_label(label);
        let attrs: Vec<(AttrId, AttrValue)> = attrs
            .iter()
            .map(|&(name, v)| (self.schema.attr(name), v))
            .collect();
        self.add_node(label, &attrs)
    }

    /// Adds a directed labeled edge. Endpoints must already exist.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, label: EdgeLabelId) {
        assert!(
            src.index() < self.node_labels.len() && dst.index() < self.node_labels.len(),
            "edge endpoint out of range"
        );
        self.edges.push((src, dst, label));
    }

    /// Convenience: adds an edge with a named label, interning as needed.
    pub fn add_named_edge(&mut self, src: NodeId, dst: NodeId, label: &str) {
        let label = self.schema.edge_label(label);
        self.add_edge(src, dst, label);
    }

    /// Finalizes the graph: builds CSR adjacency, the label index and the
    /// value postings, then assembles it with [`Graph::from_parts`]. This
    /// is the only code that builds them — every load path that starts
    /// from text or from API calls ends here.
    pub fn finish(self) -> Graph {
        let n = self.node_labels.len();

        // CSR out adjacency: bucket the edges by source (counting sort),
        // then sort and deduplicate each source's short run in place.
        let mut out_offsets = bucket_offsets(n, self.edges.iter().map(|e| e.0.index()));
        let mut cursor = out_offsets.clone();
        let mut out_adj = vec![Adj::new(NodeId(0), EdgeLabelId(0)); self.edges.len()];
        for &(s, d, l) in &self.edges {
            out_adj[cursor[s.index()] as usize] = Adj::new(d, l);
            cursor[s.index()] += 1;
        }
        drop(self.edges);
        let mut kept = 0usize;
        for v in 0..n {
            let (lo, hi) = (out_offsets[v] as usize, out_offsets[v + 1] as usize);
            out_adj[lo..hi].sort_unstable();
            out_offsets[v] = kept as u32;
            for i in lo..hi {
                if i == lo || out_adj[i] != out_adj[i - 1] {
                    out_adj[kept] = out_adj[i];
                    kept += 1;
                }
            }
        }
        out_offsets[n] = kept as u32;
        out_adj.truncate(kept);

        // CSR in adjacency: a stable counting sort by target over the out
        // runs, which are in (source, target, label) order — so each
        // target's run comes out sorted by (source, label), as binary
        // search needs.
        let in_offsets = bucket_offsets(n, out_adj.iter().map(|a| a.to().index()));
        cursor.copy_from_slice(&in_offsets);
        let mut in_adj = vec![Adj::new(NodeId(0), EdgeLabelId(0)); out_adj.len()];
        for v in 0..n {
            for a in &out_adj[out_offsets[v] as usize..out_offsets[v + 1] as usize] {
                let slot = &mut cursor[a.to().index()];
                in_adj[*slot as usize] = Adj::new(NodeId::from_index(v), a.label());
                *slot += 1;
            }
        }
        drop(cursor);
        debug_assert!((0..n).all(|v| {
            let lo = in_offsets[v] as usize;
            let hi = in_offsets[v + 1] as usize;
            in_adj[lo..hi].windows(2).all(|w| w[0] < w[1])
        }));

        // Label index as offset + node-run arrays (counting sort; node ids
        // ascend within each run because nodes are visited in id order).
        let label_offsets = bucket_offsets(
            self.schema.node_label_count(),
            self.node_labels.iter().map(|l| l.index()),
        );
        let mut cursor = label_offsets.clone();
        let mut label_nodes = vec![NodeId(0); n];
        for (i, &l) in self.node_labels.iter().enumerate() {
            let pos = cursor[l.index()] as usize;
            label_nodes[pos] = NodeId::from_index(i);
            cursor[l.index()] += 1;
        }

        // Sorted (value, node) postings per (label, attribute) pair; the
        // active domains are read off them in `Graph::from_parts`.
        let attr_index = AttrIndex::build(
            &label_offsets,
            &label_nodes,
            &self.attr_offsets,
            &self.attr_entries,
            self.schema.attr_count(),
        );

        Graph::from_parts(GraphParts {
            schema: self.schema,
            node_labels: Segment::from_vec(self.node_labels),
            attr_offsets: Segment::from_vec(self.attr_offsets),
            attr_entries: Segment::from_vec(self.attr_entries),
            out_offsets: Segment::from_vec(out_offsets),
            out_adj: Segment::from_vec(out_adj),
            in_offsets: Segment::from_vec(in_offsets),
            in_adj: Segment::from_vec(in_adj),
            label_offsets: Segment::from_vec(label_offsets),
            label_nodes: Segment::from_vec(label_nodes),
            attr_index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_are_deduped() {
        let mut b = GraphBuilder::new();
        let l = b.schema_mut().node_label("x");
        let e = b.schema_mut().edge_label("e");
        let a = b.add_node(l, &[]);
        let c = b.add_node(l, &[]);
        b.add_edge(a, c, e);
        b.add_edge(a, c, e);
        let g = b.finish();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn parallel_edges_with_distinct_labels_kept() {
        let mut b = GraphBuilder::new();
        let l = b.schema_mut().node_label("x");
        let e1 = b.schema_mut().edge_label("e1");
        let e2 = b.schema_mut().edge_label("e2");
        let a = b.add_node(l, &[]);
        let c = b.add_node(l, &[]);
        b.add_edge(a, c, e1);
        b.add_edge(a, c, e2);
        let g = b.finish();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(a, c, e1));
        assert!(g.has_edge(a, c, e2));
    }

    #[test]
    fn duplicate_attr_keeps_last() {
        let mut b = GraphBuilder::new();
        let l = b.schema_mut().node_label("x");
        let a = b.schema_mut().attr("k");
        let v = b.add_node(l, &[(a, AttrValue::Int(1)), (a, AttrValue::Int(2))]);
        let g = b.finish();
        assert_eq!(g.attr(v, a), Some(AttrValue::Int(2)));
        assert_eq!(g.tuple(v).len(), 1);
    }

    #[test]
    fn named_helpers() {
        let mut b = GraphBuilder::new();
        let v = b.add_named_node("person", &[("age", AttrValue::Int(33))]);
        let w = b.add_named_node("person", &[]);
        b.add_named_edge(v, w, "knows");
        let g = b.finish();
        let age = g.schema().find_attr("age").unwrap();
        assert_eq!(g.attr(v, age), Some(AttrValue::Int(33)));
        let knows = g.schema().find_edge_label("knows").unwrap();
        assert!(g.has_edge(v, w, knows));
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn edge_endpoint_validation() {
        let mut b = GraphBuilder::new();
        let l = b.schema_mut().node_label("x");
        let e = b.schema_mut().edge_label("e");
        let a = b.add_node(l, &[]);
        b.add_edge(a, NodeId(99), e);
    }

    #[test]
    fn in_adjacency_mirrors_out() {
        let mut b = GraphBuilder::new();
        let l = b.schema_mut().node_label("x");
        let e = b.schema_mut().edge_label("e");
        let nodes: Vec<NodeId> = (0..5).map(|_| b.add_node(l, &[])).collect();
        b.add_edge(nodes[0], nodes[4], e);
        b.add_edge(nodes[1], nodes[4], e);
        b.add_edge(nodes[3], nodes[4], e);
        b.add_edge(nodes[4], nodes[0], e);
        let g = b.finish();
        assert_eq!(
            g.in_neighbors(nodes[4])
                .iter()
                .map(|a| a.to())
                .collect::<Vec<_>>(),
            vec![nodes[0], nodes[1], nodes[3]]
        );
        assert_eq!(g.out_neighbors(nodes[4]), &[Adj::new(nodes[0], e)]);
    }
}
