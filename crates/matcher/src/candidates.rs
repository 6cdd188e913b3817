//! Candidate computation: which graph nodes can match each query node.
//!
//! Two paths produce identical results:
//!
//! * [`candidates`] — the default hot path. Each range literal maps to a
//!   contiguous slice of the graph's per-`(label, attribute)` sorted value
//!   index ([`fairsqg_graph::AttrIndex`], two binary searches), and the
//!   slices are combined by gallop-intersection / residual filtering
//!   starting from the most selective literal. When even the most
//!   selective literal covers most of the label population the code falls
//!   back to the scan (sorting a near-population slice would cost more
//!   than the linear pass it replaces).
//! * [`candidates_scan`] — the naive reference path: scan the full label
//!   population and evaluate every literal per node. Kept for A/B
//!   benchmarking and as the equivalence oracle in tests.

use crate::stats;
use fairsqg_graph::{gallop_intersect, Graph, NodeId};
use fairsqg_query::{BoundLiteral, ConcreteQuery, QNodeId};

/// Returns whether node `v` satisfies every literal in `lits`.
///
/// A literal over a missing attribute fails (the paper's matching requires
/// `h(u).A op c` to hold, which presupposes the attribute exists).
#[inline]
pub fn satisfies_literals(graph: &Graph, v: NodeId, lits: &[BoundLiteral]) -> bool {
    lits.iter().all(|l| match graph.attr(v, l.attr) {
        Some(val) => l.op.eval(val, l.value),
        None => false,
    })
}

/// Indexed slices cheaper than the scan only while the most selective
/// literal covers at most this fraction of the label population (the
/// indexed path pays an `O(k log k)` sort of the slice's node ids).
const SCAN_FALLBACK_NUM: usize = 3;
const SCAN_FALLBACK_DEN: usize = 4;

/// Gallop-intersect a residual slice only while it is at most this many
/// times larger than the running candidate set; beyond that, re-checking
/// the literal per surviving candidate is cheaper than sorting the slice.
const GALLOP_MAX_RATIO: usize = 16;

/// Computes the candidate set of query node `u`: all graph nodes with the
/// right label that satisfy `u`'s literals. Sorted ascending.
///
/// This is the indexed hot path; it returns exactly what
/// [`candidates_scan`] returns (property-tested equivalence).
pub fn candidates(graph: &Graph, query: &ConcreteQuery, u: QNodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    candidates_into(graph, query, u, &mut out);
    out
}

/// [`candidates`] writing into a caller-owned buffer (cleared first) so
/// hot loops can reuse one allocation per query-node slot across verify
/// calls. Identical results and stats accounting.
pub(crate) fn candidates_into(
    graph: &Graph,
    query: &ConcreteQuery,
    u: QNodeId,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    let node = &query.nodes[u.index()];
    let population = graph.nodes_with_label(node.label);
    if node.literals.is_empty() {
        stats::count_index_candidates();
        out.extend_from_slice(population);
        return;
    }

    // One value-index range slice per literal; a missing (label, attr)
    // pair means no node of this label carries the attribute, so the
    // literal — and the whole conjunction — is unsatisfiable. Shard
    // partition metadata (when present) narrows each boundary search to
    // one shard and counts the shards skipped wholesale.
    let mut ranges = Vec::with_capacity(node.literals.len());
    for l in &node.literals {
        let Some(p) = graph.attr_index().postings(node.label, l.attr) else {
            stats::count_index_candidates();
            return;
        };
        let shards = graph.partitions().shards(node.label, l.attr);
        let (slice, skipped) = p.range_sharded(l.op, l.value, shards);
        stats::count_shard_skips(skipped as u64);
        ranges.push((slice, l));
    }
    ranges.sort_by_key(|(slice, _)| slice.len());
    if ranges[0].0.is_empty() {
        stats::count_index_candidates();
        return;
    }

    // Hybrid fallback: a near-population slice makes the sort below more
    // expensive than the linear scan it replaces.
    if ranges[0].0.len() * SCAN_FALLBACK_DEN >= population.len() * SCAN_FALLBACK_NUM {
        stats::count_scan_fallback();
        candidates_scan_into(graph, query, u, out);
        return;
    }
    stats::count_index_candidates();

    // Seed from the most selective slice. Slices are sorted by (value,
    // node), so the extracted node ids must be re-sorted.
    out.extend(ranges[0].0.iter().map(|e| e.node()));
    out.sort_unstable();
    for &(slice, lit) in &ranges[1..] {
        if out.is_empty() {
            break;
        }
        if slice.len() <= out.len().saturating_mul(GALLOP_MAX_RATIO) {
            let mut other: Vec<NodeId> = slice.iter().map(|e| e.node()).collect();
            other.sort_unstable();
            *out = gallop_intersect(out, &other);
        } else {
            out.retain(|&v| {
                graph
                    .attr(v, lit.attr)
                    .is_some_and(|val| lit.op.eval(val, lit.value))
            });
        }
    }
}

/// Reference path: computes the candidate set by scanning the full label
/// population and evaluating every literal per node. Sorted ascending
/// (inherited from the label index).
pub fn candidates_scan(graph: &Graph, query: &ConcreteQuery, u: QNodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    candidates_scan_into(graph, query, u, &mut out);
    out
}

/// [`candidates_scan`] writing into a caller-owned buffer (cleared first).
pub(crate) fn candidates_scan_into(
    graph: &Graph,
    query: &ConcreteQuery,
    u: QNodeId,
    out: &mut Vec<NodeId>,
) {
    stats::count_scan_candidates();
    let node = &query.nodes[u.index()];
    out.clear();
    out.extend(
        graph
            .nodes_with_label(node.label)
            .iter()
            .copied()
            .filter(|&v| satisfies_literals(graph, v, &node.literals)),
    );
}

/// Like [`candidates`] but restricted to a pre-sorted pool (used by
/// `incVerify`: a refined instance's output matches are a subset of its
/// parent's, so only the parent's match set needs re-checking).
///
/// The pool must be label-homogeneous with `u`'s label — incVerify pools
/// are the parent's output match set, which matched the same output node
/// — so the label is asserted in debug builds rather than re-checked per
/// node on the hot path. Callers passing user-supplied pools (a
/// configured output restriction) must label-filter them first.
pub fn candidates_from_pool(
    graph: &Graph,
    query: &ConcreteQuery,
    u: QNodeId,
    pool: &[NodeId],
) -> Vec<NodeId> {
    let mut out = Vec::new();
    candidates_from_pool_into(graph, query, u, pool, &mut out);
    out
}

/// [`candidates_from_pool`] writing into a caller-owned buffer (cleared
/// first).
pub(crate) fn candidates_from_pool_into(
    graph: &Graph,
    query: &ConcreteQuery,
    u: QNodeId,
    pool: &[NodeId],
    out: &mut Vec<NodeId>,
) {
    stats::count_pool_restriction();
    let node = &query.nodes[u.index()];
    debug_assert!(
        pool.iter().all(|&v| graph.label(v) == node.label),
        "incVerify pool contains a node whose label differs from the query node's"
    );
    out.clear();
    out.extend(
        pool.iter()
            .copied()
            .filter(|&v| satisfies_literals(graph, v, &node.literals)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsqg_graph::{AttrValue, CmpOp, GraphBuilder};
    use fairsqg_query::{ConcreteQuery, RefinementDomains, TemplateBuilder};

    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        for (label, age) in [("user", 20), ("user", 35), ("user", 50), ("org", 10)] {
            b.add_named_node(label, &[("age", AttrValue::Int(age))]);
        }
        b.finish()
    }

    fn query_age_ge(graph: &Graph, bound: i64) -> ConcreteQuery {
        let user = graph.schema().find_node_label("user").unwrap();
        let age = graph.schema().find_attr("age").unwrap();
        let mut tb = TemplateBuilder::new();
        let u0 = tb.node(user);
        tb.literal(u0, age, CmpOp::Ge, AttrValue::Int(bound));
        let t = tb.finish(u0).unwrap();
        let d = RefinementDomains::with_range_values(&t, vec![]);
        ConcreteQuery::materialize(&t, &d, &fairsqg_query::Instantiation::new(vec![]))
    }

    #[test]
    fn label_and_literal_filtering() {
        let g = graph();
        let q = query_age_ge(&g, 30);
        let c = candidates(&g, &q, QNodeId(0));
        assert_eq!(c, vec![NodeId(1), NodeId(2)]); // org filtered by label
        assert_eq!(c, candidates_scan(&g, &q, QNodeId(0)));
    }

    #[test]
    fn missing_attribute_fails_literal() {
        let mut b = GraphBuilder::new();
        b.add_named_node("user", &[]);
        let g = b.finish();
        // Ensure the attr exists in the schema even if no node carries it.
        let q = {
            let user = g.schema().find_node_label("user").unwrap();
            let mut schema = g.schema().clone();
            let age = schema.attr("age");
            let mut tb = TemplateBuilder::new();
            let u0 = tb.node(user);
            tb.literal(u0, age, CmpOp::Ge, AttrValue::Int(0));
            let t = tb.finish(u0).unwrap();
            let d = RefinementDomains::with_range_values(&t, vec![]);
            ConcreteQuery::materialize(&t, &d, &fairsqg_query::Instantiation::new(vec![]))
        };
        assert!(candidates(&g, &q, QNodeId(0)).is_empty());
        assert!(candidates_scan(&g, &q, QNodeId(0)).is_empty());
    }

    #[test]
    fn pool_restriction() {
        let g = graph();
        let q = query_age_ge(&g, 30);
        // Pool restricted to user-labeled nodes (incVerify precondition).
        let pool = [NodeId(0), NodeId(2)];
        let c = candidates_from_pool(&g, &q, QNodeId(0), &pool);
        assert_eq!(c, vec![NodeId(2)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "label differs")]
    fn heterogeneous_pool_asserts_in_debug() {
        let g = graph();
        let q = query_age_ge(&g, 30);
        // NodeId(3) is the org node — not a legal incVerify pool member.
        let _ = candidates_from_pool(&g, &q, QNodeId(0), &[NodeId(2), NodeId(3)]);
    }

    #[test]
    fn multi_literal_intersection_matches_scan() {
        let mut b = GraphBuilder::new();
        for i in 0..200i64 {
            b.add_named_node(
                "p",
                &[
                    ("a", AttrValue::Int(i % 17)),
                    ("b", AttrValue::Int(i % 5)),
                    ("c", AttrValue::Int(i)),
                ],
            );
        }
        let g = b.finish();
        let s = g.schema();
        let p = s.find_node_label("p").unwrap();
        let mut tb = TemplateBuilder::new();
        let u0 = tb.node(p);
        tb.literal(u0, s.find_attr("a").unwrap(), CmpOp::Le, AttrValue::Int(8));
        tb.literal(u0, s.find_attr("b").unwrap(), CmpOp::Eq, AttrValue::Int(2));
        tb.literal(
            u0,
            s.find_attr("c").unwrap(),
            CmpOp::Gt,
            AttrValue::Int(120),
        );
        let t = tb.finish(u0).unwrap();
        let d = RefinementDomains::with_range_values(&t, vec![]);
        let q = ConcreteQuery::materialize(&t, &d, &fairsqg_query::Instantiation::new(vec![]));
        let fast = candidates(&g, &q, QNodeId(0));
        let slow = candidates_scan(&g, &q, QNodeId(0));
        assert_eq!(fast, slow);
        assert!(!fast.is_empty());
    }

    #[test]
    fn non_selective_literal_falls_back_to_scan() {
        let g = graph();
        let _ = crate::take_stats();
        // age >= 0 covers the whole user population: hybrid picks the scan.
        let q = query_age_ge(&g, 0);
        let c = candidates(&g, &q, QNodeId(0));
        assert_eq!(c, vec![NodeId(0), NodeId(1), NodeId(2)]);
        let s = crate::take_stats();
        assert_eq!(s.scan_fallbacks, 1);
        assert_eq!(s.scan_candidates, 1);
    }
}
