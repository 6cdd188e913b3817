//! Matching-order planning from index cardinalities, ahead of the call.
//!
//! **No production caller.** The matcher orders every verification by the
//! in-call greedy rule over the *actual* candidate-set sizes
//! (`backtrack.rs`); a plan cached per template was used on 1 of 162
//! verifications of a `gen-match` sweep and earned nothing anywhere (the
//! ablation is in `docs/performance.md` §8), so the evaluator, the parallel
//! driver and the service's warm pool stopped building one.
//! [`plan_matching_order`], [`MatchPlan`] and
//! [`MatchOptions::plan`](crate::MatchOptions::plan) remain, property-tested,
//! only because `perf/src/replay.rs` compiles against them; they go in the
//! next `benchmark` PR.
//!
//! A [`MatchPlan`] is built from the per-`(label, attribute)` postings: each
//! range literal's selectivity is two binary searches
//! (`Postings::range_count`), a node's estimate is the minimum over its
//! literals (capped by its label population), and the order is the
//! connectivity-constrained smallest-estimate-first sequence with a
//! query-degree tiebreak.
//!
//! A plan never changes *results*: the output node is always position 0
//! and the match set is exactly the set of root candidates that extend to
//! a full embedding, which no permutation of the remaining positions can
//! alter. Validity only requires connectivity, which
//! [`MatchPlan::applies_to`] re-checks against each concrete instance
//! (edge variables can drop template edges, invalidating a root-shape
//! plan for some instances — those fall back to the in-call greedy
//! order).

use fairsqg_graph::Graph;
use fairsqg_query::{ConcreteQuery, QNodeId};

/// A matching order for one template shape: the output node first, then
/// the remaining active nodes smallest-estimated-candidates first under
/// the connectivity constraint.
#[derive(Debug, Clone)]
pub struct MatchPlan {
    /// Active query nodes in matching order (`order[0]` is the output).
    order: Vec<QNodeId>,
}

impl MatchPlan {
    /// The planned matching order (`order()[0]` is the output node).
    pub fn order(&self) -> &[QNodeId] {
        &self.order
    }

    /// Whether this plan is valid for `query`'s active component: same
    /// active nodes, output first, and every position adjacent (under the
    /// *instance's* edges) to an earlier one. Instances whose edge
    /// variables dropped a template edge can fail this; the matcher then
    /// falls back to its in-call greedy order.
    pub fn applies_to(&self, query: &ConcreteQuery, active: &[QNodeId]) -> bool {
        if self.order.len() != active.len() || self.order.first() != Some(&query.output) {
            return false;
        }
        if !self.order.iter().all(|u| active.contains(u)) {
            return false;
        }
        for (pos, &u) in self.order.iter().enumerate().skip(1) {
            let earlier = &self.order[..pos];
            let connected = query.edges.iter().any(|&(s, d, _)| {
                (s == u && earlier.contains(&d)) || (d == u && earlier.contains(&s))
            });
            if !connected {
                return false;
            }
        }
        true
    }
}

/// Plans a matching order for `query`'s active component from index
/// cardinality estimates. Deterministic: ties break by higher query
/// degree, then lower query-node id.
pub fn plan_matching_order(graph: &Graph, query: &ConcreteQuery) -> MatchPlan {
    let active: Vec<QNodeId> = query.active_nodes().collect();
    debug_assert!(active.contains(&query.output));
    let est: Vec<u64> = active
        .iter()
        .map(|&u| estimate_candidates(graph, query, u))
        .collect();
    let qdeg = |u: QNodeId| -> usize {
        query
            .edges
            .iter()
            .filter(|&&(s, d, _)| s == u || d == u)
            .count()
    };

    let mut order = Vec::with_capacity(active.len());
    let mut used = vec![false; active.len()];
    let out_slot = active
        .iter()
        .position(|&u| u == query.output)
        .expect("output node is active");
    order.push(active[out_slot]);
    used[out_slot] = true;
    while order.len() < active.len() {
        let mut best: Option<(usize, u64, usize)> = None; // (slot, est, degree)
        for (slot, &u) in active.iter().enumerate() {
            if used[slot] {
                continue;
            }
            let adjacent = query
                .edges
                .iter()
                .any(|&(s, d, _)| (s == u && order.contains(&d)) || (d == u && order.contains(&s)));
            if !adjacent {
                continue;
            }
            let (e, dg) = (est[slot], qdeg(u));
            let better = match best {
                None => true,
                Some((_, be, bd)) => e < be || (e == be && dg > bd),
            };
            if better {
                best = Some((slot, e, dg));
            }
        }
        let (slot, _, _) = best.expect("active component is connected");
        used[slot] = true;
        order.push(active[slot]);
    }
    MatchPlan { order }
}

/// Upper-bound cardinality estimate for one query node: its label
/// population, tightened by the most selective literal the postings can
/// answer (two binary searches per literal — the same bounds the indexed
/// candidate path uses). Literals on attributes absent from the postings
/// contribute nothing (the scan fallback decides at match time).
fn estimate_candidates(graph: &Graph, query: &ConcreteQuery, u: QNodeId) -> u64 {
    let qn = &query.nodes[u.index()];
    let mut est = graph.nodes_with_label(qn.label).len() as u64;
    let index = graph.attr_index();
    for lit in &qn.literals {
        if let Some(postings) = index.postings(qn.label, lit.attr) {
            est = est.min(postings.range_count(lit.op, lit.value) as u64);
        }
    }
    est
}
