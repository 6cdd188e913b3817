//! Query-template generation ("Queries and Templates", Section V):
//! produces templates with practical search conditions controlled by the
//! number of edges `|Q(u_o)|`, range variables `|X_L|`, edge variables
//! `|X_E|`, and topology.
//!
//! Templates are sampled **from the data graph**: a connected subgraph is
//! grown around a random output-labeled node and lifted to a template, so
//! the root instance is guaranteed to have matches.

use fairsqg_graph::{AttrId, AttrValue, CmpOp, Graph, LabelId, NodeId};
use fairsqg_query::{DomainConfig, QNodeId, QueryTemplate, RefinementDomains, TemplateBuilder};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_pcg::Pcg64Mcg;

/// How the sampled template grows around the output node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Expand from any already-chosen node (general shapes).
    Random,
    /// Expand from the most recently added node (path-like).
    Path,
    /// Expand from the output node (star-like).
    Star,
}

/// Template-generation parameters.
#[derive(Debug, Clone)]
pub struct TemplateSpec {
    /// Template size `|Q(u_o)|` in edges.
    pub edges: usize,
    /// Number of range variables `|X_L|`.
    pub range_vars: usize,
    /// Number of edge variables `|X_E|` (optional edges; `≤ edges`).
    pub edge_vars: usize,
    /// Topology of the sampled pattern.
    pub topology: Topology,
    /// Output node label (by name).
    pub output_label: String,
    /// Cap on constants per range variable (controls `|I(Q)|`).
    pub max_values_per_range_var: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Generates a template and its refinement domains, or `None` when the
/// graph cannot support the requested shape from the sampled seed node
/// (callers retry with a different seed).
pub fn generate_template(
    graph: &Graph,
    spec: &TemplateSpec,
) -> Option<(QueryTemplate, RefinementDomains)> {
    let mut rng = Pcg64Mcg::new(((spec.seed as u128) << 1) | 1);
    let output_label = graph.schema().find_node_label(&spec.output_label)?;
    let pool = graph.nodes_with_label(output_label);
    if pool.is_empty() {
        return None;
    }
    // Prefer a well-connected seed so the pattern can grow.
    let seed_node = *pool
        .choose_multiple(&mut rng, 16.min(pool.len()))
        .max_by_key(|&&v| graph.in_degree(v) + graph.out_degree(v))?;

    // Grow a connected subgraph of `edges` distinct edges.
    let mut chosen: Vec<NodeId> = vec![seed_node];
    let mut edges: Vec<(usize, usize, fairsqg_graph::EdgeLabelId)> = Vec::new();
    let mut attempts = 0;
    while edges.len() < spec.edges {
        attempts += 1;
        if attempts > 200 {
            return None;
        }
        let from_idx = match spec.topology {
            Topology::Star => 0,
            Topology::Path => chosen.len() - 1,
            Topology::Random => rng.gen_range(0..chosen.len()),
        };
        let w = chosen[from_idx];
        // Pick a random incident edge (either direction).
        let deg_out = graph.out_degree(w);
        let deg_in = graph.in_degree(w);
        if deg_out + deg_in == 0 {
            if spec.topology == Topology::Random {
                continue;
            }
            return None;
        }
        let pick = rng.gen_range(0..deg_out + deg_in);
        let (src_node, dst_node, label) = if pick < deg_out {
            let a = graph.out_neighbors(w)[pick];
            (w, a.to(), a.label())
        } else {
            let a = graph.in_neighbors(w)[pick - deg_out];
            (a.to(), w, a.label())
        };
        if src_node == dst_node {
            continue;
        }
        let idx_of = |v: NodeId, chosen: &mut Vec<NodeId>| -> usize {
            match chosen.iter().position(|&c| c == v) {
                Some(i) => i,
                None => {
                    chosen.push(v);
                    chosen.len() - 1
                }
            }
        };
        let si = idx_of(src_node, &mut chosen);
        let di = idx_of(dst_node, &mut chosen);
        if edges
            .iter()
            .any(|&(a, b, l)| a == si && b == di && l == label)
        {
            continue;
        }
        edges.push((si, di, label));
    }

    // Lift to a template. Node 0 (the seed) is the output node.
    let mut tb = TemplateBuilder::new();
    let qnodes: Vec<QNodeId> = chosen.iter().map(|&v| tb.node(graph.label(v))).collect();
    // Choose which edges become optional (guarded by edge variables).
    let mut optional = vec![false; edges.len()];
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.shuffle(&mut rng);
    for &i in order.iter().take(spec.edge_vars.min(edges.len())) {
        optional[i] = true;
    }
    for (i, &(s, d, l)) in edges.iter().enumerate() {
        if optional[i] {
            tb.optional_edge(qnodes[s], qnodes[d], l);
        } else {
            tb.edge(qnodes[s], qnodes[d], l);
        }
    }

    // Attach range variables on integer attributes with rich domains.
    let mut candidates: Vec<(usize, AttrId)> = Vec::new();
    for (i, &v) in chosen.iter().enumerate() {
        let label: LabelId = graph.label(v);
        for e in graph.tuple(v) {
            if matches!(e.value(), AttrValue::Int(_))
                && graph.domains().for_label(label, e.attr()).len() >= 3
            {
                candidates.push((i, e.attr()));
            }
        }
    }
    candidates.sort_by_key(|&(i, a)| (i, a.0));
    candidates.dedup();
    if candidates.len() < spec.range_vars {
        return None;
    }
    candidates.shuffle(&mut rng);
    for &(i, attr) in candidates.iter().take(spec.range_vars) {
        let op = if rng.gen_bool(0.75) {
            CmpOp::Ge
        } else {
            CmpOp::Le
        };
        tb.range_literal(qnodes[i], attr, op);
    }

    let template = tb.finish(qnodes[0]).ok()?;
    let domains = RefinementDomains::build(
        &template,
        graph,
        DomainConfig {
            max_values_per_range_var: spec.max_values_per_range_var,
        },
    );
    // Reject degenerate domains (a range var with only the wildcard).
    if domains.domains().iter().any(|d| d.len() < 2) {
        return None;
    }
    Some((template, domains))
}

/// Retries [`generate_template`] over consecutive seeds until one succeeds
/// and (optionally) a caller-provided acceptance check passes.
pub fn generate_template_with_retry(
    graph: &Graph,
    spec: &TemplateSpec,
    max_retries: usize,
    accept: impl Fn(&QueryTemplate, &RefinementDomains) -> bool,
) -> Option<(QueryTemplate, RefinementDomains)> {
    for attempt in 0..max_retries {
        let mut s = spec.clone();
        s.seed = spec.seed.wrapping_add(attempt as u64 * 0x9E37);
        if let Some((t, d)) = generate_template(graph, &s) {
            if accept(&t, &d) {
                return Some((t, d));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movies::{movies_graph, MoviesConfig};
    use crate::social::{social_graph, SocialConfig};

    fn social() -> Graph {
        social_graph(SocialConfig {
            directors: 300,
            majority_share: 0.6,
            seed: 21,
        })
    }

    /// The paper's default setting: `|Q| = 3`, `|X| = 3` (2 range + 1 edge).
    fn paper_spec(output_label: &str, seed: u64) -> TemplateSpec {
        TemplateSpec {
            edges: 3,
            range_vars: 2,
            edge_vars: 1,
            topology: Topology::Random,
            output_label: output_label.to_string(),
            max_values_per_range_var: 8,
            seed,
        }
    }

    #[test]
    fn generates_requested_shape() {
        let g = social();
        let spec = TemplateSpec {
            edges: 3,
            range_vars: 2,
            edge_vars: 1,
            topology: Topology::Random,
            output_label: "director".into(),
            max_values_per_range_var: 6,
            seed: 13,
        };
        let (t, d) = generate_template_with_retry(&g, &spec, 50, |_, _| true).expect("template");
        assert_eq!(t.size(), 3);
        assert_eq!(t.range_var_count(), 2);
        assert_eq!(t.edge_var_count(), 1);
        assert_eq!(
            t.output_label(),
            g.schema().find_node_label("director").unwrap()
        );
        assert!(d.instance_space_size() >= 8);
    }

    #[test]
    fn star_topology_centers_on_output() {
        let g = social();
        let spec = TemplateSpec {
            edges: 3,
            range_vars: 1,
            edge_vars: 0,
            topology: Topology::Star,
            output_label: "director".into(),
            max_values_per_range_var: 4,
            seed: 3,
        };
        if let Some((t, _)) = generate_template_with_retry(&g, &spec, 50, |_, _| true) {
            let out = t.output();
            for e in t.edges() {
                assert!(e.src == out || e.dst == out, "star edge must touch u_o");
            }
        }
    }

    #[test]
    fn movie_templates_generate_too() {
        let g = movies_graph(MoviesConfig {
            movies: 400,
            seed: 77,
        });
        let spec = paper_spec("movie", 5);
        let got = generate_template_with_retry(&g, &spec, 50, |_, _| true);
        assert!(got.is_some());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = social();
        let spec = paper_spec("director", 9);
        let a = generate_template(&g, &spec);
        let b = generate_template(&g, &spec);
        match (a, b) {
            (Some((ta, da)), Some((tb, db))) => {
                assert_eq!(ta.size(), tb.size());
                assert_eq!(da.instance_space_size(), db.instance_space_size());
            }
            (None, None) => {}
            _ => panic!("non-deterministic template generation"),
        }
    }

    #[test]
    fn rejects_impossible_specs() {
        let g = social();
        let spec = TemplateSpec {
            edges: 2,
            range_vars: 50, // more range vars than attributes available
            edge_vars: 0,
            topology: Topology::Random,
            output_label: "director".into(),
            max_values_per_range_var: 4,
            seed: 1,
        };
        assert!(generate_template(&g, &spec).is_none());
        let spec2 = TemplateSpec {
            output_label: "nonexistent".into(),
            ..paper_spec("x", 1)
        };
        assert!(generate_template(&g, &spec2).is_none());
    }
}
