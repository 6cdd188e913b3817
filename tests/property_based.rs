//! Cross-crate property-based tests on randomly generated graphs,
//! templates, and groups: the paper's lemmas must hold on arbitrary
//! well-formed inputs, and the backtracking matcher must agree with the
//! brute-force reference.

use fairsqg::matcher::{match_output_set, match_output_set_bruteforce, MatchOptions};
use fairsqg::prelude::*;
use fairsqg::query::{InstanceLattice, QNodeId};
use proptest::prelude::*;

/// A random small graph: up to 14 nodes over 2 labels, up to 2 attributes,
/// random edges over 2 edge labels.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..14,
        proptest::collection::vec((0u8..2, 0i64..6, 0i64..6), 2..14),
        proptest::collection::vec((0usize..14, 0usize..14, 0u8..2), 0..30),
    )
        .prop_map(|(_, nodes, edges)| {
            let mut b = GraphBuilder::new();
            let labels = ["alpha", "beta"];
            let elabels = ["e0", "e1"];
            let ids: Vec<NodeId> = nodes
                .iter()
                .map(|&(l, a0, a1)| {
                    b.add_named_node(
                        labels[l as usize],
                        &[("a0", AttrValue::Int(a0)), ("a1", AttrValue::Int(a1))],
                    )
                })
                .collect();
            for &(s, d, l) in &edges {
                if s < ids.len() && d < ids.len() && s != d {
                    b.add_named_edge(ids[s], ids[d], elabels[l as usize]);
                }
            }
            b.finish()
        })
}

/// A random 2–3 node template over the `arb_graph` vocabulary.
fn arb_template(graph: &Graph) -> Option<(QueryTemplate, RefinementDomains)> {
    let s = graph.schema();
    let alpha = s.find_node_label("alpha")?;
    let beta = s.find_node_label("beta").unwrap_or(alpha);
    let e0 = s.find_edge_label("e0")?;
    let a0 = s.find_attr("a0")?;
    let mut tb = TemplateBuilder::new();
    let u0 = tb.node(alpha);
    let u1 = tb.node(beta);
    tb.optional_edge(u1, u0, e0);
    tb.range_literal(u0, a0, CmpOp::Ge);
    let t = tb.finish(u0).ok()?;
    let d = RefinementDomains::build(&t, graph, DomainConfig::default());
    Some((t, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The backtracking matcher agrees with brute force on every instance
    /// of a random template over a random graph.
    #[test]
    fn matcher_agrees_with_bruteforce(graph in arb_graph()) {
        if let Some((t, d)) = arb_template(&graph) {
            let lat = InstanceLattice::new(&d);
            for inst in lat.enumerate() {
                let q = ConcreteQuery::materialize(&t, &d, &inst);
                let fast = match_output_set(&graph, &q, MatchOptions::default());
                let slow = match_output_set_bruteforce(&graph, &q);
                prop_assert_eq!(fast, slow);
            }
        }
    }

    /// Lemma 2 (2): refinement shrinks match sets and diversity.
    #[test]
    fn refinement_monotonicity(graph in arb_graph()) {
        if let Some((t, d)) = arb_template(&graph) {
            let measure = DiversityMeasure::new(
                &graph,
                t.output_label(),
                DiversityConfig::default(),
            );
            let lat = InstanceLattice::new(&d);
            for inst in lat.enumerate() {
                let q = ConcreteQuery::materialize(&t, &d, &inst);
                let m = match_output_set(&graph, &q, MatchOptions::default());
                let delta = measure.score(&m);
                for (_, child) in lat.children(&inst) {
                    let qc = ConcreteQuery::materialize(&t, &d, &child);
                    let mc = match_output_set(&graph, &qc, MatchOptions::default());
                    prop_assert!(mc.iter().all(|v| m.contains(v)),
                        "match containment violated");
                    let dc = measure.score(&mc);
                    prop_assert!(dc <= delta + 1e-9, "diversity monotonicity violated");
                }
            }
        }
    }

    /// Lemma 2 (2), coverage side: while both parent and child are
    /// feasible, refinement cannot reduce the coverage score.
    #[test]
    fn coverage_monotonicity_on_feasible_chains(graph in arb_graph(), c in 1u32..3) {
        if let Some((t, d)) = arb_template(&graph) {
            let s = graph.schema();
            let a1 = s.find_attr("a1").unwrap();
            let groups = GroupSet::by_attribute(
                &graph, a1, &[AttrValue::Int(0), AttrValue::Int(1)]);
            let spec = CoverageSpec::equal_opportunity(2, c);
            let lat = InstanceLattice::new(&d);
            for inst in lat.enumerate() {
                let q = ConcreteQuery::materialize(&t, &d, &inst);
                let m = match_output_set(&graph, &q, MatchOptions::default());
                let counts = groups.count_in_groups(&m);
                if !is_feasible(&counts, &spec) { continue; }
                let f_parent = coverage_score(&counts, &spec);
                for (_, child) in lat.children(&inst) {
                    let qc = ConcreteQuery::materialize(&t, &d, &child);
                    let mc = match_output_set(&graph, &qc, MatchOptions::default());
                    let cc = groups.count_in_groups(&mc);
                    if is_feasible(&cc, &spec) {
                        let f_child = coverage_score(&cc, &spec);
                        prop_assert!(
                            f_child + 1e-9 >= f_parent,
                            "feasible refinement must not reduce f ({f_child} < {f_parent})"
                        );
                    }
                }
            }
        }
    }

    /// The generation pipeline never panics and returns feasible,
    /// ε-covering sets on random inputs (robustness sweep).
    #[test]
    fn generation_robustness(graph in arb_graph(), eps in 0.05f64..0.9) {
        if let Some((t, _)) = arb_template(&graph) {
            let s = graph.schema();
            let a1 = s.find_attr("a1").unwrap();
            let groups = GroupSet::by_attribute(
                &graph, a1, &[AttrValue::Int(0), AttrValue::Int(1)]);
            let spec = CoverageSpec::equal_opportunity(2, 1);
            let fair = FairSqg::new(&graph).epsilon(eps);
            let bi = fair.generate(&t, &groups, &spec, Algorithm::BiQGen);
            let en = fair.generate(&t, &groups, &spec, Algorithm::EnumQGen);
            // Same feasible space ⇒ both empty or both non-empty.
            prop_assert_eq!(bi.entries.is_empty(), en.entries.is_empty());
            for e in bi.entries.iter().chain(en.entries.iter()) {
                prop_assert!(e.result.feasible);
            }
            // BiQGen must shifted-ε-cover EnumQGen's set.
            let factor = 1.0 + eps;
            for eo in en.objectives() {
                prop_assert!(bi.entries.iter().any(|e| {
                    let o = e.objectives();
                    factor * (1.0 + o.delta) >= 1.0 + eo.delta
                        && factor * (1.0 + o.fcov) >= 1.0 + eo.fcov
                }), "BiQGen fails to cover EnumQGen point {:?}", eo);
            }
        }
    }

    /// Online maintenance respects the size cap and ε monotonicity on
    /// random streams.
    #[test]
    fn online_invariants(graph in arb_graph(), k in 1usize..6, seed in 0u64..1000) {
        if let Some((t, d)) = arb_template(&graph) {
            let s = graph.schema();
            let a1 = s.find_attr("a1").unwrap();
            let groups = GroupSet::by_attribute(
                &graph, a1, &[AttrValue::Int(0), AttrValue::Int(1)]);
            let spec = CoverageSpec::equal_opportunity(2, 1);
            let cfg = Configuration::new(
                &graph, &t, &d, &groups, &spec, 0.1,
                DiversityConfig::default());
            let stream = ShuffledStream::new(&d, seed);
            let (out, trace) = online_qgen(
                cfg,
                OnlineOptions { k, window: 4, initial_eps: 0.05 },
                stream,
            );
            prop_assert!(out.entries.len() <= k);
            for w in trace.windows(2) {
                prop_assert!(w[1].eps >= w[0].eps);
                prop_assert!(w[1].len <= k);
            }
        }
    }
}

/// Non-proptest sanity check that `arb_template` exercises the optional
/// edge machinery (QNodeId(1) inactive at the root).
#[test]
fn arb_template_root_isolates_secondary_node() {
    let mut b = GraphBuilder::new();
    b.add_named_node(
        "alpha",
        &[("a0", AttrValue::Int(0)), ("a1", AttrValue::Int(0))],
    );
    b.add_named_node(
        "beta",
        &[("a0", AttrValue::Int(1)), ("a1", AttrValue::Int(1))],
    );
    let g = {
        let mut bb = b;
        bb.schema_mut().edge_label("e0");
        bb.schema_mut().edge_label("e1");
        bb.finish()
    };
    let (t, d) = arb_template(&g).unwrap();
    let root = Instantiation::root(&d);
    let q = ConcreteQuery::materialize(&t, &d, &root);
    assert!(q.active[0]);
    assert!(!q.active[QNodeId(1).index()]);
}
