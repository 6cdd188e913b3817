//! Integration tests reconstructing the paper's running examples
//! (Examples 1–5 and Fig. 1) on an explicit miniature graph.

use fairsqg::prelude::*;
use fairsqg::query::InstanceLattice;

/// The Fig. 1 scenario: directors recommended by experienced users who
/// work at organizations of varying size, with gender groups.
struct Fig1 {
    graph: Graph,
    template: QueryTemplate,
}

fn fig1() -> Fig1 {
    let mut b = GraphBuilder::new();
    // Five directors; v1..v3 male-ish split per Example 3's match sets.
    let d: Vec<NodeId> = (0..5)
        .map(|i| {
            b.add_named_node(
                "director",
                &[
                    ("gender", AttrValue::Int(i64::from(i % 2 == 0))),
                    ("major", AttrValue::Int(i as i64)),
                ],
            )
        })
        .collect();
    // Recommenders with varying experience.
    let u_a = b.add_named_node("user", &[("yearsOfExp", AttrValue::Int(12))]);
    let u_b = b.add_named_node("user", &[("yearsOfExp", AttrValue::Int(10))]);
    let u_c = b.add_named_node("user", &[("yearsOfExp", AttrValue::Int(6))]);
    // Organizations of different sizes.
    let o_big = b.add_named_node("org", &[("employees", AttrValue::Int(1500))]);
    let o_mid = b.add_named_node("org", &[("employees", AttrValue::Int(500))]);
    let o_small = b.add_named_node("org", &[("employees", AttrValue::Int(300))]);
    for (u, o) in [(u_a, o_big), (u_b, o_mid), (u_c, o_small)] {
        b.add_named_edge(u, o, "worksAt");
    }
    b.add_named_edge(u_a, d[0], "recommend");
    b.add_named_edge(u_a, d[1], "recommend");
    b.add_named_edge(u_b, d[1], "recommend");
    b.add_named_edge(u_b, d[2], "recommend");
    b.add_named_edge(u_c, d[2], "recommend");
    b.add_named_edge(u_c, d[3], "recommend");
    b.add_named_edge(u_c, d[4], "recommend");
    let graph = b.finish();

    // Template Q(u_o) of Fig. 1 (simplified to one recommender chain plus
    // an optional second recommender, as in Example 3's variables).
    let s = graph.schema();
    let mut tb = TemplateBuilder::new();
    let q0 = tb.node(s.find_node_label("director").unwrap());
    let q1 = tb.node(s.find_node_label("user").unwrap());
    let q2 = tb.node(s.find_node_label("org").unwrap());
    let q3 = tb.node(s.find_node_label("user").unwrap());
    tb.edge(q1, q0, s.find_edge_label("recommend").unwrap());
    tb.edge(q1, q2, s.find_edge_label("worksAt").unwrap());
    tb.optional_edge(q3, q0, s.find_edge_label("recommend").unwrap());
    tb.range_literal(q1, s.find_attr("yearsOfExp").unwrap(), CmpOp::Ge);
    tb.range_literal(q2, s.find_attr("employees").unwrap(), CmpOp::Ge);
    let template = tb.finish(q0).unwrap();

    Fig1 { graph, template }
}

#[test]
fn relaxing_the_employee_threshold_broadens_candidates() {
    // The paper's q2 vs q1: lowering the employees bound (1000 -> 500)
    // admits candidates recommended from smaller businesses.
    let fx = fig1();
    let s = fx.graph.schema();
    let fair = FairSqg::new(&fx.graph);
    let domains = fair.domains_for(&fx.template);

    // employees >= 1500 (most refined value of x1) vs >= 500.
    let employees_var = 1; // second range literal
    let dom = domains.domain(employees_var);
    let strict_idx = (dom.len() - 1) as u16;
    // Find the index binding 500.
    let mid_idx = (1..dom.len())
        .find(|&i| {
            matches!(
                dom.values[i],
                fairsqg::query::DomainValue::Const(AttrValue::Int(500))
            )
        })
        .unwrap() as u16;

    let make = |emp_idx: u16| {
        let mut idx = vec![0u16; domains.var_count()];
        idx[employees_var] = emp_idx;
        Instantiation::new(idx)
    };
    let q_strict = ConcreteQuery::materialize(&fx.template, &domains, &make(strict_idx));
    let q_mid = ConcreteQuery::materialize(&fx.template, &domains, &make(mid_idx));
    let m_strict = fairsqg::matcher::match_output_set(&fx.graph, &q_strict, Default::default());
    let m_mid = fairsqg::matcher::match_output_set(&fx.graph, &q_mid, Default::default());
    assert!(
        m_mid.len() > m_strict.len(),
        "relaxation must broaden the answer ({} vs {})",
        m_mid.len(),
        m_strict.len()
    );
    assert!(m_strict.iter().all(|v| m_mid.contains(v)));
    let _ = s;
}

#[test]
fn example5_eps_pareto_from_paper_coordinates() {
    // Example 4/5 verbatim: instances with (δ, f) = q1 (0,1), q2 (1,1),
    // q3 (0.75,2), q4 (0.5,3); Pareto set {q2,q3,q4}; with ε = 0.3 the
    // boxed archive keeps a representative subset that still ε-dominates
    // everything.
    let objs = [
        Objectives::new(0.0, 1.0),  // q1
        Objectives::new(1.0, 1.0),  // q2
        Objectives::new(0.75, 2.0), // q3
        Objectives::new(0.5, 3.0),  // q4
    ];
    // Exact Pareto set: q2, q3, q4 (q1 dominated).
    let front = kung_pareto(&objs);
    assert_eq!(front, vec![1, 2, 3]);

    // ε-archive behavior at ε = 0.3.
    let eps = 0.3;
    let boxes: Vec<_> = objs.iter().map(|o| o.boxed(eps)).collect();
    // q3's box dominates-or-equals q2's box (the paper removes q2).
    assert!(boxes[2].dominates_or_eq(&boxes[1]));
    // q3 and q4 are box-incomparable (both stay).
    assert!(!boxes[2].dominates(&boxes[3]) && !boxes[3].dominates(&boxes[2]));
}

#[test]
fn full_generation_on_fig1_graph() {
    let fx = fig1();
    let s = fx.graph.schema();
    let gender = s.find_attr("gender").unwrap();
    let groups = GroupSet::by_attribute(&fx.graph, gender, &[AttrValue::Int(0), AttrValue::Int(1)]);
    let spec = CoverageSpec::equal_opportunity(2, 1);

    let fair = FairSqg::new(&fx.graph).epsilon(0.3);
    let bi = fair.generate(&fx.template, &groups, &spec, Algorithm::BiQGen);
    let exact = fair.generate(&fx.template, &groups, &spec, Algorithm::Kungs);
    assert!(!bi.entries.is_empty());
    assert!(!exact.entries.is_empty());
    assert!(bi.entries.len() <= exact.entries.len().max(1) + 2);

    // Every member covers one male and one female director.
    for e in &bi.entries {
        assert!(e.result.counts.iter().all(|&c| c >= 1));
    }
}

#[test]
fn lattice_of_fig1_template_has_expected_shape() {
    let fx = fig1();
    let fair = FairSqg::new(&fx.graph);
    let domains = fair.domains_for(&fx.template);
    // x0: yearsOfExp over {6, 10, 12} + wildcard = 4 values;
    // x1: employees over {300, 500, 1500} + wildcard = 4 values;
    // x2: edge on/off = 2 values.
    assert_eq!(domains.var_count(), 3);
    assert_eq!(domains.instance_space_size(), 4 * 4 * 2);
    let lat = InstanceLattice::new(&domains);
    assert_eq!(lat.enumerate().len(), 32);
}
