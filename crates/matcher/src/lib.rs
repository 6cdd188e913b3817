//! # fairsqg-matcher
//!
//! Subgraph-isomorphism matching engine for FairSQG: computes the match set
//! `q(u_o, G)` of a concrete query instance's output node (Section II,
//! "Matches"), with support for incremental re-verification of refined
//! instances (`incVerify`, Section IV).
//!
//! The engine uses candidate filtering (label index + literal predicates,
//! memoised across calls) and connected backtracking with
//! adjacency-driven extension under a greedy smallest-candidate-set-first
//! matching order that adapts mid-enumeration when failure counts show it
//! misjudged selectivity. [`try_match_witnessed`] also returns one
//! embedding per match; passed back as [`MatchOptions::ancestors`], those
//! certify a refinement's roots without a search whenever they still hold.
//! [`MatchOptions::use_index`]` = false` is the reference path (scan, no
//! memo, no bitsets, no re-plan, no witnesses), and a brute-force
//! implementation ([`match_output_set_bruteforce`]) validates both in
//! tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backtrack;
mod budget;
mod candidates;
mod plan;
mod reference;
mod stats;

pub use backtrack::{
    match_output_set, try_match_output_set, try_match_output_set_with, try_match_witnessed,
    MatchOptions, MatchScratch, Witnesses, NO_NODE, STOP_POLL_STEPS,
};
pub use budget::{BudgetExceeded, BudgetKind, MatchBudget};
pub use candidates::{candidates, candidates_from_pool, candidates_scan, satisfies_literals};
pub use plan::{plan_matching_order, MatchPlan};
pub use reference::match_output_set_bruteforce;
pub use stats::{matcher_stats, take_stats, MatcherStats};

#[cfg(test)]
mod tests {
    use super::*;
    use fairsqg_graph::{AttrValue, CmpOp, Graph, GraphBuilder, NodeId};
    use fairsqg_query::{
        ConcreteQuery, DomainConfig, Instantiation, QueryTemplate, RefinementDomains,
        TemplateBuilder,
    };

    /// The talent-search style graph from the paper's running example:
    /// directors recommended by experienced users who work at large orgs.
    fn talent_graph() -> Graph {
        let mut b = GraphBuilder::new();
        // Directors v1..v3
        let d1 = b.add_named_node("director", &[("gender", AttrValue::Int(0))]);
        let d2 = b.add_named_node("director", &[("gender", AttrValue::Int(1))]);
        let d3 = b.add_named_node("director", &[("gender", AttrValue::Int(1))]);
        // Recommenders
        let r1 = b.add_named_node("user", &[("yearsOfExp", AttrValue::Int(12))]);
        let r2 = b.add_named_node("user", &[("yearsOfExp", AttrValue::Int(6))]);
        // Orgs
        let o1 = b.add_named_node("org", &[("employees", AttrValue::Int(1500))]);
        let o2 = b.add_named_node("org", &[("employees", AttrValue::Int(300))]);
        b.add_named_edge(r1, d1, "recommend");
        b.add_named_edge(r1, d2, "recommend");
        b.add_named_edge(r2, d2, "recommend");
        b.add_named_edge(r2, d3, "recommend");
        b.add_named_edge(r1, o1, "worksAt");
        b.add_named_edge(r2, o2, "worksAt");
        b.finish()
    }

    /// Template: director u_o <-recommend- user u1 -worksAt-> org u2, with
    /// range vars on u1.yearsOfExp >= x and u2.employees >= y.
    fn talent_template(g: &Graph) -> (QueryTemplate, RefinementDomains) {
        let s = g.schema();
        let mut tb = TemplateBuilder::new();
        let u0 = tb.node(s.find_node_label("director").unwrap());
        let u1 = tb.node(s.find_node_label("user").unwrap());
        let u2 = tb.node(s.find_node_label("org").unwrap());
        tb.edge(u1, u0, s.find_edge_label("recommend").unwrap());
        tb.edge(u1, u2, s.find_edge_label("worksAt").unwrap());
        tb.range_literal(u1, s.find_attr("yearsOfExp").unwrap(), CmpOp::Ge);
        tb.range_literal(u2, s.find_attr("employees").unwrap(), CmpOp::Ge);
        let t = tb.finish(u0).unwrap();
        let d = RefinementDomains::build(&t, g, DomainConfig::default());
        (t, d)
    }

    #[test]
    fn root_instance_matches_all_recommended_directors() {
        let g = talent_graph();
        let (t, d) = talent_template(&g);
        let q = ConcreteQuery::materialize(&t, &d, &Instantiation::root(&d));
        let m = match_output_set(&g, &q, MatchOptions::default());
        assert_eq!(m, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(m, match_output_set_bruteforce(&g, &q));
    }

    #[test]
    fn refined_instance_shrinks_match_set() {
        let g = talent_graph();
        let (t, d) = talent_template(&g);
        // Refine yearsOfExp fully: only r1 (12 yrs) qualifies -> d1, d2.
        let mut idx = vec![0u16; d.var_count()];
        idx[0] = (d.domain(0).len() - 1) as u16;
        let q = ConcreteQuery::materialize(&t, &d, &Instantiation::new(idx));
        let m = match_output_set(&g, &q, MatchOptions::default());
        assert_eq!(m, vec![NodeId(0), NodeId(1)]);
        assert_eq!(m, match_output_set_bruteforce(&g, &q));
    }

    #[test]
    fn restricting_output_pool_is_sound() {
        let g = talent_graph();
        let (t, d) = talent_template(&g);
        let root_q = ConcreteQuery::materialize(&t, &d, &Instantiation::root(&d));
        let root_m = match_output_set(&g, &root_q, MatchOptions::default());

        // Refine employees to >= 1500: only o1 qualifies -> via r1 -> d1, d2.
        let mut idx = vec![0u16; d.var_count()];
        idx[1] = (d.domain(1).len() - 1) as u16;
        let q = ConcreteQuery::materialize(&t, &d, &Instantiation::new(idx));
        let full = match_output_set(&g, &q, MatchOptions::default());
        let restricted = match_output_set(
            &g,
            &q,
            MatchOptions {
                restrict_output: Some(&root_m),
                ..MatchOptions::default()
            },
        );
        assert_eq!(full, restricted);
        assert_eq!(full, vec![NodeId(0), NodeId(1)]);
    }

    /// Matches of `q` with `parent`'s rows as the one ancestor (and its
    /// match set as the pool), plus the rows and witness hits of the call.
    fn witnessed(
        g: &Graph,
        q: &ConcreteQuery,
        parent: (&[NodeId], &[NodeId]),
        use_index: bool,
    ) -> (Vec<NodeId>, Vec<NodeId>, u64) {
        let ancestors = [Witnesses {
            matches: parent.0,
            rows: parent.1,
        }];
        let _ = take_stats();
        let (m, rows) = try_match_witnessed(
            g,
            q,
            MatchOptions {
                restrict_output: Some(parent.0),
                use_index,
                ancestors: &ancestors,
                ..MatchOptions::default()
            },
            &MatchBudget::UNLIMITED,
            &mut MatchScratch::default(),
        )
        .unwrap();
        (m, rows, take_stats().witness_hits)
    }

    /// The row of match `v` in a `(matches, rows)` pair.
    fn row_of<'r>(q: &ConcreteQuery, m: &[NodeId], rows: &'r [NodeId], v: NodeId) -> &'r [NodeId] {
        let i = m.binary_search(&v).unwrap();
        &rows[i * q.nodes.len()..(i + 1) * q.nodes.len()]
    }

    #[test]
    fn a_stale_witness_falls_back_to_the_search() {
        // Director d2 (node 1) is recommended by r1 (12 years, node 3) and
        // r2 (6 years, node 4). The root's search reaches r1 first; the
        // child's `yearsOfExp <= 8` rejects r1, so d2's row is stale and the
        // search must find its second embedding, through r2.
        let g = talent_graph();
        let s = g.schema();
        let mut tb = TemplateBuilder::new();
        let u0 = tb.node(s.find_node_label("director").unwrap());
        let u1 = tb.node(s.find_node_label("user").unwrap());
        tb.edge(u1, u0, s.find_edge_label("recommend").unwrap());
        tb.range_literal(u1, s.find_attr("yearsOfExp").unwrap(), CmpOp::Le);
        let t = tb.finish(u0).unwrap();
        let d = RefinementDomains::with_range_values(&t, vec![vec![AttrValue::Int(8)]]);
        let root = ConcreteQuery::materialize(&t, &d, &Instantiation::new(vec![0]));
        let child = ConcreteQuery::materialize(&t, &d, &Instantiation::new(vec![1]));
        let (rm, rrows) = try_match_witnessed(
            &g,
            &root,
            MatchOptions::default(),
            &MatchBudget::UNLIMITED,
            &mut MatchScratch::default(),
        )
        .unwrap();
        assert_eq!(rm, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(
            row_of(&root, &rm, &rrows, NodeId(1)),
            &[NodeId(1), NodeId(3)]
        );

        let (m, rows, hits) = witnessed(&g, &child, (&rm, &rrows), true);
        assert_eq!(m, vec![NodeId(1), NodeId(2)]);
        assert_eq!(m, match_output_set_bruteforce(&g, &child));
        assert_eq!(
            row_of(&child, &m, &rows, NodeId(1)),
            &[NodeId(1), NodeId(4)]
        );
        assert_eq!(hits, 1, "only d3's row (through r2) still holds");
        // The reference path reads no witnesses.
        let (reference, _, hits) = witnessed(&g, &child, (&rm, &rrows), false);
        assert_eq!((reference, hits), (m, 0));
    }

    #[test]
    fn a_grown_active_set_has_no_certificate() {
        // The optional edge brings `u2` into the child; the root's rows
        // hold `NO_NODE` there, so no root is certified and every one is
        // searched.
        let g = talent_graph();
        let s = g.schema();
        let mut tb = TemplateBuilder::new();
        let u0 = tb.node(s.find_node_label("director").unwrap());
        let u1 = tb.node(s.find_node_label("user").unwrap());
        let u2 = tb.node(s.find_node_label("org").unwrap());
        tb.edge(u1, u0, s.find_edge_label("recommend").unwrap());
        tb.optional_edge(u1, u2, s.find_edge_label("worksAt").unwrap());
        let t = tb.finish(u0).unwrap();
        let d = RefinementDomains::with_range_values(&t, vec![]);
        let root = ConcreteQuery::materialize(&t, &d, &Instantiation::new(vec![0]));
        let child = ConcreteQuery::materialize(&t, &d, &Instantiation::new(vec![1]));
        assert_eq!(
            (root.active_nodes().count(), child.active_nodes().count()),
            (2, 3)
        );
        let (rm, rrows) = try_match_witnessed(
            &g,
            &root,
            MatchOptions::default(),
            &MatchBudget::UNLIMITED,
            &mut MatchScratch::default(),
        )
        .unwrap();
        assert!(rrows.chunks(3).all(|row| row[2] == NO_NODE));

        let (m, rows, hits) = witnessed(&g, &child, (&rm, &rrows), true);
        assert_eq!(hits, 0);
        assert_eq!(m, match_output_set_bruteforce(&g, &child));
        assert_eq!(m.len(), 3);
        assert!(rows.chunks(3).all(|row| row[2] != NO_NODE));
    }

    #[test]
    fn a_forged_row_certifies_nothing() {
        // Rows that embed nothing — every template node on the match
        // itself — under the true match set: each root is searched, and
        // the result is the brute-force one.
        let g = talent_graph();
        let (t, d) = talent_template(&g);
        let q = ConcreteQuery::materialize(&t, &d, &Instantiation::root(&d));
        let m = match_output_set(&g, &q, MatchOptions::default());
        let forged: Vec<NodeId> = m.iter().flat_map(|&v| [v; 3]).collect();
        let (found, _, hits) = witnessed(&g, &q, (&m, &forged), true);
        assert_eq!(hits, 0);
        assert_eq!(found, match_output_set_bruteforce(&g, &q));
    }

    #[test]
    fn unlimited_budget_agrees_with_plain_matching() {
        let g = talent_graph();
        let (t, d) = talent_template(&g);
        let q = ConcreteQuery::materialize(&t, &d, &Instantiation::root(&d));
        let plain = match_output_set(&g, &q, MatchOptions::default());
        let bounded =
            try_match_output_set(&g, &q, MatchOptions::default(), &MatchBudget::UNLIMITED).unwrap();
        assert_eq!(plain, bounded);
    }

    #[test]
    fn candidate_cap_trips_structurally() {
        let g = talent_graph();
        let (t, d) = talent_template(&g);
        let q = ConcreteQuery::materialize(&t, &d, &Instantiation::root(&d));
        let budget = MatchBudget {
            max_candidates: Some(1),
            ..MatchBudget::default()
        };
        let err = try_match_output_set(&g, &q, MatchOptions::default(), &budget).unwrap_err();
        assert_eq!(err.kind, BudgetKind::Candidates);
        assert_eq!(err.limit, 1);
    }

    #[test]
    fn step_cap_trips_structurally() {
        let g = talent_graph();
        let (t, d) = talent_template(&g);
        let q = ConcreteQuery::materialize(&t, &d, &Instantiation::root(&d));
        let budget = MatchBudget {
            max_steps: Some(1),
            ..MatchBudget::default()
        };
        let err = try_match_output_set(&g, &q, MatchOptions::default(), &budget).unwrap_err();
        assert_eq!(err.kind, BudgetKind::Steps);
    }

    #[test]
    fn match_cap_trips_structurally() {
        let g = talent_graph();
        let (t, d) = talent_template(&g);
        let q = ConcreteQuery::materialize(&t, &d, &Instantiation::root(&d));
        let budget = MatchBudget {
            max_matches: Some(2),
            ..MatchBudget::default()
        };
        // Root instance has 3 matches; a cap of 2 must trip.
        let err = try_match_output_set(&g, &q, MatchOptions::default(), &budget).unwrap_err();
        assert_eq!(err.kind, BudgetKind::Matches);
        // A generous cap passes through untouched.
        let ok = try_match_output_set(
            &g,
            &q,
            MatchOptions::default(),
            &MatchBudget {
                max_matches: Some(10),
                ..MatchBudget::default()
            },
        )
        .unwrap();
        assert_eq!(ok.len(), 3);
    }

    #[test]
    fn hard_stop_flag_aborts_mid_search() {
        use std::sync::atomic::AtomicBool;
        let g = talent_graph();
        let (t, d) = talent_template(&g);
        let q = ConcreteQuery::materialize(&t, &d, &Instantiation::root(&d));
        // A pre-fired flag must abort before any work (polled at candidate
        // computation and at every root extension).
        let fired = AtomicBool::new(true);
        let err = try_match_output_set(
            &g,
            &q,
            MatchOptions {
                stop: Some(&fired),
                ..MatchOptions::default()
            },
            &MatchBudget::UNLIMITED,
        )
        .unwrap_err();
        assert_eq!(err.kind, BudgetKind::HardStop);
        assert_eq!(err.to_string(), "verification hard-stopped mid-search");
        // An unfired flag is inert: results match the plain path.
        let idle = AtomicBool::new(false);
        let m = try_match_output_set(
            &g,
            &q,
            MatchOptions {
                stop: Some(&idle),
                ..MatchOptions::default()
            },
            &MatchBudget::UNLIMITED,
        )
        .unwrap();
        assert_eq!(m, match_output_set(&g, &q, MatchOptions::default()));
    }

    #[test]
    fn empty_candidates_short_circuit() {
        let g = talent_graph();
        let (t, d) = talent_template(&g);
        let q = ConcreteQuery::materialize(&t, &d, &Instantiation::root(&d));
        let m = match_output_set(
            &g,
            &q,
            MatchOptions {
                restrict_output: Some(&[]),
                ..MatchOptions::default()
            },
        );
        assert!(m.is_empty());
    }

    #[test]
    fn injectivity_is_enforced() {
        // Query: a -knows-> b, a -knows-> c with b,c same label: needs two
        // distinct targets.
        let mut b = GraphBuilder::new();
        let x = b.add_named_node("p", &[]);
        let y = b.add_named_node("p", &[]);
        b.add_named_edge(x, y, "knows");
        let g1 = b.finish(); // only one target: no injective embedding

        let s = g1.schema();
        let p = s.find_node_label("p").unwrap();
        let knows = s.find_edge_label("knows").unwrap();
        let mut tb = TemplateBuilder::new();
        let a = tb.node(p);
        let b1 = tb.node(p);
        let c1 = tb.node(p);
        tb.edge(a, b1, knows);
        tb.edge(a, c1, knows);
        let t = tb.finish(a).unwrap();
        let d = RefinementDomains::with_range_values(&t, vec![]);
        let q = ConcreteQuery::materialize(&t, &d, &Instantiation::new(vec![]));
        assert!(match_output_set(&g1, &q, MatchOptions::default()).is_empty());
        assert!(match_output_set_bruteforce(&g1, &q).is_empty());

        // Add a second target: now x matches.
        let mut b = GraphBuilder::with_schema(g1.schema().clone());
        let x = b.add_named_node("p", &[]);
        let y = b.add_named_node("p", &[]);
        let z = b.add_named_node("p", &[]);
        b.add_named_edge(x, y, "knows");
        b.add_named_edge(x, z, "knows");
        let g2 = b.finish();
        let m = match_output_set(&g2, &q, MatchOptions::default());
        assert_eq!(m, vec![x]);
        assert_eq!(m, match_output_set_bruteforce(&g2, &q));
    }

    #[test]
    fn cyclic_query_pattern() {
        // Triangle query over a graph with one triangle and one open wedge.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.add_named_node("p", &[])).collect();
        // Triangle 0->1->2->0
        b.add_named_edge(n[0], n[1], "e");
        b.add_named_edge(n[1], n[2], "e");
        b.add_named_edge(n[2], n[0], "e");
        // Wedge 3->4, 4->3 (2-cycle, no triangle)
        b.add_named_edge(n[3], n[4], "e");
        b.add_named_edge(n[4], n[3], "e");
        let g = b.finish();
        let s = g.schema();
        let p = s.find_node_label("p").unwrap();
        let e = s.find_edge_label("e").unwrap();
        let mut tb = TemplateBuilder::new();
        let a = tb.node(p);
        let c = tb.node(p);
        let dd = tb.node(p);
        tb.edge(a, c, e);
        tb.edge(c, dd, e);
        tb.edge(dd, a, e);
        let t = tb.finish(a).unwrap();
        let dom = RefinementDomains::with_range_values(&t, vec![]);
        let q = ConcreteQuery::materialize(&t, &dom, &Instantiation::new(vec![]));
        let m = match_output_set(&g, &q, MatchOptions::default());
        assert_eq!(m, vec![n[0], n[1], n[2]]);
        assert_eq!(m, match_output_set_bruteforce(&g, &q));
    }

    #[test]
    fn edge_labels_disambiguate() {
        let mut b = GraphBuilder::new();
        let x = b.add_named_node("p", &[]);
        let y = b.add_named_node("p", &[]);
        let z = b.add_named_node("p", &[]);
        b.add_named_edge(x, y, "likes");
        b.add_named_edge(x, z, "hates");
        let g = b.finish();
        let s = g.schema();
        let p = s.find_node_label("p").unwrap();
        let likes = s.find_edge_label("likes").unwrap();
        let mut tb = TemplateBuilder::new();
        let a = tb.node(p);
        let c = tb.node(p);
        tb.edge(a, c, likes);
        let t = tb.finish(c).unwrap(); // output = the liked node
        let d = RefinementDomains::with_range_values(&t, vec![]);
        let q = ConcreteQuery::materialize(&t, &d, &Instantiation::new(vec![]));
        let m = match_output_set(&g, &q, MatchOptions::default());
        assert_eq!(m, vec![y]);
        assert_eq!(m, match_output_set_bruteforce(&g, &q));
    }
}
