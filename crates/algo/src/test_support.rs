//! Shared test fixture: a miniature talent-search graph (Example 1 of the
//! paper) with gender groups, a 3-variable template, and helpers to build
//! configurations. Only compiled for tests.

use crate::config::Configuration;
use crate::evaluator::{MatchRecord, MatchTable};
use fairsqg_graph::{AttrValue, CmpOp, CoverageSpec, Graph, GraphBuilder, GroupSet, NodeId};
use fairsqg_measures::{DiversityConfig, Relevance};
use fairsqg_query::{
    DomainConfig, Instantiation, QueryTemplate, RefinementDomains, TemplateBuilder,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A plain [`MatchTable`] that counts how often it is read and written.
#[derive(Default)]
pub struct CountingTable {
    records: Mutex<HashMap<Instantiation, Arc<MatchRecord>>>,
    /// Reads, hit or miss.
    pub gets: AtomicU64,
    /// Publications, stored or not.
    pub publishes: AtomicU64,
}

impl CountingTable {
    /// `(reads, publications, records held)`.
    pub fn counts(&self) -> (u64, u64, usize) {
        (
            self.gets.load(Ordering::Relaxed),
            self.publishes.load(Ordering::Relaxed),
            self.records.lock().unwrap().len(),
        )
    }
}

impl MatchTable for CountingTable {
    fn get(&self, inst: &Instantiation) -> Option<Arc<MatchRecord>> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.records.lock().unwrap().get(inst).cloned()
    }

    fn publish(&self, inst: &Instantiation, matches: &[NodeId], rows: &Arc<[NodeId]>) {
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.records
            .lock()
            .unwrap()
            .entry(inst.clone())
            .or_insert_with(|| {
                Arc::new(MatchRecord {
                    matches: matches.into(),
                    rows: Arc::clone(rows),
                })
            });
    }
}

/// Owns every piece of a small, fully deterministic configuration.
pub struct Fixture {
    graph: Graph,
    template: QueryTemplate,
    domains: RefinementDomains,
    groups: GroupSet,
    spec: CoverageSpec,
}

impl Fixture {
    /// Borrowed domains.
    pub fn domains(&self) -> &RefinementDomains {
        &self.domains
    }

    /// Borrowed graph.
    #[allow(dead_code)]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// A configuration over the fixture with the given ε.
    pub fn configuration(&self, eps: f64) -> Configuration<'_> {
        self.configuration_at(eps, 0.5)
    }

    /// A configuration over the fixture with the given ε and λ.
    pub fn configuration_at(&self, eps: f64, lambda: f64) -> Configuration<'_> {
        Configuration::new(
            &self.graph,
            &self.template,
            &self.domains,
            &self.groups,
            &self.spec,
            eps,
            DiversityConfig {
                lambda,
                relevance: Relevance::InDegreeNormalized,
            },
        )
    }
}

/// Builds the talent-search fixture:
///
/// * 12 directors (6 per gender group) with varying `major`,
/// * 6 recommenders with `yearsOfExp ∈ {5, 10, 15}`,
/// * 3 orgs with `employees ∈ {100, 500, 1000}`,
/// * template: `director u0 <-recommend- user u1 -worksAt-> org u2`, plus an
///   optional second recommender `u3 -recommend-> u0`;
///   range vars `u1.yearsOfExp >= x1`, `u2.employees >= x2`.
/// * coverage: 2 per gender group.
pub fn talent_fixture() -> Fixture {
    let mut b = GraphBuilder::new();
    let mut directors = Vec::new();
    for i in 0..12 {
        let gender = (i % 2) as i64;
        let major = (i % 5) as i64;
        directors.push(b.add_named_node(
            "director",
            &[
                ("gender", AttrValue::Int(gender)),
                ("major", AttrValue::Int(major)),
            ],
        ));
    }
    let mut users = Vec::new();
    for i in 0..6 {
        let exp = 5 + 5 * (i % 3) as i64;
        users.push(b.add_named_node("user", &[("yearsOfExp", AttrValue::Int(exp))]));
    }
    let mut orgs = Vec::new();
    for &e in &[100i64, 500, 1000] {
        orgs.push(b.add_named_node("org", &[("employees", AttrValue::Int(e))]));
    }
    // Each user recommends 4 directors; works at one org.
    for (i, &u) in users.iter().enumerate() {
        for j in 0..4 {
            b.add_named_edge(u, directors[(i * 2 + j * 3) % 12], "recommend");
        }
        b.add_named_edge(u, orgs[i % 3], "worksAt");
    }
    let graph = b.finish();
    let s = graph.schema();

    let mut tb = TemplateBuilder::new();
    let u0 = tb.node(s.find_node_label("director").unwrap());
    let u1 = tb.node(s.find_node_label("user").unwrap());
    let u2 = tb.node(s.find_node_label("org").unwrap());
    let u3 = tb.node(s.find_node_label("user").unwrap());
    let recommend = s.find_edge_label("recommend").unwrap();
    let works = s.find_edge_label("worksAt").unwrap();
    tb.edge(u1, u0, recommend);
    tb.edge(u1, u2, works);
    tb.optional_edge(u3, u0, recommend);
    tb.range_literal(u1, s.find_attr("yearsOfExp").unwrap(), CmpOp::Ge);
    tb.range_literal(u2, s.find_attr("employees").unwrap(), CmpOp::Ge);
    let template = tb.finish(u0).unwrap();
    let domains = RefinementDomains::build(&template, &graph, DomainConfig::default());

    let gender = s.find_attr("gender").unwrap();
    let groups = GroupSet::by_attribute(&graph, gender, &[AttrValue::Int(0), AttrValue::Int(1)]);
    let spec = CoverageSpec::equal_opportunity(2, 2);

    Fixture {
        graph,
        template,
        domains,
        groups,
        spec,
    }
}
