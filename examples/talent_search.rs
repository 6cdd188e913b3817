//! Talent search with equal opportunity (the paper's Example 1).
//!
//! A recruiter searches a professional network for directors recommended
//! by experienced users at large companies. The initial query returns a
//! gender-skewed answer; FairSQG suggests revised queries whose answers
//! cover both gender groups with the desired cardinality while staying
//! diverse across majors.
//!
//! ```text
//! cargo run --release --example talent_search
//! ```

use fairsqg::datagen::{gender_groups, social_graph, SocialConfig};
use fairsqg::prelude::*;
use fairsqg::query::{explain_revision, render_instance, render_template, TemplateBuilder as Tb};

fn main() {
    // The LKI-like professional network (see fairsqg-datagen).
    let graph = social_graph(SocialConfig {
        directors: 1200,
        majority_share: 0.68, // the paper's 375:173 motivating skew
        seed: 42,
    });
    let s = graph.schema();

    // Template (Fig. 1): director u0 <-recommend- user u1 -worksAt-> org u2,
    // plus an optional second recommender u3; parameterized thresholds on
    // the recommenders' experience and the org size.
    let mut tb = Tb::new();
    let u0 = tb.node(s.find_node_label("director").unwrap());
    let u1 = tb.node(s.find_node_label("user").unwrap());
    let u2 = tb.node(s.find_node_label("org").unwrap());
    let u3 = tb.node(s.find_node_label("user").unwrap());
    let recommend = s.find_edge_label("recommend").unwrap();
    tb.edge(u1, u0, recommend);
    tb.edge(u1, u2, s.find_edge_label("worksAt").unwrap());
    tb.optional_edge(u3, u0, recommend);
    tb.range_literal(u1, s.find_attr("yearsOfExp").unwrap(), CmpOp::Ge);
    tb.range_literal(u2, s.find_attr("employees").unwrap(), CmpOp::Ge);
    let template = tb.finish(u0).expect("talent template");

    // Equal opportunity, calibrated to the search: the initial (fully
    // relaxed) query answers with a skewed gender mix; we ask for revised
    // queries that still cover each group with at least 60% of the
    // minority group's presence in that initial answer.
    let groups = gender_groups(&graph);
    let root_counts = {
        use fairsqg::matcher::{match_output_set, MatchOptions};
        use fairsqg::query::{ConcreteQuery, DomainConfig, Instantiation, RefinementDomains};
        let domains = RefinementDomains::build(&template, &graph, DomainConfig::default());
        let q = ConcreteQuery::materialize(&template, &domains, &Instantiation::root(&domains));
        groups.count_in_groups(&match_output_set(&graph, &q, MatchOptions::default()))
    };
    let c = (*root_counts.iter().min().unwrap() as f64 * 0.6) as u32;
    let spec = CoverageSpec::equal_opportunity(2, c.max(2));
    println!(
        "initial query: {} male / {} female -> asking for >= {c} of each\n",
        root_counts[0], root_counts[1]
    );

    println!("{}", render_template(s, &template));
    println!(
        "group populations: {} = {}, {} = {}\n",
        groups.name(GroupId(0)),
        groups.size(GroupId(0)),
        groups.name(GroupId(1)),
        groups.size(GroupId(1)),
    );

    let fair = FairSqg::new(&graph)
        .epsilon(0.1)
        .diversity(DiversityConfig {
            lambda: 0.5,
            relevance: Relevance::InDegreeNormalized,
        });

    for (name, algo) in [("RfQGen", Algorithm::RfQGen), ("BiQGen", Algorithm::BiQGen)] {
        let result = fair.generate(&template, &groups, &spec, algo);
        let domains = fair.domains_for(&template);
        println!(
            "{name}: {} suggested queries in {:.0} ms ({} verified):",
            result.entries.len(),
            result.stats.elapsed.as_secs_f64() * 1e3,
            result.stats.verified,
        );
        let mut entries = result.entries.clone();
        entries.sort_by(|a, b| {
            b.objectives()
                .fcov
                .partial_cmp(&a.objectives().fcov)
                .unwrap()
        });
        let root = fairsqg::query::Instantiation::root(&domains);
        for e in entries.iter().take(4) {
            println!(
                "  [{} male / {} female of {} matches]  δ={:.2} f={:.0}  —  {}",
                e.result.counts[0],
                e.result.counts[1],
                e.result.matches.len(),
                e.result.objectives.delta,
                e.result.objectives.fcov,
                render_instance(s, &template, &domains, &e.inst),
            );
            println!(
                "      revision vs the initial query: {}",
                explain_revision(s, &template, &domains, &root, &e.inst)
            );
        }
        println!();
    }
}
