//! Seeded inputs: data graphs from `fairsqg-datagen`, and fixed template
//! shapes over them.
//!
//! The seed draws the graph; the template *shapes* are constants. A
//! template sampled from the graph (as `datagen::workload` does) changes
//! topology with the seed, and its cost with it by an order of magnitude —
//! a benchmark on it would measure the draw, not the program.

use fairsqg_algo::Configuration;
use fairsqg_datagen::{
    citations_graph, gender_groups, genre_groups, movies_graph, social_graph, CitationsConfig,
    MoviesConfig, SocialConfig, TOPICS,
};
use fairsqg_graph::{AttrValue, CoverageSpec, Graph, GroupSet, NodeId};
use fairsqg_matcher::{try_match_output_set_with, MatchBudget, MatchOptions, MatchScratch};
use fairsqg_measures::DiversityConfig;
use fairsqg_query::{
    parse_template, ConcreteQuery, DomainConfig, Instantiation, QueryTemplate, RefinementDomains,
};

/// LKI, 5 edges: directors recommended by two distinct employed users,
/// one of whom optionally recommends another director. 2 range + 1 edge
/// variable. Loose on purpose: the root matches ~3/4 of the directors.
pub const LKI_5: &str = "\
node u0 : director
node u1 : user
node u2 : org
node u3 : user
node u4 : org
node u5 : director
edge u1 -recommend-> u0
edge u1 -worksAt-> u2
edge u3 -recommend-> u0
edge u3 -worksAt-> u4
optional u3 -recommend-> u5
where u1.yearsOfExp >= ?
where u2.employees >= ?
output u0
";

/// DBP, 5 edges: movies with a director, a country and two cast members.
pub const DBP_5: &str = "\
node u0 : movie
node u1 : director
node u2 : actor
node u3 : country
node u4 : actor
node u5 : country
edge u1 -directed-> u0
edge u2 -actedIn-> u0
edge u0 -producedIn-> u3
edge u4 -actedIn-> u0
optional u4 -bornIn-> u5
where u1.yearsActive >= ?
where u2.age >= ?
output u0
";

/// Cite, 7 edges: a paper cited by three others, two of which cite each
/// other, the third sharing an author with a further paper. Match sets
/// stay small (tens of papers), and finding them means trying the
/// in-neighbours of well-cited papers three at a time.
pub const CITE_7: &str = "\
node u0 : paper
node u1 : paper
node u2 : paper
node u3 : paper
node u4 : author
node u5 : paper
node u6 : paper
edge u1 -cites-> u0
edge u2 -cites-> u0
edge u3 -cites-> u0
edge u1 -cites-> u2
edge u4 -authored-> u3
edge u4 -authored-> u5
optional u5 -cites-> u6
where u1.year >= ?
where u4.hIndex >= ?
output u0
";

/// The four LKI templates of the serving workloads: 2 to 3 edges, one
/// range and one edge variable (`|I(Q)| = 9 · 2 = 18` under the service's
/// default domains). The constant literals keep match sets near a hundred
/// nodes, so one job costs two to three milliseconds and a rate of
/// hundreds per second is servable on two workers.
pub const LKI_SERVE: [&str; 4] = [
    "\
node u0 : director
node u1 : user
node u2 : org
node u3 : user
edge u1 -recommend-> u0
edge u1 -worksAt-> u2
optional u3 -recommend-> u0
where u0.yearsOfExp >= 24
where u1.yearsOfExp >= ?
output u0
",
    "\
node u0 : director
node u1 : user
node u2 : org
edge u1 -recommend-> u0
optional u1 -worksAt-> u2
where u0.major <= 5
where u2.employees >= 1000
where u1.endorsements >= ?
output u0
",
    "\
node u0 : director
node u1 : user
node u2 : user
edge u1 -recommend-> u0
edge u2 -recommend-> u0
optional u1 -coReview-> u2
where u0.major >= 13
where u2.endorsements >= ?
output u0
",
    "\
node u0 : director
node u1 : user
node u2 : org
node u3 : director
edge u1 -recommend-> u0
edge u1 -worksAt-> u2
optional u1 -recommend-> u3
where u0.yearsOfExp <= 10
where u2.founded >= ?
output u0
",
];

/// The first job `store-load` asks a freshly started server. Selective on
/// purpose (about 0.4 % of the directors match at the root): the cycle
/// should time the load path, not a large generation.
pub const LKI_FIRST_JOB: &str = "\
node u0 : director
node u1 : user
node u2 : org
edge u1 -recommend-> u0
optional u1 -worksAt-> u2
where u0.major <= 0
where u0.yearsOfExp >= 32
where u1.yearsOfExp >= ?
output u0
";

pub fn lki(directors: usize, seed: u64) -> Graph {
    social_graph(SocialConfig {
        directors,
        majority_share: 0.65,
        seed,
    })
}

pub fn dbp(movies: usize, seed: u64) -> Graph {
    movies_graph(MoviesConfig { movies, seed })
}

pub fn cite(papers: usize, seed: u64) -> Graph {
    citations_graph(CitationsConfig { papers, seed })
}

pub fn lki_groups(g: &Graph) -> GroupSet {
    gender_groups(g)
}

pub fn dbp_groups(g: &Graph) -> GroupSet {
    genre_groups(g, 2)
}

/// Machine-learning papers against all others. The two most common
/// topics (`topic_groups(g, 2)`) leave the second group a handful of
/// matches under `CITE_7`, and on some draws none.
pub fn cite_groups(g: &Graph) -> GroupSet {
    let schema = g.schema();
    let paper = schema.find_node_label("paper").expect("a citation graph");
    let topic = schema.find_attr("topic").expect("papers have a topic");
    let head = AttrValue::Str(schema.find_symbol(TOPICS[0]).expect("the head topic"));
    let (head_papers, others): (Vec<NodeId>, Vec<NodeId>) = g
        .nodes_with_label(paper)
        .iter()
        .partition(|&&v| g.attr(v, topic) == Some(head));
    GroupSet::from_members(
        g.node_count(),
        vec![
            (TOPICS[0].to_string(), head_papers),
            ("other".to_string(), others),
        ],
    )
}

/// Equal-opportunity cover `c`: half the root instance's smallest group
/// count, so the root is feasible and refinement runs into infeasibility.
pub fn half_root_cover(
    graph: &Graph,
    template: &QueryTemplate,
    domains: &RefinementDomains,
    groups: &GroupSet,
) -> u32 {
    let root = ConcreteQuery::materialize(template, domains, &Instantiation::root(domains));
    let matches = try_match_output_set_with(
        graph,
        &root,
        MatchOptions::default(),
        &MatchBudget::UNLIMITED,
        &mut MatchScratch::default(),
    )
    .expect("an unlimited budget cannot trip");
    let least = groups
        .count_in_groups(&matches)
        .into_iter()
        .min()
        .unwrap_or(0);
    (least / 2).max(1)
}

/// One generation problem: everything a cold `Configuration` borrows.
pub struct Case {
    pub name: String,
    pub graph: Graph,
    pub dsl: &'static str,
    pub template: QueryTemplate,
    pub domains: RefinementDomains,
    pub groups: GroupSet,
    pub coverage: CoverageSpec,
    pub eps: f64,
    pub diversity: DiversityConfig,
}

/// The paper's default tolerance and trade-off for the library workloads.
pub const EPS: f64 = 0.01;
pub const LAMBDA: f64 = 0.5;

impl Case {
    /// Parses `dsl` against `graph`, builds the refinement domains with
    /// at most `max_values` constants per range variable, and calibrates
    /// the cover to the root instance.
    pub fn build(
        name: String,
        graph: Graph,
        dsl: &'static str,
        groups: GroupSet,
        max_values: usize,
    ) -> Self {
        let template = parse_template(graph.schema(), dsl)
            .unwrap_or_else(|e| panic!("template of {name} does not fit its graph: {e}"));
        let domains = RefinementDomains::build(
            &template,
            &graph,
            DomainConfig {
                max_values_per_range_var: max_values,
            },
        );
        let cover = half_root_cover(&graph, &template, &domains, &groups);
        let coverage = CoverageSpec::equal_opportunity(groups.len(), cover);
        Self {
            name,
            graph,
            dsl,
            template,
            domains,
            groups,
            coverage,
            eps: EPS,
            diversity: DiversityConfig {
                lambda: LAMBDA,
                ..DiversityConfig::default()
            },
        }
    }

    /// A cold configuration: no shared cache, no pre-planned order.
    pub fn config(&self) -> Configuration<'_> {
        Configuration::new(
            &self.graph,
            &self.template,
            &self.domains,
            &self.groups,
            &self.coverage,
            self.eps,
            self.diversity,
        )
    }

    pub fn describe(&self) -> String {
        format!(
            "{}: |V_uo|={} |I(Q)|={} cover={}",
            self.name,
            self.graph.label_population(self.template.output_label()),
            self.domains.instance_space_size(),
            self.coverage.constraints()[0],
        )
    }
}
