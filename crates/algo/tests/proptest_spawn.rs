//! `spawn_refinements` against the definition it replaced.
//!
//! The **oracle** below is the materialising `Spawn`: build `G_q^d` with
//! [`Graph::d_hop_neighborhood`], hash the values observed on it per range
//! variable, hash its node set per edge variable. `spawn_refinements`
//! answers the same questions with one early-stopping frontier search and
//! must return the same `(variable, child)` vector, order included, on
//! every input: random graphs, templates, domains, instances and match
//! sets here, and every instance of the lattice on a small draw of each
//! generator with the benchmark's template shapes.
//!
//! The vendored proptest does not shrink: a failure prints the `seed` of
//! the case, which goes into [`REGRESSION_SEEDS`].

use fairsqg_algo::{
    plain_refinements, spawn_refinements, Configuration, EvalResult, Evaluator, SpawnOptions,
};
use fairsqg_datagen::{
    citations_graph, movies_graph, social_graph, CitationsConfig, MoviesConfig, SocialConfig,
};
use fairsqg_graph::{AttrValue, CmpOp, CoverageSpec, Graph, GraphBuilder, GroupSet, NodeId};
use fairsqg_measures::{DiversityConfig, Objectives};
use fairsqg_query::{
    parse_template, DomainConfig, DomainValue, InstanceLattice, Instantiation, QNodeId,
    QueryTemplate, RefinementDomains, TemplateBuilder, VarKind,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// What Spawn returns: `(stepped variable, child)` in variable order.
type Children = Vec<(usize, Instantiation)>;

/// Seeds of [`random_case`] that once told the two apart (none so far).
const REGRESSION_SEEDS: &[u64] = &[];

/// The materialising `Spawn`, as `spawn_refinements` was written before the
/// frontier search (its match-set cap included).
fn oracle(
    cfg: &Configuration<'_>,
    inst: &Instantiation,
    matches: &[NodeId],
    template_refinement: bool,
) -> Children {
    if !template_refinement || matches.is_empty() || matches.len() > 4096 {
        return plain_refinements(cfg, inst);
    }
    let hood = cfg
        .graph
        .d_hop_neighborhood(matches, cfg.template.diameter());
    let hood_set: HashSet<NodeId> = hood.iter().copied().collect();
    let mut children = Vec::new();
    for (x, dom) in cfg.domains.domains().iter().enumerate() {
        match dom.kind {
            VarKind::Range { literal } => {
                let lit = cfg.template.range_literals()[literal];
                let label = cfg.template.nodes()[lit.node.index()].label;
                let observed: HashSet<AttrValue> = hood
                    .iter()
                    .filter(|&&w| cfg.graph.label(w) == label)
                    .filter_map(|&w| cfg.graph.attr(w, lit.attr))
                    .collect();
                let mut cursor = inst.clone();
                while let Some(next) = cursor.refine_step(x, cfg.domains) {
                    let keep = match next.value(x, cfg.domains) {
                        DomainValue::Const(c) => observed.contains(c),
                        _ => true,
                    };
                    if keep {
                        children.push((x, next));
                        break;
                    }
                    cursor = next;
                }
            }
            VarKind::Edge { edge } => {
                if let Some(next) = inst.refine_step(x, cfg.domains) {
                    let e = cfg.template.edges()[edge];
                    let src_label = cfg.template.nodes()[e.src.index()].label;
                    let dst_label = cfg.template.nodes()[e.dst.index()].label;
                    let exists = hood
                        .iter()
                        .filter(|&&w| cfg.graph.label(w) == src_label)
                        .any(|&w| {
                            cfg.graph.out_neighbors(w).iter().any(|a| {
                                a.label() == e.label
                                    && cfg.graph.label(a.to()) == dst_label
                                    && hood_set.contains(&a.to())
                            })
                        });
                    if exists {
                        children.push((x, next));
                    }
                }
            }
        }
    }
    children
}

/// A stand-in verification result carrying `matches` (Spawn reads nothing
/// else).
fn result_with(matches: Vec<NodeId>) -> EvalResult {
    EvalResult {
        matches,
        counts: Vec::new(),
        objectives: Objectives::new(0.0, 0.0),
        feasible: true,
    }
}

/// Everything a [`Configuration`] borrows. Spawn reads the graph, the
/// template and the domains; the groups are one group of every output node
/// with no cover demanded, so every instance is feasible.
struct Setting {
    graph: Graph,
    template: QueryTemplate,
    domains: RefinementDomains,
    groups: GroupSet,
    spec: CoverageSpec,
}

impl Setting {
    fn new(graph: Graph, template: QueryTemplate, domains: RefinementDomains) -> Self {
        let members = graph.nodes_with_label(template.output_label()).to_vec();
        let groups = GroupSet::from_members(graph.node_count(), vec![("all".into(), members)]);
        Self {
            graph,
            template,
            domains,
            groups,
            spec: CoverageSpec::equal_opportunity(1, 0),
        }
    }

    fn cfg(&self) -> Configuration<'_> {
        Configuration::new(
            &self.graph,
            &self.template,
            &self.domains,
            &self.groups,
            &self.spec,
            0.1,
            DiversityConfig::default(),
        )
    }
}

/// `(new, oracle)` for one instance and match set.
fn both(
    cfg: &Configuration<'_>,
    inst: &Instantiation,
    matches: Vec<NodeId>,
    template_refinement: bool,
) -> (Children, Children) {
    let old = oracle(cfg, inst, &matches, template_refinement);
    let new = spawn_refinements(
        cfg,
        inst,
        &result_with(matches),
        SpawnOptions {
            template_refinement,
        },
    );
    (new, old)
}

const LABELS: [&str; 3] = ["l0", "l1", "l2"];
const EDGE_LABELS: [&str; 3] = ["e0", "e1", "e2"];
/// Interned in every random graph, carried by none of its edges.
const ABSENT_EDGE_LABEL: &str = "nowhere";
const ATTRS: [&str; 2] = ["a0", "a1"];
const OPS: [CmpOp; 4] = [CmpOp::Ge, CmpOp::Gt, CmpOp::Le, CmpOp::Lt];

fn pick(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

fn chance(rng: &mut TestRng, one_in: u64) -> bool {
    rng.below(one_in) == 0
}

/// A small sparse graph: 2–3 node labels, 2–3 edge labels, two attributes
/// over six values (missing on a quarter of the nodes, a string now and
/// then), fewer edges than it takes to connect it more often than not, and
/// self-loops.
fn random_graph(rng: &mut TestRng) -> Graph {
    let mut b = GraphBuilder::new();
    for l in LABELS {
        b.schema_mut().node_label(l);
    }
    for e in EDGE_LABELS {
        b.schema_mut().edge_label(e);
    }
    b.schema_mut().edge_label(ABSENT_EDGE_LABEL);
    for a in ATTRS {
        b.schema_mut().attr(a);
    }
    let labels = 2 + pick(rng, 2);
    let edge_labels = 2 + pick(rng, 2);
    let n = 1 + pick(rng, 40);
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        let mut attrs = Vec::new();
        for a in ATTRS {
            if !chance(rng, 4) {
                let v = rng.below(6) as i64;
                let value = if chance(rng, 8) {
                    AttrValue::Str(b.schema_mut().symbol(&format!("s{v}")))
                } else {
                    AttrValue::Int(v)
                };
                attrs.push((a, value));
            }
        }
        ids.push(b.add_named_node(LABELS[pick(rng, labels)], &attrs));
    }
    for _ in 0..pick(rng, 2 * n) {
        let (src, dst) = (ids[pick(rng, n)], ids[pick(rng, n)]);
        b.add_named_edge(src, dst, EDGE_LABELS[pick(rng, edge_labels)]);
    }
    b.finish()
}

/// A connected template of 1–4 nodes (one node: `d = 0`) with 1–3 range
/// variables on any node, ascending and descending, optional edges, and
/// now and then an optional edge whose label no graph edge carries.
fn random_template(rng: &mut TestRng, graph: &Graph) -> QueryTemplate {
    let s = graph.schema();
    let mut tb = TemplateBuilder::new();
    let k = 1 + pick(rng, 4);
    let nodes: Vec<QNodeId> = (0..k)
        .map(|_| tb.node(s.find_node_label(LABELS[pick(rng, 3)]).unwrap()))
        .collect();
    // An edge with a random label that graph edges do carry, optional one
    // time in three.
    let edge = |tb: &mut TemplateBuilder, rng: &mut TestRng, a: QNodeId, b: QNodeId| {
        let label = s.find_edge_label(EDGE_LABELS[pick(rng, 3)]).unwrap();
        if chance(rng, 3) {
            tb.optional_edge(a, b, label);
        } else {
            tb.edge(a, b, label);
        }
    };
    for i in 1..k {
        let peer = nodes[pick(rng, i)];
        let (a, b) = if chance(rng, 2) {
            (nodes[i], peer)
        } else {
            (peer, nodes[i])
        };
        edge(&mut tb, rng, a, b);
    }
    if k >= 2 {
        let a = pick(rng, k);
        let b = (a + 1 + pick(rng, k - 1)) % k;
        if chance(rng, 2) {
            edge(&mut tb, rng, nodes[a], nodes[b]);
        }
        if chance(rng, 3) {
            tb.optional_edge(
                nodes[b],
                nodes[a],
                s.find_edge_label(ABSENT_EDGE_LABEL).unwrap(),
            );
        }
    }
    for _ in 0..1 + pick(rng, 3) {
        let attr = s.find_attr(ATTRS[pick(rng, 2)]).unwrap();
        tb.range_literal(nodes[pick(rng, k)], attr, OPS[pick(rng, 4)]);
    }
    tb.finish(nodes[pick(rng, k)]).unwrap()
}

/// Domains from the graph's active domain (whole, or sub-sampled to two
/// constants), or explicit lists over `-1..=7` — wider than the graph's
/// `0..6`, so some constants occur nowhere — in refinement order.
fn random_domains(rng: &mut TestRng, graph: &Graph, template: &QueryTemplate) -> RefinementDomains {
    match pick(rng, 3) {
        0 => RefinementDomains::build(template, graph, DomainConfig::default()),
        1 => RefinementDomains::build(
            template,
            graph,
            DomainConfig {
                max_values_per_range_var: 2,
            },
        ),
        _ => {
            let per_var = template
                .range_literals()
                .iter()
                .map(|lit| {
                    let mut values: Vec<AttrValue> = (-1..=7)
                        .filter(|_| chance(rng, 2))
                        .map(AttrValue::Int)
                        .collect();
                    if lit.op.refines_ascending() == Some(false) {
                        values.reverse();
                    }
                    values
                })
                .collect();
            RefinementDomains::with_range_values(template, per_var)
        }
    }
}

/// One random comparison: graph, template, domains, an instance anywhere
/// in the lattice, and a match set that is the instance's real one, an
/// arbitrary subset of `V_uo`, or a single node of it.
fn random_case(seed: u64) -> (Children, Children) {
    let rng = &mut TestRng::from_seed(seed);
    let graph = random_graph(rng);
    let template = random_template(rng, &graph);
    let domains = random_domains(rng, &graph, &template);
    let setting = Setting::new(graph, template, domains);
    let (cfg, graph, domains) = (setting.cfg(), &setting.graph, &setting.domains);
    let inst = Instantiation::new(
        domains
            .domains()
            .iter()
            .map(|d| pick(rng, d.len()) as u16)
            .collect(),
    );
    let population = graph.nodes_with_label(setting.template.output_label());
    let real = Evaluator::new(cfg).verify(&inst).result.matches.clone();
    let matches = match pick(rng, 3) {
        0 if !real.is_empty() => real,
        1 => population
            .get(pick(rng, population.len().max(1)))
            .map_or_else(Vec::new, |&v| vec![v]),
        _ => population
            .iter()
            .copied()
            .filter(|_| chance(rng, 2))
            .collect(),
    };
    both(&cfg, &inst, matches, !chance(rng, 8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn frontier_search_equals_materialised_neighborhood(seed in 0u64..u64::MAX) {
        let (new, old) = random_case(seed);
        prop_assert_eq!(new, old, "random_case({:#x})", seed);
    }
}

#[test]
fn regression_seeds_still_agree() {
    for &seed in REGRESSION_SEEDS {
        let (new, old) = random_case(seed);
        assert_eq!(new, old, "random_case({seed:#x})");
    }
}

/// `hubs` hub nodes, each pointed at by `leaves` leaf nodes whose `v` is
/// `value(hub, leaf)`; template `hub <-e- leaf` with `leaf.v >= ?`.
fn star_graph(hubs: usize, leaves: usize, value: impl Fn(usize, usize) -> i64) -> Graph {
    let mut b = GraphBuilder::new();
    for h in 0..hubs {
        let hub = b.add_named_node("hub", &[]);
        for l in 0..leaves {
            let leaf = b.add_named_node("leaf", &[("v", AttrValue::Int(value(h, l)))]);
            b.add_named_edge(leaf, hub, "e");
        }
    }
    b.finish()
}

fn star_template(graph: &Graph) -> QueryTemplate {
    parse_template(
        graph.schema(),
        "node u0 : hub\nnode u1 : leaf\nedge u1 -e-> u0\nwhere u1.v >= ?\noutput u0\n",
    )
    .unwrap()
}

#[test]
fn more_than_64_constants_on_one_variable() {
    // 100 constants; the only hub's leaves carry 70 and 90, so from the
    // root Spawn has to look past 69 absent constants, and from 70 past 19.
    let graph = star_graph(1, 2, |_, l| [70, 90][l]);
    let template = star_template(&graph);
    let domains = RefinementDomains::with_range_values(
        &template,
        vec![(1..=100).map(AttrValue::Int).collect()],
    );
    let setting = Setting::new(graph, template, domains);
    let cfg = setting.cfg();
    for (at, child) in [(0, Some(70)), (70, Some(90)), (90, None), (100, None)] {
        let inst = Instantiation::new(vec![at]);
        let (new, old) = both(&cfg, &inst, vec![NodeId(0)], true);
        assert_eq!(new, old, "at index {at}");
        let expected: Vec<_> = child
            .map(|c| (0, Instantiation::new(vec![c])))
            .into_iter()
            .collect();
        assert_eq!(new, expected, "at index {at}");
    }
}

#[test]
fn match_sets_above_the_cap_get_plain_refinements() {
    // 4097 hubs, one leaf each, every leaf at 5; the domain also lists 3,
    // which template refinement would skip and a plain step does not.
    let graph = star_graph(4097, 1, |_, _| 5);
    let template = star_template(&graph);
    let domains = RefinementDomains::with_range_values(
        &template,
        vec![vec![AttrValue::Int(3), AttrValue::Int(5)]],
    );
    let setting = Setting::new(graph, template, domains);
    let cfg = setting.cfg();
    let root = Instantiation::root(&setting.domains);
    let hubs = setting
        .graph
        .nodes_with_label(setting.template.output_label());
    assert_eq!(hubs.len(), 4097);

    let (new, old) = both(&cfg, &root, hubs.to_vec(), true);
    assert_eq!(new, old);
    assert_eq!(new, vec![(0, Instantiation::new(vec![1]))]);

    let (new, old) = both(&cfg, &root, hubs[..4096].to_vec(), true);
    assert_eq!(new, old);
    assert_eq!(new, vec![(0, Instantiation::new(vec![2]))]);
}

/// The benchmark's three template shapes (`perf/src/inputs.rs`).
const LKI_5: &str = "\
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

const DBP_5: &str = "\
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

const CITE_7: &str = "\
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

/// New ≡ oracle on the real match set of **every** instance of the
/// lattice — the feasible ones, which the generators spawn from, among
/// them.
fn whole_lattice_agrees(graph: Graph, dsl: &str) {
    let template = parse_template(graph.schema(), dsl).unwrap();
    let domains = RefinementDomains::build(&template, &graph, DomainConfig::default());
    let setting = Setting::new(graph, template, domains);
    let cfg = setting.cfg();
    let mut ev = Evaluator::new(cfg);
    let lattice = InstanceLattice::new(&setting.domains).enumerate();
    let mut searched = 0;
    for inst in &lattice {
        let matches = ev.verify_with_best_parent(inst).result.matches.clone();
        searched += usize::from(!matches.is_empty());
        let (new, old) = both(&cfg, inst, matches, true);
        assert_eq!(new, old, "at {inst:?}");
    }
    assert!(
        2 * searched > lattice.len(),
        "only {searched} of {} instances match anything: the draw tests too little",
        lattice.len()
    );
}

#[test]
fn whole_lattice_on_a_social_graph() {
    let graph = social_graph(SocialConfig {
        directors: 200,
        majority_share: 0.65,
        seed: 2022,
    });
    whole_lattice_agrees(graph, LKI_5);
}

#[test]
fn whole_lattice_on_a_movies_graph() {
    let graph = movies_graph(MoviesConfig {
        movies: 200,
        seed: 2022,
    });
    whole_lattice_agrees(graph, DBP_5);
}

#[test]
fn whole_lattice_on_a_citations_graph() {
    let graph = citations_graph(CitationsConfig {
        papers: 300,
        seed: 2022,
    });
    whole_lattice_agrees(graph, CITE_7);
}
