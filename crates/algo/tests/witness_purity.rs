//! Witness certificates and shared match tables are a pure substitution:
//! every generator that verifies through the verified-instance store —
//! `enum_qgen`, `rfqgen`, `biqgen`, `par_enum_qgen`, `online_qgen` and
//! `kungs` — returns, instance for instance, bit for bit and match set for
//! match set, the archive its `with_reference_path()` run returns, also
//! when a match table filled under another λ serves its verifications —
//! and the reference path neither records nor reads a witness.
//! `par_enum_qgen` returns `enum_qgen`'s archive at any worker count, and
//! at one worker does `enum_qgen`'s exact work. The work each generator
//! does is pinned: which ancestors the store's walk hands a verification
//! shows in its counters. Checked on the talent-search example and on
//! three citation graphs with the `CITE_7` template shape (two range
//! variables, one edge variable), where the witnesses must actually fire.

use fairsqg_algo::{
    biqgen, enum_qgen, kungs, online_qgen, par_enum_qgen, rfqgen, BiQGenOptions, Configuration,
    Evaluator, GenStats, Generated, LatticeTable, MatchRecord, MatchTable, OnlineOptions,
    RandomStream, RfQGenOptions,
};
use fairsqg_datagen::{citations_graph, CitationsConfig, TOPICS};
use fairsqg_graph::{AttrValue, CoverageSpec, Graph, GraphBuilder, GroupSet, NodeId};
use fairsqg_measures::DiversityConfig;
use fairsqg_query::{
    parse_template, DomainConfig, Instantiation, QueryTemplate, RefinementDomains,
};
use std::sync::Arc;

/// The `CITE_7` shape, also the template CI generates with.
const CITE_7: &str = include_str!("data/cite_7.dsl");

type Generator = dyn Fn(Configuration<'_>) -> Generated;

/// Everything a configuration borrows.
struct Setting {
    graph: Graph,
    template: QueryTemplate,
    domains: RefinementDomains,
    groups: GroupSet,
    spec: CoverageSpec,
}

impl Setting {
    /// Parses `dsl` over `graph` with at most `values` constants per range
    /// variable, and sets an equal-opportunity cover of half the root's
    /// smallest group count, so the root is feasible and refinement runs
    /// into infeasibility.
    fn new(graph: Graph, dsl: &str, groups: GroupSet, values: usize) -> Self {
        let template = parse_template(graph.schema(), dsl).unwrap();
        let domains = RefinementDomains::build(
            &template,
            &graph,
            DomainConfig {
                max_values_per_range_var: values,
            },
        );
        let spec = CoverageSpec::equal_opportunity(groups.len(), 0);
        let mut setting = Self {
            graph,
            template,
            domains,
            groups,
            spec,
        };
        let root = Evaluator::new(setting.cfg()).verify(&Instantiation::root(&setting.domains));
        let least = root.result.counts.iter().copied().min().unwrap_or(0);
        setting.spec = CoverageSpec::equal_opportunity(setting.groups.len(), (least / 2).max(1));
        setting
    }

    fn cfg(&self) -> Configuration<'_> {
        self.cfg_at(DiversityConfig::default().lambda)
    }

    fn cfg_at(&self, lambda: f64) -> Configuration<'_> {
        Configuration::new(
            &self.graph,
            &self.template,
            &self.domains,
            &self.groups,
            &self.spec,
            0.05,
            DiversityConfig {
                lambda,
                ..DiversityConfig::default()
            },
        )
    }
}

/// A plain shared match table.
#[derive(Default)]
struct Table(LatticeTable<MatchRecord>);

impl MatchTable for Table {
    fn get(&self, index: usize) -> Option<Arc<MatchRecord>> {
        self.0.get(index)
    }

    fn publish(
        &self,
        index: usize,
        matches: &[NodeId],
        rows: &Arc<[NodeId]>,
        pair_sum: f64,
    ) -> Option<Arc<MatchRecord>> {
        self.0
            .insert_with(index, || Some(MatchRecord::new(matches, rows, pair_sum)))
    }
}

/// `(verified, cache_hits, pruned_infeasible, witness_hits,
/// pool_restrictions)` of `enum_qgen`, `rfqgen`, `biqgen` and
/// `par_enum_qgen` at one worker, in that order.
type Pins = [(u64, u64, u64, u64, u64); 4];

fn pinned(stats: &GenStats) -> (u64, u64, u64, u64, u64) {
    (
        stats.verified,
        stats.cache_hits,
        stats.pruned_infeasible,
        stats.witness_hits,
        stats.pool_restrictions,
    )
}

/// Per archive entry: the instance, both objectives' bits, the match set.
fn fingerprint(out: &Generated) -> Vec<(Instantiation, u64, u64, Vec<NodeId>)> {
    out.entries
        .iter()
        .map(|e| {
            (
                e.inst.clone(),
                e.objectives().delta.to_bits(),
                e.objectives().fcov.to_bits(),
                e.result.matches.clone(),
            )
        })
        .collect()
}

/// Holds every generator to its reference run on `setting`, cold and over
/// a match table filled under another λ, `par_enum_qgen` at 1, 2 and 4
/// workers to `enum_qgen`'s archive as well, and the default path's
/// counters to `pins`; returns each generator's stats on the default
/// path, `enum_qgen` first.
fn generators_equal_reference(
    setting: &Setting,
    name: &str,
    pins: Pins,
) -> Vec<(&'static str, GenStats)> {
    let cfg = setting.cfg();
    let runs: [(&str, &Generator); 8] = [
        ("enum_qgen", &|cfg| enum_qgen(cfg, false)),
        ("rfqgen", &|cfg| rfqgen(cfg, RfQGenOptions::default())),
        ("biqgen", &|cfg| biqgen(cfg, BiQGenOptions::default())),
        ("par_enum_qgen/1", &|cfg| par_enum_qgen(cfg, 1)),
        ("par_enum_qgen/2", &|cfg| par_enum_qgen(cfg, 2)),
        ("par_enum_qgen/4", &|cfg| par_enum_qgen(cfg, 4)),
        ("online_qgen", &|cfg| {
            let stream = RandomStream::new(cfg.domains, 7).take(200);
            online_qgen(cfg, OnlineOptions::default(), stream).0
        }),
        ("kungs", &kungs),
    ];
    let table = Table::default();
    enum_qgen(setting.cfg_at(0.9).with_shared_matches(&table), false);
    let mut stats = Vec::new();
    let mut enum_archive = None;
    for (algo, run) in runs {
        let fast = run(cfg);
        let slow = run(cfg.with_reference_path());
        let warm = run(cfg.with_shared_matches(&table));
        assert!(!fast.truncated && !slow.truncated, "{name}/{algo}");
        assert!(!fast.entries.is_empty(), "{name}/{algo}: empty archive");
        let archive = fingerprint(&fast);
        assert_eq!(archive, fingerprint(&slow), "{name}/{algo}");
        assert_eq!(archive, fingerprint(&warm), "{name}/{algo}: shared table");
        assert_eq!(slow.stats.witness_hits, 0, "{name}/{algo}: reference path");
        assert_eq!(
            warm.stats.warm_match_hits, warm.stats.verified,
            "{name}/{algo}"
        );
        if algo.starts_with("par_enum_qgen") {
            assert_eq!(Some(&archive), enum_archive.as_ref(), "{name}/{algo}");
        }
        enum_archive.get_or_insert(archive);
        stats.push((algo, fast.stats));
    }
    let at_one_worker = [0, 1, 2, 3].map(|i| pinned(&stats[i].1));
    assert_eq!(at_one_worker, pins, "{name}: enum, rfqgen, biqgen, par/1");
    stats
}

#[test]
fn talent_archives_equal_the_reference_path() {
    // Example 1's shape: 12 directors, 6 users recommending 4 each, 3
    // orgs; the second recommender is an optional edge.
    let mut b = GraphBuilder::new();
    let directors: Vec<NodeId> = (0..12)
        .map(|i| {
            b.add_named_node(
                "director",
                &[
                    ("gender", AttrValue::Int(i % 2)),
                    ("major", AttrValue::Int(i % 5)),
                ],
            )
        })
        .collect();
    let orgs: Vec<NodeId> = [100, 500, 1000]
        .map(|e| b.add_named_node("org", &[("employees", AttrValue::Int(e))]))
        .to_vec();
    for i in 0..6 {
        let exp = AttrValue::Int(5 + 5 * (i as i64 % 3));
        let user = b.add_named_node("user", &[("yearsOfExp", exp)]);
        for j in 0..4 {
            b.add_named_edge(user, directors[(i * 2 + j * 3) % 12], "recommend");
        }
        b.add_named_edge(user, orgs[i % 3], "worksAt");
    }
    let graph = b.finish();
    let gender = graph.schema().find_attr("gender").unwrap();
    let groups = GroupSet::by_attribute(&graph, gender, &[AttrValue::Int(0), AttrValue::Int(1)]);
    let setting = Setting::new(
        graph,
        "node u0 : director\nnode u1 : user\nnode u2 : org\nnode u3 : user\n\
         edge u1 -recommend-> u0\nedge u1 -worksAt-> u2\noptional u3 -recommend-> u0\n\
         where u1.yearsOfExp >= ?\nwhere u2.employees >= ?\noutput u0\n",
        groups,
        8,
    );
    let pins = [
        (32, 0, 0, 208, 31),
        (26, 0, 12, 184, 54),
        (19, 2, 12, 104, 34),
        (32, 0, 0, 208, 31),
    ];
    generators_equal_reference(&setting, "talent", pins);
}

#[test]
fn citation_archives_equal_the_reference_path() {
    let pins: [(u64, Pins); 3] = [
        (
            7,
            [
                (162, 0, 0, 5261, 161),
                (84, 0, 22, 3240, 174),
                (29, 1, 24, 717, 58),
                (162, 0, 0, 5261, 161),
            ],
        ),
        (
            11,
            [
                (162, 0, 0, 5057, 161),
                (94, 0, 22, 3668, 192),
                (83, 5, 22, 3207, 147),
                (162, 0, 0, 5057, 161),
            ],
        ),
        (
            2022,
            [
                (162, 0, 0, 6048, 161),
                (114, 0, 28, 4939, 236),
                (48, 4, 28, 1543, 90),
                (162, 0, 0, 6048, 161),
            ],
        ),
    ];
    for (seed, pins) in pins {
        let graph = citations_graph(CitationsConfig { papers: 1000, seed });
        // Machine-learning papers against all others.
        let s = graph.schema();
        let (paper, topic) = (
            s.find_node_label("paper").unwrap(),
            s.find_attr("topic").unwrap(),
        );
        let head = AttrValue::Str(s.find_symbol(TOPICS[0]).unwrap());
        let (ml, others): (Vec<NodeId>, Vec<NodeId>) = graph
            .nodes_with_label(paper)
            .iter()
            .partition(|&&v| graph.attr(v, topic) == Some(head));
        let groups = GroupSet::from_members(
            graph.node_count(),
            vec![("ml".into(), ml), ("other".into(), others)],
        );
        let setting = Setting::new(graph, CITE_7, groups, 8);
        let name = format!("cite#{seed}");
        for (algo, stats) in generators_equal_reference(&setting, &name, pins) {
            if algo == "enum_qgen" || algo.starts_with("par_enum_qgen") {
                assert!(
                    stats.witness_hits > 0,
                    "cite#{seed}/{algo}: no root certified"
                );
            }
        }
    }
}
