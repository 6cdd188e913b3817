//! Cite-like synthetic citation graph (diversified and fair academic
//! recommendation).
//!
//! Stand-in for the Microsoft Academic graph the paper uses (4.9M nodes /
//! 46M edges, paper-topic groups). `paper` nodes carry `topic`,
//! `numberOfCitations`, and `year`; `author` nodes carry `hIndex`.
//! `cites` edges follow preferential attachment toward highly cited work.

use crate::util::{rng, Zipf};
use fairsqg_graph::{AttrValue, Graph, GraphBuilder, GroupSet, NodeId};
use rand::Rng;

/// Research topics used for group induction (paper: "Machine Learning",
/// "Networking", ...).
pub const TOPICS: [&str; 8] = [
    "MachineLearning",
    "Databases",
    "Networking",
    "Security",
    "Theory",
    "Systems",
    "HCI",
    "Graphics",
];

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct CitationsConfig {
    /// Number of paper nodes (the output-label population).
    pub papers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CitationsConfig {
    fn default() -> Self {
        Self {
            papers: 1600,
            seed: 0xC17E,
        }
    }
}

/// Generates the citation graph.
///
/// Node types: `paper` (topic, numberOfCitations, year), `author` (hIndex,
/// papers). Edge types: `cites` (paper→paper, toward earlier papers),
/// `authored` (author→paper).
pub fn citations_graph(cfg: CitationsConfig) -> Graph {
    let mut r = rng(cfg.seed);
    let n_papers = cfg.papers.max(2);
    let n_authors = (n_papers / 2).max(2);

    // Phase 1: decide the citation structure (so `numberOfCitations` can be
    // written as an attribute at node-creation time).
    // Citations are *topic-biased*: the head topic (MachineLearning)
    // attracts extra citations beyond plain preferential attachment, so
    // `numberOfCitations` correlates with `topic`. The correlation lets a
    // revised citation threshold rebalance topic coverage (the same
    // mechanism as the paper's Fig. 12 genre rebalancing).
    let mut pa_pool: Vec<usize> = Vec::new();
    let mut head_topic_papers: Vec<usize> = Vec::new();
    let mut citation_counts = vec![0i64; n_papers];
    let mut cite_edges: Vec<(usize, usize)> = Vec::new();
    let mut topics = Vec::with_capacity(n_papers);
    let topic_of = Zipf::new(TOPICS.len(), 0.7);
    let refs_of = Zipf::new(8, 1.0);
    for i in 0..n_papers {
        let topic = topic_of.sample(&mut r);
        topics.push(topic);
        if i > 0 {
            let refs = 2 + refs_of.sample(&mut r);
            for _ in 0..refs {
                let target = if !head_topic_papers.is_empty() && r.gen_bool(0.25) {
                    head_topic_papers[r.gen_range(0..head_topic_papers.len())]
                } else if pa_pool.is_empty() || r.gen_bool(0.3) {
                    r.gen_range(0..i)
                } else {
                    pa_pool[r.gen_range(0..pa_pool.len())]
                };
                cite_edges.push((i, target));
                citation_counts[target] += 1;
                pa_pool.push(target);
            }
        }
        if topic == 0 {
            head_topic_papers.push(i);
        }
        pa_pool.push(i);
    }

    // Phase 2: build the graph.
    let mut b = GraphBuilder::new();
    let topic_syms: Vec<_> = {
        let s = b.schema_mut();
        TOPICS.iter().map(|t| s.symbol(t)).collect()
    };
    let h_index_of = Zipf::new(60, 1.1);
    let papers_of = Zipf::new(30, 1.0);
    let authors: Vec<NodeId> = (0..n_authors)
        .map(|_| {
            let h = h_index_of.sample(&mut r) as i64;
            let np = 1 + papers_of.sample(&mut r) as i64;
            b.add_named_node(
                "author",
                &[
                    ("hIndex", AttrValue::Int(h)),
                    ("papers", AttrValue::Int(np)),
                ],
            )
        })
        .collect();
    let papers: Vec<NodeId> = (0..n_papers)
        .map(|i| {
            let year = 1980 + (i as i64 * 44) / n_papers as i64;
            b.add_named_node(
                "paper",
                &[
                    ("topic", AttrValue::Str(topic_syms[topics[i]])),
                    ("year", AttrValue::Int(year)),
                    ("numberOfCitations", AttrValue::Int(citation_counts[i])),
                ],
            )
        })
        .collect();
    for &(src, dst) in &cite_edges {
        b.add_named_edge(papers[src], papers[dst], "cites");
    }
    // Authorship: each paper gets 1–4 authors, Zipf-skewed.
    let byline_of = Zipf::new(4, 1.0);
    let author_of = Zipf::new(authors.len(), 0.8);
    for &p in &papers {
        let k = 1 + byline_of.sample(&mut r);
        for _ in 0..k {
            let a = authors[author_of.sample(&mut r)];
            b.add_named_edge(a, p, "authored");
        }
    }

    b.finish()
}

/// Induces up to `m ≤ 4` topic groups over the papers (the paper induces
/// up to 4 groups of papers by topic).
pub fn topic_groups(graph: &Graph, m: usize) -> GroupSet {
    let topic = graph
        .schema()
        .find_attr("topic")
        .expect("citation graph has a topic attribute");
    let values: Vec<AttrValue> = TOPICS
        .iter()
        .take(m)
        .map(|t| AttrValue::Str(graph.schema().find_symbol(t).expect("topic symbol")))
        .collect();
    GroupSet::by_attribute(graph, topic, &values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_shape() {
        let g = citations_graph(CitationsConfig {
            papers: 400,
            seed: 3,
        });
        let paper = g.schema().find_node_label("paper").unwrap();
        assert_eq!(g.label_population(paper), 400);
        assert!(g.edge_count() > 400 * 2);
    }

    #[test]
    fn citations_point_backwards_in_time() {
        let g = citations_graph(CitationsConfig {
            papers: 300,
            seed: 8,
        });
        let year = g.schema().find_attr("year").unwrap();
        let cites = g.schema().find_edge_label("cites").unwrap();
        for v in g.nodes() {
            for a in g.out_neighbors(v) {
                if a.label() == cites {
                    let w = a.to();
                    let (vy, wy) = (g.attr(v, year).unwrap(), g.attr(w, year).unwrap());
                    assert!(wy <= vy, "citation into the future");
                }
            }
        }
    }

    #[test]
    fn citation_counts_match_in_degree() {
        let g = citations_graph(CitationsConfig {
            papers: 250,
            seed: 5,
        });
        let noc = g.schema().find_attr("numberOfCitations").unwrap();
        let cites = g.schema().find_edge_label("cites").unwrap();
        let paper = g.schema().find_node_label("paper").unwrap();
        for &p in g.nodes_with_label(paper) {
            let declared = g.attr(p, noc).unwrap().as_int().unwrap();
            let actual = g
                .in_neighbors(p)
                .iter()
                .filter(|a| a.label() == cites)
                .count() as i64;
            // Duplicate (src,dst) citations collapse in the edge set, so the
            // declared count can slightly exceed the distinct in-degree.
            assert!(declared >= actual, "declared {declared} < actual {actual}");
        }
    }

    #[test]
    fn topic_groups_nonempty() {
        let g = citations_graph(CitationsConfig {
            papers: 600,
            seed: 2,
        });
        let groups = topic_groups(&g, 4);
        assert_eq!(groups.len(), 4);
        for i in 0..4 {
            assert!(groups.size(fairsqg_graph::GroupId(i)) > 0);
        }
    }

    #[test]
    fn citations_correlate_with_topic() {
        let g = citations_graph(CitationsConfig {
            papers: 2000,
            seed: 6,
        });
        let s = g.schema();
        let topic = s.find_attr("topic").unwrap();
        let noc = s.find_attr("numberOfCitations").unwrap();
        let head = AttrValue::Str(s.find_symbol(TOPICS[0]).unwrap());
        let (mut head_sum, mut head_n, mut rest_sum, mut rest_n) = (0i64, 0i64, 0i64, 0i64);
        let paper = s.find_node_label("paper").unwrap();
        for &p in g.nodes_with_label(paper) {
            let c = g.attr(p, noc).unwrap().as_int().unwrap();
            if g.attr(p, topic) == Some(head) {
                head_sum += c;
                head_n += 1;
            } else {
                rest_sum += c;
                rest_n += 1;
            }
        }
        let head_mean = head_sum as f64 / head_n as f64;
        let rest_mean = rest_sum as f64 / rest_n as f64;
        assert!(
            head_mean > rest_mean * 1.3,
            "head-topic mean {head_mean} vs rest {rest_mean}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = citations_graph(CitationsConfig {
            papers: 150,
            seed: 7,
        });
        let b = citations_graph(CitationsConfig {
            papers: 150,
            seed: 7,
        });
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
    }
}
