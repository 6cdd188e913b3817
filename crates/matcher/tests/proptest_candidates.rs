//! Property-based equivalence of the indexed candidate computation and
//! the naive label-population scan, on random graphs and random literal
//! conjunctions. The indexed path (binary-searched range slices, gallop
//! intersection, scan fallback) must return exactly the scan's node set —
//! it is a pure performance substitution.
//!
//! The same holds one level up, for the backtracker: the default path
//! (cross-call candidate memo, cached membership bitsets, adaptive
//! re-plan) must return exactly what the reference path
//! (`use_index: false` — none of the three) and the brute-force oracle
//! return. The second half of this file drives those mechanisms on inputs
//! large enough for them to fire.

use fairsqg_graph::{AttrValue, CmpOp, Graph, GraphBuilder, NodeId};
use fairsqg_matcher::{
    candidates, candidates_from_pool, candidates_scan, match_output_set,
    match_output_set_bruteforce, plan_matching_order, satisfies_literals, take_stats,
    try_match_output_set, try_match_witnessed, BudgetKind, MatchBudget, MatchOptions, MatchScratch,
    Witnesses, NO_NODE,
};
use fairsqg_query::{
    BoundLiteral, ConcreteNode, ConcreteQuery, Instantiation, QNodeId, QueryTemplate,
    RefinementDomains, TemplateBuilder,
};
use proptest::prelude::*;

/// One random attribute: `(attr, value, as_string)`.
type RawAttr = (u8, i64, bool);

/// Raw random multi-node query: per-node `(label, literals)` plus, for
/// every node past the first, an edge to an earlier node (random peer
/// pick, direction, and label) so the shape is always connected — the
/// matcher only ever sees connected components.
type RawQueryNode = (u8, Vec<(u8, u8, i64)>);
type RawQueryEdge = (u8, bool, u8);

/// Raw random graph: nodes as `(label, attrs)`. Values mix ints and
/// interned strings to exercise the `AttrValue` total order
/// (`Int < Str`) the postings are sorted by.
#[derive(Debug, Clone)]
struct RawGraph {
    nodes: Vec<(u8, Vec<RawAttr>)>,
}

fn arb_raw() -> impl Strategy<Value = RawGraph> {
    proptest::collection::vec(
        (
            0u8..3,
            proptest::collection::vec((0u8..3, -20i64..20, any::<bool>()), 0..4),
        ),
        1..60,
    )
    .prop_map(|nodes| RawGraph { nodes })
}

fn build(raw: &RawGraph) -> Graph {
    build_edged(raw, &[])
}

/// Builds the random graph, plus random edges given as
/// `(src, dst, label)` raw indices reduced modulo the node count.
fn build_edged(raw: &RawGraph, edges: &[(u8, u8, u8)]) -> Graph {
    let mut b = GraphBuilder::new();
    let labels = ["l0", "l1", "l2"];
    let attrs = ["a0", "a1", "a2"];
    // Pre-intern every label/attribute so queries can name them even when
    // the random graph never used one.
    for l in labels {
        b.schema_mut().node_label(l);
    }
    for a in attrs {
        b.schema_mut().attr(a);
    }
    for e in ["e0", "e1"] {
        b.schema_mut().edge_label(e);
    }
    let mut ids = Vec::new();
    for (l, at) in &raw.nodes {
        let named: Vec<(&str, AttrValue)> = at
            .iter()
            .map(|&(a, v, s)| {
                let value = if s {
                    AttrValue::Str(b.schema_mut().symbol(&format!("s{v}")))
                } else {
                    AttrValue::Int(v)
                };
                (attrs[a as usize], value)
            })
            .collect();
        ids.push(b.add_named_node(labels[*l as usize], &named));
    }
    for &(src, dst, label) in edges {
        let src = ids[src as usize % ids.len()];
        let dst = ids[dst as usize % ids.len()];
        b.add_named_edge(src, dst, if label % 2 == 0 { "e0" } else { "e1" });
    }
    b.finish()
}

/// A single-node concrete query carrying the literal conjunction. String
/// constants fall back to ints when the symbol was never interned.
fn query_for(graph: &Graph, label: u8, lits: &[(u8, u8, i64, bool)]) -> ConcreteQuery {
    let s = graph.schema();
    let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ge, CmpOp::Gt];
    let literals = lits
        .iter()
        .map(|&(a, op, c, as_str)| BoundLiteral {
            attr: s.find_attr(&format!("a{a}")).unwrap(),
            op: ops[op as usize % ops.len()],
            value: match s.find_symbol(&format!("s{c}")) {
                Some(sym) if as_str => AttrValue::Str(sym),
                _ => AttrValue::Int(c),
            },
        })
        .collect();
    ConcreteQuery {
        nodes: vec![ConcreteNode {
            label: s.find_node_label(&format!("l{label}")).unwrap(),
            literals,
        }],
        active: vec![true],
        edges: Vec::new(),
        output: QNodeId(0),
    }
}

/// A connected multi-node concrete query. Node `i > 0` gets one edge to
/// peer `raw_edge.0 % i` (direction/label from the raw edge), so every
/// node reaches the output and the whole query is one component.
fn multi_query_for(graph: &Graph, nodes: &[RawQueryNode], edges: &[RawQueryEdge]) -> ConcreteQuery {
    let s = graph.schema();
    let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ge, CmpOp::Gt];
    let concrete: Vec<ConcreteNode> = nodes
        .iter()
        .map(|(label, lits)| ConcreteNode {
            label: s.find_node_label(&format!("l{label}")).unwrap(),
            literals: lits
                .iter()
                .map(|&(a, op, c)| BoundLiteral {
                    attr: s.find_attr(&format!("a{a}")).unwrap(),
                    op: ops[op as usize % ops.len()],
                    value: AttrValue::Int(c),
                })
                .collect(),
        })
        .collect();
    let q_edges = edges
        .iter()
        .enumerate()
        .map(|(i, &(peer, outgoing, label))| {
            let this = QNodeId(i as u8 + 1);
            let peer = QNodeId(peer % (i as u8 + 1));
            let label = s
                .find_edge_label(if label % 2 == 0 { "e0" } else { "e1" })
                .unwrap();
            if outgoing {
                (this, peer, label)
            } else {
                (peer, this, label)
            }
        })
        .collect();
    ConcreteQuery {
        active: vec![true; concrete.len()],
        nodes: concrete,
        edges: q_edges,
        output: QNodeId(0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Indexed candidates equal the naive scan, node for node.
    #[test]
    fn indexed_candidates_equal_scan(
        raw in arb_raw(),
        label in 0u8..3,
        lits in proptest::collection::vec(
            (0u8..3, 0u8..5, -20i64..20, any::<bool>()), 0..4),
    ) {
        let g = build(&raw);
        let q = query_for(&g, label, &lits);
        let fast = candidates(&g, &q, QNodeId(0));
        let slow = candidates_scan(&g, &q, QNodeId(0));
        prop_assert_eq!(&fast, &slow);
        // Both are sorted ascending (the matcher relies on it).
        prop_assert!(fast.windows(2).all(|w| w[0] < w[1]));
    }

    /// Pool restriction equals the scan filtered to the pool, for any
    /// label-homogeneous pool.
    #[test]
    fn pool_candidates_equal_filtered_scan(
        raw in arb_raw(),
        label in 0u8..3,
        lits in proptest::collection::vec(
            (0u8..3, 0u8..5, -20i64..20, any::<bool>()), 0..3),
        keep in proptest::collection::vec(any::<bool>(), 60),
    ) {
        let g = build(&raw);
        let q = query_for(&g, label, &lits);
        let node_label = q.nodes[0].label;
        let pool: Vec<NodeId> = g
            .nodes_with_label(node_label)
            .iter()
            .copied()
            .filter(|v| keep[v.index() % keep.len()])
            .collect();
        let from_pool = candidates_from_pool(&g, &q, QNodeId(0), &pool);
        let expected: Vec<NodeId> = candidates_scan(&g, &q, QNodeId(0))
            .into_iter()
            .filter(|v| pool.binary_search(v).is_ok())
            .collect();
        prop_assert_eq!(from_pool, expected);
    }

    /// Pool restriction equals the naive scan *over the pool itself*:
    /// walk the pool in order and keep exactly the nodes satisfying every
    /// literal. This oracle is independent of `candidates_scan`, so it
    /// also pins down that `candidates_from_pool` preserves pool order
    /// and never pulls in nodes from outside the pool.
    #[test]
    fn pool_candidates_equal_scan_over_pool(
        raw in arb_raw(),
        label in 0u8..3,
        lits in proptest::collection::vec(
            (0u8..3, 0u8..5, -20i64..20, any::<bool>()), 0..4),
        keep in proptest::collection::vec(any::<bool>(), 60),
    ) {
        let g = build(&raw);
        let q = query_for(&g, label, &lits);
        let node_label = q.nodes[0].label;
        let pool: Vec<NodeId> = g
            .nodes_with_label(node_label)
            .iter()
            .copied()
            .filter(|v| keep[v.index() % keep.len()])
            .collect();
        let from_pool = candidates_from_pool(&g, &q, QNodeId(0), &pool);
        let reference: Vec<NodeId> = pool
            .iter()
            .copied()
            .filter(|&v| satisfies_literals(&g, v, &q.nodes[0].literals))
            .collect();
        prop_assert_eq!(from_pool, reference);
    }

    /// The default backtracker, the reference path and an explicitly
    /// pre-planned order all return exactly the brute-force match set on
    /// random edged graphs and random connected multi-node queries.
    /// Graphs are kept small (≤ 24 nodes, ≤ 3 query nodes) so the
    /// exponential oracle stays tractable.
    #[test]
    fn optimized_match_set_equals_bruteforce(
        raw in proptest::collection::vec(
            (0u8..3, proptest::collection::vec((0u8..3, -5i64..5, Just(false)), 0..2)),
            1..24,
        ).prop_map(|nodes| RawGraph { nodes }),
        graph_edges in proptest::collection::vec((0u8..255, 0u8..255, 0u8..2), 0..48),
        q_nodes in proptest::collection::vec(
            (0u8..3, proptest::collection::vec((0u8..3, 0u8..5, -5i64..5), 0..2)),
            1..4,
        ),
        q_edges in proptest::collection::vec((0u8..255, any::<bool>(), 0u8..2), 2),
    ) {
        let g = build_edged(&raw, &graph_edges);
        let q = multi_query_for(&g, &q_nodes, &q_edges[..q_nodes.len() - 1]);
        let oracle = match_output_set_bruteforce(&g, &q);
        let optimized = match_output_set(&g, &q, MatchOptions::default());
        prop_assert_eq!(&optimized, &oracle, "default path diverged");
        let reference = match_output_set(
            &g,
            &q,
            MatchOptions { use_index: false, ..MatchOptions::default() },
        );
        prop_assert_eq!(&reference, &oracle, "reference path diverged");
        let plan = plan_matching_order(&g, &q);
        let planned = match_output_set(
            &g,
            &q,
            MatchOptions { plan: Some(&plan), ..MatchOptions::default() },
        );
        prop_assert_eq!(&planned, &oracle, "pre-planned order diverged");
    }
}

/// Seeds of [`memo_chain_case`] kept as regressions (the vendored proptest
/// does not shrink, so a seed is the reproduction). These told the two
/// paths apart while the test was written, with the degree requirement
/// deliberately dropped from the memo key: a set filtered for the optional
/// edge served the instance without it (about one seed in six sees that;
/// a missing `Graph::uid` guard is seen by every seed).
const MEMO_CHAIN_REGRESSION_SEEDS: &[u64] = &[6, 7, 11, 29, 31, 32];

fn pick(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// A graph of three labels with `per_label` plus up to `spread - 1` nodes
/// each, `a0`/`a1` in `0..8` on every node, and zero to two edges per
/// source node for each label/edge-label combination [`chain_template`]
/// asks for. Labels, attributes and edge labels are interned in a fixed
/// order, so one `ConcreteQuery` addresses any two draws.
fn chain_graph(rng: &mut TestRng, per_label: usize, spread: usize) -> Graph {
    let mut b = GraphBuilder::new();
    let labels = ["l0", "l1", "l2"].map(|l| b.schema_mut().node_label(l));
    let attrs = ["a0", "a1"].map(|a| b.schema_mut().attr(a));
    let elabels = ["e0", "e1"].map(|e| b.schema_mut().edge_label(e));
    let nodes: Vec<Vec<NodeId>> = labels
        .iter()
        .map(|&l| {
            (0..per_label + pick(rng, spread))
                .map(|_| {
                    let vals = attrs.map(|a| (a, AttrValue::Int(pick(rng, 8) as i64)));
                    b.add_node(l, &vals)
                })
                .collect()
        })
        .collect();
    // (source label, edge label, target label) of every template edge.
    for (src, e, dst) in [(0, 0, 1), (1, 1, 2), (1, 1, 0), (1, 0, 2)] {
        for &v in &nodes[src] {
            for _ in 0..pick(rng, 3) {
                b.add_edge(v, nodes[dst][pick(rng, nodes[dst].len())], elabels[e]);
            }
        }
    }
    b.finish()
}

/// Five nodes, two branches off the output node `u0`:
/// `u0 -e0-> u1 -e1-> u2` and `u3 -e1-> u0`, `u3 -e0-> u4` — the last
/// edge optional, so switching it off drops `u4` and changes `u3`'s degree
/// requirement. One range literal per node.
fn chain_template(graph: &Graph) -> (QueryTemplate, RefinementDomains) {
    let s = graph.schema();
    let l = |name: &str| s.find_node_label(name).unwrap();
    let (a0, a1) = (s.find_attr("a0").unwrap(), s.find_attr("a1").unwrap());
    let (e0, e1) = (
        s.find_edge_label("e0").unwrap(),
        s.find_edge_label("e1").unwrap(),
    );
    let mut tb = TemplateBuilder::new();
    let u: Vec<QNodeId> = ["l0", "l1", "l2", "l1", "l2"]
        .iter()
        .map(|name| tb.node(l(name)))
        .collect();
    tb.edge(u[0], u[1], e0).edge(u[1], u[2], e1);
    tb.edge(u[3], u[0], e1).optional_edge(u[3], u[4], e0);
    let ops = [
        (a0, CmpOp::Ge),
        (a1, CmpOp::Le),
        (a0, CmpOp::Ge),
        (a0, CmpOp::Ge),
        (a1, CmpOp::Le),
    ];
    for (&node, (attr, op)) in u.iter().zip(ops) {
        tb.range_literal(node, attr, op);
    }
    let template = tb.finish(u[0]).unwrap();
    let per_var = ops
        .iter()
        .map(|&(_, op)| {
            let tightening: Vec<i64> = if op == CmpOp::Ge {
                (1..=5).collect()
            } else {
                (2..=6).rev().collect()
            };
            tightening.into_iter().map(AttrValue::Int).collect()
        })
        .collect();
    let domains = RefinementDomains::with_range_values(&template, per_var);
    (template, domains)
}

/// One verification of a chain run: which graph, which instance, what the
/// default path returned (match set and rows) and what the reference path
/// returned.
struct ChainStep {
    graph: usize,
    query: ConcreteQuery,
    fast: Vec<NodeId>,
    rows: Vec<NodeId>,
    slow: Vec<NodeId>,
}

/// What one chain run produced, plus the run's memo and witness hits.
struct ChainRun {
    graphs: [Graph; 2],
    steps: Vec<ChainStep>,
    cand_memo_hits: u64,
    witness_hits: u64,
}

/// Walks twelve instances of [`chain_template`] — each one refinement step
/// (three times in four) or one relaxation step from the last, over a
/// random variable — and verifies them on two graphs in alternating
/// blocks of three: 24 verifications through **one** `MatchScratch`, the
/// graph under it changing every third call. A refinement is verified as
/// `incVerify` would: restricted to the previous instance's match set on
/// the same graph, with that verification's rows as witnesses. A
/// relaxation is verified from scratch. The reference path
/// (`use_index: false`, fresh scratch) gets the same options.
fn chain_case(seed: u64, per_label: usize, spread: usize) -> ChainRun {
    let rng = &mut TestRng::from_seed(seed);
    let graphs = [
        chain_graph(rng, per_label, spread),
        chain_graph(rng, per_label, spread),
    ];
    let (template, domains) = chain_template(&graphs[0]);

    let mut chain = vec![Instantiation::root(&domains)];
    while chain.len() < 12 {
        let last = chain.last().unwrap();
        let x = pick(rng, domains.var_count());
        let next = if pick(rng, 4) == 0 {
            last.relax_step(x)
        } else {
            last.refine_step(x, &domains)
        };
        chain.extend(next);
    }

    let _ = take_stats();
    let mut scratch = MatchScratch::default();
    let mut previous: [Option<(Vec<NodeId>, Vec<NodeId>)>; 2] = [None, None];
    let mut steps = Vec::new();
    for block in 0..chain.len() / 3 {
        for (g, (graph, previous)) in graphs.iter().zip(&mut previous).enumerate() {
            for k in 3 * block..3 * block + 3 {
                let query = ConcreteQuery::materialize(&template, &domains, &chain[k]);
                let parent = previous
                    .as_ref()
                    .filter(|_| k > 0 && chain[k].refines(&chain[k - 1]));
                let witnesses: Vec<Witnesses<'_>> = parent
                    .iter()
                    .map(|(matches, rows)| Witnesses { matches, rows })
                    .collect();
                let opts = MatchOptions {
                    restrict_output: parent.map(|(matches, _)| matches.as_slice()),
                    ancestors: &witnesses,
                    ..MatchOptions::default()
                };
                let unlimited = &MatchBudget::UNLIMITED;
                let reference = MatchOptions {
                    use_index: false,
                    ..opts
                };
                let (fast, rows) =
                    try_match_witnessed(graph, &query, opts, unlimited, &mut scratch).unwrap();
                let slow = try_match_output_set(graph, &query, reference, unlimited).unwrap();
                *previous = Some((fast.clone(), rows.clone()));
                steps.push(ChainStep {
                    graph: g,
                    query,
                    fast,
                    rows,
                    slow,
                });
            }
        }
    }
    let stats = take_stats();
    ChainRun {
        graphs,
        steps,
        cand_memo_hits: stats.cand_memo_hits,
        witness_hits: stats.witness_hits,
    }
}

/// [`chain_case`] on 150–189 nodes per label, so label populations clear
/// the matcher's bitset threshold and the memo's bitsets fire.
fn memo_chain_case(seed: u64) -> ChainRun {
    chain_case(seed, 150, 40)
}

/// Checks that `rows` holds one embedding per match of `query`, in match
/// order: the output node's entry is the match, the images are distinct,
/// every active node's image has its label, satisfies its literals and
/// has at least its out/in degree in the query, every template edge is
/// in the graph, and every inactive node's entry is [`NO_NODE`].
fn check_rows(
    graph: &Graph,
    query: &ConcreteQuery,
    matches: &[NodeId],
    rows: &[NodeId],
) -> Result<(), String> {
    let width = query.nodes.len();
    if rows.len() != matches.len() * width {
        return Err(format!(
            "{} rows entries for {} matches",
            rows.len(),
            matches.len()
        ));
    }
    for (row, &v) in rows.chunks(width).zip(matches) {
        if row[query.output.index()] != v {
            return Err(format!("row {row:?} does not map the output to {v:?}"));
        }
        let mut images = Vec::new();
        for (u, node) in query.nodes.iter().enumerate() {
            let w = row[u];
            if !query.active[u] {
                if w != NO_NODE {
                    return Err(format!("inactive u{u} holds {w:?} in {row:?}"));
                }
                continue;
            }
            if w.index() >= graph.node_count()
                || graph.label(w) != node.label
                || !satisfies_literals(graph, w, &node.literals)
            {
                return Err(format!(
                    "u{u} -> {w:?} breaks a label or literal in {row:?}"
                ));
            }
            let q = QNodeId(u as u8);
            let out = query.edges.iter().filter(|e| e.0 == q).count();
            let inc = query.edges.iter().filter(|e| e.1 == q).count();
            if graph.out_degree(w) < out || graph.in_degree(w) < inc {
                return Err(format!("u{u} -> {w:?} lacks degree in {row:?}"));
            }
            if images.contains(&w) {
                return Err(format!("{w:?} is used twice in {row:?}"));
            }
            images.push(w);
        }
        for &(s, d, l) in &query.edges {
            if !graph.has_edge(row[s.index()], row[d.index()], l) {
                return Err(format!("edge {s:?}->{d:?} missing under {row:?}"));
            }
        }
    }
    Ok(())
}

/// Every step of a run: the default path equals the reference path, and
/// its rows are embeddings.
fn check_chain(run: &ChainRun) -> Result<(), String> {
    for (i, step) in run.steps.iter().enumerate() {
        if step.fast != step.slow {
            return Err(format!("step {i}: {:?} against {:?}", step.fast, step.slow));
        }
        check_rows(&run.graphs[step.graph], &step.query, &step.fast, &step.rows)
            .map_err(|e| format!("step {i}: {e}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A `MatchScratch` reused across refinement chains **and across
    /// graphs**, with each refinement certified from its parent's rows
    /// where they still hold, never changes a result; its memo and its
    /// witnesses are actually hit, and every row it emits is an embedding.
    #[test]
    fn reused_scratch_equals_reference_path(seed in 0u64..u64::MAX) {
        let run = memo_chain_case(seed);
        let checked = check_chain(&run);
        prop_assert!(checked.is_ok(), "memo_chain_case({:#x}): {:?}", seed, checked);
        prop_assert!(run.steps.iter().any(|s| !s.fast.is_empty()), "memo_chain_case({:#x}) is vacuous", seed);
        prop_assert!(run.cand_memo_hits > 0, "memo_chain_case({:#x}) never hit the memo", seed);
        prop_assert!(run.witness_hits > 0, "memo_chain_case({:#x}) never certified a root", seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same chains on graphs of 2–4 nodes per label, small enough for
    /// the brute-force oracle: certified, skipped and searched roots
    /// together give exactly the brute-force match set.
    #[test]
    fn witnessed_chain_equals_bruteforce(seed in 0u64..u64::MAX) {
        let run = chain_case(seed, 2, 3);
        let checked = check_chain(&run);
        prop_assert!(checked.is_ok(), "chain_case({:#x}, 2, 3): {:?}", seed, checked);
        for (i, step) in run.steps.iter().enumerate() {
            let oracle = match_output_set_bruteforce(&run.graphs[step.graph], &step.query);
            prop_assert_eq!(&step.fast, &oracle, "chain_case({:#x}, 2, 3) step {}", seed, i);
        }
    }
}

#[test]
fn memo_chain_regression_seeds_still_agree() {
    for &seed in MEMO_CHAIN_REGRESSION_SEEDS {
        let run = memo_chain_case(seed);
        if let Err(e) = check_chain(&run) {
            panic!("memo_chain_case({seed:#x}): {e}");
        }
    }
}

/// The shape on which the adaptive re-plan pays (`gen-div`'s LKI cases,
/// `docs/performance.md` §8), built by hand: two branches off the output
/// node, `u0 -x-> u3 -x-> u4 -x-> u5` and `u0 -y-> u1 -y-> u2`, where `u2`
/// has **one** candidate (the only `E` node with `key = 1`) reachable from
/// one `D` node, and `u1`'s head set is one candidate larger than `u3`'s
/// (101 against 100). Greedy therefore walks the `x` branch first —
/// `[u0, u3, u4, u5, u1, u2]` — and every root that cannot reach the one
/// `E` node (291 of 300) enumerates all 4·4·4 `x`-embeddings, each times
/// its 3 `D` neighbours, before failing at the last position.
fn replan_fixture() -> (Graph, ConcreteQuery) {
    let mut b = GraphBuilder::new();
    let mut nodes = |label: &str, n: usize| -> Vec<NodeId> {
        (0..n)
            .map(|i| b.add_named_node(label, &[("key", AttrValue::Int((i == 0) as i64))]))
            .collect()
    };
    let (r, a, bb, c) = (
        nodes("R", 300),
        nodes("A", 100),
        nodes("B", 50),
        nodes("C", 60),
    );
    let (d, e) = (nodes("D", 101), nodes("E", 101));
    let mut fan = |from: &[NodeId], to: &[NodeId], out: usize, label: &str| {
        for (i, &v) in from.iter().enumerate() {
            for j in 0..out {
                b.add_named_edge(v, to[(i * out + j) % to.len()], label);
            }
        }
    };
    fan(&r, &a, 4, "x");
    fan(&a, &bb, 4, "x");
    fan(&bb, &c, 4, "x");
    fan(&r, &d, 3, "y");
    fan(&d, &e, 1, "y"); // D[i] -> E[i]: only D[0] reaches the `key = 1` node
    let graph = b.finish();

    let s = graph.schema();
    let (x, y) = (
        s.find_edge_label("x").unwrap(),
        s.find_edge_label("y").unwrap(),
    );
    let key_is_one = BoundLiteral {
        attr: s.find_attr("key").unwrap(),
        op: CmpOp::Eq,
        value: AttrValue::Int(1),
    };
    let node = |label: &str, literals: Vec<BoundLiteral>| ConcreteNode {
        label: s.find_node_label(label).unwrap(),
        literals,
    };
    let q = |i: u8| QNodeId(i);
    let query = ConcreteQuery {
        nodes: vec![
            node("R", vec![]),
            node("D", vec![]),
            node("E", vec![key_is_one]),
            node("A", vec![]),
            node("B", vec![]),
            node("C", vec![]),
        ],
        active: vec![true; 6],
        edges: vec![
            (q(0), q(3), x),
            (q(3), q(4), x),
            (q(4), q(5), x),
            (q(0), q(1), y),
            (q(1), q(2), y),
        ],
        output: q(0),
    };
    (graph, query)
}

/// Measured on [`replan_fixture`] (smallest `max_steps` under which each
/// path returns): the reference path — greedy order, no re-plan — needs
/// **136 845** steps; the default path re-plans once, after the first
/// failing root, moving the `y` branch ahead of the `x` branch, and needs
/// **2 865**. The default path must therefore finish inside a tenth of the
/// greedy-only count, where the reference path trips; with the re-plan
/// block commented out the default path trips there too.
#[test]
fn the_replan_pays_on_a_near_tie_before_a_one_candidate_branch() {
    let (graph, query) = replan_fixture();
    let reference_opts = MatchOptions {
        use_index: false,
        ..MatchOptions::default()
    };
    let expected = match_output_set(&graph, &query, reference_opts);
    assert_eq!(expected.len(), 9, "the roots with an edge to D[0]");

    const GREEDY_ONLY_STEPS: u64 = 136_845;
    let tenth = MatchBudget {
        max_steps: Some(GREEDY_ONLY_STEPS / 10),
        ..MatchBudget::UNLIMITED
    };
    let _ = take_stats();
    let replanned = try_match_output_set(&graph, &query, MatchOptions::default(), &tenth);
    assert_eq!(replanned.as_ref(), Ok(&expected));
    assert!(take_stats().order_replans >= 1);
    let greedy_only = try_match_output_set(&graph, &query, reference_opts, &tenth);
    assert_eq!(greedy_only.unwrap_err().kind, BudgetKind::Steps);
}
