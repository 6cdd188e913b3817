//! Property-based validation of the storage roundtrip: for arbitrary
//! graphs, `write → load` must reproduce the graph exactly through the
//! public accessor surface, and the streaming TSV converter must emit
//! byte-identical containers to the in-memory `read_tsv → write_graph`
//! path (the foundation of bit-identical generation archives across the
//! two load paths).

use fairsqg_graph::{read_tsv, write_tsv, AttrId, AttrValue, CmpOp, Graph, GraphBuilder, LabelId};
use fairsqg_store::{convert_tsv, load_bytes, write_graph};
use proptest::prelude::*;
use std::io::BufReader;
use std::sync::Arc;

/// Random attributed graphs: up to 3 labels, 3 attributes (int and
/// string values), multi-label edges, duplicate edges to exercise dedup.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1usize..12,
        proptest::collection::vec(
            (
                0usize..3,
                proptest::collection::vec((0usize..3, -4i64..8), 0..4),
            ),
            1..12,
        ),
        proptest::collection::vec((0usize..12, 0usize..12, 0u8..2), 0..30),
    )
        .prop_map(|(n, node_specs, edges)| {
            let labels = ["director", "movie", "user"];
            let attrs = ["gender", "rating", "country"];
            let mut b = GraphBuilder::new();
            for i in 0..n {
                let (l, ref node_attrs) = node_specs[i % node_specs.len()];
                let tuple: Vec<(&str, AttrValue)> = node_attrs
                    .iter()
                    .map(|&(a, v)| {
                        // Attribute 2 takes string values to exercise the
                        // symbol table; v picks among a few symbols.
                        if a == 2 {
                            let sym = b.schema_mut().symbol(match v.rem_euclid(3) {
                                0 => "US",
                                1 => "FR",
                                _ => "JP",
                            });
                            (attrs[a], AttrValue::Str(sym))
                        } else {
                            (attrs[a], AttrValue::Int(v))
                        }
                    })
                    .collect();
                b.add_named_node(labels[l], &tuple);
            }
            let elabels = ["knows", "recommend"];
            for (s, d, l) in edges {
                if s < n && d < n {
                    b.add_named_edge(
                        fairsqg_graph::NodeId(s as u32),
                        fairsqg_graph::NodeId(d as u32),
                        elabels[l as usize],
                    );
                }
            }
            b.finish()
        })
}

/// Semantic equality through the public accessor surface.
fn assert_same_graph(a: &Graph, b: &Graph) {
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.edge_count(), b.edge_count());
    assert_eq!(a.schema().node_label_count(), b.schema().node_label_count());
    assert_eq!(a.schema().edge_label_count(), b.schema().edge_label_count());
    assert_eq!(a.schema().attr_count(), b.schema().attr_count());
    assert_eq!(a.schema().symbol_count(), b.schema().symbol_count());
    for v in a.nodes() {
        assert_eq!(a.label(v), b.label(v));
        assert_eq!(a.tuple(v), b.tuple(v));
        assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
        assert_eq!(a.in_neighbors(v), b.in_neighbors(v));
    }
    for l in 0..a.schema().node_label_count() {
        let l = LabelId(l as u16);
        assert_eq!(a.nodes_with_label(l), b.nodes_with_label(l));
        for at in 0..a.schema().attr_count() {
            let at = AttrId(at as u16);
            assert_eq!(a.domains().for_label(l, at), b.domains().for_label(l, at));
            match (
                a.attr_index().postings(l, at),
                b.attr_index().postings(l, at),
            ) {
                (Some(pa), Some(pb)) => assert_eq!(pa.entries(), pb.entries()),
                (None, None) => {}
                other => panic!("postings presence mismatch: {other:?}"),
            }
        }
    }
    for at in 0..a.schema().attr_count() {
        let at = AttrId(at as u16);
        assert_eq!(a.domains().global(at), b.domains().global(at));
        assert_eq!(a.domains().int_range(at), b.domains().int_range(at));
    }
    assert_eq!(a.domains().max_domain_size(), b.domains().max_domain_size());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// write → load reproduces the graph exactly.
    #[test]
    fn roundtrip_preserves_graph(g in arb_graph()) {
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let loaded = load_bytes(Arc::new(buf)).unwrap();
        assert_same_graph(&g, &loaded);
        prop_assert!(loaded.is_mapped());
    }

    /// Serialization is deterministic: same graph, same bytes.
    #[test]
    fn serialization_is_deterministic(g in arb_graph()) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_graph(&g, &mut a).unwrap();
        write_graph(&g, &mut b).unwrap();
        prop_assert_eq!(a, b);
    }

    /// The streaming TSV converter emits the same container bytes as the
    /// in-memory path, and loading it reproduces the TSV-parsed graph.
    #[test]
    fn converter_matches_in_memory_path(g in arb_graph()) {
        let mut tsv = Vec::new();
        write_tsv(&g, &mut tsv).unwrap();
        let parsed = read_tsv(BufReader::new(tsv.as_slice())).unwrap();
        let mut via_graph = Vec::new();
        write_graph(&parsed, &mut via_graph).unwrap();
        let mut via_convert = Vec::new();
        let stats = convert_tsv(BufReader::new(tsv.as_slice()), &mut via_convert).unwrap();
        prop_assert_eq!(&via_graph, &via_convert);
        prop_assert_eq!(stats.nodes, parsed.node_count() as u64);
        prop_assert_eq!(stats.edges, parsed.edge_count() as u64);
        assert_same_graph(&parsed, &load_bytes(Arc::new(via_convert)).unwrap());
    }

    /// Indexed range evaluation over a loaded graph agrees with the
    /// original graph for every (label, attr, op, constant).
    #[test]
    fn loaded_ranges_agree(g in arb_graph(), c in -5i64..9) {
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let loaded = load_bytes(Arc::new(buf)).unwrap();
        for l in 0..g.schema().node_label_count() {
            let l = LabelId(l as u16);
            for at in 0..g.schema().attr_count() {
                let at = AttrId(at as u16);
                let (pa, pb) = match (g.attr_index().postings(l, at), loaded.attr_index().postings(l, at)) {
                    (Some(pa), Some(pb)) => (pa, pb),
                    _ => continue,
                };
                for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ge, CmpOp::Gt] {
                    let want = pa.range(op, AttrValue::Int(c));
                    let got = pb.range(op, AttrValue::Int(c));
                    prop_assert_eq!(want, got);
                }
            }
        }
    }
}
