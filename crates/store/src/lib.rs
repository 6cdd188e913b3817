//! Compact binary graph storage (`.fsg`) with zero-copy mmap loads.
//!
//! The TSV format (`fairsqg-graph::io`) is friendly but slow at scale:
//! loading re-parses text, re-interns strings, re-sorts edges and rebuilds
//! every index on each load. This crate adds the persistent counterpart —
//! a versioned little-endian container holding the graph's columnar
//! arrays (CSR adjacency both directions, attribute runs, label index,
//! value postings) exactly as [`Segment`](fairsqg_graph::Segment)s hold
//! them in memory, so loading is *validate + point*, not parse + rebuild.
//! Each fact is stored once: the active domains are read off the postings
//! at load (one linear pass), as they are at build time.
//!
//! * [`write_graph`] / [`write_graph_to_path`] serialize a built
//!   [`Graph`](fairsqg_graph::Graph);
//! * [`convert_tsv_path`] reads a TSV file one line at a time, builds the
//!   columns once (the same `parse_tsv` + `GraphBuilder::finish` that
//!   `read_tsv` runs) and writes them;
//! * [`open_path`] memory-maps a container and returns a fully validated
//!   graph whose large arrays are zero-copy views into the mapping;
//!   [`load_bytes`] does the same over any
//!   [`StableBytes`](fairsqg_graph::StableBytes) buffer.
//!
//! Loading validates up front — magic, version, endianness, section
//! table, offset monotonicity, run sort order, id ranges, reserved bytes,
//! and each posting's node against its run's label and the postings total
//! against the attribute entries (not posting by posting; the whole-file
//! digest covers the rest) — and reports failures as typed
//! [`StoreError`]s instead of panicking on untrusted bytes. An `.fsg` load
//! and a TSV load of the same graph expose identical postings, domains,
//! candidates, and generation archives.
//!
//! See `docs/storage.md` for the byte-level format specification.

mod convert;
mod error;
pub mod format;
pub mod mmap;
mod read;
mod write;
pub mod xxhash;

pub use convert::{convert_tsv, convert_tsv_path, ConvertStats};
pub use error::StoreError;
pub use read::{is_store_path, load_bytes, open_path, LoadedGraph};
pub use write::{write_graph, write_graph_to_path};

#[cfg(test)]
mod tests {
    use super::*;
    use fairsqg_graph::{read_tsv, write_tsv, AttrValue, CmpOp, Graph, GraphBuilder, NodeId};
    use std::sync::Arc;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        let us = b.schema_mut().symbol("US");
        let d0 = b.add_named_node("director", &[("gender", AttrValue::Int(1))]);
        let d1 = b.add_named_node(
            "director",
            &[("gender", AttrValue::Int(0)), ("major", AttrValue::Int(3))],
        );
        let country = b.schema_mut().attr("country");
        let m = b.add_node(
            b.schema().find_node_label("director").unwrap(),
            &[(country, AttrValue::Str(us))],
        );
        let u = b.add_named_node("user", &[("yearsOfExp", AttrValue::Int(12))]);
        b.add_named_edge(d0, m, "knows");
        b.add_named_edge(u, d0, "recommend");
        b.add_named_edge(u, d1, "recommend");
        b.finish()
    }

    /// Semantic equality of two graphs, checked through the public
    /// accessor surface (labels, tuples, adjacency, index, domains).
    pub(crate) fn assert_same_graph(a: &Graph, b: &Graph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.schema().node_label_count(), b.schema().node_label_count());
        assert_eq!(a.schema().edge_label_count(), b.schema().edge_label_count());
        assert_eq!(a.schema().attr_count(), b.schema().attr_count());
        assert_eq!(a.schema().symbol_count(), b.schema().symbol_count());
        for v in a.nodes() {
            assert_eq!(a.label(v), b.label(v));
            assert_eq!(
                a.schema().node_label_name(a.label(v)),
                b.schema().node_label_name(b.label(v))
            );
            assert_eq!(a.tuple(v), b.tuple(v));
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
            assert_eq!(a.in_neighbors(v), b.in_neighbors(v));
        }
        for l in 0..a.schema().node_label_count() {
            let l = fairsqg_graph::LabelId(l as u16);
            assert_eq!(a.nodes_with_label(l), b.nodes_with_label(l));
            for at in 0..a.schema().attr_count() {
                let at = fairsqg_graph::AttrId(at as u16);
                assert_eq!(a.domains().for_label(l, at), b.domains().for_label(l, at));
                match (
                    a.attr_index().postings(l, at),
                    b.attr_index().postings(l, at),
                ) {
                    (Some(pa), Some(pb)) => assert_eq!(pa.entries(), pb.entries()),
                    (None, None) => {}
                    other => panic!("postings presence mismatch for ({l:?}, {at:?}): {other:?}"),
                }
            }
        }
        for at in 0..a.schema().attr_count() {
            let at = fairsqg_graph::AttrId(at as u16);
            assert_eq!(a.domains().global(at), b.domains().global(at));
        }
    }

    #[test]
    fn write_load_roundtrip_is_semantically_identical() {
        let g = sample();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let loaded = load_bytes(Arc::new(buf)).unwrap();
        assert_same_graph(&g, &loaded);
        assert!(loaded.is_mapped());
        assert!(loaded.storage().mapped_bytes > 0);
    }

    #[test]
    fn converter_output_matches_write_graph_bit_for_bit() {
        let g = sample();
        let mut tsv = Vec::new();
        write_tsv(&g, &mut tsv).unwrap();
        // In-memory path: parse TSV, build the graph, serialize it.
        let parsed = read_tsv(std::io::BufReader::new(tsv.as_slice())).unwrap();
        let mut via_graph = Vec::new();
        write_graph(&parsed, &mut via_graph).unwrap();
        // The converter: the same text to container bytes.
        let mut via_convert = Vec::new();
        let stats = convert_tsv(std::io::BufReader::new(tsv.as_slice()), &mut via_convert).unwrap();
        assert_eq!(via_graph, via_convert);
        assert_eq!(stats.nodes, g.node_count() as u64);
        assert_eq!(stats.edges, g.edge_count() as u64);
        assert_eq!(stats.bytes, via_convert.len() as u64);
        // And the loaded converted container equals the parsed graph.
        assert_same_graph(&parsed, &load_bytes(Arc::new(via_convert)).unwrap());
    }

    #[test]
    fn converter_reports_parse_errors_with_position_and_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("fairsqg-convert-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (tsv, fsg) = (dir.join("bad.tsv"), dir.join("bad.fsg"));
        // Trailing field on an edge line, and one attribute name too many
        // for the 16-bit id space: both used to convert into a wrong graph.
        let mut too_many = String::from("0\tn");
        for i in 0..=(u16::MAX as u32 + 1) {
            too_many.push_str(&format!("\ta{i}=1"));
        }
        let column = too_many.find("\ta65536=").unwrap() + 2;
        for (text, position) in [
            ("0\ta\n\n0\te\t0\tjunk\n".to_string(), (3, 7)),
            (too_many + "\n", (1, column)),
        ] {
            std::fs::write(&tsv, text).unwrap();
            let err = convert_tsv_path(&tsv, &fsg).unwrap_err();
            assert_eq!(err.position(), Some(position), "{err}");
            assert_eq!(err.path(), Some(tsv.display().to_string().as_str()));
            assert!(!fsg.exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loaded_graph_serves_indexed_ranges() {
        let g = sample();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let loaded = load_bytes(Arc::new(buf)).unwrap();
        let director = loaded.schema().find_node_label("director").unwrap();
        let gender = loaded.schema().find_attr("gender").unwrap();
        let p = loaded.attr_index().postings(director, gender).unwrap();
        let hits: Vec<NodeId> = p
            .range(CmpOp::Ge, AttrValue::Int(1))
            .iter()
            .map(|e| e.node())
            .collect();
        assert_eq!(hits, vec![NodeId(0)]);
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = GraphBuilder::new().finish();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let loaded = load_bytes(Arc::new(buf)).unwrap();
        assert_eq!(loaded.node_count(), 0);
        assert_eq!(loaded.edge_count(), 0);
    }

    #[test]
    fn file_roundtrip_via_mmap() {
        let dir = std::env::temp_dir().join(format!("fairsqg-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("sample.fsg");
        let g = sample();
        let bytes = write_graph_to_path(&g, &p).unwrap();
        assert_eq!(bytes, std::fs::metadata(&p).unwrap().len());
        let loaded = open_path(&p).unwrap();
        assert_same_graph(&g, &loaded.graph);
        assert_eq!(loaded.file_bytes, bytes);
        #[cfg(unix)]
        assert!(loaded.mapped);
        assert!(is_store_path(&p));
        assert!(!is_store_path(std::path::Path::new("x.tsv")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
