//! TSV → `.fsg` conversion.
//!
//! Converting is loading and then writing: [`parse_tsv`] reads the text one
//! line at a time into a [`GraphBuilder`](fairsqg_graph::GraphBuilder),
//! `finish` builds the columns — the same call `read_tsv` makes, so there
//! is no second build path to keep in step — and the container writer
//! serializes them. The bytes are `write_graph` of the graph `read_tsv`
//! builds from the same text, by construction. Peak memory is proportional
//! to the *output* columns (2 bytes per label, 16 per attribute, 12 per
//! pending edge), not to the text or to any per-node allocation.

use crate::write::{write_graph, write_graph_to_path};
use fairsqg_graph::{parse_tsv, Graph, IoError};
use std::io::{BufRead, Write};
use std::path::Path;

/// What a conversion produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertStats {
    /// Nodes in the converted graph.
    pub nodes: u64,
    /// Deduplicated labeled edges.
    pub edges: u64,
    /// Container bytes written.
    pub bytes: u64,
}

impl ConvertStats {
    fn of(graph: &Graph, bytes: u64) -> Self {
        Self {
            nodes: graph.node_count() as u64,
            edges: graph.edge_count() as u64,
            bytes,
        }
    }
}

/// Converts TSV text from `input` into a container written to `out`.
pub fn convert_tsv<R: BufRead, W: Write>(input: R, out: W) -> Result<ConvertStats, IoError> {
    let graph = parse_tsv(input)?.finish();
    Ok(ConvertStats::of(&graph, write_graph(&graph, out)?))
}

/// Converts the TSV file at `src` into the `.fsg` container at `dst`,
/// reading the input one line at a time. Parse errors carry `src`'s path
/// alongside their line/column position, and leave `dst` untouched.
pub fn convert_tsv_path(src: &Path, dst: &Path) -> Result<ConvertStats, IoError> {
    let input = std::io::BufReader::new(std::fs::File::open(src)?);
    let graph = parse_tsv(input).map_err(|e| e.with_path(src))?.finish();
    Ok(ConvertStats::of(&graph, write_graph_to_path(&graph, dst)?))
}
