//! Validated zero-copy loading of `.fsg` containers.
//!
//! The loader does **one linear pass** of validation over every section so
//! that no later graph access can panic or misbehave on a corrupt file:
//! offsets must be monotone prefix sums, adjacency and posting runs must
//! be strictly sorted, every id must be in range, every reserved byte must
//! be zero. After validation the large arrays stay exactly where they are
//! — typed [`Segment`](fairsqg_graph::Segment) views into the shared
//! (usually memory-mapped) byte buffer — and only the small derived
//! tables (schema strings, the postings directory, and the active domains
//! that [`Graph::from_parts`] reads off the postings) are materialized on
//! the heap. The domain sections of v1–v3 files (kinds 13–15) are
//! bounds-checked with the rest of the section table, then skipped.
//! A file without a whole-file digest also has every posting checked
//! against its node's attribute tuple and every in-edge against the
//! out-edges; a stamped file skips those passes.

use crate::error::{corrupt, StoreError};
use crate::format::{
    section, Header, SectionEntry, DIGEST_OFFSET, HEADER_BYTES, REQUIRED_SECTIONS, SECTION_ALIGN,
    SECTION_ENTRY_BYTES, VERSION,
};
use crate::mmap::FileBytes;
use fairsqg_graph::{
    Adj, AttrEntry, AttrId, AttrIndex, Graph, GraphParts, LabelId, NodeId, PostEntry, Schema,
    Segment, StableBytes, TAG_STR,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// A graph loaded from an `.fsg` container, with load provenance.
#[derive(Debug)]
pub struct LoadedGraph {
    /// The validated graph; its large arrays are zero-copy views into the
    /// container bytes.
    pub graph: Graph,
    /// Whether the backing bytes are served by a memory mapping (as
    /// opposed to an in-memory copy of the file).
    pub mapped: bool,
    /// Total container size in bytes.
    pub file_bytes: u64,
}

fn section_name(kind: u32) -> &'static str {
    match kind {
        section::NODE_LABELS => "node_labels",
        section::ATTR_OFFSETS => "attr_offsets",
        section::ATTR_ENTRIES => "attr_entries",
        section::OUT_OFFSETS => "out_offsets",
        section::OUT_ADJ => "out_adj",
        section::IN_OFFSETS => "in_offsets",
        section::IN_ADJ => "in_adj",
        section::LABEL_OFFSETS => "label_offsets",
        section::LABEL_NODES => "label_nodes",
        section::STRINGS => "strings",
        section::POSTINGS_DIR => "postings_dir",
        section::POSTINGS => "postings",
        13..=15 => "retired domain section",
        _ => "unknown",
    }
}

/// Bytes per element of a section's array.
fn elem_size(kind: u32) -> u64 {
    match kind {
        section::NODE_LABELS => 2,
        section::ATTR_OFFSETS
        | section::OUT_OFFSETS
        | section::IN_OFFSETS
        | section::LABEL_OFFSETS
        | section::LABEL_NODES => 4,
        section::OUT_ADJ | section::IN_ADJ => 8,
        section::STRINGS => 1,
        // 13–15: the retired domain sections of v1–v3 (two directories of
        // u64 triples, then 16-byte values), bounds-checked and skipped.
        section::POSTINGS_DIR | 13 | 14 => 8,
        section::ATTR_ENTRIES | section::POSTINGS | 15 => 16,
        _ => 0,
    }
}

/// Parses and validates the section table: every required section exactly
/// once, no unknown kinds, aligned in-bounds offsets, byte lengths that
/// match the element counts.
fn section_table(bytes: &[u8], header: &Header) -> Result<HashMap<u32, SectionEntry>, StoreError> {
    let count = header.section_count as usize;
    let table_end = HEADER_BYTES as u64 + (SECTION_ENTRY_BYTES * count) as u64;
    if (bytes.len() as u64) < table_end {
        return Err(StoreError::Truncated {
            need: table_end,
            have: bytes.len() as u64,
            what: "section table",
        });
    }
    let mut sections = HashMap::with_capacity(count);
    for i in 0..count {
        let at = HEADER_BYTES + SECTION_ENTRY_BYTES * i;
        let entry = SectionEntry::parse(&bytes[at..at + SECTION_ENTRY_BYTES])?;
        if elem_size(entry.kind) == 0 {
            return Err(corrupt(
                "section table",
                format!("unknown section kind {} (version {VERSION})", entry.kind),
            ));
        }
        if !entry.offset.is_multiple_of(SECTION_ALIGN as u64) {
            return Err(corrupt(
                "section table",
                format!(
                    "section '{}' offset {} is not {SECTION_ALIGN}-byte aligned",
                    section_name(entry.kind),
                    entry.offset
                ),
            ));
        }
        if entry.offset < table_end {
            return Err(corrupt(
                "section table",
                format!(
                    "section '{}' offset {} overlaps the header",
                    section_name(entry.kind),
                    entry.offset
                ),
            ));
        }
        let expect_bytes = entry
            .len
            .checked_mul(elem_size(entry.kind))
            .ok_or_else(|| corrupt("section table", "element count overflows"))?;
        if expect_bytes != entry.byte_len {
            return Err(corrupt(
                "section table",
                format!(
                    "section '{}' declares {} elements but {} bytes",
                    section_name(entry.kind),
                    entry.len,
                    entry.byte_len
                ),
            ));
        }
        let end = entry
            .offset
            .checked_add(entry.byte_len)
            .ok_or_else(|| corrupt("section table", "section end overflows"))?;
        if end > bytes.len() as u64 {
            return Err(StoreError::Truncated {
                need: end,
                have: bytes.len() as u64,
                what: section_name(entry.kind),
            });
        }
        if sections.insert(entry.kind, entry).is_some() {
            return Err(corrupt(
                "section table",
                format!("duplicate section '{}'", section_name(entry.kind)),
            ));
        }
    }
    for kind in REQUIRED_SECTIONS {
        if !sections.contains_key(&kind) {
            return Err(corrupt(
                "section table",
                format!("missing required section '{}'", section_name(kind)),
            ));
        }
    }
    Ok(sections)
}

/// Parses the four interner string tables and rebuilds the schema by
/// re-interning in stored order (ids are assigned sequentially, so the
/// rebuilt ids equal the stored ids).
fn parse_schema(blob: &[u8]) -> Result<Schema, StoreError> {
    let mut cursor = 0usize;
    let read_u32 = |cursor: &mut usize| -> Result<u32, StoreError> {
        let end = *cursor + 4;
        if end > blob.len() {
            return Err(corrupt("strings", "blob ends inside a length field"));
        }
        let v = u32::from_le_bytes(blob[*cursor..end].try_into().unwrap());
        *cursor = end;
        Ok(v)
    };
    let mut tables: Vec<Vec<&str>> = Vec::with_capacity(4);
    for table in ["node labels", "edge labels", "attributes", "symbols"] {
        let count = read_u32(&mut cursor)? as usize;
        let mut names = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let len = read_u32(&mut cursor)? as usize;
            let end = cursor
                .checked_add(len)
                .filter(|&e| e <= blob.len())
                .ok_or_else(|| corrupt("strings", format!("{table} table ends inside a string")))?;
            let s = std::str::from_utf8(&blob[cursor..end])
                .map_err(|_| corrupt("strings", format!("{table} table holds invalid utf-8")))?;
            names.push(s);
            cursor = end;
        }
        tables.push(names);
    }
    if cursor != blob.len() {
        return Err(corrupt(
            "strings",
            format!(
                "{} trailing bytes after the symbol table",
                blob.len() - cursor
            ),
        ));
    }
    let [node_labels, edge_labels, attrs, symbols] = <[Vec<&str>; 4]>::try_from(tables).unwrap();
    for (table, names, max) in [
        ("node labels", &node_labels, 1usize << 16),
        ("edge labels", &edge_labels, 1 << 16),
        ("attributes", &attrs, 1 << 16),
        ("symbols", &symbols, u32::MAX as usize),
    ] {
        if names.len() > max {
            return Err(corrupt(
                "strings",
                format!("{table} table holds {} entries (max {max})", names.len()),
            ));
        }
    }
    let mut schema = Schema::new();
    for (i, name) in node_labels.iter().enumerate() {
        if schema.node_label(name).0 as usize != i {
            return Err(corrupt("strings", format!("duplicate node label '{name}'")));
        }
    }
    for (i, name) in edge_labels.iter().enumerate() {
        if schema.edge_label(name).0 as usize != i {
            return Err(corrupt("strings", format!("duplicate edge label '{name}'")));
        }
    }
    for (i, name) in attrs.iter().enumerate() {
        if schema.attr(name).0 as usize != i {
            return Err(corrupt("strings", format!("duplicate attribute '{name}'")));
        }
    }
    for (i, value) in symbols.iter().enumerate() {
        if schema.symbol(value).0 as usize != i {
            return Err(corrupt("strings", format!("duplicate symbol '{value}'")));
        }
    }
    Ok(schema)
}

/// Maps a typed view of one section out of the shared buffer.
fn seg<T: fairsqg_graph::Pod>(
    owner: &Arc<dyn StableBytes>,
    entry: &SectionEntry,
) -> Result<Segment<T>, StoreError> {
    Segment::map_or_copy(Arc::clone(owner), entry.offset as usize, entry.len as usize)
        .map_err(|e| corrupt(section_name(entry.kind), e.to_string()))
}

/// Checks a prefix-offset array: starts at 0, non-decreasing, ends at
/// `total`, length `runs + 1`.
fn check_offsets(
    name: &'static str,
    offsets: &[u32],
    runs: usize,
    total: usize,
) -> Result<(), StoreError> {
    if offsets.len() != runs + 1 {
        return Err(corrupt(
            name,
            format!("expected {} offsets, found {}", runs + 1, offsets.len()),
        ));
    }
    if offsets[0] != 0 {
        return Err(corrupt(name, "first offset is not 0"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt(name, "offsets are not monotone"));
    }
    if offsets[runs] as usize != total {
        return Err(corrupt(
            name,
            format!("last offset {} != entry count {total}", offsets[runs]),
        ));
    }
    Ok(())
}

/// Checks an encoded value's tag, reserved pad, and — for `Str` — that
/// the payload names an existing symbol without truncation.
fn check_value(
    name: &'static str,
    tag: u16,
    payload: i64,
    pad_zero: bool,
    symbol_count: usize,
) -> Result<(), StoreError> {
    if tag > TAG_STR {
        return Err(corrupt(name, format!("invalid value tag {tag}")));
    }
    if !pad_zero {
        return Err(corrupt(name, "nonzero reserved pad bytes"));
    }
    if tag == TAG_STR && !(0..symbol_count as i64).contains(&payload) {
        return Err(corrupt(
            name,
            format!("string payload {payload} out of range (symbol count {symbol_count})"),
        ));
    }
    Ok(())
}

/// Checks one CSR adjacency array against its offsets: per-run entries
/// strictly `(endpoint, label)`-sorted, ids in range, pads zero.
fn check_adjacency(
    name: &'static str,
    offsets: &[u32],
    adj: &[Adj],
    node_count: usize,
    edge_label_count: usize,
) -> Result<(), StoreError> {
    for (i, a) in adj.iter().enumerate() {
        if a.to().index() >= node_count {
            return Err(corrupt(name, format!("entry {i}: endpoint out of range")));
        }
        if a.label().index() >= edge_label_count {
            return Err(corrupt(name, format!("entry {i}: edge label out of range")));
        }
        if !a.pad_is_zero() {
            return Err(corrupt(
                name,
                format!("entry {i}: nonzero reserved pad bytes"),
            ));
        }
    }
    for run in offsets.windows(2) {
        let run = &adj[run[0] as usize..run[1] as usize];
        if run.windows(2).any(|w| w[0].key() >= w[1].key()) {
            return Err(corrupt(
                name,
                "run is not strictly (endpoint, label)-sorted",
            ));
        }
    }
    Ok(())
}

/// A validated directory triple `(key, start, len)`.
struct DirEntry {
    key: u64,
    start: u64,
    len: u64,
}

/// Validates a `(key, start, len)` directory: triple-aligned length,
/// strictly increasing keys, nonempty runs contiguous from 0.
fn check_dir(name: &'static str, dir: &[u64]) -> Result<Vec<DirEntry>, StoreError> {
    if !dir.len().is_multiple_of(3) {
        return Err(corrupt(
            name,
            format!("length {} is not a multiple of 3", dir.len()),
        ));
    }
    let mut out = Vec::with_capacity(dir.len() / 3);
    let mut expect_start = 0u64;
    let mut last_key = None;
    for t in dir.chunks_exact(3) {
        let (key, start, len) = (t[0], t[1], t[2]);
        if last_key.is_some_and(|k| key <= k) {
            return Err(corrupt(name, "keys are not strictly increasing"));
        }
        last_key = Some(key);
        if start != expect_start {
            return Err(corrupt(
                name,
                format!("run for key {key} starts at {start}, expected {expect_start}"),
            ));
        }
        if len == 0 {
            return Err(corrupt(name, format!("empty run for key {key}")));
        }
        expect_start = start
            .checked_add(len)
            .ok_or_else(|| corrupt(name, "run end overflows"))?;
        out.push(DirEntry { key, start, len });
    }
    Ok(out)
}

/// Splits a `label << 16 | attr` directory key, checking both halves.
fn pair_of(
    name: &'static str,
    key: u64,
    labels: usize,
    attrs: usize,
) -> Result<(LabelId, AttrId), StoreError> {
    if key >> 32 != 0 {
        return Err(corrupt(name, format!("key {key} exceeds 32 bits")));
    }
    let l = (key >> 16) as usize;
    let a = (key & 0xFFFF) as usize;
    if l >= labels {
        return Err(corrupt(name, format!("key {key}: label out of range")));
    }
    if a >= attrs {
        return Err(corrupt(name, format!("key {key}: attribute out of range")));
    }
    Ok((LabelId(l as u16), AttrId(a as u16)))
}

/// Validates `bytes` as an `.fsg` container and assembles the graph,
/// taking zero-copy views into the buffer for every large array.
pub fn load_bytes(owner: Arc<dyn StableBytes>) -> Result<Graph, StoreError> {
    let bytes = owner.stable_bytes();
    let header = Header::parse(bytes)?;
    // Whole-file integrity first (v2): the digest covers every byte with
    // the digest field itself zeroed, so a single flipped bit anywhere —
    // including in regions the structural checks below cannot see, like
    // padding or string payloads — fails fast here. Zero = absent (v1, or
    // a non-seekable writer), so verification is skipped.
    if header.digest != 0 {
        let mut h = crate::xxhash::Xxh64::new(0);
        h.update(&bytes[..DIGEST_OFFSET]);
        h.update(&[0u8; 8]);
        h.update(&bytes[DIGEST_OFFSET + 8..]);
        let computed = h.finish();
        if computed != header.digest {
            return Err(corrupt(
                "digest",
                format!(
                    "whole-file digest mismatch: stored {:016x}, computed {computed:016x}",
                    header.digest
                ),
            ));
        }
    }
    if header.node_count > u32::MAX as u64 {
        return Err(corrupt(
            "header",
            format!("node count {} exceeds u32", header.node_count),
        ));
    }
    if header.edge_count > u32::MAX as u64 {
        return Err(corrupt(
            "header",
            format!("edge count {} exceeds u32", header.edge_count),
        ));
    }
    let sections = section_table(bytes, &header)?;
    let n = header.node_count as usize;
    let m = header.edge_count as usize;

    // Schema first: every id-range check below needs the table sizes.
    let strings = &sections[&section::STRINGS];
    let blob = &bytes[strings.offset as usize..(strings.offset + strings.byte_len) as usize];
    let schema = parse_schema(blob)?;
    let label_count = schema.node_label_count();
    let edge_label_count = schema.edge_label_count();
    let attr_count = schema.attr_count();
    let symbol_count = schema.symbol_count();

    // Typed views of every array section.
    let node_labels: Segment<LabelId> = seg(&owner, &sections[&section::NODE_LABELS])?;
    let attr_offsets: Segment<u32> = seg(&owner, &sections[&section::ATTR_OFFSETS])?;
    let attr_entries: Segment<AttrEntry> = seg(&owner, &sections[&section::ATTR_ENTRIES])?;
    let out_offsets: Segment<u32> = seg(&owner, &sections[&section::OUT_OFFSETS])?;
    let out_adj: Segment<Adj> = seg(&owner, &sections[&section::OUT_ADJ])?;
    let in_offsets: Segment<u32> = seg(&owner, &sections[&section::IN_OFFSETS])?;
    let in_adj: Segment<Adj> = seg(&owner, &sections[&section::IN_ADJ])?;
    let label_offsets: Segment<u32> = seg(&owner, &sections[&section::LABEL_OFFSETS])?;
    let label_nodes: Segment<NodeId> = seg(&owner, &sections[&section::LABEL_NODES])?;
    let postings_dir: Segment<u64> = seg(&owner, &sections[&section::POSTINGS_DIR])?;
    let postings: Segment<PostEntry> = seg(&owner, &sections[&section::POSTINGS])?;

    // Node labels.
    if node_labels.len() != n {
        return Err(corrupt(
            "node_labels",
            format!("{} labels for {n} nodes", node_labels.len()),
        ));
    }
    if let Some(l) = node_labels.iter().find(|l| l.index() >= label_count) {
        return Err(corrupt(
            "node_labels",
            format!("label {} out of range", l.0),
        ));
    }

    // Attribute runs: id-sorted, unique ids, valid encoded values.
    check_offsets("attr_offsets", &attr_offsets, n, attr_entries.len())?;
    for (i, e) in attr_entries.iter().enumerate() {
        if e.attr().index() >= attr_count {
            return Err(corrupt(
                "attr_entries",
                format!("entry {i}: attribute out of range"),
            ));
        }
        check_value(
            "attr_entries",
            e.tag(),
            e.payload(),
            e.pad_is_zero(),
            symbol_count,
        )?;
    }
    for run in attr_offsets.windows(2) {
        let run = &attr_entries[run[0] as usize..run[1] as usize];
        if run.windows(2).any(|w| w[0].attr() >= w[1].attr()) {
            return Err(corrupt(
                "attr_entries",
                "run is not strictly attribute-sorted",
            ));
        }
    }

    // CSR adjacency, both directions.
    if out_adj.len() != m {
        return Err(corrupt(
            "out_adj",
            format!("{} entries for {m} edges", out_adj.len()),
        ));
    }
    if in_adj.len() != m {
        return Err(corrupt(
            "in_adj",
            format!("{} entries for {m} edges", in_adj.len()),
        ));
    }
    check_offsets("out_offsets", &out_offsets, n, m)?;
    check_offsets("in_offsets", &in_offsets, n, m)?;
    check_adjacency("out_adj", &out_offsets, &out_adj, n, edge_label_count)?;
    check_adjacency("in_adj", &in_offsets, &in_adj, n, edge_label_count)?;
    // Without a digest nothing else ties the two directions together: a
    // sorted in-run can name an edge no out-run holds. Both sides hold `m`
    // distinct entries, so finding every in-edge among the out-edges
    // makes them the same edge set.
    if header.digest == 0 {
        for (v, run) in in_offsets.windows(2).enumerate() {
            let key = |l| (NodeId(v as u32), l);
            for a in &in_adj[run[0] as usize..run[1] as usize] {
                let u = a.to().index();
                let out = &out_adj[out_offsets[u] as usize..out_offsets[u + 1] as usize];
                if out
                    .binary_search_by_key(&key(a.label()), |b| b.key())
                    .is_err()
                {
                    return Err(corrupt(
                        "in_adj",
                        format!("node {v}: in-edge from node {u} is not an out-edge of {u}"),
                    ));
                }
            }
        }
    }

    // Label index: every node exactly once, runs ascending, labels agree.
    if label_nodes.len() != n {
        return Err(corrupt(
            "label_nodes",
            format!("{} entries for {n} nodes", label_nodes.len()),
        ));
    }
    check_offsets("label_offsets", &label_offsets, label_count, n)?;
    for (label_ix, run) in label_offsets.windows(2).enumerate() {
        let run = &label_nodes[run[0] as usize..run[1] as usize];
        if run.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("label_nodes", "run is not strictly ascending"));
        }
        for &v in run {
            if v.index() >= n {
                return Err(corrupt("label_nodes", format!("node {} out of range", v.0)));
            }
            if node_labels[v.index()].index() != label_ix {
                return Err(corrupt(
                    "label_nodes",
                    format!(
                        "node {} filed under label {label_ix} but carries another",
                        v.0
                    ),
                ));
            }
        }
    }

    // Postings: directory + per-pair sorted runs. Every attribute
    // observation has exactly one posting, so totals must agree.
    let post_dir = check_dir("postings_dir", &postings_dir)?;
    let total: u64 = post_dir.iter().map(|d| d.len).sum();
    if total != postings.len() as u64 {
        return Err(corrupt(
            "postings_dir",
            format!(
                "directory covers {total} entries, section has {}",
                postings.len()
            ),
        ));
    }
    if postings.len() != attr_entries.len() {
        return Err(corrupt(
            "postings",
            format!(
                "{} postings for {} attribute entries",
                postings.len(),
                attr_entries.len()
            ),
        ));
    }
    let mut index_parts: HashMap<(LabelId, AttrId), Segment<PostEntry>> =
        HashMap::with_capacity(post_dir.len());
    let post_base = sections[&section::POSTINGS].offset;
    for d in &post_dir {
        let (l, a) = pair_of("postings_dir", d.key, label_count, attr_count)?;
        let run = &postings[d.start as usize..(d.start + d.len) as usize];
        for (i, e) in run.iter().enumerate() {
            check_value(
                "postings",
                e.tag(),
                e.payload(),
                e.pad_is_zero(),
                symbol_count,
            )?;
            if e.node().index() >= n {
                return Err(corrupt("postings", format!("entry {i}: node out of range")));
            }
            if node_labels[e.node().index()] != l {
                return Err(corrupt(
                    "postings",
                    format!("entry {i}: node {} filed under wrong label", e.node().0),
                ));
            }
            // Without a digest nothing else ties a posting to its node's
            // tuple: a sorted run can carry a value the node does not hold.
            if header.digest == 0 {
                let v = e.node().index();
                let tuple = &attr_entries[attr_offsets[v] as usize..attr_offsets[v + 1] as usize];
                let held = tuple
                    .binary_search_by_key(&a, |x| x.attr())
                    .is_ok_and(|k| tuple[k].tag() == e.tag() && tuple[k].payload() == e.payload());
                if !held {
                    return Err(corrupt(
                        "postings",
                        format!(
                            "entry {i}: node {} does not hold this value of attribute {}",
                            e.node().0,
                            a.0
                        ),
                    ));
                }
            }
        }
        if run.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt(
                "postings",
                "run is not strictly (value, node)-sorted",
            ));
        }
        let seg = Segment::map_or_copy(
            Arc::clone(&owner),
            (post_base + d.start * 16) as usize,
            d.len as usize,
        )
        .map_err(|e| corrupt("postings", e.to_string()))?;
        index_parts.insert((l, a), seg);
    }

    Ok(Graph::from_parts(GraphParts {
        schema,
        node_labels,
        attr_offsets,
        attr_entries,
        out_offsets,
        out_adj,
        in_offsets,
        in_adj,
        label_offsets,
        label_nodes,
        attr_index: AttrIndex::from_parts(index_parts),
    }))
}

/// Opens and validates the container at `path`, memory-mapping it when
/// possible (falling back to an owned read, e.g. for zero-length maps or
/// non-Unix targets).
pub fn open_path(path: &Path) -> Result<LoadedGraph, StoreError> {
    let (bytes, mapped) = FileBytes::open(path)?;
    let file_bytes = bytes.as_bytes().len() as u64;
    let graph = load_bytes(Arc::new(bytes))?;
    Ok(LoadedGraph {
        graph,
        mapped,
        file_bytes,
    })
}

/// Whether `path` looks like a binary container (by extension); used by
/// callers that accept either TSV or `.fsg` input.
pub fn is_store_path(path: &Path) -> bool {
    path.extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("fsg"))
}
