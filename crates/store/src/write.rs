//! Serialization of a graph into the `.fsg` container.
//!
//! The writer is deliberately **safe** code: every record is emitted
//! field-by-field in little-endian through the public accessors of the
//! columnar types, so the on-disk layout is pinned by this module (and by
//! `docs/storage.md`), not by whatever the compiler did to a struct. The
//! zero-copy *reader* is where the layout equivalence pays off.

use crate::format::{
    section, Header, SectionEntry, DIGEST_OFFSET, HEADER_BYTES, SECTION_ALIGN, SECTION_ENTRY_BYTES,
};
use crate::xxhash::Xxh64;
use fairsqg_graph::{Adj, AttrEntry, AttrValue, Graph, PostEntry, Schema};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

#[inline]
fn encode(v: AttrValue) -> (u16, i64) {
    match v {
        AttrValue::Int(i) => (fairsqg_graph::TAG_INT, i),
        AttrValue::Str(s) => (fairsqg_graph::TAG_STR, s.0 as i64),
    }
}

/// Counting, digest-computing writer with 16-byte alignment padding.
///
/// Every byte written also feeds a streaming xxHash64. The header goes out
/// with a zero digest placeholder — exactly what the digest convention
/// hashes (the digest field is treated as zero) — so the final hash can be
/// patched into a seekable sink afterwards without invalidating itself.
struct Out<W: Write> {
    w: W,
    written: u64,
    hash: Xxh64,
}

impl<W: Write> Out<W> {
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.w.write_all(bytes)?;
        self.hash.update(bytes);
        self.written += bytes.len() as u64;
        Ok(())
    }

    /// Pads with zeros to the next [`SECTION_ALIGN`] boundary.
    fn pad_to_align(&mut self) -> std::io::Result<()> {
        let rem = (self.written % SECTION_ALIGN as u64) as usize;
        if rem != 0 {
            self.put(&[0u8; SECTION_ALIGN][..SECTION_ALIGN - rem])?;
        }
        Ok(())
    }
}

fn strings_blob(schema: &Schema) -> Vec<u8> {
    let tables: [Vec<&str>; 4] = [
        (0..schema.node_label_count())
            .map(|i| schema.node_label_name(fairsqg_graph::LabelId(i as u16)))
            .collect(),
        (0..schema.edge_label_count())
            .map(|i| schema.edge_label_name(fairsqg_graph::EdgeLabelId(i as u16)))
            .collect(),
        (0..schema.attr_count())
            .map(|i| schema.attr_name(fairsqg_graph::AttrId(i as u16)))
            .collect(),
        (0..schema.symbol_count())
            .map(|i| schema.symbol_value(fairsqg_graph::SymbolId(i as u32)))
            .collect(),
    ];
    let mut out = Vec::new();
    for names in tables {
        out.extend_from_slice(&(names.len() as u32).to_le_bytes());
        for s in names {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
    out
}

fn put_u32s<W: Write>(out: &mut Out<W>, vals: &[u32]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(4 * vals.len().min(1 << 16));
    for chunk in vals.chunks(1 << 16) {
        buf.clear();
        for &v in chunk {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        out.put(&buf)?;
    }
    Ok(())
}

fn put_adjs<W: Write>(out: &mut Out<W>, vals: &[Adj]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(8 * vals.len().min(1 << 16));
    for chunk in vals.chunks(1 << 16) {
        buf.clear();
        for a in chunk {
            buf.extend_from_slice(&a.to().0.to_le_bytes());
            buf.extend_from_slice(&a.label().0.to_le_bytes());
            buf.extend_from_slice(&0u16.to_le_bytes());
        }
        out.put(&buf)?;
    }
    Ok(())
}

fn put_attr_entries<W: Write>(out: &mut Out<W>, vals: &[AttrEntry]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(16 * vals.len().min(1 << 16));
    for chunk in vals.chunks(1 << 16) {
        buf.clear();
        for e in chunk {
            let (tag, payload) = encode(e.value());
            buf.extend_from_slice(&e.attr().0.to_le_bytes());
            buf.extend_from_slice(&tag.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend_from_slice(&payload.to_le_bytes());
        }
        out.put(&buf)?;
    }
    Ok(())
}

fn put_post_entries<W: Write>(out: &mut Out<W>, vals: &[PostEntry]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(16 * vals.len().min(1 << 16));
    for chunk in vals.chunks(1 << 16) {
        buf.clear();
        for e in chunk {
            let (tag, payload) = encode(e.value());
            buf.extend_from_slice(&tag.to_le_bytes());
            buf.extend_from_slice(&0u16.to_le_bytes());
            buf.extend_from_slice(&e.node().0.to_le_bytes());
            buf.extend_from_slice(&payload.to_le_bytes());
        }
        out.put(&buf)?;
    }
    Ok(())
}

fn put_u64s<W: Write>(out: &mut Out<W>, vals: &[u64]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(8 * vals.len());
    for &v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    out.put(&buf)
}

/// Writes `graph` as a container, returning `(bytes_written, digest)`.
/// The emitted stream carries a **zero** digest field (a non-seekable sink
/// cannot be patched; zero means "absent, skip verification");
/// [`write_graph_to_path`] patches the returned digest into
/// [`DIGEST_OFFSET`] afterwards.
pub(crate) fn write_container<W: Write>(graph: &Graph, w: W) -> std::io::Result<(u64, u64)> {
    let cols = &graph.columns();
    let n = cols.node_labels.len();
    let m = cols.out_adj.len();

    // The postings directory, in deterministic (label, attr) order.
    let strings = strings_blob(graph.schema());
    let mut postings_dir: Vec<u64> = Vec::new();
    let mut postings_total = 0u64;
    for (l, a, p) in graph.attr_index().iter_sorted() {
        let len = p.entries().len() as u64;
        let key = ((l.0 as u64) << 16) | a.0 as u64;
        postings_dir.extend_from_slice(&[key, postings_total, len]);
        postings_total += len;
    }

    // Section layout: (kind, element count, byte length) in file order.
    let layout: Vec<(u32, u64, u64)> = vec![
        (section::NODE_LABELS, n as u64, 2 * n as u64),
        (section::ATTR_OFFSETS, (n + 1) as u64, 4 * (n + 1) as u64),
        (
            section::ATTR_ENTRIES,
            cols.attr_entries.len() as u64,
            16 * cols.attr_entries.len() as u64,
        ),
        (section::OUT_OFFSETS, (n + 1) as u64, 4 * (n + 1) as u64),
        (section::OUT_ADJ, m as u64, 8 * m as u64),
        (section::IN_OFFSETS, (n + 1) as u64, 4 * (n + 1) as u64),
        (section::IN_ADJ, m as u64, 8 * m as u64),
        (
            section::LABEL_OFFSETS,
            cols.label_offsets.len() as u64,
            4 * cols.label_offsets.len() as u64,
        ),
        (section::LABEL_NODES, n as u64, 4 * n as u64),
        (section::STRINGS, strings.len() as u64, strings.len() as u64),
        (
            section::POSTINGS_DIR,
            postings_dir.len() as u64,
            8 * postings_dir.len() as u64,
        ),
        (section::POSTINGS, postings_total, 16 * postings_total),
    ];

    let mut offset = (HEADER_BYTES + SECTION_ENTRY_BYTES * layout.len()) as u64;
    let mut entries = Vec::with_capacity(layout.len());
    for &(kind, len, byte_len) in &layout {
        offset = offset.next_multiple_of(SECTION_ALIGN as u64);
        entries.push(SectionEntry {
            kind,
            offset,
            len,
            byte_len,
        });
        offset += byte_len;
    }

    let mut out = Out {
        w,
        written: 0,
        hash: Xxh64::new(0),
    };
    let header = Header {
        node_count: n as u64,
        edge_count: m as u64,
        section_count: entries.len() as u32,
        digest: 0,
    };
    out.put(&header.to_bytes())?;
    for e in &entries {
        out.put(&e.to_bytes())?;
    }

    for e in &entries {
        out.pad_to_align()?;
        debug_assert_eq!(out.written, e.offset);
        match e.kind {
            section::NODE_LABELS => {
                let mut buf = Vec::with_capacity(2 * cols.node_labels.len().min(1 << 16));
                for chunk in cols.node_labels.chunks(1 << 16) {
                    buf.clear();
                    for l in chunk {
                        buf.extend_from_slice(&l.0.to_le_bytes());
                    }
                    out.put(&buf)?;
                }
            }
            section::ATTR_OFFSETS => put_u32s(&mut out, cols.attr_offsets)?,
            section::ATTR_ENTRIES => put_attr_entries(&mut out, cols.attr_entries)?,
            section::OUT_OFFSETS => put_u32s(&mut out, cols.out_offsets)?,
            section::OUT_ADJ => put_adjs(&mut out, cols.out_adj)?,
            section::IN_OFFSETS => put_u32s(&mut out, cols.in_offsets)?,
            section::IN_ADJ => put_adjs(&mut out, cols.in_adj)?,
            section::LABEL_OFFSETS => put_u32s(&mut out, cols.label_offsets)?,
            section::LABEL_NODES => {
                let mut buf = Vec::with_capacity(4 * cols.label_nodes.len().min(1 << 16));
                for chunk in cols.label_nodes.chunks(1 << 16) {
                    buf.clear();
                    for v in chunk {
                        buf.extend_from_slice(&v.0.to_le_bytes());
                    }
                    out.put(&buf)?;
                }
            }
            section::STRINGS => out.put(&strings)?,
            section::POSTINGS_DIR => put_u64s(&mut out, &postings_dir)?,
            section::POSTINGS => {
                for (_, _, p) in graph.attr_index().iter_sorted() {
                    put_post_entries(&mut out, p.entries())?;
                }
            }
            other => unreachable!("unknown section kind {other} in writer layout"),
        }
    }
    Ok((out.written, out.hash.finish()))
}

/// Patches a computed digest into an already-written container file.
fn patch_digest<F: Write + Seek>(file: &mut F, digest: u64) -> std::io::Result<()> {
    file.seek(SeekFrom::Start(DIGEST_OFFSET as u64))?;
    file.write_all(&digest.to_le_bytes())
}

/// Serializes `graph` as an `.fsg` container into `w`, returning the bytes
/// written. The stream's header digest field is zero ("absent") — `w` may
/// not be seekable; use [`write_graph_to_path`] to get a digest-stamped
/// file.
pub fn write_graph<W: Write>(graph: &Graph, w: W) -> std::io::Result<u64> {
    write_container(graph, w).map(|(n, _)| n)
}

/// Writes `graph` to `path` (buffered, synced) with the whole-file digest
/// stamped into the header, returning the bytes written.
pub fn write_graph_to_path(graph: &Graph, path: &Path) -> std::io::Result<u64> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    let (n, digest) = write_container(graph, &mut w)?;
    let mut file = w.into_inner()?;
    patch_digest(&mut file, digest)?;
    file.sync_all()?;
    Ok(n)
}
