//! Corruption robustness of the `.fsg` loader: every malformed input must
//! come back as a typed `StoreError` — never a panic, never a silently
//! wrong graph. Mirrors the wire layer's robustness posture
//! (`crates/wire/tests/robustness.rs`).

use fairsqg_graph::{AttrValue, Graph, GraphBuilder};
use fairsqg_store::format::{
    section, Header, SectionEntry, DIGEST_OFFSET, HEADER_BYTES, SECTION_ENTRY_BYTES,
};
use fairsqg_store::xxhash::xxh64;
use fairsqg_store::{load_bytes, open_path, write_graph, StoreError};
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

fn container() -> Vec<u8> {
    let mut buf = Vec::new();
    write_graph(&sample(), &mut buf).unwrap();
    buf
}

fn load(bytes: Vec<u8>) -> Result<Graph, StoreError> {
    load_bytes(Arc::new(bytes))
}

/// Byte offset of the section-table entry for `kind`.
fn entry_at(bytes: &[u8], kind: u32) -> (usize, SectionEntry) {
    let header = Header::parse(bytes).unwrap();
    for i in 0..header.section_count as usize {
        let at = HEADER_BYTES + SECTION_ENTRY_BYTES * i;
        let e = SectionEntry::parse(&bytes[at..at + SECTION_ENTRY_BYTES]).unwrap();
        if e.kind == kind {
            return (at, e);
        }
    }
    panic!("section kind {kind} not found");
}

#[test]
fn garbage_is_not_a_container() {
    for bytes in [
        b"".to_vec(),
        b"x".to_vec(),
        b"GARBAGE!".to_vec(),
        vec![0u8; 64],
        b"{\"op\":\"load\"}".to_vec(),
    ] {
        assert!(matches!(load(bytes), Err(StoreError::BadMagic { .. })));
    }
}

#[test]
fn wrong_version_and_endianness_are_rejected() {
    let good = container();
    let mut bad = good.clone();
    bad[8] = 4; // one past the newest version this build writes
    assert!(matches!(
        load(bad),
        Err(StoreError::UnsupportedVersion {
            found: 4,
            supported: 3
        })
    ));
    let mut bad = good;
    // Byte-swap the endianness canary (what a big-endian writer would
    // have produced).
    bad[12..16].reverse();
    assert!(matches!(load(bad), Err(StoreError::BadEndianness)));
}

#[test]
fn digest_catches_any_flipped_byte() {
    use fairsqg_store::write_graph_to_path;

    let dir = std::env::temp_dir().join(format!("fsg-digest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.fsg");
    write_graph_to_path(&sample(), &path).unwrap();
    let stamped = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // The stamped file carries a nonzero digest and loads clean — both
    // from bytes and the mmap path.
    let header = Header::parse(&stamped).unwrap();
    assert_ne!(header.digest, 0, "path writer must stamp a digest");
    assert!(load(stamped.clone()).is_ok());

    // Flip one byte at a spread of offsets (skipping the digest field
    // itself, which is excluded from the hashed content by construction):
    // every flip must surface as a typed error, and flips in regions the
    // structural validators cannot see (e.g. alignment padding) are
    // exactly what the digest exists to catch.
    for at in (0..stamped.len()).step_by(7) {
        if (DIGEST_OFFSET..DIGEST_OFFSET + 8).contains(&at) {
            continue;
        }
        let mut bad = stamped.clone();
        bad[at] ^= 0x20;
        assert!(
            load(bad).is_err(),
            "flipped byte at {at} loaded successfully"
        );
    }

    // A corrupted digest field itself is also a mismatch.
    let mut bad = stamped.clone();
    bad[DIGEST_OFFSET] ^= 0xFF;
    match load(bad) {
        Err(StoreError::Corrupt { section, .. }) => assert_eq!(section, "digest"),
        other => panic!("expected digest corruption, got {other:?}"),
    }

    // Zeroing the digest disables verification (v1 compatibility posture),
    // so the structurally-intact file still loads.
    let mut unstamped = stamped;
    unstamped[DIGEST_OFFSET..DIGEST_OFFSET + 8].fill(0);
    assert!(load(unstamped).is_ok());
}

#[test]
fn truncation_at_every_length_never_panics() {
    let good = container();
    for len in 0..good.len() {
        let err = load(good[..len].to_vec()).expect_err("truncated container must not load");
        assert!(matches!(
            err,
            StoreError::BadMagic { .. } | StoreError::Truncated { .. } | StoreError::Corrupt { .. }
        ));
    }
    // The full container still loads after all that slicing.
    assert!(load(good).is_ok());
}

#[test]
fn single_byte_flips_never_panic_and_never_load_wrong_sizes() {
    let good = container();
    let g = sample();
    for i in 0..good.len() {
        for flip in [0x01u8, 0x80] {
            let mut bad = good.clone();
            bad[i] ^= flip;
            // A flip may still validate (e.g. inside an attribute payload
            // value); what it must never do is panic or change the shape.
            if let Ok(loaded) = load(bad) {
                assert_eq!(loaded.node_count(), g.node_count());
                assert_eq!(loaded.edge_count(), g.edge_count());
            }
        }
    }
}

#[test]
fn section_offset_out_of_bounds() {
    let good = container();
    let (at, _) = entry_at(&good, section::OUT_ADJ);
    let mut bad = good.clone();
    bad[at + 8..at + 16].copy_from_slice(&(good.len() as u64 * 2).to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Truncated { .. })));
}

#[test]
fn section_offset_misaligned() {
    let good = container();
    let (at, e) = entry_at(&good, section::POSTINGS);
    let mut bad = good.clone();
    bad[at + 8..at + 16].copy_from_slice(&(e.offset + 1).to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
}

#[test]
fn section_byte_len_mismatch() {
    let good = container();
    let (at, e) = entry_at(&good, section::NODE_LABELS);
    let mut bad = good.clone();
    bad[at + 24..at + 32].copy_from_slice(&(e.byte_len + 1).to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
}

#[test]
fn duplicate_and_unknown_sections_are_rejected() {
    let good = container();
    // Overwrite one section's kind with another's: makes a duplicate and
    // drops a required section.
    let (at, _) = entry_at(&good, section::IN_OFFSETS);
    let mut bad = good.clone();
    bad[at..at + 4].copy_from_slice(&section::OUT_OFFSETS.to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
    // Unknown kind.
    let mut bad = good.clone();
    bad[at..at + 4].copy_from_slice(&999u32.to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
}

#[test]
fn out_of_range_node_label_is_rejected() {
    let good = container();
    let (_, e) = entry_at(&good, section::NODE_LABELS);
    let mut bad = good.clone();
    let at = e.offset as usize;
    bad[at..at + 2].copy_from_slice(&0xFFFFu16.to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
}

#[test]
fn unsorted_adjacency_run_is_rejected() {
    let g = sample();
    assert!(g.out_neighbors(fairsqg_graph::NodeId(3)).len() >= 2);
    let good = container();
    let (_, e) = entry_at(&good, section::OUT_ADJ);
    // Node 3 (the user) has two out-edges; swapping them breaks the
    // strict (endpoint, label) order of its run.
    let run_start = e.offset as usize + 8 * (g.edge_count() - 2);
    let mut bad = good.clone();
    let (a, b) = (run_start, run_start + 8);
    for i in 0..8 {
        bad.swap(a + i, b + i);
    }
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
}

#[test]
fn bad_value_tag_and_pad_are_rejected() {
    let good = container();
    let (_, e) = entry_at(&good, section::ATTR_ENTRIES);
    // AttrEntry layout: attr u16, tag u16, pad u32, payload i64.
    let mut bad = good.clone();
    bad[e.offset as usize + 2] = 7; // tag = 7
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
    let mut bad = good.clone();
    bad[e.offset as usize + 5] = 1; // nonzero pad
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
}

#[test]
fn string_payload_out_of_symbol_range_is_rejected() {
    let g = sample();
    let good = container();
    let (_, e) = entry_at(&good, section::ATTR_ENTRIES);
    // Node 2 carries the only Str attribute; its entry is the 4th
    // (nodes 0,1 carry 1+2 int attrs before it).
    let at = e.offset as usize + 16 * 3;
    assert_eq!(
        u16::from_le_bytes(good[at + 2..at + 4].try_into().unwrap()),
        1,
        "expected the Str-tagged entry here"
    );
    let mut bad = good.clone();
    bad[at + 8..at + 16].copy_from_slice(&(g.schema().symbol_count() as i64).to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
    // High bits beyond u32 must not silently truncate into range.
    let mut bad = good.clone();
    bad[at + 8..at + 16].copy_from_slice(&(1i64 << 32).to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
}

#[test]
fn corrupt_strings_blob_is_rejected() {
    let good = container();
    let (_, e) = entry_at(&good, section::STRINGS);
    // Inflate the first table's count beyond the blob.
    let mut bad = good.clone();
    bad[e.offset as usize..e.offset as usize + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
    // Invalid utf-8 inside a name.
    let mut bad = good;
    bad[e.offset as usize + 8] = 0xFF;
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
}

#[test]
fn postings_directory_corruption_is_rejected() {
    let good = container();
    let (_, e) = entry_at(&good, section::POSTINGS_DIR);
    let at = e.offset as usize;
    // Break run contiguity: second triple's start.
    let mut bad = good.clone();
    bad[at + 24 + 8..at + 24 + 16].copy_from_slice(&999u64.to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
    // Key out of label range.
    let mut bad = good.clone();
    bad[at..at + 8].copy_from_slice(&(0xFFFFu64 << 16).to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
}

#[test]
fn domain_directory_corruption_is_rejected() {
    let good = container();
    let (_, e) = entry_at(&good, section::GLOBAL_DOM_DIR);
    let at = e.offset as usize;
    // Zero-length run.
    let mut bad = good.clone();
    bad[at + 16..at + 24].copy_from_slice(&0u64.to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
    // Attribute key out of range.
    let mut bad = good.clone();
    bad[at..at + 8].copy_from_slice(&0xFFFFu64.to_le_bytes());
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
}

#[test]
fn nonzero_reserved_header_bytes_are_rejected() {
    let mut bad = container();
    bad[50] = 1;
    assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
}

/// `v3` rewritten as a version-1 or -2 container: the version field set,
/// a shard size target of 4096 at `[36..40)` (what those versions kept
/// there), and for v2 the whole-file digest recomputed over it.
fn as_older_version(v3: &[u8], version: u32) -> Vec<u8> {
    let mut old = v3.to_vec();
    old[8..12].copy_from_slice(&version.to_le_bytes());
    old[36..40].copy_from_slice(&4096u32.to_le_bytes());
    old[DIGEST_OFFSET..DIGEST_OFFSET + 8].fill(0);
    if version >= 2 {
        let digest = xxh64(&old, 0);
        old[DIGEST_OFFSET..DIGEST_OFFSET + 8].copy_from_slice(&digest.to_le_bytes());
    }
    old
}

#[test]
fn version_1_and_2_containers_load_to_the_same_graph() {
    let v3 = container();
    assert_eq!(u32::from_le_bytes(v3[8..12].try_into().unwrap()), 3);
    for version in [1, 2] {
        let old = as_older_version(&v3, version);
        let header = Header::parse(&old).unwrap();
        assert_eq!(header.digest != 0, version == 2);
        // Serialization is deterministic, so writing the loaded graph
        // back out gives the v3 bytes exactly when the graphs agree.
        let mut again = Vec::new();
        write_graph(&load(old).unwrap(), &mut again).unwrap();
        assert_eq!(again, v3, "version {version}");
    }
}

#[test]
fn nonzero_former_shard_target_bytes_are_rejected_in_v3() {
    for at in 36..40 {
        let mut bad = container();
        bad[at] = 1;
        assert!(matches!(load(bad), Err(StoreError::Corrupt { .. })));
    }
}

#[test]
fn missing_file_is_io_error() {
    let err = open_path(std::path::Path::new("/nonexistent/g.fsg")).unwrap_err();
    assert!(matches!(err, StoreError::Io(_)));
}

#[test]
fn errors_display_the_failing_section() {
    let good = container();
    let (_, e) = entry_at(&good, section::NODE_LABELS);
    let mut bad = good.clone();
    let at = e.offset as usize;
    bad[at..at + 2].copy_from_slice(&0xFFFFu16.to_le_bytes());
    let msg = load(bad).unwrap_err().to_string();
    assert!(msg.contains("node_labels"), "unhelpful message: {msg}");
}
