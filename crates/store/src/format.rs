//! The `.fsg` container layout: magic, header, and section table.
//!
//! See `docs/storage.md` for the full byte-level specification. In short:
//!
//! ```text
//! [header: 64 bytes][section table: 32 bytes x section_count][sections...]
//! ```
//!
//! All integers are **little-endian**; an endianness marker in the header
//! rejects files written on incompatible machines instead of silently
//! misreading them. Every section starts at a 16-byte-aligned offset so
//! that typed zero-copy views ([`Segment`](fairsqg_graph::Segment)) of a
//! page-aligned mapping are always properly aligned.

use crate::error::{corrupt, StoreError};

/// First 8 bytes of every `.fsg` file.
pub const MAGIC: [u8; 8] = *b"FAIRSQG1";
/// The container format version this build **writes**. Version 2 added the
/// whole-file xxHash64 digest at header bytes `[40..48)`; version 3 made
/// header bytes `[36..40)` reserved. Version-1 and -2 files (which carry a
/// postings shard size target there, now read past) are still read.
pub const VERSION: u32 = 3;
/// The oldest container format version this build still reads.
pub const MIN_VERSION: u32 = 1;
/// Byte offset of the v2 whole-file digest inside the header. The digest
/// is xxHash64 (seed 0) of the entire file *with these 8 bytes treated as
/// zero*, so a writer can stream the container with a zero placeholder and
/// patch the digest in afterwards without changing the hashed content. A
/// stored digest of 0 means "absent" (v1 files, or writers over
/// non-seekable sinks): the reader then skips verification.
pub const DIGEST_OFFSET: usize = 40;
/// Endianness canary: written little-endian, so a big-endian writer would
/// produce a different byte sequence and be rejected at load.
pub const ENDIAN_MARK: u32 = 0x1A2B_3C4D;
/// Byte size of the fixed header.
pub const HEADER_BYTES: usize = 64;
/// Byte size of one section-table entry.
pub const SECTION_ENTRY_BYTES: usize = 32;
/// Alignment of every section's byte offset.
pub const SECTION_ALIGN: usize = 16;

/// Section kinds (the `kind` field of a section-table entry).
pub mod section {
    /// `[LabelId as u16] * node_count` — per-node labels.
    pub const NODE_LABELS: u32 = 1;
    /// `[u32] * (node_count + 1)` — prefix offsets into `ATTR_ENTRIES`.
    pub const ATTR_OFFSETS: u32 = 2;
    /// `[AttrEntry; 16B]` — flattened per-node attribute runs.
    pub const ATTR_ENTRIES: u32 = 3;
    /// `[u32] * (node_count + 1)` — prefix offsets into `OUT_ADJ`.
    pub const OUT_OFFSETS: u32 = 4;
    /// `[Adj; 8B] * edge_count` — out-adjacency runs.
    pub const OUT_ADJ: u32 = 5;
    /// `[u32] * (node_count + 1)` — prefix offsets into `IN_ADJ`.
    pub const IN_OFFSETS: u32 = 6;
    /// `[Adj; 8B] * edge_count` — in-adjacency runs.
    pub const IN_ADJ: u32 = 7;
    /// `[u32] * (label_count + 1)` — prefix offsets into `LABEL_NODES`.
    pub const LABEL_OFFSETS: u32 = 8;
    /// `[NodeId as u32] * node_count` — nodes grouped by label.
    pub const LABEL_NODES: u32 = 9;
    /// Byte blob: the four interner tables (node labels, edge labels,
    /// attribute names, symbols), each `u32 count` then per string
    /// `u32 byte_len + utf-8 bytes`.
    pub const STRINGS: u32 = 10;
    /// `[u64] * 3 * pair_count` — postings directory: per `(label, attr)`
    /// pair (sorted by key) the triples `(label << 16 | attr, start, len)`
    /// into `POSTINGS`.
    pub const POSTINGS_DIR: u32 = 11;
    /// `[PostEntry; 16B]` — concatenated per-pair value postings.
    pub const POSTINGS: u32 = 12;
    /// `[u64] * 3 * attr_count` — global active-domain directory:
    /// `(attr, start, len)` into `DOM_VALUES`, sorted by attr.
    pub const GLOBAL_DOM_DIR: u32 = 13;
    /// `[u64] * 3 * pair_count` — per-label active-domain directory:
    /// `(label << 16 | attr, start, len)` into `DOM_VALUES`.
    pub const LABEL_DOM_DIR: u32 = 14;
    /// `[RawVal; 16B]` — concatenated domain value runs.
    pub const DOM_VALUES: u32 = 15;
}

/// Every section kind a container must carry (all versions), in file order.
pub const REQUIRED_SECTIONS: [u32; 15] = [
    section::NODE_LABELS,
    section::ATTR_OFFSETS,
    section::ATTR_ENTRIES,
    section::OUT_OFFSETS,
    section::OUT_ADJ,
    section::IN_OFFSETS,
    section::IN_ADJ,
    section::LABEL_OFFSETS,
    section::LABEL_NODES,
    section::STRINGS,
    section::POSTINGS_DIR,
    section::POSTINGS,
    section::GLOBAL_DOM_DIR,
    section::LABEL_DOM_DIR,
    section::DOM_VALUES,
];

/// The fixed-size file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// `|V|`.
    pub node_count: u64,
    /// `|E|`.
    pub edge_count: u64,
    /// Entries in the section table.
    pub section_count: u32,
    /// Whole-file xxHash64 digest (v2; see [`DIGEST_OFFSET`]). `0` =
    /// absent: v1 files, and v2 streams that could not be patched.
    pub digest: u64,
}

impl Header {
    /// Serializes the header (64 bytes).
    pub fn to_bytes(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&ENDIAN_MARK.to_le_bytes());
        out[16..24].copy_from_slice(&self.node_count.to_le_bytes());
        out[24..32].copy_from_slice(&self.edge_count.to_le_bytes());
        out[32..36].copy_from_slice(&self.section_count.to_le_bytes());
        out[DIGEST_OFFSET..DIGEST_OFFSET + 8].copy_from_slice(&self.digest.to_le_bytes());
        out
    }

    /// Parses and validates the header from the start of `bytes`.
    pub fn parse(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < HEADER_BYTES {
            // A too-short prefix that isn't even the magic reads better as
            // "not an .fsg file" than "truncated".
            if bytes.len() < 8 || bytes[0..8] != MAGIC {
                return Err(StoreError::BadMagic {
                    found: bytes[..bytes.len().min(8)].to_vec(),
                });
            }
            return Err(StoreError::Truncated {
                need: HEADER_BYTES as u64,
                have: bytes.len() as u64,
                what: "header",
            });
        }
        if bytes[0..8] != MAGIC {
            return Err(StoreError::BadMagic {
                found: bytes[0..8].to_vec(),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let endian = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        if endian != ENDIAN_MARK {
            return Err(StoreError::BadEndianness);
        }
        // v1 reserved the whole tail; v2 carved the digest out of it. v1
        // and v2 kept a shard size target at [36..40), read past here;
        // v3 reserves those bytes.
        let nonzero = |from: usize, to: usize| bytes[from..to].iter().any(|&b| b != 0);
        let reserved_tail = if version >= 2 { DIGEST_OFFSET + 8 } else { 40 };
        if nonzero(reserved_tail, HEADER_BYTES) || (version >= 3 && nonzero(36, 40)) {
            return Err(corrupt("header", "nonzero reserved bytes"));
        }
        let digest = if version >= 2 {
            u64::from_le_bytes(bytes[DIGEST_OFFSET..DIGEST_OFFSET + 8].try_into().unwrap())
        } else {
            0
        };
        Ok(Self {
            node_count: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            edge_count: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
            section_count: u32::from_le_bytes(bytes[32..36].try_into().unwrap()),
            digest,
        })
    }
}

/// One section-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section kind (see [`section`]).
    pub kind: u32,
    /// Byte offset of the section from the start of the file
    /// (a multiple of [`SECTION_ALIGN`]).
    pub offset: u64,
    /// Element count (byte count for the `STRINGS` blob).
    pub len: u64,
    /// Byte length of the section (`len * element size`, cross-checked at
    /// load).
    pub byte_len: u64,
}

impl SectionEntry {
    /// Serializes the entry (32 bytes).
    pub fn to_bytes(&self) -> [u8; SECTION_ENTRY_BYTES] {
        let mut out = [0u8; SECTION_ENTRY_BYTES];
        out[0..4].copy_from_slice(&self.kind.to_le_bytes());
        out[8..16].copy_from_slice(&self.offset.to_le_bytes());
        out[16..24].copy_from_slice(&self.len.to_le_bytes());
        out[24..32].copy_from_slice(&self.byte_len.to_le_bytes());
        out
    }

    /// Parses one entry from `bytes` (exactly 32 bytes).
    pub fn parse(bytes: &[u8]) -> Result<Self, StoreError> {
        debug_assert_eq!(bytes.len(), SECTION_ENTRY_BYTES);
        if bytes[4..8].iter().any(|&b| b != 0) {
            return Err(corrupt("section table", "nonzero reserved bytes"));
        }
        Ok(Self {
            kind: u32::from_le_bytes(bytes[0..4].try_into().unwrap()),
            offset: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            len: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            byte_len: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Header {
            node_count: 12,
            edge_count: 34,
            section_count: 15,
            digest: 0xDEAD_BEEF_0BAD_F00D,
        };
        assert_eq!(Header::parse(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn version1_headers_still_parse() {
        let h = Header {
            node_count: 12,
            edge_count: 34,
            section_count: 15,
            digest: 0,
        };
        let mut v1 = h.to_bytes();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        // v1 and v2 carry a shard size target at [36..40), read past.
        v1[36..40].copy_from_slice(&4096u32.to_le_bytes());
        assert_eq!(Header::parse(&v1).unwrap(), h);
        // In a v1 file the digest bytes are *reserved* and must be zero.
        v1[DIGEST_OFFSET] = 7;
        assert!(matches!(
            Header::parse(&v1),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn header_rejections() {
        let h = Header {
            node_count: 1,
            edge_count: 0,
            section_count: 15,
            digest: 1,
        };
        let good = h.to_bytes();

        assert!(matches!(
            Header::parse(b"nope"),
            Err(StoreError::BadMagic { .. })
        ));
        let mut bad = good;
        bad[0] = b'X';
        assert!(matches!(
            Header::parse(&bad),
            Err(StoreError::BadMagic { .. })
        ));
        let mut bad = good;
        bad[8] = 99;
        assert!(matches!(
            Header::parse(&bad),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
        let mut bad = good;
        bad[12] ^= 0xFF;
        assert!(matches!(
            Header::parse(&bad),
            Err(StoreError::BadEndianness)
        ));
        let mut bad = good;
        bad[36] = 1;
        assert!(matches!(
            Header::parse(&bad),
            Err(StoreError::Corrupt { .. })
        ));
        let mut bad = good;
        bad[63] = 1;
        assert!(matches!(
            Header::parse(&bad),
            Err(StoreError::Corrupt { .. })
        ));
        // Magic present but file cut mid-header.
        assert!(matches!(
            Header::parse(&good[..20]),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn section_entry_roundtrip() {
        let e = SectionEntry {
            kind: section::POSTINGS,
            offset: 128,
            len: 7,
            byte_len: 112,
        };
        assert_eq!(SectionEntry::parse(&e.to_bytes()).unwrap(), e);
        let mut bad = e.to_bytes();
        bad[5] = 3;
        assert!(SectionEntry::parse(&bad).is_err());
    }
}
