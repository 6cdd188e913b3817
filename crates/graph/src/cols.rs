//! Layout-stable columnar record types.
//!
//! These `#[repr(C)]` records are what [`Segment`](crate::Segment)s hold
//! and what the `.fsg` on-disk container serializes, so their layout is
//! part of the storage format: fixed field order, explicit padding fields
//! (zero on disk), little-endian integers. [`AttrValue`] — a Rust enum
//! with unspecified layout — never appears directly; it is encoded as a
//! `(tag, payload)` pair whose tag order matches the enum's total order
//! (`Int < Str`), so comparing encoded records agrees with comparing the
//! decoded values.

use crate::ids::{AttrId, EdgeLabelId, NodeId, SymbolId};
use crate::seg::Pod;
use crate::value::AttrValue;
use std::cmp::Ordering;

/// Value-kind tag for an encoded [`AttrValue::Int`].
pub const TAG_INT: u16 = 0;
/// Value-kind tag for an encoded [`AttrValue::Str`].
pub const TAG_STR: u16 = 1;

#[inline]
fn encode_value(v: AttrValue) -> (u16, i64) {
    match v {
        AttrValue::Int(i) => (TAG_INT, i),
        AttrValue::Str(s) => (TAG_STR, s.0 as i64),
    }
}

#[inline]
fn decode_value(tag: u16, payload: i64) -> AttrValue {
    if tag == TAG_STR {
        AttrValue::Str(SymbolId(payload as u32))
    } else {
        AttrValue::Int(payload)
    }
}

/// One CSR adjacency entry: the far endpoint and the edge label.
///
/// 8 bytes; the trailing pad keeps the layout free of implicit padding
/// and is always zero, so the derived lexicographic order is exactly
/// `(to, label)` order.
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Adj {
    to: NodeId,
    label: EdgeLabelId,
    pad: u16,
}

// SAFETY: `#[repr(C)]` over `Pod` fields (4 + 2 + 2 bytes, the pad
// explicit), so there is no implicit padding and every bit pattern is a
// valid `Adj`.
#[allow(unsafe_code)]
unsafe impl Pod for Adj {}

impl Adj {
    /// An adjacency entry pointing at `to` along `label`.
    #[inline]
    pub fn new(to: NodeId, label: EdgeLabelId) -> Self {
        Self { to, label, pad: 0 }
    }

    /// The far endpoint (target for out-adjacency, source for in-).
    #[inline]
    pub fn to(self) -> NodeId {
        self.to
    }

    /// The edge label.
    #[inline]
    pub fn label(self) -> EdgeLabelId {
        self.label
    }

    /// The `(endpoint, label)` pair, the sort/search key of CSR runs.
    #[inline]
    pub fn key(self) -> (NodeId, EdgeLabelId) {
        (self.to, self.label)
    }

    /// Whether the reserved pad bytes are zero (checked by the store
    /// loader so file corruption cannot skew the derived ordering).
    #[inline]
    pub fn pad_is_zero(self) -> bool {
        self.pad == 0
    }
}

/// One attribute of one node: `(attribute id, encoded value)`.
///
/// 16 bytes, no implicit padding. Per-node runs are sorted by attribute
/// id (each id at most once per node).
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AttrEntry {
    attr: AttrId,
    tag: u16,
    pad: u32,
    payload: i64,
}

// SAFETY: `#[repr(C)]` over `Pod` fields (2 + 2 + 4 + 8 bytes, the pad
// explicit), so there is no implicit padding and every bit pattern is a
// valid `AttrEntry`; a bad tag is caught on decode, not by the layout.
#[allow(unsafe_code)]
unsafe impl Pod for AttrEntry {}

impl AttrEntry {
    /// An entry binding `attr` to `value`.
    #[inline]
    pub fn new(attr: AttrId, value: AttrValue) -> Self {
        let (tag, payload) = encode_value(value);
        Self {
            attr,
            tag,
            pad: 0,
            payload,
        }
    }

    /// The attribute id.
    #[inline]
    pub fn attr(self) -> AttrId {
        self.attr
    }

    /// The decoded attribute value.
    #[inline]
    pub fn value(self) -> AttrValue {
        decode_value(self.tag, self.payload)
    }

    /// The raw value tag ([`TAG_INT`] or [`TAG_STR`] in a valid graph).
    #[inline]
    pub fn tag(self) -> u16 {
        self.tag
    }

    /// The raw value payload (symbol ids decode from the low 32 bits, so
    /// the store loader rejects payloads outside `u32` for `Str` tags).
    #[inline]
    pub fn payload(self) -> i64 {
        self.payload
    }

    /// Whether the reserved pad bytes are zero.
    #[inline]
    pub fn pad_is_zero(self) -> bool {
        self.pad == 0
    }
}

/// One value-index posting: `(encoded value, node)`.
///
/// 16 bytes, no implicit padding. Postings of one `(label, attribute)`
/// pair are sorted by `(value, node)`; the manual `Ord` compares decoded
/// values (tag order matches `Int < Str`).
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PostEntry {
    tag: u16,
    pad: u16,
    node: NodeId,
    payload: i64,
}

// SAFETY: `#[repr(C)]` over `Pod` fields (2 + 2 + 4 + 8 bytes, the pad
// explicit), so there is no implicit padding and every bit pattern is a
// valid `PostEntry`; a bad tag is caught on decode, not by the layout.
#[allow(unsafe_code)]
unsafe impl Pod for PostEntry {}

impl PostEntry {
    /// A posting of `value` on `node`.
    #[inline]
    pub fn new(value: AttrValue, node: NodeId) -> Self {
        let (tag, payload) = encode_value(value);
        Self {
            tag,
            pad: 0,
            node,
            payload,
        }
    }

    /// The decoded value.
    #[inline]
    pub fn value(self) -> AttrValue {
        decode_value(self.tag, self.payload)
    }

    /// The node carrying the value.
    #[inline]
    pub fn node(self) -> NodeId {
        self.node
    }

    /// The raw value tag.
    #[inline]
    pub fn tag(self) -> u16 {
        self.tag
    }

    /// The raw value payload.
    #[inline]
    pub fn payload(self) -> i64 {
        self.payload
    }

    /// Whether the reserved pad bytes are zero.
    #[inline]
    pub fn pad_is_zero(self) -> bool {
        self.pad == 0
    }
}

impl PartialOrd for PostEntry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PostEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.value()
            .cmp(&other.value())
            .then_with(|| self.node.cmp(&other.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LabelId;

    #[test]
    fn sizes_are_part_of_the_format() {
        assert_eq!(std::mem::size_of::<Adj>(), 8);
        assert_eq!(std::mem::size_of::<AttrEntry>(), 16);
        assert_eq!(std::mem::size_of::<PostEntry>(), 16);
        let _ = LabelId(0); // silence unused import on some cfgs
    }

    #[test]
    fn value_roundtrip() {
        for v in [
            AttrValue::Int(-5),
            AttrValue::Int(i64::MAX),
            AttrValue::Str(SymbolId(42)),
        ] {
            assert_eq!(AttrEntry::new(AttrId(3), v).value(), v);
            assert_eq!(PostEntry::new(v, NodeId(9)).value(), v);
        }
        assert_eq!(
            AttrEntry::new(AttrId(3), AttrValue::Int(1)).attr(),
            AttrId(3)
        );
        assert_eq!(
            PostEntry::new(AttrValue::Int(1), NodeId(9)).node(),
            NodeId(9)
        );
    }

    #[test]
    fn post_entry_order_matches_decoded_order() {
        let mut entries = [
            PostEntry::new(AttrValue::Str(SymbolId(0)), NodeId(1)),
            PostEntry::new(AttrValue::Int(10), NodeId(2)),
            PostEntry::new(AttrValue::Int(-3), NodeId(7)),
            PostEntry::new(AttrValue::Int(10), NodeId(0)),
        ];
        entries.sort_unstable();
        let decoded: Vec<(AttrValue, NodeId)> =
            entries.iter().map(|e| (e.value(), e.node())).collect();
        let mut expect = decoded.clone();
        expect.sort();
        assert_eq!(decoded, expect);
        // All Ints sort before all Strs, matching AttrValue's total order.
        assert_eq!(entries.last().unwrap().value(), AttrValue::Str(SymbolId(0)));
    }

    #[test]
    fn adj_order_is_target_then_label() {
        let mut v = [
            Adj::new(NodeId(2), EdgeLabelId(0)),
            Adj::new(NodeId(1), EdgeLabelId(9)),
            Adj::new(NodeId(1), EdgeLabelId(2)),
        ];
        v.sort_unstable();
        let keys: Vec<_> = v.iter().map(|a| a.key()).collect();
        assert_eq!(
            keys,
            vec![
                (NodeId(1), EdgeLabelId(2)),
                (NodeId(1), EdgeLabelId(9)),
                (NodeId(2), EdgeLabelId(0)),
            ]
        );
        assert!(v.iter().all(|a| a.pad_is_zero()));
    }
}
