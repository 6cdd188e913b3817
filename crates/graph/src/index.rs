//! Per-`(label, attribute)` sorted value indexes and dense node bitsets.
//!
//! The generation hot path repeatedly computes candidate sets "all nodes
//! labeled `L` whose attribute `A` satisfies `op c`". The naive approach
//! scans the whole label population and evaluates every literal per node —
//! `O(|V(u_o)| · |lits|)` per instance. The [`AttrIndex`] built at graph
//! construction time stores, for every `(label, attribute)` pair that
//! occurs in the graph, the `(value, node)` pairs sorted by
//! `(value, node id)`. Any range literal then selects a **contiguous
//! slice** found with two binary searches; selective literals touch only
//! the nodes that actually qualify.
//!
//! [`NodeBitset`] is the dense companion used to intersect several such
//! slices (intersection-heavy templates) and for `O(1)` membership tests
//! during backtracking, and [`gallop_intersect`] intersects two sorted id
//! lists in `O(m log(n/m))`.

use crate::cols::{AttrEntry, PostEntry};
use crate::ids::{AttrId, LabelId, NodeId};
use crate::seg::Segment;
use crate::value::{AttrValue, CmpOp};
use std::collections::HashMap;

/// Sorted `(value, node)` postings of one `(label, attribute)` pair.
///
/// Entries are sorted by `(value, node id)`; only nodes that carry the
/// attribute appear (a range literal over a missing attribute fails, per
/// the matching semantics). Entries live in a [`Segment`], so a graph
/// loaded from an `.fsg` container serves range slices straight out of
/// the mapped file.
#[derive(Debug, Clone)]
pub struct Postings {
    entries: Segment<PostEntry>,
}

impl Default for Postings {
    fn default() -> Self {
        Self {
            entries: Segment::empty(),
        }
    }
}

impl Postings {
    /// Wraps an already-sorted entries segment (store loads and builder).
    pub fn from_entries(entries: Segment<PostEntry>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0] <= w[1]));
        Self { entries }
    }

    /// All postings, sorted by `(value, node id)`.
    #[inline]
    pub fn entries(&self) -> &[PostEntry] {
        &self.entries
    }

    /// The contiguous slice of postings whose value satisfies `value op c`
    /// — two binary searches (`partition_point`) on the value-sorted
    /// entries.
    pub fn range(&self, op: CmpOp, c: AttrValue) -> &[PostEntry] {
        let e: &[PostEntry] = &self.entries;
        // First index with value >= c / value > c.
        let below = || e.partition_point(|p| p.value() < c);
        let at_or_below = || e.partition_point(|p| p.value() <= c);
        match op {
            CmpOp::Lt => &e[..below()],
            CmpOp::Le => &e[..at_or_below()],
            CmpOp::Eq => &e[below()..at_or_below()],
            CmpOp::Ge => &e[below()..],
            CmpOp::Gt => &e[at_or_below()..],
        }
    }

    /// Number of nodes satisfying `value op c` (postings hold each node at
    /// most once per attribute, so slice length = node count).
    #[inline]
    pub fn range_count(&self, op: CmpOp, c: AttrValue) -> usize {
        self.range(op, c).len()
    }

    /// Heap bytes owned by the postings (0 when mapped).
    pub fn heap_bytes(&self) -> usize {
        self.entries.heap_bytes()
    }

    /// Bytes viewed through a shared mapping (0 when owned).
    pub fn mapped_bytes(&self) -> usize {
        self.entries.mapped_bytes()
    }
}

/// Per-`(label, attribute)` postings of a whole graph.
#[derive(Debug, Clone, Default)]
pub struct AttrIndex {
    postings: HashMap<(LabelId, AttrId), Postings>,
}

impl AttrIndex {
    /// Builds the index from the node columns: the label index
    /// (`label_nodes[label_offsets[l]..label_offsets[l + 1]]` lists the
    /// nodes labeled `l` in ascending id order) and the per-node attribute
    /// runs; `attr_count` bounds the attribute ids.
    ///
    /// One label at a time, each attribute of each node is appended to
    /// that attribute's slot in a dense table — no hashing per
    /// observation — and the slots the label touched are then sorted and
    /// moved out. The table is `attr_count` wide whatever the number of
    /// labels, so a file with 65 536 labels and as many attributes costs
    /// what its observations cost.
    pub(crate) fn build(
        label_offsets: &[u32],
        label_nodes: &[NodeId],
        attr_offsets: &[u32],
        attr_entries: &[AttrEntry],
        attr_count: usize,
    ) -> Self {
        let mut postings = HashMap::new();
        let mut slots: Vec<Vec<PostEntry>> = vec![Vec::new(); attr_count];
        let mut touched: Vec<AttrId> = Vec::new();
        for (l, w) in label_offsets.windows(2).enumerate() {
            for &v in &label_nodes[w[0] as usize..w[1] as usize] {
                let run = attr_offsets[v.index()] as usize..attr_offsets[v.index() + 1] as usize;
                for e in &attr_entries[run] {
                    let slot = &mut slots[e.attr().index()];
                    if slot.is_empty() {
                        touched.push(e.attr());
                    }
                    slot.push(PostEntry::new(e.value(), v));
                }
            }
            for a in touched.drain(..) {
                let mut entries = std::mem::take(&mut slots[a.index()]);
                // Appended in node order, so a stable sort on the value
                // alone yields `(value, node)` order.
                entries.sort_by_key(|e| e.value());
                postings.insert(
                    (LabelId::from_index(l), a),
                    Postings::from_entries(Segment::from_vec(entries)),
                );
            }
        }
        Self { postings }
    }

    /// Reassembles an index from per-pair entry segments (store loads;
    /// each segment must already be `(value, node)`-sorted).
    pub fn from_parts(parts: HashMap<(LabelId, AttrId), Segment<PostEntry>>) -> Self {
        Self {
            postings: parts
                .into_iter()
                .map(|(k, seg)| (k, Postings::from_entries(seg)))
                .collect(),
        }
    }

    /// The postings of `(label, attr)`, if any node carries the pair.
    #[inline]
    pub fn postings(&self, label: LabelId, attr: AttrId) -> Option<&Postings> {
        self.postings.get(&(label, attr))
    }

    /// Number of `(label, attr)` pairs with postings.
    pub fn pair_count(&self) -> usize {
        self.postings.len()
    }

    /// Pairs in `(label, attr)` order — deterministic iteration for
    /// serialization.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (LabelId, AttrId, &Postings)> {
        let mut keys: Vec<&(LabelId, AttrId)> = self.postings.keys().collect();
        keys.sort();
        keys.into_iter()
            .map(|&(l, a)| (l, a, &self.postings[&(l, a)]))
    }

    /// Heap bytes owned by the index (mapped postings count 0).
    pub fn heap_bytes(&self) -> usize {
        self.postings.values().map(|p| p.heap_bytes() + 64).sum()
    }

    /// Bytes viewed through shared mappings.
    pub fn mapped_bytes(&self) -> usize {
        self.postings.values().map(|p| p.mapped_bytes()).sum()
    }
}

/// A dense bitset over node ids, for `O(1)` membership tests and
/// intersection of candidate sets.
#[derive(Debug, Clone)]
pub struct NodeBitset {
    words: Vec<u64>,
}

impl NodeBitset {
    /// An empty bitset able to hold node ids `< n`.
    pub fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Clears every bit and re-sizes the set to hold node ids `< n`,
    /// keeping the existing word allocation when it is large enough.
    /// Lets hot loops reuse one bitset across calls instead of
    /// re-allocating per call.
    pub fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    /// Builds a bitset holding every id in `nodes` (ids must be `< n`).
    pub fn from_nodes(n: usize, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut s = Self::new(n);
        for v in nodes {
            s.insert(v);
        }
        s
    }

    /// Sets `v`'s bit.
    #[inline]
    pub fn insert(&mut self, v: NodeId) {
        self.words[v.index() / 64] |= 1u64 << (v.index() % 64);
    }

    /// Whether `v`'s bit is set.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.words
            .get(v.index() / 64)
            .is_some_and(|w| w & (1u64 << (v.index() % 64)) != 0)
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Intersects two sorted ascending id lists with galloping (exponential)
/// search driven by the smaller list: `O(m log(n/m))` for `m ≤ n`, far
/// cheaper than a linear merge when the selectivities differ.
pub fn gallop_intersect(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(small.len());
    let mut lo = 0usize;
    for &x in small {
        // Gallop to the first position in `large[lo..]` with value >= x.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < large.len() && large[hi] < x {
            lo = hi + 1;
            hi = lo + step;
            step *= 2;
        }
        let hi = hi.min(large.len());
        lo += large[lo..hi].partition_point(|&y| y < x);
        if lo < large.len() && large[lo] == x {
            out.push(x);
            lo += 1;
        }
        if lo == large.len() {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn range_slices_match_semantics() {
        let mut b = GraphBuilder::new();
        for age in [20, 35, 35, 50] {
            b.add_named_node("user", &[("age", AttrValue::Int(age))]);
        }
        b.add_named_node("org", &[("age", AttrValue::Int(99))]);
        let g = b.finish();
        let user = g.schema().find_node_label("user").unwrap();
        let age = g.schema().find_attr("age").unwrap();
        let p = g.attr_index().postings(user, age).unwrap();
        let nodes = |op, c| -> Vec<NodeId> {
            p.range(op, AttrValue::Int(c))
                .iter()
                .map(|e| e.node())
                .collect()
        };
        assert_eq!(nodes(CmpOp::Ge, 35), ids(&[1, 2, 3]));
        assert_eq!(nodes(CmpOp::Gt, 35), ids(&[3]));
        assert_eq!(nodes(CmpOp::Le, 35), ids(&[0, 1, 2]));
        assert_eq!(nodes(CmpOp::Lt, 35), ids(&[0]));
        assert_eq!(nodes(CmpOp::Eq, 35), ids(&[1, 2]));
        assert_eq!(nodes(CmpOp::Eq, 34), ids(&[]));
        assert_eq!(p.range_count(CmpOp::Ge, AttrValue::Int(0)), 4);
        // The org node lives in its own (label, attr) postings.
        let org = g.schema().find_node_label("org").unwrap();
        assert_eq!(
            g.attr_index().postings(org, age).unwrap().entries().len(),
            1
        );
    }

    #[test]
    fn range_equals_a_linear_filter_of_the_entries() {
        let mut b = GraphBuilder::new();
        for i in 0..300i64 {
            let v = i % 37;
            b.add_named_node(
                "user",
                &[("x", AttrValue::Int(v)), ("y", AttrValue::Int(2 * v))],
            );
        }
        let g = b.finish();
        let user = g.schema().find_node_label("user").unwrap();
        // `x` holds 0..=36 and `y` the even numbers 0..=72, each value in
        // a run of 8 or 9 equal entries. The constants fall below the
        // values, at both ends, at inner values, between two values
        // (odd `y` constants) and above.
        for (attr, consts) in [
            ("x", [-1i64, 0, 5, 18, 36, 37, 100]),
            ("y", [-1i64, 0, 17, 36, 71, 72, 73]),
        ] {
            let a = g.schema().find_attr(attr).unwrap();
            let p = g.attr_index().postings(user, a).unwrap();
            for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ge, CmpOp::Gt] {
                for c in consts.map(AttrValue::Int) {
                    let want: Vec<PostEntry> = p
                        .entries()
                        .iter()
                        .copied()
                        .filter(|e| op.eval(e.value(), c))
                        .collect();
                    assert_eq!(p.range(op, c), want, "{attr} {op:?} {c:?}");
                }
            }
        }
        // Index accounting helpers.
        assert!(g.attr_index().pair_count() >= 1);
        assert!(g.attr_index().heap_bytes() > 0);
        assert_eq!(g.attr_index().mapped_bytes(), 0);
        let pairs: Vec<_> = g
            .attr_index()
            .iter_sorted()
            .map(|(l, a, _)| (l, a))
            .collect();
        let mut sorted = pairs.clone();
        sorted.sort();
        assert_eq!(pairs, sorted);
    }

    #[test]
    fn missing_pair_has_no_postings() {
        let mut b = GraphBuilder::new();
        b.add_named_node("user", &[]);
        let g = b.finish();
        let user = g.schema().find_node_label("user").unwrap();
        assert!(g.attr_index().postings(user, AttrId(7)).is_none());
    }

    #[test]
    fn bitset_roundtrip_and_intersection() {
        let mut s = NodeBitset::new(200);
        for &i in &[0u32, 63, 64, 127, 199] {
            s.insert(NodeId(i));
        }
        assert!(s.contains(NodeId(63)));
        assert!(!s.contains(NodeId(62)));
        assert!(!s.contains(NodeId(1000))); // out of capacity: absent
        assert_eq!(s.len(), 5);

        assert!(!NodeBitset::from_nodes(10, ids(&[3])).is_empty());
        assert!(NodeBitset::new(10).is_empty());
    }

    #[test]
    fn gallop_intersect_agrees_with_naive() {
        let a = ids(&[1, 5, 9, 100, 101, 500]);
        let b = ids(&[0, 5, 6, 7, 8, 9, 10, 100, 400, 500, 900]);
        assert_eq!(gallop_intersect(&a, &b), ids(&[5, 9, 100, 500]));
        assert_eq!(gallop_intersect(&b, &a), ids(&[5, 9, 100, 500]));
        assert_eq!(gallop_intersect(&[], &a), ids(&[]));
        assert_eq!(gallop_intersect(&a, &[]), ids(&[]));
        // Dense vs sparse stress: every multiple of 7 in 0..1000.
        let dense: Vec<NodeId> = (0..1000).map(NodeId).collect();
        let sparse: Vec<NodeId> = (0..1000).filter(|i| i % 7 == 0).map(NodeId).collect();
        assert_eq!(gallop_intersect(&sparse, &dense), sparse);
    }
}
