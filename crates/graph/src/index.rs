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
use crate::partition::Shard;
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
        self.range_sharded(op, c, None).0
    }

    /// Like [`Postings::range`], but when a shard table for this pair is
    /// available the boundary search is narrowed to the single shard that
    /// contains it; every shard whose `[min, max]` envelope lies entirely
    /// on one side of `c` is skipped without touching its entries.
    /// Returns the slice and the number of shards skipped (0 without a
    /// table). Results are identical to the unsharded path.
    pub fn range_sharded(
        &self,
        op: CmpOp,
        c: AttrValue,
        shards: Option<&[Shard]>,
    ) -> (&[PostEntry], usize) {
        let e: &[PostEntry] = &self.entries;
        let mut skipped = 0usize;
        // First index with value >= c / value > c, found by narrowing the
        // binary search to the one shard that can contain the boundary.
        let below = |skipped: &mut usize| -> usize {
            let (lo, hi) = match shards {
                Some(s) => bound_window(s, c, false, skipped),
                None => (0, e.len()),
            };
            lo + e[lo..hi].partition_point(|p| p.value() < c)
        };
        let at_or_below = |skipped: &mut usize| -> usize {
            let (lo, hi) = match shards {
                Some(s) => bound_window(s, c, true, skipped),
                None => (0, e.len()),
            };
            lo + e[lo..hi].partition_point(|p| p.value() <= c)
        };
        let slice = match op {
            CmpOp::Lt => &e[..below(&mut skipped)],
            CmpOp::Le => &e[..at_or_below(&mut skipped)],
            CmpOp::Eq => {
                let lo = below(&mut skipped);
                let hi = at_or_below(&mut skipped);
                &e[lo..hi]
            }
            CmpOp::Ge => &e[below(&mut skipped)..],
            CmpOp::Gt => &e[at_or_below(&mut skipped)..],
        };
        (slice, skipped)
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

/// The entry window `[lo, hi)` that contains the partition boundary
/// (first value `>= c`, or `> c` when `strict_above` is set), found by
/// scanning the shard envelopes. Shards wholly below the boundary
/// contribute their length to `lo`; shards wholly above cap `hi`. The
/// number of shards whose entries were not touched is added to `skipped`.
fn bound_window(
    shards: &[Shard],
    c: AttrValue,
    strict_above: bool,
    skipped: &mut usize,
) -> (usize, usize) {
    // Shards partition a value-sorted array, so "wholly below the
    // boundary" (every value < c, or <= c for the strict bound) is a
    // prefix of the shard list and "wholly above" (every value >= c /
    // > c) is a suffix; both are found with partition points over the
    // stored envelopes. The (possibly empty) middle — shards straddling
    // the boundary, more than one only when a run of values equal to `c`
    // crosses shard edges — is what the binary search still touches.
    let first_not_below =
        shards.partition_point(|s| if strict_above { s.max <= c } else { s.max < c });
    let first_above = shards.partition_point(|s| if strict_above { s.min <= c } else { s.min < c });
    debug_assert!(first_not_below <= first_above);
    let lo = if first_not_below == 0 {
        0
    } else {
        shards[first_not_below - 1].end as usize
    };
    let hi = if first_above == shards.len() {
        shards.last().map_or(0, |s| s.end as usize)
    } else {
        shards[first_above].start as usize
    };
    *skipped += first_not_below + (shards.len() - first_above);
    (lo, hi)
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

    /// Total posting entries across all pairs.
    pub fn entry_count(&self) -> usize {
        self.postings.values().map(|p| p.entries().len()).sum()
    }

    /// Pairs in `(label, attr)` order — deterministic iteration for
    /// serialization and partition building.
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

    /// Intersects in place with `other` (word-parallel).
    pub fn intersect_with(&mut self, other: &NodeBitset) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
        // Ids beyond `other`'s capacity cannot be members of it.
        for w in self.words.iter_mut().skip(other.words.len()) {
            *w = 0;
        }
    }

    /// Set bits as a sorted ascending id list.
    pub fn to_sorted_vec(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        for (i, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(NodeId::from_index(i * 64 + b));
                bits &= bits - 1;
            }
        }
        out
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
    fn sharded_range_agrees_with_plain_range() {
        use crate::partition::shards_of;
        let mut b = GraphBuilder::new();
        for i in 0..300i64 {
            b.add_named_node("user", &[("x", AttrValue::Int(i % 37))]);
        }
        let g = b.finish();
        let user = g.schema().find_node_label("user").unwrap();
        let x = g.schema().find_attr("x").unwrap();
        let p = g.attr_index().postings(user, x).unwrap();
        let shards = shards_of(p.entries(), 16);
        assert!(shards.len() > 3);
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ge, CmpOp::Gt] {
            for c in [-1i64, 0, 5, 18, 36, 37, 100] {
                let plain = p.range(op, AttrValue::Int(c));
                let (sharded, skipped) = p.range_sharded(op, AttrValue::Int(c), Some(&shards));
                assert_eq!(plain, sharded, "op {op:?} c {c}");
                // A boundary away from the extremes must skip shards.
                if c == 18 && matches!(op, CmpOp::Ge | CmpOp::Lt) {
                    assert!(skipped > 0);
                }
            }
        }
        // Index accounting helpers.
        assert!(g.attr_index().pair_count() >= 1);
        assert_eq!(g.attr_index().entry_count(), 300);
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
        assert_eq!(s.to_sorted_vec(), ids(&[0, 63, 64, 127, 199]));

        let t = NodeBitset::from_nodes(128, ids(&[63, 64, 90]));
        let mut u = s.clone();
        u.intersect_with(&t);
        assert_eq!(u.to_sorted_vec(), ids(&[63, 64]));
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
