//! Active domains: the distinct values each attribute takes over the graph.
//!
//! `adom(A)` (Section II) parameterizes the search space of range variables:
//! a literal `u.A >= x` can only usefully bind `x` to values in the active
//! domain of `A` restricted to nodes labeled `L(u)`. Both the global and the
//! per-label domains are read off the value-sorted postings whenever a
//! graph is assembled, built or loaded; no container stores them.

use crate::ids::{AttrId, LabelId};
use crate::index::AttrIndex;
use crate::value::AttrValue;
use std::collections::HashMap;

/// Sorted distinct attribute values, derived from the postings.
#[derive(Debug, Clone, Default)]
pub struct ActiveDomains {
    global: HashMap<AttrId, Vec<AttrValue>>,
    per_label: HashMap<(LabelId, AttrId), Vec<AttrValue>>,
}

impl ActiveDomains {
    /// Derives the active domains from the value-sorted postings: the
    /// per-label domain of `(l, A)` is the distinct values of that pair's
    /// run, and `adom(A)` is the sorted union of `A`'s per-label domains.
    pub(crate) fn from_postings(index: &AttrIndex) -> Self {
        let mut global: HashMap<AttrId, Vec<AttrValue>> = HashMap::new();
        let mut per_label = HashMap::with_capacity(index.pair_count());
        for (l, a, postings) in index.iter_sorted() {
            let mut vals: Vec<AttrValue> = Vec::new();
            for e in postings.entries() {
                if vals.last() != Some(&e.value()) {
                    vals.push(e.value());
                }
            }
            vals.shrink_to_fit();
            global.entry(a).or_default().extend_from_slice(&vals);
            per_label.insert((l, a), vals);
        }
        for vals in global.values_mut() {
            vals.sort_unstable();
            vals.dedup();
            vals.shrink_to_fit();
        }
        Self { global, per_label }
    }

    /// `adom(A)`: sorted distinct values of `A` over all nodes.
    pub fn global(&self, attr: AttrId) -> &[AttrValue] {
        self.global.get(&attr).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Sorted distinct values of `A` over nodes with `label`.
    pub fn for_label(&self, label: LabelId, attr: AttrId) -> &[AttrValue] {
        self.per_label
            .get(&(label, attr))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Size of the largest active domain (`adom_m` in Theorem 1).
    pub fn max_domain_size(&self) -> usize {
        self.global.values().map(Vec::len).max().unwrap_or(0)
    }

    /// The `[min, max]` integer range of an attribute's global domain, used
    /// to normalize value distances in the diversity measure. `None` when
    /// the attribute has no integer values.
    pub fn int_range(&self, attr: AttrId) -> Option<(i64, i64)> {
        let vals = self.global(attr);
        let mut it = vals.iter().filter_map(|v| v.as_int());
        let first = it.next()?;
        // Values are sorted with all Ints before Strs, so min is the first
        // int and max is the last int.
        let last = vals.iter().rev().find_map(|v| v.as_int()).unwrap_or(first);
        Some((first, last))
    }

    /// Number of attributes with a non-empty global domain.
    pub fn attr_count(&self) -> usize {
        self.global.len()
    }

    /// Approximate heap bytes held by the domain tables.
    pub fn heap_bytes(&self) -> usize {
        self.global
            .values()
            .chain(self.per_label.values())
            .map(|v| v.len() * std::mem::size_of::<AttrValue>() + 48)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn obs() -> Vec<(LabelId, AttrId, AttrValue)> {
        let l0 = LabelId(0);
        let l1 = LabelId(1);
        let a = AttrId(0);
        vec![
            (l0, a, AttrValue::Int(5)),
            (l0, a, AttrValue::Int(1)),
            (l0, a, AttrValue::Int(5)),
            (l1, a, AttrValue::Int(9)),
        ]
    }

    /// The domains of a graph with one node per observation, derived from
    /// its postings by `GraphBuilder::finish`.
    fn derived(obs: &[(LabelId, AttrId, AttrValue)]) -> ActiveDomains {
        let mut b = GraphBuilder::new();
        let ids = |(l, a, _): &(LabelId, AttrId, AttrValue)| l.index().max(a.index());
        for i in 0..=obs.iter().map(ids).max().unwrap_or(0) {
            b.schema_mut().node_label(&format!("l{i}"));
            b.schema_mut().attr(&format!("a{i}"));
        }
        for &(l, a, v) in obs {
            b.add_node(l, &[(a, v)]);
        }
        b.finish().domains().clone()
    }

    /// How domains were built before they were read off the postings:
    /// every observation through two hash maps, then sort and dedup.
    fn by_hashing(obs: &[(LabelId, AttrId, AttrValue)]) -> ActiveDomains {
        let mut global: HashMap<AttrId, Vec<AttrValue>> = HashMap::new();
        let mut per_label: HashMap<(LabelId, AttrId), Vec<AttrValue>> = HashMap::new();
        for &(l, a, v) in obs {
            global.entry(a).or_default().push(v);
            per_label.entry((l, a)).or_default().push(v);
        }
        for vals in global.values_mut().chain(per_label.values_mut()) {
            vals.sort_unstable();
            vals.dedup();
        }
        ActiveDomains { global, per_label }
    }

    #[test]
    fn derived_from_postings_equals_the_hashing_build() {
        use crate::ids::SymbolId;
        let mut mixed = obs();
        // A second attribute, strings beside ints, a value shared across
        // labels, and a label that lacks an attribute another one has.
        mixed.extend([
            (LabelId(1), AttrId(0), AttrValue::Int(5)),
            (LabelId(1), AttrId(1), AttrValue::Str(SymbolId(2))),
            (LabelId(2), AttrId(1), AttrValue::Int(-4)),
            (LabelId(2), AttrId(1), AttrValue::Str(SymbolId(0))),
            (LabelId(2), AttrId(1), AttrValue::Str(SymbolId(2))),
        ]);
        for obs in [obs(), mixed, Vec::new()] {
            let (got, want) = (derived(&obs), by_hashing(&obs));
            assert_eq!(got.global, want.global);
            assert_eq!(got.per_label, want.per_label);
        }
    }

    #[test]
    fn global_is_sorted_and_deduped() {
        let d = derived(&obs());
        assert_eq!(
            d.global(AttrId(0)),
            &[AttrValue::Int(1), AttrValue::Int(5), AttrValue::Int(9)]
        );
    }

    #[test]
    fn per_label_restricts() {
        let d = derived(&obs());
        assert_eq!(
            d.for_label(LabelId(0), AttrId(0)),
            &[AttrValue::Int(1), AttrValue::Int(5)]
        );
        assert_eq!(d.for_label(LabelId(1), AttrId(0)), &[AttrValue::Int(9)]);
        assert!(d.for_label(LabelId(2), AttrId(0)).is_empty());
    }

    #[test]
    fn max_domain_and_range() {
        let d = derived(&obs());
        assert_eq!(d.max_domain_size(), 3);
        assert_eq!(d.int_range(AttrId(0)), Some((1, 9)));
        assert_eq!(d.int_range(AttrId(7)), None);
        assert_eq!(d.attr_count(), 1);
    }
}
