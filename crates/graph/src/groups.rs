//! Disjoint node groups `P = {P_1, ..., P_m}` with coverage constraints.
//!
//! Groups model the paper's protected/designated populations (gender groups,
//! movie genres, paper topics). They are disjoint subsets of `V`; each group
//! `P_i` carries a coverage constraint `c_i <= |P_i|` stating how many of its
//! members a generated query's answer should contain.

use crate::graph::Graph;
use crate::ids::{AttrId, GroupId, NodeId};
use crate::value::AttrValue;

/// Sentinel in the membership column for "not in any group".
const NO_GROUP: u16 = u16::MAX;

/// A set of `m` disjoint node groups over a graph.
#[derive(Debug, Clone)]
pub struct GroupSet {
    membership: Vec<u16>,
    sizes: Vec<u32>,
    names: Vec<String>,
}

impl GroupSet {
    /// Builds a group set from explicit member lists.
    ///
    /// # Panics
    /// Panics if groups overlap or a member id is out of range.
    pub fn from_members(node_count: usize, groups: Vec<(String, Vec<NodeId>)>) -> Self {
        assert!(groups.len() < NO_GROUP as usize, "too many groups");
        let mut membership = vec![NO_GROUP; node_count];
        let mut sizes = Vec::with_capacity(groups.len());
        let mut names = Vec::with_capacity(groups.len());
        for (gi, (name, members)) in groups.into_iter().enumerate() {
            let mut size = 0u32;
            for v in members {
                let slot = &mut membership[v.index()];
                assert_eq!(*slot, NO_GROUP, "groups must be disjoint (node {v})");
                *slot = gi as u16;
                size += 1;
            }
            sizes.push(size);
            names.push(name);
        }
        Self {
            membership,
            sizes,
            names,
        }
    }

    /// Builds groups by partitioning nodes on the value of `attr`: one group
    /// per listed value, named after the value's rendering.
    ///
    /// Nodes whose attribute is missing or not listed belong to no group.
    pub fn by_attribute(graph: &Graph, attr: AttrId, values: &[AttrValue]) -> Self {
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); values.len()];
        for v in graph.nodes() {
            if let Some(val) = graph.attr(v, attr) {
                if let Some(pos) = values.iter().position(|&x| x == val) {
                    members[pos].push(v);
                }
            }
        }
        let named = values
            .iter()
            .zip(members)
            .map(|(val, m)| {
                let name = match *val {
                    AttrValue::Int(i) => format!("{}={i}", graph.schema().attr_name(attr)),
                    AttrValue::Str(s) => graph.schema().symbol_value(s).to_string(),
                };
                (name, m)
            })
            .collect();
        Self::from_members(graph.node_count(), named)
    }

    /// Number of groups `m = |P|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether there are no groups.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Group of a node, if any.
    #[inline]
    pub fn group_of(&self, v: NodeId) -> Option<GroupId> {
        match self.membership[v.index()] {
            NO_GROUP => None,
            g => Some(GroupId(g)),
        }
    }

    /// Size `|P_i|` of a group.
    #[inline]
    pub fn size(&self, g: GroupId) -> u32 {
        self.sizes[g.index()]
    }

    /// Group display name.
    pub fn name(&self, g: GroupId) -> &str {
        &self.names[g.index()]
    }

    /// Approximate heap bytes: dominated by the membership column, one
    /// `u16` per graph node.
    pub fn approx_bytes(&self) -> usize {
        self.membership.len() * size_of::<u16>()
            + self.sizes.len() * size_of::<u32>()
            + self
                .names
                .iter()
                .map(|n| n.len() + size_of::<String>())
                .sum::<usize>()
    }

    /// Counts how many nodes of `set` fall in each group:
    /// `counts[i] = |set ∩ P_i|`.
    pub fn count_in_groups(&self, set: &[NodeId]) -> Vec<u32> {
        let mut counts = vec![0u32; self.len()];
        for &v in set {
            if let Some(g) = self.group_of(v) {
                counts[g.index()] += 1;
            }
        }
        counts
    }
}

/// Coverage constraints `c_i` for each group, plus `C = Σ c_i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageSpec {
    constraints: Vec<u32>,
}

impl CoverageSpec {
    /// Creates a spec from per-group constraints (must match group count at
    /// use sites; validated by the evaluator).
    pub fn new(constraints: Vec<u32>) -> Self {
        Self { constraints }
    }

    /// "Equal opportunity": the same constraint `c` for every one of `m`
    /// groups (Section III, practical fairness measures).
    pub fn equal_opportunity(m: usize, c: u32) -> Self {
        Self {
            constraints: vec![c; m],
        }
    }

    /// Distributes a total budget `total` evenly over `m` groups, as the
    /// experiments do when varying `C` and `|P|` (Fig. 9(f)–(h)).
    pub fn even_split(m: usize, total: u32) -> Self {
        assert!(m > 0, "need at least one group");
        Self {
            constraints: vec![total / m as u32; m],
        }
    }

    /// Per-group constraints `c_i`.
    #[inline]
    pub fn constraints(&self) -> &[u32] {
        &self.constraints
    }

    /// `C = Σ c_i`, the normalizing constant of the coverage measure.
    #[inline]
    pub fn total(&self) -> u32 {
        self.constraints.iter().sum()
    }

    /// Number of groups the spec covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the spec is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn graph_with_genders() -> Graph {
        let mut b = GraphBuilder::new();
        let male = AttrValue::Int(0);
        let female = AttrValue::Int(1);
        for i in 0..6 {
            let gender = if i % 3 == 0 { male } else { female };
            b.add_named_node("user", &[("gender", gender)]);
        }
        b.finish()
    }

    #[test]
    fn by_attribute_partitions() {
        let g = graph_with_genders();
        let gender = g.schema().find_attr("gender").unwrap();
        let groups = GroupSet::by_attribute(&g, gender, &[AttrValue::Int(0), AttrValue::Int(1)]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups.size(GroupId(0)), 2);
        assert_eq!(groups.size(GroupId(1)), 4);
        assert_eq!(groups.group_of(NodeId(0)), Some(GroupId(0)));
        assert_eq!(groups.group_of(NodeId(1)), Some(GroupId(1)));
    }

    #[test]
    fn count_in_groups() {
        let g = graph_with_genders();
        let gender = g.schema().find_attr("gender").unwrap();
        let groups = GroupSet::by_attribute(&g, gender, &[AttrValue::Int(0), AttrValue::Int(1)]);
        let counts = groups.count_in_groups(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(counts, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_groups_rejected() {
        GroupSet::from_members(
            3,
            vec![
                ("a".into(), vec![NodeId(0), NodeId(1)]),
                ("b".into(), vec![NodeId(1)]),
            ],
        );
    }

    #[test]
    fn coverage_spec_helpers() {
        let eq = CoverageSpec::equal_opportunity(2, 100);
        assert_eq!(eq.constraints(), &[100, 100]);
        assert_eq!(eq.total(), 200);
        let split = CoverageSpec::even_split(3, 240);
        assert_eq!(split.constraints(), &[80, 80, 80]);
    }

    #[test]
    fn ungrouped_nodes() {
        let g = graph_with_genders();
        let gender = g.schema().find_attr("gender").unwrap();
        // Only group the male value; females stay ungrouped.
        let groups = GroupSet::by_attribute(&g, gender, &[AttrValue::Int(0)]);
        assert_eq!(groups.group_of(NodeId(1)), None);
        assert_eq!(groups.count_in_groups(&[NodeId(1)]), vec![0]);
    }
}
