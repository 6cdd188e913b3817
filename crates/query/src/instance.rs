//! Instantiations and concrete query instances.
//!
//! An [`Instantiation`] assigns every variable an index into its
//! [`VarDomain`](crate::VarDomain) (index 0 = most relaxed). Materializing an
//! instantiation against its template yields a [`ConcreteQuery`]: the
//! variable-free query induced by the constant binding, restricted to the
//! connected component containing the output node `u_o` (Section II,
//! "Query Instances").

use crate::domain::{DomainValue, RefinementDomains};
use crate::template::{QNodeId, QueryTemplate};
use fairsqg_graph::{AttrId, AttrValue, CmpOp, EdgeLabelId, LabelId};
use std::fmt;

/// An instantiation `I` of a template: one domain index per variable.
///
/// The coordinate-wise order on index vectors is exactly the refinement
/// preorder `⪰` of Section IV (Lemma 2 (1)): `I'` refines `I` iff
/// `I'.idx[x] >= I.idx[x]` for every variable `x`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Instantiation {
    idx: Box<[u16]>,
}

impl Instantiation {
    /// Creates an instantiation from explicit domain indices.
    pub fn new(idx: Vec<u16>) -> Self {
        Self {
            idx: idx.into_boxed_slice(),
        }
    }

    /// The root `q_r`: the most relaxed instantiation (all wildcards, all
    /// optional edges absent).
    pub fn root(domains: &RefinementDomains) -> Self {
        Self {
            idx: vec![0; domains.var_count()].into_boxed_slice(),
        }
    }

    /// The bottom `q_b`: the most refined instantiation (most selective
    /// constants, all optional edges present).
    pub fn bottom(domains: &RefinementDomains) -> Self {
        Self {
            idx: domains
                .domains()
                .iter()
                .map(|d| (d.len() - 1) as u16)
                .collect(),
        }
    }

    /// Per-variable domain indices.
    #[inline]
    pub fn indices(&self) -> &[u16] {
        &self.idx
    }

    /// Number of variables.
    #[inline]
    pub fn var_count(&self) -> usize {
        self.idx.len()
    }

    /// Whether `self` refines `other` (`self ⪰_I other`): every variable is
    /// at least as selective. Reflexive.
    #[inline]
    pub fn refines(&self, other: &Self) -> bool {
        debug_assert_eq!(self.idx.len(), other.idx.len());
        self.idx.iter().zip(other.idx.iter()).all(|(a, b)| a >= b)
    }

    /// Whether `self` strictly refines `other` (refines and differs).
    #[inline]
    pub fn strictly_refines(&self, other: &Self) -> bool {
        self.refines(other) && self.idx != other.idx
    }

    /// Returns a copy with variable `x` stepped one value toward refinement,
    /// or `None` if `x` is already at its most refined value.
    pub fn refine_step(&self, x: usize, domains: &RefinementDomains) -> Option<Self> {
        let cur = self.idx[x] as usize;
        if cur + 1 >= domains.domain(x).len() {
            return None;
        }
        let mut idx = self.idx.clone();
        idx[x] += 1;
        Some(Self { idx })
    }

    /// Returns a copy with variable `x` stepped one value toward relaxation,
    /// or `None` if `x` is already at its most relaxed value.
    pub fn relax_step(&self, x: usize) -> Option<Self> {
        if self.idx[x] == 0 {
            return None;
        }
        let mut idx = self.idx.clone();
        idx[x] -= 1;
        Some(Self { idx })
    }

    /// The bound value of variable `x` under its domain.
    #[inline]
    pub fn value<'d>(&self, x: usize, domains: &'d RefinementDomains) -> &'d DomainValue {
        &domains.domain(x).values[self.idx[x] as usize]
    }

    /// Total number of refinement steps from the root (the sum of indices);
    /// the "level" of the instance in the lattice.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.idx.iter().map(|&i| i as u32).sum()
    }
}

impl fmt::Debug for Instantiation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{:?}", &self.idx)
    }
}

/// A concrete literal `u.A op c` on a materialized query node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundLiteral {
    /// Attribute `A`.
    pub attr: AttrId,
    /// Comparison operator.
    pub op: CmpOp,
    /// Bound constant `c`.
    pub value: AttrValue,
}

/// A materialized node of a concrete query.
#[derive(Debug, Clone)]
pub struct ConcreteNode {
    /// Node label.
    pub label: LabelId,
    /// All literals that apply to the node (constant + bound range).
    pub literals: Vec<BoundLiteral>,
}

/// A variable-free query instance `q(u_o)`, restricted to the connected
/// component of the output node.
#[derive(Debug, Clone)]
pub struct ConcreteQuery {
    /// All template nodes (inactive ones keep their slot so `QNodeId`s stay
    /// stable), with bound literals.
    pub nodes: Vec<ConcreteNode>,
    /// `active[u]` iff node `u` is in `u_o`'s connected component.
    pub active: Vec<bool>,
    /// Present edges within the active component.
    pub edges: Vec<(QNodeId, QNodeId, EdgeLabelId)>,
    /// The output node `u_o`.
    pub output: QNodeId,
}

impl ConcreteQuery {
    /// Materializes `inst` against its template and domains.
    pub fn materialize(
        template: &QueryTemplate,
        domains: &RefinementDomains,
        inst: &Instantiation,
    ) -> Self {
        let n = template.node_count();

        // Which edges are present under this instantiation?
        let mut present = vec![true; template.edges().len()];
        for (x, d) in domains.domains().iter().enumerate() {
            if let crate::domain::VarKind::Edge { edge } = d.kind {
                present[edge] = matches!(inst.value(x, domains), DomainValue::EdgeOn);
            }
        }

        // Connected component of the output node over present edges.
        let mut adj = vec![Vec::new(); n];
        for (i, e) in template.edges().iter().enumerate() {
            if present[i] {
                adj[e.src.index()].push(e.dst.index());
                adj[e.dst.index()].push(e.src.index());
            }
        }
        let mut active = vec![false; n];
        active[template.output().index()] = true;
        let mut stack = vec![template.output().index()];
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !active[w] {
                    active[w] = true;
                    stack.push(w);
                }
            }
        }

        // Literals: constants always; range literals only when bound.
        let mut nodes: Vec<ConcreteNode> = template
            .nodes()
            .iter()
            .map(|tn| ConcreteNode {
                label: tn.label,
                literals: Vec::new(),
            })
            .collect();
        for cl in template.const_literals() {
            nodes[cl.node.index()].literals.push(BoundLiteral {
                attr: cl.attr,
                op: cl.op,
                value: cl.value,
            });
        }
        for (x, d) in domains.domains().iter().enumerate() {
            if let crate::domain::VarKind::Range { literal } = d.kind {
                if let DomainValue::Const(c) = *inst.value(x, domains) {
                    let lit = template.range_literals()[literal];
                    nodes[lit.node.index()].literals.push(BoundLiteral {
                        attr: lit.attr,
                        op: lit.op,
                        value: c,
                    });
                }
            }
        }

        let edges = template
            .edges()
            .iter()
            .enumerate()
            .filter(|&(i, e)| present[i] && active[e.src.index()] && active[e.dst.index()])
            .map(|(_, e)| (e.src, e.dst, e.label))
            .collect();

        Self {
            nodes,
            active,
            edges,
            output: template.output(),
        }
    }

    /// Active node ids.
    pub fn active_nodes(&self) -> impl Iterator<Item = QNodeId> + '_ {
        self.active
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| QNodeId(i as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{DomainConfig, RefinementDomains};
    use crate::template::TemplateBuilder;
    use fairsqg_graph::{AttrValue, CmpOp, Graph, GraphBuilder};

    fn setup() -> (Graph, QueryTemplate, RefinementDomains) {
        let mut b = GraphBuilder::new();
        let u1 = b.add_named_node("user", &[("age", AttrValue::Int(30))]);
        let u2 = b.add_named_node("user", &[("age", AttrValue::Int(40))]);
        b.add_named_edge(u1, u2, "knows");
        let g = b.finish();
        let user = g.schema().find_node_label("user").unwrap();
        let age = g.schema().find_attr("age").unwrap();
        let knows = g.schema().find_edge_label("knows").unwrap();

        let mut tb = TemplateBuilder::new();
        let a = tb.node(user);
        let c = tb.node(user);
        tb.optional_edge(c, a, knows);
        tb.range_literal(a, age, CmpOp::Ge);
        let t = tb.finish(a).unwrap();
        let d = RefinementDomains::build(&t, &g, DomainConfig::default());
        (g, t, d)
    }

    #[test]
    fn root_and_bottom() {
        let (_, _, d) = setup();
        let root = Instantiation::root(&d);
        let bottom = Instantiation::bottom(&d);
        assert_eq!(root.indices(), &[0, 0]);
        assert_eq!(bottom.indices(), &[2, 1]); // wildcard+2 values, edge on/off
        assert!(bottom.refines(&root));
        assert!(bottom.strictly_refines(&root));
        assert!(!root.strictly_refines(&root));
        assert_eq!(root.depth(), 0);
        assert_eq!(bottom.depth(), 3);
    }

    #[test]
    fn refine_and_relax_steps() {
        let (_, _, d) = setup();
        let root = Instantiation::root(&d);
        let r1 = root.refine_step(0, &d).unwrap();
        assert_eq!(r1.indices(), &[1, 0]);
        assert!(r1.strictly_refines(&root));
        assert_eq!(r1.relax_step(0).unwrap(), root);
        assert!(root.relax_step(0).is_none());
        let bottom = Instantiation::bottom(&d);
        assert!(bottom.refine_step(0, &d).is_none());
        assert!(bottom.refine_step(1, &d).is_none());
    }

    #[test]
    fn refinement_is_partial() {
        let a = Instantiation::new(vec![1, 0]);
        let b = Instantiation::new(vec![0, 1]);
        assert!(!a.refines(&b));
        assert!(!b.refines(&a));
    }

    #[test]
    fn materialize_root_drops_optional_edge_and_literal() {
        let (_, t, d) = setup();
        let root = Instantiation::root(&d);
        let q = ConcreteQuery::materialize(&t, &d, &root);
        // Optional edge absent: only the output node is in u_o's component.
        assert_eq!(q.active_nodes().count(), 1);
        assert!(q.active[t.output().index()]);
        assert!(q.edges.is_empty());
        // Wildcard range literal dropped.
        assert!(q.nodes[t.output().index()].literals.is_empty());
    }

    #[test]
    fn materialize_refined_keeps_edge_and_binds_literal() {
        let (_, t, d) = setup();
        let bottom = Instantiation::bottom(&d);
        let q = ConcreteQuery::materialize(&t, &d, &bottom);
        assert_eq!(q.active_nodes().count(), 2);
        assert_eq!(q.edges.len(), 1);
        let lits = &q.nodes[t.output().index()].literals;
        assert_eq!(lits.len(), 1);
        assert_eq!(lits[0].value, AttrValue::Int(40)); // most selective `>=`
        assert_eq!(lits[0].op, CmpOp::Ge);
    }
}
