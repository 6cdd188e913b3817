//! Query templates `Q(u_o)` (Section II).
//!
//! A template is a connected labeled graph with a designated output node.
//! Search predicates carry two kinds of variables:
//!
//! * **range variables** `x_l` in literals `u.A op x_l` with
//!   `op ∈ {<, <=, >=, >}` (literals with `=` must be pre-bound constants:
//!   the refinement relation of Section IV is only defined for range
//!   operators), and
//! * **Boolean edge variables** `x_e` that decide whether an optional edge
//!   is part of a query instance.

use fairsqg_graph::{AttrId, AttrValue, CmpOp, EdgeLabelId, LabelId};
use std::fmt;

/// Index of a node inside a template (templates are small: `u8`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QNodeId(pub u8);

impl QNodeId {
    /// Returns the index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for QNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Index of a variable in a template's variable list `X = X_L ∪ X_E`.
///
/// Range variables come first (in literal order), then edge variables (in
/// optional-edge order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u16);

impl VarId {
    /// Returns the index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A template node: a label plus its search predicates.
#[derive(Debug, Clone)]
pub struct TemplateNode {
    /// Node label `L_Q(u)`.
    pub label: LabelId,
}

/// A literal `u.A op c` with a fixed constant (no variable).
#[derive(Debug, Clone, Copy)]
pub struct ConstLiteral {
    /// The template node the predicate applies to.
    pub node: QNodeId,
    /// Attribute `A`.
    pub attr: AttrId,
    /// Comparison operator.
    pub op: CmpOp,
    /// Constant value `c`.
    pub value: AttrValue,
}

/// A parameterized literal `u.A op x_l` with a range variable.
#[derive(Debug, Clone, Copy)]
pub struct RangeLiteral {
    /// The template node the predicate applies to.
    pub node: QNodeId,
    /// Attribute `A`.
    pub attr: AttrId,
    /// Comparison operator (never [`CmpOp::Eq`]).
    pub op: CmpOp,
}

/// A template edge, either fixed or guarded by an edge variable.
#[derive(Debug, Clone, Copy)]
pub struct TemplateEdge {
    /// Source template node.
    pub src: QNodeId,
    /// Target template node.
    pub dst: QNodeId,
    /// Edge label `L_Q(e)`.
    pub label: EdgeLabelId,
    /// Whether this edge is guarded by a Boolean edge variable.
    pub optional: bool,
}

/// A query template `Q(u_o)`.
///
/// Construct through [`TemplateBuilder`].
#[derive(Debug, Clone)]
pub struct QueryTemplate {
    nodes: Vec<TemplateNode>,
    edges: Vec<TemplateEdge>,
    const_literals: Vec<ConstLiteral>,
    range_literals: Vec<RangeLiteral>,
    /// Indices into `edges` of the optional (variable-guarded) edges, in
    /// edge-variable order.
    optional_edges: Vec<usize>,
    output: QNodeId,
    /// Longest shortest path of the template graph, fixed at build time.
    diameter: usize,
}

impl QueryTemplate {
    /// The designated output node `u_o`.
    #[inline]
    pub fn output(&self) -> QNodeId {
        self.output
    }

    /// Template nodes `V_Q`.
    #[inline]
    pub fn nodes(&self) -> &[TemplateNode] {
        &self.nodes
    }

    /// All template edges `E_Q` (fixed and optional).
    #[inline]
    pub fn edges(&self) -> &[TemplateEdge] {
        &self.edges
    }

    /// Constant literals.
    #[inline]
    pub fn const_literals(&self) -> &[ConstLiteral] {
        &self.const_literals
    }

    /// Parameterized literals, in range-variable order.
    #[inline]
    pub fn range_literals(&self) -> &[RangeLiteral] {
        &self.range_literals
    }

    /// Number of range variables `|X_L|`.
    #[inline]
    pub fn range_var_count(&self) -> usize {
        self.range_literals.len()
    }

    /// Number of edge variables `|X_E|`.
    #[inline]
    pub fn edge_var_count(&self) -> usize {
        self.optional_edges.len()
    }

    /// Total number of variables `|X|`.
    #[inline]
    pub fn var_count(&self) -> usize {
        self.range_var_count() + self.edge_var_count()
    }

    /// Template size: number of edges `|Q(u_o)|` (the paper's size measure).
    #[inline]
    pub fn size(&self) -> usize {
        self.edges.len()
    }

    /// Number of template nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The edge index guarded by edge variable `k` (0-based within `X_E`).
    #[inline]
    pub fn optional_edge(&self, k: usize) -> usize {
        self.optional_edges[k]
    }

    /// The label of the output node, `L_Q(u_o)`.
    #[inline]
    pub fn output_label(&self) -> LabelId {
        self.nodes[self.output.index()].label
    }

    /// Diameter of the template graph with **all** edges present
    /// (undirected). Used as the hop bound `d` of `G_q^d` in template
    /// refinement.
    #[inline]
    pub fn diameter(&self) -> usize {
        self.diameter
    }

    /// Whether `edge_idx` is a bridge of the full template graph (removing
    /// it disconnects the template). Used by Spawn's template refinement.
    pub fn is_bridge(&self, edge_idx: usize) -> bool {
        let n = self.nodes.len();
        let mut adj = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            if i == edge_idx {
                continue;
            }
            adj[e.src.index()].push(e.dst.index());
            adj[e.dst.index()].push(e.src.index());
        }
        // Check whether the endpoints of edge_idx stay connected.
        let (s, t) = (
            self.edges[edge_idx].src.index(),
            self.edges[edge_idx].dst.index(),
        );
        let mut seen = vec![false; n];
        seen[s] = true;
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            if v == t {
                return false;
            }
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        true
    }
}

/// Errors raised when building an invalid template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// The template has no nodes.
    Empty,
    /// A node/edge endpoint index is out of range.
    NodeOutOfRange(u8),
    /// The template (with all edges present) is not connected.
    Disconnected,
    /// A range literal used `=`; equality predicates must be constant.
    EqRangeLiteral,
    /// A self-loop edge was declared.
    SelfLoop,
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::Empty => write!(f, "template has no nodes"),
            TemplateError::NodeOutOfRange(i) => write!(f, "node index u{i} out of range"),
            TemplateError::Disconnected => write!(f, "template graph is not connected"),
            TemplateError::EqRangeLiteral => {
                write!(f, "range variables cannot use '=' (no refinement order)")
            }
            TemplateError::SelfLoop => write!(f, "self-loop edges are not supported"),
        }
    }
}

impl std::error::Error for TemplateError {}

/// Builder for [`QueryTemplate`].
#[derive(Debug, Default)]
pub struct TemplateBuilder {
    nodes: Vec<TemplateNode>,
    edges: Vec<TemplateEdge>,
    const_literals: Vec<ConstLiteral>,
    range_literals: Vec<RangeLiteral>,
}

impl TemplateBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with `label`, returning its id.
    pub fn node(&mut self, label: LabelId) -> QNodeId {
        let id = QNodeId(u8::try_from(self.nodes.len()).expect("too many template nodes"));
        self.nodes.push(TemplateNode { label });
        id
    }

    /// Adds a fixed (always-present) edge.
    pub fn edge(&mut self, src: QNodeId, dst: QNodeId, label: EdgeLabelId) -> &mut Self {
        self.edges.push(TemplateEdge {
            src,
            dst,
            label,
            optional: false,
        });
        self
    }

    /// Adds an optional edge guarded by a fresh edge variable.
    pub fn optional_edge(&mut self, src: QNodeId, dst: QNodeId, label: EdgeLabelId) -> &mut Self {
        self.edges.push(TemplateEdge {
            src,
            dst,
            label,
            optional: true,
        });
        self
    }

    /// Adds a constant literal `node.attr op value`.
    pub fn literal(
        &mut self,
        node: QNodeId,
        attr: AttrId,
        op: CmpOp,
        value: AttrValue,
    ) -> &mut Self {
        self.const_literals.push(ConstLiteral {
            node,
            attr,
            op,
            value,
        });
        self
    }

    /// Adds a parameterized literal `node.attr op x`, returning the new
    /// range variable's position within `X_L`.
    pub fn range_literal(&mut self, node: QNodeId, attr: AttrId, op: CmpOp) -> usize {
        self.range_literals.push(RangeLiteral { node, attr, op });
        self.range_literals.len() - 1
    }

    /// Validates and finalizes the template.
    pub fn finish(self, output: QNodeId) -> Result<QueryTemplate, TemplateError> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(TemplateError::Empty);
        }
        if output.index() >= n {
            return Err(TemplateError::NodeOutOfRange(output.0));
        }
        for e in &self.edges {
            if e.src.index() >= n {
                return Err(TemplateError::NodeOutOfRange(e.src.0));
            }
            if e.dst.index() >= n {
                return Err(TemplateError::NodeOutOfRange(e.dst.0));
            }
            if e.src == e.dst {
                return Err(TemplateError::SelfLoop);
            }
        }
        for l in self
            .const_literals
            .iter()
            .map(|l| l.node)
            .chain(self.range_literals.iter().map(|l| l.node))
        {
            if l.index() >= n {
                return Err(TemplateError::NodeOutOfRange(l.0));
            }
        }
        if self.range_literals.iter().any(|l| l.op == CmpOp::Eq) {
            return Err(TemplateError::EqRangeLiteral);
        }

        // Connectivity with all edges present.
        let mut adj = vec![Vec::new(); n];
        for e in &self.edges {
            adj[e.src.index()].push(e.dst.index());
            adj[e.dst.index()].push(e.src.index());
        }
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut stack = vec![0usize];
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        if count != n {
            return Err(TemplateError::Disconnected);
        }

        // Connected, so every BFS reaches every node: the diameter is the
        // largest distance any of them assigns.
        let mut diameter = 0;
        for start in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[start] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                diameter = diameter.max(dist[v]);
                for &w in &adj[v] {
                    if dist[w] == usize::MAX {
                        dist[w] = dist[v] + 1;
                        queue.push_back(w);
                    }
                }
            }
        }

        let optional_edges = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.optional)
            .map(|(i, _)| i)
            .collect();

        Ok(QueryTemplate {
            nodes: self.nodes,
            edges: self.edges,
            const_literals: self.const_literals,
            range_literals: self.range_literals,
            optional_edges,
            output,
            diameter,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (LabelId, EdgeLabelId, AttrId) {
        (LabelId(0), EdgeLabelId(0), AttrId(0))
    }

    #[test]
    fn build_simple_template() {
        let (l, e, a) = ids();
        let mut b = TemplateBuilder::new();
        let u0 = b.node(l);
        let u1 = b.node(l);
        b.edge(u1, u0, e);
        b.optional_edge(u0, u1, e);
        b.range_literal(u1, a, CmpOp::Ge);
        b.literal(u0, a, CmpOp::Eq, AttrValue::Int(3));
        let t = b.finish(u0).unwrap();
        assert_eq!(t.size(), 2);
        assert_eq!(t.range_var_count(), 1);
        assert_eq!(t.edge_var_count(), 1);
        assert_eq!(t.var_count(), 2);
        assert_eq!(t.output(), u0);
        assert_eq!(t.optional_edge(0), 1);
    }

    #[test]
    fn disconnected_rejected() {
        let (l, _, _) = ids();
        let mut b = TemplateBuilder::new();
        let u0 = b.node(l);
        b.node(l); // isolated
        assert_eq!(b.finish(u0).unwrap_err(), TemplateError::Disconnected);
    }

    #[test]
    fn eq_range_literal_rejected() {
        let (l, _, a) = ids();
        let mut b = TemplateBuilder::new();
        let u0 = b.node(l);
        b.range_literal(u0, a, CmpOp::Eq);
        assert_eq!(b.finish(u0).unwrap_err(), TemplateError::EqRangeLiteral);
    }

    #[test]
    fn self_loop_rejected() {
        let (l, e, _) = ids();
        let mut b = TemplateBuilder::new();
        let u0 = b.node(l);
        b.edge(u0, u0, e);
        assert_eq!(b.finish(u0).unwrap_err(), TemplateError::SelfLoop);
    }

    #[test]
    fn diameter_of_path() {
        let (l, e, _) = ids();
        let mut b = TemplateBuilder::new();
        let u0 = b.node(l);
        let u1 = b.node(l);
        let u2 = b.node(l);
        b.edge(u0, u1, e);
        b.edge(u1, u2, e);
        let t = b.finish(u0).unwrap();
        assert_eq!(t.diameter(), 2);
    }

    #[test]
    fn bridge_detection() {
        let (l, e, _) = ids();
        let mut b = TemplateBuilder::new();
        let u0 = b.node(l);
        let u1 = b.node(l);
        let u2 = b.node(l);
        b.edge(u0, u1, e); // bridge to the triangle-less tail
        b.edge(u1, u2, e);
        b.edge(u2, u0, e); // closes a triangle: none of these are bridges
        let tri = b.finish(u0).unwrap();
        assert!(!tri.is_bridge(0));
        assert!(!tri.is_bridge(1));
        assert!(!tri.is_bridge(2));

        let mut b = TemplateBuilder::new();
        let u0 = b.node(l);
        let u1 = b.node(l);
        b.edge(u0, u1, e);
        let path = b.finish(u0).unwrap();
        assert!(path.is_bridge(0));
    }
}
