//! Per-variable refinement domains.
//!
//! For each variable of a template we precompute the ordered list of values
//! it can take, from the **most relaxed** (index 0) to the **most refined**
//! (last index). This encoding makes the refinement preorder of Section IV a
//! coordinate-wise `>=` on index vectors (see
//! [`Instantiation::refines`](crate::Instantiation::refines)).
//!
//! * A range variable on `u.A >= x` (or `>`) walks the active domain of `A`
//!   restricted to `L(u)` in **ascending** order: larger constants are more
//!   selective. Index 0 is the wildcard `_` (predicate dropped).
//! * A range variable on `u.A <= x` (or `<`) walks **descending**.
//! * An edge variable has domain `[absent, present]`: binding `1` "adds a
//!   query edge", refining the instance.

use crate::template::QueryTemplate;
use fairsqg_graph::{AttrValue, Graph};

/// One value a variable may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainValue {
    /// Wildcard `_`: the parameterized predicate is dropped.
    Wildcard,
    /// A constant bound to a range variable.
    Const(AttrValue),
    /// Edge variable `0`: the optional edge is absent.
    EdgeOff,
    /// Edge variable `1`: the optional edge is present.
    EdgeOn,
}

/// What a variable parameterizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Range variable of `template.range_literals()[literal]`.
    Range {
        /// Index into the template's range-literal list.
        literal: usize,
    },
    /// Edge variable of `template.edges()[edge]`.
    Edge {
        /// Index into the template's edge list.
        edge: usize,
    },
}

/// The ordered domain of one variable (relaxed → refined).
#[derive(Debug, Clone)]
pub struct VarDomain {
    /// What the variable parameterizes.
    pub kind: VarKind,
    /// Values in refinement order; `values[0]` is the most relaxed.
    pub values: Vec<DomainValue>,
}

impl VarDomain {
    /// Number of values (≥ 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the domain is empty (never true for validated domains).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Configuration of domain construction.
#[derive(Debug, Clone, Copy)]
pub struct DomainConfig {
    /// Maximum number of constants per range variable. When the active
    /// domain is larger, evenly spaced representatives are kept (the paper's
    /// experiments cap `|I(Q)|` at roughly 800–1400 instances). `0` means
    /// unlimited.
    pub max_values_per_range_var: usize,
}

impl Default for DomainConfig {
    fn default() -> Self {
        Self {
            max_values_per_range_var: 8,
        }
    }
}

/// The refinement domains of every variable of a template, in variable
/// order (`X_L` first, then `X_E`).
#[derive(Debug, Clone)]
pub struct RefinementDomains {
    domains: Vec<VarDomain>,
}

impl RefinementDomains {
    /// Builds domains from the graph's active domains.
    ///
    /// # Panics
    /// Panics if a range variable's domain exceeds the 65 536 values an
    /// [`Instantiation`](crate::Instantiation)'s `u16` indices can address
    /// (only possible with `max_values_per_range_var = 0` or above that).
    pub fn build(template: &QueryTemplate, graph: &Graph, config: DomainConfig) -> Self {
        let per_var = template
            .range_literals()
            .iter()
            .map(|lit| {
                let label = template.nodes()[lit.node.index()].label;
                let adom = graph.domains().for_label(label, lit.attr);
                let ascending = lit
                    .op
                    .refines_ascending()
                    .expect("validated templates have no '=' range literals");
                let mut picked = subsample(adom, config.max_values_per_range_var);
                if !ascending {
                    picked.reverse();
                }
                picked
            })
            .collect();
        Self::with_range_values(template, per_var)
    }

    /// Builds domains with explicit value lists per range variable (used by
    /// workload generators that pre-select interesting constants). Values
    /// must already be in refinement order and must **not** include the
    /// wildcard, which is prepended automatically.
    ///
    /// # Panics
    /// Panics if a list, with its wildcard, exceeds the 65 536 values an
    /// [`Instantiation`](crate::Instantiation)'s `u16` indices can address.
    pub fn with_range_values(template: &QueryTemplate, per_var: Vec<Vec<AttrValue>>) -> Self {
        assert_eq!(per_var.len(), template.range_var_count());
        let mut domains =
            Vec::with_capacity(template.range_var_count() + template.edge_var_count());
        for (li, vals) in per_var.into_iter().enumerate() {
            // Instantiations index domains by `u16`; a longer domain would
            // silently truncate `bottom()` and wrap `refine_step`.
            let (len, limit) = (vals.len() + 1, u16::MAX as usize + 1);
            assert!(
                len <= limit,
                "range variable {li} has a domain of {len} values; instantiation indices are \
                 u16, so at most {limit} (set DomainConfig::max_values_per_range_var)"
            );
            let mut values = Vec::with_capacity(vals.len() + 1);
            values.push(DomainValue::Wildcard);
            values.extend(vals.into_iter().map(DomainValue::Const));
            domains.push(VarDomain {
                kind: VarKind::Range { literal: li },
                values,
            });
        }
        for k in 0..template.edge_var_count() {
            domains.push(VarDomain {
                kind: VarKind::Edge {
                    edge: template.optional_edge(k),
                },
                values: vec![DomainValue::EdgeOff, DomainValue::EdgeOn],
            });
        }
        Self { domains }
    }

    /// All domains, in variable order.
    #[inline]
    pub fn domains(&self) -> &[VarDomain] {
        &self.domains
    }

    /// Domain of variable `x`.
    #[inline]
    pub fn domain(&self, x: usize) -> &VarDomain {
        &self.domains[x]
    }

    /// Number of variables `|X|`.
    #[inline]
    pub fn var_count(&self) -> usize {
        self.domains.len()
    }

    /// Total number of instances `|I(Q)| = Π |dom(x)|`, saturating.
    pub fn instance_space_size(&self) -> u64 {
        self.domains
            .iter()
            .fold(1u64, |acc, d| acc.saturating_mul(d.len() as u64))
    }
}

/// Keeps at most `cap` evenly spaced values of a sorted slice, always
/// including the first and last (the extremes bound the refinement walk).
fn subsample(values: &[AttrValue], cap: usize) -> Vec<AttrValue> {
    if cap == 0 || values.len() <= cap {
        return values.to_vec();
    }
    let n = values.len();
    let mut out = Vec::with_capacity(cap);
    for i in 0..cap {
        let idx = if cap == 1 { 0 } else { i * (n - 1) / (cap - 1) };
        out.push(values[idx]);
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::TemplateBuilder;
    use fairsqg_graph::{AttrValue, CmpOp, GraphBuilder};

    fn graph_and_template() -> (Graph, QueryTemplate) {
        let mut b = GraphBuilder::new();
        for age in [20, 25, 30, 35, 40] {
            b.add_named_node("user", &[("age", AttrValue::Int(age))]);
        }
        let g = b.finish();
        let user = g.schema().find_node_label("user").unwrap();
        let age = g.schema().find_attr("age").unwrap();
        let knows = {
            // Need an edge label for the optional edge; rebuild schema-side.
            // Edge labels are interned lazily; reuse id 0 by convention.
            fairsqg_graph::EdgeLabelId(0)
        };
        let mut tb = TemplateBuilder::new();
        let u0 = tb.node(user);
        let u1 = tb.node(user);
        tb.optional_edge(u1, u0, knows);
        tb.range_literal(u0, age, CmpOp::Ge);
        tb.range_literal(u1, age, CmpOp::Le);
        let t = tb.finish(u0).unwrap();
        (g, t)
    }

    #[test]
    fn ge_walks_ascending_le_descending() {
        let (g, t) = graph_and_template();
        let d = RefinementDomains::build(&t, &g, DomainConfig::default());
        assert_eq!(d.var_count(), 3);
        // x0: age >= _, 20, 25, 30, 35, 40
        let v0 = &d.domain(0).values;
        assert_eq!(v0[0], DomainValue::Wildcard);
        assert_eq!(v0[1], DomainValue::Const(AttrValue::Int(20)));
        assert_eq!(*v0.last().unwrap(), DomainValue::Const(AttrValue::Int(40)));
        // x1: age <= _, 40, 35, 30, 25, 20 (descending = increasingly selective)
        let v1 = &d.domain(1).values;
        assert_eq!(v1[1], DomainValue::Const(AttrValue::Int(40)));
        assert_eq!(*v1.last().unwrap(), DomainValue::Const(AttrValue::Int(20)));
        // x2: edge variable
        assert_eq!(
            d.domain(2).values,
            vec![DomainValue::EdgeOff, DomainValue::EdgeOn]
        );
        assert_eq!(d.instance_space_size(), 6 * 6 * 2);
    }

    #[test]
    fn subsample_keeps_extremes() {
        let vals: Vec<AttrValue> = (0..100).map(AttrValue::Int).collect();
        let s = subsample(&vals, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], AttrValue::Int(0));
        assert_eq!(*s.last().unwrap(), AttrValue::Int(99));
    }

    #[test]
    fn subsample_no_cap() {
        let vals: Vec<AttrValue> = (0..4).map(AttrValue::Int).collect();
        assert_eq!(subsample(&vals, 0).len(), 4);
        assert_eq!(subsample(&vals, 10).len(), 4);
    }

    #[test]
    fn explicit_range_values() {
        let (_, t) = graph_and_template();
        let d = RefinementDomains::with_range_values(
            &t,
            vec![
                vec![AttrValue::Int(10), AttrValue::Int(20)],
                vec![AttrValue::Int(50)],
            ],
        );
        assert_eq!(d.domain(0).len(), 3); // wildcard + 2
        assert_eq!(d.domain(1).len(), 2);
        assert_eq!(d.domain(2).len(), 2);
    }

    /// `n` users with an id-like attribute (all distinct), and a template
    /// with one range variable on it.
    fn id_like(n: i64) -> (Graph, QueryTemplate) {
        let mut b = GraphBuilder::new();
        for id in 0..n {
            b.add_named_node("user", &[("id", AttrValue::Int(id))]);
        }
        let g = b.finish();
        let mut tb = TemplateBuilder::new();
        let u0 = tb.node(g.schema().find_node_label("user").unwrap());
        tb.range_literal(u0, g.schema().find_attr("id").unwrap(), CmpOp::Ge);
        let t = tb.finish(u0).unwrap();
        (g, t)
    }

    #[test]
    #[should_panic(
        expected = "range variable 0 has a domain of 70001 values; instantiation indices are u16, so at most 65536"
    )]
    fn uncapped_domain_beyond_u16_is_rejected() {
        let (g, t) = id_like(70_000);
        let uncapped = DomainConfig {
            max_values_per_range_var: 0,
        };
        RefinementDomains::build(&t, &g, uncapped);
    }

    #[test]
    fn largest_addressable_domain_builds() {
        let (g, t) = id_like(u16::MAX as i64);
        let uncapped = DomainConfig {
            max_values_per_range_var: 0,
        };
        let d = RefinementDomains::build(&t, &g, uncapped);
        assert_eq!(d.domain(0).len(), 65_536);
        let bottom = crate::Instantiation::bottom(&d);
        assert_eq!(bottom.indices(), &[u16::MAX]);
        assert_eq!(
            d.domain(0).values[bottom.indices()[0] as usize],
            DomainValue::Const(AttrValue::Int(u16::MAX as i64 - 1))
        );
    }
}
