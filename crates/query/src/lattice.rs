//! The instance lattice `L = (I(Q), ≺_I)` (Section IV).
//!
//! The lattice is *implicit*: nodes are [`Instantiation`]s and there is an
//! edge `(q, q')` labeled with variable `x` when `q'` refines `q` at `x`
//! only, stepping to the next value in `x`'s refinement domain. The
//! generation algorithms explore the lattice on the fly through
//! [`InstanceLattice::children`] / [`InstanceLattice::parents`] without ever
//! materializing it.

use crate::domain::RefinementDomains;
use crate::instance::Instantiation;

/// A lightweight view pairing a template's domains with lattice navigation.
#[derive(Debug, Clone)]
pub struct InstanceLattice<'a> {
    domains: &'a RefinementDomains,
}

impl<'a> InstanceLattice<'a> {
    /// Creates a lattice view over `domains`.
    pub fn new(domains: &'a RefinementDomains) -> Self {
        Self { domains }
    }

    /// The most relaxed instantiation `q_r` (lattice root / upper bound).
    pub fn root(&self) -> Instantiation {
        Instantiation::root(self.domains)
    }

    /// The most refined instantiation `q_b` (lattice bottom / lower bound).
    pub fn bottom(&self) -> Instantiation {
        Instantiation::bottom(self.domains)
    }

    /// Direct refinements of `inst`: one child per variable that can still
    /// be refined. The returned pairs carry the stepped variable (the
    /// lattice edge label).
    pub fn children(&self, inst: &Instantiation) -> Vec<(usize, Instantiation)> {
        (0..self.domains.var_count())
            .filter_map(|x| inst.refine_step(x, self.domains).map(|c| (x, c)))
            .collect()
    }

    /// Direct relaxations of `inst`: one parent per variable that can still
    /// be relaxed.
    pub fn parents(&self, inst: &Instantiation) -> Vec<(usize, Instantiation)> {
        (0..self.domains.var_count())
            .filter_map(|x| inst.relax_step(x).map(|p| (x, p)))
            .collect()
    }

    /// The underlying domains.
    pub fn domains(&self) -> &RefinementDomains {
        self.domains
    }

    /// Enumerates **all** instantiations in lexicographic order. Exponential
    /// in `|X|`, and panics if `|I(Q)|` overflows `usize`: for tests and
    /// offline harnesses on small templates. The generators walk the
    /// lattice by [`LatticeIndex`] instead.
    pub fn enumerate(&self) -> Vec<Instantiation> {
        let index = LatticeIndex::new(self.domains).expect("|I(Q)| overflows usize");
        (0..index.size()).map(|i| index.instance(i)).collect()
    }
}

/// The mixed-radix numbering of `I(Q)`: instance `i` is the `i`-th in
/// lexicographic order (the last variable varies fastest, as
/// [`InstanceLattice::enumerate`] lists them), and its direct parent on
/// axis `x` is `i - stride(x)`. The one place strides are computed.
#[derive(Debug, Clone)]
pub struct LatticeIndex {
    strides: Box<[usize]>,
    size: usize,
}

impl LatticeIndex {
    /// The numbering of `domains`' lattice, or `None` when `|I(Q)|`
    /// overflows `usize`.
    pub fn new(domains: &RefinementDomains) -> Option<Self> {
        let mut strides = vec![0; domains.var_count()].into_boxed_slice();
        let mut size = 1usize;
        for x in (0..strides.len()).rev() {
            strides[x] = size;
            size = size.checked_mul(domains.domain(x).len())?;
        }
        Some(Self { strides, size })
    }

    /// `|I(Q)|`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// How far an instance's index is from its direct parent's on axis `x`.
    pub fn stride(&self, x: usize) -> usize {
        self.strides[x]
    }

    /// The index of `inst`.
    pub fn index_of(&self, inst: &Instantiation) -> usize {
        inst.indices()
            .iter()
            .zip(self.strides.iter())
            .map(|(&k, &stride)| usize::from(k) * stride)
            .sum()
    }

    /// The instance at index `i < size()`.
    pub fn instance(&self, mut i: usize) -> Instantiation {
        debug_assert!(i < self.size);
        let digit = |&stride: &usize| {
            let k = i / stride;
            i %= stride;
            k as u16
        };
        Instantiation::new(self.strides.iter().map(digit).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{DomainConfig, RefinementDomains};
    use crate::template::TemplateBuilder;
    use fairsqg_graph::{AttrValue, CmpOp, GraphBuilder};

    fn domains() -> RefinementDomains {
        let mut b = GraphBuilder::new();
        for v in [1i64, 2, 3] {
            b.add_named_node("n", &[("a", AttrValue::Int(v))]);
        }
        let g = b.finish();
        let n = g.schema().find_node_label("n").unwrap();
        let a = g.schema().find_attr("a").unwrap();
        let mut tb = TemplateBuilder::new();
        let u0 = tb.node(n);
        let u1 = tb.node(n);
        tb.optional_edge(u0, u1, fairsqg_graph::EdgeLabelId(0));
        tb.range_literal(u0, a, CmpOp::Ge);
        let t = tb.finish(u0).unwrap();
        RefinementDomains::build(&t, &g, DomainConfig::default())
    }

    #[test]
    fn children_and_parents_are_inverse() {
        let d = domains();
        let lat = InstanceLattice::new(&d);
        let root = lat.root();
        let children = lat.children(&root);
        assert_eq!(children.len(), 2);
        for (x, c) in &children {
            let parents = lat.parents(c);
            assert!(parents.iter().any(|(px, p)| px == x && p == &root));
        }
        assert!(lat.parents(&root).is_empty());
        assert!(lat.children(&lat.bottom()).is_empty());
    }

    #[test]
    fn enumerate_covers_the_product_space() {
        let d = domains();
        let lat = InstanceLattice::new(&d);
        let all = lat.enumerate();
        assert_eq!(all.len() as u64, d.instance_space_size());
        assert_eq!(all.len(), 4 * 2); // (wildcard + 3 values) × (edge on/off)
                                      // All distinct.
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
        assert_eq!(all[0], lat.root());
        assert_eq!(*all.last().unwrap(), lat.bottom());
    }

    #[test]
    fn the_index_numbers_the_enumeration_and_steps_parents_by_stride() {
        let d = domains();
        let index = LatticeIndex::new(&d).unwrap();
        let lat = InstanceLattice::new(&d);
        for (i, inst) in lat.enumerate().iter().enumerate() {
            assert_eq!(index.index_of(inst), i);
            assert_eq!(&index.instance(i), inst);
            for (x, parent) in lat.parents(inst) {
                assert_eq!(index.index_of(&parent), i - index.stride(x));
            }
        }
    }

    #[test]
    fn an_overflowing_lattice_has_no_index() {
        let mut b = GraphBuilder::new();
        for v in 0..9i64 {
            b.add_named_node("n", &[("a", AttrValue::Int(v))]);
        }
        let g = b.finish();
        let n = g.schema().find_node_label("n").unwrap();
        let a = g.schema().find_attr("a").unwrap();
        let mut tb = TemplateBuilder::new();
        let u0 = tb.node(n);
        // 9 values per range variable (8 constants and the wildcard):
        // 9^21 > u64::MAX.
        for _ in 0..21 {
            tb.range_literal(u0, a, CmpOp::Ge);
        }
        let t = tb.finish(u0).unwrap();
        let d = RefinementDomains::build(&t, &g, DomainConfig::default());
        assert!(LatticeIndex::new(&d).is_none());
    }

    #[test]
    fn every_nonroot_instance_is_reachable_from_root() {
        let d = domains();
        let lat = InstanceLattice::new(&d);
        // BFS from the root must reach the whole space.
        let mut seen = std::collections::HashSet::new();
        let mut queue = std::collections::VecDeque::from([lat.root()]);
        seen.insert(lat.root());
        while let Some(q) = queue.pop_front() {
            for (_, c) in lat.children(&q) {
                if seen.insert(c.clone()) {
                    queue.push_back(c);
                }
            }
        }
        assert_eq!(seen.len() as u64, d.instance_space_size());
    }
}
