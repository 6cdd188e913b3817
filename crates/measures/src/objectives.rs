//! The bi-objective value of a query instance and (ε-)dominance relations.

use std::fmt;

/// The `(δ(q), f(q))` coordinate of an instance in the bi-objective space
/// (diversity, coverage). Both are maximized.
#[derive(Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Diversity `δ(q, G) ∈ [0, |V_uo|]`.
    pub delta: f64,
    /// Coverage quality `f(q, P) ∈ [0, C]`.
    pub fcov: f64,
}

impl Objectives {
    /// Creates an objective pair.
    pub fn new(delta: f64, fcov: f64) -> Self {
        debug_assert!(delta >= 0.0 && fcov >= 0.0, "objectives are nonnegative");
        Self { delta, fcov }
    }

    /// Pareto dominance (Section III): `self` dominates `other` iff it is at
    /// least as good on both objectives and strictly better on one.
    #[inline]
    pub fn dominates(&self, other: &Self) -> bool {
        (self.delta >= other.delta && self.fcov > other.fcov)
            || (self.delta > other.delta && self.fcov >= other.fcov)
    }

    /// ε-dominance: `(1+ε)δ(self) ≥ δ(other)` and `(1+ε)f(self) ≥ f(other)`.
    ///
    /// Test oracle: the paper's ε rule, against which
    /// `crates/measures/tests/proptest_measures.rs` checks `needed_eps`.
    #[inline]
    pub fn eps_dominates(&self, other: &Self, eps: f64) -> bool {
        let factor = 1.0 + eps;
        factor * self.delta >= other.delta && factor * self.fcov >= other.fcov
    }

    /// The smallest `ε ≥ 0` for which `self` ε-dominates `other`, or
    /// `f64::INFINITY` when no finite ε works (an objective of `other` is
    /// positive while `self`'s is zero).
    pub fn needed_eps(&self, other: &Self) -> f64 {
        let need = |mine: f64, theirs: f64| -> f64 {
            if theirs <= mine {
                0.0
            } else if mine <= 0.0 {
                f64::INFINITY
            } else {
                theirs / mine - 1.0
            }
        };
        need(self.delta, other.delta).max(need(self.fcov, other.fcov))
    }

    /// The box ("boxing coordinates") of the instance under tolerance `ε`:
    /// `(⌊log(1+δ)/log(1+ε)⌋, ⌊log(1+f)/log(1+ε)⌋)` — Section IV's
    /// discretization of the bi-objective space. Instances in the same box
    /// ε-dominate one another.
    pub fn boxed(&self, eps: f64) -> BoxCoord {
        debug_assert!(eps > 0.0, "epsilon must be positive");
        let scale = (1.0 + eps).ln();
        BoxCoord {
            delta: ((1.0 + self.delta).ln() / scale).floor() as i64,
            fcov: ((1.0 + self.fcov).ln() / scale).floor() as i64,
        }
    }
}

impl fmt::Debug for Objectives {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(δ={:.4}, f={:.4})", self.delta, self.fcov)
    }
}

/// A box in the discretized bi-objective space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoxCoord {
    /// Discretized diversity coordinate `δ_ε(q)`.
    pub delta: i64,
    /// Discretized coverage coordinate `f_ε(q)`.
    pub fcov: i64,
}

impl BoxCoord {
    /// Strict box dominance: at least as large on both axes and strictly
    /// larger on one.
    #[inline]
    pub fn dominates(&self, other: &Self) -> bool {
        (self.delta >= other.delta && self.fcov > other.fcov)
            || (self.delta > other.delta && self.fcov >= other.fcov)
    }

    /// `Box(self) ⪰ Box(other)`: dominates or equal.
    #[inline]
    pub fn dominates_or_eq(&self, other: &Self) -> bool {
        self == other || self.dominates(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_cases() {
        let a = Objectives::new(2.0, 2.0);
        let b = Objectives::new(1.0, 2.0);
        let c = Objectives::new(3.0, 1.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
        assert!(!a.dominates(&a), "dominance is irreflexive");
    }

    #[test]
    fn eps_dominance_relaxes_dominance() {
        let a = Objectives::new(2.0, 2.0);
        let b = Objectives::new(2.2, 2.0);
        assert!(!a.dominates(&b));
        assert!(a.eps_dominates(&b, 0.1 + 1e-12));
        assert!(!a.eps_dominates(&b, 0.05));
        // ε-dominance is reflexive for any ε > 0.
        assert!(a.eps_dominates(&a, 1e-9));
    }

    #[test]
    fn needed_eps_matches_eps_dominates() {
        let a = Objectives::new(2.0, 4.0);
        let b = Objectives::new(3.0, 5.0);
        let eps = a.needed_eps(&b);
        assert!((eps - 0.5).abs() < 1e-12);
        assert!(a.eps_dominates(&b, eps + 1e-12));
        assert!(!a.eps_dominates(&b, eps - 1e-3));
    }

    #[test]
    fn needed_eps_zero_cases() {
        let zero = Objectives::new(0.0, 0.0);
        let pos = Objectives::new(1.0, 0.0);
        assert_eq!(zero.needed_eps(&zero), 0.0);
        assert_eq!(pos.needed_eps(&zero), 0.0);
        assert_eq!(zero.needed_eps(&pos), f64::INFINITY);
    }

    #[test]
    fn box_coordinates() {
        let eps = 0.3;
        let a = Objectives::new(2.0, 2.0);
        let b = a.boxed(eps);
        let expected = ((3.0f64).ln() / (1.3f64).ln()).floor() as i64;
        assert_eq!(b.delta, expected);
        assert_eq!(b.fcov, expected);
        // Same box ⇒ mutual ε-dominance modulo discretization.
        let c = Objectives::new(2.1, 2.1).boxed(eps);
        assert_eq!(b, c);
    }

    #[test]
    fn box_dominance() {
        let a = BoxCoord { delta: 2, fcov: 3 };
        let b = BoxCoord { delta: 2, fcov: 2 };
        assert!(a.dominates(&b));
        assert!(a.dominates_or_eq(&a));
        assert!(!a.dominates(&a));
        let c = BoxCoord { delta: 3, fcov: 1 };
        assert!(!a.dominates(&c) && !c.dominates(&a));
    }
}
