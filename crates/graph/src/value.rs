//! Attribute values and comparison operators for search predicates.

use crate::ids::SymbolId;
use std::cmp::Ordering;
use std::fmt;

/// A node attribute value.
///
/// FairSQG search predicates compare attribute values with range operators,
/// so values must be totally ordered. Integers and interned strings are
/// supported; fractional quantities (e.g. movie ratings) are represented as
/// scaled integers by the data generators (`7.5` stars → `75`).
///
/// Values of different kinds are ordered `Int < Str` so that sorting mixed
/// active domains is well defined, but templates are expected to compare
/// values of a single kind per attribute.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrValue {
    /// A signed integer value.
    Int(i64),
    /// An interned string value (see [`crate::Interner`]).
    Str(SymbolId),
}

impl AttrValue {
    /// Returns the integer payload, if this is an [`AttrValue::Int`].
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            AttrValue::Int(v) => Some(v),
            AttrValue::Str(_) => None,
        }
    }
}

impl PartialOrd for AttrValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttrValue {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (AttrValue::Int(a), AttrValue::Int(b)) => a.cmp(b),
            (AttrValue::Str(a), AttrValue::Str(b)) => a.cmp(b),
            (AttrValue::Int(_), AttrValue::Str(_)) => Ordering::Less,
            (AttrValue::Str(_), AttrValue::Int(_)) => Ordering::Greater,
        }
    }
}

impl fmt::Debug for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "s{}", s.0),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<SymbolId> for AttrValue {
    fn from(s: SymbolId) -> Self {
        AttrValue::Str(s)
    }
}

/// Comparison operator used in a search-predicate literal `u.A op c`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    /// Evaluates `lhs op rhs`.
    #[inline]
    pub fn eval(self, lhs: AttrValue, rhs: AttrValue) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Gt => lhs > rhs,
        }
    }

    /// Whether binding a *larger* constant makes the predicate more
    /// selective (`>=`/`>`), i.e. refinement walks the active domain in
    /// ascending order. For `<=`/`<` refinement walks descending.
    ///
    /// Returns `None` for `=`, which has no refinement direction (Section
    /// IV's refinement relation is defined on range operators only).
    #[inline]
    pub fn refines_ascending(self) -> Option<bool> {
        match self {
            CmpOp::Ge | CmpOp::Gt => Some(true),
            CmpOp::Le | CmpOp::Lt => Some(false),
            CmpOp::Eq => None,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ordering() {
        assert!(AttrValue::Int(1) < AttrValue::Int(2));
        assert_eq!(AttrValue::Int(3), AttrValue::Int(3));
    }

    #[test]
    fn mixed_kind_ordering_is_total() {
        let a = AttrValue::Int(100);
        let b = AttrValue::Str(SymbolId(0));
        assert!(a < b);
        assert!(b > a);
    }

    #[test]
    fn cmp_op_eval_matrix() {
        let five = AttrValue::Int(5);
        let seven = AttrValue::Int(7);
        assert!(CmpOp::Lt.eval(five, seven));
        assert!(!CmpOp::Lt.eval(seven, five));
        assert!(CmpOp::Le.eval(five, five));
        assert!(CmpOp::Eq.eval(five, five));
        assert!(!CmpOp::Eq.eval(five, seven));
        assert!(CmpOp::Ge.eval(seven, five));
        assert!(CmpOp::Gt.eval(seven, five));
        assert!(!CmpOp::Gt.eval(five, five));
    }

    #[test]
    fn refinement_direction() {
        assert_eq!(CmpOp::Ge.refines_ascending(), Some(true));
        assert_eq!(CmpOp::Gt.refines_ascending(), Some(true));
        assert_eq!(CmpOp::Le.refines_ascending(), Some(false));
        assert_eq!(CmpOp::Lt.refines_ascending(), Some(false));
        assert_eq!(CmpOp::Eq.refines_ascending(), None);
    }
}
