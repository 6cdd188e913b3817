//! String interning for labels, attribute names, and string values.

use std::collections::HashMap;

/// Vocabularies up to this size are searched by a linear scan instead of
/// a hash lookup: label and attribute tables hold a handful of names that
/// TSV ingest looks up once per field, and comparing a few short strings
/// is cheaper than one SipHash.
const SCAN_MAX: usize = 8;

/// A simple append-only string interner.
///
/// Interned strings are identified by their insertion index; the caller wraps
/// the returned `u32` in the appropriate id newtype ([`crate::LabelId`],
/// [`crate::AttrId`], [`crate::SymbolId`], ...).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Interner {
    map: HashMap<Box<str>, u32>,
    strings: Vec<Box<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its stable index.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(id) = self.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("interner overflow");
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, id);
        id
    }

    /// Looks up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<u32> {
        if self.strings.len() <= SCAN_MAX {
            let at = self.strings.iter().position(|x| **x == *s);
            return at.map(|i| i as u32);
        }
        self.map.get(s).copied()
    }

    /// Resolves an index back to its string. Panics on out-of-range ids.
    pub fn resolve(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("movie");
        let b = i.intern("movie");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_ids() {
        let mut i = Interner::new();
        let a = i.intern("actor");
        let b = i.intern("director");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "actor");
        assert_eq!(i.resolve(b), "director");
    }

    #[test]
    fn scan_and_hash_lookups_agree_across_the_threshold() {
        let mut i = Interner::new();
        let names: Vec<String> = (0..3 * SCAN_MAX).map(|k| format!("n{k}")).collect();
        for (k, name) in names.iter().enumerate() {
            assert_eq!(i.get(name), None);
            assert_eq!(i.intern(name), k as u32);
            // Every earlier name still resolves to its id, on either side
            // of the threshold.
            for (j, earlier) in names[..=k].iter().enumerate() {
                assert_eq!(i.intern(earlier), j as u32);
            }
        }
        assert_eq!(i.len(), names.len());
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let id = i.intern("x");
        assert_eq!(i.get("x"), Some(id));
        assert_eq!(i.len(), 1);
    }
}
