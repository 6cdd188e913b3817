//! Graph schema: interned node labels, edge labels, attribute names, and
//! string attribute values.

use crate::ids::{AttrId, EdgeLabelId, LabelId, SymbolId};
use crate::interner::Interner;
use std::fmt;

/// A 16-bit id space (node labels, edge labels or attributes) already
/// holds 65 536 distinct names and was asked to intern one more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemaFull {
    /// Which vocabulary overflowed, as a plural noun for messages.
    pub what: &'static str,
}

impl fmt::Display for SchemaFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "more than 65536 distinct {}", self.what)
    }
}

impl std::error::Error for SchemaFull {}

/// Interns `name` in a table whose ids must fit `u16`. A name that does
/// not fit is refused *before* it is interned, so the table never holds a
/// string its id type cannot address.
fn intern16(table: &mut Interner, name: &str, what: &'static str) -> Result<u16, SchemaFull> {
    if let Some(id) = table.get(name) {
        return Ok(id as u16);
    }
    if table.len() > u16::MAX as usize {
        return Err(SchemaFull { what });
    }
    Ok(table.intern(name) as u16)
}

/// Interned vocabulary of a graph.
///
/// A [`Schema`] is shared by a graph and all templates/queries over it, so
/// labels and attributes can be compared by id.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Schema {
    node_labels: Interner,
    edge_labels: Interner,
    attrs: Interner,
    symbols: Interner,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a node label name. Panics on the 65 537th distinct name;
    /// callers fed by outside input use [`Schema::try_node_label`].
    pub fn node_label(&mut self, name: &str) -> LabelId {
        self.try_node_label(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Interns an edge label name. Panics on the 65 537th distinct name;
    /// callers fed by outside input use [`Schema::try_edge_label`].
    pub fn edge_label(&mut self, name: &str) -> EdgeLabelId {
        self.try_edge_label(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Interns an attribute name. Panics on the 65 537th distinct name;
    /// callers fed by outside input use [`Schema::try_attr`].
    pub fn attr(&mut self, name: &str) -> AttrId {
        self.try_attr(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Interns a node label name, refusing the 65 537th distinct one.
    pub fn try_node_label(&mut self, name: &str) -> Result<LabelId, SchemaFull> {
        intern16(&mut self.node_labels, name, "node labels").map(LabelId)
    }

    /// Interns an edge label name, refusing the 65 537th distinct one.
    pub fn try_edge_label(&mut self, name: &str) -> Result<EdgeLabelId, SchemaFull> {
        intern16(&mut self.edge_labels, name, "edge labels").map(EdgeLabelId)
    }

    /// Interns an attribute name, refusing the 65 537th distinct one.
    pub fn try_attr(&mut self, name: &str) -> Result<AttrId, SchemaFull> {
        intern16(&mut self.attrs, name, "attribute names").map(AttrId)
    }

    /// Interns a string attribute value.
    pub fn symbol(&mut self, value: &str) -> SymbolId {
        SymbolId(self.symbols.intern(value))
    }

    /// Looks up a node label without interning.
    pub fn find_node_label(&self, name: &str) -> Option<LabelId> {
        self.node_labels.get(name).map(|id| LabelId(id as u16))
    }

    /// Looks up an edge label without interning.
    pub fn find_edge_label(&self, name: &str) -> Option<EdgeLabelId> {
        self.edge_labels.get(name).map(|id| EdgeLabelId(id as u16))
    }

    /// Looks up an attribute without interning.
    pub fn find_attr(&self, name: &str) -> Option<AttrId> {
        self.attrs.get(name).map(|id| AttrId(id as u16))
    }

    /// Looks up a string value without interning.
    pub fn find_symbol(&self, value: &str) -> Option<SymbolId> {
        self.symbols.get(value).map(SymbolId)
    }

    /// Resolves a node label id to its name.
    pub fn node_label_name(&self, id: LabelId) -> &str {
        self.node_labels.resolve(id.0 as u32)
    }

    /// Resolves an edge label id to its name.
    pub fn edge_label_name(&self, id: EdgeLabelId) -> &str {
        self.edge_labels.resolve(id.0 as u32)
    }

    /// Resolves an attribute id to its name.
    pub fn attr_name(&self, id: AttrId) -> &str {
        self.attrs.resolve(id.0 as u32)
    }

    /// Resolves a symbol id to its string value.
    pub fn symbol_value(&self, id: SymbolId) -> &str {
        self.symbols.resolve(id.0)
    }

    /// Number of distinct node labels.
    pub fn node_label_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of distinct edge labels.
    pub fn edge_label_count(&self) -> usize {
        self.edge_labels.len()
    }

    /// Number of distinct attributes.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Number of distinct interned string values.
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_interning_roundtrip() {
        let mut s = Schema::new();
        let movie = s.node_label("movie");
        let directed = s.edge_label("directed");
        let rating = s.attr("rating");
        let action = s.symbol("Action");

        assert_eq!(s.node_label_name(movie), "movie");
        assert_eq!(s.edge_label_name(directed), "directed");
        assert_eq!(s.attr_name(rating), "rating");
        assert_eq!(s.symbol_value(action), "Action");

        assert_eq!(s.find_node_label("movie"), Some(movie));
        assert_eq!(s.find_node_label("nope"), None);
    }

    #[test]
    fn the_65537th_name_is_refused_not_aliased() {
        let mut s = Schema::new();
        for i in 0..=u16::MAX as u32 {
            assert_eq!(s.try_attr(&format!("a{i}")), Ok(AttrId(i as u16)));
        }
        let err = s.try_attr("one-too-many").unwrap_err();
        assert_eq!(err.to_string(), "more than 65536 distinct attribute names");
        // Nothing was interned for the refused name, and known names
        // still resolve.
        assert_eq!(s.attr_count(), 1 << 16);
        assert_eq!(s.find_attr("one-too-many"), None);
        assert_eq!(s.try_attr("a0"), Ok(AttrId(0)));
        assert_eq!(s.try_attr("a65535"), Ok(AttrId(u16::MAX)));
    }

    #[test]
    #[should_panic(expected = "more than 65536 distinct node labels")]
    fn infallible_interning_panics_instead_of_wrapping() {
        let mut s = Schema::new();
        for i in 0..=(u16::MAX as u32 + 1) {
            s.node_label(&format!("l{i}"));
        }
    }

    #[test]
    fn counts() {
        let mut s = Schema::new();
        s.node_label("a");
        s.node_label("b");
        s.node_label("a");
        s.attr("x");
        assert_eq!(s.node_label_count(), 2);
        assert_eq!(s.attr_count(), 1);
        assert_eq!(s.edge_label_count(), 0);
    }
}
