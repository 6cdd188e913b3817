//! Plain-text (TSV) serialization of graphs.
//!
//! The format is two sections separated by a blank line, friendly to both
//! humans and spreadsheet tooling:
//!
//! ```text
//! # nodes: id <TAB> label <TAB> attr=value ...
//! 0 <TAB> director <TAB> gender=0 <TAB> major=3
//! 1 <TAB> user <TAB> yearsOfExp=12
//!
//! # edges: src <TAB> label <TAB> dst
//! 1 <TAB> recommend <TAB> 0
//! ```
//!
//! Integer attribute values are written bare; string values are written
//! with a `s:` prefix (`country=s:US`). Node ids must be dense `0..n` in
//! the node section (the reader validates this).
//!
//! There is one ingest path: [`parse_tsv`] validates the text line by line
//! (one reused line buffer, no allocation per line or field) straight into
//! a [`GraphBuilder`], whose [`finish`](GraphBuilder::finish) builds every
//! derived column. [`read_tsv`] is exactly that; the `fairsqg-store`
//! converter serializes the same finished columns. Names are interned in
//! file order — per attribute the string value, then the attribute name;
//! the node label after all of a line's attributes; edge labels per edge
//! line — and that order fixes the schema ids, hence the `.fsg` bytes.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::ids::NodeId;
use crate::value::AttrValue;
use std::fmt;
use std::io::{BufRead, Write};
use std::path::Path;
use std::str::FromStr;

/// Errors raised while reading the TSV format.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content (with 1-based line and column numbers).
    Parse {
        /// The file the content came from, when known — multi-file
        /// conversions need failures attributable to a specific input.
        path: Option<String>,
        /// 1-based line number.
        line: usize,
        /// 1-based byte column of the offending field.
        column: usize,
        /// Explanation.
        message: String,
    },
}

impl IoError {
    /// The 1-based (line, column) position for `Parse` errors.
    pub fn position(&self) -> Option<(usize, usize)> {
        match self {
            IoError::Io(_) => None,
            IoError::Parse { line, column, .. } => Some((*line, *column)),
        }
    }

    /// The source file of a `Parse` error, when known.
    pub fn path(&self) -> Option<&str> {
        match self {
            IoError::Io(_) => None,
            IoError::Parse { path, .. } => path.as_deref(),
        }
    }

    /// Attaches a source file path to a `Parse` error (no-op for `Io`).
    pub fn with_path(self, p: &Path) -> Self {
        match self {
            IoError::Parse {
                line,
                column,
                message,
                ..
            } => IoError::Parse {
                path: Some(p.display().to_string()),
                line,
                column,
                message,
            },
            other => other,
        }
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse {
                path,
                line,
                column,
                message,
            } => {
                if let Some(p) = path {
                    write!(f, "{p}: ")?;
                }
                write!(f, "line {line}, column {column}: {message}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes a graph in the TSV format.
pub fn write_tsv<W: Write>(graph: &Graph, mut out: W) -> std::io::Result<()> {
    writeln!(out, "# nodes: id\tlabel\tattr=value ...")?;
    let schema = graph.schema();
    for v in graph.nodes() {
        write!(out, "{}\t{}", v.0, schema.node_label_name(graph.label(v)))?;
        for e in graph.tuple(v) {
            match e.value() {
                AttrValue::Int(i) => write!(out, "\t{}={}", schema.attr_name(e.attr()), i)?,
                AttrValue::Str(s) => write!(
                    out,
                    "\t{}=s:{}",
                    schema.attr_name(e.attr()),
                    schema.symbol_value(s)
                )?,
            }
        }
        writeln!(out)?;
    }
    writeln!(out)?;
    writeln!(out, "# edges: src\tlabel\tdst")?;
    for v in graph.nodes() {
        for a in graph.out_neighbors(v) {
            writeln!(
                out,
                "{}\t{}\t{}",
                v.0,
                schema.edge_label_name(a.label()),
                a.to().0
            )?;
        }
    }
    Ok(())
}

fn parse_err(line: usize, column: usize, message: String) -> IoError {
    IoError::Parse {
        path: None,
        line,
        column,
        message,
    }
}

/// Parses `field` as a decimal integer with std's acceptance and errors.
///
/// A field of 1–19 ASCII digits (it cannot overflow `u64`) whose value
/// fits `T` is converted by hand; everything else — `+5`, `-3`, a
/// 20-digit id, an out-of-range value, garbage — goes to std's `parse`,
/// which alone decides what is accepted and what the error is.
fn parse_int<T: FromStr + TryFrom<u64>>(field: &str) -> Result<T, T::Err> {
    let digits = field.as_bytes();
    if (1..=19).contains(&digits.len()) && digits.iter().all(u8::is_ascii_digit) {
        let value = digits
            .iter()
            .fold(0u64, |v, &d| v * 10 + u64::from(d - b'0'));
        if let Ok(value) = T::try_from(value) {
            return Ok(value);
        }
    }
    field.parse()
}

/// The TAB-separated fields of one line, each with its 1-based byte
/// column — what `split('\t')` yields, found by a plain byte loop: fields
/// are a few bytes long, too short for a vectorised search to pay.
struct Fields<'a> {
    rest: Option<&'a str>,
    col: usize,
}

impl<'a> Iterator for Fields<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let text = self.rest?;
        let col = self.col;
        let field = match text.bytes().position(|b| b == b'\t') {
            Some(tab) => {
                self.rest = Some(&text[tab + 1..]);
                &text[..tab]
            }
            None => {
                self.rest = None;
                text
            }
        };
        self.col += field.len() + 1;
        Some((col, field))
    }
}

/// Parses the TSV format into a [`GraphBuilder`].
///
/// Syntax and structural validation (integer fields, dense node ids,
/// edge-endpoint ranges, id-space limits) happens here; errors carry the
/// 1-based line and column of the offending field. One line is in memory
/// at a time.
pub fn parse_tsv<R: BufRead>(mut input: R) -> Result<GraphBuilder, IoError> {
    let mut b = GraphBuilder::new();
    let mut buf = Vec::new();
    let mut tuple = Vec::new();
    let mut in_edges = false;
    let mut line_no = 0usize;
    loop {
        buf.clear();
        if input.read_until(b'\n', &mut buf)? == 0 {
            return Ok(b);
        }
        line_no += 1;
        // A line is what `BufRead::lines` yields: the bytes before `\n`
        // without a `\r` that precedes it, valid UTF-8 as a whole.
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        let line = std::str::from_utf8(&buf).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        let content = line.trim();
        if content.is_empty() {
            in_edges = true;
            continue;
        }
        if content.starts_with('#') {
            continue;
        }
        let err = |column: usize, message: String| parse_err(line_no, column, message);
        let mut fields = Fields {
            rest: Some(content),
            // Columns are anchored to the line as sent, not to the trimmed text.
            col: content.as_ptr() as usize - line.as_ptr() as usize + 1,
        };
        let (col, first) = fields.next().expect("a line has at least one field");
        if !in_edges {
            let id: u64 = parse_int(first)
                .map_err(|_| err(col, format!("node id must be an integer, found '{first}'")))?;
            let expected = b.node_count() as u64;
            if id != expected {
                return Err(err(
                    col,
                    format!("node ids must be dense (expected {expected}, got {id})"),
                ));
            }
            let (lcol, label) = fields
                .next()
                .ok_or_else(|| err(col, "missing node label".into()))?;
            tuple.clear();
            for (fcol, f) in fields {
                let (name, value) = f
                    .split_once('=')
                    .ok_or_else(|| err(fcol, format!("expected attr=value, found '{f}'")))?;
                // Interning order (module docs): the string value, then
                // the attribute name; the node label after the loop.
                let value = match value.strip_prefix("s:") {
                    Some(s) => AttrValue::Str(b.schema_mut().symbol(s)),
                    None => AttrValue::Int(parse_int(value).map_err(|_| {
                        err(
                            fcol + name.len() + 1,
                            format!("expected integer or s:string value, found '{value}'"),
                        )
                    })?),
                };
                let attr = b.schema_mut().try_attr(name);
                tuple.push((attr.map_err(|e| err(fcol, e.to_string()))?, value));
            }
            let label = b.schema_mut().try_node_label(label);
            b.add_node(label.map_err(|e| err(lcol, e.to_string()))?, &tuple);
        } else {
            let src: u32 = parse_int(first).map_err(|_| {
                err(
                    col,
                    format!("edge source must be an integer, found '{first}'"),
                )
            })?;
            let (lcol, label) = fields
                .next()
                .ok_or_else(|| err(col, "missing edge label".into()))?;
            let (dcol, dst_str) = fields
                .next()
                .ok_or_else(|| err(lcol, "missing edge target".into()))?;
            let dst: u32 = parse_int(dst_str).map_err(|_| {
                err(
                    dcol,
                    format!("edge target must be an integer, found '{dst_str}'"),
                )
            })?;
            if let Some((xcol, extra)) = fields.next() {
                return Err(err(
                    xcol,
                    format!("unexpected field '{extra}' after the edge target"),
                ));
            }
            let n = b.node_count();
            if src as usize >= n || dst as usize >= n {
                let col = if src as usize >= n { col } else { dcol };
                return Err(err(
                    col,
                    format!("edge endpoint out of range (graph has {n} nodes)"),
                ));
            }
            let label = b.schema_mut().try_edge_label(label);
            b.add_edge(
                NodeId(src),
                NodeId(dst),
                label.map_err(|e| err(lcol, e.to_string()))?,
            );
        }
    }
}

/// Reads a graph from the TSV format.
///
/// Errors carry the 1-based line and column of the offending field, so a
/// caller (e.g. the service's `load` op) can report them as structured,
/// machine-readable positions instead of opaque strings.
pub fn read_tsv<R: BufRead>(input: R) -> Result<Graph, IoError> {
    if let Some(fault) = fairsqg_faults::fire("graph.load") {
        let message = match fault {
            fairsqg_faults::Fault::Error(m) => m,
            fairsqg_faults::Fault::ReturnEarly => "graph load aborted (injected)".to_string(),
        };
        return Err(IoError::Io(std::io::Error::other(message)));
    }
    Ok(parse_tsv(input)?.finish())
}

/// Reads a graph from a TSV file, attaching the file path to any parse
/// error so multi-file failures stay attributable.
pub fn read_tsv_path(path: &Path) -> Result<Graph, IoError> {
    let file = std::fs::File::open(path)?;
    read_tsv(std::io::BufReader::new(file)).map_err(|e| e.with_path(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ids::AttrId;
    use std::io::BufReader;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        let us = b.schema_mut().symbol("US");
        let d = b.add_named_node("director", &[("gender", AttrValue::Int(1))]);
        let country = b.schema_mut().attr("country");
        let m = b.add_node(
            b.schema().find_node_label("director").unwrap(),
            &[(country, AttrValue::Str(us))],
        );
        b.add_named_edge(d, m, "knows");
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let g = sample();
        let mut buf = Vec::new();
        write_tsv(&g, &mut buf).unwrap();
        let g2 = read_tsv(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(
                g.schema().node_label_name(g.label(v)),
                g2.schema().node_label_name(g2.label(v))
            );
            assert_eq!(g.tuple(v).len(), g2.tuple(v).len());
        }
        // String attribute survives.
        let country = g2.schema().find_attr("country").unwrap();
        let val = g2.attr(NodeId(1), country).unwrap();
        match val {
            AttrValue::Str(s) => assert_eq!(g2.schema().symbol_value(s), "US"),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn rejects_sparse_node_ids() {
        let text = "0\ta\n2\ta\n\n";
        let err = read_tsv(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_dangling_edges() {
        let text = "0\ta\n\n0\te\t7\n";
        let err = read_tsv(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 3, .. }));
    }

    #[test]
    fn rejects_bad_attr_syntax() {
        let text = "0\ta\tbroken\n\n";
        let err = read_tsv(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_trailing_edge_fields() {
        let text = "0\ta\n1\ta\n\n0\tknows\t1\tjunk\n";
        let err = read_tsv(BufReader::new(text.as_bytes())).unwrap_err();
        // The first extra field starts at byte 11 of line 4.
        assert_eq!(err.position(), Some((4, 11)));
        assert!(err.to_string().contains("unexpected field 'junk'"));
        // An empty trailing field is still a field.
        let text = "0\ta\n\n0\tknows\t0\t\tx\n";
        let err = read_tsv(BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.position(), Some((3, 11)));
        // Trailing blanks are not: the line is trimmed first.
        let text = "0\ta\n\n0\tknows\t0 \t\r\n";
        assert_eq!(
            read_tsv(BufReader::new(text.as_bytes()))
                .unwrap()
                .edge_count(),
            1
        );
    }

    #[test]
    fn the_65537th_name_is_a_parse_error_not_an_alias() {
        // One node carrying 65 537 distinct attributes: the last one has
        // no id left. It used to wrap onto id 0 and load a wrong graph.
        let mut text = String::from("0\tn");
        for i in 0..=(u16::MAX as u32 + 1) {
            text.push_str(&format!("\ta{i}={i}"));
        }
        text.push_str("\n\n");
        let column = text.find("\ta65536=").unwrap() + 2;
        let err = read_tsv(BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.position(), Some((1, column)));
        assert!(err.to_string().contains("65536 distinct attribute names"));
        // One name fewer fills the id space exactly and loads.
        let text = text.replace("\ta65536=65536", "");
        let g = read_tsv(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.schema().attr_count(), 1 << 16);
        let last = g.schema().find_attr("a65535").unwrap();
        assert_eq!(g.attr(NodeId(0), last), Some(AttrValue::Int(65535)));
        assert_eq!(g.attr(NodeId(0), AttrId(0)), Some(AttrValue::Int(0)));

        // Labels are refused the same way, at their own column.
        let mut text = String::new();
        for i in 0..=(u16::MAX as u32 + 1) {
            text.push_str(&format!("{i}\tl{i}\n"));
        }
        let err = read_tsv(BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.position(), Some((65537, "65536\t".len() + 1)));
        let mut text = String::from("0\tn\n\n");
        for i in 0..=(u16::MAX as u32 + 1) {
            text.push_str(&format!("0\te{i}\t0\n"));
        }
        let err = read_tsv(BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.position(), Some((65537 + 2, 3)));
        assert!(err.to_string().contains("65536 distinct edge labels"));
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        // Bad attribute value on the third field of line 1.
        let text = "0\ta\tgender=x\n\n";
        let err = read_tsv(BufReader::new(text.as_bytes())).unwrap_err();
        let (line, column) = err.position().expect("parse error");
        assert_eq!(line, 1);
        // Field starts at byte 5 (1-based), value after "gender=".
        assert_eq!(column, 5 + "gender=".len());
        assert!(err.to_string().contains("line 1"));
        // Untracked source: no path.
        assert!(err.path().is_none());
    }

    #[test]
    fn path_errors_name_the_file() {
        let dir = std::env::temp_dir().join(format!("fairsqg-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bad.tsv");
        std::fs::write(&p, "0\ta\tgender=x\n\n").unwrap();
        let err = read_tsv_path(&p).unwrap_err();
        assert_eq!(err.path(), Some(p.display().to_string().as_str()));
        assert!(err.to_string().contains("bad.tsv"));
        assert!(err.to_string().contains("line 1"));
        let good = dir.join("good.tsv");
        std::fs::write(&good, "0\ta\n\n").unwrap();
        assert_eq!(read_tsv_path(&good).unwrap().node_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_tsv_path(Path::new("/nonexistent/fairsqg.tsv")).unwrap_err();
        assert!(matches!(err, IoError::Io(_)));
        assert!(err.path().is_none());
    }

    #[test]
    fn io_errors_have_no_position() {
        let e = IoError::from(std::io::Error::other("boom"));
        assert!(e.position().is_none());
    }

    #[test]
    fn empty_input_yields_empty_graph() {
        let g = read_tsv(BufReader::new("".as_bytes())).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
