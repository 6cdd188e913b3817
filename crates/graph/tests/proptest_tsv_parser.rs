//! Differential test of the TSV parser against the parser it replaced.
//!
//! `oracle` is the previous implementation — a `String` per line, a `Vec`
//! of `split('\t')` fields, std `parse` on every integer, events into a
//! sink — moved here verbatim (only the sink trait is renamed). The
//! parser in `fairsqg_graph::io` reads bytes into one buffer, walks the
//! fields lazily and converts digit runs by hand; over generated
//! well-formed files and mutations of them the two must accept the same
//! inputs with the same builder contents, or fail with the same
//! `IoError` variant, line, column and message. The one deliberate
//! difference reachable here: an edge line with fields after the target
//! is now rejected at the first extra field.

use fairsqg_graph::{parse_tsv, AttrValue, GraphBuilder, IoError, NodeId};
use proptest::prelude::*;
use std::io::BufReader;

mod oracle {
    use fairsqg_graph::{IoError, NodeId};
    use std::io::BufRead;

    fn parse_err(line: usize, column: usize, message: String) -> IoError {
        IoError::Parse {
            path: None,
            line,
            column,
            message,
        }
    }

    /// A raw attribute value as it appears in the TSV text, before interning.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RawAttr<'a> {
        /// A bare integer value.
        Int(i64),
        /// A `s:`-prefixed string value (prefix stripped).
        Str(&'a str),
    }

    /// Receiver of validated TSV node/edge events.
    pub trait Sink {
        /// One node line: its label and `name=value` attributes in file order.
        fn node(&mut self, label: &str, attrs: &[(&str, RawAttr<'_>)]) -> std::io::Result<()>;

        /// One edge line `src --label--> dst`; endpoints already validated.
        fn edge(&mut self, src: NodeId, label: &str, dst: NodeId) -> std::io::Result<()>;

        /// Number of node events received so far (drives edge validation).
        fn node_count(&self) -> usize;
    }

    /// Splits one content line into its TAB-separated fields, each paired with
    /// its 1-based byte column in the original line.
    fn split_fields<'a>(line: &str, content: &'a str) -> Vec<(usize, &'a str)> {
        // `content` is `line` minus leading/trailing whitespace; its offset in
        // `line` anchors the column numbers to what the user actually sent.
        let base = content.as_ptr() as usize - line.as_ptr() as usize;
        let mut out = Vec::new();
        let mut pos = 0usize;
        for f in content.split('\t') {
            out.push((base + pos + 1, f));
            pos += f.len() + 1;
        }
        out
    }

    /// Parses the TSV format, feeding validated events into `sink`.
    pub fn parse_tsv<R: BufRead, S: Sink>(input: R, sink: &mut S) -> Result<(), IoError> {
        let mut in_edges = false;
        let mut expected_id: u64 = 0;
        for (i, line) in input.lines().enumerate() {
            let line_no = i + 1;
            let line = line?;
            let content = line.trim();
            if content.is_empty() {
                in_edges = true;
                continue;
            }
            if content.starts_with('#') {
                continue;
            }
            let fields = split_fields(&line, content);
            let mut fields = fields.into_iter();
            if !in_edges {
                let (col, id_str) = fields
                    .next()
                    .ok_or_else(|| parse_err(line_no, 1, "empty node line".into()))?;
                let id: u64 = id_str.parse().map_err(|_| {
                    parse_err(
                        line_no,
                        col,
                        format!("node id must be an integer, found '{id_str}'"),
                    )
                })?;
                if id != expected_id {
                    return Err(parse_err(
                        line_no,
                        col,
                        format!("node ids must be dense (expected {expected_id}, got {id})"),
                    ));
                }
                expected_id += 1;
                let (_, label) = fields
                    .next()
                    .ok_or_else(|| parse_err(line_no, col, "missing node label".into()))?;
                let mut attrs: Vec<(&str, RawAttr<'_>)> = Vec::new();
                for (fcol, f) in fields {
                    let (name, value) = f.split_once('=').ok_or_else(|| {
                        parse_err(line_no, fcol, format!("expected attr=value, found '{f}'"))
                    })?;
                    let raw = if let Some(s) = value.strip_prefix("s:") {
                        RawAttr::Str(s)
                    } else {
                        RawAttr::Int(value.parse().map_err(|_| {
                            parse_err(
                                line_no,
                                fcol + name.len() + 1,
                                format!("expected integer or s:string value, found '{value}'"),
                            )
                        })?)
                    };
                    attrs.push((name, raw));
                }
                sink.node(label, &attrs)?;
            } else {
                let (col, src_str) = fields
                    .next()
                    .ok_or_else(|| parse_err(line_no, 1, "empty edge line".into()))?;
                let src: u32 = src_str.parse().map_err(|_| {
                    parse_err(
                        line_no,
                        col,
                        format!("edge source must be an integer, found '{src_str}'"),
                    )
                })?;
                let (lcol, label) = fields
                    .next()
                    .ok_or_else(|| parse_err(line_no, col, "missing edge label".into()))?;
                let (dcol, dst_str) = fields
                    .next()
                    .ok_or_else(|| parse_err(line_no, lcol, "missing edge target".into()))?;
                let dst: u32 = dst_str.parse().map_err(|_| {
                    parse_err(
                        line_no,
                        dcol,
                        format!("edge target must be an integer, found '{dst_str}'"),
                    )
                })?;
                if src as usize >= sink.node_count() || dst as usize >= sink.node_count() {
                    let col = if src as usize >= sink.node_count() {
                        col
                    } else {
                        dcol
                    };
                    return Err(parse_err(
                        line_no,
                        col,
                        format!(
                            "edge endpoint out of range (graph has {} nodes)",
                            sink.node_count()
                        ),
                    ));
                }
                sink.edge(NodeId(src), label, NodeId(dst))?;
            }
        }
        Ok(())
    }
}

/// The previous `read_tsv` sink: replays the oracle's events into a
/// [`GraphBuilder`] through its public API, interning in the documented
/// order. The builder it leaves behind *is* the event stream — labels,
/// attribute runs, edges in file order with duplicates, and the schema
/// ids the interning order assigned.
struct Replay(GraphBuilder);

impl oracle::Sink for Replay {
    fn node(&mut self, label: &str, attrs: &[(&str, oracle::RawAttr<'_>)]) -> std::io::Result<()> {
        let mut tuple = Vec::with_capacity(attrs.len());
        for &(name, raw) in attrs {
            let value = match raw {
                oracle::RawAttr::Str(s) => AttrValue::Str(self.0.schema_mut().symbol(s)),
                oracle::RawAttr::Int(i) => AttrValue::Int(i),
            };
            let attr = self.0.schema_mut().attr(name);
            tuple.push((attr, value));
        }
        let label = self.0.schema_mut().node_label(label);
        self.0.add_node(label, &tuple);
        Ok(())
    }

    fn edge(&mut self, src: NodeId, label: &str, dst: NodeId) -> std::io::Result<()> {
        let label = self.0.schema_mut().edge_label(label);
        self.0.add_edge(src, dst, label);
        Ok(())
    }

    fn node_count(&self) -> usize {
        self.0.node_count()
    }
}

fn old_parser(bytes: &[u8]) -> Result<GraphBuilder, IoError> {
    let mut sink = Replay(GraphBuilder::new());
    oracle::parse_tsv(BufReader::new(bytes), &mut sink)?;
    Ok(sink.0)
}

/// What an error is compared on: variant, position and full message.
fn error_key(e: &IoError) -> String {
    match e {
        IoError::Io(e) => format!("io {:?}: {e}", e.kind()),
        IoError::Parse {
            path,
            line,
            column,
            message,
        } => format!("parse {path:?} {line}:{column}: {message}"),
    }
}

/// Field values that sit on the edges of what the integer and attribute
/// syntax accepts.
const FIELDS: &[&str] = &[
    "",
    "0",
    "7",
    "007",
    "+7",
    "-7",
    "-0",
    "+",
    "-",
    " 7",
    "7 ",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "9999999999999999999",
    "18446744073709551615",
    "18446744073709551616",
    "00000000000000000000007",
    "x",
    "１",
    "é",
    "a",
    "a=",
    "=1",
    "a=1",
    "a==1",
    "a=+7",
    "a=-9223372036854775808",
    "a=9223372036854775808",
    "a=s:",
    "a=s:b=c",
    "a=s",
    "a= 1",
    "b=s:US",
    "#",
];

/// Blanks `trim` strips (and two it does not: NUL and the BOM).
const BLANKS: &[&str] = &[
    " ", "\t", "\r", "\u{b}", "\u{c}", "\u{a0}", "\u{2003}", "\u{3000}", "\u{85}", "\0", "\u{feff}",
];

const BYTES: &[u8] = &[
    0x00, b'\t', b'\n', b'\r', b' ', b'=', b'#', b':', b's', b'-', b'+', b'0', b'9', b'a', 0x80,
    0xc3, 0xe2, 0xff,
];

fn pick<'a, T: ?Sized>(rng: &mut TestRng, from: &[&'a T]) -> &'a T {
    from[rng.below(from.len() as u64) as usize]
}

/// A well-formed file as lines of fields, then up to three mutations of
/// its lines, then the serialized bytes with up to two byte mutations.
fn generate(seed: u64) -> Vec<u8> {
    let rng = &mut TestRng::from_seed(seed);
    let n = 1 + rng.below(6) as usize;
    let mut lines: Vec<Vec<String>> = vec![vec!["# nodes".into()]];
    for id in 0..n {
        let mut line = vec![id.to_string(), pick(rng, &["l0", "l1", ""]).to_string()];
        for _ in 0..rng.below(4) {
            let name = pick(rng, &["a", "b", "c", ""]);
            let value = match rng.below(4) {
                0 => format!("s:{}", pick(rng, &["US", "x=y", "", "s:"])),
                1 => pick(
                    rng,
                    &["-9223372036854775808", "+7", "000", "9223372036854775807"],
                )
                .to_string(),
                _ => (rng.below(100) as i64 - 50).to_string(),
            };
            line.push(format!("{name}={value}"));
        }
        lines.push(line);
    }
    lines.push(vec![String::new()]);
    lines.push(vec!["# edges".into()]);
    // Endpoints are mostly in range; one in sixteen names node `n`.
    let endpoint = |rng: &mut TestRng| (rng.below(16 * n as u64 + 1) / 16).to_string();
    for _ in 0..rng.below(8) {
        let label = pick(rng, &["e0", "e1", ""]).to_string();
        lines.push(vec![endpoint(rng), label, endpoint(rng)]);
    }

    for _ in 0..rng.below(4) {
        let at = rng.below(lines.len() as u64) as usize;
        let field = rng.below(lines[at].len() as u64) as usize;
        match rng.below(7) {
            0 => lines[at][field] = pick(rng, FIELDS).to_string(),
            1 if lines[at].len() > 1 => {
                lines[at].remove(field);
            }
            1 => {}
            2 => lines[at].insert(field, pick(rng, FIELDS).to_string()),
            3 => lines[at].push(pick(rng, FIELDS).to_string()),
            4 => lines[at][0].insert_str(0, pick(rng, BLANKS)),
            5 => lines[at].last_mut().unwrap().push_str(pick(rng, BLANKS)),
            // A blank (or whitespace-only) line: inside the node section
            // it starts the edge section early, inside the edge section
            // it changes nothing.
            _ => lines.insert(at, vec![pick(rng, &["", " ", "\u{2003}\t"]).to_string()]),
        }
    }

    let eol = pick(rng, &["\n", "\r\n"]);
    let mut bytes = Vec::new();
    for line in &lines {
        bytes.extend_from_slice(line.join("\t").as_bytes());
        bytes.extend_from_slice(eol.as_bytes());
    }
    if rng.below(4) == 0 {
        bytes.truncate(bytes.len() - eol.len());
    }
    for _ in 0..rng.below(3) {
        let at = rng.below(bytes.len() as u64) as usize;
        let byte = BYTES[rng.below(BYTES.len() as u64) as usize];
        match rng.below(3) {
            0 => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ => {
                bytes.remove(at);
            }
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn new_parser_agrees_with_the_old_one(seed in 0u64..u64::MAX) {
        let bytes = generate(seed);
        let shown = String::from_utf8_lossy(&bytes).into_owned();
        let old = old_parser(&bytes);
        match (parse_tsv(BufReader::new(bytes.as_slice())), old) {
            (Ok(new), Ok(old)) => prop_assert!(new == old, "builders differ on {shown:?}"),
            (Err(new), Err(old)) if error_key(&new) == error_key(&old) => {}
            (Err(new), old) if new.to_string().contains("unexpected field") => {
                // The deliberate rejection: the named line is an edge line
                // with more than three fields, and the old parser had no
                // complaint up to and including it (it may still reject
                // the line's endpoints, which are now checked second).
                let (line, _) = new.position().unwrap();
                let text = shown.split('\n').nth(line - 1).unwrap();
                prop_assert!(text.trim().split('\t').count() > 3, "{text:?} in {shown:?}");
                if let Err(old @ IoError::Parse { .. }) = old {
                    let old_line = old.position().map(|p| p.0);
                    prop_assert!(old_line >= Some(line), "{} on {shown:?}", error_key(&old));
                }
            }
            (new, old) => prop_assert!(
                false,
                "new {:?} vs old {:?} on {shown:?}",
                new.as_ref().map(|_| "ok").map_err(error_key),
                old.as_ref().map(|_| "ok").map_err(error_key)
            ),
        }
    }
}

/// The generator reaches what it claims to: most files parse, and every
/// error family of the parser occurs.
#[test]
fn generator_covers_accepts_and_every_error_family() {
    let mut accepted = 0;
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..4096 {
        match parse_tsv(BufReader::new(generate(seed).as_slice())) {
            Ok(_) => accepted += 1,
            Err(IoError::Io(_)) => {
                seen.insert("invalid utf-8");
            }
            Err(e) => {
                let text = e.to_string();
                for family in [
                    "node id must be an integer",
                    "node ids must be dense",
                    "missing node label",
                    "expected attr=value",
                    "expected integer or s:string value",
                    "edge source must be an integer",
                    "missing edge label",
                    "missing edge target",
                    "edge target must be an integer",
                    "unexpected field",
                    "edge endpoint out of range",
                ] {
                    if text.contains(family) {
                        seen.insert(family);
                    }
                }
            }
        }
    }
    assert!(accepted > 400, "only {accepted} of 4096 files parse");
    assert_eq!(seen.len(), 12, "error families seen: {seen:?}");
}
