//! Compact and pretty JSON writers, and [`write_object`], which writes a
//! compact object straight from borrowed fields.

use crate::Value;
use std::fmt;

/// Serializes `v` compactly (no whitespace).
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    out
}

/// Serializes `v` with two-space indentation.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    out
}

/// One field of an object written by [`write_object`]: a borrowed
/// [`Value`], a scalar or array the caller holds in another form, or JSON
/// the caller encoded earlier.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, written as `Value::from(u64)` would be.
    U64(u64),
    /// A string.
    Str(&'a str),
    /// Any value.
    Value(&'a Value),
    /// An array of values.
    Values(&'a [Value]),
    /// An array of borrowed values.
    Refs(&'a [&'a Value]),
    /// An array of strings.
    Strs(&'a [String]),
    /// Compact JSON text, copied verbatim — for a value encoded once (by
    /// [`to_string`]) and written into many objects.
    Json(&'a str),
}

/// Appends the compact JSON object holding `fields` to `out`, without
/// building a [`Value`]. The bytes are exactly what [`to_string`] writes
/// for `Value::Object` built from the same pairs: keys in byte order, and
/// of two equal keys the later one wins. Sorts `fields` in place.
pub fn write_object(out: &mut Vec<u8>, fields: &mut [(&str, Field<'_>)]) {
    // Stable, so the last of equal keys stays last — the one kept.
    fields.sort_by(|a, b| a.0.cmp(b.0));
    out.push(b'{');
    let mut first = true;
    for (i, (key, field)) in fields.iter().enumerate() {
        if fields.get(i + 1).is_some_and(|next| next.0 == *key) {
            continue;
        }
        if !first {
            out.push(b',');
        }
        first = false;
        write_string(out, key);
        out.push(b':');
        write_field(out, field);
    }
    out.push(b'}');
}

fn write_field(out: &mut Vec<u8>, field: &Field<'_>) {
    match *field {
        Field::Bool(b) => out.put(if b { "true" } else { "false" }),
        Field::U64(n) => match i64::try_from(n) {
            Ok(i) => out.put_fmt(format_args!("{i}")),
            Err(_) => write_float(out, n as f64),
        },
        Field::Str(s) => write_string(out, s),
        Field::Value(v) => write_value(out, v, None, 0),
        Field::Values(items) => write_array(out, items, |out, v| write_value(out, v, None, 0)),
        Field::Refs(items) => write_array(out, items, |out, v| write_value(out, v, None, 0)),
        Field::Strs(items) => write_array(out, items, |out, s| write_string(out, s)),
        Field::Json(text) => out.put(text),
    }
}

/// A compact array of `items`, each written by `each`.
fn write_array<T>(out: &mut Vec<u8>, items: &[T], mut each: impl FnMut(&mut Vec<u8>, &T)) {
    out.push(b'[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        each(out, item);
    }
    out.push(b']');
}

/// Where the writers append text: a `String` for [`to_string`], the
/// caller's byte buffer for [`write_object`].
trait Out {
    fn put(&mut self, s: &str);
    fn put_fmt(&mut self, args: fmt::Arguments<'_>);
}

impl Out for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
    fn put_fmt(&mut self, args: fmt::Arguments<'_>) {
        let _ = fmt::Write::write_fmt(self, args);
    }
}

impl Out for Vec<u8> {
    fn put(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
    fn put_fmt(&mut self, args: fmt::Arguments<'_>) {
        let _ = std::io::Write::write_fmt(self, args);
    }
}

fn write_value(out: &mut impl Out, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.put("null"),
        Value::Bool(true) => out.put("true"),
        Value::Bool(false) => out.put("false"),
        Value::Int(i) => out.put_fmt(format_args!("{i}")),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.put("[]");
                return;
            }
            out.put("[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.put(",");
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.put("]");
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.put("{}");
                return;
            }
            out.put("{");
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.put(",");
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.put(":");
                if indent.is_some() {
                    out.put(" ");
                }
                write_value(out, val, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.put("}");
        }
    }
}

fn newline_indent(out: &mut impl Out, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.put("\n");
        for _ in 0..width * level {
            out.put(" ");
        }
    }
}

/// JSON has no NaN/Infinity; map them to null like `JSON.stringify` does.
fn write_float(out: &mut impl Out, f: f64) {
    if f.is_finite() {
        if f == f.trunc() && f.abs() < 1e15 {
            // Keep a ".0" so the value parses back as a float.
            out.put_fmt(format_args!("{f:.1}"));
        } else {
            out.put_fmt(format_args!("{f}"));
        }
    } else {
        out.put("null");
    }
}

/// Writes `s` quoted, pushing each run that needs no escape in one piece.
fn write_string(out: &mut impl Out, s: &str) {
    out.put("\"");
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `run..i` ends on a char boundary.
        out.put(&s[run..i]);
        if escape.is_empty() {
            out.put_fmt(format_args!("\\u{b:04x}"));
        } else {
            out.put(escape);
        }
        run = i + 1;
    }
    out.put(&s[run..]);
    out.put("\"");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn compact_and_pretty_agree() {
        let v = Value::object([
            ("b", Value::from(vec![1i64, 2])),
            ("a", Value::Str("x\"y\n".into())),
        ]);
        let compact = to_string(&v);
        assert!(!compact.contains('\n'));
        assert_eq!(parse(&compact).unwrap(), v);
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_as_floats() {
        let v = Value::Float(3.0);
        assert_eq!(to_string(&v), "3.0");
        assert_eq!(parse("3.0").unwrap(), v);
        assert_eq!(to_string(&Value::Float(f64::NAN)), "null");
    }

    #[test]
    fn control_chars_are_escaped() {
        let v = Value::Str("\u{1}".into());
        assert_eq!(to_string(&v), "\"\\u0001\"");
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    /// The per-char writer `write_string` replaced, kept as its oracle.
    fn write_string_per_char(out: &mut String, s: &str) {
        use std::fmt::Write as _;
        out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn write_string_matches_the_per_char_writer() {
        let long = "abcdefghij".repeat(500);
        let cases = [
            "",
            "plain",
            "\"",
            "say \"hi\"",
            "\\",
            "a\\b\\\\c",
            "\n\r\t",
            "line\nbreak\r\ttab",
            "\u{1}",
            "\u{1f}",
            "x\u{1}y\u{1f}z\u{0}",
            "é",
            "中文",
            "🦀 crab",
            "é\"中\\🦀\n\u{7}",
            long.as_str(),
            &format!("{long}\"{long}\n{long}"),
        ];
        for s in cases {
            let mut old = String::new();
            write_string_per_char(&mut old, s);
            let mut new = String::new();
            write_string(&mut new, s);
            assert_eq!(new, old, "{s:?}");
            let mut bytes = Vec::new();
            write_string(&mut bytes, s);
            assert_eq!(bytes, old.as_bytes(), "{s:?}");
        }
    }

    #[test]
    fn write_object_matches_value_objects() {
        let entry = Value::object([
            ("bindings", Value::from("x=1")),
            ("score", Value::Float(0.25)),
        ]);
        let entries = vec![entry.clone(), Value::Null];
        let names = vec!["a\"b".to_string(), "é".to_string()];
        let refs = [&entry, &entries[1]];
        let encoded = to_string(&Value::Array(entries.clone()));
        let mut fields = vec![
            ("zeta", Field::Bool(true)),
            ("id", Field::U64(7)),
            ("huge", Field::U64(u64::MAX)),
            ("name", Field::Str("q\n")),
            ("entry", Field::Value(&entry)),
            ("entries", Field::Values(&entries)),
            ("none", Field::Values(&[])),
            ("refs", Field::Refs(&refs)),
            ("names", Field::Strs(&names)),
            ("no_names", Field::Strs(&[])),
            ("json", Field::Json(&encoded)),
            ("id", Field::U64(8)),
        ];
        let oracle = Value::object([
            ("zeta", Value::Bool(true)),
            ("id", Value::from(7u64)),
            ("huge", Value::from(u64::MAX)),
            ("name", Value::from("q\n")),
            ("entry", entry.clone()),
            ("entries", Value::Array(entries.clone())),
            ("none", Value::Array(Vec::new())),
            (
                "refs",
                Value::Array(refs.iter().map(|v| (*v).clone()).collect()),
            ),
            ("names", Value::from(names.clone())),
            ("no_names", Value::Array(Vec::new())),
            ("json", Value::Array(entries.clone())),
            ("id", Value::from(8u64)),
        ]);
        let mut out = Vec::new();
        write_object(&mut out, &mut fields);
        assert_eq!(String::from_utf8(out).unwrap(), to_string(&oracle));
        let mut out = b"prefix".to_vec();
        write_object(&mut out, &mut []);
        assert_eq!(out, b"prefix{}");
    }
}
