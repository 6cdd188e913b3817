//! # fairsqg-wire
//!
//! A small, dependency-free JSON implementation backing the FairSQG wire
//! protocol (`fairsqg serve` / `fairsqg client`), the CLI's `--format
//! json` output, and the bench crate's workload export. The build
//! environment has no registry access, so `serde_json` is not available;
//! this crate covers the subset FairSQG needs: a [`Value`] model, a strict
//! UTF-8 parser, compact/pretty writers, and [`write_object`], which writes
//! a compact object from borrowed fields without building a [`Value`].
//!
//! Numbers are kept as either `i64` or `f64` ([`Value::Int`] /
//! [`Value::Float`]): job ids and counters stay exact, measure values stay
//! floating-point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decode;
mod frame;
mod parse;
mod write;

pub use decode::FrameDecoder;
pub use frame::FrameError;
pub use parse::{parse, ParseError};
pub use write::{to_string, to_string_pretty, write_object, Field};

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float (serialized via `f64`'s shortest round-trip form).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Keys are sorted (BTreeMap) so output is deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an `i64` (accepts exact floats too).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.2e18 => Some(f as i64),
            _ => None,
        }
    }

    /// This value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// This value as an `f64`, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// This value as a `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// This value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<u64> for Value {
    fn from(i: u64) -> Value {
        i64::try_from(i)
            .map(Value::Int)
            .unwrap_or(Value::Float(i as f64))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Value {
        Value::Int(i as i64)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Value {
        Value::from(i as u64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_roundtrip() {
        let v = Value::object([
            ("op", "submit".into()),
            ("deadline_ms", Value::Int(250)),
            ("eps", Value::Float(0.1)),
            ("tags", Value::from(vec![1i64, 2, 3])),
            ("nested", Value::object([("ok", Value::Bool(true))])),
            ("nothing", Value::Null),
        ]);
        let text = to_string(&v);
        let back = parse(&text).unwrap();
        assert_eq!(v, back);
        let pretty = to_string_pretty(&v);
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 3, "b": 2.5, "c": "x", "d": [1, true, null]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().as_i64(), None);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("d").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_bool(), Some(true));
        assert_eq!(arr[2], Value::Null);
    }

    #[test]
    fn u64_overflow_degrades_to_float() {
        let v = Value::from(u64::MAX);
        assert!(matches!(v, Value::Float(_)));
        assert_eq!(Value::from(7u64), Value::Int(7));
    }
}
