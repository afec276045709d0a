//! A minimal, dependency-free JSON value type with a deterministic
//! writer and a strict parser.
//!
//! The experiment harness emits machine-readable artifacts
//! (`results/*.json`) next to the human-readable stdout tables. The
//! workspace builds offline with zero external crates, so this module
//! hand-rolls the small subset of JSON the harness needs:
//!
//! * Objects preserve **insertion order** (they are a `Vec` of pairs,
//!   not a map), so serialization is deterministic: the same value
//!   always produces the same bytes. This is what lets the harness
//!   promise byte-identical artifacts regardless of `--jobs`.
//! * Numbers distinguish unsigned/signed integers from floats.
//!   Integers print exactly; floats use Rust's shortest
//!   round-trip `{}` formatting. Non-finite floats serialize as
//!   `null` (JSON has no NaN/Infinity).
//! * The parser accepts exactly the JSON this writer produces (plus
//!   arbitrary standard JSON), for round-trip tests and future result
//!   ingestion (regression tracking against stored baselines).
//!
//! # Examples
//!
//! ```
//! use tdc_util::json::Json;
//!
//! let j = Json::obj([
//!     ("workload", Json::from("mcf")),
//!     ("ipc", Json::from(1.25)),
//!     ("reads", Json::from(1024u64)),
//! ]);
//! let text = j.pretty();
//! let back = Json::parse(&text).expect("round-trips");
//! assert_eq!(j, back);
//! ```

use std::fmt;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the serialization of non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, printed exactly.
    U64(u64),
    /// A signed integer, printed exactly.
    I64(i64),
    /// A double; serialized with shortest round-trip formatting.
    F64(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }

    /// Builds an array from values.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Appends a field to an object. Panics on non-objects.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value.into())),
            #[expect(
                clippy::panic,
                reason = "documented: pushing onto a non-object is a caller bug"
            )]
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// Looks a field up in an object (linear scan; objects are small).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an f64 if it is any kind of number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a u64 if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation and a trailing
    /// newline — the `results/*.json` artifact format.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. The entire input must be one value plus
    /// optional trailing whitespace.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Keep a ".0" so the value parses back as a float.
        out.push_str(&format!("{v:.1}"));
    } else {
        out.push_str(&format!("{v}"));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Containers parse by recursion, so nesting depth is stack depth;
/// the cap turns a hostile `[[[[…` input into a parse error instead
/// of a stack overflow. 128 is far beyond any legitimate tdc payload
/// (real artifacts nest single digits deep).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("containers nested deeper than 128 levels"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain UTF-8 up to the next quote/escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{08}'),
                        Some(b'f') => s.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane chars.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            s.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote:\" backslash:\\ newline:\n tab:\t ctrl:\u{01} unicode:π 🦀";
        let j = Json::obj([("s", nasty)]);
        let text = j.pretty();
        assert!(text.contains("\\\""));
        assert!(text.contains("\\\\"));
        assert!(text.contains("\\n"));
        assert!(text.contains("\\u0001"));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("s").unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn nested_objects_preserve_order() {
        let j = Json::obj([
            ("z", Json::from(1u64)),
            ("a", Json::obj([("inner", Json::arr([1u64, 2, 3]))])),
            ("m", Json::Null),
        ]);
        let compact = j.to_compact();
        assert_eq!(compact, r#"{"z":1,"a":{"inner":[1,2,3]},"m":null}"#);
        assert_eq!(Json::parse(&compact).unwrap(), j);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        let j = Json::arr([
            Json::U64(u64::MAX),
            Json::I64(-42),
            Json::F64(0.1),
            Json::F64(1.0),
            Json::F64(1.25e-9),
            Json::F64(f64::NAN), // becomes null
        ]);
        let back = Json::parse(&j.to_compact()).unwrap();
        match &back {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::U64(u64::MAX));
                assert_eq!(items[1], Json::I64(-42));
                assert_eq!(items[2], Json::F64(0.1));
                assert_eq!(items[3], Json::F64(1.0));
                assert_eq!(items[4], Json::F64(1.25e-9));
                assert_eq!(items[5], Json::Null);
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("[1] trailing").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn parses_standard_json() {
        let text = r#"
            { "pi": 3.14159, "big": 18446744073709551615,
              "neg": -7, "arr": [true, false, null, "xé🦀"],
              "empty_obj": {}, "empty_arr": [] }
        "#;
        let j = Json::parse(text).unwrap();
        assert_eq!(j.get("big").unwrap().as_u64().unwrap(), u64::MAX);
        assert_eq!(j.get("neg").unwrap(), &Json::I64(-7));
        match j.get("arr").unwrap() {
            Json::Arr(a) => assert_eq!(a[3].as_str().unwrap(), "xé🦀"),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parse_caps_container_nesting() {
        let ok = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());

        let arrays = format!("{}0{}", "[".repeat(500), "]".repeat(500));
        let err = Json::parse(&arrays).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");

        let objects = format!("{}1{}", r#"{"k":"#.repeat(500), "}".repeat(500));
        assert!(Json::parse(&objects).is_err());

        // The cap counts *open* containers, so siblings don't
        // accumulate: many shallow containers stay parseable.
        let siblings = format!("[{}0]", "[0],".repeat(500));
        assert!(Json::parse(&siblings).is_ok());
    }

    #[test]
    fn pretty_output_shape() {
        let j = Json::obj([("a", Json::arr([1u64]))]);
        assert_eq!(j.pretty(), "{\n  \"a\": [\n    1\n  ]\n}\n");
    }
}
