//! A small JSON document model with a deterministic serializer.
//!
//! Object members keep their insertion order, numbers keep their integer
//! vs float identity, and floats render with Rust's shortest-roundtrip
//! formatting — so the same data always serializes to byte-identical
//! text. That property is load-bearing: the experiment suite asserts that
//! two runs with the same root seed produce byte-identical
//! `BENCH_suite.json`, which makes the artifact diffable across commits.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (most simulator counters).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float. Non-finite values serialize as `null` (JSON has no NaN).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members serialize in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Appends a member to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push_member(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(members) => members.push((key.into(), value)),
            other => panic!("push_member on non-object {other:?}"),
        }
    }

    /// Looks up a member of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, coercing integers.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::F64(v) => Some(v),
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with 2-space indentation, trailing newline — the format
    /// of `BENCH_suite.json`.
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
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

/// Shortest-roundtrip float formatting; non-finite values become `null`.
/// Integral floats gain a `.0` so they stay floats on re-parse.
fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error from [`Json::parse`]: byte offset of the failure plus a short
/// description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum nesting depth [`Json::parse`] accepts — a parser of files
/// from outside the program must not let `[[[[…` exhaust the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.expect_word("null", Json::Null),
            Some(b't') => self.expect_word("true", Json::Bool(true)),
            Some(b'f') => self.expect_word("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => self.err(format!("unexpected byte {:?}", b as char)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return self.err("expected `,` or `]`");
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.pos += 1; // {
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return self.err("expected string key");
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return self.err("expected `:`");
            }
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(members));
            }
            if !self.eat(b',') {
                return self.err("expected `,` or `}`");
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a low surrogate.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return self.err("lone high surrogate");
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(cp) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                        }
                        other => return self.err(format!("invalid escape `\\{}`", other as char)),
                    }
                }
                _ if b < 0x20 => return self.err("raw control character in string"),
                _ => {
                    // Re-borrow the full UTF-8 character. The parser only
                    // ever advances by whole characters, so `start` is a
                    // char boundary of the input `&str`.
                    let start = self.pos - 1;
                    let Some(c) = self.text.get(start..).and_then(|s| s.chars().next()) else {
                        return Err(ParseError {
                            offset: start,
                            message: "invalid utf-8".into(),
                        });
                    };
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return self.err("truncated \\u escape");
            };
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return self.err("invalid hex digit"),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let _ = self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.eat(b'.') {
            float = true;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !float {
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::F64(v)),
            Err(_) => {
                self.pos = start;
                self.err(format!("invalid number `{text}`"))
            }
        }
    }
}

impl Json {
    /// Parses a JSON document (the inverse of [`Json::dump`] /
    /// [`Json::pretty`]). Integers without fraction or exponent parse to
    /// [`Json::U64`] (or [`Json::I64`] when negative); everything else
    /// numeric becomes [`Json::F64`]. Duplicate object keys are kept in
    /// order ([`Json::get`] returns the first). Trailing non-whitespace
    /// input is an error.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing characters after document");
        }
        Ok(v)
    }
}

/// Conversion into the telemetry report tree. Implemented by every
/// counter struct in the workspace (`SimStats`, `CsdStats`, cache and
/// energy statistics, …).
pub trait ToJson {
    /// The value as a JSON subtree.
    fn to_json(&self) -> Json;
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_is_deterministic_and_ordered() {
        let doc = Json::obj([
            ("b", Json::from(1u64)),
            (
                "a",
                Json::arr([Json::from(0.5), Json::from(-3i64), Json::Null]),
            ),
        ]);
        assert_eq!(doc.dump(), r#"{"b":1,"a":[0.5,-3,null]}"#);
        assert_eq!(doc.dump(), doc.clone().dump());
    }

    #[test]
    fn floats_round_trip_and_nan_is_null() {
        assert_eq!(Json::from(0.1).dump(), "0.1");
        assert_eq!(Json::from(2.0).dump(), "2.0");
        assert_eq!(Json::from(f64::NAN).dump(), "null");
        assert_eq!(Json::from(f64::INFINITY).dump(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::from("a\"b\\c\n").dump(), r#""a\"b\\c\n""#);
        assert_eq!(Json::from("\u{1}").dump(), "\"\\u0001\"");
    }

    #[test]
    fn accessors() {
        let doc = Json::obj([("x", Json::from(3u64)), ("s", Json::from("hi"))]);
        assert_eq!(doc.get("x").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("x").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parse_round_trips_documents() {
        let docs = [
            r#"{"b":1,"a":[0.5,-3,null],"s":"hi\n","t":true}"#,
            r#"[]"#,
            r#"{}"#,
            r#"[18446744073709551615,-9223372036854775808,1e3]"#,
            r#""Aé😀""#,
        ];
        for d in docs {
            let v = Json::parse(d).unwrap();
            assert_eq!(Json::parse(&v.dump()).unwrap(), v, "round-trip of {d}");
        }
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::from("\u{1F600}"));
    }

    #[test]
    fn parse_preserves_number_identity() {
        assert_eq!(Json::parse("7").unwrap(), Json::U64(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::F64(7.0));
        assert_eq!(Json::parse("1e2").unwrap(), Json::F64(100.0));
        // Too big for u64: falls back to float rather than failing.
        assert!(matches!(
            Json::parse("99999999999999999999999").unwrap(),
            Json::F64(_)
        ));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            r#"{"a"}"#,
            "1 2",
            "\"\u{1}\"",
            "[1]]",
            "nul",
            "--1",
            r#""\ud83d""#,
            r#""\q""#,
        ] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err(), "must bound nesting depth");
    }

    #[test]
    fn parse_whitespace_and_duplicate_keys() {
        let v = Json::parse(" {\n\t\"a\" : 1 , \"a\" : 2 } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn pretty_prints_with_indentation() {
        let doc = Json::obj([("a", Json::arr([Json::from(1u64)]))]);
        assert_eq!(doc.pretty(), "{\n  \"a\": [\n    1\n  ]\n}\n");
        assert_eq!(Json::obj::<String>([]).pretty(), "{}\n");
    }
}
