//! The workspace's JSON codec: every document `ftclos` and the bench
//! binaries emit is a [`Json`] value written here, and tooling that reads
//! JSON back — `ftclos stats` summarizing a trace, snapshot tests
//! normalizing volatile timing fields — parses with this module.
//!
//! The dialect is decided in one place:
//!
//! * **Strings** escape `"`, `\`, `\n`, `\r`, `\t` by name and every other
//!   control character below U+0020 as `\u00XX`; everything else, `/` and
//!   non-ASCII text included, is written as is.
//! * **Numbers** come in three forms: [`Json::Int`] (exact integers),
//!   [`Json::Fixed`] (a float with a fixed number of decimals, `{:.6}`) and
//!   [`Json::Num`] (a float in the shortest form that round-trips, with
//!   `.0` appended to integral values). A non-finite float of either kind
//!   is written as `null`.
//! * **Layout** is either compact ([`Json::write`], no whitespace) or the
//!   one pretty layout ([`Json::write_pretty`]).
//!
//! Objects are built entry by entry with [`Obj`]; arrays are collected from
//! any iterator of values convertible into [`Json`]. Object key order is
//! preserved on build, parse and re-emit, so a parse→write round trip of an
//! already-normalized document is stable.
//!
//! Hostile input is an error, never a crash: nesting deeper than
//! [`MAX_DEPTH`] is rejected before it can exhaust the stack, and numbers
//! that overflow `f64` are rejected instead of turning into infinities the
//! writer could only emit as `null`.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The workspace's
/// deepest documents (trace span trees) nest a few dozen levels.
pub const MAX_DEPTH: usize = 256;

/// A JSON value. Object entries keep their insertion (or source) order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer, written exactly. The parser produces it for every
    /// number literal without a fraction or exponent that fits.
    Int(i128),
    /// A float written in the shortest form that round-trips, with `.0`
    /// appended to integral values (`10.0`, `0.5`). The parser produces it
    /// for every other number literal.
    Num(f64),
    /// A float written with a fixed number of decimals (`Fixed(0.5, 3)` is
    /// `0.500`). Only built, never parsed.
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, entries in order.
    Obj(Vec<(String, Json)>),
}

/// Builds a [`Json::Obj`] entry by entry, in insertion order:
/// `Obj::new().field("n", 2).field("ok", true).build()`.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, Json)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `key: value`.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Append `key: value` when `value` is `Some`; `None` leaves the key
    /// out (pass the `Option` to [`Obj::field`] to write `null` instead).
    pub fn field_opt(self, key: &str, value: Option<impl Into<Json>>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// The finished object.
    pub fn build(self) -> Json {
        Json::Obj(self.0)
    }
}

macro_rules! into_json {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

into_json! {
    bool => |b| Json::Bool(b),
    i32 => |i| Json::Int(i.into()),
    u32 => |i| Json::Int(i.into()),
    u64 => |i| Json::Int(i.into()),
    // usize is at most 64 bits on every supported target.
    usize => |i| Json::Int(i as i128),
    // Beyond i128 only as an approximate float.
    u128 => |i| i128::try_from(i).map_or(Json::Num(i as f64), Json::Int),
    f64 => |n| Json::Num(n),
    &str => |s| Json::Str(s.to_string()),
    &String => |s| Json::Str(s.clone()),
    String => |s| Json::Str(s),
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects into a [`Json::Arr`].
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Parse a JSON document. Returns a message with byte offset on error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            text,
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (None for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(n) | Json::Fixed(n, _) => Some(n),
            _ => None,
        }
    }

    /// The value as u64, if a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            Json::Num(n) | Json::Fixed(n, _)
                if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 =>
            {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The value as &str, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact emission: no whitespace, key order preserved.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, None);
        out
    }

    /// The pretty layout, ending in a newline: each entry of the top-level
    /// container, and of each non-empty container directly under it, on a
    /// line of its own (`"key": value` for objects, indented two spaces per
    /// level); anything nested deeper is compact.
    pub fn write_pretty(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Write `self`, laid out one entry per line at nesting `depth` when it
    /// is `Some`, compactly when it is `None`.
    fn write_into(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(n) => write_float(out, *n, None),
            Json::Fixed(n, places) => write_float(out, *n, Some(*places)),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => write_container(out, depth, ('[', ']'), items, |out, v, d| {
                v.write_into(out, d)
            }),
            Json::Obj(entries) => {
                let colon = if depth.is_some() { ": " } else { ":" };
                write_container(out, depth, ('{', '}'), entries, |out, (k, v), d| {
                    write_escaped(k, out);
                    out.push_str(colon);
                    v.write_into(out, d);
                })
            }
        }
    }

    /// Recursively zero every numeric field whose key ends in `suffix`
    /// (e.g. `_ns`). Snapshot tests scrub timing fields this way before
    /// comparing a trace against its golden file: the *shape* (keys, span
    /// paths, counts, counters) is pinned; wall-clock values are not.
    pub fn scrub_keys_ending(&mut self, suffix: &str) {
        match self {
            Json::Obj(entries) => {
                for (k, v) in entries.iter_mut() {
                    if k.ends_with(suffix) && v.as_f64().is_some() {
                        *v = Json::Int(0);
                    } else {
                        v.scrub_keys_ending(suffix);
                    }
                }
            }
            Json::Arr(items) => {
                for v in items.iter_mut() {
                    v.scrub_keys_ending(suffix);
                }
            }
            _ => {}
        }
    }
}

/// `[a,b]` / `{...}` compactly, or one item per line indented by the
/// nesting `depth`; an empty container is always `[]` / `{}`. Only the top
/// level and the containers directly under it are laid out by line.
fn write_container<T>(
    out: &mut String,
    depth: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let indent = depth.filter(|_| !items.is_empty());
    let child = indent.map(|d| d + 1).filter(|&d| d < 2);
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = indent {
            out.push('\n');
            out.push_str(&"  ".repeat(d + 1));
        }
        item(out, v, child);
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

/// A float in the shortest round-trip form with a `.0` on integral values,
/// or with `places` fixed decimals; `null` when it is not finite.
fn write_float(out: &mut String, n: f64, places: Option<usize>) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    match places {
        Some(p) => {
            let _ = write!(out, "{n:.p$}");
        }
        None => {
            // `Display` for f64 never uses exponent notation.
            let start = out.len();
            let _ = write!(out, "{n}");
            if !out[start..].contains('.') {
                out.push_str(".0");
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            // Surrogate pairs never appear in our writers;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar; `pos` only ever advances
                    // over whole scalars, so it sits on a char boundary.
                    let ch = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(format!("number out of range at byte {start}")),
            Err(_) => Err(format!("invalid number at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_workspace_dialect() {
        let doc = r#"{
  "trace_version": 1,
  "meta": {"command":"verify","args":"--hosts 4"},
  "spans": [
    {"path":"cmd.verify;engine.build","count":1,"total_ns":12345}
  ],
  "ok": true,
  "missing": null,
  "ratio": -0.5
}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("trace_version").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("meta")
                .and_then(|m| m.get("command"))
                .and_then(Json::as_str),
            Some("verify")
        );
        let spans = v.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(
            spans[0].get("path").and_then(Json::as_str),
            Some("cmd.verify;engine.build")
        );
        assert_eq!(spans[0].get("total_ns").and_then(Json::as_u64), Some(12345));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("missing"), Some(&Json::Null));
        assert_eq!(v.get("ratio").and_then(Json::as_f64), Some(-0.5));
    }

    #[test]
    fn roundtrip_is_stable() {
        let doc = r#"{"b":1,"a":[2,3,{"x":"y \"quoted\"\n"}],"n":null}"#;
        let v = Json::parse(doc).unwrap();
        let emitted = v.write();
        let v2 = Json::parse(&emitted).unwrap();
        assert_eq!(v, v2);
        assert_eq!(emitted, v2.write());
        // Key order preserved, not sorted.
        assert!(emitted.find("\"b\"").unwrap() < emitted.find("\"a\"").unwrap());
    }

    #[test]
    fn scrub_zeroes_timing_keys_recursively() {
        let doc = r#"{"wall_ns":987,"spans":[{"path":"a","total_ns":55,"self_ns":44,"count":3}],"counters":{"x_ns_like":1}}"#;
        let mut v = Json::parse(doc).unwrap();
        v.scrub_keys_ending("_ns");
        assert_eq!(v.get("wall_ns").and_then(Json::as_u64), Some(0));
        let span = &v.get("spans").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(span.get("total_ns").and_then(Json::as_u64), Some(0));
        assert_eq!(span.get("self_ns").and_then(Json::as_u64), Some(0));
        assert_eq!(span.get("count").and_then(Json::as_u64), Some(3));
        // Key merely *containing* _ns is untouched.
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("x_ns_like"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(
            err.contains(&format!("at byte {MAX_DEPTH}")),
            "error names the offending byte: {err}"
        );
        let objects = "{\"a\":".repeat(200_000);
        assert!(Json::parse(&objects).is_err());
        // The limit itself still parses, and balanced siblings do not add up.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
        let siblings = format!("[{}]", vec!["[[]]"; 1_000].join(","));
        assert!(Json::parse(&siblings).is_ok());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for text in ["1e999999", "-1e999999", "[1e400]", "{\"x\":-2e308}"] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.contains("out of range at byte"), "{text}: {err}");
        }
        assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
        assert_eq!(Json::parse("1e-400").unwrap().as_f64(), Some(0.0));
    }

    /// Write a string value, check the exact text when given, and parse it
    /// back to the same value.
    fn roundtrip_str(s: &str, expected: Option<&str>) {
        let text = Json::from(s).write();
        if let Some(e) = expected {
            assert_eq!(text, e);
        }
        assert_eq!(Json::parse(&text), Ok(Json::from(s)), "{text}");
    }

    #[test]
    fn escaper_roundtrips_every_string() {
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let expected = match c {
                '\n' => "\"\\n\"".to_string(),
                '\r' => "\"\\r\"".to_string(),
                '\t' => "\"\\t\"".to_string(),
                _ => format!("\"\\u{code:04x}\""),
            };
            roundtrip_str(&c.to_string(), Some(&expected));
        }
        roundtrip_str("\"", Some(r#""\"""#));
        roundtrip_str("\\", Some(r#""\\""#));
        roundtrip_str("/", Some(r#""/""#));
        assert_eq!(Json::parse(r#""\/""#), Ok(Json::from("/")));
        roundtrip_str(
            "Clos–Beneš 折り返し ✓ 🦀",
            Some("\"Clos–Beneš 折り返し ✓ 🦀\""),
        );
        let long: String = (0..10_000)
            .map(|i| ['a', '"', '\\', '\n', 'é', '\u{1}'][i % 6])
            .collect();
        assert_eq!(long.chars().count(), 10_000);
        roundtrip_str(&long, None);
        // Keys go through the same escaper.
        let doc = Obj::new().field("a\"\tb", 1).build();
        assert_eq!(doc.write(), r#"{"a\"\tb":1}"#);
        assert_eq!(Json::parse(&doc.write()), Ok(doc));
    }

    #[test]
    fn number_forms() {
        let cases = [
            (Json::from(12_345_678u64), "12345678", Some(12_345_678.0)),
            (Json::from(-7), "-7", Some(-7.0)),
            (
                Json::from(u64::MAX),
                "18446744073709551615",
                Some(u64::MAX as f64),
            ),
            (Json::Fixed(1.0, 6), "1.000000", Some(1.0)),
            (Json::Fixed(2.0 / 3.0, 3), "0.667", Some(0.667)),
            (Json::from(0.5), "0.5", Some(0.5)),
            (Json::from(1.0), "1.0", Some(1.0)),
            (Json::from(10.0), "10.0", Some(10.0)),
            (Json::from(-0.25), "-0.25", Some(-0.25)),
            (Json::from(f64::NAN), "null", None),
            (Json::from(f64::INFINITY), "null", None),
            (Json::Fixed(f64::NEG_INFINITY, 6), "null", None),
        ];
        for (value, text, parsed) in cases {
            assert_eq!(value.write(), text);
            assert_eq!(Json::parse(text).unwrap().as_f64(), parsed, "{text}");
        }
        // Integers parse back exactly, beyond f64's 53-bit mantissa too.
        assert_eq!(
            Json::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(Json::parse("-7"), Ok(Json::Int(-7)));
        assert_eq!(Json::parse("1.0"), Ok(Json::Num(1.0)));
        assert_eq!(Json::parse("1e2"), Ok(Json::Num(100.0)));
    }

    #[test]
    fn pretty_layout_expands_two_levels() {
        let doc = Obj::new()
            .field("v", 1)
            .field(
                "meta",
                Obj::new()
                    .field("a", "x")
                    .field("b", Json::Fixed(0.5, 2))
                    .build(),
            )
            .field(
                "rows",
                [Obj::new()
                    .field("p", [1, 2].into_iter().collect::<Json>())
                    .build()]
                .into_iter()
                .collect::<Json>(),
            )
            .field("empty", Vec::<u32>::new().into_iter().collect::<Json>())
            .field("none", Obj::new().build())
            .build();
        assert_eq!(
            doc.write_pretty(),
            "{\n  \"v\": 1,\n  \"meta\": {\n    \"a\": \"x\",\n    \"b\": 0.50\n  },\n  \
             \"rows\": [\n    {\"p\":[1,2]}\n  ],\n  \"empty\": [],\n  \"none\": {}\n}\n"
        );
        assert_eq!(
            doc.write(),
            r#"{"v":1,"meta":{"a":"x","b":0.50},"rows":[{"p":[1,2]}],"empty":[],"none":{}}"#
        );
        assert_eq!(
            Json::parse(&doc.write_pretty()).unwrap().write(),
            Json::parse(&doc.write()).unwrap().write()
        );
    }

    #[test]
    fn optional_fields_are_omitted_or_null() {
        let doc = Obj::new()
            .field_opt("gone", None::<u32>)
            .field_opt("kept", Some(3u32))
            .field("null", None::<u32>)
            .build();
        assert_eq!(doc.write(), r#"{"kept":3,"null":null}"#);
    }

    #[test]
    fn integers_reemit_without_decimal_point() {
        let v = Json::parse("{\"n\":12345678,\"f\":1.5}").unwrap();
        let out = v.write();
        assert!(out.contains("\"n\":12345678"));
        assert!(out.contains("\"f\":1.5"));
    }
}
