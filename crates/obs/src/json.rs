//! Minimal JSON value model, emitter and parser.
//!
//! One emitter serves every machine-readable surface in the workspace
//! (JSON-lines metrics, run reports, `repro info --json`), so escaping and
//! number formatting are decided in exactly one place. Objects preserve
//! insertion order, which keeps output deterministic. The matching
//! [`Json::parse`] reads documents back — what `dpl-store` uses to load a
//! sharded campaign's manifest.

use std::fmt::Write as _;

/// A JSON value. Objects are ordered lists of key/value pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (emitted without a decimal point).
    U64(u64),
    /// Wide unsigned integer (histogram sums).
    U128(u128),
    /// Signed integer.
    I64(i64),
    /// Finite float, emitted with Rust's shortest round-trip formatting.
    /// Non-finite values are emitted as `null`.
    F64(f64),
    /// String (escaped on emission).
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with insertion-ordered fields.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for objects.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Renders compact JSON (no whitespace), suitable for JSON-lines.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_value(&mut out, None, 0);
        out
    }

    /// Renders pretty JSON indented by two spaces per level.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_value(&mut out, Some(2), 0);
        out
    }

    /// Parses a JSON document.
    ///
    /// Numbers without a fraction or exponent parse as [`Json::U64`] (or
    /// [`Json::I64`] when negative) and fall back to [`Json::F64`] when
    /// they do not fit; everything else parses as [`Json::F64`]. Duplicate
    /// object keys are kept in document order, matching the emitter's
    /// ordered-fields model.
    ///
    /// # Errors
    ///
    /// Returns a rendered message with the byte offset of the first
    /// violation (malformed syntax, trailing garbage, nesting deeper than
    /// 128 levels, invalid escapes or non-UTF-8 escape sequences).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.at != parser.bytes.len() {
            return Err(format!(
                "trailing bytes after the JSON document at offset {}",
                parser.at
            ));
        }
        Ok(value)
    }

    /// Looks up a field of an object (first match, document order).
    pub fn field(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a float ([`Json::F64`] or any integer variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(n) => Some(*n as f64),
            Json::U128(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Recursion guard: no machine-written document in this workspace nests
/// anywhere near this deep, and the cap keeps hostile inputs from
/// overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                char::from(b),
                self.at
            ))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.at
            ));
        }
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected byte `{}` at offset {}",
                char::from(b),
                self.at
            )),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.at)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.at += 1;
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(format!("invalid escape at offset {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are already valid).
                    let rest = &self.bytes[self.at..];
                    let text = std::str::from_utf8(rest).map_err(|_| {
                        format!("invalid UTF-8 inside string at offset {}", self.at)
                    })?;
                    let c = text.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        // Surrogate pairs encode astral-plane characters as two \u escapes.
        if (0xD800..0xDC00).contains(&unit) {
            if !self.eat_literal("\\u") {
                return Err(format!("unpaired surrogate at offset {}", self.at));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("invalid low surrogate at offset {}", self.at));
            }
            let code = 0x10000 + ((u32::from(unit) - 0xD800) << 10) + (u32::from(low) - 0xDC00);
            return char::from_u32(code)
                .ok_or_else(|| format!("invalid surrogate pair at offset {}", self.at));
        }
        char::from_u32(u32::from(unit))
            .ok_or_else(|| format!("invalid unicode escape at offset {}", self.at))
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.at + 4;
        let digits = self
            .bytes
            .get(self.at..end)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| format!("truncated \\u escape at offset {}", self.at))?;
        let unit = u16::from_str_radix(digits, 16)
            .map_err(|_| format!("invalid \\u escape at offset {}", self.at))?;
        self.at = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| format!("invalid number at offset {start}"))?;
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("invalid number `{text}` at offset {start}"))
    }
}

impl Json {
    fn write_value(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::U128(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // `{v}` is Rust's shortest representation that round-trips;
                    // ensure it still parses as a JSON number with a fraction.
                    let text = format!("{v}");
                    out.push_str(&text);
                    if !text.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_sequence(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write_value(out, indent, depth + 1);
                });
            }
            Json::Object(fields) => {
                write_sequence(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    let (key, value) = &fields[i];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write_value(out, indent, depth + 1);
                });
            }
        }
    }
}

fn write_sequence(
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
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_object_preserves_field_order() {
        let v = Json::object(vec![
            ("zeta", Json::U64(1)),
            ("alpha", Json::str("x")),
            ("flag", Json::Bool(true)),
        ]);
        assert_eq!(v.render_compact(), r#"{"zeta":1,"alpha":"x","flag":true}"#);
    }

    #[test]
    fn floats_always_parse_as_json_numbers() {
        assert_eq!(Json::F64(2.0).render_compact(), "2.0");
        assert_eq!(Json::F64(0.5).render_compact(), "0.5");
        assert_eq!(Json::F64(-3.0).render_compact(), "-3.0");
        assert_eq!(Json::F64(f64::NAN).render_compact(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render_compact(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let v = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(v.render_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn pretty_rendering_indents_nested_structures() {
        let v = Json::object(vec![
            ("items", Json::Array(vec![Json::U64(1), Json::U64(2)])),
            ("empty", Json::Array(vec![])),
        ]);
        assert_eq!(
            v.render_pretty(),
            "{\n  \"items\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn parse_round_trips_emitted_documents() {
        let v = Json::object(vec![
            ("name", Json::str("bench")),
            ("items", Json::Array(vec![Json::U64(1), Json::Null])),
            ("seconds", Json::F64(5.34573e-4)),
            ("negative", Json::I64(-7)),
            ("ok", Json::Bool(true)),
            ("nested", Json::object(vec![("x", Json::F64(0.5))])),
        ]);
        assert_eq!(Json::parse(&v.render_compact()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_classifies_numbers() {
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-42").unwrap(), Json::I64(-42));
        assert_eq!(Json::parse("42.0").unwrap(), Json::F64(42.0));
        assert_eq!(Json::parse("5.3e-4").unwrap(), Json::F64(5.3e-4));
        assert_eq!(
            Json::parse("99999999999999999999").unwrap(),
            Json::F64(1e20)
        );
    }

    #[test]
    fn parse_decodes_escapes() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\ndA😀""#).unwrap(),
            Json::str("a\"b\\c\nd\u{41}\u{1F600}")
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn field_and_accessors_navigate_parsed_documents() {
        let doc = Json::parse(r#"{"rows":[{"name":"dpa","per_second":1234.5}]}"#).unwrap();
        let rows = doc.field("rows").unwrap();
        let Json::Array(rows) = rows else { panic!() };
        assert_eq!(rows[0].field("name").unwrap().as_str(), Some("dpa"));
        assert_eq!(rows[0].field("per_second").unwrap().as_f64(), Some(1234.5));
        assert_eq!(doc.field("missing"), None);
    }
}
