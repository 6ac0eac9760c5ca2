//! A small hand-rolled JSON tree, writer and parser.
//!
//! The workspace has no serialization dependency: machine-readable output
//! is built explicitly through this module — construct a [`Json`] tree,
//! [`Json::render`] it — and the wire types reach it through
//! [`crate::report::to_json`].  The parser reads the wire documents back
//! and lets smoke tests (and CI) validate that emitted documents
//! round-trip; it accepts exactly the subset the writer produces (objects,
//! arrays, strings with `\uXXXX` escapes, finite numbers, booleans, null).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (rendered without a trailing `.0` when integral).
    Num(f64),
    /// A non-negative integer, kept exact (an `f64` detour would corrupt
    /// values above 2^53 — campaign seeds are arbitrary `u64`s).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            // The two numeric variants compare by value: `7` round-trips
            // to `UInt(7)` no matter which variant wrote it.
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::UInt(a), Json::UInt(b)) => a == b,
            (Json::Num(a), Json::UInt(b)) | (Json::UInt(b), Json::Num(a)) => *a == *b as f64,
            _ => false,
        }
    }
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert a field into an object (panics on non-objects — construction
    /// is always code-driven).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object"),
        }
        self
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a number (exact integers are converted; values above
    /// 2^53 should be read with [`Json::as_u64`] instead).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The exact value of a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value of a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render the value as a compact JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0, false);
        out
    }

    /// Render the value with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0, false);
        out
    }

    /// Render the value as a compact, pure-ASCII document: every non-ASCII
    /// character is written as a `\uXXXX` escape, non-BMP characters as a
    /// UTF-16 surrogate pair (the `ensure_ascii` form most JSON emitters
    /// produce).  [`parse`] round-trips both this and [`Json::render`].
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0, true);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize, ascii: bool) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::UInt(n) => out.push_str(&format!("{n}")),
            Json::Str(s) => write_escaped(out, s, ascii),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1, ascii);
                }
                if !items.is_empty() {
                    out.push_str(nl);
                    out.push_str(&pad);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, key, ascii);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1, ascii);
                }
                if !fields.is_empty() {
                    out.push_str(nl);
                    out.push_str(&pad);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<u8> for Json {
    fn from(n: u8) -> Json {
        Json::UInt(u64::from(n))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map(Into::into).unwrap_or(Json::Null)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_escaped(out: &mut String, s: &str, ascii: bool) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c if ascii && !c.is_ascii() => {
                // Escape as UTF-16 code units: one `\uXXXX` for BMP
                // characters, a surrogate pair for the rest.
                for unit in c.encode_utf16(&mut [0u16; 2]) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document (the subset the writer emits).
///
/// # Errors
/// Returns a human-readable message with the byte offset of the first
/// syntax error, or on trailing garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
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

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
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

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// Consume a `uXXXX` escape body (the cursor sits on the `u`) and
    /// return the code unit.  `start` is the byte offset of the escape's
    /// backslash, for error messages.
    fn hex4(&mut self, start: usize) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or(format!("bad \\u escape at byte {start}"))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape at byte {start}"))?;
        self.pos += 5;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
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
                            // `self.pos` sits on the `u`; `hex4` consumes it
                            // and the four hex digits.
                            let code = self.hex4(start)?;
                            match code {
                                // A high surrogate must be followed by an
                                // escaped low surrogate; together they
                                // encode one non-BMP scalar (RFC 8259 §7).
                                0xD800..=0xDBFF => {
                                    if self.peek() != Some(b'\\')
                                        || self.bytes.get(self.pos + 1) != Some(&b'u')
                                    {
                                        return Err(format!(
                                            "lone high surrogate \\u{code:04x} at byte {start} \
                                             (expected a \\uDC00-\\uDFFF low surrogate)"
                                        ));
                                    }
                                    self.pos += 1; // consume the backslash
                                    let low = self.hex4(start)?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(format!(
                                            "high surrogate \\u{code:04x} at byte {start} followed \
                                             by \\u{low:04x}, which is not a low surrogate"
                                        ));
                                    }
                                    let scalar =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(
                                        char::from_u32(scalar)
                                            .expect("paired surrogates form a valid scalar"),
                                    );
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(format!(
                                        "lone low surrogate \\u{code:04x} at byte {start} \
                                         (low surrogates may only follow a high surrogate)"
                                    ));
                                }
                                _ => out.push(
                                    char::from_u32(code)
                                        .expect("non-surrogate BMP code points are scalars"),
                                ),
                            }
                            // The shared `self.pos += 1` below accounted for
                            // the single-byte escapes; `hex4` already
                            // consumed everything, so compensate.
                            self.pos -= 1;
                        }
                        _ => return Err(format!("bad escape at byte {start}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-copy the whole run of ordinary characters up to
                    // the next quote or backslash.  (Validating the entire
                    // remaining input per character, as a naive
                    // one-scalar-at-a-time loop does, is quadratic — it
                    // took ~450ms per 180KB checkpoint transfer in the
                    // multi-host service.)  `"` and `\` are ASCII, so the
                    // cut is always a char boundary of the source &str.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let s = std::str::from_utf8(&rest[..run])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        // Plain non-negative integers stay exact (u64 campaign seeds would
        // be corrupted by an f64 detour above 2^53).
        if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or(format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_compact_and_pretty() {
        let doc = Json::obj()
            .field("name", "table3")
            .field("cells", vec![1usize, 2, 3])
            .field("ok", true)
            .field("missing", Json::Null);
        assert_eq!(doc.render(), r#"{"name":"table3","cells":[1,2,3],"ok":true,"missing":null}"#);
        assert!(doc.render_pretty().contains("\n  \"name\": \"table3\""));
    }

    #[test]
    fn numbers_render_integral_when_integral() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(-3.0).render(), "-3");
    }

    #[test]
    fn u64_values_survive_exactly() {
        // Seeds are arbitrary u64s; values above 2^53 must not be rounded
        // through f64 on either the write or the parse path.
        let seed = 0x9E37_79B9_7F4A_7C15u64; // 11400714819323198485
        let doc = Json::obj().field("seed", seed);
        let rendered = doc.render();
        assert!(rendered.contains("11400714819323198485"), "{rendered}");
        let parsed = parse(&rendered).unwrap();
        assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(seed));
        assert_eq!(parsed, doc);
    }

    #[test]
    fn numeric_variants_compare_by_value() {
        assert_eq!(Json::Num(7.0), Json::UInt(7));
        assert_eq!(Json::UInt(7), Json::Num(7.0));
        assert_ne!(Json::Num(7.5), Json::UInt(7));
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::Str("a\"b\\c\n\u{1}".into()).render(), r#""a\"b\\c\n\u0001""#);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = Json::obj()
            .field("budget", 200usize)
            .field("vulnerability", Json::Null)
            .field("label", "CT-COND-BPAS \"quoted\"\n")
            .field(
                "cells",
                Json::Arr(vec![
                    Json::obj().field("found", true).field("duration_ms", 12.25),
                    Json::obj().field("found", false).field("duration_ms", 3usize),
                ]),
            );
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"a": [1, "x", true], "b": null}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(doc.get("a").unwrap().as_array().unwrap()[0].as_f64(), Some(1.0));
        assert_eq!(doc.get("a").unwrap().as_array().unwrap()[1].as_str(), Some("x"));
        assert_eq!(doc.get("a").unwrap().as_array().unwrap()[2].as_bool(), Some(true));
        assert_eq!(doc.get("b"), Some(&Json::Null));
        assert_eq!(doc.get("c"), None);
    }

    #[test]
    fn unicode_survives_the_round_trip() {
        let doc = Json::Str("ünïcodé × контракт".into());
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        assert_eq!(parse(&doc.render_ascii()).unwrap(), doc);
    }

    #[test]
    fn surrogate_pairs_decode_to_non_bmp_scalars() {
        // Exactly what serde_json (and Python's json with ensure_ascii)
        // emits for an emoji.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(parse(r#""a😀b""#).unwrap(), Json::Str("a😀b".into()));
        // U+10FFFF, the last scalar, and U+10000, the first non-BMP one.
        assert_eq!(parse(r#""􏿿""#).unwrap(), Json::Str("\u{10FFFF}".into()));
        assert_eq!(parse(r#""𐀀""#).unwrap(), Json::Str("\u{10000}".into()));
    }

    #[test]
    fn render_ascii_emits_surrogate_pairs() {
        assert_eq!(Json::Str("😀".into()).render_ascii(), r#""\ud83d\ude00""#);
        assert_eq!(Json::Str("é".into()).render_ascii(), r#""\u00e9""#);
        // ASCII passes through untouched, control characters stay escaped.
        assert_eq!(Json::Str("a\n".into()).render_ascii(), r#""a\n""#);
    }

    #[test]
    fn lone_surrogates_are_rejected_with_clear_messages() {
        let err = parse(r#""\ud83d""#).unwrap_err();
        assert!(err.contains("lone high surrogate"), "{err}");
        let err = parse(r#""\ude00""#).unwrap_err();
        assert!(err.contains("lone low surrogate"), "{err}");
        // High surrogate followed by a non-surrogate escape.
        let err = parse(r#""\ud83d\u0041""#).unwrap_err();
        assert!(err.contains("not a low surrogate"), "{err}");
        // High surrogate followed by a plain character.
        let err = parse(r#""\ud83dx""#).unwrap_err();
        assert!(err.contains("lone high surrogate"), "{err}");
        // Truncated second escape.
        assert!(parse(r#""\ud83d\u00""#).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary scalar values including the interesting boundaries:
        /// ASCII, escape-worthy controls, BMP edges and non-BMP planes.
        fn char_from_code(code: u32) -> char {
            char::from_u32(code).unwrap_or('\u{FFFD}')
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// Writer ↔ parser round-trip over arbitrary Unicode strings,
            /// through both the raw-UTF-8 and the ASCII-escaped renderings
            /// (the latter exercises the surrogate-pair path for every
            /// non-BMP character).
            #[test]
            fn arbitrary_unicode_strings_round_trip(
                codes in proptest::collection::vec(0u32..0x110000, 0..24),
            ) {
                let s: String = codes.into_iter().map(char_from_code).collect();
                let doc = Json::obj().field("s", s.clone()).field("k", vec![s]);
                prop_assert_eq!(&parse(&doc.render()).unwrap(), &doc);
                prop_assert_eq!(&parse(&doc.render_pretty()).unwrap(), &doc);
                let ascii = doc.render_ascii();
                prop_assert!(ascii.is_ascii(), "render_ascii must emit pure ASCII: {}", ascii);
                prop_assert_eq!(&parse(&ascii).unwrap(), &doc);
            }

            /// Deliberately include the BMP/astral boundary characters with
            /// high probability.
            #[test]
            fn boundary_characters_round_trip(pick in 0usize..7) {
                let c = ['\u{7F}', '\u{80}', '\u{D7FF}', '\u{E000}', '\u{FFFF}', '\u{10000}', '\u{10FFFF}'][pick];
                let doc = Json::Str(c.to_string());
                prop_assert_eq!(&parse(&doc.render()).unwrap(), &doc);
                prop_assert_eq!(&parse(&doc.render_ascii()).unwrap(), &doc);
            }
        }
    }
}
