//! Minimal JSON document builder and parser.
//!
//! The experiment binaries persist machine-readable artifacts under
//! `results/`; the build environment is offline, so instead of serde this
//! module hand-rolls the tiny subset of JSON those artifacts need
//! (objects, arrays, strings, numbers). Key order is preserved, output is
//! deterministic, and non-finite floats serialise as `null`.
//!
//! [`Json::parse`] is the inverse: a recursive-descent parser that reads
//! the artifacts back (for report post-processing and for validating
//! exports in tests), returning a typed [`JsonError`] — never a panic —
//! on malformed or truncated input.

use std::fmt::Write as _;

/// Why a document failed to parse. Every variant carries the byte offset
/// at which the problem was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonError {
    /// The input ended in the middle of a value — the classic symptom of
    /// a truncated artifact (interrupted run, partial download).
    UnexpectedEof {
        /// Byte offset of the end of input.
        offset: usize,
    },
    /// A byte that cannot start or continue the expected token.
    UnexpectedChar {
        /// Byte offset of the offending character.
        offset: usize,
        /// The character found.
        found: char,
        /// What the grammar required instead.
        expected: &'static str,
    },
    /// A number literal that does not parse as a finite `f64`/`u64`.
    InvalidNumber {
        /// Byte offset where the literal starts.
        offset: usize,
    },
    /// A malformed string escape (`\q`, bad `\uXXXX`, lone surrogate).
    InvalidEscape {
        /// Byte offset of the backslash.
        offset: usize,
    },
    /// Non-whitespace input after the top-level value.
    TrailingData {
        /// Byte offset of the first trailing character.
        offset: usize,
    },
    /// Nesting beyond [`Json::MAX_DEPTH`] (stack-overflow guard).
    TooDeep {
        /// Byte offset where the limit was exceeded.
        offset: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::UnexpectedEof { offset } => {
                write!(
                    f,
                    "unexpected end of input at byte {offset} (truncated document?)"
                )
            }
            JsonError::UnexpectedChar {
                offset,
                found,
                expected,
            } => write!(
                f,
                "unexpected {found:?} at byte {offset}, expected {expected}"
            ),
            JsonError::InvalidNumber { offset } => {
                write!(f, "invalid number literal at byte {offset}")
            }
            JsonError::InvalidEscape { offset } => {
                write!(f, "invalid string escape at byte {offset}")
            }
            JsonError::TrailingData { offset } => {
                write!(f, "trailing data after document at byte {offset}")
            }
            JsonError::TooDeep { offset } => {
                write!(f, "nesting exceeds the depth limit at byte {offset}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (u64 precision is preserved exactly).
    UInt(u64),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Maximum nesting depth [`Json::parse`] accepts before returning
    /// [`JsonError::TooDeep`].
    pub const MAX_DEPTH: usize = 128;

    /// Build an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parse a document produced by [`Json::to_pretty`] (or any JSON in
    /// the same subset). Never panics: malformed input — including
    /// truncation at any byte — yields a typed [`JsonError`].
    ///
    /// Integral literals without sign, fraction, or exponent that fit a
    /// `u64` parse as [`Json::UInt`]; every other number parses as
    /// [`Json::Num`].
    ///
    /// ```
    /// use hetero_bench::json::{Json, JsonError};
    ///
    /// let doc = Json::object([("jobs", Json::UInt(300))]);
    /// assert_eq!(Json::parse(&doc.to_pretty()), Ok(doc));
    /// assert_eq!(
    ///     Json::parse("{\"jobs\": 30"),
    ///     Err(JsonError::UnexpectedEof { offset: 11 })
    /// );
    /// ```
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos < parser.bytes.len() {
            return Err(JsonError::TrailingData { offset: parser.pos });
        }
        Ok(value)
    }

    /// Look up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array; `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value of an unsigned integer; `None` otherwise.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(value) => Some(*value),
            _ => None,
        }
    }

    /// The text of a string value; `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(text) => Some(text),
            _ => None,
        }
    }

    /// Build a string value.
    pub fn str(text: impl Into<String>) -> Json {
        Json::Str(text.into())
    }

    /// Render with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out.push('\n');
        out
    }

    fn render(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            Json::UInt(value) => {
                let _ = write!(out, "{value}");
            }
            Json::Num(value) => {
                if value.is_finite() {
                    let _ = write!(out, "{value}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(text) => escape_into(text, out),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.render(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    escape_into(key, out);
                    out.push_str(": ");
                    value.render(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Result<u8, JsonError> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or(JsonError::UnexpectedEof { offset: self.pos })
    }

    /// The char at `pos` for error reporting (input is valid UTF-8).
    fn char_at(&self, pos: usize) -> char {
        std::str::from_utf8(&self.bytes[pos..])
            .ok()
            .and_then(|s| s.chars().next())
            .unwrap_or('\u{fffd}')
    }

    fn expect_literal(&mut self, literal: &'static str, value: Json) -> Result<Json, JsonError> {
        let end = self.pos + literal.len();
        if end > self.bytes.len() {
            return Err(JsonError::UnexpectedEof {
                offset: self.bytes.len(),
            });
        }
        if &self.bytes[self.pos..end] != literal.as_bytes() {
            return Err(JsonError::UnexpectedChar {
                offset: self.pos,
                found: self.char_at(self.pos),
                expected: literal,
            });
        }
        self.pos = end;
        Ok(value)
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > Json::MAX_DEPTH {
            return Err(JsonError::TooDeep { offset: self.pos });
        }
        match self.peek()? {
            b'n' => self.expect_literal("null", Json::Null),
            b't' => self.expect_literal("true", Json::Bool(true)),
            b'f' => self.expect_literal("false", Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => self.array(depth),
            b'{' => self.object(depth),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(JsonError::UnexpectedChar {
                offset: self.pos,
                found: char::from(other),
                expected: "a JSON value",
            }),
        }
    }

    /// Scan a number with the exact JSON grammar:
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. Loose scanning
    /// (grab every number-ish byte, let `f64::parse` sort it out) accepts
    /// spec-invalid literals like `01`, `1.`, or `3-3` — and whether the
    /// junk is swallowed or left behind then depends on `f64::parse`
    /// details rather than on the grammar. Our emitter only produces
    /// grammar-clean literals (Rust's `f64` Display never uses exponent
    /// notation and never emits a bare trailing dot), so strictness costs
    /// nothing on round-trips.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let digits = |parser: &mut Self| {
            let mut seen = false;
            while matches!(parser.bytes.get(parser.pos), Some(b'0'..=b'9')) {
                parser.pos += 1;
                seen = true;
            }
            seen
        };
        let mut integral = true;
        if self.peek()? == b'-' {
            integral = false;
            self.pos += 1;
        }
        // Integer part: a lone `0`, or a nonzero digit then any digits
        // (leading zeros are not valid JSON).
        match self.bytes.get(self.pos) {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                    return Err(JsonError::InvalidNumber { offset: start });
                }
            }
            Some(b'1'..=b'9') => {
                digits(self);
            }
            _ => return Err(JsonError::InvalidNumber { offset: start }),
        }
        // Fraction: `.` demands at least one digit.
        if self.bytes.get(self.pos) == Some(&b'.') {
            integral = false;
            self.pos += 1;
            if !digits(self) {
                return Err(JsonError::InvalidNumber { offset: start });
            }
        }
        // Exponent: `e`/`E`, optional sign, at least one digit.
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(JsonError::InvalidNumber { offset: start });
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number literals are ASCII");
        if integral {
            if let Ok(value) = text.parse::<u64>() {
                return Ok(Json::UInt(value));
            }
        }
        match text.parse::<f64>() {
            Ok(value) if value.is_finite() => Ok(Json::Num(value)),
            // Grammar-valid but not a finite f64 (e.g. `1e999`).
            _ => Err(JsonError::InvalidNumber { offset: start }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        debug_assert_eq!(self.peek(), Ok(b'"'));
        self.pos += 1;
        let mut out = String::new();
        loop {
            let b = self.peek()?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let escape_at = self.pos;
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let end = self.pos + 5;
                            if end > self.bytes.len() {
                                return Err(JsonError::UnexpectedEof {
                                    offset: self.bytes.len(),
                                });
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..end])
                                .map_err(|_| JsonError::InvalidEscape { offset: escape_at })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::InvalidEscape { offset: escape_at })?;
                            // Surrogates never appear in our emitter's
                            // output (it only \u-escapes control chars);
                            // reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or(JsonError::InvalidEscape { offset: escape_at })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::InvalidEscape { offset: escape_at }),
                    }
                    self.pos += 1;
                }
                0x00..=0x1f => {
                    // RFC 8259: control characters must be escaped.
                    return Err(JsonError::UnexpectedChar {
                        offset: self.pos,
                        found: char::from(b),
                        expected: "an escaped control character",
                    });
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through untouched; the input is a valid &str).
                    let c = self.char_at(self.pos);
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        debug_assert_eq!(self.peek(), Ok(b'['));
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(JsonError::UnexpectedChar {
                        offset: self.pos,
                        found: char::from(other),
                        expected: "',' or ']'",
                    })
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        debug_assert_eq!(self.peek(), Ok(b'{'));
        self.pos += 1;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            if self.peek()? != b'"' {
                return Err(JsonError::UnexpectedChar {
                    offset: self.pos,
                    found: self.char_at(self.pos),
                    expected: "an object key",
                });
            }
            let key = self.string()?;
            self.skip_whitespace();
            if self.peek()? != b':' {
                return Err(JsonError::UnexpectedChar {
                    offset: self.pos,
                    found: self.char_at(self.pos),
                    expected: "':'",
                });
            }
            self.pos += 1;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                other => {
                    return Err(JsonError::UnexpectedChar {
                        offset: self.pos,
                        found: char::from(other),
                        expected: "',' or '}'",
                    })
                }
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn escape_into(text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
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
    fn renders_nested_documents() {
        let doc = Json::object([
            ("name", Json::str("pipeline")),
            ("jobs", Json::UInt(5000)),
            ("speedup", Json::Num(4.25)),
            ("flags", Json::Array(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Object(vec![])),
        ]);
        let text = doc.to_pretty();
        assert!(text.contains("\"name\": \"pipeline\""), "{text}");
        assert!(text.contains("\"jobs\": 5000"), "{text}");
        assert!(text.contains("\"speedup\": 4.25"), "{text}");
        assert!(text.contains("true"), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::str("a\"b\\c\nd");
        assert_eq!(doc.to_pretty(), "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn u64_precision_is_exact() {
        let big = u64::MAX - 1;
        assert_eq!(Json::UInt(big).to_pretty().trim(), format!("{big}"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_pretty().trim(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_pretty().trim(), "null");
    }

    #[test]
    fn parse_round_trips_emitted_documents() {
        let doc = Json::object([
            ("name", Json::str("chaos")),
            ("jobs", Json::UInt(300)),
            ("rate", Json::Num(0.15)),
            ("big", Json::UInt(u64::MAX)),
            (
                "rows",
                Json::Array(vec![
                    Json::object([("ok", Json::Bool(true)), ("note", Json::Null)]),
                    Json::str("esc\"aped\\and\nnewlined"),
                ]),
            ),
            ("empty_array", Json::Array(vec![])),
            ("empty_object", Json::Object(vec![])),
        ]);
        assert_eq!(Json::parse(&doc.to_pretty()), Ok(doc));
    }

    #[test]
    fn truncation_at_every_byte_yields_a_typed_error_not_a_panic() {
        let doc = Json::object([
            ("jobs", Json::UInt(300)),
            ("rows", Json::Array(vec![Json::Num(0.5), Json::str("x")])),
        ]);
        let text = doc.to_pretty();
        let full = text.trim_end();
        for cut in 0..full.len() {
            let truncated = &full[..cut];
            if !truncated.is_char_boundary(cut) {
                continue;
            }
            assert!(
                Json::parse(truncated).is_err(),
                "prefix {truncated:?} must not parse"
            );
        }
        // Most cuts surface specifically as truncation.
        assert_eq!(
            Json::parse("{\"jobs\": 30"),
            Err(JsonError::UnexpectedEof { offset: 11 })
        );
        assert_eq!(
            Json::parse("[1, 2"),
            Err(JsonError::UnexpectedEof { offset: 5 })
        );
        assert_eq!(
            Json::parse("\"unterminated"),
            Err(JsonError::UnexpectedEof { offset: 13 })
        );
    }

    #[test]
    fn malformed_documents_yield_precise_errors() {
        assert_eq!(Json::parse(""), Err(JsonError::UnexpectedEof { offset: 0 }));
        assert_eq!(
            Json::parse("{} extra"),
            Err(JsonError::TrailingData { offset: 3 })
        );
        assert!(matches!(
            Json::parse("{1: 2}"),
            Err(JsonError::UnexpectedChar { offset: 1, .. })
        ));
        assert!(matches!(
            Json::parse("[truu]"),
            Err(JsonError::UnexpectedChar { .. })
        ));
        assert_eq!(
            Json::parse("1e999"),
            Err(JsonError::InvalidNumber { offset: 0 })
        );
        assert_eq!(
            Json::parse("\"bad \\q escape\""),
            Err(JsonError::InvalidEscape { offset: 5 })
        );
        assert!(matches!(
            Json::parse("\"raw\ttab\""),
            Err(JsonError::UnexpectedChar {
                offset: 4,
                found: '\t',
                ..
            })
        ));
        let deep = "[".repeat(Json::MAX_DEPTH + 2);
        assert!(matches!(Json::parse(&deep), Err(JsonError::TooDeep { .. })));
    }

    #[test]
    fn spec_invalid_number_literals_are_rejected() {
        // Leading zeros, empty fractions, and empty exponents are not
        // JSON, even though `f64::parse` would happily accept some of
        // them.
        for bad in [
            "01", "-01", "007", "1.", "-3.", "1.e3", "1e", "1e+", "1e-", "1E", ".5", "-.5", "-",
            "+1", "--1", "0x10", "1..2",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
            let wrapped = format!("[{bad}]");
            assert!(Json::parse(&wrapped).is_err(), "{wrapped:?} must not parse");
        }
        // The strict grammar still admits every shape the spec does.
        assert_eq!(Json::parse("0"), Ok(Json::UInt(0)));
        assert_eq!(Json::parse("-0"), Ok(Json::Num(-0.0)));
        assert_eq!(Json::parse("0.5"), Ok(Json::Num(0.5)));
        assert_eq!(Json::parse("10.25e-2"), Ok(Json::Num(0.1025)));
        assert_eq!(Json::parse("2E+2"), Ok(Json::Num(200.0)));
    }

    #[test]
    fn garbage_appended_to_a_valid_document_is_trailing_data() {
        let doc = Json::object([
            ("jobs", Json::UInt(300)),
            ("rate", Json::Num(0.5)),
            ("rows", Json::Array(vec![Json::UInt(1), Json::str("x")])),
        ]);
        let text = doc.to_pretty();
        let full = text.trim_end();
        // A concatenated second document, a stray token, or a partial
        // value after the top-level value must all surface as trailing
        // data at the exact byte where the garbage starts — never parse,
        // never panic, never get absorbed into the last number.
        for garbage in [
            "{}",
            "null",
            "1",
            "-",
            ".5",
            "e3",
            "\"tail\"",
            "]",
            ",",
            "{\"k\": 1}",
        ] {
            for separator in ["", " ", "\n"] {
                let appended = format!("{full}{separator}{garbage}");
                assert_eq!(
                    Json::parse(&appended),
                    Err(JsonError::TrailingData {
                        offset: full.len() + separator.len(),
                    }),
                    "{appended:?}"
                );
            }
        }
        // Bare numbers must not swallow trailing junk either: the value
        // ends at the grammar boundary and the rest is trailing data.
        assert_eq!(
            Json::parse("3-3"),
            Err(JsonError::TrailingData { offset: 1 })
        );
        assert_eq!(
            Json::parse("1.5.2"),
            Err(JsonError::TrailingData { offset: 3 })
        );
        assert_eq!(
            Json::parse("1e3e3"),
            Err(JsonError::TrailingData { offset: 3 })
        );
    }

    #[test]
    fn parse_distinguishes_uint_from_float() {
        assert_eq!(Json::parse("42"), Ok(Json::UInt(42)));
        assert_eq!(Json::parse("-42"), Ok(Json::Num(-42.0)));
        assert_eq!(Json::parse("4.5"), Ok(Json::Num(4.5)));
        assert_eq!(Json::parse("1e3"), Ok(Json::Num(1000.0)));
        // One past u64::MAX falls back to float rather than erroring.
        assert_eq!(
            Json::parse("18446744073709551616"),
            Ok(Json::Num(18446744073709551616.0))
        );
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let doc = Json::parse("{\"rows\": [{\"seed\": 101}], \"name\": \"chaos\"}").unwrap();
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("chaos"));
        let rows = doc.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows[0].get("seed").and_then(Json::as_u64), Some(101));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("rows"), None);
        assert_eq!(Json::UInt(3).as_str(), None);
    }
}
