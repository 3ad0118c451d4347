//! Offline shim for the `serde_json` crate: renders the shim-serde
//! [`Json`] data model as JSON text and parses text back
//! into the model. The entry points mirror the surface the workspace
//! calls on the real crate: [`to_string`] / [`to_string_pretty`]
//! (infallible here but keeping the `Result` signature) and
//! [`from_str`], which the HTTP front end uses for request bodies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use serde::{Json, Serialize};

/// Serialization or parse error. Serialization never fails in the
/// shim (the variant-less rendering is total); parsing reports the
/// byte offset and what was wrong.
#[derive(Debug)]
pub struct Error {
    reason: String,
    offset: usize,
}

impl Error {
    fn at(offset: usize, reason: impl Into<String>) -> Self {
        Self { reason: reason.into(), offset }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for Error {}

/// Renders `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_json(), None, 0, &mut out);
    Ok(out)
}

/// Renders `value` as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_json(), Some(2), 0, &mut out);
    Ok(out)
}

fn render(v: &Json, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::UInt(u) => out.push_str(&u.to_string()),
        Json::Num(n) => {
            if n.is_finite() {
                // Integral floats print without a trailing ".0", like
                // serde_json's shortest-round-trip formatting. Negative
                // zero must not take this path (it would render as "0"
                // and lose its sign bit); `{}` prints it as "-0", which
                // parses back bit-exactly.
                if n.fract() == 0.0 && n.abs() < 1e15 && (*n != 0.0 || n.is_sign_positive()) {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                render(item, indent, depth + 1, out);
            }
            if !items.is_empty() {
                newline_indent(indent, depth, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(val, indent, depth + 1, out);
            }
            if !fields.is_empty() {
                newline_indent(indent, depth, out);
            }
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
}

/// Parses one JSON value spanning the whole input (surrounding
/// whitespace allowed, trailing content rejected).
///
/// Numbers without `.`, `e`/`E` or a sign that fit `u64` become
/// [`Json::UInt`] (so counters and ids survive exactly); everything
/// else numeric becomes [`Json::Num`] via `f64` parsing, which is
/// exact for any float previously rendered by [`to_string`] (Rust's
/// `{}` float formatting is shortest-round-trip).
///
/// Nesting is capped at [`MAX_PARSE_DEPTH`], like the real crate's
/// recursion limit: the parser recurses per `[`/`{`, and without a
/// cap a hostile body of 100k brackets would overflow the stack and
/// *abort* the serving process rather than return an error.
pub fn from_str(s: &str) -> Result<Json, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::at(p.pos, "trailing characters after the value"));
    }
    Ok(v)
}

/// Maximum `[`/`{` nesting [`from_str`] accepts (mirrors serde_json's
/// default recursion limit).
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(self.pos, format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::at(self.pos, format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(Error::at(self.pos, format!("unexpected character {:?}", c as char))),
            None => Err(Error::at(self.pos, "unexpected end of input")),
        }
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(Error::at(self.pos, format!("nesting deeper than {MAX_PARSE_DEPTH}")));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, Error> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(Error::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, Error> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(Error::at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::at(self.pos, "unterminated string")),
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
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue; // unicode_escape advanced the cursor
                        }
                        _ => return Err(Error::at(self.pos, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // boundary math cannot fail).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| Error::at(self.pos, format!("invalid UTF-8: {e}")))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\u` escape (cursor on the `u`),
    /// including surrogate pairs, leaving the cursor past the escape.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hex4 = |p: &mut Self| -> Result<u32, Error> {
            p.pos += 1; // the 'u'
            let end = p.pos + 4;
            if end > p.bytes.len() {
                return Err(Error::at(p.pos, "truncated \\u escape"));
            }
            let hex = std::str::from_utf8(&p.bytes[p.pos..end])
                .map_err(|_| Error::at(p.pos, "invalid \\u escape"))?;
            let v =
                u32::from_str_radix(hex, 16).map_err(|_| Error::at(p.pos, "invalid \\u escape"))?;
            p.pos = end;
            Ok(v)
        };
        let hi = hex4(self)?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require the low half.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 1;
                let lo = hex4(self)?;
                if (0xDC00..0xE000).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(cp)
                        .ok_or_else(|| Error::at(self.pos, "invalid surrogate pair"));
                }
            }
            return Err(Error::at(self.pos, "unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| Error::at(self.pos, "invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number characters");
        if integral && !text.starts_with('-') {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        let n: f64 =
            text.parse().map_err(|e| Error::at(start, format!("bad number {text:?}: {e}")))?;
        // Like serde_json: a literal beyond f64's range is an error,
        // not an infinity no caller can compute with.
        if !n.is_finite() {
            return Err(Error::at(start, format!("number out of range {text:?}")));
        }
        Ok(Json::Num(n))
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = Json::object([
            ("name", Json::Str("a\"b".into())),
            ("xs", Json::Arr(vec![Json::UInt(1), Json::Null])),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"name":"a\"b","xs":[1,null]}"#);
    }

    #[test]
    fn pretty_rendering_indents() {
        let v = Json::object([("k", Json::UInt(1))]);
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"k\": 1\n}");
    }

    #[test]
    fn nan_renders_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn floats_round_trip_reasonably() {
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&3.0f64).unwrap(), "3");
    }

    #[test]
    fn parser_round_trips_rendered_values() {
        let v = Json::object([
            ("name", Json::Str("a\"b\\c\nd\u{1}".into())),
            ("xs", Json::Arr(vec![Json::UInt(1), Json::Null, Json::Num(-1.5), Json::Bool(true)])),
            ("nested", Json::object([("empty_arr", Json::Arr(vec![])), ("n", Json::Num(0.125))])),
            ("big", Json::UInt(u64::MAX)),
        ]);
        assert_eq!(from_str(&to_string(&v).unwrap()).unwrap(), v);
        assert_eq!(from_str(&to_string_pretty(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn parser_float_round_trip_is_bit_exact() {
        // `{}` formatting is shortest-round-trip, so any f64 that went
        // out through to_string comes back with identical bits — the
        // property the HTTP ingest path relies on.
        for &x in &[0.1f64, 1.0 / 3.0, std::f64::consts::PI, -0.0, 1e-300, f64::MAX] {
            let rendered = to_string(&x).unwrap();
            let parsed = from_str(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), x.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn parser_distinguishes_uint_from_num() {
        assert_eq!(from_str("7").unwrap(), Json::UInt(7));
        assert_eq!(from_str("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(from_str("-7").unwrap(), Json::Num(-7.0));
        assert_eq!(from_str("7.0").unwrap(), Json::Num(7.0));
        assert_eq!(from_str("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn parser_handles_unicode_escapes() {
        assert_eq!(from_str(r#""A\u00e9""#).unwrap(), Json::Str("Aé".into()));
        // Surrogate-pair escape for U+1F600, and the raw scalar.
        assert_eq!(from_str(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(from_str("\"😀\"").unwrap(), Json::Str("😀".into()));
        assert!(from_str(r#""\ud83d""#).is_err(), "unpaired surrogate must fail");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2", "{\"a\" 1}"] {
            assert!(from_str(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parser_rejects_numbers_that_overflow_f64() {
        for bad in ["1e999", "-1e999", "[0, 1e999]"] {
            let err = from_str(bad).unwrap_err().to_string();
            assert!(err.contains("out of range"), "{bad:?}: {err}");
        }
        assert!(from_str("[0, -1e999]").unwrap_err().to_string().contains("at byte 4"));
        // Underflow rounds to zero, as in serde_json.
        assert_eq!(from_str("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn parser_caps_nesting_instead_of_overflowing_the_stack() {
        // A hostile body of 100k brackets must be a positioned error,
        // not a stack-overflow abort of the serving process.
        let hostile = "[".repeat(100_000);
        let err = from_str(&hostile).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        let hostile_objs = "{\"k\":".repeat(100_000);
        assert!(from_str(&hostile_objs).is_err());
        // Depth just under the cap still parses (and closes cleanly).
        let deep = format!("{}{}", "[".repeat(MAX_PARSE_DEPTH), "]".repeat(MAX_PARSE_DEPTH));
        assert!(from_str(&deep).is_ok());
        // Sibling containers do not accumulate depth.
        assert!(from_str("[[1],[2],[3]]").is_ok());
    }

    #[test]
    fn parser_allows_surrounding_whitespace() {
        assert_eq!(
            from_str(" \n\t{ \"a\" : [ ] } \r\n").unwrap().get("a"),
            Some(&Json::Arr(vec![]))
        );
    }
}
