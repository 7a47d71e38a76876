//! Vendored stand-in for `serde_json`: renders the [`serde`] shim's
//! [`serde::json::Value`] tree as JSON text, and parses that text back
//! ([`from_str`]) for the run engine's checkpoint/resume layer.
//!
//! Output follows `serde_json`'s conventions so archived results stay
//! familiar: 2-space pretty indentation, `": "` separators, floats
//! always carrying a fractional part (`1.0`, not `1`), and non-finite
//! floats rendered as `null`. Rendering is fully deterministic — object
//! keys keep struct-field declaration order — which the parallel run
//! engine relies on for byte-identical `--jobs 1` / `--jobs N` output.

use serde::json::Value;
use serde::{Deserialize, Serialize};

/// JSON error: serialization never fails in the vendored pipeline, so
/// every real instance comes from [`from_str`] (malformed text or a
/// shape mismatch against the target type).
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn parse(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Serialize `value` as compact JSON.
///
/// # Errors
///
/// Never fails; the `Result` mirrors `serde_json`'s signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize `value` as pretty-printed JSON (2-space indent).
///
/// # Errors
///
/// Never fails; the `Result` mirrors `serde_json`'s signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parse JSON text into a `T`.
///
/// The parser accepts exactly the dialect the serializer emits (plus
/// insignificant whitespace): numbers without a sign/fraction/exponent
/// parse as `UInt`, with a leading `-` only as `Int`, and anything with
/// a `.`/`e` as `Float` — mirroring [`serde::json::Value`]'s split so
/// round trips are lossless.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON (with a byte position) or when
/// the parsed tree does not match `T`'s shape.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::parse(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    T::from_value(&value).map_err(|e| Error::parse(e.to_string()))
}

struct Parser<'a> {
    text: &'a str,
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::parse(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error::parse(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::parse(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::parse(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    /// Decode a string literal in one pass over its bytes: each run up
    /// to the next `"` or `\` is copied with a single `push_str`. Both
    /// delimiters are ASCII, so every run ends on a UTF-8 boundary of
    /// the (already valid) input text.
    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(Error::parse("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped on a backslash: decode one escape.
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| {
                                    Error::parse(format!("bad \\u escape at byte {}", self.pos))
                                })?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error::parse(format!("bad escape at byte {}", self.pos))),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number text");
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::parse(format!("bad number {text:?} at byte {start}")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::parse(format!("bad number {text:?} at byte {start}")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::parse(format!("bad number {text:?} at byte {start}")))
        }
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(x) => out.push_str(&format_float(*x)),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => write_seq(
            out,
            items.iter(),
            items.len(),
            indent,
            depth,
            ('[', ']'),
            |out, item, ind, d| {
                write_value(out, item, ind, d);
            },
        ),
        Value::Object(entries) => write_seq(
            out,
            entries.iter(),
            entries.len(),
            indent,
            depth,
            ('{', '}'),
            |out, (k, val), ind, d| {
                write_string(out, k);
                out.push(':');
                if ind.is_some() {
                    out.push(' ');
                }
                write_value(out, val, ind, d);
            },
        ),
    }
}

fn write_seq<I, T>(
    out: &mut String,
    items: I,
    len: usize,
    indent: Option<usize>,
    depth: usize,
    brackets: (char, char),
    mut write_item: impl FnMut(&mut String, T, Option<usize>, usize),
) where
    I: Iterator<Item = T>,
{
    out.push(brackets.0);
    if len == 0 {
        out.push(brackets.1);
        return;
    }
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(out, item, indent, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(brackets.1);
}

/// Write `s` as a JSON string literal, copying each escape-free run
/// with one `push_str`. Every escaped character is ASCII, so run
/// boundaries are UTF-8 boundaries.
fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Shortest round-tripping decimal, always with a fractional part or
/// exponent (`1.0`, not `1`); non-finite values become `null`.
fn format_float(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::Value;

    #[test]
    fn pretty_layout_matches_serde_json_conventions() {
        let v = Value::Object(vec![
            ("name".to_string(), Value::Str("compress".to_string())),
            (
                "ratios".to_string(),
                Value::Array(vec![Value::Float(1.0), Value::Null]),
            ),
        ]);
        struct W(Value);
        impl serde::Serialize for W {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        let s = to_string_pretty(&W(v)).unwrap();
        assert_eq!(
            s,
            "{\n  \"name\": \"compress\",\n  \"ratios\": [\n    1.0,\n    null\n  ]\n}"
        );
    }

    #[test]
    fn floats_keep_a_fractional_part_and_nan_is_null() {
        assert_eq!(format_float(1.0), "1.0");
        assert_eq!(format_float(0.51), "0.51");
        assert_eq!(format_float(f64::NAN), "null");
        assert_eq!(format_float(f64::INFINITY), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        write_string(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn parser_round_trips_the_serializer_output() {
        let v = Value::Object(vec![
            (
                "name".to_string(),
                Value::Str("compress \"x\"\n".to_string()),
            ),
            ("count".to_string(), Value::UInt(u64::MAX)),
            ("delta".to_string(), Value::Int(-42)),
            (
                "ratios".to_string(),
                Value::Array(vec![Value::Float(0.51), Value::Null, Value::Bool(true)]),
            ),
            ("empty".to_string(), Value::Array(vec![])),
        ]);
        struct W(Value);
        impl serde::Serialize for W {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        impl serde::Deserialize for W {
            fn from_value(v: &Value) -> Result<Self, serde::DeError> {
                Ok(W(v.clone()))
            }
        }
        for text in [
            to_string(&W(v.clone())).unwrap(),
            to_string_pretty(&W(v.clone())).unwrap(),
        ] {
            let back: W = from_str(&text).unwrap();
            assert_eq!(back.0, v);
        }
    }

    #[test]
    fn parser_preserves_float_precision() {
        struct F(f64);
        impl serde::Deserialize for F {
            fn from_value(v: &Value) -> Result<Self, serde::DeError> {
                serde::Deserialize::from_value(v).map(F)
            }
        }
        for x in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 6.02e23, -1.5e-300] {
            let text = format_float(x);
            let F(back) = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        struct W;
        impl serde::Deserialize for W {
            fn from_value(_: &Value) -> Result<Self, serde::DeError> {
                Ok(W)
            }
        }
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "nul", "1 2", "[1]]"] {
            assert!(from_str::<W>(bad).is_err(), "{bad:?} should fail");
        }
    }

    impl Parser<'_> {
        /// The string decoder before run copying: one scalar per step.
        /// Kept as the oracle [`Parser::string`] must match exactly.
        fn string_by_scalar(&mut self) -> Result<String, Error> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(Error::parse("unterminated string")),
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
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| {
                                        Error::parse(format!("bad \\u escape at byte {}", self.pos))
                                    })?;
                                out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => {
                                return Err(Error::parse(format!(
                                    "bad escape at byte {}",
                                    self.pos
                                )))
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        let c = self.text[self.pos..].chars().next().expect("non-empty");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    #[test]
    fn string_decoder_matches_the_scalar_oracle_on_every_input() {
        // Fragments that stress run boundaries: escapes of every kind
        // (valid, truncated, bad hex, '+' hex, surrogates), multi-byte
        // characters and raw control bytes.
        const PIECES: &[&str] = &[
            "a",
            "\"",
            "\\",
            "\\\"",
            "\\\\",
            "\\/",
            "\\n",
            "\\b",
            "\\f",
            "\\q",
            "\\u00e9",
            "\\u20AC",
            "\\ud83d",
            "\\u+1ab",
            "\\u12",
            "\\uZZZZ",
            "\\u",
            "\\u00\u{e9}",
            "é",
            "€",
            "😀",
            "\u{0}",
            "\n",
            "\u{7f}",
            " ",
            "x\"y",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..20_000 {
            let mut text = String::from("\"");
            for _ in 0..next(12) {
                text.push_str(PIECES[next(PIECES.len())]);
            }
            if next(4) > 0 {
                text.push('"');
            }
            let parser = || Parser {
                text: &text,
                bytes: text.as_bytes(),
                pos: 0,
            };
            let (mut fast, mut oracle) = (parser(), parser());
            assert_eq!(
                (fast.string().map_err(|e| e.to_string()), fast.pos),
                (
                    oracle.string_by_scalar().map_err(|e| e.to_string()),
                    oracle.pos
                ),
                "{text:?}"
            );
        }
    }
}
