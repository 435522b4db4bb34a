//! Minimal JSON encoding and parsing for flat telemetry records.
//!
//! The offline workspace has no `serde_json`; the events and manifests this
//! crate emits only need objects of strings, numbers, bools, and arrays of
//! strings — which this module hand-rolls with correct string escaping and
//! deterministic (insertion) key order. The [`parse`] half exists for the
//! consumers of those lines: `hecmix-serve` decodes request bodies with it,
//! and tests use it to assert that every emitted JSONL line round-trips.

use std::fmt::Write as _;

/// Escape `s` per JSON string rules into `out` (without surrounding quotes).
fn escape_into(out: &mut String, s: &str) {
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
}

/// Quote and escape `s` as a JSON string.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Encode a finite `f64` as a JSON number; non-finite values (which JSON
/// cannot represent) become `null`.
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` round-trips f64 exactly (shortest representation).
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Incremental builder for a flat JSON object with insertion-ordered keys.
#[derive(Debug, Default)]
pub struct Object {
    body: String,
}

impl Object {
    /// Start an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push('"');
        escape_into(&mut self.body, k);
        self.body.push_str("\":");
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.body.push('"');
        escape_into(&mut self.body, v);
        self.body.push('"');
    }

    /// Add an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) {
        self.key(k);
        let _ = write!(self.body, "{v}");
    }

    /// Add a float field (`null` if non-finite).
    pub fn f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.body.push_str(&number(v));
    }

    /// Add a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
    }

    /// Add an array-of-strings field.
    pub fn str_array<S: AsRef<str>>(&mut self, k: &str, vs: &[S]) {
        self.key(k);
        self.body.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            self.body.push('"');
            escape_into(&mut self.body, v.as_ref());
            self.body.push('"');
        }
        self.body.push(']');
    }

    /// Finish: the complete `{...}` text.
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }

    /// Add a raw, already-encoded JSON fragment (e.g. a nested array built
    /// elsewhere). The caller is responsible for its validity.
    pub fn raw(&mut self, k: &str, fragment: &str) {
        self.key(k);
        self.body.push_str(fragment);
    }
}

/// A parsed JSON value. Objects keep insertion order (they are small, flat
/// telemetry records and request bodies; linear lookup is fine).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (`None` for missing keys or non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(vs) => Some(vs),
            _ => None,
        }
    }
}

/// Parse one JSON document. Strict on structure (unbalanced brackets,
/// trailing garbage and bad escapes are errors), lenient on nothing; the
/// nesting depth is capped so adversarial input cannot overflow the stack.
///
/// # Errors
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 64;

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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err("nesting too deep".to_owned());
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&c) = self.bytes.get(self.pos) {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The skipped span is valid UTF-8 (the input is a &str and we
            // only stopped at ASCII bytes, never mid-codepoint).
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err("unpaired surrogate".to_owned());
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".to_owned());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(c).ok_or_else(|| "bad \\u escape".to_owned())?);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_owned())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_and_control_chars() {
        assert_eq!(string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_round_trip_and_nan_is_null() {
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn object_builds_in_insertion_order() {
        let mut o = Object::new();
        o.str("b", "x");
        o.u64("a", 3);
        o.bool("c", true);
        o.str_array("d", &["p", "q"]);
        o.raw("e", "[1,2]");
        assert_eq!(
            o.finish(),
            r#"{"b":"x","a":3,"c":true,"d":["p","q"],"e":[1,2]}"#
        );
    }

    #[test]
    fn parse_round_trips_encoded_objects() {
        let mut o = Object::new();
        o.str("kind", "cache_hit");
        o.u64("key", 0xdead_beef);
        o.f64("t", 0.125);
        o.bool("warm", true);
        o.str_array("tags", &["a\"b", "c\\d"]);
        let text = o.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("cache_hit"));
        assert_eq!(v.get("key").and_then(Value::as_u64), Some(0xdead_beef));
        assert_eq!(v.get("t").and_then(Value::as_f64), Some(0.125));
        assert_eq!(v.get("warm").and_then(Value::as_bool), Some(true));
        let tags = v.get("tags").and_then(Value::as_array).unwrap();
        assert_eq!(tags[0].as_str(), Some("a\"b"));
        assert_eq!(tags[1].as_str(), Some("c\\d"));
    }

    #[test]
    fn as_u64_takes_only_exactly_parsed_integers() {
        let u = |text: &str| parse(text).unwrap().as_u64();
        assert_eq!(u("0"), Some(0));
        assert_eq!(u("9007199254740991"), Some((1 << 53) - 1));
        // 2^53 and 2^53 + 1 parse to the same f64, so neither is exact.
        assert_eq!(u("9007199254740992"), None);
        assert_eq!(u("9007199254740993"), None);
        assert_eq!(u("1.5"), None);
        assert_eq!(u("-1"), None);
    }

    #[test]
    fn parse_handles_nesting_null_and_unicode() {
        let v = parse(r#"{"a":[{"b":null},-1.5e2,"\u00e9\ud83d\ude00"]}"#).unwrap();
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0].get("b"), Some(&Value::Null));
        assert_eq!(arr[1].as_f64(), Some(-150.0));
        assert_eq!(arr[2].as_str(), Some("é😀"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} x",
            "\"unterminated",
            "{\"a\":01x}",
            "nul",
            "\"\\u12\"",
            "\"\\ud800\"", // unpaired surrogate
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Deep nesting is bounded, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
    }
}
