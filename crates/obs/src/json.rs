//! Minimal JSON encoding and parsing for telemetry records and answers.
//!
//! The offline workspace has no `serde_json`; the events and manifests this
//! crate emits only need objects of strings, numbers, bools, and arrays of
//! strings, and `hecmix-serve`'s answers add nested objects — which this
//! module hand-rolls with correct string escaping and deterministic
//! (insertion) key order. The writers append to a caller's `String`, so an
//! [`Object`] and everything nested in it are written into one buffer. The
//! [`parse`] half exists for the consumers of those lines: `hecmix-serve`
//! decodes request bodies with it, and tests use it to assert that every
//! emitted JSONL line round-trips.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Whether byte `b` must be escaped inside a JSON string. Only ASCII
/// bytes ever do, so a multi-byte character is never split.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Escape `s` per JSON string rules into `out` (without surrounding
/// quotes), copying each run of bytes that need no escape whole.
fn escape_into(out: &mut String, mut s: &str) {
    while let Some(i) = s.bytes().position(needs_escape) {
        out.push_str(&s[..i]);
        match s.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        s = &s[i + 1..];
    }
    out.push_str(s);
}

/// `s` escaped per JSON string rules, without quotes: borrowed when no
/// character needs escaping, which is the common case for names.
#[must_use]
pub fn escaped(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(needs_escape) {
        Cow::Borrowed(s)
    } else {
        let mut out = String::with_capacity(s.len() + 8);
        escape_into(&mut out, s);
        Cow::Owned(out)
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append a finite `f64` to `out` as a JSON number; non-finite values
/// (which JSON cannot represent) become `null`.
pub fn write_number(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` round-trips f64 exactly (shortest representation).
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Incremental builder for a JSON object with insertion-ordered keys.
/// Every field, nested objects included, is written in place into the one
/// buffer that [`Object::finish`] hands back.
#[derive(Debug)]
pub struct Object {
    buf: String,
    /// No field written yet.
    empty: bool,
}

impl Default for Object {
    fn default() -> Self {
        Self::new()
    }
}

impl Object {
    /// Start an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Start an empty object whose buffer holds `capacity` bytes before it
    /// grows.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::open(String::with_capacity(capacity))
    }

    /// Continue `buf` with a new object.
    fn open(mut buf: String) -> Self {
        buf.push('{');
        Self { buf, empty: true }
    }

    fn key(&mut self, k: &str) {
        if !self.empty {
            self.buf.push(',');
        }
        self.empty = false;
        write_string(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        write_string(&mut self.buf, v);
    }

    /// Add a string field whose text `write` appends to the buffer. The
    /// text must already be escaped: `write` sees the raw buffer.
    pub fn str_with(&mut self, k: &str, write: impl FnOnce(&mut String)) {
        self.key(k);
        self.buf.push('"');
        write(&mut self.buf);
        self.buf.push('"');
    }

    /// Add an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) {
        self.key(k);
        let _ = write!(self.buf, "{v}");
    }

    /// Add a float field (`null` if non-finite).
    pub fn f64(&mut self, k: &str, v: f64) {
        self.key(k);
        write_number(&mut self.buf, v);
    }

    /// Add a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Add an array-of-strings field.
    pub fn str_array<S: AsRef<str>>(&mut self, k: &str, vs: &[S]) {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            write_string(&mut self.buf, v.as_ref());
        }
        self.buf.push(']');
    }

    /// Add a nested object field whose fields `fields` writes.
    pub fn object(&mut self, k: &str, fields: impl FnOnce(&mut Object)) {
        self.key(k);
        self.nest(fields);
    }

    /// Add an array-of-objects field: one object per item of `items`, its
    /// fields written by `fields`.
    pub fn objects<T>(
        &mut self,
        k: &str,
        items: impl IntoIterator<Item = T>,
        mut fields: impl FnMut(&mut Object, T),
    ) {
        self.key(k);
        self.buf.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.nest(|o| fields(o, item));
        }
        self.buf.push(']');
    }

    /// Write one nested object into this object's buffer.
    fn nest(&mut self, fields: impl FnOnce(&mut Object)) {
        let mut inner = Object::open(std::mem::take(&mut self.buf));
        fields(&mut inner);
        self.buf = inner.finish();
    }

    /// Finish: the complete `{...}` text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Add a raw, already-encoded JSON fragment (e.g. a nested array built
    /// elsewhere). The caller is responsible for its validity.
    pub fn raw(&mut self, k: &str, fragment: &str) {
        self.key(k);
        self.buf.push_str(fragment);
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

    /// Exactly four ASCII hex digits, as `\u` requires (no sign).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        let mut v = 0;
        for &b in digits {
            let d = char::from(b)
                .to_digit(16)
                .ok_or_else(|| "bad \\u escape".to_owned())?;
            v = v * 16 + d;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Advance past one byte if it is one of `set`.
    fn eat(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|c| set.contains(&c));
        self.pos += usize::from(hit);
        hit
    }

    /// Advance past a run of ASCII digits; false when the run is empty.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// RFC 8259's `number`: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
    /// ([eE] [+-]? [0-9]+)?`. A leading zero ends the integer part, so
    /// `01` leaves `1` behind as trailing data.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b"-");
        let mut ok = self.eat(b"0") || self.digits();
        if self.eat(b".") {
            ok &= self.digits();
        }
        if self.eat(b"eE") {
            self.eat(b"+-");
            ok &= self.digits();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            Ok(v) if ok => Ok(Value::Num(v)),
            _ => Err(format!("bad number {text:?} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(s: &str) -> String {
        let mut out = String::new();
        write_string(&mut out, s);
        out
    }

    fn number(v: f64) -> String {
        let mut out = String::new();
        write_number(&mut out, v);
        out
    }

    /// SplitMix64, for seeded inputs.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn escapes_quotes_and_control_chars() {
        assert_eq!(string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("\u{7f}é"), "\"\u{7f}é\"");
    }

    #[test]
    fn escaping_matches_the_per_character_rule() {
        // The rule as a per-character match, the oracle for the run copy.
        let oracle = |s: &str| {
            let mut out = String::from("\"");
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
            out
        };
        let alphabet = [
            'a', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '😀',
        ];
        let mut state = 0x5eed;
        for _ in 0..2_000 {
            let len = (splitmix(&mut state) % 12) as usize;
            let s: String = (0..len)
                .map(|_| alphabet[(splitmix(&mut state) % alphabet.len() as u64) as usize])
                .collect();
            assert_eq!(string(&s), oracle(&s), "{s:?}");
            assert_eq!(format!("\"{}\"", escaped(&s)), oracle(&s), "{s:?}");
            assert_eq!(
                matches!(escaped(&s), Cow::Borrowed(_)),
                !s.chars()
                    .any(|c| c == '"' || c == '\\' || (c as u32) < 0x20),
                "{s:?}"
            );
            assert_eq!(parse(&string(&s)), Ok(Value::Str(s)));
        }
    }

    #[test]
    fn numbers_round_trip_and_nan_is_null() {
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn write_number_is_the_debug_text_of_every_finite_f64() {
        let oracle = |v: f64| {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_owned()
            }
        };
        let mut named = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_dead_beef_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // Both sides of where `{:?}` switches to and from an exponent.
        for edge in [1e-5_f64, 1e-4, 1e15, 1e16, 1e17] {
            for v in [edge, -edge] {
                named.extend([
                    v,
                    f64::from_bits(v.to_bits() - 1),
                    f64::from_bits(v.to_bits() + 1),
                ]);
            }
        }
        let mut state = 0xf64;
        let seeded = (0..100_000).map(|_| f64::from_bits(splitmix(&mut state)));
        // Appends keep what the buffer already holds.
        let mut out = String::from("[");
        let mut want = String::from("[");
        for v in named.into_iter().chain(seeded) {
            let at = out.len();
            write_number(&mut out, v);
            assert_eq!(out[at..], oracle(v), "bits {:#018x}", v.to_bits());
            want.push_str(&oracle(v));
        }
        assert_eq!(out, want);
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
        assert_eq!(Object::default().finish(), "{}");
    }

    #[test]
    fn nested_objects_write_into_the_one_buffer() {
        let mut o = Object::with_capacity(64);
        o.u64("n", 2);
        o.object("empty", |_| {});
        o.object("shares", |s| {
            s.f64("low", 0.25);
            s.f64("high", f64::NAN);
        });
        o.objects("points", [1.5, 2.0], |p, t| {
            p.f64("t", t);
            p.str_with("label", |out| out.push_str("a \\\"b\\\""));
        });
        o.objects("none", std::iter::empty::<u8>(), |_, _| {});
        o.str("after", "z");
        let text = o.finish();
        assert_eq!(
            text,
            r#"{"n":2,"empty":{},"shares":{"low":0.25,"high":null},"points":[{"t":1.5,"label":"a \"b\""},{"t":2.0,"label":"a \"b\""}],"none":[],"after":"z"}"#
        );
        let v = parse(&text).unwrap();
        let points = v.get("points").and_then(Value::as_array).unwrap();
        assert_eq!(
            points[1].get("label").and_then(Value::as_str),
            Some("a \"b\"")
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

    /// `v` written back as JSON text through this module's writers.
    fn encode(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode(item, out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    encode(item, out);
                }
                out.push('}');
            }
        }
    }

    /// How deep containers nest in `v`: 0 for a scalar.
    fn depth(v: &Value) -> usize {
        match v {
            Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Value::Object(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    #[test]
    fn mutated_documents_never_panic_or_nest_past_the_cap() {
        let mut answer = Object::new();
        answer.str("kind", "a \"quoted\" \\ line\n\t\u{1}\u{7f}");
        answer.str("name", "é 😀 ǅ");
        answer.u64("max", u64::MAX);
        answer.bool("cached", false);
        answer.f64("nan", f64::NAN);
        answer.object("shares", |s| {
            s.f64("low", -0.0);
            s.f64("high", f64::MIN_POSITIVE);
            s.object("empty", |_| {});
        });
        let times = [f64::from_bits(1), 1e-5, 1e16, f64::MAX, -1.5e-300];
        answer.objects("points", times, |p, t| {
            p.f64("t", t);
            p.str_array("tags", &["a", "\"", ""]);
            p.raw("raw", "[1,[2.5,[]],{}]");
        });
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let seeds = [
            answer.finish(),
            nested(MAX_DEPTH),
            r#"{"workload":"ep","arm":512,"amd":128,"deadline_ms":40.5}"#.to_owned(),
        ];
        // Every seed parses, and its value written back parses to itself.
        for seed in &seeds {
            let v = parse(seed).unwrap_or_else(|e| panic!("{seed}: {e}"));
            let mut text = String::new();
            encode(&v, &mut text);
            assert_eq!(parse(&text), Ok(v), "{seed}");
        }
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());

        let inserts: [&str; 4] = ["\\u", "\\ud800", "1e999", "nul"];
        let mut state = 0x4a53_4f4e;
        let mut pick = |n: usize| (splitmix(&mut state) % n.max(1) as u64) as usize;
        for _ in 0..20_000 {
            let mut bytes = seeds[pick(seeds.len())].clone().into_bytes();
            for _ in 0..=pick(3) {
                let at = pick(bytes.len() + 1);
                match pick(4) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << pick(8),
                    1 => bytes.truncate(at),
                    2 => {
                        let donor = seeds[pick(seeds.len())].as_bytes();
                        let from = pick(donor.len());
                        let to = from + pick(donor.len() - from + 1);
                        bytes.splice(at..at, donor[from..to].iter().copied());
                    }
                    _ => {
                        let insert = inserts[pick(inserts.len())];
                        bytes.splice(at..at, insert.bytes());
                    }
                }
            }
            let Ok(text) = std::str::from_utf8(&bytes) else {
                continue;
            };
            if let Ok(v) = parse(text) {
                assert!(depth(&v) <= MAX_DEPTH, "{text}");
            }
        }
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
            // Numbers outside RFC 8259's grammar.
            "01",
            "-01",
            "00",
            "1.",
            "-.5",
            "1.e5",
            "[01]",
            "{\"arm\":01}",
            "1e",
            "1e+",
            "-",
            // `\u` takes exactly four hex digits, with no sign.
            "\"\\u+041\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Deep nesting is bounded, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
    }
}
