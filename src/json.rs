//! Minimal JSON support for the service front end and the CLI's
//! `--format json` mode.
//!
//! The workspace builds with zero external dependencies, so this module
//! provides the small subset of JSON the wire format needs: a value
//! tree ([`Json`]), a strict recursive-descent parser ([`Json::parse`]),
//! and a compact single-line encoder ([`Json::encode_into`], which
//! `Display` delegates to). Object key order is
//! preserved; numbers are `f64` (every request field the service reads
//! is well inside `f64`'s exact-integer range).

use std::fmt::{self, Write as _};

use vulnds_core::VulnError;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, VulnError> {
        Json::parse_salvaging_id(text).0
    }

    /// Like [`Json::parse`], but additionally returns any root-level
    /// `"id"` member that had already been parsed when a later syntax
    /// error cut the document short — so a protocol error response can
    /// still echo the request's id.
    pub fn parse_salvaging_id(text: &str) -> (Result<Json, VulnError>, Option<Json>) {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0, root_id: None };
        p.skip_ws();
        let result = p.value().and_then(|value| {
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(p.err("trailing characters after JSON value"));
            }
            Ok(value)
        });
        let id = p.root_id.take();
        (result, id)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's items, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Appends the value's compact single-line encoding to `out` — the
    /// one encoder behind `Display`, the CLI's `--format json` output
    /// and every `serve` response line.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => encode_number(*n, out),
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(key, out);
                    out.push(':');
                    value.encode_into(out);
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

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
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

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.encode_into(&mut out);
        f.write_str(&out)
    }
}

/// Below 2^53 every integral `f64` is an exact `i64`, whose digits are
/// the ones `f64`'s `Display` prints for it.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

fn encode_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional spelling.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < EXACT_INT_LIMIT && !(n == 0.0 && n.is_sign_negative()) {
        // Node ids and counters: the integer formatter, no float digits.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Writes `s` as a quoted JSON string, copying each run of bytes that
/// needs no escape as one slice. Every escaped byte is ASCII, so run
/// boundaries always fall on `char` boundaries.
fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'\\' => '\\',
            b'"' => '"',
            b'\n' => 'n',
            b'\r' => 'r',
            b'\t' => 't',
            0..=0x1f => 'u',
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push('\\');
        out.push(escape);
        if escape == 'u' {
            let _ = write!(out, "{b:04x}");
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Maximum container nesting the parser accepts. Service requests are
/// at most three levels deep; the cap turns a hostile line of repeated
/// `[` into a parse error instead of recursing until the worker
/// thread's stack overflows (which aborts the whole process in Rust).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    /// The source document; `bytes` is its byte view and `pos` always
    /// sits on a UTF-8 scalar boundary within it.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Root-level `"id"` member seen so far (for error-id salvage).
    root_id: Option<Json>,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> VulnError {
        VulnError::Usage(format!("invalid JSON at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), VulnError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, VulnError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, VulnError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Runs one container parse a nesting level deeper, enforcing
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: impl FnOnce(&mut Self) -> Result<Json, VulnError>,
    ) -> Result<Json, VulnError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, VulnError> {
        self.expect_byte(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, VulnError> {
        self.expect_byte(b'{')?;
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
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            // Depth 1 is the document's root object: remember its id
            // so an error later in the document can still echo it.
            if self.depth == 1 && key == "id" && self.root_id.is_none() {
                self.root_id = Some(value.clone());
            }
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, VulnError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // from_str_radix tolerates a leading '+',
                            // so check the digits ourselves: exactly
                            // four ASCII hex characters, nothing else.
                            if !hex.iter().all(|b| b.is_ascii_hexdigit()) {
                                return Err(self.err("invalid \\u escape"));
                            }
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are rejected rather than paired:
                            // the service's own encoder never emits them.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                // RFC 8259: control characters (including NUL) must
                // arrive as escapes; a raw one is framing damage, not
                // content.
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string (escape it)"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever
                    // advances by whole scalars or past ASCII bytes,
                    // so it is always a valid `str` boundary and the
                    // checked slice cannot fail.
                    let Some(c) = self.text.get(self.pos..).and_then(|s| s.chars().next()) else {
                        return Err(self.err("malformed UTF-8 sequence"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, VulnError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // The scanned range is all ASCII, so the slice is always on
        // char boundaries; a failed slice is unreachable but maps to a
        // clean parse error rather than a panic.
        let text = self.text.get(start..self.pos).ok_or_else(|| self.err("invalid number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnds_sampling::Xoshiro256pp;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"k": 5, "algorithm": "bsrbk", "candidates": [1, 2, 3], "opts": {"warm": true, "note": null}}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(5));
        assert_eq!(v.get("algorithm").and_then(Json::as_str), Some("bsrbk"));
        let c: Vec<u64> = v
            .get("candidates")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(c, vec![1, 2, 3]);
        assert_eq!(v.get("opts").unwrap().get("warm").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("opts").unwrap().get("note"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_string_escapes() {
        let v = Json::parse(r#""a\"b\\c\nAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nAé"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{\"a\":1} x",
            "\"unterminated",
            "\"bad \\q escape\"",
            "nul",
            "[1 2]",
            "{1: 2}",
            // A signed \u escape must be rejected, not read as "A" + "41".
            "\"\\u+04141\"",
            "\"\\u00g1\"",
            "\"\\u12\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
        assert_eq!(Json::parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn round_trips_through_display() {
        let original = r#"{"id":7,"cmd":"detect","k":3,"score":0.125,"tags":["a\nb","c\"d"],"none":null,"on":true}"#;
        let parsed = Json::parse(original).unwrap();
        let rendered = parsed.to_string();
        assert_eq!(rendered, original);
        assert_eq!(Json::parse(&rendered).unwrap(), parsed);
    }

    #[test]
    fn salvages_root_id_from_broken_documents() {
        // id parsed before the error: salvaged.
        let (res, id) = Json::parse_salvaging_id(r#"{"id": 42, "cmd": "detect", "k": }"#);
        assert!(res.is_err());
        assert_eq!(id, Some(Json::Num(42.0)));
        // String ids salvage too.
        let (res, id) = Json::parse_salvaging_id(r#"{"id": "req-7", "k": [}"#);
        assert!(res.is_err());
        assert_eq!(id, Some(Json::Str("req-7".into())));
        // Error before the id member: nothing to salvage.
        let (res, id) = Json::parse_salvaging_id(r#"{"k": , "id": 42}"#);
        assert!(res.is_err());
        assert_eq!(id, None);
        // Nested ids are not the request's id.
        let (res, id) = Json::parse_salvaging_id(r#"{"opts": {"id": 9}, "k": }"#);
        assert!(res.is_err());
        assert_eq!(id, None);
        // A clean parse reports the id as well (unused by callers).
        let (res, id) = Json::parse_salvaging_id(r#"{"id": 1, "k": 5}"#);
        assert!(res.is_ok());
        assert_eq!(id, Some(Json::Num(1.0)));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    /// `value` encoded through [`Json::encode_into`] after a prefix the
    /// encoder must append to, not overwrite.
    fn encoded(value: &Json) -> String {
        let mut out = String::from(">");
        value.encode_into(&mut out);
        let encoded = out.split_off(1);
        assert_eq!(encoded, value.to_string(), "Display and encode_into disagree");
        encoded
    }

    #[test]
    fn encodes_numbers_like_f64_display() {
        let two_53 = 2f64.powi(53);
        for (n, want) in [
            (-0.0, "-0"),
            (0.0, "0"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1e21, "1000000000000000000000"),
            (1e-7, "0.0000001"),
            (two_53, "9007199254740992"),
            (two_53 - 1.0, "9007199254740991"),
            (-(two_53 - 1.0), "-9007199254740991"),
            ((two_53 as u64 + 1) as f64, "9007199254740992"),
            (u64::MAX as f64, "18446744073709552000"),
            (42.0, "42"),
            (-7.0, "-7"),
            (2.5, "2.5"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(encoded(&Json::Num(n)), want, "{n:?}");
            // The integer fast path prints what f64's Display prints.
            if n.is_finite() {
                assert_eq!(want, format!("{n}"), "{n:?}");
            }
        }
    }

    #[test]
    fn encodes_strings_and_keys_with_minimal_escapes() {
        // Only `"`, `\` and control characters are escaped; DEL,
        // non-ASCII text and U+2028 pass through as UTF-8.
        let text = "a\"b\\c\n\r\t\u{0}\u{1f}\u{7f} é漢\u{2028}😀";
        let want = "\"a\\\"b\\\\c\\n\\r\\t\\u0000\\u001f\u{7f} é漢\u{2028}😀\"";
        assert_eq!(encoded(&Json::Str(text.into())), want);
        let object = Json::Obj(vec![(text.into(), Json::Str(text.into()))]);
        assert_eq!(encoded(&object), format!("{{{want}:{want}}}"));
        assert_eq!(Json::parse(&encoded(&object)).unwrap(), object);
        assert_eq!(encoded(&Json::Str(String::new())), r#""""#);
        assert_eq!(encoded(&Json::Arr(Vec::new())), "[]");
        assert_eq!(encoded(&Json::Obj(Vec::new())), "{}");
        assert_eq!(
            encoded(&Json::Arr(vec![Json::Arr(Vec::new()), Json::Obj(Vec::new())])),
            "[[],{}]"
        );
        assert_eq!(encoded(&Json::Bool(false)), "false");
        assert_eq!(encoded(&Json::Null), "null");
    }

    /// A random value at most `depth` containers deep; numbers are
    /// finite and strings mix ASCII, escapes and multi-byte text.
    fn random_json(rng: &mut Xoshiro256pp, depth: usize) -> Json {
        fn below(rng: &mut Xoshiro256pp, n: u64) -> usize {
            (rng.next_u64_raw() % n) as usize
        }
        fn text(rng: &mut Xoshiro256pp) -> String {
            const ALPHABET: [char; 12] =
                ['a', 'Z', '0', ' ', '"', '\\', '\n', '\u{1}', 'é', '漢', '\u{2028}', '😀'];
            (0..below(rng, 8)).map(|_| ALPHABET[below(rng, 12)]).collect()
        }
        match below(rng, if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(below(rng, 2) == 1),
            2 => {
                let bits = rng.next_u64_raw();
                let n = match bits % 3 {
                    // Integers across the fast path's whole range.
                    0 => (bits >> 10) as f64 - 2f64.powi(53),
                    1 => rng.next_f64(),
                    // Any magnitude, subnormals and huge integers included.
                    _ => f64::from_bits(bits),
                };
                Json::Num(if n.is_finite() { n } else { -0.0 })
            }
            3 | 4 => Json::Str(text(rng)),
            5 => Json::Arr((0..below(rng, 4)).map(|_| random_json(rng, depth - 1)).collect()),
            _ => Json::Obj(
                (0..below(rng, 4)).map(|_| (text(rng), random_json(rng, depth - 1))).collect(),
            ),
        }
    }

    #[test]
    fn random_trees_round_trip_through_the_encoder() {
        let mut rng = Xoshiro256pp::new(0x5eed_0034);
        for _ in 0..2_000 {
            let value = random_json(&mut rng, 4);
            let text = encoded(&value);
            assert_eq!(Json::parse(&text).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn nesting_is_depth_limited_not_stack_limited() {
        // At the cap: parses fine.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        // One past the cap: a clean error.
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&deep).is_err());
        // A hostile megabyte of '[' must error, not overflow the stack.
        let hostile = "[".repeat(1 << 20);
        assert!(Json::parse(&hostile).is_err());
        // Mixed containers count too.
        let mixed = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&mixed).is_err());
    }
}
