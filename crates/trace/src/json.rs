//! The workspace's JSON: one [`Value`], one strict RFC 8259 [`parse`]r and
//! one writer ([`Value`]'s `Display`). Bench artifacts are built as values
//! and printed; `tracecheck` and the happens-before checker read files
//! back through the same grammar, so nothing the workspace writes can be
//! accepted by one reader and refused by another.

use std::fmt::{self, Write as _};

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// The number's text, unconverted: a trace `ts` converts back to exact
    /// nanoseconds and a fixed-decimals ratio is printed as it was built.
    Number(String),
    String(String),
    Array(Vec<Value>),
    /// Members in document order, duplicates kept — trace-event `args`
    /// encode byte footprints as repeated `"lo"`/`"len"` pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn array<V: Into<Value>>(items: impl IntoIterator<Item = V>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }

    /// `x` with exactly `decimals` fraction digits (`fixed(2.0, 2)` prints
    /// `2.00`); `null` for a value JSON has no number for.
    pub fn fixed(x: f64, decimals: usize) -> Value {
        if x.is_finite() {
            Value::Number(format!("{x:.decimals$}"))
        } else {
            Value::Null
        }
    }

    /// First member named `key` (objects keep duplicates).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// All members of an object, in document order.
    pub fn entries(&self) -> &[(String, Value)] {
        match self {
            Value::Object(m) => m,
            _ => &[],
        }
    }

    /// The value `path` names. Its `/`-separated segments each take an
    /// object's member `key`, the first array element whose member `k`
    /// renders as `v` (`k=v`, rendered by [`Value::scalar`]), or an array
    /// index: `points/p=16/sharded/totals/makespan_ns`.
    pub fn at(&self, path: &str) -> Result<&Value, String> {
        path.split('/').try_fold(self, |v, seg| {
            let next = match (v, seg.split_once('=')) {
                (Value::Array(items), Some((k, want))) => items
                    .iter()
                    .find(|item| item.get(k).and_then(Value::scalar).as_deref() == Some(want)),
                (Value::Array(items), None) => seg.parse().ok().and_then(|i: usize| items.get(i)),
                (Value::Object(_), None) => v.get(seg),
                _ => None,
            };
            next.ok_or_else(|| format!("segment `{seg}` does not resolve"))
        })
    }

    /// A scalar as a document shows it, quotes aside: a number's text, a
    /// string's content, `null`, `true` or `false`; `None` for an array or
    /// an object.
    pub fn scalar(&self) -> Option<String> {
        match self {
            Value::Null => Some("null".into()),
            Value::Bool(b) => Some(b.to_string()),
            Value::Number(n) => Some(n.clone()),
            Value::String(s) => Some(s.clone()),
            Value::Array(_) | Value::Object(_) => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Integer value of a JSON number (no fraction, no exponent).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// A Chrome-trace timestamp — microseconds, rendered by the exporter
    /// as an integer or with exactly a decimal fraction — as exact
    /// nanoseconds. `1234.567` → 1_234_567.
    pub fn as_ns(&self) -> Option<u64> {
        let Value::Number(n) = self else { return None };
        let (whole, frac) = n.split_once('.').unwrap_or((n, ""));
        let us: u64 = whole.parse().ok()?;
        if frac.len() > 3 || !frac.bytes().all(|c| c.is_ascii_digit()) {
            return None;
        }
        let ns: u64 = if frac.is_empty() {
            0
        } else {
            frac.parse().ok()?
        };
        Some(us * 1000 + ns * 10u64.pow(3 - frac.len() as u32))
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n.to_string())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Number(n.to_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

/// An object literal: `object! {"p": 4usize, "ok": true, "t": Value::fixed(x, 2)}`
/// — each value through `Value::from`, members in the order written.
#[macro_export]
macro_rules! object {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Value::object([$(($key, $crate::json::Value::from($value))),*])
    };
}

/// `s` with everything a JSON string may not hold literally escaped.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("a String accepts every write");
            }
            c => out.push(c),
        }
    }
    out
}

/// One line, `{"k": v, "k2": [a, b]}` — the style the bench artifacts use
/// for every object below their top-level frame.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => f.write_str(n),
            Value::String(s) => write!(f, "\"{}\"", escape(s)),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}{v}", if i > 0 { ", " } else { "" })?;
                }
                f.write_str("]")
            }
            Value::Object(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    let sep = if i > 0 { ", " } else { "" };
                    write!(f, "{sep}\"{}\": {v}", escape(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Nesting beyond this is refused rather than recursed into: the parser
/// reads files handed to `tracecheck`.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    s: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.s[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.bump().and_then(|c| (c as char).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.err("bad \\u escape"))?;
        }
        Ok(code)
    }

    /// A `\uXXXX` escape, joined with the low surrogate that follows a high
    /// one; a surrogate on its own decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) && self.s[self.pos..].starts_with("\\u") {
            let mark = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            self.pos = mark;
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        // `"` and `\` are ASCII, so they never split a UTF-8 sequence and
        // the text between them is copied as the `str` it already is.
        let mut run = self.pos;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.s[run..self.pos - 1]);
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.s[run..self.pos - 1]);
                    out.push(match self.bump() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("bad escape")),
                    });
                    run = self.pos;
                }
                Some(c) if c < 0x20 => return Err(self.err("control char in string")),
                Some(_) => {}
            }
        }
    }

    fn digits(&mut self) -> Result<(), String> {
        if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
            return Err(self.err("expected digit"));
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        Ok(Value::Number(self.s[start..self.pos].to_string()))
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(members)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Parse one JSON document (with nothing but whitespace after it).
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        s,
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(p.err("trailing garbage after JSON document"));
    }
    Ok(v)
}

/// Check that `s` is one well-formed JSON document.
pub fn validate_json(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

/// Check that `s` is well-formed JSON *and* shaped like a Chrome trace:
/// a top-level object whose `"traceEvents"` key holds an array.
pub fn validate_chrome_trace(s: &str) -> Result<(), String> {
    match parse(s)? {
        doc @ Value::Object(_) => match doc.get("traceEvents") {
            Some(Value::Array(_)) => Ok(()),
            Some(_) => Err("\"traceEvents\" must be an array".to_string()),
            None => Err("missing \"traceEvents\" array".to_string()),
        },
        _ => Err("chrome trace must be a top-level object".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for s in [
            "null",
            "true",
            "-12.5e+3",
            "0",
            "-0.5E-2",
            "\"a \\u00e9 b\"",
            "\"\\/\\b\\f\"",
            "[]",
            "{}",
            "[1, 2, [3], {\"k\": \"v\"}]",
            "{\"a\": {\"b\": [null, false]}, \"c\": 0.5}",
            "{\"a\":[1,2.5,\"x\\n\"],\"b\":{\"c\":true,\"d\":null}}",
            "{\"lo\": 1, \"len\": 2, \"lo\": 3, \"len\": 4}",
            "  {\"x\": 1}  ",
        ] {
            let v = parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(parse(&v.to_string()).as_ref(), Ok(&v), "{s}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for s in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "{1: 2}",
            "nul",
            "01",
            "1.",
            "+1",
            ".5",
            "1e",
            "-",
            "\"raw\ttab\"",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"bad \\u12g4\"",
            "{\"a\": 1} x",
            "{}extra",
        ] {
            assert!(parse(s).is_err(), "should reject: {s:?}");
            assert!(validate_json(s).is_err(), "should reject: {s:?}");
        }
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().contains("nested too deeply"));
    }

    #[test]
    fn members_keep_document_order_and_duplicates() {
        let v = parse(r#"{"a":[1,2.5,"x\n"],"b":{"c":true,"d":null},"a":7}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.entries().len(), 3);
        assert_eq!(v.entries()[2].1.as_u64(), Some(7));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("x\n")
        );
    }

    #[test]
    fn paths_take_members_keyed_elements_and_indices() {
        let v = parse(
            r#"{"points": [{"p": 4, "m": {"x": 1}}, {"p": 16, "m": {"x": 2}}, {"p": 16}],
                "s": "a", "flag": null}"#,
        )
        .unwrap();
        assert_eq!(v.at("points/p=16/m/x").unwrap().scalar().unwrap(), "2");
        assert_eq!(v.at("points/0/m/x").unwrap().scalar().unwrap(), "1");
        assert_eq!(v.at("points/2").unwrap().get("m"), None);
        assert_eq!(v.at("s").unwrap().scalar().unwrap(), "a");
        assert_eq!(v.at("flag").unwrap().scalar().unwrap(), "null");
        assert_eq!(v.at("points").unwrap().scalar(), None);
        for (bad, seg) in [
            ("points/p=64/m", "p=64"),
            ("points/3", "3"),
            ("s/x", "x"),
            ("nope", "nope"),
            ("points/x=1", "x=1"),
        ] {
            assert_eq!(
                v.at(bad).unwrap_err(),
                format!("segment `{seg}` does not resolve")
            );
        }
    }

    #[test]
    fn escapes_decode_to_the_characters_they_name() {
        let v = parse(r#""\u00e9 \ud83d\ude00 \ud800 \"\\\/\b\f\n\r\t""#).unwrap();
        assert_eq!(
            v.as_str(),
            Some("\u{e9} \u{1f600} \u{fffd} \"\\/\u{8}\u{c}\n\r\t")
        );
    }

    #[test]
    fn ts_microseconds_convert_exactly() {
        let v = parse(r#"{"ts":1234.567,"t2":42,"t3":7.5,"t4":1.2345,"t5":1e3}"#).unwrap();
        assert_eq!(v.get("ts").unwrap().as_ns(), Some(1_234_567));
        assert_eq!(v.get("t2").unwrap().as_ns(), Some(42_000));
        assert_eq!(v.get("t3").unwrap().as_ns(), Some(7_500));
        assert_eq!(v.get("t4").unwrap().as_ns(), None);
        assert_eq!(v.get("t5").unwrap().as_ns(), None);
    }

    #[test]
    fn writer_prints_the_inline_artifact_style() {
        let v = Value::object([
            ("n", Value::from(3u64)),
            ("ratio", Value::fixed(2.0, 2)),
            ("inf", Value::fixed(f64::INFINITY, 2)),
            ("ok", Value::from(true)),
            ("s", Value::from("a\"b\u{1}")),
            ("list", Value::array([1usize, 2])),
            ("empty", Value::object::<&str>([])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"n\": 3, \"ratio\": 2.00, \"inf\": null, \"ok\": true, \
             \"s\": \"a\\\"b\\u0001\", \"list\": [1, 2], \"empty\": {}}"
        );
    }

    #[test]
    fn chrome_shape_check() {
        validate_chrome_trace("{\"traceEvents\":[]}").unwrap();
        validate_chrome_trace("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{\"ph\":\"M\"}]}")
            .unwrap();
        let err = |s| validate_chrome_trace(s).unwrap_err();
        assert_eq!(err("[]"), "chrome trace must be a top-level object");
        assert_eq!(
            err("{\"traceEvents\":{}}"),
            "\"traceEvents\" must be an array"
        );
        assert_eq!(err("{\"other\":1}"), "missing \"traceEvents\" array");
        assert!(err("{\"traceEvents\":[}").contains("expected a JSON value"));
    }
}
