//! A minimal JSON value: build, serialize, parse.
//!
//! The workspace compiles with zero external crates, so the trace and
//! metrics exports cannot use `serde_json`. This module is the small
//! subset they need: an owned [`Json`] tree, a `Display` serializer
//! (stable key order — objects keep insertion order), and a strict
//! recursive-descent parser used by the round-trip tests and by
//! [`crate::report::validate`].
//!
//! Numbers are stored as `f64` (JSON's own model); `u64` counters
//! above 2^53 lose precision on export, which no counter in a single
//! run approaches.

use std::collections::BTreeMap;
use std::fmt;

/// An owned JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert/append `key: value` (builder style; objects only).
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(pairs) = &mut self {
            pairs.push((key.to_string(), value.into()));
        }
        self
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer value, if this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a JSON document (strict; the whole input must be one
    /// value plus trailing whitespace).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
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

fn escape(s: &str, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => {
                if !x.is_finite() {
                    // JSON has no NaN/Infinity; degrade to null.
                    f.write_str("null")
                } else if x.fract() == 0.0 && x.abs() < 9.007e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            Json::Str(s) => escape(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
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
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogate pairs are not needed by our
                            // exports; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-consume up to the next quote or escape, so
                    // UTF-8 validation touches each byte once (a
                    // per-char `from_utf8` of the remaining input is
                    // quadratic on multi-megabyte traces).
                    let rest = &self.bytes[self.pos..];
                    let run =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    let s = std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?;
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
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
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
        let mut pairs = Vec::new();
        let mut seen = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(format!("duplicate key \"{key}\""));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_display() {
        let j = Json::obj()
            .set("name", "curare")
            .set("tasks", 42u64)
            .set("ratio", 0.5)
            .set("ok", true)
            .set("tags", Json::Arr(vec!["a".into(), "b".into()]));
        assert_eq!(
            j.to_string(),
            r#"{"name":"curare","tasks":42,"ratio":0.5,"ok":true,"tags":["a","b"]}"#
        );
    }

    #[test]
    fn parse_round_trips() {
        let src = r#"{"a":[1,2.5,-3],"b":{"c":null,"d":false},"e":"x\"y\n"}"#;
        let v = Json::parse(src).unwrap();
        let reprinted = v.to_string();
        assert_eq!(Json::parse(&reprinted).unwrap(), v);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\"y\n"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("{\"a\":1,\"a\":2}").is_err(), "duplicate keys rejected");
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn numbers_print_precisely() {
        assert_eq!(Json::Num(1e9).to_string(), "1000000000");
        assert_eq!(Json::Num(-7.0).to_string(), "-7");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        let big = 123_456_789_012_345u64;
        assert_eq!(Json::from(big).as_u64(), Some(big));
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let j = Json::Str("λ → \t \"x\" ∎".to_string());
        let back = Json::parse(&j.to_string()).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn whitespace_tolerant() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"c\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }
}
