//! Minimal JSON reading and writing.
//!
//! The container has no serde, so campaign persistence hand-rolls the
//! small JSON subset it needs: objects, arrays, strings, finite numbers,
//! booleans, and null.
//!
//! Reading has one tokenizer, the pull reader `Reader`. [`parse`] builds
//! a [`Value`] tree through it; `parse_with` hands one top-level member
//! to the caller instead, which is how result files and journal lines
//! read their cells into typed records without a tree. Both accept
//! standard JSON (string escapes included) and reject trailing garbage.
//! Writing appends to one `String` (`push_quoted`, `push_num`; [`quote`]
//! and [`num`] return the same text) and always emits valid JSON.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (campaign counters stay well below 2^53, where
    /// f64 is exact).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object. BTreeMap keeps key order deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String content.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric content as u64 (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Array content.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object content.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Escape and quote a string for JSON output.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Append `s` escaped and quoted, as [`quote`] renders it.
pub(crate) fn push_quoted(out: &mut String, s: &str) {
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

/// Format a float so it parses back exactly and never prints as
/// `NaN`/`inf` (both become `0`, which JSON requires).
pub fn num(v: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, v);
    out
}

/// Append `v` as [`num`] renders it.
pub(crate) fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        // {:?} prints the shortest representation that round-trips.
        let _ = write!(out, "{v:?}");
    } else {
        out.push('0');
    }
}

/// Parse a complete JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader::new(text);
    let value = r.value()?;
    r.finish()?;
    Ok(value)
}

/// Parse a complete JSON document like [`parse`], except that each
/// member named `key` of a top-level object goes to `read`, which must
/// consume its value, instead of into the tree. A document that is not
/// an object reads as an empty one.
pub(crate) fn parse_with(
    text: &str,
    key: &str,
    mut read: impl FnMut(&mut Reader<'_>) -> Result<(), String>,
) -> Result<Value, String> {
    let mut r = Reader::new(text);
    let mut map = BTreeMap::new();
    r.obj(|r, k| {
        if k == key {
            return read(r);
        }
        map.insert(k.into_owned(), r.value()?);
        Ok(())
    })?;
    r.finish()?;
    Ok(Value::Obj(map))
}

/// A pull reader over one JSON text. Errors are syntax errors naming
/// the byte offset; what a caller does with well-formed values it does
/// not expect is its own business.
pub(crate) struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            b: text.as_bytes(),
            pos: 0,
        }
    }

    /// The next byte after whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.b.get(self.pos) {
            self.pos += 1;
        }
        self.b.get(self.pos).copied()
    }

    /// Succeed only if nothing but whitespace is left.
    fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing garbage at byte {}", self.pos)),
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    /// Read the next value, whatever it is, into a tree.
    pub fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.obj(|r, k| {
                    map.insert(k.into_owned(), r.value()?);
                    Ok(())
                })?;
                Ok(Value::Obj(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.arr(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(_) => self.number().map(Value::Num),
        }
    }

    /// Read an object, calling `member` with each key in document order
    /// (duplicates included); `member` must consume the key's value.
    /// Any other value is skipped and answers `false`.
    pub fn obj(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.peek() != Some(b'{') {
            self.value()?;
            return Ok(false);
        }
        self.pos += 1;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(true);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// Read an array, calling `item` once per element; `item` must
    /// consume it. Any other value is skipped and answers `false`.
    pub fn arr(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.peek() != Some(b'[') {
            self.value()?;
            return Ok(false);
        }
        self.pos += 1;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(true);
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.b.get(self.pos) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    /// A string's content, borrowed from the text unless it has escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            // Multi-byte UTF-8 sequences pass through byte-wise.
            let s = self.pos;
            while !matches!(self.b.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let run =
                std::str::from_utf8(&self.b[s..self.pos]).map_err(|e| format!("bad utf8: {e}"))?;
            if out.is_empty() {
                out = Cow::Borrowed(run);
            } else {
                out.to_mut().push_str(run);
            }
            match self.b.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let out = out.to_mut();
                    match self.b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let pos = self.pos;
                            let hex = self
                                .b
                                .get(pos + 1..pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -1.5e2 ").unwrap(), Value::Num(-150.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Value::Str("a\nb".to_string()));
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"a": [1, {"b": "x"}], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(false)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn quote_roundtrip() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnewline\n",
            "unicode µ±",
            "back\\slash",
        ] {
            let parsed = parse(&quote(s)).unwrap();
            assert_eq!(parsed.as_str(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn num_roundtrip() {
        for v in [0.0, 1.5, 1e-9, 123456789.0, 0.1 + 0.2] {
            let parsed = parse(&num(v)).unwrap();
            assert_eq!(parsed.as_f64(), Some(v));
        }
        assert_eq!(num(f64::NAN), "0");
    }

    #[test]
    fn u64_exactness_within_2_53() {
        let big = (1u64 << 53) - 1;
        let parsed = parse(&format!("{big}")).unwrap();
        assert_eq!(parsed.as_u64(), Some(big));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }
}
