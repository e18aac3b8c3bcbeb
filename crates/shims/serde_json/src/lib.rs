//! Offline shim for `serde_json`: `to_string`, `to_string_pretty` and
//! `from_str` over the `serde` shim's [`Value`] data model, with a small
//! recursive-descent JSON parser.
//!
//! Numbers print via Rust's shortest-round-trip float formatting, so
//! `f64 → JSON → f64` is lossless; integer-shaped floats (e.g. `1.0`)
//! print as `1` and are accepted back by `f64::deserialize`.

use serde::de::DeserializeOwned;
use serde::{Serialize, Value};
use std::fmt::{self, Display, Write as _};

/// Error raised while (de)serializing JSON.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}
impl std::error::Error for Error {}
impl serde::ser::Error for Error {
    fn custom<T: Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}
impl serde::de::Error for Error {
    fn custom<T: Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let v = serde::ser::to_value(value).map_err(|e| Error(e.to_string()))?;
    let mut out = String::new();
    write_value(&mut out, &v, None, 0);
    Ok(out)
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let v = serde::ser::to_value(value).map_err(|e| Error(e.to_string()))?;
    let mut out = String::new();
    write_value(&mut out, &v, Some(2), 0);
    Ok(out)
}

/// Parses a value of type `T` from a JSON string.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T> {
    serde::de::from_value(parse_document(s)?).map_err(|e| Error(e.to_string()))
}

/// Parses one complete JSON document into the shim's [`Value`].
fn parse_document(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(x) => {
            if x.is_finite() {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    // Match serde_json's "1.0" rendering for integral floats.
                    let _ = write!(out, "{x:.1}");
                } else {
                    let _ = write!(out, "{x}");
                }
            } else {
                out.push_str("null"); // serde_json's behaviour for non-finite
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            write_compound(out, indent, level, '[', ']', items.len(), |out, i, lvl| {
                write_value(out, &items[i], indent, lvl);
            })
        }
        Value::Map(entries) => {
            write_compound(
                out,
                indent,
                level,
                '{',
                '}',
                entries.len(),
                |out, i, lvl| {
                    write_escaped(out, &entries[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, &entries[i].1, indent, lvl);
                },
            );
        }
    }
}

fn write_compound(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(level + 1) * width {
                out.push(' ');
            }
        }
        write_item(out, i, level + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..level * width {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array/object nesting [`from_str`] accepts (serde_json's
/// default recursion limit). The parser recurses once per level, so
/// without a cap one line of nested `[` overflows the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_seq),
            Some(b'{') => self.nested(Self::parse_map),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// Runs `parse` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_seq(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error("unterminated string".into()));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error("unterminated escape".into()));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("invalid \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("invalid \\u escape".into()))?;
                            self.pos += 4;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("invalid \\u code point".into()))?,
                            );
                        }
                        other => {
                            return Err(Error(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 starting at pos-1.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let chunk = self
                        .bytes
                        .get(start..start + width)
                        .ok_or_else(|| Error("truncated UTF-8".into()))?;
                    s.push_str(
                        std::str::from_utf8(chunk).map_err(|_| Error("invalid UTF-8".into()))?,
                    );
                    self.pos = start + width;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("invalid float literal `{text}`")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| Error(format!("invalid integer literal `{text}`")))
        }
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        assert_eq!(to_string(&42i64).unwrap(), "42");
        assert_eq!(from_str::<i64>("42").unwrap(), 42);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&-2.5f64).unwrap(), "-2.5");
        assert_eq!(from_str::<f64>("-2.5").unwrap(), -2.5);
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(from_str::<f64>("1.0").unwrap(), 1.0);
        assert_eq!(from_str::<f64>("1").unwrap(), 1.0);
        assert_eq!(to_string("a\"b\\c").unwrap(), r#""a\"b\\c""#);
        assert_eq!(from_str::<String>(r#""a\"b\\c""#).unwrap(), "a\"b\\c");
    }

    #[test]
    fn round_trip_f64_shortest() {
        for v in [0.1, 1.0 / 3.0, 6.02214076e23, -1e-300, f64::MIN_POSITIVE] {
            let s = to_string(&v).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), v, "round trip of {v} via {s}");
        }
    }

    #[test]
    fn round_trip_compounds() {
        let v: Vec<Option<i64>> = vec![Some(1), None, Some(-3)];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,null,-3]");
        assert_eq!(from_str::<Vec<Option<i64>>>(&s).unwrap(), v);

        let t = (1i64, "two".to_string(), 3.5f64);
        let s = to_string(&t).unwrap();
        assert_eq!(from_str::<(i64, String, f64)>(&s).unwrap(), t);
    }

    #[test]
    fn nesting_is_capped_at_128_levels() {
        let nest = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        let mut deepest = parse_document(&nest(MAX_DEPTH)).expect("128 levels parse");
        for _ in 1..MAX_DEPTH {
            let Value::Seq(mut items) = deepest else {
                panic!("arrays nest");
            };
            deepest = items.pop().expect("one element per level");
        }
        assert_eq!(deepest, Value::Seq(Vec::new()));
        let err = parse_document(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse_document(&objects).is_err());
        // Far past the cap: an error, not a stack overflow.
        assert!(parse_document(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn pretty_print_shape() {
        let v = vec![1i64, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
    }
}
