//! Offline JSON text layer for the serde compat crates: `to_string` and
//! `from_str` over the owned [`serde::Value`] tree.
//!
//! Output conventions match upstream `serde_json`'s compact writer: no
//! whitespace, struct fields in declaration order, floats via Rust's
//! shortest-roundtrip `Display` (no exponent for the magnitudes this
//! workspace produces), non-finite floats as `null`.

use serde::{DeError, Deserialize, Serialize, Value};

/// Serialization error (infallible in practice for in-memory writing, but
/// kept for signature compatibility with upstream).
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// Deepest nesting of arrays and objects [`from_str`] accepts. No value this
/// workspace writes comes near it — a plan tree in a cache frame's header,
/// two levels a node, is the deepest — and past it the parser returns an
/// error instead of recursing, so no input can exhaust the stack.
pub const MAX_DEPTH: usize = 128;

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Deserialize an instance of `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.i != p.bytes.len() {
        return Err(Error(format!("trailing characters at offset {}", p.i)));
    }
    T::from_value(&v).map_err(Error::from)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        // serde_json serializes non-finite floats as null.
        out.push_str("null");
        return;
    }
    // Rust's Display for f64 is the shortest string that round-trips, which
    // is exactly what serde_json emits — except Display drops the ".0" on
    // integral values, which serde_json keeps.
    let s = f.to_string();
    out.push_str(&s);
    if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
        out.push_str(".0");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser (recursive descent)
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.i) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at offset {}", self.i))
    }

    fn expect_lit(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// One value inside `depth` enclosing arrays and objects.
    fn parse_value(&mut self, depth: usize) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.expect_lit("null", Value::Null),
            Some(b't') => self.expect_lit("true", Value::Bool(true)),
            Some(b'f') => self.expect_lit("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.parse_array(depth + 1),
            Some(b'{') => self.parse_object(depth + 1),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected value")),
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value> {
        self.i += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value> {
        self.i += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.parse_string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.i += 1;
            self.skip_ws();
            let val = self.parse_value(depth)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.i += 1; // opening '"'
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{08}'),
                        Some(b'f') => s.push('\u{0C}'),
                        Some(b'u') => {
                            self.i += 1;
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low surrogate.
                                if self.bytes.get(self.i) == Some(&b'\\')
                                    && self.bytes.get(self.i + 1) == Some(&b'u')
                                {
                                    self.i += 2;
                                    let lo = self.parse_hex4()?;
                                    let cp = 0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            s.push(c);
                            continue; // parse_hex4 already advanced
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Bulk fast path: copy the run of plain ASCII bytes up
                    // to the next quote, escape, or non-ASCII byte in one
                    // push, instead of re-validating UTF-8 per character.
                    let rest = &self.bytes[self.i..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b >= 0x80)
                        .unwrap_or(rest.len());
                    if run > 0 {
                        // The run is pure ASCII by construction.
                        s.push_str(std::str::from_utf8(&rest[..run]).expect("ascii run"));
                        self.i += run;
                    } else {
                        // Non-ASCII: decode one UTF-8 scalar (at most 4 bytes).
                        let chunk = &rest[..rest.len().min(4)];
                        let c = match std::str::from_utf8(chunk) {
                            Ok(t) => t.chars().next(),
                            Err(e) if e.valid_up_to() > 0 => {
                                std::str::from_utf8(&chunk[..e.valid_up_to()])
                                    .expect("validated prefix")
                                    .chars()
                                    .next()
                            }
                            Err(_) => None,
                        };
                        let c = c.ok_or_else(|| self.err("invalid utf-8"))?;
                        s.push(c);
                        self.i += c.len_utf8();
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let hex = self
            .bytes
            .get(self.i..self.i + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.i += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.i += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.i += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.i += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.i]).unwrap();
        if !is_float {
            // Integers keep their exact representation; fall back to f64 on
            // overflow (matching serde_json's arbitrary-precision-off mode).
            if let Some(stripped) = text.strip_prefix('-') {
                if stripped.parse::<u64>().is_ok() || text.parse::<i64>().is_ok() {
                    if let Ok(i) = text.parse::<i64>() {
                        return Ok(Value::Int(i));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(
            to_string(&"a\"b\\c\n".to_string()).unwrap(),
            r#""a\"b\\c\n""#
        );
        let x: f64 = from_str("2.0").unwrap();
        assert_eq!(x, 2.0);
        let s: String = from_str(r#""é😀""#).unwrap();
        assert_eq!(s, "é😀");
    }

    #[test]
    fn roundtrip_containers() {
        let v: Vec<u64> = vec![1, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        let back: Vec<u64> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<Vec<u64>>("[1,2").is_err());
        assert!(from_str::<u64>("42 x").is_err());
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let nested = |n: usize, open: &str, close: &str| open.repeat(n) + &close.repeat(n);
        assert!(from_str::<Value>(&nested(MAX_DEPTH, "[", "]")).is_ok());
        let deep = from_str::<Value>(&nested(MAX_DEPTH + 1, "[", "]"));
        assert!(deep
            .unwrap_err()
            .to_string()
            .contains("nesting deeper than"));
        assert!(from_str::<Value>(&nested(MAX_DEPTH + 1, "{\"a\":", "}")).is_err());
        // Far past the cap, unbalanced: an error, not a stack overflow.
        assert!(from_str::<Value>(&"[".repeat(200_000)).is_err());
    }
}
