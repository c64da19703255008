//! The workspace's one JSON module (the workspace builds offline; no
//! serde): one string escaper for every emitter — Chrome traces, health
//! exports, flight manifests, bench reports — and one strict parser for
//! every reader — the exporter tests' well-formedness check, `bench_gate`,
//! and the flight-manifest readers in `enoki-log blackbox`.

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal, quotes included.
pub fn escape_into(out: &mut String, s: &str) {
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

/// A parsed JSON value. Objects keep their pairs in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an integer, when this is a whole number small
    /// enough (|n| ≤ 2⁵³) for the `f64` to hold it exactly.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_num()
            .filter(|n| n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0)
            .map(|n| n as i64)
    }

    /// The items, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses `s` as exactly one JSON value (RFC 8259 grammar; surrounding
/// whitespace allowed, anything else after the value is an error).
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { s, b: s.as_bytes(), pos: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.b.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected byte {c:#x} at {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Consumes a run of digits; false when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.b.get(self.pos), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        if !self.digits() {
            return Err(format!("bad number at byte {start}"));
        }
        if self.b.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.b.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.b.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.b.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.b.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(&c) if c >= 0x20 => {
                    // Copy the run up to the next quote, backslash or
                    // control byte whole: those are ASCII, so the run
                    // ends on a char boundary of the source `&str`.
                    let start = self.pos;
                    while matches!(self.b.get(self.pos), Some(&c) if c >= 0x20 && c != b'"' && c != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.s[start..self.pos]);
                }
                Some(_) => return Err(format!("raw control byte at {}", self.pos)),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// The rest of an array or object after its opening byte: `item`s
    /// separated by commas, up to `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1; // [ or {
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.ws();
            items.push(item(self)?);
            self.ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(&c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(format!("expected ',' or '{}' at byte {}", close as char, self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        Ok(Value::Arr(self.seq(b']', Self::value)?))
    }

    fn object(&mut self) -> Result<Value, String> {
        Ok(Value::Obj(self.seq(b'}', |p| {
            if p.b.get(p.pos) != Some(&b'"') {
                return Err(format!("expected key at byte {}", p.pos));
            }
            let key = p.string()?;
            p.ws();
            if p.b.get(p.pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {}", p.pos));
            }
            p.pos += 1;
            p.ws();
            Ok((key, p.value()?))
        })?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_through_the_parser() {
        let raw = "a\"b\\c\nd\r\te\u{1}µ";
        let mut s = String::new();
        escape_into(&mut s, raw);
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\r\\te\\u0001µ\"");
        assert_eq!(parse(&s).unwrap().as_str(), Some(raw));
    }

    #[test]
    fn values_read_back_by_key_and_kind() {
        let v = parse(r#" {"s":"x","n":-3,"big":1e300,"f":2.5,"z":null,"a":[1,true]} "#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Value::as_i64), Some(-3));
        assert_eq!(v.get("big").and_then(Value::as_i64), None);
        assert_eq!(v.get("f").and_then(Value::as_i64), None);
        assert_eq!(v.get("f").and_then(Value::as_num), Some(2.5));
        assert_eq!(v.get("z"), Some(&Value::Null));
        assert_eq!(v.get("z").and_then(Value::as_i64), None);
        assert_eq!(v.get("a").and_then(Value::as_arr).map(<[Value]>::len), Some(2));
        assert_eq!(v.get("missing"), None);
    }

    /// Beyond the cases `metrics::export`'s `validator_accepts_and_rejects`
    /// holds this parser to.
    #[test]
    fn the_grammar_is_strict() {
        for bad in [
            "[1,]",
            "1.",
            "-",
            "1e",
            "1.2.3",
            r#""\u12g4""#,
            r#""\u+123""#,
            r#""\x""#,
            "\"raw\ttab\"",
            "tru",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
