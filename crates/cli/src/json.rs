//! A small position-tracking JSON reader/writer for the campaign format.
//!
//! The offline build environment stubs `serde_json` out, and the campaign
//! loader needs something the stub never offered anyway: every parsed
//! value remembers the **line and column** it started at, so a rejected
//! export or a quarantined record can be reported as *where* in the file
//! it went wrong, not just *that* it did.
//!
//! The dialect is strict JSON with two deliberate relaxations on input:
//! numbers are held as `f64` (every integer the campaign format emits is
//! below 2^53, so the round-trip is exact), and object keys keep their
//! first-seen order (duplicates are rejected).
//!
//! Nesting is capped at [`MAX_DEPTH`] arrays/objects: the reader
//! recurses once per level, and the same code parses untrusted request
//! lines and exports, so hostile nesting must be a [`ParseError`], not a
//! stack overflow.

use std::fmt;

/// Deepest array/object nesting [`parse`] accepts. Far above anything
/// the campaign format, matchsets, sweep summaries or serve requests
/// use (a handful of levels), and far below what a thread's stack
/// survives.
pub const MAX_DEPTH: usize = 256;

/// A parsed JSON value plus the source position it started at.
#[derive(Clone, Debug, PartialEq)]
pub struct Json {
    /// The value itself.
    pub value: Value,
    /// 1-based source line of the value's first character.
    pub line: u32,
    /// 1-based source column of the value's first character.
    pub col: u32,
}

/// The JSON value kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string (already unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// `"at line L column C"` — for error messages.
    pub fn at(&self) -> String {
        format!("at line {} column {}", self.line, self.col)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match &self.value {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match &self.value {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match &self.value {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match &self.value {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match &self.value {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if (0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The number as a signed integer, if it is one exactly.
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        if n.abs() <= 9_007_199_254_740_992.0 && n.fract() == 0.0 {
            Some(n as i64)
        } else {
            None
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self.value, Value::Null)
    }
}

/// A parse failure with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "at line {} column {}: {}",
            self.line, self.col, self.what
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after the JSON document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            what: what.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Advance one byte, maintaining the line/column counters. Multi-byte
    /// UTF-8 sequences advance the column once, on their leading byte.
    fn bump(&mut self) {
        if let Some(b) = self.peek() {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else if b & 0xC0 != 0x80 {
                self.col += 1;
            }
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        let (line, col) = (self.line, self.col);
        let wrap = |value| Json { value, line, col };
        match self.peek() {
            Some(b'{') => self.nested(Self::object).map(wrap),
            Some(b'[') => self.nested(Self::array).map(wrap),
            Some(b'"') => self.string().map(|s| wrap(Value::Str(s))),
            Some(b't') => self.keyword("true").map(|()| wrap(Value::Bool(true))),
            Some(b'f') => self.keyword("false").map(|()| wrap(Value::Bool(false))),
            Some(b'n') => self.keyword("null").map(|()| wrap(Value::Null)),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                self.number().map(|n| wrap(Value::Num(n)))
            }
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            for _ in 0..kw.len() {
                self.bump();
            }
            Ok(())
        } else {
            Err(self.err(format!("expected {kw:?}")))
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        let (line, col) = (self.line, self.col);
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some(b'.') {
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .ok_or(ParseError {
                line,
                col,
                what: format!("invalid number {text:?}"),
            })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.bump();
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.bump();
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
                            self.bump();
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair: require the low half.
                                self.keyword("\\u")
                                    .map_err(|_| self.err("lone high surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.bump();
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.bump();
                    }
                    // The source is a &str, so the slice is valid UTF-8.
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8 source"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        // Called with `pos` on the first hex digit ('u' already consumed).
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v * 16 + d;
            self.bump();
        }
        Ok(v)
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.bump(),
                Some(b']') => {
                    self.bump();
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key_pos = (self.line, self.col);
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(ParseError {
                    line: key_pos.0,
                    col: key_pos.1,
                    what: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.bump(),
                Some(b'}') => {
                    self.bump();
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Append a JSON string literal (with escaping) to `out`.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a number. Rust's shortest-round-trip `Display` for `f64` is
/// already valid JSON for every finite value; non-finite values cannot
/// occur in the campaign format (asserted in debug builds).
pub fn push_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "campaign format never contains {v}");
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_positions() {
        let j = parse("  {\n  \"a\": [1, -2.5, 1e3],\n  \"b\": null\n}").unwrap();
        assert_eq!(j.line, 1);
        assert_eq!(j.col, 3);
        let a = j.get("a").unwrap();
        assert_eq!(a.line, 2);
        let items = a.as_arr().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(items[2].as_f64(), Some(1000.0));
        assert!(j.get("b").unwrap().is_null());
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut lit = String::new();
        push_str_lit(&mut lit, "a\"b\\c\nd\te\u{1}é世");
        let j = parse(&lit).unwrap();
        assert_eq!(j.as_str(), Some("a\"b\\c\nd\te\u{1}é世"));
        // Unicode escapes, including surrogate pairs.
        assert_eq!(
            parse("\"\\u00e9\\ud83d\\ude00\"").unwrap().as_str(),
            Some("é😀")
        );
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse("{\n  \"a\": 1,\n  \"a\": 2\n}").unwrap_err();
        assert_eq!((err.line, err.col), (3, 3));
        assert!(err.what.contains("duplicate"));
        let err = parse("[1, 2").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = parse("{\"a\": nope}").unwrap_err();
        assert!(err.what.contains("null"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for v in [
            0.0,
            -0.5,
            1.25e-3,
            6_583_000_000.0f64,
            9_007_199_254_740_992.0,
            5_000_000_000_000_000.0,
            0.1_f64 + 0.2, // 0.30000000000000004: shortest repr needs 17 digits
        ] {
            let mut s = String::new();
            push_f64(&mut s, v);
            assert_eq!(parse(&s).unwrap().as_f64(), Some(v), "value {v}");
        }
        // Integer accessors refuse to silently truncate.
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_i64(), Some(-1));
    }

    fn nested_arrays(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_up_to_the_cap_parses() {
        for depth in [MAX_DEPTH - 1, MAX_DEPTH] {
            let mut j = parse(&nested_arrays(depth)).unwrap();
            let mut levels = 1;
            while let Some([inner]) = j.as_arr() {
                j = inner.clone();
                levels += 1;
            }
            assert_eq!(levels, depth);
        }
        let mixed = "{\"a\":".repeat(MAX_DEPTH - 1) + "[]" + &"}".repeat(MAX_DEPTH - 1);
        assert!(parse(&mixed).is_ok());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let err = parse(&nested_arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.what, format!("nesting deeper than {MAX_DEPTH}"));
        assert_eq!((err.line, err.col), (1, MAX_DEPTH as u32 + 1));
        // 500 KB of unclosed brackets: a hostile serve request line.
        let err = parse(&"[".repeat(500 * 1024)).unwrap_err();
        assert!(err.what.contains("nesting deeper than"), "{err}");
        let err = parse(&"{\"k\":".repeat(500 * 1024)).unwrap_err();
        assert!(err.what.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn column_counts_characters_not_bytes() {
        // 'é' is two bytes but one column.
        let err = parse("[\"é\", x]").unwrap_err();
        assert_eq!((err.line, err.col), (1, 7));
    }
}
