//! A small position-reporting JSON reader/writer for the campaign format.
//!
//! The offline build environment stubs `serde_json` out, and the campaign
//! loader needs something the stub never offered anyway: a rejected
//! export or a quarantined record is reported with the **line and
//! column** where it went wrong, not just *that* it did.
//!
//! Everything is read by one byte-offset `Reader`, which holds the one
//! grammar. Line and column are not tracked per byte: they are worked
//! out from a byte offset only when something asks for them (a
//! [`ParseError`], a [`Json`] node's position, a kept quarantine
//! example), by a forward-only cursor that never rescans what it has
//! already counted, so a whole document costs O(file) however many
//! positions it reports. Three consumers sit on the reader:
//!
//! - [`parse`] builds a position-tagged [`Json`] tree (requests,
//!   matchsets, summaries, an export's small sections);
//! - `Reader::skip` validates a value exactly as [`parse`] would —
//!   depth cap, duplicate keys, escapes, control characters, finite
//!   numbers — and builds nothing;
//! - `Reader::token` reads one value as a flat `Tok`, borrowing
//!   strings that hold no escape, so the campaign loader can decode
//!   record arrays straight into the store.
//!
//! The dialect is strict JSON with two deliberate relaxations on input:
//! numbers are held as `f64` (every integer the campaign format emits is
//! below 2^53, so the round-trip is exact), and object keys keep their
//! first-seen order (duplicates are rejected).
//!
//! Nesting is capped at [`MAX_DEPTH`] arrays/objects: the reader
//! recurses once per level, and the same code reads untrusted request
//! lines and exports, so hostile nesting must be a [`ParseError`], not a
//! stack overflow.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

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
        self.as_f64().and_then(exact_u64)
    }

    /// The number as a signed integer, if it is one exactly.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().and_then(exact_i64)
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self.value, Value::Null)
    }

    /// This value as a flat token (arrays and objects become
    /// [`Tok::Nested`]), so tree and streamed fields share one decoder.
    pub(crate) fn tok(&self) -> Tok<'_> {
        match &self.value {
            Value::Null => Tok::Null,
            Value::Bool(b) => Tok::Bool(*b),
            Value::Num(n) => Tok::Num(*n),
            Value::Str(s) => Tok::Str(Cow::Borrowed(s)),
            Value::Arr(_) | Value::Obj(_) => Tok::Nested,
        }
    }
}

fn exact_u64(n: f64) -> Option<u64> {
    ((0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0).then_some(n as u64)
}

fn exact_i64(n: f64) -> Option<i64> {
    (n.abs() <= 9_007_199_254_740_992.0 && n.fract() == 0.0).then_some(n as i64)
}

/// One value as a flat decoder sees it: a scalar, or the fact that it
/// was an array or object (validated and skipped).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Tok<'a> {
    Null,
    Bool(bool),
    /// A plain integer literal of at most 15 digits (so exact in `f64`),
    /// other than `-0`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// Borrowed from the source unless the literal held an escape.
    Str(Cow<'a, str>),
    Nested,
}

impl Tok<'_> {
    /// The number as a non-negative integer, as [`Json::as_u64`].
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Tok::Int(i) => u64::try_from(*i).ok(),
            Tok::Num(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// The number as a signed integer, as [`Json::as_i64`].
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            Tok::Int(i) => Some(*i),
            Tok::Num(n) => exact_i64(*n),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Tok::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Tok::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Tok::Null)
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
    let mut r = Reader::new(src);
    r.skip_ws();
    let v = r.tree().map_err(|e| *e)?;
    r.finish().map_err(|e| *e)?;
    Ok(v)
}

/// A reader result; the error is boxed to keep the hot path's returns
/// register-sized.
pub(crate) type PResult<T> = Result<T, Box<ParseError>>;

/// Where the line cursor last stopped: byte offset and its 1-based
/// line/column. Columns count characters: a multi-byte UTF-8 sequence
/// advances the column once, on its leading byte.
#[derive(Clone, Copy)]
struct LineCursor {
    offset: usize,
    line: u32,
    col: u32,
}

impl LineCursor {
    const START: LineCursor = LineCursor {
        offset: 0,
        line: 1,
        col: 1,
    };
}

/// Newlines and characters (bytes that are not UTF-8 continuation
/// bytes) in `s`, counted in one pass. Blocks of 255 bytes are summed
/// into byte-wide counters, a shape the compiler turns into wide vector
/// compares: the line cursor crosses whole record sections this way.
fn count_lines_chars(s: &[u8]) -> (u32, u32) {
    s.chunks(255).fold((0, 0), |(lines, chars), block| {
        let (l, c) = block.iter().fold((0u8, 0u8), |(l, c), &b| {
            (l + (b == b'\n') as u8, c + ((b as i8) >= -0x40) as u8)
        });
        (lines + u32::from(l), chars + u32::from(c))
    })
}

/// The one JSON tokenizer: a byte offset into the source, the current
/// nesting depth, and a lazily advanced line cursor.
pub(crate) struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
    lines: LineCursor,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
            lines: LineCursor::START,
        }
    }

    /// Byte offset of the next unread byte.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Resume reading at `pos`, inside `depth` open containers — to walk
    /// a range an earlier pass already validated.
    pub(crate) fn seek(&mut self, pos: usize, depth: usize) {
        self.pos = pos;
        self.depth = depth;
    }

    /// 1-based line and column of byte `offset`. Counts forward from the
    /// last position asked for; only an earlier offset restarts the count
    /// from the top of the source.
    pub(crate) fn line_col(&mut self, offset: usize) -> (u32, u32) {
        let c = &mut self.lines;
        if offset < c.offset {
            *c = LineCursor::START;
        }
        let seg = &self.src.as_bytes()[c.offset..offset];
        let (newlines, chars) = count_lines_chars(seg);
        if newlines == 0 {
            c.col += chars;
        } else {
            let last = seg.iter().rposition(|&b| b == b'\n').expect("counted");
            c.line += newlines;
            c.col = 1 + count_lines_chars(&seg[last + 1..]).1;
        }
        c.offset = offset;
        (c.line, c.col)
    }

    /// `"at line L column C"` for byte `offset`.
    pub(crate) fn at(&mut self, offset: usize) -> String {
        let (line, col) = self.line_col(offset);
        format!("at line {line} column {col}")
    }

    #[cold]
    fn err_at(&mut self, offset: usize, what: impl Into<String>) -> Box<ParseError> {
        let (line, col) = self.line_col(offset);
        Box::new(ParseError {
            line,
            col,
            what: what.into(),
        })
    }

    #[cold]
    fn err(&mut self, what: impl Into<String>) -> Box<ParseError> {
        self.err_at(self.pos, what)
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// End of a document: only whitespace may follow.
    pub(crate) fn finish(&mut self) -> PResult<()> {
        self.skip_ws();
        if self.pos < self.src.len() {
            return Err(self.err("trailing characters after the JSON document"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> PResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    /// Open one more array/object, refusing to go past [`MAX_DEPTH`].
    fn descend(&mut self) -> PResult<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Walk the array at the cursor, calling `each` with the reader on
    /// the first byte of every element; `each` must consume it.
    pub(crate) fn each_item(
        &mut self,
        mut each: impl FnMut(&mut Self) -> PResult<()>,
    ) -> PResult<()> {
        self.descend()?;
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Walk the object at the cursor, rejecting duplicate keys, calling
    /// `each` with every key and the reader on the first byte of its
    /// value; `each` must consume the value.
    pub(crate) fn each_field(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> PResult<()>,
    ) -> PResult<()> {
        self.descend()?;
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        let mut keys: Vec<Cow<'a, str>> = Vec::new();
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if keys.contains(&key) {
                return Err(self.err_at(key_at, format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            keys.push(key.clone());
            each(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Read one value into a position-tagged tree.
    pub(crate) fn tree(&mut self) -> PResult<Json> {
        let (line, col) = self.line_col(self.pos);
        let value = match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.each_item(|r| {
                    items.push(r.tree()?);
                    Ok(())
                })?;
                Value::Arr(items)
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.each_field(|r, key| {
                    let v = r.tree()?;
                    fields.push((key.into_owned(), v));
                    Ok(())
                })?;
                Value::Obj(fields)
            }
            _ => match self.scalar()? {
                Tok::Null => Value::Null,
                Tok::Bool(b) => Value::Bool(b),
                Tok::Int(i) => Value::Num(i as f64),
                Tok::Num(n) => Value::Num(n),
                Tok::Str(s) => Value::Str(s.into_owned()),
                Tok::Nested => unreachable!("scalar() never yields Nested"),
            },
        };
        Ok(Json { value, line, col })
    }

    /// Validate one value exactly as [`parse`] would, building nothing
    /// (objects remember their keys, to refuse duplicates).
    pub(crate) fn skip(&mut self) -> PResult<()> {
        match self.peek() {
            Some(b'[') => self.each_item(Self::skip),
            Some(b'{') => self.each_field(|r, _| r.skip()),
            _ => self.scalar().map(drop),
        }
    }

    /// Read one value as a flat token; an array or object is validated,
    /// skipped, and reported as [`Tok::Nested`].
    pub(crate) fn token(&mut self) -> PResult<Tok<'a>> {
        match self.peek() {
            Some(b'[' | b'{') => self.skip().map(|()| Tok::Nested),
            _ => self.scalar(),
        }
    }

    /// Any value but an array or object.
    fn scalar(&mut self) -> PResult<Tok<'a>> {
        match self.peek() {
            Some(b'"') => self.string().map(Tok::Str),
            Some(b't') => self.keyword("true").map(|()| Tok::Bool(true)),
            Some(b'f') => self.keyword("false").map(|()| Tok::Bool(false)),
            Some(b'n') => self.keyword("null").map(|()| Tok::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, kw: &str) -> PResult<()> {
        if self.src.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {kw:?}")))
        }
    }

    /// A number, finite as `f64`. Plain integers of up to 15 digits are
    /// exact in `f64` and are accumulated while scanning into a
    /// [`Tok::Int`]; anything else (`-0` included, which is `-0.0`) goes
    /// through `str::parse::<f64>` into a [`Tok::Num`].
    fn number(&mut self) -> PResult<Tok<'a>> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let neg = bytes.get(start) == Some(&b'-');
        let int_start = start + neg as usize;
        let mut p = int_start;
        let mut int = 0i64;
        while let Some(&d) = bytes.get(p).filter(|d| d.is_ascii_digit()) {
            int = int.wrapping_mul(10).wrapping_add(i64::from(d - b'0'));
            p += 1;
        }
        if (1..=15).contains(&(p - int_start))
            && !matches!(bytes.get(p), Some(b'.' | b'e' | b'E'))
            && !(neg && int == 0)
        {
            self.pos = p;
            return Ok(Tok::Int(if neg { -int } else { int }));
        }
        self.float(start, p)
    }

    /// The rest of a number that is not a short plain integer: its
    /// fraction and exponent, parsed as `f64`.
    #[cold]
    fn float(&mut self, start: usize, int_end: usize) -> PResult<Tok<'a>> {
        let src = self.src;
        let bytes = src.as_bytes();
        let digits = |mut p: usize| {
            while bytes.get(p).is_some_and(u8::is_ascii_digit) {
                p += 1;
            }
            p
        };
        let mut p = int_end;
        if bytes.get(p) == Some(&b'.') {
            p = digits(p + 1);
        }
        if matches!(bytes.get(p), Some(b'e' | b'E')) {
            p += 1;
            if matches!(bytes.get(p), Some(b'+' | b'-')) {
                p += 1;
            }
            p = digits(p);
        }
        self.pos = p;
        let text = &src[start..p];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Tok::Num(n)),
            _ => Err(self.err_at(start, format!("invalid number {text:?}"))),
        }
    }

    /// End of the run of plain string bytes starting at `from`: the next
    /// quote, backslash or control byte (or the end of the source).
    fn plain_run(&self, from: usize) -> usize {
        let rest = &self.src.as_bytes()[from..];
        from + rest
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .unwrap_or(rest.len())
    }

    /// A string literal: borrowed from the source unless it holds an
    /// escape.
    fn string(&mut self) -> PResult<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        self.pos = self.plain_run(start);
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
        }
        self.escaped_string(start).map(Cow::Owned)
    }

    /// The rest of a string literal that opened at `start` and did not
    /// end at its first run of plain bytes.
    #[cold]
    fn escaped_string(&mut self, start: usize) -> PResult<String> {
        let src = self.src;
        let mut out = String::from(&src[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    let run = self.pos;
                    self.pos = self.plain_run(run);
                    out.push_str(&src[run..self.pos]);
                }
            }
        }
    }

    /// One escape sequence, the backslash already consumed.
    fn escape(&mut self, out: &mut String) -> PResult<()> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&cp) {
                    // Surrogate pair: require the low half.
                    if self.keyword("\\u").is_err() {
                        return Err(self.err("lone high surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    cp
                };
                let ch = char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?;
                out.push(ch);
                return Ok(());
            }
            _ => return Err(self.err("invalid escape sequence")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    fn hex4(&mut self) -> PResult<u32> {
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
            self.pos += 1;
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Append a JSON string literal (with escaping) to `out`. Runs of bytes
/// that need no escape are copied whole.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Append a number. Rust's shortest-round-trip `Display` for `f64` is
/// already valid JSON for every finite value; non-finite values cannot
/// occur in the campaign format (asserted in debug builds).
pub fn push_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "campaign format never contains {v}");
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append an unsigned integer in decimal, formatted in place two digits
/// at a time.
pub fn push_u64(out: &mut String, mut v: u64) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// Append a signed integer in decimal, formatted in place.
pub fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
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
    fn string_literals_escape_exactly_the_json_set() {
        let all: String = (0u32..0x80)
            .filter_map(char::from_u32)
            .chain("é世😀".chars())
            .collect();
        let mut want = String::from("\"");
        for c in all.chars() {
            match c {
                '"' => want.push_str("\\\""),
                '\\' => want.push_str("\\\\"),
                '\n' => want.push_str("\\n"),
                '\r' => want.push_str("\\r"),
                '\t' => want.push_str("\\t"),
                c if (c as u32) < 0x20 => want.push_str(&format!("\\u{:04x}", c as u32)),
                c => want.push(c),
            }
        }
        want.push('"');
        let mut got = String::new();
        push_str_lit(&mut got, &all);
        assert_eq!(got, want);
        assert_eq!(parse(&got).unwrap().as_str(), Some(all.as_str()));
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

    #[test]
    fn integer_fast_path_agrees_with_f64_parsing() {
        for text in [
            "0",
            "-0",
            "007",
            "123456789012345",
            "-123456789012345",
            "1234567890123456",
            "99999999999999999999",
            "1.0",
            "1e3",
            "1.",
            "-.5",
        ] {
            let want: f64 = text.parse().unwrap();
            let got = parse(text).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
        for bad in ["-", "1e", "1e+", "-e1", "1e999"] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.what, format!("invalid number {bad:?}"));
            assert_eq!((err.line, err.col), (1, 1));
        }
    }

    #[test]
    fn integers_write_in_place() {
        let edges = (0..20).flat_map(|e| {
            let p = 10u64.pow(e);
            [p - 1, p, p + 1, p.saturating_mul(3).saturating_add(7)]
        });
        for v in edges.chain([12_345, 6_583_000_000, u64::MAX]) {
            let mut s = String::from("x");
            push_u64(&mut s, v);
            assert_eq!(s, format!("x{v}"));
        }
        for v in [0i64, -1, 42, i64::MIN, i64::MAX] {
            let mut s = String::new();
            push_i64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new("[\"plain é\",\"esc\\n\"]");
        let mut toks = Vec::new();
        r.each_item(|r| {
            toks.push(r.token()?);
            Ok(())
        })
        .unwrap();
        assert!(matches!(&toks[0], Tok::Str(Cow::Borrowed("plain é"))));
        assert!(matches!(&toks[1], Tok::Str(Cow::Owned(s)) if s == "esc\n"));
    }

    #[test]
    fn skip_validates_what_parse_validates() {
        for src in [
            "[1,{\"a\":1,\"a\":2}]",
            "[\"\\x\"]",
            "[\"\u{1}\"]",
            "[1e999]",
            "[\"\\ud800\"]",
            "[1 2]",
            "{\"k\" 1}",
        ] {
            let mut r = Reader::new(src);
            let skipped = r.skip().and_then(|()| r.finish());
            assert_eq!(*skipped.unwrap_err(), parse(src).unwrap_err(), "{src}");
        }
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            *Reader::new(&deep).skip().unwrap_err(),
            parse(&deep).unwrap_err()
        );
    }

    #[test]
    fn positions_count_forward_and_restart_backwards() {
        let src = "ab\ncé\nd";
        let mut r = Reader::new(src);
        assert_eq!(r.line_col(0), (1, 1));
        assert_eq!(r.line_col(2), (1, 3));
        assert_eq!(r.line_col(6), (2, 3)); // past the two-byte 'é'
        assert_eq!(r.line_col(8), (3, 2));
        assert_eq!(r.line_col(4), (2, 2)); // backwards: recounted
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
