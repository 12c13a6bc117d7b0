//! Line-delimited JSON wire format for the service protocol.
//!
//! The workspace is offline (no serde), so this module carries its own
//! small JSON value type with a recursive-descent parser and a writer.
//! It covers exactly what the protocol needs: objects, arrays, strings
//! with the standard escapes, `true`/`false`/`null`, and numbers with
//! full `u64`/`i64` integer fidelity (seeds are 64-bit; round counts
//! would drown in an `f64`-only representation).
//!
//! [`FrameReader`] is the framing half: it splits a byte stream into
//! newline-delimited frames under a hard size cap, so a single hostile
//! or corrupted connection can neither exhaust server memory with an
//! unbounded line nor poison the frames that follow it — an oversized
//! or non-UTF-8 frame is reported as a per-frame [`FrameError`] and the
//! reader resynchronises on the next newline.

use std::fmt::{self, Write as _};
use std::io::{self, BufRead, BufReader, Read};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Negative integer (stored exactly).
    Int(i64),
    /// Non-negative integer (stored exactly, full `u64` range).
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    #[must_use]
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Adds/overwrites `key` in an object.
    ///
    /// # Panics
    ///
    /// Panics on non-objects (builder misuse, not data-dependent).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Obj(fields) => {
                fields.retain(|(k, _)| k != key);
                fields.push((key.to_string(), value.into()));
                self
            }
            other => panic!("field() on non-object {other:?}"),
        }
    }

    /// Looks a key up in an object (`None` for absent keys or
    /// non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `u64` view (integral floats included when exact).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(x) => Some(x),
            Value::Int(x) => u64::try_from(x).ok(),
            // Strict `<`: `u64::MAX as f64` rounds up to 2^64, which is
            // not representable — saturating it to u64::MAX would hand
            // the caller a value the client never sent.
            Value::Float(x) if x >= 0.0 && x.fract() == 0.0 && x < u64::MAX as f64 => {
                Some(x as u64)
            }
            _ => None,
        }
    }

    /// `f64` view of any number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(x) => Some(x as f64),
            Value::Int(x) => Some(x as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// Array view.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline (the
    /// benchmark-artifact format; the wire protocol uses the compact
    /// [`Display`](fmt::Display) form instead).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Value::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    let _ = write!(out, "{}: ", Quoted(k));
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
            // Scalars and empty collections print as in the compact form.
            leaf => {
                let _ = write!(out, "{leaf}");
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else).
    ///
    /// # Errors
    ///
    /// [`WireError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Value, WireError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl fmt::Display for Value {
    /// Compact single-line serialization (the line-delimited protocol
    /// requires responses without raw newlines; `\n` in strings is
    /// escaped).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(x) => write!(f, "{x}"),
            Value::UInt(x) => write!(f, "{x}"),
            Value::Float(x) if x.is_finite() => write!(f, "{x}"),
            Value::Float(_) => f.write_str("null"),
            Value::Str(s) => Quoted(s).fmt(f),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Quoted(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Displays its value's `Display` form as a JSON string literal: quoted,
/// and escaped by [`Escaped`]. Every string on the wire, from
/// [`Value`]'s `Display` and from
/// [`write_response`](crate::protocol::write_response), is written
/// through it.
pub(crate) struct Quoted<T>(pub T);

impl<T: fmt::Display> fmt::Display for Quoted<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        write!(Escaped(&mut *f), "{}", self.0)?;
        f.write_str("\"")
    }
}

/// A [`fmt::Write`] that JSON-escapes what is written through it: `"`,
/// `\` and every control character below 0x20 (`\n`, `\r` and `\t` by
/// name, the rest as `\u00xx`). Runs with nothing to escape are copied
/// whole.
struct Escaped<W>(W);

impl<W: fmt::Write> fmt::Write for Escaped<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            // Every byte escaped is ASCII, so `i` is a char boundary.
            self.0.write_str(&s[run..i])?;
            match b {
                b'"' => self.0.write_str("\\\"")?,
                b'\\' => self.0.write_str("\\\\")?,
                b'\n' => self.0.write_str("\\n")?,
                b'\r' => self.0.write_str("\\r")?,
                b'\t' => self.0.write_str("\\t")?,
                _ => write!(self.0, "\\u{b:04x}")?,
            }
            run = i + 1;
        }
        self.0.write_str(&s[run..])
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::UInt(x)
    }
}
impl From<usize> for Value {
    fn from(x: usize) -> Value {
        Value::UInt(x as u64)
    }
}
impl From<i64> for Value {
    fn from(x: i64) -> Value {
        if x >= 0 {
            Value::UInt(x as u64)
        } else {
            Value::Int(x)
        }
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

/// A JSON parse error with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for WireError {}

/// Recursion depth cap: the protocol nests requests two or three levels
/// deep; anything deeper is garbage (or an attack on the stack).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> WireError {
        WireError {
            offset: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), WireError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &'static str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("bad literal"))
                }
            }
            Some(b't') => {
                if self.literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("bad literal"))
                }
            }
            Some(b'f') => {
                if self.literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("bad literal"))
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Value::Arr(items));
                    }
                    self.expect(b',', "expected `,` or `]`")?;
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':', "expected `:`")?;
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Value::Obj(fields));
                    }
                    self.expect(b',', "expected `,` or `}`")?;
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are replaced, not paired — the
                            // protocol never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, WireError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        if integral {
            if let Ok(x) = text.parse::<u64>() {
                return Ok(Value::UInt(x));
            }
            if let Ok(x) = text.parse::<i64>() {
                return Ok(Value::Int(x));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| WireError {
                offset: start,
                message: "invalid number",
            })
    }
}

/// Default frame-size cap: generous enough for large `edge_list`
/// ingest documents, small enough that one connection cannot buffer
/// unbounded garbage (16 MiB).
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// An error while reading one frame off a connection.
///
/// [`Oversized`](FrameError::Oversized) and
/// [`Encoding`](FrameError::Encoding) are *per-frame*: the offending
/// line has been consumed and the reader keeps working, so the caller
/// can answer an in-band error and read the next frame.
/// [`Io`](FrameError::Io) ends the connection.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed; the connection is dead.
    Io(io::Error),
    /// A line exceeded the frame cap. The whole line (up to and
    /// including its newline) was consumed and discarded.
    Oversized {
        /// The configured cap the frame blew through, in bytes.
        limit: usize,
    },
    /// A line was not valid UTF-8. The line was consumed.
    Encoding,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "connection error: {e}"),
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            FrameError::Encoding => f.write_str("frame is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Reads newline-delimited frames off a byte stream under a size cap.
///
/// This is the framing layer every transport shares (stdin, unix
/// sockets, TCP): one frame per line, `\r\n` tolerated, empty frames
/// passed through (the protocol layer skips them), and a final
/// unterminated line treated as a frame so `printf '%s' '{...}'`
/// clients work.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: BufReader<R>,
    max_frame: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `reader` with a `max_frame`-byte cap per line.
    pub fn new(reader: R, max_frame: usize) -> Self {
        FrameReader {
            inner: BufReader::new(reader),
            max_frame,
        }
    }

    /// Reads the next frame. `Ok(None)` is end-of-stream.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] / [`FrameError::Encoding`] for a bad
    /// frame (recoverable — keep calling), [`FrameError::Io`] when the
    /// stream itself fails (stop).
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameError> {
        // The cap applies to the frame *payload* — the line with its
        // `\r\n`/`\n` terminator stripped — so a CRLF client's
        // exactly-at-the-cap frame is as valid as an LF client's. Up
        // to `max_frame + 1` bytes are buffered (the +1 holding a
        // possible trailing `\r`); anything beyond is provably
        // oversized and only consumed.
        let mut buf: Vec<u8> = Vec::new();
        let mut truncated = false;
        loop {
            let chunk = self.inner.fill_buf().map_err(FrameError::Io)?;
            if chunk.is_empty() {
                // EOF: an unterminated final line is still a frame.
                if buf.is_empty() && !truncated {
                    return Ok(None);
                }
                return self.complete(buf, truncated);
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if !truncated {
                        if buf.len() + pos <= self.max_frame + 1 {
                            buf.extend_from_slice(&chunk[..pos]);
                        } else {
                            truncated = true;
                        }
                    }
                    self.inner.consume(pos + 1);
                    return self.complete(buf, truncated);
                }
                None => {
                    let len = chunk.len();
                    if !truncated {
                        if buf.len() + len <= self.max_frame + 1 {
                            buf.extend_from_slice(chunk);
                        } else {
                            // Stop buffering; keep consuming until the
                            // newline so the *next* frame starts clean.
                            truncated = true;
                            buf.clear();
                        }
                    }
                    self.inner.consume(len);
                }
            }
        }
    }

    /// Finalises one line: strips the optional `\r`, then applies the
    /// payload cap and the UTF-8 check.
    fn complete(&self, mut buf: Vec<u8>, truncated: bool) -> Result<Option<String>, FrameError> {
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        if truncated || buf.len() > self.max_frame {
            return Err(FrameError::Oversized {
                limit: self.max_frame,
            });
        }
        String::from_utf8(buf)
            .map(Some)
            .map_err(|_| FrameError::Encoding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-character escaper [`Quoted`] replaced, kept as its
    /// oracle.
    struct PerChar<'a>(&'a str);

    impl fmt::Display for PerChar<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("\"")?;
            for c in self.0.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\r' => f.write_str("\\r")?,
                    '\t' => f.write_str("\\t")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => write!(f, "{c}")?,
                }
            }
            f.write_str("\"")
        }
    }

    /// Writes its string one character per `write_str`, the way a
    /// `Display` that writes in pieces reaches the escaper.
    struct Pieces<'a>(&'a str);

    impl fmt::Display for Pieces<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.chars().try_for_each(|c| f.write_char(c))
        }
    }

    /// `kind` 0 draws any scalar value (a surrogate becomes U+FFFD);
    /// otherwise `x` picks a control character or one of `"`, `\`,
    /// DEL, `/`, and 1-, 2-, 3- and 4-byte UTF-8.
    fn pick_char((kind, x): (u32, u32)) -> char {
        const SPECIAL: [char; 8] = ['"', '\\', '\u{7f}', '/', 'a', 'é', '€', '😀'];
        match (kind, x % 40) {
            (0, _) => char::from_u32(x).unwrap_or('\u{fffd}'),
            (_, c @ 0..=0x1f) => char::from_u32(c).expect("a control character"),
            (_, c) => SPECIAL[c as usize - 0x20],
        }
    }

    fn assert_escapes_as_before(s: &str) {
        let quoted = Quoted(s).to_string();
        assert_eq!(quoted, PerChar(s).to_string(), "{s:?}");
        assert_eq!(Quoted(Pieces(s)).to_string(), quoted, "{s:?} in pieces");
        assert_eq!(Value::parse(&quoted), Ok(Value::Str(s.to_string())));
    }

    #[test]
    fn every_ascii_character_escapes_as_before() {
        assert_escapes_as_before("");
        let all: String = (0u8..=0x7f).map(char::from).collect();
        assert_escapes_as_before(&all);
        for c in all.chars() {
            assert_escapes_as_before(&format!("{c}"));
            assert_escapes_as_before(&format!("x{c}{c}y"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn quoted_strings_escape_as_before_and_parse_back(
            draws in prop::collection::vec((0u32..3, 0u32..0x11_0000), 0..40),
        ) {
            let s: String = draws.into_iter().map(pick_char).collect();
            assert_escapes_as_before(&s);
        }
    }

    #[test]
    fn roundtrip_document() {
        let doc = Value::obj()
            .field("op", "query")
            .field("seed", u64::MAX)
            .field("neg", -3i64)
            .field("eps", 0.125)
            .field("ok", true)
            .field("none", Value::Null)
            .field("items", vec![Value::UInt(1), Value::Str("x\n\"".into())]);
        let text = doc.to_string();
        assert!(!text.contains('\n'), "line protocol: no raw newlines");
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(back.get("eps").unwrap().as_f64(), Some(0.125));
        assert_eq!(back.get("op").unwrap().as_str(), Some("query"));
        assert_eq!(back.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(back.get("items").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Value::parse(" { \"a\" : [ 1 , 2.5, \"\\u0041\\t\" ] } ").unwrap();
        let items = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].as_str(), Some("A\t"));
    }

    #[test]
    fn errors_carry_offsets() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"unterminated", "1 2"] {
            let err = Value::parse(bad).unwrap_err();
            assert!(err.offset <= bad.len(), "{bad}: {err}");
            assert!(!err.to_string().is_empty());
        }
        // Deep nesting is rejected, not a stack overflow.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn integer_fidelity() {
        assert_eq!(
            Value::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::from(-7i64), Value::Int(-7));
        assert_eq!(Value::from(7i64), Value::UInt(7));
        // Too big for u64/i64 falls back to float — and the float view
        // rejects 2^64 instead of saturating to u64::MAX.
        assert!(matches!(
            Value::parse("99999999999999999999999").unwrap(),
            Value::Float(_)
        ));
        assert_eq!(Value::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Value::Float(f64::NAN).to_string(), "null");
    }

    /// A reader that hands out one byte per `read` call, forcing the
    /// frame reader to reassemble lines across many fills.
    struct Trickle<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.bytes.len() || out.is_empty() {
                return Ok(0);
            }
            out[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    fn frames_of(input: &[u8], max: usize) -> Vec<Result<Option<String>, String>> {
        let mut reader = FrameReader::new(
            Trickle {
                bytes: input,
                pos: 0,
            },
            max,
        );
        let mut out = Vec::new();
        loop {
            match reader.next_frame() {
                Ok(None) => break,
                Ok(Some(line)) => out.push(Ok(Some(line))),
                Err(e) => out.push(Err(e.to_string())),
            }
        }
        out
    }

    #[test]
    fn frames_split_lines_and_tolerate_crlf() {
        let got = frames_of(b"{\"a\":1}\r\nplain\n\nlast-no-newline", 64);
        assert_eq!(
            got,
            vec![
                Ok(Some("{\"a\":1}".to_string())),
                Ok(Some("plain".to_string())),
                Ok(Some(String::new())),
                Ok(Some("last-no-newline".to_string())),
            ]
        );
    }

    #[test]
    fn oversized_frame_is_skipped_and_reader_recovers() {
        let mut input = vec![b'x'; 100];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let got = frames_of(&input, 16);
        assert_eq!(got.len(), 2);
        assert!(got[0].as_ref().unwrap_err().contains("16-byte limit"));
        assert_eq!(got[1], Ok(Some("ok".to_string())));

        // A frame of exactly the cap is allowed; cap + 1 is not.
        let exact = frames_of(b"abcd\nabcde\nz\n", 4);
        assert_eq!(exact[0], Ok(Some("abcd".to_string())));
        assert!(exact[1].is_err());
        assert_eq!(exact[2], Ok(Some("z".to_string())));

        // An unterminated oversized tail still errors (nothing silently
        // truncated), and the stream then ends cleanly.
        let tail = frames_of(&[b'y'; 40], 8);
        assert_eq!(tail.len(), 1);
        assert!(tail[0].is_err());
    }

    #[test]
    fn the_cap_applies_to_the_payload_not_the_line_terminator() {
        // A CRLF client's exactly-at-the-cap frame is as valid as an
        // LF client's: the `\r` does not count against the cap.
        let got = frames_of(b"abcd\r\nabcde\r\nok\r\n", 4);
        assert_eq!(got[0], Ok(Some("abcd".to_string())));
        assert!(got[1].is_err(), "5-byte CRLF payload over a 4-byte cap");
        assert_eq!(got[2], Ok(Some("ok".to_string())));
        // Unterminated final CRLF-less line at the cap + a stray `\r`.
        assert_eq!(frames_of(b"abcd\r", 4), vec![Ok(Some("abcd".to_string()))]);
        assert!(frames_of(b"abcde\r", 4)[0].is_err());
    }

    #[test]
    fn invalid_utf8_is_a_recoverable_frame_error() {
        let got = frames_of(b"\xff\xfe\nok\n", 64);
        assert_eq!(got.len(), 2);
        assert!(got[0].as_ref().unwrap_err().contains("UTF-8"));
        assert_eq!(got[1], Ok(Some("ok".to_string())));
    }

    #[test]
    fn frame_error_display_and_source() {
        let e = FrameError::Io(std::io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&FrameError::Encoding).is_none());
    }

    #[test]
    fn non_objects_get_none() {
        let v = Value::parse("[1]").unwrap();
        assert!(v.get("a").is_none());
        assert!(v.as_str().is_none());
        assert!(Value::Null.as_u64().is_none());
        assert_eq!(Value::Float(3.0).as_u64(), Some(3));
        assert_eq!(Value::Float(3.5).as_u64(), None);
        assert_eq!(Value::Int(-1).as_u64(), None);
    }
}
