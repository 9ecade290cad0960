//! The one serialisation layer: every artifact this workspace writes or
//! reads back goes through the byte cursor pair and the JSON writer /
//! reader here, and every reader fails closed — a field that does not
//! parse is an error, never a default.
//!
//! ## Binary layouts (all version 1)
//!
//! Integers are little-endian fixed width; `str` is a u32 length plus
//! UTF-8; `block` is a u32 length plus bytes; `seq` is a u32 count plus
//! that many elements. Every file starts `magic [u8; 4] · version u16`.
//!
//! ```text
//! P4TS  snapshot or delta                       (`snapshot::bin`)
//!   kind u8 (0 = snapshot, 1 = delta)
//!   counters  seq of (name str, label str, value u64)
//!   gauges    seq of (name str, label str, value i64)
//!   hists     seq of (name str, label str, count u64, sum u64, min u64,
//!                     max u64, [snapshot only: p50 u64, p90 u64, p99 u64],
//!                     buckets seq of (bound u64, count u64))
//!   events_overflowed u64 · [delta only: events_len u64]
//!   events    seq of (t_ns u64, tag u8, variant fields)
//! P4TL  timeline                                (`netsim::timeline`)
//!   interval_ns u64 · baseline block(P4TS snapshot)
//!   entries   seq of (t_ns u64, block(P4TS delta))
//!   final     block(P4TS snapshot)
//! P4TR  trace                                   (`trace`)
//!   dropped u64
//!   spans     seq of (trace_id u64, span_id u64, parent_id u64, kind u8,
//!                     source u16, start_ns u64, end_ns u64, seq u64,
//!                     arg_a u64, arg_b u64)
//! ```
//!
//! Event tags are the [`crate::Event`] variants in declaration order
//! (0–9), each followed by its fields in declaration order;
//! [`crate::RejectKind`], [`crate::DropCause`] and [`crate::SpanKind`]
//! are single bytes in declaration order. Delta histograms omit the
//! percentiles — the receiver recomputes them on apply.
//!
//! Decoding is strict: wrong magic, unknown version/kind/tag, invalid
//! UTF-8, a short buffer, a span that ends before it starts, or trailing
//! bytes all fail with a typed [`DecodeError`], and a `seq` count is
//! checked against the bytes actually left before anything is reserved
//! for it. Encode→decode→encode is byte-identical, which is what lets CI
//! gate codec equivalence by diffing re-encoded JSON against the direct
//! export.

use std::fmt::{Display, Write as _};

/// Why a binary artifact failed to decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The buffer does not start with the expected magic.
    BadMagic,
    /// The version field is not one this decoder reads.
    UnsupportedVersion(u16),
    /// The `P4TS` kind byte was not the kind the caller asked for.
    BadKind(u8),
    /// An event tag or enum byte was out of range.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The structure decoded but bytes remain.
    TrailingBytes(usize),
    /// A span's `end_ns` precedes its `start_ns`.
    EndBeforeStart,
}

impl Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::BadKind(k) => write!(f, "bad kind byte {k}"),
            DecodeError::BadTag(t) => write!(f, "bad tag byte {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after structure"),
            DecodeError::EndBeforeStart => write!(f, "span ends before it starts"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only little-endian writer; starts with the file header.
pub struct ByteWriter(Vec<u8>);

impl ByteWriter {
    /// A writer holding `magic · version`.
    pub fn new(magic: [u8; 4], version: u16) -> Self {
        let mut w = ByteWriter(Vec::with_capacity(256));
        w.0.extend_from_slice(&magic);
        w.u16(version);
        w
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Appends a u16.
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a u32.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a u64.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `seq` count (the elements follow).
    pub fn seq(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("the format counts sequences in a u32"));
    }

    /// Appends a length-prefixed byte block.
    pub fn block(&mut self, bytes: &[u8]) {
        self.seq(bytes.len());
        self.0.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.block(s.as_bytes());
    }

    /// The finished buffer.
    pub fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// Bounds-checked little-endian cursor over untrusted bytes.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Checks the `magic · version` header and positions after it.
    pub fn new(buf: &'a [u8], magic: [u8; 4], version: u16) -> Result<Self, DecodeError> {
        let mut r = ByteReader { buf, pos: 0 };
        if r.take::<4>()? != magic {
            return Err(DecodeError::BadMagic);
        }
        match r.u16()? {
            v if v == version => Ok(r),
            v => Err(DecodeError::UnsupportedVersion(v)),
        }
    }

    fn remaining(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let bytes = *self
            .remaining()
            .first_chunk::<N>()
            .ok_or(DecodeError::Truncated)?;
        self.pos += N;
        Ok(bytes)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take::<1>()?[0])
    }

    /// Reads a u16.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.take().map(u16::from_le_bytes)
    }

    /// Reads a u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.take().map(u32::from_le_bytes)
    }

    /// Reads a u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.take().map(u64::from_le_bytes)
    }

    /// Reads a count of things that each occupy at least `min_bytes`
    /// (≥ 1) on the wire. A count the remaining bytes cannot hold is
    /// [`DecodeError::Truncated`] here, before anything is reserved for it.
    fn count(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let count = self.u32()? as usize;
        if count > self.remaining().len() / min_bytes {
            return Err(DecodeError::Truncated);
        }
        Ok(count)
    }

    /// Reads a `seq`: a count, then that many elements through `elem`,
    /// each at least `min_elem_bytes` on the wire — so the `Vec` reserved
    /// up front never holds more elements than the input has bytes.
    pub fn seq<T>(
        &mut self,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let count = self.count(min_elem_bytes)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed byte block.
    pub fn block(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.count(1)?;
        let (block, _) = self.remaining().split_at(len);
        self.pos += len;
        Ok(block)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        match std::str::from_utf8(self.block()?) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(DecodeError::BadUtf8),
        }
    }

    /// Succeeds only when every byte was consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining().len() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

/// The whitespace one JSON container puts before its first member, after
/// each separating comma, and before its closing bracket. The
/// [`JsonWriter`] owns `,`, `:`, quoting and nesting; the layout is the
/// emitter's, which is how each artifact keeps its historical bytes.
#[derive(Clone, Copy, Debug)]
pub struct Layout(pub &'static str, pub &'static str, pub &'static str);

impl Layout {
    /// `{"a":1,"b":2}`
    pub const COMPACT: Layout = Layout("", "", "");
    /// `{"a": 1, "b": 2}`
    pub const INLINE: Layout = Layout("", " ", "");

    /// One member per line: `item` before each, `close` before the
    /// bracket (both normally a newline plus indentation).
    pub const fn lines(item: &'static str, close: &'static str) -> Layout {
        Layout(item, item, close)
    }
}

/// Streaming JSON writer. Values written while an array is innermost are
/// its elements; inside an object every value follows a [`Self::key`].
pub struct JsonWriter {
    out: String,
    colon: &'static str,
    /// Open containers: closing bracket, layout, "has a member".
    stack: Vec<(char, Layout, bool)>,
}

impl JsonWriter {
    /// A writer putting `colon` (`": "` or `":"`) after each key.
    pub fn new(colon: &'static str) -> Self {
        JsonWriter {
            out: String::with_capacity(1024),
            colon,
            stack: Vec::new(),
        }
    }

    /// Comma and layout whitespace ahead of the next member.
    fn member(&mut self) {
        if let Some((_, Layout(first, rest, _), used)) = self.stack.last_mut() {
            if *used {
                self.out.push(',');
            }
            self.out.push_str(if *used { rest } else { first });
            *used = true;
        }
    }

    fn element(&mut self) {
        if matches!(self.stack.last(), Some((']', ..))) {
            self.member();
        }
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Opens an object as the next value.
    pub fn obj(&mut self, layout: Layout) {
        self.element();
        self.out.push('{');
        self.stack.push(('}', layout, false));
    }

    /// Opens an array as the next value.
    pub fn arr(&mut self, layout: Layout) {
        self.element();
        self.out.push('[');
        self.stack.push((']', layout, false));
    }

    /// Closes the innermost container.
    pub fn end(&mut self) {
        let (bracket, layout, _) = self.stack.pop().expect("end() matches an obj()/arr()");
        self.out.push_str(layout.2);
        self.out.push(bracket);
    }

    /// Writes a member key; the next value written belongs to it.
    pub fn key(&mut self, key: &str) {
        self.member();
        self.quoted(key);
        self.out.push_str(self.colon);
    }

    /// Writes a number, `true`/`false`/`null`, or a complete JSON
    /// document to embed verbatim — anything whose `Display` is JSON.
    pub fn val(&mut self, v: impl Display) {
        self.element();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a whole array of such values.
    pub fn vals<T: Display>(&mut self, layout: Layout, items: impl IntoIterator<Item = T>) {
        self.arr(layout);
        items.into_iter().for_each(|v| self.val(v));
        self.end();
    }

    /// Writes an escaped string value.
    pub fn str(&mut self, s: &str) {
        self.element();
        self.quoted(s);
    }

    /// `key` then [`Self::val`].
    pub fn field(&mut self, key: &str, v: impl Display) {
        self.key(key);
        self.val(v);
    }

    /// `key` then `v` with exactly `decimals` fractional digits.
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) {
        self.field(key, format_args!("{v:.decimals$}"));
    }

    /// `key` then [`Self::str`].
    pub fn field_str(&mut self, key: &str, s: &str) {
        self.key(key);
        self.str(s);
    }

    /// The finished document, newline-terminated.
    pub fn finish(mut self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out.push('\n');
        self.out
    }
}

/// Containers nested deeper than this are rejected by [`parse_json`].
pub const MAX_JSON_DEPTH: usize = 32;

/// A parsed JSON value. Objects keep their members in document order;
/// numbers keep their lexeme, so u64 values survive exactly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (duplicate keys are a parse error).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Obj(members) = self else {
            return None;
        };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        let Value::Arr(items) = self else { return None };
        Some(items)
    }

    /// A number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        let Value::Num(lexeme) = self else {
            return None;
        };
        lexeme.parse().ok()
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        let Value::Bool(b) = self else { return None };
        Some(*b)
    }
}

/// Where and why [`parse_json`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What was wrong there.
    pub what: &'static str,
}

impl Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Strict RFC 8259 parser: one value, nothing but whitespace after it,
/// no trailing commas, no duplicate keys, no raw control bytes, and at
/// most [`MAX_JSON_DEPTH`] nested containers.
pub fn parse_json(text: &str) -> Result<Value, JsonError> {
    let mut p = JsonParser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.err("trailing characters after the value")),
    }
}

struct JsonParser<'a> {
    text: &'a str,
    pos: usize,
}

impl JsonParser<'_> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            what,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += hit as usize;
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        for (word, value) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
        ] {
            if rest.starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth == MAX_JSON_DEPTH => Err(self.err("nesting too deep")),
            Some(b'[') => self.list(b']', depth, Self::value).map(Value::Arr),
            Some(b'{') => {
                let members = self.list(b'}', depth, Self::member)?;
                let mut seen = std::collections::BTreeSet::new();
                if !members.iter().all(|(key, _)| seen.insert(key)) {
                    return Err(self.err("object with a duplicate key ends"));
                }
                Ok(Value::Obj(members))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    /// Comma-separated `item`s up to `close`, the opening bracket being
    /// next.
    fn list<T>(
        &mut self,
        close: u8,
        depth: usize,
        item: fn(&mut Self, usize) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        while !self.eat(close) {
            if !(out.is_empty() || self.eat(b',')) {
                return Err(self.err("expected ',' or a closing bracket"));
            }
            out.push(item(self, depth + 1)?);
            self.skip_ws();
        }
        Ok(out)
    }

    fn member(&mut self, depth: usize) -> Result<(String, Value), JsonError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(b':') {
            return Err(self.err("expected ':'"));
        }
        Ok((key, self.value(depth)?))
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits()?;
        }
        Ok(Value::Num(self.text[start..self.pos].to_owned()))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let code = digits
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or(self.err("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // Stops only at ASCII bytes, so both ends are char boundaries.
            out.push_str(&self.text[run..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.err("unterminated string or raw control byte"));
            }
            let escape = self.peek();
            self.pos += 1;
            out.push(match escape {
                Some(c @ (b'"' | b'\\' | b'/')) => c as char,
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let mut code = self.hex4()?;
                    if (0xD800..0xDC00).contains(&code) && self.eat(b'\\') && self.eat(b'u') {
                        let low = self.hex4()?;
                        if (0xDC00..0xE000).contains(&low) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        }
                    }
                    char::from_u32(code).ok_or(self.err("unpaired surrogate escape"))?
                }
                _ => {
                    self.pos -= 1;
                    return Err(self.err("invalid escape"));
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_rejects_what_the_header_and_cursor_must() {
        let mut w = ByteWriter::new(*b"TEST", 1);
        w.u8(7);
        w.str("hé");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes, *b"TEST", 1).unwrap();
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.str().as_deref(), Ok("hé"));
        assert_eq!(r.finish(), Ok(()));
        let header = |magic, version| ByteReader::new(&bytes, magic, version).err();
        assert_eq!(header(*b"NOPE", 1), Some(DecodeError::BadMagic));
        assert_eq!(
            header(*b"TEST", 2),
            Some(DecodeError::UnsupportedVersion(1))
        );
        assert_eq!(
            ByteReader::new(b"TES", *b"TEST", 1).err(),
            Some(DecodeError::Truncated)
        );
        let r = ByteReader::new(&bytes, *b"TEST", 1).unwrap();
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes(bytes.len() - 6)));
        // 0xFF is never valid UTF-8.
        let mut w = ByteWriter::new(*b"TEST", 1);
        w.block(&[0xFF]);
        let bad = w.finish();
        let mut r = ByteReader::new(&bad, *b"TEST", 1).unwrap();
        assert_eq!(r.str(), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn seq_bounds_the_count_by_the_bytes_left() {
        let seq_of_u64 = |count: u32, elems: usize, min: usize| {
            let mut w = ByteWriter::new(*b"TEST", 1);
            w.u32(count);
            (0..elems).for_each(|_| w.u64(9));
            let bytes = w.finish();
            let mut r = ByteReader::new(&bytes, *b"TEST", 1).unwrap();
            r.seq(min, ByteReader::u64)
        };
        assert_eq!(seq_of_u64(2, 2, 8), Ok(vec![9, 9]));
        // An inflated count fails before the first element is read (and
        // before anything is reserved): the element reader would succeed.
        assert_eq!(seq_of_u64(u32::MAX, 1, 8), Err(DecodeError::Truncated));
        assert_eq!(seq_of_u64(2, 2, 9), Err(DecodeError::Truncated));
    }

    #[test]
    fn writer_places_commas_colons_and_escapes() {
        let mut w = JsonWriter::new(": ");
        w.obj(Layout::lines("\n  ", "\n"));
        w.field_str("na\"me", "a\"b\\c\nd\u{1}");
        w.key("rows");
        w.arr(Layout::INLINE);
        w.val(1);
        w.val("null");
        w.vals(Layout::COMPACT, [0u8; 0]);
        w.end();
        w.end();
        assert_eq!(
            w.finish(),
            "{\n  \"na\\\"me\": \"a\\\"b\\\\c\\nd\\u0001\",\n  \"rows\": [1, null, []]\n}\n"
        );
        let mut w = JsonWriter::new(":");
        w.obj(Layout::COMPACT);
        w.field("a", 1);
        w.field("b", true);
        w.end();
        assert_eq!(w.finish(), "{\"a\":1,\"b\":true}\n");
    }

    #[test]
    fn parser_reads_back_what_the_writer_wrote() {
        let doc = parse_json(
            " {\"k\": 4 , \"s\": \"a\\\"\\u00e9\\ud83d\\ude00\\n\", \
             \"n\": [-0.5e+3, 18446744073709551615, null, true]}\n",
        )
        .unwrap();
        assert_eq!(doc.get("k"), Some(&Value::Num("4".into())));
        assert_eq!(doc.get("s"), Some(&Value::Str("a\"é😀\n".into())));
        let n = doc.get("n").and_then(Value::as_array).unwrap();
        assert_eq!(n[0].as_f64(), Some(-500.0));
        assert_eq!(n[1], Value::Num(u64::MAX.to_string()));
        assert_eq!((&n[2], n[3].as_bool()), (&Value::Null, Some(true)));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parser_is_strict() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\":1,\"a\":2}",
            "{a:1}",
            "[1] x",
            "01",
            "1.",
            "-",
            "1e",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\u12\"",
            "\"raw\u{1}\"",
            "\"open",
            "nul",
            "[1 2]",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} must not parse");
        }
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        assert_eq!(
            parse_json(&nested(MAX_JSON_DEPTH + 1)).map_err(|e| e.what),
            Err("nesting too deep")
        );
        assert!(parse_json(&"[".repeat(1 << 20)).is_err());
    }
}
