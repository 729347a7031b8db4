//! Offline stand-in for `serde`.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal serde look-alike whose only format is JSON:
//! [`Serialize`] writes compact JSON text straight into a `String`, and
//! [`Deserialize`] reads straight from a [`Reader`], a byte cursor over
//! the text, with no intermediate value tree. Derive macros (from the
//! sibling `serde_derive` stub) implement both for structs with named
//! fields and for enums with unit or struct variants — the only shapes
//! this workspace uses. `serde_json` (also vendored) wraps them as
//! `to_string`/`from_str`. The external-tagging conventions match real
//! serde, so the derived types and their JSON text stay the same with the
//! real crates; a hand-written `write_json` impl would need porting to
//! real serde's `Serializer`.
//!
//! Two provided trait methods are hooks for arrays:
//! [`Serialize::write_json_slice`] writes `[T]` and `Vec<T>`, and
//! [`Deserialize::read_json_vec`] reads `Vec<T>`. Both default to the
//! element-by-element loop. Only `u64` and `usize` override them: the
//! reader takes an element of 1 to 18 digits, with no leading zero and
//! followed by `,` or `]`, straight from the bytes and hands anything
//! else to the element reader at the same position, and the writer puts
//! digits and commas together in one ASCII run. The same values and
//! errors come out either way (the `bitwise` tests pin it). No derived
//! type and no other impl names a hook, so the derived types port to real
//! serde unchanged; there the hooks simply go, as real serde's JSON
//! codec reads and writes integer arrays without them.
//!
//! Reading follows RFC 8259 strictly: a number has no leading zeros
//! (`01`) and no bare point (`1.`, `.5`), a string holds no raw control
//! character (U+0000–U+001F must be escaped), and a `\u` escape is four
//! hex digits. On top of the grammar, these rules:
//!
//! * A struct reads its fields by name in any order. The first
//!   occurrence of a key wins; later duplicates and unknown keys are
//!   skipped, their syntax still checked.
//! * A missing `Option` field is `None`; any other missing field is
//!   ``missing field `…` ``.
//! * Numbers coerce across representations: `3.0` or `-0` read as an
//!   integer, an integer reads as a float, and `null` reads as NaN into
//!   an `f64` (non-finite floats are written as `null`).
//! * Nesting deeper than [`MAX_DEPTH`] arrays and objects is rejected, so
//!   a hostile line cannot exhaust the reading thread's stack.
//! * An escaped UTF-16 surrogate pair (`\ud83d` then `\ude00`) reads as
//!   the one character it encodes (U+1F600); a lone surrogate reads as
//!   U+FFFD.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::fmt::Write as _;

pub use serde_derive::{Deserialize, Serialize};

/// The deepest nesting of arrays and objects a [`Reader`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    /// Creates an error with a message.
    pub fn custom(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that write themselves as JSON text.
pub trait Serialize {
    /// Appends `self` to `out` as compact JSON.
    fn write_json(&self, out: &mut String);

    /// Appends `items` to `out` as a JSON array: the hook behind
    /// `[T]` and `Vec<T>`. The default writes element by element.
    fn write_json_slice(items: &[Self], out: &mut String)
    where
        Self: Sized,
    {
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

/// Types that read themselves from JSON text.
pub trait Deserialize: Sized {
    /// Reads one value at the reader's position.
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, Error>;

    /// Reads a JSON array of `Self` at the reader's position: the hook
    /// behind `Vec<T>`. The default reads element by element.
    fn read_json_vec(reader: &mut Reader<'_>) -> Result<Vec<Self>, Error> {
        let mut items = Vec::new();
        reader.read_array("expected array", |reader| {
            items.push(Self::read_json(reader)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// The value of a struct field the object leaves out: an error for
    /// every type but `Option`, which reads as `None`.
    fn missing_field(name: &str) -> Result<Self, Error> {
        Err(Error::custom(format!("missing field `{name}`")))
    }
}

// ---- reader ----------------------------------------------------------------

/// A JSON number as written: an unsigned integer, or any other number.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Number {
    /// A non-negative integer that fits `u64`.
    U64(u64),
    /// Any other number. A negative integer parses to the same `f64` its
    /// `i64` value would convert to, and `-0` keeps its sign.
    F64(f64),
}

impl Number {
    /// Coercion to `u64`: integers and non-negative whole floats.
    fn as_u64(self) -> Option<u64> {
        match self {
            Number::U64(x) => Some(x),
            Number::F64(x) if x >= 0.0 && x.fract() == 0.0 => Some(x as u64),
            _ => None,
        }
    }

    /// Coercion to `f64`: every number.
    fn as_f64(self) -> f64 {
        match self {
            Number::U64(x) => x as f64,
            Number::F64(x) => x,
        }
    }
}

/// The leading token of a tagged enum value.
pub enum Tag<'a> {
    /// A bare string: a unit variant's name.
    Unit(Cow<'a, str>),
    /// The key of a `{"Name":…}` object; the reader stands at its value,
    /// and [`Reader::end_tag`] closes the object.
    Struct(Cow<'a, str>),
    /// Anything else, which names no variant.
    Other,
}

/// A cursor over one JSON text, read by [`Deserialize::read_json`].
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    /// Checks that only whitespace follows the value read.
    pub fn finish(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(Error::custom("trailing characters after JSON value")),
        }
    }

    /// The next byte after whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes().get(self.pos) {
            self.pos += 1;
        }
        self.bytes().get(self.pos).copied()
    }

    /// Consumes `byte` after whitespace, if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.pos += usize::from(next);
        next
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    /// Opens an array or object: one level deeper.
    fn enter(&mut self) -> Result<(), Error> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} levels"
            )));
        }
        Ok(())
    }

    /// Consumes the literal starting with the next byte, which must be
    /// exactly `literal`.
    fn literal(&mut self, literal: &str) -> Result<(), Error> {
        if self.bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(Error::custom("invalid literal"))
        }
    }

    /// Consumes a `null`, if one is next.
    fn eat_null(&mut self) -> Result<bool, Error> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    /// Reads a `true` or `false`, or `None` if neither is next.
    fn read_bool(&mut self) -> Result<Option<bool>, Error> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| Some(true)),
            Some(b'f') => self.literal("false").map(|()| Some(false)),
            _ => Ok(None),
        }
    }

    /// Reads a number, or `None` if no number is next.
    fn read_number(&mut self) -> Result<Option<Number>, Error> {
        match self.peek() {
            Some(b'0'..=b'9') => {}
            Some(b'-') => return self.read_number_text().map(Some),
            _ => return Ok(None),
        }
        // Plain digits, the common case; up to 19 cannot overflow `u64`.
        let bytes = self.bytes();
        let start = self.pos;
        let mut end = start;
        let mut value: u64 = 0;
        while let Some(&digit @ b'0'..=b'9') = bytes.get(end) {
            value = value.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
            end += 1;
        }
        let leading_zero = bytes[start] == b'0' && end - start > 1;
        if end - start > 19
            || leading_zero
            || matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            return self.read_number_text().map(Some);
        }
        self.pos = end;
        Ok(Some(Number::U64(value)))
    }

    /// Reads array elements from the reader's position, for
    /// [`Reader::read_array`]'s `item`: a run of plain elements, each 1 to
    /// 18 digits with no leading zero, followed by `,` or `]` and fitting
    /// `T`, taken straight from the bytes with the `,` after each, up to
    /// the `]` or the first element that is not plain. That one goes to
    /// `read`, the element reader, at its own position; the element
    /// reader reads a plain element to the same value, so the array
    /// reads to the same values and errors as element by element.
    fn read_plain_run<T: TryFrom<u64>>(
        &mut self,
        items: &mut Vec<T>,
        read: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<(), Error> {
        let bytes = self.bytes();
        loop {
            let start = self.pos;
            let mut end = start;
            let mut value: u64 = 0;
            while let Some(&digit @ b'0'..=b'9') = bytes.get(end) {
                value = value.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
                end += 1;
            }
            let digits = end - start;
            let separator = bytes.get(end).copied();
            let plain = (1..=18).contains(&digits)
                && (digits == 1 || bytes[start] != b'0')
                && matches!(separator, Some(b',' | b']'));
            match T::try_from(value) {
                Ok(item) if plain => items.push(item),
                _ => {
                    items.push(read(self)?);
                    return Ok(());
                }
            }
            if separator == Some(b']') {
                self.pos = end;
                return Ok(());
            }
            self.pos = end + 1;
        }
    }

    /// Reads a number token through its last digit, sign, point or
    /// exponent character, checks it against the RFC 8259 grammar and
    /// parses it: as `u64` when it has no sign, fraction or exponent, else
    /// as `f64`.
    fn read_number_text(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        let sign = usize::from(self.bytes()[start] == b'-');
        let token = self.bytes()[start + sign..]
            .iter()
            .position(|&b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .map_or(self.text.len(), |n| start + sign + n);
        self.pos = token;
        let text = &self.text[start..token];
        let invalid = || Error::custom(format!("invalid number `{text}`"));
        if !is_json_number(text.as_bytes()) {
            return Err(invalid());
        }
        if !text[sign..].contains(['.', 'e', 'E', '+', '-']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::U64(u));
            }
        }
        text.parse::<f64>().map(Number::F64).map_err(|_| invalid())
    }

    /// Reads a string, borrowed from the text unless it holds escapes.
    fn read_str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(Error::custom("expected string"));
        }
        self.pos += 1;
        let bytes = self.bytes();
        let run = |from: usize| {
            bytes[from..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .map_or(bytes.len(), |n| from + n)
        };
        // Every stop is ASCII, so every run ends on a char boundary.
        let mut stop = run(self.pos);
        if bytes.get(stop) == Some(&b'"') {
            let text = &self.text[self.pos..stop];
            self.pos = stop + 1;
            return Ok(Cow::Borrowed(text));
        }
        let mut out = String::new();
        loop {
            out.push_str(&self.text[self.pos..stop]);
            self.pos = stop + 1;
            match bytes.get(stop) {
                Some(b'"') => return Ok(Cow::Owned(out)),
                Some(b'\\') => self.read_escape(&mut out)?,
                Some(_) => return Err(Error::custom("unescaped control character in string")),
                None => return Err(Error::custom("unterminated string")),
            }
            stop = run(self.pos);
        }
    }

    /// Reads one escape after its backslash.
    fn read_escape(&mut self, out: &mut String) -> Result<(), Error> {
        let Some(&escape) = self.bytes().get(self.pos) else {
            return Err(Error::custom("unterminated escape"));
        };
        self.pos += 1;
        let c = match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let code = self.read_hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    // A high surrogate: combined with a low one that
                    // follows (RFC 8259 §7), else left alone.
                    let after_high = self.pos;
                    self.pos += 2;
                    let low = self.read_hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        let code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        return Ok(());
                    }
                    self.pos = after_high;
                }
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            other => {
                return Err(Error::custom(format!(
                    "invalid escape `\\{}`",
                    other as char
                )))
            }
        };
        out.push(c);
        Ok(())
    }

    /// Reads the four hex digits of a `\u` escape.
    fn read_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.text.len() {
            return Err(Error::custom("truncated \\u escape"));
        }
        let invalid = || Error::custom("invalid \\u escape");
        // `from_str_radix` alone would take a sign: `\u+041`.
        let hex = self.text.get(self.pos..self.pos + 4);
        let hex = hex
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(invalid)?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| invalid())?;
        self.pos += 4;
        Ok(code)
    }

    /// Reads an array, handing the reader to `item` at each element.
    /// `expected` is the error when no array is next.
    pub fn read_array(
        &mut self,
        expected: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if self.peek() != Some(b'[') {
            return Err(Error::custom(expected));
        }
        self.enter()?;
        if !self.eat(b']') {
            loop {
                item(self)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(Error::custom("expected `,` or `]` in array")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads an object, handing the reader to `member` at each key's
    /// value. `expected` is the error when no object is next.
    pub fn read_object(
        &mut self,
        expected: &str,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if self.peek() != Some(b'{') {
            return Err(Error::custom(expected));
        }
        self.enter()?;
        if !self.eat(b'}') {
            loop {
                let key = self.read_key()?;
                member(self, &key)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(Error::custom("expected `,` or `}` in object")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads an object key and its `:`.
    fn read_key(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(Error::custom(format!("expected `\"` at byte {}", self.pos)));
        }
        let key = self.read_str()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// Reads the tag of an externally tagged enum value.
    pub fn read_tag(&mut self) -> Result<Tag<'a>, Error> {
        match self.peek() {
            Some(b'"') => self.read_str().map(Tag::Unit),
            Some(b'{') => {
                self.enter()?;
                if self.peek() == Some(b'}') {
                    return Ok(Tag::Other);
                }
                self.read_key().map(Tag::Struct)
            }
            _ => Ok(Tag::Other),
        }
    }

    /// Closes the object a [`Tag::Struct`] opened; `false` if it holds
    /// more than the one key.
    pub fn end_tag(&mut self) -> bool {
        let closed = self.eat(b'}');
        self.depth -= usize::from(closed);
        closed
    }

    /// Reads and discards one value, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.read_str().map(drop),
            Some(b'[') => self.read_array("", Self::skip_value),
            Some(b'{') => self.read_object("", |reader, _| reader.skip_value()),
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'-' | b'0'..=b'9') => self.read_number().map(drop),
            _ => Err(Error::custom(format!("unexpected byte at {}", self.pos))),
        }
    }
}

/// Whether `token` is a number as RFC 8259 §6 writes it: an optional
/// minus, an integer part with no leading zero, then an optional fraction
/// and an optional exponent, each with at least one digit.
fn is_json_number(token: &[u8]) -> bool {
    let digits = |from: usize| {
        token.get(from..).map_or(0, |rest| {
            rest.iter().take_while(|b| b.is_ascii_digit()).count()
        })
    };
    let mut at = usize::from(token.first() == Some(&b'-'));
    let integer = digits(at);
    if integer == 0 || (integer > 1 && token[at] == b'0') {
        return false;
    }
    at += integer;
    if token.get(at) == Some(&b'.') {
        let fraction = digits(at + 1);
        if fraction == 0 {
            return false;
        }
        at += 1 + fraction;
    }
    if matches!(token.get(at), Some(b'e' | b'E')) {
        at += 1;
        at += usize::from(matches!(token.get(at), Some(b'+' | b'-')));
        let exponent = digits(at);
        if exponent == 0 {
            return false;
        }
        at += exponent;
    }
    at == token.len()
}

// ---- primitive impls -------------------------------------------------------

/// The most decimal digits a `u64` has.
const U64_DIGITS: usize = 20;

/// Writes the decimal digits of `x` at the start of `buf` and returns
/// how many.
fn put_digits(mut x: u64, buf: &mut [u8]) -> usize {
    if x < 10 {
        buf[0] = b'0' + x as u8;
        return 1;
    }
    let len = x.checked_ilog10().map_or(1, |log| log as usize + 1);
    for slot in buf[..len].iter_mut().rev() {
        *slot = b'0' + (x % 10) as u8;
        x /= 10;
    }
    len
}

/// Bytes the writer put together as digits, commas and brackets.
fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("digits, commas and brackets are ASCII")
}

/// Appends the decimal digits of `x`.
fn write_u64(out: &mut String, x: u64) {
    let mut digits = [0u8; U64_DIGITS];
    let len = put_digits(x, &mut digits);
    out.push_str(ascii(&digits[..len]));
}

/// Appends `items` as a JSON array of integers, the text the element
/// loop writes. Digits and commas are put together in a stack buffer
/// and reach `out` as one ASCII run per buffer, not a `char` at a time.
fn write_u64_array(items: impl Iterator<Item = u64>, out: &mut String) {
    let mut run = [0u8; 512];
    run[0] = b'[';
    let mut len = 1;
    for x in items {
        // Room for the longest number and its comma.
        if len + U64_DIGITS + 1 > run.len() {
            out.push_str(ascii(&run[..len]));
            len = 0;
        }
        len += put_digits(x, &mut run[len..]);
        run[len] = b',';
        len += 1;
    }
    // The closing bracket takes the last comma's place.
    if run[len - 1] == b',' {
        len -= 1;
    }
    run[len] = b']';
    out.push_str(ascii(&run[..=len]));
}

macro_rules! impl_serde_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write_u64(out, *self as u64);
            }

            fn write_json_slice(items: &[Self], out: &mut String) {
                write_u64_array(items.iter().map(|&x| x as u64), out);
            }
        }
        impl Deserialize for $t {
            fn read_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
                reader.read_number()?
                    .and_then(Number::as_u64)
                    .and_then(|x| <$t>::try_from(x).ok())
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))
            }

            fn read_json_vec(reader: &mut Reader<'_>) -> Result<Vec<Self>, Error> {
                let mut items = Vec::new();
                reader.read_array("expected array", |reader| {
                    reader.read_plain_run(&mut items, Self::read_json)
                })?;
                Ok(items)
            }
        }
    )*};
}

impl_serde_unsigned!(u64, usize);

impl Serialize for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            // `{:?}` keeps a decimal point or exponent so the value
            // re-reads as a float, and round-trips f64 exactly.
            let _ = write!(out, "{self:?}");
        } else {
            // JSON has no representation for non-finite floats; real
            // serde_json writes null.
            out.push_str("null");
        }
    }
}

impl Deserialize for f64 {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        // `null` reads back the non-finite floats the writer nulls.
        if reader.eat_null()? {
            return Ok(f64::NAN);
        }
        reader
            .read_number()?
            .map(Number::as_f64)
            .ok_or_else(|| Error::custom("expected number"))
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        reader
            .read_bool()?
            .ok_or_else(|| Error::custom("expected bool"))
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let mut run = 0;
        for (i, byte) in self.bytes().enumerate() {
            let escape = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every escaped byte is ASCII, so runs end on char boundaries.
            out.push_str(&self[run..i]);
            run = i + 1;
            if escape.is_empty() {
                let _ = write!(out, "\\u{byte:04x}");
            } else {
                out.push_str(escape);
            }
        }
        out.push_str(&self[run..]);
        out.push('"');
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl Deserialize for String {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        reader.read_str().map(Cow::into_owned)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        T::write_json_slice(self, out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        T::read_json_vec(reader)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(inner) => inner.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        if reader.eat_null()? {
            Ok(None)
        } else {
            T::read_json(reader).map(Some)
        }
    }

    fn missing_field(_name: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut a, mut b, mut count) = (None, None, 0);
        reader.read_array("expected pair", |reader| {
            match count {
                0 => a = Some(A::read_json(reader)?),
                1 => b = Some(B::read_json(reader)?),
                _ => reader.skip_value()?,
            }
            count += 1;
            Ok(())
        })?;
        match (a, b, count) {
            (Some(a), Some(b), 2) => Ok((a, b)),
            _ => Err(Error::custom("expected two-element array")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn write<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.write_json(&mut out);
        out
    }

    fn read<T: Deserialize>(text: &str) -> Result<T, Error> {
        let mut reader = Reader::new(text);
        let value = T::read_json(&mut reader)?;
        reader.finish().map(|()| value)
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(read::<u64>(&write(&42u64)).unwrap(), 42);
        assert_eq!(read::<f64>(&write(&1.5f64)).unwrap(), 1.5);
        assert!(read::<bool>(&write(&true)).unwrap());
        assert_eq!(read::<String>(&write("hi")).unwrap(), "hi");
        let v: Vec<usize> = read(&write(&vec![1usize, 2, 3])).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let o: Option<f64> = read("null").unwrap();
        assert!(o.is_none());
        let pair: (f64, f64) = read(&write(&(0.25f64, 4.0f64))).unwrap();
        assert_eq!(pair, (0.25, 4.0));
        assert!(read::<(f64, f64)>("[1,2,3]").is_err());
        assert!(read::<(f64, f64)>("[1]").is_err());
        let pair: (u64, f64) = read(" [ 1 , -2 ] ").unwrap();
        assert_eq!(pair, (1, -2.0));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(write(&f64::INFINITY), "null");
        assert!(read::<f64>("null").unwrap().is_nan());
        assert_eq!(read::<Option<f64>>("null").unwrap(), None);
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let text = "q\"b\\n\nr\rt\tc\u{1}\u{1f}d\u{7f}ü😀";
        let written = write(text);
        assert_eq!(
            written,
            "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001fd\u{7f}ü😀\""
        );
        assert_eq!(read::<String>(&written).unwrap(), text);
    }

    /// An integer that reads and writes through the element loop: it
    /// keeps the default `read_json_vec` and `write_json_slice`, the
    /// oracle for the `u64` and `usize` hooks.
    #[derive(Debug, PartialEq)]
    struct Elementwise<T>(T);

    impl<T: Serialize> Serialize for Elementwise<T> {
        fn write_json(&self, out: &mut String) {
            self.0.write_json(out);
        }
    }

    impl<T: Deserialize> Deserialize for Elementwise<T> {
        fn read_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
            T::read_json(reader).map(Elementwise)
        }
    }

    /// Reads `text` through the hook and through the element loop; both
    /// must give the same values or the same error.
    fn assert_reads_alike<T>(text: &str) -> Result<(), String>
    where
        T: Deserialize + Copy + PartialEq + std::fmt::Debug,
    {
        let hook = read::<Vec<T>>(text);
        let oracle = read::<Vec<Elementwise<T>>>(text)
            .map(|items| items.into_iter().map(|item| item.0).collect::<Vec<T>>());
        if hook == oracle {
            Ok(())
        } else {
            Err(format!("{text:?}: hook {hook:?}, element loop {oracle:?}"))
        }
    }

    /// Array elements on and off the plain-digit path, as text.
    fn near_miss(kind: u8, x: u64) -> String {
        let digits = |n: u32| {
            let low = 10u128.pow(n - 1);
            (low + u128::from(x) % (9 * low)).to_string()
        };
        match kind {
            0..=3 => x.to_string(),
            4 => (x % 10).to_string(),
            5 => digits(1 + (x % 21) as u32),
            6 => format!("0{}", x % 1000),
            7 => format!("-{}", x % 3),
            8 => format!("{}.0", x % 100),
            9 => format!("{}e1", x % 10),
            10 => format!("{}E+0", x % 10),
            11 => u64::MAX.to_string(),
            12 => (u128::from(u64::MAX) + 1).to_string(),
            13 => format!("{}.", x % 10),
            14 => "null".to_owned(),
            15 => format!("\"{}\"", x % 10),
            _ => "[]".to_owned(),
        }
    }

    const SEPARATORS: [&str; 6] = [",", ",", " , ", ",\n\t", ",,", " "];

    /// A near-miss array: elements of every `near_miss` kind, separators
    /// with whitespace, doubled or missing commas, a trailing comma, and
    /// truncation at any byte. The bits of `shape`: 1 keeps to integers
    /// and well-formed separators, so valid arrays come up often; 2 pads
    /// the opening bracket; 4 adds a trailing comma and 8 truncates at
    /// `cut`, each unless bit 1 is set.
    fn near_miss_array(elements: &[(u8, u64, u8)], shape: u8, cut: usize) -> String {
        let clean = shape & 1 != 0;
        let mut text = String::from(if shape & 2 != 0 { "[ " } else { "[" });
        for (i, &(kind, x, separator)) in elements.iter().enumerate() {
            let (kind, separator) = if clean {
                (kind % 6, separator % 4)
            } else {
                (kind, separator)
            };
            if i > 0 {
                text.push_str(SEPARATORS[usize::from(separator) % SEPARATORS.len()]);
            }
            text.push_str(&near_miss(kind, x));
        }
        if !clean && shape & 4 != 0 {
            text.push(',');
        }
        text.push(']');
        if !clean && shape & 8 != 0 {
            text.truncate(cut % (text.len() + 1));
        }
        text
    }

    #[test]
    fn near_miss_arrays_read_bitwise_like_the_element_loop() {
        let max = u64::MAX;
        let past_max = u128::from(u64::MAX) + 1;
        let texts = [
            "[]".to_owned(),
            "[ ]".to_owned(),
            "[0]".to_owned(),
            "[0,9,10,99]".to_owned(),
            "[01]".to_owned(),
            "[1,00]".to_owned(),
            "[-0]".to_owned(),
            "[3.0]".to_owned(),
            "[2e1]".to_owned(),
            "[1 ,2]".to_owned(),
            "[1, 2]".to_owned(),
            "[ 1,2 ]".to_owned(),
            "[999999999999999999]".to_owned(),
            "[1000000000000000000]".to_owned(),
            "[12345678901234567890]".to_owned(),
            "[123456789012345678901]".to_owned(),
            format!("[{max}]"),
            format!("[1,{past_max}]"),
            "[1,2,]".to_owned(),
            "[1,2".to_owned(),
            "[1,".to_owned(),
            "[1".to_owned(),
            "[".to_owned(),
            "[1]x".to_owned(),
            "[1 2]".to_owned(),
            "[1,,2]".to_owned(),
            "[1,null]".to_owned(),
            "[\"1\"]".to_owned(),
            "{}".to_owned(),
            "7".to_owned(),
        ];
        for text in &texts {
            assert_reads_alike::<u64>(text).unwrap();
            assert_reads_alike::<usize>(text).unwrap();
        }
        assert_eq!(read::<Vec<u64>>(&format!("[{max}]")).unwrap(), vec![max]);
        assert!(read::<Vec<u64>>("[01]").is_err());
    }

    #[test]
    fn unsigned_arrays_nest_through_the_hook() {
        let text = "[[1,2],[],[ 3 ,4]]";
        let nested: Vec<Vec<u64>> = read(text).unwrap();
        assert_eq!(nested, vec![vec![1, 2], vec![], vec![3, 4]]);
        assert_eq!(write(&nested), "[[1,2],[],[3,4]]");
    }

    /// A value from the writer's edge cases: 0, 9, 10, 10^k - 1, 10^k and
    /// `u64::MAX`, or any `u64`.
    fn edge_value(kind: u8, x: u64) -> u64 {
        let k = (x % 20) as u32;
        match kind {
            0 => 0,
            1 => 9,
            2 => 10,
            3 => 10u64.pow(k) - 1,
            4 => 10u64.saturating_pow(k),
            5 => u64::MAX,
            6 => x % 1000,
            _ => x,
        }
    }

    proptest! {
        #[test]
        fn unsigned_arrays_read_bitwise_like_the_element_loop(
            elements in proptest::collection::vec((0u8..=16, 0u64..u64::MAX, 0u8..=20), 0..=24),
            shape in 0u8..16,
            cut in 0usize..=4096,
        ) {
            let text = near_miss_array(&elements, shape, cut);
            assert_reads_alike::<u64>(&text)?;
            assert_reads_alike::<usize>(&text)?;
        }

        #[test]
        fn unsigned_arrays_write_bitwise_like_the_element_loop(
            values in proptest::collection::vec((0u8..=7, 0u64..u64::MAX), 0..=300),
            prefix in 0usize..=2,
        ) {
            let values: Vec<u64> = values.into_iter().map(|(kind, x)| edge_value(kind, x)).collect();
            let sizes: Vec<usize> = values.iter().map(|&x| x as usize).collect();
            let oracle: Vec<Elementwise<u64>> = values.iter().map(|&x| Elementwise(x)).collect();
            let start = &"{\"records\":"[..prefix * 5];
            let (mut hook, mut hook_sizes, mut loop_text) =
                (start.to_owned(), start.to_owned(), start.to_owned());
            values.write_json(&mut hook);
            sizes.write_json(&mut hook_sizes);
            oracle.write_json(&mut loop_text);
            prop_assert_eq!(&hook, &loop_text);
            prop_assert_eq!(&hook_sizes, &loop_text);
        }
    }
}
