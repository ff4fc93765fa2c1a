//! Reading JSONL streams back: a line-oriented iterator, a single-pass
//! decoder for the flat objects the sinks write, and
//! line-number-carrying errors.
//!
//! The sinks in this crate are write-only; every consumer of their
//! output (trace replay, `--trace-tree`, the admission journal in
//! `wimesh-svc`) reads it back through this module. [`JsonlReader`]
//! walks a JSONL text and yields each line with its 1-based number and
//! whether it was newline-terminated (an unterminated final line is the
//! classic torn write a crashed process leaves behind).
//! [`JsonlLine::cursor`] opens a [`Cursor`] that walks the line *once*,
//! field by field in the order the sinks write them — borrowed, no heap
//! allocation — and accepts nothing but exactly one object whose values
//! are strings, numbers, or arrays of unsigned integers only, so what a
//! line costs to read does not depend on how many fields it has or in
//! which order they are wanted. Failures carry the offending line number
//! via [`JsonlError`].

use std::borrow::Cow;
use std::fmt;

/// Iterator over the lines of a JSONL text.
///
/// Yields every non-empty line as a [`JsonlLine`]. A trailing line
/// without a final `\n` is still yielded, flagged `terminated: false`,
/// so journal readers can distinguish a torn tail from a complete
/// record.
#[derive(Debug, Clone)]
pub struct JsonlReader<'a> {
    rest: &'a str,
    next_number: u32,
}

impl<'a> JsonlReader<'a> {
    /// Starts reading from the beginning of `text`.
    pub fn new(text: &'a str) -> Self {
        JsonlReader {
            rest: text,
            next_number: 1,
        }
    }
}

impl<'a> Iterator for JsonlReader<'a> {
    type Item = JsonlLine<'a>;

    fn next(&mut self) -> Option<JsonlLine<'a>> {
        loop {
            if self.rest.is_empty() {
                return None;
            }
            let number = self.next_number;
            self.next_number += 1;
            let (raw, terminated) = match self.rest.find('\n') {
                Some(i) => {
                    let line = &self.rest[..i];
                    self.rest = &self.rest[i + 1..];
                    (line.strip_suffix('\r').unwrap_or(line), true)
                }
                None => {
                    let line = self.rest;
                    self.rest = "";
                    (line, false)
                }
            };
            if raw.trim_start().is_empty() {
                continue; // blank separators carry no record
            }
            return Some(JsonlLine {
                number,
                raw,
                terminated,
            });
        }
    }
}

/// One line of a JSONL stream, with its position and raw text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonlLine<'a> {
    /// 1-based line number in the source text.
    pub number: u32,
    /// The line's text, without the trailing newline.
    pub raw: &'a str,
    /// Whether the line ended with `\n`. `false` only on the final
    /// line of a text that stops mid-line — a torn write.
    pub terminated: bool,
}

impl<'a> JsonlLine<'a> {
    /// Opens a single-pass [`Cursor`] over the line's fields.
    ///
    /// # Errors
    ///
    /// A [`JsonlError`] naming this line when it does not start a JSON
    /// object.
    #[inline]
    pub fn cursor(&self) -> Result<Cursor<'a>, JsonlError> {
        Cursor::open(self.raw, self.number)
    }

    /// Builds a [`JsonlError`] anchored at this line.
    pub fn error(&self, reason: impl Into<String>) -> JsonlError {
        JsonlError {
            line: self.number,
            reason: reason.into(),
        }
    }
}

/// A single pass over the fields of one line.
///
/// The line must be exactly one JSON object as the sinks of this
/// workspace write it: `{"key":value,...}` with no whitespace between
/// tokens, plain (escape-free) keys, and values that are strings,
/// numbers, or arrays of unsigned integers only — never a nested object,
/// and no other kind of array.
///
/// A sink writes the fields of a record in one fixed order, and the
/// cursor reads them in that order: each read names the key that must
/// come next and the type its value must have, compares the key in
/// place, and moves past the value. Nothing is allocated (a string is
/// copied only when it holds an escape), no byte is looked at twice,
/// and nothing is searched for: a reordered, unknown, repeated or
/// missing field is an error, never a silent default. A reader that
/// finishes with [`Self::end`] has checked every byte of the line.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    /// What is left of the line after the last value read.
    rest: &'a str,
    /// Whether a field has been read, so that the next follows a `,`.
    started: bool,
    number: u32,
}

impl<'a> Cursor<'a> {
    /// Opens a cursor over `raw` (one line, without its newline);
    /// errors are reported at line 0.
    ///
    /// # Errors
    ///
    /// When `raw` does not start with `{`.
    #[inline]
    pub fn new(raw: &'a str) -> Result<Self, JsonlError> {
        Self::open(raw, 0)
    }

    #[inline]
    fn open(raw: &'a str, number: u32) -> Result<Self, JsonlError> {
        let mut cursor = Cursor {
            rest: raw,
            started: false,
            number,
        };
        match raw.strip_prefix('{') {
            Some(rest) => {
                cursor.rest = rest;
                Ok(cursor)
            }
            None => Err(cursor.error("line is not a JSON object: no opening '{'")),
        }
    }

    /// Moves past `"key":` (and the `,` before it, after the first
    /// field) if that is what comes next.
    #[inline]
    fn key(&mut self, key: &str) -> bool {
        let b = self.rest.as_bytes();
        let from = usize::from(self.started);
        let colon = from + key.len() + 2;
        let found = (!self.started || b.first() == Some(&b','))
            && b.get(from) == Some(&b'"')
            && b.get(from + 1..colon - 1) == Some(key.as_bytes())
            && b.get(colon - 1..=colon) == Some(b"\":");
        if found {
            // Just past an ASCII `:`.
            self.rest = &self.rest[colon + 1..];
            self.started = true;
        }
        found
    }

    /// Moves past a value of `len` bytes if a `,` or the closing brace
    /// follows it, as after every value of a flat object.
    #[inline]
    fn value(&mut self, len: usize) -> Option<&'a str> {
        if !matches!(self.rest.as_bytes().get(len), Some(b',' | b'}')) {
            return None;
        }
        let (value, rest) = self.rest.split_at(len);
        self.rest = rest;
        Some(value)
    }

    #[inline]
    fn take_u64(&mut self) -> Option<u64> {
        let (v, len) = leading_u64(self.rest.as_bytes())?;
        self.value(len).map(|_| v)
    }

    /// Moves past `[n,...]`, handing each `n` to `each`; `None` (after
    /// `each` may have seen a prefix) unless every element is a `u32`.
    #[inline]
    fn take_u32_array(&mut self, mut each: impl FnMut(u32)) -> Option<()> {
        let b = self.rest.as_bytes();
        if b.first() != Some(&b'[') {
            return None;
        }
        let mut at = 1;
        if b.get(at) != Some(&b']') {
            loop {
                let (v, len) = leading_u64(&b[at..])?;
                each(u32::try_from(v).ok()?);
                at += len;
                match b.get(at)? {
                    b',' => at += 1,
                    b']' => break,
                    _ => return None,
                }
            }
        }
        self.value(at + 1).map(|_| ())
    }

    #[inline]
    fn take_str(&mut self) -> Option<Cow<'a, str>> {
        let b = self.rest.as_bytes();
        if b.first() != Some(&b'"') {
            return None;
        }
        let (end, escaped) = string_end(b, 1)?;
        let contents = &self.value(end + 1)?[1..end];
        if escaped {
            unescape(contents).map(Cow::Owned)
        } else {
            Some(Cow::Borrowed(contents))
        }
    }

    #[inline]
    fn take_f64(&mut self) -> Option<f64> {
        let b = self.rest.as_bytes();
        let len = b.iter().position(|&c| c == b',' || c == b'}')?;
        let token = self.value(len)?;
        if is_number(token.as_bytes()) {
            token.parse().ok()
        } else {
            None
        }
    }

    /// The next field: it must be `key` and `take` must accept its value.
    #[inline]
    fn field<T>(
        &mut self,
        key: &str,
        what: &str,
        take: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Result<T, JsonlError> {
        if self.key(key) {
            if let Some(value) = take(self) {
                return Ok(value);
            }
        }
        Err(self.expected(what, key))
    }

    /// The record's type tag: the string field `"t"`, which comes first.
    /// Tags are plain identifiers, so one with an escape is rejected
    /// rather than decoded.
    ///
    /// # Errors
    ///
    /// When the next field is not such a `"t"`.
    #[inline]
    pub fn tag(&mut self) -> Result<&'a str, JsonlError> {
        self.field("t", "a plain string", |cursor| match cursor.take_str()? {
            Cow::Borrowed(tag) => Some(tag),
            Cow::Owned(_) => None,
        })
    }

    /// The next field, which must be the unsigned integer `key`.
    ///
    /// # Errors
    ///
    /// A typed error naming the line and the field when another field
    /// comes next, or its value is not an unsigned integer or is past
    /// `u64::MAX`.
    #[inline]
    pub fn u64(&mut self, key: &str) -> Result<u64, JsonlError> {
        self.field(key, "an unsigned integer", Self::take_u64)
    }

    /// Like [`Self::u64`], for a field that must fit 32 bits (ids, slot
    /// counts): a larger value is an error, never truncated.
    ///
    /// # Errors
    ///
    /// As [`Self::u64`], and when the value is past `u32::MAX`.
    #[inline]
    pub fn u32(&mut self, key: &str) -> Result<u32, JsonlError> {
        self.field(key, "an unsigned integer of 32 bits", |cursor| {
            u32::try_from(cursor.take_u64()?).ok()
        })
    }

    /// The next field, which must be the array `key` of integers that
    /// each read as [`Self::u32`] would: no sign, no leading zero, nothing
    /// past `u32::MAX`, and no whitespace anywhere in the array. Each
    /// element is handed to `each` in order, so the caller, not a count,
    /// decides what to keep.
    ///
    /// # Errors
    ///
    /// A typed error naming the line and the field when another field
    /// comes next or its value is not such an array; `each` may have
    /// been handed a prefix of the elements by then.
    #[inline]
    pub fn u32_array(&mut self, key: &str, each: impl FnMut(u32)) -> Result<(), JsonlError> {
        self.field(key, "an array of unsigned integers of 32 bits", |cursor| {
            cursor.take_u32_array(each)
        })
    }

    /// Like [`Self::u64`], for a field the writer may leave out: read
    /// only if it comes next.
    ///
    /// # Errors
    ///
    /// As [`Self::u64`] when the next field is `key`.
    #[inline]
    pub fn optional_u64(&mut self, key: &str) -> Result<Option<u64>, JsonlError> {
        let mut ahead = *self;
        if ahead.key(key) {
            self.u64(key).map(Some)
        } else {
            Ok(None)
        }
    }

    /// The next field, which must be the number `key`.
    ///
    /// # Errors
    ///
    /// A typed error naming the line and the field when another field
    /// comes next or its value is not a JSON number.
    pub fn f64(&mut self, key: &str) -> Result<f64, JsonlError> {
        self.field(key, "a number", Self::take_f64)
    }

    /// The next field, which must be the string `key`; borrowed from the
    /// line unless it holds an escape to decode.
    ///
    /// # Errors
    ///
    /// A typed error naming the line and the field when another field
    /// comes next or its value is not a string (one with an invalid
    /// escape or a lone escaped surrogate included).
    pub fn str(&mut self, key: &str) -> Result<Cow<'a, str>, JsonlError> {
        self.field(key, "a string", Self::take_str)
    }

    /// Ends the pass: the object must close here and the line with it.
    ///
    /// # Errors
    ///
    /// When fields are left unread or bytes follow the closing brace.
    #[inline]
    pub fn end(self) -> Result<(), JsonlError> {
        if self.rest == "}" {
            Ok(())
        } else {
            Err(self.error("expected the closing '}' and the end of the line"))
        }
    }

    /// Builds a [`JsonlError`] anchored at the cursor's line.
    pub fn error(&self, reason: impl Into<String>) -> JsonlError {
        JsonlError {
            line: self.number,
            reason: reason.into(),
        }
    }

    #[cold]
    fn expected(&self, what: &str, key: &str) -> JsonlError {
        self.error(format!("expected field \"{key}\" holding {what}"))
    }
}

/// The unsigned integer `b` starts with, and its length in bytes; `None`
/// when it is empty, has a leading zero or is past `u64::MAX`.
#[inline]
fn leading_u64(b: &[u8]) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    let mut len = 0;
    while let Some(c) = b.get(len).filter(|c| c.is_ascii_digit()) {
        v = v.checked_mul(10)?.checked_add(u64::from(c - b'0'))?;
        len += 1;
    }
    // JSON has no empty number and no leading zero.
    if len == 0 || (len > 1 && b[0] == b'0') {
        return None;
    }
    Some((v, len))
}

/// Index of the quote closing the string whose contents start at `from`,
/// and whether an escape was met on the way; `None` if it never closes,
/// or holds an invalid escape or a raw control character.
fn string_end(b: &[u8], from: usize) -> Option<(usize, bool)> {
    let mut i = from;
    let mut escaped = false;
    loop {
        i += b
            .get(i..)?
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)?;
        match b[i] {
            b'"' => return Some((i, escaped)),
            b'\\' => match b.get(i + 1)? {
                b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => i += 2,
                b'u' if b.get(i + 2..i + 6)?.iter().all(u8::is_ascii_hexdigit) => i += 6,
                _ => return None,
            },
            _ => return None,
        }
        escaped = true;
    }
}

/// Whether `token` is a JSON number:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn is_number(token: &[u8]) -> bool {
    fn digits(b: &[u8]) -> usize {
        b.iter().take_while(|c| c.is_ascii_digit()).count()
    }
    let mut rest = token.strip_prefix(b"-").unwrap_or(token);
    let int = digits(rest);
    if int == 0 || (int > 1 && rest[0] == b'0') {
        return false;
    }
    rest = &rest[int..];
    if let Some(frac) = rest.strip_prefix(b".") {
        let n = digits(frac);
        if n == 0 {
            return false;
        }
        rest = &frac[n..];
    }
    if let Some(exp) = rest.strip_prefix(b"e").or(rest.strip_prefix(b"E")) {
        let exp = exp
            .strip_prefix(b"+")
            .or(exp.strip_prefix(b"-"))
            .unwrap_or(exp);
        let n = digits(exp);
        if n == 0 {
            return false;
        }
        rest = &exp[n..];
    }
    rest.is_empty()
}

/// Decodes the escapes of a string's contents that [`string_end`]
/// accepted. `None` only for a `\u` surrogate without its pair.
fn unescape(raw: &str) -> Option<String> {
    fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
        let mut v = 0;
        for _ in 0..4 {
            v = v * 16 + chars.next()?.to_digit(16)?;
        }
        Some(v)
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            'b' => '\u{08}',
            'f' => '\u{0c}',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => {
                let unit = hex4(&mut chars)?;
                let code = if (0xD800..0xDC00).contains(&unit) {
                    // A high surrogate stands only before `\u` + low.
                    if chars.next() != Some('\\') || chars.next() != Some('u') {
                        return None;
                    }
                    let low = hex4(&mut chars)?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return None;
                    }
                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    unit
                };
                char::from_u32(code)?
            }
            other => other, // `"`, `\` and `/` stand for themselves
        });
    }
    Some(out)
}

/// A parse failure at a specific line of a JSONL stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line number of the offending line.
    pub line: u32,
    /// What was wrong with it.
    pub reason: String,
}

// `?` and `Box<dyn Error>` need it: a missing impl fails here with E0277.
const _: fn(&JsonlError) -> &dyn std::error::Error = |e| e;

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "jsonl line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for JsonlError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cursor(raw: &str) -> Cursor<'_> {
        Cursor::new(raw).expect("opens an object")
    }

    #[test]
    fn reader_numbers_lines_and_flags_the_torn_tail() {
        let text = "{\"t\":\"a\",\"v\":1}\n\n{\"t\":\"b\",\"v\":2}\n{\"t\":\"c\",\"v\":3";
        let lines: Vec<JsonlLine<'_>> = JsonlReader::new(text).collect();
        assert_eq!(lines.len(), 3); // the blank separator is skipped
        assert_eq!(lines[0].number, 1);
        assert_eq!(lines[1].number, 3);
        assert_eq!(lines[2].number, 4);
        assert!(lines[0].terminated);
        assert!(lines[1].terminated);
        assert!(!lines[2].terminated); // torn write
        let mut first = lines[0].cursor().expect("an object");
        assert_eq!(first.tag(), Ok("a"));
        assert_eq!(first.u64("v"), Ok(1));
        assert_eq!(first.end(), Ok(()));
        // The torn line never closes: its last value cannot be trusted.
        let mut torn = lines[2].cursor().expect("an object");
        assert_eq!(torn.tag(), Ok("c"));
        assert_eq!(torn.u64("v").expect_err("no closing brace").line, 4);
    }

    #[test]
    fn newline_terminated_text_has_no_phantom_final_line() {
        let lines: Vec<JsonlLine<'_>> = JsonlReader::new("{\"t\":\"x\"}\n").collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].terminated);
        assert!(JsonlReader::new("").next().is_none());
        assert!(JsonlReader::new("\n\n").next().is_none());
    }

    #[test]
    fn typed_accessors_parse_the_sink_shapes() {
        let text = "{\"t\":\"counter\",\"name\":\"a\\\"b\",\"value\":42,\"rate\":2.5,\"n\":7}";
        let mut c = cursor(text);
        assert_eq!(c.tag(), Ok("counter"));
        assert_eq!(c.str("name").as_deref(), Ok("a\"b"));
        assert_eq!(c.optional_u64("absent"), Ok(None)); // not next: nothing read
        assert_eq!(c.optional_u64("value"), Ok(Some(42)));
        assert_eq!(c.f64("rate"), Ok(2.5));
        assert_eq!(c.f64("n"), Ok(7.0));
        assert_eq!(c.end(), Ok(()));

        // Each read takes the field that comes next, and only as its type.
        assert!(cursor(text).u64("value").is_err()); // "t" comes first
        let after_tag = |read: fn(&mut Cursor<'_>) -> bool| {
            let mut c = cursor("{\"t\":\"x\",\"v\":2.5,\"s\":\"2\"}");
            c.tag().expect("tag");
            read(&mut c)
        };
        assert!(after_tag(|c| c.f64("v").is_ok() && c.str("s").is_ok()));
        assert!(after_tag(|c| c.u64("v").is_err())); // not an integer
        assert!(after_tag(|c| c.str("v").is_err())); // not a string
        assert!(after_tag(|c| c.optional_u64("v").is_err())); // present, malformed
        assert!(after_tag(|c| c.f64("v").is_ok() && c.f64("s").is_err()));
        assert!(cursor("{}").tag().is_err());
        assert!(cursor("{\"t\":1}").tag().is_err());
        assert!(cursor("{\"t\":\"a\\u0062\"}").tag().is_err()); // escaped tag
        assert!(cursor("{\"v\":null}").f64("v").is_err()); // null is no number
    }

    #[test]
    fn strings_borrow_unless_they_hold_an_escape() {
        let mut c = cursor(
            "{\"plain\":\"µs a-b\",\"esc\":\"a\\\\b\\/c\\n\\t\\r\\b\\f\\u00e9\\ud83d\\ude00\",\"lone\":\"\\ud83d\"}",
        );
        assert!(matches!(c.str("plain"), Ok(Cow::Borrowed("µs a-b"))));
        assert_eq!(c.str("esc").as_deref(), Ok("a\\b/c\n\t\r\u{08}\u{0c}é😀"));
        assert!(c.str("lone").is_err());
        // What `json::Object` writes reads back as it was.
        let original = "q\"b\\s\u{01}\n";
        let mut line = String::new();
        crate::json::Object::new(&mut line).str("v", original);
        assert_eq!(cursor(&line).str("v").as_deref(), Ok(original));
    }

    #[test]
    fn require_accessors_carry_the_line_number() {
        let text = "{\"t\":\"x\"}\n{\"t\":\"y\"}\n";
        let second = JsonlReader::new(text).nth(1).expect("two lines");
        let mut c = second.cursor().expect("an object");
        assert_eq!(c.tag(), Ok("y"));
        let err = c.u64("slots").expect_err("field absent");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
        assert!(err.to_string().contains("slots"));
    }

    #[test]
    fn integers_are_never_truncated_or_wrapped() {
        let mut c = cursor(
            "{\"max\":18446744073709551615,\"fits\":4294967295,\"wide\":4294967303,\"over\":18446744073709551616}",
        );
        assert_eq!(c.u64("max"), Ok(u64::MAX));
        assert_eq!(c.u32("fits"), Ok(u32::MAX));
        let err = c.u32("wide").expect_err("past u32::MAX");
        assert!(err.reason.contains("wide"));
        assert!(cursor("{\"over\":18446744073709551616}")
            .u64("over")
            .is_err());
        assert_eq!(
            cursor("{\"wide\":4294967303}").u64("wide"),
            Ok(4_294_967_303)
        );
        for bad in [
            "", "01", "-1", "+1", "1.0", "1e3", "\"1\"", "1x", "0x1", " 1",
        ] {
            let line = format!("{{\"v\":{bad}}}");
            assert!(cursor(&line).u64("v").is_err(), "read {bad:?}");
        }
        assert_eq!(cursor("{\"v\":0}").u64("v"), Ok(0));
    }

    #[test]
    fn u32_arrays_read_each_element_with_the_u32_grammar() {
        fn read(line: &str) -> Result<Vec<u32>, JsonlError> {
            let mut c = JsonlReader::new(line).next().expect("one line").cursor()?;
            let mut out = Vec::new();
            c.u32_array("v", |v| out.push(v))?;
            c.end()?;
            Ok(out)
        }
        assert_eq!(read("{\"v\":[]}"), Ok(vec![]));
        assert_eq!(read("{\"v\":[7]}"), Ok(vec![7]));
        assert_eq!(read("{\"v\":[0,4294967295,12]}"), Ok(vec![0, u32::MAX, 12]));
        let mut c = cursor("{\"a\":[1,2],\"b\":3}");
        let mut a = Vec::new();
        assert_eq!(c.u32_array("a", |v| a.push(v)), Ok(()));
        assert_eq!(c.u64("b"), Ok(3));
        assert_eq!(a, [1, 2]);
        for bad in [
            "[4294967296]",
            "[01]",
            "[-1]",
            "[+1]",
            "[1.0]",
            "[1e3]",
            "[1,]",
            "[,1]",
            "[ 1]",
            "[1 ]",
            "[1, 2]",
            "[[1]]",
            "[\"1\"]",
            "[1",
            "[1,2",
            "[",
            "[1]x",
            "[1] ",
            "[1]]",
            "1",
            "\"[1]\"",
            "null",
        ] {
            let err = read(&format!("{{\"v\":{bad}}}\n")).expect_err(bad);
            assert_eq!(err.line, 1, "{bad}");
            assert!(err.reason.contains("\"v\""), "{bad}: {err}");
        }
        // A scalar reader still refuses an array.
        assert!(cursor("{\"v\":[1]}").u32("v").is_err());
    }

    #[test]
    fn unterminated_string_field_is_rejected() {
        let line = JsonlReader::new("{\"t\":\"x\",\"name\":\"cut of")
            .next()
            .expect("one line");
        let mut c = line.cursor().expect("an object");
        assert_eq!(c.tag(), Ok("x"));
        let err = c.str("name").expect_err("the string never closes");
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("name"));
    }

    #[test]
    fn anything_but_one_flat_object_is_rejected() {
        // Reads `{"t":"x","v":<number>}` and nothing else.
        fn read(raw: &str) -> Result<f64, JsonlError> {
            let mut c = Cursor::new(raw)?;
            if c.tag()? != "x" {
                return Err(c.error("another tag"));
            }
            let v = c.f64("v")?;
            c.end()?;
            Ok(v)
        }
        assert_eq!(read("{\"t\":\"x\",\"v\":1}"), Ok(1.0));
        for bad in [
            "",
            "garbage \"t\":\"x\",\"v\":1 trailing",
            "\"t\":\"x\",\"v\":1}",
            "{\"t\":\"x\",\"v\":1",
            "{\"t\":\"x\",\"v\":1} ",
            "{\"t\":\"x\",\"v\":1}}",
            "{\"t\":\"x\",\"v\":1}{\"t\":\"x\",\"v\":1}",
            " {\"t\":\"x\",\"v\":1}",
            "{\"t\": \"x\",\"v\":1}",
            "{\"t\":\"x\" ,\"v\":1}",
            "{\"t\":\"x\",\"v\":1,}",
            "{,\"t\":\"x\",\"v\":1}",
            "{\"t\":\"x\"\"v\":1}",
            "{\"t\":\"x\",\"t\":\"x\",\"v\":1}", // repeated
            "{\"v\":1,\"t\":\"x\"}",             // reordered
            "{\"t\":\"x\",\"u\":0,\"v\":1}",     // unknown
            "{\"t\":\"x\"}",                     // missing
            "{\"t\":\"x\",\"v\":1,\"w\":2}",     // unread
            "{\"t\":\"x\",\"v\":{\"w\":1}}",
            "{\"t\":\"x\",\"v\":[1]}",
            "{\"t\":\"x\",\"v\":}",
            "{\"t\":\"x,\"v\":1}",
            "{\"t\\n\":\"x\",\"v\":1}",
            "{t:\"x\",\"v\":1}",
            "{\"t\"\"x\",\"v\":1}",
        ] {
            assert!(read(bad).is_err(), "accepted {bad:?}");
        }
        for bad in [
            "01", "+1", "1.", ".5", "1e", "nan", "-", "1e+", "0x10", "null", " 1",
        ] {
            let line = format!("{{\"t\":\"x\",\"v\":{bad}}}");
            assert!(read(&line).is_err(), "accepted {bad:?}");
        }
        for good in ["0", "-0.5e+3", "12.25", "1E9", "-7"] {
            let line = format!("{{\"t\":\"x\",\"v\":{good}}}");
            assert_eq!(read(&line).ok(), good.parse().ok(), "{good:?}");
        }
        for bad in ["a\\qb", "a\\u12g4", "tab\there", "cut\\"] {
            let line = format!("{{\"v\":\"{bad}\"}}");
            assert!(cursor(&line).str("v").is_err(), "accepted {bad:?}");
        }
        assert_eq!(cursor("{}").end(), Ok(()));
        assert_eq!(cursor("{\"v\":\"\"}").str("v").as_deref(), Ok(""));
    }
}
