//! The workspace's one JSON writer (no serde): [`Object`] writes every
//! sink and trace line, the `wimesh-svc` journal and the experiment
//! artifacts, so the format [`crate::reader::Cursor`] reads back is
//! decided here alone: a line it reads nests nothing but arrays of
//! unsigned integers. Strings are escaped per RFC 8259 §7.

use std::fmt::Write as _;

/// Appends `s` to `out` with JSON string escaping (no surrounding
/// quotes).
///
/// Escapes `"` and `\`, the common control characters as their
/// two-character forms, and all other control characters as `\u00XX`.
/// Non-ASCII characters pass through unescaped — JSON strings are UTF-8 —
/// and so does every run between escapes, whole.
pub fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    // Every byte that needs an escape is ASCII, so it starts a character.
    while let Some(at) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Appends `"s"` (escaped, quoted) to `out`.
fn push_str_value(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `v` in decimal, without the `fmt` machinery for the
/// unsigned values a snapshot journals by the thousand.
fn push_int(out: &mut String, v: i128) {
    let Ok(n) = u64::try_from(v) else {
        let _ = write!(out, "{v}");
        return;
    };
    if n >= 10 {
        push_int(out, i128::from(n / 10));
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}

/// Appends `v` as a JSON number in the shortest form that reads back as
/// `v`; non-finite values become `null` (JSON has no NaN/Infinity).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A JSON object appended to a `String`, closed on drop: `"key":value` in
/// call order, no whitespace, plain keys, escaped strings, integers as such,
/// shortest round-trip `f64`s. An [`Object::record`] whose members are
/// scalars, or arrays of unsigned integers only, is a `Cursor` line.
pub struct Object<'a>(&'a mut String, char);

impl<'a> Object<'a> {
    /// Opens an object.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Object(out, '}')
    }
    /// Opens a record: its first member is the tag `"t"`, a plain identifier.
    pub fn record(out: &'a mut String, tag: &str) -> Self {
        out.extend(["{\"t\":\"", tag, "\""]);
        Object(out, '}')
    }
    fn put(&mut self, key: &str, v: impl FnOnce(&mut String)) -> &mut Self {
        let first = matches!(self.0.as_bytes().last(), Some(b'{' | b'['));
        self.0.push_str(if first { "" } else { "," });
        if !key.is_empty() {
            self.0.extend(["\"", key, "\":"]);
        }
        v(self.0);
        self
    }
    /// An integer member.
    pub fn int(&mut self, key: &str, v: impl Into<i128>) -> &mut Self {
        self.put(key, |out| push_int(out, v.into()))
    }
    /// A number member (`null` when not finite).
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.put(key, |out| push_f64(out, v))
    }
    /// A string member.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.put(key, |out| push_str_value(out, v))
    }
    /// A `true`/`false` member.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.put(key, |out| out.push_str(if v { "true" } else { "false" }))
    }
    /// An object member, its members written by `fill`.
    pub fn obj(&mut self, key: &str, fill: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.put(key, |out| fill(&mut Object::new(out)))
    }
    /// An array member, its elements written by `fill` with the key `""`.
    pub fn arr(&mut self, key: &str, fill: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.put(key, |out| {
            out.push('[');
            fill(&mut Object(out, ']'));
        })
    }
}

impl Drop for Object<'_> {
    fn drop(&mut self) {
        self.0.push(self.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    #[test]
    fn plain_strings_untouched() {
        assert_eq!(escape("admission.search"), "admission.search");
        assert_eq!(escape("µs latency"), "µs latency");
    }

    #[test]
    fn quotes_and_backslashes() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
    }

    #[test]
    fn named_control_characters() {
        assert_eq!(escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape("\u{08}\u{0c}"), "\\b\\f");
    }

    #[test]
    fn other_control_characters_hex_escaped() {
        assert_eq!(escape("\u{01}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(escape("\u{00}"), "\\u0000");
    }

    #[test]
    fn f64_formats() {
        let mut s = String::new();
        push_f64(&mut s, 1.0);
        s.push(',');
        push_f64(&mut s, 0.25);
        s.push(',');
        push_f64(&mut s, -3.5);
        assert_eq!(s, "1,0.25,-3.5");

        let mut n = String::new();
        push_f64(&mut n, f64::NAN);
        n.push(',');
        push_f64(&mut n, f64::INFINITY);
        assert_eq!(n, "null,null");
    }

    #[test]
    fn quoted_string_value() {
        let mut s = String::new();
        push_str_value(&mut s, "say \"hi\"");
        assert_eq!(s, r#""say \"hi\"""#);
    }

    #[test]
    fn records_are_tagged_first_and_flat() {
        let mut line = String::new();
        Object::record(&mut line, "x")
            .int("a", 1u32)
            .int("b", -2i64)
            .int("c", u64::MAX)
            .int("z", 0u32)
            .int("m", i64::MIN)
            .int("w", 10u64)
            .f64("d", 0.5)
            .f64("e", f64::NAN)
            .str("f", "q\"")
            .bool("g", false);
        assert_eq!(
            line,
            r#"{"t":"x","a":1,"b":-2,"c":18446744073709551615,"z":0,"m":-9223372036854775808,"w":10,"d":0.5,"e":null,"f":"q\"","g":false}"#
        );
        let mut empty = String::new();
        drop(Object::new(&mut empty));
        assert_eq!(empty, "{}");
    }

    #[test]
    fn nested_objects_and_arrays_separate_their_members() {
        let mut out = String::new();
        Object::new(&mut out)
            .obj("o", |o| {
                o.arr("s", |a| {
                    a.str("", "a").str("", "b");
                })
                .arr("none", |_| {});
            })
            .arr("l", |a| {
                for i in 1..=2u32 {
                    a.obj("", |o| {
                        o.int("i", i).arr("empty", |_| {});
                    });
                }
            })
            .obj("e", |_| {})
            .int("after", 3u32);
        assert_eq!(
            out,
            r#"{"o":{"s":["a","b"],"none":[]},"l":[{"i":1,"empty":[]},{"i":2,"empty":[]}],"e":{},"after":3}"#
        );
    }
}
