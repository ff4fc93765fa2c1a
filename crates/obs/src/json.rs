//! Minimal hand-rolled JSON emission (no serde).
//!
//! Only what the JSONL sink needs: string escaping per RFC 8259 §7 and
//! number formatting that never produces invalid JSON.

use std::fmt::Write as _;

/// Appends `s` to `out` with JSON string escaping (no surrounding
/// quotes).
///
/// Escapes `"` and `\`, the common control characters as their
/// two-character forms, and all other control characters as `\u00XX`.
/// Non-ASCII characters pass through unescaped — JSON strings are UTF-8.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Returns `s` JSON-escaped (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `"s"` (escaped, quoted) to `out`.
pub fn push_str_value(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `v` as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
