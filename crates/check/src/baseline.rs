//! The ratchet baseline for `wimesh-check analyze`.
//!
//! CI runs the semantic pass gated on a committed baseline file
//! (`crates/check/baseline.json`): findings present in the baseline are
//! tolerated (the debt is ratcheted, not ignored), any finding **not** in
//! the baseline fails the run, and baseline entries that no longer fire
//! are reported as stale so the file shrinks monotonically. Entries match
//! on `(rule, workspace-relative path, line)`.
//!
//! The file format is a plain JSON object — parsed here with a ~100-line
//! hand-rolled reader of nested values (no dependency outside the
//! workspace; strings are written with `wimesh_obs::json::escape`):
//!
//! ```json
//! {
//!   "entries": [
//!     { "rule": "atomic-ordering-pairing",
//!       "path": "crates/obs/src/metrics.rs",
//!       "line": 60,
//!       "note": "gauge cell tolerates stale reads" }
//!   ]
//! }
//! ```

use std::path::Path;

use wimesh_obs::json::escape;

use crate::error::CheckError;
use crate::lint::{Diagnostic, LintReport};

/// One tolerated finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule name (`atomic-ordering-pairing`, …).
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Optional free-text justification carried in the file.
    pub note: String,
}

/// A loaded (or freshly computed) ratchet baseline.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Tolerated findings.
    pub entries: Vec<BaselineEntry>,
}

/// The outcome of gating a report on a baseline.
#[derive(Debug)]
pub struct GateResult {
    /// Findings not covered by the baseline — these fail the run.
    pub fresh: Vec<Diagnostic>,
    /// Number of findings the baseline absorbed.
    pub baselined: usize,
    /// Baseline entries that no longer fire — the ratchet should tighten.
    pub stale: Vec<BaselineEntry>,
}

impl Baseline {
    /// Reads and parses a baseline file.
    pub fn load(path: &Path) -> Result<Baseline, CheckError> {
        let text = crate::lint::read_file(path)?;
        Baseline::parse(&text).map_err(|message| CheckError::MalformedBaseline {
            path: path.to_path_buf(),
            message,
        })
    }

    /// Parses the JSON text of a baseline file.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let value = json::parse(text)?;
        let obj = value.as_object().ok_or("top level must be an object")?;
        let mut entries = Vec::new();
        if let Some(list) = obj.iter().find(|(k, _)| k == "entries").map(|(_, v)| v) {
            let list = list.as_array().ok_or("\"entries\" must be an array")?;
            for item in list {
                let item = item.as_object().ok_or("each entry must be an object")?;
                let field = |name: &str| item.iter().find(|(k, _)| k == name).map(|(_, v)| v);
                let rule = field("rule")
                    .and_then(json::Value::as_str)
                    .ok_or("entry missing string \"rule\"")?
                    .to_string();
                let path = field("path")
                    .and_then(json::Value::as_str)
                    .ok_or("entry missing string \"path\"")?
                    .to_string();
                let line = field("line")
                    .and_then(json::Value::as_u32)
                    .ok_or("entry missing numeric \"line\"")?;
                let note = field("note")
                    .and_then(json::Value::as_str)
                    .unwrap_or("")
                    .to_string();
                entries.push(BaselineEntry {
                    rule,
                    path,
                    line,
                    note,
                });
            }
        }
        Ok(Baseline { entries })
    }

    /// Builds a baseline from a report's surviving diagnostics, with
    /// paths relativised to `root`.
    pub fn from_report(report: &LintReport, root: &Path) -> Baseline {
        Baseline {
            entries: report
                .diagnostics
                .iter()
                .map(|d| BaselineEntry {
                    rule: d.rule.name().to_string(),
                    path: relative(&d.path, root),
                    line: d.line,
                    note: d.message.clone(),
                })
                .collect(),
        }
    }

    /// Splits a report's diagnostics into fresh findings, absorbed
    /// findings and stale baseline entries.
    pub fn gate(&self, report: &LintReport, root: &Path) -> GateResult {
        let mut hit = vec![false; self.entries.len()];
        let mut fresh = Vec::new();
        let mut baselined = 0usize;
        for diag in &report.diagnostics {
            let rel = relative(&diag.path, root);
            let matched =
                self.entries.iter().enumerate().find(|(_, e)| {
                    e.rule == diag.rule.name() && e.path == rel && e.line == diag.line
                });
            match matched {
                Some((i, _)) => {
                    hit[i] = true;
                    baselined += 1;
                }
                None => fresh.push(diag.clone()),
            }
        }
        let stale = self
            .entries
            .iter()
            .zip(&hit)
            .filter(|(_, &h)| !h)
            .map(|(e, _)| e.clone())
            .collect();
        GateResult {
            fresh,
            baselined,
            stale,
        }
    }

    /// Serialises the baseline in the committed file format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"note\": \"{}\" }}",
                escape(&e.rule),
                escape(&e.path),
                e.line,
                escape(&e.note)
            ));
            if i + 1 < self.entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// `path` relative to `root`, with `/` separators regardless of platform.
pub fn relative(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// A minimal JSON reader sufficient for baseline files.
mod json {
    /// A parsed JSON value.
    #[derive(Debug)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false` (the distinction is irrelevant for baselines).
        Bool,
        /// Any number (kept as f64).
        Number(f64),
        /// A string with escapes resolved.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object as ordered key/value pairs.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(o) => Some(o),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(a) => Some(a),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_u32(&self) -> Option<u32> {
            match self {
                Value::Number(n) if *n >= 0.0 && *n <= f64::from(u32::MAX) && n.fract() == 0.0 => {
                    Some(*n as u32)
                }
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let chars: Vec<char> = text.chars().collect();
        let mut pos = 0usize;
        let value = parse_value(&chars, &mut pos)?;
        skip_ws(&chars, &mut pos);
        if pos != chars.len() {
            return Err(format!("trailing content at offset {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(chars: &[char], pos: &mut usize) {
        while matches!(chars.get(*pos), Some(' ' | '\t' | '\n' | '\r')) {
            *pos += 1;
        }
    }

    fn parse_value(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        skip_ws(chars, pos);
        match chars.get(*pos) {
            Some('{') => parse_object(chars, pos),
            Some('[') => parse_array(chars, pos),
            Some('"') => Ok(Value::String(parse_string(chars, pos)?)),
            Some('t') => parse_lit(chars, pos, "true", Value::Bool),
            Some('f') => parse_lit(chars, pos, "false", Value::Bool),
            Some('n') => parse_lit(chars, pos, "null", Value::Null),
            Some(c) if *c == '-' || c.is_ascii_digit() => parse_number(chars, pos),
            Some(c) => Err(format!("unexpected `{c}` at offset {pos}", pos = *pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_lit(
        chars: &[char],
        pos: &mut usize,
        lit: &str,
        value: Value,
    ) -> Result<Value, String> {
        for expect in lit.chars() {
            if chars.get(*pos) != Some(&expect) {
                return Err(format!("malformed literal near offset {}", *pos));
            }
            *pos += 1;
        }
        Ok(value)
    }

    fn parse_number(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while matches!(
            chars.get(*pos),
            Some(c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
        ) {
            *pos += 1;
        }
        let text: String = chars[start..*pos].iter().collect();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number `{text}` at offset {start}"))
    }

    fn parse_string(chars: &[char], pos: &mut usize) -> Result<String, String> {
        *pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match chars.get(*pos) {
                Some('"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    *pos += 1;
                    match chars.get(*pos) {
                        Some('n') => out.push('\n'),
                        Some('t') => out.push('\t'),
                        Some('r') => out.push('\r'),
                        Some('b') => out.push('\u{08}'),
                        Some('f') => out.push('\u{0c}'),
                        Some('u') => {
                            let hex: String = chars
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?
                                .iter()
                                .collect();
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            *pos += 4;
                        }
                        Some(c) => out.push(*c),
                        None => return Err("truncated escape".to_string()),
                    }
                    *pos += 1;
                }
                Some(c) => {
                    out.push(*c);
                    *pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_array(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // '['
        let mut out = Vec::new();
        skip_ws(chars, pos);
        if chars.get(*pos) == Some(&']') {
            *pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(parse_value(chars, pos)?);
            skip_ws(chars, pos);
            match chars.get(*pos) {
                Some(',') => *pos += 1,
                Some(']') => {
                    *pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(format!("expected , or ] at offset {}", *pos)),
            }
        }
    }

    fn parse_object(chars: &[char], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // '{'
        let mut out = Vec::new();
        skip_ws(chars, pos);
        if chars.get(*pos) == Some(&'}') {
            *pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            skip_ws(chars, pos);
            if chars.get(*pos) != Some(&'"') {
                return Err(format!("expected string key at offset {}", *pos));
            }
            let key = parse_string(chars, pos)?;
            skip_ws(chars, pos);
            if chars.get(*pos) != Some(&':') {
                return Err(format!("expected : at offset {}", *pos));
            }
            *pos += 1;
            let value = parse_value(chars, pos)?;
            out.push((key, value));
            skip_ws(chars, pos);
            match chars.get(*pos) {
                Some(',') => *pos += 1,
                Some('}') => {
                    *pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(format!("expected , or }} at offset {}", *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Rule;
    use std::path::PathBuf;

    fn diag(rule: Rule, path: &str, line: u32) -> Diagnostic {
        Diagnostic {
            rule,
            path: PathBuf::from(path),
            line,
            message: "m".into(),
        }
    }

    #[test]
    fn round_trip_and_gate() {
        let report = LintReport {
            diagnostics: vec![
                diag(Rule::AtomicOrderingPairing, "/ws/crates/a/src/lib.rs", 10),
                diag(Rule::NoPanicInWorker, "/ws/crates/b/src/lib.rs", 20),
            ],
            ..LintReport::default()
        };
        let root = Path::new("/ws");
        let base = Baseline::from_report(&report, root);
        let text = base.to_json();
        let parsed = Baseline::parse(&text).expect("parses");
        assert_eq!(parsed.entries.len(), 2);
        assert_eq!(parsed.entries[0].path, "crates/a/src/lib.rs");

        // Same findings: everything absorbed, nothing fresh or stale.
        let gate = parsed.gate(&report, root);
        assert!(gate.fresh.is_empty());
        assert_eq!(gate.baselined, 2);
        assert!(gate.stale.is_empty());

        // One finding fixed, one new one appears.
        let moved = LintReport {
            diagnostics: vec![
                diag(Rule::AtomicOrderingPairing, "/ws/crates/a/src/lib.rs", 10),
                diag(Rule::LockOrderConsistency, "/ws/crates/c/src/lib.rs", 5),
            ],
            ..LintReport::default()
        };
        let gate = parsed.gate(&moved, root);
        assert_eq!(gate.fresh.len(), 1);
        assert_eq!(gate.fresh[0].rule, Rule::LockOrderConsistency);
        assert_eq!(gate.stale.len(), 1);
        assert_eq!(gate.stale[0].rule, "no-panic-in-worker");
    }

    #[test]
    fn every_escaped_char_round_trips() {
        // Everything the writer escapes: the control characters (two-char
        // forms and `\u00XX`), the quote and the backslash.
        let awkward: String = (0u8..0x20).map(char::from).chain("\"\\é".chars()).collect();
        let base = Baseline {
            entries: vec![BaselineEntry {
                rule: "no-unwrap-in-lib".into(),
                path: format!("crates/{awkward}/src/lib.rs"),
                line: 7,
                note: awkward.clone(),
            }],
        };
        let parsed = Baseline::parse(&base.to_json()).expect("parses");
        assert_eq!(parsed.entries, base.entries);
    }

    #[test]
    fn empty_baseline_tolerates_nothing() {
        let base = Baseline::parse("{\n  \"entries\": []\n}\n").expect("parses");
        assert!(base.entries.is_empty());
        let report = LintReport {
            diagnostics: vec![diag(Rule::NoPanicInWorker, "/ws/x.rs", 1)],
            ..LintReport::default()
        };
        let gate = base.gate(&report, Path::new("/ws"));
        assert_eq!(gate.fresh.len(), 1);
    }

    #[test]
    fn malformed_baseline_is_a_typed_error() {
        assert!(Baseline::parse("{").is_err());
        assert!(Baseline::parse("[]").is_err());
        assert!(Baseline::parse("{\"entries\": [{\"rule\": 3}]}").is_err());
        assert!(Baseline::parse("{\"entries\": [], \"x\": \"\\u00e9\"}").is_ok());
    }

    #[test]
    fn json_scalars_parse() {
        assert!(matches!(json::parse("true"), Ok(json::Value::Bool)));
        assert!(matches!(json::parse("false"), Ok(json::Value::Bool)));
        assert!(matches!(json::parse("null"), Ok(json::Value::Null)));
        assert!(matches!(json::parse("[1, 2]"), Ok(json::Value::Array(a)) if a.len() == 2));
        assert!(json::parse("truth").is_err());
        assert!(json::parse("1 2").is_err());
    }
}
