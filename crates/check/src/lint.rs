//! The workspace lint engine: one pass, three call-graph rules.
//!
//! Walks every crate under `<root>/crates` and parses each `src/**/*.rs`
//! file once into a [`FileAst`]: the handwritten [`crate::lexer`]'s
//! tokens with `#[cfg(test)]` items stripped, plus function skeletons,
//! hash-typed bindings and allow directives. The rules (journal
//! discipline, lock order, hash-iteration determinism) live in the
//! private `analyze` module and read that one parse through a per-crate
//! call graph. Diagnostics carry `file:line` locations and can be
//! suppressed with a `// check: allow(<rule>, reason = "…")` comment on
//! the same or the immediately preceding line.
//!
//! Token-level discipline is the compiler's: `[workspace.lints]` in the
//! root manifest, `clippy::unwrap_used`/`expect_used` at the adopted
//! crate roots and `disallowed-methods` in the deterministic crates'
//! `clippy.toml` (DESIGN §3.10 maps each former rule to its lint).

use std::fmt;
use std::path::{Path, PathBuf};

use crate::analyze;
use crate::error::CheckError;
use crate::lexer::Lexed;
use crate::parse::FileAst;

/// The lint rules, in the order they are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Every call-graph path in the journaled service crates that
    /// reaches a raw session mutator (`.admit(` / `.admit_batch(` /
    /// `.release(` / `.rebalance(` / `.admit_via(`) must pass through a
    /// write-ahead journal append first — otherwise a mutation escapes
    /// crash recovery.
    JournalPrecedesMutation,
    /// Lock acquisition order (`.lock()` / `.try_lock()`) must be
    /// globally consistent — two locks taken in both orders somewhere in
    /// the crate are a potential deadlock (both sites are reported), as
    /// is re-locking a mutex already held.
    LockOrderConsistency,
    /// No `HashMap`/`HashSet` iteration may feed an order-sensitive
    /// computation (loop bodies, `collect` into ordered containers) in
    /// deterministic crates — seeded runs must reproduce bit for bit.
    DeterministicIteration,
}

impl Rule {
    /// All rules in reporting order.
    pub const ALL: [Rule; 3] = [
        Rule::JournalPrecedesMutation,
        Rule::LockOrderConsistency,
        Rule::DeterministicIteration,
    ];

    /// The kebab-case rule name used in diagnostics and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::JournalPrecedesMutation => "journal-precedes-mutation",
            Rule::LockOrderConsistency => "lock-order-consistency",
            Rule::DeterministicIteration => "deterministic-iteration",
        }
    }

    /// One-line description shown by `wimesh-check rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::JournalPrecedesMutation => {
                "every call path to a session mutator passes a journal append first"
            }
            Rule::LockOrderConsistency => {
                "lock acquisition order is globally consistent (no lock cycles)"
            }
            Rule::DeterministicIteration => {
                "no HashMap/HashSet iteration feeding order-sensitive results"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// Path of the offending file (relative to the lint root when walking
    /// a workspace).
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Which crates (by package name) and which method names each rule
/// applies to.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crates whose session mutators must be journal-guarded
    /// (`journal-precedes-mutation`).
    pub journaled: Vec<String>,
    /// Method names that mutate session state.
    pub mutators: Vec<String>,
    /// Method names that append to the write-ahead journal.
    pub journal_appends: Vec<String>,
    /// Crates where hash iteration must not feed ordered results
    /// (`deterministic-iteration`). Lock order runs on every crate.
    pub deterministic_order: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            journaled: vec!["wimesh-svc".into()],
            mutators: vec![
                "admit".into(),
                "admit_via".into(),
                "admit_batch".into(),
                "release".into(),
                "rebalance".into(),
            ],
            journal_appends: vec!["append".into()],
            deterministic_order: vec![
                "wimesh".into(),
                "wimesh-conflict".into(),
                "wimesh-tdma".into(),
                "wimesh-milp".into(),
                "wimesh-svc".into(),
                "wimesh-emu".into(),
                "wimesh-sim".into(),
                "wimesh-topology".into(),
                "wimesh-node".into(),
            ],
        }
    }
}

/// One `// check: allow(<rule>, reason = "…")` directive. Only directives
/// that name a rule in [`Rule::ALL`] and carry a non-empty reason are
/// kept; any other comment suppresses nothing, so its finding surfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line of the comment.
    pub line: u32,
    /// The rule being allowed.
    pub rule: Rule,
}

impl AllowDirective {
    /// True when this directive suppresses a `rule` finding at `line`
    /// (same line or the line directly below the comment).
    pub fn suppresses(&self, rule: Rule, line: u32) -> bool {
        self.rule == rule && (self.line == line || self.line + 1 == line)
    }
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Diagnostics that survived allow-directive filtering.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of diagnostics suppressed by allow directives.
    pub suppressed: usize,
    /// Crates walked.
    pub crates_scanned: usize,
    /// Files parsed.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when no diagnostics survived.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// One crate, parsed once for every rule.
pub(crate) struct CrateAst {
    /// The `[package] name` from the manifest.
    pub(crate) name: String,
    /// Parsed `src/**/*.rs` files, sorted by path.
    pub(crate) files: Vec<FileAst>,
}

/// Lints every crate under `<root>/crates` and returns the merged
/// report. Crate directories are visited in sorted order, so the merged
/// diagnostics stay sorted by path.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> Result<LintReport, CheckError> {
    let mut report = LintReport::default();
    for dir in crate_dirs(&root.join("crates"))? {
        let sub = lint_crate(&dir, config)?;
        report.diagnostics.extend(sub.diagnostics);
        report.suppressed += sub.suppressed;
        report.crates_scanned += sub.crates_scanned;
        report.files_scanned += sub.files_scanned;
    }
    Ok(report)
}

/// Lints a single crate directory (must contain `Cargo.toml` and `src/`)
/// with every rule.
pub fn lint_crate(dir: &Path, config: &LintConfig) -> Result<LintReport, CheckError> {
    let krate = load_crate(dir)?;
    let mut raw = Vec::new();
    analyze::check(&krate, config, &mut raw);

    let mut report = LintReport {
        crates_scanned: 1,
        files_scanned: krate.files.len(),
        ..LintReport::default()
    };
    for diag in raw {
        if is_allowed(&krate, &diag) {
            report.suppressed += 1;
        } else {
            report.diagnostics.push(diag);
        }
    }
    report
        .diagnostics
        .sort_by_key(|d| (d.path.clone(), d.line, d.rule));
    Ok(report)
}

/// A diagnostic is suppressed when an allow directive for its rule sits
/// on the same line or the line directly above it, in the same file.
fn is_allowed(krate: &CrateAst, diag: &Diagnostic) -> bool {
    krate
        .files
        .iter()
        .any(|f| f.path == diag.path && f.allows.iter().any(|a| a.suppresses(diag.rule, diag.line)))
}

/// Shorthand for the rules: a finding of `rule` at `file:line`.
pub(crate) fn push(
    out: &mut Vec<Diagnostic>,
    rule: Rule,
    file: &FileAst,
    line: u32,
    message: String,
) {
    out.push(Diagnostic {
        rule,
        path: file.path.clone(),
        line,
        message,
    });
}

fn crate_dirs(parent: &Path) -> Result<Vec<PathBuf>, CheckError> {
    if !parent.exists() {
        return Ok(Vec::new());
    }
    let mut dirs = read_dir_sorted(parent)?;
    dirs.retain(|path| path.is_dir() && path.join("Cargo.toml").is_file());
    Ok(dirs)
}

fn load_crate(dir: &Path) -> Result<CrateAst, CheckError> {
    let manifest = dir.join("Cargo.toml");
    let toml = read_file(&manifest)?;
    let name = package_name(&toml).ok_or_else(|| CheckError::MissingCrateName {
        path: manifest.clone(),
    })?;
    let src = dir.join("src");
    let mut files = Vec::new();
    if src.is_dir() {
        let mut paths = Vec::new();
        collect_rs_files(&src, &mut paths)?;
        for path in paths {
            let text = read_file(&path)?;
            files.push(FileAst::parse(&path, &text));
        }
    }
    Ok(CrateAst { name, files })
}

fn read_file(path: &Path) -> Result<String, CheckError> {
    std::fs::read_to_string(path).map_err(|source| CheckError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// The entries of `dir`, sorted by path.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, CheckError> {
    let io = |source| CheckError::Io {
        path: dir.to_path_buf(),
        source,
    };
    let mut paths = std::fs::read_dir(dir)
        .map_err(io)?
        .map(|entry| entry.map(|e| e.path()).map_err(io))
        .collect::<Result<Vec<_>, _>>()?;
    paths.sort();
    Ok(paths)
}

/// Every `.rs` file under `dir`, depth first over sorted entries — which
/// is sorted by path, so diagnostics come out in a stable order.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), CheckError> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Extracts the `[package] name` from a manifest without a TOML parser:
/// tracks section headers and takes the first `name = "..."` inside
/// `[package]`.
fn package_name(toml: &str) -> Option<String> {
    let mut in_package = false;
    for line in toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    let rest = rest.trim();
                    let rest = rest.strip_prefix('"')?;
                    return rest.split('"').next().map(str::to_string);
                }
            }
        }
    }
    None
}

/// Parses `check: allow(<rule>, reason = "…")` directives out of plain
/// comments (doc comments describe the syntax; they direct nothing). The
/// rule name runs to the first `,`; a directive is kept only when that
/// name is a rule in [`Rule::ALL`] and a `reason = "…"` clause with a
/// non-empty quoted string follows.
pub(crate) fn allow_directives(lexed: &Lexed) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for comment in &lexed.comments {
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|doc| comment.text.starts_with(doc))
        {
            continue;
        }
        let Some(idx) = comment.text.find("check:") else {
            continue;
        };
        let rest = comment.text[idx + "check:".len()..].trim_start();
        let Some((name, clause)) = rest.strip_prefix("allow(").and_then(|r| r.split_once(','))
        else {
            continue;
        };
        let Some(rule) = Rule::ALL.into_iter().find(|r| r.name() == name.trim()) else {
            continue;
        };
        let has_reason = clause
            .trim_start()
            .strip_prefix("reason")
            .and_then(|c| c.trim_start().strip_prefix('='))
            .and_then(|c| c.trim_start().strip_prefix('"'))
            .and_then(|q| q.find('"'))
            .is_some_and(|q| q > 0);
        if has_reason {
            out.push(AllowDirective {
                line: comment.line,
                rule,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses_workspace_manifests() {
        let toml = "[package]\nname = \"wimesh-check\"\nversion.workspace = true\n";
        assert_eq!(package_name(toml).as_deref(), Some("wimesh-check"));
        let toml = "[workspace]\nmembers = []\n";
        assert_eq!(package_name(toml), None);
    }

    #[test]
    fn allow_directive_parsing() {
        // Only the reasoned directive naming a live rule is kept: a bare
        // one, one naming a rule moved to clippy, and a doc comment
        // describing the syntax all suppress nothing.
        let lexed = Lexed::lex(
            "// check: allow(lock-order-consistency) invariant: always present\nlet x = 1;\n\
             // check: allow(no-unwrap-in-lib, reason = \"moved to clippy::unwrap_used\")\n\
             // plain comment\n\
             /// doc comments describe `// check: allow(<rule>, reason = \"…\")`, they direct nothing\n\
             // check: allow(journal-precedes-mutation, reason = \"replay\")\n",
        );
        let allows = allow_directives(&lexed);
        assert_eq!(
            allows,
            vec![AllowDirective {
                line: 6,
                rule: Rule::JournalPrecedesMutation,
            }]
        );
    }

    #[test]
    fn allow_directive_with_reason() {
        let lexed = Lexed::lex(
            "// check: allow(lock-order-consistency, reason = \"guards are scoped\")\n\
             // check: allow(journal-precedes-mutation, reason = \"\")\n\
             // check: allow(deterministic-iteration, reason=\"order-free fold\")\n",
        );
        let allows = allow_directives(&lexed);
        let kept: Vec<(u32, Rule)> = allows.iter().map(|a| (a.line, a.rule)).collect();
        // The empty reason counts as missing; spaces around `=` are optional.
        assert_eq!(
            kept,
            vec![
                (1, Rule::LockOrderConsistency),
                (3, Rule::DeterministicIteration)
            ]
        );
        assert!(allows[0].suppresses(Rule::LockOrderConsistency, 2));
        assert!(!allows[0].suppresses(Rule::DeterministicIteration, 1));
    }
}
