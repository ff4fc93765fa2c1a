//! The token-tier workspace lint engine.
//!
//! Walks every crate of the workspace, lexes each `src/**/*.rs` file with
//! the handwritten [`crate::lexer`] and enforces the repo-specific rules
//! that generic clippy cannot express. Diagnostics carry `file:line`
//! locations, can be suppressed with a
//! `// check: allow(<rule>, reason = "…")` comment on the same or the
//! immediately preceding line, and serialise to JSON for machine
//! consumption (`--json`).
//!
//! This module owns the *token* tier: rules decidable from the raw token
//! stream of one file. The flow-sensitive *semantic* tier (call graphs,
//! atomics pairing, lock order) lives in [`crate::analyze`] and shares the
//! [`Rule`] enum, [`Diagnostic`] type and allow-directive machinery
//! defined here.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use wimesh_obs::json;

use crate::error::CheckError;
use crate::lexer::{Lexed, TokenKind};

/// The lint rules — token tier and semantic tier — in the order they are
/// reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Library code must return errors instead of calling
    /// `.unwrap()` / `.expect()` / `.expect_err()`. Tests, benches and
    /// examples are exempt. Applies to the adopted crates listed in
    /// [`LintConfig::unwrap_adopted`] (a ratchet: crates are added as they
    /// are cleaned up).
    NoUnwrapInLib,
    /// `Instant::now` / `SystemTime` are forbidden in deterministic model
    /// code (`wimesh-sim`, `wimesh-emu`, `wimesh-node`): wall-clock reads
    /// break seeded reproducibility.
    NoWallclockInDeterministic,
    /// Library code must not print to stdout/stderr; route output through
    /// `wimesh-obs` instead. CLI reporting crates are exempt.
    NoPrintlnInLib,
    /// Every crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`) must
    /// carry `#![forbid(unsafe_code)]`.
    ForbidUnsafeEverywhere,
    /// Public `*Error` types must implement `Display` and
    /// `std::error::Error` so they compose with `?` and `Box<dyn Error>`.
    ErrorEnumsImplError,
    /// Every `Deliver { .. }` construction (and the event definition
    /// itself) in the fabric crates listed in
    /// [`LintConfig::traced_sends`] must carry a `ctx` field: a fabric
    /// send without a trace context is invisible to the causal tracer.
    NoUntracedFabricSend,
    /// Every allow directive must carry a `reason = "…"` clause: an
    /// unexplained suppression is a finding in its own right.
    AllowWithoutReason,
    /// Semantic: every call-graph path in the journaled service crates
    /// that reaches a raw session mutator (`.admit(` / `.admit_batch(` /
    /// `.release(` / `.rebalance(` / `.admit_via(`) must pass through a
    /// write-ahead journal append first — otherwise a mutation escapes
    /// crash recovery. Replaces the old file-name confinement rule
    /// `no-unjournaled-mutation`.
    JournalPrecedesMutation,
    /// Semantic: each atomic field's `Release` stores must have matching
    /// `Acquire` loads and vice versa, and a field that is both written
    /// and read cross-thread with only `Relaxed` orderings is flagged as
    /// unsynchronised publication.
    AtomicOrderingPairing,
    /// Semantic: `Mutex` acquisition order must be globally consistent —
    /// two locks taken in both orders somewhere in the crate are a
    /// potential deadlock (both sites are reported), as is re-locking a
    /// mutex already held.
    LockOrderConsistency,
    /// Semantic: no `panic!` / `.unwrap()` / `.expect()` may be reachable
    /// through the call graph from a thread entry point (a function that
    /// spawns) in the worker crates — a panicking worker kills the
    /// gateway or poisons the solver pool.
    NoPanicInWorker,
    /// Semantic: no `HashMap`/`HashSet` iteration may feed an
    /// order-sensitive computation (loop bodies, `collect` into ordered
    /// containers) in deterministic crates — the bit-for-bit
    /// parallel-equivalence guarantee depends on stable iteration order.
    DeterministicIteration,
}

impl Rule {
    /// All rules in reporting order.
    pub const ALL: [Rule; 12] = [
        Rule::NoUnwrapInLib,
        Rule::NoWallclockInDeterministic,
        Rule::NoPrintlnInLib,
        Rule::ForbidUnsafeEverywhere,
        Rule::ErrorEnumsImplError,
        Rule::NoUntracedFabricSend,
        Rule::AllowWithoutReason,
        Rule::JournalPrecedesMutation,
        Rule::AtomicOrderingPairing,
        Rule::LockOrderConsistency,
        Rule::NoPanicInWorker,
        Rule::DeterministicIteration,
    ];

    /// The token-tier rules run by `wimesh-check lint`.
    pub const TOKEN: [Rule; 7] = [
        Rule::NoUnwrapInLib,
        Rule::NoWallclockInDeterministic,
        Rule::NoPrintlnInLib,
        Rule::ForbidUnsafeEverywhere,
        Rule::ErrorEnumsImplError,
        Rule::NoUntracedFabricSend,
        Rule::AllowWithoutReason,
    ];

    /// The semantic-tier rules run by `wimesh-check analyze`.
    pub const SEMANTIC: [Rule; 5] = [
        Rule::JournalPrecedesMutation,
        Rule::AtomicOrderingPairing,
        Rule::LockOrderConsistency,
        Rule::NoPanicInWorker,
        Rule::DeterministicIteration,
    ];

    /// The kebab-case rule name used in diagnostics and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnwrapInLib => "no-unwrap-in-lib",
            Rule::NoWallclockInDeterministic => "no-wallclock-in-deterministic",
            Rule::NoPrintlnInLib => "no-println-in-lib",
            Rule::ForbidUnsafeEverywhere => "forbid-unsafe-everywhere",
            Rule::ErrorEnumsImplError => "error-enums-impl-error",
            Rule::NoUntracedFabricSend => "no-untraced-fabric-send",
            Rule::AllowWithoutReason => "allow-without-reason",
            Rule::JournalPrecedesMutation => "journal-precedes-mutation",
            Rule::AtomicOrderingPairing => "atomic-ordering-pairing",
            Rule::LockOrderConsistency => "lock-order-consistency",
            Rule::NoPanicInWorker => "no-panic-in-worker",
            Rule::DeterministicIteration => "deterministic-iteration",
        }
    }

    /// Which engine runs the rule: `"token"` (per-file lexing, `lint`) or
    /// `"semantic"` (parsed skeletons + call graph, `analyze`).
    pub fn tier(self) -> &'static str {
        if Rule::SEMANTIC.contains(&self) {
            "semantic"
        } else {
            "token"
        }
    }

    /// One-line description shown by `wimesh-check rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::NoUnwrapInLib => {
                "library code returns errors; no .unwrap()/.expect() outside tests"
            }
            Rule::NoWallclockInDeterministic => {
                "Instant::now/SystemTime forbidden in sim/emu/node model code"
            }
            Rule::NoPrintlnInLib => "no println!/eprintln!/dbg! in library code; use wimesh-obs",
            Rule::ForbidUnsafeEverywhere => "every crate root carries #![forbid(unsafe_code)]",
            Rule::ErrorEnumsImplError => {
                "public *Error types implement Display + std::error::Error"
            }
            Rule::NoUntracedFabricSend => {
                "fabric Deliver events carry a `ctx` trace context in traced crates"
            }
            Rule::AllowWithoutReason => {
                "every check: allow(..) directive carries a reason = \"…\" clause"
            }
            Rule::JournalPrecedesMutation => {
                "every call path to a session mutator passes a journal append first"
            }
            Rule::AtomicOrderingPairing => {
                "Release stores pair with Acquire loads; no Relaxed-only publication"
            }
            Rule::LockOrderConsistency => {
                "mutex acquisition order is globally consistent (no lock cycles)"
            }
            Rule::NoPanicInWorker => {
                "no panic!/unwrap/expect reachable from worker thread entry points"
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

/// Which crates each rule applies to, and how the tree is walked.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crates (by package name) adopted into `no-unwrap-in-lib`.
    pub unwrap_adopted: Vec<String>,
    /// Crates whose model code must be wall-clock free.
    pub deterministic: Vec<String>,
    /// Crates exempt from `no-println-in-lib` (CLI reporting crates whose
    /// printed tables are their product).
    pub println_exempt: Vec<String>,
    /// Crates whose `Deliver { .. }` fabric events must carry a `ctx`
    /// trace context (`no-untraced-fabric-send`).
    pub traced_sends: Vec<String>,
    /// Also walk `vendor/*` stand-in crates (off by default: they mirror
    /// external APIs and are not held to workspace rules).
    pub include_vendor: bool,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            unwrap_adopted: vec![
                "wimesh".into(),
                "wimesh-tdma".into(),
                "wimesh-conflict".into(),
                "wimesh-milp".into(),
                "wimesh-check".into(),
            ],
            deterministic: vec![
                "wimesh-sim".into(),
                "wimesh-emu".into(),
                "wimesh-node".into(),
            ],
            println_exempt: vec!["wimesh-bench".into()],
            traced_sends: vec!["wimesh-node".into()],
            include_vendor: false,
        }
    }
}

/// One parsed `// check: allow(<rule>[, reason = "…"])` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line of the comment.
    pub line: u32,
    /// The rule name being allowed.
    pub rule: String,
    /// Whether the directive carried a non-empty `reason = "…"` clause.
    pub has_reason: bool,
}

impl AllowDirective {
    /// True when this directive suppresses a `rule_name` finding at
    /// `line` (same line or the line directly below the comment).
    pub fn suppresses(&self, rule_name: &str, line: u32) -> bool {
        self.rule == rule_name && (self.line == line || self.line + 1 == line)
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
    /// Files lexed.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when no diagnostics survived.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Serialises the report as a JSON object (hand-rolled: the lint has
    /// no serialisation dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"rule\": \"{}\", ", d.rule));
            out.push_str(&format!(
                "\"path\": \"{}\", ",
                json::escape(&d.path.display().to_string())
            ));
            out.push_str(&format!("\"line\": {}, ", d.line));
            out.push_str(&format!("\"message\": \"{}\"", json::escape(&d.message)));
            out.push('}');
            if i + 1 < self.diagnostics.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"suppressed\": {},\n", self.suppressed));
        out.push_str(&format!("  \"crates_scanned\": {},\n", self.crates_scanned));
        out.push_str(&format!("  \"files_scanned\": {}\n", self.files_scanned));
        out.push_str("}\n");
        out
    }
}

/// How a source file participates in the crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    /// `src/lib.rs` — a crate root that is also library code.
    LibRoot,
    /// `src/main.rs` or `src/bin/*.rs` — a crate root for a binary.
    BinRoot,
    /// Any other file under `src/` — library code.
    Lib,
}

impl FileKind {
    fn is_root(self) -> bool {
        matches!(self, FileKind::LibRoot | FileKind::BinRoot)
    }

    fn is_lib(self) -> bool {
        matches!(self, FileKind::LibRoot | FileKind::Lib)
    }
}

struct SourceFile {
    path: PathBuf,
    kind: FileKind,
    lexed: Lexed,
    mask: Vec<bool>,
    /// Allow directives found in comments.
    allows: Vec<AllowDirective>,
}

struct CrateSource {
    name: String,
    files: Vec<SourceFile>,
}

/// Lints every crate under `<root>/crates` (and `<root>/vendor` when
/// configured) and returns the merged report.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> Result<LintReport, CheckError> {
    let mut dirs = crate_dirs(&root.join("crates"))?;
    if config.include_vendor {
        dirs.extend(crate_dirs(&root.join("vendor"))?);
    }
    let mut report = LintReport::default();
    for dir in dirs {
        let sub = lint_crate(&dir, config)?;
        report.diagnostics.extend(sub.diagnostics);
        report.suppressed += sub.suppressed;
        report.crates_scanned += sub.crates_scanned;
        report.files_scanned += sub.files_scanned;
    }
    report
        .diagnostics
        .sort_by_key(|d| (d.path.clone(), d.line, d.rule));
    Ok(report)
}

/// Lints a single crate directory (must contain `Cargo.toml` and `src/`).
pub fn lint_crate(dir: &Path, config: &LintConfig) -> Result<LintReport, CheckError> {
    let krate = load_crate(dir)?;
    let mut raw = Vec::new();
    run_rules(&krate, config, &mut raw);

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
fn is_allowed(krate: &CrateSource, diag: &Diagnostic) -> bool {
    krate.files.iter().any(|f| {
        f.path == diag.path
            && f.allows
                .iter()
                .any(|a| a.suppresses(diag.rule.name(), diag.line))
    })
}

pub(crate) fn crate_dirs(parent: &Path) -> Result<Vec<PathBuf>, CheckError> {
    if !parent.exists() {
        return Ok(Vec::new());
    }
    let entries = std::fs::read_dir(parent).map_err(|source| CheckError::Io {
        path: parent.to_path_buf(),
        source,
    })?;
    let mut dirs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| CheckError::Io {
            path: parent.to_path_buf(),
            source,
        })?;
        let path = entry.path();
        if path.is_dir() && path.join("Cargo.toml").is_file() {
            dirs.push(path);
        }
    }
    dirs.sort();
    Ok(dirs)
}

fn load_crate(dir: &Path) -> Result<CrateSource, CheckError> {
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
        paths.sort();
        for path in paths {
            let kind = classify(&src, &path);
            let text = read_file(&path)?;
            let lexed = Lexed::lex(&text);
            let mask = lexed.test_mask();
            let allows = allow_directives(&lexed);
            files.push(SourceFile {
                path,
                kind,
                lexed,
                mask,
                allows,
            });
        }
    }
    Ok(CrateSource { name, files })
}

pub(crate) fn read_file(path: &Path) -> Result<String, CheckError> {
    std::fs::read_to_string(path).map_err(|source| CheckError::Io {
        path: path.to_path_buf(),
        source,
    })
}

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), CheckError> {
    let entries = std::fs::read_dir(dir).map_err(|source| CheckError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    for entry in entries {
        let entry = entry.map_err(|source| CheckError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn classify(src: &Path, path: &Path) -> FileKind {
    if path == src.join("lib.rs") {
        FileKind::LibRoot
    } else if path == src.join("main.rs") || path.parent() == Some(src.join("bin").as_path()) {
        FileKind::BinRoot
    } else {
        FileKind::Lib
    }
}

/// Extracts the `[package] name` from a manifest without a TOML parser:
/// tracks section headers and takes the first `name = "..."` inside
/// `[package]`.
pub(crate) fn package_name(toml: &str) -> Option<String> {
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

/// Parses `check: allow(<rule>[, reason = "…"])` directives out of
/// comments. The rule name runs to the first `,` or `)`; the directive
/// `has_reason` only when a `reason = "…"` clause with a non-empty quoted
/// string follows.
pub(crate) fn allow_directives(lexed: &Lexed) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for comment in &lexed.comments {
        let Some(idx) = comment.text.find("check:") else {
            continue;
        };
        let rest = comment.text[idx + "check:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let name_end = rest.find([',', ')']);
        let Some(name_end) = name_end else {
            continue;
        };
        let rule = rest[..name_end].trim().to_string();
        let mut has_reason = false;
        if rest.as_bytes()[name_end] == b',' {
            let clause = rest[name_end + 1..].trim_start();
            if let Some(clause) = clause.strip_prefix("reason") {
                let clause = clause.trim_start();
                if let Some(clause) = clause.strip_prefix('=') {
                    let clause = clause.trim_start();
                    if let Some(quoted) = clause.strip_prefix('"') {
                        has_reason = quoted.find('"').is_some_and(|q| q > 0);
                    }
                }
            }
        }
        out.push(AllowDirective {
            line: comment.line,
            rule,
            has_reason,
        });
    }
    out
}

fn run_rules(krate: &CrateSource, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let adopted = config.unwrap_adopted.contains(&krate.name);
    let deterministic = config.deterministic.contains(&krate.name);
    let println_exempt = config.println_exempt.contains(&krate.name);
    let traced = config.traced_sends.contains(&krate.name);
    for file in &krate.files {
        if adopted && file.kind.is_lib() {
            rule_no_unwrap(file, out);
        }
        if deterministic {
            rule_no_wallclock(file, out);
        }
        if !println_exempt && file.kind.is_lib() {
            rule_no_println(file, out);
        }
        if file.kind.is_root() {
            rule_forbid_unsafe(file, out);
        }
        if traced {
            rule_no_untraced_fabric_send(file, out);
        }
        rule_allow_without_reason(file, out);
    }
    rule_error_enums(krate, out);
}

/// A bare allow directive with no `reason = "…"` clause is itself a
/// finding: suppressions must be justified in place.
fn rule_allow_without_reason(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for allow in &file.allows {
        if !allow.has_reason {
            out.push(Diagnostic {
                rule: Rule::AllowWithoutReason,
                path: file.path.clone(),
                line: allow.line,
                message: format!(
                    "allow({}) without a reason; write check: allow({}, reason = \"…\")",
                    allow.rule, allow.rule
                ),
            });
        }
    }
}

fn ident_at(file: &SourceFile, i: usize) -> Option<&str> {
    match file.lexed.tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(name)) => Some(name),
        _ => None,
    }
}

fn punct_at(file: &SourceFile, i: usize, c: char) -> bool {
    matches!(
        file.lexed.tokens.get(i),
        Some(t) if t.kind == TokenKind::Punct(c)
    )
}

fn rule_no_unwrap(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, token) in file.lexed.tokens.iter().enumerate() {
        if file.mask[i] {
            continue;
        }
        let TokenKind::Ident(name) = &token.kind else {
            continue;
        };
        if !matches!(name.as_str(), "unwrap" | "expect" | "expect_err") {
            continue;
        }
        if i > 0 && punct_at(file, i - 1, '.') && punct_at(file, i + 1, '(') {
            out.push(Diagnostic {
                rule: Rule::NoUnwrapInLib,
                path: file.path.clone(),
                line: token.line,
                message: format!(
                    ".{name}() in library code; return the crate's error enum instead"
                ),
            });
        }
    }
}

fn rule_no_wallclock(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, token) in file.lexed.tokens.iter().enumerate() {
        if file.mask[i] {
            continue;
        }
        let TokenKind::Ident(name) = &token.kind else {
            continue;
        };
        if name == "Instant"
            && punct_at(file, i + 1, ':')
            && punct_at(file, i + 2, ':')
            && ident_at(file, i + 3) == Some("now")
        {
            out.push(Diagnostic {
                rule: Rule::NoWallclockInDeterministic,
                path: file.path.clone(),
                line: token.line,
                message: "Instant::now() in deterministic model code; use the virtual clock"
                    .to_string(),
            });
        }
        if name == "SystemTime" {
            out.push(Diagnostic {
                rule: Rule::NoWallclockInDeterministic,
                path: file.path.clone(),
                line: token.line,
                message: "SystemTime in deterministic model code; use the virtual clock"
                    .to_string(),
            });
        }
    }
}

fn rule_no_println(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, token) in file.lexed.tokens.iter().enumerate() {
        if file.mask[i] {
            continue;
        }
        let TokenKind::Ident(name) = &token.kind else {
            continue;
        };
        if matches!(
            name.as_str(),
            "println" | "print" | "eprintln" | "eprint" | "dbg"
        ) && punct_at(file, i + 1, '!')
        {
            out.push(Diagnostic {
                rule: Rule::NoPrintlnInLib,
                path: file.path.clone(),
                line: token.line,
                message: format!("{name}! in library code; route output through wimesh-obs"),
            });
        }
    }
}

fn rule_forbid_unsafe(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    // Look for `#![forbid(.. unsafe_code ..)]` anywhere in the root file.
    let tokens = &file.lexed.tokens;
    let mut found = false;
    for i in 0..tokens.len() {
        if punct_at(file, i, '#') && punct_at(file, i + 1, '!') && punct_at(file, i + 2, '[') {
            if ident_at(file, i + 3) != Some("forbid") {
                continue;
            }
            // Scan to the closing `]` of this attribute for `unsafe_code`.
            let mut j = i + 4;
            let mut depth = 1usize;
            while j < tokens.len() && depth > 0 {
                match &tokens[j].kind {
                    TokenKind::Punct('[' | '(') => depth += 1,
                    TokenKind::Punct(']' | ')') => depth -= 1,
                    TokenKind::Ident(name) if name == "unsafe_code" => found = true,
                    _ => {}
                }
                j += 1;
            }
        }
    }
    if !found {
        out.push(Diagnostic {
            rule: Rule::ForbidUnsafeEverywhere,
            path: file.path.clone(),
            line: 1,
            message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
        });
    }
}

fn rule_no_untraced_fabric_send(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    // Every `Deliver { .. }` token group — the event's definition, its
    // constructions and its destructurings alike — must mention a `ctx`
    // field at the top nesting level of its braces.
    let tokens = &file.lexed.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if file.mask[i] {
            continue;
        }
        let TokenKind::Ident(name) = &token.kind else {
            continue;
        };
        if name != "Deliver" || !punct_at(file, i + 1, '{') {
            continue;
        }
        // `fn f(..) -> Deliver {` puts a function body, not a field
        // list, after the name; return-type position is not a send.
        if i >= 2 && punct_at(file, i - 2, '-') && punct_at(file, i - 1, '>') {
            continue;
        }
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut has_ctx = false;
        while j < tokens.len() && depth > 0 {
            match &tokens[j].kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => depth -= 1,
                TokenKind::Ident(id) if depth == 1 && id == "ctx" => has_ctx = true,
                _ => {}
            }
            j += 1;
        }
        if !has_ctx {
            out.push(Diagnostic {
                rule: Rule::NoUntracedFabricSend,
                path: file.path.clone(),
                line: token.line,
                message: "Deliver without a `ctx` field; every fabric send must carry a \
                          trace context"
                    .to_string(),
            });
        }
    }
}

fn rule_error_enums(krate: &CrateSource, out: &mut Vec<Diagnostic>) {
    // Public `*Error` definitions in library code.
    let mut defs: Vec<(&SourceFile, u32, String)> = Vec::new();
    for file in &krate.files {
        if !file.kind.is_lib() {
            continue;
        }
        for (i, token) in file.lexed.tokens.iter().enumerate() {
            if file.mask[i] {
                continue;
            }
            if ident_at(file, i) != Some("pub") {
                continue;
            }
            let Some(kw) = ident_at(file, i + 1) else {
                continue;
            };
            if kw != "enum" && kw != "struct" {
                continue;
            }
            let Some(name) = ident_at(file, i + 2) else {
                continue;
            };
            if name.ends_with("Error") {
                defs.push((file, token.line, name.to_string()));
            }
        }
    }
    if defs.is_empty() {
        return;
    }
    // Trait impls anywhere in the crate (`impl fmt::Display for X` lexes
    // with `Display`, `for`, `X` as consecutive tokens).
    let mut display_for: BTreeSet<String> = BTreeSet::new();
    let mut error_for: BTreeSet<String> = BTreeSet::new();
    for file in &krate.files {
        for (i, token) in file.lexed.tokens.iter().enumerate() {
            let TokenKind::Ident(name) = &token.kind else {
                continue;
            };
            if ident_at(file, i + 1) != Some("for") {
                continue;
            }
            let Some(target) = ident_at(file, i + 2) else {
                continue;
            };
            if name == "Display" {
                display_for.insert(target.to_string());
            } else if name == "Error" {
                error_for.insert(target.to_string());
            }
        }
    }
    for (file, line, name) in defs {
        let mut missing = Vec::new();
        if !display_for.contains(&name) {
            missing.push("Display");
        }
        if !error_for.contains(&name) {
            missing.push("std::error::Error");
        }
        if !missing.is_empty() {
            out.push(Diagnostic {
                rule: Rule::ErrorEnumsImplError,
                path: file.path.clone(),
                line,
                message: format!(
                    "public type {name} does not implement {}",
                    missing.join(" + ")
                ),
            });
        }
    }
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
        let lexed = Lexed::lex(
            "// check: allow(no-unwrap-in-lib) invariant: always present\nlet x = 1;\n// plain comment\n",
        );
        let allows = allow_directives(&lexed);
        assert_eq!(
            allows,
            vec![AllowDirective {
                line: 1,
                rule: "no-unwrap-in-lib".to_string(),
                has_reason: false,
            }]
        );
    }

    #[test]
    fn allow_directive_with_reason() {
        let lexed = Lexed::lex(
            "// check: allow(no-unwrap-in-lib, reason = \"slice is never empty\")\n\
             // check: allow(no-println-in-lib, reason = \"\")\n\
             // check: allow(deterministic-iteration, reason=\"order-free fold\")\n",
        );
        let allows = allow_directives(&lexed);
        assert_eq!(allows.len(), 3);
        assert!(allows[0].has_reason);
        assert_eq!(allows[0].rule, "no-unwrap-in-lib");
        assert!(!allows[1].has_reason, "empty reason counts as missing");
        assert!(allows[2].has_reason, "spaces around = are optional");
    }

    #[test]
    fn rule_tiers_partition_all() {
        for rule in Rule::ALL {
            let token = Rule::TOKEN.contains(&rule);
            let semantic = Rule::SEMANTIC.contains(&rule);
            assert!(token ^ semantic, "{} must be in exactly one tier", rule);
            assert_eq!(rule.tier(), if token { "token" } else { "semantic" });
        }
    }

    #[test]
    fn json_escaping() {
        let report = LintReport {
            diagnostics: vec![Diagnostic {
                rule: Rule::NoUnwrapInLib,
                path: PathBuf::from("a\"b.rs"),
                line: 1,
                message: "b\\c\nd".into(),
            }],
            ..LintReport::default()
        };
        let json = report.to_json();
        assert!(json.contains(r#""path": "a\"b.rs""#), "{json}");
        assert!(json.contains(r#""message": "b\\c\nd""#), "{json}");
    }
}
