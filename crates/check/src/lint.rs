//! The workspace lint engine: one pass, ten rules.
//!
//! Walks every crate under `<root>/crates` and parses each `src/**/*.rs`
//! file once into a [`FileAst`]: the handwritten [`crate::lexer`]'s
//! tokens with `#[cfg(test)]` items stripped, plus function skeletons,
//! hash-typed bindings and allow directives. Every rule runs over that
//! one parse: seven token rules, decidable from one file's token stream,
//! are defined here; the three call-graph rules (journal discipline,
//! lock order, hash-iteration determinism) live in the private `analyze`
//! module. Diagnostics carry `file:line` locations and can be suppressed
//! with a `// check: allow(<rule>, reason = "…")` comment on the same or
//! the immediately preceding line.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::analyze;
use crate::error::CheckError;
use crate::lexer::{Lexed, TokenKind};
use crate::parse::{ident, punct, FileAst};

/// The lint rules, in the order they are reported.
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
    /// Every allow directive must name a rule in [`Rule::ALL`] and carry
    /// a `reason = "…"` clause: an unexplained suppression, or one that
    /// suppresses nothing, is a finding in its own right.
    AllowWithoutReason,
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
    pub const ALL: [Rule; 10] = [
        Rule::NoUnwrapInLib,
        Rule::NoWallclockInDeterministic,
        Rule::NoPrintlnInLib,
        Rule::ForbidUnsafeEverywhere,
        Rule::ErrorEnumsImplError,
        Rule::NoUntracedFabricSend,
        Rule::AllowWithoutReason,
        Rule::JournalPrecedesMutation,
        Rule::LockOrderConsistency,
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
            Rule::LockOrderConsistency => "lock-order-consistency",
            Rule::DeterministicIteration => "deterministic-iteration",
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
                "every check: allow(..) directive names a rule and carries a reason = \"…\""
            }
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
    /// Crates adopted into `no-unwrap-in-lib`.
    pub unwrap_adopted: Vec<String>,
    /// Crates whose model code must be wall-clock free.
    pub deterministic: Vec<String>,
    /// Crates exempt from `no-println-in-lib` (CLI reporting crates whose
    /// printed tables are their product).
    pub println_exempt: Vec<String>,
    /// Crates whose `Deliver { .. }` fabric events must carry a `ctx`
    /// trace context (`no-untraced-fabric-send`).
    pub traced_sends: Vec<String>,
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
            unwrap_adopted: vec![
                "wimesh".into(),
                "wimesh-tdma".into(),
                "wimesh-conflict".into(),
                "wimesh-milp".into(),
                "wimesh-check".into(),
                "wimesh-svc".into(),
            ],
            deterministic: vec![
                "wimesh-sim".into(),
                "wimesh-emu".into(),
                "wimesh-node".into(),
            ],
            println_exempt: vec!["wimesh-bench".into()],
            traced_sends: vec!["wimesh-node".into()],
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
    /// Files parsed.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when no diagnostics survived.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
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

/// One crate, parsed once for every rule.
pub(crate) struct CrateAst {
    /// The `[package] name` from the manifest.
    pub(crate) name: String,
    /// The crate's `src/` directory, against which file kinds are read.
    src: PathBuf,
    /// Parsed `src/**/*.rs` files, sorted by path.
    pub(crate) files: Vec<FileAst>,
}

impl CrateAst {
    fn kind(&self, file: &FileAst) -> FileKind {
        let path = file.path.as_path();
        if path == self.src.join("lib.rs") {
            FileKind::LibRoot
        } else if path == self.src.join("main.rs")
            || path.parent() == Some(self.src.join("bin").as_path())
        {
            FileKind::BinRoot
        } else {
            FileKind::Lib
        }
    }
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
    run_token_rules(&krate, config, &mut raw);
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
    krate.files.iter().any(|f| {
        f.path == diag.path
            && f.allows
                .iter()
                .any(|a| a.suppresses(diag.rule.name(), diag.line))
    })
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
        paths.sort();
        for path in paths {
            let text = read_file(&path)?;
            files.push(FileAst::parse(&path, &text));
        }
    }
    Ok(CrateAst { name, src, files })
}

fn read_file(path: &Path) -> Result<String, CheckError> {
    std::fs::read_to_string(path).map_err(|source| CheckError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), CheckError> {
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

/// Parses `check: allow(<rule>[, reason = "…"])` directives out of plain
/// comments (doc comments describe the syntax; they direct nothing). The
/// rule name runs to the first `,` or `)`; the directive `has_reason`
/// only when a `reason = "…"` clause with a non-empty quoted string
/// follows.
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

fn run_token_rules(krate: &CrateAst, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    let adopted = config.unwrap_adopted.contains(&krate.name);
    let deterministic = config.deterministic.contains(&krate.name);
    let println_exempt = config.println_exempt.contains(&krate.name);
    let traced = config.traced_sends.contains(&krate.name);
    for file in &krate.files {
        let kind = krate.kind(file);
        if adopted && kind.is_lib() {
            rule_no_unwrap(file, out);
        }
        if deterministic {
            rule_no_wallclock(file, out);
        }
        if !println_exempt && kind.is_lib() {
            rule_no_println(file, out);
        }
        if kind.is_root() {
            rule_forbid_unsafe(file, out);
        }
        if traced {
            rule_no_untraced_fabric_send(file, out);
        }
        rule_allow_without_reason(file, out);
    }
    rule_error_enums(krate, out);
}

/// An allow directive without a `reason = "…"` clause, or naming no rule
/// (a typo, or a rule since deleted) and so suppressing nothing, is
/// itself a finding: suppressions must be justified in place.
fn rule_allow_without_reason(file: &FileAst, out: &mut Vec<Diagnostic>) {
    for allow in &file.allows {
        let message = if !Rule::ALL.iter().any(|r| r.name() == allow.rule) {
            format!(
                "allow({}) names no rule and suppresses nothing; delete it or name a \
                 rule listed by `wimesh-check rules`",
                allow.rule
            )
        } else if !allow.has_reason {
            format!(
                "allow({}) without a reason; write check: allow({}, reason = \"…\")",
                allow.rule, allow.rule
            )
        } else {
            continue;
        };
        push(out, Rule::AllowWithoutReason, file, allow.line, message);
    }
}

fn rule_no_unwrap(file: &FileAst, out: &mut Vec<Diagnostic>) {
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &token.kind else {
            continue;
        };
        if !matches!(name.as_str(), "unwrap" | "expect" | "expect_err") {
            continue;
        }
        if i > 0 && punct(tokens, i - 1, '.') && punct(tokens, i + 1, '(') {
            push(
                out,
                Rule::NoUnwrapInLib,
                file,
                token.line,
                format!(".{name}() in library code; return the crate's error enum instead"),
            );
        }
    }
}

fn rule_no_wallclock(file: &FileAst, out: &mut Vec<Diagnostic>) {
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &token.kind else {
            continue;
        };
        if name == "Instant"
            && punct(tokens, i + 1, ':')
            && punct(tokens, i + 2, ':')
            && ident(tokens, i + 3) == Some("now")
        {
            push(
                out,
                Rule::NoWallclockInDeterministic,
                file,
                token.line,
                "Instant::now() in deterministic model code; use the virtual clock".to_string(),
            );
        }
        if name == "SystemTime" {
            push(
                out,
                Rule::NoWallclockInDeterministic,
                file,
                token.line,
                "SystemTime in deterministic model code; use the virtual clock".to_string(),
            );
        }
    }
}

fn rule_no_println(file: &FileAst, out: &mut Vec<Diagnostic>) {
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &token.kind else {
            continue;
        };
        if matches!(
            name.as_str(),
            "println" | "print" | "eprintln" | "eprint" | "dbg"
        ) && punct(tokens, i + 1, '!')
        {
            push(
                out,
                Rule::NoPrintlnInLib,
                file,
                token.line,
                format!("{name}! in library code; route output through wimesh-obs"),
            );
        }
    }
}

fn rule_forbid_unsafe(file: &FileAst, out: &mut Vec<Diagnostic>) {
    // Look for `#![forbid(.. unsafe_code ..)]` anywhere in the root file.
    let tokens = &file.tokens;
    let mut found = false;
    for i in 0..tokens.len() {
        if punct(tokens, i, '#') && punct(tokens, i + 1, '!') && punct(tokens, i + 2, '[') {
            if ident(tokens, i + 3) != Some("forbid") {
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
        push(
            out,
            Rule::ForbidUnsafeEverywhere,
            file,
            1,
            "crate root is missing #![forbid(unsafe_code)]".to_string(),
        );
    }
}

fn rule_no_untraced_fabric_send(file: &FileAst, out: &mut Vec<Diagnostic>) {
    // Every `Deliver { .. }` token group — the event's definition, its
    // constructions and its destructurings alike — must mention a `ctx`
    // field at the top nesting level of its braces.
    let tokens = &file.tokens;
    for (i, token) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &token.kind else {
            continue;
        };
        if name != "Deliver" || !punct(tokens, i + 1, '{') {
            continue;
        }
        // `fn f(..) -> Deliver {` puts a function body, not a field
        // list, after the name; return-type position is not a send.
        if i >= 2 && punct(tokens, i - 2, '-') && punct(tokens, i - 1, '>') {
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
            push(
                out,
                Rule::NoUntracedFabricSend,
                file,
                token.line,
                "Deliver without a `ctx` field; every fabric send must carry a trace context"
                    .to_string(),
            );
        }
    }
}

fn rule_error_enums(krate: &CrateAst, out: &mut Vec<Diagnostic>) {
    // Public `*Error` definitions in library code.
    let mut defs: Vec<(&FileAst, u32, &str)> = Vec::new();
    for file in &krate.files {
        if !krate.kind(file).is_lib() {
            continue;
        }
        let tokens = &file.tokens;
        for (i, token) in tokens.iter().enumerate() {
            if ident(tokens, i) != Some("pub") {
                continue;
            }
            if !matches!(ident(tokens, i + 1), Some("enum" | "struct")) {
                continue;
            }
            if let Some(name) = ident(tokens, i + 2).filter(|n| n.ends_with("Error")) {
                defs.push((file, token.line, name));
            }
        }
    }
    if defs.is_empty() {
        return;
    }
    // Trait impls anywhere in the crate (`impl fmt::Display for X` lexes
    // with `Display`, `for`, `X` as consecutive tokens).
    let mut display_for: BTreeSet<&str> = BTreeSet::new();
    let mut error_for: BTreeSet<&str> = BTreeSet::new();
    for file in &krate.files {
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            if ident(tokens, i + 1) != Some("for") {
                continue;
            }
            let Some(target) = ident(tokens, i + 2) else {
                continue;
            };
            match ident(tokens, i) {
                Some("Display") => {
                    display_for.insert(target);
                }
                Some("Error") => {
                    error_for.insert(target);
                }
                _ => {}
            }
        }
    }
    for (file, line, name) in defs {
        let mut missing = Vec::new();
        if !display_for.contains(name) {
            missing.push("Display");
        }
        if !error_for.contains(name) {
            missing.push("std::error::Error");
        }
        if !missing.is_empty() {
            push(
                out,
                Rule::ErrorEnumsImplError,
                file,
                line,
                format!(
                    "public type {name} does not implement {}",
                    missing.join(" + ")
                ),
            );
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
            "// check: allow(no-unwrap-in-lib) invariant: always present\nlet x = 1;\n// plain comment\n\
             /// doc comments describe `// check: allow(<rule>)`, they direct nothing\n",
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
}
