//! A lightweight recursive-descent parser over the handwritten lexer.
//!
//! Every file the lint pass reads is parsed once, here. It is
//! deliberately **not** a full Rust parser: it recognises the item
//! skeleton (modules, impls, traits, functions) and reduces each function
//! body to an ordered list of [`Event`]s — calls, lock acquisitions with
//! their guard scopes, and `for` iterations — which is exactly what the
//! call-graph rules need. Everything it cannot classify it skips, and it
//! never panics on malformed input (the property suite feeds it random
//! token soup).
//!
//! Tokens under `#[cfg(test)]` are stripped before parsing, so test code
//! never contributes events: the masked regions are balanced item
//! bodies, which keeps brace tracking intact.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::lexer::{Lexed, Token, TokenKind};
use crate::lint::AllowDirective;

/// The parsed skeleton of one source file.
#[derive(Debug)]
pub struct FileAst {
    /// Path of the source file.
    pub path: PathBuf,
    /// The token stream with `#[cfg(test)]` regions removed. Event token
    /// indices point into this vector.
    pub tokens: Vec<Token>,
    /// Every function with a body, in source order (impl/trait methods
    /// carry their `self_ty`).
    pub fns: Vec<FnDef>,
    /// Names bound with a `HashMap`/`HashSet` type ascription or
    /// initialiser in this file (locals, params, struct fields).
    pub hash_names: BTreeSet<String>,
    /// Allow directives found in comments.
    pub allows: Vec<AllowDirective>,
    /// Number of lines in the source file (for span checks).
    pub max_line: u32,
}

/// One function (free function, method or trait default method).
#[derive(Debug)]
pub struct FnDef {
    /// The function's bare name.
    pub name: String,
    /// The `impl`/`trait` self type the function is defined on, when any.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Ordered body events.
    pub events: Vec<Event>,
}

/// One body event, in source order.
#[derive(Debug)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// 1-based source line.
    pub line: u32,
    /// Index into [`FileAst::tokens`] of the event's head token.
    pub tok: usize,
}

/// The event classes the call-graph rules consume.
#[derive(Debug)]
pub enum EventKind {
    /// A call (method, path or macro).
    Call(Callee),
    /// A `.lock()` / `.try_lock()` acquisition. `scope_end` is the token
    /// index at which the guard's enclosing block closes.
    Lock {
        /// Last receiver segment (the mutex field or binding name).
        key: String,
        /// Token index one past the guard's scope.
        scope_end: usize,
    },
    /// A `for .. in <name>` loop over a plain binding (not a call chain).
    ForIter {
        /// Last segment of the iterated binding.
        name: String,
    },
}

/// The callee of a [`EventKind::Call`].
#[derive(Debug)]
pub enum Callee {
    /// `recv.name(..)` — `recv` holds the receiver chain in source order
    /// (`self.shared.queue.lock()` → `["self", "shared", "queue"]`).
    Method {
        /// Method name.
        name: String,
        /// Receiver chain segments (may be empty for opaque receivers).
        recv: Vec<String>,
    },
    /// `a::b::c(..)` or a bare `c(..)` — `segments` holds the path.
    Path {
        /// Path segments; the last one is the function name.
        segments: Vec<String>,
    },
    /// `name!(..)`, `name![..]` or `name!{..}`.
    Macro {
        /// Macro name without the `!`.
        name: String,
    },
}

impl Callee {
    /// The bare function/macro name being invoked.
    pub fn name(&self) -> &str {
        match self {
            Callee::Method { name, .. } | Callee::Macro { name } => name,
            Callee::Path { segments } => segments.last().map_or("", String::as_str),
        }
    }
}

impl FileAst {
    /// Lexes and parses `source`. Never fails: unrecognised constructs are
    /// skipped, malformed input degrades to fewer events.
    pub fn parse(path: &Path, source: &str) -> FileAst {
        let lexed = Lexed::lex(source);
        let mask = lexed.test_mask();
        let allows = crate::lint::allow_directives(&lexed);
        let tokens: Vec<Token> = lexed
            .tokens
            .into_iter()
            .zip(&mask)
            .filter(|(_, &m)| !m)
            .map(|(t, _)| t)
            .collect();
        let max_line = source.lines().count().max(1) as u32;
        let hash_names = collect_hash_names(&tokens);
        let mut fns = Vec::new();
        parse_items(&tokens, 0, tokens.len(), None, &mut fns);
        FileAst {
            path: path.to_path_buf(),
            tokens,
            fns,
            hash_names,
            allows,
            max_line,
        }
    }
}

pub(crate) fn ident(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(name)) => Some(name),
        _ => None,
    }
}

pub(crate) fn punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i), Some(t) if t.kind == TokenKind::Punct(c))
}

/// Keywords that can never be a call target even when followed by `(`.
fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "else"
            | "while"
            | "for"
            | "in"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "move"
            | "ref"
            | "mut"
            | "as"
            | "box"
            | "await"
            | "yield"
            | "dyn"
            | "impl"
            | "fn"
            | "pub"
            | "use"
            | "where"
            | "struct"
            | "enum"
            | "union"
            | "trait"
            | "type"
            | "mod"
            | "const"
            | "static"
            | "unsafe"
            | "extern"
            | "crate"
            | "super"
            | "self"
            | "Self"
    )
}

/// Advances past a balanced `#[..]` / `#![..]` attribute starting at the
/// `#`. Returns the index one past the closing `]`.
fn skip_attribute(tokens: &[Token], mut i: usize) -> usize {
    i += 1; // '#'
    if punct(tokens, i, '!') {
        i += 1;
    }
    if !punct(tokens, i, '[') {
        return i;
    }
    let mut depth = 0usize;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct('[' | '(' | '{') => depth += 1,
            TokenKind::Punct(']' | ')' | '}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// From an opening `<` at `i`, returns the index one past the matching
/// `>`. `->` arrows inside (closure bounds) are skipped as a pair.
pub(crate) fn skip_angles(tokens: &[Token], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct('-') if punct(tokens, i + 1, '>') => {
                i += 2;
                continue;
            }
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            // A delimiter this far out means the angles were not generics
            // after all (e.g. a `<` comparison); bail out.
            TokenKind::Punct(';' | '{') => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Finds the first `{` or `;` at `()`/`[]` depth zero starting at `i`.
/// Returns `(index, is_brace)`.
fn find_body_open(tokens: &[Token], mut i: usize) -> (usize, bool) {
    let mut depth = 0usize;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct('(' | '[') => depth += 1,
            TokenKind::Punct(')' | ']') => depth = depth.saturating_sub(1),
            TokenKind::Punct('{') if depth == 0 => return (i, true),
            TokenKind::Punct(';') if depth == 0 => return (i, false),
            _ => {}
        }
        i += 1;
    }
    (i, false)
}

/// From an opening `{` at `i`, returns the index of the matching `}` (or
/// the end of input), tracking all bracket kinds.
pub(crate) fn match_brace(tokens: &[Token], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct('{' | '(' | '[') => depth += 1,
            TokenKind::Punct('}' | ')' | ']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Skips to the first `;` at brace/paren/bracket depth zero (for `use`,
/// `static`, `const`, `type` items whose initialisers may nest).
fn skip_to_semi(tokens: &[Token], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokenKind::Punct('{' | '(' | '[') => depth += 1,
            TokenKind::Punct('}' | ')' | ']') => depth = depth.saturating_sub(1),
            TokenKind::Punct(';') if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Extracts the self type of an `impl` header spanning `[i, body_open)`:
/// the last path segment of the type after `for` when present, otherwise
/// of the first type after the generics.
fn impl_self_ty(tokens: &[Token], i: usize, body_open: usize) -> Option<String> {
    // Prefer the `for` form (trait impls), ignoring HRTB `for<'a>`.
    let mut j = i;
    while j < body_open {
        if ident(tokens, j) == Some("for") && !punct(tokens, j + 1, '<') {
            return last_path_segment(tokens, j + 1, body_open);
        }
        j += 1;
    }
    let mut j = i + 1;
    if punct(tokens, j, '<') {
        j = skip_angles(tokens, j);
    }
    last_path_segment(tokens, j, body_open)
}

/// Reads a type path starting at `j` and returns its last identifier
/// segment before generics / `for` / `where` / the body.
fn last_path_segment(tokens: &[Token], mut j: usize, end: usize) -> Option<String> {
    // Skip leading `&`, lifetimes and `mut`.
    while j < end {
        match &tokens[j].kind {
            TokenKind::Punct('&') | TokenKind::Lifetime => j += 1,
            TokenKind::Ident(name) if name == "mut" || name == "dyn" => j += 1,
            _ => break,
        }
    }
    let mut last = None;
    while j < end {
        match &tokens[j].kind {
            TokenKind::Ident(name) => {
                if name == "for" || name == "where" {
                    break;
                }
                last = Some(name.clone());
                j += 1;
            }
            TokenKind::Punct(':') if punct(tokens, j + 1, ':') => j += 2,
            _ => break,
        }
    }
    last
}

/// Recursively walks the item skeleton of `[start, end)`, collecting
/// function definitions into `fns`.
fn parse_items(
    tokens: &[Token],
    start: usize,
    end: usize,
    self_ty: Option<&str>,
    fns: &mut Vec<FnDef>,
) {
    let mut i = start;
    while i < end {
        match &tokens[i].kind {
            TokenKind::Punct('#') => i = skip_attribute(tokens, i),
            TokenKind::Ident(name) => match name.as_str() {
                "impl" => {
                    let (open, is_brace) = find_body_open(tokens, i + 1);
                    if is_brace && open < end {
                        let close = match_brace(tokens, open);
                        let ty = impl_self_ty(tokens, i, open);
                        parse_items(tokens, open + 1, close.min(end), ty.as_deref(), fns);
                        i = close + 1;
                    } else {
                        i = open + 1;
                    }
                }
                "trait" => {
                    let trait_name = ident(tokens, i + 1).map(str::to_string);
                    let (open, is_brace) = find_body_open(tokens, i + 2);
                    if is_brace && open < end {
                        let close = match_brace(tokens, open);
                        parse_items(tokens, open + 1, close.min(end), trait_name.as_deref(), fns);
                        i = close + 1;
                    } else {
                        i = open + 1;
                    }
                }
                "mod" => {
                    let (open, is_brace) = find_body_open(tokens, i + 1);
                    if is_brace && open < end {
                        let close = match_brace(tokens, open);
                        parse_items(tokens, open + 1, close.min(end), None, fns);
                        i = close + 1;
                    } else {
                        i = open + 1;
                    }
                }
                "fn" => {
                    // `fn` in type position (`fn(u32) -> u32`) has no name.
                    let Some(fn_name) = ident(tokens, i + 1) else {
                        i += 1;
                        continue;
                    };
                    let line = tokens[i].line;
                    let (open, is_brace) = find_body_open(tokens, i + 2);
                    if is_brace && open < end {
                        let close = match_brace(tokens, open);
                        let events = scan_body(tokens, open + 1, close.min(end));
                        fns.push(FnDef {
                            name: fn_name.to_string(),
                            self_ty: self_ty.map(str::to_string),
                            line,
                            events,
                        });
                        i = close + 1;
                    } else {
                        i = open + 1;
                    }
                }
                "struct" | "enum" | "union" => {
                    let (open, is_brace) = find_body_open(tokens, i + 1);
                    i = if is_brace {
                        match_brace(tokens, open) + 1
                    } else {
                        open + 1
                    };
                }
                "use" | "static" | "const" | "type" => i = skip_to_semi(tokens, i + 1),
                "macro_rules" => {
                    // `macro_rules! name { .. }` — the body is token soup
                    // that may contain `fn`; skip it whole.
                    let (open, is_brace) = find_body_open(tokens, i + 1);
                    i = if is_brace {
                        match_brace(tokens, open) + 1
                    } else {
                        open + 1
                    };
                }
                _ => i += 1,
            },
            _ => i += 1,
        }
    }
}

/// Scans one function body `[start, end)` into an ordered event list.
fn scan_body(tokens: &[Token], start: usize, end: usize) -> Vec<Event> {
    let mut events = Vec::new();
    let mut i = start;
    while i < end {
        let TokenKind::Ident(name) = &tokens[i].kind else {
            i += 1;
            continue;
        };
        // Skip nested `macro_rules!` bodies whole (token soup).
        if name == "macro_rules" && punct(tokens, i + 1, '!') {
            let (open, is_brace) = find_body_open(tokens, i + 2);
            i = if is_brace {
                match_brace(tokens, open) + 1
            } else {
                open + 1
            };
            continue;
        }
        // `for PAT in <binding> {` iteration over a plain name.
        if name == "for" && !punct(tokens, i + 1, '<') {
            if let Some((ev, next)) = scan_for_loop(tokens, i, end) {
                if let Some(ev) = ev {
                    events.push(ev);
                }
                i = next;
                continue;
            }
        }
        // Macro invocation `name!(..)` / `name![..]` / `name!{..}`.
        if punct(tokens, i + 1, '!')
            && (punct(tokens, i + 2, '(') || punct(tokens, i + 2, '[') || punct(tokens, i + 2, '{'))
        {
            events.push(Event {
                kind: EventKind::Call(Callee::Macro { name: name.clone() }),
                line: tokens[i].line,
                tok: i,
            });
            i += 3;
            continue;
        }
        // Method or path call: the name, optional turbofish, then `(`.
        let mut after = i + 1;
        if punct(tokens, after, ':')
            && punct(tokens, after + 1, ':')
            && punct(tokens, after + 2, '<')
        {
            after = skip_angles(tokens, after + 2);
        }
        if punct(tokens, after, '(') && !is_keyword(name) {
            if punct(tokens, i.wrapping_sub(1), '.') && i > start {
                let recv = receiver_chain(tokens, i - 1, start);
                let kind = match recv.last() {
                    Some(key) if matches!(name.as_str(), "lock" | "try_lock") => EventKind::Lock {
                        key: key.clone(),
                        scope_end: guard_scope_end(tokens, i),
                    },
                    _ => EventKind::Call(Callee::Method {
                        name: name.clone(),
                        recv,
                    }),
                };
                events.push(Event {
                    kind,
                    line: tokens[i].line,
                    tok: i,
                });
            } else if ident(tokens, i.wrapping_sub(1)) != Some("fn") {
                let segments = path_segments(tokens, i, start);
                events.push(Event {
                    kind: EventKind::Call(Callee::Path { segments }),
                    line: tokens[i].line,
                    tok: i,
                });
            }
        }
        i += 1;
    }
    events
}

/// The guard of a lock acquired at token `i` lives until the enclosing
/// block (or argument list) closes: the first unmatched closer after `i`.
pub(crate) fn guard_scope_end(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Punct('{' | '(' | '[') => depth += 1,
            TokenKind::Punct('}' | ')' | ']') => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Walks a receiver chain backwards from the `.` at `dot`, returning the
/// segments in source order (`self.shared.queue.` → `["self", "shared",
/// "queue"]`). A call or index in the chain contributes its base name.
fn receiver_chain(tokens: &[Token], dot: usize, start: usize) -> Vec<String> {
    let mut rev = Vec::new();
    let mut k = dot; // index of a '.' punct
    while k > start {
        let mut prev = k - 1;
        // Step back over a balanced `(..)` / `[..]` group (call result or
        // index receiver).
        if punct(tokens, prev, ')') || punct(tokens, prev, ']') {
            let mut depth = 0usize;
            while prev > start {
                match &tokens[prev].kind {
                    TokenKind::Punct(')' | ']' | '}') => depth += 1,
                    TokenKind::Punct('(' | '[' | '{') => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                prev -= 1;
            }
            if prev == start || prev == 0 {
                break;
            }
            prev -= 1; // token before the opener
        }
        let Some(TokenKind::Ident(name)) = tokens.get(prev).map(|t| &t.kind) else {
            break;
        };
        if rev.len() >= 8 {
            break;
        }
        rev.push(name.clone());
        if prev > start && punct(tokens, prev - 1, '.') {
            k = prev - 1;
        } else {
            break;
        }
    }
    rev.reverse();
    rev
}

/// Collects the `::`-separated path ending at the identifier at `i`.
fn path_segments(tokens: &[Token], i: usize, start: usize) -> Vec<String> {
    let mut rev = Vec::new();
    let mut k = i;
    while let Some(TokenKind::Ident(name)) = tokens.get(k).map(|t| &t.kind) {
        rev.push(name.clone());
        if rev.len() >= 8 {
            break;
        }
        if k >= start + 2 && punct(tokens, k - 1, ':') && punct(tokens, k - 2, ':') && k >= 3 {
            k -= 3;
        } else {
            break;
        }
    }
    rev.reverse();
    rev
}

/// Parses a `for PAT in EXPR {` construct starting at the `for` keyword.
/// Returns the optional iteration event and the index to resume scanning
/// from (just past the loop's opening `{`, so the body is scanned too).
fn scan_for_loop(tokens: &[Token], i: usize, end: usize) -> Option<(Option<Event>, usize)> {
    // Find `in` at bracket depth zero within a bounded window.
    let mut j = i + 1;
    let mut depth = 0usize;
    let limit = (i + 48).min(end);
    loop {
        if j >= limit {
            return None;
        }
        match &tokens[j].kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => depth = depth.saturating_sub(1),
            TokenKind::Ident(name) if depth == 0 && name == "in" => break,
            _ => {}
        }
        j += 1;
    }
    // Collect the iterated expression up to the loop's `{` at depth zero.
    let expr_start = j + 1;
    let mut k = expr_start;
    let mut depth = 0usize;
    while k < end {
        match &tokens[k].kind {
            TokenKind::Punct('(' | '[') => depth += 1,
            TokenKind::Punct(')' | ']') => depth = depth.saturating_sub(1),
            TokenKind::Punct('{') if depth == 0 => break,
            _ => {}
        }
        k += 1;
    }
    if k >= end {
        return None;
    }
    // Only a plain (possibly borrowed) binding chain produces a ForIter
    // event; call chains are covered by their method events.
    let mut name = None;
    let mut plain = true;
    let mut m = expr_start;
    while m < k {
        match &tokens[m].kind {
            TokenKind::Punct('&' | '.') => {}
            TokenKind::Ident(id) if id == "mut" => {}
            TokenKind::Ident(id) => name = Some(id.clone()),
            _ => {
                plain = false;
                break;
            }
        }
        m += 1;
    }
    match (plain, name) {
        (true, Some(name)) => {
            let event = Event {
                kind: EventKind::ForIter { name },
                line: tokens[i].line,
                tok: i,
            };
            Some((Some(event), k + 1))
        }
        // A call chain: resume from the expression itself so its method
        // calls (e.g. `.keys()`) are scanned as ordinary events.
        _ => Some((None, expr_start)),
    }
}

/// Scans the whole token stream for names bound to `HashMap`/`HashSet`:
/// type ascriptions (`name: HashMap<..>`, params and struct fields alike)
/// and `let name = HashMap::new()` style initialisers.
fn collect_hash_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let is_hash = |name: &str| name == "HashMap" || name == "HashSet";
    for i in 0..tokens.len() {
        let Some(name) = ident(tokens, i) else {
            continue;
        };
        // `name : <type mentioning HashMap/HashSet>` — a single `:` (not
        // `::`), followed by a bounded type scan.
        if punct(tokens, i + 1, ':')
            && !punct(tokens, i + 2, ':')
            && !punct(tokens, i, ':')
            && !is_keyword(name)
        {
            let mut depth = 0usize;
            let mut j = i + 2;
            let limit = (i + 18).min(tokens.len());
            while j < limit {
                match &tokens[j].kind {
                    TokenKind::Punct('<' | '(') => depth += 1,
                    TokenKind::Punct('>' | ')') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    TokenKind::Punct(',' | ';' | '=' | '{' | '}') if depth == 0 => break,
                    TokenKind::Ident(ty) if is_hash(ty) => {
                        out.insert(name.to_string());
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // `let [mut] name = .. HashMap::..` / `.. HashSet::..`.
        if name == "let" {
            let mut j = i + 1;
            if ident(tokens, j) == Some("mut") {
                j += 1;
            }
            let Some(bound) = ident(tokens, j) else {
                continue;
            };
            if !punct(tokens, j + 1, '=') {
                continue;
            }
            let limit = (j + 40).min(tokens.len());
            let mut m = j + 2;
            while m < limit {
                match &tokens[m].kind {
                    TokenKind::Punct(';') => break,
                    TokenKind::Ident(ty) if is_hash(ty) => {
                        out.insert(bound.to_string());
                        break;
                    }
                    _ => {}
                }
                m += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(src: &str) -> FileAst {
        FileAst::parse(Path::new("test.rs"), src)
    }

    fn fn_named<'a>(ast: &'a FileAst, name: &str) -> &'a FnDef {
        ast.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn {name} in {:?}", ast.fns))
    }

    #[test]
    fn items_and_methods_are_found() {
        let src = r#"
            pub struct S { x: u32 }
            impl S {
                pub fn get(&self) -> u32 { self.helper() }
                fn helper(&self) -> u32 { self.x }
            }
            pub fn free() -> u32 { imported::call(1) }
        "#;
        let ast = parse(src);
        assert_eq!(ast.fns.len(), 3);
        let get = fn_named(&ast, "get");
        assert_eq!(get.self_ty.as_deref(), Some("S"));
        assert!(matches!(
            &get.events[0].kind,
            EventKind::Call(Callee::Method { name, .. }) if name == "helper"
        ));
        let free = fn_named(&ast, "free");
        assert!(matches!(
            &free.events[0].kind,
            EventKind::Call(Callee::Path { segments }) if segments == &["imported", "call"]
        ));
    }

    #[test]
    fn trait_impl_self_ty_is_the_target() {
        let src = "impl fmt::Display for Wrapper { fn fmt(&self) { self.go() } }";
        let ast = parse(src);
        assert_eq!(fn_named(&ast, "fmt").self_ty.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn non_atomic_load_is_a_plain_call() {
        let src = "fn f() { reader.load(path); }";
        let ast = parse(src);
        assert!(matches!(
            &fn_named(&ast, "f").events[0].kind,
            EventKind::Call(Callee::Method { name, .. }) if name == "load"
        ));
    }

    #[test]
    fn lock_scope_ends_at_block_close() {
        let src = r#"
            fn f(s: &S) {
                {
                    let g = s.inner.lock().unwrap_or_else(|e| e.into_inner());
                    touch(&g);
                }
                after();
            }
        "#;
        let ast = parse(src);
        let f = fn_named(&ast, "f");
        let lock = f
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Lock { key, scope_end } => Some((key.clone(), *scope_end)),
                _ => None,
            })
            .expect("lock event");
        assert_eq!(lock.0, "inner");
        let after = f
            .events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call(c) if c.name() == "after"))
            .expect("after call");
        assert!(lock.1 < after.tok, "guard scope must close before after()");
    }

    #[test]
    fn for_loops_and_hash_names() {
        let src = r#"
            use std::collections::HashMap;
            fn f(payloads: &HashMap<u32, u32>) -> u32 {
                let mut total = 0;
                for (k, v) in payloads {
                    total += k + v;
                }
                for x in payloads.keys() {
                    total += x;
                }
                total
            }
        "#;
        let ast = parse(src);
        assert!(ast.hash_names.contains("payloads"));
        let f = fn_named(&ast, "f");
        let for_iters: Vec<&str> = f
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::ForIter { name } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(for_iters, vec!["payloads"]);
        assert!(f
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Call(c) if c.name() == "keys")));
    }

    #[test]
    fn cfg_test_bodies_produce_no_events() {
        let src = r#"
            fn lib() { real(); }
            #[cfg(test)]
            mod tests {
                fn t() { panic!("boom"); }
            }
        "#;
        let ast = parse(src);
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "lib");
    }

    #[test]
    fn receiver_chain_through_call_results() {
        let src = "fn f(&self) { self.cell(name).fetch_add(1, Ordering::Relaxed); }";
        let ast = parse(src);
        let recv = fn_named(&ast, "f")
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Call(Callee::Method { name, recv }) if name == "fetch_add" => Some(recv),
                _ => None,
            });
        assert_eq!(recv.expect("fetch_add call"), &["self", "cell"]);
    }

    #[test]
    fn malformed_input_does_not_panic() {
        for src in [
            "fn",
            "fn (",
            "impl { fn }",
            "fn f( { ) }",
            "for in {",
            "let x: HashMap<",
            "a.b.(((",
            "}}}}",
            "fn f() { x.lock( }",
        ] {
            let ast = parse(src);
            for f in &ast.fns {
                for e in &f.events {
                    assert!(e.line >= 1 && e.line <= ast.max_line);
                    assert!(e.tok <= ast.tokens.len());
                }
            }
        }
    }
}
