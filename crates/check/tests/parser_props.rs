//! Robustness properties of the skeleton parser: every real source file
//! in the workspace parses with all spans in bounds, and arbitrary
//! (including malformed) input never panics the lexer or parser.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use wimesh_check::parse::FileAst;

fn workspace_rs_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates"), root.join("vendor")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Every event and function a parse produces must point inside the file:
/// token indices within the token stream, lines within the line count.
fn assert_well_formed(ast: &FileAst, label: &str) {
    for f in &ast.fns {
        assert!(
            f.line >= 1 && f.line <= ast.max_line.max(1),
            "{label}: fn `{}` line {} out of bounds (max {})",
            f.name,
            f.line,
            ast.max_line
        );
        for e in &f.events {
            assert!(
                e.tok < ast.tokens.len(),
                "{label}: event token index {} out of bounds ({} tokens)",
                e.tok,
                ast.tokens.len()
            );
            assert!(
                e.line >= 1 && e.line <= ast.max_line.max(1),
                "{label}: event line {} out of bounds (max {})",
                e.line,
                ast.max_line
            );
        }
    }
}

#[test]
fn every_workspace_file_parses_with_spans_in_bounds() {
    let files = workspace_rs_files();
    assert!(
        files.len() >= 100,
        "workspace walk looks broken: only {} files",
        files.len()
    );
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable source");
        let ast = FileAst::parse(&path, &text);
        assert_well_formed(&ast, &path.display().to_string());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary character soup: the parser must neither panic nor
    /// produce out-of-bounds spans.
    #[test]
    fn arbitrary_input_never_panics(
        codes in proptest::collection::vec(any::<u32>(), 0..512)
    ) {
        let src: String = codes
            .into_iter()
            .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{FFFD}'))
            .collect();
        let ast = FileAst::parse(Path::new("fuzz.rs"), &src);
        assert_well_formed(&ast, "fuzz");
    }

    /// Rust-shaped soup: nested braces, dots, calls and keywords — the
    /// structured fragments most likely to confuse a skeleton parser.
    #[test]
    fn rust_shaped_input_never_panics(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("fn f".to_string()),
                Just("impl T ".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just("x.lock()".to_string()),
                Just(".unwrap()".to_string()),
                Just("for k in m ".to_string()),
                Just("let m: HashMap<u32, u32> = ".to_string()),
                Just("a.load(Ordering::Acquire)".to_string()),
                Just("// check: allow(lock-order-consistency, reason = \"r\")".to_string()),
                Just("\n".to_string()),
                Just("\"str { ) \"".to_string()),
                Just("#[cfg(test)]".to_string()),
                Just("::<".to_string()),
                Just(">".to_string()),
            ],
            0..64,
        )
    ) {
        let src = parts.concat();
        let ast = FileAst::parse(Path::new("fuzz.rs"), &src);
        assert_well_formed(&ast, "rust-shaped fuzz");
    }
}
