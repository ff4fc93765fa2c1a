//! The lint pass over the real workspace: the production configuration
//! holds, every crate opts into the workspace's compiler lints (the
//! token rules' replacement, DESIGN §3.10), and findings are attributed
//! to the offending `file:line`.

use std::path::Path;

use wimesh_check::{lint_crate, lint_workspace, LintConfig};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

#[test]
fn violations_are_attributed_to_the_offending_file() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sem/locks-bad");
    let report = lint_crate(&fixture, &LintConfig::default()).unwrap();
    assert!(!report.is_clean());
    for diag in &report.diagnostics {
        assert!(
            diag.path.ends_with("src/lib.rs"),
            "diagnostic points at {}",
            diag.path.display()
        );
        let rendered = diag.to_string();
        assert!(
            rendered.contains(&format!(":{}: [{}]", diag.line, diag.rule)),
            "display format regressed: {rendered}"
        );
    }
}

#[test]
fn production_config_holds_over_the_real_workspace() {
    // The acceptance gate: the shipped tree lints clean under the
    // default (production) configuration — same invocation verify.sh
    // runs via the CLI.
    let root = workspace_root();
    let report = lint_workspace(root, &LintConfig::default()).unwrap();
    assert!(
        report.is_clean(),
        "workspace lint regressed:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.crates_scanned >= 13);

    // `forbid(unsafe_code)`, the print and suppression lints live in
    // `[workspace.lints]`; a crate that does not opt in escapes all of
    // them, so a new crate must carry `[lints] workspace = true`.
    let mut manifests = 0;
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        let Ok(toml) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let mut lines = toml.lines().map(str::trim);
        let opted_in = lines.any(|l| l == "[lints]") && lines.next() == Some("workspace = true");
        assert!(
            opted_in,
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
        manifests += 1;
    }
    assert_eq!(manifests, report.crates_scanned);
}
