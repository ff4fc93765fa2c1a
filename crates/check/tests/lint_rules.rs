//! Self-tests for the token rules: every one fires (with exact
//! `file:line` locations) on the deliberately-broken fixture crate,
//! stays silent on the clean one, and the production configuration of
//! the whole pass holds over the real workspace tree.

use std::path::{Path, PathBuf};

use wimesh_check::{lint_crate, lint_workspace, Diagnostic, LintConfig, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Config that opts the fixture crates into every token rule.
fn fixture_config() -> LintConfig {
    LintConfig {
        unwrap_adopted: vec!["fixture-violations".into(), "fixture-clean".into()],
        deterministic: vec!["fixture-violations".into(), "fixture-clean".into()],
        println_exempt: vec![],
        traced_sends: vec!["fixture-violations".into(), "fixture-clean".into()],
        ..LintConfig::default()
    }
}

fn lines_for(diags: &[Diagnostic], rule: Rule) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn violations_fixture_trips_every_rule_at_the_right_lines() {
    let report = lint_crate(&fixture("violations"), &fixture_config()).unwrap();
    assert_eq!(report.crates_scanned, 1);
    assert_eq!(report.files_scanned, 1);
    // The bare and the reasoned allow each suppress one unwrap.
    assert_eq!(report.suppressed, 2);

    let d = &report.diagnostics;
    assert_eq!(lines_for(d, Rule::NoUnwrapInLib), vec![15, 16, 17]);
    assert_eq!(lines_for(d, Rule::NoWallclockInDeterministic), vec![23, 24]);
    assert_eq!(lines_for(d, Rule::NoPrintlnInLib), vec![29, 30]);
    assert_eq!(lines_for(d, Rule::ForbidUnsafeEverywhere), vec![1]);
    assert_eq!(lines_for(d, Rule::ErrorEnumsImplError), vec![8]);
    assert_eq!(lines_for(d, Rule::NoUntracedFabricSend), vec![44]);
    // The bare directive (78) and the one naming a deleted rule (91).
    assert_eq!(lines_for(d, Rule::AllowWithoutReason), vec![78, 91]);
    assert_eq!(d.len(), 12, "unexpected extra diagnostics: {d:#?}");
}

#[test]
fn violations_are_attributed_to_the_offending_file() {
    let report = lint_crate(&fixture("violations"), &fixture_config()).unwrap();
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
fn decoys_do_not_trip_the_lexer_rules() {
    // Strings mentioning `.unwrap()`, identifiers named `unwrap`,
    // `Instant` in type position, a ctx-carrying `Deliver` definition,
    // `#[cfg(test)]` bodies (including an untraced test-only Deliver)
    // and a reasoned allow directive are all in the violations fixture;
    // none may produce findings beyond the twelve asserted above.
    let expected: &[u32] = &[1, 8, 15, 16, 17, 23, 24, 29, 30, 44, 78, 91];
    let report = lint_crate(&fixture("violations"), &fixture_config()).unwrap();
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| expected.contains(&d.line)),
        "a decoy was flagged: {:#?}",
        report.diagnostics
    );
}

#[test]
fn clean_fixture_is_clean_and_allow_directives_suppress() {
    let report = lint_crate(&fixture("clean"), &fixture_config()).unwrap();
    assert!(
        report.is_clean(),
        "clean fixture flagged: {:#?}",
        report.diagnostics
    );
    // One preceding-line and one same-line `// check: allow(..)`.
    assert_eq!(report.suppressed, 2);
}

#[test]
fn production_config_holds_over_the_real_workspace() {
    // The acceptance gate: the shipped tree lints clean under the
    // default (production) configuration, every rule — same invocation
    // verify.sh runs via the CLI.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
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
}
