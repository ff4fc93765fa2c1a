//! The `wimesh-check` binary's exit codes, which `verify.sh` gates on:
//! 0 on a clean tree, 1 when any diagnostic survives, 2 on usage errors
//! (including the commands and flags deleted with the ratchet baseline);
//! and `rules` listing exactly the three call-graph rules.

use std::path::Path;
use std::process::Command;

fn exit_code(args: &[&str]) -> i32 {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    Command::new(env!("CARGO_BIN_EXE_wimesh-check"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("wimesh-check runs")
        .status
        .code()
        .expect("wimesh-check exits with a code")
}

#[test]
fn lint_workspace_exits_0_on_the_real_tree() {
    assert_eq!(exit_code(&["lint", "--workspace"]), 0);
}

#[test]
fn lint_exits_1_on_a_root_holding_a_bad_fixture() {
    // `lock-order-consistency` runs on every crate, so `locks-bad` fires
    // under the default configuration the CLI uses.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sem/locks-bad");
    let root = std::env::temp_dir().join(format!("wimesh-check-cli-{}", std::process::id()));
    let krate = root.join("crates/locks-bad");
    std::fs::create_dir_all(krate.join("src")).unwrap();
    for file in ["Cargo.toml", "src/lib.rs"] {
        std::fs::copy(fixture.join(file), krate.join(file)).unwrap();
    }
    let code = exit_code(&["lint", "--root", root.to_str().expect("utf-8 temp dir")]);
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(code, 1);
}

#[test]
fn rules_lists_exactly_the_three_call_graph_rules() {
    let out = Command::new(env!("CARGO_BIN_EXE_wimesh-check"))
        .arg("rules")
        .output()
        .expect("wimesh-check runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let names: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        names,
        [
            "journal-precedes-mutation",
            "lock-order-consistency",
            "deterministic-iteration"
        ]
    );
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &[][..],
        &["analyze", "--workspace"],
        &["lint", "--baseline", "crates/check/baseline.json"],
        &["lint", "--json"],
        &["lint", "--include-vendor"],
        &["lint", "--root"],
    ] {
        assert_eq!(exit_code(args), 2, "wimesh-check {args:?}");
    }
}
