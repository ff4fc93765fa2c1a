//! The `wimesh-check` command-line interface.
//!
//! ```text
//! wimesh-check lint [--workspace | --root <dir>]
//! wimesh-check rules
//! ```
//!
//! `lint` runs every rule over `<root>/crates` (the enclosing workspace
//! by default) and exits 0 when clean, 1 when any diagnostic survives, 2
//! on usage or I/O errors — so `verify.sh` can gate on it directly.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a CLI: findings go to stdout, usage errors to stderr"
)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wimesh_check::{lint_workspace, CheckError, LintConfig, Rule};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("wimesh-check: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("lint") => lint_command(&args[1..]),
        Some("rules") => {
            for rule in Rule::ALL {
                println!("{:<30} {}", rule.name(), rule.summary());
            }
            Ok(true)
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
        None => Err(USAGE.to_string()),
    }
}

const USAGE: &str = "usage:
  wimesh-check lint [--workspace | --root <dir>]
  wimesh-check rules";

fn lint_command(args: &[String]) -> Result<bool, String> {
    // `--workspace` names the default: the workspace enclosing the cwd.
    let mut root: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workspace" => root = None,
            "--root" => {
                let dir = iter
                    .next()
                    .ok_or_else(|| format!("--root needs a directory\n{USAGE}"))?;
                root = Some(PathBuf::from(dir));
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
            find_workspace_root(&cwd).map_err(|e| e.to_string())?
        }
    };
    let report = lint_workspace(&root, &LintConfig::default()).map_err(|e| e.to_string())?;
    for diag in &report.diagnostics {
        println!("{diag}");
    }
    println!(
        "wimesh-check: {} diagnostic(s), {} suppressed, {} crate(s), {} file(s)",
        report.diagnostics.len(),
        report.suppressed,
        report.crates_scanned,
        report.files_scanned
    );
    Ok(report.is_clean())
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
fn find_workspace_root(start: &Path) -> Result<PathBuf, CheckError> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|source| CheckError::Io {
                path: manifest.clone(),
                source,
            })?;
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Ok(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    Err(CheckError::NoWorkspaceRoot {
        start: start.to_path_buf(),
    })
}
