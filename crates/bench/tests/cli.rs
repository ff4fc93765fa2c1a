//! The `experiments` command line: what it refuses, and where it writes.
//!
//! Each test runs the binary from an empty directory of its own, with the
//! system temp directory pointed inside it, so whatever the run leaves
//! behind is there to be listed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// An empty working directory for one test, removed on drop.
struct Sandbox(PathBuf);

impl Sandbox {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("wimesh-cli-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("tmp")).expect("create sandbox");
        Self(dir)
    }

    fn experiments(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .current_dir(&self.0)
            .env("TMPDIR", self.0.join("tmp"))
            .output()
            .expect("run experiments")
    }

    /// Everything under the sandbox except the (possibly empty) `tmp/`.
    fn files(&self) -> Vec<PathBuf> {
        fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
            for entry in std::fs::read_dir(dir).expect("list").flatten() {
                match entry.path() {
                    p if p.is_dir() => walk(&p, out),
                    p => out.push(p),
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.0, &mut out);
        out.sort();
        out
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn unknown_ids_and_help_exit_2_before_anything_is_written() {
    let sandbox = Sandbox::new("usage");
    for args in [
        &["--help"][..],
        &["-h"],
        &["no_such_id"],
        // One bad word refuses the whole run, known ids and trace file
        // included.
        &["e5", "e55", "--quick", "--trace", "trace.jsonl"],
    ] {
        let out = sandbox.experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(stderr.contains("approx_admission"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(sandbox.files(), Vec::<PathBuf>::new(), "{args:?}");
    }
}

#[test]
fn quick_runs_write_under_the_temp_dir_not_results() {
    let sandbox = Sandbox::new("quick");
    let out = sandbox.experiments(&["e5", "--quick"]);
    assert!(out.status.success(), "{out:?}");
    let quick = sandbox.0.join("tmp").join("wimesh-results-quick");
    assert_eq!(
        sandbox.files(),
        [quick.join("BENCH_e5.json"), quick.join("e5.csv")]
    );
    assert!(!sandbox.0.join("results").exists());
}
