//! The compiler-enforced rules hold for every crate: each opts into
//! `[workspace.lints]`, each crate-local `clippy.toml` keeps every ban of
//! the root one (DESIGN §3.10), no crate declares a cargo feature, so
//! the build every suite tests is the one that ships, the certifier
//! does not depend on the telemetry crate, and the topology and conflict
//! crates keep one breadth-first search.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(workspace_root().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source dir is readable") {
        let path = entry.expect("source dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every `path = "…"` of the `key = [ … ]` array in a clippy.toml.
fn banned_paths(toml: &str, key: &str) -> Vec<String> {
    let Some(start) = toml.find(&format!("{key} = [")) else {
        return Vec::new();
    };
    let body = &toml[start..];
    let body = &body[..body.find("\n]").expect("array is closed")];
    body.split("path = \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("path is quoted")].to_string())
        .collect()
}

#[test]
fn every_crate_opts_into_workspace_lints() {
    // `forbid(unsafe_code)`, the print and suppression lints live in
    // `[workspace.lints]`; a crate that does not opt in escapes all of
    // them, so a new crate must carry `[lints] workspace = true`.
    let dirs = crate_dirs();
    assert!(dirs.len() >= 13, "found only {} crates", dirs.len());
    for dir in dirs {
        let manifest = dir.join("Cargo.toml");
        let toml = fs::read_to_string(&manifest).expect("manifest is readable");
        let mut lines = toml.lines().map(str::trim);
        let opted_in = lines.any(|l| l == "[lints]") && lines.next() == Some("workspace = true");
        assert!(
            opted_in,
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}

#[test]
fn no_crate_declares_a_feature() {
    // A feature is a second build: code behind it is tested only where a
    // run turns it on. Suites that need more checking (the certifier, say)
    // do it from the outside instead.
    for dir in crate_dirs() {
        let manifest = dir.join("Cargo.toml");
        let toml = fs::read_to_string(&manifest).expect("manifest is readable");
        for line in toml.lines().map(str::trim) {
            assert!(
                line != "[features]" && !line.contains("optional = true"),
                "{} declares a feature: `{line}`",
                manifest.display()
            );
        }
    }
}

#[test]
fn the_certifier_does_not_depend_on_telemetry() {
    // A certificate is a pure function of its inputs: the certifier
    // reports a violation by returning it, never through a process-global
    // channel, so it needs nothing of `wimesh-obs`.
    let toml = fs::read_to_string(workspace_root().join("crates/check/Cargo.toml"))
        .expect("wimesh-check manifest is readable");
    let deps = &toml[toml.find("[dependencies]").expect("has [dependencies]")..];
    let deps = deps[1..].find("\n[").map_or(deps, |end| &deps[..=end]);
    assert!(
        !deps.contains("wimesh-obs"),
        "wimesh-check's [dependencies] name wimesh-obs:\n{deps}"
    );
}

#[test]
fn crate_clippy_tomls_repeat_every_root_ban() {
    let root = fs::read_to_string(workspace_root().join("clippy.toml")).expect("root clippy.toml");
    // The bans that replaced the deterministic-iteration and lock-order
    // rules (DESIGN §3.10).
    let types = banned_paths(&root, "disallowed-types");
    let methods = banned_paths(&root, "disallowed-methods");
    for (have, path) in [
        (&types, "std::collections::HashMap"),
        (&types, "std::collections::HashSet"),
        (&methods, "std::sync::Mutex::lock"),
        (&methods, "std::sync::Mutex::try_lock"),
    ] {
        assert!(
            have.iter().any(|p| p == path),
            "root clippy.toml lacks {path}"
        );
    }
    // Clippy reads only the nearest clippy.toml: a crate-local file
    // silently replaces the root's bans unless it repeats them.
    let mut local_files = 0;
    for dir in crate_dirs() {
        let Ok(local) = fs::read_to_string(dir.join("clippy.toml")) else {
            continue;
        };
        local_files += 1;
        for (key, required) in [
            ("disallowed-types", &types),
            ("disallowed-methods", &methods),
        ] {
            let have = banned_paths(&local, key);
            for path in required {
                assert!(
                    have.contains(path),
                    "{}/clippy.toml drops the root's {key} ban on {path}",
                    dir.display()
                );
            }
        }
    }
    assert!(local_files > 0, "no crate-local clippy.toml was checked");
}

#[test]
fn deterministic_crates_suppress_no_method_ban() {
    // sim, emu and node run on the virtual clock: their clippy.toml bans
    // `Instant::now` and `SystemTime::now` with no exception, so no
    // source file there may `#[expect]` its way past a method ban.
    let mut files = Vec::new();
    for krate in ["sim", "emu", "node"] {
        rust_files(
            &workspace_root().join("crates").join(krate).join("src"),
            &mut files,
        );
    }
    assert!(files.len() >= 3, "found only {} source files", files.len());
    for file in files {
        let text = fs::read_to_string(&file).expect("source file is readable");
        assert!(
            !text.contains("disallowed_methods"),
            "{} suppresses a method ban",
            file.display()
        );
    }
}

#[test]
fn topology_and_conflict_keep_one_breadth_first_search() {
    // Every hop question (routes, the gateway tree, k-hop neighbourhoods,
    // protocol-model interference) is answered by `MeshTopology::bfs`;
    // a second queue-driven loop is a second copy of that search.
    let mut files = Vec::new();
    for krate in ["topology", "conflict"] {
        rust_files(
            &workspace_root().join("crates").join(krate).join("src"),
            &mut files,
        );
    }
    assert!(files.len() >= 3, "found only {} source files", files.len());
    let queues: Vec<String> = files
        .iter()
        .filter(|file| {
            let text = fs::read_to_string(file).expect("source file is readable");
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            code.contains("VecDeque")
        })
        .map(|file| file.display().to_string())
        .collect();
    assert_eq!(queues.len(), 1, "files naming VecDeque: {queues:?}");
}
