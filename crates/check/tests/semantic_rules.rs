//! Self-tests for the call-graph rules: each fires at exact `file:line`
//! locations on its deliberately-broken fixture crate and stays silent
//! on the matching clean fixture (reasoned allows included); and the
//! trial that decided which rules to keep is re-run on the real tree.

use std::path::{Path, PathBuf};

use wimesh_check::{lint_crate, lint_workspace, Diagnostic, LintConfig, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/sem")
        .join(name)
}

/// Config that opts the semantic fixtures into their rules.
fn fixture_config() -> LintConfig {
    LintConfig {
        journaled: vec!["sem-journal-bad".into(), "sem-journal-ok".into()],
        deterministic_order: vec!["sem-determinism-bad".into(), "sem-determinism-ok".into()],
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
fn journal_rule_fires_on_every_unguarded_path() {
    let report = lint_crate(&fixture("journal-bad"), &fixture_config()).unwrap();
    let d = &report.diagnostics;
    // Direct mutation in an entry (26), raw mutation in a helper whose
    // caller never appends (32), an append AFTER the mutation (43), and
    // the same in a dispatcher arm whose earlier sibling arm appends (62).
    assert_eq!(
        lines_for(d, Rule::JournalPrecedesMutation),
        vec![26, 32, 43, 62],
        "unexpected journal findings: {d:#?}"
    );
    assert_eq!(d.len(), 4);
}

#[test]
fn journal_rule_accepts_direct_caller_and_allowed_guards() {
    let report = lint_crate(&fixture("journal-ok"), &fixture_config()).unwrap();
    assert!(
        report.is_clean(),
        "journal-ok flagged: {:#?}",
        report.diagnostics
    );
    // The replay path's reasoned allow.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn lock_rule_reports_both_sides_of_a_cycle_and_self_deadlock() {
    let report = lint_crate(&fixture("locks-bad"), &fixture_config()).unwrap();
    let d = &report.diagnostics;
    // The queue→stats witness (15), the reversed stats→queue witness
    // (24) and the stats re-entry (32).
    assert_eq!(
        lines_for(d, Rule::LockOrderConsistency),
        vec![15, 24, 32],
        "unexpected lock findings: {d:#?}"
    );
    assert_eq!(d.len(), 3);
    // Each cycle witness names the opposite site so both ends surface.
    let cycle: Vec<&Diagnostic> = d.iter().filter(|d| d.line != 32).collect();
    assert!(cycle.iter().all(|d| d.message.contains("reverse order at")));
}

#[test]
fn lock_rule_accepts_consistent_order_and_scoped_guards() {
    let report = lint_crate(&fixture("locks-ok"), &fixture_config()).unwrap();
    assert!(
        report.is_clean(),
        "locks-ok flagged: {:#?}",
        report.diagnostics
    );
}

#[test]
fn determinism_rule_fires_on_hash_iteration_feeding_order() {
    let report = lint_crate(&fixture("determinism-bad"), &fixture_config()).unwrap();
    let d = &report.diagnostics;
    // The branching for-loop (10), the `.keys()` chain collected in hash
    // order (18) and the serializing for-loop (24).
    assert_eq!(
        lines_for(d, Rule::DeterministicIteration),
        vec![10, 18, 24],
        "unexpected determinism findings: {d:#?}"
    );
    assert_eq!(d.len(), 3);
}

#[test]
fn determinism_rule_accepts_btree_reductions_lookups_and_allows() {
    let report = lint_crate(&fixture("determinism-ok"), &fixture_config()).unwrap();
    assert!(
        report.is_clean(),
        "determinism-ok flagged: {:#?}",
        report.diagnostics
    );
    // The debug dump's reasoned allow.
    assert_eq!(report.suppressed, 1);
}

/// One violation seeded into real workspace code: the first `from` in
/// `file` becomes `to`.
struct Seed {
    file: &'static str,
    from: &'static str,
    to: &'static str,
    rule: Rule,
    /// Findings of `rule` the seed must produce, all in `file`.
    findings: usize,
}

const SEEDS: &[Seed] = &[
    // Lock order: `span_closed` takes `histograms` under `spans`, the
    // reverse of `snapshot()`; both witness sites surface.
    Seed {
        file: "obs/src/metrics.rs",
        from: "    let mut spans = REGISTRY.spans.lock().unwrap_or_else(|e| e.into_inner());\n",
        to: "    let mut spans = REGISTRY.spans.lock().unwrap_or_else(|e| e.into_inner());\n    \
             let _h = REGISTRY.histograms.lock().unwrap_or_else(|e| e.into_inner());\n",
        rule: Rule::LockOrderConsistency,
        findings: 2,
    },
    // Each journaled mutation applied before its journal append.
    Seed {
        file: "svc/src/journaled.rs",
        from: "        self.journal(&JournalRecord::AdmitBatch(specs.to_vec()))?;\n        \
               let verdicts = self.session.admit_batch(specs)?;\n",
        to: "        let verdicts = self.session.admit_batch(specs)?;\n        \
             self.journal(&JournalRecord::AdmitBatch(specs.to_vec()))?;\n",
        rule: Rule::JournalPrecedesMutation,
        findings: 1,
    },
    Seed {
        file: "svc/src/journaled.rs",
        from: "        self.journal(&JournalRecord::Release(flow))?;\n        \
               let released = self.session.release(flow)?;\n",
        to: "        let released = self.session.release(flow)?;\n        \
             self.journal(&JournalRecord::Release(flow))?;\n",
        rule: Rule::JournalPrecedesMutation,
        findings: 1,
    },
    Seed {
        file: "svc/src/journaled.rs",
        from: "        self.journal(&JournalRecord::Rebalance)?;\n        \
               self.session.rebalance()?;\n",
        to: "        self.session.rebalance()?;\n        \
             self.journal(&JournalRecord::Rebalance)?;\n",
        rule: Rule::JournalPrecedesMutation,
        findings: 1,
    },
    // Hash order leaking into a result in the schedule crate.
    Seed {
        file: "tdma/src/lib.rs",
        from: "pub mod render;\n",
        to: "pub mod render;\n\
             pub fn seeded(map: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n    \
             let mut out = Vec::new();\n    for (k, _) in map {\n        out.push(*k);\n    }\n    \
             out\n}\n",
        rule: Rule::DeterministicIteration,
        findings: 1,
    },
];

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let dest = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_dir(&path, &dest);
        } else {
            std::fs::copy(&path, &dest).unwrap();
        }
    }
}

#[test]
fn production_config_holds_over_the_real_workspace() {
    // The trial of DESIGN §3.10, re-run: a scratch copy of the real
    // `svc`, `obs` and `tdma` crates lints clean under the production
    // configuration, and each violation seeded into that copy fires the
    // rule kept for it.
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let root = std::env::temp_dir().join(format!("wimesh-check-trial-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for name in ["svc", "obs", "tdma"] {
        let dest = root.join("crates").join(name);
        copy_dir(&crates.join(name).join("src"), &dest.join("src"));
        std::fs::copy(
            crates.join(name).join("Cargo.toml"),
            dest.join("Cargo.toml"),
        )
        .unwrap();
    }
    let config = LintConfig::default();
    let clean = lint_workspace(&root, &config).unwrap();
    assert!(clean.is_clean(), "unseeded copy flagged: {clean:#?}");
    assert_eq!(clean.crates_scanned, 3);

    for seed in SEEDS {
        let path = root.join("crates").join(seed.file);
        let original = std::fs::read_to_string(&path).unwrap();
        assert!(
            original.contains(seed.from),
            "seed anchor gone from {}: {:?}",
            seed.file,
            seed.from
        );
        std::fs::write(&path, original.replacen(seed.from, seed.to, 1)).unwrap();
        let report = lint_workspace(&root, &config).unwrap();
        std::fs::write(&path, &original).unwrap();

        let hits: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == seed.rule && d.path == path)
            .collect();
        assert_eq!(
            hits.len(),
            seed.findings,
            "{} seeded into {}: {:#?}",
            seed.rule,
            seed.file,
            report.diagnostics
        );
        assert_eq!(report.diagnostics.len(), seed.findings, "{report:#?}");
    }
    std::fs::remove_dir_all(&root).unwrap();
}
