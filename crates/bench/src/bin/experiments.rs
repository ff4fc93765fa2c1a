//! Regenerates the paper's figures and tables.
//!
//! ```text
//! cargo run -p wimesh-bench --release --bin experiments            # all
//! cargo run -p wimesh-bench --release --bin experiments -- e4 e5  # some
//! cargo run -p wimesh-bench --release --bin experiments -- --quick
//! cargo run -p wimesh-bench --release --bin experiments -- e1 --trace e1.jsonl
//! cargo run -p wimesh-bench --release --bin experiments -- e1 --summary
//! cargo run -p wimesh-bench --release --bin experiments -- slo_audit --trace t.jsonl --trace-tree
//! ```
//!
//! CSV outputs land in `results/`, along with one `BENCH_<id>.json`
//! timing artifact per experiment; a `--quick` run is a smoke test, not a
//! result, and writes under the system temp directory instead. An unknown
//! id (or `--help`) prints the id list and exits 2 before anything is
//! written. `--trace <file>` streams spans and
//! metric snapshots as JSONL via `wimesh-obs`; `--trace-tree` (with
//! `--trace`) additionally renders the causal trace forest captured in
//! that file as ASCII trees after the run; `--summary` prints a
//! human-readable metrics digest after each experiment.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a CLI: progress goes to stdout, usage and failures to stderr"
)]

use std::process::ExitCode;
use std::sync::Arc;

use wimesh_bench::{experiment, Ctx, Experiment, EXPERIMENTS};
use wimesh_obs::json::Object;
use wimesh_obs::sink::{JsonlSink, NoopSink};

/// Where a run writes: the committed `results/` for full sweeps, a
/// directory of its own under the system temp directory for `--quick`
/// runs, whose shrunken sweeps must not overwrite committed results.
fn out_dir(quick: bool) -> std::path::PathBuf {
    if quick {
        std::env::temp_dir().join("wimesh-results-quick")
    } else {
        "results".into()
    }
}

/// The experiments named on the command line (all of them for none), or
/// the first word that names none.
fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, &str> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    ids.iter()
        .map(|id| experiment(id).ok_or(id.as_str()))
        .collect()
}

/// Warns about `BENCH_*.json` files in the output directory that no
/// known experiment id accounts for — stale artifacts from a renamed or
/// removed experiment would otherwise masquerade as current results.
fn warn_orphaned_artifacts(ctx: &Ctx) {
    let Ok(entries) = std::fs::read_dir(&ctx.out_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(id) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
        else {
            continue;
        };
        if experiment(id).is_none() {
            eprintln!(
                "warning: orphaned artifact {} (no experiment id \"{id}\"); \
                 delete it or rename the experiment back",
                entry.path().display()
            );
        }
    }
}

/// Writes `results/BENCH_<id>.json` so CI and scripts can read
/// per-experiment outcomes without scraping stdout.
fn write_artifact(ctx: &Ctx, id: &str, ok: bool, wall_s: f64) {
    let mut json = String::with_capacity(96);
    Object::new(&mut json)
        .str("experiment", id)
        .bool("ok", ok)
        .f64("wall_s", wall_s)
        .bool("quick", ctx.quick);
    if let Err(e) = ctx.write_artifact(id, &json) {
        eprintln!("warning: could not write BENCH_{id}.json: {e}");
    }
}

/// Runs one experiment end to end: span, timing, artifact, optional
/// summary. Returns `false` on failure.
fn run_one(ctx: &Ctx, &(id, span, run): &Experiment, summary: bool) -> bool {
    println!("\n########## experiment {id} ##########");
    let start = std::time::Instant::now();
    let started_at = std::time::SystemTime::now();
    let ok = {
        let _span = wimesh_obs::span!(span);
        match run(ctx) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                false
            }
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    if ok {
        println!("  ({id} finished in {wall_s:.1} s)");
    }
    // Experiments may emit their own richer `BENCH_<id>.json`
    // (e.g. runtime_faults); don't clobber it with the generic
    // timing artifact.
    let own_artifact = ctx.out_dir.join(format!("BENCH_{id}.json"));
    let wrote_own = std::fs::metadata(&own_artifact)
        .and_then(|m| m.modified())
        .map(|t| t >= started_at)
        .unwrap_or(false);
    if !wrote_own {
        write_artifact(ctx, id, ok, wall_s);
    }
    if summary {
        println!("{}", wimesh_obs::summary());
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut summary = false;
    let mut trace: Option<String> = None;
    let mut trace_tree = false;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--summary" => summary = true,
            "--trace-tree" => trace_tree = true,
            "--trace" => match it.next() {
                Some(path) => trace = Some(path),
                None => {
                    eprintln!("--trace requires a file path argument");
                    return ExitCode::FAILURE;
                }
            },
            other => ids.push(other.to_string()),
        }
    }
    let selected = match select(&ids) {
        Ok(selected) => selected,
        Err(unknown) => {
            if !matches!(unknown, "-h" | "--help") {
                eprintln!("unknown experiment id: {unknown}");
            }
            let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
            eprintln!(
                "usage: experiments [ID...] [--quick] [--summary] [--trace FILE [--trace-tree]]\n\
                 ids: {}",
                known.join(" ")
            );
            return ExitCode::from(2);
        }
    };

    // --trace streams to a JSONL file; --summary alone still needs
    // recording enabled, so it installs the no-op sink.
    if let Some(path) = &trace {
        match JsonlSink::create(path) {
            Ok(sink) => wimesh_obs::install(Arc::new(sink)),
            Err(e) => {
                eprintln!("cannot open trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if summary {
        wimesh_obs::install(Arc::new(NoopSink));
    }

    let ctx = Ctx::new(out_dir(quick), quick);
    let mut failed = false;
    for experiment in selected {
        failed |= !run_one(&ctx, experiment, summary);
    }
    warn_orphaned_artifacts(&ctx);
    if wimesh_obs::is_enabled() {
        wimesh_obs::finish();
    }
    // --trace-tree: reconstruct and render the causal trace forest
    // captured in the (now flushed) --trace file.
    if trace_tree {
        let Some(path) = &trace else {
            eprintln!("--trace-tree requires --trace <file>");
            return ExitCode::FAILURE;
        };
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let forest = wimesh_obs::trace::TraceForest::from_jsonl(&text);
                println!(
                    "\n########## causal traces ({} trees) ##########\n{}",
                    forest.len(),
                    forest.render_limited(20)
                );
            }
            Err(e) => {
                eprintln!("cannot read trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
