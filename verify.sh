#!/usr/bin/env bash
# Full local verification: build, tests, lints, formatting.
# Run from the workspace root before sending a PR.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo build --examples
cargo test -q
# The longest-path kernel behind every schedule must agree with the
# reference Bellman-Ford (start times, makespans, errors, real cycles).
cargo test -q -p wimesh-tdma --test kernel_equivalence
# The conflict predicate is written once, in wimesh-conflict: a graph
# grown and shrunk one vertex at a time, through `insert_vertex` or through
# the per-link lists a session memoises, must hold exactly the edges of the
# pairwise build over the same vertices, and the pairwise test
# `links_conflict` (the distributed MAC's rule) must answer every link
# pair as the graph does, on chains, grids and random unit-disk meshes
# under every interference model.
cargo test -q -p wimesh-conflict --test incremental_conflicts
# The exact slot search (heaviest-clique bound, warm order, oracle calls
# inside the gap) must return the verdicts and minimal regions of a
# bound-free linear scan over the same oracle after any churn, and the
# suite certifies every schedule the session publishes. (The oracle
# itself is pinned to the model it replaced by wimesh-tdma's
# milp_model_equivalence suite, part of `cargo test -q` above.)
cargo test -q -p wimesh --test exact_search_equivalence
# A branch & bound child re-optimised from its parent's tableau (two rhs
# updates and dual simplex pivots) must agree with the cold two-phase
# solve of the same bounds on verdict and objective, and its point must
# satisfy every row and bound, after every move of random bound chains
# over random bounded mixed models.
cargo test -q -p wimesh-milp reoptimise_equivalence
# The distributed-runtime scenario suite is the end-to-end gate for the
# fault-handling stack; run it by name so a filter typo can't skip it.
cargo test -q -p wimesh-node --test node_runtime
# Approximation-mode admission: the soundness property suite (every
# greedy/LP-rounded schedule certifies, exact never needs more slots on
# the accepted set, approx_gap bounds the true gap), then the benchmark
# end to end with its certification-per-event and acceptance gates.
cargo test -q -p wimesh --test approx_soundness
cargo run -p wimesh-bench --release --bin experiments -- approx_admission --quick
# The observability stream suite (sinks, concurrent JSONL writers, trace
# round-trips) and the end-to-end SLO audit: causal trace reconstruction,
# flight-recorder dump, zero violated verdicts for admitted flows and the
# mutation probe that must be flagged. Each audit phase owns its ledger
# (the runtime's, or a fresh tracker); none is process-global.
cargo test -q -p wimesh-obs --test obs_stream
cargo run -p wimesh-bench --release --bin experiments -- slo_audit --quick
# The admission gateway service: batched front-end semantics, the
# coalescing contract of a gateway served by its waiters (a window of
# k <= max_batch requests is one batch in submission order, `batches`
# counts the waits that found their reply missing, one request sequence
# writes one journal), that no request is stranded (20 000 lockstep
# requests and eight clients racing for a two-deep queue, every wait
# bounded so a request left in the queue fails instead of hanging), and
# the crash-point recovery harness (every line-boundary and torn-write
# truncation must recover certified or fail typed; a request the journal
# cannot hold is answered alone and never wedges recovery). The writer is
# fail-stop: a write that fails at any byte of a churn, inside a record
# or inside an auto-snapshot, must leave every later mutation refused and
# unapplied and the file recovering, certified, to the live state; a
# failed snapshot must not fail the mutation it follows; and a snapshot
# must stay `flows + 4` lines however many pairs it holds.
cargo test -q -p wimesh-svc --test service
cargo test -q -p wimesh-svc --test crash_recovery
# The journal decoder: equivalence with a substring decoder written
# without the cursor (taught the snapshot's integer columns in its own
# style, so the array format is held to an independent reading), fuzz
# (arbitrary text with array pieces and edited journals never panic,
# every recovery is certified), and recovery's blindness to what
# precedes the last snapshot.
cargo test -q -p wimesh-svc --test journal_decode
# One writer (`wimesh_obs::json::Object`) and one reader (`Cursor`) own
# the line format: seeded random journal records of every kind, trace
# lines and sink lines (quotes, backslashes, control and non-ASCII text,
# u32/u64 extremes, negative, subnormal and huge f64s) must read back
# into exactly what was written.
cargo test -q -p wimesh-svc --test jsonl_roundtrip
# The certifier must keep rejecting every mutated schedule (and a drift
# model it cannot bound, without panicking); every crate must opt into
# [workspace.lints], every crate-local clippy.toml must repeat the
# root's bans, and topology and conflict keep one breadth-first search.
# Run each suite by name so a filter typo can't skip one.
cargo test -q -p wimesh-check --test certifier_mutations
cargo test -q -p wimesh-check --test workspace_manifests
# The emulation pipeline must stay bit-deterministic under a fixed seed
# (the hash types it once iterated are banned by clippy below).
cargo test -q -p wimesh --test determinism
# History must not leak into verdicts: a session churned through admit,
# release-all and re-admit equals a fresh one placing the same flows
# (`MeshQos::admit`), and every schedule either side publishes certifies.
# Both sides are the one engine; the suites that hold it to references of
# their own are the next one (rank policies) and exact_search_equivalence
# above (ExactMilp).
cargo test -q -p wimesh --test session_equivalence
# The session's delta state (per-link demand, rank and start, per-flow
# records, inverse-delta roll-back) must equal the from-scratch pipeline
# it replaced — exported state and every delay bound, bit for bit, after
# every operation of random churn — and every schedule it publishes must
# certify against demands aggregated afresh from the admitted flows.
# The engine never certifies itself: these suites hand each outcome to
# the certifier through crates/core/tests/support, and there is no cargo
# feature anywhere in the workspace, so what they test is the one build.
cargo test -q -p wimesh --test session_delta_equivalence
# The repository benchmark (BENCHMARK.json) is a workspace of its own
# that the root build does not see: its harness tests (metric names in
# step with BENCHMARK.json, generators, percentile maths) run here.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# Clippy over lib and bin targets carries the repo's former lint rules:
# [workspace.lints] (forbid unsafe_code, print_stdout/print_stderr/
# dbg_macro, allow_attributes and allow_attributes_without_reason, so
# every suppression is a reasoned #[expect] and a stale one fails),
# unwrap_used/expect_used at the six adopted crate roots, and the root
# clippy.toml's bans: HashMap/HashSet (random iteration order) and raw
# Mutex::lock/try_lock (workspace mutexes go through
# wimesh_obs::sync::lock, whose debug-build held-lock check every test
# above ran), and std::env::var/var_os (configuration is an explicit
# parameter, never a hidden environment knob). sim, emu and node repeat those bans in their own
# clippy.toml beside Instant::now and SystemTime::now, and svc beside
# thread::spawn and thread::Builder::spawn (the gateway starts no
# thread). No --all-targets: tests may unwrap, take raw locks and spawn.
cargo clippy --workspace -- -D warnings
cargo fmt --check
# API docs must build warning-clean (covers the vendored stand-ins too).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
# Nothing above may rewrite a committed result: `--quick` runs write under
# the system temp directory.
test -z "$(git status --porcelain results/)"
# Every committed result must be what this tree writes. A full
# `experiments` run writes results/ relative to its working directory, so
# it runs from a scratch directory and its CSVs are compared with
# results/ byte for byte, after cutting the columns that time a solve on
# the host and so differ run to run (found by running one build twice):
# e9's exact_ms, approx_admission's median_us and speedup. Of the JSON
# artifacts only runtime_faults' and slo_audit's are deterministic; the
# other BENCH_*.json record wall-clock timings (BENCH_approx_admission's
# medians among them) and are left out.
root="$(pwd)"
fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT
(cd "$fresh" && cargo run -q --release --manifest-path "$root/Cargo.toml" \
  -p wimesh-bench --bin experiments >/dev/null)
without() { # <csv> <space-separated header names to cut>
  awk -F, -v drop="$2" '
    NR == 1 { for (i = 1; i <= NF; i++) if ((" " drop " ") ~ (" " $i " ")) cut[i] = 1 }
    { line = ""; sep = ""
      for (i = 1; i <= NF; i++) if (!(i in cut)) { line = line sep $i; sep = "," }
      print line }' "$1"
}
for f in "$fresh"/results/*.csv; do
  test -e "results/$(basename "$f")"
done
for f in results/*.csv; do
  case "$(basename "$f" .csv)" in
    e9) timing="exact_ms" ;;
    approx_admission) timing="median_us speedup" ;;
    *) timing="" ;;
  esac
  diff <(without "$f" "$timing") <(without "$fresh/$f" "$timing")
done
cmp results/BENCH_runtime_faults.json "$fresh/results/BENCH_runtime_faults.json"
cmp results/BENCH_slo_audit.json "$fresh/results/BENCH_slo_audit.json"
echo "verify: all checks passed"
