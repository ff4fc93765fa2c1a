#!/usr/bin/env bash
# Builds the benchmark, then runs the four workloads untraced (end-to-end
# metrics) and traced (per-layer metrics). Outputs land in benchmark/out/.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--selfcheck]
#
# --selfcheck runs both sets twice and fails if an end-to-end metric of
# one workload differs between the two untraced sets by more than its
# bound in BENCHMARK.json, or if a count that must repeat exactly (same
# seed, one request outstanding) differs between the two traced sets.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
selfcheck=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --selfcheck) selfcheck=1; shift ;;
        *) echo "usage: benchmark/run.sh [--seed N] [--seconds S] [--selfcheck]" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/wimesh-benchmark
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

# run_set <set name>: every workload untraced, then traced.
run_set() {
    mkdir -p "benchmark/out/$1"
    for trace in 0 1; do
        for w in $workloads; do
            echo "== $1: $w --trace $trace" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
                | tee "benchmark/out/$1/$w.trace$trace.txt"
        done
    done
}

run_set first
[ "$selfcheck" = 1 ] || exit 0
run_set second

python3 - <<'EOF'
import json, sys

manifest = json.load(open("BENCHMARK.json"))
# Counts that one seed fixes exactly, where one request is outstanding.
exact = {
    "gw_exact_chain8": ["core.oracle_calls", "core.search_iterations", "svc.records"],
    "recover_grid4": ["svc.records", "svc.replayed_records", "svc.journal_bytes_per_op"],
}

def result(set_name, workload, trace):
    with open(f"benchmark/out/{set_name}/{workload}.trace{trace}.txt") as f:
        return json.loads(f.read().strip().splitlines()[-1])

bad = 0
for w in (w["name"] for w in manifest["workloads"]):
    a, b = result("first", w, 0)["metrics"], result("second", w, 0)["metrics"]
    for m in manifest["end_to_end"]:
        x, y = a[m["name"]]["value"], b[m["name"]]["value"]
        apart = abs(x - y) / x
        ok = apart <= m["bound"]
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {w:16s} {m['name']:16s} {x:14.4f} {y:14.4f}  {apart * 100:5.1f}% apart, bound {m['bound'] * 100:.0f}%")
    a, b = result("first", w, 1)["metrics"], result("second", w, 1)["metrics"]
    for name in exact.get(w, []):
        ok = a[name]["value"] == b[name]["value"]
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {w:16s} {name:24s} {a[name]['value']} {b[name]['value']}  must repeat exactly")
sys.exit(1 if bad else 0)
EOF
