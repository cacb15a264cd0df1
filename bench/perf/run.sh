#!/usr/bin/env bash
# Builds and runs the repository benchmark (bench/perf/README.md).
#
#   bench/perf/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       One run of one workload. The last line of stdout is the JSON
#       result; --trace 1 also writes build-perf/perf-out/trace-W.json.
#   bench/perf/run.sh [--seed N] [--repeats R] [--seconds S]
#       Every workload R times (default 3), each run in a fresh process
#       with the workload order rotating every round, then the
#       per-workload medians, then one traced run per workload.
#   bench/perf/run.sh --self-test
#
# Build output goes to stderr; the build and every result file stay
# under build-perf/ at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-perf"
out="$build/perf-out"

workload="" seed=1 seconds=25 trace=0 repeats=3 selftest=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --repeats) repeats="$2"; shift 2 ;;
        --self-test) selftest=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# The workload files fix seed and mix count; no JUMANJI_* knob may
# reach the measured program.
for var in $(compgen -e); do
    case "$var" in JUMANJI_*) unset "$var" ;; esac
done

generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
cmake -S "$here" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" --parallel "$(nproc)" >&2

bin="$build/jumanji_perf"
cd "$root"

if [ "$selftest" = 1 ]; then
    exec "$bin" --self-test
fi

if [ -n "$workload" ]; then
    args=(--workload "$workload" --seed "$seed" --seconds "$seconds"
          --trace "$trace")
    if [ "$trace" = 1 ]; then args+=(--trace-out "$out/trace-$workload.json"); fi
    exec "$bin" "${args[@]}"
fi

names=()
for spec in "$here"/workloads/*.json; do names+=("$(basename "$spec" .json)"); done

rm -rf "$out/runs"
mkdir -p "$out/runs"
for ((r = 0; r < repeats; r++)); do
    for ((i = 0; i < ${#names[@]}; i++)); do
        w="${names[$(( (i + r) % ${#names[@]} ))]}"
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" |
            tail -n 1 >> "$out/runs/$w.jsonl"
    done
done

status=0
"$bin" --summarize "$out/runs" || status=1
for w in "${names[@]}"; do
    result="$("$bin" --workload "$w" --seed "$seed" --trace 1 \
        --trace-out "$out/trace-$w.json")"
    printf '%s\n' "$result" | head -n -1
    case "$(printf '%s\n' "$result" | tail -n 1)" in
        *'"correct":true'*) ;;
        *) echo "run.sh: traced run of $w was not correct" >&2; status=1 ;;
    esac
done
exit "$status"
