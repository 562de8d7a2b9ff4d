#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--traced | --trace 0|1]
#                    [--runs N] [--out DIR]
#
# Without --workload: runs the four workloads untraced for the
# end-to-end metrics (then once more traced with --traced), prints every
# metric as `name value unit`, and writes DIR/results.json. --runs N
# repeats that N times with seeds N, N+1, ... so compare.sh has medians.
# With --workload: one run; the last line of standard output is the JSON
# object of the driver contract (see ../BENCHMARK.json).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
workload="" seed="0xc15a" seconds="30" trace="0" runs="1" out="$here/out"
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) trace="1"; shift ;;
        --runs) runs="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
started=$SECONDS

# Shared target directory: the driver names one, otherwise the repo's.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/clsm-benchmark"

mkdir -p "$out"
free_kib="$(df -Pk "$out" | awk 'NR==2 {print $4}')"
if [ "$free_kib" -lt $((4 * 1024 * 1024)) ]; then
    echo "run.sh: less than 4 GiB free under $out" >&2
    exit 1
fi
rustc_version="$(rustc --version 2>/dev/null || echo unknown)"

run_one() { # workload trace repeat
    "$bin" --workload "$1" --seed "$((seed + $3))" --seconds "$seconds" --trace "$2" \
        --repeat "$3" --out "$out" --rustc "$rustc_version"
}

status=0
if [ -n "$workload" ]; then
    run_one "$workload" "$trace" 0 || status=$?
else
    rm -f "$out"/*.json "$out"/*.ops_per_s
    for ((k = 0; k < runs; k++)); do
        for w in ingest prod-mix scan-rmw net-open; do
            run_one "$w" 0 "$k" || status=1
            if [ "$trace" = "1" ]; then
                run_one "$w" 1 "$k" || status=1
            fi
        done
    done
    "$bin" merge --out "$out"
    echo "# results: $out/results.json"
fi
rm -rf "$out/data"
echo "# total wall time $((SECONDS - started)) s" >&2
exit $status
