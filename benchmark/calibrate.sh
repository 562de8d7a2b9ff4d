#!/usr/bin/env bash
# Measures run-to-run spread and writes the bounds into BENCHMARK.json.
#   benchmark/calibrate.sh [--runs 10] [--seconds S] [--first-seed 1] [--dry-run]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 "$here/tools/bench_tools.py" calibrate "$@"
