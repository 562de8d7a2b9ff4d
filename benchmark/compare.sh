#!/usr/bin/env bash
# Compares two result sets under the bounds of BENCHMARK.json.
#   benchmark/compare.sh A/results.json B/results.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 "$here/tools/bench_tools.py" compare "$@"
