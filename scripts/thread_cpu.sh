#!/usr/bin/env bash
# Per-thread CPU time of a command, summed by thread name.
#
#   scripts/thread_cpu.sh CMD [ARGS...]
#
# Runs CMD and samples /proc/<pid>/task/*/stat every 0.2 s until it
# exits, keeping each thread's latest user and system time (a thread
# that exits early keeps its last sample; the last sample of the rest is
# taken at most 0.2 s before the process exits). Then prints, on
# standard error, one line per thread name — `name threads user_s sys_s
# cpu_s` — sorted by CPU, and a `total` line. CMD's own output passes
# through untouched and its exit status is returned.
#
# Example, one benchmark workload (build it first with benchmark/run.sh):
#
#   scripts/thread_cpu.sh target/release/clsm-benchmark --workload ingest \
#       --seed 0xc15a --seconds 20 --trace 0 --repeat 0 --out /tmp/bench-out
set -euo pipefail

if [ $# -eq 0 ]; then
    sed -n '2,18p' "$0" >&2
    exit 2
fi

ticks="$(getconf CLK_TCK)"
declare -A name user sys

"$@" &
pid=$!
while kill -0 "$pid" 2>/dev/null; do
    for stat in /proc/"$pid"/task/*/stat; do
        line=""
        read -r line < "$stat" 2>/dev/null || continue
        [ -n "$line" ] || continue
        tid="${line%% *}"
        comm="${line#*(}"
        comm="${comm%)*}"
        # Fields after "pid (comm) ": state is the 1st, utime the 12th,
        # stime the 13th (fields 14 and 15 of proc(5)).
        read -r -a rest <<< "${line##*) }"
        name[$tid]="$comm"
        user[$tid]="${rest[11]}"
        sys[$tid]="${rest[12]}"
    done
    sleep 0.2
done
status=0
wait "$pid" || status=$?

for tid in "${!name[@]}"; do
    printf '%s\t%s\t%s\n' "${name[$tid]}" "${user[$tid]}" "${sys[$tid]}"
done | awk -F'\t' -v hz="$ticks" '
    { n[$1]++; u[$1] += $2; s[$1] += $3; tu += $2; ts += $3 }
    END {
        sort = "sort -k5,5nr"
        for (k in n) printf "%-16s %3d %8.2f %8.2f %8.2f\n", k, n[k], u[k] / hz, s[k] / hz, (u[k] + s[k]) / hz | sort
        close(sort)
        printf "%-16s %3s %8.2f %8.2f %8.2f\n", "total", "", tu / hz, ts / hz, (tu + ts) / hz
    }' >&2
exit "$status"
