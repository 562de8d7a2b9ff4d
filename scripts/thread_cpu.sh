#!/usr/bin/env bash
# Per-thread CPU time and wake-ups of a command, summed by thread name,
# plus the process's syscall counts.
#
#   scripts/thread_cpu.sh CMD [ARGS...]
#
# Runs CMD and samples /proc/<pid>/task/*/{stat,status} and
# /proc/<pid>/io every 0.2 s until it exits, keeping each thread's latest
# user and system time and voluntary context switches, and the process's
# latest I/O counts (a thread that exits early keeps its last sample;
# the last sample of the rest is taken at most 0.2 s before the process
# exits). Then prints, on standard error, one line per thread name —
# `name threads user_s sys_s cpu_s vol_csw` — sorted by CPU; an
# `exited` line: the process's own user and system time from
# /proc/<pid>/stat, which keeps the time of threads already reaped,
# minus the sampled threads' sum — CPU of threads that ran and exited
# between two samples, or ran on after their last one (their context
# switches are not kept: `-`); a `total` line, the process's time, which
# the lines above add up to; and one `io` line with `syscw` and `syscr`
# (write- and read-like syscalls) and `wchar` (bytes written). CMD's own
# output passes through untouched and its exit status is returned.
#
# Example, one benchmark workload (build it first with benchmark/run.sh):
#
#   scripts/thread_cpu.sh target/release/clsm-benchmark --workload ingest \
#       --seed 0xc15a --seconds 20 --trace 0 --repeat 0 --out /tmp/bench-out
#
# Per-op counts by window differencing: the totals include set-up,
# quiescence and reopen, which do not depend on the window length. Run
# the same seed with --seconds 10 and --seconds 20, subtract the 10 s
# totals from the 20 s ones (syscw, a thread's vol_csw), and divide by
# the difference in operations the two runs report: what is left is the
# cost of 10 s of steady-state load.
set -euo pipefail

if [ $# -eq 0 ]; then
    sed -n '2,33p' "$0" >&2
    exit 2
fi

ticks="$(getconf CLK_TCK)"
declare -A name user sys csw
syscw=0 syscr=0 wchar=0 proc_user=0 proc_sys=0

"$@" &
pid=$!
while kill -0 "$pid" 2>/dev/null; do
    for task in /proc/"$pid"/task/*; do
        line=""
        # A thread may exit between the glob and the read: stderr is
        # redirected first so the failed open stays quiet.
        read -r line 2>/dev/null < "$task/stat" || continue
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
        while read -r key value; do
            if [ "$key" = "voluntary_ctxt_switches:" ]; then
                csw[$tid]="$value"
            fi
        done 2>/dev/null < "$task/status" || true
    done
    # Read after the threads, so the process's time is never behind
    # their sum.
    line=""
    if read -r line 2>/dev/null < /proc/"$pid"/stat && [ -n "$line" ]; then
        read -r -a rest <<< "${line##*) }"
        proc_user="${rest[11]}"
        proc_sys="${rest[12]}"
    fi
    while read -r key value; do
        case "$key" in
            syscw:) syscw="$value" ;;
            syscr:) syscr="$value" ;;
            wchar:) wchar="$value" ;;
        esac
    done 2>/dev/null < /proc/"$pid"/io || true
    sleep 0.2
done
status=0
wait "$pid" || status=$?

for tid in "${!name[@]}"; do
    printf '%s\t%s\t%s\t%s\n' "${name[$tid]}" "${user[$tid]}" "${sys[$tid]}" "${csw[$tid]:-0}"
done | awk -F'\t' -v hz="$ticks" -v pu="$proc_user" -v ps="$proc_sys" '
    { n[$1]++; u[$1] += $2; s[$1] += $3; c[$1] += $4; tu += $2; ts += $3; tc += $4 }
    END {
        sort = "sort -k5,5nr"
        for (k in n) printf "%-16s %3d %8.2f %8.2f %8.2f %10d\n", k, n[k], u[k] / hz, s[k] / hz, (u[k] + s[k]) / hz, c[k] | sort
        close(sort)
        if (pu < tu) pu = tu
        if (ps < ts) ps = ts
        printf "%-16s %3s %8.2f %8.2f %8.2f %10s\n", "exited", "", (pu - tu) / hz, (ps - ts) / hz, (pu + ps - tu - ts) / hz, "-"
        printf "%-16s %3s %8.2f %8.2f %8.2f %10d\n", "total", "", pu / hz, ps / hz, (pu + ps) / hz, tc
    }' >&2
printf 'io syscw %s syscr %s wchar %s\n' "$syscw" "$syscr" "$wchar" >&2
exit "$status"
