#!/usr/bin/env python3
"""Calibration and comparison of benchmark results.

calibrate: runs every workload N times, each time with another seed, takes
for each metric the distance between the first and third quartile of its N
values as a share of their median (the spread the driver computes), writes
benchmark/calibration.json, and sets every gated metric's bound in
BENCHMARK.json to 0.25, the largest the contract allows: CPU-bound numbers
move by up to 14 % with the state of the shared host between sets of runs,
which one set of runs cannot see. A gated metric whose spread exceeds a third
of its bound is flagged; one whose spread exceeds the bound fails.

compare: applies the bounds of BENCHMARK.json to the medians of two
results.json files (run.sh --runs N), one row per workload and metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
CALIBRATION_JSON = os.path.join(HERE, "calibration.json")
BOUND = 0.25


def spread(values):
    """(Q3 - Q1) / median, as the driver computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds):
    """One untraced run through run.sh; returns the parsed contract line."""
    done = subprocess.run(
        ["bash", os.path.join(HERE, "run.sh"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout[-3000:]}\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # Ungated readings printed above the contract line, for the report.
    result["info"] = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#") and parts[0] not in result["metrics"]:
            try:
                result["info"][parts[0]] = float(parts[1])
            except ValueError:
                pass
    return result


def calibrate(args):
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    table = {}
    info = {}
    for workload in workloads:
        samples = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, seconds)
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            for name, value in result["info"].items():
                info.setdefault(workload, {}).setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        table[workload] = {
            name: {"median": statistics.median(v), "spread": spread(v), "values": v}
            for name, v in samples.items()}
    report = {"runs": args.runs, "seconds": seconds, "first_seed": args.first_seed,
              "spread": "(Q3 - Q1) / median over the runs", "workloads": table,
              "above_a_third_of_bound": []}
    print(f"\n{'metric':<14}" + "".join(f"{w:>12}" for w in workloads) + f"{'bound':>8}")
    failed = 0
    for metric in bench["end_to_end"]:
        name = metric["name"]
        spreads = [table[w][name]["spread"] for w in workloads]
        if not args.dry_run:
            metric["bound"] = BOUND
        print(f"{name:<14}" + "".join(f"{s:>12.4f}" for s in spreads) + f"{BOUND:>8.3f}")
        if name == "setup_s":
            continue  # the driver exempts set-up time from the spread rule
        for workload, s in zip(workloads, spreads):
            if s > BOUND / 3:
                report["above_a_third_of_bound"].append(
                    {"metric": name, "workload": workload, "spread": s})
                print(f"  {name} on {workload}: spread {s:.3f} above a third of the bound")
            failed |= s > BOUND
    report["ungated"] = {
        w: {n: {"median": statistics.median(v), "spread": spread(v) if statistics.median(v) else 0.0}
            for n, v in names.items() if len(v) == args.runs}
        for w, names in info.items()}
    with open(CALIBRATION_JSON, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    if not args.dry_run:
        with open(BENCHMARK_JSON, "w") as f:
            json.dump(bench, f, indent=2, ensure_ascii=False)
            f.write("\n")
    return failed


def load_results(path):
    """Per workload: the untraced runs of a results.json."""
    with open(path) as f:
        doc = json.load(f)
    return {w: runs["e2e"] for w, runs in doc["workloads"].items() if runs.get("e2e")}


def medians(runs, section):
    """Median of every metric of `section` over the runs that have it."""
    values = {}
    for run in runs:
        for name, m in run[section].items():
            values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def compare(args):
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    spreads = {}
    if os.path.exists(CALIBRATION_JSON):
        with open(CALIBRATION_JSON) as f:
            spreads = json.load(f)["workloads"]
    a, b = load_results(args.a), load_results(args.b)
    if set(a) != set(b):
        sys.exit(f"workloads present in only one file: {sorted(set(a) ^ set(b))}")
    for workload in sorted(a):
        for key in ("fingerprint", "seconds"):
            seen = [run[key] for run in a[workload] + b[workload]]
            if any(value != seen[0] for value in seen):
                sys.exit(f"refusing to compare: {key} differs on {workload}: "
                         f"{a[workload][0][key]} vs {b[workload][-1][key]}")
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    def worse_by(name, va, vb):
        return (va - vb) / va if better[name] == "higher" else (vb - va) / va

    regressed = 0
    print(f"{'workload':<10}{'metric':<14}{'median A':>14}{'median B':>14}{'worse by':>10}{'bound':>8}  verdict")
    for workload in sorted(a):
        ea, eb = medians(a[workload], "end_to_end"), medians(b[workload], "end_to_end")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            worse = worse_by(name, ea[name], eb[name])
            noise = spreads.get(workload, {}).get(name, {}).get("spread")
            if noise is not None and noise > bound:
                verdict = "unresolved (spread wider than bound)"
            elif worse > bound:
                verdict = "REGRESSED"
                regressed = 1
            else:
                verdict = "ok"
            print(f"{workload:<10}{name:<14}{ea[name]:>14.6g}{eb[name]:>14.6g}{worse:>+10.3f}{bound:>8.3f}  {verdict}")
        # The ungated end-to-end metrics: shown, never judged.
        la, lb = medians(a[workload], "per_layer"), medians(b[workload], "per_layer")
        for name in (n for n in la if n in lb and la[n] > 0):
            print(f"{workload:<10}{name:<14}{la[name]:>14.6g}{lb[name]:>14.6g}"
                  f"{worse_by(name, la[name], lb[name]):>+10.3f}{'-':>8}  ungated")
        print(f"{workload:<10}runs: {len(a[workload])} vs {len(b[workload])}")
    return regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    cal = sub.add_parser("calibrate")
    cal.add_argument("--runs", type=int, default=10)
    cal.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    cal.add_argument("--first-seed", type=int, default=1)
    cal.add_argument("--dry-run", action="store_true", help="leave BENCHMARK.json as it is")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args()
    sys.exit(calibrate(args) if args.command == "calibrate" else compare(args))


if __name__ == "__main__":
    main()
