#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 --out set1.jsonl
    python3 perfbench/steadiness.py --runs 10 --out set2.jsonl --compare set1.jsonl

Runs perfbench/run.py --trace 0 once per seed (seeds 1..N) on each workload
(all of BENCHMARK.json, or --workloads a,b) and prints, for every end-to-end
metric, the median of the N values and the distance between their first and
third quartiles as a share of the median (statistics.quantiles(values, n=4)),
next to the metric's bound in BENCHMARK.json. A metric is steady when that
spread is below a third of its bound. With --compare it also prints how far
each median moved from the same workload's median in an earlier set (a file
written by --out); a move worse than the metric's bound fails. The raw
results go to --out as JSON lines. Exits non-zero when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def medians_by_workload(path):
    """Median of every metric per workload in an --out file."""
    values = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            for name, metric in row["metrics"].items():
                values.setdefault(row["workload"], {}).setdefault(name, []).append(
                    metric["value"])
    return {w: {n: statistics.median(v) for n, v in m.items()} for w, m in values.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", default="",
                        help="an earlier --out file whose medians this set must match")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = medians_by_workload(args.compare) if args.compare else {}
    out = open(args.out, "a") if args.out else None
    steady = True
    for workload in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            res = subprocess.run(cmd, capture_output=True, text=True)
            if res.returncode != 0:
                sys.stderr.write(res.stdout + res.stderr)
                sys.exit(f"{workload} seed {seed} failed")
            result = json.loads(res.stdout.strip().split("\n")[-1])
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                out.flush()
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: outputs failed their checks")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            bound = metrics[name]["bound"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound / 3
            line = (f"{workload:16} {name:12} median {med:12.6g}  spread {spread:7.2%}  "
                    f"bound {bound:.0%}")
            before = earlier.get(workload, {}).get(name)
            if before:
                change = med / before - 1
                worse = change if metrics[name]["better"] == "lower" else -change
                line += f"  median change {change:+7.2%}"
                ok = ok and worse <= bound
            steady = steady and ok
            print(f"{line}  {'ok' if ok else 'NOT STEADY'}", flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
