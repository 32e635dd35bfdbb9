#!/usr/bin/env python3
"""Self-test of the benchmark: tiny-size smoke runs of every workload.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload of the harness (the ones BENCHMARK.json lists and the
by-hand torus64-sharded) it runs perfbench/run.py --smoke with --trace 0 and
twice with --trace 1. It asserts that:

  * the result line reports exactly the metrics BENCHMARK.json names, each
    with its unit (end-to-end for --trace 0, per-layer for --trace 1);
  * every output check passed: correct, failed == 0, and the printed
    fail_ratio is 0;
  * the provenance stamp is printed;
  * the exact counts (sim.cycles, sim.flits, core.sat_probes,
    store.records) repeat across the two traced runs with the same seed.

Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import WORKLOADS  # noqa: E402

EXACT_COUNTS = ["sim.cycles", "sim.flits", "core.sat_probes", "store.records"]


def run(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--smoke"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        sys.stderr.write(res.stdout + res.stderr)
        fail(f"{workload} --trace {trace} exited with code {res.returncode}")
    return res.stdout


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(bench, workload, trace, stdout):
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    where = f"{workload} --trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: checks failed ({result['failed']} of {result['attempted']})")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{where}: metrics/units differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {[n for n in want if n in got and got[n] != want[n]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{where}: {name} is not a number")
    if not any(line.startswith("# provenance {") for line in lines):
        fail(f"{where}: no provenance stamp")
    ratio = [line for line in lines if re.match(r"e2e fail_ratio\s+0\s", line)]
    if not ratio:
        fail(f"{where}: fail_ratio line missing or not 0")
    return result["metrics"]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for workload in WORKLOADS:
        check(bench, workload, 0, run(bench, workload, 0))
        first = check(bench, workload, 1, run(bench, workload, 1))
        second = check(bench, workload, 1, run(bench, workload, 1))
        for name in EXACT_COUNTS:
            if first[name]["value"] != second[name]["value"]:
                fail(f"{workload}: {name} did not repeat "
                     f"({first[name]['value']} vs {second[name]['value']})")
        print(f"selftest: {workload} ok", flush=True)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
