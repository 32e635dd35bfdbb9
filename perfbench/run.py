#!/usr/bin/env python3
"""Build and run the kncube benchmark harness for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Builds libkncube and the harness from the checkout's sources (Release, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
harness with the thread pool pinned to one worker, and passes its output
through: human-readable metric lines, then one JSON line with the results.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["paper-sweep", "plan-grid", "daemon-replay", "torus64-sharded"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        try:
            result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
    return result.returncode == 0


def build(root, build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd[1:1] = ["-G", "Ninja"]
        if not run_logged(cmd, log_path, BUILD_TIMEOUT_S):
            with open(log_path) as log:
                sys.stderr.write("".join(log.readlines()[-30:]))
            cache = os.path.join(build_dir, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)  # configure again next time
            die("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", build_dir, "--target", "kncube_perfbench",
                       "-j", jobs], log_path, BUILD_TIMEOUT_S):
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        die("build failed")
    return os.path.join(build_dir, "kncube_perfbench")


def git_revision(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-test; not a measurement")
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        die("run from the root of a kncube checkout (CMakeLists.txt and src/ not found)")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_dir, "perfbench")
    binary = build(root, build_dir)

    # Relative to the checkout root (the harness's working directory), so the
    # daemon's Unix socket path stays short.
    scratch = os.path.relpath(os.path.join(build_dir, f"run-{os.getpid()}"), root)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--git-rev", git_revision(root)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, KNCUBE_THREADS="1")
    try:
        result = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        die(f"{args.workload} exited with code {result.returncode}")
    try:
        final = json.loads(result.stdout.rstrip("\n").split("\n")[-1])
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(result.stdout)
        die("the harness did not end with a result line")
    sys.stdout.write(result.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
