#!/usr/bin/env python3
"""Runs one workload of the trigen benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a trigen checkout.  The first call configures and
builds perfbench/ (the trigen libraries from src/ plus perfbench_bin)
in $CARGO_TARGET_DIR, default .bench_build; later calls rebuild only what
changed.  Build output goes to stderr.  perfbench_bin generates the
workload's dataset from the seed, measures for the given seconds, checks
every output and prints the result JSON as the last line of stdout.  The
exit status is perfbench_bin's: non-zero when a check failed, the build
failed, or the checkout holds no trigen sources.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan3-wide", "scan3-narrow-mi", "perm3-batched")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perfbench_bin and its helper tests."""
    for needed in ("src/CMakeLists.txt", "cmake/TrigenSimd.cmake"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"no trigen sources here: {needed} is missing")
            return False
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
               "perfbench_bin", "perfbench_test_helpers"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    tests = subprocess.run([os.path.join(build_dir, "perfbench_test_helpers")],
                           stdout=sys.stderr)
    return tests.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        log("build failed")
        return 1

    workdir = os.path.join(build_dir, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [os.path.join(build_dir, "perfbench_bin"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench_bin exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode == 0 and (result is None or not result.get("correct")):
        log("perfbench_bin printed no passing result")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
