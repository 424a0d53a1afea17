#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload native-zephyr --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The OCaml benchmark (perfbench/main.ml)
is built with dune into .bench_build/dune, then run in a fresh process;
its stdout is passed through, so the last line is the JSON result.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("native-zephyr", "link-farm-faulty", "hub-fleet")
BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_cmd():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("not the root of a repository checkout: %s is missing" % needed)

    os.makedirs(BUILD_DIR, exist_ok=True)
    build = subprocess.run(
        dune_cmd() + ["build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR), "--cache=disabled",
                      "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (exit %d)" % build.returncode)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    out = run.stdout.decode("utf-8", "replace")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if ok and os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        want = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if set(result["metrics"]) != want:
            print("perfbench: metrics differ from BENCHMARK.json: %s"
                  % sorted(set(result["metrics"]) ^ want), file=sys.stderr)
            ok = False
    if run.returncode != 0 or not ok:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if ok else out)
        fail("run failed (exit %d) after %.1f s" % (run.returncode, time.monotonic() - start))
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
