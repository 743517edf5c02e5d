#!/usr/bin/env python3
"""Builds the benchmark from the sources in this checkout and runs one workload.

Usage (from the root of the checkout):

  python3 perfbench/run.py --workload daemon-read|cli-batch \\
      --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental; build output goes to stderr. The program prints every
metric it measured; the last stdout line is one JSON result holding exactly
the metrics BENCHMARK.json lists for the mode (end_to_end with --trace 0,
per_layer with --trace 1), which every workload measures. Exits non-zero,
printing no result, when the build or the run fails or a listed metric is
missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("daemon-read", "cli-batch")


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "ecensus", "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def split_result(output, listed):
    """The program's table and its JSON result restricted to `listed`
    (None when the result is missing or lacks a listed metric)."""
    lines = output.rstrip("\n").split("\n")
    table = "\n".join(lines[:-1]) + "\n"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return output, None
    missing = [name for name in listed if name not in result["metrics"]]
    if missing:
        print("perfbench: not measured: " + ", ".join(missing),
              file=sys.stderr)
        return table, None
    result["metrics"] = {name: result["metrics"][name] for name in listed}
    return table, json.dumps(result)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    with open(MANIFEST) as f:
        manifest = json.load(f)
    listed = [m["name"] for m in
              manifest["per_layer" if args.trace == "1" else "end_to_end"]]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--cli", os.path.join(build_dir, "ecensus"),
               "--work", work_dir]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if run.returncode:
        sys.stdout.write(run.stdout)
        return run.returncode
    table, result = split_result(run.stdout, listed)
    sys.stdout.write(table)
    if result is None:
        print("perfbench: no result", file=sys.stderr)
        return 1
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
