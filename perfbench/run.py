#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/README.md).

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>

Configures and builds perfbench/ (with the library sources it links) into
.bench_build/ with CMake, runs the workload in a fresh process, and prints
the binary's report followed by one JSON line holding exactly the metrics
BENCHMARK.json lists for the mode: `end_to_end` with --trace 0, `per_layer`
with --trace 1. A per-layer metric the workload does not exercise reads 0.
Exits non-zero, without a JSON line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run measures --seconds plus set-up, references and checks; well under
# the three minutes a run may take.
RUN_TIMEOUT_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    steps = [["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j",
              str(min(4, os.cpu_count() or 1))]]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))


def select_metrics(result, specs, fill_missing):
    selected = {}
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            if not fill_missing:
                fail(f"metric {spec['name']} missing from the report")
            got = {"value": 0.0, "unit": spec["unit"]}
        if got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} reported in {got['unit']}, "
                 f"BENCHMARK.json says {spec['unit']}")
        selected[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build()
    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)
    # The pool runs at its default size (nproc lanes) and the SIMD level is
    # whatever the CPU supports: drop the library's overrides.
    env = {k: v for k, v in os.environ.items()
           if k not in ("RANKTIES_THREADS", "RANKTIES_NO_AVX2")}
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")

    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result line (exit code {done.returncode})")
    for line in lines[:-1]:
        print(line)
    if args.trace:
        metrics = select_metrics(result, spec["per_layer"], True)
    else:
        metrics = select_metrics(result, spec["end_to_end"], False)
        for name, metric in metrics.items():
            if not metric["value"] > 0:
                fail(f"end-to-end metric {name} is {metric['value']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
