#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
perfbench/CMakeLists.txt (the EEVFS library sources plus the benchmark
program) into .bench_build/; later calls rebuild only what changed.  One
workload runs as one single-threaded process whose last stdout line is
the JSON result.  `--workload all` runs the four workloads one after
another, each in its own process with --trace 1 (every metric is printed
in its human-readable block), and ends with a JSON object keyed by
workload.  Build output goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["paper_eager", "datacenter_stream", "tiered_writes", "ec_crash"]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            sys.exit("perfbench: cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("perfbench: build failed (%s)" % " ".join(cmd))


def run_one(workload, seed, seconds, trace):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true",
                    help="run the checker self-test instead")
    args = ap.parse_args()

    build()
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")])
                 .returncode)
    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds,
                               args.trace)
        sys.exit(code if result is not None else code or 1)

    summary = {}
    worst = 0
    for w in WORKLOADS:
        code, result = run_one(w, args.seed, args.seconds, 1)
        worst = worst or code or (1 if result is None else 0)
        summary[w] = result
    print(json.dumps(summary))
    sys.exit(worst)


if __name__ == "__main__":
    main()
