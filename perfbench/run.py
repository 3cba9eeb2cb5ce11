#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds the smappic library and the
benchmark (Release) under .bench_build/perfbench at the repository root;
later calls only rebuild what changed. Build output goes to stderr, so
the last line of standard output is the benchmark's JSON result. A traced
run also writes its spans as Chrome trace JSON to
.bench_build/perfbench-trace-<workload>-<seed>.json.

--self-test builds and runs the benchmark's own tests instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the smappic sources (src/) are not next to "
                 "perfbench/; run from a full checkout")
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    try:
        if args.self_test:
            exe = build("perfbench_tests")
            return subprocess.run([exe]).returncode
        if not args.workload:
            ap.error("--workload is required")
        exe = build("perfbench")
    except subprocess.CalledProcessError as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build",
            f"perfbench-trace-{args.workload}-{args.seed}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
