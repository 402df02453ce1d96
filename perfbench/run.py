#!/usr/bin/env python3
"""Build and run the campaign benchmark.

    python3 perfbench/run.py --workload paper-r1|gen-scale|faults-ckpt \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
the benchmark package (perfbench/CMakeLists.txt, which compiles the
simulator from src/) in Release under .bench_build/; later calls only
rebuild what changed. The benchmark binary then runs the workload and
prints its report, ending with one JSON line on stdout. Build output
goes to stderr; a traced run also leaves its spans, as Chrome
trace-event JSON, under .bench_build/perfbench/. --self-test builds and runs the tests of the
benchmark's own helpers instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(os.getcwd(), ".bench_build")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, extra_flags=()):
    """Configure (once) and build the package; output to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", *extra_flags],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "analysis.hh")):
        fail(f"no simulator sources under {ROOT}/src; run from a checkout "
             "of the repository")

    try:
        if args.self_test:
            build_dir = os.path.join(BUILD_ROOT, "perfbench-tests")
            build(build_dir, ["-DPERFBENCH_TESTS=ON"])
            return subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                                  cwd=build_dir).returncode
        if not args.workload:
            fail("--workload is required")
        build_dir = os.path.join(BUILD_ROOT, "perfbench")
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    command = [os.path.join(build_dir, "campaign_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference-dir", os.path.join(HERE, "reference")]
    if args.trace:
        command += ["--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}-seed{args.seed}.json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
