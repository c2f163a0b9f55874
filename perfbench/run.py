#!/usr/bin/env python3
"""Builds the live-loop benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload churn_testbed6|bate_b4|failover_b4 \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the bate
library from src/) into $CARGO_TARGET_DIR, or .bench_build when unset; later
calls only check the build is current. Build output goes to stderr, so the
benchmark's last stdout line stays its JSON result. The exit status is the
benchmark's, or 1 when the build fails.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(root, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
    ]
    if os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    bench = [os.path.join(build, "perfbench")] + sys.argv[1:]
    return subprocess.run(bench).returncode


if __name__ == "__main__":
    sys.exit(main())
