#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs it.

    python3 bench/e2e/run.py --workload recommend_open --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (a
path relative to the checkout root) or to .bench_build; the first run
configures and compiles, later runs only check that the build is current.
Build output goes to stderr, so the last line on stdout stays the result
JSON of adarts_bench. Every argument is passed on to adarts_bench (see
bench/e2e/main.cc). Without the engine's sources next to this directory the
script exits with code 2 before printing anything on stdout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TARGETS = ["adarts_bench", "adarts_serve", "trace_stats"]


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + TARGETS
    return subprocess.call(command, stdout=sys.stderr) == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "adarts", "adarts.h")):
        sys.stderr.write("run.py: no engine sources under %s\n" % ROOT)
        return 2
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")
    build_dir = os.path.join(build_root, "e2e")
    if not build(build_dir):
        sys.stderr.write("run.py: build failed\n")
        return 2
    binary = os.path.join(build_dir, "adarts_bench")
    args = [binary, "--workdir", os.path.join(build_root, "work"),
            "--benchmark-json", os.path.join(ROOT, "BENCHMARK.json")]
    return subprocess.call(args + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
