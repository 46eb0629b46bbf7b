#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload amazon-tree --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the aigs library from
src/ plus the driver) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
The exit status is the benchmark's own; a failed build exits 1 and prints no
result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "engine.h")):
        print("perfbench: no aigs sources under src/ -- run from a full checkout",
              file=sys.stderr)
        return 1
    work = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(ROOT, work, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1
    binary = os.path.join(build, "aigs_perfbench")
    return subprocess.run([binary, *argv, "--workdir", work], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
