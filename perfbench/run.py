#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <dstree-ram|vafile-pool|isax-serve> \
        --seed <n> --seconds <s> --trace <0|1>

The build (CMake, Release) goes to .bench_build/perfbench and its log to
.bench_build/perfbench-build.log; a failed build prints the log's tail to
stderr and exits 1 without a result. The binary's stdout is passed
through: its last line is the JSON result. Exits with the binary's code.
"""
import glob
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
LOG = os.path.join(BUILD_ROOT, "perfbench-build.log")
SCRATCH = os.path.join(BUILD_ROOT, "perfbench-scratch")


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    with open(LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                break
        else:
            return True
    with open(LOG) as log:
        tail = log.read().splitlines()[-30:]
    sys.stderr.write("perfbench: build failed; last lines of %s:\n%s\n"
                     % (LOG, "\n".join(tail)))
    return False


def main():
    if not build():
        return 1
    # A run killed midway leaves its data file behind; runs are serial.
    for stale in glob.glob(os.path.join(SCRATCH, "data-*.bin")):
        os.remove(stale)
    binary = os.path.join(BUILD, "perfbench")
    args = [binary] + sys.argv[1:] + ["--scratch", SCRATCH]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
