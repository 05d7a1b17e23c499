#!/usr/bin/env python3
"""Seed behaviour of the benchmark binary.

Two short --trace 1 runs with the same seed must repeat every count
metric exactly; a different seed must change the inputs (the digest the
binary prints on its first line) and the counts that depend on them.

Usage: test_seed.py <path to the perfbench binary>
"""
import json
import os
import re
import subprocess
import sys
import tempfile

WORKLOADS = ["dstree-ram", "vafile-pool", "isax-serve"]
COUNTS = [
    "core.distance_calls_per_query",
    "core.lb_calls_per_query",
    "index.raw_series_per_query",
    "index.nodes_visited_per_query",
    "storage.misses_per_query",
    "storage.evictions_per_query",
    "storage.pread_mb_per_query",
    "serve.cache_hit_ratio",
    "serve.rejected",
]


def run(binary, workload, seed, scratch):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", "1", "--scratch", scratch],
        capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("FAIL %s seed %d exited %d:\n%s%s"
                 % (workload, seed, out.returncode, out.stdout, out.stderr))
    digest = re.search(r"inputs digest ([0-9a-f]+)", lines[0]).group(1)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("FAIL %s seed %d: wrong answers\n%s"
                 % (workload, seed, out.stdout))
    counts = {k: result["metrics"][k]["value"] for k in COUNTS}
    return digest, counts


def main():
    binary = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        for workload in WORKLOADS:
            digest_a, counts_a = run(binary, workload, 7, scratch)
            digest_b, counts_b = run(binary, workload, 7, scratch)
            digest_c, counts_c = run(binary, workload, 8, scratch)
            if digest_a != digest_b or counts_a != counts_b:
                failures.append("%s: seed 7 did not repeat: %s vs %s"
                                % (workload, counts_a, counts_b))
            if digest_a == digest_c:
                failures.append("%s: seeds 7 and 8 gave the same inputs"
                                % workload)
            key = "index.raw_series_per_query"
            if counts_a[key] == counts_c[key]:
                failures.append("%s: seeds 7 and 8 gave the same %s"
                                % (workload, key))
            print("%s: seed 7 repeats %d counts exactly; seed 8 differs"
                  % (workload, len(COUNTS)))
            if os.listdir(scratch):
                failures.append("%s left files in its scratch directory"
                                % workload)
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
