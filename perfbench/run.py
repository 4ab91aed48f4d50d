#!/usr/bin/env python3
"""Build and run the otm steady-state benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kv-update --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (a CMake project that
compiles the library sources under src/) into .bench_build/perfbench; later
calls only rebuild what changed. The benchmark binary then runs one workload
and prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics. Exit code 0 means every output
check passed.

The library runs with its defaults: OTM_* variables are removed from the
environment of the benchmark process so a stray setting cannot change them.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "otm_perfbench")

# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configure (once) and build the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "stm", "Stm.h")):
        sys.exit("perfbench: library sources not found under "
                 + os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main(argv):
    build()
    # Every argument goes to the binary; a traced run also writes its spans.
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload")
    parser.add_argument("--trace")
    parser.add_argument("--trace-out")
    known, _ = parser.parse_known_args(argv)
    args = list(argv)
    if known.trace == "1" and known.workload and known.trace_out is None:
        args += ["--trace-out",
                 os.path.join(BUILD_DIR, "trace-%s.json" % known.workload)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("OTM_")}
    try:
        done = subprocess.run([BINARY] + args, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
