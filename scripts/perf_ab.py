#!/usr/bin/env python3
"""Timing A/B of bench/e0_barrier_micro between two build trees.

E0 times each STM barrier primitive in isolation. Its numbers move with the
host by tens of percent between runs, so one run per side says nothing. This
tool runs the E0 binary of a base and a new build tree N times each,
interleaved (ABBA order, so slow drift hits both sides alike), pinned to the
same CPUs with taskset, and reports per row the minimum of each side, the
new/base ratio of those minima, and each side's spread over its N runs.

A row whose ratio lies within the larger of the two spreads is marked "~"
(within noise); otherwise "+" (new is faster) or "-" (new is slower).

Usage:
  perf_ab.py BASE_BUILD NEW_BUILD [-n 5] [--cpus 1,2] [--filter REGEX]
             [--min-time 0.05]

BASE_BUILD and NEW_BUILD are CMake build directories that contain
bench/e0_barrier_micro. Each run writes its BENCH_E0.json into a temporary
directory (OTM_BENCH_JSON_DIR); the per-row cpu_time_ns is the sample.
(For the threads:2 row that is the per-thread cost of one transaction.) The table goes to stdout; exit status is 0 unless a run
fails.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

E0 = os.path.join("bench", "e0_barrier_micro")


def parse_runs(doc):
    """{label: cpu ns} for every run row of one BENCH_E0.json document."""
    return {row["label"]: float(row["cpu_time_ns"])
            for row in doc.get("runs", []) if "cpu_time_ns" in row}


def spread(samples):
    """(max - min) / min of one side's samples: 0.0 for a single sample."""
    lo = min(samples)
    return (max(samples) - lo) / lo if lo > 0 else 0.0


def compare(base, new):
    """Rows of the A/B table from {label: [ns, ...]} per side.

    Each row is (label, base_min, new_min, ratio, base_spread, new_spread,
    verdict); only labels both sides ran are compared, in base order.
    """
    rows = []
    for label, base_samples in base.items():
        new_samples = new.get(label)
        if not new_samples or not base_samples:
            continue
        base_min, new_min = min(base_samples), min(new_samples)
        ratio = new_min / base_min if base_min > 0 else float("inf")
        bs, ns = spread(base_samples), spread(new_samples)
        noise = max(bs, ns)
        if abs(ratio - 1.0) <= noise:
            verdict = "~"
        else:
            verdict = "+" if ratio < 1.0 else "-"
        rows.append((label, base_min, new_min, ratio, bs, ns, verdict))
    return rows


def format_table(rows):
    head = (f"{'row':<28} {'base ns':>10} {'new ns':>10} {'new/base':>9} "
            f"{'base spr':>9} {'new spr':>9}")
    lines = [head, "-" * (len(head) + 3)]
    for label, bmin, nmin, ratio, bs, ns, verdict in rows:
        lines.append(f"{label:<28} {bmin:>10.2f} {nmin:>10.2f} {ratio:>9.3f} "
                     f"{bs * 100:>8.1f}% {ns * 100:>8.1f}%  {verdict}")
    return "\n".join(lines)


def run_once(build, args):
    """Runs one side's E0 once; returns {label: ns}."""
    binary = os.path.join(build, E0)
    cmd = [binary, f"--benchmark_min_time={args.min_time}"]
    if args.filter:
        cmd.append(f"--benchmark_filter={args.filter}")
    if args.cpus:
        cmd = ["taskset", "-c", args.cpus] + cmd
    with tempfile.TemporaryDirectory() as out:
        env = dict(os.environ, OTM_BENCH_JSON_DIR=out)
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        with open(os.path.join(out, "BENCH_E0.json")) as f:
            return parse_runs(json.load(f))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Interleaved, pinned, min-of-N A/B of E0 between two "
                    "build trees.")
    ap.add_argument("base", help="base build directory")
    ap.add_argument("new", help="new build directory")
    ap.add_argument("-n", type=int, default=5, help="runs per side")
    ap.add_argument("--cpus", default="1,2",
                    help="taskset CPU list ('' runs unpinned)")
    ap.add_argument("--filter", default="",
                    help="google-benchmark --benchmark_filter regex")
    ap.add_argument("--min-time", default="0.05",
                    help="google-benchmark --benchmark_min_time (seconds)")
    args = ap.parse_args(argv)

    for build in (args.base, args.new):
        if not os.access(os.path.join(build, E0), os.X_OK):
            sys.exit(f"perf_ab: no {E0} under {build}")

    builds = (args.base, args.new)
    samples = ({}, {})  # per side: {label: [ns, ...]}
    for i in range(args.n):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            for label, ns in run_once(builds[side], args).items():
                samples[side].setdefault(label, []).append(ns)

    print(f"perf_ab: E0 cpu time, min of {args.n} interleaved runs"
          f"{', cpus ' + args.cpus if args.cpus else ', unpinned'}")
    print(f"  base: {args.base}\n  new:  {args.new}")
    print(format_table(compare(*samples)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
