#!/usr/bin/env python3
"""Live terminal viewer for an otm-telemetry-v1 JSONL stream.

Run a workload with the sampler on, then point this at the stream:

  OTM_TELEMETRY=250 OTM_TELEMETRY_OUT=/tmp/otm.jsonl ./e7_contention &
  tools/otm_top.py /tmp/otm.jsonl

The viewer tails the file (like `tail -f`), and on every record repaints a
one-screen summary: commit/abort rates from the deltas, the commit-latency
quantiles from the totals, and where transaction time went per phase. With
--once it renders the last complete record and exits (useful on a finished
file). Only the Python standard library is used.
"""

import argparse
import json
import os
import sys
import time

SCHEMA = "otm-telemetry-v1"

PHASES = ("validate", "commit_lock", "write_back", "cm_wait", "backoff")


def fmt_count(n):
    for unit, div in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if n >= div:
            return f"{n / div:6.1f}{unit}"
    return f"{n:6.0f} "


def render(rec, out):
    totals = rec.get("totals", {})
    deltas = rec.get("deltas", {})
    interval_s = rec.get("interval_ms", 0) / 1000.0 or 1.0
    stm_t = totals.get("stm", {})
    stm_d = deltas.get("stm", {})

    lines = []
    lines.append(f"otm_top  seq={rec.get('seq')}  "
                 f"t={rec.get('t_us', 0) / 1e6:.1f}s  "
                 f"interval={rec.get('interval_ms')}ms")
    lines.append("-" * 64)

    def rate(name):
        return stm_d.get(name, 0) / interval_s

    lines.append(f"tx/s     commit {fmt_count(rate('Commits'))}   "
                 f"abort {fmt_count(rate('Aborts'))}   "
                 f"start {fmt_count(rate('Starts'))}")
    lines.append(f"aborts   conflict {fmt_count(rate('AbortsOnConflict'))}  "
                 f"validation {fmt_count(rate('AbortsOnValidation'))}  "
                 f"user {fmt_count(rate('AbortsByUser'))}")

    mv_t = totals.get("mvcc", {})
    mv_d = deltas.get("mvcc", {})
    if mv_t.get("enabled"):
        lines.append(f"mvcc     snap commit/s "
                     f"{fmt_count(mv_d.get('snapshot_commits', 0) / interval_s)}"
                     f"   live versions {fmt_count(mv_t.get('versions_live', 0))}"
                     f"   retired {fmt_count(mv_t.get('versions_retired', 0))}")

    bo_t = totals.get("boost", {})
    bo_d = deltas.get("boost", {})
    if bo_t.get("enabled"):
        lines.append(f"boost    acquire/s "
                     f"{fmt_count(bo_d.get('lock_acquires', 0) / interval_s)}"
                     f"   waits {fmt_count(bo_t.get('lock_waits', 0))}"
                     f"   undos {fmt_count(bo_t.get('undo_ops', 0))}"
                     f"   held {fmt_count(bo_t.get('lock_table_held', 0))}")

    sc_t = totals.get("sched", {})
    sc_d = deltas.get("sched", {})
    if sc_t.get("enabled"):
        lines.append(f"sched    admit/s "
                     f"{fmt_count(sc_d.get('admitted_immediate', 0) / interval_s)}"
                     f"   queued {fmt_count(sc_t.get('queued', 0))}"
                     f"   gates on {fmt_count(sc_t.get('gates_on', 0))}"
                     f"   max depth {fmt_count(sc_t.get('max_queue_depth', 0))}")

    ht_t = totals.get("htm", {})
    ht_d = deltas.get("htm", {})
    if ht_t.get("enabled"):
        avail = "yes" if ht_t.get("available") else "no"
        aborts = sum(ht_d.get(k, 0) for k in
                     ("aborts_conflict", "aborts_capacity", "aborts_explicit",
                      "aborts_other"))
        lines.append(f"htm      rtm={avail}  commit/s "
                     f"{fmt_count(ht_d.get('commits', 0) / interval_s)}"
                     f"   abort/s {fmt_count(aborts / interval_s)}"
                     f"   fallback/s "
                     f"{fmt_count(ht_d.get('fallbacks', 0) / interval_s)}")

    lat = stm_t.get("commit_latency", {})
    if lat.get("count"):
        lines.append(f"commit latency (cycles)   "
                     f"p50 {lat.get('p50_cycles', 0):>12.0f}   "
                     f"p99 {lat.get('p99_cycles', 0):>12.0f}   "
                     f"p999 {lat.get('p999_cycles', 0):>12.0f}")

    phases = totals.get("phases", {})
    total_cycles = sum(phases.get(p, {}).get("cycles", 0) for p in PHASES)
    if total_cycles:
        lines.append("phase breakdown (cumulative cycles)")
        for p in PHASES:
            cyc = phases.get(p, {}).get("cycles", 0)
            pct = 100.0 * cyc / total_cycles
            bar = "#" * int(pct / 2.5)
            lines.append(f"  {p:<12} {fmt_count(cyc)}  {pct:5.1f}% {bar}")

    sites = totals.get("abort_sites", {})
    if sites:
        lines.append(f"abort sites  used {sites.get('sites_used', 0)}  "
                     f"edges {sites.get('edges_used', 0)}  "
                     f"dropped {sites.get('dropped', 0)}"
                     f"+{sites.get('edges_dropped', 0)}")

    out.write("\x1b[2J\x1b[H" if out.isatty() else "")
    out.write("\n".join(lines) + "\n")
    if not out.isatty():
        out.write("\n")
    out.flush()


def tail_records(path, follow):
    """Yields parsed records; with follow=True keeps polling for appends."""
    with open(path) as f:
        while True:
            line = f.readline()
            if not line:
                if not follow:
                    return
                time.sleep(0.2)
                continue
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # partial line while the writer flushes
            if rec.get("schema") == SCHEMA:
                yield rec


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Tail an otm-telemetry-v1 JSONL file as a live view.")
    ap.add_argument("file", help="telemetry JSONL path")
    ap.add_argument("--once", action="store_true",
                    help="render the last record already in the file, exit")
    args = ap.parse_args(argv)

    if not os.path.exists(args.file):
        sys.exit(f"otm_top: no such file: {args.file}")

    if args.once:
        last = None
        for rec in tail_records(args.file, follow=False):
            last = rec
        if last is None:
            sys.exit("otm_top: no records")
        render(last, sys.stdout)
        return 0

    try:
        for rec in tail_records(args.file, follow=True):
            render(rec, sys.stdout)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
