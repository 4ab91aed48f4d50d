#!/usr/bin/env python3
"""Validate an otm-telemetry-v1 JSONL stream.

The telemetry sampler (OTM_TELEMETRY=<ms>, see src/obs/Telemetry.h) emits
one JSON object per line. CI runs the bench smoke suite with the sampler on
and feeds the resulting files through this script, which enforces the
schema contract a downstream consumer (otm_top.py, a metrics shipper)
relies on:

  - every line parses as a JSON object with schema == "otm-telemetry-v1"
  - the required keys are present: seq, t_us, interval_ms, totals, deltas
  - seq is monotonically increasing from 0 (no dropped or duplicated
    records within one file)
  - t_us is non-decreasing
  - every numeric leaf under deltas is >= 0 (the clamped-delta guarantee:
    a concurrent stats reset must never produce a negative rate)
  - the file holds at least one record (flush-on-exit guarantee)

Usage:
  validate_telemetry.py FILE.jsonl [FILE.jsonl ...]

Exit status: 0 when every file validates, 1 otherwise.
"""

import json
import sys

SCHEMA = "otm-telemetry-v1"
REQUIRED_KEYS = ("schema", "seq", "t_us", "interval_ms", "totals", "deltas")

# When a record carries the "mvcc" source (registered by the object STM),
# these keys must be present so consumers can rely on them without per-key
# existence checks. With OTM_MV_VERSIONS=0 "enabled" is false and the
# counters stay 0, but every key is still there: the schema must not fork
# on the runtime switch.
MVCC_KEYS = ("enabled", "snapshot_commits", "snapshot_upgrades",
             "snapshot_refreshes", "snapshot_reads",
             "snapshot_reads_from_chain", "snapshot_waits",
             "versions_installed", "versions_retired", "versions_live",
             "clock_advances", "chain_depth")

# Same contract for the "boost" source (transactional boosting, DESIGN.md
# section 3.10): the tier is always built, so enabled is always true.
BOOST_KEYS = ("enabled", "lock_acquires", "lock_waits", "commit_ops",
              "undo_ops", "structural_fallbacks", "lock_table_held",
              "lock_table_capacity")

# Same contract for the "sched" source (admission/batching scheduler,
# DESIGN.md section 3.11): enabled is always true; with OTM_SCHED=0 at run
# time mode reads "off" and every transaction counts as bypassed.
SCHED_KEYS = ("enabled", "mode", "admitted_immediate", "queued",
              "queue_overflows", "timeout_bypasses", "bypassed", "releases",
              "aborts_reported", "gate_flips_on", "gate_flips_off",
              "gates_on", "max_queue_depth", "queue_wait_us")

# Same contract for the "htm" source (hybrid HTM/STM tier, DESIGN.md
# section 3.12): keys exist with value 0 (enabled=false) on platforms
# without the RTM primitives (non-x86-64, TSan builds), and with value 0
# (available=false) on machines whose runtime probe found no working RTM
# or that run with OTM_HTM=0.
HTM_KEYS = ("enabled", "available", "attempts", "commits", "aborts_conflict",
            "aborts_capacity", "aborts_explicit", "aborts_serial",
            "aborts_locked", "aborts_unsupported", "aborts_user",
            "aborts_exception", "aborts_other", "fallbacks")


def check_deltas_nonnegative(node, path, errors):
    if isinstance(node, dict):
        for key, value in node.items():
            check_deltas_nonnegative(value, f"{path}.{key}", errors)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        if node < 0:
            errors.append(f"negative delta {path} = {node}")


def validate_file(path):
    errors = []
    records = 0
    prev_seq = None
    prev_t = None
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as err:
                    errors.append(f"line {lineno}: not JSON: {err}")
                    continue
                if not isinstance(rec, dict):
                    errors.append(f"line {lineno}: not an object")
                    continue
                for key in REQUIRED_KEYS:
                    if key not in rec:
                        errors.append(f"line {lineno}: missing key {key!r}")
                if rec.get("schema") != SCHEMA:
                    errors.append(f"line {lineno}: schema "
                                  f"{rec.get('schema')!r} != {SCHEMA!r}")
                seq = rec.get("seq")
                if isinstance(seq, int):
                    if prev_seq is None:
                        if seq != 0:
                            errors.append(f"line {lineno}: first seq is "
                                          f"{seq}, expected 0")
                    elif seq != prev_seq + 1:
                        errors.append(f"line {lineno}: seq {seq} after "
                                      f"{prev_seq} (not contiguous)")
                    prev_seq = seq
                t_us = rec.get("t_us")
                if isinstance(t_us, (int, float)):
                    if prev_t is not None and t_us < prev_t:
                        errors.append(f"line {lineno}: t_us went backwards "
                                      f"({prev_t} -> {t_us})")
                    prev_t = t_us
                check_deltas_nonnegative(rec.get("deltas", {}),
                                         f"line {lineno}: deltas", errors)
                totals = rec.get("totals")
                if isinstance(totals, dict) and "mvcc" in totals:
                    mvcc = totals["mvcc"]
                    if not isinstance(mvcc, dict):
                        errors.append(f"line {lineno}: totals.mvcc is not "
                                      f"an object")
                    else:
                        for key in MVCC_KEYS:
                            if key not in mvcc:
                                errors.append(f"line {lineno}: totals.mvcc "
                                              f"missing key {key!r}")
                if isinstance(totals, dict) and "boost" in totals:
                    boost = totals["boost"]
                    if not isinstance(boost, dict):
                        errors.append(f"line {lineno}: totals.boost is not "
                                      f"an object")
                    else:
                        for key in BOOST_KEYS:
                            if key not in boost:
                                errors.append(f"line {lineno}: totals.boost "
                                              f"missing key {key!r}")
                if isinstance(totals, dict) and "sched" in totals:
                    sched = totals["sched"]
                    if not isinstance(sched, dict):
                        errors.append(f"line {lineno}: totals.sched is not "
                                      f"an object")
                    else:
                        for key in SCHED_KEYS:
                            if key not in sched:
                                errors.append(f"line {lineno}: totals.sched "
                                              f"missing key {key!r}")
                if isinstance(totals, dict) and "htm" in totals:
                    htm = totals["htm"]
                    if not isinstance(htm, dict):
                        errors.append(f"line {lineno}: totals.htm is not "
                                      f"an object")
                    else:
                        for key in HTM_KEYS:
                            if key not in htm:
                                errors.append(f"line {lineno}: totals.htm "
                                              f"missing key {key!r}")
                records += 1
    except OSError as err:
        errors.append(f"cannot read: {err}")
    if records == 0 and not errors:
        errors.append("no records (sampler must flush at least one on exit)")
    return records, errors


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__.strip().splitlines()[0])
        print("usage: validate_telemetry.py FILE.jsonl [FILE.jsonl ...]")
        return 2
    failed = False
    for path in argv:
        records, errors = validate_file(path)
        if errors:
            failed = True
            print(f"validate_telemetry: {path}: INVALID "
                  f"({records} record(s)):")
            for e in errors[:20]:
                print(f"  {e}")
            if len(errors) > 20:
                print(f"  ... and {len(errors) - 20} more")
        else:
            print(f"validate_telemetry: {path}: OK ({records} record(s))")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
