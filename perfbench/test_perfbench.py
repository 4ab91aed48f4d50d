"""Tests of the benchmark itself.

Tiny-size smoke runs of every workload (untraced and traced), exact
repetition of the interpreter's count metrics, a corrupted table that must
fail the correctness check, and the refusal to run without library sources.
Run from the root of the checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_PY = os.path.join(HERE, "run.py")

# Every workload the binary knows; BENCHMARK.json lists the timed ones.
WORKLOADS = ["kv-update", "read-mostly", "server-zipf", "tmir-bank"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_bench(workload, trace=0, seed=3, extra=(), run_py=RUN_PY, cwd=ROOT):
    """Runs one tiny benchmark run; returns (exit code, result or None, stderr)."""
    cmd = [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is not None and "host" in result:
        result = None  # the host block alone is not a result
    return done.returncode, result, done.stderr


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace, units):
        code, result, err = run_bench(workload, trace=trace)
        self.assertEqual(code, 0, err)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], err)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result["metrics"]

    def test_untraced_runs_report_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 0, E2E_UNITS)
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_report_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(workload, 1, LAYER_UNITS)
                if workload == "tmir-bank":
                    self.assertGreater(metrics["interp.ns_per_instr"]["value"], 0)
                    self.assertGreater(metrics["tmir.parse_ms"]["value"], 0)
                else:
                    self.assertGreater(metrics["stm.commit_ns.p50"]["value"], 0)
                    self.assertGreater(metrics["txn.enter_ns.p50"]["value"], 0)

    def test_interpreter_counts_repeat_exactly(self):
        runs = [run_bench("tmir-bank", trace=1, seed=seed)[1]["metrics"]
                for seed in (5, 6)]
        for name in ("interp.instrs_per_tx", "interp.opens_per_tx",
                     "interp.undo_per_tx", "passes.opens_removed"):
            self.assertEqual(runs[0][name]["value"], runs[1][name]["value"],
                             name)


class CorruptionTest(unittest.TestCase):
    def test_corrupted_data_fails_the_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _ = run_bench(workload, extra=["--corrupt"])
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])


class StandaloneTest(unittest.TestCase):
    def test_refuses_to_run_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = run_bench(
                "kv-update", run_py=os.path.join(tmp, "perfbench", "run.py"),
                cwd=tmp)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
