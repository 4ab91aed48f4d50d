#!/usr/bin/env python3
"""Unit tests of perf_ab.py's parsing and ratio logic (no binaries run).

Run with:
    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_ab  # noqa: E402


class ParseRunsTest(unittest.TestCase):
    DOC = {
        "schema": "otm-bench-stats-v1",
        "runs": [
            {"label": "BM_ReadOnlyTx", "cpu_time_ns": 40.0,
             "real_time_ns": 41.0, "iterations": 100},
            {"label": "BM_WriterTx/threads:2", "cpu_time_ns": 78.5,
             "real_time_ns": 39.0, "iterations": 100},
        ],
    }

    def test_reads_cpu_time_by_label(self):
        self.assertEqual(perf_ab.parse_runs(self.DOC),
                         {"BM_ReadOnlyTx": 40.0,
                          "BM_WriterTx/threads:2": 78.5})

    def test_skips_rows_without_the_field_and_empty_docs(self):
        doc = {"runs": [{"label": "BM_X"}]}
        self.assertEqual(perf_ab.parse_runs(doc), {})
        self.assertEqual(perf_ab.parse_runs({}), {})


class CompareTest(unittest.TestCase):
    def test_spread_is_range_over_min(self):
        self.assertAlmostEqual(perf_ab.spread([100.0, 110.0, 105.0]), 0.10)
        self.assertEqual(perf_ab.spread([7.0]), 0.0)

    def test_ratio_is_min_over_min(self):
        [row] = perf_ab.compare({"BM_A": [100.0, 130.0]},
                                {"BM_A": [90.0, 150.0]})
        label, bmin, nmin, ratio, bs, ns, _ = row
        self.assertEqual((label, bmin, nmin), ("BM_A", 100.0, 90.0))
        self.assertAlmostEqual(ratio, 0.9)
        self.assertAlmostEqual(bs, 0.30)
        self.assertAlmostEqual(ns, 150.0 / 90.0 - 1.0)

    def test_verdict_against_the_larger_spread(self):
        base = {"BM_Same": [100.0, 104.0], "BM_Slow": [100.0, 101.0],
                "BM_Fast": [100.0, 101.0]}
        new = {"BM_Same": [103.0, 103.0], "BM_Slow": [120.0, 121.0],
               "BM_Fast": [80.0, 80.5]}
        verdicts = {r[0]: r[6] for r in perf_ab.compare(base, new)}
        self.assertEqual(verdicts,
                         {"BM_Same": "~", "BM_Slow": "-", "BM_Fast": "+"})

    def test_rows_missing_on_one_side_are_dropped(self):
        rows = perf_ab.compare({"BM_A": [1.0], "BM_B": [1.0]},
                               {"BM_A": [1.0], "BM_C": [1.0]})
        self.assertEqual([r[0] for r in rows], ["BM_A"])

    def test_table_has_one_line_per_row(self):
        rows = perf_ab.compare({"BM_A": [10.0]}, {"BM_A": [11.0]})
        table = perf_ab.format_table(rows).splitlines()
        self.assertEqual(len(table), 3)
        self.assertTrue(table[2].startswith("BM_A"))
        self.assertIn("1.100", table[2])


if __name__ == "__main__":
    unittest.main()
