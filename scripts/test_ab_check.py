#!/usr/bin/env python3
"""Tests of the paired benchmark gate (scripts/ab_check.py).

    python3 scripts/test_ab_check.py                 # verdict rules
    python3 scripts/test_ab_check.py BENCH_MICRO     # runner smoke run

The verdict tests feed synthetic pairs to the gate with the bounds
and directions of the real BENCHMARK.json. The smoke run starts
BENCH_MICRO with no argument (all four rows), reads its output with
the gate's own parser, and checks that each row still measures the
workload of its old M-key.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab_check  # noqa: E402

BENCHMARK = ab_check.load_benchmark()
END_TO_END = BENCHMARK["end_to_end"]


def perfbench_run(correct=True, failed=0, **overrides):
    """A synthetic `--trace 0` result: every metric 1.0 unless overridden."""
    metrics = {m["name"]: {"value": overrides.get(m["name"], 1.0)}
               for m in END_TO_END}
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": metrics}


def verdicts(parent_runs, change_runs):
    rows = ab_check.gate_workload("w", parent_runs, change_runs, END_TO_END)
    return {r["name"].split("/", 1)[1]: r["verdict"] for r in rows}


def metric(better):
    return next(m["name"] for m in END_TO_END if m["better"] == better)


class VerdictTest(unittest.TestCase):
    def test_identical_samples_pass(self):
        runs = [perfbench_run() for _ in range(ab_check.E2E_PAIRS)]
        self.assertEqual(set(verdicts(runs, runs).values()), {"PASS"})
        micro = [(100.0, 100.0)] * ab_check.MICRO_PAIRS
        self.assertEqual(ab_check.gate_micro("net", micro)["verdict"],
                         "PASS")

    def test_lower_is_better_metric_30_percent_up_fails(self):
        name = metric("lower")
        parent = [perfbench_run()] * ab_check.E2E_PAIRS
        up = [perfbench_run(**{name: 1.3})] * ab_check.E2E_PAIRS
        down = [perfbench_run(**{name: 0.7})] * ab_check.E2E_PAIRS
        self.assertEqual(verdicts(parent, up)[name], "FAIL")
        self.assertEqual(verdicts(parent, down)[name], "PASS")

    def test_higher_is_better_metric_30_percent_down_fails(self):
        name = metric("higher")
        parent = [perfbench_run()] * ab_check.E2E_PAIRS
        down = [perfbench_run(**{name: 0.7})] * ab_check.E2E_PAIRS
        up = [perfbench_run(**{name: 1.3})] * ab_check.E2E_PAIRS
        self.assertEqual(verdicts(parent, down)[name], "FAIL")
        self.assertEqual(verdicts(parent, up)[name], "PASS")

    def test_micro_row_at_ratio_1_15_fails(self):
        pairs = [(100.0, 115.0)] * ab_check.MICRO_PAIRS
        row = ab_check.gate_micro("compile", pairs)
        self.assertEqual(row["verdict"], "FAIL")
        self.assertAlmostEqual(row["ratio"], 1.15)
        self.assertEqual(row["won"], f"0/{ab_check.MICRO_PAIRS}")

    def test_median_decides_a_micro_row(self):
        # One slow outlier pair in five does not move the median.
        pairs = [(100.0, 101.0)] * 4 + [(100.0, 400.0)]
        self.assertEqual(ab_check.gate_micro("net", pairs)["verdict"],
                         "PASS")

    def test_incorrect_run_fails(self):
        parent = [perfbench_run()] * ab_check.E2E_PAIRS
        change = [perfbench_run()] * (ab_check.E2E_PAIRS - 1) + [
            perfbench_run(correct=False)]
        self.assertEqual(verdicts(parent, change)["correct"], "FAIL")

    def test_higher_failed_share_fails(self):
        parent = [perfbench_run(failed=1)] * ab_check.E2E_PAIRS
        worse = [perfbench_run(failed=2)] * ab_check.E2E_PAIRS
        self.assertEqual(verdicts(parent, worse)["failed"], "FAIL")
        self.assertEqual(verdicts(parent, parent)["failed"], "PASS")

    def test_bounds_and_directions_come_from_benchmark_json(self):
        runs = [perfbench_run()] * ab_check.E2E_PAIRS
        names = [r["name"] for r in
                 ab_check.gate_workload("w", runs, runs, END_TO_END)]
        self.assertEqual(names[2:], [f"w/{m['name']}" for m in END_TO_END])
        for m in END_TO_END:
            # Just inside and just outside each metric's own bound,
            # in its own "worse" direction.
            for factor, verdict in ((1 + 0.9 * m["bound"], "PASS"),
                                    (1 + 1.1 * m["bound"], "FAIL")):
                value = factor if m["better"] == "lower" else 1 / factor
                change = [perfbench_run(**{m["name"]: value})] * len(runs)
                self.assertEqual(verdicts(runs, change)[m["name"]],
                                 verdict, (m, factor))

    def test_layer_report_leads_with_largest_deviation(self):
        per_layer = [{"name": n} for n in ("a.s", "b.s", "c.count", "d.s")]

        def traced(**values):
            return {"metrics": {k: {"value": v} for k, v in values.items()}}

        report = ab_check.layer_report(
            traced(**{"a.s": 1.0, "b.s": 2.0, "c.count": 5.0,
                      "d.s": -0.01}),
            traced(**{"a.s": 1.1, "b.s": 1.0, "c.count": 5.0,
                      "d.s": 0.02}), per_layer)
        self.assertEqual([r[0] for r in report],
                         ["b.s", "a.s", "c.count", "d.s"])
        self.assertIsNone(report[-1][3])


class BenchMicroSmoke(unittest.TestCase):
    binary = None

    # Per-run work of each row's workload, as the old M2, M5, M7
    # and M8 keys measured it.
    UNITS_PER_RUN = {"compile": 8177, "net": 9473, "net-degrade": 9602,
                     "net-ckpt": 15740}

    def setUp(self):
        if self.binary is None:
            self.skipTest("pass the bench_micro binary to run the smoke test")

    def test_all_rows_print_one_json_line(self):
        done = subprocess.run([self.binary], capture_output=True,
                              text=True, check=True)
        json_lines = [line for line in done.stdout.splitlines()
                      if line.startswith(("[", "{"))]
        self.assertEqual(len(json_lines), 1, done.stdout)
        figures = ab_check.last_json(done.stdout)
        self.assertEqual(tuple(f["row"] for f in figures), ab_check.ROWS)
        for f in figures:
            self.assertGreater(f["ns_per_unit"], 0.0)
            self.assertEqual(f["units_per_run"],
                             self.UNITS_PER_RUN[f["row"]], f)
        self.assertEqual(figures[-1]["restarts_per_run"], 6)


if __name__ == "__main__":
    if len(sys.argv) == 2:
        BenchMicroSmoke.binary = sys.argv.pop()
        unittest.main(defaultTest="BenchMicroSmoke")
    else:
        unittest.main()
