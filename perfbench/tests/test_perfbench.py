#!/usr/bin/env python3
"""Self-tests of the benchmark's own harness.

    python3 perfbench/tests/test_perfbench.py           # everything
    PERFBENCH_QUICK=1 python3 perfbench/tests/test_perfbench.py  # rules only

The rule tests are instant. The run tests build the benchmark (first time
only) and run every workload in both passes with a short --seconds, so they
take a few minutes.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402

QUICK = os.environ.get("PERFBENCH_QUICK") == "1"


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                       cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"run.py {args} failed:\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class PercentileRules(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.nearest_rank(v, 50), 50)
        self.assertEqual(metrics.nearest_rank(v, 90), 90)
        self.assertEqual(metrics.nearest_rank(v, 100), 100)
        self.assertEqual(metrics.nearest_rank([5.0], 90), 5.0)
        # Order of the input does not matter; rank is ceil(p * n / 100).
        self.assertEqual(metrics.nearest_rank([3, 1, 2, 4], 50), 2)
        self.assertEqual(metrics.nearest_rank(list(range(1, 11)), 90), 9)
        self.assertEqual(metrics.nearest_rank(list(range(1, 12)), 90), 10)

    def test_nearest_rank_rejects_bad_input(self):
        with self.assertRaises(metrics.MetricError):
            metrics.nearest_rank([], 50)
        with self.assertRaises(metrics.MetricError):
            metrics.nearest_rank([1, 2], 0)
        with self.assertRaises(metrics.MetricError):
            metrics.nearest_rank([1, 2], 90.5)

    def test_ten_samples_beyond_rule(self):
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertTrue(metrics.tail_reportable(100, 90))
        self.assertFalse(metrics.tail_reportable(99, 90))
        self.assertFalse(metrics.tail_reportable(0, 90))
        self.assertTrue(metrics.tail_reportable(20, 50))
        self.assertEqual(metrics.tail(list(range(1, 111))), 99)
        with self.assertRaises(metrics.MetricError):
            metrics.tail(list(range(1, 100)))

    def test_median_of_deterministic_counts_is_a_sample(self):
        raw = {"per_key": {"sssp_rounds": [4, 1, 3, 2]}}
        self.assertEqual(metrics._per_key_median(raw, "sssp_rounds"), 2)


class Names(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "core.cluster_ms", "mr.pool-extra", "9x"):
            self.assertRegex(good, metrics.NAME_RE)
        for bad in ("", "_lead", ".lead", "has space", "slash/x", "é",
                    "x" * 65):
            self.assertNotRegex(bad, metrics.NAME_RE)

    def test_declared_names_are_valid_and_unique(self):
        b = declared()
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        names += [w["name"] for w in b["workloads"]]
        for n in names:
            self.assertRegex(n, metrics.NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_declared_metrics_match_the_table(self):
        b = declared()
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in b["end_to_end"]],
            [(n, u, d) for n, u, d, _ in metrics.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in b["per_layer"]],
                         [(n, u) for n, u, _ in metrics.PER_LAYER])
        self.assertEqual(tuple(w["name"] for w in b["workloads"]),
                         metrics.WORKLOADS)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))


@unittest.skipIf(QUICK, "PERFBENCH_QUICK=1")
class Runs(unittest.TestCase):
    def test_every_declared_metric_is_emitted_and_nothing_else(self):
        b = declared()
        e2e = {m["name"]: m["unit"] for m in b["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in b["per_layer"]}
        for w in metrics.WORKLOADS:
            for trace, want in ((0, e2e), (1, layer)):
                with self.subTest(workload=w, trace=trace):
                    r = run_bench("--workload", w, "--seed", "3",
                                  "--seconds", "1", "--trace", str(trace))
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)

    def test_failed_op_is_counted(self):
        # serve.load=errno:EAGAIN@1 armed via the fault verb on a throwaway
        # daemon: the first request's response is an error.
        r = run_bench("--selftest-fault")
        self.assertFalse(r["correct"])
        self.assertEqual(r["attempted"], 4)
        self.assertEqual(r["failed"], 1)
        self.assertEqual(r["metrics"]["failed_frac"]["value"], 0.25)


if __name__ == "__main__":
    unittest.main()
