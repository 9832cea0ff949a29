"""Self-test of the benchmark at tiny input sizes (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that the computed counts repeat exactly across two runs, and that a wrong
expected verdict is counted as a failed operation.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3
SECONDS = 1.0
REPEATED_COUNTS = (
    "core.paths_drawn",
    "estimate.kernel_pairs",
    "flow.oracle_calls",
    "calculus.csv_bytes",
)


def _tiny(workload, trace, plan_hook=None):
    return run.run_benchmark(workload, SEED, SECONDS, trace, "tiny", plan_hook)["result"]


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.traced = {w: [_tiny(w, True), _tiny(w, True)] for w in workloads.WORKLOADS}

    def test_spec_matches_code(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, run.PER_LAYER)

    def test_every_metric_emitted(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                result = _tiny(w, False)
                self.assertEqual(_units(result), run.END_TO_END)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                for traced in self.traced[w]:
                    self.assertEqual(_units(traced), run.PER_LAYER)
                    self.assertGreaterEqual(traced["attempted"], 1)

    def test_counts_repeat_exactly(self):
        for w, (first, second) in self.traced.items():
            for name in REPEATED_COUNTS:
                with self.subTest(workload=w, count=name):
                    self.assertEqual(first["metrics"][name], second["metrics"][name])
        for name in REPEATED_COUNTS:  # each count is exercised somewhere
            self.assertTrue(any(r[0]["metrics"][name]["value"] > 0 for r in self.traced.values()))

    def test_wrong_expected_verdict_fails(self):
        def expect_wrong_verdict(plan):
            for cmd in plan["commands"]:
                for check in cmd["checks"]:
                    if check["kind"] == "verdict":
                        check["expect"] = "not-straight-compatible"

        right = _tiny("oracle_2d", False)
        self.assertEqual(right["failed"], 0)
        wrong = _tiny("oracle_2d", False, expect_wrong_verdict)
        self.assertFalse(wrong["correct"])
        self.assertGreater(wrong["failed"] / wrong["attempted"], 0.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
