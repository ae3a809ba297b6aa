#!/usr/bin/env python3
"""Self-tests of the benchmark, on tiny runs of every workload.

    python3 cdcbench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit in
both modes, that a run's input counts repeat exactly for its seed, and
that the digest gate fails when a warehouse row is deleted before the
comparison. Takes about a minute once the benchmark is built.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED_COUNTS = ("transactions", "statements", "rows_changed", "cycles")


def run(workload, seed, trace=0, corrupt=False):
    """Returns (exit code, detail line, result line) of one tiny run."""
    cmd = [sys.executable, str(ROOT / "cdcbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    if corrupt:
        cmd.append("--corrupt-warehouse")
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        return done.returncode, None, None
    return done.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, detail, result = run(workload, 1, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in SPEC[kind]})
                    for metric in SPEC[kind]:
                        got = result["metrics"][metric["name"]]
                        self.assertEqual(got["unit"], metric["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                        if trace == 0:
                            self.assertGreater(got["value"], 0, metric["name"])
                    self.assertIn("nproc", detail["host"])
                    self.assertTrue(detail["build_type"])
                    if trace:
                        self.assertGreaterEqual(
                            result["metrics"]["trace.coverage"]["value"], 0.9)

    def test_counts_repeat_for_a_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 3)[1]
                second = run(workload, 3)[1]
                for name in SEED_COUNTS:
                    self.assertEqual(first["counts"][name],
                                     second["counts"][name], name)
                self.assertEqual(first["params"], second["params"])
                self.assertGreater(first["counts"]["rows_changed"], 0)

    def test_gate_fails_when_a_warehouse_row_is_missing(self):
        code, detail, result = run("opdelta_trickle", 1, corrupt=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        source = int(detail["gate"]["source_digest"].split(":")[0])
        warehouse = int(detail["gate"]["warehouse_digest"].split(":")[0])
        self.assertEqual(source - warehouse, 1)


if __name__ == "__main__":
    unittest.main()
