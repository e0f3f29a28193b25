#!/usr/bin/env python3
"""The benchmark's own test: every metric BENCHMARK.json names prints, with
its unit, on every workload, in both the end-to-end and the traced run;
the correctness checks pass; and a directory holding only the benchmark
(no cegraph sources) fails fast without printing a result.

    python3 perfbench/test_run.py          # from the checkout root

Runs in smoke mode (tiny inputs, one-second runs), so it takes about a
minute once the benchmark is built.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# Runnable and checked here, but not in BENCHMARK.json: too sensitive to
# vCPU steal on shared machines to hold a bound (see perfbench/README.md).
UNGATED = ["serve_churn"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + UNGATED


def run_bench(cwd, workload, trace, timeout=900):
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace),
                           "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


class BenchmarkTest(unittest.TestCase):

    def check_result(self, workload, trace, expected):
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(any(l.startswith("env: commit=") for l in lines),
                        "no environment line")
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, lines[-1])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in expected})
        for metric in expected:
            entry = got[metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(entry["value"], (int, float))
            self.assertTrue(math.isfinite(entry["value"]), metric["name"])

    def test_end_to_end_metrics_print_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 0, SPEC["end_to_end"])

    def test_per_layer_metrics_print_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(workload, 1, SPEC["per_layer"])

    def test_end_to_end_metrics_are_never_zero(self):
        proc = run_bench(ROOT, "serve_mixed", 0)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        for name, entry in metrics.items():
            self.assertGreater(entry["value"], 0, name)

    def test_without_sources_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench-test", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, SPEC["workloads"][0]["name"], 0, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            self.assertFalse(line.startswith("{"), line)


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(unittest.main())
