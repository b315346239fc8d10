#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 pwxbench/test_bench.py

Runs every workload at small sizes (untraced and traced), checks the result
line against the declared metrics, shows that a corrupted output fails the
command, and that the command refuses to run without the library sources.
The first test builds the benchmark (see run.py), which takes a few minutes
in a fresh checkout.
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
RUNNER = os.path.join(HERE, "run.py")
WORKLOADS = ("model_build", "fleet_serve", "corpus_refresh")


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def run(workload, trace="0", extra=(), cwd=ROOT, runner=RUNNER):
    return subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", trace, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeRuns(unittest.TestCase):
    def check_result(self, completed, kind):
        self.assertEqual(completed.returncode, 0, completed.stdout + completed.stderr)
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = declared(kind)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result["metrics"]

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(run(workload, extra=["--smoke"]), "end_to_end")
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_report_every_per_layer_metric(self):
        on_path = {
            "model_build": ["sim.run_ms", "acquire.training_campaign_s", "validate.cv_ms"],
            "fleet_serve": ["estimate.ns_per_sample", "fleet.ingest_ns_per_sample",
                            "estimate.lanes_invalid"],
            "corpus_refresh": ["trace.ingest_ms", "serve.split_ms", "fit.train_ms"],
        }
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_result(run(workload, "1", ["--smoke"]), "per_layer")
                for name in on_path[workload] + ["calib.reference_ms"]:
                    self.assertGreater(metrics[name]["value"], 0, name)


class PerturbedOutputs(unittest.TestCase):
    def test_a_corrupted_output_fails_the_command(self):
        for workload, output in (("model_build", "rows"), ("fleet_serve", "digest"),
                                 ("corpus_refresh", "generation")):
            with self.subTest(workload=workload, output=output):
                completed = run(workload, extra=["--smoke", "--perturb", output])
                self.assertEqual(completed.returncode, 1, completed.stderr)
                result = json.loads(completed.stdout.strip().splitlines()[-1])
                self.assertIs(result["correct"], False)
                self.assertIn("FAIL ", completed.stdout)


class IncompleteCheckout(unittest.TestCase):
    def test_refuses_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "pwxbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            completed = subprocess.run(
                [sys.executable, "pwxbench/run.py", "--workload", "model_build",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(completed.returncode, 0)
            self.assertEqual(completed.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
