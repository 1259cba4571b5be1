#!/usr/bin/env python3
"""Tests of the benchmark itself, at the tiny input size.

    python3 perfbench/tests/test_perfbench.py

- every workload prints every metric BENCHMARK.json names, with its unit,
  untraced (end-to-end) and traced (per-layer), and passes its checks;
- a planted wrong outcome is counted as failed and fails the command;
- outside a full checkout the command fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT, command=RUN):
    return subprocess.run([sys.executable, command, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def tiny(workload, trace, *extra):
    return run("--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny",
               "--out", os.path.join(BUILD, "test-out"), *extra)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output; stderr:\n{proc.stderr}")
    return json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check_metrics(self, result, registry):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        want = {m["name"]: m["unit"] for m in registry}
        got = {name: value["unit"] for name, value in result["metrics"].items()}
        self.assertEqual(got, want)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_every_metric_prints_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, registry in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = tiny(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = result_of(proc)
                    self.check_metrics(result, registry)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    if trace == 0:
                        for name, value in result["metrics"].items():
                            self.assertGreater(value["value"], 0, name)

    def test_traced_run_writes_spans(self):
        workload = WORKLOADS[0]
        proc = tiny(workload, 1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        path = os.path.join(BUILD, "test-out", f"{workload}-seed5-trace-spans.json")
        with open(path) as handle:
            spans = json.load(handle)
        self.assertTrue(spans["spans"])
        self.assertTrue({"name", "start_ns", "end_ns", "parent", "trace"}
                        <= set(spans["spans"][0]))


class PlantedFault(unittest.TestCase):
    def test_wrong_outcome_is_counted_and_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = tiny(workload, 0, "--plant-fault")
                self.assertNotEqual(proc.returncode, 0)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_repository(self):
        bare = os.path.join(BUILD, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
