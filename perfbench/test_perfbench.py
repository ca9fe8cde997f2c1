#!/usr/bin/env python3
"""Tests of the simulator benchmark itself.

Run from the repository root:
    python3 perfbench/test_perfbench.py

- a very short run of each workload, traced and untraced, emits every
  metric named in BENCHMARK.json with its unit and passes its checks;
- the conservation checker and the traced-vs-untraced identity checker
  each reject deliberately perturbed ledgers and model outputs;
- on a held-out seed per workload (never used while the benchmark was
  tuned) the full-length correctness check passes, the traced run
  reproduces the untraced one, and two processes print identical model
  outputs;
- without the simulator sources the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HELD_OUT_SEEDS = {"pod_saturated": 9001, "tier_overload": 9002,
                  "fleet_diurnal": 9003}


def run_bench(workload, seed, trace, seconds=1, quick=False, cwd=ROOT):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def model_line(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("model "):
            return line
    return None


class QuickRuns(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, 1, trace, quick=True)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.check_result(result_of(proc), declared)


class Checkers(unittest.TestCase):
    def test_checkers_reject_perturbed_ledgers(self):
        run_bench(WORKLOADS[0], 1, 0, quick=True)  # builds the program
        build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        proc = subprocess.run([str(build / "perfbench"),
                               "--self-test"], capture_output=True, text=True,
                              timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        lines = proc.stdout.splitlines()
        self.assertTrue(any("conservation rejects" in l for l in lines))
        self.assertTrue(any("identity rejects" in l for l in lines))
        self.assertFalse(any(l.endswith("FAILED") for l in lines))


class HeldOutSeeds(unittest.TestCase):
    def test_held_out_seed_is_correct_and_repeatable(self):
        for workload, seed in HELD_OUT_SEEDS.items():
            with self.subTest(workload=workload, seed=seed):
                first = run_bench(workload, seed, 1)
                second = run_bench(workload, seed, 1)
                for proc in (first, second):
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertTrue(result_of(proc)["correct"], proc.stdout)
                self.assertIsNotNone(model_line(first))
                self.assertEqual(model_line(first), model_line(second))


class BrokenCheckout(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, str(Path(tmp) / HERE.name / "run.py"),
                 "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
