#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, at tiny scale.

    python3 perfbench/test_perfbench.py

For every workload, a tiny run must
  1. print exactly the metrics BENCHMARK.json declares, with their units,
     under --trace 0 (end-to-end) and --trace 1 (per-layer);
  2. match its recorded references on the default and held-out seeds
     (failed == 0, so fail_rate is 0);
  3. report failed > 0 against a copy of the references with one output
     nudged by one part in 10^12, so the check can fail.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace=0, refs=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
           "--scale", "tiny"]
    if refs:
        cmd += ["--refs", str(refs)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode not in (0, 3):
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def perturb(refs_dir, workload, input_seed):
    """Nudge the first output of the first op of one seed's references."""
    path = run.ref_path(refs_dir, workload, "tiny")
    table = json.loads(path.read_text())
    op = table["seeds"][str(input_seed)][0]
    fields = op["exact"] or op["approx"]
    key, value = next((k, v) for k, v in sorted(fields.items())
                      if isinstance(v, (int, float)))
    fields[key] = value * (1 + 1e-12) + 1e-300 if op["exact"] else value + 1.0
    path.write_text(json.dumps(table))


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.check_environment()
        run.build()

    def check_metrics(self, result, kind):
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_workloads(self):
        for w in run.WORKLOADS:
            for seed in (run.DEFAULT_SEED, run.HELDOUT_SEED):
                with self.subTest(workload=w, seed=seed):
                    rc, res = bench(w, seed)
                    self.assertEqual(rc, 0)
                    self.check_metrics(res, "end_to_end")
                    self.assertEqual(res["failed"], 0)
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["metrics"]["ok_rate"]["value"], 1.0)

    def test_traced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                rc, res = bench(w, run.DEFAULT_SEED, trace=1)
                self.assertEqual(rc, 0)
                self.check_metrics(res, "per_layer")
                self.assertEqual(res["failed"], 0)

    def test_perturbed_reference_fails(self):
        refs = run.BUILD / "test_refs"
        shutil.rmtree(refs, ignore_errors=True)
        shutil.copytree(HERE / "refs", refs)
        try:
            for w in run.WORKLOADS:
                with self.subTest(workload=w):
                    perturb(refs, w, run.DEFAULT_SEED % run.SEED_TABLE)
                    rc, res = bench(w, run.DEFAULT_SEED, refs=refs)
                    self.assertEqual(rc, 3)
                    self.assertFalse(res["correct"])
                    self.assertGreater(res["failed"], 0)
                    self.assertLess(res["metrics"]["ok_rate"]["value"], 1.0)
        finally:
            shutil.rmtree(refs, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
