#!/usr/bin/env python3
"""Self-check of the repo benchmark.

Usage (from the repository root):
    python3 perfbench/test_run.py

Drives perfbench/run.py on its cheapest workload (detect, one-second
runs) and checks that a tampered expected report fails the run, that
every printed metric name and unit matches BENCHMARK.json, that bad
arguments are rejected with a one-line error, and that a tree holding
only BENCHMARK.json and perfbench/ fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)


def quick(trace, *extra):
    return bench("--workload", "detect", "--seed", "0", "--seconds", "1",
                 "--trace", trace, *extra)


def result_lines(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class BenchmarkSelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build_dir().mkdir(parents=True, exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=run.build_dir()))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def assert_metrics(self, printed, spec_key):
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in printed.items()}
        self.assertEqual(got, want)

    def test_end_to_end_metrics_match_spec(self):
        proc = quick("0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        summary, result = result_lines(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(summary["fail_share"], 0.0)
        self.assert_metrics(result["metrics"], "end_to_end")
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)
            self.assertGreater(summary["metrics"][name]["samples"], 0)

    def test_per_layer_metrics_match_spec(self):
        proc = quick("1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        _, result = result_lines(proc)
        self.assertTrue(result["correct"])
        self.assert_metrics(result["metrics"], "per_layer")

    def test_tampered_expected_report_fails(self):
        tampered = self.tmp / "expected"
        shutil.copytree(HERE / "expected", tampered)
        path = tampered / "detect.json"
        reports = json.loads(path.read_text())
        seed = str(run.CAMPAIGN_SEEDS[0])
        line = reports[seed][0]
        reports[seed][0] = line[:-1] + ("0" if line[-1] != "0" else "1")
        path.write_text(json.dumps(reports))
        proc = quick("0", "--expected-dir", str(tampered))
        self.assertNotEqual(proc.returncode, 0)
        summary, result = result_lines(proc)
        self.assertGreater(summary["fail_share"], 0)
        self.assertGreater(result["failed"], 0)
        self.assertFalse(result["correct"])

    def assert_rejected(self, *args):
        proc = bench(*args)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertEqual(len(proc.stderr.strip().splitlines()), 1,
                         proc.stderr)

    def test_unknown_workload_rejected(self):
        self.assert_rejected("--workload", "nope", "--seed", "1",
                             "--seconds", "1", "--trace", "0")

    def test_malformed_seed_rejected(self):
        for seed in ("-1", "x7", "1.5", ""):
            with self.subTest(seed=seed):
                self.assert_rejected("--workload", "detect", "--seed",
                                     seed, "--seconds", "1",
                                     "--trace", "0")

    def test_bare_tree_fails_without_result(self):
        bare = self.tmp / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "detect", "--seed", "0", "--seconds",
                     "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
