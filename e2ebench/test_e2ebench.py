#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself, on short runs.

    python3 e2ebench/test_e2ebench.py        (from the repository root)

They build the benchmark through run.py, then check: the binary's reduced-size
self-test (same seed, same fingerprints and counts; another seed, another
fingerprint; every output verified; the replay loop equal to
RealDriver::run on a zero-time burst); the result line of every workload in
both modes against BENCHMARK.json; and that a directory holding only the
benchmark fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def schedule_line(proc):
    return [line for line in proc.stdout.splitlines()
            if line.startswith("schedule:")][0]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        run.build()

    def test_selftest(self):
        proc = bench("--selftest")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("selftest: 0 failure(s)", proc.stdout)

    def test_result_line_matches_benchmark_json(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3",
                                 "--seconds", "1", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])
                    result = result_of(proc)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in self.spec[group]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_schedule_is_a_function_of_the_seed(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            with self.subTest(workload=workload):
                first = bench("--workload", workload, "--seed", "7",
                              "--seconds", "1")
                again = bench("--workload", workload, "--seed", "7",
                              "--seconds", "1")
                other = bench("--workload", workload, "--seed", "8",
                              "--seconds", "1")
                self.assertEqual(schedule_line(first), schedule_line(again))
                self.assertNotEqual(schedule_line(first), schedule_line(other))

    def test_fails_without_sources(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", "wc_shared",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
