"""Self-test of the benchmark itself, at tiny sizes.

    python3 bench/selftest.py

Runs every workload small, untraced and traced, and checks that each
metric named in BENCHMARK.json is emitted with its unit and that no
output check fails. Then it corrupts one expected digest and one expected
value and checks that the failures show, so the output checks are known
to be live. Finally it checks that the benchmark refuses to run, without
printing a result, when the library sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny(name: str, trace: bool = False, golden=None) -> dict:
    return run.result_line(run.measure(name, seed=3, seconds=0.01, trace=trace, tiny=True, golden=golden))


class EveryMetric(unittest.TestCase):
    def assert_metrics(self, line: dict, declared: list) -> None:
        self.assertTrue(line["correct"], line)
        self.assertEqual(line["failed"], 0)
        self.assertGreater(line["attempted"], 0)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in line["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                line = tiny(name)
                self.assert_metrics(line, SPEC["end_to_end"])
                for metric in line["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assert_metrics(tiny(name, trace=True), SPEC["per_layer"])

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))


class ChecksAreLive(unittest.TestCase):
    def test_corrupted_digest_fails(self):
        wl = workloads.WORKLOADS["verify_exhaustive"](True)
        lx = run.fresh_import()
        golden = wl.digests(wl.run_pass(lx, wl.setup(lx, 3, run.OUT_DIR)))
        self.assertEqual(tiny("verify_exhaustive", golden=golden)["failed"], 0)
        label = sorted(golden)[0]
        golden[label] = "0" * 64
        self.assertGreater(tiny("verify_exhaustive", golden=golden)["failed"], 0)

    def test_corrupted_value_fails(self):
        real = workloads.LexQuery.expect

        def off_by_one(self, lx, pair):
            exp = real(self, lx, pair)
            exp["kappa"] += 1
            return exp

        with mock.patch.object(workloads.LexQuery, "expect", off_by_one):
            line = tiny("lex_query")
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], line["attempted"])

    def test_corrupted_cli_value_fails(self):
        real = workloads.CliCalls.expect

        def wrong_delta(self, lx, item):
            exp = real(self, lx, item)
            if "delta" in exp:
                exp["delta"] += 1
            return exp

        with mock.patch.object(workloads.CliCalls, "expect", wrong_delta):
            self.assertGreater(tiny("cli_calls")["failed"], 0)


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory(self):
        bare = os.path.join(run.OUT_DIR, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [*SPEC["command"], "--workload", "lex_query", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    sys.path.insert(0, run.SRC)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    unittest.main()
