#!/usr/bin/env python3
"""Smoke-size self-test of every benchmark workload.

    python3 perfbench/test_smoke.py

Runs each workload at smoke size, untraced and traced, through run.py and
checks that the result line carries exactly the metrics BENCHMARK.json
names, with their units, and that every correctness check passed. Also
checks that run.py refuses, without a result line, a directory holding
only the benchmark.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# the named figures each workload prints as text lines besides the result
REPORTED = {
    "fleet-disk": ["fleet_cold_programs_per_s", "fleet_warm_programs_per_s"],
    "serve-mix": ["serve_rps", "serve_small_p50_ms", "serve_small_tail_ms", "serve_large_p50_ms"],
    "certify-check": ["certify_s", "check_s", "cert_bytes"],
}
COMMON = ["error_rate", "verdict_mismatches"]


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


class Smoke(unittest.TestCase):
    def check_workload(self, workload, trace):
        proc = run(["--workload", workload, "--seed", "5", "--seconds", "1",
                    "--trace", str(trace), "--smoke"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in declared])
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        text = "\n".join(lines[:-1])
        for name in REPORTED[workload] + COMMON:
            self.assertRegex(text, rf"\n  {name} +[-0-9.]+ \S+", name)
        self.assertRegex(text, r"\n  verdict_mismatches +0\.0+ count")

    def test_fleet_disk(self):
        for trace in (0, 1):
            self.check_workload("fleet-disk", trace)

    def test_serve_mix(self):
        for trace in (0, 1):
            self.check_workload("serve-mix", trace)

    def test_certify_check(self):
        for trace in (0, 1):
            self.check_workload("certify-check", trace)

    def test_refuses_a_directory_without_the_repository(self):
        alone = os.path.join(ROOT, ".bench_work", "benchmark-alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "certify-check", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=alone)
        shutil.rmtree(alone)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
