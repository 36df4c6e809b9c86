#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json is well formed and matches what the program
prints, that the same seed reproduces the exact-count fingerprint and the
inputs, that another seed changes the inputs but not the metric set, that an
injected output mismatch fails the run, and that a checkout without the
library sources fails cleanly. Runs every workload for about a second.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ["unit-delay-deep", "zero-delay-wide", "service-small"]
SECONDS = "1"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace="0", extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", trace, *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    fingerprint = next((l for l in lines if l.startswith("fingerprint ")), None)
    digest = next((l for l in lines if l.startswith("inputs digest=")), None)
    return p.returncode, result, fingerprint, digest, p


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


class WorkloadTest(unittest.TestCase):
    spec = load_spec()

    def check_metrics(self, result, section):
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_workloads(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code_a, a, fp_a, dig_a, p = run(w, 5)
                self.assertEqual(code_a, 0, p.stderr[-2000:])
                self.assertTrue(a["correct"])
                self.assertEqual(a["failed"], 0)
                self.assertGreaterEqual(a["attempted"], 1)
                self.check_metrics(a, "end_to_end")
                for name in ("setup_s", "throughput_vps", "requests_per_s", "latency_p50_ms",
                             "latency_p99_ms", "peak_rss_mb"):
                    self.assertGreater(a["metrics"][name]["value"], 0, name)

                # Same seed: identical inputs and exact counts.
                code_b, _, fp_b, dig_b, _ = run(w, 5)
                self.assertEqual(code_b, 0)
                self.assertEqual(fp_a, fp_b)
                self.assertEqual(dig_a, dig_b)
                self.assertRegex(fp_a, r'"oracle\.checked_rows":[1-9]')

                # Another seed: other inputs, same metric set.
                code_c, c, _, dig_c, _ = run(w, 6)
                self.assertEqual(code_c, 0)
                self.assertNotEqual(dig_a, dig_c)
                self.assertEqual(set(c["metrics"]), set(a["metrics"]))

                # Traced: every per-layer metric, the same exact counts.
                code_t, t, fp_t, _, p = run(w, 5, trace="1")
                self.assertEqual(code_t, 0, p.stderr[-2000:])
                self.check_metrics(t, "per_layer")
                self.assertEqual(fp_t, fp_a)
                self.assertIn("self-time ", p.stdout)
                self.assertGreater(t["metrics"]["oracle.checked_rows"]["value"], 0)

                # An injected output mismatch fails the run.
                code_i, i, _, _, _ = run(w, 5, extra=["--inject-mismatch"])
                self.assertNotEqual(code_i, 0)
                self.assertFalse(i["correct"])
                self.assertGreaterEqual(i["failed"], 1)


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _, _, _ = run("service-small", 1, cwd=d)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    unittest.main()
