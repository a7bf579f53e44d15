#!/usr/bin/env python3
"""Smoke-scale tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Covers the result-line schema (every printed metric is declared in
BENCHMARK.json, with its unit), the correctness gate (a corrupted output
makes a run fail without a result line), the traced run's attribution
self-check and traced == untraced results, and the refusal to run from a
directory that holds only the benchmark.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_sweep", "solver_sweep", "mc_yield", "gateway_stream"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, seed=7, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"] + list(extra)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600,
                          env=env)


def result_line(proc):
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    return json.loads(last) if last.startswith("{") else None


def fact(proc, key):
    m = re.search(r"^\s+%s\s+(\S+)$" % re.escape(key), proc.stdout, re.M)
    return m.group(1) if m else None


class Schema(unittest.TestCase):
    def test_benchmark_json_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in s["workloads"]], WORKLOADS)
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        e2e = {m["name"]: m for m in s["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(max(m["bound"] for m in s["end_to_end"]),
                         e2e["setup_s"]["bound"])
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def check_result(self, proc, metrics_spec, positive):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result_line(proc)
        self.assertIsNotNone(r)
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(r["correct"], True)
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(r["failed"], 0)
        declared = {m["name"]: m["unit"] for m in metrics_spec}
        self.assertEqual(set(r["metrics"]), set(declared))
        for name, v in r["metrics"].items():
            self.assertEqual(set(v), {"value", "unit"})
            self.assertEqual(v["unit"], declared[name], name)
            self.assertTrue(math.isfinite(v["value"]), name)
            if positive:
                self.assertGreater(v["value"], 0.0, name)
        return r

    def test_every_workload_prints_declared_metrics(self):
        s = spec()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_result(run(w, 0), s["end_to_end"], positive=True)


class Gate(unittest.TestCase):
    def test_corrupted_output_fails_without_result(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, 0, "--tamper")
                self.assertNotEqual(proc.returncode, 0)
                self.assertIsNone(result_line(proc))
                self.assertIn("CHECK FAILED", proc.stderr)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = run("mc_yield", 0, cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result_line(proc))


class Attribution(unittest.TestCase):
    def test_traced_run_closes_ledger_and_matches_untraced(self):
        s = spec()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain = run(w, 0)
                traced = run(w, 1)
                r = Schema.check_result(self, traced, s["per_layer"],
                                        positive=False)
                self.assertLessEqual(
                    r["metrics"]["trace.ledger_error_ratio"]["value"], 0.01)
                key = "STREAM_DIGEST" if w == "gateway_stream" else \
                    "result_digest"
                self.assertIsNotNone(fact(plain, key))
                self.assertEqual(fact(plain, key), fact(traced, key))
                if w == "gateway_stream":
                    self.assertEqual(fact(traced, "STREAM_DIGEST"),
                                     fact(traced, "ORACLE_DIGEST"))

    def test_every_reconstructing_solver_shows_decode_time(self):
        r = result_line(run("solver_sweep", 1))
        for solver in ("omp", "bsbl", "amp"):
            self.assertGreater(
                r["metrics"]["cs.decode_s." + solver]["value"], 0.0, solver)


if __name__ == "__main__":
    unittest.main()
