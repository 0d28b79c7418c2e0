#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Builds bixbench and its unit tests (bench_lib_test.cc: percentile rule,
chunked summaries, span self time, directory sizes), runs them, then runs
every workload at a tiny size through run.py, untraced and traced, on two
seeds, and checks the printed result, the metric names against
BENCHMARK.json, and that each trace file parses.  Finally it checks that
run.py fails without printing a result when the library sources are absent.
Uses the same build directory as run.py.
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
RUN = os.path.join(HERE, "run.py")
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
if not os.path.isabs(BUILD):
    BUILD = os.path.join(ROOT, BUILD)
SMOKE = ["--rows", "20000", "--seconds", "0.5"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, seed, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + SMOKE + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    return proc


class UnitTests(unittest.TestCase):
    def test_bench_lib(self):
        # run.py configures the build tree; build the unit tests there too.
        subprocess.run([sys.executable, RUN, "--workload",
                        SPEC["workloads"][0]["name"], "--seed", "1"] + SMOKE,
                       check=True, capture_output=True, timeout=900)
        subprocess.run(["cmake", "--build", BUILD, "--target",
                        "bixbench_test"], check=True, capture_output=True,
                       timeout=900)
        binary = os.path.join(BUILD, "bixbench_test")
        proc = subprocess.run([binary], capture_output=True, text=True,
                              timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class SmokeRuns(unittest.TestCase):
    def check(self, proc, trace):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        meta = json.loads(lines[-2])["meta"]
        for key in ("hardware_concurrency", "build_type", "sanitizers",
                    "compiler", "git_sha", "seed", "rows"):
            self.assertIn(key, meta)
        return result, meta

    def test_every_workload_two_seeds(self):
        for w in SPEC["workloads"]:
            names = []
            for seed in (1, 982451653):
                with self.subTest(workload=w["name"], seed=seed):
                    result, meta = self.check(
                        run_bench(w["name"], seed, 0), trace=False)
                    self.assertEqual(meta["seed"], seed)
                    names.append(sorted(result["metrics"]))
            self.assertEqual(names[0], names[1])

    def test_traced_runs_write_parsable_traces(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                out = os.path.join(BUILD, "traces", f"smoke-{w['name']}.json")
                result, _ = self.check(
                    run_bench(w["name"], 3, 1, ["--trace-out", out]),
                    trace=True)
                with open(out) as f:
                    trace = json.load(f)
                self.assertTrue(trace["traceEvents"])
                for e in trace["traceEvents"][:1000]:
                    self.assertEqual(e["ph"], "X")
                    self.assertIn("parent", e["args"])
                    self.assertIn("query_id", e["args"])
                self.assertIn("bench", trace["layer_summary"])
                m = result["metrics"]
                self.assertGreaterEqual(m["obs.unattributed_pct"]["value"], 0)
                self.assertLess(m["obs.unattributed_pct"]["value"], 100)
                os.remove(out)


class FailsWithoutSources(unittest.TestCase):
    def test_missing_sources_fail_without_result(self):
        os.makedirs(BUILD, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, os.path.basename(HERE)),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, os.path.join(os.path.basename(HERE),
                                              "run.py"),
                 "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
