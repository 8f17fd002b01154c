#!/usr/bin/env python3
"""Self tests of the end-to-end benchmark, in its fast small-size mode.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks the metric catalog
against BENCHMARK.json, the emitted metric names against the catalog,
and the determinism of every simulated metric (same seed twice; serve
at 1 and 2 host threads).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

CATALOG = json.loads((run.BENCH_DIR / "catalog.json").read_text())
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(CATALOG["workloads"])
# Metrics that must repeat exactly for one seed.
DETERMINISTIC = {"simulated", "functional", "count", "host-accounting"}

_binary = None
_cache = {}


def binary():
    global _binary
    if _binary is None:
        _binary = run.build()
    return _binary


def small_run(workload, seed=1, threads=None, trace=1):
    key = (workload, seed, threads, trace)
    if key not in _cache:
        command = [str(binary()), "--workload", workload, "--seed",
                   str(seed), "--seconds", "0", "--trace", str(trace),
                   "--small"]
        if threads is not None:
            command += ["--threads", str(threads)]
        out = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                             text=True).stdout
        _cache[key] = json.loads(out.strip().splitlines()[-1])
    return _cache[key]


def deterministic_metrics(result):
    return {name: value for name, (value, _) in result["metrics"].items()
            if CATALOG["metrics"][name]["clock"] in DETERMINISTIC
            and not name.endswith("_calls")}


class CatalogTest(unittest.TestCase):
    def test_benchmark_json_matches_catalog(self):
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m for m in SPEC[kind]}
            catalogued = {n: m for n, m in CATALOG["metrics"].items()
                          if m["kind"] == kind}
            self.assertEqual(set(declared), set(catalogued), kind)
            for name, entry in declared.items():
                self.assertEqual(entry["unit"], catalogued[name]["unit"])
                self.assertEqual(entry["better"],
                                 catalogued[name]["better"])
        self.assertEqual([w["name"] for w in SPEC["workloads"]], WORKLOADS)

    def test_end_to_end_metrics_apply_to_every_workload(self):
        for name, entry in CATALOG["metrics"].items():
            self.assertTrue(set(entry["workloads"]) <= set(WORKLOADS), name)
            if entry["kind"] == "end_to_end":
                self.assertEqual(entry["workloads"], WORKLOADS, name)


class EmittedMetricsTest(unittest.TestCase):
    def test_every_declared_metric_is_emitted_and_none_else(self):
        for workload in WORKLOADS:
            result = small_run(workload)
            self.assertTrue(result["correct"], result["failed_checks"])
            expected = {n for n, m in CATALOG["metrics"].items()
                        if workload in m["workloads"]}
            self.assertEqual(set(result["metrics"]), expected, workload)

    def test_untraced_run_emits_every_end_to_end_metric(self):
        result = small_run("trace-s10m", trace=0)
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        self.assertTrue(end_to_end <= set(result["metrics"]))


class DeterminismTest(unittest.TestCase):
    def test_same_seed_gives_identical_simulated_metrics(self):
        for workload in WORKLOADS:
            first = small_run(workload, seed=7)
            _cache.pop((workload, 7, None, 1))
            second = small_run(workload, seed=7)
            self.assertEqual(deterministic_metrics(first),
                             deterministic_metrics(second), workload)

    def test_seed_changes_the_inputs(self):
        a = deterministic_metrics(small_run("serve-gnmt4k", seed=1))
        b = deterministic_metrics(small_run("serve-gnmt4k", seed=2))
        self.assertNotEqual(a, b)

    def test_serve_is_identical_at_one_and_two_threads(self):
        one = small_run("serve-gnmt4k", threads=1)
        two = small_run("serve-gnmt4k", threads=2)
        self.assertEqual(one["env"]["host_threads"], 1)
        self.assertEqual(two["env"]["host_threads"], 2)
        self.assertEqual(deterministic_metrics(one),
                         deterministic_metrics(two))


class RunnerTest(unittest.TestCase):
    def test_run_py_prints_the_contract_line(self):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
             "deploy-a670k-d64", "--seed", "3", "--seconds", "0",
             "--trace", "1", "--small"],
            cwd=run.ROOT, check=True, stdout=subprocess.PIPE, text=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertEqual(set(last["metrics"]),
                         {m["name"] for m in SPEC["per_layer"]})

    def test_run_py_fails_without_the_sources(self):
        bare = run.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "trace-s10m", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=60)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")

    def test_more_threads_than_cpus_is_refused(self):
        proc = subprocess.run(
            [str(binary()), "--workload", "serve-gnmt4k", "--seed", "1",
             "--seconds", "0", "--trace", "0", "--small", "--threads",
             "4096"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
