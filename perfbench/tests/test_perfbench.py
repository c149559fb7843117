#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/tests/test_perfbench.py

Runs every workload under every process model it names, at tiny sizes and
for one second, in both modes, and checks that each metric the benchmark
defines is printed with its unit (or marked unavailable with a reason),
that the final JSON line carries exactly the metrics BENCHMARK.json lists,
and that a corrupted oracle answer makes the command exit non-zero.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"

MODELS = {
    "cmfd": ["thread", "os-fork"],
    "tree": ["thread", "os-fork"],
    "pipeline": ["thread", "os-fork"],
    "short-forces": ["thread", "os-fork", "cluster"],
}

# End-to-end metrics: per model, then shared.
E2E_PER_MODEL = {"run_ms_p50": "ms", "run_ms_p90": "ms", "runs_per_s": "1/s",
                 "speedup_vs_seq": "x"}
E2E_SHARED = {"setup_s": "s", "failed_ratio": "ratio", "peak_rss_mb": "MB"}

PER_LAYER = {
    "force.entry_us": "us", "force.join_us": "us", "force.start_skew_us": "us",
    "doall.overhead_ns_per_iter": "ns", "doall.imbalance": "ratio",
    "doall.useful_claim_ratio": "ratio",
    "barrier.release_us": "us", "barrier.wait_us": "us", "barrier.section_us": "us",
    "barrier.episodes_per_run": "count",
    "reduce.release_us": "us", "reduce.wait_us": "us",
    "askfor.overhead_ns_per_task": "ns", "askfor.put_ns": "ns", "askfor.drain_us": "us",
    "askfor.tasks_max_over_mean": "ratio",
    "async.handoff_ns": "ns", "async.produce_block_ns": "ns",
    "async.consume_block_ns": "ns",
    "locks.acquires_per_run": "count", "locks.contended_ratio": "ratio",
    "locks.blocking_waits_per_run": "count",
    "cluster.coord_bytes_in_per_run": "B", "cluster.coord_bytes_out_per_run": "B",
    "cluster.coord_recv_calls_per_run": "count",
    "cluster.coord_send_calls_per_run": "count",
    "sched.vol_switches_per_run": "count", "sched.invol_switches_per_run": "count",
    "sched.cpu_ms_per_run": "ms",
    "trace.overhead_pct": "%",
}

# Layers each workload exercises: their metrics must be measured, not
# marked unavailable.
EXERCISED = {
    "cmfd": ["doall.overhead_ns_per_iter", "doall.imbalance", "barrier.section_us",
             "reduce.release_us", "reduce.wait_us"],
    "tree": ["askfor.overhead_ns_per_task", "askfor.put_ns", "askfor.drain_us",
             "askfor.tasks_max_over_mean", "reduce.release_us"],
    "pipeline": ["async.handoff_ns", "async.produce_block_ns", "async.consume_block_ns"],
    "short-forces": ["doall.overhead_ns_per_iter", "reduce.release_us"],
}


def run(workload, trace, *extra):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def report(stdout):
    """name -> ("metric", unit) or ("unavailable", unit)."""
    seen = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            float(parts[2])
            seen[parts[1]] = ("metric", parts[3])
        elif len(parts) > 3 and parts[0] == "unavailable":
            seen[parts[1]] = ("unavailable", parts[2])
    return seen


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check_json(self, proc, trace):
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_end_to_end_metrics(self):
        for workload, models in MODELS.items():
            with self.subTest(workload=workload):
                proc = run(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                seen = report(proc.stdout)
                for model in models:
                    for base, unit in E2E_PER_MODEL.items():
                        name = f"{base}.{model}"
                        self.assertIn(name, seen)
                        self.assertEqual(seen[name][1], unit, name)
                        expect = ("unavailable" if base == "speedup_vs_seq" and
                                  workload == "short-forces" else "metric")
                        self.assertEqual(seen[name][0], expect, name)
                for name, unit in E2E_SHARED.items():
                    self.assertEqual(seen.get(name), ("metric", unit), name)
                self.check_json(proc, 0)

    def test_per_layer_metrics(self):
        for workload, models in MODELS.items():
            with self.subTest(workload=workload):
                proc = run(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                seen = report(proc.stdout)
                for model in models:
                    for base, unit in PER_LAYER.items():
                        name = f"{base}.{model}"
                        self.assertIn(name, seen)
                        self.assertEqual(seen[name][1], unit, name)
                    for base in EXERCISED[workload]:
                        self.assertEqual(seen[f"{base}.{model}"][0], "metric", base)
                    if model == "cluster":
                        self.assertEqual(seen["cluster.coord_send_calls_per_run.cluster"][0],
                                         "metric")
                    if model == "thread":
                        self.assertEqual(seen["locks.acquires_per_run.thread"][0], "metric")
                self.check_json(proc, 1)

    def test_corrupted_oracle_fails(self):
        for workload in MODELS:
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--corrupt-oracle")
                self.assertNotEqual(proc.returncode, 0)
                self.assertIn("wrong answer", proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
