"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Run from the repository root. Checks that each workload emits exactly the
metrics ``BENCHMARK.json`` names, each with its declared unit; that the
count metrics of two traced runs repeat exactly; that failed operations
are counted; and that the command refuses to run without the package
source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join("perfbench", "run.py")
COUNT_UNITS = ("count", "ratio", "qubits", "terms")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])


class TestWorkloads(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, head = result_of(bench(w["name"], 0))
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertEqual(head["what_ran"]["qotp_lab_threads"],
                                 "unset")
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                first, head1 = result_of(bench(w["name"], 1))
                second, head2 = result_of(bench(w["name"], 1))
                self.check_metrics(first, SPEC["per_layer"])
                self.assertEqual(head1["outputs_sha256"],
                                 head2["outputs_sha256"])
                self.assertEqual(head["outputs_sha256"],
                                 head1["outputs_sha256"])
                for name, m in first["metrics"].items():
                    if m["unit"] in COUNT_UNITS and \
                            name != "trace.overhead_ratio":
                        self.assertEqual(m["value"],
                                         second["metrics"][name]["value"],
                                         name)

    def test_without_source_exits_nonzero(self):
        bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = bench("attack", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class TestErrorRate(unittest.TestCase):
    def test_failed_operations_are_counted(self):
        import worker
        from workloads import WORKLOADS

        class Faulty(WORKLOADS["attack"]):
            def op(self, i):
                if i == 1:
                    raise RuntimeError("injected failure")
                return super().op(i)

            def check(self, i, raw):
                res = super().check(i, raw)
                res.ok = res.ok and i != 2
                return res

        workload = Faulty(3, tiny=True)
        summary = worker.summarize(workload,
                                   worker.run_ops(workload, 0, count=4))
        self.assertEqual(summary["attempted"], 4)
        self.assertEqual(summary["failed"], 2)
        self.assertEqual(summary["work"], 2)


if __name__ == "__main__":
    unittest.main()
