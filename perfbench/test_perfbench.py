"""Self-tests of the benchmark itself (not of the package).

    python3 -m unittest discover -s perfbench      # or: python3 -m pytest perfbench

They run tiny-size passes: a few ops per workload, well under a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_tiny_runs_emit_every_declared_metric_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    res = result_of(run_bench("--workload", workload, "--seed", "0",
                                              "--seconds", "0", "--trace", str(trace),
                                              "--size", "tiny"))
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {name: m["unit"] for name, m in res["metrics"].items()}
                    self.assertEqual(got, declared)

    def test_tampered_expected_output_is_a_failed_op(self):
        workload = "exact"
        tiny_keys = [op.key for op in workloads.make_plan(workload, 0, "tiny").ops]
        with tempfile.TemporaryDirectory() as tmp:
            doc = json.loads((HERE / "expected" / f"{workload}.json").read_text(encoding="utf-8"))
            doc["digests"][tiny_keys[0]] = "0" * 64
            (Path(tmp) / f"{workload}.json").write_text(json.dumps(doc), encoding="utf-8")
            proc = run_bench("--workload", workload, "--seconds", "0", "--size", "tiny",
                             "--expected-dir", tmp)
        res = result_of(proc)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 3)  # the one tampered op, in each of three passes
        meta = json.loads(proc.stdout.splitlines()[-2])["meta"]
        self.assertIn("differs from the recorded output", meta["failures"][0])

    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out"))
            proc = run_bench("--workload", "constructive", "--seconds", "1", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class PlanTest(unittest.TestCase):
    def test_seed_fixes_order_and_tiny_is_a_subset(self):
        for workload in workloads.WORKLOADS:
            a = [op.key for op in workloads.make_plan(workload, 3).ops]
            self.assertEqual(a, [op.key for op in workloads.make_plan(workload, 3).ops])
            b_ops = workloads.make_plan(workload, 4).ops
            self.assertNotEqual(a, [op.key for op in b_ops])
            fixed = sorted(op.key for op in workloads.make_plan(workload, 3).ops if not op.seeded)
            self.assertEqual(fixed, sorted(op.key for op in b_ops if not op.seeded))
            full = {op.key for op in workloads.make_plan(workload, 0).ops}
            tiny = {op.key for op in workloads.make_plan(workload, 0, "tiny").ops}
            self.assertTrue(tiny < full)

    def test_built_trees_are_validated_after_their_build(self):
        for workload in workloads.WORKLOADS:
            ops = workloads.make_plan(workload, 7).ops
            for i, op in enumerate(ops):
                if op.out is not None:
                    self.assertEqual(ops[i + 1].argv[:2], ["validate", op.out])


class ChecksTest(unittest.TestCase):
    DOCS = {"L3": ["10"], "L1": ["11"]}

    def depths(self, lang: str, row: str, measures=("rd", "ra")) -> list[str]:
        header = "language,n,h_rd,h_ra,h_md,h_ma,class,source_rd,source_ra,source_md,source_ma\n"
        check = {"kind": "depths", "lang": lang, "measures": list(measures), "source": "EXACT"}
        return checks.check_op(check, self.DOCS, 0, header + row + "\n")

    def test_depth_invariants(self):
        self.assertEqual(self.depths("L3", "L3,7,3,1,,,3,EXACT,EXACT,SKIPPED,SKIPPED"), [])
        self.assertTrue(self.depths("L3", "L3,7,4,1,,,3,EXACT,EXACT,SKIPPED,SKIPPED"))
        self.assertTrue(self.depths("L1", "L1,5,5,6,,,1,EXACT,EXACT,SKIPPED,SKIPPED"))
        self.assertTrue(self.depths("L1", "L1,5,5,,,,1,EXACT,SKIPPED,SKIPPED,SKIPPED"))

    def test_counts_and_classes_from_brute_force(self):
        self.assertEqual(checks.slice_count(("010", "101"), 12), 24)
        self.assertEqual(checks.slice_count(("010", "101"), 40), 80)
        self.assertEqual(checks.slice_count(("",), 5), 0)
        self.assertEqual(checks.brute_class(("001", "010", "0111")), (3, "2", "inf"))
        self.assertEqual(checks.brute_class(()), (2, "inf", "inf"))
        check = {"kind": "count", "lang": "L3", "n": 9}
        self.assertEqual(checks.check_op(check, self.DOCS, 0, "10\n"), [])
        self.assertTrue(checks.check_op(check, self.DOCS, 0, "11\n"))


if __name__ == "__main__":
    unittest.main()
