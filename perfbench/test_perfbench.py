"""Smoke test of the benchmark on tiny inputs (a few seconds per workload).

    python3 -m pytest -q perfbench/test_perfbench.py
    python3 perfbench/test_perfbench.py

Every workload runs untraced and traced with `--smoke`; the test checks the
result line against BENCHMARK.json (every metric present, finite, with its
unit), the spans the traced run wrote, and that the benchmark refuses to
run where the entlink sources are missing.  It checks the shape of the
output, not its correctness: two epochs on 20 documents are too few for
pipeline-default's prior < local < global check to hold.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)


class SmokeTest(unittest.TestCase):
    def result_of(self, workload: str, trace: int) -> dict:
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIsInstance(result["failed"], int)
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
        for metric in listed:
            entry = result["metrics"][metric["name"]]
            self.assertTrue(math.isfinite(entry["value"]), metric["name"])
            self.assertEqual(entry["unit"], metric["unit"])
        return result

    def test_untraced_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.result_of(workload, 0)

    def test_traced_metrics_and_spans(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.result_of(workload, 1)
                path = ROOT / ".bench_build" / "perfbench" / f"spans_{workload}_seed{SEED}_trace1_smoke.json"
                spans = json.loads(path.read_text())
                self.assertIn("pipeline", [s["name"] for s in spans if s["parent"] is None])
                ids = set()
                for span in spans:
                    self.assertTrue({"id", "name", "start", "end", "parent"} <= set(span))
                    self.assertLessEqual(span["start"], span["end"])
                    self.assertTrue(span["parent"] is None or span["parent"] in ids)
                    ids.add(span["id"])

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(bare, WORKLOADS[0], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
