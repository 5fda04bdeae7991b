"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

TINY = "0.002"


def bench_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec


def run_bench(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace),
         "--scale", TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out


class SmokeTest(unittest.TestCase):
    """All three workloads at a tiny scale print every named metric."""

    def check(self, workload, trace, section):
        out = run_bench(workload, trace)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = bench_names()[section]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
        for key in ("host_cores", "par_threads", "seed", "scale",
                    "input_reports", "input_digest", "report_digest",
                    "failed_frac"):
            self.assertIn(key, meta)
        self.assertEqual(meta["failed_frac"], 0)
        return result

    def test_end_to_end_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, "end_to_end")

    def test_per_layer_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, "per_layer")


class GateTest(unittest.TestCase):
    """The replay gate rejects an archive with one byte flipped."""

    def setUp(self):
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        if not target.is_absolute():
            target = ROOT / target
        self.worker, self.traced = run.build(target)
        self.dir = ROOT / ".perfbench" / f"gate-test-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def replay(self, inputs):
        code, out = run.run_proc([
            str(self.worker), "run", "--workload", "replay", "--seed", "11",
            "--scale", TINY, "--threads", "1", "--work", str(self.dir / "work"),
            "--inputs", str(inputs), "--traced-bin", str(self.traced)])
        self.assertEqual(code, 0, out)
        return run.last_json(out)

    def test_flipped_archive_byte_fails_the_gate(self):
        inputs = self.dir / "inputs"
        code, out = run.run_proc([str(self.worker), "gen", "--seed", "11",
                                  "--scale", TINY, "--inputs", str(inputs)])
        self.assertEqual(code, 0, out)
        clean = self.replay(inputs)
        self.assertTrue(clean["correct"], clean)
        self.assertEqual(clean["failed"], 0)

        archive = inputs / "run" / "archive"
        segment = min(archive.glob("seg-*.mseg"))
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0x40
        segment.write_bytes(bytes(data))

        damaged = self.replay(inputs)
        self.assertFalse(damaged["correct"], damaged)
        self.assertEqual(damaged["failed"], damaged["attempted"])
        self.assertTrue(damaged["reason"])


if __name__ == "__main__":
    unittest.main()
