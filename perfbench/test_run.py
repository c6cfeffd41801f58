"""Tests of run.py's result handling: comparing results across hosts is
refused, and metrics must match BENCHMARK.json by name and unit.

Run with `python3 perfbench/run.py --selftest` (or `python3 -m unittest
test_run` from this directory)."""

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

import run

FP = {"nproc": 4, "cpu_model": "X", "simd_tier": "avx512", "gfni": True,
      "compiler": "gcc 12.2.0", "build_type": "Release", "openmp": True,
      "journal_fs": "ext4"}


def result(fingerprint, workload="sim_fig10", jobs_per_s=100.0):
    return {"workload": workload, "fingerprint": dict(fingerprint),
            "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"}}}


class FingerprintTest(unittest.TestCase):
    def test_identical_fingerprints_compare(self):
        self.assertEqual(run.fingerprint_mismatch(result(FP), result(FP)), [])

    def test_every_fingerprint_field_counts(self):
        for key, other in [("nproc", 1), ("cpu_model", "Y"),
                           ("simd_tier", "avx2"), ("gfni", False),
                           ("compiler", "clang 16"), ("build_type", "Debug"),
                           ("openmp", False), ("journal_fs", "tmpfs")]:
            b = dict(FP, **{key: other})
            reasons = run.fingerprint_mismatch(result(FP), result(b))
            self.assertEqual(len(reasons), 1, key)
            self.assertTrue(reasons[0].startswith(key), reasons)

    def test_missing_field_is_a_mismatch(self):
        b = dict(FP)
        del b["journal_fs"]
        self.assertTrue(run.fingerprint_mismatch(result(FP), result(b)))

    def test_different_workloads_refused(self):
        self.assertTrue(run.fingerprint_mismatch(
            result(FP), result(FP, workload="tcp_trivial")))

    def test_compare_refuses_with_exit_2(self):
        with tempfile.TemporaryDirectory() as d:
            a, b = Path(d) / "a.json", Path(d) / "b.json"
            a.write_text(json.dumps(result(FP)))
            b.write_text(json.dumps(result(dict(FP, nproc=1))))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                self.assertEqual(run.compare(a, b), 2)
            self.assertIn("refusing to compare", out.getvalue())
            b.write_text(json.dumps(result(FP, jobs_per_s=110.0)))
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(run.compare(a, b), 0)


class SelectMetricsTest(unittest.TestCase):
    WANTED = [{"name": "jobs_per_s", "unit": "1/s", "better": "higher"}]

    def test_selects_named_metrics_only(self):
        got = run.select_metrics(self.WANTED, {
            "jobs_per_s": {"value": 5.0, "unit": "1/s"},
            "extra": {"value": 1.0, "unit": "s"}})
        self.assertEqual(got, {"jobs_per_s": {"value": 5.0, "unit": "1/s"}})

    def test_missing_or_mislabelled_metric_is_an_error(self):
        with self.assertRaises(run.HarnessError):
            run.select_metrics(self.WANTED, {})
        with self.assertRaises(run.HarnessError):
            run.select_metrics(self.WANTED,
                               {"jobs_per_s": {"value": 5.0, "unit": "s"}})


if __name__ == "__main__":
    unittest.main()
