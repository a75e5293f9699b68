#!/usr/bin/env python3
"""The exact delta gate (tools/check_bench_delta.py) on synthetic pairs.

Run directly: python3 tests/check_bench_delta_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "check_bench_delta.py")


def record(figure, arch, clients, value, unit="MB/s", host=False):
    rec = {"figure": figure, "architecture": arch, "clients": clients,
           "value": value, "unit": unit}
    if host:
        rec["host"] = True
    return rec


BASELINE = [
    record("6a", "Direct-pNFS", 1, 118.042),
    record("6a", "Direct-pNFS", 4, 131.5),
    record("6a", "PVFS2", 1, 102.7),
    record("rate-ratio", "always-vs-off", 4, 83.3, "percent", host=True),
]


class ExactGate(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def gate(self, fresh_records):
        paths = []
        for name, records in (("fresh", fresh_records), ("base", BASELINE)):
            path = os.path.join(self.dir.name, f"BENCH_{name}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"bench": "fig6_write", "records": records}, f)
            paths.append(path)
        proc = subprocess.run([sys.executable, GATE, *paths],
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def with_change(self, index, **fields):
        records = [dict(r) for r in BASELINE]
        records[index].update(fields)
        return records

    def test_identical_files_pass(self):
        code, out = self.gate(BASELINE)
        self.assertEqual(code, 0, out)

    def test_one_moved_value_fails_naming_the_point(self):
        code, out = self.gate(self.with_change(1, value=131.6))
        self.assertEqual(code, 1, out)
        self.assertIn("6a/Direct-pNFS/4: 131.5 MB/s -> 131.6 MB/s (+0.076%)",
                      out)
        self.assertNotIn("6a/Direct-pNFS/1", out)

    def test_a_rise_fails_like_a_drop(self):
        for value in (102.69, 102.71):
            code, out = self.gate(self.with_change(2, value=value))
            self.assertEqual(code, 1, out)
            self.assertIn("6a/PVFS2/1", out)

    def test_only_a_host_value_moved_passes(self):
        code, out = self.gate(self.with_change(3, value=41.0))
        self.assertEqual(code, 0, out)

    def test_missing_point_fails(self):
        code, out = self.gate(BASELINE[1:])
        self.assertEqual(code, 1, out)
        self.assertIn("6a/Direct-pNFS/1: 118.042 MB/s -> missing", out)

    def test_new_point_fails(self):
        code, out = self.gate(BASELINE + [record("6a", "NFSv4", 1, 50.1)])
        self.assertEqual(code, 1, out)
        self.assertIn("6a/NFSv4/1: missing -> 50.1 MB/s (new)", out)

    def test_changed_unit_fails(self):
        code, out = self.gate(self.with_change(0, unit="MiB/s"))
        self.assertEqual(code, 1, out)
        self.assertIn("unit changed", out)

    def test_dropping_the_host_mark_fails(self):
        code, out = self.gate(self.with_change(3, host=False))
        self.assertEqual(code, 1, out)
        self.assertIn("host mark changed", out)


if __name__ == "__main__":
    unittest.main()
