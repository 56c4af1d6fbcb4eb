#!/usr/bin/env python3
"""Tests for tools/bench/bench_record.py.

`record` runs against stub checkouts whose perfbench/run.py prints a fixed
metric set, so the test checks the pairing order and the written record
without running the simulator. `compare` runs on hand-built records.

Run directly or via ctest (registered as bench_record_selftest).
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
TOOL = REPO / "tools" / "bench" / "bench_record.py"
METRICS = {m["name"]: m for m in
           json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}

STUB = '''import json, os, sys
from pathlib import Path
here = Path.cwd()
with open(os.environ["STUB_LOG"], "a") as f:
    f.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
wall = float((here / "wall").read_text())
names = json.loads(os.environ["STUB_METRICS"])
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {n: {"value": wall if n == "wall_s" else 1.0,
                                  "unit": "x"} for n in names}}))
'''


def tool(*args, env=None):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, env=env)


def entry(median, q1, q3, runs):
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def record_doc(label, paired_with, values):
    """A record whose every metric reads 1.0 but those given in `values`."""
    metrics = {}
    for name, m in METRICS.items():
        e = values.get(name, entry(1.0, 1.0, 1.0, [1.0, 1.0, 1.0]))
        metrics[name] = dict(e, unit=m["unit"], better=m["better"])
    return {"label": label, "source": "test", "runs": 3, "seconds": 1,
            "paired_with": paired_with,
            "workloads": {"city_stream": {"1": metrics}}}


class RecordTest(unittest.TestCase):
    def test_alternates_sides_and_writes_quartiles(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, wall in (("a", "2.0"), ("b", "1.0")):
                (tmp / name / "perfbench").mkdir(parents=True)
                (tmp / name / "perfbench" / "run.py").write_text(STUB)
                (tmp / name / "wall").write_text(wall)
            log = tmp / "log"
            env = {"STUB_LOG": str(log),
                   "STUB_METRICS": json.dumps(sorted(METRICS)),
                   "PATH": "/usr/bin:/bin"}
            proc = tool("record", "--runs", "3",
                        "--seeds", "1,7", "--workloads", "city_stream",
                        "--out", str(tmp / "out"),
                        f"old={tmp / 'a'}", f"new={tmp / 'b'}", env=env)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            order = [line.split()[0] for line in log.read_text().splitlines()]
            # Each pair runs back to back; the first side alternates.
            self.assertEqual(order, ["a", "b", "b", "a", "a", "b"] * 2)
            seconds = json.loads(
                (REPO / "BENCHMARK.json").read_text())["run_seconds"]
            self.assertIn(f"--seconds {seconds} --trace 0", log.read_text())
            old = json.loads((tmp / "out" / "BENCH_old.json").read_text())
            self.assertEqual(old["paired_with"], ["new"])
            wall = old["workloads"]["city_stream"]["7"]["wall_s"]
            self.assertEqual(wall["runs"], [2.0, 2.0, 2.0])
            self.assertEqual((wall["q1"], wall["median"], wall["q3"]),
                             (2.0, 2.0, 2.0))
            self.assertEqual(wall["better"], "lower")

            proc = tool("compare", str(tmp / "out" / "BENCH_old.json"),
                        str(tmp / "out" / "BENCH_new.json"))
            self.assertEqual(proc.returncode, 0, proc.stdout)
            self.assertRegex(proc.stdout, r"wall_s .* 3/3\s+better")

    def test_rejects_a_side_without_perfbench(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.assertEqual(tool("record", f"x={tmp}").returncode, 2)


class CompareTest(unittest.TestCase):
    def compare(self, base, new):
        with tempfile.TemporaryDirectory() as tmp:
            b, n = Path(tmp, "b.json"), Path(tmp, "n.json")
            b.write_text(json.dumps(base))
            n.write_text(json.dumps(new))
            return tool("compare", str(b), str(n))

    def test_identical_records_pass(self):
        doc = record_doc("x", [], {})
        proc = self.compare(doc, doc)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("WORSE", proc.stdout)

    def test_median_beyond_upper_quartile_is_flagged(self):
        base = record_doc("old", ["new"], {
            "wall_s": entry(2.0, 1.9, 2.1, [1.9, 2.0, 2.1])})
        new = record_doc("new", ["old"], {
            "wall_s": entry(2.15, 2.1, 2.2, [2.1, 2.15, 2.2])})
        proc = self.compare(base, new)
        self.assertEqual(proc.returncode, 1)
        self.assertRegex(proc.stdout, r"wall_s .* 0/3\s+WORSE")

    def test_bound_caps_a_wide_spread(self):
        # BASE's spread reaches 3.0, but the 0.25 bound caps the tolerated
        # median at 2.5.
        base = record_doc("old", [], {
            "wall_s": entry(2.0, 1.0, 3.0, [1.0, 2.0, 3.0])})
        inside = record_doc("new", [], {
            "wall_s": entry(2.4, 2.4, 2.4, [2.4, 2.4, 2.4])})
        beyond = record_doc("new", [], {
            "wall_s": entry(2.6, 2.6, 2.6, [2.6, 2.6, 2.6])})
        self.assertEqual(self.compare(base, inside).returncode, 0)
        self.assertEqual(self.compare(base, beyond).returncode, 1)

    def test_higher_is_better_metrics_flag_a_drop(self):
        base = record_doc("old", [], {
            "handovers_per_s": entry(100.0, 95.0, 105.0, [95, 100, 105])})
        new = record_doc("new", [], {
            "handovers_per_s": entry(90.0, 90.0, 90.0, [90, 90, 90])})
        proc = self.compare(base, new)
        self.assertEqual(proc.returncode, 1)
        self.assertRegex(proc.stdout, r"handovers_per_s .*WORSE")

    def test_records_of_different_run_lengths_do_not_compare(self):
        base = record_doc("old", [], {})
        new = dict(record_doc("new", [], {}), seconds=2)
        proc = self.compare(base, new)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("do not compare", proc.stderr)

    def test_changed_outcome_metric_is_flagged(self):
        # Outcome metrics repeat exactly, so any move leaves the spread.
        base = record_doc("old", [], {})
        new = record_doc("new", [], {
            "pkt_loss_share": entry(1.01, 1.01, 1.01, [1.01] * 3)})
        proc = self.compare(base, new)
        self.assertEqual(proc.returncode, 1)
        self.assertRegex(proc.stdout, r"pkt_loss_share .*WORSE")


if __name__ == "__main__":
    unittest.main()
