"""Self-tests of the benchmark runner and its metric contract.

    python3 perfbench/run.py --selftest        (builds first, then runs these)

These check that the runner reports every metric BENCHMARK.json declares
with its unit (BENCHMARK.json is the only list of metrics: the binary
prints names and values), that the spread aggregation matches Python's
quartiles, that a failing output check ends the run with a non-zero
status and no result line, and that a directory without the simulator
sources fails the same way.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (the runner, imported for its helpers)
import spread  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def is_result(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return isinstance(obj, dict) and "correct" in obj


def binary_line(values, correct=True):
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0,
                       "metrics": values})


class MetricContract(unittest.TestCase):
    def test_a_run_emits_every_end_to_end_metric_with_its_unit(self):
        done = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "run.py"),
             "--workload", "fleet_mixed", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, want)
        self.assertTrue(result["correct"])

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in declared()["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_units_come_from_the_declaration(self):
        units = {"wall_s": "s", "setup_s": "s"}
        result, problems = run.with_units(
            binary_line({"wall_s": 1.5, "setup_s": 0.25}), units, False)
        self.assertEqual(problems, [])
        self.assertEqual(result["metrics"],
                         {"wall_s": {"value": 1.5, "unit": "s"},
                          "setup_s": {"value": 0.25, "unit": "s"}})
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})

    def test_missing_end_to_end_metric_is_refused(self):
        units = {"wall_s": "s", "setup_s": "s"}
        _, problems = run.with_units(binary_line({"wall_s": 1.5}), units,
                                     False)
        self.assertEqual(problems, ["metric setup_s missing"])

    def test_bypassed_layer_reports_zero(self):
        units = {"ssd.replay_s": "s", "core.characterize_s": "s"}
        result, problems = run.with_units(
            binary_line({"core.characterize_s": 2.0}), units, True)
        self.assertEqual(problems, [])
        self.assertEqual(result["metrics"]["ssd.replay_s"],
                         {"value": 0, "unit": "s"})

    def test_undeclared_metric_or_key_is_refused(self):
        units = {"wall_s": "s"}
        _, problems = run.with_units(
            binary_line({"wall_s": 1.0, "wal_s": 1.0}), units, True)
        self.assertEqual(problems, ["metric wal_s is not declared"])
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {}, "note": "x"})
        _, problems = run.with_units(line, units, True)
        self.assertTrue(problems)


class Aggregation(unittest.TestCase):
    def test_summary_uses_python_quartiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        med, q1, q3, width = spread.summarize(values)
        ref = statistics.quantiles(values, n=4)
        self.assertEqual(med, statistics.median(values))
        self.assertEqual((q1, q3), (ref[0], ref[2]))
        self.assertAlmostEqual(width, (ref[2] - ref[0]) / med)

    def test_seed_lists(self):
        self.assertEqual(spread.parse_seeds("1-3,7"), [1, 2, 3, 7])


class FailingRuns(unittest.TestCase):
    def test_failed_output_check_exits_non_zero_without_result(self):
        done = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "run.py"),
             "--workload", "fleet_mixed", "--seed", "1", "--seconds", "1",
             "--trace", "0", "--inject-check-failure"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        self.assertNotEqual(done.returncode, 0)
        lines = done.stdout.strip().splitlines()
        self.assertFalse(lines and is_result(lines[-1]))
        self.assertIn("injected check failure", done.stderr)

    def test_unknown_workload_is_a_usage_error(self):
        done = subprocess.run(
            [os.path.join(run.build_dir(), "perfbench"), "--workload",
             "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, "")

    def test_directory_without_sources_fails_without_result(self):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PERFBENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "chip_read", "--seed", "1", "--seconds", "1", "--trace",
                 "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            lines = done.stdout.strip().splitlines()
            self.assertFalse(lines and is_result(lines[-1]))


if __name__ == "__main__":
    unittest.main()
