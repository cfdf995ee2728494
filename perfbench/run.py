#!/usr/bin/env python3
"""Run one workload of the layer-attributed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call builds the simulator and
the benchmark from source with CMake (Release) into
``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``);
later calls only bring that build up to date. Build output goes to
standard error.

The last line of standard output is the result: one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The benchmark
binary prints each metric as a name and a value; this runner gives each
its unit from BENCHMARK.json, which is the only list of metrics.
Untraced runs (``--trace 0``) must report every ``end_to_end`` metric;
traced runs report every ``per_layer`` metric, those of layers the
workload does not run as 0. A name BENCHMARK.json does not declare, or a
missing end-to-end metric, fails the run. The exit status is 0 only when
the build, every output check and that comparison passed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "4"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build; return the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "util", "metrics.hh")):
        fail("simulator sources (src/) not found next to perfbench/; "
             "run from the root of a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", BUILD_JOBS])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(cmd))
    return out


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def with_units(line, declared, bypassed_zero):
    """The binary's result line with units added, and its problems.

    ``declared`` maps metric names to units. With ``bypassed_zero`` a
    declared metric the binary did not report is 0 (a layer the workload
    does not run); without it, it is a problem. A reported name that is
    not declared is always a problem.
    """
    problems = []
    raw = json.loads(line)
    if set(raw) != {"correct", "attempted", "failed", "metrics"}:
        return None, ["result keys are %s" % sorted(raw)]
    values = raw["metrics"]
    for name in values:
        if name not in declared:
            problems.append("metric %s is not declared" % name)
    metrics = {}
    for name, unit in declared.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
        elif bypassed_zero:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            problems.append("metric %s missing" % name)
    return dict(raw, metrics=metrics), problems


def selftest():
    out = build()
    code = subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    tests = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"]).returncode
    return 0 if code == 0 and tests == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--inject-check-failure", action="store_true",
                    help="make one output check fail (harness self-test)")
    ap.add_argument("--selftest", action="store_true",
                    help="build, then run the harness self-tests")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    end_to_end, per_layer = declared_metrics()
    out = build()
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.inject_check_failure:
        cmd.append("--inject-check-failure")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail("workload %s failed (exit status %d)"
             % (args.workload, done.returncode))
    result, problems = with_units(lines[-1],
                                  per_layer if args.trace else end_to_end,
                                  bool(args.trace))
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
