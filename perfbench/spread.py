#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]
    python3 perfbench/spread.py --workload NAME --seeds 1,1,1,1,1

Runs ``perfbench/run.py --trace 0`` once per listed seed (one after
another, so the runs do not contend for the machine; a seed listed
several times repeats the same inputs) with BENCHMARK.json's
``run_seconds``, then prints, for every end-to-end metric, the median,
the first and third quartile (``statistics.quantiles(values, n=4)``) and
the spread ``(q3 - q1) / median``, compared with a third of the metric's
bound, the steadiness the benchmark is built to. ``setup_s`` is listed
but exempt, as the bound rule exempts it. The exit status is 1 when a
run failed or a spread is too wide.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    """'1-10' or '3,5,8' -> list of ints."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def summarize(values):
    """(median, q1, q3, spread) of a list of at least two numbers."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs = []
    ok = True
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, seconds)
        if result is None or not result["correct"]:
            print("seed %d: run failed" % seed)
            ok = False
            continue
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
    if len(runs) < 2:
        print("fewer than two good runs")
        return 1

    print("%-38s %14s %14s %14s %8s  %s" % ("metric", "median", "q1", "q3",
                                           "spread", "limit"))
    for name in runs[0]:
        values = [r[name] for r in runs]
        med, q1, q3, spread = summarize(values)
        limit = ""
        if name != "setup_s":
            limit = "%.4f" % (bounds[name] / 3)
            if spread > bounds[name] / 3:
                limit += "  TOO WIDE"
                ok = False
        print("%-38s %14.6g %14.6g %14.6g %8.4f  %s"
              % (name, med, q1, q3, spread, limit))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
