#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds and compare each
end-to-end metric's spread with the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --seeds 1-10 --seeds2 11-20

Every workload of BENCHMARK.json runs for its run_seconds.  For every
workload and metric it prints the median over the seeds, the spread
(third minus first quartile, as statistics.quantiles(n=4) gives them,
divided by the median) and the bound.  A run that is not correct or has
a failed operation is reported and makes the check fail.  A spread at or
above the bound is marked FAIL and one at or above a third of it is
marked wide.  With --seeds2 a second set of runs follows on those seeds,
and a second median worse than the first by more than the bound is marked
FAIL as well.  Runs are sequential, one benchmark process at a time.  The raw values go to
perfbench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed, seconds):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=180)
    took = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return res, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Relative amount by which the second median is worse than the first."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seeds2", help="seeds of a second set of runs")
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    seed_sets = [seeds] + ([parse_seeds(args.seeds2)] if args.seeds2 else [])
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    raw = {}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for set_seeds in seed_sets:
            values = {name: [] for name in metrics}
            for seed in set_seeds:
                res, took = run_once(bench, workload, seed, seconds)
                if not res["correct"] or res["failed"]:
                    print("%s seed %d: correct is %s, %d of %d failed" % (
                        workload, seed, res["correct"], res["failed"], res["attempted"]))
                    failures += 1
                for name in metrics:
                    values[name].append(res["metrics"][name]["value"])
                print("  %s seed %d: %.0f s, %s" % (workload, seed, took, ", ".join(
                    "%s=%.4g" % (n, res["metrics"][n]["value"]) for n in metrics)), flush=True)
            sets.append(values)
        raw[workload] = sets
        print("%s (%d seeds)" % (workload, len(seeds)))
        for name, m in metrics.items():
            line = "  %-14s median %.5g %-5s" % (name, statistics.median(sets[0][name]), m["unit"])
            for i, values in enumerate(sets):
                s = spread(values[name])
                mark = " FAIL" if s >= m["bound"] else (" wide" if s >= m["bound"] / 3 else "")
                failures += mark == " FAIL"
                line += "  set %d spread %.4f%s" % (i + 1, s, mark)
            if len(sets) == 2:
                w = worse_by(sets[0][name], sets[1][name], m["better"])
                mark = " FAIL" if w > m["bound"] else ""
                failures += bool(mark)
                line += "  second median worse by %+.4f%s" % (w, mark)
            print(line + "  (bound %.2f)" % m["bound"], flush=True)

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "steady-%d.json" % int(time.time())), "w") as fh:
        json.dump({"seeds": seed_sets, "seconds": seconds, "values": raw}, fh, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
