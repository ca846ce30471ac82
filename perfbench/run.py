#!/usr/bin/env python3
"""graph-hardy benchmark: four workloads driven through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload fock-deep --seed 1 --seconds 24 --trace 0

One closed-loop caller (concurrency 1, no threads of its own; OpenBLAS
keeps its default thread count) repeats the workload's fixed operation list
for --seconds and checks every output against its oracle.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(wall_s, latency_p50_s, latency_p90_s, ok_frac, setup_s, peak_rss_mb);
with --trace 1 a separate traced run gives the per-layer metrics.
failed counts wrong outputs and undeclared exceptions.  An error that an
operation declares (ConditioningError in realize-samples) is a refusal:
it is not counted in failed, and it lowers ok_frac.

This parent process uses only the standard library.  It starts one child
process after another: SETUP_SAMPLES - 1 that only set up (import, input
generation, warm-up), half of them before and half after the one that sets
up and then measures.  setup_s is the median over these process starts,
which span the whole run, and peak_rss_mb is the measuring process's own
peak.  Results, with the environment they were measured in,
are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("fock-deep", "kernel-wide", "realize-samples", "cli-mix")
SETUP_SAMPLES = 5
MIN_PASSES = 3
DEADLINE_S = 170.0


def now():
    """CLOCK_MONOTONIC is system-wide, so a child can subtract the parent's
    reading taken just before the child was started."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# child side: everything that imports numpy or graph_hardy

def import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import graph_hardy
    if not os.path.abspath(graph_hardy.__file__).startswith(src + os.sep):
        raise ImportError("graph_hardy was not imported from %s" % src)
    return graph_hardy


def environment(seed):
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "graph_hardy")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout; None when it is not a git repository.  The
    ceiling keeps git from looking above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def run_op(op, latencies=None):
    """Time one call, then check it.  Returns None if the operation gave a
    verified answer, else (refused, reason): refused is True when the call
    raised one of the operation's declared errors."""
    t0 = time.perf_counter()
    try:
        out = op.call()
    except op.known_errors as exc:
        reason = (True, "%s: %s: %s" % (op.kind, type(exc).__name__, exc))
    except Exception as exc:  # any other exception is a wrong answer
        reason = (False, "%s: %s: %s" % (op.kind, type(exc).__name__, exc))
    else:
        reason = None
    if latencies is not None:
        latencies.append(time.perf_counter() - t0)
    if reason is None:
        bad = op.check(out)
        if bad:
            reason = (False, "%s: %s" % (op.kind, bad))
    return reason


class Tally:
    """``refused`` counts declared errors, ``failed`` everything else that
    gave no verified answer: a wrong output or an undeclared exception."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.wrong = []

    def add(self, reason):
        self.attempted += 1
        if reason is None:
            return
        if reason[0]:
            self.refused += 1
            return
        self.failed += 1
        if len(self.wrong) < 20:
            self.wrong.append(reason[1])


def run_pass(work, tally, latencies=None, tracer=None, pass_no=0):
    t0 = time.perf_counter()
    for i, op in enumerate(work.ops):
        if tracer is not None:
            tracer.op_id = pass_no * len(work.ops) + i
        tally.add(run_op(op, latencies))
    return time.perf_counter() - t0


def child(args):
    package = import_library()
    import workloads
    work = workloads.build(args.workload, args.seed, ROOT)
    for i in work.warmup:
        run_op(work.ops[i])
    setup_s = now() - args.t0
    if args.child == "setup":
        return {"setup_s": setup_s}

    result = {"setup_s": setup_s, "env": environment(args.seed), "sizes": work.sizes,
              "fixtures_sha256": work.fixtures, "ops_per_pass": len(work.ops)}
    tally, latencies, passes = Tally(), [], []
    budget = args.seconds / 2.0 if args.child == "trace" else float(args.seconds)
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < budget:
        passes.append(run_pass(work, tally, latencies))
    if args.child == "measure":
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        result.update(traced_passes(package, work, tally, budget, passes, args))
    result.update(passes=passes, latencies=latencies, attempted=tally.attempted,
                  failed=tally.failed, refused=tally.refused, wrong=tally.wrong)
    return result


def traced_passes(package, work, tally, budget, untraced, args):
    """Repeat the operation list under the tracer for `budget` seconds and
    return the per-layer metrics, per traced pass."""
    import tracer as tracing
    tr = tracing.install_graph_hardy(package)
    work.counts.clear()
    traced, bench_self = [], 0.0
    start = time.perf_counter()
    try:
        while len(traced) < MIN_PASSES or time.perf_counter() - start < budget:
            before = tr.root_time()
            wall = run_pass(work, tally, tracer=tr, pass_no=len(traced))
            traced.append(wall)
            bench_self += wall - (tr.root_time() - before)
    finally:
        tr.uninstall()
    values = tracing.layer_values(tr, work.counts)
    values["bench.self_s"] = bench_self
    values["bench.traced_wall_s"] = sum(traced)
    per_pass = {name: values.get(name, 0) / len(traced) for name in tracing.PER_LAYER}
    per_pass["bench.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    os.makedirs(OUT, exist_ok=True)
    tr.write(os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed)),
             {"workload": args.workload, "seed": args.seed, "ops": [op.kind for op in work.ops]})
    return {"traced_passes": traced, "per_layer": per_pass, "spans": len(tr.spans)}


# ---------------------------------------------------------------------------
# parent side

def spawn(args, mode, deadline):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child", mode]
    t0 = now()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("%s child exited with %d" % (mode, proc.returncode))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def end_to_end(res, setup_samples):
    lat = sorted(res["latencies"])
    p90 = statistics.quantiles(lat, n=10)[8]
    metrics = {
        "wall_s": (statistics.median(res["passes"]), "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (p90, "s"),
        "ok_frac": (1.0 - (res["failed"] + res["refused"]) / res["attempted"], "frac"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    summary = [
        "wall_s        %.4f s   median of %d passes of %d ops"
        % (metrics["wall_s"][0], len(res["passes"]), res["ops_per_pass"]),
        "latency_p50_s %.5f s   over %d operation samples"
        % (metrics["latency_p50_s"][0], len(lat)),
        "latency_p90_s %.5f s   %d samples above it"
        % (p90, sum(1 for x in lat if x > p90)),
        "fail_frac     %.4f     %d of %d attempted gave no verified answer: %d refused"
        " with a declared error, %d failed" % (
            1.0 - metrics["ok_frac"][0], res["refused"] + res["failed"], res["attempted"],
            res["refused"], res["failed"]),
        "ok_frac       %.4f     1 - fail_frac" % metrics["ok_frac"][0],
        "setup_s       %.4f s   median of %s" % (
            metrics["setup_s"][0], ", ".join("%.3f" % s for s in setup_samples)),
        "peak_rss_mb   %.1f MB" % metrics["peak_rss_mb"][0],
    ]
    return metrics, summary


def per_layer(res):
    import tracer as tracing  # stdlib-only part of the module
    metrics = {name: (res["per_layer"][name], unit) for name, unit in tracing.PER_LAYER.items()}
    layers = [k for k in metrics if k.count(".") == 1 and k.endswith(".self_s")]
    accounted = sum(metrics[k][0] for k in layers)
    summary = ["%-45s %.6g %s" % (k, v, u) for k, (v, u) in metrics.items()]
    summary.append("layer self times incl. bench.self_s sum to %.4f s of %.4f s traced wall"
                   " per pass (%d traced passes, %d spans)"
                   % (accounted, metrics["bench.traced_wall_s"][0],
                      len(res["traced_passes"]), res["spans"]))
    return metrics, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        print(json.dumps(child(args)))
        return 0

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res = spawn(args, "trace", deadline)
            metrics, summary = per_layer(res)
        else:
            before = (SETUP_SAMPLES - 1) // 2
            setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(before)]
            res = spawn(args, "measure", deadline)
            setups.append(res["setup_s"])
            setups += [spawn(args, "setup", deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES - 1 - before)]
            metrics, summary = end_to_end(res, setups)
            res["setup_samples"] = setups
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1

    correct = not res["wrong"]
    print("graph-hardy benchmark: workload %s, seed %d, trace %d"
          % (args.workload, args.seed, args.trace))
    for line in summary:
        print("  " + line)
    for line in res["wrong"]:
        print("  WRONG " + line)
    env = res["env"]
    print("  env: " + json.dumps(env, sort_keys=True))
    print("  fixtures sha256: " + json.dumps(res["fixtures_sha256"], sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    res.pop("latencies", None)
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
