#!/usr/bin/env python3
"""Digest of every benchmark operation's output, to compare two commits.

Run from anywhere in a checkout:

    python3 tools/fingerprint.py --seeds 1-3

It imports graph_hardy from this checkout's src/ and perfbench/workloads.py
read-only, builds each of the four workloads at each seed (cli-mix writes
its fixtures to a temporary directory), and runs every operation once.
Each workload prints one line: the number of operations, the number the
library refused with a declared error, and a sha256 over all outputs in
order.  Arrays enter the digest by dtype, shape and bytes, floats by
float.hex, dicts with their keys sorted, and a refusal by its exception
type and message, so equal digests on two commits mean bitwise-equal
outputs, CLI reports, stderr and exit codes included.

A last line, printed once whatever the seeds, digests the exit code and
stdout of every demo in demos/, each run in a fresh interpreter with
this checkout's src/ first on PYTHONPATH, as tests/test_demos.py runs
them.
"""

from __future__ import annotations

import argparse
import hashlib
import glob
import importlib.util
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fock-deep", "kernel-wide", "realize-samples", "cli-mix")


def _load_workloads():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _feed(h, obj):
    """Add obj to the hash h, tagged by kind so that different values never
    share an encoding."""
    import numpy as np
    import graph_hardy as gh

    if isinstance(obj, gh.HardyPoly):
        obj = ("HardyPoly", obj.coeffs)
    elif isinstance(obj, gh.SystemMatrix):
        obj = ("SystemMatrix", obj.assemble())
    elif isinstance(obj, gh.CpMapMatrix):
        obj = ("CpMapMatrix", obj.choi)
    elif isinstance(obj, gh.DualPoint):
        obj = ("DualPoint", obj.weights)

    if obj is None or isinstance(obj, (bool, np.bool_)):
        h.update(b"c%r;" % (obj,))
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d;" % obj)
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + float(obj).hex().encode() + b";")
    elif isinstance(obj, (complex, np.complexfloating)):
        h.update(b"z%s,%s;" % (float(obj.real).hex().encode(), float(obj.imag).hex().encode()))
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(b"s%d:" % len(data) + data)
    elif isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj).tobytes()
        h.update(b"a%s%r%d:" % (obj.dtype.str.encode(), obj.shape, len(data)) + data)
    elif isinstance(obj, (list, tuple)):
        h.update(b"l%d[" % len(obj))
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"d%d{" % len(obj))
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    else:
        raise TypeError("no digest encoding for %s" % type(obj).__name__)


def fingerprint(workloads, name, seed):
    """(operations, refusals, sha256 hex) of one workload at one seed."""
    h = hashlib.sha256()
    refused = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        # cli-mix names its fixtures relative to root, so run from there
        os.chdir(root)
        try:
            work = workloads.build(name, seed, root)
            for op in work.ops:
                try:
                    out = op.call()
                except op.known_errors as exc:
                    refused += 1
                    out = ("refused", type(exc).__name__, str(exc))
                _feed(h, (op.kind, out))
        finally:
            os.chdir(cwd)
    return len(work.ops), refused, h.hexdigest()


def demos_digest(paths):
    """sha256 hex over (file name, exit code, stdout) of each demo script."""
    h = hashlib.sha256()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    for path in paths:
        proc = subprocess.run([sys.executable, path], env=env, capture_output=True,
                              text=True, timeout=300)
        _feed(h, (os.path.basename(path), proc.returncode, proc.stdout))
    return h.hexdigest()


def _seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("1-3"),
                        help="seed or inclusive range, e.g. 1-3 (default)")
    args = parser.parse_args(argv)
    workloads = _load_workloads()
    for seed in args.seeds:
        for name in WORKLOADS:
            n, refused, digest = fingerprint(workloads, name, seed)
            print("seed %d %-16s ops %3d refused %3d sha256 %s"
                  % (seed, name, n, refused, digest), flush=True)
    demos = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
    print("demos sha256 %s" % demos_digest(demos), flush=True)


if __name__ == "__main__":
    main()
