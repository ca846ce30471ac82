#!/usr/bin/env python3
"""Wall time of each CLI subcommand as a fresh process, and whether it loads scipy.

Run from anywhere in a checkout:

    python3 tools/cli_startup.py --seed 1 --repeats 7

It writes the cli-mix fixtures of perfbench/workloads.py (read-only) to a
temporary directory, as tools/fingerprint.py does, and takes the first
command line of each kind in that workload (eval and eval pullback count
as two kinds).  Each one runs --repeats times in a new interpreter with
this checkout's src/ first on PYTHONPATH, the runs of all kinds
interleaved.  One row per kind gives the exit code, the median and the
spread of the wall times (interpreter start, imports, the command and
its report), and whether any scipy module was loaded by the time the
command returned.  Unlike the in-process cli-mix workload, this includes
the cost of importing the library.

Only the standard library is used here; the fixtures are built by
workloads.py, which imports numpy and graph_hardy.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run as `python -c CHILD argv...`: the command's report goes to stdout as
# usual, then one last stderr line tells whether scipy was loaded
CHILD = """\
import sys
from graph_hardy.cli import main
try:
    code = main(sys.argv[1:])
finally:
    loaded = any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
    sys.stderr.write("\\nscipy-loaded %d\\n" % loaded)
sys.exit(code)
"""


def _load_workloads():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cli_commands(workloads, seed, root):
    """(kind, argv) for the first cli-mix operation of each kind, fixtures
    written under root.  The argv are read by calling each operation with
    a recording stand-in for cli.main."""
    seen = {}
    recorded = []
    real_cli = workloads.cli
    workloads.cli = types.SimpleNamespace(main=lambda argv: recorded.append(argv) or 0)
    try:
        work = workloads.build("cli-mix", seed, root)
        for op in work.ops:
            op.call()
            seen.setdefault(op.kind[len("cli "):], recorded[-1])
    finally:
        workloads.cli = real_cli
    return list(seen.items())


def run_once(argv, root):
    """(wall seconds, exit code, scipy loaded) of one fresh process, run
    in root with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD] + list(argv), cwd=root, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=300)
    wall = time.perf_counter() - t0
    last = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else ""
    if not last.startswith("scipy-loaded "):
        raise RuntimeError("%s: no scipy-loaded line on stderr: %s"
                           % (" ".join(argv), proc.stderr.strip()[-300:]))
    return wall, proc.returncode, last.endswith("1")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="cli-mix fixture seed (default 1)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="fresh processes per subcommand (default 7)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    workloads = _load_workloads()
    with tempfile.TemporaryDirectory() as root:
        commands = cli_commands(workloads, args.seed, root)
        runs = {kind: [] for kind, _ in commands}
        for _ in range(args.repeats):
            for kind, cmd in commands:
                runs[kind].append(run_once(cmd, root))
    print("%-16s %4s %9s %9s %9s %s" % ("command", "exit", "median_s", "min_s", "max_s",
                                        "scipy"))
    for kind, _ in commands:
        walls = [w for w, _, _ in runs[kind]]
        codes = sorted({c for _, c, _ in runs[kind]})
        scipy = any(s for _, _, s in runs[kind])
        print("%-16s %4s %9.4f %9.4f %9.4f %s" % (
            kind, "/".join(map(str, codes)), statistics.median(walls), min(walls), max(walls),
            "yes" if scipy else "no"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
