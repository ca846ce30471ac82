"""The benchmark's workloads still build and pass their oracles.

perfbench/workloads.py drives the library through its public API; this
loads it read-only, builds each workload at seed 1 and runs its warm-up
operations through their oracles, so an API change that breaks the
benchmark fails here.  A declared known error counts as a refusal, as
the benchmark counts it, not as a failure.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
NAMES = ("fock-deep", "kernel-wide", "realize-samples", "cli-mix")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", NAMES)
def test_warmup_ops_pass_their_oracles(workloads, name, tmp_path, monkeypatch):
    # cli-mix writes its fixtures under the root and names them relative to it
    monkeypatch.chdir(tmp_path)
    work = workloads.build(name, 1, str(tmp_path))
    assert work.warmup and work.ops
    verified = 0
    for i in work.warmup:
        op = work.ops[i]
        try:
            out = op.call()
        except op.known_errors:
            continue
        bad = op.check(out)
        assert bad is None, "%s op %d (%s): %s" % (name, i, op.kind, bad)
        verified += 1
    assert verified > 0
