"""tools/fingerprint.py still runs the benchmark's operations and digests them."""

import hashlib
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

FINGERPRINT_PY = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


@pytest.fixture(scope="module")
def fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", FINGERPRINT_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(fingerprint, obj):
    h = hashlib.sha256()
    fingerprint._feed(h, obj)
    return h.hexdigest()


def test_cli_mix_digest(fingerprint):
    cwd = os.getcwd()
    n, refused, hexdigest = fingerprint.fingerprint(fingerprint._load_workloads(), "cli-mix", 1)
    assert (n, refused) == (24, 0)
    assert len(hexdigest) == 64 and int(hexdigest, 16) >= 0
    assert os.getcwd() == cwd


def test_encoding_tells_values_apart(fingerprint):
    values = [0.0, -0.0, 0, False, None, 0j, "0", ["0"], ("0", "0"), {"0": 0},
              np.zeros(1), np.zeros((1, 1)), np.zeros(1, dtype=complex)]
    assert len({digest(fingerprint, v) for v in values}) == len(values)
    assert digest(fingerprint, {"b": 1, "a": 2}) == digest(fingerprint, {"a": 2, "b": 1})
    with pytest.raises(TypeError):
        digest(fingerprint, object())


def test_demos_digest_runs_a_demo(fingerprint):
    demo = str(FINGERPRINT_PY.parent.parent / "demos" / "01_fock_relations.py")
    hexdigest = fingerprint.demos_digest([demo])
    assert len(hexdigest) == 64 and hexdigest != fingerprint.demos_digest([])
