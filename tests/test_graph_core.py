"""Graph structure, path bookkeeping, and the edge bimodule."""

import json

import numpy as np
import pytest

import graph_hardy
from graph_hardy import (
    Graph,
    GraphError,
    build_graph,
    compose,
    fullness_flags,
    graph_to_dict,
    is_path,
    path_basis,
    path_range,
    path_source,
    two_vertex_example,
)
from graph_hardy import realization
from graph_hardy.graph_core import _complex_from_json, as_edge_function
from conftest import adjacency, random_graph


@pytest.fixture
def g2():
    return two_vertex_example()


def test_two_vertex_structure(g2):
    assert g2.vertices == ("v", "w")
    assert tuple(e.name for e in g2.edges) == ("e", "f", "g")
    assert g2.src == {"e": "v", "f": "w", "g": "w"}
    assert g2.dst == {"e": "w", "f": "v", "g": "w"}
    assert g2.out_edges("v") == ("e",)
    assert g2.out_edges("w") == ("f", "g")
    assert g2.in_edges("v") == ("f",)
    assert g2.in_edges("w") == ("e", "g")
    assert g2.loops() == ("g",)
    assert fullness_flags(g2) == (True, True)


def test_graph_validation_errors():
    with pytest.raises(GraphError):
        Graph(["v", "v"], [])
    with pytest.raises(GraphError):
        Graph([], [])
    with pytest.raises(GraphError):
        Graph(["v"], [("e", "v", "x")])
    with pytest.raises(GraphError):
        Graph(["v"], [("e", "v", "v"), ("e", "v", "v")])
    with pytest.raises(GraphError):
        Graph(["v"], [("v", "v", "v")])  # edge name clashes a vertex name


def test_fullness_flags_sink_and_source():
    g = Graph(["x", "y"], [("a", "x", "y")])
    is_full, left_faithful = fullness_flags(g)
    assert not is_full          # y has no outgoing edge
    assert not left_faithful    # x has no incoming edge


def test_path_basis_frozen(g2):
    assert path_basis(g2, 0) == ["v", "w"]
    assert path_basis(g2, 1) == [("e",), ("f",), ("g",)]
    assert path_basis(g2, 2) == [
        ("e", "f"), ("f", "e"), ("f", "g"), ("g", "e"), ("g", "g")]
    assert path_basis(g2, 3) == [
        ("e", "f", "e"), ("e", "f", "g"),
        ("f", "e", "f"), ("f", "g", "e"), ("f", "g", "g"),
        ("g", "e", "f"), ("g", "g", "e"), ("g", "g", "g")]
    with pytest.raises(ValueError):
        path_basis(g2, -1)


def test_path_counts_match_adjacency_powers():
    # independent oracle: paths of length k are counted by the entries of
    # the k-th power of the adjacency matrix
    rng = np.random.default_rng(7)
    for _ in range(12):
        g = random_graph(rng)
        A = adjacency(g)
        for k in range(4):
            expected = int(np.linalg.matrix_power(A, k).sum()) if k else g.nv
            assert len(path_basis(g, k)) == expected


def test_paths_are_composable_and_sorted(g2):
    rng = np.random.default_rng(3)
    for g in [g2] + [random_graph(rng) for _ in range(6)]:
        for k in (2, 3):
            level = path_basis(g, k)
            for p in level:
                assert is_path(g, p)
            idx = [tuple(g.eindex[e] for e in p) for p in level]
            assert idx == sorted(idx)
            assert len(set(level)) == len(level)


def test_compose_and_endpoints(g2):
    assert path_source(g2, ("f", "g")) == "w"
    assert path_range(g2, ("f", "g")) == "v"
    assert path_source(g2, "v") == "v" and path_range(g2, "v") == "v"
    assert compose(g2, ("e",), ("f",)) == ("e", "f")
    assert compose(g2, ("e",), ("e",)) is None
    assert compose(g2, "w", ("e",)) == ("e",)     # r(e) = w
    assert compose(g2, "v", ("e",)) is None
    assert compose(g2, ("e",), "v") == ("e",)     # s(e) = v
    assert compose(g2, ("e",), "w") is None
    assert compose(g2, "v", "v") == "v"
    assert compose(g2, "v", "w") is None


def test_is_path(g2):
    assert is_path(g2, "v")
    assert not is_path(g2, "z")
    assert is_path(g2, ("e", "f", "e"))
    assert not is_path(g2, ("e", "e"))
    assert not is_path(g2, ())
    assert not is_path(g2, ("q",))


def test_json_roundtrip(g2):
    d = graph_to_dict(g2)
    assert build_graph(d) == g2
    assert build_graph(json.loads(json.dumps(d))) == g2
    with pytest.raises(GraphError):
        build_graph({"vertices": ["v"]})


def test_center_is_loops():
    rng = np.random.default_rng(5)
    for _ in range(8):
        g = random_graph(rng, ensure_loop=True)
        assert g.loops() == tuple(e.name for e in g.edges if e.src == e.dst)
        assert all(g.src[e] == g.dst[e] for e in g.loops())


@pytest.mark.parametrize("val, ndim", [
    (float("nan"), 0), (float("inf"), 0), ([0.5, float("-inf")], 0), ("nan", 0),
    ([[0.1, [float("nan"), 0.0]]], 2),
])
def test_complex_from_json_rejects_non_finite(val, ndim):
    with pytest.raises(GraphError, match="is not finite"):
        _complex_from_json(val, ndim)


def test_vertex_and_edge_function_guards(g2):
    with pytest.raises(ValueError, match="length 3"):
        as_edge_function(g2, [1.0, 2.0])
    with pytest.raises(GraphError, match="unknown edge 'x'"):
        as_edge_function(g2, {"e": 1.0, "x": 2.0})


def test_conditioning_error_is_one_class():
    assert graph_hardy.ConditioningError is realization.ConditioningError
    assert issubclass(graph_hardy.ConditioningError, RuntimeError)
