"""Dual-ball points, rank-one maps, resolvents, and evaluation."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graph_hardy import (
    BoundaryError,
    DualPoint,
    Graph,
    GraphError,
    HardyPoly,
    dual_norm,
    evaluate_poly,
    make_central_point,
    make_dual_point,
    mobius_congruence_matrix,
    pick_feasibility,
    point_from_dict,
    point_to_dict,
    random_point,
    resolvent_matrix,
    schur_class_check,
    theta_matrix,
    two_vertex_example,
    zero_point,
)
from graph_hardy.dual_eval import _resolvent_stack, _theta_stack, _weight_stack
from conftest import random_graph


@pytest.fixture
def g2():
    return two_vertex_example()


def test_dual_norm_frozen(g2):
    # columns: v collects f, w collects e and g
    w = {"e": 0.3, "f": 0.4, "g": 0.5}
    assert abs(dual_norm(g2, w) - np.sqrt(0.34)) < 1e-15
    p = make_dual_point(g2, w)
    assert abs(p.norm - np.sqrt(0.34)) < 1e-15
    assert p.weight("f") == 0.4


def test_point_matrix_support(g2):
    p = make_dual_point(g2, {"e": 0.1, "f": 0.2j, "g": -0.3})
    m = p.matrix()
    assert m.shape == (3, 2)
    for i, e in enumerate(g2.edges):
        for j, v in enumerate(g2.vertices):
            expected = p.weights[i] if v == e.dst else 0.0
            assert m[i, j] == expected


def test_boundary_guard(g2):
    with pytest.raises(BoundaryError):
        make_dual_point(g2, {"g": 1.0})
    p = make_dual_point(g2, {"g": 1.0}, allow_boundary=True)
    assert abs(p.norm - 1.0) < 1e-15
    with pytest.raises(BoundaryError):
        make_dual_point(g2, {"g": 1.1}, allow_boundary=True)
    assert zero_point(g2).norm == 0.0


@pytest.mark.parametrize("allow_boundary", [False, True])
def test_nan_weight_is_outside_the_ball(g2, allow_boundary):
    # a NaN norm fails every comparison, so "norm >= 1" alone lets it through
    with pytest.raises(BoundaryError):
        DualPoint(g2, [np.nan, 0.1, 0.2], allow_boundary=allow_boundary)


def test_evaluate_frozen(g2):
    x = HardyPoly(g2, {"v": 2.0, ("e",): 3.0, ("f", "g"): 5.0})
    p = make_dual_point(g2, {"e": 0.2 + 0.1j, "f": -0.3, "g": 0.4j})
    val = evaluate_poly(x, p)
    expected = np.array([[2.0, 0.6j], [0.6 - 0.3j, 0.0]])
    np.testing.assert_allclose(val, expected, atol=1e-15)


def test_evaluate_unit_is_identity(g2):
    rng = np.random.default_rng(1)
    p = random_point(g2, rng, max_norm=0.8)
    np.testing.assert_allclose(evaluate_poly(HardyPoly.one(g2), p),
                               np.eye(2), atol=1e-15)


@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
       st.floats(-0.5, 0.5))
def test_evaluation_is_multiplicative(ar, ai, br, cr):
    g = two_vertex_example()
    p = DualPoint(g, np.array([complex(ar, ai), complex(br), complex(cr)]) * 0.9,
                  allow_boundary=True)
    x = HardyPoly(g, {"v": 1.0, ("e",): 2.0, ("f", "g"): -1.0j})
    y = HardyPoly(g, {"w": 0.5, ("f",): 1.0, ("g",): 1.0 + 1.0j})
    np.testing.assert_allclose(
        evaluate_poly(x * y, p), evaluate_poly(x, p) @ evaluate_poly(y, p),
        atol=1e-12)
    np.testing.assert_allclose(
        evaluate_poly(x + y, p), evaluate_poly(x, p) + evaluate_poly(y, p),
        atol=1e-12)


def test_evaluation_multiplicative_random(g2):
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = HardyPoly(g2, {pth: rng.standard_normal() + 1j * rng.standard_normal()
                           for pth in [("e",), ("g",), "v", ("f", "g")]})
        y = HardyPoly(g2, {pth: rng.standard_normal() + 1j * rng.standard_normal()
                           for pth in [("f",), ("g", "g"), "w"]})
        p = random_point(g2, rng, max_norm=0.9)
        np.testing.assert_allclose(
            evaluate_poly(x * y, p), evaluate_poly(x, p) @ evaluate_poly(y, p),
            atol=1e-12)


def test_theta_resolvent_classical_oracle():
    g = Graph(["u"], [("z", "u", "u")])
    w1, w2 = 0.5, 0.3 + 0.4j
    p1 = make_dual_point(g, {"z": w1})
    p2 = make_dual_point(g, {"z": w2})
    assert abs(theta_matrix(p1, p2)[0, 0] - np.conj(w1) * w2) < 1e-15
    expected = 1.0 / (1.0 - np.conj(w1) * w2)
    assert abs(resolvent_matrix(p1, p2)[0, 0] - expected) < 1e-14


def test_resolvent_neumann_series(g2):
    rng = np.random.default_rng(19)
    for _ in range(4):
        p1 = random_point(g2, rng, max_norm=0.8)
        p2 = random_point(g2, rng, max_norm=0.8)
        th = theta_matrix(p1, p2)
        acc = np.eye(2, dtype=complex)
        term = np.eye(2, dtype=complex)
        for _ in range(200):
            term = th @ term
            acc += term
        np.testing.assert_allclose(resolvent_matrix(p1, p2), acc, atol=1e-12)


def test_theta_helpers(g2):
    rng = np.random.default_rng(37)
    p1 = random_point(g2, rng, max_norm=0.7)
    p2 = random_point(g2, rng, max_norm=0.7)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    # theta_{p1, p2}(a)(v) = sum_{r(e) = v} conj(w1(e)) a(s(e)) w2(e)
    direct = np.zeros(2, dtype=complex)
    for e in g2.edges:
        direct[g2.vindex[e.dst]] += (np.conj(p1.weight(e.name)) * a[g2.vindex[e.src]]
                                     * p2.weight(e.name))
    np.testing.assert_allclose(theta_matrix(p1, p2) @ a, direct, atol=1e-14)
    x = resolvent_matrix(p1, p2) @ a
    np.testing.assert_allclose((np.eye(2) - theta_matrix(p1, p2)) @ x, a,
                               atol=1e-13)


def test_random_point_norm_range(g2):
    rng = np.random.default_rng(41)
    for _ in range(10):
        p = random_point(g2, rng, max_norm=0.6, min_norm=0.2)
        assert 0.2 - 1e-12 <= p.norm <= 0.6 + 1e-12


def test_graph_mismatch(g2):
    other = Graph(["u"], [("z", "u", "u")])
    p1 = make_dual_point(g2, {"g": 0.5})
    p2 = make_dual_point(other, {"z": 0.5})
    with pytest.raises(GraphError):
        theta_matrix(p1, p2)
    with pytest.raises(GraphError):
        evaluate_poly(HardyPoly.one(other), p1)


def test_weight_stack_rows_and_graph_check(g2):
    rng = np.random.default_rng(3)
    pts = [random_point(g2, rng) for _ in range(4)]
    w = _weight_stack(g2, pts)
    assert w.shape == (4, g2.ne)
    np.testing.assert_array_equal(w, [p.weights for p in pts])
    assert _weight_stack(g2, []).shape == (0, g2.ne)
    # a graph with the same number of edges is still another graph
    other = Graph(["v", "w"], [("e", "w", "v"), ("f", "v", "w"), ("g", "v", "v")])
    with pytest.raises(GraphError, match="different graphs"):
        _weight_stack(g2, pts + [make_dual_point(other, {"g": 0.5})])


def test_resolvent_stack_is_bitwise_the_solve():
    # the batched inverse runs the same LU as solve(id - theta, id)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        w1 = _weight_stack(g, [random_point(g, rng, max_norm=0.95) for _ in range(5)])
        w2 = _weight_stack(g, [random_point(g, rng, max_norm=0.95) for _ in range(3)])
        eye = np.eye(g.nv, dtype=complex)
        want = np.linalg.solve(eye - _theta_stack(g, w1, w2), eye)
        assert _resolvent_stack(g, w1, w2).tobytes() == want.tobytes(), seed


def test_singular_resolvent_is_a_boundary_error(g2):
    # weight 1 on the loop g makes id - theta_{p, p} vanish at w, which
    # raised numpy's LinAlgError from every kernel builder
    p = DualPoint(g2, {"g": 1.0}, allow_boundary=True)
    q = make_dual_point(g2, {"e": 0.3})
    pair = r"singular at the point pair \(1, 1\)"
    with pytest.raises(BoundaryError, match=pair):
        schur_class_check([q, p], [np.zeros((2, 2))] * 2)
    with pytest.raises(BoundaryError, match=pair):
        pick_feasibility([q, p], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(BoundaryError, match=pair):
        mobius_congruence_matrix(make_central_point(g2, {"g": 0.3}), [q, p])
    with pytest.raises(BoundaryError, match=r"pair \(0, 0\)"):
        resolvent_matrix(p, p)


def test_nilpotent_boundary_theta_gives_a_kernel(g2):
    # weight 1 on the edge e alone: theta_{p, p} is nilpotent, so id - theta
    # is invertible although the point is on the boundary
    p = DualPoint(g2, {"e": 1.0}, allow_boundary=True)
    q = make_dual_point(g2, {"g": 0.4})
    np.testing.assert_array_equal(resolvent_matrix(p, p), np.eye(2) + theta_matrix(p, p))
    rep = schur_class_check([p, q], [np.zeros((2, 2))] * 2)
    assert rep["cp"] and len(rep["blocks"]) == 2


def test_point_json_roundtrip(g2):
    p = make_dual_point(g2, {"e": 0.1 - 0.2j, "f": 0.3, "g": 0.25j})
    d = point_to_dict(p)
    q = point_from_dict(g2, d)
    np.testing.assert_allclose(q.weights, p.weights, atol=1e-15)
    text = json.dumps(d)
    np.testing.assert_allclose(point_from_dict(g2, json.loads(text)).weights, p.weights)
    with pytest.raises(GraphError):
        point_from_dict(g2, {"nope": {}})


class ZeroRng:
    """Draws only zeros, so the random direction has norm 0."""

    def standard_normal(self, n):
        return np.zeros(n)

    def random(self):
        return 0.5


def test_random_point_zero_direction_is_origin(g2):
    p = random_point(g2, ZeroRng())
    assert p.norm == 0.0 and not p.weights.any()
