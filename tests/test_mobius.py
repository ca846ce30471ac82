"""Mobius involutions of the dual ball and their colligations."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graph_hardy import (
    CentralPoint,
    ConditioningError,
    DualPoint,
    Graph,
    GraphError,
    central_from_dict,
    central_to_dict,
    dual_norm,
    is_completely_positive,
    make_central_point,
    make_dual_point,
    mobius_apply,
    mobius_colligation,
    mobius_congruence_matrix,
    mobius_matrix,
    random_point,
    two_vertex_example,
    zero_point,
)
from graph_hardy.dual_eval import _resolvent_stack, _theta_stack
from graph_hardy.mobius import _defects
from graph_hardy.pick_kernel import _kernel
from conftest import random_graph


def loop_graph():
    return Graph(["u"], [("z", "u", "u")])


def test_central_point_guards():
    g = two_vertex_example()
    with pytest.raises(GraphError):
        make_central_point(g, {"e": 0.5})  # not a loop
    with pytest.raises(GraphError):
        make_central_point(g, {"g": 1.0})  # on the boundary
    with pytest.raises(GraphError):
        CentralPoint(g, {"g": np.nan})
    c = make_central_point(g, {"g": 0.3 + 0.4j})
    assert abs(c.norm - 0.5) < 1e-15
    assert c.loop_weights() == {"g": 0.3 + 0.4j}
    assert isinstance(c, DualPoint) and c.norm == dual_norm(g, c.weights)


def test_classical_disc_mobius_oracle():
    # one loop: the map must reduce to z -> (gamma - z) / (1 - gamma z)
    g = loop_graph()
    gamma = make_central_point(g, {"z": 0.4})
    for w in (0.2 + 0.3j, -0.5, 0.65j):
        p = make_dual_point(g, {"z": w})
        moved = mobius_apply(gamma, p)
        oracle = (0.4 - w) / (1.0 - 0.4 * w)
        assert abs(moved.weights[0] - oracle) < 1e-13


@given(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6))
def test_involution_classical(wr, wi):
    g = loop_graph()
    gamma = make_central_point(g, {"z": 0.3})
    p = make_dual_point(g, {"z": complex(wr, wi)})
    back = mobius_apply(gamma, mobius_apply(gamma, p))
    assert abs(back.weights[0] - p.weights[0]) < 1e-10


def test_fixed_points_two_vertex():
    g = two_vertex_example()
    gamma = make_central_point(g, {"g": 0.3 + 0.45j})
    img0 = mobius_apply(gamma, zero_point(g))
    np.testing.assert_allclose(img0.weights, gamma.weights, atol=1e-13)
    back = mobius_apply(gamma, gamma)
    np.testing.assert_allclose(back.weights, 0.0, atol=1e-13)


def test_involution_two_vertex_full_point():
    g = two_vertex_example()
    gamma = make_central_point(g, {"g": -0.25 + 0.5j})
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = random_point(g, rng, max_norm=0.85)
        back = mobius_apply(gamma, mobius_apply(gamma, p))
        np.testing.assert_allclose(back.weights, p.weights, atol=1e-11)


def test_mobius_matrix_shape_and_support():
    g = two_vertex_example()
    gamma = make_central_point(g, {"g": 0.5})
    rng = np.random.default_rng(5)
    p = random_point(g, rng, max_norm=0.7)
    M = mobius_matrix(gamma, p)
    assert M.shape == (2, 3)
    for i, e in enumerate(g.edges):
        for j, v in enumerate(g.vertices):
            if v != e.dst:
                assert abs(M[j, i]) < 1e-13


def test_colligation_at_zero_frozen():
    g = two_vertex_example()
    V, rep = mobius_colligation(make_central_point(g, {}))
    expected = np.block([
        [np.zeros((2, 3)), -np.eye(2)],
        [np.eye(3), np.zeros((3, 2))]])
    np.testing.assert_allclose(V, expected, atol=1e-15)
    assert rep["coisometry_residual"] < 1e-14
    assert rep["shape"] == [5, 5]


def test_colligation_unitary_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(8):
        g = random_graph(rng, ensure_loop=True)
        raw = {e: rng.standard_normal() + 1j * rng.standard_normal()
               for e in g.loops()}
        n = dual_norm(g, raw)
        target = 0.2 + 0.6 * rng.random()
        gamma = CentralPoint(g, {e: w * target / n for e, w in raw.items()})
        V, rep = mobius_colligation(gamma)
        assert rep["coisometry_residual"] < 1e-12
        assert rep["isometry_residual"] < 1e-12
        assert V.shape == (g.nv + g.ne, g.ne + g.nv)


def test_congruence_kernel_cp():
    g = two_vertex_example()
    rng = np.random.default_rng(11)
    gamma = make_central_point(g, {"g": 0.35 - 0.3j})
    pts = [random_point(g, rng, max_norm=0.7) for _ in range(3)]
    rep = is_completely_positive(mobius_congruence_matrix(gamma, pts))
    assert rep["cp"]
    assert rep["worst_min_eig"] >= -1e-9


@pytest.mark.parametrize("seed", range(6))
def test_congruence_kernel_is_bitwise_the_pointwise_one(seed):
    # the points move as one stack; each image equals mobius_apply's bit
    # for bit, and so does the kernel built from them
    rng = np.random.default_rng(seed)
    g = random_graph(rng, ensure_loop=True) if seed else two_vertex_example()
    raw = {e: rng.standard_normal() + 1j * rng.standard_normal() for e in g.loops()}
    gamma = make_central_point(g, {e: w * 0.6 / dual_norm(g, raw) for e, w in raw.items()})
    pts = [random_point(g, rng, max_norm=0.8) for _ in range(7)]
    w = np.array([p.weights for p in pts])
    moved = np.array([mobius_apply(gamma, p).weights for p in pts])
    theta = _theta_stack(g, moved, moved)
    want = _kernel(g, (np.eye(g.nv) - theta) @ _resolvent_stack(g, w, w))
    np.testing.assert_array_equal(mobius_congruence_matrix(gamma, pts).choi, want.choi)


def solve_oracle(gamma, points):
    """The (k, nv, ne) stack of g_gamma(eta_i*) as dense matrices, from one
    batched solve of (id - eta* gamma) X = gamma* - eta*."""
    g = gamma.graph
    G, d_vertex, _, inv_d_edge = _defects(gamma)
    eta_adj = np.array([p.matrix().conj().T for p in points]).reshape(len(points), g.nv, g.ne)
    core = np.linalg.solve(np.eye(g.nv) - eta_adj @ G, G.conj().T - eta_adj)
    return d_vertex @ core @ inv_d_edge


def random_center(g, rng, norm):
    raw = {e: rng.standard_normal() + 1j * rng.standard_normal() for e in g.loops()}
    return make_central_point(g, {e: w * norm / dual_norm(g, raw) for e, w in raw.items()})


def test_closed_form_matches_the_solve():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, ensure_loop=True)
        gamma = random_center(g, rng, 0.05 + 0.9 * rng.random())
        pts = [random_point(g, rng, max_norm=0.95) for _ in range(5)]
        for p, want in zip(pts, solve_oracle(gamma, pts)):
            gap = float(np.abs(mobius_matrix(gamma, p) - want).max())
            assert gap <= 2e-15 * max(1.0, float(np.abs(want).max())), (seed, gap)


def test_closed_form_is_exact_where_the_map_is():
    # g_gamma(gamma*) = 0, and at a vertex without loops d = 1, the
    # denominator is 1 and nothing mixes, so an edge into it is negated
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, ensure_loop=True)
        gamma = random_center(g, rng, 0.05 + 0.9 * rng.random())
        assert np.all(mobius_apply(gamma, gamma).weights == 0), seed
        p = random_point(g, rng, max_norm=0.95)
        moved = mobius_apply(gamma, p)
        for e in g.edges:
            if not any(g.dst[ell] == e.dst for ell in g.loops()):
                assert moved.weight(e.name) == -p.weight(e.name), (seed, e.name)
                checked += 1
    assert checked >= 100


def test_boundary_point_moves_to_the_boundary():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, ensure_loop=True)
        gamma = random_center(g, rng, 0.05 + 0.85 * rng.random())
        p = random_point(g, rng, max_norm=1.0, min_norm=1.0)
        assert abs(mobius_apply(gamma, p).norm - 1.0) < 1e-14, seed


def test_graph_mismatch():
    g = two_vertex_example()
    gamma = make_central_point(loop_graph(), {"z": 0.2})
    p = make_dual_point(g, {"g": 0.1})
    with pytest.raises(GraphError):
        mobius_matrix(gamma, p)
    with pytest.raises(GraphError):
        mobius_congruence_matrix(gamma, [p])
    # one stray point among points of gamma's own graph
    own = [make_dual_point(loop_graph(), {"z": w}) for w in (0.1, -0.3j)]
    assert mobius_congruence_matrix(gamma, own).k == 2
    with pytest.raises(GraphError):
        mobius_congruence_matrix(gamma, own + [p])


def test_central_json_roundtrip():
    g = two_vertex_example()
    c = make_central_point(g, {"g": 0.25 - 0.1j})
    d = central_to_dict(c)
    c2 = central_from_dict(g, d)
    np.testing.assert_allclose(c2.weights, c.weights, atol=1e-15)
    np.testing.assert_allclose(central_from_dict(g, json.loads(json.dumps(d))).weights,
                               c.weights)
    with pytest.raises(GraphError):
        central_from_dict(g, {"weights": {}})


def test_defect_operator_near_boundary_is_conditioning_error():
    g = two_vertex_example()
    near = make_central_point(g, {"g": 0.9999999999999999})
    assert near.norm < 1.0
    for call in (mobius_colligation, lambda c: mobius_matrix(c, zero_point(g))):
        with pytest.raises(ConditioningError, match="smallest eigenvalue"):
            call(near)
    _, rep = mobius_colligation(make_central_point(g, {"g": 0.99999999999999}))
    assert rep["coisometry_residual"] < 1e-9
