"""Gauge unitaries, induced automorphisms, and the two-vertex family."""

import numpy as np
import pytest

from graph_hardy import (
    BimoduleUnitary,
    DualPoint,
    Graph,
    GraphError,
    HardyPoly,
    apply_alpha_u,
    diagonal_unitary,
    evaluate_poly,
    identity_unitary,
    kernel_ideal_check,
    make_central_point,
    make_dual_point,
    mobius_apply,
    mobius_matrix,
    pullback_evaluate,
    random_point,
    random_poly,
    tau_lambda_matrix,
    two_vertex_alpha_lambda,
    two_vertex_example,
    unitary_from_dict,
    unitary_to_dict,
)
from graph_hardy.automorphism import _parallel_classes

from conftest import random_graph


def parallel_graph():
    return Graph(["p"], [("a", "p", "p"), ("b", "p", "p")])


def rotation_unitary(theta):
    g = parallel_graph()
    c, s = np.cos(theta), np.sin(theta)
    return BimoduleUnitary(g, {("p", "p"): (("a", "b"), np.array([[c, -s], [s, c]]))})


def test_bimodule_unitary_validation():
    g = two_vertex_example()
    u = identity_unitary(g)
    np.testing.assert_allclose(u.full_matrix(), np.eye(3), atol=1e-15)
    with pytest.raises(GraphError):
        diagonal_unitary(g, {"e": 2.0})  # not unimodular
    with pytest.raises(GraphError):
        BimoduleUnitary(g, {("v", "w"): (("e",), np.eye(1))})  # f, g classes missing
    with pytest.raises(GraphError):
        BimoduleUnitary(parallel_graph(),
                        {("p", "p"): (("a",), np.eye(1))})  # must list the whole class
    with pytest.raises(GraphError):
        BimoduleUnitary(parallel_graph(),
                        {("p", "p"): (("a", "b"), np.array([[1.0, 1.0], [0.0, 1.0]]))})


def test_bimodule_unitary_rejects_bad_blocks():
    g = two_vertex_example()
    blocks = {("v", "w"): (("e",), np.eye(1)), ("w", "v"): (("f",), np.eye(1)),
              ("w", "w"): (("g",), np.eye(1))}
    BimoduleUnitary(g, blocks)
    with pytest.raises(GraphError, match="no edges from 'v' to 'v'"):
        BimoduleUnitary(g, {**blocks, ("v", "v"): ((), np.eye(0))})
    with pytest.raises(GraphError, match="must be 1 x 1"):
        BimoduleUnitary(g, {**blocks, ("w", "w"): (("g",), np.eye(2))})


def test_apply_alpha_u_rejects_other_graph():
    with pytest.raises(GraphError, match="different graph"):
        apply_alpha_u(identity_unitary(two_vertex_example()),
                      HardyPoly(parallel_graph(), {("a",): 1.0}))


def _alpha_u_by_prefix_expansion(u, x):
    """Reference for apply_alpha_u: expand every path term edge by edge
    into edge-tuple prefixes, substituting S_e -> sum_f U[f, e] S_f, and
    keep vertex terms fixed."""
    g = u.graph
    U = u.full_matrix()
    out = {}
    for p, c in x.coeffs.items():
        if isinstance(p, str):
            out[p] = out.get(p, 0j) + c
            continue
        partial = {(): c}
        for e in p:
            col = U[:, g.eindex[e]]
            nxt = {}
            for prefix, amp in partial.items():
                for fi in np.nonzero(col)[0]:
                    f = g.edges[fi].name
                    nxt[prefix + (f,)] = nxt.get(prefix + (f,), 0j) + amp * col[fi]
            partial = nxt
        for q, amp in partial.items():
            if amp != 0:
                out[q] = out.get(q, 0j) + amp
    return HardyPoly(g, out)


def test_apply_alpha_u_matches_prefix_expansion_bitwise():
    # random per-class unitaries on random graphs with parallel edges: the
    # hardy_mul product of edge images gives the reference's bits and key order
    checked = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        classes = _parallel_classes(g)
        if all(len(edges) == 1 for edges in classes.values()):
            continue
        blocks = {}
        for key, edges in classes.items():
            z = rng.standard_normal((len(edges),) * 2) + 1j * rng.standard_normal((len(edges),) * 2)
            blocks[key] = (tuple(edges), np.linalg.qr(z)[0])
        u = BimoduleUnitary(g, blocks)
        x = random_poly(g, rng, degree=3)
        got, want = apply_alpha_u(u, x), _alpha_u_by_prefix_expansion(u, x)
        assert list(got.coeffs) == list(want.coeffs), seed
        assert (np.array(list(got.coeffs.values())).tobytes()
                == np.array(list(want.coeffs.values())).tobytes()), seed
        checked += 1
    assert checked >= 20


def test_diagonal_gauge_frozen():
    g = two_vertex_example()
    u = diagonal_unitary(g, {"e": 1.0j, "f": -1.0, "g": np.exp(0.25j * np.pi)})
    x = HardyPoly(g, {"v": 1.0, ("e", "f"): 1.0})
    y = apply_alpha_u(u, x)
    assert abs(y.coeff(("e", "f")) - (1.0j * -1.0)) < 1e-15
    assert y.coeff("v") == 1.0


def test_gauge_respects_products():
    u = rotation_unitary(0.3)
    g = u.graph
    rng = np.random.default_rng(3)
    for _ in range(4):
        x = HardyPoly(g, {("a",): rng.standard_normal(), ("b",): rng.standard_normal(),
                          "p": rng.standard_normal()})
        y = HardyPoly(g, {("a", "b"): rng.standard_normal(), ("b",): rng.standard_normal()})
        lhs = apply_alpha_u(u, x * y)
        rhs = apply_alpha_u(u, x) * apply_alpha_u(u, y)
        diff = lhs - rhs
        assert diff.max_coeff() < 1e-13


def test_gauge_moves_the_evaluation_point():
    # the automorphism image evaluates like the original at U^H times the weights
    u = rotation_unitary(0.7)
    g = u.graph
    rng = np.random.default_rng(5)
    x = HardyPoly(g, {"p": 0.5, ("a",): 1.0, ("b", "a"): -2.0j})
    U = u.full_matrix()
    for _ in range(4):
        p = random_point(g, rng, max_norm=0.6)
        moved = DualPoint(g, U.conj().T @ p.weights)
        np.testing.assert_allclose(
            evaluate_poly(apply_alpha_u(u, x), p), evaluate_poly(x, moved),
            atol=1e-13)


def test_pullback_matches_mobius_motion():
    g = two_vertex_example()
    gamma = make_central_point(g, {"g": 0.4 - 0.2j})
    u = identity_unitary(g)
    rng = np.random.default_rng(7)
    x = HardyPoly(g, {"v": 0.3, ("e",): 1.0, ("f", "g"): 2.0, ("g",): -0.5j})
    for _ in range(4):
        p = random_point(g, rng, max_norm=0.75)
        lhs = pullback_evaluate(gamma, u, x, p)
        rhs = evaluate_poly(x, mobius_apply(gamma, p))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_pullback_gauge_only_is_inversion_composed():
    # gamma = None composes the gauge action with the central inversion,
    # which negates each degree
    u = rotation_unitary(0.4)
    g = u.graph
    x = HardyPoly(g, {"p": 0.7, ("a",): 1.0, ("a", "b"): 1.5})
    x_neg = HardyPoly(g, {p: c * (-1.0) ** (0 if isinstance(p, str) else len(p))
                          for p, c in x.coeffs.items()})
    rng = np.random.default_rng(9)
    for _ in range(3):
        p = random_point(g, rng, max_norm=0.6)
        lhs = pullback_evaluate(None, u, x, p)
        rhs = evaluate_poly(apply_alpha_u(u, x_neg), p)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_alpha_lambda_zero_negates_generators():
    te, tf, tg = two_vertex_alpha_lambda(0.0, 10)
    assert te.coeffs == {("e",): -1.0}
    assert tf.coeffs == {("f",): -1.0}
    assert tg.coeffs == {("g",): -1.0}


def test_alpha_lambda_coefficients_frozen():
    lam = 0.3
    te, tf, tg = two_vertex_alpha_lambda(lam, 3)
    root = np.sqrt(1.0 - 0.09)
    assert abs(te.coeff(("e",)) + root) < 1e-15
    assert abs(te.coeff(("g", "e")) + root * 0.3) < 1e-15
    assert abs(te.coeff(("g", "g", "e")) + root * 0.09) < 1e-15
    assert tf.coeffs == {("f",): -1.0}
    assert abs(tg.coeff("w") - 0.3) < 1e-15
    assert abs(tg.coeff(("g",)) + 0.91) < 1e-15
    assert abs(tg.coeff(("g", "g")) + 0.91 * 0.3) < 1e-15
    assert abs(tg.coeff(("g", "g", "g")) + 0.91 * 0.09) < 1e-15


def test_alpha_lambda_guards():
    with pytest.raises(ValueError):
        two_vertex_alpha_lambda(1.0, 5)
    other = Graph(["u"], [("z", "u", "u")])
    with pytest.raises(GraphError):
        two_vertex_alpha_lambda(0.3, 5, other)
    p_other = make_dual_point(other, {"z": 0.1})
    with pytest.raises(GraphError):
        tau_lambda_matrix(0.3, p_other)


def test_tau_matches_mobius_machinery():
    # closed form versus the defect-operator construction
    g = two_vertex_example()
    rng = np.random.default_rng(11)
    for lam in (0.0, 0.3, 0.5 + 0.2j):
        gamma = make_central_point(g, {"g": lam})
        for _ in range(4):
            p = random_point(g, rng, max_norm=0.8)
            np.testing.assert_allclose(
                mobius_matrix(gamma, p), tau_lambda_matrix(lam, p), atol=1e-13)


def test_truncated_generators_match_tau():
    g = two_vertex_example()
    lam = 0.5 + 0.2j
    te, tf, tg = two_vertex_alpha_lambda(lam, 30)
    rng = np.random.default_rng(13)
    iv, iw = g.vindex["v"], g.vindex["w"]
    for _ in range(4):
        p = random_point(g, rng, max_norm=0.7)
        tau = tau_lambda_matrix(lam, p)
        assert abs(evaluate_poly(te, p)[iw, iv] - tau[iw, g.eindex["e"]]) < 1e-9
        assert abs(evaluate_poly(tf, p)[iv, iw] - tau[iv, g.eindex["f"]]) < 1e-9
        assert abs(evaluate_poly(tg, p)[iw, iw] - tau[iw, g.eindex["g"]]) < 1e-9


def test_kernel_ideal_vanishes():
    g = two_vertex_example()
    rng = np.random.default_rng(17)
    pts = [random_point(g, rng, max_norm=0.85) for _ in range(6)]
    rep = kernel_ideal_check(pts, rng=rng, n_multiples=5)
    assert rep["passed"]
    assert rep["max_abs"] < 1e-13
    # the generator itself evaluates to zero at machine precision
    sg = HardyPoly.shift(g, "g")
    sef = HardyPoly.shift(g, "e") * HardyPoly.shift(g, "f")
    K = sg * sef - sef * sg
    for p in pts:
        assert np.abs(evaluate_poly(K, p)).max() < 1e-15
    with pytest.raises(ValueError):
        kernel_ideal_check([])


def test_unitary_json_roundtrip():
    u = rotation_unitary(0.25)
    d = unitary_to_dict(u)
    u2 = unitary_from_dict(u.graph, d)
    np.testing.assert_allclose(u2.full_matrix(), u.full_matrix(), atol=1e-15)
    with pytest.raises(GraphError):
        unitary_from_dict(u.graph, {})


@pytest.mark.parametrize("lam", [float("nan"), complex("nan+0.1j"), float("inf"), 1.0, 1.5])
def test_lambda_outside_the_open_disc_is_rejected(lam):
    # NaN fails abs(lam) >= 1 as well as abs(lam) < 1, so it needs its own check
    p = make_dual_point(two_vertex_example(), {"g": 0.3})
    with pytest.raises(ValueError, match=r"\|lambda\| must be < 1"):
        two_vertex_alpha_lambda(lam, 5)
    with pytest.raises(ValueError, match=r"\|lambda\| must be < 1"):
        tau_lambda_matrix(lam, p)


def test_alpha_lambda_rejects_negative_truncation_order():
    with pytest.raises(ValueError, match=">= 0"):
        two_vertex_alpha_lambda(0.5, -2)


def test_bimodule_unitary_gate():
    # |(1 + eps)^2 - 1| = 2 eps: the gate accepts 5e-13 and rejects 2e-12
    g = two_vertex_example()
    u = diagonal_unitary(g, {"g": 1.0 + 2.5e-13})
    assert u.full_matrix()[2, 2] == 1.0 + 2.5e-13
    with pytest.raises(GraphError, match="not unitary"):
        diagonal_unitary(g, {"g": 1.0 + 1e-12})
