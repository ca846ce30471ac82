"""Gauge unitaries, induced automorphisms, and the Mobius automorphisms."""

import numpy as np
import pytest

from graph_hardy import (
    BimoduleUnitary,
    CentralPoint,
    DualPoint,
    Graph,
    GraphError,
    HardyPoly,
    apply_alpha_u,
    diagonal_unitary,
    dual_norm,
    evaluate_poly,
    identity_unitary,
    kernel_ideal_check,
    make_central_point,
    make_dual_point,
    mobius_alpha,
    mobius_apply,
    mobius_colligation,
    mobius_matrix,
    pullback_evaluate,
    random_point,
    random_poly,
    two_vertex_example,
    unitary_from_dict,
    unitary_to_dict,
)
from graph_hardy.automorphism import _alpha_system, _parallel_classes
from graph_hardy.mobius import _defects
from graph_hardy.realization import _haar_unitary

from conftest import max_coeff, random_graph


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
        assert max_coeff(diff) < 1e-13


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


def test_pullback_of_the_identity_gauge_at_zero_negates_the_point_exactly():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        x = random_poly(g, rng, degree=3)
        p = random_point(g, rng, max_norm=0.9)
        np.testing.assert_array_equal(pullback_evaluate(None, identity_unitary(g), x, p),
                                      evaluate_poly(x, DualPoint(g, -p.weights)))


def test_pullback_rejects_a_unitary_of_another_graph():
    g = two_vertex_example()
    x = HardyPoly(g, {"v": 0.3, ("e",): 1.0})
    p = make_dual_point(g, {"g": 0.2})
    same_ne = Graph(["v", "w"], [("e", "w", "v"), ("f", "v", "w"), ("g", "v", "v")])
    for other in (same_ne, Graph(["u"], [("z", "u", "u")])):
        for gamma in (None, make_central_point(g, {"g": 0.3})):
            with pytest.raises(GraphError, match="different graphs"):
                pullback_evaluate(gamma, identity_unitary(other), x, p)


# ---------------------------------------------------------------------------
# The group law: (gamma, U) moves the point eta* to U^H g_gamma(eta*), as
# pullback_evaluate does, and a composite of two such maps is again one

def point_map(gamma, U, w):
    """The weights of U^H g_gamma(eta*), w the weights of eta."""
    return U.conj().T @ mobius_apply(gamma, DualPoint(gamma.graph, w)).weights


def inverse_point_map(gamma, U, w):
    """The inverse of point_map: w |-> g_gamma(U w), g_gamma an involution."""
    return mobius_apply(gamma, DualPoint(gamma.graph, U @ w)).weights


def normal_form(g, F, F_inv):
    """(gamma, U) with F = point_map(gamma, U, .): gamma = F^{-1}(0), which
    must be central with exact zeros off the loops, and F o g_gamma fixes
    0, so it is the linear map U^H (Cartan's theorem on the circular dual
    ball), read on the unit vectors scaled by 0.5."""
    w = F_inv(np.zeros(g.ne, dtype=complex))
    loops = set(g.loops())
    assert not any(w[i] for i, e in enumerate(g.edges) if e.name not in loops), (g, w)
    gamma = CentralPoint(g, {e: w[g.eindex[e]] for e in loops})
    # row j is column j of U^H, that is the conjugate of row j of U
    rows = [F(mobius_apply(gamma, DualPoint(g, 0.5 * d)).weights) / 0.5 for d in np.eye(g.ne)]
    return gamma, np.conj(rows)


def random_gauge(g, rng):
    """A bimodule unitary with a Haar unitary on each parallel class."""
    return BimoduleUnitary(g, {key: (tuple(edges), _haar_unitary(rng, len(edges)))
                               for key, edges in _parallel_classes(g).items()})


def random_automorphism(g, rng):
    """(gamma, U): a seeded central point of norm at most 0.9 and the matrix
    of a random gauge."""
    z = rng.standard_normal(len(g.loops())) + 1j * rng.standard_normal(len(g.loops()))
    w = dict(zip(g.loops(), z))
    gamma = make_central_point(g, {e: rng.uniform(0.05, 0.9) * c / dual_norm(g, w)
                                   for e, c in w.items()})
    return gamma, random_gauge(g, rng).full_matrix()


def test_automorphisms_compose_to_the_normal_form():
    # over these 50 graphs the worst levels are 5.2e-15 (U3 off the
    # parallel classes), 8.2e-15 (U3 U3^H - id), 5.9e-15 (F against its
    # normal form), 7.0e-15 (inverse after F) and 1.4e-13 (F after the
    # inverse, which carries the rounding of the inverse's U near the
    # boundary); each bound is about four times its level
    rng = np.random.default_rng(41)
    for _ in range(50):
        g = random_graph(rng, ensure_loop=True)
        (c1, U1), (c2, U2) = random_automorphism(g, rng), random_automorphism(g, rng)

        def F(w):
            return point_map(c1, U1, point_map(c2, U2, w))

        def F_inv(w):
            return inverse_point_map(c2, U2, inverse_point_map(c1, U1, w))

        c3, U3 = normal_form(g, F, F_inv)
        same_class = np.array([[(a.src, a.dst) == (b.src, b.dst) for b in g.edges]
                               for a in g.edges])
        assert np.abs(U3[~same_class]).max(initial=0.0) <= 2e-14, g
        assert np.abs(U3 @ U3.conj().T - np.eye(g.ne)).max() <= 3.5e-14, g
        ci, Ui = normal_form(g, F_inv, F)
        for _ in range(4):
            w = random_point(g, rng, max_norm=0.95).weights
            assert np.abs(F(w) - point_map(c3, U3, w)).max() <= 2.5e-14, g
            assert np.abs(point_map(ci, Ui, F(w)) - w).max() <= 3e-14, g
            assert np.abs(F(point_map(ci, Ui, w)) - w).max() <= 6e-13, g


def test_gauge_pullbacks_compose_with_the_sign_of_g0():
    # at gamma = 0 the point map is z |-> U^H g_0(z) = -U^H z, the pullback
    # of pullback_evaluate(None, u) and of eval --unitary without --gamma;
    # two of them compose to z |-> U1^H U2^H z, whose normal form is
    # (0, -U2 U1), not (0, U2 U1); both checks measure 1.2e-16
    rng = np.random.default_rng(43)
    for _ in range(20):
        g = random_graph(rng)
        zero = CentralPoint(g, {})
        u1, u2 = random_gauge(g, rng), random_gauge(g, rng)
        U1, U2 = u1.full_matrix(), u2.full_matrix()
        x = random_poly(g, rng, degree=3)
        p = random_point(g, rng, max_norm=0.9)
        moved = DualPoint(g, point_map(zero, U1, p.weights), allow_boundary=True)
        np.testing.assert_array_equal(pullback_evaluate(None, u1, x, p), evaluate_poly(x, moved))

        def F(w):
            return point_map(zero, U1, point_map(zero, U2, w))

        def F_inv(w):
            return inverse_point_map(zero, U2, inverse_point_map(zero, U1, w))

        c3, U3 = normal_form(g, F, F_inv)
        assert not c3.weights.any()
        assert np.abs(U3 + U2 @ U1).max() <= 5e-16, g
        np.testing.assert_allclose(F(p.weights), -(U3.conj().T @ p.weights), rtol=0, atol=5e-16)


# ---------------------------------------------------------------------------
# Mobius automorphisms: the two-vertex closed forms are the oracles

def two_vertex_alpha(lam, N):
    """Closed form of the generator images (T(e), T(f), T(g)) of the Mobius
    automorphism of the central point lam S_g on the two-vertex graph,
    exact through path length N:

        T(e) = -(1 - |lam|^2)^{1/2} sum_{k<N} lam^k S_{g^k e}
        T(f) = -S_f
        T(g) = conj(lam) P_w - (1 - |lam|^2) sum_{1<=j<=N} lam^{j-1} S_{g^j}
    """
    g = two_vertex_example()
    root = np.sqrt(1.0 - abs(lam) ** 2)
    te = {("g",) * k + ("e",): -root * lam ** k for k in range(N)}
    tg = {"w": np.conj(lam)}
    for j in range(1, N + 1):
        tg[("g",) * j] = -(1.0 - abs(lam) ** 2) * lam ** (j - 1)
    return {"e": HardyPoly(g, te), "f": HardyPoly(g, {("f",): -1.0}), "g": HardyPoly(g, tg)}


def two_vertex_tau(lam, point):
    """Closed form of the two-vertex Mobius matrix: with a, b, c the weights
    of the point, columns e, f, g,
        row v:  (0, -conj(b), 0)
        row w:  (-conj(a) sqrt(1-|lam|^2) / (1 - lam conj(c)),  0,
                 (conj(lam) - conj(c)) / (1 - lam conj(c)))."""
    g = point.graph
    a, b, c = (point.weight("e"), point.weight("f"), point.weight("g"))
    den = 1.0 - lam * np.conj(c)
    M = np.zeros((2, 3), dtype=complex)
    M[g.vindex["v"], g.eindex["f"]] = -np.conj(b)
    M[g.vindex["w"], g.eindex["e"]] = -np.conj(a) * np.sqrt(1.0 - abs(lam) ** 2) / den
    M[g.vindex["w"], g.eindex["g"]] = (np.conj(lam) - np.conj(c)) / den
    return M


def loopy_graph(rng):
    """Two loops at u and one at v, two or three parallel edges u -> v, an
    edge back, and a sink w, with a seeded central point of norm 0.6."""
    edges = [("p", "u", "u"), ("q", "u", "u"), ("r", "v", "v"), ("h", "v", "u"),
             ("s", "u", "w")]
    edges += [("e%d" % i, "u", "v") for i in range(int(rng.integers(2, 4)))]
    g = Graph(["u", "v", "w"], edges)
    w = dict(zip("pqr", rng.standard_normal(3) + 1j * rng.standard_normal(3)))
    scale = 0.6 / dual_norm(g, w)
    return g, make_central_point(g, {e: scale * z for e, z in w.items()})


def test_alpha_lambda_zero_negates_generators():
    # g_0 = -id, so at gamma = 0 every generator is negated, on every graph
    rng = np.random.default_rng(19)
    for g in [two_vertex_example(), loopy_graph(rng)[0]] + [random_graph(rng) for _ in range(5)]:
        images = mobius_alpha(make_central_point(g, {}), 10)
        assert list(images) == [e.name for e in g.edges]
        for e, x in images.items():
            assert x.coeffs == {(e,): -1.0}


def test_alpha_lambda_coefficients_frozen():
    g = two_vertex_example()
    images = mobius_alpha(make_central_point(g, {"g": 0.3}), 3)
    te, tf, tg = images["e"], images["f"], images["g"]
    root = np.sqrt(1.0 - 0.09)
    assert abs(te.coeff(("e",)) + root) < 1e-15
    assert abs(te.coeff(("g", "e")) + root * 0.3) < 1e-15
    assert abs(te.coeff(("g", "g", "e")) + root * 0.09) < 1e-15
    assert tf.coeffs == {("f",): -1.0}
    assert abs(tg.coeff("w") - 0.3) < 1e-15
    assert abs(tg.coeff(("g",)) + 0.91) < 1e-15
    assert abs(tg.coeff(("g", "g")) + 0.91 * 0.3) < 1e-15
    assert abs(tg.coeff(("g", "g", "g")) + 0.91 * 0.09) < 1e-15


def test_mobius_alpha_matches_the_two_vertex_closed_form():
    g = two_vertex_example()
    for lam in (0.0, 0.3, 0.5 + 0.2j, -0.7j):
        for N in (1, 5, 25):
            got = mobius_alpha(make_central_point(g, {"g": lam}), N)
            want = two_vertex_alpha(lam, N)
            for e in "efg":
                assert set(got[e].coeffs) == set(want[e].coeffs), (lam, N, e)
                assert all(abs(got[e].coeff(p) - c) < 1e-15
                           for p, c in want[e].coeffs.items()), (lam, N, e)


def test_alpha_lambda_guards():
    # the closed forms live on the two-vertex graph only; mobius_alpha and
    # the centers it takes live on any graph, kernel_ideal_check does not
    other = Graph(["u"], [("z", "u", "u")])
    images = mobius_alpha(make_central_point(other, {"z": 0.3}), 2)
    assert set(images["z"].coeffs) == {"u", ("z",), ("z", "z")}
    with pytest.raises(GraphError, match="two-vertex graph"):
        kernel_ideal_check([make_dual_point(other, {"z": 0.1})])


def test_tau_matches_mobius_machinery():
    # closed form versus the defect-operator construction
    g = two_vertex_example()
    rng = np.random.default_rng(11)
    for lam in (0.0, 0.3, 0.5 + 0.2j):
        gamma = make_central_point(g, {"g": lam})
        for _ in range(4):
            p = random_point(g, rng, max_norm=0.8)
            np.testing.assert_allclose(
                mobius_matrix(gamma, p), two_vertex_tau(lam, p), atol=1e-13)


def test_truncated_generators_match_tau():
    g = two_vertex_example()
    lam = 0.5 + 0.2j
    images = mobius_alpha(make_central_point(g, {"g": lam}), 30)
    rng = np.random.default_rng(13)
    for _ in range(4):
        p = random_point(g, rng, max_norm=0.7)
        tau = two_vertex_tau(lam, p)
        for e in g.edges:
            value = evaluate_poly(images[e.name], p)[g.vindex[e.dst], g.vindex[e.src]]
            assert abs(value - tau[g.vindex[e.dst], g.eindex[e.name]]) < 1e-9


@pytest.mark.parametrize("N", [8, 12])
def test_mobius_alpha_matches_mobius_matrix_on_loopy_graphs(N):
    # the images of S_e truncated at N evaluate to the (r(e), e) entry of
    # mobius_matrix up to the tail of the loop series: with r the largest
    # |L_v| at the point, that tail is at most
    # ||D_gamma*^{-1}|| (||gamma|| + ||eta||) r^N / (1 - r)
    worst_ratio = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        g, gamma = loopy_graph(rng)
        images = mobius_alpha(gamma, N)
        inv_norm = 1.0 / np.sqrt(1.0 - gamma.norm ** 2)
        for _ in range(3):
            p = random_point(g, rng, min_norm=0.5, max_norm=0.7)
            M = mobius_matrix(gamma, p)
            r = max(abs(np.conj(p.weight("p")) * gamma.weight("p")
                        + np.conj(p.weight("q")) * gamma.weight("q")),
                    abs(np.conj(p.weight("r")) * gamma.weight("r")))
            env = inv_norm * (gamma.norm + p.norm) * r ** N / (1.0 - r)
            for e in g.edges:
                value = evaluate_poly(images[e.name], p)[g.vindex[e.dst], g.vindex[e.src]]
                gap = abs(value - M[g.vindex[e.dst], g.eindex[e.name]])
                assert gap <= env + 1e-13, (seed, e.name, gap, env)
                worst_ratio = max(worst_ratio, gap / env)
    assert worst_ratio > 0.1  # the envelope is close to the truncation error


def test_mobius_alpha_edges_into_loop_free_vertices_are_negated():
    # d_v = 1 and L_v = 0 at a vertex without loops: -S_e exactly, whatever gamma
    checked = 0
    # an eigh root of D_gamma* missed W21[e, e] = 1 on 22 edges, none of
    # them in seeds 0-39
    for seed in range(300):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, ensure_loop=True)
        z = rng.standard_normal(len(g.loops())) + 1j * rng.standard_normal(len(g.loops()))
        gamma = make_central_point(g, dict(zip(g.loops(), 0.5 * z / np.abs(z).sum())))
        images = mobius_alpha(gamma, 3)
        for e in g.edges:
            if not any(g.dst[ell] == e.dst for ell in g.loops()):
                assert images[e.name].coeffs == {(e.name,): -1.0}, seed
                checked += 1
    assert checked >= 400


def loop_series_alpha(gamma, N):
    """Reference derivation of mobius_alpha from the defect operators: with
    L_v = sum over the loops l at v of gamma_l S_l and d_v the diagonal of
    D_gamma, an edge e into v that is not a loop goes to
    -d_v sum_{k<N} L_v^k S_e, and a loop e at v to
    d_v sum_k L_v^k sum_f D_gamma*^{-1}[f, e] (conj(gamma_f) P_v - S_f)
    over the loops f at v, truncated at path length N."""
    g = gamma.graph
    _, d_vertex, _, inv_d_edge = _defects(gamma)
    images = {}
    for v in g.vertices:
        d_v = d_vertex[g.vindex[v], g.vindex[v]]
        loops = [e for e in g.loops() if g.dst[e] == v]
        L = HardyPoly(g, {(e,): gamma.weight(e) for e in loops})
        powers = [HardyPoly.vertex(g, v)]  # L_v^k, k = 0..N, with disjoint keys
        for _ in range(N):
            powers.append(powers[-1] * L)
        head = HardyPoly(g, {p: c for x in powers[:N] for p, c in x.coeffs.items()})
        for e in g.in_edges(v):
            if e not in loops:
                images[e] = head * HardyPoly.shift(g, e) * -d_v
                continue
            mix = {f: inv_d_edge[g.eindex[f], g.eindex[e]] for f in loops}
            c = sum(np.conj(gamma.weight(f)) * a for f, a in mix.items())
            shifts = HardyPoly(g, {(f,): a for f, a in mix.items()})
            images[e] = ((head + powers[N]) * c - head * shifts) * d_v
    return {e.name: images[e.name] for e in g.edges}


def oracle_cases():
    """(graph, central point, N): the six loopy graphs and 40 random graphs
    with seeded centers.  N keeps the loop words at a vertex with L >= 2
    loops to about 3,000 (N <= log 3000 / log L), and at most 8."""
    cases = [loopy_graph(np.random.default_rng(seed)) for seed in range(6)]
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = random_graph(rng, ensure_loop=True)
        z = rng.standard_normal(len(g.loops())) + 1j * rng.standard_normal(len(g.loops()))
        w = dict(zip(g.loops(), z))
        cases.append((g, make_central_point(g, {e: rng.uniform(0.05, 0.9) * c / dual_norm(g, w)
                                                for e, c in w.items()})))
    for g, gamma in cases:
        most = max(sum(g.dst[e] == v for e in g.loops()) for v in g.vertices)
        yield g, gamma, 8 if most < 2 else min(8, int(np.log(3000) / np.log(most)))


def test_defect_operators_are_graded_exactly():
    # an eigh of the whole id - G G^* mixed its eigenvalue 1 across the
    # grading on the 39th random case: D_gamma*[a1, a1] = 1 - 1.2e-15 and
    # D_gamma*[a1, a2] = 4.2e-16 with a1 no loop
    cases = list(oracle_cases())
    g, gamma, _ = cases[44]
    _, _, d_edge, inv_d_edge = _defects(gamma)
    j = g.eindex["a1"]
    assert d_edge[j].tolist() == inv_d_edge[j].tolist() == np.eye(g.ne)[j].tolist()
    for g, gamma, _ in cases:
        G, d_vertex, d_edge, inv_d_edge = _defects(gamma)
        # grading block of an edge: its vertex for a loop, itself otherwise
        block = np.array([g.vindex[e.dst] if e.src == e.dst else g.nv + i
                          for i, e in enumerate(g.edges)])
        off = block[:, None] != block[None, :]
        non_loop = block >= g.nv
        for D in (d_edge, inv_d_edge):
            assert not D[off].any(), g
            assert (D == D.conj().T).all(), g
            assert (D.diagonal()[non_loop] == 1.0).all(), g
        assert (d_vertex == np.diag(d_vertex.diagonal())).all()
        eye_e, eye_v = np.eye(g.ne), np.eye(g.nv)
        assert np.abs(d_edge @ d_edge - (eye_e - G @ G.conj().T)).max() < 1e-15
        assert np.abs(d_edge @ inv_d_edge - eye_e).max() < 1e-15
        assert np.abs(d_vertex @ d_vertex - (eye_v - G.conj().T @ G)).max() < 1e-15


def test_mobius_alpha_matches_the_loop_series():
    # the loop series and the colligation read the same closed-form defect
    # operators but round their products differently: the worst gap is
    # 2.2e-16, well inside the 2e-15 bound
    terms = 0
    for g, gamma, N in oracle_cases():
        got, want = mobius_alpha(gamma, N), loop_series_alpha(gamma, N)
        assert list(got) == list(want)
        for e in got:
            assert set(got[e].coeffs) == set(want[e].coeffs), (g, e, N)
            if not any(g.dst[f] == g.dst[e] for f in g.loops()):
                # exact: D_gamma* is the identity off the loops
                assert got[e].coeffs == {(e,): -1.0}, (g, e)
            scale = max(1.0, max_coeff(want[e]))
            assert all(abs(got[e].coeff(p) - c) <= 2e-15 * scale
                       for p, c in want[e].coeffs.items()), (g, e, N)
            terms += len(want[e].coeffs)
    assert terms > 50000


def test_alpha_systems_are_contractions():
    # each V is a compression of the unitary colligation W, so the image of
    # every generator is of Schur class
    for g, gamma, _ in oracle_cases():
        W, _ = mobius_colligation(gamma)
        for e in g.edges:
            V = _alpha_system(W, g, e.name).assemble()
            assert np.linalg.norm(V, 2) <= 1.0 + 1e-12, (g, e.name)


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
    # NaN fails abs(lam) >= 1 as well as abs(lam) < 1, so the check is
    # written to fail it; a center outside the open ball has no automorphism
    with pytest.raises(GraphError, match=r"must be < 1"):
        mobius_alpha(make_central_point(two_vertex_example(), {"g": lam}), 5)


def test_alpha_lambda_rejects_negative_truncation_order():
    with pytest.raises(ValueError, match=">= 0"):
        mobius_alpha(make_central_point(two_vertex_example(), {"g": 0.5}), -2)


def test_bimodule_unitary_gate():
    # |(1 + eps)^2 - 1| = 2 eps: the gate accepts 5e-13 and rejects 2e-12
    g = two_vertex_example()
    u = diagonal_unitary(g, {"g": 1.0 + 2.5e-13})
    assert u.full_matrix()[2, 2] == 1.0 + 2.5e-13
    with pytest.raises(GraphError, match="not unitary"):
        diagonal_unitary(g, {"g": 1.0 + 1e-12})


@pytest.mark.parametrize("phase", [float("nan"), complex(1.0, float("nan")), float("inf")])
def test_bimodule_unitary_gate_rejects_non_finite_blocks(phase):
    # dev > 1e-12 is false for a NaN deviation, which let NaN phases through
    with np.errstate(invalid="ignore"), pytest.raises(GraphError, match="not unitary"):
        diagonal_unitary(two_vertex_example(), {"e": phase})
