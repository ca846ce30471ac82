"""Hardy polynomials and the truncated Fock space."""

import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from graph_hardy import (
    Graph,
    GraphError,
    HardyPoly,
    certify_contraction,
    creation_matrix,
    cuntz_toeplitz_check,
    fock_basis,
    fock_norm_bound,
    poly_from_terms,
    poly_to_terms,
    random_poly,
    two_vertex_example,
)
from graph_hardy import fock
from graph_hardy.graph_core import compose, path_source
from conftest import random_graph


def complete_two_vertex():
    return Graph(["a", "b"], [("aa", "a", "a"), ("ab", "a", "b"),
                              ("ba", "b", "a"), ("bb", "b", "b")])


def fock_index(g, N):
    """fock_basis(g, N) and each path's position in it."""
    basis = fock_basis(g, N)
    return basis, {p: i for i, p in enumerate(basis)}


def creation_matrix_oracle(x, N):
    """creation_matrix as one compose call per (term, basis path) pair."""
    g = x.graph
    basis, index = fock_index(g, N)
    rows, cols, vals = [], [], []
    for p, c in x.coeffs.items():
        plen = 0 if isinstance(p, str) else len(p)
        for j, beta in enumerate(basis):
            blen = 0 if isinstance(beta, str) else len(beta)
            if plen + blen > N:
                continue
            gamma = compose(g, p, beta)
            if gamma is None:
                continue
            rows.append(index[gamma])
            cols.append(j)
            vals.append(c)
    dim = len(basis)
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex))


@pytest.fixture
def g2():
    return two_vertex_example()


def test_poly_constructors(g2):
    one = HardyPoly.one(g2)
    assert one.coeffs == {"v": 1.0, "w": 1.0}
    assert HardyPoly.zero(g2).coeffs == {}
    assert HardyPoly.vertex(g2, "w").coeffs == {"w": 1.0}
    assert HardyPoly.shift(g2, "e", "f").coeffs == {("e", "f"): 1.0}
    with pytest.raises(GraphError):
        HardyPoly.shift(g2, ("f", "g"))  # edges are passed one by one, not as a tuple
    assert HardyPoly(g2, {"v": 0.0}).coeffs == {}  # zeros dropped
    with pytest.raises(GraphError):
        HardyPoly(g2, {("e", "e"): 1.0})
    with pytest.raises(GraphError):
        HardyPoly.vertex(g2, "z")


def test_product_frozen(g2):
    se = HardyPoly.shift(g2, "e")
    sf = HardyPoly.shift(g2, "f")
    pv = HardyPoly.vertex(g2, "v")
    pw = HardyPoly.vertex(g2, "w")
    assert ((se + pv) * sf).coeffs == {("e", "f"): 1.0, ("f",): 1.0}
    assert (se * se).coeffs == {}            # e does not follow e
    assert (sf * se).coeffs == {("f", "e"): 1.0}
    assert (pw * se).coeffs == {("e",): 1.0}  # r(e) = w
    assert (pv * se).coeffs == {}
    assert (se * pv).coeffs == {("e",): 1.0}  # s(e) = v
    unit = HardyPoly.one(g2)
    x = HardyPoly(g2, {"v": 2.0, ("e",): 3.0, ("f", "g"): -1.0})
    assert (unit * x).coeffs == x.coeffs
    assert (x * unit).coeffs == x.coeffs


def test_algebra_ops(g2):
    x = HardyPoly(g2, {"v": 1.0, ("e",): 2.0})
    y = HardyPoly(g2, {"v": -1.0, ("g",): 1.0j})
    assert (x + y).coeffs == {("e",): 2.0, ("g",): 1.0j}
    assert (x - x).coeffs == {}
    assert (-y).coeffs == {"v": 1.0, ("g",): -1.0j}
    assert (2.0 * x).coeffs == {"v": 2.0, ("e",): 4.0}
    assert (x * 0.5).coeffs == {"v": 0.5, ("e",): 1.0}
    assert x.coeff(("e",)) == 2.0 and x.coeff(("f",)) == 0j


def test_fock_basis_frozen(g2):
    basis = fock_basis(g2, 2)
    assert basis == ["v", "w", ("e",), ("f",), ("g",),
                     ("e", "f"), ("f", "e"), ("f", "g"), ("g", "e"), ("g", "g")]


def test_creation_matrix_frozen(g2):
    basis, index = fock_index(g2, 2)
    Se = creation_matrix(HardyPoly.shift(g2, "e"), 2).toarray()
    # S_e sends a path with range v to e followed by that path
    assert Se[index[("e",)], index["v"]] == 1.0
    assert Se[index[("e", "f")], index[("f",)]] == 1.0
    assert np.count_nonzero(Se) == 2
    Pv = creation_matrix(HardyPoly.vertex(g2, "v"), 2).toarray()
    on = {index["v"], index[("f",)], index[("f", "e")], index[("f", "g")]}
    for i in range(len(basis)):
        for j in range(len(basis)):
            expected = 1.0 if (i == j and i in on) else 0.0
            assert Pv[i, j] == expected


def test_creation_matrix_multiplicative_on_low_degrees(g2):
    rng = np.random.default_rng(2)
    N = 4
    basis, _ = fock_index(g2, N)
    lengths = np.array([0 if isinstance(p, str) else len(p) for p in basis])
    x = random_poly(g2, rng, degree=1)
    y = random_poly(g2, rng, degree=1)
    Mx = creation_matrix(x, N).toarray()
    My = creation_matrix(y, N).toarray()
    Mxy = creation_matrix(x * y, N).toarray()
    cols = lengths <= N - 2  # products cannot overflow the truncation there
    np.testing.assert_allclose(Mxy[:, cols], (Mx @ My)[:, cols], atol=1e-13)


def test_cuntz_toeplitz_two_vertex_exact(g2):
    rep = cuntz_toeplitz_check(g2, 4)
    assert rep["max_deviation"] == 0.0
    assert rep["passed"]
    assert rep["dim"] == 2 + 3 + 5 + 8 + 13
    assert rep["restricted_dim"] == 2 + 3 + 5 + 8
    with pytest.raises(ValueError):
        cuntz_toeplitz_check(g2, 1)


@pytest.mark.parametrize("name, N", [
    ("two_vertex", 2), ("two_vertex", 6), ("one_loop", 2), ("one_loop", 6),
    ("complete", 2), ("complete", 6),
    # seeds of conftest.random_graph with parallel edges, a sink and a source
    ("seed12", 2), ("seed12", 5), ("seed28", 2), ("seed28", 5), ("seed45", 2), ("seed45", 5),
])
def test_creation_matrix_matches_compose_oracle(name, N):
    if name == "two_vertex":
        g = two_vertex_example()
    elif name == "one_loop":
        g = Graph(["u"], [("z", "u", "u")])
    elif name == "complete":
        g = complete_two_vertex()
    else:
        g = random_graph(np.random.default_rng(int(name[4:])))
    rng = np.random.default_rng(N)
    polys = [random_poly(g, rng, degree=2), random_poly(g, rng, degree=3),
             HardyPoly.one(g), HardyPoly.zero(g)]
    polys += [HardyPoly.shift(g, e.name) for e in g.edges]
    for x in polys:
        got, want = creation_matrix(x, N), creation_matrix_oracle(x, N)
        assert got.shape == want.shape
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field


def patch_shift_columns(monkeypatch, g, N, columns):
    """Make creation_matrix return S_e with the given columns replaced:
    columns[e][beta] = {gamma: value} is the new image of beta."""
    _, index = fock_index(g, N)
    honest = fock.creation_matrix

    def broken(x, n):
        m = honest(x, n)
        for e, cols in columns.items():
            if x.coeffs == {(e,): 1.0}:
                m = m.tolil()
                for beta, image in cols.items():
                    m[:, index[beta]] = 0.0
                    for gamma, value in image.items():
                        m[index[gamma], index[beta]] = value
                m = m.tocsr()
        return m

    monkeypatch.setattr(fock, "creation_matrix", broken)


def test_cuntz_toeplitz_detects_overlapping_shift(g2, monkeypatch):
    # S_f sends both w and e to f: its image overlaps itself, so S_f is
    # no isometry and S_f S_f* exceeds P_v at the path f
    patch_shift_columns(monkeypatch, g2, 4, {"f": {("e",): {("f",): 1.0}}})
    rep = cuntz_toeplitz_check(g2, 4)
    assert rep["passed"] is False
    assert rep["deviations"]["shift_isometries"] >= 1.0
    assert rep["deviations"]["row_contraction"] >= 1.0


def test_cuntz_toeplitz_bounds_row_gap_with_zero_diagonal(g2, monkeypatch):
    # S_e v = (e + g) / sqrt 2 and S_g w = (e + i g) / sqrt 2: on span{e, g}
    # the row gap P_w - S_e S_e* - S_g S_g* has zero diagonal and
    # eigenvalues +-1/sqrt 2, so only the off-diagonal part shows it
    r = 2 ** -0.5
    patch_shift_columns(monkeypatch, g2, 4, {"e": {"v": {("e",): r, ("g",): r}},
                                             "g": {"w": {("e",): r, ("g",): 1j * r}}})
    rep = cuntz_toeplitz_check(g2, 4)
    assert rep["passed"] is False
    assert rep["deviations"]["row_contraction"] >= r - 1e-12


@pytest.mark.parametrize("g, basis", [
    (Graph(["v", "w"], [("e", "v", "w")]), ["v", "w", ("e",)]),  # levels >= 2 empty
    (Graph(["u"], []), ["u"]),                                     # no edges at all
])
def test_fock_space_with_empty_levels(g, basis):
    N = 3
    assert fock_basis(g, N) == basis
    dim = len(basis)
    np.testing.assert_array_equal(creation_matrix(HardyPoly.one(g), N).toarray(), np.eye(dim))
    for e in g.edges:
        assert creation_matrix(HardyPoly.shift(g, e.name), N).nnz == 1
    rep = cuntz_toeplitz_check(g, N)
    assert rep["passed"] and rep["max_deviation"] == 0.0
    assert rep["dim"] == rep["restricted_dim"] == dim
    assert fock_norm_bound(HardyPoly.one(g), N) == 1.0


def test_cuntz_toeplitz_complete_graph_large_truncation():
    # dim 16,382: one dense restricted block alone would take about 1 GB
    rep = cuntz_toeplitz_check(complete_two_vertex(), 12)
    assert rep["dim"] == 2 ** 14 - 2
    assert rep["restricted_dim"] == 2 ** 13 - 2
    assert rep["max_deviation"] == 0.0 and rep["passed"]


def test_cuntz_toeplitz_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(5):
        g = random_graph(rng)
        rep = cuntz_toeplitz_check(g, 3)
        assert rep["max_deviation"] < 1e-12


def test_norm_bound_shift_and_scaling(g2):
    se = HardyPoly.shift(g2, "e")
    assert abs(fock_norm_bound(se, 3) - 1.0) < 1e-12
    assert abs(fock_norm_bound(2.0 * se, 3) - 2.0) < 1e-12
    assert fock_norm_bound(HardyPoly.zero(g2), 3) == 0.0


def test_norm_bound_lanczos_is_deterministic(g2):
    x = random_poly(g2, np.random.default_rng(37), degree=2)
    N = 9
    m = creation_matrix(x, N)
    assert m.shape[0] > fock._DENSE_SVD_MAX_DIM  # the Lanczos branch
    bounds = {fock_norm_bound(x, N) for _ in range(5)}
    assert len(bounds) == 1
    dense = np.linalg.svd(m.toarray(), compute_uv=False)[0]
    assert abs(bounds.pop() - dense) <= 1e-13 * dense


def test_norm_bound_step_cap_falls_back_to_dense(g2, monkeypatch):
    x = random_poly(g2, np.random.default_rng(41), degree=2)
    N = 9
    dense = np.linalg.svd(creation_matrix(x, N).toarray(), compute_uv=False)[0]
    monkeypatch.setattr(fock, "_LANCZOS_MAX_STEPS", 3)
    assert fock_norm_bound(x, N) == float(dense)


def test_norm_bound_does_not_swallow_errors(g2, monkeypatch):
    x = random_poly(g2, np.random.default_rng(41), degree=2)

    def bug(*args, **kwargs):
        raise TypeError("a programming error")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", bug)
    with pytest.raises(TypeError):
        fock_norm_bound(x, 9)


@pytest.mark.parametrize("make", [HardyPoly.one, lambda g: HardyPoly.shift(g, "g")],
                         ids=["one", "S_g"])
def test_norm_bound_stops_on_invariant_subspace(g2, make):
    # the Gram operator is the identity or a diagonal projection, so the
    # Krylov space is at most two-dimensional and beta_j drops to rounding
    x = make(g2)
    for N in (9, 11):
        m = creation_matrix(x, N)
        assert m.shape[0] > fock._DENSE_SVD_MAX_DIM
        theta = fock._gram_top_eigenvalue(m)
        assert theta is not None and abs(theta - 1.0) <= 1e-14
        assert abs(fock_norm_bound(x, N) - 1.0) <= 1e-14


def dense_norm(x, N):
    """np.linalg.svd(...)[0] of the compression, taken block by block: a
    product of shifts keeps the source of a path, so the paths with a given
    source span a reducing subspace."""
    g = x.graph
    m = creation_matrix(x, N).toarray()
    source = np.array([path_source(g, p) for p in fock_basis(g, N)])
    blocks = [source == v for v in g.vertices]
    assert not any(m[np.ix_(b, ~b)].any() for b in blocks)
    return max(np.linalg.svd(m[np.ix_(b, b)], compute_uv=False)[0] for b in blocks if b.any())


def test_norm_bound_matches_dense_svd():
    rng = np.random.default_rng(43)
    loop = Graph(["u"], [("z", "u", "u")])
    cases = [(random_poly(loop, rng, degree=2), 399),            # dim 400
             (random_poly(complete_two_vertex(), rng, degree=2), 7)]  # dim 510
    # seeds 12, 28 and 45 give graphs with a sink, a source and parallel edges
    for seed, N in ((12, 7), (28, 4), (45, 6)):
        g = random_graph(np.random.default_rng(seed))
        assert set(g.vertices) - {e.src for e in g.edges}
        assert set(g.vertices) - {e.dst for e in g.edges}
        assert len({(e.src, e.dst) for e in g.edges}) < g.ne
        cases += [(random_poly(g, rng, degree=d), N) for d in (1, 2, 3)]
    for x, N in cases:
        m = creation_matrix(x, N)
        assert m.shape[0] > fock._DENSE_SVD_MAX_DIM
        dense = np.linalg.svd(m.toarray(), compute_uv=False)[0]
        assert abs(fock_norm_bound(x, N) - dense) <= 1e-13 * dense


def test_norm_bound_fock_deep_polynomials():
    # the six polynomials of the fock-deep benchmark workload at seed 1
    g2 = two_vertex_example()
    rng = np.random.default_rng(1)
    for x in [random_poly(g2, rng, degree=2) for _ in range(6)]:
        bounds = [fock_norm_bound(x, N) for N in range(9, 13)]
        for b, N in zip(bounds, range(9, 13)):
            assert fock_norm_bound(x, N) == b  # fixed start: the same bits again
            dense = dense_norm(x, N)
            assert abs(b - dense) <= 1e-13 * dense
        for lo, hi in zip(bounds, bounds[1:]):
            assert lo <= hi * (1 + 1e-12)


def test_norm_bound_classical_oracle():
    # one loop: 1 + S_z compresses to I + (lower shift) on C^{N+1}; the true
    # norm is the sup of |1 + z| on the circle, which is 2
    g = Graph(["u"], [("z", "u", "u")])
    x = HardyPoly(g, {"u": 1.0, ("z",): 1.0})
    bounds = [fock_norm_bound(x, N) for N in (2, 4, 8, 12)]
    for lo, hi in zip(bounds, bounds[1:]):
        assert lo <= hi + 1e-12          # monotone in N
    assert bounds[-1] <= 2.0 + 1e-12     # never exceeds the true norm
    assert bounds[-1] > 1.95             # and converges towards it


def test_norm_bound_monotone_random(g2):
    rng = np.random.default_rng(23)
    for _ in range(3):
        x = random_poly(g2, rng, degree=2)
        b1, b2, b3 = (fock_norm_bound(x, N) for N in (3, 5, 8))
        assert b1 <= b2 + 1e-10 and b2 <= b3 + 1e-10


def test_certify_contraction(g2):
    rng = np.random.default_rng(29)
    x = random_poly(g2, rng, degree=2)
    xc, bound = certify_contraction(x, 8)
    assert bound > 0
    assert fock_norm_bound(xc, 8) <= 1.0
    z, zb = certify_contraction(HardyPoly.zero(g2), 5)
    assert zb == 0.0 and z.coeffs == {}


def test_random_poly_covers_all_paths(g2):
    rng = np.random.default_rng(31)
    x = random_poly(g2, rng, degree=2)
    assert max(len(p) for p in x.coeffs if not isinstance(p, str)) == 2
    assert len(x.coeffs) == 2 + 3 + 5


def test_poly_json_roundtrip(g2):
    x = HardyPoly(g2, {"v": 1.5, ("e",): 2.0 - 1.0j, ("f", "g"): 0.25j})
    terms = poly_to_terms(x)
    y = poly_from_terms(g2, terms)
    assert y.coeffs == x.coeffs
    assert poly_from_terms(g2, json.loads(json.dumps(terms))).coeffs == x.coeffs


def test_poly_graph_mismatch(g2):
    other = Graph(["u"], [("z", "u", "u")])
    with pytest.raises(GraphError):
        HardyPoly.shift(g2, "e") * HardyPoly.vertex(other, "u")
    # sums check the graphs, not only the keys: "v" is a path of both
    same_names = Graph(["v", "w"], [])
    for x, y in ((HardyPoly.shift(g2, "e"), HardyPoly.vertex(other, "u")),
                 (HardyPoly.vertex(g2, "v"), HardyPoly.vertex(same_names, "v"))):
        with pytest.raises(GraphError):
            x + y
        with pytest.raises(GraphError):
            y - x


@pytest.mark.parametrize("call", [
    lambda x: creation_matrix(x, -1),
    lambda x: fock_norm_bound(x, -1),
    lambda x: certify_contraction(x, -1),
    lambda x: fock_basis(x.graph, -1),
], ids=["creation_matrix", "fock_norm_bound", "certify_contraction", "fock_basis"])
def test_negative_truncation_order_is_rejected(g2, call):
    with pytest.raises(ValueError, match=">= 0"):
        call(HardyPoly.shift(g2, "e"))


@pytest.mark.parametrize("term", [{"re": float("nan")}, {"im": float("inf")}])
def test_poly_from_terms_rejects_non_finite(g2, term):
    with pytest.raises(GraphError, match="is not finite"):
        poly_from_terms(g2, [dict({"path": ["e"], "re": 1.0}, **term)])
