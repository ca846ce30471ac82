"""Pick and Schur kernels and the per-vertex Choi positivity test."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import random_graph
from graph_hardy import (
    CpMapMatrix,
    Graph,
    GraphError,
    HardyPoly,
    StructuralError,
    certify_contraction,
    dual_norm,
    evaluate_poly,
    is_completely_positive,
    make_central_point,
    make_dual_point,
    mobius_apply,
    mobius_congruence_matrix,
    pick_feasibility,
    pick_map_matrix,
    random_point,
    random_poly,
    random_system,
    resolvent_matrix,
    schur_class_check,
    schur_kernel_matrix,
    theta_matrix,
    transfer_eval,
    two_vertex_example,
    zero_point,
)
from graph_hardy.pick_kernel import _targets


def loop_graph():
    return Graph(["u"], [("z", "u", "u")])


def classical_pick(z, c):
    # direct scalar oracle: M[i, j] = (1 - c_i conj(c_j)) / (1 - z_i conj(z_j))
    z = np.asarray(z, dtype=complex)
    c = np.asarray(c, dtype=complex)
    return (1.0 - np.outer(c, np.conj(c))) / (1.0 - np.outer(z, np.conj(z)))


def test_choi_block_layout():
    # At zero points every resolvent is the identity, so with integer B
    # targets and C = 0 each entry is one exact product:
    # Ch_u[(i, p), (j, q)] = B_i[p, u] conj(B_j[q, u]).
    g = two_vertex_example()
    k, nv = 3, 2
    B = [np.array([[1 + 2j, 3], [5 - 1j, 7]]) + 10 * i for i in range(k)]
    m = pick_map_matrix([zero_point(g)] * k, B, [0.0] * k)
    assert m.k == k and m.graph == g
    for u in range(nv):
        ch = m.choi_block(u)
        assert ch.shape == (k * nv, k * nv)
        for i in range(k):
            for j in range(k):
                for p in range(nv):
                    for q in range(nv):
                        assert ch[i * nv + p, j * nv + q] == B[i][p, u] * np.conj(B[j][q, u])
    # the resolvent column of the vertex fills the diagonal of each (i, j) block
    pts = [make_dual_point(g, {"e": 0.3j, "f": -0.2, "g": 0.1 + 0.4j}),
           make_dual_point(g, {"e": 0.5, "g": -0.3j})]
    m = schur_kernel_matrix(pts, [0.0, 0.0])
    for u in range(nv):
        ch = m.choi_block(u)
        for i in range(2):
            for j in range(2):
                R = resolvent_matrix(pts[i], pts[j])
                block = ch[i * nv:(i + 1) * nv, j * nv:(j + 1) * nv]
                np.testing.assert_array_equal(block, np.diag(R[:, u]))


def test_cpmapmatrix_rejects_bad_shape():
    g = two_vertex_example()
    assert CpMapMatrix(g, np.zeros((2, 4, 4))).k == 2
    for shape in [(2, 2, 2, 2, 2), (3, 4, 4), (2, 4, 6), (2, 3, 3), (4, 4)]:
        with pytest.raises(ValueError):
            CpMapMatrix(g, np.zeros(shape))


@pytest.mark.parametrize("graph", ["two_vertex", "loop", 1, 4, 28, 38])
def test_builders_match_per_pair_formula(graph):
    # seeds 1, 4, 28, 38 of conftest.random_graph give parallel edges (a
    # class of three at 38) and a sink, besides the loops the Mobius
    # congruence kernel needs; k = 1 and k != nv check the block layout
    if graph == "two_vertex":
        g = two_vertex_example()
    elif graph == "loop":
        g = loop_graph()
    else:
        g = random_graph(np.random.default_rng(graph), ensure_loop=True)
        assert max(Counter((e.src, e.dst) for e in g.edges).values()) > 1
        assert any(not g.out_edges(v) for v in g.vertices)
    for k in (1, 3, 9):
        _assert_builders_match_per_pair_formula(g, k)


def _assert_builders_match_per_pair_formula(g, k):
    rng = np.random.default_rng(5)
    nv = g.nv
    pts = [random_point(g, rng, max_norm=0.8) for _ in range(k)]

    def targets(scale):
        return [scale * (rng.standard_normal((nv, nv)) + 1j * rng.standard_normal((nv, nv)))
                for _ in range(k)]
    B, C, Z = targets(1.0), targets(0.5), targets(0.3)
    loops = {e: rng.standard_normal() + 1j * rng.standard_normal() for e in g.loops()}
    shrink = 0.6 / dual_norm(g, loops)
    gamma = make_central_point(g, {e: w * shrink for e, w in loops.items()})
    moved = [mobius_apply(gamma, p) for p in pts]

    # each formula gives m_ij(delta_u) from R = resolvent_matrix(pts[i], pts[j])
    def pick(i, j, R, u):
        D = np.diag(R[:, u])
        return B[i] @ D @ B[j].conj().T - C[i] @ D @ C[j].conj().T

    def schur(i, j, R, u):
        D = np.diag(R[:, u])
        return D - Z[i] @ D @ Z[j].conj().T

    def congruence(i, j, R, u):
        return np.diag(((np.eye(nv) - theta_matrix(moved[i], moved[j])) @ R)[:, u])

    cases = [(pick_map_matrix(pts, B, C), pick),
             (schur_kernel_matrix(pts, Z), schur),
             (mobius_congruence_matrix(gamma, pts), congruence)]
    for m, formula in cases:
        want = np.zeros((nv, k * nv, k * nv), dtype=complex)
        for i in range(k):
            for j in range(k):
                R = resolvent_matrix(pts[i], pts[j])
                for u in range(nv):
                    block = formula(i, j, R, u)
                    for p in range(nv):
                        for q in range(nv):
                            want[u, i * nv + p, j * nv + q] = block[p, q]
        got = np.array([m.choi_block(u) for u in range(nv)])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("graph", ["loop", 4])
def test_cancelling_kernel_is_rounding_of_its_terms(graph):
    # unimodular constant values c I make R_ij - c R_ij conj(c) vanish up
    # to rounding, so the Choi blocks are ~0 and a deviation relative to
    # their own size means nothing; it is measured against the size of
    # the terms, max|R| (1 + sum over target stacks of max|L|^2)
    g = loop_graph() if graph == "loop" else random_graph(np.random.default_rng(graph))
    rng = np.random.default_rng(17)
    k, nv = 12, g.nv
    pts = [random_point(g, rng, max_norm=0.9) for _ in range(k)]
    c = np.exp(0.7j)
    m = schur_kernel_matrix(pts, [c * np.eye(nv)] * k)
    want = np.zeros((nv, k * nv, k * nv), dtype=complex)
    size = 0.0
    for i in range(k):
        for j in range(k):
            R = resolvent_matrix(pts[i], pts[j])
            size = max(size, np.abs(R).max())
            for u in range(nv):
                D = np.diag(R[:, u])
                want[u, i * nv:(i + 1) * nv, j * nv:(j + 1) * nv] = (
                    D - (c * np.eye(nv)) @ D @ (c * np.eye(nv)).conj().T)
    size *= 1.0 + abs(c) ** 2
    assert np.abs(want).max() <= 1e-15 * size
    assert np.abs(m.choi - want).max() <= 1e-15 * size


@pytest.mark.parametrize("builder", ["schur", "pick"])
def test_kernel_build_memory_is_bounded_by_the_choi_array(builder):
    # a builder that held a (k, k, nv, nv, nv) tensor or several k^2 nv^2
    # temporaries at once would show here; at nv = 5, k = 60 the Choi
    # array is 7.2 MB and the peak stays near 1.6 times that
    names = ["v0", "v1", "v2", "v3", "v4"]
    g = Graph(names, [("c%d" % i, v, names[(i + 1) % 5]) for i, v in enumerate(names)]
              + [("z", "v0", "v0"), ("y", "v2", "v4")])
    rng = np.random.default_rng(3)
    k, nv = 60, g.nv
    pts = [random_point(g, rng, max_norm=0.8) for _ in range(k)]
    Z = [0.3 * (rng.standard_normal((nv, nv)) + 1j * rng.standard_normal((nv, nv)))
         for _ in range(k)]
    tracemalloc.start()
    try:
        if builder == "schur":
            m = schur_kernel_matrix(pts, Z)
        else:
            m = pick_map_matrix(pts, [np.eye(nv)] * k, Z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.choi.nbytes == nv * (k * nv) ** 2 * 16
    assert peak < 2.5 * m.choi.nbytes


def test_pick_matches_classical_oracle_frozen():
    g = loop_graph()
    z = [0.3, 0.2 - 0.5j]
    c = [0.6 * zi for zi in z]  # samples of the Schur function 0.6 z
    pts = [make_dual_point(g, {"z": np.conj(zi)}) for zi in z]
    m = pick_map_matrix(pts, [1.0, 1.0], list(c))
    np.testing.assert_allclose(m.choi_block(0), classical_pick(z, c), atol=1e-13)
    rep = pick_feasibility(pts, [1.0, 1.0], list(c))
    oracle_eigs = np.linalg.eigvalsh(classical_pick(z, c))
    assert rep["feasible"] and oracle_eigs.min() > 0
    assert abs(rep["worst_min_eig"] - oracle_eigs.min()) < 1e-10


def test_pick_detects_classical_infeasible():
    g = loop_graph()
    z = [0.05, 0.1]
    c = [0.95, -0.95]
    oracle = classical_pick(z, c)
    oracle_min = np.linalg.eigvalsh(oracle).min()
    assert oracle_min < -1e-3  # steep value swing between nearby nodes
    pts = [make_dual_point(g, {"z": np.conj(zi)}) for zi in z]
    rep = pick_feasibility(pts, [1.0, 1.0], list(c))
    assert not rep["feasible"]
    assert abs(rep["worst_min_eig"] - oracle_min) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_pick_is_left_tangential(seed):
    # X is the transfer of a coisometric system, so a contraction that
    # solves B_i X(eta_i*) = B_i X_i; the kernel must accept these data.
    # With non-commuting B_i the right-sided data X_i B_i are rejected,
    # though the same X satisfies X(eta_i*) B_i = X_i B_i.
    g = two_vertex_example()
    rng = np.random.default_rng(seed)
    s = random_system(g, rng)
    pts = [random_point(g, rng, max_norm=0.8) for _ in range(6)]
    B = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in pts]
    X = [transfer_eval(s, p) for p in pts]
    assert pick_feasibility(pts, B, [b @ x for b, x in zip(B, X)])["feasible"]
    assert not pick_feasibility(pts, B, [x @ b for b, x in zip(B, X)])["feasible"]


def test_schur_kernel_cp_for_true_samples():
    g = two_vertex_example()
    rng = np.random.default_rng(7)
    x, _ = certify_contraction(random_poly(g, rng, degree=2), 8)
    pts = [random_point(g, rng, max_norm=0.7) for _ in range(3)]
    vals = [evaluate_poly(x, p) for p in pts]
    rep = schur_class_check(pts, vals)
    assert rep["cp"]
    assert rep["worst_min_eig"] >= -1e-9
    assert [b["vertex"] for b in rep["blocks"]] == ["v", "w"]


def test_schur_kernel_rejects_expansive_values():
    g = two_vertex_example()
    rng = np.random.default_rng(11)
    x = 1.5 * HardyPoly.shift(g, "e")  # norm 1.5, outside the Schur class
    pts = [random_point(g, rng, max_norm=0.85, min_norm=0.6) for _ in range(3)]
    vals = [evaluate_poly(x, p) for p in pts]
    rep = schur_class_check(pts, vals)
    assert not rep["cp"]
    assert rep["worst_min_eig"] < -1e-9


def test_schur_kernel_zero_function_is_resolvent():
    g = loop_graph()
    pts = [make_dual_point(g, {"z": w}) for w in (0.2, -0.4j)]
    m = schur_kernel_matrix(pts, [np.zeros((1, 1)), np.zeros((1, 1))])
    expected = 1.0 / (1.0 - np.array([[np.conj(0.2) * 0.2, np.conj(0.2) * (-0.4j)],
                                      [np.conj(-0.4j) * 0.2, np.conj(-0.4j) * (-0.4j)]]))
    np.testing.assert_allclose(m.choi_block(0), expected, atol=1e-14)


def test_structural_error_on_non_hermitian():
    g = two_vertex_example()
    choi = np.zeros((2, 2, 2), dtype=complex)
    for u in range(2):
        choi[u] = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(StructuralError):
        is_completely_positive(CpMapMatrix(g, choi))


def test_input_validation():
    g = two_vertex_example()
    pts = [make_dual_point(g, {"g": 0.3})]
    with pytest.raises(ValueError):
        pick_map_matrix(pts, [1.0, 1.0], [0.5])
    with pytest.raises(ValueError):
        schur_kernel_matrix(pts, [])
    with pytest.raises(ValueError):
        pick_map_matrix(pts, [np.zeros((3, 3))], [0.5])
    other = Graph(["u"], [("z", "u", "u")])
    mixed = [pts[0], make_dual_point(other, {"z": 0.1})]
    with pytest.raises(GraphError):
        schur_kernel_matrix(mixed, [np.zeros((2, 2)), np.zeros((2, 2))])


def test_empty_point_lists_raise_value_error():
    # pick and Schur raised a bare IndexError from points[0]; the
    # congruence kernel came back with k = 0
    gamma = make_central_point(two_vertex_example(), {"g": 0.3})
    calls = [lambda: pick_map_matrix([], [], []), lambda: pick_feasibility([], [], []),
             lambda: schur_kernel_matrix([], []), lambda: schur_class_check([], []),
             lambda: mobius_congruence_matrix(gamma, [])]
    for call in calls:
        with pytest.raises(ValueError, match="^need at least one point$"):
            call()


@pytest.mark.parametrize("bad", [float("nan"), complex(0.0, float("nan")), float("inf")])
def test_non_finite_targets_raise_value_error(bad):
    # eigvalsh of a Choi block with a NaN entry raised LinAlgError
    g = two_vertex_example()
    pts = [make_dual_point(g, {"g": 0.3}), make_dual_point(g, {"e": 0.2j})]
    values = [np.zeros((2, 2)), np.array([[0.0, 0.0], [bad, 0.0]])]
    match = r"^Choi block of vertex '[vw]' has a non-finite entry$"
    with np.errstate(invalid="ignore"):  # inf times 0 in the kernel build
        with pytest.raises(ValueError, match=match):
            schur_class_check(pts, values)
        with pytest.raises(ValueError, match=match):
            pick_feasibility(pts, [1.0, 1.0], values)


def test_targets_coerce_scalar_vector_matrix():
    g = two_vertex_example()
    pts = [make_dual_point(g, {"g": 0.2})]
    m1 = pick_map_matrix(pts, [1.0], [np.array([0.1, 0.2])])
    m2 = pick_map_matrix(pts, [np.eye(2)], [np.diag([0.1, 0.2])])
    np.testing.assert_allclose(m1.choi, m2.choi, atol=1e-15)


def per_item_target(nv, t):
    """The per-target coercion the stacked one replaced, kept as its oracle:
    scalar -> scalar * I, vertex vector -> diag, matrix as is."""
    if np.isscalar(t):
        return complex(t) * np.eye(nv, dtype=complex)
    t = np.asarray(t, dtype=complex)
    if t.shape == (nv,):
        return np.diag(t)
    return t


@pytest.mark.parametrize("nv", [1, 2, 3])
def test_targets_match_the_per_item_coercion_bitwise(nv):
    g = Graph(["v%d" % i for i in range(nv)], [("a", "v0", "v0")])
    rng = np.random.default_rng(nv)
    zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
    scalars = zeros + [-1.5, -2.0 + 0.5j, -0.25 - 0.0j, 3 - 1j, -4, np.float64(-0.75),
                       complex(-1.0, -0.0), complex(-0.0, 2.0)]
    signs = np.array([1.0, -1.0])
    vectors = [np.array([rng.choice(zeros) for _ in range(nv)], dtype=complex),
               rng.choice(signs, nv) * rng.standard_normal(nv) + 1j * rng.standard_normal(nv),
               -rng.random(nv)]
    matrices = [rng.standard_normal((nv, nv)) - 1j * rng.standard_normal((nv, nv)),
                -np.eye(nv), np.full((nv, nv), complex(-0.0, -0.0))]
    for targets in (scalars, vectors, matrices, scalars[:1], [v.tolist() for v in vectors]):
        want = np.array([per_item_target(nv, t) for t in targets])
        got = _targets(g, targets)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_mixed_target_forms_raise_value_error():
    g = two_vertex_example()
    pts = [make_dual_point(g, {"g": 0.2}), make_dual_point(g, {"e": 0.1})]
    for mixed in ([1.0, np.eye(2)], [0.5, np.array([0.1, 0.2])],
                  [np.array([0.1, 0.2]), np.eye(2)]):
        with pytest.raises(ValueError):
            pick_map_matrix(pts, mixed, [0.0, 0.0])
        with pytest.raises(ValueError):
            schur_kernel_matrix(pts, mixed)
    for shape in [(2, 3), (2, 2, 3), (2, 2, 2, 2)]:
        with pytest.raises(ValueError, match="targets must be"):
            schur_kernel_matrix(pts, np.zeros(shape))


@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_hermitian_gate_is_relative_to_block_scale(scale):
    # the gate fires above 1e-12 * (1 + largest entry), and not below it
    g = loop_graph()
    limit = 1e-12 * (1.0 + scale)
    for dev, raises in ((0.9 * limit, False), (1.1 * limit, True)):
        m = CpMapMatrix(g, np.array([[[scale, dev], [0.0, scale]]], dtype=complex))
        if raises:
            with pytest.raises(StructuralError):
                is_completely_positive(m)
        else:
            assert is_completely_positive(m)["cp"]


def full_block_report(m, tol=1e-9):
    """(min_eig, spectral norm, psd) per vertex from one eigvalsh of each
    whole Choi block: the reference for the split blocks."""
    out = []
    for u in range(m.graph.nv):
        ch = m.choi_block(u)
        eigs = np.linalg.eigvalsh(0.5 * (ch + ch.conj().T))
        lo = float(eigs.min()) if eigs.size else 0.0
        spec = float(np.abs(eigs).max(initial=0.0))
        out.append((lo, spec, lo >= -tol * (1.0 + spec)))
    return out


def assert_matches_full_block(m, bitwise=False):
    rep = is_completely_positive(m)
    ref = full_block_report(m)
    for block, (lo, spec, psd) in zip(rep["blocks"], ref):
        assert block["psd"] == psd
        if bitwise:
            assert (block["min_eig"], block["scale"]) == (lo, spec)
        else:
            assert abs(block["min_eig"] - lo) <= 1e-13 * (1.0 + spec)
            assert abs(block["scale"] - spec) <= 1e-13 * (1.0 + spec)
    assert rep["cp"] == all(psd for _, _, psd in ref)
    return rep


def planted_block(rng, k, nv, groups, zero_rows, psd=True):
    """Hermitian (k nv) x (k nv) block with entries only between rows
    (i, p), (j, q) whose vertices share one of `groups` random labels, and
    the given rows and columns zeroed.  PSD, or not when the diagonal
    entry of the first nonzero row is set to -1."""
    n = k * nv
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    label = np.tile(rng.integers(0, groups, size=nv), k)
    H = (A @ A.conj().T) * (label[:, None] == label[None, :])
    H[zero_rows] = 0.0
    H[:, zero_rows] = 0.0
    if not psd:
        first = min(set(range(n)) - set(zero_rows))
        H[first, first] = -1.0
    return H


@pytest.mark.parametrize("seed", range(8))
def test_split_blocks_match_the_full_block(seed):
    # block diagonal up to a permutation, with planted zero rows: the
    # report equals one eigvalsh of the whole block up to rounding
    rng = np.random.default_rng(seed)
    verdicts = Counter()
    for nv in (1, 2, 3, 5):
        g = Graph(["v%d" % p for p in range(nv)], [("a", "v0", "v0")])
        k = int(rng.integers(2, 7))
        choi = np.array([planted_block(rng, k, nv, int(rng.integers(1, nv + 1)),
                                       list(rng.choice(k * nv, size=int(rng.integers(0, 3)),
                                                       replace=False)),
                                       psd=nv in (1, 3))
                         for _ in range(nv)])
        rep = assert_matches_full_block(CpMapMatrix(g, choi))
        verdicts[rep["cp"]] += 1
    assert verdicts == Counter({True: 2, False: 2})


def test_split_hands_eigvalsh_only_the_groups(monkeypatch):
    # two vertex groups of sizes 2k and k, one zero row in the first: the
    # matrices handed over are the groups of the kept rows, 2k - 1 and k
    g = Graph(["a", "b", "c"], [("x", "a", "a")])
    rng = np.random.default_rng(5)
    k = 4
    H = planted_block(rng, k, 3, 1, [7])
    H *= np.tile([1, 1, 0], k)[:, None] == np.tile([1, 1, 0], k)[None, :]
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: shapes.append(a.shape) or eigvalsh(a))
    rep = is_completely_positive(CpMapMatrix(g, np.array([H, H, H])))
    monkeypatch.undo()
    assert rep["cp"]
    assert sorted(shapes) == [(1, 4, 4), (1, 4, 4), (1, 4, 4),
                              (1, 7, 7), (1, 7, 7), (1, 7, 7)]
    assert_matches_full_block(CpMapMatrix(g, np.array([H, H, H])))


@pytest.mark.parametrize("zero_row", [False, True])
def test_one_sided_entry_joins_groups_and_raises(zero_row):
    # Ch[a, b] != 0 with Ch[b, a] = 0 between two otherwise separate
    # groups: the symmetrised pattern puts a and b in one group, so the
    # Hermitian check still sees the pair
    g = two_vertex_example()
    ch = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)  # rows (i, p), p = i mod 2
    assert is_completely_positive(CpMapMatrix(g, np.array([ch, ch])))["cp"]
    if zero_row:
        ch[0, 0] = 0.0  # row 0 is zero, column 0 is not
        ch[1, 0] = 0.5
    else:
        ch[0, 1] = 0.5
    with pytest.raises(StructuralError, match="vertex 'v'"):
        is_completely_positive(CpMapMatrix(g, np.array([ch, ch])))


def sink_source_graphs():
    """A source s -> a loop vertex l -> a sink t, and a sink fed by two
    loop vertices; neither is strongly connected."""
    yield Graph(["s", "l", "t"], [("e", "s", "l"), ("z", "l", "l"), ("f", "l", "t")])
    yield Graph(["p", "q", "t"], [("y", "p", "p"), ("z", "q", "q"),
                                  ("e", "p", "t"), ("f", "q", "t")])


@pytest.mark.parametrize("seed", range(4))
def test_split_verdicts_on_sink_and_source_graphs(seed):
    # feasible and infeasible Schur and Pick data on graphs whose Choi
    # blocks split: the same verdicts as one eigvalsh of each whole block
    rng = np.random.default_rng(seed)
    verdicts = Counter()
    for g in sink_source_graphs():
        s = random_system(g, rng)
        pts = [random_point(g, rng, max_norm=0.8) for _ in range(5)]
        X = [transfer_eval(s, p) for p in pts]
        B = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in pts]
        for scale in (1.0, 1.6):
            for m in (schur_kernel_matrix(pts, [scale * x for x in X]),
                      pick_map_matrix(pts, B, [scale * b @ x for b, x in zip(B, X)])):
                rep = assert_matches_full_block(m)
                verdicts[scale, rep["cp"]] += 1
    assert verdicts[1.0, True] == 4
    assert verdicts[1.6, False] >= 1


def test_one_vertex_pick_reports_are_bitwise_the_full_block():
    # nothing to split on one vertex: the report is the full-block
    # eigvalsh bit for bit, feasible and infeasible
    g = loop_graph()
    rng = np.random.default_rng(12)
    for trial in range(20):
        z = rng.uniform(0.05, 0.9, size=16) * np.exp(2j * np.pi * rng.random(16))
        c = 0.9 * z ** 2 * (1.0 if trial % 2 else 1.2)
        pts = [make_dual_point(g, {"z": np.conj(zi)}) for zi in z]
        assert_matches_full_block(pick_map_matrix(pts, [1.0] * 16, list(c)), bitwise=True)
