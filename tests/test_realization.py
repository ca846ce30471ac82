"""System matrices, transfer functions, and realization from samples."""

import json

import numpy as np
import pytest

from graph_hardy import (
    ConditioningError,
    FeasibilityError,
    Graph,
    GraphError,
    HardyPoly,
    SystemMatrix,
    certify_contraction,
    evaluate_poly,
    feasible_multiplicities,
    make_dual_point,
    random_point,
    random_poly,
    random_system,
    realize_from_samples,
    series_residual,
    system_from_dict,
    system_to_dict,
    taylor_extract,
    taylor_poly,
    transfer_eval,
    transfer_partial_sum,
    two_vertex_example,
    validate_system,
)
from graph_hardy import realization
from graph_hardy.realization import (
    _PAD_MAX_TOTAL,
    _block_dims,
    _pad_multiplicities,
    _system_from_vertex_blocks,
)
from conftest import corpus_samples, random_graph


def loop_graph():
    return Graph(["u"], [("z", "u", "u")])


def classical_system():
    # scalar unitary colligation [[0.6, 0.8], [0.8, -0.6]] on one loop
    g = loop_graph()
    return SystemMatrix(g, {"u": 1}, ("u",), ("u",),
                        A={"u": 0.6}, B={"u": [[0.8]]},
                        C={"z": [[0.8]]}, D={"z": [[-0.6]]})


def test_dimension_bookkeeping_frozen():
    g = two_vertex_example()
    s = SystemMatrix(g, {"v": 1, "w": 2}, ("v", "w"), ("v",))
    assert s.h_dim() == 3
    # (codomain_v, domain_v)
    assert s.vertex_block("v").shape == (3, 2) and s.vertex_block("w").shape == (3, 3)
    V = s.assemble()
    assert V.shape == (6, 5)  # 1 output slot + fibers (2, 1, 2); 2 inputs + 3 states


def test_assemble_block_placement_frozen():
    g = two_vertex_example()
    D = {"g": [[1.0, 2.0], [3.0, 4.0]]}
    s = SystemMatrix(g, {"v": 1, "w": 2}, ("v", "w"), ("v",), D=D)
    V = s.assemble()
    # rows: [q2 v] then fibers e (2 rows), f (1), g (2); cols: q1 v, w then H
    np.testing.assert_allclose(V[4:6, 3:5], [[1.0, 2.0], [3.0, 4.0]])
    assert np.abs(V).sum() == 10.0  # nothing else was placed


def _scatter_by_labels(s):
    """assemble() rebuilt from the vertex blocks by naming every row and column:
    rows are q2 slots then edge fibers in edge order, columns q1 slots then H."""
    g = s.graph
    row_labels = [("E2", w) for w in s.q2] + [
        (e.name, j) for e in g.edges for j in range(s.m[e.dst])]
    col_labels = [("E1", u) for u in s.q1] + [
        ("H", u, j) for u in g.vertices for j in range(s.m[u])]
    rpos = {lab: i for i, lab in enumerate(row_labels)}
    cpos = {lab: i for i, lab in enumerate(col_labels)}
    V = np.zeros((len(row_labels), len(col_labels)), dtype=complex)
    for v in g.vertices:
        rows = [("E2", v)] * (v in s.q2) + [
            (e, j) for e in g.out_edges(v) for j in range(s.m[g.dst[e]])]
        cols = [("E1", v)] * (v in s.q1) + [("H", v, j) for j in range(s.m[v])]
        blk = s.vertex_block(v)
        assert blk.shape == (len(rows), len(cols))
        for a, r in enumerate(rows):
            for b, c in enumerate(cols):
                V[rpos[r], cpos[c]] = blk[a, b]
    return V


def test_vertex_block_layout_roundtrip():
    # seeds of conftest.random_graph with parallel edges, a sink and a source
    seen = set()
    for seed in (12, 28, 45):
        g = random_graph(np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        subsets = [(None, None), ((), None), (g.vertices, ()),
                   ((g.vertices[0],), (g.vertices[-1],)), ((), ())]
        for q1, q2 in subsets:
            s = random_system(g, rng, q1=q1, q2=q2)
            back = _system_from_vertex_blocks(
                g, s.m, s.q1, s.q2, {v: s.vertex_block(v) for v in g.vertices})
            assert back.A == s.A
            for mine, theirs in ((back.B, s.B), (back.C, s.C), (back.D, s.D)):
                assert mine.keys() == theirs.keys()
                for key in mine:
                    np.testing.assert_array_equal(mine[key], theirs[key])
            # coisometries keep blocks small; arbitrary blocks at unshrunk
            # multiplicities give vertex blocks with several wide fibers
            m = {v: int(rng.integers(0, 4)) for v in g.vertices}
            shape = SystemMatrix(g, m, s.q1, s.q2)
            blocks = {v: rng.standard_normal(shape.vertex_block(v).shape) + 0j
                      for v in g.vertices}
            t = _system_from_vertex_blocks(g, m, s.q1, s.q2, blocks)
            for v in g.vertices:
                np.testing.assert_array_equal(t.vertex_block(v), blocks[v])
            for sys_ in (s, t):
                np.testing.assert_array_equal(sys_.assemble(), _scatter_by_labels(sys_))
                flags = {"empty q1": not sys_.q1, "empty q2": not sys_.q2,
                         "zero m": 0 in sys_.m.values(), "nonzero m": any(sys_.m.values())}
                seen.update(name for name, hit in flags.items() if hit)
    assert seen == {"empty q1", "empty q2", "zero m", "nonzero m"}


def test_block_support_validation():
    g = two_vertex_example()
    with pytest.raises(GraphError):
        SystemMatrix(g, {"v": 1}, ("v",), ("v",), B={"w": [[1.0]]})
    with pytest.raises(GraphError):
        SystemMatrix(g, {"w": 1}, ("w",), ("v",), C={"e": [[1.0]]})  # src e not in q1
    with pytest.raises(GraphError):
        SystemMatrix(g, {"v": 1, "w": 1}, ("v",), ("v",), D={"g": [[1.0, 2.0]]})
    with pytest.raises(GraphError):
        SystemMatrix(g, {"v": -1}, ("v",), ("v",))
    with pytest.raises(GraphError):
        SystemMatrix(g, {"x": 1}, ("v",), ("v",))
    with pytest.raises(GraphError, match="A block at 'w' outside q1 and q2"):
        SystemMatrix(g, {}, ("v", "w"), ("v",), A={"w": 0.5})
    with pytest.raises(GraphError, match="D block at unknown edge 'x'"):
        SystemMatrix(g, {"v": 1}, ("v",), ("v",), D={"x": [[1.0]]})


@pytest.mark.parametrize("m", [1.5, 2.9, 1.0, "2", True, None])
def test_non_integer_multiplicity_is_rejected(m):
    # int() truncated 1.5 to 1, 2.9 to 2, "2" to 2 and True to 1
    g = two_vertex_example()
    with pytest.raises(GraphError, match="multiplicity of 'v' must be an integer"):
        SystemMatrix(g, {"v": m}, ("v",), ("v",))
    data = system_to_dict(SystemMatrix(g, {"v": 1}, ("v",), ("v",)))
    data["multiplicities"]["v"] = m
    with pytest.raises(GraphError, match="multiplicity of 'v' must be an integer"):
        system_from_dict(g, data)


def test_numpy_integer_multiplicities_are_taken():
    s = SystemMatrix(two_vertex_example(), {"v": np.int64(2), "w": np.uint8(1)}, ("v",), ("v",))
    assert s.m == {"v": 2, "w": 1} and all(type(m) is int for m in s.m.values())


def test_classical_transfer_closed_form():
    s = classical_system()
    g = s.graph
    rep = validate_system(s)
    assert rep["passed"] and rep["isometry_residual"] < 1e-12
    for w in (0.3 + 0.2j, -0.55, 0.1j):
        p = make_dual_point(g, {"z": w})
        cw = np.conj(w)
        oracle = 0.6 + 0.64 * cw / (1.0 + 0.6 * cw)
        assert abs(transfer_eval(s, p)[0, 0] - oracle) < 1e-13


def test_classical_taylor_frozen():
    s = classical_system()
    pieces = taylor_extract(s, 3)
    assert pieces[0].coeffs == {"u": 0.6}
    assert abs(pieces[1].coeff(("z",)) - 0.64) < 1e-15
    assert abs(pieces[2].coeff(("z", "z")) - (-0.384)) < 1e-15
    assert abs(pieces[3].coeff(("z",) * 3) - 0.2304) < 1e-15


def test_random_systems_validate():
    rng = np.random.default_rng(5)
    graphs = [two_vertex_example()] + [random_graph(rng, 4, 6) for _ in range(4)]
    for g in graphs:
        s = random_system(g, rng)
        rep = validate_system(s)
        assert rep["coisometry_residual"] < 1e-12
        assert rep["cond11"] < 1e-12 and rep["cond22"] < 1e-12 and rep["cond12"] < 1e-12
        assert max(rep["block_residuals"].values()) < 1e-12


def _validate_by_global_formulas(s):
    """validate_system's fields from SVDs of the assembled V and of its
    A, B, C, D slices, as the identities are stated."""
    def norm2(M):
        return float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0
    V = s.assemble()
    n1, n2 = len(s.q1), len(s.q2)
    Am, Bm, Cm, Dm = V[:n2, :n1], V[:n2, n1:], V[n2:, :n1], V[n2:, n1:]
    co = norm2(V @ V.conj().T - np.eye(V.shape[0]))
    return {
        "coisometry_residual": co,
        "isometry_residual": norm2(V.conj().T @ V - np.eye(V.shape[1])),
        "cond11": norm2(np.eye(n2) - Am @ Am.conj().T - Bm @ Bm.conj().T),
        "cond22": norm2(Cm @ Cm.conj().T - (np.eye(len(Cm)) - Dm @ Dm.conj().T)),
        "cond12": norm2(Am @ Cm.conj().T + Bm @ Dm.conj().T),
        "block_residuals": {v: norm2(s.vertex_block(v) @ s.vertex_block(v).conj().T
                                     - np.eye(len(s.vertex_block(v))))
                            for v in s.graph.vertices},
        "passed": bool(co < 1e-9),  # validate_system's default tol
    }


def _assert_validation_matches_global_formulas(s, label):
    got, want = validate_system(s), _validate_by_global_formulas(s)
    assert got["passed"] == want["passed"], label
    for key in ("coisometry_residual", "isometry_residual", "cond11", "cond22", "cond12"):
        assert abs(got[key] - want[key]) <= 1e-14 * (1.0 + want[key]), (label, key)
    for v, r in want["block_residuals"].items():
        assert abs(got["block_residuals"][v] - r) <= 1e-14 * (1.0 + r), (label, v)
    return got["passed"]


def test_validate_system_reads_the_vertex_blocks():
    # the per-block norms against SVDs of the whole V: contractive corpus
    # realizations, random coisometric systems (on random graphs with
    # assorted q1, q2) and the same systems with a perturbed or scaled V
    verdicts = []
    for seed in range(100, 110):
        g, pts, vals = corpus_samples(seed, 4)
        s, _ = realize_from_samples(pts, vals, list(g.vertices), list(g.vertices))
        verdicts.append(_assert_validation_matches_global_formulas(s, seed))
    rng = np.random.default_rng(23)
    for i in range(12):
        g = two_vertex_example() if i < 2 else random_graph(rng, 4, 6)
        vs = g.vertices
        q1, q2 = [(vs, vs), (vs, vs[:1]), (vs[-1:], vs)][i % 3]
        s = random_system(g, rng, q1=q1, q2=q2)
        verdicts.append(_assert_validation_matches_global_formulas(s, i))
        for factor in (1.0 + 1e-6, 0.5):
            t = _system_from_vertex_blocks(g, s.m, s.q1, s.q2,
                                           {v: factor * s.vertex_block(v) for v in vs})
            verdicts.append(_assert_validation_matches_global_formulas(t, (i, factor)))
    assert sum(verdicts) >= 10 and len(verdicts) - sum(verdicts) >= 10


def test_transfer_matches_taylor_polynomial():
    # independent oracle: the partial sum of the series equals evaluating
    # the extracted Taylor polynomial
    rng = np.random.default_rng(9)
    cases = [(g, None, None, rng)
             for g in (two_vertex_example(), loop_graph(), random_graph(rng, 4, 5))]
    # conftest.random_graph seeds with parallel edges, a sink and a source,
    # with q1/q2 subsets that include empty ones
    for seed in (12, 28, 45):
        g = random_graph(np.random.default_rng(seed))
        vs, rs = g.vertices, np.random.default_rng(seed)
        cases += [(g, q1, q2, rs) for q1, q2 in ((None, None), ((), None), (vs, ()),
                                                 ((vs[0],), (vs[-1],)), (vs[1:], vs[:2]))]
    nonzero = 0
    for g, q1, q2, rs in cases:
        s = random_system(g, rs, q1=q1, q2=q2)
        for _ in range(3):
            p = random_point(g, rs, max_norm=0.6)
            N = 6
            poly = taylor_poly(s, N)
            part = transfer_partial_sum(s, p, N)
            np.testing.assert_allclose(part, evaluate_poly(poly, p), atol=1e-12)
            nonzero += bool(np.abs(part).max() > 1e-3)
    assert nonzero >= 20


def test_taylor_poly_merge_equals_the_sum_bitwise():
    # the degree parts have disjoint keys, so one merged dict holds the
    # same coefficients, in the same order and with the same bits, as the
    # sum of the parts
    rng = np.random.default_rng(5)
    graphs = [two_vertex_example(), loop_graph()] + [random_graph(rng) for _ in range(12)]
    terms = 0
    for g in graphs:
        s = random_system(g, rng)
        for N in (0, 3, 7):
            merged = taylor_poly(s, N)
            summed = sum(taylor_extract(s, N), HardyPoly.zero(g))
            assert list(merged.coeffs) == list(summed.coeffs)
            bits = [np.array(list(x.coeffs.values()), dtype=complex).tobytes()
                    for x in (merged, summed)]
            assert bits[0] == bits[1]
            terms += len(merged.coeffs)
    assert terms > 50


def test_transfer_matches_dense_insertion_oracle():
    # A + B (I - L* D)^{-1} L* C from assemble() and an explicit dense L*,
    # which takes row j of the fiber of e to row j of H_{r(e)} with factor
    # conj(w_e).  Random blocks at multiplicities >= 1 keep every fiber
    # live, including the parallel edges of seeds 12, 28 and 45.
    graphs = [two_vertex_example()] + [random_graph(np.random.default_rng(seed))
                                       for seed in (12, 28, 45)]
    rng = np.random.default_rng(31)
    through_state = 0
    for g in graphs:
        vs = g.vertices
        for q1, q2 in ((vs, vs), ((), vs), (vs, ()), ((vs[0],), (vs[-1],)), (vs[1:], vs[:2])):
            m = {v: int(rng.integers(1, 4)) for v in vs}
            shape = {v: SystemMatrix(g, m, q1, q2).vertex_block(v).shape for v in vs}
            s = _system_from_vertex_blocks(g, m, q1, q2, {
                v: 0.25 * (rng.standard_normal(shape[v]) + 1j * rng.standard_normal(shape[v]))
                for v in vs})
            V = s.assemble()
            n1, n2, hdim = len(s.q1), len(s.q2), s.h_dim()
            hstart = np.cumsum([0] + [m[v] for v in vs])
            p = random_point(g, rng, max_norm=0.8)
            L = np.zeros((hdim, V.shape[0] - n2), dtype=complex)
            row = 0
            for e in g.edges:
                for j in range(m[e.dst]):
                    L[hstart[g.vindex[e.dst]] + j, row + j] = np.conj(p.weight(e.name))
                row += m[e.dst]
            A, B, C, D = V[:n2, :n1], V[:n2, n1:], V[n2:, :n1], V[n2:, n1:]
            resolvent_part = B @ np.linalg.solve(np.eye(hdim) - L @ D, L @ C)
            oracle = np.zeros((g.nv, g.nv), dtype=complex)
            oracle[np.ix_([g.vindex[v] for v in s.q2], [g.vindex[v] for v in s.q1])] = (
                A + resolvent_part)
            np.testing.assert_allclose(transfer_eval(s, p), oracle, rtol=0, atol=1e-12)
            through_state += bool(np.abs(resolvent_part).max(initial=0.0) > 1e-3)
    assert through_state >= 6


def test_transfer_supported_on_q2_q1():
    rng = np.random.default_rng(21)
    g = two_vertex_example()
    s = random_system(g, rng, q1=("v",), q2=("w",))
    p = random_point(g, rng, max_norm=0.5)
    Z = transfer_eval(s, p)
    iv, iw = g.vindex["v"], g.vindex["w"]
    assert abs(Z[iv, iv]) < 1e-14 and abs(Z[iv, iw]) < 1e-14 and abs(Z[iw, iw]) < 1e-14


def test_series_residual_tail():
    rng = np.random.default_rng(13)
    g = two_vertex_example()
    s = random_system(g, rng)
    p = random_point(g, rng, max_norm=0.5, min_norm=0.3)
    tail = p.norm ** 41 / (1.0 - p.norm)
    assert series_residual(s, p, 40) <= tail + 1e-12
    # the residual shrinks with the degree
    assert series_residual(s, p, 20) <= p.norm ** 21 / (1.0 - p.norm) + 1e-12


def test_transfer_rejects_a_point_of_another_graph():
    rng = np.random.default_rng(13)
    g = two_vertex_example()
    s = random_system(g, rng)
    # the same number of edges on another graph used to evaluate silently,
    # another number raised IndexError
    same_ne = Graph(["v", "w"], [("e", "w", "v"), ("f", "v", "w"), ("g", "v", "v")])
    for p in (make_dual_point(same_ne, {"g": 0.5}), make_dual_point(loop_graph(), {"z": 0.5})):
        with pytest.raises(GraphError, match="different graphs"):
            transfer_eval(s, p)
        with pytest.raises(GraphError, match="different graphs"):
            transfer_partial_sum(s, p, 5)
        with pytest.raises(GraphError, match="different graphs"):
            series_residual(s, p, 5)


def test_feasible_multiplicities_branching_loop_collapses():
    g = two_vertex_example()
    q2, m = feasible_multiplicities(g, ("v", "w"), ("v", "w"), {"v": 3, "w": 3})
    assert m == {"v": 0, "w": 0}
    assert q2 == ("v", "w")


def test_feasible_multiplicities_long_repair_terminates():
    # each repair step lowers sum(m) + |q2| by one; two loops at v need 12000 steps
    g = Graph(["v"], [("a", "v", "v"), ("b", "v", "v")])
    assert feasible_multiplicities(g, ["v"], ["v"], {"v": 12000}) == (("v",), {"v": 0})
    with pytest.raises(GraphError, match="nonnegative"):
        feasible_multiplicities(g, ["v"], ["v"], {"v": -1})


def _pad_oracle(g, q1, q2, m):
    """The padding loop as it stood before its sweeps were bounded: sweep
    until nothing changes, or until the total passes _PAD_MAX_TOTAL."""
    p = {v: 0 for v in g.vertices}
    mp = dict(m)
    while True:
        changed = False
        for v in g.vertices:
            dom, cod = _block_dims(g, set(q1), set(q2), mp, v)
            if dom < cod:
                p[v] += cod - dom
                mp[v] += cod - dom
                changed = True
        if not changed:
            return p, True
        if sum(p.values()) > _PAD_MAX_TOTAL:
            return {v: 0 for v in g.vertices}, False


def test_pad_multiplicities_matches_unbounded_loop():
    rng = np.random.default_rng(2024)
    kinds = dict.fromkeys(["zero", "padded", "infeasible", "loop", "parallel", "sink",
                           "empty q1", "empty q2", "m > 30"], 0)
    for _ in range(400):
        g = random_graph(rng, max_vertices=6, max_edges=10)
        q1 = [v for v in g.vertices if rng.random() < 0.5]
        q2 = [v for v in g.vertices if rng.random() < 0.5]
        mmax = int(rng.choice([1, 3, 60]))
        m = {v: int(rng.integers(0, mmax + 1)) for v in g.vertices}
        got = _pad_multiplicities(g, q1, q2, m)
        assert got[:2] == _pad_oracle(g, q1, q2, m)
        p, ok, _ = got
        kinds["infeasible" if not ok else "padded" if any(p.values()) else "zero"] += 1
        ends = [(e.src, e.dst) for e in g.edges]
        for name, hit in (("loop", any(a == b for a, b in ends)),
                          ("parallel", len(set(ends)) < len(ends)),
                          ("sink", any(not g.out_edges(v) for v in g.vertices)),
                          ("empty q1", not q1), ("empty q2", not q2),
                          ("m > 30", max(m.values()) > 30)):
            kinds[name] += hit
    assert min(kinds.values()) >= 20, kinds


def test_pad_multiplicities_chain_needs_nv_plus_one_sweeps(monkeypatch):
    # the sink's output slot pads the sink, then each vertex before it, one
    # per sweep: the last of nv sweeps settles v0 and sweep nv + 1 confirms
    n = 6
    vs = ["v%d" % i for i in range(n)]
    g = Graph(vs, [("e%d" % i, vs[i], vs[i + 1]) for i in range(n - 1)])
    calls = []
    monkeypatch.setattr(realization, "_block_dims",
                        lambda *a: calls.append(a[-1]) or _block_dims(*a))
    assert _pad_multiplicities(g, [], [vs[-1]], {v: 0 for v in vs}) == ({v: 1 for v in vs}, True, False)
    assert len(calls) == n * (n + 1)


def test_pad_multiplicities_total_cap():
    # v0 => v1 => v2 with 70 parallel edges each: the least padding exists,
    # (4900, 70, 1), but its total 4,971 is above the state-size cap, which
    # the report tells apart from a padding that does not exist
    vs = ["v0", "v1", "v2"]
    g = Graph(vs, [("a%d" % i, "v0", "v1") for i in range(70)]
              + [("b%d" % i, "v1", "v2") for i in range(70)])
    m = {v: 0 for v in vs}
    assert _pad_multiplicities(g, [], ["v2"], m) == ({v: 0 for v in vs}, False, True)
    g2 = Graph(vs, [("a%d" % i, "v0", "v1") for i in range(60)]
               + [("b%d" % i, "v1", "v2") for i in range(60)])
    assert _pad_multiplicities(g2, [], ["v2"], m) == ({"v0": 3600, "v1": 60, "v2": 1},
                                                      True, False)
    # a loop at v2 with q2 = {v2}: codomain_v2 = 1 + m_v2 > m_v2 = domain_v2
    g3 = Graph(vs, [("a", "v0", "v1"), ("l", "v2", "v2")])
    assert _pad_multiplicities(g3, [], ["v2"], m) == ({v: 0 for v in vs}, False, False)


def test_realize_random_systems_in_colligation_layout():
    # samples of random systems on conftest.random_graph seeds whose graphs
    # have parallel edges, a loop and a sink, realized with q1 != q2; the
    # graphs of seeds 52 and 73 need a nonzero padding that exists
    padded = nonzero = 0
    for seed in (12, 28, 45, 52, 73):
        g = random_graph(np.random.default_rng(seed))
        ends = [(e.src, e.dst) for e in g.edges]
        assert len(set(ends)) < len(ends) and any(a == b for a, b in ends)
        assert any(not g.out_edges(v) for v in g.vertices)
        rng = np.random.default_rng(seed)
        vs = g.vertices
        for q1, q2 in ((vs, vs[:1]), (vs, vs[::2]), (vs[:1], vs[-1:])):
            s = random_system(g, rng, mmax=2, q1=q1, q2=q2)
            assert s.q1 != s.q2
            pts = [random_point(g, rng, max_norm=0.8) for _ in range(6)]
            vals = [transfer_eval(s, p) for p in pts]
            r, rep = realize_from_samples(pts, vals, s.q1, s.q2)
            scale = max(1.0, max(np.abs(z).max() for z in vals))
            interp = max(np.abs(transfer_eval(r, p) - z).max() for p, z in zip(pts, vals))
            assert interp <= 1e-6 * (1.0 + scale)
            # the report evaluates all points in one stack, bit for bit as one by one
            assert rep["interpolation_residual"] == interp
            padded += rep["padding_feasible"] and any(rep["padding"].values())
            nonzero += max(np.abs(z).max() for z in vals) > 1e-2
    assert padded >= 3 and nonzero >= 10


@pytest.mark.parametrize("k", [4, 10])
def test_realize_corpus_is_contractive_interpolant(k):
    # seeds 100-119: generic contraction samples with no finite coisometric
    # model; each realizes as a contraction that meets the samples
    for seed in range(100, 120):
        g, pts, vals = corpus_samples(seed, k)
        s, rep = realize_from_samples(pts, vals, list(g.vertices), list(g.vertices))
        scale = max(1.0, max(np.abs(z).max() for z in vals))
        interp = max(np.abs(transfer_eval(s, p) - z).max() for p, z in zip(pts, vals))
        assert interp <= 1e-6 * (1.0 + scale), seed
        assert rep["norm"] <= 1.0 + 1e-12, seed
        assert abs(rep["norm"] - np.linalg.norm(s.assemble(), 2)) < 1e-14, seed
        assert rep["class"] == ("coisometric" if validate_system(s)["passed"]
                                else "contractive")


def test_realize_classical_identity_function():
    # samples of X(z) = z at the nodes 0 and 0.5 pin the function down
    g = loop_graph()
    pts = [make_dual_point(g, {"z": w}) for w in (0.0, 0.5)]
    vals = [np.array([[np.conj(w)]]) for w in (0.0, 0.5)]
    s, rep = realize_from_samples(pts, vals, ["u"], ["u"])
    assert rep["interpolation_residual"] < 1e-10
    for w in (0.25, -0.7, 0.3 + 0.4j):
        p = make_dual_point(g, {"z": w})
        assert abs(transfer_eval(s, p)[0, 0] - np.conj(w)) < 1e-10


def test_realize_loop_shift_exact():
    g = two_vertex_example()
    x = HardyPoly.shift(g, "g")
    pts = [make_dual_point(g, {"g": c}) for c in (0.55, -0.35, 0.2 + 0.4j, -0.1 - 0.5j)]
    vals = [evaluate_poly(x, p) for p in pts]
    s, rep = realize_from_samples(pts, vals, list(g.vertices), list(g.vertices))
    assert rep["coisometry_residual"] == max(validate_system(s)["block_residuals"].values())
    assert rep["multiplicities"] == {"v": 1, "w": 1}
    assert rep["gram_ranks"] == {"v": 1, "w": 1}
    assert rep["interpolation_residual"] < 1e-12
    for c in (0.3, -0.52, 0.1 - 0.3j):
        h = make_dual_point(g, {"g": c})
        dev = np.abs(transfer_eval(s, h) - evaluate_poly(x, h)).max()
        assert dev < 1e-12


def test_realize_generic_data_is_interpolant_only():
    # on this graph a generic certified contraction has no finite model:
    # the samples are matched but held-out points are not reproduced
    g = two_vertex_example()
    rng = np.random.default_rng(6)
    x, _ = certify_contraction(random_poly(g, rng, degree=2), 8)
    pts = [random_point(g, rng, max_norm=0.55, min_norm=0.2) for _ in range(4)]
    vals = [evaluate_poly(x, p) for p in pts]
    s, rep = realize_from_samples(pts, vals, list(g.vertices), list(g.vertices))
    assert rep["interpolation_residual"] < 1e-8
    assert not rep["padding_feasible"] and not rep["padding_capped"]
    assert rep["coisometry_residual"] == max(validate_system(s)["block_residuals"].values())
    held = [random_point(g, rng, max_norm=0.55, min_norm=0.2) for _ in range(4)]
    dev = max(np.abs(transfer_eval(s, h) - evaluate_poly(x, h)).max() for h in held)
    assert dev > 1e-4  # one Schur-class interpolant among many, not X itself


def test_realize_sink_with_empty_input_or_output_set():
    # v -> w: w is a sink and v a source.  With q1 or q2 empty the samples
    # must vanish and the realized transfer is zero; with q1 = {v} and
    # q2 = {w} the samples of 0.6 S_e are matched through the sink's fiber.
    g = Graph(["v", "w"], [("e", "v", "w")])
    x = 0.6 * HardyPoly.shift(g, "e")
    pts = [make_dual_point(g, {"e": c}) for c in (0.3, -0.5j, 0.6 + 0.1j)]
    held = make_dual_point(g, {"e": -0.2 + 0.4j})
    zero = [np.zeros((2, 2))] * len(pts)
    cases = [([], ["v", "w"], zero, 0 * x), (["v", "w"], [], zero, 0 * x),
             (["v"], ["w"], [evaluate_poly(x, p) for p in pts], x)]
    for q1, q2, vals, oracle in cases:
        s, rep = realize_from_samples(pts, vals, q1, q2)
        assert s.q1 == tuple(q1) and s.q2 == tuple(q2)
        assert rep["padding_feasible"]
        assert rep["interpolation_residual"] < 1e-12
        assert rep["coisometry_residual"] == max(validate_system(s)["block_residuals"].values())
        assert rep["coisometry_residual"] < 1e-12
        assert np.abs(transfer_eval(s, held) - evaluate_poly(oracle, held)).max() < 1e-12


def test_realize_rejects_expansive_data():
    g = two_vertex_example()
    x = 1.3 * HardyPoly.shift(g, "g")
    # |1.3 c| > 1 at each node, so the kernel diagonal already goes negative
    pts = [make_dual_point(g, {"g": c}) for c in (0.8, -0.85, 0.78j)]
    vals = [evaluate_poly(x, p) for p in pts]
    with pytest.raises(FeasibilityError):
        realize_from_samples(pts, vals, list(g.vertices), list(g.vertices))


def test_realize_rejects_unknown_vertex_names():
    # a name outside the graph is refused, as SystemMatrix refuses it, not dropped
    g = two_vertex_example()
    x = 0.5 * HardyPoly.shift(g, "g")
    pts = [make_dual_point(g, {"g": c}) for c in (0.3, -0.4j)]
    vals = [evaluate_poly(x, p) for p in pts]
    s, _ = realize_from_samples(pts, vals, ["v", "w"], ["w"])
    assert s.q1 == ("v", "w") and s.q2 == ("w",)
    for q1, q2, bad in ((["v", "w", "typo"], ["w", "nope"], "typo"),
                        (["v", "w"], ["w", "nope"], "nope")):
        with pytest.raises(GraphError, match="unknown vertex '%s'" % bad):
            realize_from_samples(pts, vals, q1, q2)


def test_realize_rejects_mismatched_values():
    g = two_vertex_example()
    pts = [make_dual_point(g, {"g": c}) for c in (0.3, -0.4j)]
    with pytest.raises(ValueError, match="one value matrix per point"):
        realize_from_samples(pts, [np.zeros((2, 2))], ["v", "w"], ["w"])
    with pytest.raises(GraphError, match="must be 2 x 2 matrices"):
        realize_from_samples(pts, [np.zeros((2, 3))] * 2, ["v", "w"], ["w"])


def test_realize_rejects_empty_and_non_finite_samples():
    # no points said "need one value matrix per point"; a NaN value let
    # numpy's LinAlgError out of the CP check
    g = two_vertex_example()
    with pytest.raises(ValueError, match="^need at least one point$"):
        realize_from_samples([], [], ["v", "w"], ["w"])
    pts = [make_dual_point(g, {"g": c}) for c in (0.3, -0.4j)]
    vals = [np.zeros((2, 2)), np.array([[0.0, 0.0], [np.nan, 0.0]])]
    with pytest.raises(ValueError, match="non-finite entry"):
        realize_from_samples(pts, vals, ["v", "w"], ["v", "w"])


def test_realize_rejects_off_support_values():
    g = two_vertex_example()
    pts = [make_dual_point(g, {"g": 0.4})]
    vals = [np.array([[0.5, 0.0], [0.0, 0.0]])]  # entry at (v, v)
    with pytest.raises(GraphError):
        realize_from_samples(pts, vals, ["v", "w"], ["w"])


def test_realize_loose_rank_cut_is_caught(monkeypatch):
    # a coarse rank truncation breaks the Gram identity at the cut scale,
    # which the conditioning gate reports instead of silently degrading
    monkeypatch.setattr(realization, "_GRAM_CUT", 0.5)
    g = two_vertex_example()
    x, _ = certify_contraction(HardyPoly.shift(g, "g"), 6, slack=1e-4)
    pts = [make_dual_point(g, {"g": c}) for c in (0.55, -0.35, 0.2 + 0.4j, -0.1 - 0.5j)]
    vals = [evaluate_poly(x, p) for p in pts]
    with pytest.raises(ConditioningError):
        realize_from_samples(pts, vals, list(g.vertices), list(g.vertices))


def test_system_json_roundtrip():
    rng = np.random.default_rng(17)
    g = two_vertex_example()
    s = random_system(g, rng)
    d = system_to_dict(s)
    s2 = system_from_dict(g, d)
    np.testing.assert_allclose(s2.assemble(), s.assemble(), atol=1e-15)
    assert s2.q1 == s.q1 and s2.q2 == s.q2 and s2.m == s.m
    s3 = system_from_dict(g, json.loads(json.dumps(d)))
    np.testing.assert_allclose(s3.assemble(), s.assemble(), atol=1e-15)
    with pytest.raises(GraphError):
        system_from_dict(g, {"q1": ["v"]})
    with pytest.raises(GraphError, match="matrix has shape"):
        system_from_dict(g, dict(d, D={"g": [[[0.0, 0.0]] * 5] * 2}))
    with pytest.raises(GraphError, match="needs multiplicities, q1, q2"):
        system_from_dict(g, dict(d, q1=5))


@pytest.mark.parametrize("call", [
    lambda s, p: taylor_extract(s, -1),
    lambda s, p: transfer_partial_sum(s, p, -1),
    lambda s, p: series_residual(s, p, -1),
], ids=["taylor_extract", "transfer_partial_sum", "series_residual"])
def test_negative_truncation_order_is_rejected(call):
    g = two_vertex_example()
    s = random_system(g, np.random.default_rng(3))
    with pytest.raises(ValueError, match=">= 0"):
        call(s, make_dual_point(g, {"g": 0.3}))
