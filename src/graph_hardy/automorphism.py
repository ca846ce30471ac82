"""Gauge unitaries of the edge bimodule and the induced automorphisms.

A bimodule unitary u acts on edge functions and commutes with both
vertex actions, so it decomposes over the parallel classes: for each
ordered vertex pair (src, dst) it restricts to a unitary on the span of
the edges with that source and range.  Such a u induces an automorphism
alpha_u of the Hardy algebra by S_e |-> S_{u delta_e} on the generators
and P_v |-> P_v, computed with hardy_mul as the product of the edge
images along each path term; composing with the Mobius involution of a
central point gives the full automorphism group action used here.

The Mobius automorphism alpha_gamma of a central point gamma, on any
graph, is given by its generator images: mobius_alpha cuts one system per
edge from the colligation of gamma and returns their Taylor polynomials.
At gamma = 0 every generator is negated, matching g_0 = -id.
"""

from __future__ import annotations

import numpy as np

from .graph_core import (GraphError, _complex_from_json, _complex_to_json, _path_edges,
                         path_range, two_vertex_example)
from .dual_eval import DualPoint, evaluate_poly
from .fock import HardyPoly, random_poly
from .mobius import CentralPoint, mobius_apply, mobius_colligation
from .realization import SystemMatrix, taylor_poly


class BimoduleUnitary:
    """Block unitary over the parallel edge classes of a graph.

    blocks: dict (src, dst) -> (tuple of edge names, unitary ndarray).
    Every parallel class with at least one edge must be covered exactly
    once, the listed edges must be exactly that class, and each matrix
    must be unitary within 1e-12 (largest entry of U U* - id and U* U - id).
    """

    def __init__(self, graph, blocks):
        self.graph = graph
        classes = _parallel_classes(graph)
        got = {}
        for key, (edges, mat) in blocks.items():
            key = (str(key[0]), str(key[1]))
            if key not in classes:
                raise GraphError("no edges from %r to %r" % key)
            if sorted(edges) != sorted(classes[key]):
                raise GraphError("block %r must list exactly the parallel edges %r"
                                 % (key, classes[key]))
            mat = np.asarray(mat, dtype=complex)
            d = len(edges)
            if mat.shape != (d, d):
                raise GraphError("block %r must be %d x %d" % (key, d, d))
            dev = float(np.abs(mat @ mat.conj().T - np.eye(d)).max(initial=0.0))
            dev = max(dev, float(np.abs(mat.conj().T @ mat - np.eye(d)).max(initial=0.0)))
            if not dev <= 1e-12:  # written so that NaN fails too
                raise GraphError("block %r is not unitary (deviation %.3e)" % (key, dev))
            got[key] = (tuple(edges), mat)
        missing = set(classes) - set(got)
        if missing:
            raise GraphError("missing unitary blocks for classes %s" % sorted(missing))
        self.blocks = got

    def full_matrix(self):
        """ne x ne matrix: entry (f, e) is the coefficient of delta_f in
        u(delta_e); block diagonal over parallel classes."""
        g = self.graph
        U = np.zeros((g.ne, g.ne), dtype=complex)
        for (edges, mat) in self.blocks.values():
            idx = [g.eindex[e] for e in edges]
            U[np.ix_(idx, idx)] = mat
        return U


def _parallel_classes(g):
    """(src, dst) -> list of the edges from src to dst, in edge order."""
    classes = {}
    for e in g.edges:
        classes.setdefault((e.src, e.dst), []).append(e.name)
    return classes


def identity_unitary(g):
    return diagonal_unitary(g, {})


def diagonal_unitary(g, phases):
    """u(delta_e) = phases.get(e, 1) delta_e; every phase must be unimodular."""
    return BimoduleUnitary(g, {
        key: (tuple(edges), np.diag([complex(phases.get(e, 1.0)) for e in edges]))
        for key, edges in _parallel_classes(g).items()})


def unitary_from_dict(g, data):
    """JSON form: {"blocks": [{"src": .., "dst": .., "edges": [..],
    "matrix": [[[re, im], ..], ..]}, ..]}."""
    try:
        items = data["blocks"]
    except (KeyError, TypeError):
        raise GraphError("bimodule unitary dict must have a 'blocks' entry")
    blocks = {}
    for item in items:
        mat = _complex_from_json(item["matrix"], ndim=2)
        blocks[(item["src"], item["dst"])] = (tuple(item["edges"]), mat)
    return BimoduleUnitary(g, blocks)


def unitary_to_dict(u):
    out = []
    for (src, dst), (edges, mat) in sorted(u.blocks.items()):
        out.append({
            "src": src, "dst": dst, "edges": list(edges),
            "matrix": _complex_to_json(mat),
        })
    return {"blocks": out}


def apply_alpha_u(u, x):
    """alpha_u on a HardyPoly: with alpha(S_e) = sum_f U[f, e] S_f, a term
    c S_{e1} ... S_{ek} goes to c P_{r(e1)} alpha(S_{e1}) ... alpha(S_{ek})
    through hardy_mul, and a vertex term c P_v stays fixed."""
    g = u.graph
    if x.graph != g:
        raise GraphError("polynomial lives on a different graph")
    U = u.full_matrix()
    image = {e.name: HardyPoly(g, {(f.name,): U[j, i] for j, f in enumerate(g.edges)})
             for i, e in enumerate(g.edges)}
    out = HardyPoly.zero(g)
    for p, c in x.coeffs.items():
        term = HardyPoly(g, {path_range(g, p): c})
        for e in _path_edges(p):
            term = term * image[e]
        out = out + term
    return out


def pullback_evaluate(gamma, u, x, point):
    """Value of the automorphism image of x at a dual point, computed by
    moving the point instead of the polynomial.

    The Mobius layer moves the point's weights by g_gamma, and the gauge
    layer sends the moved weights w to U^H w; U mixes only parallel edges,
    so the result is again one weight per edge.  gamma may be None for the
    pure gauge action composed with the central inversion at 0.
    """
    g = x.graph
    if u.graph != g:
        raise GraphError("unitary and polynomial live on different graphs")
    if gamma is None:
        gamma = CentralPoint(g, {})
    # mobius_apply holds the image to the ball; U^H keeps each vertex's column norm
    moved = u.full_matrix().conj().T @ mobius_apply(gamma, point).weights
    return evaluate_poly(x, DualPoint(g, moved, allow_boundary=True))


# ---------------------------------------------------------------------------
# Mobius automorphisms

def _alpha_system(W, g, e):
    """The one-state system at v = r(e) with q1 = (s(e),) and q2 = (v,) whose
    transfer is the (v, e) entry of g_gamma(eta*) = W11 + W12 eta* (id -
    W22 eta*)^{-1} W21, W = mobius_colligation(gamma).  Its blocks, over the
    loops f at v: B_v = W12[v, v], D^(f) = W22[f, v], and for a loop e also
    A = W11[v, e] and C^(f) = W21[f, e]; any other e has C^(e) = W21[e, e],
    which is exactly 1.  V compresses the unitary W, so ||V|| <= 1."""
    v, ne = g.dst[e], g.ne
    i, j = g.vindex[v], g.eindex[e]
    rows = {f: g.nv + g.eindex[f] for f in g.loops() if g.dst[f] == v}
    A, C = None, {e: [[W[g.nv + j, j]]]}
    if e in rows:
        A, C = {v: W[i, j]}, {f: [[W[r, j]]] for f, r in rows.items()}
    return SystemMatrix(g, {v: 1}, (g.src[e],), (v,), A=A, B={v: [[W[i, ne + i]]]}, C=C,
                        D={f: [[W[r, ne + i]]] for f, r in rows.items()})


def mobius_alpha(gamma, N):
    """Generator images of the Mobius automorphism of the central point
    gamma through path length N: edge name -> taylor_poly of _alpha_system,
    in edge order; an edge into a vertex without loops goes to -S_e exactly.
    At a dual point the image of e is the (r(e), e) entry of mobius_matrix
    up to a tail geometric in ||gamma|| ||eta||.  N < 0 raises ValueError."""
    if N < 0:
        raise ValueError("truncation order N must be >= 0, got %d" % N)
    W, _ = mobius_colligation(gamma)
    return {e.name: taylor_poly(_alpha_system(W, gamma.graph, e.name), N)
            for e in gamma.graph.edges}


def kernel_ideal_check(samples, rng=None, n_multiples=10, tol=1e-13):
    """Evaluate the commutator [S_g, S_e S_f] and random two-sided
    multiples of it (by degree-2 polynomials) at the given dual points of
    the two-vertex example.

    The commutator generates the kernel of the evaluation at every
    central point, and in fact every evaluation here kills it, so all
    values must vanish to rounding error.
    """
    if not samples:
        raise ValueError("need at least one sample point")
    g = samples[0].graph
    if g != two_vertex_example():
        raise GraphError("this check is specific to the standard two-vertex graph "
                         "(e: v->w, f: w->v, g: w->w)")
    if rng is None:
        rng = np.random.default_rng(0)
    sg = HardyPoly.shift(g, "g")
    sef = HardyPoly.shift(g, "e") * HardyPoly.shift(g, "f")
    K = sg * sef - sef * sg
    gen_max = 0.0
    for pt in samples:
        gen_max = max(gen_max, float(np.abs(evaluate_poly(K, pt)).max(initial=0.0)))
    mult_max = 0.0
    for _ in range(n_multiples):
        a = random_poly(g, rng, degree=2, scale=0.5)
        b = random_poly(g, rng, degree=2, scale=0.5)
        y = a * K * b
        for pt in samples:
            mult_max = max(mult_max, float(np.abs(evaluate_poly(y, pt)).max(initial=0.0)))
    worst = max(gen_max, mult_max)
    return {
        "generator_max": gen_max,
        "multiples_max": mult_max,
        "max_abs": worst,
        "n_samples": len(samples),
        "n_multiples": n_multiples,
        "tol": tol,
        "passed": bool(worst < tol),
    }
