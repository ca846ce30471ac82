"""Points of the dual unit ball and evaluation of Hardy polynomials.

Reversing every edge of the graph gives the dual bimodule; a point of its
unit ball assigns a complex weight to every reversed edge, so concretely a
point is one weight per original edge.  Arranged as a matrix with a row
per edge and a column per vertex, the weight of e sits in row e, column
r(e); since the columns have disjoint support the operator norm is

    ||eta|| = max over v of sqrt( sum_{r(e) = v} |weight(e)|^2 ),

and the open unit ball is ||eta|| < 1.

Evaluation at such a point is the representation determined by

    P_v     |->  theta_{v,v}          (matrix unit on the vertices)
    S_e     |->  conj(weight(e)) theta_{r(e), s(e)},

extended multiplicatively: a path alpha = e1 ... ek goes to the product
of its edge weights conjugated, placed at (r(alpha), s(alpha)).  The
value of a polynomial is therefore a nv x nv matrix.

The rank-one maps of two points,

    theta_{eta1, eta2}(a)(v) = sum_{r(e) = v} conj(w1(e)) a(s(e)) w2(e),

act on vertex functions; id - theta is invertible on the open ball and
its inverse is the resolvent that drives the Pick and Schur kernels.
"""

from __future__ import annotations

import numpy as np

from .graph_core import (
    GraphError,
    _complex_from_json,
    _path_edges,
    _complex_to_json,
    _json_object,
    as_edge_function,
    path_range,
    path_source,
)


class BoundaryError(ValueError):
    """Dual point with norm at or beyond 1 where the open ball is required."""


class DualPoint:
    """A weight per edge, i.e. a point of the dual ball in matrix form."""

    def __init__(self, graph, weights, allow_boundary=False):
        self.graph = graph
        self.weights = as_edge_function(graph, weights)
        self.norm = dual_norm(graph, self.weights)
        # written so that a NaN norm fails too
        if allow_boundary:
            if not self.norm <= 1.0 + 1e-9:
                raise BoundaryError("dual point norm %.6g exceeds the closed ball" % self.norm)
        elif not self.norm < 1.0:
            raise BoundaryError(
                "dual point norm %.6g is not inside the open ball "
                "(pass allow_boundary=True for boundary evaluation)" % self.norm)

    def weight(self, e):
        return self.weights[self.graph.eindex[e]]

    def matrix(self):
        """ne x nv matrix with weight(e) at (e, r(e)); columns are disjoint."""
        rows, cols = _edge_support(self.graph)
        m = np.zeros((self.graph.ne, self.graph.nv), dtype=complex)
        m[cols, rows] = self.weights
        return m

    def __repr__(self):
        return "DualPoint(norm=%.4g, %s)" % (
            self.norm,
            ", ".join("%s=%.3g%+.3gj" % (e.name, w.real, w.imag)
                      for e, w in zip(self.graph.edges, self.weights)))


def _edge_support(g):
    """(rows, cols) of the entries (r(e), e) of an nv x ne matrix."""
    return np.array([g.vindex[e.dst] for e in g.edges], dtype=int), np.arange(g.ne)


def dual_norm(g, weights):
    weights = as_edge_function(g, weights)
    col = np.zeros(g.nv)
    for i, e in enumerate(g.edges):
        col[g.vindex[e.dst]] += abs(weights[i]) ** 2
    return float(np.sqrt(col.max(initial=0.0)))


def make_dual_point(g, weights, allow_boundary=False):
    """Build a DualPoint from an edge->weight dict or a length-ne array."""
    return DualPoint(g, weights, allow_boundary=allow_boundary)


def zero_point(g):
    return DualPoint(g, np.zeros(g.ne))


def random_point(g, rng, max_norm=0.9, min_norm=0.0):
    """Uniform-ish random point with norm in [min_norm, max_norm]."""
    w = rng.standard_normal(g.ne) + 1j * rng.standard_normal(g.ne)
    n = dual_norm(g, w)
    if n == 0.0:
        return zero_point(g)
    target = min_norm + (max_norm - min_norm) * rng.random()
    return DualPoint(g, w * (target / n), allow_boundary=True)


# ---------------------------------------------------------------------------
# rank-one maps and resolvents

def _weight_stack(g, points):
    """The (k, ne) array of the points' weights; GraphError unless all live on g."""
    if any(p.graph != g for p in points):
        raise GraphError("points live on different graphs")
    return np.array([p.weights for p in points]).reshape(len(points), g.ne)


def _theta_stack(g, w1, w2):
    """Stack of theta matrices of the weight rows, shape (len(w1), len(w2), nv, nv):
    entry [i, j, r(e), s(e)] accumulates conj(w1[i, e]) * w2[j, e] over the
    edges, in edge order."""
    incidence = np.zeros((g.ne, g.nv, g.nv))
    for i, e in enumerate(g.edges):
        incidence[i, g.vindex[e.dst], g.vindex[e.src]] = 1.0
    return np.einsum("ie,je,evs->ijvs", w1.conj(), w2, incidence)


def _resolvent_stack(g, w1, w2):
    """R[i, j] = matrix of (id - theta_{w1[i], w2[j]})^{-1}, all pairs in
    one batched inverse.  A pair at which id - theta is singular (only
    possible on the boundary) raises BoundaryError naming it."""
    a = np.eye(g.nv, dtype=complex) - _theta_stack(g, w1, w2)
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # inv fails on an exactly zero LU pivot, which makes det exactly 0
        i, j = np.argwhere(np.linalg.det(a) == 0)[0]
        raise BoundaryError("id - theta is singular at the point pair (%d, %d)" % (i, j)) from None


def theta_matrix(p1, p2):
    """Matrix of theta_{p1, p2} acting on vertex functions.

    Entry (r(e), s(e)) accumulates conj(w1(e)) * w2(e).
    """
    return _theta_stack(p1.graph, *_weight_stack(p1.graph, [p1, p2])[:, None])[0, 0]


def resolvent_matrix(p1, p2):
    """Matrix of (id - theta_{p1, p2})^{-1}; defined whenever
    ||p1|| * ||p2|| < 1, which makes the Neumann series converge.  On the
    boundary id - theta can be singular, which raises BoundaryError."""
    return _resolvent_stack(p1.graph, *_weight_stack(p1.graph, [p1, p2])[:, None])[0, 0]

# ---------------------------------------------------------------------------
# evaluation

def evaluate_poly(x, point):
    """Value of the HardyPoly x at the dual point, as an nv x nv matrix.

    A term contributes the product of its conjugated edge weights at
    (r(path), s(path)); for a vertex that is the empty product at (v, v).
    """
    g = x.graph
    if g != point.graph:
        raise GraphError("polynomial and point live on different graphs")
    out = np.zeros((g.nv, g.nv), dtype=complex)
    cw = np.conj(point.weights)
    for p, c in x.coeffs.items():
        amp = c
        for e in _path_edges(p):
            amp *= cw[g.eindex[e]]
        out[g.vindex[path_range(g, p)], g.vindex[path_source(g, p)]] += amp
    return out


# ---------------------------------------------------------------------------
# JSON form

def point_to_dict(p):
    return {"weights": {e.name: _complex_to_json(w) for e, w in zip(p.graph.edges, p.weights)}}


def point_from_dict(g, data, allow_boundary=False):
    raw = _json_object(data, "weights", "dual point")
    weights = {name: _complex_from_json(val) for name, val in raw.items()}
    return make_dual_point(g, weights, allow_boundary=allow_boundary)
