"""Mobius transformations of the dual ball attached to central points.

A point gamma supported on the loops of the graph is central: its left
and right module actions agree, and that is exactly what makes

    g_gamma(z*) = D_gamma (id - z* gamma)^{-1} (gamma* - z*) D_gamma*^{-1}

with defect operators D_gamma = (id - gamma* gamma)^{1/2} (on vertex
space) and D_gamma* = (id - gamma gamma*)^{1/2} (on edge space) a
biholomorphic involution of the ball: g_gamma(0) = gamma*,
g_gamma(gamma*) = 0, and g_gamma composed with itself is the identity.

The map also has a unitary colligation.  Writing G for the matrix of
gamma (edge rows, vertex columns) and identifying the edge space with
its reversed-edge twin coordinatewise,

    V = [[ D_gamma G^H D_gamma*^{-1},  -D_gamma ],
         [ D_gamma*,                    G        ]]

is unitary for every central gamma in the open ball; at gamma = 0 it
degenerates to [[0, -id], [id, 0]], matching g_0 = -id.

Because gamma is central, eta* gamma is a vertex function for every dual
point eta, so id - eta* gamma is inverted by a division at each vertex,
and D_gamma*^{-1} mixes only loops at one vertex.  The image of eta is
therefore again one weight per edge, computed in closed form; images
exist only as weights, and mobius_matrix scatters their conjugates onto
the entries (r(e), e) of the nv x ne matrix.

A CentralPoint is a DualPoint.  Defect operators that are numerically
singular (gamma next to the boundary) raise ConditioningError.
"""

from __future__ import annotations

import numpy as np

from .graph_core import (ConditioningError, GraphError, _complex_from_json, _complex_to_json,
                         _json_object)
from .dual_eval import (BoundaryError, DualPoint, _edge_support, _resolvent_stack, _theta_stack,
                        _weight_stack)
from .pick_kernel import _kernel


class CentralPoint(DualPoint):
    """A point of the open dual ball supported on the loop edges only."""

    def __init__(self, graph, loops):
        loops = loops or {}
        loop_set = set(graph.loops())
        for name in loops:
            if name not in loop_set:
                raise GraphError("%r is not a loop edge; central points live on loops" % (name,))
        try:
            super().__init__(graph, loops)
        except BoundaryError:  # raised after self.norm is set, NaN included
            raise GraphError("central point norm %.6g must be < 1" % self.norm) from None

    def loop_weights(self):
        return {e: self.weights[self.graph.eindex[e]]
                for e in self.graph.loops() if self.weights[self.graph.eindex[e]] != 0}

    def __repr__(self):
        return "CentralPoint(%s)" % ", ".join(
            "%s=%.3g%+.3gj" % (e, w.real, w.imag) for e, w in self.loop_weights().items())


def make_central_point(g, loops):
    return CentralPoint(g, loops)


def central_from_dict(g, data):
    raw = _json_object(data, "loops", "central point")
    return CentralPoint(g, {name: _complex_from_json(val) for name, val in raw.items()})


def central_to_dict(c):
    return {"loops": {e: _complex_to_json(w) for e, w in c.loop_weights().items()}}


# ---------------------------------------------------------------------------
# defect operators

def _defects(gamma):
    """(G, D_gamma, D_gamma*, D_gamma*^{-1}), G the ne x nv matrix of gamma,
    in closed form.  Column v of G is the vector gamma_v of the loop
    weights at v, so D_gamma = diag(d_v) with d_v = sqrt(1 - |gamma_v|^2),
    and on the loops at v, D_gamma* = I - gamma_v gamma_v^* / (1 + d_v)
    with inverse I + gamma_v gamma_v^* / (d_v (1 + d_v)); both are the
    identity off the loops, exactly."""
    G = gamma.matrix()
    lam = 1.0 - (np.abs(G) ** 2).sum(axis=0)
    if lam.min(initial=1.0) < 1e-14:
        raise ConditioningError("defect operator is numerically singular (smallest "
                                "eigenvalue %.3e); the point is too close to the boundary"
                                % lam.min())
    d = np.sqrt(lam)
    gg = G @ G.conj().T
    gg = 0.5 * (gg + gg.conj().T)  # exactly Hermitian, so its diagonal is real
    at = d[_edge_support(gamma.graph)[0], None]  # d_v at the range vertex of each edge
    ident = np.eye(len(G))
    return G, np.diag(d), ident - gg / (1.0 + at), ident + gg / (at * (1.0 + at))


def _mobius_weights(gamma, w):
    """The weights of the images g_gamma(eta_i*) of the (k, ne) weight rows w.
    With cw the conjugated weights of a point, cw @ G is the vertex function
    eta* gamma, and weight(e) is the conjugate of the image's entry at (r(e), e),

        d[r(e)] ((G^H - eta*) D_gamma*^{-1})[r(e), e] / (1 - eta* gamma)[r(e)].

    The products run as stacked (1, ne) rows, so each point gets the bits
    of a one-point call."""
    g = gamma.graph
    G, d_vertex, _, inv_d_edge = _defects(gamma)
    r, e = _edge_support(g)
    cw = np.conj(w).reshape(len(w), 1, g.ne)
    image = np.diag(d_vertex)[r] * ((G.conj().T[r, e] - cw) @ inv_d_edge) / (1.0 - cw @ G)[..., r]
    return np.conj(image).reshape(len(w), g.ne)


def mobius_matrix(gamma, point):
    """The full nv x ne matrix of g_gamma(eta*): the conjugated image weights
    scattered onto the entries (r(e), e), zero elsewhere."""
    g = gamma.graph
    M = np.zeros((g.nv, g.ne), dtype=complex)
    M[_edge_support(g)] = np.conj(_mobius_weights(gamma, _weight_stack(g, [point]))[0])
    return M


def mobius_apply(gamma, point):
    """g_gamma as a map of dual points; the image is on the closed ball when
    the point is at the boundary."""
    w = _mobius_weights(gamma, _weight_stack(gamma.graph, [point]))[0]
    return DualPoint(point.graph, w, allow_boundary=point.norm >= 1.0 - 1e-12)


def mobius_colligation(gamma):
    """Unitary colligation of g_gamma.  Returns (V, report) where V is the
    (nv + ne) x (ne + nv) assembled matrix and the report carries the
    unitarity residuals."""
    G, d_vertex, d_edge, inv_d_edge = _defects(gamma)
    V = np.block([[d_vertex @ G.conj().T @ inv_d_edge, -d_vertex], [d_edge, G]])
    ident = np.eye(V.shape[0])
    report = {
        "coisometry_residual": float(np.linalg.norm(V @ V.conj().T - ident, 2)),
        "isometry_residual": float(np.linalg.norm(V.conj().T @ V - ident, 2)),
        "shape": list(V.shape),
    }
    return V, report


def mobius_congruence_matrix(gamma, points):
    """Matrix of maps witnessing that g_gamma preserves the Schur class:
    entry (i, j) is a |-> (id - theta_{z'_i, z'_j}) (id - theta_{z_i, z_j})^{-1}(a)
    with z'_i = g_gamma applied to z_i.  Completely positive for central
    gamma."""
    if not points:
        raise ValueError("need at least one point")
    g = gamma.graph
    w = _weight_stack(g, points)
    moved = _mobius_weights(gamma, w)
    return _kernel(g, (np.eye(g.nv) - _theta_stack(g, moved, moved)) @ _resolvent_stack(g, w, w))
