"""Fock space of a graph and the noncommutative Hardy polynomials.

The Fock space of the edge bimodule has an orthonormal basis indexed by
all finite paths (vertices count as paths of length zero).  Each edge e
gives a creation operator

    S_e xi_beta = xi_{e beta}   if s(e) = r(beta), else 0,

and each vertex v gives the projection P_v onto the paths with range v.
These satisfy the Cuntz-Toeplitz relations: the P_v are orthogonal
projections summing to the identity, S_e* S_f = 0 for e != f,
S_e* S_e = P_{s(e)}, and for each vertex the row sum
sum_{r(e) = v} S_e S_e* is dominated by P_v.

A HardyPoly is a finitely supported coefficient map on paths; it acts on
the Fock space by concatenation.  Products go through hardy_mul (as does
the gauge automorphism alpha_u, a product of edge images); all norms and
relations go through creation_matrix's index gathers.  Truncating the
basis at path length N compresses the operators to a finite block; the
compression kills the top degree, so relation checks are asserted on
paths of length <= N - 1.

The path basis (Muhly and Solel, Math. Ann. 2004) is handled as integers:
each call builds a graph_core._PathIndex, whose child tables give the
position of e beta for every edge e and path beta, and creation_matrix
gathers through them.  Edge-name tuples are built only for fock_basis
and path_basis.  A negative truncation order N raises ValueError.
cuntz_toeplitz_check never densifies a block; fock_norm_bound does so
only up to a small dimension or when its Lanczos iteration on the Gram
operator has not converged within a fixed number of steps, and Lanczos
starts from a fixed-seed vector, so a bound is the same on every call.

This is the only module that uses scipy, and it imports it on first use:
scipy.sparse in creation_matrix (so also in cuntz_toeplitz_check and the
norm bounds) and scipy.linalg in the Lanczos step.  Of the CLI
subcommands only fock-check reaches them; the others never load scipy.
"""

from __future__ import annotations

import numpy as np

from .graph_core import (
    GraphError,
    _PathIndex,
    _complex_from_json,
    _path_edges,
    compose,
    is_path,
    path_source,
)


class HardyPoly:
    """Finitely supported path -> coefficient map, multiplied by concatenation.

    Paths are written as in graph_core.  Zero coefficients are dropped on
    construction.
    """

    def __init__(self, graph, coeffs=None):
        coeffs = coeffs or {}
        for path in coeffs:
            if not is_path(graph, path):
                raise GraphError("not a path of this graph: %r" % (path,))
        self._fill(graph, coeffs)

    @classmethod
    def _of_paths(cls, graph, coeffs):
        """Like the constructor, for keys already known to be paths of graph."""
        x = cls.__new__(cls)
        x._fill(graph, coeffs)
        return x

    def _fill(self, graph, coeffs):
        clean = {}
        for path, c in coeffs.items():
            c = complex(c)
            if c != 0:
                clean[path] = clean.get(path, 0j) + c
        self.graph = graph
        self.coeffs = clean

    # constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, graph):
        return cls(graph, {})

    @classmethod
    def one(cls, graph):
        return cls(graph, {v: 1.0 for v in graph.vertices})

    @classmethod
    def vertex(cls, graph, v):
        """The projection P_v as a polynomial."""
        if v not in graph.vindex:
            raise GraphError("unknown vertex %r" % (v,))
        return cls(graph, {v: 1.0})

    @classmethod
    def shift(cls, graph, *edges):
        """S_alpha for the path alpha = edges (leftmost edge acts last)."""
        return cls(graph, {edges: 1.0})

    # algebra --------------------------------------------------------------
    def __add__(self, other):
        if other.graph != self.graph:
            raise GraphError("polynomials live on different graphs")
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0j) + c
        return HardyPoly._of_paths(self.graph, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HardyPoly._of_paths(self.graph, {p: -c for p, c in self.coeffs.items()})

    def __mul__(self, other):
        if np.isscalar(other):
            return HardyPoly._of_paths(self.graph, {p: c * other for p, c in self.coeffs.items()})
        return hardy_mul(self, other)

    __rmul__ = __mul__

    def coeff(self, path):
        return self.coeffs.get(path, 0j)

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda kv: (len(_path_edges(kv[0])), str(kv[0])))
        return "HardyPoly(%s)" % ", ".join("%r: %.4g%+.4gj" % (p, c.real, c.imag) for p, c in terms)


def hardy_mul(x, y):
    """Product by path concatenation; non-composable pairs contribute zero."""
    if x.graph != y.graph:
        raise GraphError("polynomials live on different graphs")
    out = {}
    for p, cp in x.coeffs.items():
        for q, cq in y.coeffs.items():
            pq = compose(x.graph, p, q)
            if pq is not None:
                out[pq] = out.get(pq, 0j) + cp * cq
    return HardyPoly._of_paths(x.graph, out)


# ---------------------------------------------------------------------------
# truncated Fock space

# fock_norm_bound takes a dense SVD up to this Fock dimension, Lanczos above.
# Per bound, best of 9 (numpy 2.4, scipy 1.17, OpenBLAS, 2 CPUs), dense vs
# Lanczos: two-vertex graph 3.3 vs 3.7 ms at dim 86, 7.2 vs 3.9 at 141, 16
# vs 5.3 at 230, 42 vs 5.8 at 374, 130 vs 11 at 607; complete 4-edge graph
# 1.8 vs 2.7 ms at dim 62, 6.0 vs 2.5 at 126, 89 vs 7.3 at 510; one-loop
# graph (dim N + 1, slow convergence on its Toeplitz compression) 5.8 vs 8.1
# ms at dim 101, 13 vs 13 at 151, 22 vs 23 at 201, 65 vs 41 at 401.  The
# first two cross below dim 141, the one-loop graph only above 201.
_DENSE_SVD_MAX_DIM = 150
# the Lanczos start vector is a Gaussian draw of this seed, so a bound has
# the same bits on every call
_LANCZOS_START_SEED = 0
_LANCZOS_TOL = 1e-14
# the two-vertex bounds of 180 random degree-2 polynomials stop within 160
# steps at N = 9 (dim 374) and 310 at N = 14 (dim 4178); one-loop bounds
# take about 0.6 dim steps (about 250 at dim 401, 900-1,300 at dim 1601)
_LANCZOS_MAX_STEPS = 1000
# the 36 two-vertex bounds at N = 9..14 take 0.43 s reading the Ritz pair
# every 5 steps, 0.94 s every step and 0.53 s every 10
_RITZ_EVERY = 5


def fock_basis(g, N):
    """All paths of length 0..N: vertices first, then by length, each level
    in the lexicographic edge-index order of path_basis."""
    index = _PathIndex(g, N)
    return [p for k, r in enumerate(index.range) for p in index.paths(k, np.arange(len(r)))]


def creation_matrix(x, N):
    """Matrix of left multiplication by the HardyPoly x on paths of length <= N.

    Returns a scipy CSR matrix over fock_basis(x.graph, N).  Products that
    would leave the truncation are dropped, which is the compression of the
    true operator to the finite block.  A term alpha = e1 ... em maps the
    level-j paths with range s(alpha) through the child tables of
    em, ..., e1 to level j + m.
    """
    # scipy is imported on first use, here and in _gram_top_eigenvalue:
    # scipy.sparse and scipy.linalg took 0.16 s of the 0.24 s a cold
    # `import graph_hardy` needed with them (Python 3.11, scipy 1.17, 2 CPUs).
    import scipy.sparse as sp

    g = x.graph
    index = _PathIndex(g, N)
    rows, cols, vals = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0, complex)]
    for p, c in x.coeffs.items():
        edges = [g.eindex[e] for e in reversed(_path_edges(p))]
        s = g.vindex[path_source(g, p)]
        for j in range(N + 1 - len(edges)):
            beta = np.flatnonzero(index.range[j] == s)
            gamma = beta
            for k, e in enumerate(edges, start=j + 1):
                gamma = index.child[k][e, gamma]
            rows.append(index.offset[j + len(edges)] + gamma)
            cols.append(index.offset[j] + beta)
            vals.append(np.full(len(beta), c, dtype=complex))
    dim = int(index.offset[-1])
    coo = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(dim, dim), dtype=complex)
    return sp.csr_matrix(coo)


def _max_abs(m):
    return float(np.abs(m.data).max(initial=0.0))


def cuntz_toeplitz_check(g, N, tol=1e-12):
    """Verify the compressed Cuntz-Toeplitz relations at truncation N >= 2.

    The compression is exact on paths of length at most N - 1, so every
    relation is restricted to that sub-block before measuring deviations.
    Returns a report dict; 'passed' is True when the worst deviation is
    below tol.

    The row gap P_v - sum_{r(e) = v} S_e S_e* must be positive
    semidefinite; its smallest eigenvalue is bounded below by Gershgorin
    discs, so a violation is never under-reported, and the bound is exact
    on a diagonal gap, which the partial permutations S_e give.
    """
    if N < 2:
        raise ValueError("need N >= 2 so the restricted block sees length-1 paths")
    index = _PathIndex(g, N)
    keep = int(index.offset[N])

    S = {e.name: creation_matrix(HardyPoly.shift(g, e.name), N) for e in g.edges}
    P = {v: creation_matrix(HardyPoly.vertex(g, v), N) for v in g.vertices}

    def restrict(m):
        return m[:keep, :keep]

    d_proj = 0.0
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1:]:
            d_proj = max(d_proj, _max_abs(restrict(P[u] @ P[v])))

    d_orth = 0.0
    d_isom = 0.0
    for e in g.edges:
        for f in g.edges:
            prod = S[e.name].getH() @ S[f.name]
            if e.name == f.name:
                d_isom = max(d_isom, _max_abs(restrict(prod - P[e.src])))
            else:
                d_orth = max(d_orth, _max_abs(restrict(prod)))

    d_row = 0.0
    for v in g.vertices:
        gap = P[v]
        for e in g.edges:
            if e.dst == v:
                gap = gap - S[e.name] @ S[e.name].getH()
        sub = restrict(gap)
        herm = 0.5 * (sub + sub.getH())
        diag = herm.diagonal().real
        radius = np.asarray(abs(herm).sum(axis=1)).ravel() - np.abs(diag)
        low = float((diag - radius).min())
        d_row = max(d_row, _max_abs(sub - sub.getH()), max(0.0, -low))

    worst = max(d_proj, d_orth, d_isom, d_row)
    return {
        "N": N,
        "tol": tol,
        "dim": int(index.offset[-1]),
        "restricted_dim": keep,
        "deviations": {
            "orthogonal_projections": float(d_proj),
            "orthogonal_shifts": float(d_orth),
            "shift_isometries": float(d_isom),
            "row_contraction": float(d_row),
        },
        "max_deviation": float(worst),
        "passed": bool(worst < tol),
    }


def fock_norm_bound(x, N):
    """Operator norm of the compression of x to paths of length <= N.

    This is a lower bound for the Hardy-algebra norm of x, and it is
    monotone nondecreasing in N because the compressions are nested.
    Above dimension _DENSE_SVD_MAX_DIM the bound is sqrt(theta) for the
    top eigenvalue theta of the Gram operator M^H M, M the compression,
    found by Hermitian Lanczos from a Gaussian vector of fixed seed, so
    repeated calls return the same bits.
    """
    m = creation_matrix(x, N)
    if m.nnz == 0:
        return 0.0
    if m.shape[0] > _DENSE_SVD_MAX_DIM:
        theta = _gram_top_eigenvalue(m)
        if theta is not None:
            return float(np.sqrt(theta))
    return float(np.linalg.svd(m.toarray(), compute_uv=False)[0])


def _gram_top_eigenvalue(m):
    """Largest eigenvalue of m^H m by three-term Lanczos, or None if the
    Ritz residual has not dropped below _LANCZOS_TOL within
    _LANCZOS_MAX_STEPS steps.

    There is no reorthogonalisation and no restart, so each step costs one
    product with m and one with its adjoint.  Every _RITZ_EVERY steps, and
    whenever beta_j is below _LANCZOS_TOL times the largest alpha (a lower
    bound for theta, so an invariant subspace stops the iteration before a
    division by beta_j = 0), the top Ritz pair (theta, s) of the
    tridiagonal is read; the iteration stops once beta_j |s_j| <=
    _LANCZOS_TOL * theta.
    """
    import scipy.linalg

    mh = m.getH().tocsr()
    v = np.random.default_rng(_LANCZOS_START_SEED).standard_normal(m.shape[0])
    v = v / np.linalg.norm(v)
    v_prev = b_prev = 0.0
    alpha, beta = [], []
    for j in range(_LANCZOS_MAX_STEPS):
        w = mh @ (m @ v)
        alpha.append(float(np.vdot(v, w).real))
        w = w - alpha[j] * v - b_prev * v_prev
        beta.append(float(np.linalg.norm(w)))
        if (j + 1) % _RITZ_EVERY == 0 or beta[j] <= _LANCZOS_TOL * max(alpha):
            theta, s = scipy.linalg.eigh_tridiagonal(
                alpha, beta[:-1], select="i", select_range=(j, j))
            if beta[j] * abs(s[-1, 0]) <= _LANCZOS_TOL * theta[0]:
                return float(theta[0])
        v_prev, v, b_prev = v, w / beta[j], beta[j]
    return None


def certify_contraction(x, N, slack=1e-6):
    """Rescale x by 1 / (fock_norm_bound(x, N) * (1 + slack)).

    The bound is only a lower bound for the true norm, so nothing here
    certifies that the result is a contraction: it is one only if the
    compression norm at N is within the slack of the true norm.  That can
    fail at desk-scale N; for random degree-2 polynomials on the two-vertex
    graph the compression norm still grows by 0.9-2.7 % from N = 9 to
    N = 17, so rescaling at N = 9 leaves norms of at least 1.009.  Returns
    (rescaled_poly, bound).
    """
    bound = fock_norm_bound(x, N)
    if bound == 0.0:
        return x, 0.0
    return x * (1.0 / (bound * (1.0 + slack))), bound


def random_poly(g, rng, degree=2, scale=1.0):
    """Random polynomial with independent complex Gaussian coefficients on
    every path of length <= degree."""
    return HardyPoly(g, {p: (rng.standard_normal() + 1j * rng.standard_normal()) * scale
                         for p in fock_basis(g, degree)})


# ---------------------------------------------------------------------------
# JSON form

def poly_to_terms(x):
    terms = []
    for p, c in x.coeffs.items():
        if isinstance(p, str):
            key = {"vertex": p}
        else:
            key = list(p)
        terms.append({"path": key, "re": float(c.real), "im": float(c.imag)})
    terms.sort(key=lambda t: (isinstance(t["path"], list), str(t["path"])))
    return terms


def poly_from_terms(g, terms):
    coeffs = {}
    for t in terms:
        key = t["path"]
        if isinstance(key, dict):
            path = key["vertex"]
        else:
            path = tuple(key)
        c = _complex_from_json([t.get("re", 0.0), t.get("im", 0.0)])
        coeffs[path] = coeffs.get(path, 0j) + c
    return HardyPoly(g, coeffs)
