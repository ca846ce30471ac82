"""Pick and Schur kernels on the dual ball and their complete positivity.

Interpolation data at points eta_1 .. eta_k of the open dual ball is
encoded in a k x k matrix of maps on the vertex algebra M = C(V).  With
R_ij = (id - theta_{eta_i, eta_j})^{-1}, the two kernels used here are

    pick:   a  |->  B_i R_ij(a) B_j^* - C_i R_ij(a) C_j^*
    schur:  a  |->  R_ij(a) - Z_i R_ij(a) Z_j^*

where the targets B_i, C_i, Z_i are nv x nv matrices and R_ij(a) is
embedded as a diagonal matrix.  A list of k targets takes one form per
call: k scalars (times I), k vertex functions (as diagonals) or k nv x nv
matrices; a list that mixes forms raises ValueError.  The
matrix of maps is completely positive iff a contractive X solves the
left-tangential problem B_i X(eta_i*) = C_i (pick), resp. iff the Z_i
are values of a Schur-class element at the eta_i.  B_i multiplies from
the left: with non-commuting B_i, data C_i = X(eta_i*) B_i of a
contraction X are in general rejected.

Complete positivity of such a matrix of maps on C(V) reduces to finitely
many finite matrices: for each vertex u, form the Choi block

    Ch_u[(i, p), (j, q)] = m_ij(delta_u)[p, q],

a (k nv) x (k nv) matrix.  The matrix of maps is CP iff every Ch_u is
positive semidefinite.  (Feeding the map matrix a PSD block (a_ij) with
a_ij = c_ij delta_u and compressing shows necessity; sufficiency is the
usual Choi argument applied per vertex, since C(V) splits as a direct
sum over the vertices.)

Many Choi blocks are block diagonal up to a permutation: the Mobius
congruence kernel is diagonal in the vertex index, and on a graph that
is not strongly connected whole groups of rows vanish.  The CP test
drops the rows and columns of a block that are exactly zero (each one
an eigenvalue 0) and groups the other rows (i, p) by the connected
component of p in the symmetrised vertex pattern of the block's
nonzero entries.  Entries between groups are exactly zero in both
orientations, so the spectrum is the union of the groups' spectra, and
one stacked eigvalsh per group size replaces the eigvalsh of the whole
block.  A block that does not split is handed over whole, as before.

A CpMapMatrix is stored as exactly these blocks, one per vertex.  All
kernels come from one builder: one batched inverse gives every R_ij, and
for each vertex u one stacked matmul (k GEMMs) writes every
(L_i diag(R_ij delta_u)) L_j^* straight into Ch_u.  An entry can differ
from the per-pair products by a few eps * max|R| (1 + sum of max|L|^2
over the target stacks), as the GEMM sums in its own order.
"""

from __future__ import annotations

import numpy as np

from .dual_eval import _resolvent_stack, _weight_stack


class StructuralError(RuntimeError):
    """A kernel that should be Hermitian by construction is not; this
    signals a bug upstream, not infeasible data."""


class CpMapMatrix:
    """A k x k matrix of linear maps C(V) -> nv x nv matrices, stored as
    its per-vertex Choi blocks.

    choi[u] is the (k nv) x (k nv) Choi block of the vertex u, rows and
    columns indexed by (point, vertex) pairs with the point index
    outermost: choi[u][(i, p), (j, q)] = m_ij(delta_u)[p, q].
    """

    def __init__(self, graph, choi):
        choi = np.asarray(choi, dtype=complex)
        nv = graph.nv
        if choi.ndim != 3 or choi.shape[0] != nv or choi.shape[1] != choi.shape[2] \
                or choi.shape[1] % nv:
            raise ValueError("choi must have shape (nv, k*nv, k*nv)")
        self.graph = graph
        self.choi = choi
        self.k = choi.shape[1] // nv

    def choi_block(self, u):
        """The (k nv) x (k nv) Choi matrix of the vertex u."""
        return self.choi[u]


def _targets(g, targets):
    """The (k, nv, nv) stack of k targets given in one form: k scalars
    (times I), k vertex functions (as diagonals) or k nv x nv matrices."""
    t = np.asarray(targets, dtype=complex)
    if t.ndim == 1:
        return t[:, None, None] * np.eye(g.nv, dtype=complex)
    if t.shape[1:] == (g.nv,):
        out = np.zeros(t.shape + (g.nv,), dtype=complex)
        out[:, np.arange(g.nv), np.arange(g.nv)] = t
        return out
    if t.shape[1:] == (g.nv, g.nv):
        return t
    raise ValueError("targets must be k scalars, k length-nv vectors or k nv x nv matrices")


def _kernel(g, R, plus=None, minus=None):
    """CpMapMatrix of the maps a |-> P_i D_ij(a) P_j^* - M_i D_ij(a) M_j^*,
    where D_ij(a) = diag(R_ij a) for the (k, k, nv, nv) stack R, and P =
    plus, M = minus are (k, nv, nv) target stacks.  plus=None stands for
    the identity, minus=None drops the second term.

    For each vertex u, X[j, (i, p), r] = L_i[p, r] R_ij[r, u] is formed
    elementwise, and one stacked product X @ L^* (k GEMMs of shape
    (k nv x nv) (nv x nv)) is written, transposed, straight into the view
    Ch_u[i, p, j, q].  Only one vertex's X is alive at a time.
    """
    k, nv = R.shape[0], g.nv
    choi = np.zeros((nv, k * nv, k * nv), dtype=complex)
    idx = np.arange(nv)

    def term(L, u):
        X = np.multiply(L[None], R[:, :, None, :, u].transpose(1, 0, 2, 3), order="C")
        Y = X.reshape(k, k * nv, nv) @ L.conj().transpose(0, 2, 1)
        return Y.reshape(k, k, nv, nv).transpose(1, 2, 0, 3)

    for u in range(nv):
        view = choi[u].reshape(k, nv, k, nv)
        if plus is None:
            view[:, idx, :, idx] = R[:, :, :, u].transpose(2, 0, 1)
        else:
            view[...] = term(plus, u)
        if minus is not None:
            view -= term(minus, u)
    return CpMapMatrix(g, choi)


def pick_map_matrix(points, B, C):
    """Kernel of the left-tangential interpolation problem B_i X(eta_i*) = C_i.

    Entry (i, j) is the map a |-> B_i R_ij(a) B_j^* - C_i R_ij(a) C_j^*.
    B and C each take one target form: k scalars, k vertex functions or k
    nv x nv matrices.
    """
    k = len(points)
    if not k:
        raise ValueError("need at least one point")
    if len(B) != k or len(C) != k:
        raise ValueError("need one B and one C target per point")
    g = points[0].graph
    plus, minus, w = _targets(g, B), _targets(g, C), _weight_stack(g, points)
    return _kernel(g, _resolvent_stack(g, w, w), plus, minus)


def schur_kernel_matrix(points, values):
    """Kernel whose complete positivity characterizes the Schur class.

    values[i] is the value Z_i attached to eta_i; entry (i, j) is the map
    a |-> R_ij(a) - Z_i R_ij(a) Z_j^*.  The values take one target form:
    k scalars, k vertex functions or k nv x nv matrices.
    """
    k = len(points)
    if not k:
        raise ValueError("need at least one point")
    if len(values) != k:
        raise ValueError("need one value matrix per point")
    g = points[0].graph
    minus, w = _targets(g, values), _weight_stack(g, points)
    return _kernel(g, _resolvent_stack(g, w, w), minus=minus)


def _vertex_groups(P):
    """Connected components of the symmetric nv x nv boolean pattern P,
    as sorted lists of vertex indices."""
    adj = P.tolist()
    seen, groups = set(), []
    for s in range(len(adj)):
        if s not in seen:
            seen.add(s)
            group = [s]
            for p in group:  # grows while it is walked
                for q, linked in enumerate(adj[p]):
                    if linked and q not in seen:
                        seen.add(q)
                        group.append(q)
            groups.append(sorted(group))
    return groups


def _exact_split(ch, nv):
    """The diagonal blocks of the exact block-diagonal form of the Choi
    block ch, as (m, s, s) stacks of the m groups of size s, and whether
    a row was dropped.

    Rows and columns that are exactly zero are dropped.  The others,
    (i, p) in ch's point-major order, are grouped by the component of p
    in the vertex pattern of the nonzero entries, symmetrised, so an
    entry between two groups is zero in both orientations.  Rows keep
    their order within a group.  A block that does not split comes back
    whole, as a view."""
    if not ch.size:
        return [], False
    if nv == 1 and ch.diagonal().all():
        return [ch[None]], False  # one vertex and no zero row: nothing to split
    n = len(ch)
    k = n // nv
    nz = ch != 0
    keep = nz.any(axis=0) | nz.any(axis=1)
    groups = [[0]]
    if nv > 1:
        # P[p, q]: some entry at ((i, p), (j, q)) is nonzero
        P = nz.reshape(k, nv * n).any(axis=0).reshape(nv, k, nv).any(axis=1)
        groups = _vertex_groups(P | P.T)
    dropped = not keep.all()
    if len(groups) == 1 and not dropped:
        return [ch[None]], False
    keep = keep.reshape(k, nv)
    by_size = {}
    for group in groups:
        rows = (np.arange(k)[:, None] * nv + group)[keep[:, group]]
        if rows.size:
            by_size.setdefault(rows.size, []).append(rows)
    return [ch[r[:, :, None], r[:, None, :]] for r in map(np.array, by_size.values())], dropped


def is_completely_positive(m, tol=1e-9):
    """CP test by per-vertex Choi blocks, each split along its exact zeros.

    Each block must be finite (else ValueError) and Hermitian up to
    1e-12 * (1 + its largest entry) (else StructuralError), and its
    minimum eigenvalue must be >= -tol * (1 + spectral norm of the block).
    The block's eigenvalues are those of the diagonal blocks of its exact
    block-diagonal form (see _exact_split), plus one 0 for each dropped
    zero row; the largest entry and the Hermitian deviation are the same
    as over the whole block, and the eigenvalues move at rounding level
    against one eigvalsh of the whole block.  Returns a report with one
    entry per vertex and the overall verdict.
    """
    blocks = []
    cp = True
    worst = np.inf
    for u, v in enumerate(m.graph.vertices):
        stacks, dropped = _exact_split(m.choi_block(u), m.graph.nv)
        scale = herm_dev = 0.0
        # eigvalsh sorts ascending; each dropped row is an eigenvalue 0
        lo, hi = (0.0, 0.0) if dropped or not stacks else (np.inf, -np.inf)
        for x in stacks:
            h = x.conj().swapaxes(1, 2)
            top = float(np.abs(x).max())
            if not np.isfinite(top):  # eigvalsh would not converge
                raise ValueError("Choi block of vertex %r has a non-finite entry" % (v,))
            scale = max(scale, top)
            herm_dev = max(herm_dev, float(np.abs(x - h).max()))
            eigs = np.linalg.eigvalsh(0.5 * (x + h))
            lo = min(lo, *eigs[:, 0].tolist())
            hi = max(hi, *eigs[:, -1].tolist())
        if herm_dev > 1e-12 * (1.0 + scale):
            raise StructuralError(
                "Choi block of vertex %r deviates from Hermitian by %.3e" % (v, herm_dev))
        min_eig, spec = lo, max(abs(lo), abs(hi))
        ok = min_eig >= -tol * (1.0 + spec)
        cp = cp and ok
        worst = min(worst, min_eig)
        blocks.append({"vertex": v, "min_eig": min_eig, "scale": spec, "psd": bool(ok)})
    return {
        "cp": bool(cp),
        "tol": tol,
        "blocks": blocks,
        "worst_min_eig": float(worst) if blocks else 0.0,
    }


def pick_feasibility(points, B, C, tol=1e-9):
    """Full feasibility check for B_i X(eta_i*) = C_i with ||X|| <= 1."""
    report = is_completely_positive(pick_map_matrix(points, B, C), tol=tol)
    report["feasible"] = report["cp"]
    return report


def schur_class_check(points, values, tol=1e-9):
    """CP check of the Schur kernel for sampled values of a contraction."""
    return is_completely_positive(schur_kernel_matrix(points, values), tol=tol)
