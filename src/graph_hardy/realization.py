"""Colligations over a graph and transfer-function realization.

A system matrix over a graph is a vertex-graded block operator

    V = [[A, B], [C, D]] : E1 (+) H  ->  E2 (+) (dual edges tensor H)

where E1, E2 are spanned by chosen vertex subsets q1, q2, and the state
space H is a direct sum of fibers H_v of multiplicity m_v.  The dual-edge
tensor assigns to each edge e a fiber isomorphic to H_{r(e)}, graded by
the vertex s(e).  A SystemMatrix stores the assembled V and nothing
else: its rows are the q2 slots, then one fiber per edge in edge order,
and its columns are the q1 slots, then H in vertex order.  A, B, C, D and
the vertex blocks are read off it as slices.  Everything is block
diagonal over the vertices, so V is a coisometry (V V* = id) iff each
vertex block is; _block_dims states the size of a vertex block and
SystemMatrix._block_index its rows and columns in V.

The transfer function of a system, evaluated at a dual point eta with
insertion operator L_eta, is

    Z(eta*) = A + B (id - L* D)^{-1} L* C,

an nv x nv matrix supported on q2 x q1 rows/columns.  L* adds
conj(weight(e)) times the fiber rows of the edge e into the rows of
H_{r(e)}; since ||L*|| = ||eta|| < 1 and ||D|| <= 1 the resolvent is a
convergent geometric series whose n-th term gives the degree-n Taylor
coefficient

    coeff(e1 ... en) = B_{r(e1)} D^{(e1)} ... D^{(e n-1)} C^{(en)}.

realize_from_samples inverts this: from finitely many samples of a
Schur-class element it builds the Gram spaces of the Schur kernel and the
lurking isometry that the kernel identity provides, and writes each
vertex block of V as the polar factor of that isometry's data.  The
result is a contraction, and a coisometry when the padded multiplicities
allow one; either way its transfer is of Schur class.
"""

from __future__ import annotations

import numpy as np

from .graph_core import (
    ConditioningError,
    Graph,
    GraphError,
    _PathIndex,
    _complex_from_json,
    _complex_to_json,
    _json_object,
)
from .dual_eval import _weight_stack
from .fock import HardyPoly
from .pick_kernel import schur_kernel_matrix, is_completely_positive


class FeasibilityError(ValueError):
    """Sampled data is not in the Schur class; no contractive realization."""


def _block_dims(g, q1, q2, m, v):
    """(domain_v, codomain_v) of the vertex block at v under multiplicities m:

        domain_v   = [v in q1] + m_v
        codomain_v = [v in q2] + sum over edges e with s(e) = v of m_{r(e)}
    """
    return (v in q1) + m[v], (v in q2) + sum(m[g.dst[e]] for e in g.out_edges(v))


def _vertex_subset(g, q):
    """The vertex names in q, in vertex order; an unknown name raises GraphError."""
    q = list(q)
    for v in q:
        if v not in g.vindex:
            raise GraphError("unknown vertex %r in q1/q2" % (v,))
    return tuple(v for v in g.vertices if v in q)


def _as_block(x, shape):
    m = np.asarray(x, dtype=complex)
    if m.shape != shape:
        raise GraphError("block has shape %s, expected %s" % (m.shape, shape))
    return m


def _multiplicity(v, x):
    """x as the multiplicity m_v; GraphError unless x is a nonnegative int
    or numpy integer (bool is not taken for one)."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise GraphError("multiplicity of %r must be an integer, not %r" % (v, x))
    if x < 0:
        raise GraphError("multiplicities must be nonnegative")
    return int(x)


class SystemMatrix:
    """Vertex-graded colligation with scalar input/output fibers.

    multiplicities: dict vertex -> integer m_v >= 0
    q1, q2: input/output vertex subsets
    A: dict v -> complex, for v in q1 and q2
    B: dict v -> (1, m_v) array, for v in q2
    C: dict e -> (m_{r(e)}, 1) array, for edges with s(e) in q1
    D: dict e -> (m_{r(e)}, m_{s(e)}) array

    Missing blocks default to zero; blocks outside the allowed support
    raise GraphError.  The blocks are scattered once into the assembled
    matrix V, which is all the object keeps; the A, B, C, D attributes
    are read back from it, the arrays as views.
    """

    def __init__(self, graph, multiplicities, q1, q2, A=None, B=None, C=None, D=None):
        self.graph = g = graph
        for v in multiplicities:
            if v not in g.vindex:
                raise GraphError("multiplicity for unknown vertex %r" % (v,))
        self.m = {v: _multiplicity(v, multiplicities.get(v, 0)) for v in g.vertices}
        self.q1 = _vertex_subset(g, q1)
        self.q2 = _vertex_subset(g, q2)

        # where each slot lives in V: E1/E2 slot indices, H_v columns, edge fibers
        n1 = len(self.q1)
        self._in = {v: i for i, v in enumerate(self.q1)}
        self._out = {v: i for i, v in enumerate(self.q2)}
        self._hoff, pos = {}, 0
        for v in g.vertices:
            self._hoff[v] = slice(pos, pos + self.m[v])
            pos += self.m[v]
        self._hcols = {v: slice(n1 + sl.start, n1 + sl.stop) for v, sl in self._hoff.items()}
        self._fiber, row = {}, len(self.q2)
        for e in g.edges:
            self._fiber[e.name] = slice(row, row + self.m[e.dst])
            row += self.m[e.dst]
        self._V = V = np.zeros((row, n1 + pos), dtype=complex)

        for v, a in (A or {}).items():
            if v not in self._in or v not in self._out:
                raise GraphError("A block at %r outside q1 and q2" % (v,))
            V[self._out[v], self._in[v]] = complex(a)
        for v, b in (B or {}).items():
            if v not in self._out:
                raise GraphError("B block at %r outside q2" % (v,))
            V[self._out[v], self._hcols[v]] = _as_block(b, (1, self.m[v]))[0]
        for e, c in (C or {}).items():
            if e not in g.eindex or g.src[e] not in self._in:
                raise GraphError("C block at %r needs an edge with source in q1" % (e,))
            V[self._fiber[e], self._in[g.src[e]]] = _as_block(c, (self.m[g.dst[e]], 1))[:, 0]
        for e, d in (D or {}).items():
            if e not in g.eindex:
                raise GraphError("D block at unknown edge %r" % (e,))
            shape = (self.m[g.dst[e]], self.m[g.src[e]])
            V[self._fiber[e], self._hcols[g.src[e]]] = _as_block(d, shape)

    # blocks, read from V --------------------------------------------------
    @property
    def A(self):
        return {v: complex(self._V[self._out[v], i]) for v, i in self._in.items()
                if v in self._out}

    @property
    def B(self):
        return {v: self._V[i:i + 1, self._hcols[v]] for v, i in self._out.items()}

    @property
    def C(self):
        return {e.name: self._V[self._fiber[e.name], self._in[e.src]:self._in[e.src] + 1]
                for e in self.graph.edges if e.src in self._in}

    @property
    def D(self):
        return {e.name: self._V[self._fiber[e.name], self._hcols[e.src]]
                for e in self.graph.edges}

    # index bookkeeping ----------------------------------------------------
    def h_dim(self):
        return sum(self.m.values())

    def _block_index(self, v):
        """(rows, cols) of V that hold the vertex block at v.  Rows: the E2
        slot of v if v is in q2, then the fiber of each edge e with s(e) = v
        in edge order.  Columns: the E1 slot of v if v is in q1, then H_v."""
        rows = [self._out[v]] if v in self._out else []
        for e in self.graph.out_edges(v):
            rows.extend(range(self._fiber[e].start, self._fiber[e].stop))
        cols = [self._in[v]] if v in self._in else []
        cols.extend(range(self._hcols[v].start, self._hcols[v].stop))
        return rows, cols

    def vertex_block(self, v):
        """The (codomain_v x domain_v) block of V at vertex v, laid out as
        in _block_index (a copy)."""
        return self._V[np.ix_(*self._block_index(v))]

    def assemble(self):
        """Global matrix V (a copy): rows are q2 slots then edge fibers in
        edge order, columns are q1 slots then H in vertex order."""
        return self._V.copy()


def _spec_norm(M):
    """np.linalg.norm(M, 2) bit for bit, without its wrapper: the largest
    singular value."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _block_gap(blk):
    """(W, ||W||, ||blk||) of a vertex block, W = blk blk* - id; one eigvalsh
    of the Hermitian W gives both, ||blk||^2 being 1 + its top eigenvalue."""
    W = blk @ blk.conj().T - np.eye(len(blk))
    lam = np.linalg.eigvalsh(W)
    top = lam.max(initial=-1.0)  # -1 for a block without rows, whose norm is 0
    return W, float(np.abs(lam).max(initial=0.0)), float(np.sqrt(max(0.0, 1.0 + top)))


def validate_system(s, tol=1e-9):
    """Numeric validation of the coisometry identity and its block form.

    Reports ||V V* - id|| (spectral norm), the three block identities
    id - A A* = B B*, C C* = id - D D*, A C* = -B D*, the per-vertex
    coisometry residuals, and ||V* V - id|| for the unitary case.  V is
    zero off its vertex blocks, so each norm is the largest over the
    blocks: of ||W_v||, W_v = blk blk* - id; of the E2-slot corner of W_v
    (cond11), of its E2-slot row off the corner (cond12: the rows of
    A C* + B D* have disjoint supports) and of its fiber part (cond22).
    """
    blocks, iso_res, cond11, cond12, cond22 = {}, 0.0, 0.0, 0.0, 0.0
    for v in s.graph.vertices:
        blk = s.vertex_block(v)
        W, blocks[v], _ = _block_gap(blk)
        iso_res = max(iso_res, _block_gap(blk.conj().T)[1])
        top = int(v in s._out)  # the E2 slot, if any, is the first row of the block
        if top:
            cond11 = max(cond11, float(abs(W[0, 0])))
            cond12 = max(cond12, float(np.linalg.norm(W[0, 1:])))
        cond22 = max(cond22, _block_gap(blk[top:])[1])
    co_res = max(blocks.values(), default=0.0)
    return {
        "tol": tol,
        "coisometry_residual": co_res,
        "isometry_residual": iso_res,
        "cond11": cond11,
        "cond22": cond22,
        "cond12": cond12,
        "block_residuals": blocks,
        "passed": bool(co_res < tol),
    }


# ---------------------------------------------------------------------------
# transfer function

def _insertion_blocks(s, weights):
    """(LD, LC) at the points whose edge weights are the rows of weights:
    the maps L* D on H and L* C from the q1 slots into H, stacked.

    L* adds conj(w_e) times the fiber rows of e, which hold C^{(e)} and
    D^{(e)}, into the rows of H_{r(e)}.
    """
    LV = np.zeros((len(weights), s.h_dim(), s._V.shape[1]), dtype=complex)
    cw = np.conj(weights)
    for i, e in enumerate(s.graph.edges):
        LV[:, s._hoff[e.dst]] += cw[:, i, None, None] * s._V[s._fiber[e.name]]
    n1 = len(s.q1)
    return LV[:, :, n1:], LV[:, :, :n1]


def _embed_output(s, X):
    """A + B X on the q2 x q1 slots for each X in the stack, embedded in
    nv x nv matrices.  The B row of v is zero outside H_v, so only its H_v
    part is multiplied: a sum over H_v alone does not pick up rounding from
    the other fibers' order."""
    g = s.graph
    n1 = len(s.q1)
    Z = np.zeros((len(X), g.nv, g.nv), dtype=complex)
    cols = [g.vindex[v] for v in s.q1]
    for i, v in enumerate(s.q2):
        Z[:, g.vindex[v], cols] = s._V[i, :n1] + s._V[i, s._hcols[v]] @ X[:, s._hoff[v]]
    return Z


def _transfer_values(s, weights):
    """transfer_eval at the points whose edge weights are the rows of
    weights, stacked in one (k, nv, nv) array."""
    LD, LC = _insertion_blocks(s, weights)
    # id - L* D overwrites L* D: at many points the stack is the largest array here
    X = np.linalg.solve(np.subtract(np.eye(LD.shape[1]), LD, out=LD), LC)
    return _embed_output(s, X)


def transfer_eval(s, point):
    """Z(eta*) = A + B (id - L* D)^{-1} L* C as an nv x nv matrix."""
    return _transfer_values(s, _weight_stack(s.graph, [point]))[0]


def transfer_partial_sum(s, point, N):
    """The degree ≤ N part of the transfer series at the point.

    Algebraically identical to evaluating the degree-N Taylor polynomial,
    but computed as A + B (sum_{n<N} (L*D)^n) L*C so no path enumeration
    is needed.  N < 0 raises ValueError.
    """
    if N < 0:
        raise ValueError("partial-sum degree N must be >= 0, got %d" % N)
    LD, LC = (a[0] for a in _insertion_blocks(s, _weight_stack(s.graph, [point])))
    if N == 0:
        acc = np.zeros_like(LC)
    else:
        term = LC.copy()
        acc = LC.copy()
        for _ in range(N - 1):
            term = LD @ term
            acc += term
    return _embed_output(s, acc[None])[0]


def series_residual(s, point, N):
    """Spectral-norm gap between the transfer value and its degree-N
    partial sum.  For a validated system it is bounded by the geometric
    tail ||eta||^{N+1} / (1 - ||eta||)."""
    full = transfer_eval(s, point)
    part = transfer_partial_sum(s, point, N)
    return _spec_norm(full - part)


def taylor_extract(s, N):
    """Taylor coefficients of the transfer function through degree N.

    Returns a list of HardyPoly, one per degree.  Degree n holds the path
    coefficients B_{r(e1)} D^{(e1)} ... D^{(e_{n-1})} C^{(e_n)}; the cost
    grows with the number of paths, so keep N moderate and use
    transfer_partial_sum for high-degree tails.

    Each path beta carries a state in E1 (+) H, one row per path of a
    graph_core._PathIndex level: a vertex starts at its q1 slot (zero
    outside q1), the fiber rows of e applied to the state of beta give
    the state of e beta in H_{r(e)}, and the q2 row of V at r(beta)
    applied to the state of beta is its coefficient.  The index holds only
    the edges with a nonzero range fiber; every other path has coefficient
    zero.  Only the paths with a nonzero coefficient are named.
    """
    g = s.graph
    live = Graph(g.vertices, [e for e in g.edges if s.m[e.dst] > 0])
    index = _PathIndex(live, N)
    slot = np.array([s._out.get(v, -1) for v in g.vertices])
    state = np.zeros((g.nv, s._V.shape[1]), dtype=complex)
    for v, i in s._in.items():
        state[g.vindex[v], i] = 1.0
    out = []
    for n, level_range in enumerate(index.range):
        if n:
            # level n lists the paths e beta edge by edge, so edge i owns
            # the rows ends[i]:ends[i + 1] and their tails beta, in order
            nxt = np.zeros((len(level_range), s._V.shape[1]), dtype=complex)
            ends = np.searchsorted(index.head[n], np.arange(live.ne + 1))
            for i, e in enumerate(live.edges):
                beta = index.tail[n][ends[i]:ends[i + 1]]
                nxt[ends[i]:ends[i + 1], s._hcols[e.dst]] = state[beta] @ s._V[s._fiber[e.name]].T
            state = nxt
        if not state.any():
            break  # every longer path extends one of these, so its state is zero too
        hit = np.flatnonzero(slot[level_range] >= 0)
        coeffs = np.einsum("ij,ij->i", state[hit], s._V[slot[level_range[hit]]])
        nonzero = coeffs != 0
        out.append(HardyPoly._of_paths(g, dict(zip(index.paths(n, hit[nonzero]),
                                                   coeffs[nonzero]))))
    return out + [HardyPoly.zero(g) for _ in range(len(out), len(index.range))]


def taylor_poly(s, N):
    return HardyPoly._of_paths(s.graph, {p: c for x in taylor_extract(s, N)
                                         for p, c in x.coeffs.items()})


# ---------------------------------------------------------------------------
# random validated systems

def _haar_unitary(rng, n):
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(np.where(d == 0, 1, d)))


def feasible_multiplicities(g, q1, q2, m):
    """Shrink m / q2 until every vertex block can be a coisometry, i.e.
    domain_v >= codomain_v for all v.  Returns (q2, m).  Each repair step
    lowers sum(m) + |q2| by one, so the repair ends within that many steps."""
    m, q1, q2 = dict(m), set(q1), set(q2)
    if any(mv < 0 for mv in m.values()):
        raise GraphError("multiplicities must be nonnegative")
    while True:
        for v in g.vertices:
            dom, cod = _block_dims(g, q1, q2, m, v)
            if dom < cod:
                break
        else:
            return tuple(v for v in g.vertices if v in q2), m
        targets = [g.dst[e] for e in g.out_edges(v) if m[g.dst[e]] > 0]
        if targets:
            t = max(targets, key=lambda u: m[u])
            m[t] -= 1
        else:
            q2.discard(v)  # no fiber left to shrink, so codomain_v = [v in q2]


def random_system(g, rng, mmax=3, q1=None, q2=None):
    """Random validated coisometric system: per-vertex Haar coisometries
    over feasible multiplicities."""
    q1 = tuple(g.vertices) if q1 is None else tuple(q1)
    for _ in range(50):
        if q2 is None:
            qq2 = tuple(v for v in g.vertices if rng.random() < 0.7)
            if not qq2:
                qq2 = (g.vertices[int(rng.integers(0, g.nv))],)
        else:
            qq2 = tuple(q2)
        m = {v: int(rng.integers(0, mmax + 1)) for v in g.vertices}
        qq2, m = feasible_multiplicities(g, q1, qq2, m)
        if qq2 or any(m.values()):
            break
    blocks = {}
    for v in g.vertices:
        dom, cod = _block_dims(g, q1, qq2, m, v)
        blocks[v] = _haar_unitary(rng, dom)[:cod, :]
    return _system_from_vertex_blocks(g, m, q1, qq2, blocks)


def _system_from_vertex_blocks(g, m, q1, q2, blocks):
    """The system whose vertex blocks are the given (codomain_v x domain_v)
    matrices, each written straight into its rows and columns of V."""
    s = SystemMatrix(g, m, q1, q2)
    for v in g.vertices:
        rows, cols = s._block_index(v)
        s._V[np.ix_(rows, cols)] = _as_block(blocks[v], (len(rows), len(cols)))
    return s


# ---------------------------------------------------------------------------
# realization from samples

_PAD_MAX_TOTAL = 4000
# Gram eigenvalues at or below this fraction of the largest are dropped
_GRAM_CUT = 1e-13


def _pad_multiplicities(g, q1, q2, m):
    """Least padding p >= 0 with domain >= codomain at every vertex once
    m + p is used.  Returns (p, feasible, capped).

    At v the condition is p_v >= c_v + sum of p_{r(e)} over s(e) = v, with
    c_v fixed by m, q1, q2.  A sweep raises each p_v in vertex order to the
    least value meeting it, which from p = 0 keeps p below every solution.
    The vertices the least solution pads span no cycle (lowering p by one
    along it would keep every condition), so a sweep settles each vertex
    after those it reaches through padded vertices: all by sweep nv, and a
    change in sweep nv + 1 proves that no padding exists.  A least padding
    whose total is above _PAD_MAX_TOTAL, which caps the state size, is
    reported infeasible too, with capped set.  When infeasible, p is 0."""
    p = {v: 0 for v in g.vertices}
    mp = dict(m)  # m + p, kept in step with p
    for _ in range(g.nv + 1):
        changed = False
        for v in g.vertices:
            dom, cod = _block_dims(g, q1, q2, mp, v)
            if dom < cod:
                p[v] += cod - dom
                mp[v] += cod - dom
                changed = True
        if not changed:
            capped = sum(p.values()) > _PAD_MAX_TOTAL
            return ({v: 0 for v in g.vertices} if capped else p), not capped, capped
    return {v: 0 for v in g.vertices}, False, False


def realize_from_samples(points, values, q1, q2, tol=1e-9):
    """Build a system matrix whose transfer interpolates the given samples.

    points: dual points in the open ball; values: nv x nv sample matrices
    supported on q2 x q1.  Steps: (1) Schur-kernel CP check (raises
    FeasibilityError if it fails); (2) per-vertex Gram spaces from the
    Choi blocks, cut at _GRAM_CUT * (largest eigenvalue); (3) per-vertex
    padding of the multiplicities so a coisometric completion can exist;
    (4) the lurking isometry u -> y that the kernel identity makes
    inner-product preserving, in the rows and columns of V; (5) per vertex
    block the polar factor of Y U*, written into V.  Its leading singular
    pairs map U onto Y (the orthogonal Procrustes solution, exact when
    U* U = Y* Y) and its trailing pairs complete it to a coisometry, or to
    an isometry where the block is taller than wide, so ||V|| = 1 whatever
    the conditioning of U.  Returns (system, report); the report carries
    multiplicities, padding, residuals, the Gram ranks, ||V|| as "norm"
    and "class": "coisometric" when V V* = id within tol, else
    "contractive".  The transfer of the result reproduces the samples
    (ConditioningError otherwise); away from the samples it is one
    specific Schur-class interpolant.
    """
    k = len(points)
    if not k:
        raise ValueError("need at least one point")
    if len(values) != k:
        raise ValueError("need one value matrix per point")
    g = points[0].graph
    nv = g.nv
    q1t = _vertex_subset(g, q1)
    q2t = _vertex_subset(g, q2)
    Z = np.asarray(values, dtype=complex)
    if Z.shape != (k, nv, nv):
        raise GraphError("sample values must be %d x %d matrices" % (nv, nv))
    scale = max(1.0, float(np.abs(Z).max(initial=0.0)))
    w1 = [g.vindex[v] for v in q1t]
    w2 = [g.vindex[w] for w in q2t]
    off_support = np.ones((nv, nv), dtype=bool)
    off_support[np.ix_(w2, w1)] = False
    if np.any((np.abs(Z) > 1e-9 * scale) & off_support):
        raise GraphError("sample values must be supported on q2 x q1")

    kern = schur_kernel_matrix(points, Z)
    cp = is_completely_positive(kern, tol=tol)
    if not cp["cp"]:
        raise FeasibilityError(
            "samples are not Schur-class data (worst Choi eigenvalue %.3e)"
            % cp["worst_min_eig"])

    # Gram spaces: one per vertex, spanned by symbols (point i, vertex w)
    phi = {}
    for u, v in enumerate(g.vertices):
        ch = kern.choi_block(u)
        lam, Q = np.linalg.eigh(0.5 * (ch + ch.conj().T))
        keep = lam > _GRAM_CUT * float(lam.max(initial=0.0))
        phi[v] = np.sqrt(np.clip(lam[keep], 0.0, None))[:, None] * Q[:, keep].conj().T
    m = {v: phi[v].shape[0] for v in g.vertices}  # phi[v] is (m_v, k * nv)

    pad, pad_ok, pad_capped = _pad_multiplicities(g, q1t, q2t, m)
    system = SystemMatrix(g, {v: m[v] + pad[v] for v in g.vertices}, q1t, q2t)
    V = system._V

    # The lurking isometry maps U[i, j] to Y[i, j], the symbol (point i, vertex
    # q2[j]), in the columns and rows of V: U holds the E1 slots and the Gram
    # vectors, zero-padded in each H_v; Y holds the E2 slots and, in the fiber
    # of e, w_e times the H_{r(e)} columns of U.
    U = np.zeros((k, len(w2), V.shape[1]), dtype=complex)
    Y = np.zeros((k, len(w2), V.shape[0]), dtype=complex)
    for v, i in system._in.items():
        U[:, :, i] = np.conj(Z[:, w2, g.vindex[v]])
    for v in g.vertices:
        h = system._hcols[v].start
        U[:, :, h:h + m[v]] = phi[v].reshape(m[v], k, nv)[:, :, w2].transpose(1, 2, 0)
    Y[:, np.arange(len(w2)), np.arange(len(w2))] = 1.0  # the E2 slot of q2[j] is row j
    weights = _weight_stack(g, points)
    for e, w in zip(g.edges, weights.T):
        Y[:, :, system._fiber[e.name]] = w[:, None, None] * U[:, :, system._hcols[e.dst]]

    # V is block diagonal over the vertices, so ||V V* - id|| and ||V|| are
    # the largest of the blocks' values, at a fraction of the cost
    iso_dev = co_res = norm = 0.0
    for v in g.vertices:
        rows, cols = system._block_index(v)
        dom, cod = len(cols), len(rows)
        # contiguous, as a block built on its own: BLAS rounding depends on layout
        Umat = np.ascontiguousarray(U[:, :, cols]).reshape(k * len(w2), dom).T
        Ymat = np.ascontiguousarray(Y[:, :, rows]).reshape(k * len(w2), cod).T
        gram_gap = np.abs(Umat.conj().T @ Umat - Ymat.conj().T @ Ymat).max(initial=0.0)
        iso_dev = max(iso_dev, float(gram_gap))
        if gram_gap > 1e-6 * (1.0 + scale ** 2):
            raise ConditioningError(
                "lurking isometry broke at vertex %r (Gram gap %.3e)" % (v, gram_gap))
        # the polar factor of Y U*: maps U onto Y, and has norm 1
        P, _, Qh = np.linalg.svd(Ymat @ Umat.conj().T, full_matrices=False)
        n = min(cod, dom)
        V[np.ix_(rows, cols)] = blk = P[:, :n] @ Qh[:n]
        _, gap, blk_norm = _block_gap(blk)
        co_res, norm = max(co_res, gap), max(norm, blk_norm)

    interp = float(np.abs(_transfer_values(system, weights) - Z).max(initial=0.0))
    report = {
        "multiplicities": dict(system.m),
        "gram_ranks": m,
        "padding": pad,
        "padding_feasible": pad_ok,
        "padding_capped": pad_capped,
        "isometry_gap": iso_dev,
        "coisometry_residual": co_res,
        "norm": norm,
        "class": "coisometric" if co_res < tol else "contractive",
        "interpolation_residual": interp,
        "cp_worst_min_eig": cp["worst_min_eig"],
    }
    if interp > max(100 * tol, 1e-6) * (1.0 + scale):
        raise ConditioningError(
            "realized transfer misses the samples by %.3e" % interp)
    return system, report


# ---------------------------------------------------------------------------
# JSON form

def _mat_from_json(rows, shape):
    got = _complex_from_json(rows, ndim=2) if rows else np.zeros((0, 0), dtype=complex)
    if got.size == 0 and 0 in shape:
        return np.zeros(shape, dtype=complex)
    if got.shape != shape:
        raise GraphError("matrix has shape %s, expected %s" % (got.shape, shape))
    return got


def system_to_dict(s):
    return {
        "multiplicities": {v: s.m[v] for v in s.graph.vertices},
        "q1": list(s.q1),
        "q2": list(s.q2),
        "A": {v: _complex_to_json(a) for v, a in s.A.items()},
        "B": {v: _complex_to_json(b) for v, b in s.B.items()},
        "C": {e: _complex_to_json(c) for e, c in s.C.items()},
        "D": {e: _complex_to_json(d) for e, d in s.D.items()},
    }


def system_from_dict(g, data):
    mult = _json_object(data, "multiplicities", "system")
    try:
        m = {v: _multiplicity(v, x) for v, x in mult.items()}
        q1 = list(data["q1"])
        q2 = list(data["q2"])
    except (KeyError, TypeError) as exc:
        raise GraphError("system dict needs multiplicities, q1, q2: %s" % exc)
    mfull = {v: m.get(v, 0) for v in g.vertices}
    A, B, C, D = (_json_object(data, k, "system") if k in data else {} for k in "ABCD")
    A = {v: _complex_from_json(p) for v, p in A.items()}
    B = {v: _mat_from_json(rows, (1, mfull.get(v, 0))) for v, rows in B.items()}
    C = {e: _mat_from_json(rows, (mfull.get(g.dst.get(e), 0), 1)) for e, rows in C.items()}
    D = {e: _mat_from_json(rows, (mfull.get(g.dst.get(e), 0), mfull.get(g.src.get(e), 0)))
         for e, rows in D.items()}
    return SystemMatrix(g, mfull, q1, q2, A, B, C, D)
