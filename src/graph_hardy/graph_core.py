"""Finite directed graphs and the edge bimodule over the vertex algebra.

A finite directed graph Q on a vertex set V carries two coordinate spaces:
M = C(V), functions on the vertices, and E = C(Q), functions on the edges.
E is a bimodule over M,

    (a . f . b)(e) = a(r(e)) f(e) b(s(e)),

where s(e) and r(e) are the source and range of the edge e, and it carries
the M-valued inner product

    <f, g>(v) = sum over edges e with s(e) = v of conj(f(e)) g(e).

Tensor powers of E over M have the composable paths as an orthonormal
basis, so path enumeration is the basis bookkeeping for everything built
on top (Fock space, evaluation, realization).

Paths are written like compositions of maps: in e1 e2 ... ek the edge ek
acts first, and consecutive edges satisfy s(e_i) = r(e_{i+1}).  The source
of the path is s(ek), the range is r(e1).  A path of length zero is a
vertex and is represented by the vertex name (a str); a path of positive
length is a tuple of edge names.
"""

from __future__ import annotations

import cmath
from collections import namedtuple

import numpy as np

Edge = namedtuple("Edge", ["name", "src", "dst"])


class GraphError(ValueError):
    """Malformed graph data (duplicate names, dangling endpoints, ...)."""


class ConditioningError(RuntimeError):
    """Numerics degraded beyond the tolerances on valid input."""


class Graph:
    """A finite directed graph with named vertices and named edges.

    Vertex and edge order is the insertion order of the input; every array
    produced by this package indexes vertices and edges that way, so the
    same input always yields the same matrices.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("duplicate vertex names")
        if not self.vertices:
            raise GraphError("graph needs at least one vertex")
        vset = set(self.vertices)
        named = []
        for item in edges:
            if isinstance(item, Edge):
                named.append(item)
            else:
                name, src, dst = item
                named.append(Edge(str(name), str(src), str(dst)))
        self.edges = tuple(named)
        enames = [e.name for e in self.edges]
        if len(set(enames)) != len(enames):
            raise GraphError("duplicate edge names")
        if set(enames) & vset:
            raise GraphError("edge names must be disjoint from vertex names")
        for e in self.edges:
            if e.src not in vset or e.dst not in vset:
                raise GraphError("edge %r has an endpoint outside the vertex set" % (e.name,))
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        self.eindex = {e.name: i for i, e in enumerate(self.edges)}
        self.src = {e.name: e.src for e in self.edges}
        self.dst = {e.name: e.dst for e in self.edges}
        self._out = {v: tuple(e.name for e in self.edges if e.src == v) for v in self.vertices}
        self._in = {v: tuple(e.name for e in self.edges if e.dst == v) for v in self.vertices}

    @property
    def nv(self):
        return len(self.vertices)

    @property
    def ne(self):
        return len(self.edges)

    def out_edges(self, v):
        """Edges with source v, in edge order."""
        return self._out[v]

    def in_edges(self, v):
        """Edges with range v, in edge order."""
        return self._in[v]

    def loops(self):
        """Edges whose source and range coincide, in edge order."""
        return tuple(e.name for e in self.edges if e.src == e.dst)

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (self.nv, self.ne)

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))


def build_graph(data):
    """Build a Graph from the JSON-style dict form.

    Expected shape:
        {"vertices": ["v", "w"],
         "edges": [{"name": "e", "src": "v", "dst": "w"}, ...]}
    """
    try:
        vertices = data["vertices"]
        edges = [(e["name"], e["src"], e["dst"]) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise GraphError("graph dict must have 'vertices' and 'edges' entries: %s" % exc)
    return Graph(vertices, edges)


def graph_to_dict(g):
    return {
        "vertices": list(g.vertices),
        "edges": [{"name": e.name, "src": e.src, "dst": e.dst} for e in g.edges],
    }


def two_vertex_example():
    """The standard worked example: vertices v, w with

        e : v -> w,   f : w -> v,   g : w -> w (loop).

    Its center is spanned by the loop g, which is what makes the Mobius
    and automorphism machinery on it nontrivial.
    """
    return Graph(["v", "w"], [("e", "v", "w"), ("f", "w", "v"), ("g", "w", "w")])


# ---------------------------------------------------------------------------
# paths

def path_source(g, path):
    """Source vertex of a path (the vertex where it starts reading)."""
    if isinstance(path, str):
        return path
    return g.src[path[-1]]


def path_range(g, path):
    """Range vertex of a path (the vertex where it ends)."""
    if isinstance(path, str):
        return path
    return g.dst[path[0]]


def is_path(g, path):
    """True if path is a valid vertex name or a composable edge tuple."""
    if isinstance(path, str):
        return path in g.vindex
    if not isinstance(path, tuple) or len(path) == 0:
        return False
    for e in path:
        if e not in g.eindex:
            return False
    for a, b in zip(path, path[1:]):
        if g.src[a] != g.dst[b]:
            return False
    return True


def _path_edges(path):
    """The edges of a path as a tuple; () for a vertex."""
    return () if isinstance(path, str) else path


def compose(g, p, q):
    """Concatenate paths p then q (p acts after q).  None if not composable."""
    if path_source(g, p) != path_range(g, q):
        return None
    if isinstance(p, str):
        return q
    return p if isinstance(q, str) else p + q


def path_basis(g, k):
    """All paths of length exactly k, ordered lexicographically by edge index.

    k = 0 returns the vertices in vertex order.
    """
    index = _PathIndex(g, k)
    return index.paths(k, np.arange(len(index.range[k])))


class _PathIndex:
    """Integer index of the paths of length 0..N of g, level by level.

    Level k holds the paths of length k.  range[k] is the array of their
    range vertex indices (level 0 is the vertices themselves), and for
    k >= 1 child[k] is an (ne, len(level k-1)) table: child[k][e, j] is
    the position in level k of the path e followed by path j of level
    k-1, or -1 when s(e) != r(path j).  Level k lists the pairs (e, j)
    with child[k][e, j] >= 0 in row-major order, which is path_basis's
    lexicographic order; head[k] and tail[k] are those pairs' arrays, so
    path i of level k is edge head[k][i] followed by path tail[k][i] of
    level k-1.  offset[k] is the position of level k's first path in the
    concatenated basis, and offset[N + 1] is its length.
    """

    def __init__(self, g, N):
        if N < 0:
            raise ValueError("truncation order must be >= 0, got %d" % N)
        self.graph = g
        src = np.array([g.vindex[e.src] for e in g.edges], dtype=np.intp)
        dst = np.array([g.vindex[e.dst] for e in g.edges], dtype=np.intp)
        self.range = [np.arange(g.nv)]
        self.child, self.head, self.tail = [None], [None], [None]
        for _ in range(N):
            e, tail = np.nonzero(src[:, None] == self.range[-1])
            child = np.full((g.ne, len(self.range[-1])), -1, dtype=np.intp)
            child[e, tail] = np.arange(len(e))
            self.child.append(child)
            self.head.append(e)
            self.tail.append(tail)
            self.range.append(dst[e])
        self.offset = np.cumsum([0] + [len(r) for r in self.range])

    def paths(self, k, idx):
        """The paths at positions idx of level k, as path_basis names them."""
        if k == 0:
            return [self.graph.vertices[i] for i in idx]
        names = np.array([e.name for e in self.graph.edges], dtype=object)
        columns = []
        for level in range(k, 0, -1):
            columns.append(names[self.head[level][idx]])
            idx = self.tail[level][idx]
        return list(zip(*columns))


# ---------------------------------------------------------------------------
# JSON form of complex numbers

def _complex_to_json(z):
    """[re, im] for a complex number; nested lists of them for an array."""
    if np.ndim(z) == 0:
        return [float(np.real(z)), float(np.imag(z))]
    return [_complex_to_json(x) for x in z]


def _json_object(data, key, what):
    """data[key], which must be a JSON object (a dict); GraphError otherwise."""
    try:
        val = data[key]
    except (KeyError, TypeError):
        raise GraphError("%s dict must have a %r entry" % (what, key))
    if not isinstance(val, dict):
        raise GraphError("%s %r must be a JSON object, not %s" % (what, key, type(val).__name__))
    return val


def _complex_from_json(val, ndim=0):
    """Inverse of _complex_to_json.  A number may also be given as [re]
    or as anything complex() accepts; with ndim > 0, val is a nested list
    of numbers that many levels deep, returned as a complex ndarray.  NaN
    and infinite parts raise GraphError."""
    if ndim:
        return np.array([_complex_from_json(v, ndim - 1) for v in val], dtype=complex)
    if isinstance(val, (list, tuple)):
        z = complex(val[0], val[1] if len(val) > 1 else 0.0)
    else:
        z = complex(val)
    if not cmath.isfinite(z):
        raise GraphError("JSON number %r is not finite" % (val,))
    return z


# ---------------------------------------------------------------------------
# bimodule operations

def as_edge_function(g, f):
    if isinstance(f, dict):
        out = np.zeros(g.ne, dtype=complex)
        for name, val in f.items():
            if name not in g.eindex:
                raise GraphError("unknown edge %r" % (name,))
            out[g.eindex[name]] = complex(val)
        return out
    f = np.asarray(f, dtype=complex)
    if f.shape != (g.ne,):
        raise ValueError("expected an edge function of length %d" % g.ne)
    return f


def fullness_flags(g):
    """(is_full, left_faithful) for the edge bimodule.

    is_full: every vertex is the source of some edge, so <E, E> spans M.
    left_faithful: every vertex is the range of some edge, so the left
    action has no kernel.  Both are reported, never enforced.
    """
    is_full = all(len(g.out_edges(v)) > 0 for v in g.vertices)
    left_faithful = all(len(g.in_edges(v)) > 0 for v in g.vertices)
    return is_full, left_faithful
