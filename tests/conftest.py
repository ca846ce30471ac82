"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import settings

from graph_hardy import (
    Graph,
    certify_contraction,
    evaluate_poly,
    random_point,
    random_poly,
    two_vertex_example,
)

settings.register_profile("suite", deadline=None, max_examples=25, derandomize=True)
settings.load_profile("suite")


def random_graph(rng, max_vertices=5, max_edges=8, ensure_loop=False):
    """Random directed graph with <= max_vertices vertices and <= max_edges
    edges; endpoints uniform, so loops and parallel edges occur naturally."""
    nv = int(rng.integers(1, max_vertices + 1))
    ne = int(rng.integers(1, max_edges + 1))
    vertices = ["v%d" % i for i in range(nv)]
    edges = []
    for j in range(ne):
        src = vertices[int(rng.integers(0, nv))]
        dst = vertices[int(rng.integers(0, nv))]
        edges.append(("a%d" % j, src, dst))
    if ensure_loop and not any(s == d for _, s, d in edges):
        v = vertices[int(rng.integers(0, nv))]
        edges[0] = (edges[0][0], v, v)
    return Graph(vertices, edges)


def corpus_samples(seed, k):
    """Realization corpus case: (graph, points, values) for the first k of
    10 points at which a certified degree-2 contraction on the two-vertex
    graph is sampled, drawn from seed as the realize-samples benchmark
    workload draws its corpus (seeds 100-119, k = 4 and 10)."""
    g = two_vertex_example()
    rng = np.random.default_rng(seed)
    x, _ = certify_contraction(random_poly(g, rng, degree=2), 9)
    pts = [random_point(g, rng, max_norm=0.8) for _ in range(10)][:k]
    return g, pts, [evaluate_poly(x, p) for p in pts]


def max_coeff(x):
    """Largest coefficient modulus of the HardyPoly x (0.0 for zero)."""
    return max((abs(c) for c in x.coeffs.values()), default=0.0)


def adjacency(g):
    """A[i, j] = number of edges from vertex j to vertex i."""
    A = np.zeros((g.nv, g.nv), dtype=np.int64)
    for e in g.edges:
        A[g.vindex[e.dst], g.vindex[e.src]] += 1
    return A
