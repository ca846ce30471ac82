"""
The Mobius automorphisms of the two-vertex worked graph, and beyond
===================================================================

A central point gamma (a weight on the loops) induces an automorphism
alpha_gamma of the Hardy algebra.  mobius_alpha reads the generator
images off the unitary colligation of gamma: the Taylor series of one
small system per edge, truncated at a path length N.  Evaluated at any
dual point they give the entries of the Mobius matrix g_gamma(eta*) up
to a geometric tail.  On the graph with edges e: v->w, f: w->v, g: w->w
the loop weight lambda gives a one-parameter family; the same call
serves a graph with two loops at one vertex.  The commutator of S_g with
S_e S_f generates the ideal of elements vanishing at every point.
"""

import numpy as np

from graph_hardy import (
    Graph,
    HardyPoly,
    evaluate_poly,
    kernel_ideal_check,
    make_central_point,
    mobius_alpha,
    mobius_matrix,
    random_point,
    two_vertex_example,
)


def worst_deviation(gamma, images, points):
    """Largest gap between the value of alpha_gamma(S_e) at a point and the
    (r(e), e) entry of the Mobius matrix there."""
    g = gamma.graph
    worst = 0.0
    for p in points:
        M = mobius_matrix(gamma, p)
        for e in g.edges:
            value = evaluate_poly(images[e.name], p)[g.vindex[e.dst], g.vindex[e.src]]
            worst = max(worst, abs(value - M[g.vindex[e.dst], g.eindex[e.name]]))
    return worst


g = two_vertex_example()
lam = 0.5 + 0.2j
N = 25
gamma = make_central_point(g, {"g": lam})

images = mobius_alpha(gamma, N)
te, tf, tg = images["e"], images["f"], images["g"]
print("T(e) truncation has %d terms; leading coefficients:" % len(te.coeffs))
for path in [("e",), ("g", "e"), ("g", "g", "e")]:
    print("   %-16s %s" % ("".join(path), np.round(te.coeff(path), 6)))
print("T(f) is exactly -S_f:", tf.coeffs == {("f",): -1.0})
print("T(g) starts with the vertex term %s and the loop term %s"
      % (np.round(tg.coeff("w"), 6), np.round(tg.coeff(("g",)), 6)))

# evaluating the truncations against the Mobius matrix
rng = np.random.default_rng(3)
pts = [random_point(g, rng, max_norm=0.8) for _ in range(10)]
lr = abs(lam) * 0.8
print("\npointwise agreement with the Mobius matrix (10 random points):")
print("worst deviation: %.3e   geometric tail bound: %.3e"
      % (worst_deviation(gamma, images, pts), lr ** N / (1 - lr)))

# the same construction on a graph with two loops at u, one at v, and a sink
h = Graph(["u", "v", "s"], [("p", "u", "u"), ("q", "u", "u"), ("r", "v", "v"),
                            ("a", "u", "v"), ("b", "v", "u"), ("c", "u", "s")])
gamma_h = make_central_point(h, {"p": 0.3 + 0.2j, "q": -0.4j, "r": 0.5})
rng_h = np.random.default_rng(5)
pts_h = [random_point(h, rng_h, max_norm=0.6) for _ in range(5)]
print("\nthree-vertex graph, two loops at u (5 random points):")
for n in (4, 8, 12):
    images_h = mobius_alpha(gamma_h, n)
    print("   N = %2d: %5d terms, worst deviation %.3e"
          % (n, sum(len(x.coeffs) for x in images_h.values()),
             worst_deviation(gamma_h, images_h, pts_h)))
print("alpha(S_c) into the loop-free sink is exactly -S_c:",
      images_h["c"].coeffs == {("c",): -1.0})

# the vanishing ideal: [S_g, S_e S_f] and random multiples of it evaluate
# to zero at every dual point
pts = [random_point(g, rng, max_norm=0.85) for _ in range(10)]
rep = kernel_ideal_check(pts, rng=rng, n_multiples=10)
print("\nkernel ideal check: generator max %.3e, multiples max %.3e, passed %s"
      % (rep["generator_max"], rep["multiples_max"], rep["passed"]))

# the generator in coefficients: S_g S_e S_f - S_e S_f S_g
sg, se, sf = (HardyPoly.shift(g, n) for n in "gef")
K = sg * (se * sf) - (se * sf) * sg
print("generator paths:", sorted("".join(p) for p in K.coeffs))
