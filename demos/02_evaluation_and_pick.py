"""
Point evaluation and interpolation feasibility
==============================================

Evaluate polynomials at points of the dual unit ball, then test
Nevanlinna-Pick feasibility, first on a one-loop graph where the answer
reduces to the classical scalar Pick matrix, then on the two-vertex
worked graph.
"""

import numpy as np

from graph_hardy import (
    Graph,
    HardyPoly,
    certify_contraction,
    evaluate_poly,
    make_dual_point,
    pick_feasibility,
    random_point,
    random_poly,
    schur_class_check,
    two_vertex_example,
)

g = two_vertex_example()

# a dual point assigns a weight to every edge; its norm is the largest
# row norm over the vertices collecting the incoming weights
pt = make_dual_point(g, {"e": 0.2 + 0.1j, "f": -0.3, "g": 0.4j})
print("point norm:", pt.norm)

# evaluation sends S_path to the product of conjugated weights, placed at
# the (range, source) entry, and vertex indicators to diagonal entries
x = HardyPoly(g, {"v": 2.0, ("e",): 3.0, ("f", "g"): 5.0})
print("x evaluated:\n", np.round(evaluate_poly(x, pt), 6))

# evaluation is multiplicative
y = HardyPoly(g, {("g",): 1.0, "w": -0.5})
lhs = evaluate_poly(x * y, pt)
rhs = evaluate_poly(x, pt) @ evaluate_poly(y, pt)
print("multiplicativity deviation:", np.abs(lhs - rhs).max())

# --- classical dictionary -------------------------------------------------
# on the graph with one vertex and one loop, a dual point is a disc
# coordinate and the per-vertex Choi block of the Pick map is exactly the
# scalar Pick matrix [(1 - c_i conj(c_j)) / (1 - z_i conj(z_j))]
loop = Graph(["u"], [("z", "u", "u")])
z = np.array([0.3, 0.2 - 0.5j])
pts = [make_dual_point(loop, {"z": np.conj(zi)}) for zi in z]

c_good = 0.6 * z            # samples of the Schur function 0.6 z
c_bad = np.array([0.95, -0.95])  # steep swing between nearby nodes

for c, label in [(c_good, "samples of 0.6 z"), (c_bad, "steep data")]:
    rep = pick_feasibility(pts, [1.0, 1.0], list(c))
    print("\n%-18s feasible: %-5s  min eigenvalue: % .6f"
          % (label, rep["feasible"], rep["worst_min_eig"]))

# --- Schur-class test on the worked graph ----------------------------------
# rescale a random polynomial by its Fock compression norm, a lower bound
# for its norm, and test the sample kernel of the rescaled polynomial for
# complete positivity (a necessary condition for a contraction)
rng = np.random.default_rng(0)
xc, bound = certify_contraction(random_poly(g, rng, degree=2), 9)
sample_pts = [random_point(g, rng, max_norm=0.8) for _ in range(4)]
vals = [evaluate_poly(xc, p) for p in sample_pts]
rep = schur_class_check(sample_pts, vals)
print("\nrescaled by its N = 9 compression norm %.6f (a lower bound):" % bound)
print("sample kernel CP:", rep["cp"], " min eigenvalue: %.3e" % rep["worst_min_eig"])

# the same test rejects a polynomial of norm 1.5
x_big = 1.5 * HardyPoly.shift(g, "e")
vals = [evaluate_poly(x_big, p) for p in sample_pts]
rep = schur_class_check(sample_pts, vals)
print("1.5 S_e sample kernel CP:", rep["cp"],
      " min eigenvalue: %.3e" % rep["worst_min_eig"])
