"""
Mobius motions of the dual ball
===============================

A central point (supported on loops, norm < 1) generates an involutive
Mobius motion of the dual ball that swaps the origin with the center.
The motion is encoded by a unitary colligation, and transporting a point
configuration by it leaves the interpolation kernel completely positive.
"""

import numpy as np

from graph_hardy import (
    is_completely_positive,
    make_central_point,
    make_dual_point,
    mobius_apply,
    mobius_colligation,
    mobius_congruence_matrix,
    random_point,
    two_vertex_example,
    zero_point,
)

g = two_vertex_example()
gamma = make_central_point(g, {"g": 0.4 - 0.2j})
print("center weights:", gamma.loop_weights(), " norm:", gamma.norm)

# the motion swaps 0 and the center
img0 = mobius_apply(gamma, zero_point(g))
print("g(0) weights:   ", dict(zip([e.name for e in g.edges],
                                   np.round(img0.weights, 6))))
back = mobius_apply(gamma, gamma)
print("g(center) norm: ", back.norm)

# and it is an involution on the whole ball
rng = np.random.default_rng(2)
worst = 0.0
for _ in range(5):
    p = random_point(g, rng, max_norm=0.8)
    pp = mobius_apply(gamma, mobius_apply(gamma, p))
    worst = max(worst, np.abs(pp.weights - p.weights).max())
print("involution deviation over 5 random points: %.3e" % worst)

# one sample orbit: weights of a point, its image, and the image's image
p = make_dual_point(g, {"e": 0.3, "f": -0.1j, "g": 0.25})
q = mobius_apply(gamma, p)
print("\norbit of a point (weights rounded):")
for label, point in [("p", p), ("g(p)", q), ("g(g(p))", mobius_apply(gamma, q))]:
    print("  %-8s %s  norm %.4f" % (label, np.round(point.weights, 4), point.norm))

# the colligation that encodes the motion is unitary
_, rep = mobius_colligation(gamma)
print("\ncolligation shape %s, coisometry %.3e, isometry %.3e"
      % (rep["shape"], rep["coisometry_residual"], rep["isometry_residual"]))

# transporting sample points by the motion preserves complete positivity
# of the paired congruence kernel
pts = [random_point(g, rng, max_norm=0.7) for _ in range(3)]
rep = is_completely_positive(mobius_congruence_matrix(gamma, pts))
print("congruence kernel CP: %s  min eigenvalue: %.3e"
      % (rep["cp"], rep["worst_min_eig"]))
