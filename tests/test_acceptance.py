"""Acceptance suite: one test per contract item, one printed verdict line each.

Each test exercises a library capability end to end at the agreed tolerance
and runtime budget, prints a single PASS/FAIL line with the measured worst
value, and then asserts.  Seeds are fixed so the printed numbers are
reproducible run to run.
"""

import time

import numpy as np

from graph_hardy import (
    Graph,
    HardyPoly,
    certify_contraction,
    cuntz_toeplitz_check,
    dual_norm,
    evaluate_poly,
    fock_norm_bound,
    is_completely_positive,
    kernel_ideal_check,
    make_central_point,
    make_dual_point,
    mobius_alpha,
    mobius_apply,
    mobius_colligation,
    mobius_congruence_matrix,
    mobius_matrix,
    pick_feasibility,
    random_point,
    random_poly,
    random_system,
    realize_from_samples,
    schur_class_check,
    series_residual,
    transfer_eval,
    two_vertex_example,
    validate_system,
    zero_point,
)
from conftest import random_graph


def emit(capsys, num, name, ok, worst, limit, t0, budget):
    runtime = time.monotonic() - t0
    line = ("ACCEPTANCE %d %-28s %s  worst %.3e  limit %.0e  %5.2fs" %
            (num, name, "PASS" if ok else "FAIL", worst, limit, runtime))
    with capsys.disabled():
        print(line)
    assert runtime < budget
    return ok


def test_1_fock_relations(capsys):
    # compressed creation-operator relations on the worked example and on
    # twenty random graphs (<= 5 vertices, <= 8 edges), truncation N = 4
    t0 = time.monotonic()
    rng = np.random.default_rng(10)
    worst = cuntz_toeplitz_check(two_vertex_example(), 4)["max_deviation"]
    for _ in range(20):
        worst = max(worst, cuntz_toeplitz_check(random_graph(rng), 4)["max_deviation"])
    ok = worst < 1e-12
    assert emit(capsys, 1, "fock-relations", ok, worst, 1e-12, t0, 5.0)


def test_2_classical_pick_oracle(capsys):
    # on the one-vertex one-loop graph the per-vertex Choi block collapses to
    # the scalar Pick matrix [(1 - c_i conj(c_j)) / (1 - z_i conj(z_j))];
    # 200 random instances, k <= 4 nodes, |z| <= 0.9, mixed feasibility
    t0 = time.monotonic()
    g = Graph(["u"], [("z", "u", "u")])
    rng = np.random.default_rng(20)
    agree = 0
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 5))
        z = rng.uniform(0.05, 0.9, size=k) * np.exp(2j * np.pi * rng.random(k))
        c = rng.uniform(0.0, 1.2, size=k) * np.exp(2j * np.pi * rng.random(k))
        pick = np.array([[(1.0 - c[i] * np.conj(c[j])) / (1.0 - z[i] * np.conj(z[j]))
                          for j in range(k)] for i in range(k)])
        eigs = np.linalg.eigvalsh(0.5 * (pick + pick.conj().T))
        oracle_ok = eigs.min() >= -1e-9 * (1.0 + np.abs(eigs).max())
        pts = [make_dual_point(g, {"z": np.conj(zi)}) for zi in z]
        rep = pick_feasibility(pts, [1.0] * k, list(c))
        agree += (rep["feasible"] == oracle_ok)
        worst = max(worst, abs(rep["worst_min_eig"] - eigs.min()))
    ok = agree == 200 and worst < 1e-9
    assert emit(capsys, 2, "classical-pick-oracle", ok, worst, 1e-9, t0, 10.0)
    assert agree == 200


def test_3_schur_certificate(capsys):
    # rescaled by the Fock compression norm at N = 9 (times 1 + 1e-6), a
    # lower bound for the norm, random polynomials give CP sample kernels
    t0 = time.monotonic()
    g = two_vertex_example()
    rng = np.random.default_rng(30)
    worst = np.inf
    for _ in range(50):
        x, _ = certify_contraction(random_poly(g, rng, degree=2), 9)
        pts = [random_point(g, rng, max_norm=0.8) for _ in range(4)]
        vals = [evaluate_poly(x, p) for p in pts]
        worst = min(worst, schur_class_check(pts, vals)["worst_min_eig"])
    ok = worst >= -1e-9
    assert emit(capsys, 3, "schur-certificate", ok, worst, -1e-9, t0, 30.0)


def test_4_transfer_series_identity(capsys):
    # partial sums of the formal series converge to the closed-form transfer
    # value at the geometric rate set by the point norm
    t0 = time.monotonic()
    g2 = two_vertex_example()
    rng = np.random.default_rng(40)
    bound = 0.5 ** 41 / 0.5 + 1e-12
    worst = 0.0
    ok = True
    for trial in range(50):
        g = g2 if trial % 2 == 0 else random_graph(rng)
        s = random_system(g, rng, mmax=3)
        ok = ok and validate_system(s)["passed"]
        p = random_point(g, rng, max_norm=0.5)
        worst = max(worst, series_residual(s, p, 40))
    ok = ok and worst <= bound and worst < 1e-11
    assert emit(capsys, 4, "transfer-series", ok, worst, bound, t0, 30.0)


def test_5_realization_roundtrip(capsys):
    # samples of the loop shift on loop-supported points: the canonical
    # model is finite here, so the realization reproduces both the samples
    # and held-out evaluations (generic data only interpolates; see
    # test_realization.test_realize_generic_data_is_interpolant_only)
    t0 = time.monotonic()
    g = two_vertex_example()
    x = HardyPoly.shift(g, "g")
    assert fock_norm_bound(x, 6) <= 1.0  # compression norm: a lower bound, not a certificate
    assert cuntz_toeplitz_check(g, 4)["deviations"]["shift_isometries"] == 0.0
    pts = [make_dual_point(g, {"g": c}) for c in (0.55, -0.35, 0.2 + 0.4j, -0.1 - 0.5j)]
    vals = [evaluate_poly(x, p) for p in pts]
    system, rep = realize_from_samples(pts, vals, list(g.vertices), list(g.vertices))
    held = [make_dual_point(g, {"g": c}) for c in (0.3, -0.52, 0.1 - 0.3j, 0.45 + 0.2j)]
    held_dev = max(np.abs(transfer_eval(system, p) - evaluate_poly(x, p)).max()
                   for p in held)
    interp = rep["interpolation_residual"]
    ok = interp < 1e-8 and held_dev < 1e-6
    assert emit(capsys, 5, "realization-roundtrip", ok, max(interp, held_dev),
                1e-6, t0, 60.0)
    assert interp < 1e-8


def test_6_mobius_identities(capsys):
    # involution, fixed values at 0 and at the center, and unitarity of the
    # associated colligation, over 100 random centers on loop-bearing graphs
    t0 = time.monotonic()
    rng = np.random.default_rng(60)
    w_invol = w_fix = w_coll = 0.0
    count = 0
    while count < 100:
        g = random_graph(rng, ensure_loop=True)
        raw = {name: rng.standard_normal() + 1j * rng.standard_normal()
               for name in g.loops()}
        n = dual_norm(g, raw)
        if n == 0.0:
            continue
        target = 0.2 + 0.6 * rng.random()
        gamma = make_central_point(g, {k: v * target / n for k, v in raw.items()})
        count += 1
        _, coll = mobius_colligation(gamma)
        w_coll = max(w_coll, coll["coisometry_residual"], coll["isometry_residual"])
        img0 = mobius_apply(gamma, zero_point(g))
        w_fix = max(w_fix, np.abs(img0.weights - gamma.weights).max(initial=0.0))
        back = mobius_apply(gamma, gamma)
        w_fix = max(w_fix, np.abs(back.weights).max(initial=0.0))
        for _ in range(2):
            p = random_point(g, rng, max_norm=0.8)
            pp = mobius_apply(gamma, mobius_apply(gamma, p))
            w_invol = max(w_invol, np.abs(pp.weights - p.weights).max(initial=0.0))
    ok = w_invol < 1e-10 and w_fix < 1e-12 and w_coll < 1e-11
    assert emit(capsys, 6, "mobius-identities", ok,
                max(w_invol, w_fix, w_coll), 1e-10, t0, 10.0)


def test_7_two_vertex_automorphism(capsys):
    # truncated automorphism images of the three generators, evaluated at
    # random points, against the Mobius matrix of the defect-operator
    # construction; the truncation error is covered by the geometric tail
    # of the loop series
    t0 = time.monotonic()
    g = two_vertex_example()
    rng = np.random.default_rng(70)
    worst = 0.0
    tail_ok = True
    for lam in (0.0, 0.3, 0.5 + 0.2j):
        gamma = make_central_point(g, {"g": lam})
        images = mobius_alpha(gamma, 25)
        assert images["f"].coeffs == {("f",): -1.0}
        for _ in range(10):
            p = random_point(g, rng, max_norm=0.8)
            lr = abs(lam) * p.norm
            env = (lr ** 25) / (1.0 - lr) if lr > 0 else 0.0
            M = mobius_matrix(gamma, p)
            devs = [abs(evaluate_poly(images[e.name], p)[g.vindex[e.dst], g.vindex[e.src]]
                        - M[g.vindex[e.dst], g.eindex[e.name]]) for e in g.edges]
            worst = max(worst, *devs)
            tail_ok = tail_ok and all(d <= env + 1e-12 for d in devs)
    ok = tail_ok and worst < 1e-7
    assert emit(capsys, 7, "two-vertex-automorphism", ok, worst, 1e-7, t0, 5.0)
    assert tail_ok


def test_8_kernel_ideal(capsys):
    # the commutator of the loop shift with the two-cycle, and random
    # two-sided multiples of it, vanish at every dual point
    t0 = time.monotonic()
    g = two_vertex_example()
    rng = np.random.default_rng(80)
    pts = [random_point(g, rng, max_norm=0.85) for _ in range(20)]
    rep = kernel_ideal_check(pts, rng=rng, n_multiples=10)
    ok = rep["passed"] and rep["max_abs"] < 1e-13
    assert emit(capsys, 8, "kernel-ideal", ok, rep["max_abs"], 1e-13, t0, 2.0)


def test_9_mobius_congruence_cp(capsys):
    # the paired-point congruence kernel stays CP when both legs of each
    # pair are related by the same Mobius motion
    t0 = time.monotonic()
    g = two_vertex_example()
    rng = np.random.default_rng(90)
    worst = np.inf
    ok = True
    for _ in range(20):
        lam = 0.6 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        gamma = make_central_point(g, {"g": lam})
        pts = [random_point(g, rng, max_norm=0.7) for _ in range(3)]
        rep = is_completely_positive(mobius_congruence_matrix(gamma, pts))
        ok = ok and rep["cp"]
        worst = min(worst, rep["worst_min_eig"])
    ok = ok and worst >= -1e-9
    assert emit(capsys, 9, "mobius-congruence-cp", ok, worst, -1e-9, t0, 10.0)
