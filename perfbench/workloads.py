"""Inputs, operation lists and oracles of the four benchmark workloads.

Every workload is built from its seed alone.  ``build(name, seed, root)``
returns a ``Workload``: a fixed list of operations, each with the library
call it times and an oracle that checks the call's output independently of
the library's own verdict where that is possible.  Operations call the
library through module attributes (``fock.cuntz_toeplitz_check``) so that
the tracer's wrappers see them; oracles use numpy or import-time
references, so their cost is the benchmark's own time, not a layer's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import Counter

import numpy as np

import graph_hardy as gh
from graph_hardy import cli, fock, mobius, pick_kernel, realization
from graph_hardy.realization import transfer_eval as _transfer_oracle

# The item-2 corpus of ROADMAP.md is defined by these seeds, independent of --seed.
CORPUS_SEEDS = range(100, 120)
CORPUS_K = (4, 10)

# Path count above which taylor_extract's per-path enumeration is not run
# deeper; one-vertex graphs with many loops would otherwise need millions.
TAYLOR_PATH_CAP = 2000


class Op:
    """One timed call.  ``call()`` returns the output, ``check(out)``
    returns None when the oracle accepts it or a reason string.
    ``known_errors`` are exceptions the library documents for numeric
    breakdown: the runner counts them as refusals, which lower ok_frac,
    not as failed operations."""

    __slots__ = ("kind", "call", "check", "known_errors")

    def __init__(self, kind, call, check, known_errors=()):
        self.kind = kind
        self.call = call
        self.check = check
        self.known_errors = known_errors


class Workload:
    def __init__(self, name, ops, warmup, sizes, fixtures=None):
        self.name = name
        self.ops = ops
        self.warmup = warmup          # indexes into ops, run once in setup
        self.sizes = sizes            # rows of the size table
        self.fixtures = fixtures or {}
        self.counts = Counter()       # cli.input_bytes / cli.report_bytes


def build(name, seed, root):
    if name == "fock-deep":
        return fock_deep(seed)
    if name == "kernel-wide":
        return kernel_wide(seed)
    if name == "realize-samples":
        return realize_samples(seed)
    if name == "cli-mix":
        return cli_mix(seed, root)
    raise ValueError("unknown workload %r" % (name,))


# ---------------------------------------------------------------------------
# shared input helpers

def complete_two_vertex():
    """Two vertices, both loops and both connecting edges: 2^(n+1) paths
    of length n, so the Fock dimension at truncation N is 2^(N+2) - 2."""
    return gh.Graph(["a", "b"], [("aa", "a", "a"), ("ab", "a", "b"),
                                 ("ba", "b", "a"), ("bb", "b", "b")])


def random_graph(rng, nv, ne, ensure_loop=False):
    """nv vertices and ne edges with uniform endpoints."""
    vertices = ["v%d" % i for i in range(nv)]
    edges = [("a%d" % j, vertices[int(rng.integers(nv))], vertices[int(rng.integers(nv))])
             for j in range(ne)]
    if ensure_loop and not any(s == d for _, s, d in edges):
        v = vertices[int(rng.integers(nv))]
        edges[0] = (edges[0][0], v, v)
    return gh.Graph(vertices, edges)


def path_counts(g, N):
    """Number of paths of each length 0..N, from powers of the adjacency matrix."""
    A = np.zeros((g.nv, g.nv), dtype=np.int64)
    for e in g.edges:
        A[g.vindex[e.dst], g.vindex[e.src]] += 1
    counts, M = [g.nv], np.eye(g.nv, dtype=np.int64)
    for _ in range(N):
        M = A @ M
        counts.append(int(M.sum()))
    return counts


def taylor_depth(g, cap=TAYLOR_PATH_CAP, N=8):
    counts = path_counts(g, N)
    while N > 1 and sum(counts[:N + 1]) > cap:
        N -= 1
    return N


def central_on_loops(g, rng, radius):
    loops = g.loops()
    raw = {e: rng.standard_normal() + 1j * rng.standard_normal() for e in loops}
    scale = radius * np.sqrt(rng.random()) / gh.dual_norm(g, raw)
    return gh.make_central_point(g, {e: w * scale for e, w in raw.items()})


def system_samples(g, rng, k, mmax, max_norm=0.8):
    s = gh.random_system(g, rng, mmax=mmax)
    pts = [gh.random_point(g, rng, max_norm=max_norm) for _ in range(k)]
    return s, pts, [_transfer_oracle(s, p) for p in pts]


def _graph_label(g, name):
    return {"graph": name, "nv": g.nv, "ne": g.ne}


def _expect_cp(rep):
    if not rep["cp"]:
        return "not CP (worst Choi eigenvalue %.3e)" % rep["worst_min_eig"]
    return None


# ---------------------------------------------------------------------------
# fock-deep

def fock_deep(seed):
    rng = np.random.default_rng(seed)
    g4 = complete_two_vertex()
    g2 = gh.two_vertex_example()
    # ARPACK's iteration count, hence the cost of a norm bound, depends on
    # the polynomial; six of them keep a pass's cost nearly seed-independent
    polys = [gh.random_poly(g2, rng, degree=2) for _ in range(6)]

    def ct_op(N):
        def check(rep):
            if rep["dim"] != 2 ** (N + 2) - 2 or rep["restricted_dim"] != 2 ** (N + 1) - 2:
                return "wrong Fock dimension %d" % rep["dim"]
            worst = max(rep["deviations"].values())
            if not (worst < 1e-12 and rep["passed"]):
                return "Cuntz-Toeplitz deviation %.3e" % worst
            return None
        return Op("cuntz_toeplitz_check", lambda: fock.cuntz_toeplitz_check(g4, N), check)

    def norm_ops(x):
        mags = [abs(c) for c in x.coeffs.values()]
        lo, hi = max(mags), sum(mags)
        chain = {}

        def check_bound(N, b):
            if not lo * (1 - 1e-12) <= b <= hi * (1 + 1e-12):
                return "norm bound %.6g outside [%.6g, %.6g]" % (b, lo, hi)
            prev = chain.get(N - 1)
            chain[N] = b
            # the compressions are nested, so the bound may not decrease in N;
            # 1e-10 relative allows for ARPACK's rounding, not for a real drop
            if prev is not None and b < prev * (1 - 1e-10):
                return "norm bound decreased from N=%d to N=%d" % (N - 1, N)
            return None

        ops = [Op("fock_norm_bound", lambda N=N: fock.fock_norm_bound(x, N),
                  lambda b, N=N: check_bound(N, b)) for N in range(9, 14)]

        def check_cert(out):
            y, b = out
            bad = check_bound(14, b)
            if bad:
                return bad
            s = 1.0 / (b * (1.0 + 1e-6))
            dev = max(abs(y.coeffs.get(p, 0j) - c * s) for p, c in x.coeffs.items())
            if dev > 1e-12 * (1 + hi) or max(abs(c) for c in y.coeffs.values()) > 1.0:
                return "certified rescaling is wrong (dev %.3e)" % dev
            return None
        ops.append(Op("certify_contraction", lambda: fock.certify_contraction(x, 14), check_cert))
        return ops

    ops = [ct_op(7)] + norm_ops(polys[0]) + [ct_op(8)] + norm_ops(polys[1]) + [ct_op(9)]
    for x in polys[2:]:
        ops += norm_ops(x)
    dims2 = np.cumsum(path_counts(g2, 14))
    sizes = [dict(_graph_label(g4, "complete-2v-4e"), group="cuntz_toeplitz_check",
                  N=N, dim=2 ** (N + 2) - 2, k=None, ops_per_pass=1) for N in (7, 8, 9)]
    sizes += [dict(_graph_label(g2, "two_vertex_example"),
                   group="fock_norm_bound" if N < 14 else "certify_contraction",
                   N=N, dim=int(dims2[N]), k=None, ops_per_pass=len(polys)) for N in range(9, 15)]
    # warm-up: one Cuntz-Toeplitz check, one dense and one ARPACK norm bound
    return Workload("fock-deep", ops, [0, 1, 2], sizes)


# ---------------------------------------------------------------------------
# kernel-wide

def classical_pick_instance(rng, k, feasible):
    """One-vertex, one-loop data z_i -> c_i.  Feasible data samples
    0.9 times a degree-2 Blaschke product; infeasible data then moves one
    value to modulus 1.05, which makes a diagonal Pick entry negative."""
    z = rng.uniform(0.05, 0.9, size=k) * np.exp(2j * np.pi * rng.random(k))
    a = rng.uniform(0.0, 0.9, size=2) * np.exp(2j * np.pi * rng.random(2))
    c = 0.9 * np.prod([(z - ai) / (1 - np.conj(ai) * z) for ai in a], axis=0)
    if not feasible:
        c[0] = 1.05 * (c[0] / abs(c[0]) if c[0] != 0 else 1.0)
    return z, c


def kernel_wide(seed):
    rng = np.random.default_rng(seed)
    g2 = gh.two_vertex_example()
    g5 = random_graph(rng, 5, 8, ensure_loop=True)
    g1 = gh.Graph(["u"], [("z", "u", "u")])
    _, p2, z2 = system_samples(g2, rng, 100, mmax=3)
    gamma2 = central_on_loops(g2, rng, 0.6)
    q2 = [gh.random_point(g2, rng, max_norm=0.7) for _ in range(100)]
    _, p5, z5 = system_samples(g5, rng, 60, mmax=2)
    gamma5 = central_on_loops(g5, rng, 0.6)
    q5 = [gh.random_point(g5, rng, max_norm=0.7) for _ in range(40)]
    eye2, eye5 = np.eye(2), np.eye(5)

    def feasible(rep):
        return None if rep["feasible"] else "feasible Pick data reported infeasible"

    ops = [
        Op("schur_class_check", lambda: pick_kernel.schur_class_check(p2, z2), _expect_cp),
        Op("pick_feasibility", lambda: pick_kernel.pick_feasibility(
            p2, [eye2] * 100, z2), feasible),
        Op("mobius_congruence_cp", lambda: pick_kernel.is_completely_positive(
            mobius.mobius_congruence_matrix(gamma2, q2)), _expect_cp),
        Op("schur_class_check", lambda: pick_kernel.schur_class_check(p5, z5), _expect_cp),
        Op("pick_feasibility", lambda: pick_kernel.pick_feasibility(
            p5[:50], [eye5] * 50, z5[:50]), feasible),
        Op("mobius_congruence_cp", lambda: pick_kernel.is_completely_positive(
            mobius.mobius_congruence_matrix(gamma5, q5)), _expect_cp),
    ]
    # one size, so the pooled median falls inside a group of like operations
    k = 16
    for i in range(20):
        want = i % 2 == 0
        z, c = classical_pick_instance(rng, k, want)
        pts = [gh.make_dual_point(g1, {"z": np.conj(zi)}) for zi in z]
        P = (1.0 - np.outer(c, np.conj(c))) / (1.0 - np.outer(z, np.conj(z)))
        eigs = np.linalg.eigvalsh(0.5 * (P + P.conj().T))
        oracle_ok = bool(eigs.min() >= -1e-9 * (1.0 + np.abs(eigs).max()))

        def check(rep, want=want, oracle_ok=oracle_ok, eigs=eigs):
            if rep["feasible"] != oracle_ok or oracle_ok != want:
                return "verdict %s, scalar Pick oracle %s, designed %s" % (
                    rep["feasible"], oracle_ok, want)
            if abs(rep["worst_min_eig"] - eigs.min()) > 1e-9 * (1.0 + np.abs(eigs).max()):
                return "minimum eigenvalue differs from the scalar Pick matrix"
            return None
        ops.append(Op("classical_pick", (lambda pts=pts, c=c: pick_kernel.pick_feasibility(
            pts, [1.0] * len(pts), list(c))), check))

    groups = ("schur_class_check", "pick_feasibility", "mobius_congruence_cp")
    sizes = [dict(_graph_label(g2, "two_vertex_example"), group=name, N=None, dim=None,
                  k=100, ops_per_pass=1) for name in groups]
    sizes += [dict(_graph_label(g5, "seeded 5v-8e"), group=name, N=None, dim=None,
                   k=kk, ops_per_pass=1) for name, kk in zip(groups, (60, 50, 40))]
    sizes.append(dict(_graph_label(g1, "one vertex, one loop"), group="classical_pick",
                      N=None, dim=None, k=k, ops_per_pass=20))
    return Workload("kernel-wide", ops, [3, 5, 6], sizes)


# ---------------------------------------------------------------------------
# realize-samples

def _realize_op(pts, vals, q1, q2, n_taylor, kind):
    scale = max(1.0, max(float(np.abs(z).max(initial=0.0)) for z in vals))

    def call():
        system, rep = realization.realize_from_samples(pts, vals, q1, q2)
        val = realization.validate_system(system)
        resid = realization.series_residual(system, pts[0], 40)
        taylor = realization.taylor_extract(system, n_taylor)
        return system, rep, val, resid, taylor

    def check(out):
        system, _, _, resid, taylor = out
        interp = max(float(np.abs(_transfer_oracle(system, p) - z).max(initial=0.0))
                     for p, z in zip(pts, vals))
        if interp > 1e-6 * (1.0 + scale):
            return "interpolation residual %.3e" % interp
        if len(taylor) != n_taylor + 1 or not np.isfinite(resid):
            return "malformed Taylor or series output"
        return None
    return Op(kind, call, check, known_errors=(gh.ConditioningError,))


def realize_samples(seed):
    rng = np.random.default_rng(seed)
    g2 = gh.two_vertex_example()
    ops, sizes = [], []
    # The pooled p90 falls among the random-graph realizations, whose cost
    # varies with the graph: 24 of them, with 3 vertices and 4 edges (cost
    # CV 0.22 over 60 graphs; with 5 edges it was 1.4), keep it steady
    for i in range(32):
        g = g2 if i < 8 else random_graph(rng, 3, 4)
        s, pts, vals = system_samples(g, rng, 12, mmax=3 if i < 8 else 2)
        n_taylor = taylor_depth(g)
        ops.append(_realize_op(pts, vals, list(s.q1), list(s.q2), n_taylor,
                               "realize_transfer_samples"))
        sizes.append(dict(_graph_label(g, "two_vertex_example" if i < 8 else "seeded 3v-4e"),
                          group="realize_transfer_samples", N=n_taylor, dim=None,
                          state_dim=s.h_dim(), k=12, ops_per_pass=1))
    # the corpus is fixed by its own seeds; its ConditioningErrors are the
    # known defect of ROADMAP item 2 and lower ok_frac, not hidden.  Points
    # are drawn in sequence, so the k = 4 points are the first 4 of the 10.
    all_v = list(g2.vertices)
    n2 = taylor_depth(g2)
    corpus = []
    for sd in CORPUS_SEEDS:
        rr = np.random.default_rng(sd)
        x, _ = gh.certify_contraction(gh.random_poly(g2, rr, degree=2), 9)
        pts = [gh.random_point(g2, rr, max_norm=0.8) for _ in range(max(CORPUS_K))]
        corpus.append((pts, [gh.evaluate_poly(x, p) for p in pts]))
    for k in CORPUS_K:
        for pts, vals in corpus:
            ops.append(_realize_op(pts[:k], vals[:k], all_v, all_v, n2, "realize_item2_corpus"))
        sizes.append(dict(_graph_label(g2, "two_vertex_example"), group="realize_item2_corpus",
                          N=n2, dim=None, k=k, ops_per_pass=len(CORPUS_SEEDS)))
    return Workload("realize-samples", ops, [0, 8, 32], sizes)


# ---------------------------------------------------------------------------
# cli-mix

def _c(z):
    return [float(np.real(z)), float(np.imag(z))]


def _mat(M):
    return [[_c(z) for z in row] for row in np.asarray(M)]


def _write(path, obj):
    data = (json.dumps(obj, sort_keys=True) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def cli_mix(seed, root):
    """Fixtures are written under perfbench/out/cli-fixtures/seed<seed>;
    reports quote these relative paths, so they repeat byte for byte.

    There are three seeded fixture sets.  The cheap commands run on all
    three and the k = 40 ones on two, so that the pooled p50 falls among
    the millisecond commands and the p90 among the k = 40 ones, not on an
    edge between groups of very different cost."""
    rng = np.random.default_rng(seed)
    g2 = gh.two_vertex_example()
    rel = os.path.join("perfbench", "out", "cli-fixtures", "seed%d" % seed)
    os.makedirs(os.path.join(root, rel), exist_ok=True)
    fixtures = {}

    def fx(name, obj):
        path = os.path.join(rel, name)
        fixtures[name] = _write(os.path.join(root, path), obj)
        return path

    graph2 = fx("graph2.json", gh.graph_to_dict(g2))
    graph4 = fx("graph4.json", gh.graph_to_dict(complete_two_vertex()))
    commands = [
        (["validate-graph", "--graph", graph2], 0),
        (["validate-graph", "--graph", graph4], 0),
        (["fock-check", "--graph", graph4, "--N", "8"], 0),
        (["autom-demo"], 0),
    ]
    for i in range(3):
        poly = fx("poly%d.json" % i, gh.poly_to_terms(gh.random_poly(g2, rng, degree=3)))
        point = fx("point%d.json" % i, gh.point_to_dict(gh.random_point(g2, rng, max_norm=0.8)))
        gamma = fx("gamma%d.json" % i, gh.central_to_dict(central_on_loops(g2, rng, 0.6)))
        phases = {e.name: np.exp(2j * np.pi * rng.random()) for e in g2.edges}
        unitary = fx("unitary%d.json" % i, gh.unitary_to_dict(gh.diagonal_unitary(g2, phases)))
        system = fx("system%d.json" % i, gh.system_to_dict(gh.random_system(g2, rng, mmax=3)))
        commands += [
            (["eval", "--graph", graph2, "--poly", poly, "--point", point], 0),
            (["eval", "--graph", graph2, "--poly", poly, "--point", point,
              "--gamma", gamma, "--unitary", unitary], 0),
            (["transfer", "--graph", graph2, "--system", system, "--point", point,
              "--N", "40"], 0),
            (["mobius", "--graph", graph2, "--gamma", gamma, "--point", point], 0),
        ]
        if i == 2:
            continue
        _, p40, z40 = system_samples(g2, rng, 40, mmax=3)
        pts = [gh.point_to_dict(p) for p in p40]
        pick_ok = fx("pick_ok%d.json" % i, {"points": pts, "C": [_mat(z) for z in z40]})
        # C_0 = 1.5 I makes the (0, 0) Pick block -1.25 R_00, so exit 1 is certain
        bad = [_mat(1.5 * np.eye(2))] + [_mat(z) for z in z40[1:]]
        pick_bad = fx("pick_bad%d.json" % i, {"points": pts, "C": bad})
        schur = fx("schur%d.json" % i, {"points": pts, "values": [_mat(z) for z in z40]})
        s8, p8, z8 = system_samples(g2, rng, 8, mmax=3)
        samples = fx("realize%d.json" % i, {"points": [gh.point_to_dict(p) for p in p8],
                                            "values": [_mat(z) for z in z8],
                                            "q1": list(s8.q1), "q2": list(s8.q2)})
        commands += [
            (["pick", "--graph", graph2, "--points", pick_ok], 0),
            (["pick", "--graph", graph2, "--points", pick_bad], 1),
            (["schur-check", "--graph", graph2, "--points", schur], 0),
            (["realize", "--graph", graph2, "--points", samples], 0),
        ]

    work = Workload("cli-mix", [], [], [], fixtures)
    for argv, expect in commands:
        work.ops.append(_cli_op(work, root, argv, expect))
    work.warmup = list(range(len(work.ops)))
    two = _graph_label(g2, "two_vertex_example")
    work.sizes = [
        dict(_graph_label(complete_two_vertex(), "complete-2v-4e"), group="fock-check",
             N=8, dim=2 ** 10 - 2, k=None, ops_per_pass=1),
        dict(two, group="pick / pick (infeasible, exit 1) / schur-check", N=None, dim=None,
             k=40, ops_per_pass=6),
        dict(two, group="realize", N=None, dim=None, k=8, ops_per_pass=2),
        dict(two, group="transfer", N=40, dim=None, k=1, ops_per_pass=3),
        dict(two, group="autom-demo (defaults)", N=25, dim=None, k=10, ops_per_pass=1),
        dict(two, group="eval / eval pullback / mobius", N=None, dim=None, k=1,
             ops_per_pass=9),
        dict(two, group="validate-graph (both graphs)", N=None, dim=None, k=None,
             ops_per_pass=2),
    ]
    return work


def _cli_op(work, root, argv, expect):
    in_bytes = sum(os.path.getsize(os.path.join(root, a)) for a in argv
                   if a.endswith(".json"))
    reference = {}

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        report = out.getvalue()
        work.counts["cli.input_bytes"] += in_bytes
        work.counts["cli.report_bytes"] += len(report.encode())
        return code, report, err.getvalue()

    def check(out):
        code, report, err = out
        if code != expect:
            return "exit %s, expected %d: %s" % (code, expect, err.strip()[:200])
        if err:
            return "unexpected stderr: %s" % err.strip()[:200]
        first = reference.setdefault("report", report)
        if report != first:
            return "report bytes differ from the first run in this process"
        if json.loads(report).get("passed") != (expect == 0):
            return "report 'passed' disagrees with the exit code"
        return None
    return Op("cli " + argv[0] + (" pullback" if "--gamma" in argv and argv[0] == "eval" else ""),
              call, check)
