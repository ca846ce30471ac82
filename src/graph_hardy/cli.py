"""Command line front end.

Subcommands: validate-graph, fock-check, eval, pick, schur-check,
transfer, realize, mobius, autom-demo.  Every command reads JSON inputs,
emits a JSON report (to --out if given, else stdout; realize writes its
system matrix to --out and every report to stdout), and exits 0 when the
requested check passes, 1 when the mathematics fails (infeasible data,
violated relations), 2 on malformed input, and 3 when the numerics break
down on valid input (realize's ConditioningError, reported with kind
"conditioning").  Reports embed the tolerances used, the worst residual
observed, and a sha256 of every input file, and are byte-identical
across runs for the same inputs; autom-demo draws its points from
--seed, the only option that takes a seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from .graph_core import (
    GraphError,
    _complex_from_json,
    _complex_to_json,
    build_graph,
    fullness_flags,
    two_vertex_example,
)
from .fock import cuntz_toeplitz_check, poly_from_terms
from .dual_eval import (
    BoundaryError,
    evaluate_poly,
    make_dual_point,
    point_from_dict,
    random_point,
)
from .pick_kernel import (
    StructuralError,
    is_completely_positive,
    pick_map_matrix,
    schur_kernel_matrix,
)
from .realization import (
    FeasibilityError,
    ConditioningError,
    realize_from_samples,
    series_residual,
    system_from_dict,
    system_to_dict,
    transfer_eval,
    validate_system,
)
from .mobius import central_from_dict, mobius_apply, mobius_colligation
from .automorphism import (
    identity_unitary,
    kernel_ideal_check,
    pullback_evaluate,
    tau_lambda_matrix,
    two_vertex_alpha_lambda,
    unitary_from_dict,
)


def _read_input(path, name, inputs):
    """Parse the JSON file at path and record its path and sha256 as inputs[name]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    inputs[name] = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
    return json.loads(raw.decode("utf-8"))


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_graph_arg(args, inputs):
    return build_graph(_read_input(args.graph, "graph", inputs))


def _load_points_arg(args, g, inputs):
    """The --points file and the dual points listed under its "points" key."""
    data = _read_input(args.points, "points", inputs)
    return data, [point_from_dict(g, d) for d in data["points"]]


# ---------------------------------------------------------------------------
# commands

def cmd_validate_graph(args):
    inputs = {}
    g = _load_graph_arg(args, inputs)
    is_full, left_faithful = fullness_flags(g)
    report = {
        "command": "validate-graph",
        "inputs": inputs,
        "vertices": list(g.vertices),
        "edges": [[e.name, e.src, e.dst] for e in g.edges],
        "loops": list(g.loops()),
        "is_full": is_full,
        "left_faithful": left_faithful,
        "sources_missing": [v for v in g.vertices if not g.out_edges(v)],
        "passed": True,
    }
    return report, True


def cmd_fock_check(args):
    inputs = {}
    g = _load_graph_arg(args, inputs)
    rep = cuntz_toeplitz_check(g, args.N, tol=args.tol)
    report = {
        "command": "fock-check",
        "inputs": inputs,
        "tol": args.tol,
        "N": args.N,
        "deviations": rep["deviations"],
        "worst_residual": rep["max_deviation"],
        "dim": rep["dim"],
        "passed": rep["passed"],
    }
    return report, rep["passed"]


def cmd_eval(args):
    inputs = {}
    g = _load_graph_arg(args, inputs)
    x = poly_from_terms(g, _read_input(args.poly, "poly", inputs))
    point = point_from_dict(g, _read_input(args.point, "point", inputs), allow_boundary=True)
    if args.gamma or args.unitary:
        if args.gamma:
            gamma = central_from_dict(g, _read_input(args.gamma, "gamma", inputs))
        else:
            gamma = None
        if args.unitary:
            unitary = unitary_from_dict(g, _read_input(args.unitary, "unitary", inputs))
        else:
            unitary = identity_unitary(g)
        value = pullback_evaluate(gamma, unitary, x, point)
        mode = "pullback"
    else:
        value = evaluate_poly(x, point)
        mode = "direct"
    report = {
        "command": "eval",
        "inputs": inputs,
        "mode": mode,
        "point_norm": point.norm,
        "value": _complex_to_json(value),
        "value_max_abs": float(np.abs(value).max(initial=0.0)),
        "passed": True,
    }
    return report, True


def cmd_pick(args):
    inputs = {}
    g = _load_graph_arg(args, inputs)
    data, pts = _load_points_arg(args, g, inputs)
    B = _complex_from_json(data["B"], ndim=3) if "B" in data else [np.eye(g.nv)] * len(pts)
    C = _complex_from_json(data["C"], ndim=3)
    rep = is_completely_positive(pick_map_matrix(pts, B, C), tol=args.tol)
    report = {
        "command": "pick",
        "inputs": inputs,
        "tol": args.tol,
        "blocks": rep["blocks"],
        "worst_residual": max(0.0, -rep["worst_min_eig"]),
        "feasible": rep["cp"],
        "passed": rep["cp"],
    }
    return report, rep["cp"]


def cmd_schur_check(args):
    inputs = {}
    g = _load_graph_arg(args, inputs)
    data, pts = _load_points_arg(args, g, inputs)
    values = _complex_from_json(data["values"], ndim=3)
    rep = is_completely_positive(schur_kernel_matrix(pts, values), tol=args.tol)
    report = {
        "command": "schur-check",
        "inputs": inputs,
        "tol": args.tol,
        "blocks": rep["blocks"],
        "worst_residual": max(0.0, -rep["worst_min_eig"]),
        "passed": rep["cp"],
    }
    return report, rep["cp"]


def cmd_transfer(args):
    inputs = {}
    g = _load_graph_arg(args, inputs)
    s = system_from_dict(g, _read_input(args.system, "system", inputs))
    point = point_from_dict(g, _read_input(args.point, "point", inputs))
    val = validate_system(s, tol=args.tol)
    value = transfer_eval(s, point)
    resid = series_residual(s, point, args.N)
    tail = point.norm ** (args.N + 1) / (1.0 - point.norm) if point.norm < 1 else np.inf
    ok = bool(val["passed"] and resid <= tail + 1e-12)
    report = {
        "command": "transfer",
        "inputs": inputs,
        "tol": args.tol,
        "N": args.N,
        "validation": val,
        "value": _complex_to_json(value),
        "series_residual": resid,
        "tail_bound": tail,
        "worst_residual": max(val["coisometry_residual"], resid),
        "passed": ok,
    }
    return report, ok


def cmd_realize(args):
    inputs = {}
    g = _load_graph_arg(args, inputs)
    data, pts = _load_points_arg(args, g, inputs)
    values = _complex_from_json(data["values"], ndim=3)
    q1 = args.q1.split(",") if args.q1 else data.get("q1", list(g.vertices))
    q2 = args.q2.split(",") if args.q2 else data.get("q2", list(g.vertices))
    system, rep = realize_from_samples(pts, values, q1, q2, tol=args.tol)
    sdict = system_to_dict(system)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(sdict, indent=2, sort_keys=True) + "\n")
    report = {
        "command": "realize",
        "inputs": inputs,
        "tol": args.tol,
        "multiplicities": rep["multiplicities"],
        "gram_ranks": rep["gram_ranks"],
        "padding": rep["padding"],
        "padding_feasible": rep["padding_feasible"],
        "coisometry_residual": rep["coisometry_residual"],
        "interpolation_residual": rep["interpolation_residual"],
        "worst_residual": rep["interpolation_residual"],
        "system_written_to": args.out,
        "system": None if args.out else sdict,
        "passed": True,
    }
    return report, True


def cmd_mobius(args):
    inputs = {}
    g = _load_graph_arg(args, inputs)
    gamma = central_from_dict(g, _read_input(args.gamma, "gamma", inputs))
    _, coll = mobius_colligation(gamma)
    from .dual_eval import zero_point
    img_zero = mobius_apply(gamma, zero_point(g))
    fixed_dev = float(np.abs(img_zero.weights - gamma.weights).max(initial=0.0))
    back = mobius_apply(gamma, gamma.as_dual_point())
    zero_dev = float(np.abs(back.weights).max(initial=0.0))
    report = {
        "command": "mobius",
        "inputs": inputs,
        "tol": args.tol,
        "colligation": coll,
        "g_at_zero_vs_gamma": fixed_dev,
        "g_at_gamma_vs_zero": zero_dev,
    }
    worst = max(coll["coisometry_residual"], coll["isometry_residual"], fixed_dev, zero_dev)
    if args.point:
        point = point_from_dict(g, _read_input(args.point, "point", inputs))
        moved = mobius_apply(gamma, point)
        twice = mobius_apply(gamma, moved)
        invol = float(np.abs(twice.weights - point.weights).max(initial=0.0))
        report["image_weights"] = {e.name: _complex_to_json(w)
                                   for e, w in zip(g.edges, moved.weights)}
        report["image_norm"] = moved.norm
        report["involution_residual"] = invol
        worst = max(worst, invol)
    ok = bool(worst < args.tol)
    report["worst_residual"] = worst
    report["passed"] = ok
    return report, ok


def cmd_autom_demo(args):
    g = two_vertex_example()
    lam = complex(args.lam)
    rng = np.random.default_rng(args.seed)
    te, tf, tg = two_vertex_alpha_lambda(lam, args.N, g)
    worst = 0.0
    per_point = []
    pts = [random_point(g, rng, max_norm=0.7) for _ in range(args.npoints)]
    for pt in pts:
        tau = tau_lambda_matrix(lam, pt)
        dev_e = abs(evaluate_poly(te, pt)[g.vindex["w"], g.vindex["v"]]
                    - tau[g.vindex["w"], g.eindex["e"]])
        dev_f = abs(evaluate_poly(tf, pt)[g.vindex["v"], g.vindex["w"]]
                    - tau[g.vindex["v"], g.eindex["f"]])
        dev_g = abs(evaluate_poly(tg, pt)[g.vindex["w"], g.vindex["w"]]
                    - tau[g.vindex["w"], g.eindex["g"]])
        worst = max(worst, dev_e, dev_f, dev_g)
        per_point.append({"norm": pt.norm, "dev": max(dev_e, dev_f, dev_g)})
    ideal = kernel_ideal_check(pts, rng=rng)
    ok = bool(worst < args.tol and ideal["passed"])
    report = {
        "command": "autom-demo",
        "lambda": [lam.real, lam.imag],
        "N": args.N,
        "seed": args.seed,
        "tol": args.tol,
        "points": per_point,
        "worst_residual": worst,
        "kernel_ideal": ideal,
        "passed": ok,
    }
    return report, ok


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="graph-hardy",
        description="Hardy algebra of a finite directed graph: Fock shifts, "
                    "dual-ball evaluation, Pick interpolation, realization.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, graph=True, tol=1e-9, out="write the JSON report here instead of stdout"):
        if graph:
            p.add_argument("--graph", required=True, help="graph JSON file")
        p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--out", help=out)

    p = sub.add_parser("validate-graph", help="structural checks and fullness flags")
    common(p)
    p.set_defaults(func=cmd_validate_graph)

    p = sub.add_parser("fock-check", help="compressed Cuntz-Toeplitz relations")
    common(p, tol=1e-12)
    p.add_argument("--N", type=int, default=4, help="truncation length (>= 2)")
    p.set_defaults(func=cmd_fock_check)

    p = sub.add_parser("eval", help="evaluate a polynomial at a dual point")
    common(p)
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--point", required=True, help="dual point JSON file")
    p.add_argument("--gamma", help="central point JSON: evaluate the Mobius pullback")
    p.add_argument("--unitary", help="bimodule unitary JSON: evaluate the gauge pullback")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pick", help="feasibility of constrained interpolation")
    common(p)
    p.add_argument("--points", required=True,
                   help='JSON file {"points": [...], "B": [...], "C": [...]}')
    p.set_defaults(func=cmd_pick)

    p = sub.add_parser("schur-check", help="CP test of the Schur kernel for samples")
    common(p)
    p.add_argument("--points", required=True,
                   help='JSON file {"points": [...], "values": [...]}')
    p.set_defaults(func=cmd_schur_check)

    p = sub.add_parser("transfer", help="validate a system and evaluate its transfer")
    common(p)
    p.add_argument("--system", required=True, help="system matrix JSON file")
    p.add_argument("--point", required=True, help="dual point JSON file")
    p.add_argument("--N", type=int, default=40, help="partial-sum degree for the residual")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("realize", help="build a system matrix from samples")
    common(p, out="write the system matrix JSON here; the report always goes to stdout")
    p.add_argument("--points", required=True,
                   help='JSON file {"points": [...], "values": [...], "q1": [...], "q2": [...]}')
    p.add_argument("--q1", help="comma separated input vertices (overrides the file)")
    p.add_argument("--q2", help="comma separated output vertices (overrides the file)")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("mobius", help="Mobius involution and its colligation")
    common(p)
    p.add_argument("--gamma", required=True, help="central point JSON file")
    p.add_argument("--point", help="optional dual point to move")
    p.set_defaults(func=cmd_mobius)

    p = sub.add_parser("autom-demo", help="two-vertex automorphism consistency demo")
    p.add_argument("--lam", default="0.5", help="loop weight lambda (complex literal)")
    p.add_argument("--N", type=int, default=25)
    p.add_argument("--npoints", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_autom_demo)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    # realize's --out receives the system matrix, so its reports go to stdout
    report_to = None if args.command == "realize" else args.out
    try:
        report, passed = args.func(args)
    except (FeasibilityError, ConditioningError) as exc:
        infeasible = isinstance(exc, FeasibilityError)
        _emit({"command": args.command, "passed": False, "error": str(exc),
               "kind": "infeasible" if infeasible else "conditioning"}, report_to)
        return 1 if infeasible else 3
    except (GraphError, BoundaryError, StructuralError,
            OSError, KeyError, IndexError, TypeError, ValueError,
            json.JSONDecodeError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 2
    _emit(report, report_to)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
