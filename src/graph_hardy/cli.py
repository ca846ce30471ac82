"""Command line front end.

Subcommands: validate-graph, fock-check, eval, pick, schur-check,
transfer, realize, mobius, autom-demo.  Every command reads JSON inputs
and emits one JSON report, to --out if given, else stdout; realize
writes its system matrix to --out and every report to stdout.

Report frame: _command declares each subcommand and its options once,
and the subcommand's function returns only its own report fields,
"passed" included.  main builds the rest.  It reads --graph and hands
the function a reader that parses each further input file and records
its path and sha256.  The report gets "command", then "inputs" for the
subcommands that take --graph (all but autom-demo), then "tol" for
those that take --tol (all but validate-graph and eval).  eval --unitary U
without --gamma composes with g_0 = -id: it gives the gauge pullback of -U.

Exit codes: 0 when "passed" is true; 1 when it is false, or when
realize finds the data infeasible; 2 on malformed input, a negative --N
or a NaN or infinite JSON number included, with "input error: ..." on
stderr and no report (argparse exits 2 too on a bad option, a --tol that
is negative or not finite included); 3 when the numerics break down on
valid input (ConditioningError, from realize, or from mobius, eval
--gamma and autom-demo at a central point next to the boundary).  These
two failures print a report of only "command", "passed", "error" and "kind"
("infeasible" or "conditioning").  Reports embed the worst residual
observed and are byte-identical across runs for the same inputs;
autom-demo draws its points from --seed, the only option that takes a
seed.

Only fock-check loads scipy (for its sparse creation matrices); the
other subcommands run on numpy alone, so their processes never pay for
importing scipy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from .graph_core import (
    _complex_from_json,
    _complex_to_json,
    build_graph,
    fullness_flags,
    two_vertex_example,
)
from .fock import cuntz_toeplitz_check, poly_from_terms
from .dual_eval import evaluate_poly, point_from_dict, random_point, zero_point
from .pick_kernel import StructuralError, pick_feasibility, schur_class_check
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
from .mobius import CentralPoint, central_from_dict, mobius_apply, mobius_colligation
from .automorphism import (
    identity_unitary,
    kernel_ideal_check,
    mobius_alpha,
    pullback_evaluate,
    unitary_from_dict,
)

_COMMANDS = []


def _command(name, help, tol=1e-9, graph=True,
             out="write the JSON report here instead of stdout", **options):
    """Declare subcommand `name`, run as func(args, g, read) by main.

    graph: whether it takes --graph (g is then the graph, else None).
    tol: the default of its --tol, or None for no --tol.  out: the help
    of --out.  Every other keyword declares the option --<keyword> with
    those argparse settings.  read(name) parses the JSON file named by
    --<name> and records it in the report's "inputs".
    """
    def register(func):
        _COMMANDS.append((name, func, help, graph, tol, out, options))
        return func
    return register


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _max_abs(a):
    return float(np.abs(a).max(initial=0.0))


def _points(g, read):
    """The --points file and the dual points listed under its "points" key."""
    data = read("points")
    return data, [point_from_dict(g, d) for d in data["points"]]


def _cp_fields(rep):
    return {"blocks": rep["blocks"], "worst_residual": max(0.0, -rep["worst_min_eig"]),
            "passed": rep["cp"]}


# ---------------------------------------------------------------------------
# commands

@_command("validate-graph", "structural checks and fullness flags", tol=None)
def cmd_validate_graph(args, g, read):
    is_full, left_faithful = fullness_flags(g)
    return {
        "vertices": list(g.vertices),
        "edges": [[e.name, e.src, e.dst] for e in g.edges],
        "loops": list(g.loops()),
        "is_full": is_full,
        "left_faithful": left_faithful,
        "sources_missing": [v for v in g.vertices if not g.out_edges(v)],
        "passed": True,
    }


@_command("fock-check", "compressed Cuntz-Toeplitz relations", tol=1e-12,
          N=dict(type=int, default=4, help="truncation length (>= 2)"))
def cmd_fock_check(args, g, read):
    rep = cuntz_toeplitz_check(g, args.N, tol=args.tol)
    return {"N": args.N, "deviations": rep["deviations"], "worst_residual": rep["max_deviation"],
            "dim": rep["dim"], "passed": rep["passed"]}


@_command("eval", "evaluate a polynomial at a dual point", tol=None,
          poly=dict(required=True, help="polynomial JSON file"),
          point=dict(required=True, help="dual point JSON file"),
          gamma=dict(help="central point JSON: evaluate the Mobius pullback"),
          unitary=dict(help="bimodule unitary JSON U: gauge pullback composed with the Mobius "
                            "map of --gamma, else with g_0 = -id (pass -U for the pure pullback)"))
def cmd_eval(args, g, read):
    x = poly_from_terms(g, read("poly"))
    point = point_from_dict(g, read("point"), allow_boundary=True)
    if args.gamma or args.unitary:
        gamma = central_from_dict(g, read("gamma")) if args.gamma else None
        unitary = unitary_from_dict(g, read("unitary")) if args.unitary else identity_unitary(g)
        value, mode = pullback_evaluate(gamma, unitary, x, point), "pullback"
    else:
        value, mode = evaluate_poly(x, point), "direct"
    return {"mode": mode, "point_norm": point.norm, "value": _complex_to_json(value),
            "value_max_abs": _max_abs(value), "passed": True}


@_command("pick", "feasibility of left-tangential interpolation B_i X(eta_i*) = C_i",
          points=dict(required=True, help='JSON file {"points": [...], "B": [...], "C": [...]}'))
def cmd_pick(args, g, read):
    data, pts = _points(g, read)
    B = _complex_from_json(data["B"], ndim=3) if "B" in data else [np.eye(g.nv)] * len(pts)
    C = _complex_from_json(data["C"], ndim=3)
    rep = pick_feasibility(pts, B, C, tol=args.tol)
    return dict(_cp_fields(rep), feasible=rep["feasible"])


@_command("schur-check", "CP test of the Schur kernel for samples",
          points=dict(required=True, help='JSON file {"points": [...], "values": [...]}'))
def cmd_schur_check(args, g, read):
    data, pts = _points(g, read)
    values = _complex_from_json(data["values"], ndim=3)
    return _cp_fields(schur_class_check(pts, values, tol=args.tol))


@_command("transfer", "validate a system and evaluate its transfer",
          system=dict(required=True, help="system matrix JSON file"),
          point=dict(required=True, help="dual point JSON file"),
          N=dict(type=int, default=40, help="partial-sum degree for the residual"))
def cmd_transfer(args, g, read):
    s = system_from_dict(g, read("system"))
    point = point_from_dict(g, read("point"))  # inside the open ball
    val = validate_system(s, tol=args.tol)
    value = transfer_eval(s, point)
    resid = series_residual(s, point, args.N)
    tail = point.norm ** (args.N + 1) / (1.0 - point.norm)
    return {"N": args.N, "validation": val, "value": _complex_to_json(value),
            "series_residual": resid, "tail_bound": tail,
            "worst_residual": max(val["coisometry_residual"], resid),
            "passed": bool(val["passed"] and resid <= tail + 1e-12)}


@_command("realize", "build a system matrix from samples",
          out="write the system matrix JSON here; the report always goes to stdout",
          points=dict(required=True, help='JSON file {"points": [...], "values": [...], '
                                          '"q1": [...], "q2": [...]}'),
          q1=dict(help="comma separated input vertices (overrides the file)"),
          q2=dict(help="comma separated output vertices (overrides the file)"))
def cmd_realize(args, g, read):
    data, pts = _points(g, read)
    values = _complex_from_json(data["values"], ndim=3)
    q1 = args.q1.split(",") if args.q1 else data.get("q1", list(g.vertices))
    q2 = args.q2.split(",") if args.q2 else data.get("q2", list(g.vertices))
    system, rep = realize_from_samples(pts, values, q1, q2, tol=args.tol)
    sdict = system_to_dict(system)
    if args.out:
        _emit(sdict, args.out)
    keep = ("multiplicities", "gram_ranks", "padding", "padding_feasible", "class", "norm",
            "coisometry_residual", "interpolation_residual")
    # realize_from_samples raises ConditioningError on samples it misses, so
    # the interpolation is within its bound here; passed does not mean coisometric
    return dict({k: rep[k] for k in keep}, worst_residual=rep["interpolation_residual"],
                system_written_to=args.out, system=None if args.out else sdict,
                passed=bool(rep["norm"] <= 1.0 + args.tol))


@_command("mobius", "Mobius involution and its colligation",
          gamma=dict(required=True, help="central point JSON file"),
          point=dict(help="optional dual point to move"))
def cmd_mobius(args, g, read):
    gamma = central_from_dict(g, read("gamma"))
    _, coll = mobius_colligation(gamma)
    pts = [zero_point(g), gamma] + ([point_from_dict(g, read("point"))] if args.point else [])
    images = [mobius_apply(gamma, p) for p in pts]
    fixed_dev = _max_abs(images[0].weights - gamma.weights)
    zero_dev = _max_abs(images[1].weights)
    report = {"colligation": coll, "g_at_zero_vs_gamma": fixed_dev,
              "g_at_gamma_vs_zero": zero_dev}
    worst = max(coll["coisometry_residual"], coll["isometry_residual"], fixed_dev, zero_dev)
    if args.point:
        point, moved = pts[2], images[2]
        invol = _max_abs(mobius_apply(gamma, moved).weights - point.weights)
        report.update(image_weights={e.name: _complex_to_json(w)
                                     for e, w in zip(g.edges, moved.weights)},
                      image_norm=moved.norm, involution_residual=invol)
        worst = max(worst, invol)
    return dict(report, worst_residual=worst, passed=bool(worst < args.tol))


@_command("autom-demo", "two-vertex automorphism consistency demo", tol=1e-7, graph=False,
          lam=dict(default="0.5", help="loop weight lambda (complex literal)"),
          N=dict(type=int, default=25), npoints=dict(type=int, default=10),
          seed=dict(type=int, default=0))
def cmd_autom_demo(args, g, read):
    g = two_vertex_example()
    lam = complex(args.lam)
    if not abs(lam) < 1.0:  # NaN fails too
        raise ValueError("|lambda| must be < 1")
    gamma = CentralPoint(g, {"g": lam})
    rng = np.random.default_rng(args.seed)
    images = mobius_alpha(gamma, args.N)
    worst = 0.0
    per_point = []
    pts = [random_point(g, rng, max_norm=0.7) for _ in range(args.npoints)]
    for pt in pts:
        moved = mobius_apply(gamma, pt)
        dev = max(abs(evaluate_poly(images[e.name], pt)[g.vindex[e.dst], g.vindex[e.src]]
                      - np.conj(moved.weight(e.name)))
                  for e in g.edges)
        worst = max(worst, dev)
        per_point.append({"norm": pt.norm, "dev": dev})
    ideal = kernel_ideal_check(pts, rng=rng)
    return {"lambda": _complex_to_json(lam), "N": args.N, "seed": args.seed,
            "points": per_point, "worst_residual": worst, "kernel_ideal": ideal,
            "passed": bool(worst < args.tol and ideal["passed"])}


# ---------------------------------------------------------------------------

def _tolerance(text):
    """The --tol type: a finite float >= 0."""
    tol = float(text)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError("must be finite and >= 0, got %r" % text)
    return tol


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="graph-hardy",
        description="Hardy algebra of a finite directed graph: Fock shifts, "
                    "dual-ball evaluation, Pick interpolation, realization.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, func, help, graph, tol, out, options in _COMMANDS:
        p = sub.add_parser(name, help=help)
        if graph:
            p.add_argument("--graph", required=True, help="graph JSON file")
        if tol is not None:
            p.add_argument("--tol", type=_tolerance, default=tol)
        p.add_argument("--out", help=out)
        for option, settings in options.items():
            p.add_argument("--" + option, **settings)
        p.set_defaults(func=func)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    # realize's --out receives the system matrix, so its reports go to stdout
    report_to = None if args.command == "realize" else args.out
    report = {"command": args.command}
    inputs = {}

    def read(name):
        path = getattr(args, name)
        with open(path, "rb") as fh:
            raw = fh.read()
        inputs[name] = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
        return json.loads(raw.decode("utf-8"))

    try:
        g = None
        if "graph" in args:
            g = build_graph(read("graph"))
            report["inputs"] = inputs
        if "tol" in args:
            report["tol"] = args.tol
        report.update(args.func(args, g, read))
    except (FeasibilityError, ConditioningError) as exc:
        infeasible = isinstance(exc, FeasibilityError)
        _emit({"command": args.command, "passed": False, "error": str(exc),
               "kind": "infeasible" if infeasible else "conditioning"}, report_to)
        return 1 if infeasible else 3
    except (StructuralError, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 2
    _emit(report, report_to)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
