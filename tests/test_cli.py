"""End-to-end checks of the command line front end (in-process)."""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graph_hardy
from graph_hardy import (
    Graph,
    HardyPoly,
    SystemMatrix,
    central_to_dict,
    diagonal_unitary,
    evaluate_poly,
    graph_to_dict,
    make_central_point,
    make_dual_point,
    mobius_apply,
    point_to_dict,
    poly_to_terms,
    random_point,
    random_system,
    system_from_dict,
    system_to_dict,
    transfer_eval,
    two_vertex_example,
    unitary_to_dict,
)
from graph_hardy import realization
from graph_hardy.cli import build_parser, main
from conftest import corpus_samples, random_graph


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def graph_file(tmp_path):
    return write_json(tmp_path / "graph.json", graph_to_dict(two_vertex_example()))


@pytest.fixture
def loop_file(tmp_path):
    g = Graph(["u"], [("z", "u", "u")])
    return write_json(tmp_path / "loop.json", graph_to_dict(g))


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_validate_graph(capsys, graph_file):
    code, rep, _ = run_cli(capsys, ["validate-graph", "--graph", graph_file])
    assert code == 0
    assert rep["passed"]
    assert rep["vertices"] == ["v", "w"]
    assert rep["loops"] == ["g"]
    assert rep["is_full"] and rep["left_faithful"]
    assert len(rep["inputs"]["graph"]["sha256"]) == 64


def test_validate_graph_bad_inputs(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["validate-graph", "--graph",
                                    str(tmp_path / "missing.json")])
    assert code == 2 and "input error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate-graph", "--graph", str(bad)]) == 2
    capsys.readouterr()
    dangling = write_json(tmp_path / "dangling.json", {
        "vertices": ["v"], "edges": [{"name": "e", "src": "v", "dst": "x"}]})
    assert main(["validate-graph", "--graph", dangling]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag, payload", [
    ("--point", {"weights": [0.1, 0.2, 0.3]}),
    ("--gamma", {"loops": [0.1]}),
    ("--system", {"multiplicities": {"u": 1}, "q1": ["u"], "q2": ["u"], "A": [0.6]}),
], ids=["eval-point-weights-list", "mobius-gamma-loops-list", "transfer-system-A-list"])
def test_non_object_json_is_input_error(capsys, tmp_path, loop_file, flag, payload):
    # a JSON value of the wrong shape where an object is required is
    # malformed input (exit 2), not failed mathematics and not a traceback
    g = Graph(["u"], [("z", "u", "u")])
    bad = write_json(tmp_path / "bad.json", payload)
    poly = write_json(tmp_path / "poly.json", poly_to_terms(HardyPoly(g, {"u": 1.0})))
    point = write_json(tmp_path / "pt.json", point_to_dict(make_dual_point(g, {"z": 0.3})))
    argv = {"--point": ["eval", "--poly", poly, "--point", bad],
            "--gamma": ["mobius", "--gamma", bad],
            "--system": ["transfer", "--system", bad, "--point", point]}[flag]
    code, rep, err = run_cli(capsys, argv[:1] + ["--graph", loop_file] + argv[1:])
    assert code == 2 and rep is None
    assert err.startswith("input error: ") and "Traceback" not in err


def test_report_determinism(tmp_path, graph_file, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["validate-graph", "--graph", graph_file, "--out", str(out1)]) == 0
    assert main(["validate-graph", "--graph", graph_file, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_fock_check(capsys, graph_file):
    code, rep, _ = run_cli(capsys, ["fock-check", "--graph", graph_file])
    assert code == 0
    assert rep["passed"]
    assert rep["worst_residual"] == 0.0
    assert rep["N"] == 4
    # truncation too short for any relation to survive compression
    code, _, err = run_cli(capsys, ["fock-check", "--graph", graph_file, "--N", "1"])
    assert code == 2 and "input error" in err


def test_eval_direct_frozen(capsys, tmp_path, graph_file):
    g = two_vertex_example()
    x = HardyPoly(g, {"v": 2.0, ("e",): 3.0, ("f", "g"): 5.0})
    polyf = write_json(tmp_path / "poly.json", poly_to_terms(x))
    pt = make_dual_point(g, {"e": 0.2 + 0.1j, "f": -0.3, "g": 0.4j})
    ptf = write_json(tmp_path / "pt.json", point_to_dict(pt))
    code, rep, _ = run_cli(capsys, ["eval", "--graph", graph_file,
                                    "--poly", polyf, "--point", ptf])
    assert code == 0
    assert rep["mode"] == "direct"
    got = np.array([[complex(a, b) for a, b in row] for row in rep["value"]])
    np.testing.assert_allclose(got, np.array([[2.0, 0.6j], [0.6 - 0.3j, 0.0]]),
                               atol=1e-12)


def test_eval_nan_weight_is_input_error(capsys, tmp_path, graph_file):
    # json accepts NaN; a NaN weight is not a point of the open ball
    g = two_vertex_example()
    polyf = write_json(tmp_path / "poly.json", poly_to_terms(HardyPoly(g, {("e",): 1.0})))
    ptf = tmp_path / "pt.json"
    ptf.write_text('{"weights": {"e": NaN, "f": 0.1}}')
    code, rep, err = run_cli(capsys, ["eval", "--graph", graph_file,
                                      "--poly", polyf, "--point", str(ptf)])
    assert code == 2 and rep is None
    assert err.startswith("input error: ")


def test_eval_pullback(capsys, tmp_path, graph_file):
    g = two_vertex_example()
    x = HardyPoly(g, {"v": 0.5, ("e",): 1.0, ("g",): -0.5})
    polyf = write_json(tmp_path / "poly.json", poly_to_terms(x))
    pt = make_dual_point(g, {"e": 0.3, "f": -0.2, "g": 0.1 + 0.2j})
    ptf = write_json(tmp_path / "pt.json", point_to_dict(pt))
    gamma = make_central_point(g, {"g": 0.35})
    gf = write_json(tmp_path / "gamma.json", central_to_dict(gamma))
    code, rep, _ = run_cli(capsys, ["eval", "--graph", graph_file, "--poly", polyf,
                                    "--point", ptf, "--gamma", gf])
    assert code == 0
    assert rep["mode"] == "pullback"
    got = np.array([[complex(a, b) for a, b in row] for row in rep["value"]])
    expected = evaluate_poly(x, mobius_apply(gamma, pt))
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_eval_pullback_of_a_boundary_point(capsys, tmp_path, graph_file):
    # a point on the sphere moves onto the sphere and is evaluated there
    g = two_vertex_example()
    x = HardyPoly(g, {"v": 0.5, ("e",): 1.0, ("g",): -0.5})
    polyf = write_json(tmp_path / "poly.json", poly_to_terms(x))
    pt = make_dual_point(g, {"e": 0.6, "f": 0.8j, "g": 0.8}, allow_boundary=True)
    ptf = write_json(tmp_path / "pt.json", point_to_dict(pt))
    gamma = make_central_point(g, {"g": 0.35 - 0.2j})
    gf = write_json(tmp_path / "gamma.json", central_to_dict(gamma))
    code, rep, _ = run_cli(capsys, ["eval", "--graph", graph_file, "--poly", polyf,
                                    "--point", ptf, "--gamma", gf])
    assert code == 0 and rep["mode"] == "pullback"
    moved = mobius_apply(gamma, pt)
    assert abs(moved.norm - 1.0) < 1e-14
    got = np.array([[complex(a, b) for a, b in row] for row in rep["value"]])
    np.testing.assert_allclose(got, evaluate_poly(x, moved), atol=1e-12)


def test_eval_unitary_without_gamma_composes_with_g0(capsys, tmp_path, graph_file):
    # without --gamma the gauge pullback is composed with g_0 = -id: the
    # identity unitary negates S_e, and -U gives the pure gauge pullback of U
    g = two_vertex_example()
    polyf = write_json(tmp_path / "poly.json", poly_to_terms(HardyPoly(g, {("e",): 1.0})))
    ptf = write_json(tmp_path / "pt.json",
                     point_to_dict(make_dual_point(g, {"e": 0.5, "g": 0.2})))
    entry = {}
    for name, phase in (("direct", None), ("identity", 1.0), ("minus identity", -1.0)):
        argv = ["eval", "--graph", graph_file, "--poly", polyf, "--point", ptf]
        if phase is not None:
            u = diagonal_unitary(g, {e.name: phase for e in g.edges})
            argv += ["--unitary", write_json(tmp_path / "u.json", unitary_to_dict(u))]
        code, rep, _ = run_cli(capsys, argv)
        assert code == 0
        entry[name] = rep["value"][g.vindex["w"]][g.vindex["v"]]
    assert entry == {"direct": [0.5, 0.0], "identity": [-0.5, 0.0], "minus identity": [0.5, 0.0]}


def pick_payload(z, c):
    return {
        "points": [{"weights": {"z": [w.real, w.imag]}} for w in np.conj(z)],
        "C": [[[[ci.real, ci.imag]]] for ci in c],
    }


def test_pick_feasible_and_not(capsys, tmp_path, loop_file):
    z = np.array([0.3, 0.2 - 0.5j])
    c = 0.6 * z
    good = write_json(tmp_path / "good.json", pick_payload(z, c))
    code, rep, _ = run_cli(capsys, ["pick", "--graph", loop_file, "--points", good])
    assert code == 0
    assert rep["feasible"] and rep["passed"]
    z2 = np.array([0.05, 0.1])
    c2 = np.array([0.95, -0.95])
    bad = write_json(tmp_path / "bad.json", pick_payload(z2, c2))
    code, rep, _ = run_cli(capsys, ["pick", "--graph", loop_file, "--points", bad])
    assert code == 1
    assert not rep["feasible"]
    assert rep["worst_residual"] > 1e-3


def test_pick_rejects_boundary_point(capsys, tmp_path, loop_file):
    payload = {"points": [{"weights": {"z": [1.0, 0.0]}}], "C": [[[[0.5, 0.0]]]]}
    f = write_json(tmp_path / "bdry.json", payload)
    code, _, err = run_cli(capsys, ["pick", "--graph", loop_file, "--points", f])
    assert code == 2 and "input error" in err


@pytest.mark.parametrize("command, payload", [("pick", {"points": [], "C": []}),
                                              ("schur-check", {"points": [], "values": []})])
def test_empty_point_list_is_input_error(capsys, tmp_path, loop_file, command, payload):
    f = write_json(tmp_path / "empty.json", payload)
    code, rep, err = run_cli(capsys, [command, "--graph", loop_file, "--points", f])
    assert code == 2 and rep is None and err == "input error: need at least one point\n"


def test_schur_check(capsys, tmp_path, loop_file):
    pts = [{"weights": {"z": [0.4, 0.0]}}, {"weights": {"z": [-0.1, 0.3]}}]
    ok = write_json(tmp_path / "ok.json",
                    {"points": pts, "values": [[[[0.5, 0.0]]], [[[0.5, 0.0]]]]})
    code, rep, _ = run_cli(capsys, ["schur-check", "--graph", loop_file, "--points", ok])
    assert code == 0 and rep["passed"]
    bad = write_json(tmp_path / "toarge.json",
                     {"points": pts, "values": [[[[1.5, 0.0]]], [[[0.5, 0.0]]]]})
    code, rep, _ = run_cli(capsys, ["schur-check", "--graph", loop_file, "--points", bad])
    assert code == 1 and not rep["passed"]


def test_transfer(capsys, tmp_path, loop_file):
    g = Graph(["u"], [("z", "u", "u")])
    s = SystemMatrix(g, {"u": 1}, ("u",), ("u",), A={"u": 0.6},
                     B={"u": np.array([[0.8]])}, C={"z": np.array([[0.8]])},
                     D={"z": np.array([[-0.6]])})
    sysf = write_json(tmp_path / "sys.json", system_to_dict(s))
    pt = make_dual_point(g, {"z": 0.3})
    ptf = write_json(tmp_path / "pt.json", point_to_dict(pt))
    code, rep, _ = run_cli(capsys, ["transfer", "--graph", loop_file,
                                    "--system", sysf, "--point", ptf])
    assert code == 0
    assert rep["passed"] and rep["validation"]["passed"]
    got = complex(*rep["value"][0][0])
    expected = transfer_eval(s, pt)[0, 0]
    assert abs(got - expected) < 1e-13
    assert rep["series_residual"] <= rep["tail_bound"] + 1e-12


@pytest.mark.parametrize("m", [1.5, "1", True])
def test_transfer_non_integer_multiplicity_is_input_error(capsys, tmp_path, loop_file, m):
    # int() ran the system at m_u = 1 and reported the verdict of that system
    g = Graph(["u"], [("z", "u", "u")])
    data = system_to_dict(SystemMatrix(g, {"u": 1}, ("u",), ("u",), A={"u": 0.6},
                                       B={"u": [[0.8]]}, C={"z": [[0.8]]}, D={"z": [[-0.6]]}))
    data["multiplicities"]["u"] = m
    sysf = write_json(tmp_path / "sys.json", data)
    ptf = write_json(tmp_path / "pt.json", point_to_dict(make_dual_point(g, {"z": 0.3})))
    code, rep, err = run_cli(capsys, ["transfer", "--graph", loop_file,
                                      "--system", sysf, "--point", ptf])
    assert code == 2 and rep is None
    assert err.startswith("input error: multiplicity of 'u' must be an integer")


def test_realize_roundtrip(capsys, tmp_path, loop_file):
    # identity function samples on the loop disc realize exactly
    payload = {
        "points": [{"weights": {"z": [0.0, 0.0]}}, {"weights": {"z": [0.5, 0.0]}}],
        "values": [[[[0.0, 0.0]]], [[[0.5, 0.0]]]],
        "q1": ["u"], "q2": ["u"],
    }
    f = write_json(tmp_path / "samples.json", payload)
    sysout = tmp_path / "system.json"
    code, rep, _ = run_cli(capsys, ["realize", "--graph", loop_file, "--points", f,
                                    "--out", str(sysout)])
    assert code == 0
    assert rep["passed"]
    assert rep["interpolation_residual"] < 1e-10
    assert rep["system_written_to"] == str(sysout)
    g = Graph(["u"], [("z", "u", "u")])
    s = system_from_dict(g, json.loads(sysout.read_text()))
    held = make_dual_point(g, {"z": 0.25})
    assert abs(transfer_eval(s, held)[0, 0] - np.conj(0.25)) < 1e-10


def test_realize_infeasible_exit_code(capsys, tmp_path, loop_file):
    payload = {
        "points": [{"weights": {"z": [0.8, 0.0]}}],
        "values": [[[[1.2, 0.0]]]],
        "q1": ["u"], "q2": ["u"],
    }
    f = write_json(tmp_path / "exp.json", payload)
    code, rep, _ = run_cli(capsys, ["realize", "--graph", loop_file, "--points", f])
    assert code == 1
    assert rep["kind"] == "infeasible"
    assert not rep["passed"]
    # --out names the system file; a failure report still goes to stdout
    sysout = tmp_path / "sys.json"
    code, rep, _ = run_cli(capsys, ["realize", "--graph", loop_file, "--points", f,
                                    "--out", str(sysout)])
    assert code == 1
    assert rep["kind"] == "infeasible"
    assert not sysout.exists()


def samples_payload(pts, vals, q1, q2):
    return {"points": [point_to_dict(p) for p in pts],
            "values": [[[[z.real, z.imag] for z in row] for row in v] for v in vals],
            "q1": list(q1), "q2": list(q2)}


def test_realize_conditioning_exit_code(capsys, monkeypatch, tmp_path, graph_file):
    # corpus seed 101 at k = 10 realizes as a contraction; a Gram cut so
    # coarse that it breaks the kernel identity is a numeric breakdown on
    # valid input (exit 3), not malformed input
    g, pts, vals = corpus_samples(101, 10)
    f = write_json(tmp_path / "corpus101.json", samples_payload(pts, vals, g.vertices, g.vertices))
    sysout = tmp_path / "sys.json"
    argv = ["realize", "--graph", graph_file, "--points", f, "--out", str(sysout)]
    code, rep, err = run_cli(capsys, argv)
    assert (code, err) == (0, "") and rep["passed"]
    assert rep["class"] == "contractive" and rep["norm"] <= 1.0 + 1e-12
    sysout.unlink()
    monkeypatch.setattr(realization, "_GRAM_CUT", 0.5)
    code, rep, err = run_cli(capsys, argv)
    assert code == 3 and err == ""
    assert rep == {"command": "realize", "passed": False, "kind": "conditioning",
                   "error": "lurking isometry broke at vertex 'v' (Gram gap 2.868e-01)"}
    assert not sysout.exists()


def test_realize_class_agrees_with_transfer(capsys, tmp_path, graph_file):
    # realize passes a contraction that transfer, whose verdict is
    # coisometry, fails; a coisometric realization passes both
    g2, pts, vals = corpus_samples(101, 4)
    g52 = random_graph(np.random.default_rng(52))
    rng = np.random.default_rng(52)
    s = random_system(g52, rng, mmax=2)
    pts52 = [random_point(g52, rng, max_norm=0.7) for _ in range(4)]
    cases = [(graph_file, samples_payload(pts, vals, g2.vertices, g2.vertices), pts[0],
              "contractive", 1),
             (write_json(tmp_path / "g52.json", graph_to_dict(g52)),
              samples_payload(pts52, [transfer_eval(s, p) for p in pts52], s.q1, s.q2),
              pts52[0], "coisometric", 0)]
    for i, (gfile, payload, pt, cls, transfer_code) in enumerate(cases):
        f = write_json(tmp_path / ("samples%d.json" % i), payload)
        ptf = write_json(tmp_path / ("pt%d.json" % i), point_to_dict(pt))
        sysout = tmp_path / ("sys%d.json" % i)
        code, rep, _ = run_cli(capsys, ["realize", "--graph", gfile, "--points", f,
                                        "--out", str(sysout)])
        assert code == 0 and rep["passed"] and rep["class"] == cls
        assert rep["padding_feasible"] == (cls == "coisometric")
        code, rep, _ = run_cli(capsys, ["transfer", "--graph", gfile, "--system", str(sysout),
                                        "--point", ptf])
        assert code == transfer_code and rep["validation"]["passed"] == (cls == "coisometric")


def test_realize_unknown_vertex_exit_code(capsys, tmp_path, graph_file):
    g = two_vertex_example()
    pts = [make_dual_point(g, {"g": c}) for c in (0.3, -0.4j)]
    payload = {"points": [point_to_dict(p) for p in pts],
               "values": [[[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5 * c.real, -0.5 * c.imag]]]
                          for c in (0.3, -0.4j)]}
    f = write_json(tmp_path / "samples.json", payload)
    code, _, _ = run_cli(capsys, ["realize", "--graph", graph_file, "--points", f,
                                  "--q1", "v,w", "--q2", "w"])
    assert code == 0
    sysout = tmp_path / "sys.json"
    for flag, names, bad in (("--q1", "v,typo", "typo"), ("--q2", "w,nope", "nope")):
        code, rep, err = run_cli(capsys, ["realize", "--graph", graph_file, "--points", f,
                                          flag, names, "--out", str(sysout)])
        assert code == 2 and rep is None
        assert "input error: unknown vertex '%s'" % bad in err
        assert not sysout.exists()


def test_mobius_command(capsys, tmp_path, graph_file):
    g = two_vertex_example()
    gamma = make_central_point(g, {"g": 0.3 - 0.4j})
    gf = write_json(tmp_path / "gamma.json", central_to_dict(gamma))
    pt = make_dual_point(g, {"e": 0.2, "f": 0.4j, "g": -0.3})
    ptf = write_json(tmp_path / "pt.json", point_to_dict(pt))
    code, rep, _ = run_cli(capsys, ["mobius", "--graph", graph_file, "--gamma", gf,
                                    "--point", ptf])
    assert code == 0
    assert rep["passed"]
    assert rep["worst_residual"] < 1e-9
    assert rep["involution_residual"] < 1e-12
    assert rep["image_norm"] < 1.0


def test_autom_demo(capsys):
    code, rep, _ = run_cli(capsys, ["autom-demo"])
    assert code == 0
    assert rep["passed"]
    assert rep["worst_residual"] < 1e-7
    assert rep["kernel_ideal"]["passed"]


@pytest.mark.parametrize("name, N", [("transfer", "-1"), ("autom-demo", "-2")])
def test_negative_truncation_order_is_input_error(capsys, tmp_path, graph_file, loop_file,
                                                  name, N):
    argv = passing_argvs(tmp_path, graph_file, loop_file)[name] + ["--N", N]
    code, rep, err = run_cli(capsys, argv)
    assert code == 2 and rep is None
    assert err.startswith("input error: ") and ">= 0" in err


@pytest.mark.parametrize("name, field, literal", [
    ("eval", "poly re", "NaN"),
    ("eval", "poly im", "Infinity"),
    ("schur-check", "values", "NaN"),
    ("transfer", "system D", "-Infinity"),
])
def test_non_finite_json_number_is_input_error(capsys, tmp_path, graph_file, loop_file,
                                               name, field, literal):
    # json accepts NaN and Infinity, which no input of graph-hardy may hold
    argv = passing_argvs(tmp_path, graph_file, loop_file)[name]
    if name == "eval":
        re, im = (literal, "0.0") if field == "poly re" else ("3.0", literal)
        (tmp_path / "poly.json").write_text('[{"path": ["e"], "re": %s, "im": %s}]' % (re, im))
    elif name == "schur-check":
        samples = tmp_path / "samples.json"
        samples.write_text(samples.read_text().replace("[0.5, 0.0]", "[%s, 0.0]" % literal))
    else:
        system = tmp_path / "sys.json"
        system.write_text(system.read_text().replace("[-0.6, 0.0]", "[%s, 0.0]" % literal))
    code, rep, err = run_cli(capsys, argv)
    assert code == 2 and rep is None
    assert err.startswith("input error: ") and "is not finite" in err


@pytest.mark.parametrize("name", ["mobius", "eval"])
def test_central_point_near_boundary(capsys, tmp_path, graph_file, loop_file, name):
    # 1 - 1.1e-16 is inside the open ball, but its defect operator is
    # numerically singular: a conditioning failure (exit 3), not bad input
    argv = passing_argvs(tmp_path, graph_file, loop_file)[name]
    gamma = tmp_path / "gamma.json"
    argv = argv[:argv.index("--point")] if name == "mobius" else argv + ["--gamma", str(gamma)]
    gamma.write_text('{"loops": {"g": [0.9999999999999999, 0.0]}}')
    code, rep, err = run_cli(capsys, argv)
    assert (code, err) == (3, "")
    assert rep["kind"] == "conditioning" and rep["passed"] is False
    assert "smallest eigenvalue" in rep["error"]
    gamma.write_text('{"loops": {"g": [0.99999999999999, 0.0]}}')
    code, rep, err = run_cli(capsys, argv)
    assert (code, err) == (0, "") and rep["passed"]


# the top-level keys of each subcommand's report on a passing fixture
FRAME_KEYS = {
    "validate-graph": {"command", "inputs", "vertices", "edges", "loops", "is_full",
                       "left_faithful", "sources_missing", "passed"},
    "fock-check": {"command", "inputs", "tol", "N", "deviations", "worst_residual", "dim",
                   "passed"},
    "eval": {"command", "inputs", "mode", "point_norm", "value", "value_max_abs", "passed"},
    "pick": {"command", "inputs", "tol", "blocks", "worst_residual", "feasible", "passed"},
    "schur-check": {"command", "inputs", "tol", "blocks", "worst_residual", "passed"},
    "transfer": {"command", "inputs", "tol", "N", "validation", "value", "series_residual",
                 "tail_bound", "worst_residual", "passed"},
    "realize": {"command", "inputs", "tol", "multiplicities", "gram_ranks", "padding",
                "padding_feasible", "class", "norm", "coisometry_residual",
                "interpolation_residual",
                "worst_residual", "system_written_to", "system", "passed"},
    "mobius": {"command", "inputs", "tol", "colligation", "g_at_zero_vs_gamma",
               "g_at_gamma_vs_zero", "image_weights", "image_norm", "involution_residual",
               "worst_residual", "passed"},
    "autom-demo": {"command", "tol", "lambda", "N", "seed", "points", "worst_residual",
                   "kernel_ideal", "passed"},
}
TOL_COMMANDS = {name for name, keys in FRAME_KEYS.items() if "tol" in keys}


def passing_argvs(tmp_path, graph_file, loop_file):
    """One passing invocation of every subcommand, on the fixtures of the tests above."""
    g, loop = two_vertex_example(), Graph(["u"], [("z", "u", "u")])
    poly = write_json(tmp_path / "poly.json", poly_to_terms(HardyPoly(g, {"v": 2.0, ("e",): 3.0})))
    pt = write_json(tmp_path / "pt.json", point_to_dict(make_dual_point(g, {"e": 0.2, "g": 0.4j})))
    gamma = write_json(tmp_path / "gamma.json",
                       central_to_dict(make_central_point(g, {"g": 0.3 - 0.4j})))
    pick = write_json(tmp_path / "pick.json",
                      pick_payload(np.array([0.3, 0.2 - 0.5j]), 0.6 * np.array([0.3, 0.2 - 0.5j])))
    samples = write_json(tmp_path / "samples.json", {
        "points": [{"weights": {"z": [0.0, 0.0]}}, {"weights": {"z": [0.5, 0.0]}}],
        "values": [[[[0.0, 0.0]]], [[[0.5, 0.0]]]], "q1": ["u"], "q2": ["u"]})
    s = SystemMatrix(loop, {"u": 1}, ("u",), ("u",), A={"u": 0.6}, B={"u": np.array([[0.8]])},
                     C={"z": np.array([[0.8]])}, D={"z": np.array([[-0.6]])})
    system = write_json(tmp_path / "sys.json", system_to_dict(s))
    loop_pt = write_json(tmp_path / "loop_pt.json",
                         point_to_dict(make_dual_point(loop, {"z": 0.3})))
    return {
        "validate-graph": ["validate-graph", "--graph", graph_file],
        "fock-check": ["fock-check", "--graph", graph_file, "--N", "3"],
        "eval": ["eval", "--graph", graph_file, "--poly", poly, "--point", pt],
        "pick": ["pick", "--graph", loop_file, "--points", pick],
        "schur-check": ["schur-check", "--graph", loop_file, "--points", samples],
        "transfer": ["transfer", "--graph", loop_file, "--system", system, "--point", loop_pt],
        "realize": ["realize", "--graph", loop_file, "--points", samples,
                    "--out", str(tmp_path / "realized.json")],
        "mobius": ["mobius", "--graph", graph_file, "--gamma", gamma, "--point", pt],
        "autom-demo": ["autom-demo", "--npoints", "3"],
    }


def test_report_frame(capsys, tmp_path, graph_file, loop_file):
    argvs = passing_argvs(tmp_path, graph_file, loop_file)
    assert set(argvs) == set(FRAME_KEYS) == set(parser_subcommands())
    for name, argv in argvs.items():
        code, rep, err = run_cli(capsys, argv)
        assert (code, err) == (0, ""), name
        assert set(rep) == FRAME_KEYS[name], name
        assert rep["command"] == name and rep["passed"] is True
        files = {a[2:] for a, b in zip(argv, argv[1:]) if b.endswith(".json") and a != "--out"}
        assert set(rep.get("inputs", {})) == files, name
    # validate-graph and eval never read a tolerance, so they take none
    for argv in (argvs["validate-graph"], argvs["eval"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-9"])
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("lam, code", [("nan", 2), ("inf", 2), ("1", 2), ("0.5", 0)])
def test_autom_demo_lambda_outside_the_disc_is_input_error(capsys, lam, code):
    got, rep, err = run_cli(capsys, ["autom-demo", "--npoints", "2", "--lam", lam])
    assert got == code
    if code:
        assert rep is None and err == "input error: |lambda| must be < 1\n"
    else:
        assert rep["passed"] and rep["lambda"] == [0.5, 0.0] and err == ""


def test_autom_demo_center_next_to_the_boundary_is_conditioning(capsys):
    # autom-demo builds its automorphism from the defect operators, as
    # mobius does: inside the disc but numerically singular is exit 3
    code, rep, err = run_cli(capsys, ["autom-demo", "--npoints", "2",
                                      "--lam", "0.9999999999999999"])
    assert (code, err) == (3, "")
    assert rep["kind"] == "conditioning" and "smallest eigenvalue" in rep["error"]
    code, rep, err = run_cli(capsys, ["autom-demo", "--npoints", "2",
                                      "--lam", "0.99999999999999"])
    assert (code, err) == (0, "") and rep["worst_residual"] < 1e-12


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
@pytest.mark.parametrize("name", sorted(TOL_COMMANDS))
def test_bad_tolerance_is_rejected_by_the_parser(capsys, tmp_path, graph_file, loop_file,
                                                 name, tol):
    # a NaN tolerance made reports invalid JSON, a negative one failed every check
    argv = passing_argvs(tmp_path, graph_file, loop_file)[name]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol=" + tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --tol: must be finite and >= 0, got %r" % tol in err


def test_zero_tolerance_parses(tmp_path, graph_file, loop_file):
    argvs = passing_argvs(tmp_path, graph_file, loop_file)
    assert len(TOL_COMMANDS) == 7
    for name in TOL_COMMANDS:
        assert build_parser().parse_args(argvs[name] + ["--tol", "0"]).tol == 0.0


def test_cached_parser_keeps_no_state(capsys, tmp_path, graph_file, loop_file):
    argvs = passing_argvs(tmp_path, graph_file, loop_file)
    sysout = tmp_path / "realized.json"
    runs = []
    for name in ("eval", "fock-check", "realize", "eval"):
        assert main(argvs[name]) == 0
        runs.append((argvs[name], capsys.readouterr().out,
                     sysout.read_bytes() if name == "realize" else None))
    assert runs[0][1] == runs[3][1]
    for argv, out, written in runs:
        if written is not None:
            sysout.unlink()
        r = subprocess.run([sys.executable, "-m", "graph_hardy.cli"] + argv,
                           capture_output=True, text=True, env=package_env())
        assert (r.returncode, r.stdout, r.stderr) == (0, out, "")
        if written is not None:
            assert sysout.read_bytes() == written


def parser_subcommands():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


@pytest.mark.parametrize("name", parser_subcommands())
def test_subcommand_help(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: graph-hardy %s" % name)
    assert ("--tol" in out) == (name in TOL_COMMANDS)


def package_env():
    """os.environ with the imported package's directory first on PYTHONPATH,
    so subprocesses import the package under test, wherever pytest found it."""
    package_dir = str(Path(graph_hardy.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_dir, env.get("PYTHONPATH")]))
    return env


def declared_script_target(name):
    """The `module:attr` that pyproject.toml declares for console script `name`.

    The file is looked up beside the imported package (a source tree or an
    editable install), else beside these tests (a regular install)."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    roots = (Path(graph_hardy.__file__).resolve().parents[2],
             Path(__file__).resolve().parents[1])
    path = next(r / "pyproject.toml" for r in roots if (r / "pyproject.toml").is_file())
    return tomllib.loads(path.read_text())["project"]["scripts"][name]


def test_module_and_script_entry_points(tmp_path):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(graph_to_dict(two_vertex_example())))
    env = package_env()
    r = subprocess.run([sys.executable, "-m", "graph_hardy.cli", "validate-graph",
                        "--graph", str(gfile)], capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert json.loads(r.stdout)["passed"]
    # run the declared entry point the way the launcher pip writes for it does
    module, attr = declared_script_target("graph-hardy").split(":")
    launcher = ("import sys; from %s import %s; sys.argv[0] = 'graph-hardy'; "
                "sys.exit(%s())" % (module, attr, attr))
    r = subprocess.run([sys.executable, "-c", launcher, "fock-check", "--graph",
                        str(gfile), "--N", "3"], capture_output=True, text=True, env=env)
    assert r.returncode == 0


SCIPY_PROBE = """\
import json, sys
import graph_hardy
from graph_hardy.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = [("import", 0, scipy_modules())]
for argv in json.loads(sys.argv[2]):
    seen.append((argv[0], main(argv), scipy_modules()))
with open(sys.argv[1], "w") as fh:
    json.dump(seen, fh)
"""


def test_only_fock_check_loads_scipy(tmp_path, graph_file, loop_file):
    # one fresh interpreter: import, every other subcommand, then fock-check
    argvs = passing_argvs(tmp_path, graph_file, loop_file)
    fock_check = argvs.pop("fock-check")
    # a two-vertex realization from samples of a random system
    g, rng = two_vertex_example(), np.random.default_rng(1)
    s = random_system(g, rng, mmax=2)
    pts = [random_point(g, rng, max_norm=0.7) for _ in range(3)]
    samples = write_json(tmp_path / "samples2.json",
                         samples_payload(pts, [transfer_eval(s, p) for p in pts], s.q1, s.q2))
    realize2 = ["realize", "--graph", graph_file, "--points", samples]
    order = list(argvs.values()) + [realize2, fock_check]
    result = tmp_path / "seen.json"
    r = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(result), json.dumps(order)],
                       capture_output=True, text=True, env=package_env())
    assert r.returncode == 0, r.stderr
    seen = json.loads(result.read_text())
    assert [name for name, _, _ in seen] == ["import"] + [argv[0] for argv in order]
    for name, code, modules in seen:
        assert code == 0
        assert bool(modules) == (name == "fock-check"), (name, modules)


@pytest.mark.skipif(shutil.which("graph-hardy") is None,
                    reason="console script graph-hardy is not on PATH "
                           "(the package is not installed)")
def test_installed_console_script(tmp_path):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(graph_to_dict(two_vertex_example())))
    r = subprocess.run(["graph-hardy", "fock-check", "--graph", str(gfile),
                        "--N", "3"], capture_output=True, text=True)
    assert r.returncode == 0
