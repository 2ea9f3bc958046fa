"""The command-line front end: reports, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cuspforge import cli, optimizer, polytope, triangulation

from conftest import GEO4_TEXT, property_chain

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "docs", "report_schema.json")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def validate_schema(report):
    jsonschema = pytest.importorskip("jsonschema")
    with open(SCHEMA_PATH) as fh:
        schema = json.load(fh)
    jsonschema.validate(report, schema)


@pytest.fixture()
def center_angles_path(tmp_path, fig8_center):
    path = tmp_path / "center.json"
    path.write_text(polytope.angles_to_json(fig8_center))
    return str(path)


def test_check_reports_combinatorics(capsys, fig8_path):
    code, report, _ = run_json(capsys, "check", fig8_path)
    assert code == 0
    validate_schema(report)
    res = report["results"]
    assert res["tets"] == 2
    assert sorted(c["degree"] for c in res["edge_classes"]) == [6, 6]
    assert [l["euler_characteristic"] for l in res["vertex_links"]] == [0]
    assert res["is_cusped"] is True
    assert res["incidence_size"] == 12
    assert res["triples"] == 8


def test_solve_fig8(capsys, fig8_path):
    code, report, _ = run_json(capsys, "solve", fig8_path)
    assert code == 0
    validate_schema(report)
    res = report["results"]
    assert res["status"] == "converged"
    assert abs(res["volume"] - 2.0298832128193072) < 1e-9
    assert np.max(np.abs(np.array(res["point"]) - np.pi / 3.0)) < 1e-7
    assert res["tetrahedra"] == ["positive", "positive"]
    assert res["candidate_complete"] is True
    assert res["certificate"]["signs_ok"] is True
    assert fig8_path in report["inputs"]


def test_solve_reports_inner_iterations(capsys, fig8_path, flatten3_path):
    # the MINRES steps of the ascent, a deterministic counter; fig8's one
    # step starts at the maximizer, where the system's right-hand side is
    # already below the stop
    def count(path):
        return run_json(capsys, "solve", path)[1]["results"][
            "inner_iterations"]

    assert count(fig8_path) == 0
    counts = [count(flatten3_path) for _ in range(2)]
    assert type(counts[0]) is int and counts[0] > 0
    assert counts[0] == counts[1]


def test_solve_multi_start(capsys, fig8_path):
    code, report, _ = run_json(capsys, "solve", fig8_path, "--starts", "4")
    assert code == 0
    ms = report["results"]["multi_start"]
    assert ms["n_starts"] == 4
    assert ms["max_spread"] < 1e-6


def test_solve_multi_start_releases_rejected_pins(capsys, tmp_path):
    # with every pin kept, one start of this probe converged at 1.962782
    # with a tetrahedron pinned flat that its certificate rejects, while
    # the others reached V8
    path = tmp_path / "geo4.tri"
    path.write_text(GEO4_TEXT)
    code, report, _ = run_json(capsys, "solve", str(path), "--starts", "8",
                               "--seed", "253")
    assert code == 0
    ms = report["results"]["multi_start"]
    assert ms["max_spread"] < 1e-6
    assert max(ms["volumes"]) - min(ms["volumes"]) < 1e-9


def test_solve_multi_start_reports_a_probe_result(capsys, fig8_path,
                                                monkeypatch):
    calls = []
    original = optimizer._ascend

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_ascend", counted)
    code, report, _ = run_json(capsys, "solve", fig8_path, "--starts", "3")
    assert code == 0
    assert len(calls) == 3  # one ascent per start, no re-solve of the best
    res = report["results"]
    assert res["volume"] == max(res["multi_start"]["volumes"])


def test_solve_boundary_maximizer_report(capsys, degenerate4_path):
    # non-empty active set and flat tetrahedra: the report is plain JSON
    code, report, _ = run_json(capsys, "solve", degenerate4_path)
    assert code == 0
    validate_schema(report)
    res = report["results"]
    assert res["status"] == "converged"
    assert abs(res["volume"] - 1.7619532174) < 1e-8
    assert res["flat_tets"] == [0, 3]
    assert res["active_set"] == list(range(6)) + list(range(18, 24))
    assert res["tetrahedra"] == ["flat", "positive", "positive", "flat"]
    assert res["certificate"]["gradient_residual"] < 1e-6
    assert res["certificate"]["signs_ok"] is True
    # flat on the whole closure, so not the complete structure
    margins = res["certificate"]["margins"]
    assert [(t, fixed) for t, _, fixed in margins] == [(0, True), (3, True)]
    assert all(m < -0.4 for _, m, _ in margins)
    assert res["candidate_complete"] is False


def test_solve_flat_complete_structure(capsys, flatten3_path):
    # the complete structure with tetrahedron 3 flat, margin 0
    code, report, _ = run_json(capsys, "solve", flatten3_path)
    assert code == 0
    validate_schema(report)
    res = report["results"]
    assert res["status"] == "converged"
    assert abs(res["volume"] - 2.029883212819307) < 1e-10
    assert res["flat_tets"] == [3]
    assert res["certificate"]["signs_ok"] is True
    [[tet, margin, face_fixed]] = res["certificate"]["margins"]
    assert tet == 3 and face_fixed is False
    assert abs(margin) < 1e-9
    assert res["candidate_complete"] is True


@pytest.mark.parametrize("name", ["fig8", "flatten3"])
def test_solve_certifies_once(capsys, monkeypatch, request, name):
    # flatten3's ascent pins tetrahedron 3 and certifies its converged point
    # for the release rule; solve reports that certificate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return certify(*args, **kwargs)

    certify = optimizer.certify
    monkeypatch.setattr(optimizer, "certify", counted)
    code, _, _ = run_json(capsys, "solve",
                          request.getfixturevalue(name + "_path"))
    assert code == cli.EXIT_OK
    assert len(calls) == 1


def test_solve_results_are_deterministic(capsys, fig8_path):
    _, rep1, _ = run_json(capsys, "solve", fig8_path, "--seed", "5")
    _, rep2, _ = run_json(capsys, "solve", fig8_path, "--seed", "5")
    # timings differ between runs; the results payload must not
    blob1 = json.dumps(rep1["results"], sort_keys=True)
    blob2 = json.dumps(rep2["results"], sort_keys=True)
    assert blob1 == blob2


def test_solve_empty_closure_exit_code(capsys, doubled_path):
    code, report, _ = run_json(capsys, "solve", doubled_path)
    assert code == cli.EXIT_EMPTY_CLOSURE
    assert report["results"]["status"] == "empty-closure"


def test_solve_iteration_cap_exit_code(capsys, fig8, tmp_path):
    # on fig8 itself (and its 3-tet retriangulation) the point of the minimal
    # face is already the maximizer; after two 2-3 moves it is not, and one
    # iteration cannot converge
    moved = triangulation.pachner_23(triangulation.pachner_23(fig8, (0, 0)),
                                     (0, 0))
    path = tmp_path / "moved.tri"
    path.write_text(triangulation.format_triangulation(moved))
    code, report, _ = run_json(capsys, "solve", str(path), "--max-iter", "1")
    assert code == cli.EXIT_NOT_CONVERGED
    assert report["results"]["status"] == "iteration-cap"


@pytest.mark.parametrize("name, expected", [("fig8", cli.EXIT_OK),
                                            ("flatten3", cli.EXIT_NOT_CONVERGED)])
def test_solve_one_iteration_report_is_strict_json(capsys, request, name,
                                                   expected):
    # finding the minimal face takes none of the --max-iter budget, so one
    # ascent step always runs and reports a finite KKT residual
    def reject(constant):
        raise ValueError("non-JSON constant %s" % constant)

    code, out, _ = run_cli(capsys, "solve",
                           request.getfixturevalue(name + "_path"),
                           "--max-iter", "1")
    assert code == expected
    res = json.loads(out, parse_constant=reject)["results"]
    assert res["iterations"] == 1
    assert math.isfinite(res["kkt_residual"])


@pytest.mark.parametrize("name, argv, unpinned, pinned", [
    ("degenerate4", [], 1, 0),
    ("degenerate4", ["--starts", "4"], 1, 0),
    ("flatten3", [], 0, 0),
    ("fig8", ["--starts", "4"], 0, 0),
    ("chain141", [], 1, 1),
])
def test_solve_finds_the_minimal_face_once(capsys, monkeypatch, request,
                                           name, argv, unpinned, pinned):
    # the unpinned LP runs only when the closure has no interior, once per
    # solve: every start and the certificate share its face; the pinned LP
    # runs only when the ascent's restart after a tetrahedron flattens
    # cannot find its face from the centre, as on chain 141 but not on
    # flatten3
    calls = []
    original = polytope.interior_point

    def counted(sys_, pinned=None):
        calls.append(bool(pinned))
        return original(sys_, pinned=pinned)

    monkeypatch.setattr(polytope, "interior_point", counted)
    code, _, _ = run_cli(capsys, "solve",
                         request.getfixturevalue(name + "_path"), *argv)
    assert code == cli.EXIT_OK
    assert (calls.count(False), calls.count(True)) == (unpinned, pinned)


def test_solve_stall_exit_code(capsys, degenerate4_path):
    # no residual falls below this tolerance: the ascent must stop at the
    # rounding floor instead of running to the iteration cap
    t0 = time.perf_counter()
    code, report, _ = run_json(capsys, "solve", degenerate4_path,
                               "--tol", "1e-300", "--max-iter", "2000")
    assert time.perf_counter() - t0 < 2.0
    assert code == cli.EXIT_NOT_CONVERGED
    res = report["results"]
    assert res["status"] == "stalled"
    assert res["iterations"] < 2000
    assert abs(res["volume"] - 1.7619532174) < 1e-8


def test_certify_center(capsys, fig8_path, center_angles_path):
    code, report, _ = run_json(capsys, "certify", fig8_path,
                               center_angles_path)
    assert code == 0
    validate_schema(report)
    res = report["results"]
    assert res["membership"] == "interior"
    assert res["gradient_residual"] < 1e-10
    assert res["signs_ok"] is True
    assert res["margins"] == []
    assert res["fit_iterations"] >= 1


def test_certify_seed_is_recorded_but_inert(capsys, tmp_path, fig8_path,
                                            fig8_sys):
    # certify draws no samples, at a boundary point neither
    pinned = {0: 0.0, 5: 0.0, 2: 0.0, 3: 0.0, 1: np.pi, 4: np.pi}
    path = tmp_path / "face.json"
    path.write_text(polytope.angles_to_json(
        polytope.interior_point(fig8_sys, pinned=pinned).point))
    reports = [run_json(capsys, "certify", fig8_path, str(path),
                        "--seed", seed)[1] for seed in ("1", "2")]
    assert [r["seed"] for r in reports] == [1, 2]
    assert reports[0]["results"] == reports[1]["results"]
    res = reports[0]["results"]
    assert res["membership"] == "boundary"
    assert res["signs_ok"] is False
    assert [t for t, _, _ in res["margins"]] == [0]


def test_volume_center(capsys, fig8_path, center_angles_path):
    code, report, _ = run_json(capsys, "volume", fig8_path,
                               center_angles_path)
    assert code == 0
    assert abs(report["results"]["volume"] - 2.0298832128193072) < 1e-12
    assert report["results"]["membership"] == "interior"


def test_dominate_center(capsys, fig8_path, center_angles_path):
    code, report, _ = run_json(capsys, "dominate", fig8_path,
                               center_angles_path, "--samples", "100")
    assert code == 0
    res = report["results"]
    assert res["all_dominated"] is True
    assert res["samples"] == 100
    assert 0 < res["informative_samples"] <= 100


def test_dominate_single_point_closure_is_strict_json(capsys, tmp_path,
                                                      fig8):
    # every slot of this chain's closure is fixed: each sample equals the
    # maximizer, none is informative, and the report says so in strict JSON
    tri_path = tmp_path / "chain142.tri"
    tri_path.write_text(triangulation.format_triangulation(
        property_chain(fig8, 142)))
    code, report, _ = run_json(capsys, "solve", str(tri_path))
    assert code == 0
    point_path = tmp_path / "maximizer.json"
    point_path.write_text(json.dumps({"angles": report["results"]["point"]}))
    code, out, _ = run_cli(capsys, "dominate", str(tri_path), str(point_path),
                           "--samples", "20")
    assert code == 0

    def reject(constant):
        raise ValueError("not strict JSON: " + constant)

    res = json.loads(out, parse_constant=reject)["results"]
    assert res["samples"] == 20
    assert res["informative_samples"] == 0
    assert res["worst_gap"] is None


def test_lambda_command(capsys):
    code, report, _ = run_json(capsys, "lambda", str(np.pi / 6.0))
    assert code == 0
    assert abs(report["results"]["lambda"] - 0.50747080320482681) < 1e-14


def test_segment_csv(capsys, fig8_path, tmp_path, fig8_sys, fig8_center):
    rng = np.random.default_rng(40)
    q = polytope.sample_closure_points(
        fig8_sys, rng, 1, start=polytope.interior_point(fig8_sys).point,
        boundary_fraction=0.0)[0]
    p_path = tmp_path / "p.json"
    q_path = tmp_path / "q.json"
    p_path.write_text(polytope.angles_to_json(fig8_center))
    q_path.write_text(polytope.angles_to_json(q))
    code, out, _ = run_cli(capsys, "segment", fig8_path, str(p_path),
                           str(q_path), "--samples", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# one-sided derivative limit")
    assert lines[1] == "t,f,fprime"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[2:]]
    assert len(rows) == 10
    # volume decreases away from the maximizer, derivative is negative
    assert all(rows[i][1] >= rows[i + 1][1] for i in range(9))
    assert all(r[2] <= 1e-12 for r in rows)


def test_segment_rejects_infeasible_endpoint(capsys, fig8_path, tmp_path,
                                             fig8_center):
    bad = fig8_center.copy()
    bad[0] += 0.5
    p_path = tmp_path / "p.json"
    q_path = tmp_path / "q.json"
    p_path.write_text(polytope.angles_to_json(bad))
    q_path.write_text(polytope.angles_to_json(fig8_center))
    code, _, err = run_cli(capsys, "segment", fig8_path, str(p_path),
                           str(q_path))
    assert code == cli.EXIT_PARSE
    assert "not in the closure" in err


def test_lemmas_suite_passes(capsys):
    code, report, _ = run_json(capsys, "lemmas", "--samples", "50",
                               "--seed", "1")
    assert code == 0
    validate_schema(report)
    assert report["results"]["failing"] == []


def test_lemmas_perturbation_self_test(capsys):
    code, report, _ = run_json(capsys, "lemmas", "--samples", "10",
                               "--perturb", "1.0")
    assert code == cli.EXIT_SUITE_FAILURE
    assert "length_identity" in report["results"]["failing"]


def test_move23_writes_valid_file(capsys, fig8_path, tmp_path):
    out_path = str(tmp_path / "moved.tri")
    code, report, _ = run_json(capsys, "move23", fig8_path, "0", "0",
                               out_path)
    assert code == 0
    res = report["results"]
    assert res["after"]["tets"] == 3
    assert res["after"]["edge_classes"] == 3
    with open(out_path) as fh:
        moved = triangulation.parse_triangulation(fh.read())
    assert moved.n_tets == 3


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.tri"
    bad.write_text("tri 1\ntets 1\nglue 0 0 zero\n")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == cli.EXIT_PARSE
    assert "parse error" in err


def test_validation_error_names_its_line(capsys, tmp_path):
    bad = tmp_path / "bad.tri"
    bad.write_text("tri 1\ntets 1\n" + "".join(
        "glue 0 %d 0 %s\n" % (f, "1023" if f == 1 else "1032")
        for f in range(4)))
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == cli.EXIT_PARSE
    assert "parse error: line 3: non-involutive gluing at face (0, 0)" in err


def test_huge_tetrahedron_count_exit_code(capsys, tmp_path):
    bad = tmp_path / "huge.tri"
    bad.write_text("tri 1\ntets 1000000000000\n"
                   "glue 0 0 0 1032\nglue 0 1 0 1032\n")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == cli.EXIT_PARSE
    assert "parse error: line 2: unglued face (0, 2)" in err


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.tri"))
    assert code == cli.EXIT_PARSE


def test_seed_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("CUSPFORGE_SEED", "77")
    code, report, _ = run_json(capsys, "lemmas", "--samples", "5")
    assert code == 0
    assert report["seed"] == 77


@pytest.mark.parametrize("content", ['{"foo": 1}', '{"angles": {"a": 1}}'])
def test_malformed_angle_file_exit_code(capsys, fig8_path, tmp_path,
                                        content):
    path = tmp_path / "angles.json"
    path.write_text(content)
    code, out, err = run_cli(capsys, "volume", fig8_path, str(path))
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ")


def test_zero_samples_is_a_usage_error(capsys, fig8_path, center_angles_path):
    for argv in (["dominate", fig8_path, center_angles_path, "--samples", "0"],
                 ["lemmas", "--samples", "0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples" in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["solve", "FIG8", "--max-iter", "0"], "--max-iter"),
    (["solve", "FIG8", "--starts", "0"], "--starts"),
    (["solve", "FIG8", "--starts", "-3"], "--starts"),
    (["solve", "FIG8", "--tol", "nan"], "--tol"),
    (["solve", "FIG8", "--tol", "0"], "--tol"),
    (["solve", "FIG8", "--tol", "-1"], "--tol"),
    (["solve", "FIG8", "--tol", "inf"], "--tol"),
    (["lemmas", "--samples", "3", "--perturb", "nan"], "--perturb"),
    (["lemmas", "--samples", "3", "--perturb", "-1"], "--perturb"),
], ids=["max-iter=0", "starts=0", "starts=-3", "tol=nan", "tol=0", "tol=-1",
        "tol=inf", "perturb=nan", "perturb=-1"])
def test_vacuous_or_endless_numeric_flag_is_a_usage_error(capsys, fig8_path,
                                                          argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([fig8_path if a == "FIG8" else a for a in argv])
    assert exc.value.code == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_check_gieseking_is_cusped(capsys, gieseking_path):
    code, report, _ = run_json(capsys, "check", gieseking_path)
    assert code == 0
    validate_schema(report)
    res = report["results"]
    assert res["edge_classes"] == [{"id": 0, "degree": 6}]
    assert res["vertex_links"] == [
        {"id": 0, "euler_characteristic": 0, "orientable": False}]
    assert res["is_cusped"] is True


def test_solve_gieseking(capsys, gieseking_path):
    code, report, _ = run_json(capsys, "solve", gieseking_path)
    assert code == 0
    validate_schema(report)
    res = report["results"]
    assert res["status"] == "converged"
    assert abs(res["volume"] - 2.029883212819307 / 2) < 1e-10
    assert np.allclose(res["point"], np.pi / 3, rtol=0.0, atol=1e-10)
    assert res["candidate_complete"] is True


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_lambda_rejects_non_finite_theta(capsys, theta):
    code, out, err = run_cli(capsys, "lambda", theta)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert "finite" in err


def test_cli_import_does_not_load_scipy(tmp_path, fig8_path, fig8_sys,
                                       fig8_center, flatten3_path):
    # the commands that never solve an LP start and run without scipy,
    # whose import would dominate their run time; so do solve, with one
    # start or several, and dominate when the closure has interior: Newton
    # from the centre of the box then finds the minimal face with no LP,
    # and on flatten3 also the face the ascent restarts on after pinning
    # tetrahedron 3 flat
    rng = np.random.default_rng(41)
    q = polytope.sample_closure_points(
        fig8_sys, rng, 1, start=polytope.interior_point(fig8_sys).point,
        boundary_fraction=0.0)[0]
    p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
    p_path.write_text(polytope.angles_to_json(fig8_center))
    q_path.write_text(polytope.angles_to_json(q))
    commands = [
        ["lambda", "1.0"],
        ["check", fig8_path],
        ["volume", fig8_path, str(p_path)],
        ["certify", fig8_path, str(p_path)],
        ["move23", fig8_path, "0", "0", str(tmp_path / "moved.tri")],
        ["segment", fig8_path, str(p_path), str(q_path), "--samples", "3"],
        ["solve", fig8_path],
        ["solve", fig8_path, "--starts", "4"],
        ["solve", flatten3_path],
        ["dominate", fig8_path, str(p_path), "--samples", "50"],
    ]
    script = (
        "import contextlib, io, json, os, sys\n"
        "import cuspforge.cli as cli\n"
        "loaded = {'import': 'scipy' in sys.modules}\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    loaded[' '.join(map(os.path.basename, argv))] = "
        "'scipy' in sys.modules\n"
        "print(json.dumps(loaded))\n")
    out = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {name: False for name in ["import"] + [
        " ".join(map(os.path.basename, c)) for c in commands]}
