"""The command-line front end: reports, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cuspforge import cli, optimizer, polytope, triangulation

from conftest import (DATA_DIR, GEO4_TEXT, property_chain, run_cli,
                      validate_schema)

# the benchmark's cover builder, perfbench/covers.py
sys.path.append(os.path.join(DATA_DIR, os.pardir, "perfbench"))
import covers  # noqa: E402


@pytest.fixture()
def center_angles_path(tmp_path, fig8_center):
    path = tmp_path / "center.json"
    path.write_text(polytope.angles_to_json(fig8_center))
    return str(path)


@pytest.fixture(scope="module")
def cover4096_path(tmp_path_factory):
    """A relabeled 1024-fold cover of GEO4: 4096 tetrahedra."""
    path = tmp_path_factory.mktemp("covers") / "cover4096.tri"
    path.write_text(covers.cover_text(1024, 1))
    return path


def test_check_reports_combinatorics(capsys, tmp_path, fig8_path,
                                     cover4096_path):
    report = run_cli(capsys, "check", fig8_path)[1]
    res = report["results"]
    assert res["tets"] == 2
    assert sorted(c["degree"] for c in res["edge_classes"]) == [6, 6]
    assert [l["euler_characteristic"] for l in res["vertex_links"]] == [0]
    assert res["is_cusped"] is True
    assert res["incidence_size"] == 12
    assert res["triples"] == 8
    # the 4096-tetrahedron cover: one torus cusp, one edge class per
    # tetrahedron, and the same results from a copy with a leading comment
    # and CRLF line ends, which the same whole-text pass reads
    crlf = tmp_path / "cover4096crlf.tri"
    crlf.write_bytes(b"# a comment\r\n"
                     + cover4096_path.read_bytes().replace(b"\n", b"\r\n"))
    res, res_crlf = (run_cli(capsys, "check", path)[1]["results"]
                     for path in (cover4096_path, crlf))
    assert res["is_cusped"] is True
    assert res["vertex_links"] == [
        {"id": 0, "euler_characteristic": 0, "orientable": True}]
    assert len(res["edge_classes"]) == 4096
    assert res_crlf == res


def test_solve_fig8(capsys, fig8_path):
    report = run_cli(capsys, "solve", fig8_path)[1]
    res = report["results"]
    assert res["status"] == "converged"
    assert abs(res["volume"] - 2.0298832128193072) < 1e-9
    assert np.max(np.abs(np.array(res["point"]) - np.pi / 3.0)) < 1e-7
    assert res["tetrahedra"] == ["positive", "positive"]
    assert res["candidate_complete"] is True
    assert res["certificate"]["signs_ok"] is True
    assert fig8_path in report["inputs"]
    # the dual's bound: at least the maximum, and the gap is its excess
    assert res["volume_upper"] >= 2.0298832128193072 - 1e-14
    assert res["gap"] == res["volume_upper"] - res["volume"]
    assert abs(res["gap"]) < 1e-9
    # the schema requires the bound with the volume
    del report["results"]["volume_upper"]
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError):
        validate_schema(report)


def test_solve_reports_inner_iterations(capsys, fig8_path, flatten3_path,
                                        cover4096_path):
    # the MINRES steps of the Newton steps, a deterministic counter; fig8
    # takes none, since its first iterate, the centre, is the maximizer
    def count(path):
        return run_cli(capsys, "solve", path)[1]["results"][
            "inner_iterations"]

    assert count(fig8_path) == 0
    counts = [count(flatten3_path) for _ in range(2)]
    assert type(counts[0]) is int and counts[0] > 0
    assert counts[0] == counts[1]
    # the Newton step builds no matrix, so the 4096-tetrahedron cover takes
    # at most the 8 Newton and 23 MINRES steps it took when this was set
    res = run_cli(capsys, "solve", cover4096_path)[1]["results"]
    assert res["candidate_complete"] is True
    assert res["iterations"] <= 8 and res["inner_iterations"] <= 23


def test_solve_multi_start(capsys, fig8_path):
    code, report = run_cli(capsys, "solve", fig8_path, "--starts", "4")
    assert code == 0
    ms = report["results"]["multi_start"]
    assert ms["n_starts"] == 4
    assert ms["max_spread"] < 1e-6


def test_solve_multi_start_releases_rejected_pins(capsys, tmp_path):
    # a regression case of the pinned primal ascent: with every pin kept,
    # one start of this probe converged at 1.962782 with a tetrahedron
    # pinned flat that its certificate rejects.  The dual has no pins, and
    # every start must reach V8
    path = tmp_path / "geo4.tri"
    path.write_text(GEO4_TEXT)
    code, report = run_cli(capsys, "solve", str(path), "--starts", "8",
                           "--seed", "253")
    assert code == 0
    ms = report["results"]["multi_start"]
    assert ms["max_spread"] < 1e-6
    assert max(ms["volumes"]) - min(ms["volumes"]) < 1e-9


def test_solve_multi_start_reports_a_probe_result(capsys, fig8_path,
                                                monkeypatch):
    calls = []
    original = optimizer.maximize_volume

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer, "maximize_volume", counted)
    code, report = run_cli(capsys, "solve", fig8_path, "--starts", "3")
    assert code == 0
    assert len(calls) == 3  # one solve per start, no re-solve of the best
    res = report["results"]
    assert res["volume"] == res["multi_start"]["volumes"][0]


def test_solve_multi_start_reports_the_first_start(capsys, tmp_path):
    # the report is the run from y = 0, the plain solve's; the other starts
    # only add multi_start.  With 8 iterations some starts stop at the cap,
    # one of them above the maximum, and that must not become the answer,
    # nor enter the spread: each start's status labels it
    path = tmp_path / "geo4.tri"
    path.write_text(GEO4_TEXT)
    _, plain = run_cli(capsys, "solve", str(path))
    code, report = run_cli(capsys, "solve", str(path), "--starts", "8",
                           "--max-iter", "8", "--seed", "0")
    assert code == cli.EXIT_OK
    res = report["results"]
    assert res["status"] == "converged"
    assert abs(plain["results"]["volume"] - 2.0298832128193) < 1e-12
    for key in ("point", "volume", "iterations"):
        assert res[key] == plain["results"][key]
    ms = res["multi_start"]
    assert ms["statuses"] == ["converged"] + ["iteration-cap"] * 7
    assert max(ms["volumes"]) > res["volume"] + 0.1  # 2.2466, capped
    # one start converged: no spread to report, though the capped points
    # lie far apart (start 5 has every tetrahedron flat, at volume 0)
    assert ms["max_spread"] is None
    assert ms["volumes"][5] == 0.0
    # the y = 0 start converges on the benchmark's labeling of GEO4 too
    path.write_text(covers.cover_text(1, 1))
    report = run_cli(capsys, "solve", path, "--starts", "8", "--max-iter",
                     "8", "--seed", "0")[1]
    assert report["results"]["status"] == "converged"


def test_solve_boundary_maximizer_report(capsys, degenerate4_path):
    # non-empty active set and flat tetrahedra: the report is plain JSON
    report = run_cli(capsys, "solve", degenerate4_path)[1]
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
    # moves272, 272 tetrahedra and no cover, has 14 flat at its maximum
    path = os.path.join(DATA_DIR, "moves272.tri")
    res = run_cli(capsys, "solve", path)[1]["results"]
    assert (res["status"], len(res["flat_tets"])) == ("converged", 14)


def test_solve_flat_complete_structure(capsys, flatten3_path):
    # the complete structure with tetrahedron 3 flat, margin 0
    report = run_cli(capsys, "solve", flatten3_path)[1]
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
    # the solve itself certifies nothing; flatten3's maximizer has
    # tetrahedron 3 flat, and its one certificate is solve's
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return certify(*args, **kwargs)

    certify = optimizer.certify
    monkeypatch.setattr(optimizer, "certify", counted)
    code, _ = run_cli(capsys, "solve", request.getfixturevalue(name + "_path"))
    assert code == cli.EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["fig8", "flatten3", "degenerate4"])
def test_solve_classifies_its_point_twice(capsys, monkeypatch, request, name):
    # the solved point is classified, and tested for slots at a bound, once
    # in cmd_solve and once in certify: maximize_volume classifies nothing,
    # and nothing calls classify_tetrahedra.  flatten3's and degenerate4's
    # maximizers have flat tetrahedra, and flatten3's minimal_face also
    # tests its barrier point, which is not the solved one
    seen = {"classify_membership": [], "at_bound": [],
            "classify_tetrahedra": []}

    def counted(module, attr):
        def wrapper(*args):
            seen[attr].append(np.array(args[-1], dtype=float))
            return fn(*args)
        fn = getattr(module, attr)
        monkeypatch.setattr(module, attr, wrapper)

    counted(polytope, "classify_membership")
    counted(polytope, "at_bound")
    counted(optimizer, "classify_tetrahedra")
    code, report = run_cli(capsys, "solve",
                           request.getfixturevalue(name + "_path"))
    assert code == cli.EXIT_OK
    point = report["results"]["point"]
    assert {key: sum(np.array_equal(x, point) for x in calls)
            for key, calls in seen.items()} == {
        "classify_membership": 2, "at_bound": 2, "classify_tetrahedra": 0}
    assert not seen["classify_tetrahedra"]  # on no point at all


@pytest.mark.parametrize("name, max_iter", [("flatten3", "2"),
                                            ("degenerate4", "3")])
def test_capped_solve_reports_the_slots_at_a_bound(capsys, request, tmp_path,
                                                   name, max_iter):
    # a capped solve stops off the equalities with flat tetrahedra; its
    # active set still lists the slots at a bound, every flat one's among
    # them, and the volume report of its point lists the same slots
    path = request.getfixturevalue(name + "_path")
    code, report = run_cli(capsys, "solve", path, "--max-iter", max_iter)
    assert code == cli.EXIT_NOT_CONVERGED
    res = report["results"]
    assert res["status"] == "iteration-cap"
    assert res["certificate"] is None and res["equality_violation"] > 1e-8
    assert len(res["flat_tets"]) == 2
    flat_slots = {6 * t + k for t in res["flat_tets"] for k in range(6)}
    assert flat_slots <= set(res["active_set"])
    angles = tmp_path / "point.json"
    angles.write_text(polytope.angles_to_json(res["point"]))
    volume = run_cli(capsys, "volume", path, str(angles))[1]["results"]
    assert volume["membership"] == "infeasible"
    assert volume["flat_slots"] == res["active_set"]


def test_solve_results_are_deterministic(capsys, fig8_path):
    _, rep1 = run_cli(capsys, "solve", fig8_path, "--seed", "5")
    _, rep2 = run_cli(capsys, "solve", fig8_path, "--seed", "5")
    # timings differ between runs; the results payload must not
    blob1 = json.dumps(rep1["results"], sort_keys=True)
    blob2 = json.dumps(rep2["results"], sort_keys=True)
    assert blob1 == blob2
    # the envelope's dump hook writes numpy values as Python ones and
    # rejects anything else, as json does
    assert json.dumps([np.arange(2), np.float64(0.5)],
                      default=cli._plain) == "[[0, 1], 0.5]"
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        json.dumps({0}, default=cli._plain)


def test_solve_empty_closure_exit_code(capsys, doubled_path):
    code, report = run_cli(capsys, "solve", doubled_path)
    assert code == cli.EXIT_EMPTY_CLOSURE
    assert report["results"]["status"] == "empty-closure"


@pytest.mark.parametrize("argv, expected", [
    (("dominate", "{fig8}", "{center}", "--samples", "50"), cli.EXIT_OK),
    (("volume", "{fig8}", "{center}"), cli.EXIT_OK),
    (("lambda", "1.0"), cli.EXIT_OK),
    (("move23", "{fig8}", "0", "0", "{out}"), cli.EXIT_OK),
    (("solve", "{doubled}"), cli.EXIT_EMPTY_CLOSURE),
], ids=["dominate", "volume", "lambda", "move23", "solve-empty-closure"])
def test_report_validates_against_the_schema(capsys, tmp_path, fig8_path,
                                             center_angles_path, doubled_path,
                                             argv, expected):
    paths = {"fig8": fig8_path, "center": center_angles_path,
             "doubled": doubled_path, "out": str(tmp_path / "moved.tri")}
    code, report = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == expected
    if expected == cli.EXIT_EMPTY_CLOSURE:
        assert report["results"] == {"status": "empty-closure"}


def test_schema_holds_every_command_to_its_results(capsys, tmp_path,
                                                  fig8_path, flatten3_path):
    # every command's report passes the gate, a boundary certificate with a
    # flat tetrahedron's margin included; a results payload of the wrong
    # shape does not validate
    jsonschema = pytest.importorskip("jsonschema")
    _, solved = run_cli(capsys, "solve", flatten3_path)
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"angles": solved["results"]["point"]}))
    moved = str(tmp_path / "moved.tri")
    reports = {"solve": solved}
    for argv in (("check", flatten3_path), ("certify", flatten3_path, p),
                 ("dominate", flatten3_path, p, "--samples", "5"),
                 ("volume", flatten3_path, p), ("lambda", "1.0"),
                 ("lemmas", "--samples", "5"),
                 ("move23", fig8_path, "0", "0", moved),
                 ("segment", flatten3_path, p, p, "--samples", "2")):
        code, reports[argv[0]] = run_cli(capsys, *argv)
        assert code == cli.EXIT_OK
    assert reports["certify"]["results"]["margins"]
    reports["dominate"]["results"]["worst_gap"] = None  # none informative
    validate_schema(reports["dominate"])
    reports["lemmas"]["results"]["failing"] = 5
    del reports["certify"]["results"]["signs_ok"]
    reports["check"]["results"]["extra"] = 1
    reports["lambda"]["seed"] = -1
    for name in ("lemmas", "certify", "check", "lambda"):
        with pytest.raises(jsonschema.ValidationError):
            validate_schema(reports[name])


def test_solve_iteration_cap_exit_code(capsys, fig8, tmp_path):
    # on fig8 itself (and its 3-tet retriangulation) the point of the minimal
    # face is already the maximizer; after two 2-3 moves it is not, and one
    # iteration cannot converge
    moved = triangulation.pachner_23(triangulation.pachner_23(fig8, (0, 0)),
                                     (0, 0))
    path = tmp_path / "moved.tri"
    path.write_text(triangulation.format_triangulation(moved))
    code, report = run_cli(capsys, "solve", str(path), "--max-iter", "1")
    assert code == cli.EXIT_NOT_CONVERGED
    assert report["results"]["status"] == "iteration-cap"


@pytest.mark.parametrize("name, expected", [("fig8", cli.EXIT_OK),
                                            ("flatten3", cli.EXIT_NOT_CONVERGED)])
def test_solve_one_iteration_report_is_strict_json(capsys, request, name,
                                                   expected):
    # the first iteration takes the edge error at the start, so even one
    # iteration reports a finite KKT residual; fig8's start is its maximizer
    code, report = run_cli(capsys, "solve",
                           request.getfixturevalue(name + "_path"),
                           "--max-iter", "1")
    assert code == expected
    assert report["results"]["iterations"] == 1


@pytest.mark.parametrize("name, argv, lps", [
    ("degenerate4", [], 1),
    ("degenerate4", ["--starts", "4"], 1),
    ("flatten3", [], 0),
    ("fig8", ["--starts", "4"], 0),
    ("chain141", [], 1),
])
def test_solve_finds_the_minimal_face_once(capsys, monkeypatch, request,
                                           name, argv, lps):
    # the LP runs only when the closure has no interior, once per solve:
    # every start and the certificate share its face.  On chain 141, whose
    # minimal face has linear tetrahedra, the same LP gives the face that
    # Newton runs on.  flatten3's maximizer has a flat tetrahedron, but
    # Newton toward the analytic centre finds its interior
    calls = []
    original = polytope.interior_point

    def counted(sys_):
        calls.append(sys_)
        return original(sys_)

    monkeypatch.setattr(polytope, "interior_point", counted)
    code, _ = run_cli(capsys, "solve",
                      request.getfixturevalue(name + "_path"), *argv)
    assert code == cli.EXIT_OK
    assert len(calls) == lps


def test_failed_lp_is_not_an_empty_closure(capsys, monkeypatch, fig8_sys,
                                           doubled_path):
    # an LP that fails (HiGHS status 4, numerical difficulties) raises; only
    # an infeasible one (status 2) reads as an empty closure and exit 3
    import scipy.optimize

    def failed(*args, **kwargs):
        return scipy.optimize.OptimizeResult(
            status=4, success=False, x=None,
            message="Numerical difficulties encountered.")

    monkeypatch.setattr(scipy.optimize, "linprog", failed)
    with pytest.raises(ValueError, match="LP failed"):
        polytope.interior_point(fig8_sys)
    code, err = run_cli(capsys, "solve", doubled_path)
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: interior-point LP failed")


def test_solve_stall_exit_code(capsys, flatten3_path):
    # no residual falls below this tolerance: Newton must stop at the
    # rounding floor instead of running to the iteration cap.  flatten3's
    # floor is about 2e-14; degenerate4's dual can land on an edge error of
    # exactly 0, which is below every tolerance
    t0 = time.perf_counter()
    code, report = run_cli(capsys, "solve", flatten3_path,
                           "--tol", "1e-300", "--max-iter", "2000")
    assert time.perf_counter() - t0 < 2.0
    assert code == cli.EXIT_NOT_CONVERGED
    res = report["results"]
    assert res["status"] == "stalled"
    assert res["iterations"] < 2000
    assert abs(res["volume"] - 2.029883212819307) < 1e-10


def test_capped_solve_of_an_empty_closure_reports(capsys, fig8, tmp_path):
    # property chain 95 has an empty closure.  Capped at 3 iterations the
    # dual stops with two tetrahedra flat, off the edge equations, before
    # it can find the closure empty: a capped report with no certificate,
    # where looking the face up at the flat point once raised a TypeError
    path = tmp_path / "chain95.tri"
    path.write_text(triangulation.format_triangulation(
        property_chain(fig8, 95)))
    assert run_cli(capsys, "solve", str(path))[0] == cli.EXIT_EMPTY_CLOSURE
    code, report = run_cli(capsys, "solve", str(path), "--max-iter", "3")
    assert code == cli.EXIT_NOT_CONVERGED
    res = report["results"]
    assert (res["status"], res["flat_tets"]) == ("iteration-cap", [1, 4])
    assert res["certificate"] is None
    assert res["equality_violation"] > 1.0


def test_solve_off_the_equalities_reports_and_exits_4(capsys, monkeypatch,
                                                     fig8_path, fig8_sys,
                                                     fig8_center):
    # a stalled solve whose point is off the edge equations: certify
    # cannot run there, so the report says why and the exit is the status's
    point = fig8_center.copy()
    point[[0, 5]] += 1e-4  # one angle of tetrahedron 0, both its slots
    stalled = optimizer.OptimizationResult(
        point, 2.0, "stalled", 3e-4, 17, 40, 2.5)
    monkeypatch.setattr(optimizer, "maximize_volume",
                        lambda *args, **kwargs: stalled)
    code, report = run_cli(capsys, "solve", fig8_path)
    assert code == cli.EXIT_NOT_CONVERGED
    res = report["results"]
    assert res["status"] == "stalled"
    assert res["certificate"] is None
    assert res["candidate_complete"] is False
    violation = polytope.classify_membership(fig8_sys, point)
    assert res["equality_violation"] == violation.equality_violation > 1e-4


def test_certify_center(capsys, fig8_path, center_angles_path):
    report = run_cli(capsys, "certify", fig8_path, center_angles_path)[1]
    res = report["results"]
    assert res["membership"] == "interior"
    assert res["gradient_residual"] < 1e-10
    assert res["signs_ok"] is True
    assert res["margins"] == []
    assert res["fit_iterations"] >= 1


def test_certify_seed_is_recorded_but_inert(capsys, tmp_path, fig8_path,
                                            fig8_face_point):
    # certify draws no samples, at a boundary point neither
    path = tmp_path / "face.json"
    path.write_text(polytope.angles_to_json(fig8_face_point))
    reports = [run_cli(capsys, "certify", fig8_path, str(path),
                       "--seed", seed)[1] for seed in ("1", "2")]
    assert [r["seed"] for r in reports] == [1, 2]
    assert reports[0]["results"] == reports[1]["results"]
    res = reports[0]["results"]
    assert res["membership"] == "boundary"
    assert res["signs_ok"] is False
    assert [t for t, _, _ in res["margins"]] == [0]


def test_volume_center(capsys, fig8_path, center_angles_path):
    report = run_cli(capsys, "volume", fig8_path, center_angles_path)[1]
    assert abs(report["results"]["volume"] - 2.0298832128193072) < 1e-12
    assert report["results"]["membership"] == "interior"


def test_dominate_center(capsys, tmp_path, fig8_path, center_angles_path):
    report = run_cli(capsys, "dominate", fig8_path,
                     center_angles_path, "--samples", "100")[1]
    res = report["results"]
    assert res["all_dominated"] is True
    assert res["samples"] == 100
    assert 0 < res["informative_samples"] <= 100
    # at the maximizer that solve reports, every sample is informative
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"angles": run_cli(
        capsys, "solve", fig8_path)[1]["results"]["point"]}))
    res = run_cli(capsys, "dominate", fig8_path, path, "--samples", "50")[1][
        "results"]
    assert res["all_dominated"] is True
    assert res["informative_samples"] == res["samples"] == 50


def test_dominate_single_point_closure_is_strict_json(capsys, tmp_path,
                                                      fig8):
    # every slot of this chain's closure is fixed: each sample equals the
    # maximizer, none is informative, and the report says so in strict JSON
    tri_path = tmp_path / "chain142.tri"
    tri_path.write_text(triangulation.format_triangulation(
        property_chain(fig8, 142)))
    code, report = run_cli(capsys, "solve", str(tri_path))
    assert code == 0
    point_path = tmp_path / "maximizer.json"
    point_path.write_text(json.dumps({"angles": report["results"]["point"]}))
    report = run_cli(capsys, "dominate", tri_path, point_path,
                     "--samples", "20")[1]
    res = report["results"]
    assert res["samples"] == 20
    assert res["informative_samples"] == 0
    assert res["worst_gap"] is None


def test_lambda_command(capsys):
    report = run_cli(capsys, "lambda", str(np.pi / 6.0))[1]
    assert abs(report["results"]["lambda"] - 0.50747080320482681) < 1e-14


def test_segment_report(capsys, fig8_path, tmp_path, fig8_sys, fig8_center):
    # from the centre toward a closure point drawn from the LP's point, and
    # from the maximizer that solve reports toward one drawn from it
    maximizer = run_cli(capsys, "solve", fig8_path)[1]["results"]["point"]
    p_path = tmp_path / "p.json"
    q_path = tmp_path / "q.json"
    for p, seed, start, n in [
            (fig8_center, 40, polytope.interior_point(fig8_sys)[0], 10),
            (maximizer, 1, maximizer, 5)]:
        q = polytope.sample_closure_points(
            fig8_sys, np.random.default_rng(seed), 1, start=start,
            boundary_fraction=0.0)[0]
        p_path.write_text(polytope.angles_to_json(p))
        q_path.write_text(polytope.angles_to_json(q))
        report = run_cli(capsys, "segment", fig8_path, p_path, q_path,
                         "--samples", n)[1]
        assert report["command"] == "segment"
        assert sorted(report["inputs"]) == sorted([fig8_path, str(p_path),
                                                   str(q_path)])
        res = report["results"]
        assert res["t"] == (np.arange(1, n + 1) / (n + 1)).tolist()
        f, fp = res["volume"], res["derivative"]
        assert len(f) == len(fp) == n
        # volume decreases away from the maximizer, derivative is negative
        assert all(f[i] >= f[i + 1] for i in range(n - 1))
        assert all(d <= 1e-12 for d in fp)


def test_segment_rejects_infeasible_endpoint(capsys, fig8_path, tmp_path,
                                             fig8_center):
    bad = fig8_center.copy()
    bad[0] += 0.5
    p_path = tmp_path / "p.json"
    q_path = tmp_path / "q.json"
    p_path.write_text(polytope.angles_to_json(bad))
    q_path.write_text(polytope.angles_to_json(fig8_center))
    assert run_cli(capsys, "segment", fig8_path, p_path, q_path) == (
        cli.EXIT_PARSE, "error: p is not in the closure (violation 0.5)\n")


def test_an_array_too_large_to_allocate_is_an_input_error(
        capsys, monkeypatch, fig8_path, center_angles_path):
    # one error line and exit 2, no traceback: 10^15 segment samples need
    # 8 PB for t alone, more than any machine maps, and a worker that runs
    # out of memory is the same case
    code, err = run_cli(capsys, "segment", fig8_path, center_angles_path,
                        center_angles_path, "--samples", 10 ** 15)
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 43.7 TiB")

    monkeypatch.setattr(optimizer, "dominance_check", exhausted)
    assert run_cli(capsys, "dominate", fig8_path, center_angles_path) == (
        cli.EXIT_PARSE, "error: Unable to allocate 43.7 TiB\n")


def test_lemmas_suite_passes(capsys):
    for argv in (["--samples", "50", "--seed", "1"], ["--samples", "1000"]):
        code, report = run_cli(capsys, "lemmas", *argv)
        assert code == 0
        assert report["results"]["failing"] == []


@pytest.mark.parametrize("attr,delta,broken", [
    ("arcs", 1e-3, ["cosine_law", "edge_length_sum"]),
    ("angles", 1e-3, ["length_identity", "sine_ratio"]),
    ("average", 10.0, ["length_identity", "sine_ratio",
                       "triangle_inequality"]),
    ("entropy", None, ["entropy"]),
], ids=["arcs", "angles", "average", "entropy"])
def test_lemmas_perturbation_self_test(capsys, monkeypatch, attr, delta,
                                       broken):
    # a fault injected into what the suite computes fails its checks, and
    # only those: a shift of column 0 of one array of every batch drawn, or
    # an entropy inequality whose sign is flipped
    from cuspforge import geometry, lobachevsky

    if attr == "entropy":
        entropy = lobachevsky.entropy_inequality
        monkeypatch.setattr(lobachevsky, "entropy_inequality",
                            lambda *a: -entropy(*a))
    else:
        draw = geometry.random_tetrahedra

        def faulty(*args):
            tets = draw(*args)
            getattr(tets, attr)[:, 0] += delta
            return tets

        monkeypatch.setattr(geometry, "random_tetrahedra", faulty)
    code, report = run_cli(capsys, "lemmas", "--samples", "10")
    assert code == cli.EXIT_SUITE_FAILURE
    assert report["results"]["failing"] == broken


def test_move23_writes_valid_file(capsys, fig8_path, tmp_path):
    out_path = str(tmp_path / "moved.tri")
    report = run_cli(capsys, "move23", fig8_path, "0", "0", out_path)[1]
    res = report["results"]
    assert res["after"]["tets"] == 3
    assert res["after"]["edge_classes"] == 3
    with open(out_path) as fh:
        moved = triangulation.parse_triangulation(fh.read())
    assert moved.n_tets == 3
    res = run_cli(capsys, "check", out_path)[1]["results"]
    assert (res["tets"], len(res["edge_classes"])) == (3, 3)
    assert res["is_cusped"] is True


def test_move23_in_place_records_the_input_it_read(capsys, fig8_path,
                                                   tmp_path):
    # the output overwrites the input: the envelope hashes the fig8 bytes
    # the command parsed, not the three-tetrahedron file it wrote
    path = tmp_path / "fig8.tri"
    with open(fig8_path, "rb") as fh:
        path.write_bytes(fh.read())
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    report = run_cli(capsys, "move23", str(path), "0", "0", str(path))[1]
    assert report["inputs"] == {str(path): digest}
    assert triangulation.parse_triangulation(path.read_text()).n_tets == 3


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.tri"
    bad.write_text("tri 1\ntets 1\nglue 0 0 zero\n")
    code, err = run_cli(capsys, "check", str(bad))
    assert code == cli.EXIT_PARSE
    assert "parse error" in err
    # CRLF ends and a comment, with one face glued: the unglued face is
    # named on the tets line, and nothing else reaches stderr
    bad.write_bytes(b"tri 1\r\ntets 2\r\n# one face only\r\n"
                    b"glue 0 0 1 0132\r\n")
    assert run_cli(capsys, "check", bad) == (
        cli.EXIT_PARSE, "parse error: line 2: unglued face (0, 1)\n")


def test_validation_error_names_its_line(capsys, tmp_path):
    bad = tmp_path / "bad.tri"
    bad.write_text("tri 1\ntets 1\n" + "".join(
        "glue 0 %d 0 %s\n" % (f, "1023" if f == 1 else "1032")
        for f in range(4)))
    code, err = run_cli(capsys, "check", str(bad))
    assert code == cli.EXIT_PARSE
    assert "parse error: line 3: non-involutive gluing at face (0, 0)" in err


def test_huge_tetrahedron_count_exit_code(capsys, tmp_path):
    bad = tmp_path / "huge.tri"
    bad.write_text("tri 1\ntets 1000000000000\n"
                   "glue 0 0 0 1032\nglue 0 1 0 1032\n")
    code, err = run_cli(capsys, "check", str(bad))
    assert code == cli.EXIT_PARSE
    assert "parse error: line 2: unglued face (0, 2)" in err


def test_missing_file_exit_code(capsys, tmp_path):
    code, err = run_cli(capsys, "check", str(tmp_path / "nope.tri"))
    assert code == cli.EXIT_PARSE


def test_malformed_tets_line_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.tri"
    bad.write_text("tri 1\ntets x\n")
    assert run_cli(capsys, "check", bad) == (
        cli.EXIT_PARSE,
        "parse error: line 2: expected 'tets <N>', got 'tets x'\n")


def test_move23_rejects_an_invalid_face(capsys, fig8_path, tmp_path):
    out_path = tmp_path / "out.tri"
    assert run_cli(capsys, "move23", fig8_path, "5", "0", out_path) == (
        cli.EXIT_PARSE, "error: invalid face (5, 0)\n")
    assert not out_path.exists()


def test_dominate_rejects_an_infeasible_point(capsys, fig8_path, tmp_path):
    # every angle 1: each tetrahedron's angles sum to 3, not pi
    path = tmp_path / "ones.json"
    path.write_text(json.dumps({"angles": [1.0] * 12}))
    assert run_cli(capsys, "dominate", fig8_path, path) == (
        cli.EXIT_PARSE, "error: reference point is infeasible\n")


def test_bad_seed_env_var_is_a_usage_error(capsys, monkeypatch, fig8_path):
    # the parser reads the variable for its defaults, so every subcommand
    # meets it; the console script prints one line, no traceback
    env = dict(os.environ, CUSPFORGE_SEED="abc")
    out = subprocess.run([sys.executable, "-m", "cuspforge.cli", "lambda",
                          "1.0"], capture_output=True, text=True, env=env)
    message = "error: CUSPFORGE_SEED must be an integer, got 'abc'\n"
    assert (out.returncode, out.stdout, out.stderr) \
        == (cli.EXIT_PARSE, "", message)
    for value, rule in (("1.5", "an integer"),
                        ("-5", "a non-negative integer"),
                        ("-1", "a non-negative integer")):
        monkeypatch.setenv("CUSPFORGE_SEED", value)
        for argv in (["check", fig8_path], ["lemmas", "--samples", "5"],
                     ["lambda", "1.0"]):
            assert run_cli(capsys, *argv) == (
                cli.EXIT_PARSE,
                "error: CUSPFORGE_SEED must be %s, got %r\n" % (rule, value))


def test_seed_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("CUSPFORGE_SEED", "77")
    code, report = run_cli(capsys, "lemmas", "--samples", "5")
    assert code == 0
    assert report["seed"] == 77


@pytest.mark.parametrize("content", ['{"foo": 1}', '{"angles": {"a": 1}}'])
def test_malformed_angle_file_exit_code(capsys, fig8_path, tmp_path,
                                        content):
    path = tmp_path / "angles.json"
    path.write_text(content)
    code, err = run_cli(capsys, "volume", fig8_path, str(path))
    assert code == cli.EXIT_PARSE
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["volume", "certify"])
def test_deeply_nested_angle_file_exit_code(capsys, fig8_path, tmp_path,
                                            command):
    # deeper than the JSON decoder recurses: one error line, no traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert run_cli(capsys, command, fig8_path, path) == (
        cli.EXIT_PARSE,
        "error: angle vector must be a flat array of finite numbers\n")


def test_angle_file_in_another_ordering_exit_code(capsys, fig8_path,
                                                  tmp_path):
    other = "tet-lex;edges=23,13,12,03,02,01"
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"ordering": other,
                                "angles": [np.pi / 3.0] * 12}))
    assert run_cli(capsys, "volume", fig8_path, path) == (
        cli.EXIT_PARSE, "error: angle file ordering %r is not %r\n" % (
            other, polytope.ORDERING_CONVENTION))


# Finite angle files past half the float range: a slot pair's sum
# overflows in polytope.to_angles, or its difference in the equality errors
HUGE_ANGLES = {
    "sum": ([1e308, -1e308, 1.7e308, 1.7e308, -1e308, 1e308] * 2, "nan",
            list(range(12))),
    "difference": ([1.7e308, 1, 1, 1, 1, -1.7e308] * 2, "inf",
                   [0, 5, 6, 11]),
}


@pytest.mark.parametrize("name", sorted(HUGE_ANGLES))
def test_huge_finite_angles_warn_nothing(capsys, tmp_path, fig8_path,
                                         center_angles_path, name):
    # the report or the error line says the point is off the closure, and
    # stderr holds nothing else; a numpy overflow warning would fail the
    # test, as every warning does (pyproject.toml's filterwarnings)
    angles, violation, flat = HUGE_ANGLES[name]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(angles))
    report = run_cli(capsys, "volume", fig8_path, str(path))[1]
    res = report["results"]
    assert (res["membership"], res["flat_slots"]) == ("infeasible", flat)
    for argv, line in [
            (("certify", fig8_path, str(path)),
             "cannot certify an infeasible point (equality violation %s)"
             % violation),
            (("dominate", fig8_path, str(path), "--samples", "20"),
             "reference point is infeasible"),
            (("segment", fig8_path, str(path), center_angles_path),
             "p is not in the closure (violation %s)" % violation)]:
        assert run_cli(capsys, *argv) == (cli.EXIT_PARSE, "error: %s\n" % line)


def test_zero_samples_is_a_usage_error(capsys, fig8_path, center_angles_path):
    for argv in (["dominate", fig8_path, center_angles_path, "--samples", "0"],
                 ["lemmas", "--samples", "0"]):
        code, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_PARSE
        assert "--samples" in err


@pytest.mark.parametrize("argv,flag", [
    (["solve", "FIG8", "--max-iter", "0"], "--max-iter"),
    (["solve", "FIG8", "--starts", "0"], "--starts"),
    (["solve", "FIG8", "--starts", "-3"], "--starts"),
    (["solve", "FIG8", "--tol", "nan"], "--tol"),
    (["solve", "FIG8", "--tol", "0"], "--tol"),
    (["solve", "FIG8", "--tol", "-1"], "--tol"),
    (["solve", "FIG8", "--tol", "inf"], "--tol"),
    # numpy's generator takes no negative seed, on any command
    (["solve", "FIG8", "--seed", "-1"], "--seed"),
    (["solve", "FIG8", "--starts", "2", "--seed", "-1"], "--seed"),
    (["certify", "FIG8", "p.json", "--seed", "-1"], "--seed"),
    (["dominate", "FIG8", "p.json", "--seed", "-1"], "--seed"),
    (["lemmas", "--samples", "5", "--seed", "-1"], "--seed"),
], ids=["max-iter=0", "starts=0", "starts=-3", "tol=nan", "tol=0", "tol=-1",
        "tol=inf", "solve-seed=-1", "starts-seed=-1", "certify-seed=-1",
        "dominate-seed=-1", "lemmas-seed=-1"])
def test_vacuous_or_endless_numeric_flag_is_a_usage_error(capsys, fig8_path,
                                                          argv, flag):
    code, err = run_cli(capsys, *(fig8_path if a == "FIG8" else a
                                  for a in argv))
    assert code == cli.EXIT_PARSE
    assert flag in err


def test_check_gieseking_is_cusped(capsys, gieseking_path):
    report = run_cli(capsys, "check", gieseking_path)[1]
    res = report["results"]
    assert res["edge_classes"] == [{"id": 0, "degree": 6}]
    assert res["vertex_links"] == [
        {"id": 0, "euler_characteristic": 0, "orientable": False}]
    assert res["is_cusped"] is True


def test_solve_gieseking(capsys, gieseking_path):
    report = run_cli(capsys, "solve", gieseking_path)[1]
    res = report["results"]
    assert res["status"] == "converged"
    assert abs(res["volume"] - 2.029883212819307 / 2) < 1e-10
    assert np.allclose(res["point"], np.pi / 3, rtol=0.0, atol=1e-10)
    assert res["candidate_complete"] is True


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_lambda_rejects_non_finite_theta(capsys, theta):
    code, err = run_cli(capsys, "lambda", theta)
    assert code == cli.EXIT_PARSE
    assert "finite" in err


def test_lambda_bound(capsys):
    # up to the bound the value is within 1e-12 of the exact one: at the
    # bound, and at 159 pi, the multiple of pi below it where reducing by
    # the float pi errs most; beyond it, a usage error on one line
    mpmath = pytest.importorskip("mpmath")
    bound = cli.LAMBDA_MAX_THETA
    with mpmath.workdps(40):
        for theta in (bound, -bound, 159 * np.pi,
                      float(np.nextafter(159 * np.pi, 0))):
            report = run_cli(capsys, "lambda", repr(theta))[1]
            t = mpmath.mpf(theta)
            exact = mpmath.clsin(2, 2 * (t - mpmath.pi * mpmath.floor(
                t / mpmath.pi))) / 2
            assert abs(report["results"]["lambda"] - float(exact)) <= 1e-12
    above = float(np.nextafter(bound, np.inf))
    for theta in (above, -above, 1e15, 1e308):
        assert run_cli(capsys, "lambda", repr(theta)) == (
            cli.EXIT_PARSE,
            "error: |theta| must be at most 512, got %r\n" % theta)


def test_cli_import_does_not_load_scipy(tmp_path, fig8_path, fig8_sys,
                                       fig8_center, flatten3_path):
    # the commands that never solve an LP start and run without scipy,
    # whose import would dominate their run time; so do solve, with one
    # start or several, and dominate when the closure has interior: Newton
    # from the centre of the box toward the analytic centre then finds the
    # minimal face with no LP, also on flatten3, whose maximizer has
    # tetrahedron 3 flat
    rng = np.random.default_rng(41)
    q = polytope.sample_closure_points(
        fig8_sys, rng, 1, start=polytope.interior_point(fig8_sys)[0],
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
    # the script prints the runs after which scipy was loaded
    script = (
        "import contextlib, io, os, sys\n"
        "import cuspforge.cli as cli\n"
        "loaded = ['import'] if 'scipy' in sys.modules else []\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    if 'scipy' in sys.modules:\n"
        "        loaded.append(' '.join(map(os.path.basename, argv)))\n"
        "print(loaded)\n" % commands)
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_cli_import_does_not_load_geometry():
    # only lemmas uses geometry, and imports it when it runs
    script = ("import sys, cuspforge.cli\n"
              "sys.exit('cuspforge.geometry' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
