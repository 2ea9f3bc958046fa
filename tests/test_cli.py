"""The command-line front end: reports, exit codes, determinism."""

import hashlib
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
    # the dual's bound: at least the maximum, and the gap is its excess
    assert res["volume_upper"] >= 2.0298832128193072 - 1e-14
    assert res["gap"] == res["volume_upper"] - res["volume"]
    assert abs(res["gap"]) < 1e-9
    # the schema requires the bound with the volume
    del report["results"]["volume_upper"]
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError):
        validate_schema(report)


def test_solve_reports_inner_iterations(capsys, fig8_path, flatten3_path):
    # the MINRES steps of the Newton steps, a deterministic counter; fig8
    # takes none, since its first iterate, the centre, is the maximizer
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
    # a regression case of the pinned primal ascent: with every pin kept,
    # one start of this probe converged at 1.962782 with a tetrahedron
    # pinned flat that its certificate rejects.  The dual has no pins, and
    # every start must reach V8
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
    original = optimizer._maximize

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_maximize", counted)
    code, report, _ = run_json(capsys, "solve", fig8_path, "--starts", "3")
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
    _, plain, _ = run_json(capsys, "solve", str(path))
    code, report, _ = run_json(capsys, "solve", str(path), "--starts", "8",
                               "--max-iter", "8", "--seed", "0")
    assert code == cli.EXIT_OK
    validate_schema(report)
    res = report["results"]
    assert res["status"] == "converged"
    assert abs(plain["results"]["volume"] - 2.0298832128193) < 1e-12
    for key in ("point", "volume", "iterations"):
        assert res[key] == plain["results"][key]
    ms = res["multi_start"]
    assert ms["statuses"] == ["converged"] + ["iteration-cap"] * 7
    assert max(ms["volumes"]) > res["volume"] + 0.1  # 2.2466, capped
    # one start converged: no spread, though the capped points lie far
    # apart (start 5 has every tetrahedron flat, at volume 0)
    assert ms["max_spread"] == 0.0
    assert ms["volumes"][5] == 0.0


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
    # the solve itself certifies nothing; flatten3's maximizer has
    # tetrahedron 3 flat, and its one certificate is solve's
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


@pytest.mark.parametrize("name, calls", [("fig8", 2), ("flatten3", 3)])
def test_solve_membership_classifications(capsys, monkeypatch, request,
                                          name, calls):
    # cmd_solve's call and certify's; on flatten3, whose maximizer has a
    # flat tetrahedron, also minimal_face's test of its barrier point.  The
    # solve's own active slots come from the at-bound mask, not from
    # another classification
    counted_calls = []

    def counted(*args, **kwargs):
        counted_calls.append(args)
        return classify(*args, **kwargs)

    classify = polytope.classify_membership
    monkeypatch.setattr(polytope, "classify_membership", counted)
    code, _, _ = run_json(capsys, "solve",
                          request.getfixturevalue(name + "_path"))
    assert code == cli.EXIT_OK
    assert len(counted_calls) == calls


@pytest.mark.parametrize("name, max_iter", [("flatten3", "2"),
                                            ("degenerate4", "3")])
def test_capped_solve_reports_the_slots_at_a_bound(capsys, request, tmp_path,
                                                   name, max_iter):
    # a capped solve stops off the equalities with flat tetrahedra; its
    # active set still lists the slots at a bound, every flat one's among
    # them, and the volume report of its point lists the same slots
    path = request.getfixturevalue(name + "_path")
    code, report, _ = run_json(capsys, "solve", path, "--max-iter", max_iter)
    assert code == cli.EXIT_NOT_CONVERGED
    res = report["results"]
    assert res["status"] == "iteration-cap"
    assert res["certificate"] is None and res["equality_violation"] > 1e-8
    assert len(res["flat_tets"]) == 2
    flat_slots = {6 * t + k for t in res["flat_tets"] for k in range(6)}
    assert flat_slots <= set(res["active_set"])
    angles = tmp_path / "point.json"
    angles.write_text(polytope.angles_to_json(res["point"]))
    volume = run_json(capsys, "volume", path, str(angles))[1]["results"]
    assert volume["membership"] == "infeasible"
    assert volume["flat_slots"] == res["active_set"]


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
    code, report, err = run_json(capsys, *(a.format(**paths) for a in argv))
    assert (code, err) == (expected, "")
    validate_schema(report)
    if expected == cli.EXIT_EMPTY_CLOSURE:
        assert report["results"] == {"status": "empty-closure"}


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
    # the first iteration takes the edge error at the start, so even one
    # iteration reports a finite KKT residual; fig8's start is its maximizer
    def reject(constant):
        raise ValueError("non-JSON constant %s" % constant)

    code, out, _ = run_cli(capsys, "solve",
                           request.getfixturevalue(name + "_path"),
                           "--max-iter", "1")
    assert code == expected
    res = json.loads(out, parse_constant=reject)["results"]
    assert res["iterations"] == 1
    assert math.isfinite(res["kkt_residual"])


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
    code, _, _ = run_cli(capsys, "solve",
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
    code, out, err = run_cli(capsys, "solve", doubled_path)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith("error: interior-point LP failed")


def test_solve_stall_exit_code(capsys, flatten3_path):
    # no residual falls below this tolerance: Newton must stop at the
    # rounding floor instead of running to the iteration cap.  flatten3's
    # floor is about 2e-14; degenerate4's dual can land on an edge error of
    # exactly 0, which is below every tolerance
    t0 = time.perf_counter()
    code, report, _ = run_json(capsys, "solve", flatten3_path,
                               "--tol", "1e-300", "--max-iter", "2000")
    assert time.perf_counter() - t0 < 2.0
    assert code == cli.EXIT_NOT_CONVERGED
    res = report["results"]
    assert res["status"] == "stalled"
    assert res["iterations"] < 2000
    assert abs(res["volume"] - 2.029883212819307) < 1e-10


def test_solve_off_the_equalities_reports_and_exits_4(capsys, monkeypatch,
                                                     fig8_path, fig8_sys,
                                                     fig8_center):
    # a stalled solve whose point is off the edge equations: certify
    # cannot run there, so the report says why and the exit is the status's
    point = fig8_center.copy()
    point[[0, 5]] += 1e-4  # one angle of tetrahedron 0, both its slots
    stalled = optimizer.OptimizationResult(
        point, 2.0, "stalled", (), frozenset(), 3e-4,
        17, frozenset(), 40, 2.5)
    monkeypatch.setattr(optimizer, "_maximize",
                        lambda *args, **kwargs: stalled)
    code, out, err = run_cli(capsys, "solve", fig8_path)
    assert code == cli.EXIT_NOT_CONVERGED
    assert err == ""

    def reject(constant):
        raise ValueError("not strict JSON: " + constant)

    report = json.loads(out, parse_constant=reject)
    validate_schema(report)
    res = report["results"]
    assert res["status"] == "stalled"
    assert res["certificate"] is None
    assert res["candidate_complete"] is False
    violation = polytope.classify_membership(fig8_sys, point)
    assert res["equality_violation"] == violation.equality_violation > 1e-4


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
                                            fig8_face_point):
    # certify draws no samples, at a boundary point neither
    path = tmp_path / "face.json"
    path.write_text(polytope.angles_to_json(fig8_face_point))
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


def test_segment_report(capsys, fig8_path, tmp_path, fig8_sys, fig8_center):
    rng = np.random.default_rng(40)
    q = polytope.sample_closure_points(
        fig8_sys, rng, 1, start=polytope.interior_point(fig8_sys)[0],
        boundary_fraction=0.0)[0]
    p_path = tmp_path / "p.json"
    q_path = tmp_path / "q.json"
    p_path.write_text(polytope.angles_to_json(fig8_center))
    q_path.write_text(polytope.angles_to_json(q))
    code, out, _ = run_cli(capsys, "segment", fig8_path, str(p_path),
                           str(q_path), "--samples", "10")
    assert code == 0

    def reject(constant):
        raise ValueError("not strict JSON: " + constant)

    report = json.loads(out, parse_constant=reject)
    validate_schema(report)
    assert report["command"] == "segment"
    assert sorted(report["inputs"]) == sorted([fig8_path, str(p_path),
                                               str(q_path)])
    res = report["results"]
    assert math.isfinite(res["derivative_limit"])
    assert res["t"] == (np.arange(1, 11) / 11).tolist()
    f, fp = res["volume"], res["derivative"]
    assert len(f) == len(fp) == 10
    # volume decreases away from the maximizer, derivative is negative
    assert all(f[i] >= f[i + 1] for i in range(9))
    assert all(d <= 1e-12 for d in fp)


def test_segment_rejects_infeasible_endpoint(capsys, fig8_path, tmp_path,
                                             fig8_center):
    bad = fig8_center.copy()
    bad[0] += 0.5
    p_path = tmp_path / "p.json"
    q_path = tmp_path / "q.json"
    p_path.write_text(polytope.angles_to_json(bad))
    q_path.write_text(polytope.angles_to_json(fig8_center))
    code, out, err = run_cli(capsys, "segment", fig8_path, str(p_path),
                             str(q_path))
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == "error: p is not in the closure (violation 0.5)\n"


def test_lemmas_suite_passes(capsys):
    code, report, _ = run_json(capsys, "lemmas", "--samples", "50",
                               "--seed", "1")
    assert code == 0
    validate_schema(report)
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
    code, report, _ = run_json(capsys, "lemmas", "--samples", "10")
    assert code == cli.EXIT_SUITE_FAILURE
    validate_schema(report)
    assert report["results"]["failing"] == broken


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


def test_move23_in_place_records_the_input_it_read(capsys, fig8_path,
                                                   tmp_path):
    # the output overwrites the input: the envelope hashes the fig8 bytes
    # the command parsed, not the three-tetrahedron file it wrote
    path = tmp_path / "fig8.tri"
    with open(fig8_path, "rb") as fh:
        path.write_bytes(fh.read())
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    code, report, _ = run_json(capsys, "move23", str(path), "0", "0",
                               str(path))
    assert code == 0
    assert report["inputs"] == {str(path): digest}
    assert triangulation.parse_triangulation(path.read_text()).n_tets == 3


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


def test_malformed_tets_line_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.tri"
    bad.write_text("tri 1\ntets x\n")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == "parse error: line 2: expected 'tets <N>', got 'tets x'\n"


def test_move23_rejects_an_invalid_face(capsys, fig8_path, tmp_path):
    out_path = tmp_path / "out.tri"
    code, out, err = run_cli(capsys, "move23", fig8_path, "5", "0",
                             str(out_path))
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == "error: invalid face (5, 0)\n"
    assert not out_path.exists()


def test_dominate_rejects_an_infeasible_point(capsys, fig8_path, tmp_path):
    # every angle 1: each tetrahedron's angles sum to 3, not pi
    path = tmp_path / "ones.json"
    path.write_text(json.dumps({"angles": [1.0] * 12}))
    code, out, err = run_cli(capsys, "dominate", fig8_path, str(path))
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == "error: reference point is infeasible\n"


def test_bad_seed_env_var_is_a_usage_error(capsys, monkeypatch, fig8_path):
    # the parser reads the variable for its defaults, so every subcommand
    # meets it; the console script prints one line, no traceback
    env = dict(os.environ, CUSPFORGE_SEED="abc")
    out = subprocess.run([sys.executable, "-m", "cuspforge.cli", "lambda",
                          "1.0"], capture_output=True, text=True, env=env)
    message = "error: CUSPFORGE_SEED must be an integer, got 'abc'\n"
    assert (out.returncode, out.stdout, out.stderr) \
        == (cli.EXIT_PARSE, "", message)
    monkeypatch.setenv("CUSPFORGE_SEED", "1.5")
    for argv in (["check", fig8_path], ["lemmas", "--samples", "5"]):
        assert run_cli(capsys, *argv) == (
            cli.EXIT_PARSE, "",
            "error: CUSPFORGE_SEED must be an integer, got '1.5'\n")


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


@pytest.mark.parametrize("command", ["volume", "certify"])
def test_deeply_nested_angle_file_exit_code(capsys, fig8_path, tmp_path,
                                            command):
    # deeper than the JSON decoder recurses: one error line, no traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run_cli(capsys, command, fig8_path, str(path))
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == "error: angle vector must be a flat array of finite " \
        "numbers\n"


def test_angle_file_in_another_ordering_exit_code(capsys, fig8_path,
                                                  tmp_path):
    other = "tet-lex;edges=23,13,12,03,02,01"
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"ordering": other,
                                "angles": [np.pi / 3.0] * 12}))
    code, out, err = run_cli(capsys, "volume", fig8_path, str(path))
    assert (code, out) == (cli.EXIT_PARSE, "")
    assert err == "error: angle file ordering %r is not %r\n" % (
        other, polytope.ORDERING_CONVENTION)


# Finite angle files past half the float range: a slot pair's sum
# overflows in polytope.to_angles, or its difference in the equality errors
HUGE_ANGLES = {
    "sum": ([1e308, -1e308, 1.7e308, 1.7e308, -1e308, 1e308] * 2, "nan",
            list(range(12))),
    "difference": ([1.7e308, 1, 1, 1, 1, -1.7e308] * 2, "inf",
                   [0, 5, 6, 11]),
}


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails
@pytest.mark.parametrize("name", sorted(HUGE_ANGLES))
def test_huge_finite_angles_warn_nothing(capsys, tmp_path, fig8_path,
                                         center_angles_path, name):
    # the report or the error line says the point is off the closure, and
    # stderr holds nothing else
    angles, violation, flat = HUGE_ANGLES[name]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(angles))
    code, report, err = run_json(capsys, "volume", fig8_path, str(path))
    assert (code, err) == (cli.EXIT_OK, "")
    res = report["results"]
    assert (res["membership"], res["flat_slots"]) == ("infeasible", flat)
    assert math.isfinite(res["volume"])
    for argv, line in [
            (("certify", fig8_path, str(path)),
             "cannot certify an infeasible point (equality violation %s)"
             % violation),
            (("dominate", fig8_path, str(path), "--samples", "20"),
             "reference point is infeasible"),
            (("segment", fig8_path, str(path), center_angles_path),
             "p is not in the closure (violation %s)" % violation)]:
        assert run_cli(capsys, *argv) == (cli.EXIT_PARSE, "",
                                          "error: %s\n" % line)


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
], ids=["max-iter=0", "starts=0", "starts=-3", "tol=nan", "tol=0", "tol=-1",
        "tol=inf"])
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


def test_lambda_bound(capsys):
    # up to the bound the value is within 1e-12 of the exact one: at the
    # bound, and at 159 pi, the multiple of pi below it where reducing by
    # the float pi errs most; beyond it, a usage error on one line
    mpmath = pytest.importorskip("mpmath")
    bound = cli.LAMBDA_MAX_THETA
    with mpmath.workdps(40):
        for theta in (bound, -bound, 159 * np.pi,
                      float(np.nextafter(159 * np.pi, 0))):
            code, report, _ = run_json(capsys, "lambda", repr(theta))
            assert code == 0
            t = mpmath.mpf(theta)
            exact = mpmath.clsin(2, 2 * (t - mpmath.pi * mpmath.floor(
                t / mpmath.pi))) / 2
            assert abs(report["results"]["lambda"] - float(exact)) <= 1e-12
    above = float(np.nextafter(bound, np.inf))
    for theta in (above, -above, 1e15, 1e308):
        code, out, err = run_cli(capsys, "lambda", repr(theta))
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == "error: |theta| must be at most 512, got %r\n" % theta


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


def test_cli_import_does_not_load_geometry():
    # only lemmas uses geometry, and imports it when it runs
    script = ("import sys, cuspforge.cli\n"
              "sys.exit('cuspforge.geometry' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
