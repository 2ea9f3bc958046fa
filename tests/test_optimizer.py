"""Volume maximization, certificates, uniqueness, and dominance."""

import random
import time

import numpy as np
import pytest

from cuspforge import lobachevsky as lob
from cuspforge import optimizer, polytope, triangulation

from conftest import (GEO4_COCYCLE, GEO4_TEXT, cyclic_cover, flat_point,
                      load_data, movable_chain, property_chain, relabel,
                      run_cli)
from helpers import (dense_newton_step, dominance_reference, fixed_slots,
                     interior_status, lstsq_certificate, null_directions,
                     slot_system)

# Property-test seeds whose chain has a non-empty closure; the closure of
# seed 0 is a single point.
CHAIN_SEEDS_WITH_CLOSURE = (0, 1, 3, 4, 7, 8, 9, 11, 12, 13, 14, 15)

FIG8_VOLUME = 2.0298832128193072

# Property-test seeds whose minimal face has linear tetrahedra (an angle at
# 0, the other two free), the bordered case of the Newton step.
CHAIN_SEEDS_WITH_LINEAR = (12, 19, 105)


def test_fig8_maximizer_is_regular(fig8_sys, fig8_optimum, fig8_center):
    res = fig8_optimum
    assert res.status == "converged"
    assert np.max(np.abs(res.point - fig8_center)) < 1e-7
    assert abs(res.volume - lob.volume(fig8_center)) < 1e-12
    membership = polytope.classify_membership(fig8_sys, res.point)
    assert membership.tetrahedra == ("positive",) * 2
    assert not membership.flat
    assert res.kkt_residual < 1e-8


def test_maximize_respects_custom_start(capsys, monkeypatch, fig8_path,
                                        fig8_sys, fig8_center):
    # a start holds one multiplier per edge class; this one flattens both
    # tetrahedra, and Newton still reaches the regular point
    start = np.random.default_rng(30).standard_normal(2)
    first = optimizer.maximize_volume(fig8_sys, max_iter=1, start=start)
    assert optimizer.classify_tetrahedra(first.point) == ["flat"] * 2
    res = optimizer.maximize_volume(fig8_sys, start=start)
    assert res.status == "converged"
    assert res.iterations > 1
    assert np.max(np.abs(res.point - fig8_center)) < 1e-6
    # with the full step as the only length, the first step fails the
    # Armijo test and the line search stalls.  Seed 30 draws this start
    # second: the report, from y = 0, converges and lists the stall
    monkeypatch.setattr(optimizer, "_HALVINGS", np.array([1.0]))
    res = optimizer.maximize_volume(fig8_sys, start=start)
    assert (res.status, res.iterations) == ("stalled", 1)
    res = run_cli(capsys, "solve", fig8_path, "--starts", "2", "--seed",
                  "30")[1]["results"]
    assert res["multi_start"]["statuses"] == ["converged", "stalled"]


def test_ascent_step_count_does_not_depend_on_the_labeling():
    # GEO4 and its covers of 32 and 256 tetrahedra: the Newton step count is
    # one for all labelings, and neither it nor the MINRES step count rises
    # above what the solver took when these bounds were set
    base = triangulation.parse_triangulation(GEO4_TEXT)
    for fold, iterations, inner in ((1, 7, 17), (8, 8, 22), (64, 8, 23)):
        tri = cyclic_cover(base, GEO4_COCYCLE, fold) if fold > 1 else base
        rng = random.Random(5)
        steps, inner_steps = set(), set()
        for t in [tri] + [relabel(tri, rng) for _ in range(30)]:
            res = optimizer.maximize_volume(
                polytope.build_constraints(triangulation.incidence(t)))
            assert res.status == "converged"
            assert abs(res.volume - fold * 2.029883212819307) < 1e-10 * fold
            steps.add(res.iterations)
            inner_steps.add(res.inner_iterations)
        assert len(steps) == 1, (fold, steps)
        assert steps.pop() <= iterations, fold
        assert max(inner_steps) <= inner, (fold, inner_steps)


def test_centre_start_needs_no_lp(monkeypatch):
    # Newton on the dual from the centre converges with every tetrahedron
    # positive, so the minimal face is never looked up and no LP runs
    sys_ = polytope.build_constraints(
        triangulation.incidence(triangulation.parse_triangulation(GEO4_TEXT)))

    def no_lp(*args, **kwargs):
        raise AssertionError("interior-point LP called")

    monkeypatch.setattr(polytope, "interior_point", no_lp)
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    assert abs(res.volume - 2.029883212819307) < 1e-10
    assert polytope.classify_membership(
        sys_, res.point).equality_violation < 1e-12


def test_maximize_empty_closure(doubled):
    sys_ = polytope.build_constraints(triangulation.incidence(doubled))
    res = optimizer.maximize_volume(sys_)
    assert res.status == "empty-closure"
    assert res.point is None
    assert optimizer.minimal_face(sys_) is None


@pytest.mark.parametrize("seed, lps", [(9, 0), (34, 0), (141, 1),
                                       (161, 1)])
def test_chain_solve_runs_one_unpinned_lp_at_most(fig8, monkeypatch, seed,
                                                   lps):
    # flat tetrahedra at the maximizer (chains 9 and 34) or linear ones on
    # the minimal face (141 and 161): the LP runs once, and only when the
    # closure has no interior, and its face is the result's.  On
    # chain 34, Newton toward the analytic centre finds the interior that
    # the volume's Newton steps from the centre did not
    sys_ = polytope.build_constraints(
        triangulation.incidence(property_chain(fig8, seed)))
    calls, interior_point = [], polytope.interior_point

    def counted(sys_):
        calls.append(sys_)
        return interior_point(sys_)

    monkeypatch.setattr(polytope, "interior_point", counted)
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    assert len(calls) == lps
    monkeypatch.undo()
    assert optimizer.minimal_face(sys_)[0].fixed == (
        interior_point(sys_)[1] if lps else set())
    assert optimizer.certify(sys_, res.point).signs_ok


# Property chains whose minimal face has linear tetrahedra, and the volumes
# that the pinned primal ascent reached on them.  On chains 141 and 161 the
# bordered solve puts p outside [0, pi] (at -0.785 and 3.927) until that
# tetrahedron is fixed flat; unfixed, the volume would read 1.8319.
LINEAR_FACE_VOLUMES = {58: 0.942707362777, 69: 1.333372391725,
                       141: 1.727870495043, 161: 1.727870495043}


@pytest.mark.parametrize("seed", sorted(LINEAR_FACE_VOLUMES))
def test_linear_face_chain_maximum(fig8, seed):
    sys_ = polytope.build_constraints(
        triangulation.incidence(property_chain(fig8, seed)))
    assert optimizer.minimal_face(sys_)[0].linear.size
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    assert abs(res.volume - LINEAR_FACE_VOLUMES[seed]) < 1e-11
    assert res.volume_upper >= LINEAR_FACE_VOLUMES[seed] - 1e-11
    assert polytope.classify_membership(
        sys_, res.point).equality_violation < 1e-9
    assert optimizer.certify(sys_, res.point).signs_ok


def classify_tetrahedra_loop(p, tol=polytope.BOUNDARY_TOL):
    """The per-tetrahedron loop that ``classify_tetrahedra`` replaced."""
    out = []
    for t in range(p.size // 6):
        six = p[6 * t:6 * t + 6]
        pairs_ok = all(abs(six[k] - six[5 - k]) <= tol for k in range(3))
        pair_vals = sorted(0.5 * (six[k] + six[5 - k]) for k in range(3))
        if np.all(six >= tol) and np.all(six <= np.pi - tol):
            out.append("positive")
        elif (pairs_ok and abs(pair_vals[0]) <= tol
              and abs(pair_vals[1]) <= tol
              and abs(pair_vals[2] - np.pi) <= tol):
            out.append("flat")
        else:
            out.append("invalid")
    return out


def test_classify_tetrahedra_matches_loop():
    rng = np.random.default_rng(32)
    tol = polytope.BOUNDARY_TOL
    flat = np.array([0.0, 0.0, np.pi, np.pi, 0.0, 0.0])
    rows = [rng.uniform(0.1, np.pi - 0.1, size=(200, 6)),
            np.tile(flat, (50, 1)),
            np.tile(flat[[2, 0, 1, 4, 5, 3]], (50, 1)),
            rng.uniform(-1.0, 4.0, size=(200, 6))]
    # within a few tol of the bounds and of the flat pattern
    for base in (flat, np.full(6, tol), np.full(6, np.pi - tol)):
        rows.append(base + tol * rng.uniform(-3.0, 3.0, size=(300, 6)))
        rows.append(base + tol * rng.choice([-1.0, 0.0, 1.0], (300, 6)))
    x = np.concatenate([r.ravel() for r in rows])
    x = x.reshape(-1, 6)[rng.permutation(x.size // 6)].ravel()
    classes = optimizer.classify_tetrahedra(x)
    assert classes == classify_tetrahedra_loop(x)
    assert {"positive", "flat", "invalid"} <= set(classes)


def test_classify_tetrahedra_patterns():
    positive = np.full(6, np.pi / 3)
    flat = np.array([0.0, 0.0, np.pi, np.pi, 0.0, 0.0])
    invalid = np.array([0.0, 0.2, np.pi - 0.2, np.pi - 0.2, 0.2, 0.0])
    x = np.concatenate([positive, flat, invalid, positive])
    classes = ["positive", "flat", "invalid", "positive"]
    assert optimizer.classify_tetrahedra(x) == classes
    assert classify_tetrahedra_loop(x) == classes
    # the membership's classes, on a 4-tetrahedron system that sets only
    # the length, are the same
    system = polytope.build_constraints(triangulation.incidence(
        triangulation.parse_triangulation(GEO4_TEXT)))
    assert polytope.classify_membership(system, x).tetrahedra == tuple(
        classes)


def test_certify_at_optimum(fig8_sys, fig8_optimum):
    cert = optimizer.certify(fig8_sys, fig8_optimum.point)
    assert cert.gradient_residual < 1e-8
    assert cert.signs_ok
    assert cert.active_multipliers == ()
    # two tetrahedron rows, then two edge rows
    assert cert.multipliers.shape == (4,)


def certify_points(sys_):
    """The maximizer, a random point of the relative interior of the
    minimal face and a random boundary point."""
    rng = np.random.default_rng(33)
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    origin = polytope.interior_point(sys_)[0]
    inner, outer = (polytope.sample_closure_points(
        sys_, rng, 1, start=origin, boundary_fraction=fraction)[0]
        for fraction in (0.0, 1.0))
    return {"maximizer": res.point, "interior": inner, "boundary": outer}


def assert_fit_matches_dense(tri, sys_, p):
    cert = optimizer.certify(sys_, p)
    lam, active, residual = lstsq_certificate(tri, p)
    np.testing.assert_allclose(cert.multipliers, lam, rtol=0.0, atol=1e-10)
    assert [i for i, _ in cert.active_multipliers] == [i for i, _ in active]
    np.testing.assert_allclose([v for _, v in cert.active_multipliers],
                               [v for _, v in active], rtol=0.0, atol=1e-10)
    assert abs(cert.gradient_residual - residual) <= 1e-10
    return cert


@pytest.mark.parametrize("name", ["fig8", "degenerate4", "gieseking"])
def test_certify_fit_matches_dense_lstsq_on_fixtures(name):
    tri = load_data(name)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    points = certify_points(sys_)
    fits = {kind: assert_fit_matches_dense(tri, sys_, p)
            for kind, p in points.items()}
    assert fits["maximizer"].gradient_residual < 1e-12
    assert fits["interior"].gradient_residual > 1e-3
    assert polytope.classify_membership(sys_, points["boundary"]).kind \
        == "boundary"


@pytest.mark.parametrize("seed", CHAIN_SEEDS_WITH_CLOSURE)
def test_certify_fit_matches_dense_lstsq_on_chains(seed, fig8):
    tri = property_chain(fig8, seed)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    for p in certify_points(sys_).values():
        assert_fit_matches_dense(tri, sys_, p)


def test_certify_single_point_closure(fig8):
    # every slot is fixed at 0 or pi over this chain's closure, so no angle
    # is free and nothing is fitted
    tri = property_chain(fig8, 0)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    point, fixed = polytope.interior_point(sys_)
    assert len(fixed) == sys_.dim
    cert = assert_fit_matches_dense(tri, sys_, point)
    assert cert.fit_iterations == 0
    assert cert.gradient_residual == 0.0
    assert not np.any(cert.multipliers)
    assert [i for i, _ in cert.active_multipliers] \
        == list(range(3 * tri.n_tets))


def test_certify_flags_non_critical_point(fig8, fig8_sys, fig8_center,
                                          fig8_tol_point):
    # an interior point displaced along a null direction is not critical
    basis = null_directions(fig8)
    perturbed = fig8_center + 0.2 * basis[:, 0]
    assert polytope.classify_membership(fig8_sys, perturbed).kind == "interior"
    cert = optimizer.certify(fig8_sys, perturbed)
    assert cert.gradient_residual > 1e-3
    # nor is one with an angle exactly BOUNDARY_TOL from 0, which is not at
    # a bound: no angle is active, so no sign fails
    cert = optimizer.certify(fig8_sys, fig8_tol_point)
    assert cert.membership == "interior"
    assert cert.active_multipliers == ()
    assert cert.signs_ok
    assert cert.gradient_residual > 1e-3


def test_certify_rejects_infeasible(fig8_sys, fig8_center):
    x = fig8_center.copy()
    x[3] += 0.2
    with pytest.raises(ValueError, match="infeasible"):
        optimizer.certify(fig8_sys, x)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_point_is_rejected(fig8_sys, fig8_center, value):
    # a NaN slot once read as interior: certify fitted there, and the
    # dominance check passed with no informative sample
    x = fig8_center.copy()
    x[0] = value
    with pytest.raises(ValueError, match="infeasible"):
        optimizer.certify(fig8_sys, x)
    with pytest.raises(ValueError, match="infeasible"):
        optimizer.dominance_check(fig8_sys, x, 10)


def test_certify_boundary_point_finds_improving_direction(fig8_sys,
                                                         fig8_face_point):
    # a face point with a flat tetrahedron admits improving directions into
    # the polytope, so the sign check must fail there: the fitted values are
    # equal on the three angles, so the margin is -log 2
    cert = optimizer.certify(fig8_sys, fig8_face_point)
    assert not cert.signs_ok
    assert cert.membership == "boundary"
    [(tet, margin, face_fixed)] = cert.margins
    assert tet == 0 and not face_fixed
    assert abs(margin + np.log(2.0)) < 1e-12


def test_certify_rejects_a_movable_zero_angle(fig8_sys):
    # one angle of tetrahedron 0 at 0, the other two positive: the angle is
    # free over the closure, and moving it off 0 gains volume at an
    # unbounded rate
    point = polytope.to_slots([0.0, 0.75 * np.pi, 0.25 * np.pi,
                               0.25 * np.pi, 0.25 * np.pi, 0.5 * np.pi])
    assert polytope.classify_membership(fig8_sys, point).flat == {0, 5}
    assert optimizer.classify_tetrahedra(point)[0] == "invalid"
    cert = optimizer.certify(fig8_sys, point)
    assert not cert.signs_ok
    assert cert.margins == ()


def sampled_signs_ok(sys_, p, n_samples=200):
    """No sampled one-sided derivative limit from p toward the closure is
    positive."""
    flat = polytope.classify_membership(sys_, p).flat
    rng = np.random.default_rng(0)
    origin = polytope.interior_point(sys_)[0]
    samples = polytope.sample_closure_points(sys_, rng, n_samples,
                                             start=origin)
    return bool(np.all(lob.boundary_derivative_limit(p, samples, flat)
                       <= 1e-8))


# The closure points of chains 12 and 58 with tetrahedron 2, respectively
# 4, set flat as below: the only ones, and every tetrahedron is flat there,
# with these angles at pi.
MOVABLE_ANGLE_BIG = {12: (0, 0, 1, 0, 0), 58: (0, 1, 0, 0, 0, 1)}


@pytest.mark.parametrize("seed, tet, zero, expected",
                         [(12, 2, 0, True), (58, 4, 2, False)])
def test_certify_flat_tetrahedron_with_one_movable_angle(fig8, seed, tet,
                                                         zero, expected):
    # the closure fixes one angle of the tetrahedron at 0; the point puts
    # angle ``zero`` at 0 and the third at pi, so only ``zero`` moves off 0
    tri = property_chain(fig8, seed)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    own = fixed_slots(*slot_system(tri)) & set(range(6 * tet, 6 * tet + 6))
    [fixed] = set(polytope.angle_of(sorted(own)) % 3)
    angles = np.full(3, np.pi)
    angles[[fixed, zero]] = 0.0
    p = flat_point(*MOVABLE_ANGLE_BIG[seed])
    np.testing.assert_array_equal(p[6 * tet:6 * tet + 6],
                                  polytope.to_slots(angles))
    assert polytope.classify_membership(sys_, p).kind == "boundary"
    cert = optimizer.certify(sys_, p)
    assert [ff for t, _, ff in cert.margins if t == tet] == [False]
    assert cert.signs_ok is expected
    assert sampled_signs_ok(sys_, p) is expected


def entropy_grid_max(f_a, f_b, f_c, n=20001):
    """The largest lhs of ``entropy_inequality`` over x + y = 1 on a grid,
    with decorations shifted to be nonnegative: c - a = F_A - F_C and
    c - b = F_B - F_C."""
    k = max(f_a, f_b, f_c)
    a, b, c = k - f_a, k - f_b, k - f_c
    x = np.linspace(0.0, 1.0, n)
    return float(lob.entropy_inequality(x, 1.0 - x, a, b, c).max())


@pytest.mark.parametrize("case", ["pinned-fig8", "degenerate4", "flatten3"])
def test_margin_is_the_entropy_inequality_maximum(case, fig8_sys,
                                                  fig8_face_point):
    if case == "pinned-fig8":  # tetrahedron 0 set flat
        sys_, p = fig8_sys, fig8_face_point
    else:
        sys_ = polytope.build_constraints(
            triangulation.incidence(load_data(case)))
        p = optimizer.maximize_volume(sys_).point
    cert = optimizer.certify(sys_, p)
    fitted = dict(cert.active_multipliers)
    theta = polytope.to_angles(p)
    assert cert.margins
    for tet, margin, _ in cert.margins:
        c = 3 * tet + int(np.argmax(theta[3 * tet:3 * tet + 3]))
        a, b = (3 * tet + k for k in range(3) if 3 * tet + k != c)
        assert abs(margin + entropy_grid_max(fitted[a], fitted[b],
                                             fitted[c])) < 1e-8


def test_uniqueness_probe(fig8_sys):
    rep = optimizer.uniqueness_probe(fig8_sys, 6, seed=1)
    assert len(rep.volumes) == 6
    assert rep.statuses == ("converged",) * 6
    assert [r.volume for r in rep.results] == list(rep.volumes)
    assert rep.max_spread < 1e-6
    assert max(rep.volumes) - min(rep.volumes) < 1e-10


def test_uniqueness_probe_draws_each_start_when_its_solve_runs(
        fig8_sys, monkeypatch):
    # the number of starts drawn when each solve begins, and its start
    drawn, begun, given = [], [], []
    default_rng, solve = np.random.default_rng, optimizer.maximize_volume

    class Recording:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, size):
            drawn.append(self.rng.standard_normal(size))
            return drawn[-1]

    def recorded(sys_, tol, max_iter, y):
        begun.append(len(drawn))
        given.append(y)
        return solve(sys_, tol, max_iter, y)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    monkeypatch.setattr(optimizer, "maximize_volume", recorded)
    rep = optimizer.uniqueness_probe(fig8_sys, 4, seed=1)
    assert begun == [0, 1, 2, 3]
    assert rep.statuses == ("converged",) * 4
    # the draws keep their order: start i is draw i of default_rng(seed)
    rng = default_rng(1)
    assert given[0] is None
    assert all(np.array_equal(y, rng.standard_normal(y.size))
               for y in given[1:])


def test_dominance_at_optimum(fig8_sys, fig8_optimum):
    rep = optimizer.dominance_check(fig8_sys, fig8_optimum.point, 200, seed=2)
    assert rep.all_dominated
    assert rep.worst_gap > 0.0
    assert rep.worst_directional <= 1e-10
    assert rep.informative_samples == 200
    assert rep == dominance_reference(fig8_sys, fig8_optimum.point, 200, 2)


def test_dominance_rejected_at_non_optimum(fig8, fig8_sys, fig8_center):
    basis = null_directions(fig8)
    perturbed = fig8_center + 0.2 * basis[:, 0]
    rep = optimizer.dominance_check(fig8_sys, perturbed, 200, seed=3)
    assert not rep.all_dominated
    assert rep.worst_gap <= 0.0 or rep.worst_directional > 1e-10
    assert rep == dominance_reference(fig8_sys, perturbed, 200, 3)


@pytest.mark.parametrize("n_samples, seed", [(1, 0), (50, 5), (1000, 9)])
def test_dominance_matches_the_per_sample_loop(degenerate4_sys, n_samples,
                                               seed):
    # a maximizer with flat tetrahedra, where the limits take the entropy
    # sum, and the centre of the face, where the near samples decide
    res = optimizer.maximize_volume(degenerate4_sys)
    centre = polytope.to_slots(optimizer.minimal_face(degenerate4_sys)[1])
    for p in (res.point, centre):
        assert (optimizer.dominance_check(degenerate4_sys, p, n_samples,
                                          seed=seed)
                == dominance_reference(degenerate4_sys, p, n_samples, seed))


def test_dominance_scores_all_samples_in_one_call(fig8_sys, fig8_optimum,
                                                 monkeypatch):
    calls = []
    for name in ("lobachevsky", "boundary_derivative_limit"):
        def counted(*args, _name=name, _fn=getattr(lob, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(lob, name, counted)
    optimizer.dominance_check(fig8_sys, fig8_optimum.point, 200, seed=2)
    assert sorted(calls) == ["boundary_derivative_limit", "lobachevsky"]


# Seeds whose probe on GEO4_TEXT left a start of the pinned primal ascent
# converged below the maximum, with a tetrahedron pinned flat that its
# certificate rejects, until such pins were released.  The dual has no pins;
# these seeds stay as regression cases.
STUCK_PROBE_SEEDS = (48, 49, 63, 253)


def assert_every_start_at_the_maximum(sys_, rep, volume):
    assert rep.max_spread < 1e-6
    for r in rep.results:
        assert r.status == "converged"
        assert abs(r.volume - volume) < 1e-9
        cert = optimizer.certify(sys_, r.point)
        assert cert.signs_ok


@pytest.mark.parametrize("seed", STUCK_PROBE_SEEDS)
def test_probe_releases_rejected_pins(seed):
    sys_ = polytope.build_constraints(
        triangulation.incidence(triangulation.parse_triangulation(GEO4_TEXT)))
    rep = optimizer.uniqueness_probe(sys_, 8, seed=seed)
    assert_every_start_at_the_maximum(sys_, rep, FIG8_VOLUME)
    # the starts are distinct multipliers, not one point eight times
    assert len({r.iterations for r in rep.results}) > 1


@pytest.mark.parametrize("seed", [60, 61])
def test_chain_probe_releases_rejected_pins(fig8, seed):
    # chains whose probe needed the release of rejected pins; their
    # maximizers are complete structures with a flat tetrahedron
    sys_ = polytope.build_constraints(
        triangulation.incidence(property_chain(fig8, seed)))
    rep = optimizer.uniqueness_probe(sys_, 8, seed=seed)
    assert_every_start_at_the_maximum(sys_, rep, FIG8_VOLUME)


@pytest.mark.parametrize("name", [
    "fig8", "degenerate4", "flatten3", "gieseking", "cover4", "cover16",
    "cover64", "cover256", "cover1024"])
def test_result_volume_is_the_kernel_volume(name):
    # the solve reports the volume of its point summed over angles; it
    # must be the volume of the reported slot vector
    if name.startswith("cover"):
        tri = cyclic_cover(triangulation.parse_triangulation(GEO4_TEXT),
                           GEO4_COCYCLE, int(name[5:]) // 4)
    else:
        tri = load_data(name)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    expect = lob.volume(res.point)
    assert abs(res.volume - expect) <= 1e-13 * max(1.0, abs(expect))


def test_iteration_cap_status(fig8_sys):
    start = np.random.default_rng(31).standard_normal(2)
    res = optimizer.maximize_volume(fig8_sys, max_iter=1, start=start)
    assert res.status == "iteration-cap"
    assert res.iterations == 1
    # chain 12's plain run turns thin at some iteration k; capped at k, the
    # solve stops at the cap, not with the internal "thin"
    sys_ = polytope.build_constraints(triangulation.incidence(
        property_chain(load_data("fig8"), 12)))
    face = optimizer._Face(sys_)
    run = optimizer._descend(face, np.zeros(face.b_edge.size),
                             optimizer.DEFAULT_TOL, 100, thin=True)
    assert run.status == "thin"
    res = optimizer.maximize_volume(sys_, max_iter=run.iterations)
    assert (res.status, res.iterations) == ("iteration-cap", run.iterations)


def test_degenerate4_boundary_maximizer(degenerate4_sys):
    # empty interior: tetrahedra 0 and 3 are flat on the whole closure, so
    # the dual's iterates flatten them and converge with no LP; the minimal
    # face, looked up for the flat tetrahedra, needs it
    res = optimizer.maximize_volume(degenerate4_sys)
    assert res.status == "converged"
    assert abs(res.volume - 1.7619532174) < 1e-8
    assert polytope.classify_membership(
        degenerate4_sys, res.point).tetrahedra == (
            "flat", "positive", "positive", "flat")
    # the minimal face fixes both flat tetrahedra, as the LP says
    fixed = optimizer.minimal_face(degenerate4_sys)[0].fixed
    assert fixed == polytope.interior_point(degenerate4_sys)[1]
    assert fixed == set(range(6)) | set(range(18, 24))
    cert = optimizer.certify(degenerate4_sys, res.point)
    assert cert.gradient_residual < 1e-6
    # both flat tetrahedra are flat on the whole closure: their negative
    # margins constrain no direction
    assert cert.signs_ok
    assert [(t, fixed) for t, _, fixed in cert.margins] \
        == [(0, True), (3, True)]
    assert all(m < -0.4 for _, m, _ in cert.margins)
    dom = optimizer.dominance_check(degenerate4_sys, res.point, 200, seed=4)
    assert dom.all_dominated
    assert np.isfinite(dom.worst_gap)  # some sample is away from the point


def test_minimal_face_is_looked_up_once_per_system(monkeypatch):
    # the solve, the certificate, the samples and a 4-start probe of one
    # degenerate4 system share one LP; a system built again from the same
    # file is another key and runs it again.  The arrays are read-only, so
    # no kept face can go stale
    calls, interior_point = [], polytope.interior_point

    def counted(sys_):
        calls.append(sys_)
        return interior_point(sys_)

    def build():
        return polytope.build_constraints(
            triangulation.incidence(load_data("degenerate4")))

    monkeypatch.setattr(polytope, "interior_point", counted)
    sys_ = build()
    res = optimizer.maximize_volume(sys_)
    assert optimizer.certify(sys_, res.point).signs_ok
    assert optimizer.dominance_check(sys_, res.point, 20, seed=1) \
        .all_dominated
    rep = optimizer.uniqueness_probe(sys_, 4)
    assert rep.statuses == ("converged",) * 4
    assert calls == [sys_]
    again = build()
    optimizer.certify(again, res.point)
    assert calls == [sys_, again]
    with pytest.raises(ValueError, match="read-only"):
        again.rows[0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        again.b[0] = 0.0


def slots_of(tets):
    """The six slots of each tetrahedron of ``tets``."""
    return {6 * t + k for t in tets for k in range(6)}


def flat_tets(membership):
    """The tetrahedra that ``membership`` calls flat, ascending."""
    return [t for t, c in enumerate(membership.tetrahedra) if c == "flat"]


def test_flattening_chain_maximizer(fig8):
    # three 2-3 moves: the interior is not empty, but the maximizer has
    # tetrahedron 3 flat; the other four are the geometric 4-tet
    # triangulation, so the maximum is exactly the fig8 volume
    tri = load_data("flatten3")
    assert tri == movable_chain(fig8, 3)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    assert interior_status(sys_) == "ok"
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    assert abs(res.volume - 2.029883212819307) < 1e-10
    membership = polytope.classify_membership(sys_, res.point)
    assert flat_tets(membership) == [3]
    assert optimizer.classify_tetrahedra(res.point) == list(
        membership.tetrahedra)
    # the slots at 0 or pi are the six of the flat tetrahedron
    assert membership.flat == slots_of([3]) == set(range(18, 24))
    assert membership.equality_violation < 1e-12
    # the flat tetrahedron can move, and it is non-improving with margin 0:
    # the degenerate-triangle case of the paper's inequality
    cert = optimizer.certify(sys_, res.point)
    assert cert.signs_ok
    [(tet, margin, face_fixed)] = cert.margins
    assert tet == 3 and not face_fixed
    assert abs(margin) < 1e-9
    # the closure's minimal face fixes no slot
    assert optimizer.minimal_face(sys_)[0].fixed == frozenset()


def test_maximize_rejects_start_off_the_face(degenerate4_sys):
    # a start is one finite multiplier per edge class; a slot vector, or a
    # vector with a NaN, is not a point of the dual's domain
    n_edges = degenerate4_sys.b.size - degenerate4_sys.rows.shape[0] // 3
    for start in (polytope.interior_point(degenerate4_sys)[0],
                  np.full(n_edges, np.nan)):
        with pytest.raises(ValueError, match="multiplier per edge"):
            optimizer.maximize_volume(degenerate4_sys, start=start)


def assert_step_matches_dense(tri, face, ang, rhs, shift, barrier=False):
    # the dual step gives the change of p on the linear tetrahedra only;
    # the barrier step, the change of every angle
    dy, d = face.step(ang, rhs, shift, 1e-14 * np.linalg.norm(rhs), barrier)
    dy_ref, d_ref = dense_newton_step(tri, face, ang, rhs, shift, barrier)
    if not barrier:
        d, d_ref = (x[face.linear, face.p] for x in (d, d_ref))
    for got, ref in ((dy, dy_ref), (d, d_ref)):
        scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-10 * scale


def kkt_at(face, y):
    """theta*(y), with p = pi/2 on the linear tetrahedra, and the KKT
    residual there: the edge error, then w_q - w_p per linear one."""
    ang = face.dual(y, 0.5 * np.pi)[0]
    return ang, np.concatenate([face.error(ang),
                                -(y[face.cols] @ optimizer._SIGNS)])


@pytest.mark.parametrize("name", ["fig8", "gieseking", "flatten3",
                                  "degenerate4"])
def test_newton_step_matches_dense_oracle(name):
    tri = load_data(name)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    face = optimizer._Face(sys_)
    n_edges = face.b_edge.size
    # the barrier step from the centre of the box, as minimal_face takes it
    centre = np.full(face.free.shape, np.pi / 3.0)
    assert_step_matches_dense(tri, face, centre, face.error(centre), 0.0,
                              barrier=True)
    # the dual step at the centre, y = 0, and at random multipliers, where
    # some tetrahedra are flat and add nothing
    for y in (np.zeros(n_edges),
              np.random.default_rng(7).standard_normal(n_edges)):
        ang, rhs = kkt_at(face, y)
        assert_step_matches_dense(tri, face, ang, rhs, 0.5)


@pytest.mark.parametrize("seed", CHAIN_SEEDS_WITH_LINEAR)
def test_bordered_newton_step_matches_dense_oracle(seed, fig8):
    tri = property_chain(fig8, seed)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    face, _ = optimizer.minimal_face(sys_)
    assert face.linear.size
    # at y = 0, and at random multipliers, off w_p = w_q: the step's
    # border rows take the drift out
    for y in (np.zeros(face.b_edge.size),
              np.random.default_rng(seed).standard_normal(face.b_edge.size)):
        ang, rhs = kkt_at(face, y)
        assert np.any(rhs[face.b_edge.size:]) == bool(y.any())
        assert_step_matches_dense(tri, face, ang, rhs, 0.5)


# The dense-lstsq oracle's maximum on moves272: the 64-fold cover of
# GEO4_TEXT after 16 random 2-3 moves that keep the closure's interior.
MOVES272_VOLUME = 124.5831168412


def test_moves272_off_the_covers():
    # a non-cover input, where the pinned primal ascent ended "stalled" 4e-5
    # above the maximum: the maximum is a boundary point with 14 flat
    # tetrahedra, and it is not the complete structure (64 V8 = 129.91)
    sys_ = polytope.build_constraints(
        triangulation.incidence(load_data("moves272")))
    elapsed = []
    for _ in range(2):  # the faster of two runs, on a shared host
        t0 = time.perf_counter()
        res = optimizer.maximize_volume(sys_)
        assert res.status == "converged"
        cert = optimizer.certify(sys_, res.point)
        elapsed.append(time.perf_counter() - t0)
    assert abs(res.volume - MOVES272_VOLUME) <= 1e-10 * MOVES272_VOLUME
    membership = polytope.classify_membership(sys_, res.point)
    assert len(flat_tets(membership)) == 14
    assert membership.flat == slots_of(flat_tets(membership))
    assert len(membership.flat) == 84
    assert cert.signs_ok
    assert min(elapsed) < 1.0


def upper_at_least(res, exact):
    """``volume_upper`` is at least ``exact``, up to rounding."""
    return res.volume_upper >= exact - 1e-14 * max(1.0, exact)


@pytest.mark.parametrize("name, exact", [
    ("fig8", FIG8_VOLUME), ("gieseking", FIG8_VOLUME / 2.0),
    ("flatten3", FIG8_VOLUME)])
def test_volume_upper_bounds_the_fixtures(name, exact):
    res = optimizer.maximize_volume(
        polytope.build_constraints(triangulation.incidence(load_data(name))))
    assert upper_at_least(res, exact)
    assert res.volume_upper - res.volume < 1e-12


@pytest.mark.parametrize("fold", [1, 2, 4, 8, 16, 32, 64])
def test_volume_upper_bounds_covers_and_their_iterates(fold):
    # weak duality: D(y) bounds the maximum at every y, so at the iterates
    # that --max-iter k stops at, k = 1..7, too; the covers' maximum is
    # exactly fold V8
    sys_ = polytope.build_constraints(triangulation.incidence(cyclic_cover(
        triangulation.parse_triangulation(GEO4_TEXT), GEO4_COCYCLE, fold)))
    exact = fold * FIG8_VOLUME
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    assert upper_at_least(res, exact)
    assert abs(res.volume - exact) <= 1e-12 * exact
    uppers = [optimizer.maximize_volume(sys_, max_iter=k).volume_upper
              for k in range(1, 8)]
    assert all(upper >= exact - 1e-14 * exact for upper in uppers)
    assert uppers[0] - exact > 1.0  # the centre is far from the maximum


def test_volume_upper_is_the_dual_at_the_last_multipliers(fig8, monkeypatch):
    # D at the last multipliers y takes each linear tetrahedron's p at the
    # end, 0 or pi, that maximizes the Lagrangian, not at the reported p.
    # Chain 141 capped at 21 iterations stops on a face that fixes one of
    # the first face's linear tetrahedra flat, with the drift w_q - w_p off
    # 0; the Lagrangian at the reported angles is 0.096 lower there
    runs = []

    def recorded(*args, **kwargs):
        runs.append(descend(*args, **kwargs))
        return runs[-1]

    descend = optimizer._descend
    monkeypatch.setattr(optimizer, "_descend", recorded)
    sys_ = polytope.build_constraints(
        triangulation.incidence(property_chain(fig8, 141)))
    res = optimizer.maximize_volume(sys_, max_iter=21)
    first = optimizer.minimal_face(sys_)[0]
    y = runs[-1].y
    drift = y[first.cols] @ -optimizer._SIGNS
    best = first.dual(y, np.where(drift > 0.0, np.pi, 0.0))[1]
    assert res.volume_upper == pytest.approx(best, rel=1e-12)
    reported = first.dual(y, runs[-1].ang[first.linear, first.p])[1]
    assert best - reported > 0.05


def test_solve_and_certify_build_no_matrix(monkeypatch):
    def no_matrix(self):
        raise AssertionError("LinearSystem.matrix called")

    monkeypatch.setattr(polytope.LinearSystem, "matrix", no_matrix)
    for name in ("fig8", "gieseking", "flatten3", "degenerate4"):
        sys_ = polytope.build_constraints(
            triangulation.incidence(load_data(name)))
        res = optimizer.maximize_volume(sys_)
        assert res.status == "converged", name
        assert optimizer.certify(sys_, res.point).signs_ok, name
    base = triangulation.parse_triangulation(GEO4_TEXT)
    tri = relabel(cyclic_cover(base, GEO4_COCYCLE, 512), random.Random(8))
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    assert sys_.b.size == 2 * 2048  # one edge class per tetrahedron
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    assert abs(res.volume - 512 * FIG8_VOLUME) <= 1e-12
    assert optimizer.certify(sys_, res.point).signs_ok
