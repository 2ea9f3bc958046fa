"""Volume maximization, certificates, uniqueness, and dominance."""

import random

import numpy as np
import pytest

from cuspforge import lobachevsky as lob
from cuspforge import optimizer, polytope, triangulation

from conftest import (GEO4_COCYCLE, GEO4_TEXT, cyclic_cover, flat_pins,
                      load_data, movable_chain, property_chain, relabel)
from helpers import (dense_newton_step, fixed_slots, lstsq_certificate,
                     null_directions, slot_system)

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
    assert res.flat_tets == ()
    assert not res.active_set
    assert res.kkt_residual < 1e-8


def test_maximize_respects_custom_start(fig8_sys, fig8_center):
    rng = np.random.default_rng(30)
    start = polytope.sample_closure_points(
        fig8_sys, rng, 1, start=polytope.interior_point(fig8_sys).point,
        boundary_fraction=0.0)[0]
    assert np.max(np.abs(start - fig8_center)) > 1e-3
    res = optimizer.maximize_volume(fig8_sys, start=start)
    assert res.status == "converged"
    assert np.max(np.abs(res.point - fig8_center)) < 1e-6


def test_ascent_step_count_does_not_depend_on_the_labeling():
    tri = triangulation.parse_triangulation(GEO4_TEXT)
    rng = random.Random(5)
    steps = set()
    for t in [tri] + [relabel(tri, rng) for _ in range(30)]:
        res = optimizer.maximize_volume(
            polytope.build_constraints(triangulation.incidence(t)))
        assert res.status == "converged"
        assert abs(res.volume - 2.029883212819307) < 1e-10
        steps.add(res.iterations)
    assert len(steps) == 1, steps


def test_centre_start_needs_no_lp(monkeypatch):
    # from the centre the ascent meets the equalities inside the box, so the
    # interior-point LP never runs
    sys_ = polytope.build_constraints(
        triangulation.incidence(triangulation.parse_triangulation(GEO4_TEXT)))

    def no_lp(*args, **kwargs):
        raise AssertionError("interior-point LP called")

    monkeypatch.setattr(polytope, "interior_point", no_lp)
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    assert abs(res.volume - 2.029883212819307) < 1e-10
    assert polytope.equality_residual(sys_, res.point) < 1e-12


def test_maximize_empty_closure(doubled):
    sys_ = polytope.build_constraints(triangulation.incidence(doubled))
    res = optimizer.maximize_volume(sys_)
    assert res.status == "empty-closure"
    assert res.point is None
    assert optimizer.minimal_face(sys_) is None


def assert_pinned_face_matches_lp(sys_, pinned):
    # the LP oracle: the same fixed slots, and the point's slots at 0 or pi
    # are exactly those
    face, ang = optimizer.minimal_face(sys_, pinned)
    ip = polytope.interior_point(sys_, pinned)
    assert face.fixed == ip.fixed
    membership = polytope.classify_membership(sys_, polytope.to_slots(ang))
    assert membership.kind == "boundary"
    assert membership.flat == ip.fixed


@pytest.mark.parametrize("big, half, lps", [
    ((0,), False, 1), ((0, 1), False, 0), ((0, 1), True, 1)],
    ids=["one-flat", "point", "half-pinned"])
def test_pinned_minimal_face_matches_lp(fig8_sys, monkeypatch, big, half,
                                        lps):
    # every case leaves a single point.  With one tetrahedron flat the other
    # is flat too, which the centre start cannot find; with both pinned it
    # starts at the point and no LP runs.  Pins on one slot of each angle
    # fix the other slot too: the start lands on the point, but with more
    # slots at 0 or pi than pinned, so the LP decides
    pinned = flat_pins(*big)
    if half:
        pinned = {s: v for s, v in pinned.items() if s % 6 < 3}
    assert_pinned_face_matches_lp(fig8_sys, pinned)
    calls, interior_point = [], polytope.interior_point

    def counted(sys_, pinned=None):
        calls.append(pinned)
        return interior_point(sys_, pinned)

    monkeypatch.setattr(polytope, "interior_point", counted)
    face, _ = optimizer.minimal_face(fig8_sys, pinned)
    assert len(calls) == lps
    assert face.fixed == frozenset(range(12))


@pytest.mark.parametrize("seed, unpinned, pinned", [
    (9, 0, 0), (34, 1, 1), (141, 1, 1), (161, 1, 1)])
def test_ascent_restart_faces_match_lp(fig8, monkeypatch, seed, unpinned,
                                       pinned):
    # the faces the ascent restarts on after pinning tetrahedra flat; on
    # some of them the centre start fails and the pinned LP still runs
    sys_ = polytope.build_constraints(
        triangulation.incidence(property_chain(fig8, seed)))
    pins, lps = [], []
    minimal_face, interior_point = (optimizer.minimal_face,
                                    polytope.interior_point)

    def recorded(sys_, pinned=None):
        pins.append(dict(pinned or {}))
        return minimal_face(sys_, pinned)

    def counted(sys_, pinned=None):
        lps.append(bool(pinned))
        return interior_point(sys_, pinned)

    monkeypatch.setattr(optimizer, "minimal_face", recorded)
    monkeypatch.setattr(polytope, "interior_point", counted)
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    assert (lps.count(False), lps.count(True)) == (unpinned, pinned)
    restarts = [p for p in pins if p]
    assert restarts
    monkeypatch.undo()
    # the result keeps the unpinned face's slots, not a restart's
    assert res.face_fixed == optimizer.minimal_face(sys_)[0].fixed
    for p in restarts:
        assert_pinned_face_matches_lp(sys_, p)


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
    x = np.concatenate([positive, flat, invalid])
    assert optimizer.classify_tetrahedra(x) == ["positive", "flat", "invalid"]


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
    origin = polytope.interior_point(sys_).point
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
    ip = polytope.interior_point(sys_)
    assert len(ip.fixed) == sys_.dim
    cert = assert_fit_matches_dense(tri, sys_, ip.point)
    assert cert.fit_iterations == 0
    assert cert.gradient_residual == 0.0
    assert not np.any(cert.multipliers)
    assert [i for i, _ in cert.active_multipliers] \
        == list(range(3 * tri.n_tets))


def test_certify_flags_non_critical_point(fig8, fig8_sys, fig8_center):
    # an interior point displaced along a null direction is not critical
    basis = null_directions(fig8)
    perturbed = fig8_center + 0.2 * basis[:, 0]
    assert polytope.classify_membership(fig8_sys, perturbed).kind == "interior"
    cert = optimizer.certify(fig8_sys, perturbed)
    assert cert.gradient_residual > 1e-3


def test_certify_rejects_infeasible(fig8_sys, fig8_center):
    x = fig8_center.copy()
    x[3] += 0.2
    with pytest.raises(ValueError, match="infeasible"):
        optimizer.certify(fig8_sys, x)


def test_certify_boundary_point_finds_improving_direction(fig8_sys):
    # a face point with a flat tetrahedron admits improving directions into
    # the polytope, so the sign check must fail there: the fitted values are
    # equal on the three angles, so the margin is -log 2
    pinned = {0: 0.0, 5: 0.0, 2: 0.0, 3: 0.0, 1: np.pi, 4: np.pi}
    res = polytope.interior_point(fig8_sys, pinned=pinned)
    assert res.status == "ok"
    cert = optimizer.certify(fig8_sys, res.point)
    assert not cert.signs_ok
    assert cert.membership == "boundary"
    [(tet, margin, face_fixed)] = cert.margins
    assert tet == 0 and not face_fixed
    assert abs(margin + np.log(2.0)) < 1e-12
    assert cert.rejected == (0,)


def test_certify_rejects_a_movable_zero_angle(fig8_sys):
    # one angle of tetrahedron 0 at 0, the other two positive: the angle is
    # free over the closure, and moving it off 0 gains volume at an
    # unbounded rate
    res = polytope.interior_point(fig8_sys, pinned={0: 0.0, 5: 0.0})
    assert res.status == "ok"
    assert optimizer.classify_tetrahedra(res.point)[0] == "invalid"
    cert = optimizer.certify(fig8_sys, res.point)
    assert not cert.signs_ok
    assert cert.margins == ()
    assert cert.rejected == ()


def sampled_signs_ok(sys_, p, n_samples=200):
    """No sampled one-sided derivative limit from p toward the closure is
    positive."""
    flat = polytope.classify_membership(sys_, p).flat
    rng = np.random.default_rng(0)
    origin = polytope.interior_point(sys_).point
    return all(lob.boundary_derivative_limit(p, q, flat).value <= 1e-8
               for q in polytope.sample_closure_points(sys_, rng, n_samples,
                                                       start=origin))


@pytest.mark.parametrize("seed, tet, zero, expected",
                         [(12, 2, 0, True), (58, 4, 2, False)])
def test_certify_flat_tetrahedron_with_one_movable_angle(fig8, seed, tet,
                                                         zero, expected):
    # the closure fixes one angle of the tetrahedron at 0; the pins put
    # angle ``zero`` at 0 and the third at pi, so only ``zero`` moves off 0
    tri = property_chain(fig8, seed)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    own = fixed_slots(*slot_system(tri)) & set(range(6 * tet, 6 * tet + 6))
    [fixed] = set(polytope.angle_of(sorted(own)) % 3)
    angles = np.full(3, np.pi)
    angles[[fixed, zero]] = 0.0
    pins = dict(enumerate(polytope.to_slots(angles), start=6 * tet))
    p = polytope.interior_point(sys_, pinned=pins).point
    cert = optimizer.certify(sys_, p)
    assert [ff for t, _, ff in cert.margins if t == tet] == [False]
    assert cert.signs_ok is expected
    assert (not cert.rejected) is expected
    assert sampled_signs_ok(sys_, p) is expected


def entropy_grid_max(f_a, f_b, f_c, n=20001):
    """The largest lhs of ``entropy_inequality`` over x + y = 1 on a grid,
    with decorations shifted to be nonnegative: c - a = F_A - F_C and
    c - b = F_B - F_C."""
    k = max(f_a, f_b, f_c)
    a, b, c = k - f_a, k - f_b, k - f_c
    return max(lob.entropy_inequality(x, 1.0 - x, a, b, c).lhs
               for x in np.linspace(0.0, 1.0, n))


@pytest.mark.parametrize("case", ["pinned-fig8", "degenerate4", "flatten3"])
def test_margin_is_the_entropy_inequality_maximum(case, fig8_sys):
    if case == "pinned-fig8":
        sys_ = fig8_sys
        pinned = {0: 0.0, 5: 0.0, 2: 0.0, 3: 0.0, 1: np.pi, 4: np.pi}
        p = polytope.interior_point(sys_, pinned=pinned).point
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
    assert [r.volume for r in rep.results] == list(rep.volumes)
    assert rep.max_spread < 1e-6
    assert max(rep.volumes) - min(rep.volumes) < 1e-10


def test_dominance_at_optimum(fig8_sys, fig8_optimum):
    rep = optimizer.dominance_check(fig8_sys, fig8_optimum.point, 200, seed=2)
    assert rep.all_dominated
    assert rep.worst_gap > 0.0
    assert rep.worst_directional <= 1e-10
    assert rep.witness is None


def test_dominance_rejected_at_non_optimum(fig8, fig8_sys, fig8_center):
    basis = null_directions(fig8)
    perturbed = fig8_center + 0.2 * basis[:, 0]
    rep = optimizer.dominance_check(fig8_sys, perturbed, 200, seed=3)
    assert not rep.all_dominated
    assert rep.witness is not None


# Seeds whose probe on GEO4_TEXT left a start converged below the maximum,
# with a tetrahedron pinned flat that its certificate rejects, while the
# ascent kept every pin.
STUCK_PROBE_SEEDS = (48, 49, 63, 253)


def recorded_pins(monkeypatch):
    """The pin maps of every ``minimal_face`` call, in order."""
    pins, minimal_face = [], optimizer.minimal_face

    def recorded(sys_, pinned=None):
        pins.append(dict(pinned or {}))
        return minimal_face(sys_, pinned)

    monkeypatch.setattr(optimizer, "minimal_face", recorded)
    return pins


def assert_every_start_at_the_maximum(sys_, rep, volume):
    assert rep.max_spread < 1e-6
    for r in rep.results:
        assert r.status == "converged"
        assert abs(r.volume - volume) < 1e-9
        cert = optimizer.certify(sys_, r.point, fixed=r.face_fixed)
        assert cert.signs_ok and cert.rejected == ()


@pytest.mark.parametrize("seed", STUCK_PROBE_SEEDS)
def test_probe_releases_rejected_pins(monkeypatch, seed):
    sys_ = polytope.build_constraints(
        triangulation.incidence(triangulation.parse_triangulation(GEO4_TEXT)))
    pins = recorded_pins(monkeypatch)
    rep = optimizer.uniqueness_probe(sys_, 8, seed=seed)
    monkeypatch.undo()
    assert_every_start_at_the_maximum(sys_, rep, FIG8_VOLUME)
    # some restart dropped a pin: a release
    assert any(set(b) < set(a) for a, b in zip(pins, pins[1:]))


@pytest.mark.parametrize("seed", [60, 61])
def test_chain_probe_releases_rejected_pins(fig8, seed):
    sys_ = polytope.build_constraints(
        triangulation.incidence(property_chain(fig8, seed)))
    rep = optimizer.uniqueness_probe(sys_, 8, seed=seed)
    assert_every_start_at_the_maximum(sys_, rep, FIG8_VOLUME)


@pytest.mark.parametrize("name", [
    "fig8", "degenerate4", "flatten3", "gieseking", "cover4", "cover16",
    "cover64", "cover256", "cover1024"])
def test_result_volume_is_the_kernel_volume(name):
    # the ascent reports its last line-search volume, summed over angles;
    # it must be the volume of the reported slot vector
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
    rng = np.random.default_rng(31)
    start = polytope.sample_closure_points(
        fig8_sys, rng, 1, start=polytope.interior_point(fig8_sys).point,
        boundary_fraction=0.0)[0]
    res = optimizer.maximize_volume(fig8_sys, max_iter=1, start=start)
    assert res.status == "iteration-cap"


def test_degenerate4_boundary_maximizer(degenerate4_sys):
    # empty interior: the ascent runs on the minimal face, where tetrahedra
    # 0 and 3 are flat
    res = optimizer.maximize_volume(degenerate4_sys)
    assert res.status == "converged"
    assert abs(res.volume - 1.7619532174) < 1e-8
    assert res.flat_tets == (0, 3)
    # the minimal face fixes both flat tetrahedra, as the LP says
    assert res.face_fixed == polytope.interior_point(degenerate4_sys).fixed
    assert res.face_fixed == set(range(6)) | set(range(18, 24))
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


def test_flattening_chain_maximizer(fig8):
    # three 2-3 moves: the interior is not empty, but the ascent drives
    # tetrahedron 3 flat; the other four are the geometric 4-tet
    # triangulation, so the maximum is exactly the fig8 volume
    tri = load_data("flatten3")
    assert tri == movable_chain(fig8, 3)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    assert polytope.interior_point(sys_).status == "ok"
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    assert abs(res.volume - 2.029883212819307) < 1e-10
    assert res.flat_tets == (3,)
    assert optimizer.classify_tetrahedra(res.point)[3] == "flat"
    assert polytope.equality_residual(sys_, res.point) < 1e-12
    # the flat tetrahedron can move, and it is non-improving with margin 0:
    # the degenerate-triangle case of the paper's inequality
    cert = optimizer.certify(sys_, res.point)
    assert cert.signs_ok
    [(tet, margin, face_fixed)] = cert.margins
    assert tet == 3 and not face_fixed
    assert abs(margin) < 1e-9
    # the pin is the ascent's restart, not a slot the closure's minimal face
    # fixes; handed to certify, the face gives the same certificate
    assert res.face_fixed == frozenset()
    given = optimizer.certify(sys_, res.point, fixed=res.face_fixed)
    assert (given.signs_ok, given.margins) == (cert.signs_ok, cert.margins)


def test_maximize_rejects_start_off_the_face(degenerate4_sys):
    # tetrahedron 1 is free on the minimal face; a start with one of its
    # angles at 0 is on the face's boundary
    start = polytope.interior_point(degenerate4_sys).point.copy()
    start[6:12] = np.array([0.0, 0.5, 0.5, 0.5, 0.5, 0.0]) * np.pi
    with pytest.raises(ValueError, match="relative interior"):
        optimizer.maximize_volume(degenerate4_sys, start=start)


def assert_step_matches_dense(tri, face, ang):
    d, normal, slope, residual = face.step(ang)
    d_ref, normal_ref, slope_ref, residual_ref = dense_newton_step(
        tri, face, ang)
    scale = max(1.0, float(np.max(np.abs(d_ref))))
    assert np.max(np.abs(d - d_ref)) <= 1e-10 * scale
    assert np.max(np.abs(normal - normal_ref)) <= 1e-10 * max(
        1.0, float(np.max(np.abs(normal_ref))))
    assert abs(slope - slope_ref) <= 1e-10 * max(1.0, abs(slope_ref))
    assert abs(residual - residual_ref) <= 1e-10 * max(1.0, residual_ref)


@pytest.mark.parametrize("name", ["fig8", "gieseking", "flatten3",
                                  "degenerate4"])
def test_newton_step_matches_dense_oracle(name):
    tri = load_data(name)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    # off the edge equations, from the centre of the box with every angle
    # free, and at the point of the minimal face
    centre = optimizer._Face(sys_, ())
    assert_step_matches_dense(tri, centre, np.full(centre.free.shape,
                                                   np.pi / 3.0))
    face, ang = optimizer.minimal_face(sys_)
    assert_step_matches_dense(tri, face, ang)


@pytest.mark.parametrize("seed", CHAIN_SEEDS_WITH_LINEAR)
def test_bordered_newton_step_matches_dense_oracle(seed, fig8):
    tri = property_chain(fig8, seed)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    face, ang = optimizer.minimal_face(sys_)
    assert face.linear.size
    assert_step_matches_dense(tri, face, ang)
    # and after a step along the face, where the linear angles have moved
    alpha, ang, _ = optimizer._line_search(
        face, ang, optimizer._volume(ang), face.step(ang))
    assert alpha > 0.0
    assert_step_matches_dense(tri, face, ang)


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
    assert optimizer.certify(sys_, res.point, fixed=res.face_fixed).signs_ok
