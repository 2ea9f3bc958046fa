"""Volume maximization, certificates, uniqueness, and dominance."""

import numpy as np
import pytest

from cuspforge import lobachevsky as lob
from cuspforge import optimizer, polytope, triangulation

from conftest import movable_chain


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
    start = polytope.sample_closure_points(fig8_sys, rng, 1,
                                           boundary_fraction=0.0)[0]
    assert np.max(np.abs(start - fig8_center)) > 1e-3
    res = optimizer.maximize_volume(fig8_sys, start=start)
    assert res.status == "converged"
    assert np.max(np.abs(res.point - fig8_center)) < 1e-6


def test_maximize_empty_closure(doubled):
    sys_ = polytope.build_constraints(triangulation.incidence(doubled))
    res = optimizer.maximize_volume(sys_)
    assert res.status == "empty-closure"
    assert res.point is None


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
    assert cert.multipliers.shape == (fig8_sys.a_eq.shape[0],)


def test_certify_flags_non_critical_point(fig8_sys, fig8_center):
    # an interior point displaced along a null direction is not critical
    basis = polytope.null_space(fig8_sys)
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
    # the polytope, so the sign check must fail there
    pinned = {0: 0.0, 5: 0.0, 2: 0.0, 3: 0.0, 1: np.pi, 4: np.pi}
    res = polytope.interior_point(fig8_sys, pinned=pinned)
    assert res.status == "ok"
    cert = optimizer.certify(fig8_sys, res.point)
    assert not cert.signs_ok


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


def test_dominance_rejected_at_non_optimum(fig8_sys, fig8_center):
    basis = polytope.null_space(fig8_sys)
    perturbed = fig8_center + 0.2 * basis[:, 0]
    rep = optimizer.dominance_check(fig8_sys, perturbed, 200, seed=3)
    assert not rep.all_dominated
    assert rep.witness is not None


def test_iteration_cap_status(fig8_sys):
    rng = np.random.default_rng(31)
    start = polytope.sample_closure_points(fig8_sys, rng, 1,
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
    cert = optimizer.certify(degenerate4_sys, res.point)
    assert cert.gradient_residual < 1e-6
    assert cert.signs_ok
    dom = optimizer.dominance_check(degenerate4_sys, res.point, 200, seed=4)
    assert dom.all_dominated
    assert np.isfinite(dom.worst_gap)  # some sample is away from the point


def test_flattening_chain_maximizer(fig8):
    # three 2-3 moves: the interior is not empty, but the ascent drives
    # tetrahedron 3 flat; the other four are the geometric 4-tet
    # triangulation, so the maximum is exactly the fig8 volume
    sys_ = polytope.build_constraints(
        triangulation.incidence(movable_chain(fig8, 3)))
    assert polytope.interior_point(sys_).status == "ok"
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    assert abs(res.volume - 2.029883212819307) < 1e-10
    assert res.flat_tets == (3,)
    assert optimizer.classify_tetrahedra(res.point)[3] == "flat"
    assert polytope.equality_residual(sys_, res.point) < 1e-12


def test_maximize_rejects_start_off_the_face(degenerate4_sys):
    # tetrahedron 1 is free on the minimal face; a start with one of its
    # angles at 0 is on the face's boundary
    start = polytope.interior_point(degenerate4_sys).point.copy()
    start[6:12] = np.array([0.0, 0.5, 0.5, 0.5, 0.5, 0.0]) * np.pi
    with pytest.raises(ValueError, match="relative interior"):
        optimizer.maximize_volume(degenerate4_sys, start=start)
