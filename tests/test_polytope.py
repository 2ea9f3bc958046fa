"""Constraint assembly, membership, interior points, and sampling."""

import numpy as np
import pytest

from cuspforge import polytope, triangulation

from conftest import load_data, movable_chain
from helpers import fixed_slots

# Slot k of a tetrahedron carries angle A, B or C: opposite edges pair up.
ANGLE_OF_SLOT = (0, 1, 2, 2, 1, 0)


def flat_pins(*big):
    """Slot -> angle pins making tetrahedron t flat with angle big[t] at pi."""
    return {6 * t + k: np.pi * (ANGLE_OF_SLOT[k] == b)
            for t, b in enumerate(big) for k in range(6)}


def test_constraint_shapes_and_rhs(fig8_sys):
    assert fig8_sys.a_eq.shape == (10, 12)
    assert fig8_sys.n_triple_rows == 8
    assert fig8_sys.n_edge_rows == 2
    np.testing.assert_allclose(fig8_sys.b_eq[:8], np.pi)
    np.testing.assert_allclose(fig8_sys.b_eq[8:], 2.0 * np.pi)
    # triple rows have three unit entries; edge rows cover all slots
    assert np.all(fig8_sys.a_eq[:8].sum(axis=1) == 3.0)
    np.testing.assert_allclose(fig8_sys.a_eq[8:].sum(axis=0), 1.0)


@pytest.mark.parametrize("name", ["fig8", "degenerate4", "gieseking",
                                  "chain5"])
def test_rows_of_slot_index_the_nonzero_rows(name, fig8):
    tri = movable_chain(fig8, 5) if name == "chain5" else load_data(name)
    idx = triangulation.incidence(tri)
    sys_ = polytope.build_constraints(idx)
    rows = sys_.rows_of_slot
    assert rows.shape == (sys_.dim, 3)
    for s in range(sys_.dim):
        assert list(np.flatnonzero(sys_.a_eq[:, s])) == sorted(rows[s])
        assert list(rows[s, :2]) == [i for i, t in enumerate(idx.triples)
                                     if s in t]
        assert rows[s, 1] < sys_.n_triple_rows <= rows[s, 2]
        assert rows[s, 2] == sys_.n_triple_rows + idx.edge_of[s]


def test_regular_point_satisfies_equalities(fig8_sys, fig8_center):
    assert polytope.equality_residual(fig8_sys, fig8_center) < 1e-14


def test_membership_interior(fig8_sys, fig8_center):
    m = polytope.classify_membership(fig8_sys, fig8_center)
    assert m.kind == "interior"
    assert m.flat is None


def test_membership_boundary_reports_flat_slots(fig8_sys, fig8_center):
    basis = polytope.null_space(fig8_sys)
    d = basis[:, 0]
    # walk to the box along a null direction
    up = d > 1e-12
    down = d < -1e-12
    steps = np.concatenate([(np.pi - fig8_center[up]) / d[up],
                            -fig8_center[down] / d[down]])
    x = fig8_center + np.min(steps) * d
    m = polytope.classify_membership(fig8_sys, x)
    assert m.kind == "boundary"
    assert m.flat
    for i in m.flat.indices:
        assert min(x[i], np.pi - x[i]) < 1e-8


def test_membership_infeasible(fig8_sys, fig8_center):
    x = fig8_center.copy()
    x[0] += 0.1
    m = polytope.classify_membership(fig8_sys, x)
    assert m.kind == "infeasible"
    assert m.equality_violation > 1e-2
    assert m.witness is not None


def test_membership_rejects_wrong_length(fig8_sys):
    with pytest.raises(ValueError, match="length"):
        polytope.classify_membership(fig8_sys, np.zeros(5))


def test_null_space_annihilates_rows(fig8_sys):
    basis = polytope.null_space(fig8_sys)
    assert basis.shape[0] == 12
    assert basis.shape[1] >= 1
    assert np.max(np.abs(fig8_sys.a_eq @ basis)) < 1e-12
    np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]),
                               atol=1e-12)


def test_interior_point_fig8(fig8_sys):
    res = polytope.interior_point(fig8_sys)
    assert res.status == "ok"
    assert not res.fixed
    assert res.min_slack > 0.1
    assert polytope.equality_residual(fig8_sys, res.point) < 1e-9


def test_interior_point_empty_closure(doubled):
    sys_ = polytope.build_constraints(triangulation.incidence(doubled))
    res = polytope.interior_point(sys_)
    assert res.status == "empty-closure"
    assert res.point is None


def test_face_point_respects_pins(fig8_sys):
    pinned = {0: 0.0, 5: 0.0, 2: 0.0, 3: 0.0, 1: np.pi, 4: np.pi}
    res = polytope.interior_point(fig8_sys, pinned=pinned)
    assert set(res.fixed.indices) == set(pinned)
    assert res.status == "ok"
    for i, v in pinned.items():
        assert abs(res.point[i] - v) < 1e-9
    assert polytope.equality_residual(fig8_sys, res.point) < 1e-8
    m = polytope.classify_membership(fig8_sys, res.point)
    assert m.kind == "boundary"
    assert set(pinned) <= set(m.flat.indices)


def test_interior_point_single_point_closure(fig8_sys):
    # both tetrahedra pinned flat: the pinned face is one point
    pinned = flat_pins(0, 1)
    res = polytope.interior_point(fig8_sys, pinned=pinned)
    assert res.status == "empty-interior"
    assert res.min_slack == 0.0
    assert set(res.fixed.indices) == set(pinned)
    np.testing.assert_array_equal(res.point, [pinned[i] for i in range(12)])
    bad = polytope.interior_point(fig8_sys, pinned=flat_pins(0, 0))
    assert bad.status == "empty-closure"
    assert bad.point is None


def test_interior_point_minimal_face(degenerate4_sys):
    # the fixed slots agree with the ranges of the coordinates over the
    # closure: tetrahedra 0 and 3 are flat on all of it
    res = polytope.interior_point(degenerate4_sys)
    assert res.status == "empty-interior"
    fixed = fixed_slots(degenerate4_sys.a_eq, degenerate4_sys.b_eq)
    assert fixed == set(range(6)) | set(range(18, 24))
    assert set(res.fixed.indices) == fixed
    assert polytope.equality_residual(degenerate4_sys, res.point) < 1e-12
    free = np.setdiff1d(np.arange(24), sorted(fixed))
    assert np.min(np.minimum(res.point[free], np.pi - res.point[free])) > 0.1


def test_sample_closure_points_sweep_the_minimal_face(degenerate4_sys):
    start = polytope.interior_point(degenerate4_sys).point
    fixed = sorted(fixed_slots(degenerate4_sys.a_eq, degenerate4_sys.b_eq))
    rng = np.random.default_rng(13)
    pts = polytope.sample_closure_points(degenerate4_sys, rng, 50)
    for x in pts:
        assert np.max(np.abs(x - start)) > 1e-6
        assert polytope.equality_residual(degenerate4_sys, x) < 1e-9
        assert np.all(x >= -1e-12) and np.all(x <= np.pi + 1e-12)
        np.testing.assert_array_equal(x[fixed], start[fixed])
        assert set(np.unique(x[fixed])) <= {0.0, np.pi}


def test_flat_set_tetrahedron_closure():
    assert polytope.FlatSet(frozenset(range(6))).is_tetrahedron_closed()
    assert not polytope.FlatSet(frozenset({0, 1})).is_tetrahedron_closed()
    assert polytope.FlatSet(frozenset()).is_tetrahedron_closed()
    assert not polytope.FlatSet(frozenset())


def test_segment_endpoints_and_range():
    p = np.zeros(3)
    q = np.ones(3)
    np.testing.assert_allclose(polytope.segment(p, q, 0.0), p)
    np.testing.assert_allclose(polytope.segment(p, q, 1.0), q)
    np.testing.assert_allclose(polytope.segment(p, q, 0.25), 0.25 * q)
    with pytest.raises(ValueError):
        polytope.segment(p, q, 1.5)


def test_difference_vector_in_null_space(fig8_sys, fig8_center):
    rng = np.random.default_rng(11)
    q = polytope.sample_closure_points(fig8_sys, rng, 1)[0]
    a = polytope.difference_vector(fig8_center, q)
    assert np.max(np.abs(fig8_sys.a_eq @ a)) < 1e-9


def test_sample_closure_points_feasible(fig8_sys):
    rng = np.random.default_rng(12)
    pts = polytope.sample_closure_points(fig8_sys, rng, 200)
    assert len(pts) == 200
    hit_boundary = 0
    for x in pts:
        assert polytope.equality_residual(fig8_sys, x) < 1e-9
        assert np.all(x >= -1e-12) and np.all(x <= np.pi + 1e-12)
        if np.min(np.minimum(x, np.pi - x)) < 1e-9:
            hit_boundary += 1
    assert hit_boundary > 10  # boundary_fraction actually reaches faces


def test_angles_json_roundtrip():
    x = np.linspace(0.1, 3.0, 12)
    text = polytope.angles_to_json(x)
    back = polytope.angles_from_json(text, expected_size=12)
    np.testing.assert_allclose(back, x, atol=0.0)


def test_angles_json_accepts_bare_array():
    back = polytope.angles_from_json("[1.0, 2.0]")
    np.testing.assert_allclose(back, [1.0, 2.0])


def test_angles_json_rejects_bad_input():
    with pytest.raises(ValueError):
        polytope.angles_from_json("[1.0, 2.0]", expected_size=3)
    with pytest.raises(ValueError):
        polytope.angles_from_json('{"angles": [1.0, "NaN"]}')
