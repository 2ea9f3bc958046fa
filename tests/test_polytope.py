"""Constraint assembly, membership, interior points, and sampling."""

import json

import numpy as np
import pytest

from scipy.linalg import null_space

from cuspforge import optimizer, polytope, triangulation

from conftest import flat_point, load_data, movable_chain, property_chain
from helpers import (angle_matrix, angles_text, fixed_slots,
                     interior_status, null_directions, slot_system)


def test_constraint_shapes_and_rhs(fig8_sys):
    assert fig8_sys.rows.shape == (6, 3)
    assert fig8_sys.dim == 12
    np.testing.assert_allclose(fig8_sys.b[:2], np.pi)
    np.testing.assert_allclose(fig8_sys.b[2:], 2.0 * np.pi)
    # tetrahedron rows hold their three angles; the edge rows hold each
    # angle twice, once per slot; the columns of A are its products with
    # the unit angle vectors
    a = np.column_stack([fig8_sys.apply(e) for e in np.eye(6)])
    np.testing.assert_array_equal(a[:2], np.repeat(np.eye(2), 3, axis=1))
    np.testing.assert_array_equal(a[2:].sum(axis=0), 2.0)


@pytest.mark.parametrize("name", ["fig8", "degenerate4", "gieseking",
                                  "chain5"])
def test_rows_of_slot_index_the_nonzero_rows(name, fig8):
    # slot s carries the angle a of its opposite pair, and rows[a] holds the
    # tetrahedron row, then the edge rows of the pair's two slots
    tri = movable_chain(fig8, 5) if name == "chain5" else load_data(name)
    idx = triangulation.incidence(tri)
    sys_ = polytope.build_constraints(idx)
    n, rows, a = tri.n_tets, sys_.rows, angle_matrix(tri)
    assert rows.shape == (3 * n, 3)
    for s in range(sys_.dim):
        t, k = divmod(s, 6)
        angle = 3 * t + min(k, 5 - k)
        assert list(rows[angle]) == [t, n + idx.edge_of[6 * t + min(k, 5 - k)],
                                     n + idx.edge_of[6 * t + max(k, 5 - k)]]
        assert list(np.flatnonzero(a[:, angle])) == sorted(set(rows[angle]))
        assert a[:, angle].sum() == 3.0


# V8 to 16 digits, written out to keep the case names, which hold it
@pytest.mark.parametrize("name, doubled, volume", [
    ("fig8", 4, 2.029883212819307), ("gieseking", 3, 2.029883212819307 / 2)])
def test_angles_in_one_edge_class_have_coefficient_two(name, doubled, volume):
    # an angle whose two slots lie in one edge class adds 2 to its row: four
    # of fig8's six angles and all three of gieseking's
    tri = load_data(name)
    sys_ = polytope.build_constraints(triangulation.incidence(tri))
    a = angle_matrix(tri)
    assert np.count_nonzero(a == 2.0) == doubled
    rng = np.random.default_rng(14)
    theta = rng.standard_normal(a.shape[1])
    np.testing.assert_allclose(sys_.apply(theta), a @ theta, atol=1e-14)
    assert interior_status(sys_) == "ok"
    res = optimizer.maximize_volume(sys_)
    assert res.status == "converged"
    assert abs(res.volume - volume) < 1e-10


def test_regular_point_satisfies_equalities(fig8_sys, fig8_center):
    assert polytope.classify_membership(
        fig8_sys, fig8_center).equality_violation < 1e-14


def test_membership_interior(fig8_sys, fig8_center, fig8_tol_point):
    # a slot exactly BOUNDARY_TOL from 0 is not at a bound: the rule is
    # strict, and the tetrahedron classification agrees
    for x in (fig8_center, fig8_tol_point):
        m = polytope.classify_membership(fig8_sys, x)
        assert m.kind == "interior"
        assert m.flat == frozenset()
        assert optimizer.classify_tetrahedra(x) == ["positive"] * 2


def test_membership_boundary_reports_flat_slots(fig8, fig8_sys, fig8_center):
    basis = null_directions(fig8)
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
    for i in m.flat:
        assert min(x[i], np.pi - x[i]) < 1e-8


def test_membership_infeasible(fig8_sys, fig8_center):
    x = fig8_center.copy()
    x[0] += 0.1
    m = polytope.classify_membership(fig8_sys, x)
    assert m.kind == "infeasible"
    assert m.equality_violation > 1e-2
    assert not m.flat


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_membership_non_finite_is_infeasible(fig8_sys, fig8_center, value):
    # a NaN slot fails every comparison, so only negated tests catch it
    x = fig8_center.copy()
    x[0] = value
    assert polytope.classify_membership(fig8_sys, x).kind == "infeasible"


def test_membership_requires_equal_opposite_slots(fig8, fig8_idx, fig8_sys,
                                                  fig8_center):
    # slots 0 and 5 (edges 01 and 23 of tetrahedron 0) both lie in edge
    # class 0: moving them apart keeps the edge rows and the mean angles,
    # but breaks the four vertex triples of tetrahedron 0 by 0.1
    assert fig8_idx.edge_of[0] == fig8_idx.edge_of[5] == 0
    x = fig8_center.copy()
    x[0] += 0.1
    x[5] -= 0.1
    a_eq, b_eq = slot_system(fig8)
    errors = np.abs(a_eq @ x - b_eq)
    np.testing.assert_allclose(errors[:4], 0.1)
    assert np.max(errors[4:]) < 1e-14
    np.testing.assert_allclose(fig8_sys.apply(polytope.to_angles(x)),
                               fig8_sys.b, atol=1e-14)
    m = polytope.classify_membership(fig8_sys, x)
    assert m.kind == "infeasible"
    assert m.equality_violation > 0.1
    with pytest.raises(ValueError, match="infeasible"):
        optimizer.certify(fig8_sys, x)


def test_membership_rejects_wrong_length(fig8_sys):
    with pytest.raises(ValueError, match="length"):
        polytope.classify_membership(fig8_sys, np.zeros(5))


def test_null_space_annihilates_rows(fig8):
    # the slot system's null directions have equal opposite slots, and their
    # angles span the null space of the angle rows
    basis = null_directions(fig8)
    assert basis.shape[0] == 12
    assert basis.shape[1] >= 1
    six = basis.T.reshape(-1, 2, 6)
    np.testing.assert_allclose(six[:, :, :3], six[:, :, :2:-1], atol=1e-12)
    angles = np.array([polytope.to_angles(d) for d in basis.T]).T
    assert np.max(np.abs(angle_matrix(fig8) @ angles)) < 1e-12
    assert null_space(angle_matrix(fig8)).shape[1] == basis.shape[1]


def test_interior_point_fig8(fig8_sys):
    point, fixed = polytope.interior_point(fig8_sys)
    assert not fixed
    assert np.min(np.minimum(point, np.pi - point)) > 0.1
    assert polytope.classify_membership(
        fig8_sys, point).equality_violation < 1e-9


def test_interior_point_empty_closure(doubled):
    sys_ = polytope.build_constraints(triangulation.incidence(doubled))
    assert polytope.interior_point(sys_) is None


def test_interior_point_single_point_closure(fig8):
    # this chain's closure is one point, every slot of it fixed at 0 or pi
    # and every tetrahedron flat
    sys_ = polytope.build_constraints(
        triangulation.incidence(property_chain(fig8, 0)))
    point, fixed = polytope.interior_point(sys_)
    assert fixed == set(range(sys_.dim))
    np.testing.assert_array_equal(point, flat_point(2, 0, 0, 0, 0, 1, 0, 0))
    # from a point that is a face of its own, no ray moves
    rng = np.random.default_rng(14)
    for x in polytope.sample_closure_points(sys_, rng, 8, point):
        np.testing.assert_array_equal(x, point)


def test_interior_point_minimal_face(degenerate4_sys):
    # the fixed slots agree with the ranges of the coordinates over the
    # closure: tetrahedra 0 and 3 are flat on all of it, so the interior is
    # empty
    point, fixed = polytope.interior_point(degenerate4_sys)
    expected = fixed_slots(*slot_system(load_data("degenerate4")))
    assert expected == set(range(6)) | set(range(18, 24))
    assert fixed == expected
    assert interior_status(degenerate4_sys) == "empty-interior"
    np.testing.assert_array_equal(point[sorted(fixed)],
                                  np.pi * (point[sorted(fixed)] > 1.0))
    assert polytope.classify_membership(
        degenerate4_sys, point).equality_violation < 1e-12
    free = np.setdiff1d(np.arange(24), sorted(fixed))
    assert np.min(np.minimum(point[free], np.pi - point[free])) > 0.1


def test_sample_closure_points_sweep_the_minimal_face(degenerate4_sys):
    start = polytope.interior_point(degenerate4_sys)[0]
    fixed = sorted(fixed_slots(*slot_system(load_data("degenerate4"))))
    rng = np.random.default_rng(13)
    pts = polytope.sample_closure_points(degenerate4_sys, rng, 50, start)
    for x in pts:
        assert np.max(np.abs(x - start)) > 1e-6
        assert polytope.classify_membership(
            degenerate4_sys, x).equality_violation < 1e-9
        assert np.all(x >= -1e-12) and np.all(x <= np.pi + 1e-12)
        np.testing.assert_array_equal(x[fixed], start[fixed])
        assert set(np.unique(x[fixed])) <= {0.0, np.pi}


def test_segment_endpoints_and_range():
    p = np.zeros(3)
    q = np.ones(3)
    np.testing.assert_allclose(polytope.segment(p, q, 0.0), p)
    np.testing.assert_allclose(polytope.segment(p, q, 1.0), q)
    np.testing.assert_allclose(polytope.segment(p, q, 0.25), 0.25 * q)
    # one row per t of an array
    np.testing.assert_allclose(polytope.segment(p, q, [0.0, 0.25, 1.0]),
                               [p, 0.25 * q, q])
    with pytest.raises(ValueError):
        polytope.segment(p, q, 1.5)
    with pytest.raises(ValueError):
        polytope.segment(p, q, [0.5, -0.1])


def test_difference_vector_in_null_space(fig8, fig8_sys, fig8_center):
    rng = np.random.default_rng(11)
    q = polytope.sample_closure_points(
        fig8_sys, rng, 1, start=polytope.interior_point(fig8_sys)[0])[0]
    a = q - fig8_center
    assert np.max(np.abs(slot_system(fig8)[0] @ a)) < 1e-9


def test_sample_closure_points_feasible(fig8_sys, fig8_tol_point):
    rng = np.random.default_rng(12)
    pts = polytope.sample_closure_points(
        fig8_sys, rng, 200, start=polytope.interior_point(fig8_sys)[0])
    assert pts.shape == (200, fig8_sys.dim)
    hit_boundary = 0
    for x in pts:
        assert polytope.classify_membership(
            fig8_sys, x).equality_violation < 1e-9
        assert np.all(x >= -1e-12) and np.all(x <= np.pi + 1e-12)
        if np.min(np.minimum(x, np.pi - x)) < 1e-9:
            hit_boundary += 1
    assert hit_boundary > 10  # the boundary share actually reaches faces
    # from a point with an angle exactly BOUNDARY_TOL, which is not at a
    # bound, the rays move that angle too
    pts = polytope.sample_closure_points(fig8_sys, rng, 8, fig8_tol_point)
    assert np.all(pts[:, 0] != fig8_tol_point[0])


def test_angles_json_roundtrip():
    x = np.linspace(0.1, 3.0, 12)
    back = polytope.angles_from_json(angles_text(x), 12)
    np.testing.assert_allclose(back, x, atol=0.0)


def test_angles_json_accepts_bare_array():
    back = polytope.angles_from_json("[1.0, 2.0]", 2)
    np.testing.assert_allclose(back, [1.0, 2.0])


def test_angles_json_rejects_bad_input():
    with pytest.raises(ValueError):
        polytope.angles_from_json("[1.0, 2.0]", 3)
    with pytest.raises(ValueError):
        polytope.angles_from_json('{"angles": [1.0, "NaN"]}', 2)
    # deeper than the JSON decoder recurses
    for text in ("[" * 100000, '{"angles": ' + "[" * 100000 + "1"
                 + "]" * 100000 + "}"):
        with pytest.raises(ValueError, match="flat array of finite"):
            polytope.angles_from_json(text, 1)
    # another slot order; without the key the convention is assumed
    other = "tet-lex;edges=23,13,12,03,02,01"
    with pytest.raises(ValueError, match="ordering"):
        polytope.angles_from_json(json.dumps({"ordering": other,
                                              "angles": [1.0]}), 1)
    assert polytope.angles_from_json('{"angles": [1.0]}', 1).tolist() == [1.0]

