"""The Lobachevsky function, volume functional, and segment derivatives."""

import numpy as np
import pytest

from cuspforge import lobachevsky as lob
from cuspforge import polytope

from helpers import aitken_limit, lobachevsky_quadrature

mpmath = pytest.importorskip("mpmath")


def test_matches_quadrature_oracle_spot_checks():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(0.0, np.pi, size=25):
        assert abs(lob.lobachevsky(theta)
                   - lobachevsky_quadrature(theta)) < 1e-12


def clausen_half(theta):
    """The oracle Lob(theta) = Cl_2(2 theta) / 2 at the float theta."""
    with mpmath.workdps(20):
        return float(0.5 * mpmath.clsin(2, 2 * mpmath.mpf(float(theta))))


# A dense grid inside (-2 pi, 2 pi), with the points where the kernel's
# branches meet: 0 and pi/2, the floats pi and pi - 1e-12 next to a zero of
# sin, and the least positive scale where the series' powers underflow.
KERNEL_GRID = np.concatenate([
    np.linspace(-2.0 * np.pi, 2.0 * np.pi, 801)[1:-1],
    [0.0, np.pi / 2, np.pi, -np.pi, 1e-300, np.pi - 1e-12, 1e-12]])


@pytest.fixture(scope="module")
def kernel_oracle():
    return np.array([clausen_half(t) for t in KERNEL_GRID])


def test_matches_clausen_oracle(kernel_oracle):
    err = np.abs(lob.lobachevsky(KERNEL_GRID) - kernel_oracle)
    assert np.max(err) < 5e-15
    for theta, expect in zip(KERNEL_GRID[-7:], kernel_oracle[-7:]):
        assert abs(lob.lobachevsky(theta) - expect) < 5e-15
    # the reduction is modulo the float pi, which is short of pi by
    # 1.2e-16; at 2 pi it lands 2.4e-16 away from the true zero of Lob,
    # where the slope -log|2 sin| is about 36: an error of 8.9e-15
    for theta in (-2.0 * np.pi, 2.0 * np.pi):
        assert abs(lob.lobachevsky(theta) - clausen_half(theta)) < 1e-14


@pytest.mark.parametrize("size", [1, 12, 10_000])
def test_array_kernel_matches_clausen_oracle(kernel_oracle, size):
    # the blocked series takes one matrix product over the whole array, so
    # each array size goes through the product in its own shape
    pick = np.random.default_rng(size).integers(KERNEL_GRID.size, size=size)
    err = np.abs(lob.lobachevsky(KERNEL_GRID[pick]) - kernel_oracle[pick])
    assert np.max(err) < 5e-15


def test_odd_and_periodic():
    rng = np.random.default_rng(1)
    theta = rng.uniform(-5.0, 5.0, size=300)
    np.testing.assert_allclose(lob.lobachevsky(-theta),
                               -lob.lobachevsky(theta), atol=1e-13)
    np.testing.assert_allclose(lob.lobachevsky(theta + np.pi),
                               lob.lobachevsky(theta), atol=1e-13)


def test_scalar_and_array_forms():
    assert isinstance(lob.lobachevsky(0.3), float)
    arr = lob.lobachevsky(np.array([0.3, 0.4]))
    assert arr.shape == (2,)
    assert arr[0] == lob.lobachevsky(0.3)


def test_volume_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.2, np.pi - 0.2, size=12)
    g = lob.volume_gradient(x)
    h = 1e-6
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd = (lob.volume(x + e) - lob.volume(x - e)) / (2.0 * h)
        assert abs(g[i] - fd) < 1e-8


def test_volume_gradient_diverges_at_bounds():
    g = lob.volume_gradient(np.array([0.0, np.pi, np.pi / 2]))
    assert np.isposinf(g[0]) and np.isposinf(g[1])
    assert abs(g[2] + 0.5 * np.log(2.0)) < 1e-15


def test_segment_derivative_matches_finite_differences(fig8_sys):
    rng = np.random.default_rng(3)
    pts = polytope.sample_closure_points(
        fig8_sys, rng, 8, start=polytope.interior_point(fig8_sys).point,
        boundary_fraction=0.0)
    h = 1e-6
    for p, q in zip(pts[::2], pts[1::2]):
        for t in (0.25, 0.5, 0.75):
            val = lob.segment_derivative(p, q, t).value
            fd = (lob.volume(polytope.segment(p, q, t + h))
                  - lob.volume(polytope.segment(p, q, t - h))) / (2.0 * h)
            assert abs(val - fd) < 1e-7


def test_segment_derivative_reduced_form_equivalent(fig8_sys):
    # the difference vector of two closure points sums to zero over every
    # triple, so dropping the log 2 factors changes nothing
    rng = np.random.default_rng(4)
    p, q = polytope.sample_closure_points(
        fig8_sys, rng, 2, start=polytope.interior_point(fig8_sys).point,
        boundary_fraction=0.0)
    a = lob.segment_derivative(p, q, 0.4, reduced=True).value
    b = lob.segment_derivative(p, q, 0.4, reduced=False).value
    assert abs(a - b) < 1e-10


def test_segment_derivative_rejects_endpoint_t():
    p = np.full(6, np.pi / 3)
    q = np.full(6, np.pi / 4)
    with pytest.raises(ValueError):
        lob.segment_derivative(p, q, 0.0)
    with pytest.raises(ValueError):
        lob.segment_derivative(p, q, 1.0)


def test_segment_derivative_convention_terms():
    p = np.array([0.0, np.pi, 0.5, 1.0])
    q = np.array([0.0, np.pi, 0.7, 0.9])
    rep = lob.segment_derivative(p, q, 0.5)
    assert rep.convention_terms == 2
    assert np.isfinite(rep.value)


def test_boundary_limit_interior_case_is_directional_derivative(fig8_sys):
    rng = np.random.default_rng(5)
    p, q = polytope.sample_closure_points(
        fig8_sys, rng, 2, start=polytope.interior_point(fig8_sys).point,
        boundary_fraction=0.0)
    rep = lob.boundary_derivative_limit(p, q, frozenset())
    assert abs(rep.entropy_part) == 0.0
    ts = [1e-3, 5e-4, 2.5e-4]
    vals = [lob.segment_derivative(p, q, t).value for t in ts]
    assert abs(rep.value - aitken_limit(vals)) < 1e-5


def test_boundary_limit_matches_extrapolated_derivative_flat_case():
    # one triple flat at (0, 0, pi), one free triple, moving toward an
    # interior target that keeps both triple sums fixed
    p = np.array([0.0, 0.0, np.pi, 0.4, 0.6, np.pi - 1.0])
    q = np.array([0.3, 0.5, np.pi - 0.8, 0.5, 0.8, np.pi - 1.3])
    flat = frozenset({0, 1, 2})
    rep = lob.boundary_derivative_limit(p, q, flat)
    ts = [1e-4, 5e-5, 2.5e-5]
    vals = [lob.segment_derivative(p, q, t).value for t in ts]
    assert abs(rep.value - aitken_limit(vals)) < 1e-6


def test_boundary_limit_rejects_inconsistent_flat_set():
    p = np.array([0.0, 0.5, np.pi - 0.5])
    q = np.array([0.2, 0.6, np.pi - 0.8])
    with pytest.raises(ValueError):
        lob.boundary_derivative_limit(p, q, frozenset())


def test_entropy_inequality_equality_case_exact():
    rep = lob.entropy_inequality(1.0, 1.0, 0.0, 0.0, np.log(2.0))
    assert abs(rep.lhs) < 1e-14
    assert rep.satisfied


def test_entropy_inequality_random_samples():
    rng = np.random.default_rng(6)
    for _ in range(500):
        x, y = rng.uniform(0.0, 10.0, size=2)
        a, b = rng.uniform(0.0, 3.0, size=2)
        c = np.log(np.exp(a) + np.exp(b)) + rng.uniform(0.0, 2.0)
        rep = lob.entropy_inequality(x, y, a, b, c)
        assert rep.satisfied, (x, y, a, b, c, rep.lhs)


def test_entropy_inequality_rejects_negative_arguments():
    with pytest.raises(ValueError):
        lob.entropy_inequality(-1.0, 1.0, 0.0, 0.0, 1.0)
