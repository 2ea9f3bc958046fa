"""Exact answers and output checks that do not use cuspforge.

The volume of the figure-eight complement is 6 Lambda(pi/3) = 3 Cl2(2 pi/3),
taken from mpmath's Clausen function.  An n-fold cover of a geometric
triangulation of it has maximum volume exactly n times that.  Angle vectors
are re-checked against the benchmark's own edge classes, and their volume is
recomputed with a float Lobachevsky function whose coefficients come from
mpmath and which is validated against mpmath when the oracle is built.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from covers import VERTEX_PAIRS, edge_classes

VOL_FIG8_REFERENCE = 2.0298832128193072
# Largest relative volume error, and largest equality or box violation,
# accepted from a solve.
VOL_RTOL = 1e-9
FEAS_TOL = 1e-8

_N_TERMS = 30


class Oracle:
    """Exact constants plus an independent float Lobachevsky function."""

    def __init__(self):
        mpmath.mp.dps = 30
        self.vol_fig8 = float(3 * mpmath.clsin(2, 2 * mpmath.pi / 3))
        if abs(self.vol_fig8 - VOL_FIG8_REFERENCE) > 1e-15:
            raise AssertionError("Cl2 volume %r != %r"
                                 % (self.vol_fig8, VOL_FIG8_REFERENCE))
        self.lambda_1 = float(mpmath.clsin(2, 2) / 2)
        # Cl2(u) = u - u log u + sum_k |B_2k| u^(2k+1) / (2k (2k+1)!), |u| < 2 pi
        self._coeffs = np.array([
            float(abs(mpmath.bernoulli(2 * k))
                  / (2 * k * mpmath.factorial(2 * k + 1)))
            for k in range(1, _N_TERMS + 1)])
        grid = np.linspace(0.05, 3.1, 13)
        exact = [float(mpmath.clsin(2, 2 * mpmath.mpf(t)) / 2) for t in grid]
        worst = float(np.max(np.abs(self.lobachevsky(grid) - exact)))
        if worst > 1e-14:
            raise AssertionError("float Lobachevsky off by %g" % worst)

    def lobachevsky(self, theta):
        """Lambda(theta) = Cl2(2 theta) / 2, elementwise."""
        phi = np.mod(np.asarray(theta, dtype=float), math.pi)
        flip = phi > 0.5 * math.pi
        u = 2.0 * np.where(flip, math.pi - phi, phi)
        u2 = u * u
        series = np.zeros_like(u)
        for c in self._coeffs[::-1]:
            series = (series + c) * u2
        with np.errstate(divide="ignore", invalid="ignore"):
            cl2 = np.where(u > 0.0, u - u * np.log(u) + u * series, 0.0)
        return np.where(flip, -0.5 * cl2, 0.5 * cl2)

    def volume(self, x):
        return 0.5 * float(np.sum(self.lobachevsky(x)))


class AngleSystem:
    """The angle equalities of one triangulation, from covers' own BFS."""

    def __init__(self, n, gluings):
        self.n = n
        self.edges = edge_classes(n, gluings)
        self.triples = [[6 * t + k for k, p in enumerate(VERTEX_PAIRS) if v in p]
                        for t in range(n) for v in range(4)]

    def violation(self, x):
        """Largest violation of the box, vertex and edge equalities."""
        x = np.asarray(x, dtype=float)
        if x.shape != (6 * self.n,):
            return math.inf
        box = max(float(np.max(-x)), float(np.max(x - math.pi)), 0.0)
        vert = max(abs(float(np.sum(x[t])) - math.pi) for t in self.triples)
        edge = max(abs(float(np.sum(x[e])) - 2.0 * math.pi) for e in self.edges)
        return max(box, vert, edge)


def check_solution(oracle, angles, point, volume, expected):
    """None when ``point`` is feasible and both its reported ``volume`` and
    its recomputed volume match ``expected``; otherwise the reason."""
    bad = angles.violation(point)
    if not bad <= FEAS_TOL:
        return "infeasible point (violation %g)" % bad
    for what, v in (("reported", volume), ("recomputed", oracle.volume(point))):
        err = abs(v - expected) / expected
        if not err <= VOL_RTOL:
            return "%s volume %r, expected %r" % (what, v, expected)
    return None
