"""Acceptance suite.

Each test checks one numbered criterion at its stated tolerance and emits a
single PASS/FAIL line (written through the capture so it always appears in
the run log).
"""

import math
import time

import numpy as np

from cuspforge import geometry
from cuspforge import lobachevsky as lob
from cuspforge import optimizer, polytope
from cuspforge import triangulation as tr

from conftest import V8, movable_chain, movable_face
from helpers import (aitken_limit, closure_status, interior_status,
                     lobachevsky_quadrature, null_directions, slot_system)

LAMBDA_PI_6 = 0.50747080320482681   # quadrature oracle, frozen
LAMBDA_PI_3 = 0.33831386880321788   # quadrature oracle, frozen


def emit(capsys, num, name, ok, detail):
    with capsys.disabled():
        print("criterion %02d %-28s %s (%s)"
              % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s): %s" % (num, name, detail)


def test_criterion_01_lobachevsky_accuracy(capsys):
    rng = np.random.default_rng(101)
    thetas = rng.uniform(0.0, np.pi, size=1000)
    oracle = np.array([lobachevsky_quadrature(t) for t in thetas])
    t0 = time.perf_counter()
    values = lob.lobachevsky(thetas)
    elapsed = time.perf_counter() - t0  # budget covers the implementation
    worst = float(np.max(np.abs(values - oracle)))
    err6 = abs(lob.lobachevsky(np.pi / 6.0) - LAMBDA_PI_6)
    err3 = abs(lob.lobachevsky(np.pi / 3.0) - LAMBDA_PI_3)
    ok = worst < 1e-10 and err6 < 1e-7 and err3 < 1e-7 and elapsed < 1.0
    emit(capsys, 1, "lobachevsky-accuracy", ok,
         "worst %.3g, consts %.3g/%.3g, %.2fs" % (worst, err6, err3, elapsed))


def test_criterion_02_fig8_end_to_end(capsys, fig8_path):
    t0 = time.perf_counter()
    with open(fig8_path) as fh:
        tri = tr.parse_triangulation(fh.read())
    sys_ = polytope.build_constraints(tr.incidence(tri))
    res = optimizer.maximize_volume(sys_)
    elapsed = time.perf_counter() - t0
    oracle_vol = 6.0 * lobachevsky_quadrature(np.pi / 3.0)
    dist = float(np.max(np.abs(res.point - np.pi / 3.0)))
    vol_err = abs(res.volume - oracle_vol)
    ok = (res.status == "converged" and dist < 1e-6 and vol_err < 1e-6
          and abs(oracle_vol - V8) < 1e-12 and elapsed < 1.0)
    emit(capsys, 2, "fig8-end-to-end", ok,
         "dist %.3g, vol err %.3g, %.2fs" % (dist, vol_err, elapsed))


def test_criterion_03_maximality_certificate(capsys, fig8, fig8_sys,
                                             fig8_optimum, fig8_center):
    cert = optimizer.certify(fig8_sys, fig8_optimum.point)
    basis = null_directions(fig8)
    perturbed = fig8_center + 0.2 * basis[:, 0]
    assert polytope.classify_membership(fig8_sys, perturbed).kind == "interior"
    bad = optimizer.certify(fig8_sys, perturbed)
    ok = (cert.gradient_residual < 1e-8 and cert.signs_ok
          and bad.gradient_residual > 1e-3)
    emit(capsys, 3, "maximality-certificate", ok,
         "residual %.3g / perturbed %.3g, signs_ok=%s"
         % (cert.gradient_residual, bad.gradient_residual, cert.signs_ok))


def test_criterion_04_uniqueness(capsys, fig8_sys):
    rep = optimizer.uniqueness_probe(fig8_sys, 20, 104, optimizer.DEFAULT_TOL,
                                     optimizer.DEFAULT_MAX_ITER)
    vol_range = max(rep.volumes) - min(rep.volumes)
    ok = rep.max_spread < 1e-5 and vol_range < 1e-8
    emit(capsys, 4, "uniqueness", ok,
         "spread %.3g, vol range %.3g" % (rep.max_spread, vol_range))


def test_criterion_05_dominance(capsys, fig8_sys, fig8_optimum):
    rep = optimizer.dominance_check(fig8_sys, fig8_optimum.point, 1000,
                                    seed=105)
    ok = (rep.all_dominated and rep.worst_gap > 0.0
          and rep.worst_directional <= 1e-10)
    emit(capsys, 5, "dominance", ok,
         "worst gap %.3g, worst directional %.3g"
         % (rep.worst_gap, rep.worst_directional))


def test_criterion_06_derivative_consistency(capsys, monkeypatch,
                                             fig8_sys, fig8_face_point):
    # no ray goes all the way to the box
    monkeypatch.setattr(polytope, "_BOUNDARY_FRACTION", 0.0)
    rng = np.random.default_rng(106)
    h = 1e-6
    worst_rel = 0.0
    center = polytope.interior_point(fig8_sys)[0]
    pts = polytope.sample_closure_points(fig8_sys, rng, 200, start=center)
    for p, q in zip(pts[::2], pts[1::2]):
        # shrink toward the interior point so t +- h stays interior
        p = center + 0.9 * (p - center)
        q = center + 0.9 * (q - center)
        t = rng.uniform(0.2, 0.8)
        val = lob.segment_derivative(p, q, t)
        fd = (lob.volume(polytope.segment(p, q, t + h))
              - lob.volume(polytope.segment(p, q, t - h))) / (2.0 * h)
        worst_rel = max(worst_rel, abs(val - fd) / max(abs(val), 1e-3))
    # extrapolated one-sided limits at a flat-boundary point
    face = fig8_face_point
    assert polytope.classify_membership(fig8_sys, face).flat == set(range(6))
    worst_lim = 0.0
    for q in polytope.sample_closure_points(fig8_sys, rng, 10, start=center):
        limit = lob.boundary_derivative_limit(face, q)
        vals = lob.segment_derivative(face, q, [1e-4, 5e-5, 2.5e-5])
        worst_lim = max(worst_lim, abs(limit - aitken_limit(vals)))
    ok = worst_rel < 1e-6 and worst_lim < 1e-4
    emit(capsys, 6, "derivative-consistency", ok,
         "fd rel %.3g, limit err %.3g" % (worst_rel, worst_lim))


def test_criterion_07_concavity(capsys, fig8_sys):
    rng = np.random.default_rng(107)
    h = 1e-3
    worst = -np.inf
    pts = polytope.sample_closure_points(
        fig8_sys, rng, 200, start=polytope.interior_point(fig8_sys)[0])
    for p, q in zip(pts[::2], pts[1::2]):
        for t in np.linspace(h, 1.0 - h, 9):
            d2 = (lob.volume(polytope.segment(p, q, t + h))
                  - 2.0 * lob.volume(polytope.segment(p, q, t))
                  + lob.volume(polytope.segment(p, q, t - h)))
            worst = max(worst, d2)
    ok = worst <= 1e-8
    emit(capsys, 7, "concavity", ok, "max second difference %.3g" % worst)


def test_criterion_08_length_identity(capsys):
    tets = geometry.random_tetrahedra(np.random.default_rng(108), 1000)
    worst = geometry.length_identity(tets)[1].max()
    ok = worst < 1e-9
    emit(capsys, 8, "length-identity", ok, "worst spread %.3g" % worst)


def test_criterion_09_triangle_inequality(capsys):
    tets = geometry.random_tetrahedra(np.random.default_rng(109), 1000)
    worst = geometry.triangle_slack(tets).min()
    eps = 1e-4
    thin = geometry.Tetrahedra([eps, eps, math.pi - 2.0 * eps],
                               np.ones(4))
    exps = sorted(np.exp(thin.average[0, :3]))
    ratio = (exps[0] + exps[1]) / exps[2]
    ok = worst >= -1e-12 and 1.0 <= ratio <= 1.001
    emit(capsys, 9, "triangle-inequality", ok,
         "min slack %.3g, thin-family ratio %.10f" % (worst, ratio))


def test_criterion_10_entropy_inequality(capsys):
    rng = np.random.default_rng(110)
    x, y, a, b, above = (rng.uniform(size=(100_000, 5))
                         * [10.0, 10.0, 3.0, 3.0, 2.0]).T
    worst = lob.entropy_inequality(
        x, y, a, b, np.log(np.exp(a) + np.exp(b)) + above).max()
    eq = lob.entropy_inequality(1.0, 1.0, 0.0, 0.0, math.log(2.0))
    ok = worst <= 1e-12 and abs(eq) < 1e-14
    emit(capsys, 10, "entropy-inequality", ok,
         "max lhs %.3g, equality case %.3g" % (worst, eq))


def test_criterion_11_combinatorics(capsys, fig8):
    classes = tr.incidence(fig8).edges
    links = tr.vertex_links(fig8)
    base_ok = (len(classes) == 2 and all(len(c) == 6 for c in classes)
               and len(links) == 1 and links[0].euler_characteristic == 0
               and links[0].orientable)
    moved = tr.pachner_23(fig8, movable_face(fig8))
    moved_links = tr.vertex_links(moved)
    move_ok = (moved.n_tets == 3 and len(tr.incidence(moved).edges) == 3
               and sorted(l.euler_characteristic for l in moved_links)
               == sorted(l.euler_characteristic for l in links))
    chain = movable_chain(fig8, 5)
    sys_ = polytope.build_constraints(tr.incidence(chain))
    status = interior_status(sys_)
    expected = closure_status(*slot_system(chain))
    chain_ok = chain.n_tets == 7 and status == expected
    ok = base_ok and move_ok and chain_ok
    emit(capsys, 11, "combinatorics", ok,
         "fig8 ok=%s, 2-3 ok=%s, 7-tet interior_point=%s (oracle %s)"
         % (base_ok, move_ok, status, expected))


def test_criterion_12_identity_suite(capsys):
    rng = np.random.default_rng(112)
    y = rng.uniform(-np.pi, np.pi, size=1000)
    odd = np.max(np.abs(lob.lobachevsky(-y) + lob.lobachevsky(y)))
    periodic = np.max(np.abs(lob.lobachevsky(y + np.pi) - lob.lobachevsky(y)))
    worst_sum = 0.0
    for x in (0.0, np.pi):
        total = (lob.lobachevsky(np.full_like(y, x)) + lob.lobachevsky(y)
                 + lob.lobachevsky(np.pi - x - y))
        worst_sum = max(worst_sum, float(np.max(np.abs(total))))
    ok = odd < 1e-11 and periodic < 1e-11 and worst_sum < 1e-11
    emit(capsys, 12, "identity-suite", ok,
         "odd %.3g, periodic %.3g, sum %.3g" % (odd, periodic, worst_sum))
