"""Tests for the benchmark's cover generator, oracle and span arithmetic.

Run from the repository root: python -m pytest -q perfbench/tests
"""

import math
import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(ROOT, "src")]

import covers  # noqa: E402
from oracle import AngleSystem, Oracle  # noqa: E402
from spans import layer_metrics  # noqa: E402


def degrees(text):
    return sorted(len(c) for c in covers.edge_classes(*covers.parse(text)))


def test_fixed_triangulations_match_their_definitions():
    from cuspforge import triangulation
    with open(os.path.join(ROOT, "data", "fig8.tri")) as fh:
        fig8 = triangulation.parse_triangulation(fh.read())
    assert covers.parse(covers.FIG8_TEXT) == (2, fig8.gluings)
    geo4 = triangulation.pachner_23(triangulation.pachner_23(fig8, (0, 0)),
                                    (0, 1))
    assert covers.parse(covers.GEO4_TEXT) == (4, geo4.gluings)
    assert degrees(covers.GEO4_TEXT) == list(covers.GEO4_DEGREES)
    assert degrees(covers.DEGENERATE_TEXT) == [2, 3, 7, 12]
    assert degrees(covers.FIG8_TEXT) == [6, 6]


def test_fig8_is_one_orientable_torus_cusp():
    n, gluings = covers.parse(covers.FIG8_TEXT)
    assert covers.cusps(n, gluings) == [0]
    assert covers.orientable(n, gluings)
    assert len(covers.components(n, gluings)) == 1


def test_cocycle_vanishes_around_every_base_edge():
    n, gluings = covers.parse(covers.GEO4_TEXT)
    value = {}
    for (a, b), c in zip(covers.face_pairings(gluings), covers.GEO4_COCYCLE):
        value[a], value[b] = c, -c
    for cls in covers.edge_classes(n, gluings):
        # walk once around the edge: each slot steps through one face
        # containing the edge, in the direction its gluing leaves
        start = cls[0]
        t, k = divmod(start, 6)
        a, b = covers.VERTEX_PAIRS[k]
        f = min(v for v in range(4) if v not in (a, b))
        total = 0
        for _ in range(len(cls)):
            total += value[(t, f)]
            t2, perm = gluings[(t, f)]
            a, b, f2 = perm[a], perm[b], perm[f]
            t, f = t2, next(v for v in range(4) if v not in (a, b, f2))
        assert (t, tuple(sorted((a, b)))) == (start // 6,
                                              covers.VERTEX_PAIRS[start % 6])
        assert total == 0


@pytest.mark.parametrize("fold", [1, 2, 3, 5, 8, 13, 64])
def test_covers_pass_their_self_check(fold):
    text = covers.cover_text(fold, "seed-%d" % fold)
    n, gluings = covers.parse(text)
    assert n == 4 * fold
    assert degrees(text) == sorted(list(covers.GEO4_DEGREES) * fold)
    assert covers.orientable(n, gluings)


def test_cover_edge_classes_agree_with_cuspforge():
    from cuspforge import triangulation
    text = covers.cover_text(6, 11)
    ours = sorted(sorted(c) for c in covers.edge_classes(*covers.parse(text)))
    idx = triangulation.incidence(triangulation.parse_triangulation(text))
    assert ours == sorted(sorted(e) for e in idx.edges)


def test_relabeling_is_seeded():
    assert covers.cover_text(3, 7) == covers.cover_text(3, 7)
    assert covers.cover_text(3, 7) != covers.cover_text(3, 8)


def test_self_check_rejects_bad_covers():
    base = covers.parse(covers.GEO4_TEXT)
    n, cover = covers.cyclic_cover(*base, (0,) * 8, 3)
    with pytest.raises(covers.GluingError, match="disconnected"):
        covers.self_check(n, cover, covers.GEO4_DEGREES, 3)
    n, cover = covers.cyclic_cover(*base, (1, 0, 0, 0, 0, 0, 0, 0), 3)
    with pytest.raises(covers.GluingError, match="edge degrees"):
        covers.self_check(n, cover, covers.GEO4_DEGREES, 3)
    n, cover = covers.cyclic_cover(*base, covers.GEO4_COCYCLE, 2)
    t2, perm = cover[(0, 0)]
    cover[(0, 0)] = (t2, perm[::-1])
    with pytest.raises(covers.GluingError, match="involution"):
        covers.self_check(n, cover, covers.GEO4_DEGREES, 2)


def test_oracle_constants_and_lobachevsky():
    import mpmath
    oracle = Oracle()
    assert oracle.vol_fig8 == pytest.approx(2.0298832128193072, abs=1e-15)
    assert oracle.lambda_1 == pytest.approx(float(mpmath.clsin(2, 2)) / 2,
                                            abs=1e-16)
    rng = random.Random(3)
    for _ in range(20):
        theta = rng.uniform(-7.0, 7.0)
        exact = float(mpmath.clsin(2, 2 * mpmath.mpf(theta)) / 2)
        assert oracle.lobachevsky(theta) == pytest.approx(exact, abs=2e-15)
    assert oracle.volume(np.full(12, math.pi / 3)) == pytest.approx(
        oracle.vol_fig8, abs=1e-14)


def test_angle_system_accepts_only_angle_structures():
    n, gluings = covers.relabel(*covers.parse(covers.FIG8_TEXT),
                                random.Random(5))
    angles = AngleSystem(n, gluings)
    regular = np.full(12, math.pi / 3)
    assert angles.violation(regular) < 1e-14
    bent = regular.copy()
    bent[0] += 0.1
    assert angles.violation(bent) == pytest.approx(0.1)
    assert angles.violation(regular[:6]) == math.inf


def test_layer_metrics_self_times():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["optimizer.maximize_volume", 1.0, 9.0, 0, 4],
        ["lobachevsky.volume", 2.0, 3.0, 1, 12],
        ["lobachevsky.volume", 4.0, 6.0, 1, 12],
        ["linalg.lstsq", 6.0, 7.0, 1, 0],
    ]
    m = layer_metrics(spans, n_ops=1)
    assert m["trace.op_s"] == 10.0
    assert m["optimizer.maximize_s"] == 8.0
    assert m["optimizer.maximize_self_s"] == 4.0
    assert m["lobachevsky.kernel_s"] == 3.0
    assert m["lobachevsky.slots"] == 24
    assert m["optimizer.evals_per_iter"] == 0.5
    assert m["linalg.self_s"] == 1.0
