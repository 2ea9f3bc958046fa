"""Decorated ideal tetrahedra: lengths, arcs, and the length identities."""

import cmath
import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from cuspforge import geometry
from cuspforge.triangulation import PAIR_OF, VERTEX_PAIRS

from helpers import (decorated_edge_length_oracle, entropy_reference,
                     halfspace_distance)

# unit decorations of one tetrahedron
UNIT = [1.0, 1.0, 1.0, 1.0]


def test_construction_validates_angles():
    with pytest.raises(ValueError, match="positive"):
        geometry.Tetrahedra([-0.1, 1.0, math.pi - 0.9], UNIT)
    with pytest.raises(ValueError, match="sum"):
        geometry.Tetrahedra([1.0, 1.0, 1.0], UNIT)
    with pytest.raises(ValueError, match="three"):
        geometry.Tetrahedra([[1.0, 1.0, math.pi - 2.0, 0.0]], UNIT)


def test_angle_reextraction_roundtrip():
    # the Euclidean angles of the triangle 0, 1, z are the dihedral angles
    # of the vertical edges over 0, 1 and z: slots 0, 1 and 2
    tets = geometry.random_tetrahedra(np.random.default_rng(20), 100)
    for z, angles in zip(tets.apex, tets.angles):
        back = (abs(cmath.phase(z)), abs(cmath.phase((z - 1) / (0 - 1))),
                abs(cmath.phase((0 - z) / (1 - z))))
        np.testing.assert_allclose(back, angles[PAIR_OF[:3]], atol=1e-12)


def test_opposite_edges_carry_equal_angles():
    tets = geometry.Tetrahedra([0.7, 1.1, math.pi - 1.8], UNIT)
    theta = tets.angles[:, PAIR_OF]
    for k in range(6):
        assert set(VERTEX_PAIRS[k]).isdisjoint(VERTEX_PAIRS[5 - k])
        assert theta[0, k] == theta[0, 5 - k]
    np.testing.assert_array_equal(theta[0, :3], tets.angles[0])


def test_set_decoration_validates():
    # the decorations are set, and checked, in the one constructor
    angles = [0.7, 1.1, math.pi - 1.8]
    with pytest.raises(ValueError, match="positive"):
        geometry.Tetrahedra(angles, [1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="four"):
        geometry.Tetrahedra(angles, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="four"):
        geometry.Tetrahedra([angles, angles], [1.0, 1.0, 1.0, 1.0])


def test_edge_lengths_match_halfspace_oracle():
    tets = geometry.random_tetrahedra(np.random.default_rng(21), 200)
    for z, deco, lengths in zip(tets.apex, tets.decorations, tets.lengths):
        h = deco[0]
        pts = (0j, 1 + 0j, z)
        diam = deco[1:]
        for k, (a, b) in enumerate(VERTEX_PAIRS):
            if a == 0:
                p = pts[b - 1]
                oracle = math.copysign(
                    halfspace_distance((p, h), (p, diam[b - 1])),
                    h - diam[b - 1])
            else:
                oracle = decorated_edge_length_oracle(
                    pts[a - 1], pts[b - 1], diam[a - 1], diam[b - 1])
            assert abs(lengths[k] - oracle) < 1e-9


def test_horocycle_arc_length_relation():
    # along each edge {u, v}, the length equals minus the sum of the log
    # arcs at its two endpoints on the two adjacent faces, halved
    tets = geometry.random_tetrahedra(np.random.default_rng(22), 200)
    for lengths, arcs in zip(tets.lengths, tets.arcs):
        for k, (u, v) in enumerate(VERTEX_PAIRS):
            s = sum(math.log(arcs[f, u]) + math.log(arcs[f, v])
                    for f in VERTEX_PAIRS[5 - k])
            assert abs(lengths[k] + 0.5 * s) < 1e-12


def test_face_cosine_law():
    # on every face, the edge length between two of its vertices equals
    # minus the sum of the log arcs at those vertices on that face
    tets = geometry.random_tetrahedra(np.random.default_rng(23), 200)
    for lengths, arcs in zip(tets.lengths, tets.arcs):
        for face in range(4):
            assert math.isnan(arcs[face, face])
            verts = [v for v in range(4) if v != face]
            for v in verts:
                a, b = [w for w in verts if w != v]
                k = VERTEX_PAIRS.index((a, b))
                assert abs(lengths[k] + math.log(arcs[face, a])
                           + math.log(arcs[face, b])) < 1e-12


def test_average_lengths_constant_on_opposite_pairs():
    tets = geometry.random_tetrahedra(np.random.default_rng(24), 10)
    np.testing.assert_array_equal(tets.average, tets.average[:, ::-1])
    np.testing.assert_allclose(
        tets.average[:, 0], 0.5 * (tets.lengths[:, 0] + tets.lengths[:, 5]),
        rtol=0, atol=1e-15)


def test_length_identity_spread_tiny():
    tets = geometry.random_tetrahedra(np.random.default_rng(25), 300)
    constant, spread = geometry.length_identity(tets)
    assert constant.shape == spread.shape == (300,)
    assert spread.max() < 1e-12


def test_length_identity_decoration_invariant():
    # the spread stays tiny under re-decoration; the constant moves
    angles = [0.6, 1.2, math.pi - 1.8]
    tets = geometry.Tetrahedra([angles, angles],
                               [[1.0, 1.0, 1.0, 1.0], [2.0, 0.5, 1.5, 3.0]])
    constant, spread = geometry.length_identity(tets)
    assert spread.max() < 1e-12
    assert abs(constant[0] - constant[1]) > 1e-3


def test_length_identity_rejects_near_flat():
    tets = geometry.Tetrahedra([[1.0, 1.0, math.pi - 2.0],
                                [1e-8, 1e-8, math.pi - 2e-8]], [UNIT, UNIT])
    with pytest.raises(ValueError, match="flat"):
        geometry.length_identity(tets)


def test_triangle_inequality_all_vertices():
    tets = geometry.random_tetrahedra(np.random.default_rng(26), 300)
    slack = geometry.triangle_slack(tets)
    assert slack.shape == (300, 4)
    assert slack.min() >= -1e-12, tets.angles[slack.min(axis=1).argmin()]
    # the slack at a vertex is that of its three edges' e^W, tightest
    # ordering first
    for w, row in zip(tets.average, slack):
        for v in range(4):
            exps = [math.exp(w[VERTEX_PAIRS.index(tuple(sorted((v, u))))])
                    for u in range(4) if u != v]
            top = max(exps)
            ref = min((sum(exps) - e - e) / top for e in exps)
            assert abs(row[v] - ref) < 1e-12


def test_triangle_inequality_degenerate_family():
    eps = 1e-4
    tets = geometry.Tetrahedra([eps, eps, math.pi - 2.0 * eps], UNIT)
    exps = sorted(np.exp(tets.average[0, :3]))
    ratio = (exps[0] + exps[1]) / exps[2]
    assert 1.0 <= ratio <= 1.001


def test_random_tetrahedron_respects_min_angle(monkeypatch):
    # the draw reads geometry's floor; at 0.05 about one Dirichlet draw in
    # ten has an angle below it, so the redraw loop runs
    monkeypatch.setattr(geometry, "MIN_DRAWN_ANGLE", 0.05)
    tets = geometry.random_tetrahedra(np.random.default_rng(27), 50)
    assert tets.angles.shape == (50, 3)
    assert tets.angles.min() >= 0.05
    assert (tets.decorations > 0).all()


def _one_at_a_time(rng, samples):
    """The suite's ``worst``, from one tetrahedron at a time and the
    closed-form identities checked entry by entry."""
    worst = {"cosine_law_residual": 0.0, "edge_length_sum_residual": 0.0,
             "length_identity_spread": 0.0, "triangle_slack_min": math.inf,
             "sine_ratio_rel_spread": 0.0, "entropy_lhs_max": -math.inf}
    for _ in range(samples):
        tet = geometry.random_tetrahedra(rng, 1)
        lengths, arcs, w = tet.lengths[0], tet.arcs[0], tet.average[0]
        theta = tet.angles[0, PAIR_OF]
        for k, (a, b) in enumerate(VERTEX_PAIRS):
            res = [lengths[k] + math.log(arcs[f, a]) + math.log(arcs[f, b])
                   for f in VERTEX_PAIRS[5 - k]]
            worst["cosine_law_residual"] = max(
                worst["cosine_law_residual"], *map(abs, res))
            worst["edge_length_sum_residual"] = max(
                worst["edge_length_sum_residual"], abs(0.5 * sum(res)))
        d = [w[k] - math.log(math.sin(theta[k])) for k in range(6)]
        worst["length_identity_spread"] = max(
            worst["length_identity_spread"],
            max(abs(x - sum(d) / 6) for x in d))
        worst["triangle_slack_min"] = min(
            worst["triangle_slack_min"], geometry.triangle_slack(tet).min())
        ratios = [math.sin(theta[k]) / math.exp(w[k]) for k in range(6)]
        worst["sine_ratio_rel_spread"] = max(
            worst["sine_ratio_rel_spread"],
            (max(ratios) - min(ratios)) / max(ratios))
    worst["entropy_lhs_max"] = entropy_reference(rng, samples)
    return worst


@pytest.mark.parametrize("seed", [3, 4])
def test_suite_does_not_depend_on_block_boundaries(seed):
    # one sample past a block: the last block holds one tetrahedron, and
    # the suite draws exactly what one tetrahedron at a time draws
    samples = geometry._BLOCK + 1
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    worst = geometry.suite(rng, samples, contextlib.nullcontext)
    ref = _one_at_a_time(ref_rng, samples)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert worst.keys() == ref.keys()
    for key in ref:
        assert abs(worst[key] - ref[key]) <= 1e-15 * max(1.0, abs(ref[key]))


@pytest.mark.parametrize("seed", [0, 1, 5, 42, 999])
def test_suite_entropy_matches_the_per_sample_draws(seed):
    # the entropy phase, one call over all samples, against one draw and one
    # check per sample from the generator's state where the phase begins
    rng = np.random.default_rng(seed)
    states = {}

    @contextlib.contextmanager
    def phase(name):
        states[name] = rng.bit_generator.state
        yield

    worst = geometry.suite(rng, 1000, phase)["entropy_lhs_max"]
    ref_rng = np.random.default_rng()
    ref_rng.bit_generator.state = states["entropy"]
    assert abs(worst - entropy_reference(ref_rng, 1000)) <= 1e-12
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_suite_memory_does_not_grow_with_samples():
    def peak(blocks):
        tracemalloc.start()
        try:
            geometry.suite(np.random.default_rng(0), blocks * geometry._BLOCK,
                           contextlib.nullcontext)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the first run also allocates what numpy keeps between calls
    two, eight = peak(2), peak(8)
    assert eight <= 1.1 * two, (two, eight)
