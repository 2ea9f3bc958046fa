"""Decorated ideal hyperbolic tetrahedra in the upper half-space model.

A batch of k tetrahedra is two arrays: the dihedral angles (k, 3), positive
and summing to pi, on the opposite edge pairs 01|23, 02|13, 03|12 (the order
of ``polytope``'s angle rows, so slot k carries angle ``PAIR_OF[k]``), and
the decorations (k, 4).  Tetrahedron (alpha, beta, gamma) is realized with
ideal vertices at infinity, 0, 1 and the apex z of the Euclidean triangle on
{0, 1} with angle alpha at 0 and beta at 1.

Vertex indices: 0 = infinity, 1 = 0, 2 = 1, 3 = z.  The decoration is one
positive parameter per vertex: the Euclidean height of the horizontal
horosphere at infinity, and the Euclidean diameter of the horosphere at each
finite vertex.

``suite`` samples random tetrahedra and reports the worst case of each
identity behind the paper's flat case: the face cosine law and the arc
relation, the length identity (W(e) - log sin theta(e) constant on a
tetrahedron), the triangle inequality for e^W at each vertex, and the
entropy inequality at flat points.
"""

from __future__ import annotations

import math

import numpy as np

from . import lobachevsky
from .triangulation import PAIR_OF, VERTEX_PAIRS

_SUM_TOL = 1e-12

# ``random_tetrahedra`` redraws a tetrahedron with an angle below this.
MIN_DRAWN_ANGLE = 1e-3
# ``length_identity`` refuses a tetrahedron with an angle below this:
# log sin theta(e) diverges as theta(e) goes to 0.
MIN_IDENTITY_ANGLE = 1e-6

# ``suite`` draws and checks this many tetrahedra at a time, so that its
# memory does not grow with the sample count.
_BLOCK = 256

# The ends a < b of each slot's edge.
_A, _B = np.array(VERTEX_PAIRS).T
# The two faces that hold slot k's edge: the vertices of the opposite edge,
# slot 5 - k.
_FACES_ON = np.array(VERTEX_PAIRS[::-1])
# The three slots at each vertex, ascending.
_AT = np.array([[k for k, pair in enumerate(VERTEX_PAIRS) if v in pair]
                for v in range(4)])
# The twelve (face, vertex) pairs with vertex != face, and the face's other
# two vertices q < r.
_FACE, _VERT = np.nonzero(~np.eye(4, dtype=bool))
_Q, _R = np.array([[u for u in range(4) if u not in (f, v)]
                   for f, v in zip(_FACE, _VERT)]).T


class Tetrahedra:
    """A batch of k decorated tetrahedra and their closed forms.

    ``apex`` (k,) is z; ``lengths`` (k, 6) the signed horosphere-to-horosphere
    distances along the edges, in ``VERTEX_PAIRS`` slot order; ``average``
    (k, 6) is W(e) = (L(e) + L(e')) / 2 over e and its opposite edge e';
    ``arcs`` (k, 4, 4) the horocyclic arc on face f at vertex v, NaN where
    v == f.

    In the half-space model the edge between finite vertices p, q has length
    log(|p - q|^2 / (d_p d_q)), and the arc at p on the face with q, r is
    d_p |q - r| / (|p - q| |p - r|).  Infinity takes part in both closed
    forms with parameter 1 / h and chord 1 to every finite vertex: that gives
    log(h / d) on a vertical edge, |p - q| / h at infinity and d_p / |p - q|
    at a finite vertex of a vertical face.
    """

    def __init__(self, angles, decorations):
        angles = np.array(angles, dtype=float, ndmin=2)
        if angles.ndim != 2 or angles.shape[1] != 3:
            raise ValueError("need three dihedral angles per tetrahedron")
        if not (angles > 0.0).all():
            raise ValueError("dihedral angles must be positive, got %g"
                             % angles.min())
        off = abs(angles.sum(axis=1) - math.pi).max()
        if off > _SUM_TOL:
            raise ValueError("dihedral angles must sum to pi (off by %g)"
                             % off)
        k = len(angles)
        decorations = np.array(decorations, dtype=float, ndmin=2)
        if decorations.shape != (k, 4):
            raise ValueError("need exactly four decoration parameters")
        if not (decorations > 0.0).all():
            raise ValueError("decoration parameters must be positive, got %g"
                             % decorations.min())
        alpha, beta, gamma = angles.T
        apex = np.sin(beta) / np.sin(gamma) * np.exp(1j * alpha)
        points = np.stack([np.zeros(k), np.ones(k), apex], axis=1)
        chord = np.ones((k, 4, 4))
        chord[:, 1:, 1:] = abs(points[:, :, None] - points[:, None, :])
        size = np.concatenate([1.0 / decorations[:, :1], decorations[:, 1:]],
                              axis=1)
        self.angles, self.decorations, self.apex = angles, decorations, apex
        self.lengths = np.log(chord[:, _A, _B] ** 2
                              / (size[:, _A] * size[:, _B]))
        self.average = 0.5 * (self.lengths + self.lengths[:, ::-1])
        self.arcs = np.full((k, 4, 4), np.nan)
        self.arcs[:, _FACE, _VERT] = (size[:, _VERT] * chord[:, _Q, _R]
                                      / (chord[:, _VERT, _Q]
                                         * chord[:, _VERT, _R]))


def length_identity(tets):
    """The per-tetrahedron constant of W(e) - log sin(theta(e)) and the worst
    deviation of the six edges from it, as two (k,) arrays.

    The decorated-tetrahedron length identity says the spread is zero.  A
    batch with an angle below ``MIN_IDENTITY_ANGLE`` is a ValueError.
    """
    if tets.angles.min() < MIN_IDENTITY_ANGLE:
        raise ValueError("near-flat tetrahedron (angle below %g)"
                         % MIN_IDENTITY_ANGLE)
    d = tets.average - np.log(np.sin(tets.angles[:, PAIR_OF]))
    constant = d.mean(axis=1)
    return constant, abs(d - constant[:, None]).max(axis=1)


def triangle_slack(tets):
    """The triangle inequality for e^W at each vertex, as a (k, 4) array.

    For the three edges at a vertex, the slack is the worst of
    e^W(e_i) + e^W(e_j) - e^W(e_k) over the orderings, normalized by the
    largest term; the inequality holds when it is not negative.
    """
    terms = np.exp(tets.average[:, _AT])
    top = terms.max(axis=2)
    return (terms.sum(axis=2) - 2.0 * top) / top


def random_tetrahedra(rng, k):
    """k random non-flat decorated tetrahedra, drawn one at a time: Dirichlet
    angles redrawn while one is below ``MIN_DRAWN_ANGLE``, then four
    log-uniform decorations."""
    angles = np.empty((k, 3))
    logs = np.empty((k, 4))
    for i in range(k):
        while True:
            raw = rng.dirichlet((1.0, 1.0, 1.0)) * math.pi
            if raw.min() >= MIN_DRAWN_ANGLE:
                break
        angles[i] = raw
        logs[i] = [rng.uniform(-1.2, 1.2) for _ in range(4)]
    return Tetrahedra(angles, np.exp(logs))


def suite(rng, samples, phase):
    """The worst case of each sampled identity, keyed as the ``lemmas``
    report's ``worst``.

    Draws ``samples`` tetrahedra in blocks of ``_BLOCK``, under
    ``phase("geometry")``, then ``samples`` points of the entropy inequality,
    checked in one call, under ``phase("entropy")``.
    """
    worst = {
        "cosine_law_residual": 0.0,
        "edge_length_sum_residual": 0.0,
        "length_identity_spread": 0.0,
        "triangle_slack_min": math.inf,
        "sine_ratio_rel_spread": 0.0,
        "entropy_lhs_max": -math.inf,
    }
    with phase("geometry"):
        for start in range(0, samples, _BLOCK):
            tets = random_tetrahedra(rng, min(_BLOCK, samples - start))
            # On each face f that holds edge ab, the cosine law
            # L(ab) = -log arc(f, a) - log arc(f, b); the arc relation is
            # its mean over the two faces.
            log_arcs = np.log(tets.arcs)
            face = (tets.lengths[:, :, None]
                    + log_arcs[:, _FACES_ON, _A[:, None]]
                    + log_arcs[:, _FACES_ON, _B[:, None]])
            ratio = np.sin(tets.angles[:, PAIR_OF]) / np.exp(tets.average)
            top = ratio.max(axis=1)
            for key, value in (
                    ("cosine_law_residual", abs(face).max()),
                    ("edge_length_sum_residual", abs(face.mean(axis=2)).max()),
                    ("length_identity_spread", length_identity(tets)[1].max()),
                    ("sine_ratio_rel_spread",
                     ((top - ratio.min(axis=1)) / top).max())):
                worst[key] = max(worst[key], float(value))
            worst["triangle_slack_min"] = min(
                worst["triangle_slack_min"], float(triangle_slack(tets).min()))
    with phase("entropy"):
        # per sample x, y in [0, 10), a, b in [0, 3) and c up to 2 above
        # log(e^a + e^b), one row of draws each
        x, y, a, b, above = (rng.uniform(size=(samples, 5))
                             * [10.0, 10.0, 3.0, 3.0, 2.0]).T
        lhs = lobachevsky.entropy_inequality(
            x, y, a, b, np.log(np.exp(a) + np.exp(b)) + above)
        worst["entropy_lhs_max"] = float(lhs.max(initial=-math.inf))
    return worst
