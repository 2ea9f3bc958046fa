"""Decorated ideal hyperbolic tetrahedra in the upper half-space model.

A tetrahedron with dihedral angles (alpha, beta, gamma), positive and summing
to pi, is realized with ideal vertices at infinity, 0, 1 and the apex z of
the Euclidean triangle on {0, 1} with angle alpha at 0 and beta at 1.
Opposite edges carry equal dihedral angles; the pairs are

    {inf-0, 1-z} -> alpha,   {inf-1, 0-z} -> beta,   {inf-z, 0-1} -> gamma.

Vertex indices: 0 = infinity, 1 = 0, 2 = 1, 3 = z.  The decoration is one
positive parameter per vertex: the Euclidean height of the horizontal
horosphere at infinity, and the Euclidean diameter of the horosphere at each
finite vertex.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .triangulation import VERTEX_PAIRS, opposite_pair

# pair -> index into (alpha, beta, gamma)
PAIR_ANGLE = {
    (0, 1): 0, (2, 3): 0,
    (0, 2): 1, (1, 3): 1,
    (0, 3): 2, (1, 2): 2,
}

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class DecoratedTetrahedron:
    angles: tuple          # (alpha, beta, gamma)
    apex: complex          # the finite vertex z
    decorations: tuple     # (height at inf, diameters at 0, 1, z)

    def finite_points(self):
        """Boundary-plane coordinates of vertices 1, 2, 3."""
        return (0j, 1 + 0j, self.apex)

    def angle_of(self, pair):
        return self.angles[PAIR_ANGLE[tuple(sorted(pair))]]


@dataclass(frozen=True)
class EdgeLengths:
    lengths: dict  # pair -> signed length

    def of(self, pair):
        return self.lengths[tuple(sorted(pair))]


@dataclass(frozen=True)
class AverageLengths:
    w: dict  # pair -> average length, constant on opposite pairs

    def of(self, pair):
        return self.w[tuple(sorted(pair))]


@dataclass(frozen=True)
class HorocycleData:
    arcs: dict  # (face, vertex) -> horocyclic arc length

    def of(self, face, vertex):
        return self.arcs[(face, vertex)]


@dataclass(frozen=True)
class Lemma24Report:
    constant: float
    spread: float


@dataclass(frozen=True)
class Lemma25Report:
    lhs: float
    rhs: float
    satisfied: bool
    slack: float  # worst normalized slack over the three orderings


def tetrahedron_from_angles(alpha, beta, gamma, decorations=(1.0, 1.0, 1.0, 1.0)):
    """The geometric realization of an angled tetrahedron, default decoration."""
    for v in (alpha, beta, gamma):
        if not v > 0.0:
            raise ValueError("dihedral angles must be positive, got %g" % v)
    if abs(alpha + beta + gamma - math.pi) > _SUM_TOL:
        raise ValueError("dihedral angles must sum to pi (off by %g)"
                         % (alpha + beta + gamma - math.pi))
    r = math.sin(beta) / math.sin(gamma)
    apex = r * cmath.exp(1j * alpha)
    tet = DecoratedTetrahedron((float(alpha), float(beta), float(gamma)),
                               apex, (1.0, 1.0, 1.0, 1.0))
    if decorations != (1.0, 1.0, 1.0, 1.0):
        tet = set_decoration(tet, decorations)
    return tet


def set_decoration(tet, params):
    """Replace the four horosphere parameters; geometry unchanged."""
    params = tuple(float(v) for v in params)
    if len(params) != 4:
        raise ValueError("need exactly four decoration parameters")
    for v in params:
        if not v > 0.0:
            raise ValueError("decoration parameters must be positive, got %g" % v)
    return DecoratedTetrahedron(tet.angles, tet.apex, params)


def dihedral_angles(tet):
    """Re-extract (alpha, beta, gamma) from the apex triangle geometry."""
    z = tet.apex
    alpha = abs(cmath.phase(z))
    beta = abs(cmath.phase((z - 1) / (0 - 1)))
    gamma = abs(cmath.phase((0 - z) / (1 - z)))
    return (alpha, beta, gamma)


def edge_lengths(tet):
    """Signed horosphere-to-horosphere distances along the six edges.

    Vertical edge from infinity (plane height h) to a finite vertex of
    diameter d has length log(h / d); the edge between finite vertices p, q
    has length log(|p - q|^2 / (d_p d_q)).
    """
    h = tet.decorations[0]
    pts = tet.finite_points()
    diam = tet.decorations[1:]
    lengths = {}
    for pair in VERTEX_PAIRS:
        a, b = pair
        if a == 0:
            lengths[pair] = math.log(h / diam[b - 1])
        else:
            dist = abs(pts[a - 1] - pts[b - 1])
            lengths[pair] = math.log(dist * dist / (diam[a - 1] * diam[b - 1]))
    return EdgeLengths(lengths)


def horocycle_arcs(tet):
    """The twelve horocyclic arcs cut out on the four face triangles.

    Closed forms in the half-space model: on a face containing infinity with
    finite vertices p, q the arc at infinity is |p - q| / h and the arc at p
    is d_p / |p - q|; on the all-finite face the arc at p is
    d_p |q - r| / (|p - q| |p - r|).
    """
    h = tet.decorations[0]
    pts = tet.finite_points()
    diam = tet.decorations[1:]
    arcs = {}
    for face in range(4):
        verts = [v for v in range(4) if v != face]
        if face == 0:
            # all-finite face {1, 2, 3}
            for v in verts:
                q, r = [w for w in verts if w != v]
                pv, pq, pr = pts[v - 1], pts[q - 1], pts[r - 1]
                arcs[(face, v)] = (diam[v - 1] * abs(pq - pr)
                                   / (abs(pv - pq) * abs(pv - pr)))
        else:
            a, b = [v for v in verts if v != 0]
            chord = abs(pts[a - 1] - pts[b - 1])
            arcs[(face, 0)] = chord / h
            arcs[(face, a)] = diam[a - 1] / chord
            arcs[(face, b)] = diam[b - 1] / chord
    return HorocycleData(arcs)


def average_lengths(tet):
    """W(e) = (L(e) + L(e')) / 2, constant on opposite edge pairs."""
    lengths = edge_lengths(tet)
    w = {}
    for pair in VERTEX_PAIRS:
        opp = opposite_pair(pair)
        w[pair] = 0.5 * (lengths.of(pair) + lengths.of(opp))
    return AverageLengths(w)


def lemma24_report(tet, min_angle=1e-6):
    """Spread of W(e) - log sin(theta(e)) across the three opposite pairs.

    The decorated-tetrahedron length identity says this difference is a
    per-tetrahedron constant; ``spread`` is the worst deviation from its mean.
    """
    if min(tet.angles) < min_angle:
        raise ValueError("near-flat tetrahedron (angle below %g)" % min_angle)
    w = average_lengths(tet)
    ds = []
    for pair in ((0, 1), (0, 2), (0, 3)):
        theta = tet.angle_of(pair)
        ds.append(w.of(pair) - math.log(abs(math.sin(theta))))
    constant = sum(ds) / 3.0
    spread = max(abs(d - constant) for d in ds)
    return Lemma24Report(constant, spread)


def lemma25_check(tet, vertex, tol=1e-12):
    """Triangle inequality for exponentiated average lengths at a vertex.

    For the three edges e_1, e_2, e_3 at ``vertex``, checks
    e^W(e_i) + e^W(e_j) >= e^W(e_k) for all orderings; the reported lhs/rhs
    are for the tightest ordering, and slack is normalized by the largest
    term.
    """
    if not 0 <= vertex < 4:
        raise ValueError("vertex index out of range")
    w = average_lengths(tet)
    exps = [math.exp(w.of(tuple(sorted((vertex, u)))))
            for u in range(4) if u != vertex]
    top = max(exps)
    worst = None
    for k in range(3):
        lhs = sum(exps) - exps[k]
        rhs = exps[k]
        slack = (lhs - rhs) / top
        if worst is None or slack < worst[2]:
            worst = (lhs, rhs, slack)
    lhs, rhs, slack = worst
    return Lemma25Report(lhs, rhs, bool(slack >= -tol), slack)


def random_decorated_tetrahedron(rng, min_angle=1e-3):
    """Random non-flat decorated tetrahedron for sampling suites."""
    while True:
        raw = rng.dirichlet((1.0, 1.0, 1.0)) * math.pi
        if min(raw) >= min_angle:
            break
    decorations = tuple(math.exp(rng.uniform(-1.2, 1.2)) for _ in range(4))
    return tetrahedron_from_angles(raw[0], raw[1], raw[2], decorations)
