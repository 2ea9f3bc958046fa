"""The angle-structure polytope and its closure as a linear system.

The system is posed over Casson-Rivin angles: angle 3 t + k of tetrahedron t
sits on its opposite edge pair k (01|23, 02|13, 03|12).  The closure is cut
out by one equality per tetrahedron (sum pi), one per edge class (sum 2 pi)
and the box 0 <= theta <= pi.  Slot vectors, one coordinate per (tetrahedron,
edge) slot in incidence order, are the program's input and output;
``to_angles`` and ``to_slots`` convert.

scipy is imported inside ``interior_point``, the one function that needs
it, so commands that never solve an LP do not pay its import time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .triangulation import PAIR_OF

ORDERING_CONVENTION = "tet-lex;edges=01,02,03,12,13,23"

# A slot is at a bound when it is strictly closer than this to 0 or pi
# (``at_bound``); a point is on the equalities, and in the box, within it.
BOUNDARY_TOL = 1e-8

# The sampler treats a direction, or an entry of one, below this as zero,
# and sends this share of its rays all the way to the box.
_SAMPLE_ZERO = 1e-15
_BOUNDARY_FRACTION = 0.25


def to_slots(theta):
    """The slot vector of an angle vector: both slots carry their angle."""
    return np.asarray(theta, dtype=float).reshape(-1, 3)[:, PAIR_OF].ravel()


def to_angles(x):
    """The angle vector of a slot vector: the mean of each pair's slots."""
    six = np.asarray(x, dtype=float).reshape(-1, 6)
    return (0.5 * (six[:, :3] + six[:, :2:-1])).ravel()


def at_bound(x):
    """Where the slots of ``x`` sit at 0 or pi: strictly within
    ``BOUNDARY_TOL`` of either, or NaN.  The one at-bound rule; an angle is
    at a bound when a slot of it is."""
    x = np.asarray(x, dtype=float)
    return ~((x >= BOUNDARY_TOL) & (x <= np.pi - BOUNDARY_TOL))


def tetrahedron_classes(x, bounded):
    """Each tetrahedron of slot vector ``x`` as "positive", "flat" or
    "invalid", given ``bounded``, its ``at_bound`` mask.  The one flat
    rule: flat means opposite slots agreeing and the angles (0, 0, pi), all
    within ``BOUNDARY_TOL``; positive means no slot at a bound; anything
    else is invalid.  Invalid tetrahedra do occur at
    closure points, and at maximizers: when the closure forces one angle to
    0, a tetrahedron keeps the angles (0, a, pi - a).  When no slot is at a
    bound, as at every cover's maximizer, that one test is the answer."""
    positive = ~bounded.reshape(-1, 6).any(axis=1)
    if positive.all():
        return ["positive"] * positive.size
    six = np.asarray(x, dtype=float).reshape(-1, 6)
    split = six[:, :3] - six[:, :2:-1]
    angles = np.sort(to_angles(x).reshape(-1, 3), axis=1)
    flat = (np.all(np.abs(split).reshape(-1, 3) <= BOUNDARY_TOL, axis=1)
            & np.all(np.abs(angles - [0.0, 0.0, np.pi]) <= BOUNDARY_TOL,
                     axis=1))
    return np.where(positive, "positive",
                    np.where(flat, "flat", "invalid")).tolist()


def angle_of(slots):
    """The angle carried by each slot of ``slots``."""
    slots = np.asarray(slots, dtype=int)
    return 3 * (slots // 6) + PAIR_OF[slots % 6]


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """The equalities A theta = b over the 3n angles, plus the implicit box:
    row t < n sums tetrahedron t, row n + e the angles around edge class e.
    ``rows[a]`` holds angle a's tetrahedron row, then the edge rows of its two
    slots; when they are one row, the angle has coefficient 2 there.  A
    system hashes and compares by identity, the key under which
    ``optimizer.minimal_face`` keeps its face."""

    rows: np.ndarray  # (3n, 3) integers
    b: np.ndarray     # pi on the n tetrahedron rows, 2 pi on the edge rows

    @property
    def dim(self):
        """The length of a slot vector, 6n."""
        return 2 * self.rows.shape[0]

    def apply(self, theta):
        """A theta."""
        return np.bincount(self.rows.ravel(), np.repeat(theta, 3),
                           self.b.size)


@dataclass(frozen=True)
class Membership:
    """What ``classify_membership`` finds at a slot vector, whatever its
    kind: the slots at a bound and each tetrahedron's class come from one
    ``at_bound`` mask, so a caller needs no second classification."""

    kind: str  # "interior" | "boundary" | "infeasible"
    flat: frozenset  # the slots at a bound
    equality_violation: float
    tetrahedra: tuple  # per tetrahedron, as ``tetrahedron_classes`` says


def build_constraints(idx):
    """LinearSystem for an IncidenceIndex: angle 3 t + k lies in tetrahedron
    row t and in the edge rows of slots 6 t + k and 6 t + 5 - k.  Both
    arrays are read-only, so that what is computed from a system stays
    true of it."""
    n = idx.n_tets
    edge_of = idx.edge_of.reshape(n, 6)
    rows = np.column_stack([np.repeat(np.arange(n), 3),
                            n + edge_of[:, :3].ravel(),
                            n + edge_of[:, :2:-1].ravel()])
    b = np.repeat([np.pi, 2.0 * np.pi], [n, idx.n_edges])
    rows.flags.writeable = b.flags.writeable = False
    return LinearSystem(rows, b)


def _equality_errors(sys, x):
    """The rows' errors at the mean angles of slot vector x, then each
    angle's difference between its two slots."""
    six = np.asarray(x, dtype=float).reshape(-1, 6)
    return np.concatenate([sys.apply(to_angles(x)) - sys.b,
                           (six[:, :3] - six[:, :2:-1]).ravel()])


def classify_membership(sys, x):
    """Interior / boundary(J) / infeasible classification of a slot vector:
    on the equalities, opposite slots agreeing, and in the box, all within
    ``BOUNDARY_TOL``, with J the slots ``at_bound``; a vector with a NaN or
    infinite slot is infeasible.  The one classifier of a point: its
    ``tetrahedra`` come from the same ``at_bound`` mask."""
    tol = BOUNDARY_TOL
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.dim,):
        raise ValueError("angle vector has length %d, expected %d"
                         % (x.size, sys.dim))
    errors = _equality_errors(sys, x)
    violation = float(np.max(np.abs(errors)))
    bounded = at_bound(x)
    flat = frozenset(np.flatnonzero(bounded).tolist())
    tetrahedra = tuple(tetrahedron_classes(x, bounded))
    # negated tests, so that a NaN slot or violation reads as infeasible
    if not (violation <= tol and np.all((x >= -tol) & (x <= np.pi + tol))):
        return Membership("infeasible", flat, violation, tetrahedra)
    return Membership("boundary" if flat else "interior", flat, violation,
                      tetrahedra)


def interior_point(sys):
    """``(x, fixed)``: a slot vector x in the relative interior of the
    minimal face, and the slots the face fixes at 0 or pi; None when the
    closure is empty.  From the homogenised Freund-Roundy-Todd program

        maximize sum t  subject to  A theta = b tau,  t_a <= theta_a,
        t_a <= pi tau - theta_a,  0 <= t_a <= 1,  tau >= 1.

    At an optimum t_a = 1 on every angle that varies over the closure and
    t_a = 0 on every angle fixed at 0 or pi, so theta / tau lies in the
    relative interior of the minimal face.  The closure is empty exactly
    when the program is infeasible (HiGHS status 2); any other failure
    raises ValueError, so that it never reads as an empty closure.
    """
    import scipy.optimize
    import scipy.sparse

    n = sys.rows.shape[0]
    eye = scipy.sparse.identity(n, format="csr")
    # COO -> CSR sums the duplicate entries of coefficient-2 angles
    a = scipy.sparse.csr_array(
        (np.ones(3 * n), (sys.rows.ravel(), np.repeat(np.arange(n), 3))),
        shape=(sys.b.size, n))
    lhs = scipy.sparse.hstack(
        [a, scipy.sparse.csr_array(a.shape), -sys.b[:, None]], format="csr")
    a_ub = scipy.sparse.block_array(
        [[-eye, eye, None], [eye, eye, np.full((n, 1), -np.pi)]],
        format="csr")
    c = np.concatenate([np.zeros(n), -np.ones(n), [0.0]])
    bounds = [(None, None)] * n + [(0.0, 1.0)] * n + [(1.0, None)]
    res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * n),
                                 A_eq=lhs, b_eq=np.zeros(sys.b.size),
                                 bounds=bounds, method="highs")
    if res.status == 2:  # infeasible
        return None
    if res.status:
        raise ValueError("interior-point LP failed: " + res.message)
    theta = res.x[:n] / res.x[-1]
    fixed = res.x[n:2 * n] < 0.5
    theta[fixed] = np.pi * (theta[fixed] > 0.5 * np.pi)
    return (to_slots(theta),
            frozenset(np.flatnonzero(to_slots(fixed)).tolist()))


def segment(p, q, t):
    """The convex combination (1 - t) p + t q, t in [0, 1]; one row per t
    for an array of t."""
    t = np.asarray(t, dtype=float)[..., None]
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise ValueError("segment parameter %s outside [0, 1]" % t.ravel())
    return (1.0 - t) * np.asarray(p, dtype=float) + t * np.asarray(q, float)


def sample_closure_points(sys, rng, n_samples, start):
    """Random slot vectors of the closure: random rays from the closure point
    ``start`` scaled to a uniform fraction of the distance to the box; a
    ``_BOUNDARY_FRACTION`` share goes all the way to the boundary.  Rays keep
    the angles of ``start`` that are at a bound (``at_bound``), so from a
    boundary point they sweep the face it lies in instead of stopping at
    once.  Their directions are Gaussian on the null space of the free
    columns, from an SVD of their dense block of A, the package's one dense
    matrix: ``np.add.at`` sums a column's repeated rows, so an angle whose
    two slots lie in one edge class has coefficient 2 there.
    Returns one (n_samples, 6n) array, a sample per row.
    """
    theta = to_angles(start)[:, None]
    free = np.ones(theta.size, dtype=bool)
    free[angle_of(np.flatnonzero(at_bound(start)))] = False
    cols = np.flatnonzero(free)
    a = np.zeros((sys.b.size, cols.size))
    np.add.at(a, (sys.rows[cols], np.arange(cols.size)[:, None]), 1.0)
    _, sv, vh = np.linalg.svd(a)
    # the right singular vectors past the numerical rank span the null space
    rank_tol = np.finfo(float).eps * max(a.shape) * sv.max(initial=0.0)
    basis = vh[np.count_nonzero(sv > rank_tol):].T
    d = np.zeros((theta.size, n_samples))
    d[free] = basis @ rng.standard_normal((basis.shape[1], n_samples))
    norm = np.linalg.norm(d, axis=0)
    zero = norm < _SAMPLE_ZERO
    d /= np.where(zero, np.inf, norm)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(d > _SAMPLE_ZERO, (np.pi - theta) / d, np.inf)
        reach = np.where(d < -_SAMPLE_ZERO, -theta / d, reach)
    # the largest alpha with theta + alpha d inside the box, 0 when d = 0
    alpha = np.where(zero, 0.0, np.min(reach, axis=0, initial=np.inf))
    to_box = rng.uniform(size=n_samples) < _BOUNDARY_FRACTION
    t = np.where(to_box, alpha, alpha * rng.uniform(size=n_samples))
    return to_slots((theta + t * d).T).reshape(n_samples, sys.dim)


# ---------------------------------------------------------------------------
# Serialization

def angles_from_json(text, expected_size):
    """Angle vector of ``expected_size`` slots from an object
    ``{"ordering": ORDERING_CONVENTION, "angles": [...]}``, whose ordering
    may be left out, or from a bare JSON array; ValueError on anything else,
    another ``ordering`` or length included."""
    flat_finite = "angle vector must be a flat array of finite numbers"
    try:
        data = json.loads(text)
    except RecursionError:  # nested deeper than the decoder recurses
        raise ValueError(flat_finite) from None
    if isinstance(data, dict):
        if "angles" not in data:
            raise ValueError("angle file has no 'angles' key")
        ordering = data.get("ordering", ORDERING_CONVENTION)
        if ordering != ORDERING_CONVENTION:
            raise ValueError("angle file ordering %r is not %r"
                             % (ordering, ORDERING_CONVENTION))
        values = data["angles"]
    else:
        values = data  # bare array accepted
    try:
        x = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(flat_finite) from None
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError(flat_finite)
    if x.size != expected_size:
        raise ValueError("angle vector has length %d, expected %d"
                         % (x.size, expected_size))
    return x
