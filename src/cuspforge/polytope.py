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

ORDERING_CONVENTION = "tet-lex;edges=01,02,03,12,13,23"

BOUNDARY_TOL = 1e-8  # at 0 or pi, and on the equalities, within this

# Slot k of a tetrahedron, edge VERTEX_PAIRS[k], carries angle _PAIR_OF[k].
_PAIR_OF = np.array([0, 1, 2, 2, 1, 0])


def to_slots(theta):
    """The slot vector of an angle vector: both slots carry their angle."""
    return np.asarray(theta, dtype=float).reshape(-1, 3)[:, _PAIR_OF].ravel()


def to_angles(x):
    """The angle vector of a slot vector: the mean of each pair's slots."""
    six = np.asarray(x, dtype=float).reshape(-1, 6)
    return (0.5 * (six[:, :3] + six[:, :2:-1])).ravel()


def angle_of(slots):
    """The angle carried by each slot of ``slots``."""
    slots = np.asarray(slots, dtype=int)
    return 3 * (slots // 6) + _PAIR_OF[slots % 6]


@dataclass(frozen=True)
class LinearSystem:
    """The equalities A theta = b over the 3n angles, plus the implicit box:
    row t < n sums tetrahedron t, row n + e the angles around edge class e.
    ``rows[a]`` holds angle a's tetrahedron row, then the edge rows of its two
    slots; when they are one row, the angle has coefficient 2 there."""

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

    def matrix(self):
        """A as a dense (n + N, 3n) array; add.at sums repeated rows."""
        a = np.zeros((self.b.size, self.rows.shape[0]))
        np.add.at(a, (self.rows, np.arange(a.shape[1])[:, None]), 1.0)
        return a


@dataclass(frozen=True)
class Membership:
    kind: str  # "interior" | "boundary" | "infeasible"
    flat: frozenset = frozenset()  # the slots at 0 or pi
    # the slot outside the box, or the violated equality: a row of the
    # system, or past them n + N + a for angle a whose slots differ
    witness: int | None = None
    equality_violation: float = 0.0


@dataclass(frozen=True)
class InteriorPointResult:
    status: str  # "ok" | "empty-interior" | "empty-closure"
    point: np.ndarray | None
    min_slack: float
    fixed: frozenset  # the slots the minimal face fixes at 0 or pi


def build_constraints(idx):
    """LinearSystem for an IncidenceIndex: angle 3 t + k lies in tetrahedron
    row t and in the edge rows of slots 6 t + k and 6 t + 5 - k."""
    n = idx.n_tets
    edge_of = idx.edge_of.reshape(n, 6)
    rows = np.column_stack([np.repeat(np.arange(n), 3),
                            n + edge_of[:, :3].ravel(),
                            n + edge_of[:, :2:-1].ravel()])
    b = np.repeat([np.pi, 2.0 * np.pi], [n, idx.n_edges])
    return LinearSystem(rows, b)


def _equality_errors(sys, x):
    """The rows' errors at the mean angles of slot vector x, then each
    angle's difference between its two slots."""
    six = np.asarray(x, dtype=float).reshape(-1, 6)
    return np.concatenate([sys.apply(to_angles(x)) - sys.b,
                           (six[:, :3] - six[:, :2:-1]).ravel()])


def equality_residual(sys, x):
    return float(np.max(np.abs(_equality_errors(sys, x))))


def classify_membership(sys, x):
    """Interior / boundary(J) / infeasible classification of a slot vector
    at tolerance ``BOUNDARY_TOL``; opposite slots must agree within it."""
    tol = BOUNDARY_TOL
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.dim,):
        raise ValueError("angle vector has length %d, expected %d"
                         % (x.size, sys.dim))
    errors = np.abs(_equality_errors(sys, x))
    worst = int(np.argmax(errors))
    violation = float(errors[worst])
    if violation > tol:
        return Membership("infeasible", witness=worst,
                          equality_violation=violation)
    below = x < -tol
    above = x > np.pi + tol
    if below.any() or above.any():
        witness = int(np.argmax(below | above))
        return Membership("infeasible", witness=witness,
                          equality_violation=violation)
    at_bound = (x < tol) | (x > np.pi - tol)
    if at_bound.any():
        return Membership("boundary",
                          flat=frozenset(np.flatnonzero(at_bound).tolist()),
                          equality_violation=violation)
    return Membership("interior", equality_violation=violation)


def interior_point(sys, pinned=None):
    """A slot vector in the relative interior of the minimal face, and the
    face's fixed slots, from the homogenised Freund-Roundy-Todd program

        maximize sum t  subject to  A theta = b tau,  t_a <= theta_a,
        t_a <= pi tau - theta_a,  0 <= t_a <= 1,  tau >= 1.

    At an optimum t_a = 1 on every angle that varies over the closure and
    t_a = 0 on every angle fixed at 0 or pi, so theta / tau lies in the
    relative interior of the minimal face.  The closure is empty exactly
    when the program is infeasible.  ``pinned`` maps slots to 0 or pi and
    adds the rows theta_a = v tau for their angles, i.e. the minimal face of
    the closure cut by those pins.  The status is "ok" when no slot outside
    ``pinned`` is fixed and ``min_slack`` refers to those slots only.
    """
    import scipy.optimize
    import scipy.sparse

    pinned = pinned or {}
    n = sys.rows.shape[0]
    slots = np.array(sorted(pinned), dtype=int)
    eye = scipy.sparse.identity(n, format="csr")
    # COO -> CSR sums the duplicate entries of coefficient-2 angles
    a = scipy.sparse.csr_array(
        (np.ones(3 * n), (sys.rows.ravel(), np.repeat(np.arange(n), 3))),
        shape=(sys.b.size, n))
    rows = scipy.sparse.vstack([a, eye[angle_of(slots)]])
    rhs = np.concatenate([sys.b, [pinned[i] for i in slots]])
    lhs = scipy.sparse.hstack(
        [rows, scipy.sparse.csr_array(rows.shape), -rhs[:, None]],
        format="csr")
    a_ub = scipy.sparse.block_array(
        [[-eye, eye, None], [eye, eye, np.full((n, 1), -np.pi)]],
        format="csr")
    c = np.concatenate([np.zeros(n), -np.ones(n), [0.0]])
    bounds = [(None, None)] * n + [(0.0, 1.0)] * n + [(1.0, None)]
    res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * n),
                                 A_eq=lhs, b_eq=np.zeros(lhs.shape[0]),
                                 bounds=bounds, method="highs")
    if not res.success:
        return InteriorPointResult("empty-closure", None, -np.inf,
                                   frozenset())
    theta = res.x[:n] / res.x[-1]
    fixed = res.x[n:2 * n] < 0.5
    fixed[angle_of(slots)] = True
    theta[fixed] = np.pi * (theta[fixed] > 0.5 * np.pi)
    x = to_slots(theta)
    slacks = np.minimum(x, np.pi - x)
    slacks[slots] = np.inf
    slack = float(np.min(slacks)) if slots.size < x.size else 0.0
    fixed = frozenset(np.flatnonzero(to_slots(fixed)).tolist())
    return InteriorPointResult("ok" if slack > 0.0 else "empty-interior", x,
                               slack, fixed)


def segment(p, q, t):
    """The convex combination (1 - t) p + t q, t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("segment parameter %g outside [0, 1]" % t)
    return (1.0 - t) * np.asarray(p, dtype=float) + t * np.asarray(q, float)


def sample_closure_points(sys, rng, n_samples, start,
                          boundary_fraction=0.25):
    """Random slot vectors of the closure: random rays from the closure point
    ``start`` scaled to a uniform fraction of the distance to the box; a
    ``boundary_fraction`` share goes all the way to the boundary.  Rays keep
    the angles where ``start`` sits at 0 or pi, so from a boundary point they
    sweep the face it lies in instead of stopping at once.  Their directions
    are Gaussian on the null space of the free columns.
    """
    theta = to_angles(start)[:, None]
    free = np.minimum(theta, np.pi - theta)[:, 0] > BOUNDARY_TOL
    a = sys.matrix()[:, free]
    _, sv, vh = np.linalg.svd(a)
    # the right singular vectors past the numerical rank span the null space
    rank_tol = np.finfo(float).eps * max(a.shape) * sv.max(initial=0.0)
    basis = vh[np.count_nonzero(sv > rank_tol):].T
    d = np.zeros((theta.size, n_samples))
    d[free] = basis @ rng.standard_normal((basis.shape[1], n_samples))
    norm = np.linalg.norm(d, axis=0)
    d /= np.where(norm < 1e-15, np.inf, norm)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(d > 1e-15, (np.pi - theta) / d, np.inf)
        reach = np.where(d < -1e-15, -theta / d, reach)
    # the largest alpha with theta + alpha d inside the box, 0 when d = 0
    alpha = np.where(norm < 1e-15, 0.0, np.min(reach, axis=0, initial=np.inf))
    to_box = rng.uniform(size=n_samples) < boundary_fraction
    t = np.where(to_box, alpha, alpha * rng.uniform(size=n_samples))
    return [to_slots(x) for x in (theta + t * d).T]


# ---------------------------------------------------------------------------
# Serialization

def angles_to_json(x):
    """JSON array of coordinates in the deterministic incidence order."""
    return json.dumps({
        "ordering": ORDERING_CONVENTION,
        "angles": [float(v) for v in np.asarray(x, dtype=float)],
    }, indent=2) + "\n"


def angles_from_json(text, expected_size=None):
    """Angle vector from ``angles_to_json`` output or a bare JSON array;
    ValueError on anything else."""
    data = json.loads(text)
    if isinstance(data, dict):
        if "angles" not in data:
            raise ValueError("angle file has no 'angles' key")
        values = data["angles"]
    else:
        values = data  # bare array accepted
    flat_finite = "angle vector must be a flat array of finite numbers"
    try:
        x = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(flat_finite) from None
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError(flat_finite)
    if expected_size is not None and x.size != expected_size:
        raise ValueError("angle vector has length %d, expected %d"
                         % (x.size, expected_size))
    return x
