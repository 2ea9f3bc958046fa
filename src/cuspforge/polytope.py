"""The angle-structure polytope and its closure as a linear system.

Points live in R^I ordered by the incidence index: one coordinate per
(tetrahedron, edge) slot.  The closure is cut out by one equality per
per-vertex triple (sum pi), one equality per edge class (sum 2 pi), and the
box bounds 0 <= x_i <= pi.

scipy is imported inside the functions that need it, so commands that never
solve an LP or take a null space do not pay its import time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

ORDERING_CONVENTION = "tet-lex;edges=01,02,03,12,13,23"

DEFAULT_BOUNDARY_TOL = 1e-8


@dataclass(frozen=True)
class LinearSystem:
    """Equality rows (triples then edge classes) plus the implicit box."""

    a_eq: np.ndarray
    b_eq: np.ndarray
    n_triple_rows: int
    n_edge_rows: int
    rows_of_slot: np.ndarray  # (dim, 3): two triple rows, then edge row

    @property
    def dim(self):
        return self.a_eq.shape[1]


@dataclass(frozen=True)
class FlatSet:
    """Slots where a boundary point sits at 0 or pi."""

    indices: frozenset

    def __bool__(self):
        return bool(self.indices)

    def tetrahedra(self):
        return sorted({i // 6 for i in self.indices})

    def is_tetrahedron_closed(self):
        """Flat tetrahedra are flat at every edge: each touched tetrahedron
        must contribute all six of its slots."""
        tets = {i // 6 for i in self.indices}
        return all(6 * t + k in self.indices for t in tets for k in range(6))


@dataclass(frozen=True)
class Membership:
    kind: str  # "interior" | "boundary" | "infeasible"
    flat: FlatSet | None = None
    witness: int | None = None
    equality_violation: float = 0.0


@dataclass(frozen=True)
class InteriorPointResult:
    status: str  # "ok" | "empty-interior" | "empty-closure"
    point: np.ndarray | None
    min_slack: float
    fixed: FlatSet
    witness: int | None = None


def build_constraints(idx):
    """LinearSystem for an IncidenceIndex: triple rows (rhs pi) first, then
    edge rows (rhs 2 pi), coefficients all 0/1."""
    n, n_triples, n_edges = idx.size, len(idx.triples), len(idx.edges)
    # every slot lies in the triples of its edge's two ends and in one edge
    # class, so the stable sort of the triples' slots pairs up their rows
    triple_rows = np.argsort(np.ravel([sorted(t) for t in idx.triples]),
                             kind="stable") // 3
    rows_of_slot = np.column_stack([triple_rows.reshape(n, 2),
                                    n_triples + np.asarray(idx.edge_of)])
    a_eq = np.zeros((n_triples + n_edges, n))
    a_eq[rows_of_slot, np.arange(n)[:, None]] = 1.0
    b_eq = np.repeat([np.pi, 2.0 * np.pi], [n_triples, n_edges])
    return LinearSystem(a_eq, b_eq, n_triples, n_edges, rows_of_slot)


def equality_residual(sys, x):
    return float(np.max(np.abs(sys.a_eq @ x - sys.b_eq)))


def classify_membership(sys, x, tol=DEFAULT_BOUNDARY_TOL):
    """Interior / boundary(J) / infeasible classification at tolerance tol."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.dim,):
        raise ValueError("angle vector has length %d, expected %d"
                         % (x.size, sys.dim))
    violation = equality_residual(sys, x)
    if violation > tol:
        worst = int(np.argmax(np.abs(sys.a_eq @ x - sys.b_eq)))
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
                          flat=FlatSet(frozenset(np.flatnonzero(at_bound))),
                          equality_violation=violation)
    return Membership("interior", equality_violation=violation)


def null_space(sys):
    """Orthonormal basis of the homogeneous equality solutions (columns)."""
    import scipy.linalg

    return scipy.linalg.null_space(sys.a_eq)


def interior_point(sys, pinned=None):
    """A point in the relative interior of the minimal face, and the face's
    fixed slots.

    One linear program, the homogenised Freund-Roundy-Todd problem in the
    variables (x, t, theta):

        maximize sum t  subject to  A x = b theta,  t_i <= x_i,
        t_i <= pi theta - x_i,  0 <= t_i <= 1,  theta >= 1.

    At an optimum t_i = 1 on every slot that varies over the closure and
    t_i = 0 on every slot fixed at 0 or pi, so x / theta lies in the relative
    interior of the minimal face.  The closure is empty exactly when the
    program is infeasible.  ``pinned`` maps slots to 0 or pi and adds the rows
    x_i = v theta, i.e. the minimal face of the closure cut by those pins.
    The status is "ok" when no slot outside ``pinned`` is fixed and
    ``min_slack`` refers to those slots only.
    """
    import scipy.optimize
    import scipy.sparse

    pinned = pinned or {}
    n = sys.dim
    slots = np.array(sorted(pinned), dtype=int)
    eye = scipy.sparse.identity(n, format="csr")
    rows = scipy.sparse.vstack([scipy.sparse.csr_array(sys.a_eq), eye[slots]])
    rhs = np.concatenate([sys.b_eq, [pinned[i] for i in slots]])
    a_eq = scipy.sparse.hstack(
        [rows, scipy.sparse.csr_array(rows.shape), -rhs[:, None]],
        format="csr")
    a_ub = scipy.sparse.block_array(
        [[-eye, eye, None], [eye, eye, np.full((n, 1), -np.pi)]],
        format="csr")
    c = np.concatenate([np.zeros(n), -np.ones(n), [0.0]])
    bounds = [(None, None)] * n + [(0.0, 1.0)] * n + [(1.0, None)]
    res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * n),
                                 A_eq=a_eq, b_eq=np.zeros(a_eq.shape[0]),
                                 bounds=bounds, method="highs")
    if not res.success:
        return InteriorPointResult("empty-closure", None, -np.inf,
                                   FlatSet(frozenset()))
    x = res.x[:n] / res.x[-1]
    fixed = res.x[n:2 * n] < 0.5
    fixed[slots] = True
    x[fixed] = np.pi * (x[fixed] > 0.5 * np.pi)
    slacks = np.minimum(x, np.pi - x)
    slacks[slots] = np.inf
    witness = int(np.argmin(slacks))
    slack = float(slacks[witness]) if slots.size < n else 0.0
    return InteriorPointResult("ok" if slack > 0.0 else "empty-interior", x,
                               slack, FlatSet(frozenset(
                                   np.flatnonzero(fixed).tolist())), witness)


def segment(p, q, t):
    """The convex combination (1 - t) p + t q, t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("segment parameter %g outside [0, 1]" % t)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return (1.0 - t) * p + t * q


def difference_vector(p, q):
    """a = q - p; annihilates all homogeneous equality rows when p, q both
    satisfy the inhomogeneous system."""
    return np.asarray(q, dtype=float) - np.asarray(p, dtype=float)


def sample_closure_points(sys, rng, n_samples, start=None,
                          boundary_fraction=0.25):
    """Random points of the closure: random rays from ``start`` (by default
    the interior-point LP's point, in the relative interior of the minimal
    face) scaled to a uniform fraction of the distance to the box; a
    ``boundary_fraction`` share goes all the way to the boundary.

    Rays lie in the null space of the equalities and of the rows fixing the
    slots where ``start`` sits at 0 or pi, so from a boundary point they
    sweep the face it lies in instead of stopping at once.
    """
    import scipy.linalg

    if start is None:
        res = interior_point(sys)
        if res.point is None:
            raise ValueError("closure is empty")
        start = res.point
    free = np.minimum(start, np.pi - start) > DEFAULT_BOUNDARY_TOL
    free_basis = scipy.linalg.null_space(sys.a_eq[:, free])
    basis = np.zeros((sys.dim, free_basis.shape[1]))
    basis[free] = free_basis
    out = []
    for _ in range(n_samples):
        d = basis @ rng.standard_normal(basis.shape[1])
        norm = np.linalg.norm(d)
        if norm < 1e-15:
            out.append(start.copy())
            continue
        d /= norm
        # largest alpha with start + alpha d inside the box
        with np.errstate(divide="ignore", invalid="ignore"):
            hi = np.where(d > 1e-15, (np.pi - start) / d, np.inf)
            lo = np.where(d < -1e-15, -start / d, np.inf)
        alpha = float(min(np.min(hi), np.min(lo)))
        if rng.uniform() < boundary_fraction:
            t = alpha
        else:
            t = alpha * rng.uniform()
        out.append(start + t * d)
    return out


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
