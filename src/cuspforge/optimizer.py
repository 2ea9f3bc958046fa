"""Volume maximization over the closed angle-structure polytope.

Damped Newton in Casson-Rivin coordinates: opposite edges carry equal angles
on the closure, so a tetrahedron has angles A, B, C = pi - A - B and adds
Lambda(A) + Lambda(B) + Lambda(C) to the volume.  Its Hessian in (A, B),
-[[cot A + cot C, cot C], [cot C, cot B + cot C]], is negative definite with
determinant 1; tetrahedra couple only through the edge equations, solved by
their Schur complement.  Newton runs on the free angles of the minimal face,
which ``minimal_face`` finds from the centre of the box or by an LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import lobachevsky as lob
from . import polytope

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
FLAT_TOL = 1e-8
# A maximizer is a candidate complete structure when its certificate's
# residual and every flat tetrahedron's |margin| lie within this.
COMPLETE_TOL = 1e-6

# Share of the distance to the box taken by a step that would leave it; at
# 0.99 the angle such a step left near 0 cost three or four more steps.
_TO_BOUNDARY = 0.75
# Newton steps from the centre of the box allowed to reach the equalities
# before ``minimal_face`` runs the LP.
_CENTRE_STEPS = 5
# Accepted steps with no new least KKT residual after which a step gaining
# no volume beyond rounding ends the ascent as "stalled".
_STALL_STEPS = 3


@dataclass(frozen=True)
class OptimizationResult:
    point: np.ndarray | None
    volume: float
    status: str  # "converged" | "stalled" | "iteration-cap" | "empty-closure"
    flat_tets: tuple
    active_set: frozenset  # the slots at 0 or pi
    kkt_residual: float
    iterations: int
    face_fixed: frozenset  # the slots the unpinned minimal face fixes


@dataclass(frozen=True)
class MaximalityCertificate:
    multipliers: np.ndarray
    active_multipliers: tuple  # of (angle, fitted finite part)
    gradient_residual: float
    signs_ok: bool
    fit_iterations: int
    margins: tuple  # of (flat tetrahedron, margin, face_fixed)
    membership: str  # "interior" | "boundary"


@dataclass(frozen=True)
class DominanceReport:
    all_dominated: bool
    worst_gap: float
    worst_directional: float
    witness: np.ndarray | None = None


@dataclass(frozen=True)
class UniquenessReport:
    max_spread: float
    volumes: tuple
    results: tuple = field(repr=False, default=())


def classify_tetrahedra(p, tol=FLAT_TOL):
    """Per-tetrahedron classification: positive / flat / invalid.

    Flat means the (0, 0, pi) pattern on opposite edge pairs; positive means
    all six angles at least tol; anything else is invalid.  Invalid
    tetrahedra do occur at closure points, and at maximizers: when the
    closure forces one angle to 0, a tetrahedron keeps the angles
    (0, a, pi - a).
    """
    six = np.asarray(p, dtype=float).reshape(-1, 6)
    # opposite pairs in slot order: (0,5), (1,4), (2,3)
    pairs_ok = np.all(np.abs(six[:, :3] - six[:, :2:-1]) <= tol, axis=1)
    pair_vals = np.sort(polytope.to_angles(p).reshape(-1, 3), axis=1)
    positive = np.all((six >= tol) & (six <= np.pi - tol), axis=1)
    flat = (pairs_ok & np.all(np.abs(pair_vals - [0.0, 0.0, np.pi]) <= tol,
                              axis=1))
    return np.where(positive, "positive",
                    np.where(flat, "flat", "invalid")).tolist()


class _Face:
    """The free angles of a face of the closure as Newton variables.

    A "curved" tetrahedron has three free angles and the variables (A, B).
    A "linear" one has an angle fixed at 0 and one variable moving its free
    angles (p, q) as (p, pi - p); its volume is then constant, so the
    variable enters only the edge equations.  Flat tetrahedra have none.
    """

    def __init__(self, sys, fixed_slots):
        n = sys.rows.shape[0] // 3
        self.fixed = frozenset(fixed_slots)
        self.free = np.ones((n, 3), dtype=bool)
        self.free.flat[polytope.angle_of(list(self.fixed))] = False
        n_free = self.free.sum(axis=1)
        self.curved = np.flatnonzero(n_free == 3)
        self.linear = np.flatnonzero(n_free == 2)
        self.p, self.q = np.argsort(~self.free[self.linear], axis=1,
                                    kind="stable")[:, :2].T
        self.a_edge = sys.matrix()[n:]
        self.b_edge = sys.b[n:]
        # edges x tetrahedra x (A, B, C)
        m = self.a_edge.reshape(-1, n, 3)
        self.m_a = m[:, self.curved, 0] - m[:, self.curved, 2]
        self.m_b = m[:, self.curved, 1] - m[:, self.curved, 2]
        self.m_z = m[:, self.linear, self.p] - m[:, self.linear, self.q]

    def angles(self, x):
        """Angles (A, B, C) of a closure point's slot vector, fixed ones
        exact and each row summing to pi through its last free angle."""
        ang = polytope.to_angles(x).reshape(self.free.shape)
        ang = np.where(self.free, ang, np.pi * (ang > 0.5 * np.pi))
        rows = np.flatnonzero(self.free.any(axis=1))
        last = 2 - np.argmax(self.free[rows, ::-1], axis=1)
        ang[rows, last] = 0.0
        ang[rows, last] = np.pi - ang[rows].sum(axis=1)
        return ang

    def step(self, ang):
        """Newton direction, the edge-row normal of the multipliers, the
        Lagrangian's ascent rate along the direction, and the KKT residual.

        The Schur complement of the edge rows is singular: the rows are
        dependent (one relation per cusp) and the columns of linear
        tetrahedra carry no curvature, so the solve drops null eigenvalues.
        """
        a, b, c = ang[self.curved].T
        log_sin_c = np.log(np.sin(c))
        g_a = log_sin_c - np.log(np.sin(a))
        g_b = log_sin_c - np.log(np.sin(b))
        cot_a, cot_b, cot_c = 1.0 / np.tan(a), 1.0 / np.tan(b), 1.0 / np.tan(c)
        # inverse of the Hessian block, exact since its determinant is 1
        h_aa, h_ab, h_bb = -(cot_b + cot_c), cot_c, -(cot_a + cot_c)
        mh_a = self.m_a * h_aa + self.m_b * h_ab
        mh_b = self.m_a * h_ab + self.m_b * h_bb
        n_edges, n_lin = self.m_z.shape
        kkt = np.block([[mh_a @ self.m_a.T + mh_b @ self.m_b.T, self.m_z],
                        [self.m_z.T, np.zeros((n_lin, n_lin))]])
        rhs = np.concatenate([self.b_edge - self.a_edge @ ang.ravel()
                              + mh_a @ g_a + mh_b @ g_b, np.zeros(n_lin)])
        w, v = np.linalg.eigh(kkt)
        keep = np.abs(w) > (w.size * np.finfo(float).eps
                            * np.max(np.abs(w), initial=0.0))
        sol = v[:, keep] @ ((v[:, keep].T @ rhs) / w[keep])
        lam = sol[:n_edges]
        r_a = self.m_a.T @ lam - g_a
        r_b = self.m_b.T @ lam - g_b
        d_a = h_aa * r_a + h_ab * r_b
        d_b = h_ab * r_a + h_bb * r_b
        d = np.zeros_like(ang)
        d[self.curved] = np.column_stack([d_a, d_b, -d_a - d_b])
        d[self.linear, self.p] = sol[n_edges:]
        d[self.linear, self.q] = -sol[n_edges:]
        residual = float(np.max(np.abs(np.concatenate([r_a, r_b])),
                                initial=0.0))
        return d, self.a_edge.T @ lam, -float(r_a @ d_a + r_b @ d_b), residual


def _volume(ang):
    """The volume at angles (A, B, C): each angle sits on two slots."""
    return 2.0 * lob.volume(ang)


def _line_search(face, ang, vol, step):
    """Backtrack from the longest step inside the box to one that ascends the
    Lagrangian, which takes out of the volume the first-order effect of the
    error in the edge equations: rounding, which grows as a tetrahedron
    flattens, or off the equalities the distance to them.  Returns the step
    length, 0.0 when no step ascends, and the angles and volume after it."""
    d, normal, slope, _ = step
    drift = float(normal @ d.ravel())
    with np.errstate(divide="ignore", invalid="ignore"):
        limits = np.where(face.free & (d < 0.0), -ang / d, np.inf)
    alpha = min(1.0, _TO_BOUNDARY * float(np.min(limits)))
    for _ in range(60):
        trial = ang + alpha * d
        trial_vol = _volume(trial)
        if (trial_vol - alpha * drift
                >= vol + 1e-4 * alpha * slope - 1e-14 * max(1.0, abs(vol))):
            return alpha, trial, trial_vol
        alpha *= 0.5
    return 0.0, ang, vol


def minimal_face(sys):
    """The minimal face of the closure as ``(face, ang)``: a ``_Face``, whose
    ``fixed`` holds the slots it fixes at 0 or pi, and the angles of a point
    in its relative interior; None when the closure is empty.

    Newton from the centre of the box, every angle pi/3, scales the error in
    the edge equations by 1 - alpha at a step of length alpha.  When a full
    step lands strictly inside the box, the closure has interior: no slot is
    fixed, no LP runs and the labeling does not matter.  Else (a shrinking
    step, or ``_CENTRE_STEPS`` steps) the interior-point LP decides.
    """
    face = _Face(sys, ())
    ang = np.full(face.free.shape, np.pi / 3.0)
    vol, last = _volume(ang), 0.0
    for _ in range(_CENTRE_STEPS):
        alpha, ang, vol = _line_search(face, ang, vol, face.step(ang))
        if alpha == 1.0 and polytope.classify_membership(
                sys, polytope.to_slots(ang)).kind == "interior":
            return face, ang
        if alpha in (0.0, 1.0) or alpha < last:
            break
        last = alpha
    ip = polytope.interior_point(sys)
    if ip.point is None:
        return None
    face = _Face(sys, ip.fixed)
    return face, face.angles(ip.point)


def maximize_volume(sys, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                    start=None, flat_tol=FLAT_TOL):
    """Ascend the volume functional to its maximum over the closure.

    Newton runs on the free angles of the minimal face (``minimal_face``),
    from ``start`` (a point with those angles positive) or from the face's
    point.  It stops when the KKT residual is below ``tol``, or as "stalled"
    when no step ascends or neither residual nor volume improves beyond
    rounding.  A tetrahedron that the ascent drives within ``flat_tol`` of
    (0, 0, pi) is pinned flat, and the ascent restarts on the face the pins
    cut out.  At most one restart per tetrahedron: pinned tetrahedra stay
    fixed.  ``iterations`` counts the steps and restarts of the ascent, at
    most ``max_iter``; finding the minimal face is not one of them.
    """
    return _ascend(sys, minimal_face(sys), start, tol, max_iter, flat_tol)


def _ascend(sys, found, start, tol, max_iter, flat_tol):
    """``maximize_volume`` on ``found``, the closure's ``minimal_face``."""
    if found is None:
        return OptimizationResult(None, float("nan"), "empty-closure", (),
                                  frozenset(), float("nan"), 0, frozenset())
    face, ang = found
    if start is not None:
        ang = face.angles(start)
        if np.any(ang[face.free] <= 0.0):
            raise ValueError("start point is not in the relative interior "
                             "of the minimal face")
    pinned, best, stale, iters = {}, np.inf, 0, 0
    status, residual = "iteration-cap", float("nan")
    vol = _volume(ang)
    while iters < max_iter:
        iters += 1
        step = face.step(ang)
        d, _, _, residual = step
        # A tetrahedron within sqrt(flat_tol) of flat that the full step
        # takes within flat_tol is pinned flat: closer to flat, rounding in
        # the step outgrows the step.
        flat = ((np.sort(ang, axis=1)[:, 1] <= np.sqrt(flat_tol))
                & (np.sort(ang + d, axis=1)[:, 1] <= flat_tol))
        flat = np.flatnonzero(flat & face.free.any(axis=1))
        if flat.size and residual >= tol:
            for t in flat:
                big = np.pi * (np.arange(3) == np.argmax(ang[t]))
                pinned.update(zip(range(6 * t, 6 * t + 6),
                                  polytope.to_slots(big)))
            ip = polytope.interior_point(sys, pinned=pinned)
            if ip.status == "empty-closure":
                break
            face = _Face(sys, ip.fixed)
            ang = face.angles(ip.point)
            vol = _volume(ang)
            best, stale = np.inf, 0
            continue
        slack = 1e-14 * max(1.0, abs(vol))
        alpha, ang, new_vol = _line_search(face, ang, vol, step)
        gain, vol = new_vol - vol, new_vol
        # the step taken from a point within tol squares its residual
        if residual < tol:
            status = "converged"
            break
        stale = 0 if residual < best else stale + 1
        best = min(best, residual)
        if not alpha or (stale >= _STALL_STEPS and gain <= slack):
            status = "stalled"
            break

    x = polytope.to_slots(ang)
    active = polytope.classify_membership(sys, x, tol=flat_tol).flat
    classes = classify_tetrahedra(x, tol=flat_tol)
    flat_tets = tuple(t for t, c in enumerate(classes) if c == "flat")
    return OptimizationResult(x, lob.volume(x), status, flat_tets, active,
                              residual, iters, found[0].fixed)


def _min_norm_fit(rows, g, n_rows, eps=1e-14):
    """CGLS for the least-squares lam of A^T lam = g, column a of A adding 1
    at each entry of rows[a]: from lam = 0 the iterates stay in range(A), so
    the fit is the minimum-norm one.  Stops at |A r| <= eps |A g|; also
    returns the iteration count."""
    lam, r = np.zeros(n_rows), np.array(g, dtype=float)
    s = np.bincount(rows.ravel(), np.repeat(r, 3), n_rows)  # A r
    p, gamma = s, float(s @ s)
    stop, iters = eps * eps * gamma, 0
    while gamma > stop and iters < 4 * n_rows:
        iters += 1
        q = p[rows].sum(axis=1)  # A^T p
        alpha = gamma / float(q @ q)
        lam += alpha * p
        r -= alpha * q
        s = np.bincount(rows.ravel(), np.repeat(r, 3), n_rows)
        gamma, gamma_old = float(s @ s), gamma
        p = s + (gamma / gamma_old) * p
    return lam, iters


def certify(sys, p, tol=FLAT_TOL, fixed=None):
    """Least-squares KKT certificate at a feasible slot vector.

    Fits the gradient -log|2 sin theta| over the free angles into the span of
    the equality rows: minimum-norm multipliers, one per row, found
    matrix-free in ``fit_iterations`` CGLS steps, the fitted values F on the
    angles at 0 or pi, and the residual recomputed from them.

    The bounds are certified in closed form.  Toward a closure point the fit
    turns the one-sided derivative into a sum over the angles at 0 or pi.  A
    flat tetrahedron, (A, B, C) = (0, 0, pi) moving as (x, y, -x - y), adds
    the lhs of ``lobachevsky.entropy_inequality`` with c - a = F_A - F_C and
    c - b = F_B - F_C; it is <= 0 for all x, y >= 0 iff the margin
    -F_C - log(e^-F_A + e^-F_B) is >= 0, and for y = 0 iff F_A >= F_C.  Any
    other angle at 0 or pi adds an unbounded log(1/t).  signs_ok applies
    this to the angles that the minimal face leaves free, all but ``fixed``
    (default: ``minimal_face``'s); ``margins`` holds (tetrahedron, margin,
    face_fixed) for each flat tetrahedron.
    """
    membership = polytope.classify_membership(sys, p, tol=tol)
    if membership.kind == "infeasible":
        raise ValueError("cannot certify an infeasible point "
                         "(equality violation %g)" % membership.equality_violation)
    theta = polytope.to_angles(p)
    free = (theta > tol) & (theta < np.pi - tol)
    g = 2.0 * lob.volume_gradient(theta)  # each angle sits on two slots
    lam, iters = _min_norm_fit(sys.rows[free], g[free], sys.b.size)
    fitted = lam[sys.rows].sum(axis=1)
    residual = float(np.max(np.abs(fitted[free] - g[free]), initial=0.0))
    active = tuple((int(i), float(fitted[i])) for i in np.flatnonzero(~free))
    signs_ok, margins = True, []
    if not free.all():
        fixed = minimal_face(sys)[0].fixed if fixed is None else fixed
        move = np.ones_like(free)
        move[polytope.angle_of(sorted(fixed))] = 0
        flat = np.repeat(np.array(classify_tetrahedra(p, tol)) == "flat", 3)
        signs_ok = not np.any(~free & move & ~flat)
        for t in np.flatnonzero(flat[::3]):
            c = 3 * t + int(np.argmax(theta[3 * t:3 * t + 3]))
            a, b = (k for k in range(3 * t, 3 * t + 3) if k != c)
            margin = float(-fitted[c] - np.logaddexp(-fitted[a], -fitted[b]))
            if move[a] and move[b]:
                signs_ok &= margin >= -tol
            elif move[a] or move[b]:
                signs_ok &= fitted[a if move[a] else b] >= fitted[c] - tol
            margins.append((int(t), margin, not (move[a] or move[b])))
    return MaximalityCertificate(lam, active, residual, bool(signs_ok), iters,
                                 tuple(margins), membership.kind)


def uniqueness_probe(sys, n_starts, seed=0, tol=DEFAULT_TOL,
                     max_iter=DEFAULT_MAX_ITER):
    """Multi-start consistency check for the uniqueness of the maximizer.

    ``minimal_face`` runs once.  The first start is the face's own point,
    the others random points of its relative interior around it; ``results``
    keeps each start's OptimizationResult (one empty-closure result when the
    closure is empty).
    """
    rng = np.random.default_rng(seed)
    found = minimal_face(sys)
    starts = [None]
    if found is not None:
        starts += polytope.sample_closure_points(
            sys, rng, n_starts - 1, polytope.to_slots(found[1]),
            boundary_fraction=0.0)
    results = tuple(_ascend(sys, found, start, tol, max_iter, FLAT_TOL)
                    for start in starts)
    points = [r.point for r in results if r.point is not None]
    spread = max((float(np.linalg.norm(p - q, np.inf))
                  for p, q in combinations(points, 2)), default=0.0)
    return UniquenessReport(spread, tuple(r.volume for r in results if
                                          r.point is not None), results)


def dominance_check(sys, p, n_samples, seed=0, strict_distance=1e-4,
                    directional_tol=1e-10):
    """Sampled verification that p dominates the closure.

    Checks vol(p) >= vol(q) for sampled closure points q (strictly when q is
    farther than ``strict_distance``) and that every one-sided derivative
    limit from p toward q is <= directional_tol.  The samples are rays from
    the point of ``minimal_face``, which exists since p is in the closure.
    """
    p = np.asarray(p, dtype=float)
    membership = polytope.classify_membership(sys, p)
    if membership.kind == "infeasible":
        raise ValueError("reference point is infeasible")
    rng = np.random.default_rng(seed)
    vp = lob.volume(p)
    samples = polytope.sample_closure_points(
        sys, rng, n_samples, polytope.to_slots(minimal_face(sys)[1]))
    worst_gap, worst_dir, witness = np.inf, -np.inf, None
    for q in samples:
        gap = vp - lob.volume(q)
        far = float(np.linalg.norm(q - p, np.inf)) > strict_distance
        if far:
            worst_gap = min(worst_gap, gap)
        if (gap <= 0.0) if far else (gap < -1e-10):
            witness = q
        rep = lob.boundary_derivative_limit(p, q, membership.flat)
        worst_dir = max(worst_dir, rep.value)
        if rep.value > directional_tol and witness is None:
            witness = q
    return DominanceReport(witness is None, worst_gap, worst_dir, witness)
