"""Volume maximization over the closed angle-structure polytope.

Damped Newton in Casson-Rivin coordinates: opposite edges carry equal angles
on the closure, so a tetrahedron has angles A, B, C = pi - A - B and adds
Lambda(A) + Lambda(B) + Lambda(C) to the volume.  Its Hessian in (A, B),
-[[cot A + cot C, cot C], [cot C, cot B + cot C]], is negative definite with
determinant 1; tetrahedra couple only through the edge equations.  Their
Schur complement, bordered by the columns of tetrahedra whose volume is
constant on the face, is solved by MINRES with no matrix built: each product
is a gather over the edge rows of ``LinearSystem.rows``, the 2 x 2 blocks and
a ``bincount`` scatter, as in ``certify``'s fit.  Newton runs on the free
angles of the minimal face, which ``minimal_face`` finds from the centre of
the box or by an LP, also after the ascent pins tetrahedra flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import lobachevsky as lob
from . import polytope

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
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
# Signs of a reduced column's four edge-row entries in ``_Face.cols``.
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
# ``dominance_check``: a sample farther than _STRICT_DISTANCE from the point
# (max norm) must have less volume, a nearer one at most _NEAR_GAP more, and
# no one-sided derivative toward a sample may exceed _DIRECTIONAL_TOL.
_STRICT_DISTANCE = 1e-4
_NEAR_GAP = 1e-10
_DIRECTIONAL_TOL = 1e-10


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
    inner_iterations: int  # MINRES steps of the ascent's Newton steps
    # certify's certificate at point when the ascent ran it there, else None
    certificate: MaximalityCertificate | None


@dataclass(frozen=True)
class MaximalityCertificate:
    multipliers: np.ndarray
    active_multipliers: tuple  # of (angle, fitted finite part)
    gradient_residual: float
    signs_ok: bool
    fit_iterations: int
    margins: tuple  # of (flat tetrahedron, margin, face_fixed)
    membership: str  # "interior" | "boundary"
    rejected: tuple  # the flat tetrahedra whose sign check fails


@dataclass(frozen=True)
class DominanceReport:
    all_dominated: bool
    worst_gap: float | None  # None when no sample is informative
    worst_directional: float
    informative_samples: int  # samples farther than _STRICT_DISTANCE


@dataclass(frozen=True)
class UniquenessReport:
    max_spread: float
    volumes: tuple
    results: tuple = field(repr=False, default=())


def classify_tetrahedra(p):
    """Per-tetrahedron classification: positive / flat / invalid.

    Flat means the (0, 0, pi) pattern on opposite edge pairs; positive means
    all six angles at least tol = ``polytope.BOUNDARY_TOL`` from the bounds;
    anything else is invalid.  Invalid tetrahedra do occur at closure points,
    and at maximizers: when the closure forces one angle to 0, a tetrahedron
    keeps the angles (0, a, pi - a).
    """
    tol = polytope.BOUNDARY_TOL
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

    No matrix is built.  ``cols`` holds the reduced columns of the edge
    rows, A - C and B - C of each curved tetrahedron in turn, then p - q of
    each linear one, as the edge rows of the two slots of the first angle
    (sign +1) and of the second (sign -1); a row met twice adds twice.
    So a vector on the curved columns reshapes to an (n_c, 2) array, and
    each curved tetrahedron's 2 x 2 block acts on its own row.
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
        self.sys = sys
        self.edge_rows = sys.rows[:, 1:] - n  # each angle's two edge rows
        self.b_edge = sys.b[n:]
        ends = self.edge_rows.reshape(n, 3, 2)
        c, lin = self.curved, self.linear
        self.cols = np.concatenate([
            np.stack([np.hstack([ends[c, 0], ends[c, 2]]),
                      np.hstack([ends[c, 1], ends[c, 2]])],
                     axis=1).reshape(-1, 4),
            np.hstack([ends[lin, self.p], ends[lin, self.q]])])
        self.inner = 0  # the MINRES steps of the last ``step``

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

    def _scatter(self, w):
        """M w: each edge row's sum over the reduced columns, column i times
        w[i]."""
        return np.bincount(self.cols.ravel(), (w[:, None] * _SIGNS).ravel(),
                           self.b_edge.size)

    def step(self, ang):
        """Newton direction, the edge-row normal of the multipliers, the
        Lagrangian's ascent rate along the direction, and the KKT residual.

        With M_c the curved columns, H the inverse Hessian blocks and M_z
        the linear columns, the multipliers lam and the linear variables z
        solve the bordered system [[M_c H M_c^T, M_z], [M_z^T, 0]] (lam, z)
        = (b - A ang + M_c H g, 0) by ``_minres``, which applies it as a
        gather, the 2 x 2 blocks and a scatter.  The system is singular (one
        dependent edge row per cusp, and rows or columns the face empties),
        but consistent when the equalities have a solution, and MINRES from
        0 then stays in its range: the solution is the minimum-norm one.
        ``inner`` records the MINRES steps.
        """
        n_c, n_edges = self.curved.size, self.b_edge.size
        curved = ang[self.curved]
        log_sin = np.log(np.sin(curved))
        cot = 1.0 / np.tan(curved)
        g = log_sin[:, 2:] - log_sin[:, :2]  # (g_A, g_B)
        # inverse of the Hessian block, exact since its determinant is 1:
        # diag -(cot B + cot C), -(cot A + cot C), off-diagonal cot C
        diag = -(cot[:, 1::-1] + cot[:, 2:])
        off = cot[:, 2:]
        w = np.zeros(self.cols.shape[0])
        w_c = w[:2 * n_c].reshape(n_c, 2)
        w_c[:] = diag * g + off * g[:, ::-1]
        mhg = self._scatter(w)
        error = self.sys.b - self.sys.apply(ang.ravel())
        rhs = np.zeros(n_edges + self.linear.size)
        rhs[:n_edges] = error[self.free.shape[0]:] + mhg

        def apply(x):
            u = x[:n_edges][self.cols] @ _SIGNS  # M^T lam
            u_c = u[:2 * n_c].reshape(n_c, 2)
            w_c[:] = diag * u_c + off * u_c[:, ::-1]
            w[2 * n_c:] = x[n_edges:]
            out = np.empty_like(x)
            out[:n_edges] = self._scatter(w)
            out[n_edges:] = u[2 * n_c:]
            return out

        stop = 1e-14 * (np.linalg.norm(mhg) + np.linalg.norm(self.b_edge))
        sol, self.inner = _minres(apply, rhs, stop)
        lam = sol[:n_edges]
        r = (lam[self.cols[:2 * n_c]] @ _SIGNS).reshape(n_c, 2) - g
        d_c = diag * r + off * r[:, ::-1]
        d = np.zeros_like(ang)
        d[self.curved, :2] = d_c
        d[self.curved, 2] = -d_c.sum(axis=1)
        d[self.linear, self.p] = sol[n_edges:]
        d[self.linear, self.q] = -sol[n_edges:]
        residual = float(np.max(np.abs(r), initial=0.0))
        return (d, lam[self.edge_rows].sum(axis=1),
                -float(np.vdot(r, d_c)), residual)


def _minres(apply, rhs, stop):
    """MINRES (Paige and Saunders, 1975) for the symmetric system
    apply(x) = rhs, from x = 0, until the residual norm is at most ``stop``
    or for twice the system's size of steps; also returns the step count.
    Lanczos builds an orthonormal basis v of the Krylov space, Givens rotations
    keep the QR factors of its tridiagonal matrix, x moves along w."""
    x = np.zeros_like(rhs)
    beta = math.sqrt(rhs @ rhs)
    phi, iters = beta, 0
    if beta <= stop:
        return x, iters
    v, v_old = rhs / beta, np.zeros_like(rhs)
    w, w_old = np.zeros_like(rhs), np.zeros_like(rhs)
    beta_k, cs, sn, cs_old, sn_old = 0.0, 1.0, 0.0, 1.0, 0.0
    while abs(phi) > stop and iters < 2 * rhs.size:
        iters += 1
        p = apply(v) - beta_k * v_old
        alpha = float(v @ p)
        p -= alpha * v
        beta = math.sqrt(p @ p)
        # rotate the new column of the tridiagonal matrix (beta_k, alpha,
        # beta) by the two previous rotations, then zero its last entry
        eps, delta_bar = sn_old * beta_k, cs_old * beta_k
        delta = cs * delta_bar + sn * alpha
        gamma_bar = cs * alpha - sn * delta_bar
        gamma = math.hypot(gamma_bar, beta)
        if gamma == 0.0:
            break
        cs_old, sn_old = cs, sn
        cs, sn = gamma_bar / gamma, beta / gamma
        w, w_old = (v - eps * w_old - delta * w) / gamma, w
        x += cs * phi * w
        phi = -sn * phi
        if beta == 0.0:
            break
        v, v_old, beta_k = p / beta, v, beta
    return x, iters


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


def minimal_face(sys, pinned=None):
    """The minimal face of the closure as ``(face, ang)``: a ``_Face``, whose
    ``fixed`` holds the slots it fixes at 0 or pi, and the angles of a point
    in its relative interior; None when the closure is empty.  With
    ``pinned``, slots to 0 or pi as in ``polytope.interior_point``, the face
    of the closure cut by the pins.

    Newton from the centre of the box, every angle pi/3 but the pinned ones,
    scales the error in the edge equations by 1 - alpha at a step of length
    alpha.  When a full step lands where the slots at 0 or pi are exactly the
    pinned ones, no other slot is fixed, no LP runs and the labeling does
    not matter.  Else (a shrinking step, or ``_CENTRE_STEPS`` steps) the
    interior-point LP decides.
    """
    slots = sorted(pinned or {})
    face = _Face(sys, slots)
    ang = np.full(face.free.shape, np.pi / 3.0)
    ang.flat[polytope.angle_of(slots)] = [pinned[i] for i in slots]
    vol, last = _volume(ang), 0.0
    for _ in range(_CENTRE_STEPS):
        alpha, ang, vol = _line_search(face, ang, vol, face.step(ang))
        if alpha == 1.0:
            m = polytope.classify_membership(sys, polytope.to_slots(ang))
            if m.kind != "infeasible" and m.flat == face.fixed:
                return face, ang
        if alpha in (0.0, 1.0) or alpha < last:
            break
        last = alpha
    found = polytope.interior_point(sys, pinned)
    if found is None:
        return None
    x, fixed = found
    face = _Face(sys, fixed)
    return face, face.angles(x)


def maximize_volume(sys, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                    start=None):
    """Ascend the volume functional to its maximum over the closure.

    Newton runs on the free angles of the minimal face (``minimal_face``),
    from ``start`` (a point with those angles positive) or from the face's
    point.  It stops when the KKT residual is below ``tol``, or as "stalled"
    when no step ascends or neither residual nor volume improves beyond
    rounding.  A tetrahedron that the ascent drives within
    ``polytope.BOUNDARY_TOL`` of (0, 0, pi) is pinned flat, and the ascent
    restarts on the minimal face of the closure cut by the pins.  When the
    ascent converges with pins and ``certify`` rejects pinned tetrahedra
    (the active-set rule that drops a constraint whose multiplier has the
    wrong sign), they are released and the ascent restarts on the face cut
    by the other pins; each tetrahedron is released at most once.
    ``iterations`` counts the steps and restarts of the ascent, at most
    ``max_iter``; finding a minimal face, the unpinned one or a restart's,
    takes none of them.  ``inner_iterations`` sums the MINRES steps of
    those Newton steps.  ``certificate`` is the certificate of a converged
    point with pins, which the release rule computed there (as ``certify``
    with ``fixed=face_fixed``); None otherwise.
    """
    return _ascend(sys, minimal_face(sys), start, tol, max_iter)


def _ascend(sys, found, start, tol, max_iter):
    """``maximize_volume`` on ``found``, the closure's ``minimal_face``."""
    if found is None:
        return OptimizationResult(None, float("nan"), "empty-closure", (),
                                  frozenset(), float("nan"), 0, frozenset(), 0,
                                  None)
    face, ang = found
    if start is not None:
        ang = face.angles(start)
        if np.any(ang[face.free] <= 0.0):
            raise ValueError("start point is not in the relative interior "
                             "of the minimal face")
    pinned, released, best, stale, iters, inner = {}, set(), np.inf, 0, 0, 0
    status, residual, certificate = "iteration-cap", float("nan"), None
    vol = _volume(ang)
    while iters < max_iter:
        iters += 1
        step = face.step(ang)
        inner += face.inner
        d, _, _, residual = step
        # A tetrahedron within sqrt(BOUNDARY_TOL) of flat (two angles at most
        # that) that the full step takes within BOUNDARY_TOL is pinned flat:
        # closer to flat, rounding in the step outgrows the step.
        flat = ((np.count_nonzero(ang <= np.sqrt(polytope.BOUNDARY_TOL),
                                  axis=1) >= 2)
                & (np.count_nonzero(ang + d <= polytope.BOUNDARY_TOL,
                                    axis=1) >= 2))
        flat = np.flatnonzero(flat & face.free.any(axis=1))
        if flat.size and residual >= tol:
            for t in flat:
                big = np.pi * (np.arange(3) == np.argmax(ang[t]))
                pinned.update(zip(range(6 * t, 6 * t + 6),
                                  polytope.to_slots(big)))
        else:
            slack = 1e-14 * max(1.0, abs(vol))
            alpha, ang, new_vol = _line_search(face, ang, vol, step)
            gain, vol = new_vol - vol, new_vol
            if not residual < tol:  # a NaN residual is not converged
                stale = 0 if residual < best else stale + 1
                best = min(best, residual)
                if not alpha or (stale >= _STALL_STEPS and gain <= slack):
                    status = "stalled"
                    break
                continue
            # the step taken from a point within tol squares its residual;
            # a pin that certify rejects holds flat a tetrahedron that the
            # volume would unflatten
            drop, cert = set(), None
            if pinned:
                cert = certify(sys, polytope.to_slots(ang),
                               fixed=found[0].fixed)
                drop = {t for t in cert.rejected if 6 * t in pinned} - released
            if not drop:
                status, certificate = "converged", cert
                break
            released |= drop
            pinned = {s: v for s, v in pinned.items() if s // 6 not in drop}
        restart = minimal_face(sys, pinned)
        if restart is None:
            break
        face, ang = restart
        vol = _volume(ang)
        best, stale = np.inf, 0

    x = polytope.to_slots(ang)
    active = polytope.classify_membership(sys, x).flat
    classes = classify_tetrahedra(x)
    flat_tets = tuple(t for t, c in enumerate(classes) if c == "flat")
    return OptimizationResult(x, vol, status, flat_tets, active,
                              residual, iters, found[0].fixed, inner,
                              certificate)


def certify(sys, p, fixed=None):
    """Least-squares KKT certificate at a feasible slot vector.

    Fits the gradient -log|2 sin theta| over the free angles into the span of
    the equality rows: minimum-norm multipliers, one per row, the fitted
    values F on the angles at 0 or pi, and the residual recomputed from them.
    With A_f the free columns and g_f the gradient on them, ``_minres``
    solves A_f A_f^T lam = A_f g_f matrix-free in ``fit_iterations`` steps,
    until |A_f (g_f - A_f^T lam)| <= 1e-14 |A_f g_f|; from lam = 0 it stays
    in range(A_f), so the fit is the minimum-norm one.

    The bounds are certified in closed form.  Toward a closure point the fit
    turns the one-sided derivative into a sum over the angles at 0 or pi.  A
    flat tetrahedron, (A, B, C) = (0, 0, pi) moving as (x, y, -x - y), adds
    the lhs of ``lobachevsky.entropy_inequality`` with c - a = F_A - F_C and
    c - b = F_B - F_C; it is <= 0 for all x, y >= 0 iff the margin
    -F_C - log(e^-F_A + e^-F_B) is >= 0, and for y = 0 iff F_A >= F_C.  Any
    other angle at 0 or pi adds an unbounded log(1/t).  signs_ok applies
    this to the angles that the minimal face leaves free, all but ``fixed``
    (default: ``minimal_face``'s); ``margins`` holds (tetrahedron, margin,
    face_fixed) for each flat tetrahedron, and ``rejected`` the flat
    tetrahedra that fail their check.
    """
    tol = polytope.BOUNDARY_TOL
    membership = polytope.classify_membership(sys, p)
    if membership.kind == "infeasible":
        raise ValueError("cannot certify an infeasible point "
                         "(equality violation %g)" % membership.equality_violation)
    theta = polytope.to_angles(p)
    free = (theta > tol) & (theta < np.pi - tol)
    g = 2.0 * lob.volume_gradient(theta)  # each angle sits on two slots
    rows = sys.rows[free]

    def scatter(v):  # A_f v
        return np.bincount(rows.ravel(), np.repeat(v, 3), sys.b.size)

    rhs = scatter(g[free])
    lam, iters = _minres(lambda y: scatter(y[rows].sum(axis=1)), rhs,
                         1e-14 * np.linalg.norm(rhs))
    fitted = lam[sys.rows].sum(axis=1)
    residual = float(np.max(np.abs(fitted[free] - g[free]), initial=0.0))
    active = tuple((int(i), float(fitted[i])) for i in np.flatnonzero(~free))
    signs_ok, margins, rejected = True, [], []
    if not free.all():
        fixed = minimal_face(sys)[0].fixed if fixed is None else fixed
        move = np.ones_like(free)
        move[polytope.angle_of(sorted(fixed))] = 0
        flat = np.repeat(np.array(classify_tetrahedra(p)) == "flat", 3)
        signs_ok = not np.any(~free & move & ~flat)
        for t in np.flatnonzero(flat[::3]):
            c = 3 * t + int(np.argmax(theta[3 * t:3 * t + 3]))
            a, b = (k for k in range(3 * t, 3 * t + 3) if k != c)
            margin = float(-fitted[c] - np.logaddexp(-fitted[a], -fitted[b]))
            ok = True
            if move[a] and move[b]:
                ok = margin >= -tol
            elif move[a] or move[b]:
                ok = fitted[a if move[a] else b] >= fitted[c] - tol
            if not ok:
                rejected.append(int(t))
            margins.append((int(t), margin, not (move[a] or move[b])))
        signs_ok = signs_ok and not rejected
    return MaximalityCertificate(lam, active, residual, bool(signs_ok), iters,
                                 tuple(margins), membership.kind,
                                 tuple(rejected))


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
        starts += list(polytope.sample_closure_points(
            sys, rng, n_starts - 1, polytope.to_slots(found[1]),
            boundary_fraction=0.0))
    results = tuple(_ascend(sys, found, start, tol, max_iter)
                    for start in starts)
    points = [r.point for r in results if r.point is not None]
    spread = max((float(np.linalg.norm(p - q, np.inf))
                  for p, q in combinations(points, 2)), default=0.0)
    return UniquenessReport(spread, tuple(r.volume for r in results if
                                          r.point is not None), results)


def dominance_check(sys, p, n_samples, seed=0):
    """Sampled verification that p dominates the closure.

    Checks vol(p) >= vol(q) for sampled closure points q (strictly when q is
    farther than ``_STRICT_DISTANCE``) and that every one-sided derivative
    limit from p toward q is <= ``_DIRECTIONAL_TOL``, all samples in one
    array pass.  The samples are rays from the point of ``minimal_face``,
    which exists since p is in the closure.  ``worst_gap`` is the least
    vol(p) - vol(q) over the informative samples, the ones farther than
    ``_STRICT_DISTANCE``; None when there are none, as at a closure that is
    a single point, where the check is vacuous.
    """
    p = np.asarray(p, dtype=float)
    membership = polytope.classify_membership(sys, p)
    if membership.kind == "infeasible":
        raise ValueError("reference point is infeasible")
    rng = np.random.default_rng(seed)
    vp = lob.volume(p)
    samples = polytope.sample_closure_points(
        sys, rng, n_samples, polytope.to_slots(minimal_face(sys)[1]))
    gaps = vp - 0.5 * lob.lobachevsky(samples).sum(axis=1)
    far = np.max(np.abs(samples - p), axis=1) > _STRICT_DISTANCE
    limits = lob.boundary_derivative_limit(p, samples, membership.flat)
    failed = (np.where(far, gaps <= 0.0, gaps < -_NEAR_GAP)
              | (limits > _DIRECTIONAL_TOL))
    return DominanceReport(
        not failed.any(), float(gaps[far].min()) if far.any() else None,
        float(limits.max(initial=-np.inf)), int(far.sum()))
