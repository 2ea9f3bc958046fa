"""Volume maximization over the closed angle-structure polytope.

The maximum comes from its convex dual (Rivin, *Ann. of Math.* 139, 1994):
Newton on one multiplier y_e per edge class.  With w_a the sum of y over
the edge rows of angle a's two slots,

    D(y) = 2 pi sum_e y_e + sum_t max_{A + B + C = pi, all >= 0}
           Lambda(A) + Lambda(B) + Lambda(C) - w . (A, B, C)

bounds the volume of every closure point from above, and its minimum is
the maximum volume.  The inner maximizer theta*(w) holds the angles of the
Euclidean triangle with sides e^-w, or (0, 0, pi), pi opposite the longest
side, when those sides fail the triangle inequality (the linear extension
of Bobenko, Pinkall and Springborn, *Geom. Topol.* 19, 2015): a flat
tetrahedron is a degenerate triangle, not a special case.  The gradient of
D is the edge error 2 pi - A theta*(y).  Its Hessian is -M H^-1 M^T, with H
the 2 x 2 volume Hessian in (A, B) of each tetrahedron that theta* does not
flatten, -[[cot A + cot C, cot C], [cot C, cot B + cot C]] (determinant 1),
and M the edge rows' columns of A - C and B - C; in angle coordinates H^-1
is a cotangent Laplacian on each tetrahedron's triangle.  Damped Newton
starts at y = 0, the centre of the box, and MINRES solves each step with no
matrix built: a product is a gather over the edge rows of
``LinearSystem.rows``, a scale and a ``bincount`` scatter, as in
``certify``'s fit.  Every iterate theta*(y) lies in the box with each
tetrahedron's sum exact, so only the edge equations are ever off, and D(y)
bounds the maximum at every iterate.

Where the closure fixes one angle of a tetrahedron at 0 but not the other
two, D has no minimum.  On the minimal face of the closure such a "linear"
tetrahedron, angles (0, p, pi - p), adds -pi min(w_p, w_q), and Newton keeps
w_p = w_q as a linear constraint whose multiplier is p.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
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

# Newton steps from the centre of the box allowed to find a point of the
# closure's interior before ``minimal_face`` runs the LP, and the share of
# the distance to the box that a step leaving it takes.
_CENTRE_STEPS = 8
_TO_BOUNDARY = 0.75
# The least MINRES stop of a Newton step below 793 edge classes (above,
# ``_descend`` stops at ``_ROUNDING`` sqrt(edges)), and the KKT residual
# below which a converged iterate takes no further step.
_FLOOR = 1e-13
# MINRES's stop relative to the norm of the right-hand side, for the solves
# that must reach rounding: ``minimal_face``'s barrier steps and ``certify``'s
# fit.
_RELATIVE_STOP = 1e-14
# How far below 0 ``certify`` lets a flat tetrahedron's margin, or a
# fitted multiplier below another, fall: a tolerance on multipliers, not on
# angles.
_SIGN_TOL = 1e-8
# A tetrahedron with one angle below _THIN and not the others makes the
# dual ask for the minimal face (``_descend``).
_THIN = 1e-3
# Signs of a column's four edge-row entries in ``_Face.step``: the two slots
# of one angle, then of the other.
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
# The angle pairs (A, B), (B, C), (C, A) of a tetrahedron's triangle, and
# the angle off each pair, C, A, B, which is also the pair before it.
_PAIRS = np.array([[0, 1], [1, 2], [2, 0]])
_OFF = np.array([2, 0, 1])
# The step lengths that ``_descend``'s line search tries, in turn.
_HALVINGS = 0.5 ** np.arange(60)
# ``_triangle``: a slack at most this share of s is rounding, and a row's
# three angle positions.  Times sqrt(edges), the rounding in the norm of
# ``_descend``'s edge error.
_ROUNDING = 16.0 * np.finfo(float).eps
_CORNERS = np.arange(3)
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
    kkt_residual: float  # the largest edge-equation error at point
    iterations: int
    inner_iterations: int  # MINRES steps of the Newton steps
    volume_upper: float  # D at the last multipliers: >= the maximum volume


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
    worst_gap: float | None  # None when no sample is informative
    worst_directional: float | None  # None when a limit is +inf
    informative_samples: int  # samples farther than _STRICT_DISTANCE


@dataclass(frozen=True)
class UniquenessReport:
    max_spread: float | None  # over the converged starts; None below two
    volumes: tuple
    statuses: tuple  # each volume's start's status
    results: tuple = field(repr=False, default=())


def classify_tetrahedra(p):
    """Per-tetrahedron classification of slot vector p, positive / flat /
    invalid, with no linear system at hand: ``polytope.tetrahedron_classes``
    of p's ``at_bound`` mask, the rule behind ``Membership.tetrahedra``."""
    return polytope.tetrahedron_classes(p, polytope.at_bound(p))


def _triangle(w):
    """theta*(w) for rows w: the angles of the Euclidean triangle with sides
    e^-w, each opposite its side, by the half-angle formula
    tan(A / 2) = sqrt((s - b)(s - c) / (s (s - a))), here
    sqrt(P / s) / (s - a) with P the product of the three slacks s - a;
    (0, 0, pi), pi opposite the longest side, when a side is at least the
    sum of the other two, within rounding (then exactly).  The angle
    opposite the longest side is pi minus the others: so each row sums to
    pi, and the small angles keep their relative accuracy.  A row's min,
    sums and product combine its three columns elementwise, left to right:
    the bits of a reduction over the row, without its per-row loop.
    """
    side = np.exp(np.minimum(np.minimum(w[:, :1], w[:, 1:2]), w[:, 2:]) - w)
    s = 0.5 * (side[:, :1] + side[:, 1:2] + side[:, 2:])
    u = s - side
    # a slack within rounding of s is 0: its angles, about sqrt(eps), would
    # be rounding noise that keeps the edge error above any tolerance
    u[u <= _ROUNDING * s] = 0.0
    prod = u[:, :1] * u[:, 1:2] * u[:, 2:]
    ang = 2.0 * np.arctan2(np.sqrt(prod / s), u)
    big = _CORNERS == u.argmin(axis=1)[:, None]
    rest = np.where(big, 0.0, ang)
    return np.where(big, np.pi - (rest[:, :1] + rest[:, 1:2] + rest[:, 2:]),
                    rest)


class _Face:
    """A face of the closure, given by the slots it fixes at 0 or pi, and
    the dual of the volume's maximum over it.

    A "curved" tetrahedron has three free angles, theta*(w) at multipliers
    y.  A "linear" one has an angle fixed at 0 and its free angles (p, q)
    moving as (p, pi - p).  The others are fixed flat, at the values of
    ``ang`` (a point of the face).

    No matrix is built.  ``cols`` holds the edge rows' reduced columns of
    p - q for the linear tetrahedra: the edge rows of the two slots of p
    (sign +1) and of q (sign -1); a row met twice adds twice.  ``pairs``
    holds the same for the pairs (A, B), (B, C), (C, A) of each curved
    tetrahedron, and ``all_cols`` the pairs and then ``cols``: the columns
    of ``step`` when no tetrahedron is flat.  A face that fixes no slot,
    the whole closure, has every tetrahedron curved and builds none of the
    fixed-slot arrays: ``base`` exists only when ``fixed`` is not empty.
    """

    def __init__(self, sys, fixed=frozenset(), ang=0.0):
        n = sys.rows.shape[0] // 3
        self.fixed = frozenset(fixed)
        self.free = np.ones((n, 3), dtype=bool)
        self.ends = (sys.rows[:, 1:] - n).reshape(n, 3, 2)  # edge rows
        # the edge rows of each angle's first and second slot, each (n, 3)
        self.end0, self.end1 = self.ends.transpose(2, 0, 1).copy()
        self.b_edge = sys.b[n:]
        if self.fixed:
            self.free.flat[polytope.angle_of(sorted(self.fixed))] = False
            self.curved = np.flatnonzero(self.free.all(axis=1))
            self.linear = np.flatnonzero(self.free.sum(axis=1) == 2)
            self.p, self.q = np.argsort(~self.free[self.linear], axis=1,
                                        kind="stable")[:, :2].T
            self.base = np.where(self.free, 0.0, ang)
            self.cols = np.hstack([self.ends[self.linear, self.p],
                                   self.ends[self.linear, self.q]])
        else:  # every tetrahedron curved
            self.curved, self.linear = np.arange(n), np.arange(0)
            self.p = self.q = self.linear
            self.cols = np.zeros((0, 4), dtype=int)
        self.pairs = self.ends[self.curved][:, _PAIRS].reshape(-1, 3, 4)
        self.all_cols = np.concatenate([self.pairs.reshape(-1, 4), self.cols])

    def dual(self, y, p):
        """The angles theta*(y) as rows (A, B, C), with the linear
        tetrahedra at (0, p, pi - p), the Lagrangian there: D(y) where
        w_p = w_q, or where the face has no linear tetrahedra, and the
        volume V of the angles."""
        w = y[self.end0] + y[self.end1]
        if self.fixed:
            ang = self.base.copy()
            ang[self.curved] = _triangle(w[self.curved])
            if self.linear.size:
                ang[self.linear, self.p], ang[self.linear, self.q] = (
                    p, np.pi - p)
        else:  # every tetrahedron curved
            ang = _triangle(w)
        # each angle sits on two slots, so V is twice lob.volume
        half = lob.volume(ang.ravel())
        return (ang, 2.0 * (np.pi * y.sum() + half) - np.vdot(w, ang),
                2.0 * half)

    def kkt(self, y, ang):
        """The KKT residual: the edge error, then w_q - w_p per linear
        tetrahedron."""
        if not self.linear.size:
            return self.error(ang)
        return np.concatenate([self.error(ang), -(y[self.cols] @ _SIGNS)])

    def error(self, ang):
        """The edge equations' error 2 pi - A ang."""
        return self.b_edge - np.bincount(self.ends.ravel(), np.repeat(ang, 2),
                                         self.b_edge.size)

    def step(self, ang, rhs, shift, stop, barrier=False):
        """Newton direction dy of the dual at angles ``ang`` = theta*(y), in
        an angle array the change of p on each linear tetrahedron, and the
        MINRES step count.

        With M_c the edge rows' columns of A - C and B - C of the curved
        tetrahedra that ang does not flatten, H their volume Hessians in
        (A, B) and M_z the linear columns, (dy, dp) solves
        [[M_c H^-1 M_c^T - shift, M_z], [M_z^T, 0]] (dy, dp) = rhs by
        ``_minres`` to the residual ``stop``, in the returned step count.
        ``rhs`` holds the edge error, then the drift w_q - w_p of each linear
        tetrahedron, which a full step takes out.  Flat tetrahedra add
        nothing: D is linear where theta* is flat.  The angles change by
        H^-1 M_c^T dy on the curved tetrahedra, so a full step moves the edge
        error to -shift dy, to first order.

        No matrix is built.  In angle coordinates H^-1 is minus the
        Laplacian of each tetrahedron's triangle with the weight
        kappa = k_C / det H on the pair (A, B), and so on around, where
        H = -[[k_A + k_C, k_C], [k_C, k_B + k_C]].  So M_c H^-1 M_c^T is a
        sum of rank-one terms, one per pair, each over the edge rows of the
        pair's two angles: a product is a gather, a scale and a
        ``bincount`` scatter.

        For the volume k = cot, and det H = k_A k_B + k_C (k_A + k_B) = 1.
        With ``barrier`` k = theta^-2, from sum log theta at any angles, and
        the same system with rhs + M_c H^-1 g on the right, g its gradient,
        gives the multipliers lam and the primal Newton step toward the
        analytic centre of the face, H^-1 (M_c^T lam - g), which the angle
        array then holds.
        """
        a = ang[self.curved] if self.fixed else ang
        keep = (a[:, 0] > 0.0) & (a[:, 1] > 0.0) & (a[:, 2] > 0.0)
        n_edges = self.b_edge.size
        if keep.all():
            c, cols = self.curved, self.all_cols
        else:  # flat tetrahedra add nothing
            c, a = self.curved[keep], a[keep]
            cols = np.concatenate([self.pairs[keep].reshape(-1, 4),
                                   self.cols])
        k = a ** -2.0 if barrier else 1.0 / np.tan(a)
        if barrier:  # divide by det H, which is 1 for the volume
            k /= k[:, :1] * k[:, 1:2] + k[:, 2:] * (k[:, :1] + k[:, 1:2])
        # minus the pair weights, pairs (A, B), (B, C), (C, A) in turn
        kappa = -k[:, _OFF].ravel()
        m, rows = kappa.size, cols.ravel()
        # the entries' signs in the order of ``rows``: scaling a repeated v
        # by them gives the bits of v[:, None] * _SIGNS, about three times
        # as fast as that broadcast over an axis of four
        signs = np.tile(_SIGNS, cols.shape[0])

        def scatter(v):  # M v, columns as in ``cols``
            return np.bincount(rows, np.repeat(v, 4) * signs, n_edges)

        def apply(x):
            u = x[:n_edges][cols] @ _SIGNS  # M^T x
            if not self.linear.size:  # no border: spare the concatenations
                return scatter(kappa * u) - shift * x
            v = np.concatenate([kappa * u[:m], x[n_edges:]])
            return np.concatenate([scatter(v) - shift * x[:n_edges], u[m:]])

        if barrier:  # on a face with no linear tetrahedra
            g = (1.0 / a - 1.0 / a[:, [1, 2, 0]]).ravel()  # of 1/theta
            rhs = rhs + scatter(kappa * g)
        sol, inner = _minres(apply, rhs, stop)
        d = np.zeros(ang.shape)
        d[self.linear, self.p] = sol[n_edges:]
        if barrier:
            t = (kappa * (sol[cols[:m]] @ _SIGNS - g)).reshape(-1, 3)
            d[c] = t - t[:, _OFF]
        return sol[:n_edges], d, inner


def _minres(apply, rhs, stop):
    """MINRES (Paige and Saunders, 1975) for the symmetric system
    apply(x) = rhs, from x = 0, until the residual norm is at most ``stop``
    or for twice the system's size of steps; also returns the step count.
    Lanczos builds an orthonormal basis v of the Krylov space, Givens rotations
    keep the QR factors of its tridiagonal matrix, x moves along w."""
    x = np.zeros(rhs.shape)
    beta = math.sqrt(rhs @ rhs)
    phi, iters = beta, 0
    if beta <= stop:
        return x, iters
    # 0.0 stands for the zero vectors v_old, w and w_old of the first step
    v, v_old = rhs / beta, 0.0
    w = w_old = 0.0
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


# What ``_descend`` returns: the status, the multipliers, the angles of the
# point and their volume, its KKT residual, and the iteration and MINRES
# step counts.
_Run = namedtuple("_Run", "status y ang volume residual iterations inner")


def _descend(face, y, tol, max_iter, thin=False):
    """Damped Newton on ``face``'s dual from y.  The point holds theta*(y),
    and on each linear tetrahedron the p of the last step, the multiplier
    of w_p = w_q.  Each iteration takes the KKT residual there, the edge
    error and, per linear tetrahedron, w_q - w_p, and stops at ``max_iter``
    iterations or:
    - as "converged" when its largest entry is below ``tol``, and so is the
      gap D(y) - V = y . error, relative to max(1, |D|); unless the entry is
      at the floor ``_FLOOR``, after one more step, which squares it, at
      that step's iterate if it converged too, else at the one before;
    - as "stalled" when D(y) < 0 on a face with no linear tetrahedra, which
      proves it empty (the volume is >= 0 there), or when no step decreases
      the Lagrangian, or the last
      step gained nothing beyond rounding and no new least residual;
    - with ``thin``, as "thin" at a tetrahedron with one angle below
      ``_THIN`` and not the others, before the cap: the iterates then tend
      to a linear tetrahedron, where D has no minimum.
    Else it steps, with r the largest residual: shifted by
    mu = min(0.5, r), since D is linear where every tetrahedron is flat (a
    cap of 1 took one more step on covers of a four-tetrahedron fig8
    triangulation), and with MINRES stopped at the forcing term
    min(0.1, r) r, at least ``_FLOOR`` and the rounding level of the edge
    error's 2-norm, ``_ROUNDING`` sqrt(edges): at 10^6 edge classes that is
    above ``_FLOOR``, and MINRES would run hundreds of steps resolving
    rounding noise; below 793 it is ``_FLOOR`` itself.  The
    step length halves until the Armijo rule holds, up to rounding, for the
    Lagrangian at the new p, along which the Newton direction descends even
    where w_p = w_q fails by the inexact steps.
    """
    p = np.full(face.linear.size, 0.5 * np.pi)
    floor = max(_FLOOR, _ROUNDING * math.sqrt(face.b_edge.size))
    ang, value, volume = face.dual(y, p)
    best, gained, iters, inner, polished = np.inf, True, 0, 0, None
    while True:
        iters += 1
        kkt = face.kkt(y, ang)
        error = kkt[:face.b_edge.size]
        residual = float(np.abs(kkt).max(initial=0.0))
        run = _Run("converged", y, ang, volume, residual, iters, inner)
        ok = residual < tol and abs(y @ error) <= tol * max(1.0, abs(value))
        # rounding in D, whose sum cancels terms as large as 2 pi |y|_1
        slack = 4e-15 * (abs(value) + 2.0 * np.pi * np.abs(y).sum() + 1.0)
        if polished or ok and residual <= _FLOOR:
            return run if ok else polished._replace(iterations=iters,
                                                    inner=inner)
        if ok:
            polished = run
        elif not (gained or residual < best) or value < -slack:
            return run._replace(status="stalled")
        elif thin and iters < max_iter and ang.min() < _THIN and (
                np.count_nonzero(ang < _THIN, axis=1) == 1).any():
            return run._replace(status="thin")
        if iters >= max_iter:
            return run if ok else run._replace(status="iteration-cap")
        best = min(best, residual)
        dy, d, steps = face.step(ang, kkt, min(0.5, residual),
                                 max(min(0.1, residual) * residual, floor))
        inner += steps
        slope = float(error @ dy)
        if face.linear.size:  # the Lagrangian at the new p
            dp = d[face.linear, face.p]
            slope -= float(dp @ (dy[face.cols] @ _SIGNS))
            p = p + dp
            value = face.dual(y, p)[1]
        for alpha in _HALVINGS:
            y_new = y + alpha * dy
            trial = face.dual(y_new, p)
            if trial[1] <= value + 1e-4 * alpha * slope + slack:
                break
        else:
            return run._replace(status="stalled")
        y, gained = y_new, value - trial[1] > slack
        ang, value, volume = trial


@functools.lru_cache(maxsize=1)
def minimal_face(sys):
    """The minimal face of the closure as ``(face, ang)``: a ``_Face``, whose
    ``fixed`` holds the slots it fixes at 0 or pi, and the angles of a point
    in its relative interior; None when the closure is empty.

    Newton toward the analytic centre of the closure, the maximizer of
    sum log theta, starts at the centre of the box, every angle pi/3.  A
    step of length alpha scales the error in the edge equations by
    1 - alpha; a step that would leave the box is cut to stay inside.  When
    a full step comes within ``_CENTRE_STEPS`` steps and lands on the
    equalities, the closure has interior, the face fixes nothing and no LP
    runs; from the centre, neither the start nor the step count depends on
    how the triangulation is labeled.  Else the interior-point LP decides.

    It keeps its last answer, so the solves, certificate and samples of one
    system share one lookup.  The key is the system object itself: a
    ``LinearSystem`` hashes by identity, and ``build_constraints`` makes
    its arrays read-only, so a kept face cannot go stale.
    """
    face = _Face(sys)
    ang = np.full(face.free.shape, np.pi / 3.0)
    stop = _RELATIVE_STOP * np.linalg.norm(face.b_edge)
    for _ in range(_CENTRE_STEPS):
        _, d, _ = face.step(ang, face.error(ang), 0.0, stop, barrier=True)
        alpha = min(1.0, _TO_BOUNDARY * np.min(-ang[d < 0.0] / d[d < 0.0],
                                               initial=np.inf))
        ang = ang + alpha * d
        if alpha == 1.0:
            break
    if polytope.classify_membership(
            sys, polytope.to_slots(ang)).kind == "interior":
        return face, ang
    found = polytope.interior_point(sys)
    if found is not None:
        ang = polytope.to_angles(found[0]).reshape(-1, 3)
        return _Face(sys, found[1], ang), ang


def maximize_volume(sys, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                    start=None):
    """The maximum of the volume over the closure, by Newton on the dual.

    Newton runs from ``start``, one multiplier per edge class (default 0,
    the centre of the box).  When it stalls or turns thin (``_descend``),
    ``minimal_face`` decides: an empty closure; a face that fixes slots,
    where Newton runs again from 0; or the whole closure, where a thin run
    goes on.  A linear tetrahedron whose converged p lies outside [0, pi]
    is fixed flat, and Newton runs on from its multipliers.
    ``iterations``, at most ``max_iter`` but for the first iteration of a
    run, counts the iterates whose residual was taken, over all runs;
    ``inner_iterations`` sums the MINRES steps.  It classifies nothing: which
    slots sit at a bound and which tetrahedra are flat are facts about the
    point, which ``polytope.classify_membership`` gives.
    ``volume_upper`` is D at the last multipliers on the face that Newton
    ran on first, a bound on the maximum whatever the status; it has kink
    terms only when that face has linear tetrahedra.
    """
    face = first = _Face(sys)
    y = np.zeros(face.b_edge.size) if start is None else np.array(start, float)
    if y.shape != face.b_edge.shape or not np.all(np.isfinite(y)):
        raise ValueError("start must hold a finite multiplier per edge")
    runs = [_descend(face, y, tol, max_iter, thin=True)]
    if runs[0].status in ("stalled", "thin") and runs[0].iterations < max_iter:
        found = minimal_face(sys)
        if found is None:
            return OptimizationResult(None, np.nan, "empty-closure", np.nan,
                                      runs[0].iterations, runs[0].inner,
                                      np.nan)
        if found[0].fixed or runs[0].status == "thin":
            face = first = found[0]
            y = np.zeros_like(y) if face.fixed else runs[0].y
            while True:
                runs.append(_descend(face, y, tol, max_iter - sum(
                    r.iterations for r in runs)))
                p = runs[-1].ang[face.linear, face.p]
                out = face.linear[np.abs(p - 0.5 * np.pi) > 0.5 * np.pi]
                if runs[-1].status != "converged" or not out.size:
                    break
                face = _Face(sys, face.fixed | {6 * t + k for t in out.tolist()
                                                for k in range(6)},
                             np.clip(runs[-1].ang, 0.0, np.pi))
                y = runs[-1].y
    run = runs[-1]
    x, volume = polytope.to_slots(run.ang), run.volume
    # D on the first face is V + y . error, and on each of its linear
    # tetrahedra pi max(drift, 0) - p drift with the drift w_q - w_p: the
    # two parts of the KKT residual
    kkt = first.kkt(run.y, run.ang)
    drift = kkt[first.b_edge.size:]
    upper = volume + run.y @ kkt[:first.b_edge.size] + np.sum(
        np.pi * np.maximum(drift, 0) - run.ang[first.linear, first.p] * drift)
    return OptimizationResult(
        x, volume, run.status, run.residual,
        sum(r.iterations for r in runs), sum(r.inner for r in runs),
        float(upper))


def certify(sys, p):
    """Least-squares KKT certificate at a feasible slot vector.

    Fits the gradient -log|2 sin theta| over the free angles into the span of
    the equality rows: minimum-norm multipliers, one per row, the fitted
    values F on the angles at a bound (those with a slot in the membership's
    ``flat``), and the residual recomputed from them.  With A_f the free
    columns and g_f the gradient on them, ``_minres`` solves
    A_f A_f^T lam = A_f g_f matrix-free in ``fit_iterations`` steps, until
    |A_f (g_f - A_f^T lam)| <= ``_RELATIVE_STOP`` |A_f g_f|; from lam = 0 it
    stays in range(A_f), so the fit is the minimum-norm one.

    The bounds are certified in closed form.  Toward a closure point the fit
    turns the one-sided derivative into a sum over the angles at 0 or pi.  A
    flat tetrahedron, (A, B, C) = (0, 0, pi) moving as (x, y, -x - y), adds
    the lhs of ``lobachevsky.entropy_inequality`` with c - a = F_A - F_C and
    c - b = F_B - F_C; it is <= 0 for all x, y >= 0 iff the margin
    -F_C - log(e^-F_A + e^-F_B) is >= 0, and for y = 0 iff F_A >= F_C.  Any
    other angle at 0 or pi adds an unbounded log(1/t).  signs_ok applies
    this to the angles left free by the face of ``minimal_face`` (its
    ``free`` mask), which a solve of the same system has already looked
    up; ``margins`` holds (tetrahedron, margin, face_fixed) for each flat
    tetrahedron, as the membership's ``tetrahedra`` says: the point is
    classified once.
    """
    membership = polytope.classify_membership(sys, p)
    if membership.kind == "infeasible":
        raise ValueError("cannot certify an infeasible point (equality "
                         "violation %g)" % membership.equality_violation)
    theta = polytope.to_angles(p)
    free = np.ones(theta.size, dtype=bool)
    free[polytope.angle_of(list(membership.flat))] = False
    g = 2.0 * lob.volume_gradient(theta)  # each angle sits on two slots
    # A_f v is A v with the angles at a bound set to 0; cols holds each
    # angle's three rows contiguously, so A^T y is their sum
    mask = free.astype(float)
    cols = sys.rows.T.copy()
    rhs = sys.apply(np.where(free, g, 0.0))
    lam, iters = _minres(lambda y: sys.apply(mask * y[cols].sum(axis=0)), rhs,
                         _RELATIVE_STOP * np.linalg.norm(rhs))
    fitted = lam[cols].sum(axis=0)
    residual = float(np.max(np.abs(fitted - g)[free], initial=0.0))
    active = tuple((int(i), float(fitted[i])) for i in np.flatnonzero(~free))
    signs_ok, margins = True, []
    if not free.all():
        move = minimal_face(sys)[0].free.ravel()
        flat = np.repeat(np.array(membership.tetrahedra) == "flat", 3)
        signs_ok = not np.any(~free & move & ~flat)
        for t in np.flatnonzero(flat[::3]):
            c = 3 * t + int(np.argmax(theta[3 * t:3 * t + 3]))
            a, b = (k for k in range(3 * t, 3 * t + 3) if k != c)
            margin = float(-fitted[c] - np.logaddexp(-fitted[a], -fitted[b]))
            if move[a] and move[b]:
                signs_ok = signs_ok and margin >= -_SIGN_TOL
            elif move[a] or move[b]:
                signs_ok = signs_ok and (fitted[a if move[a] else b]
                                         >= fitted[c] - _SIGN_TOL)
            margins.append((int(t), margin, not (move[a] or move[b])))
    return MaximalityCertificate(lam, active, residual, bool(signs_ok), iters,
                                 tuple(margins), membership.kind)


def uniqueness_probe(sys, n_starts, seed, tol, max_iter):
    """Multi-start consistency check for the uniqueness of the maximizer.

    The first start is y = 0, the others seeded standard normal edge
    multipliers, drawn one start at a time, so one start is
    ``maximize_volume``'s run whatever the seed.  Each start is one
    ``maximize_volume``, and all share ``minimal_face``'s one lookup;
    ``results`` keeps each start's OptimizationResult.  ``volumes`` and
    ``statuses`` hold each start that found a point, and ``max_spread`` is
    the largest distance between the points of the converged ones, None
    when fewer than two converged: a start stopped at the cap may be
    anywhere.
    """
    rng = np.random.default_rng(seed)
    edges = sys.b.size - sys.rows.shape[0] // 3
    results = tuple(maximize_volume(sys, tol, max_iter,
                                    rng.standard_normal(edges) if i else None)
                    for i in range(n_starts))
    found = [r for r in results if r.point is not None]
    points = [r.point for r in found if r.status == "converged"]
    spread = max((float(np.linalg.norm(p - q, np.inf))
                  for p, q in combinations(points, 2)), default=None)
    return UniquenessReport(spread, tuple(r.volume for r in found),
                            tuple(r.status for r in found), results)


def dominance_check(sys, p, n_samples, seed):
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
    if polytope.classify_membership(sys, p).kind == "infeasible":
        raise ValueError("reference point is infeasible")
    rng = np.random.default_rng(seed)
    vp = lob.volume(p)
    samples = polytope.sample_closure_points(
        sys, rng, n_samples, polytope.to_slots(minimal_face(sys)[1]))
    gaps = vp - lob.volume(samples)
    far = np.max(np.abs(samples - p), axis=1) > _STRICT_DISTANCE
    limits = lob.boundary_derivative_limit(p, samples)
    failed = (np.where(far, gaps <= 0.0, gaps < -_NEAR_GAP)
              | (limits > _DIRECTIONAL_TOL))
    worst = float(limits.max(initial=-np.inf))
    return DominanceReport(
        not failed.any(), float(gaps[far].min()) if far.any() else None,
        None if worst == np.inf else worst, int(far.sum()))
