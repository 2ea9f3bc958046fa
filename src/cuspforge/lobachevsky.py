"""The Lobachevsky function, the volume functional, and its derivatives.

Lobachevsky values come from one numpy kernel: the angle is reduced to
[0, pi/2] by symmetry, and the log-subtracted series in (phi/pi)^2 is summed
as five blocks of six terms, one matrix product with the coefficient table
and Horner in the sixth power.  The series runs on every entry, with pi/2
in place of the angles that reduce to 0 or NaN, whose value is then the
reduced angle (so a NaN or infinite angle has value NaN): no mask gathers
or scatters.  So an evaluation costs about twenty-five array
operations whatever its size.  Volume is half the sum of Lobachevsky values
over all slots; derivatives along segments use the difference vector
a = q - p with the 0*log(0) convention, and the one-sided limit at a
boundary point is a smooth sum plus an entropy sum, over the slots that
``polytope.at_bound``, the one at-bound rule, puts at 0 or pi.  The
volume, the derivative helpers and the entropy inequality take a batch and
return an array, or a float for one input.
"""

from __future__ import annotations

import numpy as np

from . import polytope

# The least argument of the derivatives' logs: log 0 reads as a finite
# log 1e-300, which adds exactly 0 where its coefficient is 0.
_LOG_FLOOR = 1e-300

_HALF_PI = 0.5 * np.pi

# SERIES_COEFFS[n-1] = zeta(2n) / (n*(2n+1)), n = 1..30.  These are the
# coefficients of the log-singularity-subtracted (Kummer accelerated) form of
# the Fourier series of the Lobachevsky function,
#
#     Lob(phi) = phi - phi*log(2*phi) + phi * sum_n c_n (phi/pi)^(2n),
#
# valid on [0, pi/2] after symmetry reduction.  Truncation error at
# phi = pi/2 with 30 terms is below 1e-21.
SERIES_COEFFS = (
    0.5483113556160754788,
    0.1082323233711138192,
    0.04844490771354519713,
    0.02789103767216512054,
    0.01819990136596032882,
    0.01282366777632446216,
    0.009524392839381511475,
    0.007353053546025063617,
    0.005847975539726695905,
    0.00476190930458111368,
    0.003952570112452579952,
    0.003333333532027296838,
    0.002849002891457421163,
    0.002463054196367817795,
    0.002150537636411456844,
    0.00189393939438036209,
    0.001680672269005391128,
    0.001501501501523351234,
    0.001349527665322048555,
    0.001219512195123060359,
    0.00110741971207112666,
    0.001010101010101067519,
    0.0009250693802035284097,
    0.0008503401360544247897,
    0.000784313725490196775,
    0.0007256894049346881147,
    0.0006734006734006734381,
    0.0006265664160401002593,
    0.0005844535359438924626,
    0.0005464480874316939895,
)


# SERIES_COEFFS as five blocks of six: row k holds c_{6k+1} .. c_{6k+6}.
_COEFF_BLOCKS = np.array(SERIES_COEFFS).reshape(5, 6)
_BLOCK_POWERS = np.arange(1, 7)[:, None]


def _series(phi):
    """Accelerated series for Lob on [0, pi/2]; phi must be positive.

    With r = (phi/pi)^2 the sum over n of c_n r^n is sum_k r^(6k) P_k(r),
    where P_k(r) = sum_j c_{6k+j} r^j: one product of the coefficient blocks
    with the powers r .. r^6, then Horner in r^6 over the five blocks."""
    r = (phi / np.pi) ** 2
    powers = r ** _BLOCK_POWERS
    blocks = _COEFF_BLOCKS @ powers
    acc = blocks[-1]
    for block in blocks[-2::-1]:
        acc = acc * powers[-1] + block
    return phi * (1.0 - np.log(2.0 * phi) + acc)


def _lobachevsky(theta):
    """Lobachevsky function, elementwise on a float64 array.  The series
    runs on every entry, pi/2 standing in for those that reduce to 0 or to
    NaN, whose value is then the reduced angle itself: 0, or NaN for a NaN
    or infinite angle."""
    phi = np.mod(theta, np.pi)
    flip = phi > _HALF_PI
    phi = np.where(flip, np.pi - phi, phi)
    pos = phi > 0.0
    out = _series(np.where(pos, phi, _HALF_PI).ravel()).reshape(phi.shape)
    return np.where(pos, np.where(flip, -out, out), phi)


def _neg_log_2sin(theta):
    """-log|2 sin(theta)| elementwise on a float64 array; +inf where sin
    vanishes.  This is the derivative of the Lobachevsky function."""
    phi = np.mod(theta, np.pi)
    # within rounding error of a zero of sin (the float pi itself included)
    at_zero = np.minimum(phi, np.pi - phi) < 1e-15
    s = np.abs(2.0 * np.sin(theta))
    with np.errstate(divide="ignore"):
        return np.where(at_zero, np.inf, -np.log(np.where(at_zero, 1.0, s)))


def lobachevsky(theta):
    """Lobachevsky function -integral_0^theta log|2 sin u| du.

    Odd and pi-periodic; accepts scalars or arrays.
    """
    arr = _lobachevsky(np.atleast_1d(np.asarray(theta, dtype=float)))
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return float(arr[0])
    return arr


def volume(x):
    """Volume of an angle vector, half the sum of its Lobachevsky values: a
    float for one vector, an array for the rows of a (k, m) batch."""
    value = 0.5 * _lobachevsky(np.asarray(x, dtype=float)).sum(axis=-1)
    return value if np.ndim(x) > 1 else float(value)


def volume_gradient(x):
    """Componentwise -0.5 log|2 sin x_i|; +inf at 0 and pi."""
    return 0.5 * _neg_log_2sin(np.asarray(x, dtype=float))


def segment_derivative(p, q, t):
    """d/dt of vol((1-t) p + t q) at interior t, a float or an array of t.

    With a = q - p this is -sum a log|sin| / 2 along the segment, the log 2
    terms dropping since a sums to zero over each closure triple.  A slot
    with a = 0 adds 0 * log max(|sin|, ``_LOG_FLOOR``) = 0, the 0 log 0
    convention where p_i = q_i sits at 0 or pi.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 < t) & (t < 1.0)):
        raise ValueError("segment derivative needs t in (0, 1), got %s" % t)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a = q - p
    s = np.abs(np.sin((1.0 - t[..., None]) * p + t[..., None] * q))
    value = -0.5 * (a * np.log(np.maximum(s, _LOG_FLOOR))).sum(axis=-1)
    return value if t.ndim else float(value)


def boundary_derivative_limit(p, q):
    """One-sided derivative limit of vol along the segment from p toward q,
    a float for one q or an array for the rows of a (k, 6n) array.

    With a = q - p and J the slots of p ``polytope.at_bound``, the limit is
    -(smooth + entropy) / 2 with smooth the a log|sin p| sum over the other
    slots and entropy the a log|a| sum over J.  The slots of J add
    -(sum of a over J) log t / 2 more, which cancels within each flat
    tetrahedron, since a sums to zero over its triples.  A lone angle at 0
    that q opens, as in a tetrahedron (0, x, pi - x), leaves that sum
    positive, and the limit is +inf where it exceeds ``BOUNDARY_TOL``.
    """
    p = np.asarray(p, dtype=float)
    a = np.asarray(q, dtype=float) - p
    bound = polytope.at_bound(p)
    s = np.where(bound, 1.0, np.abs(np.sin(p)))
    smooth = (a * np.log(np.maximum(s, _LOG_FLOOR))).sum(axis=-1)
    entropy = np.where(bound, a * np.log(np.maximum(np.abs(a), _LOG_FLOOR)),
                       0.0).sum(axis=-1)
    opens = np.where(bound, a, 0.0).sum(axis=-1) > polytope.BOUNDARY_TOL
    value = np.where(opens, np.inf, -0.5 * (smooth + entropy))
    return value if a.ndim > 1 else float(value)


def entropy_inequality(x, y, a, b, c):
    """The lhs of the convexity inequality behind the flat-tetrahedron
    estimate, elementwise: a float, or an array for array arguments.

    For x, y >= 0 and decorations a, b, c with e^c >= e^a + e^b,

        (x+y) log(x+y) - x log x - y log y - (c-a) x - (c-b) y <= 0,

    with 0 log 0 = 0.  Nothing is claimed when e^c < e^a + e^b.
    """
    args = np.array(np.broadcast_arrays(x, y, a, b, c), dtype=float)
    for name, v in zip("xyabc", args):
        if np.any(v < 0.0):
            raise ValueError("%s must be nonnegative, got %g"
                             % (name, v.min()))
    x, y, a, b, c = args

    def xlogx(v):
        return v * np.log(np.where(v > 0.0, v, 1.0))

    lhs = xlogx(x + y) - xlogx(x) - xlogx(y) - (c - a) * x - (c - b) * y
    return lhs if lhs.ndim else float(lhs)
