"""The Lobachevsky function, the volume functional, and its derivatives.

Lobachevsky values come from one numpy kernel: the angle is reduced to
[0, pi/2] by symmetry, and the log-subtracted series in (phi/pi)^2 is summed
as five blocks of six terms, one matrix product with the coefficient table
and Horner in the sixth power, so an evaluation costs about twenty array
operations whatever its size.  Volume is half the sum of Lobachevsky values
over all slots; derivatives along segments use the difference vector
a = q - p with the 0*log(0) convention, and the one-sided limit at a
boundary point splits into a smooth part and an entropy part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# |sin| below this is treated as an exact zero of sin (angle in {0, pi})
_SIN_ZERO = 1e-12

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
    """Lobachevsky function, elementwise on a float64 array."""
    phi = np.mod(theta, np.pi)
    flip = phi > _HALF_PI
    phi = np.where(flip, np.pi - phi, phi)
    out = np.zeros(phi.shape)
    pos = phi > 0.0
    if pos.any():
        out[pos] = _series(phi[pos])
    return np.where(flip, -out, out)


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
    """Volume of an angle vector: half the sum of Lobachevsky values."""
    return 0.5 * float(np.sum(_lobachevsky(np.asarray(x, dtype=float))))


def volume_gradient(x):
    """Componentwise -0.5 log|2 sin x_i|; +inf at 0 and pi."""
    return 0.5 * _neg_log_2sin(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class SegmentDerivativeReport:
    t: float
    value: float
    convention_terms: int


@dataclass(frozen=True)
class BoundaryLimitReport:
    value: float
    smooth_part: float
    entropy_part: float


@dataclass(frozen=True)
class EntropyReport:
    lhs: float
    satisfied: bool


def segment_derivative(p, q, t, reduced=True):
    """d/dt of vol((1-t) p + t q) at interior t.

    With ``reduced`` the log|sin| form is used (valid whenever the difference
    vector sums to zero, i.e. for closure pairs); otherwise the raw
    log|2 sin| form.  Slots with p_i = q_i in {0, pi} contribute zero by the
    0*log(0) convention and are counted in ``convention_terms``.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("segment derivative needs t in (0, 1), got %g" % t)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a = q - p
    angles = (1.0 - t) * p + t * q
    s = np.abs(np.sin(angles))
    if not reduced:
        s = 2.0 * s
    zero_a = a == 0.0
    with np.errstate(divide="ignore"):
        terms = np.where(zero_a, 0.0, a * np.log(np.maximum(s, 1e-300)))
    convention = int(np.count_nonzero(zero_a & (np.abs(np.sin(angles))
                                                < _SIN_ZERO)))
    return SegmentDerivativeReport(t, -0.5 * float(np.sum(terms)), convention)


def boundary_derivative_limit(p, q, flat):
    """One-sided derivative limit of vol along the segment from p toward q.

    ``flat`` is the set of slots where p sits at 0 or pi.  The limit value is
    -(smooth_part + entropy_part) / 2 with smooth_part the a log|sin p| sum
    over free slots and entropy_part the a log|a| sum over flat slots.  (The
    log t contributions of the flat slots cancel within each flat tetrahedron
    because the difference vector sums to zero over its triples.)
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    a = q - p
    in_flat = np.isin(np.arange(p.size), list(flat))
    s = np.abs(np.sin(p))
    bad = (~in_flat) & (s < _SIN_ZERO)
    if bad.any():
        raise ValueError(
            "inconsistent flat set: slot %d has angle at {0, pi} but is not "
            "marked flat" % int(np.argmax(bad)))
    smooth = float(np.sum(np.where(in_flat, 0.0, a * np.log(np.maximum(s, 1e-300)))))
    abs_a = np.abs(a)
    with np.errstate(divide="ignore"):
        ent_terms = np.where(in_flat & (abs_a > 0.0),
                             a * np.log(np.maximum(abs_a, 1e-300)), 0.0)
    entropy = float(np.sum(ent_terms))
    return BoundaryLimitReport(-0.5 * (smooth + entropy), smooth, entropy)


def entropy_inequality(x, y, a, b, c, tol=1e-12):
    """The convexity inequality behind the flat-tetrahedron estimate.

    For x, y >= 0 and decorations a, b, c with e^c >= e^a + e^b,

        (x+y) log(x+y) - x log x - y log y - (c-a) x - (c-b) y <= 0,

    with 0 log 0 = 0.  ``satisfied`` is the lhs <= tol check; it carries no
    guarantee when e^c < e^a + e^b.
    """
    for name, v in (("x", x), ("y", y), ("a", a), ("b", b), ("c", c)):
        if v < 0.0:
            raise ValueError("%s must be nonnegative, got %g" % (name, v))

    def xlogx(v):
        return v * np.log(v) if v > 0.0 else 0.0

    lhs = xlogx(x + y) - xlogx(x) - xlogx(y) - (c - a) * x - (c - b) * y
    return EntropyReport(float(lhs), bool(lhs <= tol))
