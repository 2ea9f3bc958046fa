"""How fast the host runs right now, from a fixed reference computation.

On a shared machine the speed of interpreter-bound and small-array code
drifts by +-20% within a minute.  The ratio of such an op's time to the
time of this reference, run right after the op, stays within a few
percent.  The benchmark therefore scales those times to a host on which one
reference unit takes its nominal time.  Multi-second dense LAPACK ops drift
apart from that reference, so they have a dense reference of their own.
The references use only the benchmark's own code, NumPy and SciPy, so no
change to cuspforge can move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

import covers
from oracle import Oracle

# Median reference-unit times on a 2-CPU x86-64 VM (Python 3.11, numpy 2.4,
# scipy 1.17, one BLAS thread); only the scale of the reported times depends
# on them.
NOMINAL_UNIT_S = 0.006
NOMINAL_DENSE_UNIT_S = 0.032


class HostSpeed:
    def __init__(self, dense=False):
        """``dense`` selects the dense reference: a null space and a least
        squares solve of a 256 x 384 matrix, the shape of cover-large's
        constraint systems at an eighth of the work."""
        rng = np.random.default_rng(0)
        if dense:
            self._m = rng.standard_normal((256, 384))
            self._b = rng.standard_normal(256)
            self._unit = self._dense_unit
            self._nominal = NOMINAL_DENSE_UNIT_S
        else:
            self._base = covers.parse(covers.GEO4_TEXT)
            self._m = rng.standard_normal((96, 72))
            self._b = rng.standard_normal(96)
            self._x = rng.uniform(0.0, 3.0, 256)
            self._oracle = Oracle()
            self._unit = self._mixed_unit
            self._nominal = NOMINAL_UNIT_S
        self.scale(0.05)  # warm-up

    def _mixed_unit(self):
        n, gluings = covers.cyclic_cover(*self._base, covers.GEO4_COCYCLE, 8)
        covers.edge_classes(n, gluings)
        for _ in range(24):
            self._oracle.volume(self._x)
        for _ in range(3):
            np.linalg.lstsq(self._m, self._b, rcond=None)

    def _dense_unit(self):
        scipy.linalg.null_space(self._m)
        np.linalg.lstsq(self._m, self._b, rcond=None)

    def scale(self, budget_s):
        """Run reference units for about ``budget_s`` (at least one) and
        return the factor that turns a time measured just before into
        nominal-host seconds."""
        times = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self._unit()
            t1 = time.perf_counter()
            times.append(t1 - t0)
            if t1 - start >= budget_s:
                return self._nominal / statistics.median(times)
