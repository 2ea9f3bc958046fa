"""The Lobachevsky kernel behind volume and volume_gradient."""

import numpy as np

import cuspforge
from cuspforge import lobachevsky as lob


def test_backend_reported():
    # one NumPy implementation; the benchmark records this constant
    assert cuspforge.KERNEL_BACKEND == "pure"


def test_neg_log_2sin_diverges_at_multiples_of_pi():
    g = lob.volume_gradient(np.array([-np.pi, 2.0 * np.pi, 3.0 * np.pi]))
    assert np.all(np.isposinf(g))


def test_volume_half_sum_matches_direct_sum():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, np.pi, size=60)
    assert lob.volume(x) == 0.5 * float(np.sum(lob.lobachevsky(x)))
