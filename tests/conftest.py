"""Shared test set-up.

fixnet is imported before anything loads numpy, so the fits and benchmark
runs made inside the test process get the OpenBLAS setting a fixnet
command gets: idle BLAS workers sleep between calls (fixnet/__init__.py).
"""

import fixnet  # noqa: F401
import numpy as np


def bitwise_equal(a, b):
    """Whether a and b, as float arrays, have one shape and the same bits
    in every entry (NaN payloads and the sign of zero included)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
