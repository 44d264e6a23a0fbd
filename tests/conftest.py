"""Shared test set-up.

fixnet is imported before anything loads numpy, so the fits and benchmark
runs made inside the test process get the OpenBLAS setting a fixnet
command gets: idle BLAS workers sleep between calls (fixnet/__init__.py).
"""

import fixnet  # noqa: F401
