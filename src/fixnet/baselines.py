"""Classical regression baselines used by the simulation benchmark.

Each fit function returns a predictor callable that accepts a single point
of shape (d,) or a batch of shape (m, d).  select_by_split performs the
shared model-selection protocol: one seeded 80/20 split, fit on the
learning part, keep the grid value with the lowest empirical risk on the
held-out part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .data import as_batch, as_dataset
from .errors import ParameterError, SolverError
from .rng import Stream

# Diagonal jitter that keeps the interpolation system solvable when
# training points (nearly) coincide.
_RBF_JITTER = 1e-10

#: Bandwidth grid for the kernel baseline.
KERNEL_BANDWIDTH_GRID = tuple(2.0 ** k for k in range(-5, 6))

#: Radius multiplier exponents for the radial-basis baseline; the radius is
#: 2^k times the largest pairwise training distance.
RBF_EXPONENT_GRID = tuple(range(-5, 6))


def neighbor_count_grid(n_test, n_learn):
    """Neighbor counts {1, 2, 3} plus multiples of 4 up to 4*floor(n_test/4),
    capped at the learning-sample size."""
    ks = [1, 2, 3]
    ks.extend(range(4, 4 * (n_test // 4) + 1, 4))
    return tuple(k for k in ks if k <= n_learn)


def _sq_dists(queries, points):
    """Exact squared Euclidean distances, an (m, n) array for m queries and
    n points.

    The (rows, n, d) differences are formed for blocks of
    max(1, 2^17 // (n * d)) query rows, in one buffer of at most
    max(2^17, n * d) entries (1 MiB, the order of L2, when n * d <= 2^17)
    however large m is, and their sums go straight into the result.
    Each entry is the einsum of its own row of differences, so the
    blocks move no bit.  For 10,000 queries, 80 points and d = 6 on a
    2-vCPU Xeon, blocks of 2^17 entries take 25 ms in a median of 9,
    blocks of 2^21 (16.8 MB) 42 ms.  One buffer rather than one per
    block spares the page faults of heap memory that free() returns and
    the next block maps again."""
    m = queries.shape[0]
    out = np.empty((m, points.shape[0]))
    step = max(1, int(2**17 // max(points.size, 1)))
    buffer = np.empty((min(step, m), *points.shape))
    for i in range(0, m, step):
        block = queries[i : i + step, None, :]
        diff = np.subtract(block, points[None, :, :], out=buffer[: len(block)])
        np.einsum("ijk,ijk->ij", diff, diff, out=out[i : i + step])
    return out


class ConstantPredictor:
    """Predicts the training-response average everywhere."""

    def __init__(self, value, d):
        self.value = float(value)
        self.d = d

    def __call__(self, x):
        batch, single = as_batch(x, self.d)
        return self.value if single else np.full(batch.shape[0], self.value)


class KernelPredictor:
    """Local average over training points within one bandwidth."""

    def __init__(self, x, y, bandwidth):
        self.x = x
        self.y = y
        self.bandwidth = float(bandwidth)
        self.fallback = float(np.mean(y))

    def __call__(self, q):
        batch, single = as_batch(q, self.x.shape[1])
        inside = _sq_dists(batch, self.x) <= self.bandwidth**2
        counts = inside.sum(axis=1)
        sums = inside @ self.y
        out = np.where(counts > 0, sums / np.maximum(counts, 1), self.fallback)
        return float(out[0]) if single else out


class NeighborPredictor:
    """Average of the k nearest training responses."""

    def __init__(self, x, y, k):
        self.x = x
        self.y = y
        self.k = int(k)

    def __call__(self, q):
        batch, single = as_batch(q, self.x.shape[1])
        d2 = _sq_dists(batch, self.x)
        order = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        out = self.y[order].mean(axis=1)
        return float(out[0]) if single else out


def _wendland(r):
    """Compactly supported Wendland kernel (1-r)_+^6 (35 r^2 + 18 r + 3)."""
    base = np.clip(1.0 - r, 0.0, None)
    return base**6 * (35.0 * r**2 + 18.0 * r + 3.0)


class RbfPredictor:
    """Radial-basis interpolant with a compactly supported kernel."""

    def __init__(self, x, weights, radius):
        self.x = x
        self.weights = weights
        self.radius = float(radius)

    def __call__(self, q):
        batch, single = as_batch(q, self.x.shape[1])
        r = np.sqrt(_sq_dists(batch, self.x)) / self.radius
        out = _wendland(r) @ self.weights
        return float(out[0]) if single else out


def constant_avg(data):
    """The trivial estimator: the average response, everywhere."""
    data = as_dataset(data)
    return ConstantPredictor(np.mean(data.y), data.d)


def nadaraya_watson(data, bandwidth):
    """Uniform-kernel local average with the given bandwidth.

    Queries with no training point within the bandwidth fall back to the
    global response average, keeping the predictor total.
    """
    data = as_dataset(data)
    if not bandwidth > 0:
        raise ParameterError("bandwidth must be positive")
    return KernelPredictor(data.x, data.y, bandwidth)


def knn(data, k):
    """k-nearest-neighbor average; distance ties break by training index."""
    data = as_dataset(data)
    if not 1 <= k <= data.n:
        raise ParameterError(f"k must be in [1, {data.n}]")
    return NeighborPredictor(data.x, data.y, k)


def max_pairwise_distance(x):
    """Largest Euclidean distance between two rows of x."""
    x = np.asarray(x, dtype=float)
    return float(np.sqrt(np.max(_sq_dists(x, x))))


def _symmetric_solve(k, y):
    """scipy.linalg.solve(k, y, assume_a="sym"), bit for bit, without scipy.

    Like it, a 1 x 1 system is divided and a larger one goes through the
    symmetric-indefinite factorization of its upper triangle (dsytrf,
    dsytrs from fixnet._lapack).  An exactly zero pivot raises
    SolverError.
    """
    if k.shape[0] == 1 and k[0, 0] != 0:
        return y / k[0]
    lapack = _lapack.routines()
    ldu, piv, info = lapack.sytrf(k)
    if info > 0:
        raise SolverError("radial-basis system could not be solved",
                          condition_estimate=np.linalg.cond(k, 1))
    return lapack.sytrs(ldu, piv, y)[0]


def rbf_interpolant(data, radius):
    """Interpolant in the span of Wendland bumps at the training points.

    A 1e-10 diagonal jitter keeps the system solvable when points nearly
    coincide; the kernel matrix is not guaranteed definite in higher
    dimensions, so a pivoted symmetric solve (_symmetric_solve) is used,
    and a singular system or non-finite weights raise SolverError.
    """
    data = as_dataset(data)
    if not radius > 0:
        raise ParameterError("radius must be positive")
    r = np.sqrt(_sq_dists(data.x, data.x)) / radius
    k = _wendland(r) + _RBF_JITTER * np.eye(data.n)
    weights = _symmetric_solve(k, data.y)
    if not np.all(np.isfinite(weights)):
        raise SolverError("radial-basis solve produced non-finite weights",
                          condition_estimate=np.linalg.cond(k, 1))
    return RbfPredictor(data.x, weights, radius)


def _learn_count(n):
    """Rows of n that select_by_split learns on: 80 percent, at least one
    and at most n - 1."""
    return max(1, min(n - 1, int(0.8 * n)))


@dataclass(frozen=True)
class SplitSelection:
    """Outcome of grid selection on a single holdout split."""

    predictor: object
    parameter: object
    index: int
    test_risks: tuple
    learn_count: int
    test_count: int


def select_by_split(data, fit_fn, grid, seed):
    """Pick a grid value by empirical risk on one seeded 80/20 holdout.

    fit_fn(learn_data, value) must return a predictor.  The split permutes
    the rows with the seeded stream, trains on the first 80 percent and
    scores on the rest; ties keep the earliest grid value, and the winning
    predictor is returned as fitted on the learning part without refitting.
    """
    data = as_dataset(data)
    grid = tuple(grid)
    if not grid:
        raise ParameterError("selection grid is empty")
    if data.n < 2:
        raise ParameterError("need at least two observations to split")
    perm = Stream(seed).child_label("selection-split").permutation(data.n)
    n_learn = _learn_count(data.n)
    learn = data.subset(perm[:n_learn])
    test = data.subset(perm[n_learn:])

    best = None
    risks = []
    for idx, value in enumerate(grid):
        pred = fit_fn(learn, value)
        resid = test.y - pred(test.x)
        risk = float(resid @ resid / test.n)
        risks.append(risk)
        if best is None or risk < best[0]:
            best = (risk, idx, value, pred)
    _, idx, value, pred = best
    return SplitSelection(
        predictor=pred,
        parameter=value,
        index=idx,
        test_risks=tuple(risks),
        learn_count=learn.n,
        test_count=test.n,
    )


def fit_kernel_selected(data, seed):
    """Kernel baseline with bandwidth selected on a holdout split."""
    sel = select_by_split(data, nadaraya_watson, KERNEL_BANDWIDTH_GRID, seed)
    return sel.predictor, sel.parameter


def fit_neighbor_selected(data, seed):
    """Nearest-neighbor baseline with k selected on a holdout split."""
    data = as_dataset(data)
    n_learn = _learn_count(data.n)
    grid = neighbor_count_grid(data.n - n_learn, n_learn)
    sel = select_by_split(data, knn, grid, seed)
    return sel.predictor, sel.parameter


def fit_rbf_selected(data, seed):
    """Radial-basis baseline with the radius selected on a holdout split.

    Grid values are exponents k; each candidate radius is 2^k times the
    largest pairwise distance within the learning sample it is fit on.
    """

    def fit(learn, exponent):
        scale = max_pairwise_distance(learn.x)
        if scale == 0.0:
            scale = 1.0
        return rbf_interpolant(learn, 2.0**exponent * scale)

    sel = select_by_split(data, fit, RBF_EXPONENT_GRID, seed)
    return sel.predictor, sel.parameter
