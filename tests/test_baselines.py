"""Tests for the comparison estimators and holdout-split selection."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fixnet import baselines
from fixnet.baselines import (
    KERNEL_BANDWIDTH_GRID,
    RBF_EXPONENT_GRID,
    constant_avg,
    fit_kernel_selected,
    fit_neighbor_selected,
    fit_rbf_selected,
    knn,
    max_pairwise_distance,
    nadaraya_watson,
    neighbor_count_grid,
    rbf_interpolant,
    select_by_split,
)
from fixnet.data import Dataset
from fixnet.errors import ParameterError, SolverError
from fixnet.rng import Stream

from conftest import bitwise_equal


def _line_data():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 2.0, 3.0])
    return Dataset(x, y)


def _toy_data(n=60, seed=0):
    stream = Stream(seed)
    x = stream.uniform_matrix(n, 2, low=-1.0, high=1.0)
    y = x[:, 0] + 0.5 * x[:, 1] ** 2 + 0.05 * stream.normals(n)
    return Dataset(x, y)


def test_selection_grids():
    assert KERNEL_BANDWIDTH_GRID == tuple(2.0**k for k in range(-5, 6))
    assert RBF_EXPONENT_GRID == tuple(range(-5, 6))
    assert neighbor_count_grid(10, 100) == (1, 2, 3, 4, 8)
    assert neighbor_count_grid(10, 2) == (1, 2)
    assert neighbor_count_grid(3, 50) == (1, 2, 3)


def test_constant_predictor():
    pred = constant_avg(_line_data())
    assert pred(np.array([9.0])) == 1.5
    out = pred(np.array([[0.0], [5.0]]))
    assert np.array_equal(out, np.array([1.5, 1.5]))
    with pytest.raises(ParameterError):  # a 0-d query, even for d = 1
        pred(9.0)


def test_kernel_predictor_local_average_and_fallback():
    pred = nadaraya_watson(_line_data(), 1.1)
    # Within bandwidth 1.1 of 0.0: training points 0 and 1.
    assert pred(np.array([0.0])) == pytest.approx(0.5)
    far = nadaraya_watson(_line_data(), 0.4)
    # No training point within 0.4 of 7: falls back to the global mean.
    assert far(np.array([7.0])) == pytest.approx(1.5)
    with pytest.raises(ParameterError):
        nadaraya_watson(_line_data(), 0.0)


def test_neighbor_predictor_and_tie_breaking():
    data = Dataset(np.array([[0.0], [2.0]]), np.array([5.0, 9.0]))
    # Query 1.0 is equidistant; the earlier training index wins.
    assert knn(data, 1)(np.array([1.0])) == 5.0
    assert knn(data, 2)(np.array([1.0])) == 7.0
    with pytest.raises(ParameterError):
        knn(data, 0)
    with pytest.raises(ParameterError):
        knn(data, 3)


def test_max_pairwise_distance():
    x = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert max_pairwise_distance(x) == pytest.approx(5.0)


def test_rbf_interpolates_training_points():
    data = _toy_data(25, seed=3)
    radius = max_pairwise_distance(data.x)
    pred = rbf_interpolant(data, radius)
    at_nodes = pred(data.x)
    assert np.max(np.abs(at_nodes - data.y)) <= 1e-6
    # Compact support: far outside the radius of every center the
    # interpolant vanishes.
    assert pred(np.array([50.0, 50.0])) == 0.0
    with pytest.raises(ParameterError):
        rbf_interpolant(data, 0.0)


def _scipy_sym_solve(k, y):
    with warnings.catch_warnings():  # ill-conditioned draws warn
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.solve(k, y, assume_a="sym")


@pytest.mark.parametrize(
    "m, n, d", [(3000, 80, 6), (40_000, 7, 1), (3, 30_000, 5)],
    ids=["blocks-of-273", "blocks-of-18724", "one-row-blocks"])
def test_sq_dists_blocks_are_bitwise_the_one_shot_einsum(m, n, d):
    gen = np.random.default_rng(m + n + d)
    queries = gen.uniform(-1.0, 1.0, (m, d))
    points = gen.uniform(-1.0, 1.0, (n, d))
    diff = queries[:, None, :] - points[None, :, :]
    assert bitwise_equal(baselines._sq_dists(queries, points),
                          np.einsum("ijk,ijk->ij", diff, diff))


def test_sq_dists_memory_stays_near_its_output():
    # 10,000 queries against 80 points in d = 6: the blocks' differences
    # hold 2^17 entries, a sixth of the (10,000, 80) output.
    gen = np.random.default_rng(6)
    queries = gen.uniform(-1.0, 1.0, (10_000, 6))
    points = gen.uniform(-1.0, 1.0, (80, 6))
    tracemalloc.start()
    try:
        out = baselines._sq_dists(queries, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes, peak


@settings(max_examples=120, derandomize=True, deadline=None)
@given(n=st.integers(1, 129), d=st.integers(1, 7),
       exponent=st.sampled_from(RBF_EXPONENT_GRID), seed=st.integers(0, 2**16))
def test_rbf_weights_are_bitwise_scipys_symmetric_solve(n, d, exponent, seed):
    # The benchmark report pins rest on this: the weights are those of
    # scipy.linalg.solve(assume_a="sym"), on the Wendland systems the
    # baseline builds and on symmetric indefinite matrices.
    gen = np.random.default_rng(seed)
    x = gen.uniform(-1.0, 1.0, (n, d))
    y = gen.standard_normal(n)
    radius = 2.0**exponent * (max_pairwise_distance(x) or 1.0)
    r = np.sqrt(baselines._sq_dists(x, x)) / radius
    k = baselines._wendland(r) + baselines._RBF_JITTER * np.eye(n)
    weights = rbf_interpolant(Dataset(x, y), radius).weights
    assert bitwise_equal(weights, _scipy_sym_solve(k, y))
    g = gen.standard_normal((n, n))
    a = g + g.T
    assert bitwise_equal(baselines._symmetric_solve(a, y), _scipy_sym_solve(a, y))


@pytest.mark.parametrize("k", [np.zeros((1, 1)), np.ones((2, 2)), np.zeros((3, 3))])
def test_exactly_singular_symmetric_system_raises_solver_error(k):
    y = np.ones(k.shape[0])
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.solve(k, y, assume_a="sym")
    with pytest.raises(SolverError, match="could not be solved") as exc:
        baselines._symmetric_solve(k, y)
    assert exc.value.condition_estimate == np.inf


def test_select_by_split_sizes_and_determinism():
    data = _toy_data(10, seed=1)
    calls = []

    def fit(learn, value):
        calls.append((learn.n, value))
        return nadaraya_watson(learn, value)

    sel = select_by_split(data, fit, (0.5, 1.0), seed=7)
    assert sel.learn_count == 8 and sel.test_count == 2
    assert [c[0] for c in calls] == [8, 8]
    assert len(sel.test_risks) == 2
    assert sel.parameter in (0.5, 1.0)
    assert sel.test_risks[sel.index] == min(sel.test_risks)
    again = select_by_split(data, fit, (0.5, 1.0), seed=7)
    assert again.test_risks == sel.test_risks and again.parameter == sel.parameter


def test_select_by_split_ties_keep_first_value():
    data = _toy_data(10, seed=2)

    def fit(learn, value):
        return constant_avg(learn)

    sel = select_by_split(data, fit, ("a", "b", "c"), seed=0)
    assert sel.parameter == "a" and sel.index == 0
    assert len(set(sel.test_risks)) == 1


def test_select_by_split_guards():
    data = _toy_data(10, seed=3)
    with pytest.raises(ParameterError):
        select_by_split(data, lambda learn, v: constant_avg(learn), (), seed=0)
    tiny = Dataset(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(ParameterError):
        select_by_split(tiny, lambda learn, v: constant_avg(learn), (1,), seed=0)


def test_selected_baseline_wrappers():
    data = _toy_data(50, seed=4)
    pred, bandwidth = fit_kernel_selected(data, seed=0)
    assert bandwidth in KERNEL_BANDWIDTH_GRID
    pred, k = fit_neighbor_selected(data, seed=0)
    assert k in neighbor_count_grid(10, 40)
    pred, exponent = fit_rbf_selected(data, seed=0)
    assert exponent in RBF_EXPONENT_GRID
    assert np.all(np.isfinite(pred(data.x[:5])))


def test_selected_baselines_beat_constant_on_smooth_target():
    data = _toy_data(80, seed=5)
    probe = Stream(6).uniform_matrix(400, 2, low=-1.0, high=1.0)
    truth = probe[:, 0] + 0.5 * probe[:, 1] ** 2

    def mse(pred):
        return float(np.mean((pred(probe) - truth) ** 2))

    base = mse(constant_avg(data))
    assert mse(fit_neighbor_selected(data, seed=0)[0]) < base
    assert mse(fit_rbf_selected(data, seed=0)[0]) < base
