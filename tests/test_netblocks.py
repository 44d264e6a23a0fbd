"""Tests for the five fixed-weight scalar blocks and their error bounds."""

import os
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from fixnet import _kernel, netblocks
from fixnet.activation import admissibility_constants, sigma, sigma_derivative
from fixnet.netblocks import (
    BlockParams,
    R_SUPPORTED_MAX,
    bound_hat,
    bound_id,
    bound_mult,
    bound_relu,
    bound_sq,
    clamp_scale,
    exact_hat,
    f_hat,
    f_id,
    f_mult,
    f_relu,
    f_sq,
)
from fixnet.errors import ParameterError

from conftest import bitwise_equal

GRID = np.arange(-1.0, 1.0 + 1e-9, 2e-3)


def test_sigma_diff_matches_naive_formula_at_moderate_step():
    # At delta ~ 1e-3 the naive difference loses only a few digits, so it
    # serves as an oracle for the rearranged form.
    deltas = np.array([-2e-3, -1e-3, 1e-4, 1e-3, 2e-3])
    for base in (0.0, 1.0):
        naive = sigma(base + deltas) - sigma(base)
        exact = netblocks._sigma_diff(base, deltas)
        assert np.max(np.abs(exact - naive)) <= 1e-12 * np.max(np.abs(naive))


def test_sigma_diff_tracks_first_derivative_at_tiny_step():
    for base in (0.0, 1.0):
        got = netblocks._sigma_diff(base, 1e-12)
        want = sigma_derivative(base, 1) * 1e-12
        assert got == pytest.approx(want, rel=1e-6)


def test_sigma_second_diff_matches_naive_formula_at_moderate_step():
    deltas = np.array([-2e-2, -1e-2, 1e-2, 2e-2])
    for base in (0.0, 1.0):
        naive = sigma(base + 2 * deltas) - 2.0 * sigma(base + deltas) + sigma(base)
        exact = netblocks._sigma_second_diff(base, deltas)
        assert np.max(np.abs(exact - naive)) <= 1e-9 * np.max(np.abs(naive))


def test_sigma_second_diff_tracks_second_derivative_at_tiny_step():
    got = netblocks._sigma_second_diff(1.0, 1e-10)
    want = sigma_derivative(1.0, 2) * 1e-20
    assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("R", [1e3, 1e6])
def test_identity_block_within_bound(R):
    params = BlockParams(R=R, a=1.0)
    err = np.max(np.abs(f_id(GRID, params) - GRID))
    assert err <= bound_id(params)
    assert err > 0.0


@pytest.mark.parametrize("R", [1e3, 1e6])
def test_square_block_within_bound(R):
    params = BlockParams(R=R, a=1.0)
    err = np.max(np.abs(f_sq(GRID, params) - GRID**2))
    assert err <= bound_sq(params)


@pytest.mark.parametrize("R", [1e3, 1e6])
def test_product_block_within_bound(R):
    params = BlockParams(R=R, a=1.0)
    side = np.arange(-1.0, 1.0 + 1e-9, 2e-2)
    gx, gy = np.meshgrid(side, side)
    err = np.max(np.abs(f_mult(gx.ravel(), gy.ravel(), params) - gx.ravel() * gy.ravel()))
    assert err <= bound_mult(params)


def _reference_product(x, y, R):
    # The product block as one expression of _sigma_second_diff.
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    d2 = admissibility_constants().d2_at_sq
    return (R * R / (4.0 * d2)) * (netblocks._sigma_second_diff(1.0, (x + y) / R)
                                   - netblocks._sigma_second_diff(1.0, (x - y) / R))


@pytest.mark.parametrize("R", [3.0, 1e3, 1e6, 1e9])
def test_product_block_is_bitwise_the_reference_expression(R):
    # eval_feature folds through f_mult as well, so only this reference
    # sees a change inside the in-place kernel.  R=1e9 is clamped to 1e8.
    if R > R_SUPPORTED_MAX:
        with pytest.warns(RuntimeWarning, match="clamped"):
            params = BlockParams(R=R)
    else:
        params = BlockParams(R=R)
    rng = np.random.default_rng(5)
    scales = np.array([1e-300, 1e-9, 0.1, 1.0, 3.0, 30.0])[:, None, None]
    x = rng.normal(size=(6, 1, 5)) * scales
    y = rng.normal(size=(6, 4, 1)) * scales
    x[0, 0, :2] = [0.0, -0.0]
    y[1, :2, 0] = [0.0, -0.0]
    # Broadcast shapes (r, 1, k) x (r, g, 1).
    got = f_mult(x, y, params)
    assert got.shape == (6, 4, 5)
    assert bitwise_equal(got, _reference_product(x, y, params.R))
    # x == y and x == -y cancel to zeros whose signs must survive.
    values = np.concatenate([np.array([0.0, -0.0, 1e-300, -0.5, 0.7, 2.0]),
                             rng.normal(size=20)])
    for other in (values, -values):
        assert bitwise_equal(f_mult(values, other, params),
                          _reference_product(values, other, params.R))
    # A strided out= slice is filled in place and returned; nothing else
    # of the buffer is touched.
    buf = np.full((6, 4, 11), np.nan)
    view = buf[:, :, 1:10:2]
    assert f_mult(x, y, params, out=view) is view
    assert bitwise_equal(view, _reference_product(x, y, params.R))
    assert np.isnan(buf[:, :, 0::2]).all()
    # 0-d scalars give a float.
    for a, b in ((0.3, -0.7), (0.0, -0.0), (0.25, 0.25), (1.5, -1.5)):
        got = f_mult(a, b, params)
        assert isinstance(got, float)
        assert bitwise_equal(got, _reference_product(a, b, params.R))


# Signed zeros, subnormals, +-1, 17, +-1e8, +-1e300, +-inf and NaN.
_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0,
                   -1.0, 17.0, 1e8, -1e8, 1e300, -1e300, np.inf, -np.inf,
                   np.nan])


def _compiled_kernel():
    if _kernel.library() is None:
        pytest.skip("the compiled kernel cannot be built on this host")


def test_kernel_builds_where_a_compiler_exists():
    assert (_kernel.library() is not None) == (shutil.which("cc") is not None)


@pytest.mark.parametrize("R", [1.0, 3.7, 1e3, 1e6, 1e8])
def test_compiled_product_is_bitwise_the_numpy_path(R, monkeypatch):
    # Every pair of edge values, and random draws over 600 orders of
    # magnitude; NaN results must sit in the same places.
    _compiled_kernel()
    params = BlockParams(R=R)
    gx, gy = np.meshgrid(_EDGES, _EDGES)
    rng = np.random.default_rng(int(R))
    scales = 10.0 ** rng.integers(-300, 300, size=(2, 20000))
    x = np.concatenate([gx.ravel(), rng.normal(size=20000) * scales[0]])
    y = np.concatenate([gy.ravel(), rng.normal(size=20000) * scales[1]])
    out = np.empty_like(x)
    scratch = [np.empty_like(x) for _ in range(4)]
    with np.errstate(all="ignore"):
        got = f_mult(x, y, params, out=out, scratch=scratch)
        compiled_new = f_mult(x, y, params)
        monkeypatch.setattr(_kernel, "library", lambda: None)
        want = f_mult(x, y, params)
    nan = np.isnan(want)
    assert nan.any() and not nan.all()
    for values in (got, compiled_new):
        assert np.array_equal(np.isnan(values), nan)
        assert bitwise_equal(values[~nan], want[~nan])


def test_compiled_product_runs_only_on_contiguous_float64_of_one_shape(
        monkeypatch):
    # A broadcast pair, a strided out= view, a float32 out= or 0-d inputs
    # take the numpy path: the kernel's pointers would misread them.
    _compiled_kernel()
    calls = []
    lib = _kernel.library()

    class Spy:
        def fm_halves(self, *args):
            calls.append("halves")
            return lib.fm_halves(*args)

        def fm_combine(self, *args):
            return lib.fm_combine(*args)

    monkeypatch.setattr(_kernel, "library", Spy)
    params = BlockParams(R=1e3)
    x = np.linspace(-2.0, 2.0, 24).reshape(4, 6)
    y = x[::-1].copy()
    want = _reference_product(x, y, params.R)
    assert bitwise_equal(f_mult(x, y, params), want) and calls == ["halves"]
    buf = np.empty((4, 12))
    for args, kwargs in (((x, y[:1]), {}), ((x, y), {"out": buf[:, ::2]}),
                         ((x, y), {"out": np.empty((4, 6), np.float32)}),
                         ((x.T, y.T), {}), ((0.5, 0.25), {})):
        f_mult(*args, params, **kwargs)
    assert calls == ["halves"]


def test_index_form_checks_its_indices_and_may_overwrite_its_operand(
        monkeypatch):
    # The index form is the product of the gathers, on both paths; int32
    # indices take the numpy path; out may share x's memory; an index
    # outside [0, x.shape[1]) raises IndexError on both paths.
    _compiled_kernel()
    params = BlockParams(R=1e3)
    x = np.linspace(-2.0, 2.0, 24).reshape(4, 6)
    left = np.array([0, 2, 5], dtype=np.intp)
    right = np.array([1, 1, 4], dtype=np.intp)
    want = f_mult(x[:, left], x[:, right], params)
    for compiled in (True, False):
        if not compiled:
            monkeypatch.setattr(_kernel, "library", lambda: None)
        got = f_mult(x, x, params, left=left, right=right)
        narrow = f_mult(x, x, params, left=left.astype(np.int32),
                        right=right.astype(np.int32))
        buf = x.copy()
        shared = f_mult(buf, buf, params, out=buf.ravel()[:12].reshape(4, 3),
                        scratch=[np.empty((4, 3)) for _ in range(6)],
                        left=left, right=right)
        for values in (got, narrow, shared):
            assert bitwise_equal(values, want), compiled
        for bad in ([0, 6, 1], [0, -1, 1]):
            with pytest.raises(IndexError, match=r"\[0, 6\)"):
                f_mult(x, x, params, left=np.array(bad, dtype=np.intp),
                       right=right)
    with pytest.raises(ValueError, match="index form"):
        f_mult(x, x[:, :5], params, left=left, right=right)


@pytest.mark.parametrize("M", [0, 1, 16])
def test_compiled_tent_is_bitwise_its_numpy_path(M, monkeypatch):
    # At R equal to the relu blocks' threshold and above it, in the 1-d
    # form of eval_leaf and the broadcast 2-d form of eval_features, on
    # points outside the cube and on edge values: NaN lands in the same
    # places, and every other entry has the numpy path's bits.
    _compiled_kernel()
    prof = admissibility_constants()
    threshold = prof.sup_d2 * (M + 1) / (2.0 * prof.d1_at_id)
    rng = np.random.default_rng(M)
    x = np.concatenate([rng.uniform(-3.0, 3.0, 400), _EDGES])
    anchors = np.linspace(-1.0, 1.0, M + 1)
    cases = [(points, y, R) for R in (threshold, 1e3, 1e6, 1e8)
             for points, y in ((x, 0.25), (x[:, None], anchors))]
    with np.errstate(all="ignore"):
        got = [netblocks._hat_network(a, y, M, 1.0, R) for a, y, R in cases]
        monkeypatch.setattr(_kernel, "library", lambda: None)
        want = [netblocks._hat_network(a, y, M, 1.0, R)
                for a, y, R in cases]
    for values, expected in zip(got, want):
        nan = np.isnan(expected)
        assert nan.any() and not nan.all()
        assert np.array_equal(np.isnan(values), nan)
        assert bitwise_equal(values[~nan], expected[~nan])
    with pytest.raises(ParameterError, match="relu block requires R"):
        netblocks._hat_network(x[:400], 0.25, M, 1.0, threshold * (1 - 1e-12))


def test_pyproject_ships_the_kernel_source():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        doc = tomllib.load(f)
    data = doc["tool"]["setuptools"]["package-data"]["fixnet"]
    assert os.path.basename(_kernel.SOURCE) in data
    assert os.path.isfile(_kernel.SOURCE)


def test_product_block_spot_values():
    params = BlockParams(R=1e6, a=1.0)
    assert f_mult(1.0, 1.0, params) == pytest.approx(1.0, abs=1e-4)
    assert f_mult(0.5, -0.8, params) == pytest.approx(-0.4, abs=1e-4)
    assert abs(f_mult(0.7, 0.0, params)) <= bound_mult(params)


@pytest.mark.parametrize("R", [1e3, 1e6])
def test_relu_block_within_bound(R):
    params = BlockParams(R=R, a=1.0)
    err = np.max(np.abs(f_relu(GRID, params) - np.maximum(GRID, 0.0)))
    assert err <= bound_relu(params)


def test_relu_block_parameter_guards():
    with pytest.raises(ParameterError):
        f_relu(0.5, BlockParams(R=1e6, a=0.5))
    prof = admissibility_constants()
    too_small = prof.sup_d2 * 3.0 / (2.0 * prof.d1_at_id) * 0.9
    with pytest.raises(ParameterError):
        f_relu(0.5, BlockParams(R=too_small, a=3.0))


@pytest.mark.parametrize("R,M", [(1e4, 4), (1e6, 8)])
def test_hat_block_within_bound(R, M):
    params = BlockParams(R=R, a=1.0, M=M)
    for anchor in (-1.0, 0.0, 0.5):
        err = np.max(np.abs(f_hat(GRID, anchor, params) - exact_hat(GRID, anchor, M, 1.0)))
        assert err <= bound_hat(params)


def test_hat_block_requires_resolution_and_scale():
    with pytest.raises(ParameterError):
        f_hat(0.0, 0.0, BlockParams(R=1e6, a=1.0))
    with pytest.raises(ParameterError, match="relu block requires R"):
        f_hat(0.0, 0.0, BlockParams(R=0.5, a=1.0, M=4))


def test_exact_hat_shape():
    # Tent of half-width 2a/M around the anchor: value 1 at the anchor,
    # zero at and beyond half-width, linear in between.
    assert exact_hat(0.3, 0.3, 4, 1.0) == 1.0
    assert exact_hat(0.3 + 0.5, 0.3, 4, 1.0) == 0.0
    assert exact_hat(0.3 - 0.25, 0.3, 4, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert exact_hat(-0.9, 0.3, 4, 1.0) == 0.0


def test_exact_hats_form_partition_of_unity():
    M, a = 5, 1.0
    xs = np.linspace(-a, a, 777)
    total = sum(exact_hat(xs, -a + i * 2 * a / M, M, a) for i in range(M + 1))
    assert np.max(np.abs(total - 1.0)) <= 1e-15


def test_error_bounds_scale_inversely_with_R():
    p1 = BlockParams(R=1e3, a=1.0, M=4)
    p2 = BlockParams(R=2e3, a=1.0, M=4)
    for bound in (bound_id, bound_sq, bound_mult, bound_relu, bound_hat):
        assert bound(p1) == pytest.approx(2.0 * bound(p2), rel=1e-12)
        assert bound(p1) > 0.0


def test_measured_error_decays_with_R():
    xs = np.linspace(-1.0, 1.0, 401)
    errs = [
        np.max(np.abs(f_sq(xs, BlockParams(R=R)) - xs**2))
        for R in (1e3, 1e4, 1e5)
    ]
    assert errs[0] > 5.0 * errs[1] > 25.0 * errs[2]


def test_scale_clamp_warns_and_caps():
    with pytest.warns(RuntimeWarning, match="clamped"):
        assert clamp_scale(1e12) == R_SUPPORTED_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert clamp_scale(1e8) == 1e8
    with pytest.warns(RuntimeWarning):
        assert BlockParams(R=1e9).R == R_SUPPORTED_MAX


def test_block_params_validation():
    with pytest.raises(ParameterError):
        BlockParams(R=0.0)
    with pytest.raises(ParameterError):
        BlockParams(R=1e3, a=-1.0)
    with pytest.raises(ParameterError):
        BlockParams(R=1e3, a=1.0, M=0)


def test_blocks_accept_scalars_and_arrays():
    params = BlockParams(R=1e5, a=1.0)
    assert isinstance(f_id(0.5, params), float)
    assert isinstance(f_mult(0.5, 0.25, params), float)
    arr = f_id(np.array([0.1, 0.2]), params)
    assert arr.shape == (2,)
