"""Tests for design-matrix construction and the ridge output-layer solve."""

import ctypes
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import _ctypes
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixnet import _lapack, features as feat, ridge
from fixnet.activation import admissibility_constants
from fixnet.errors import ParameterError, SolverError
from fixnet.features import (
    enumerate_features_cube,
    enumerate_features_pp,
    eval_feature,
)
from fixnet.ridge import (
    DesignMatrix,
    build_design_matrix,
    coefficient_bound_audit,
    objective_value,
    ridge_solve,
)
from fixnet.rng import Stream

from conftest import bitwise_equal

DIRECTIONS = np.array([[0.8, 0.6], [-0.35, 0.9]])


def _dense_oracle(b, y, penalty):
    """Textbook solve of the normal equations with a dense inverse."""
    gram = b.T @ b + penalty * np.eye(b.shape[1])
    return np.linalg.inv(gram) @ (b.T @ y)


def test_design_matrix_columns_match_single_feature_eval():
    x = Stream(1).uniform_matrix(30, 2, low=-1.0, high=1.0)
    feats = enumerate_features_cube(2, 2, 2, 1.0, 1e5)
    design = build_design_matrix(feats, x)
    assert design.n == 30 and design.width == len(feats)
    for j, f in enumerate(feats):
        assert bitwise_equal(design.values[:, j], eval_feature(x, f)), j

    line_feats = enumerate_features_pp(2, 2, 3, 1.0, 1e5, DIRECTIONS)
    line_design = build_design_matrix(line_feats, x)
    for j, f in enumerate(line_feats):
        assert bitwise_equal(line_design.values[:, j], eval_feature(x, f)), j


def test_design_matrix_memory_stays_near_its_output():
    # The fold works on bounded blocks of groups, so one call allocates
    # little beyond the (n, J) result however many groups there are.
    x = Stream(3).uniform_matrix(100, 6, low=-1.0, high=1.0)
    directions = Stream(4).uniform_matrix(4, 6, low=-1.0, high=1.0)
    feats = enumerate_features_pp(6, 2, 16, 1.0, 1e5, directions)
    assert len(feats) == 1904
    admissibility_constants()  # cached grid maximization, outside the window
    tracemalloc.start()
    try:
        design = build_design_matrix(feats, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * design.values.nbytes + 2**20, peak


def test_design_matrix_guards():
    x = np.zeros((4, 2))
    with pytest.raises(ParameterError):
        build_design_matrix([], x)
    feats = enumerate_features_cube(2, 1, 1, 1.0, 1e5)
    with pytest.raises(ParameterError, match="FeatureSet"):
        build_design_matrix(list(feats), x)
    with pytest.raises(ParameterError):
        build_design_matrix(feats, np.zeros((4, 3)))
    # The batch comes through data.as_batch: a 0-d value is no point,
    # even for d = 1.
    with pytest.raises(ParameterError, match="batch has shape"):
        build_design_matrix(enumerate_features_cube(1, 1, 1, 1.0, 1e5), 0.5)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ParameterError):
        build_design_matrix(feats, bad)


def test_ridge_solve_matches_dense_oracle_both_branches():
    stream = Stream(20)
    cases = []
    for trial in range(40):
        sub = stream.child(trial)
        n = 3 + int(sub.integers(1, 18)[0])
        width = 1 + int(sub.integers(1, 8)[0])
        cases.append((sub.uniform_matrix(n, width, low=-2.0, high=2.0),
                      sub.uniforms(n, low=-3.0, high=3.0),
                      [0.1, 1.0, 10.0][trial % 3]))
    # A tall solve, with more rows than any fit or benchmark uses.
    tall = Stream(12_000)
    cases.append((tall.uniform_matrix(12_000, 3, low=-1.0, high=1.0),
                  tall.uniforms(12_000, low=-3.0, high=3.0), 1.0))
    for b, y, penalty in cases:
        sol = ridge_solve(b, y, penalty)
        oracle = _dense_oracle(b, y, penalty)
        scale = max(float(np.linalg.norm(oracle)), 1e-300)
        assert float(np.linalg.norm(sol.coefficients - oracle)) / scale <= 1e-9
        assert coefficient_bound_audit(sol, y)
        # A 1-norm condition estimate of an SPD matrix is >= 1 up to the
        # rounding inside the LAPACK reciprocal estimate.
        assert sol.gram_condition_estimate >= 0.99


def test_ridge_solve_wide_branch_matches_tall_formula():
    # More columns than rows exercises the n-by-n path; the minimizer is
    # the same as the one the J-by-J normal equations define.
    sub = Stream(77)
    b = sub.uniform_matrix(12, 40, low=-1.0, high=1.0)
    y = sub.uniforms(12, low=-1.0, high=1.0)
    sol = ridge_solve(b, y, 0.5)
    oracle = _dense_oracle(b, y, 0.5)
    assert np.linalg.norm(sol.coefficients - oracle) / np.linalg.norm(oracle) <= 1e-9


def test_ridge_solution_is_columnwise_permutable():
    sub = Stream(8)
    b = sub.uniform_matrix(25, 6, low=-1.0, high=1.0)
    y = sub.uniforms(25)
    perm = Stream(9).permutation(6)
    base = ridge_solve(b, y, 1.0).coefficients
    permuted = ridge_solve(b[:, perm], y, 1.0).coefficients
    assert np.max(np.abs(permuted - base[perm])) <= 1e-10


def test_objective_value_and_optimality():
    sub = Stream(31)
    b = sub.uniform_matrix(20, 5, low=-1.0, high=1.0)
    y = sub.uniforms(20, low=-2.0, high=2.0)
    sol = ridge_solve(b, y, 2.0)
    a = sol.coefficients
    resid = y - b @ a
    manual = float((resid @ resid + 2.0 * (a @ a)) / 20)
    assert sol.objective == pytest.approx(manual, rel=1e-12)
    # The reported minimum beats the zero vector and nearby perturbations.
    assert sol.objective <= objective_value(b, y, np.zeros(5), 2.0)
    for k in range(5):
        bump = a.copy()
        bump[k] += 1e-3
        assert sol.objective <= objective_value(b, y, bump, 2.0) + 1e-15


def test_ridge_solve_accepts_design_matrix_wrapper():
    x = Stream(2).uniform_matrix(25, 2, low=-1.0, high=1.0)
    feats = enumerate_features_cube(2, 1, 1, 1.0, 1e5)
    design = build_design_matrix(feats, x)
    y = Stream(3).uniforms(25)
    sol = ridge_solve(design, y, 1.0)
    assert sol.coefficients.shape == (len(feats),)
    assert objective_value(design, y, sol.coefficients, 1.0) == pytest.approx(
        sol.objective, rel=1e-12
    )


def test_ridge_solve_input_validation():
    b = np.ones((4, 2))
    y = np.ones(4)
    with pytest.raises(ParameterError):
        ridge_solve(b, y, 0.0)
    with pytest.raises(ParameterError):
        ridge_solve(b, np.ones(3), 1.0)
    with pytest.raises(ParameterError):
        ridge_solve(np.ones(4), y, 1.0)
    bad = b.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ParameterError):
        ridge_solve(bad, y, 1.0)


def test_audit_fails_for_corrupted_coefficients():
    b = np.eye(3)
    y = np.array([1.0, 2.0, 3.0])
    sol = ridge_solve(b, y, 1.0)
    assert coefficient_bound_audit(sol, y)
    broken = ridge.RidgeSolution(
        coefficients=sol.coefficients * 1e6,
        penalty=sol.penalty,
        objective=sol.objective,
        gram_condition_estimate=sol.gram_condition_estimate,
    )
    assert not coefficient_bound_audit(broken, y)


def test_identical_columns_stay_solvable_through_regularization():
    # Duplicate columns make B^T B singular; the penalty restores
    # definiteness and the duplicates share the weight evenly.
    col = Stream(4).uniforms(30, low=-1.0, high=1.0)
    b = np.column_stack([col, col])
    y = 3.0 * col
    sol = ridge_solve(b, y, 1e-6)
    assert sol.coefficients[0] == pytest.approx(sol.coefficients[1], rel=1e-6)
    assert sol.coefficients[0] == pytest.approx(1.5, rel=1e-3)


def test_lu_fallback_is_reachable_and_passes_the_audit(monkeypatch):
    # With a repeated column and a penalty far below rounding, B^T B + pI
    # is singular in floating point although it is positive definite in
    # exact arithmetic.  For this draw, rounding leaves Cholesky a last
    # pivot <= 0 but LU a tiny nonzero one, so the pivoted LU fallback
    # runs and its solve passes the residual gate.
    routines = _lapack.routines()
    shapes = []
    getrf = routines.getrf

    def spy(mat, overwrite_a=False):
        shapes.append(mat.shape)
        return getrf(mat, overwrite_a=overwrite_a)

    monkeypatch.setattr(routines, "getrf", spy)
    gen = np.random.default_rng(3)
    b = gen.standard_normal((6, 3))
    b[:, 2] = b[:, 1]
    y = gen.standard_normal(6)
    sol = ridge_solve(b, y, 1e-20)
    assert shapes == [(3, 3)]
    assert coefficient_bound_audit(sol, y)


def _reference_spd_solver(mat):
    """ridge._spd_solver and ridge._lu_solver with copied factors: dpotrf,
    or dgetrf where it fails, factors a copy of mat, and the 1-norm is
    np.linalg.norm's."""
    lapack = _lapack.routines()
    factor, info = lapack.potrf(mat)
    if info > 0:
        lu, piv, info = lapack.getrf(mat)
        assert info == 0
        rcond, info = lapack.gecon(lu, np.linalg.norm(mat, 1))
        assert info == 0 and rcond > 0
        return (lambda v: lapack.getrs(lu, piv, v)[0]), float(1.0 / rcond)
    rcond, info = lapack.pocon(factor, np.linalg.norm(mat, 1))
    cond = np.inf if info != 0 or rcond == 0 else float(1.0 / rcond)
    return (lambda v: lapack.potrs(factor, v)[0]), cond


def _reference_ridge_solve(b, y, penalty):
    """ridge_solve with the system formed out of place, as B^T B + p I
    (or B B^T + p I), and factored in a copy (_reference_spd_solver)."""
    n, width = b.shape
    mat = (b @ b.T + penalty * np.eye(n) if width > n
           else b.T @ b + penalty * np.eye(width))
    solve, cond = _reference_spd_solver(mat)
    if width > n:
        coef = b.T @ ridge._refined_solve(lambda v: mat @ v, y, solve,
                                          cond)[0]
    else:
        coef, _ = ridge._refined_solve(lambda v: mat @ v, b.T @ y, solve,
                                       cond)
    return coef, objective_value(b, y, coef, penalty), cond


def _assert_solves_bitwise_equal(b, y, penalty):
    sol = ridge_solve(b, y, penalty)
    coef, obj, cond = _reference_ridge_solve(b, y, penalty)
    assert bitwise_equal(sol.coefficients, coef)
    assert bitwise_equal(np.array([sol.objective, sol.gram_condition_estimate]),
                          np.array([obj, cond]))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(1, 90), width=st.integers(1, 90),
       penalty=st.sampled_from([1e-6, 0.1, 3.0]), seed=st.integers(0, 2**16))
def test_in_place_system_is_bitwise_the_out_of_place_one(n, width, penalty,
                                                         seed):
    gen = np.random.default_rng(seed)
    _assert_solves_bitwise_equal(gen.uniform(-1.0, 1.0, (n, width)),
                                 gen.standard_normal(n), penalty)


def test_in_place_lu_path_is_bitwise_the_copy_based_one(monkeypatch):
    # The system of test_lu_fallback_is_reachable_and_passes_the_audit,
    # on which dpotrf meets a non-positive pivot.
    routines = _lapack.routines()
    calls = []
    getrf = routines.getrf

    def spy(mat, overwrite_a=False):
        calls.append(mat.copy())
        return getrf(mat, overwrite_a=overwrite_a)

    monkeypatch.setattr(routines, "getrf", spy)
    gen = np.random.default_rng(3)
    b = gen.standard_normal((6, 3))
    b[:, 2] = b[:, 1]
    _assert_solves_bitwise_equal(b, gen.standard_normal(6), 1e-20)
    # Both factored the same matrix: the system the in-place dpotrf
    # overwrote was formed again before its 1-norm and dgetrf read it.
    assert len(calls) == 2 and bitwise_equal(calls[0], calls[1])


@pytest.mark.parametrize("n, width", [(40, 12), (12, 40)],
                         ids=["primal", "dual"])
def test_forced_refinement_reuses_the_one_factor(monkeypatch, n, width):
    # No residual meets a target of 0, so every solve refines once and
    # then raises.  dpotrf runs once; the refinement step solves with the
    # same factor for a residual taken from the design, not the system.
    monkeypatch.setattr(ridge, "_RESIDUAL_TARGET", 0.0)
    routines = _lapack.routines()
    potrf, potrs, accepted = routines.potrf, routines.potrs, ridge._accepted
    factored, solved, iterates = [], [], []

    def potrf_spy(a, overwrite_a=False):
        factored.append(a.shape)
        return potrf(a, overwrite_a=overwrite_a)

    def potrs_spy(c, v):
        solved.append(v.copy())
        return potrs(c, v)

    def accepted_spy(coef, res, scale, cond, last=True):
        iterates.append(coef)
        return accepted(coef, res, scale, cond, last)

    monkeypatch.setattr(routines, "potrf", potrf_spy)
    monkeypatch.setattr(routines, "potrs", potrs_spy)
    monkeypatch.setattr(ridge, "_accepted", accepted_spy)
    gen = np.random.default_rng(n)
    b = gen.uniform(-1.0, 1.0, (n, width))
    y = gen.standard_normal(n)
    with pytest.raises(SolverError) as got:
        ridge_solve(b, y, 0.1)
    assert factored == [(min(n, width),) * 2] and len(solved) == 2

    # By hand: the out-of-place system's factor, and the design's product.
    dual = width > n
    mat = b @ b.T + 0.1 * np.eye(n) if dual else b.T @ b + 0.1 * np.eye(width)
    rhs = y if dual else b.T @ y

    def apply(v):
        return (b @ (b.T @ v) if dual else b.T @ (b @ v)) + 0.1 * v

    factor, info = potrf(mat)
    assert info == 0
    x0 = potrs(factor, rhs)[0]
    x1 = x0 - potrs(factor, apply(x0) - rhs)[0]
    assert len(iterates) == 2
    assert bitwise_equal(iterates[0], x0) and bitwise_equal(iterates[1], x1)
    assert bitwise_equal(solved[1], apply(x0) - rhs)
    residual = np.linalg.norm(apply(x1) - rhs) / np.linalg.norm(rhs)
    assert str(got.value) == f"solve residual {residual:.3e} exceeds 0e+00"
    rcond, _ = routines.pocon(factor, np.linalg.norm(mat, 1))
    assert got.value.condition_estimate == 1.0 / rcond


@pytest.mark.parametrize("n", [100, 1215])
def test_in_place_factor_is_bitwise_the_copy_at_any_alignment(n):
    # J = 1,215 is the smooth fit's system, factored on the threaded
    # path.  The matrix starts at eight 8-byte offsets in turn; the upper
    # triangle of mat.T is the factor, and mat's own strict upper
    # triangle is left as it was.
    mat, _ = _spd(n, n)
    want, info = _lapack.routines().potrf(mat)
    assert info == 0
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    for offset in range(8):
        raw = np.empty(n * n + 8)
        work = raw[offset:offset + n * n].reshape(n, n)
        work[...] = mat
        got, info = _lapack.routines().potrf(work.T, overwrite_a=True)
        assert info == 0 and np.shares_memory(got, work)
        assert bitwise_equal(got, want), offset
        assert bitwise_equal(work[upper], mat[upper])


@settings(max_examples=80, derandomize=True, deadline=None)
@given(rows=st.integers(1, 300), cols=st.integers(2, 300),
       square=st.booleans(), seed=st.integers(0, 2**16), data=st.data())
def test_blocked_one_norm_is_bitwise_numpys(rows, cols, square, seed, data):
    # Square systems of every size, and any matrix of two or more
    # columns: numpy sums a lone column, which is contiguous, pairwise.
    # Blocks of one row, of two, of all rows but one, all, one more
    # than there are, and about half.
    cols = rows if square else cols
    step = data.draw(st.sampled_from(
        [1, 2, max(1, rows - 1), rows, rows + 1, rows // 2 + 1]))
    mat = np.random.default_rng(seed).standard_normal((rows, cols))
    with mock.patch.object(feat, "_BLOCK_ENTRY_BUDGET", step * cols):
        got = ridge._one_norm(mat)
    assert bitwise_equal(np.array([got]), np.array([np.linalg.norm(mat, 1)]))


@pytest.mark.parametrize("n, width", [(600, 300), (300, 600)],
                         ids=["primal", "dual"])
def test_ridge_solve_holds_one_gram_sized_array(n, width):
    # The system and nothing else of its size: no penalty * eye, no
    # abs() copy for the 1-norm and no copy for dpotrf to factor.
    gen = np.random.default_rng(n)
    b = gen.uniform(0.01, 1.0, (n, width))
    y = gen.standard_normal(n)
    ridge_solve(b[:8, :4], y[:8], 1.0)  # bind the LAPACK routines
    tracemalloc.start()
    try:
        ridge_solve(b, y, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * min(n, width) ** 2 * 8, peak


def test_lu_fallback_holds_one_gram_sized_array(monkeypatch):
    # With dpotrf made to fail, the LU path factors the system where it
    # was formed and estimates its condition from the factor: no F-order
    # copy for dgetrf and no inverse for np.linalg.cond.
    gen = np.random.default_rng(600)
    b = gen.uniform(0.01, 1.0, (600, 300))
    y = gen.standard_normal(600)
    ridge_solve(b[:8, :4], y[:8], 1.0)  # bind the LAPACK routines
    routines = _lapack.routines()
    getrf = routines.getrf
    factored = []

    def getrf_spy(a, overwrite_a=False):
        factored.append(a.shape)
        return getrf(a, overwrite_a=overwrite_a)

    monkeypatch.setattr(routines, "potrf", lambda a, overwrite_a=False: (a, 1))
    monkeypatch.setattr(routines, "getrf", getrf_spy)
    tracemalloc.start()
    try:
        sol = ridge_solve(b, y, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert factored == [(300, 300)]
    assert peak <= 1.5 * 300 ** 2 * 8, peak
    want = np.linalg.solve(b.T @ b + 0.3 * np.eye(300), b.T @ y)
    assert np.allclose(sol.coefficients, want, rtol=1e-9, atol=1e-12)
    cond = np.linalg.cond(b.T @ b + 0.3 * np.eye(300), 1)
    assert cond / 3 <= sol.gram_condition_estimate <= cond * 1.000001


def _spd(n, seed):
    gen = np.random.default_rng(seed)
    b = gen.standard_normal((n + 3, n))
    return b.T @ b + 0.1 * np.eye(n), gen.standard_normal(n)


def _assert_cholesky_is_scipys(mat, rhs, cond_rtol=0.0):
    import scipy.linalg

    factor, lower = scipy.linalg.cho_factor(mat, lower=False, check_finite=False)
    rcond, info = scipy.linalg.lapack.dpocon(factor, np.linalg.norm(mat, 1))
    assert info == 0 and rcond > 0
    want = scipy.linalg.cho_solve((factor, lower), rhs, check_finite=False)
    got_factor, info = _lapack.routines().potrf(mat)
    assert info == 0 and bitwise_equal(got_factor, factor)
    solve, cond = ridge._spd_solver(mat)
    assert abs(cond - 1.0 / rcond) <= cond_rtol * cond
    assert bitwise_equal(solve(rhs), want)


@settings(max_examples=64, derandomize=True, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**16))
def test_cholesky_path_is_bitwise_scipys(n, seed):
    # The fingerprint pins rest on this: numpy's OpenBLAS gives the bits
    # of scipy's cho_factor, dpocon and cho_solve.
    _assert_cholesky_is_scipys(*_spd(n, seed))


def test_cholesky_path_is_bitwise_scipys_at_the_smooth_fit_width():
    # J = 1,215 is the primal system of a smooth fit, factored on the
    # threaded path of both libraries.  From a few hundred rows on,
    # dpocon's estimate moves in its last bits with the 64-byte alignment
    # of its work array.  fixnet._lapack aligns it and scipy does not, so
    # only the estimate gets a tolerance.
    _assert_cholesky_is_scipys(*_spd(1215, 1215),
                               cond_rtol=64 * np.finfo(float).eps)


def _estimates_under_heap_layouts():
    """dpocon's estimate of the n = 1,215 factor, with the heap shifted by
    16 bytes more before each call: a work array from plain malloc starts
    at another 64-byte offset each time."""
    mat, _ = _spd(1215, 1215)
    routines = _lapack.routines()
    factor, info = routines.potrf(mat)
    assert info == 0
    anorm = np.linalg.norm(mat, 1)
    held, estimates = [], []
    for k in range(8):
        held.append(np.empty(3 * 1215 * 8 + 16 * k, dtype=np.uint8))
        estimates.append(routines.pocon(factor, anorm)[0])
    return estimates


def test_condition_estimate_does_not_depend_on_the_heap_layout():
    estimates = _estimates_under_heap_layouts()
    assert len(set(estimates)) == 1, estimates
    # Hash randomization changes a process's heap layout too.
    tests_dir = Path(__file__).resolve().parent
    path = [str(tests_dir.parent / "src"), str(tests_dir),
            os.environ.get("PYTHONPATH")]
    code = ("import test_ridge; "
            "print(set(map(repr, test_ridge._estimates_under_heap_layouts())))")
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr({repr(estimates[0])})


@settings(max_examples=32, derandomize=True, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**16))
def test_lu_path_matches_scipy(n, seed):
    # numpy and scipy ship different OpenBLAS releases, whose dgetrf can
    # differ in the last bit, so LU agrees in its pivots and to rounding.
    import scipy.linalg

    mat, rhs = _spd(n, seed)
    lu, piv = scipy.linalg.lu_factor(mat, check_finite=False)
    want = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    routines = _lapack.routines()
    got_lu, got_piv, info = routines.getrf(mat)
    assert info == 0 and np.array_equal(got_piv - 1, piv)
    eps = np.finfo(float).eps
    assert np.max(np.abs(got_lu - lu)) <= 64 * eps * np.max(np.abs(lu))
    got = routines.getrs(got_lu, got_piv, rhs)[0]
    assert np.linalg.norm(got - want) <= 1e3 * n * eps * np.linalg.norm(want)


def test_scipy_fallback_binding_gives_the_same_bits(monkeypatch):
    # A library that exports none of the known names gets the
    # scipy.linalg.lapack routines, the wrappers behind cho_factor,
    # cho_solve, lu_factor and lu_solve.
    import scipy.linalg

    fallback = _lapack.bind(ctypes.CDLL(_ctypes.__file__))
    assert fallback.getrf is scipy.linalg.lapack.dgetrf
    mat, rhs = _spd(40, 7)
    solve, cond = ridge._spd_solver(mat.copy())
    monkeypatch.setattr(_lapack, "routines", lambda: fallback)
    fb_solve, fb_cond = ridge._spd_solver(mat.copy())
    assert fb_cond == cond and bitwise_equal(fb_solve(rhs), solve(rhs))
    lu, piv = scipy.linalg.lu_factor(mat, check_finite=False)
    fb_lu, fb_piv, info = fallback.getrf(mat)
    assert info == 0 and bitwise_equal(fb_lu, lu)
    assert bitwise_equal(fallback.getrs(fb_lu, fb_piv, rhs)[0],
                          scipy.linalg.lu_solve((lu, piv), rhs))
    anorm = np.linalg.norm(mat, 1)
    assert fallback.gecon(lu, anorm) == _lapack.routines().gecon(lu, anorm)
    # The symmetric-indefinite pair of the RBF baseline, on a matrix with
    # 2 x 2 pivots; both bindings give LAPACK's 1-based pivots.
    sym = mat - np.trace(mat) / 40 * np.eye(40)
    ldu, piv, info = _lapack.routines().sytrf(sym)
    fb_ldu, fb_piv, fb_info = fallback.sytrf(sym)
    assert info == fb_info == 0 and np.any(piv < 0)
    assert bitwise_equal(fb_ldu, ldu) and np.array_equal(fb_piv, piv)
    want = _lapack.routines().sytrs(ldu, piv, rhs)[0]
    assert bitwise_equal(fallback.sytrs(fb_ldu, fb_piv, rhs)[0], want)


@pytest.mark.parametrize("n, width", [(40, 12), (12, 40)],
                         ids=["primal", "dual"])
def test_scipy_fallback_factors_in_place_with_the_same_bits(monkeypatch, n,
                                                            width):
    fallback = _lapack.bind(ctypes.CDLL(_ctypes.__file__))
    mat, _ = _spd(30, 2)
    work = mat.copy()
    got, info = fallback.potrf(work.T, overwrite_a=True)
    assert info == 0 and np.shares_memory(got, work)
    assert bitwise_equal(got, fallback.potrf(mat)[0])
    for routines in (fallback, _lapack.routines()):
        work = mat.copy()
        got, piv, info = routines.getrf(work.T, overwrite_a=True)
        assert info == 0 and np.shares_memory(got, work)
        want, want_piv, _ = routines.getrf(mat)
        assert bitwise_equal(got, want) and np.array_equal(piv, want_piv)
    gen = np.random.default_rng(width)
    b = gen.uniform(-1.0, 1.0, (n, width))
    y = gen.standard_normal(n)
    want = ridge_solve(b, y, 0.1)
    monkeypatch.setattr(_lapack, "routines", lambda: fallback)
    _assert_solves_bitwise_equal(b, y, 0.1)
    assert bitwise_equal(ridge_solve(b, y, 0.1).coefficients,
                          want.coefficients)


def test_bound_routines_refuse_shapes_lapack_would_overrun():
    # The routines take n from the matrix, so a non-square matrix or a
    # right-hand side of another length must not reach the library.
    routines = _lapack.routines()
    ldu, piv, info = routines.sytrf(np.eye(3))
    with pytest.raises(ValueError, match="square"):
        routines.sytrf(np.ones((3, 2)))
    with pytest.raises(ValueError, match="vector of 3"):
        routines.sytrs(ldu, piv, np.ones(2))
    with pytest.raises(ValueError, match="vector of 3"):
        routines.potrs(np.eye(3), np.ones(4))


def test_a_zero_lu_pivot_raises_solver_error():
    # All-ones is singular in exact arithmetic too: Cholesky and LU both
    # meet an exact zero pivot.
    assert ridge._spd_solver(np.ones((2, 2))) is None
    with pytest.raises(SolverError, match="could not be factorized") as exc:
        ridge._lu_solver(np.ones((2, 2)))
    assert exc.value.condition_estimate == np.inf


@pytest.mark.parametrize("solve, message", [
    (lambda v: np.full_like(v, np.nan), "non-finite coefficients"),
    # Each step solves half of what is left: the residual is 0.5, then
    # 0.25 after the one refinement step.
    (lambda v: 0.5 * v, "solve residual 2.500e-01 exceeds 1e-10"),
], ids=["non-finite", "residual"])
def test_the_residual_gate_raises_solver_error(solve, message):
    with pytest.raises(SolverError, match=message) as exc:
        ridge._refined_solve(lambda v: np.eye(3) @ v, np.ones(3), solve,
                             42.0)
    assert exc.value.condition_estimate == 42.0


@pytest.mark.parametrize("calls", [1, 2], ids=["direct", "refined"])
def test_refined_solve_returns_the_residual_of_its_iterate(calls):
    # A solve that returns 1 - 2^-k of the exact solution leaves a
    # relative residual of about 2^-k, and 2^-2k after the refinement
    # step: k = 40 meets the 1e-10 target at once, k = 20 after one step.
    mat, rhs = np.diag([1.0, 2.0, 4.0]), np.array([1.0, -3.0, 0.5])
    frac = 1.0 - 2.0 ** -(40 if calls == 1 else 20)
    seen = []

    def solve(v):
        seen.append(v)
        return frac * np.linalg.solve(mat, v)

    coef, res = ridge._refined_solve(lambda v: mat @ v, rhs, solve, 1.0)
    assert len(seen) == calls
    assert np.array_equal(res, mat @ coef - rhs)


def test_design_matrix_wrapper_properties():
    dm = DesignMatrix(values=np.zeros((7, 3)), feature_order=(None,) * 3)
    assert dm.n == 7
    assert dm.width == 3
