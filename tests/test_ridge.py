"""Tests for design-matrix construction and the ridge output-layer solve."""

import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest

from fixnet import ridge
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

DIRECTIONS = np.array([[0.8, 0.6], [-0.35, 0.9]])


@contextlib.contextmanager
def _quiet():
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="scale R is below", category=RuntimeWarning
        )
        yield


def _dense_oracle(b, y, penalty):
    """Textbook solve of the normal equations with a dense inverse."""
    gram = b.T @ b + penalty * np.eye(b.shape[1])
    return np.linalg.inv(gram) @ (b.T @ y)


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_design_matrix_columns_match_single_feature_eval():
    x = Stream(1).uniform_matrix(30, 2, low=-1.0, high=1.0)
    with _quiet():
        feats = enumerate_features_cube(2, 2, 2, 1.0, 1e5)
        design = build_design_matrix(feats, x)
        assert design.n == 30 and design.width == len(feats)
        for j, f in enumerate(feats):
            assert _bitwise_equal(design.values[:, j], eval_feature(x, f)), j

        line_feats = enumerate_features_pp(2, 2, 3, 1.0, 1e5, DIRECTIONS)
        line_design = build_design_matrix(line_feats, x)
        for j, f in enumerate(line_feats):
            assert _bitwise_equal(line_design.values[:, j], eval_feature(x, f)), j


def test_design_matrix_memory_stays_near_its_output():
    # The fold works on bounded blocks of groups, so one call allocates
    # little beyond the (n, J) result however many groups there are.
    x = Stream(3).uniform_matrix(100, 6, low=-1.0, high=1.0)
    directions = Stream(4).uniform_matrix(4, 6, low=-1.0, high=1.0)
    with _quiet():
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
    with _quiet():
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
    import scipy.linalg

    shapes = []
    lu_factor = scipy.linalg.lu_factor

    def spy(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return lu_factor(mat, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", spy)
    gen = np.random.default_rng(3)
    b = gen.standard_normal((6, 3))
    b[:, 2] = b[:, 1]
    y = gen.standard_normal(6)
    sol = ridge_solve(b, y, 1e-20)
    assert shapes == [(3, 3)]
    assert coefficient_bound_audit(sol, y)


def test_design_matrix_wrapper_properties():
    dm = DesignMatrix(values=np.zeros((7, 3)), feature_order=(None,) * 3)
    assert dm.n == 7
    assert dm.width == 3
