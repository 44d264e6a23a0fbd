"""Design matrices and the regularized least-squares output layer.

Only the output layer of a feature network is learned.  Given fixed
features phi_1..phi_J and data (x_i, y_i), the coefficient vector solves

    min_a (1/n) sum_i (y_i - sum_j a_j phi_j(x_i))^2 + (penalty/n) |a|^2,

whose normal equations (B^T B + penalty I) a = B^T y are symmetric
positive definite for any penalty > 0 and are solved by a Cholesky
factorization.  The LAPACK routines come from the OpenBLAS that numpy
already links (fixnet._lapack), so a fit never imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack, features as feat
from .errors import ParameterError, SolverError

# Relative residual ceiling for an accepted solve; one step of iterative
# refinement is applied first if the direct solve lands above the target.
_RESIDUAL_TARGET = 1e-10


@dataclass(frozen=True)
class DesignMatrix:
    """Feature evaluations for a batch of inputs.

    values has shape (n, J) with column j holding feature j evaluated at
    every row of the input batch; feature_order is the FeatureSet that
    was evaluated, so coefficients can be matched back to features.
    """

    values: np.ndarray
    feature_order: feat.FeatureSet

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]


def build_design_matrix(features, x):
    """Evaluate every feature of a FeatureSet on a batch of inputs.

    features is a FeatureSet (what enumerate_features_* return) and x an
    (n, d) batch or a (d,) point.  After the checks below, the (n, J)
    values come from features.eval_features, whose column j equals
    eval_feature(x, features[j]) bit for bit; the features module
    docstring describes the plan.  A (0, d) batch gives a (0, J) matrix.
    Points outside the approximation cube are evaluated as they are;
    the fits and predict clamp their inputs to the cube first.
    """
    if not isinstance(features, feat.FeatureSet):
        raise ParameterError("features must be a FeatureSet")
    d = features.d
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    if xb.ndim != 2 or xb.shape[1] != d:
        raise ParameterError(f"input batch must have shape (n, {d})")
    if not np.all(np.isfinite(xb)):
        raise ParameterError("input batch contains non-finite values")

    feat._warn_if_low_R(features)
    return DesignMatrix(values=feat.eval_features(features, xb),
                        feature_order=features)


@dataclass(frozen=True)
class RidgeSolution:
    """Output-layer coefficients with solve diagnostics."""

    coefficients: np.ndarray
    penalty: float
    objective: float
    gram_condition_estimate: float


def _spd_solver(mat):
    """Factor an SPD matrix once; return (solve closure, condition estimate).

    The calls are those of scipy's cho_factor (upper, uncleaned), dpocon
    and cho_solve, made through fixnet._lapack on the LAPACK of numpy's
    own OpenBLAS; where the two libraries share their kernels, as the
    tests check, the bits are scipy's.  When dpotrf finds the matrix not
    positive definite, pivoted LU (dgetrf, dgetrs) takes over with a
    condition number from np.linalg.cond; an exactly zero LU pivot
    raises SolverError.
    """
    lapack = _lapack.routines()
    factor, info = lapack.potrf(mat)
    if info > 0:
        cond = float(np.linalg.cond(mat, 1))
        lu, piv, info = lapack.getrf(mat)
        if info > 0:
            raise SolverError("normal equations could not be factorized",
                              condition_estimate=cond)
        return (lambda v: lapack.getrs(lu, piv, v)[0]), cond
    rcond, info = lapack.pocon(factor, np.linalg.norm(mat, 1))
    cond = np.inf if info != 0 or rcond == 0 else float(1.0 / rcond)
    return (lambda v: lapack.potrs(factor, v)[0]), cond


def _refined_solve(mat, rhs, solve, cond):
    """Direct solve with at most one refinement step and a residual gate."""
    coef = solve(rhs)
    scale = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
    for attempt in range(2):
        if not np.all(np.isfinite(coef)):
            raise SolverError(
                "solver produced non-finite coefficients",
                condition_estimate=cond,
            )
        residual = float(np.linalg.norm(mat @ coef - rhs)) / scale
        if residual <= _RESIDUAL_TARGET:
            return coef
        if attempt == 0:
            coef = coef + solve(rhs - mat @ coef)
    raise SolverError(
        f"solve residual {residual:.3e} exceeds {_RESIDUAL_TARGET:.0e}",
        condition_estimate=cond,
    )


def ridge_solve(design, y, penalty):
    """Solve the regularized normal equations for the output layer.

    The normal equations (B^T B + penalty I) a = B^T y are solved through
    an SPD factorization.  When J > n the J-dimensional system is replaced
    by the identity a = B^T (B B^T + penalty I)^{-1} y, which has the same
    unique minimizer but factors an n-by-n matrix instead; the residual of
    the original normal equations is still what is checked.  Raises
    SolverError on factorization failure, non-finite output, or a relative
    residual above 1e-10, carrying a condition estimate of the factored
    matrix.
    """
    b = design.values if isinstance(design, DesignMatrix) else np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    if b.ndim != 2:
        raise ParameterError("design matrix must be 2-D")
    n, width = b.shape
    if y.shape != (n,):
        raise ParameterError(f"response must have shape ({n},)")
    if not penalty > 0:
        raise ParameterError("penalty must be positive")
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(y))):
        raise ParameterError("design matrix and response must be finite")

    if width > n:
        outer = b @ b.T + penalty * np.eye(n)
        solve, cond = _spd_solver(outer)
        dual = _refined_solve(outer, y, solve, cond)
        coef = b.T @ dual
        # Residual of the J-dimensional system, evaluated without forming
        # the J x J Gram matrix: (B^T B + p I) B^T z - B^T y = B^T r_dual.
        primal_res = b.T @ (outer @ dual - y)
        rhs_norm = max(float(np.linalg.norm(b.T @ y)), np.finfo(float).tiny)
        residual = float(np.linalg.norm(primal_res)) / rhs_norm
        if not np.all(np.isfinite(coef)) or residual > _RESIDUAL_TARGET:
            raise SolverError(
                f"solve residual {residual:.3e} exceeds {_RESIDUAL_TARGET:.0e}",
                condition_estimate=cond,
            )
    else:
        gram = b.T @ b + penalty * np.eye(width)
        rhs = b.T @ y
        solve, cond = _spd_solver(gram)
        coef = _refined_solve(gram, rhs, solve, cond)

    obj = objective_value(b, y, coef, penalty)
    return RidgeSolution(
        coefficients=coef,
        penalty=float(penalty),
        objective=obj,
        gram_condition_estimate=float(cond),
    )


def objective_value(design, y, coefficients, penalty):
    """Penalized empirical squared loss (1/n)|y - Ba|^2 + (penalty/n)|a|^2."""
    b = design.values if isinstance(design, DesignMatrix) else np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.asarray(coefficients, dtype=float)
    n = b.shape[0]
    resid = y - b @ a
    return float((resid @ resid + penalty * (a @ a)) / n)


def coefficient_bound_audit(solution, y):
    """Check |a|^2 <= |y|^2 / penalty, an identity every exact solve obeys.

    The minimizer cannot beat the zero vector's objective, which forces the
    penalty term below the total response energy; a failure therefore
    signals a numerically broken solve rather than unusual data.
    """
    y = np.asarray(y, dtype=float)
    a = solution.coefficients
    return float(a @ a) <= float(y @ y) / solution.penalty
