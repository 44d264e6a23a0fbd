"""Design matrices and the regularized least-squares output layer.

Only the output layer of a feature network is learned.  Given fixed
features phi_1..phi_J and data (x_i, y_i), the coefficient vector solves

    min_a (1/n) sum_i (y_i - sum_j a_j phi_j(x_i))^2 + (penalty/n) |a|^2,

whose normal equations (B^T B + penalty I) a = B^T y are symmetric
positive definite for any penalty > 0 and are solved by a Cholesky
factorization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import features as feat
from .errors import ParameterError, SolverError

# Row-block size for memory-bounded Gram accumulation.
_GRAM_CHUNK = 4096
# Above this many rows the Gram matrix is accumulated in pairwise fashion
# over row blocks, which keeps summation error O(log n) instead of O(n).
_PAIRWISE_THRESHOLD = 10_000
# Relative residual ceiling for an accepted solve; one step of iterative
# refinement is applied first if the direct solve lands above the target.
_RESIDUAL_TARGET = 1e-10


@dataclass(frozen=True)
class DesignMatrix:
    """Feature evaluations for a batch of inputs.

    values has shape (n, J) with column j holding feature j evaluated at
    every row of the input batch; feature_order holds the features in
    column order (the FeatureSet that was evaluated, or a tuple of
    descriptors) so coefficients can be matched back to features.
    """

    values: np.ndarray
    feature_order: feat.FeatureSet | tuple

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]


def build_design_matrix(features, x, warn_out_of_domain=True):
    """Evaluate every feature on a batch of inputs.

    features is a FeatureSet (what enumerate_features_* return) or a
    sequence of FeatureDescriptors.  After the checks below, the matrix
    comes from features.eval_features: the product tree of the features'
    (kind, d, N) is compiled once and cached, each column's group, leaves
    and root node follow from the FeatureSet arrays by index arithmetic,
    tree nodes are de-duplicated by their child pair, shared nodes
    (constant and raw-monomial leaves only) are folded once for all
    groups, and per-group nodes are folded level by level for blocks of
    whole groups and rows of at most features._BLOCK_ENTRY_BUDGET
    entries, so memory beyond the (n, J) result stays bounded.  Each
    level makes one in-place f_mult call per child class per block, and
    each block's columns, contiguous in a FeatureSet, are written by one
    np.take.  Column j equals eval_feature(x, features[j]) bit for bit.
    The returned feature_order is the FeatureSet itself, or the
    descriptors as a tuple.  A (0, d) batch gives a (0, J) matrix.
    """
    if isinstance(features, feat.FeatureSet):
        lead = features  # it carries the family attributes of its features
    else:
        features = tuple(features)
        if not features:
            raise ParameterError("need at least one feature")
        lead = features[0]
        if any(f.d != lead.d for f in features):
            raise ParameterError("features disagree on input dimension")
    d = lead.d
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    if xb.ndim != 2 or xb.shape[1] != d:
        raise ParameterError(f"input batch must have shape (n, {d})")
    if not np.all(np.isfinite(xb)):
        raise ParameterError("input batch contains non-finite values")

    if warn_out_of_domain:
        half = lead.half_width if lead.kind == "cube" else lead.amplitude
        if np.any(np.abs(xb) > half + 1e-12):
            warnings.warn(
                "design-matrix inputs fall outside the approximation cube",
                RuntimeWarning,
                stacklevel=2,
            )

    feat._warn_if_low_R(lead)
    return DesignMatrix(values=feat.eval_features(features, xb),
                        feature_order=features)


def _pairwise_reduce(parts):
    while len(parts) > 1:
        merged = []
        for i in range(0, len(parts) - 1, 2):
            merged.append(parts[i] + parts[i + 1])
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return parts[0]


def _accumulate(b, other):
    """b.T @ other, accumulated pairwise over row blocks for tall matrices."""
    n = b.shape[0]
    if n <= _PAIRWISE_THRESHOLD:
        return b.T @ other
    parts = [
        b[i : i + _GRAM_CHUNK].T @ other[i : i + _GRAM_CHUNK]
        for i in range(0, n, _GRAM_CHUNK)
    ]
    return _pairwise_reduce(parts)


@dataclass(frozen=True)
class RidgeSolution:
    """Output-layer coefficients with solve diagnostics."""

    coefficients: np.ndarray
    penalty: float
    objective: float
    gram_condition_estimate: float


def _spd_solver(mat):
    """Factor an SPD matrix once; return (solve closure, condition estimate).

    Falls back to pivoted elimination when the Cholesky factorization
    reports the matrix as not positive definite; raises SolverError when
    that fails too.
    """
    import scipy.linalg  # here, so importing the package does not load scipy
    anorm = np.linalg.norm(mat, 1)
    try:
        factor = scipy.linalg.cho_factor(mat, lower=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(mat, 1))
        try:
            lu, piv = scipy.linalg.lu_factor(mat, check_finite=False)
        except np.linalg.LinAlgError:
            raise SolverError(
                "normal equations could not be factorized",
                condition_estimate=cond,
            ) from exc
        return (lambda v: scipy.linalg.lu_solve((lu, piv), v,
                                                check_finite=False)), cond
    rcond, info = scipy.linalg.lapack.dpocon(factor[0], anorm)
    cond = np.inf if info != 0 or rcond == 0 else float(1.0 / rcond)
    return (lambda v: scipy.linalg.cho_solve(factor, v,
                                             check_finite=False)), cond


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
        outer = _accumulate(b.T, b.T) + penalty * np.eye(n)
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
        gram = _accumulate(b, b) + penalty * np.eye(width)
        rhs = _accumulate(b, y)
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
