"""Design matrices and the regularized least-squares output layer.

Only the output layer of a feature network is learned.  Given fixed
features phi_1..phi_J and data (x_i, y_i), the coefficient vector solves

    min_a (1/n) sum_i (y_i - sum_j a_j phi_j(x_i))^2 + (penalty/n) |a|^2,

whose normal equations (B^T B + penalty I) a = B^T y are symmetric
positive definite for any penalty > 0 and are solved by a Cholesky
factorization.  The LAPACK routines come from the OpenBLAS that numpy
already links (fixnet._lapack), so a fit never imports scipy.

ridge_solve chooses its operand pair once: (B^T, B) for the J x J
system, or (B, B^T) for the n x n system when J > n.  Forming the system,
applying it to an iterate and the one _refined_solve call all take that
pair; the n x n path then maps its solution through B^T and checks the
residual of the J x J normal equations.

Besides the design, a solve holds one Gram-sized array, the system: the
penalty is added in place to the diagonal of the Gram matrix, its 1-norm
is reduced in row blocks, and dpotrf factors it in place.  Nothing reads
the system after that.  The residual of an iterate comes from the
design, as B^T (B x) + penalty x (or B (B^T x) + penalty x for the n x n
system), and a refinement step reuses the one factor.  When dpotrf finds
the system not positive definite, the pivoted LU fallback forms it again
in the same array and factors it there, with a dgecon estimate of its
condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack, features as feat
from .data import as_batch
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
    xb, _ = as_batch(x, features.d)
    if not np.all(np.isfinite(xb)):
        raise ParameterError("input batch contains non-finite values")
    return DesignMatrix(values=feat.eval_features(features, xb),
                        feature_order=features)


@dataclass(frozen=True)
class RidgeSolution:
    """Output-layer coefficients with solve diagnostics."""

    coefficients: np.ndarray
    penalty: float
    objective: float
    gram_condition_estimate: float


def _one_norm(mat):
    """np.linalg.norm(mat, 1) bit for bit, without its abs() copy of mat,
    for a square mat or one of two or more columns (numpy sums a lone
    column pairwise).

    The column sums run over row blocks of at most
    features._BLOCK_ENTRY_BUDGET entries: each block's abs() goes into a
    buffer below the running sums, which one axis-0 reduction adds row
    after row in the order the whole-matrix reduction takes.
    """
    n = mat.shape[1]
    step = max(1, feat._BLOCK_ENTRY_BUDGET // max(n, 1))
    sums = np.zeros(n)
    buf = np.empty((min(step, len(mat)) + 1, n))
    for start in range(0, len(mat), step):
        rows = mat[start:start + step]
        np.abs(rows, out=buf[1:len(rows) + 1])
        buf[0] = sums
        np.add.reduce(buf[:len(rows) + 1], axis=0, out=sums)
    return sums.max()


def _system(left, right, penalty, out=None):
    """The system left @ right + penalty I, formed in out if given.

    The penalty goes onto the diagonal in place.  Off it, adding
    penalty * eye would add 0.0, which leaves every entry but -0.0 as it
    is; a Gram entry is -0.0 only when every product in its sum is a
    signed zero.
    """
    mat = np.matmul(left, right, out=out)
    mat.flat[::len(mat) + 1] += penalty
    return mat


def _spd_solver(mat):
    """Factor an SPD matrix in place; return (solve closure, condition
    estimate), or None when dpotrf finds mat not positive definite.

    The calls are those of scipy's cho_factor (upper, uncleaned), dpocon
    and cho_solve, made through fixnet._lapack on the LAPACK of numpy's
    own OpenBLAS; where the two libraries share their kernels, as the
    tests check, the bits are scipy's.  mat is C-contiguous and
    symmetric: dpotrf overwrites the upper triangle of the F-contiguous
    mat.T, which is the lower one of mat, so mat is not read again.
    ridge_solve takes residuals from the design, and on None forms the
    system again in mat for _lu_solver.
    """
    lapack = _lapack.routines()
    anorm = _one_norm(mat)
    factor, info = lapack.potrf(mat.T, overwrite_a=True)
    if info > 0:
        return None
    rcond, info = lapack.pocon(factor, anorm)
    cond = np.inf if info != 0 or rcond == 0 else float(1.0 / rcond)
    return (lambda v: lapack.potrs(factor, v)[0]), cond


def _lu_solver(mat):
    """Pivoted LU (dgetrf, dgetrs) of mat, in place; return (solve
    closure, condition estimate from dgecon).  An exactly zero pivot
    raises SolverError with an infinite estimate.

    mat is C-contiguous and symmetric, so dgetrf factors the F-contiguous
    mat.T in place, as _spd_solver's dpotrf does, and dgecon takes the
    1-norm from before the factorization: the LU path holds no array of
    the system's size besides mat.
    """
    lapack = _lapack.routines()
    anorm = _one_norm(mat)
    lu, piv, info = lapack.getrf(mat.T, overwrite_a=True)
    if info > 0:
        raise SolverError("normal equations could not be factorized",
                          condition_estimate=np.inf)
    rcond, info = lapack.gecon(lu, anorm)
    cond = np.inf if info != 0 or rcond == 0 else float(1.0 / rcond)
    return (lambda v: lapack.getrs(lu, piv, v)[0]), cond


def _values(design):
    """The (n, J) array of a DesignMatrix or of an array-like design."""
    return (design.values if isinstance(design, DesignMatrix)
            else np.asarray(design, dtype=float))


def _accepted(coef, res, scale, cond, last=True):
    """Whether coef, whose residual vector is res, meets the relative
    residual target |res| / scale <= _RESIDUAL_TARGET.  Raises
    SolverError if coef is not finite, or if it misses the target on the
    last attempt."""
    if not np.all(np.isfinite(coef)):
        raise SolverError("solver produced non-finite coefficients",
                          condition_estimate=cond)
    residual = float(np.linalg.norm(res)) / scale
    if residual > _RESIDUAL_TARGET and last:
        raise SolverError(
            f"solve residual {residual:.3e} exceeds {_RESIDUAL_TARGET:.0e}",
            condition_estimate=cond)
    return residual <= _RESIDUAL_TARGET


def _scale(rhs):
    """|rhs|, floored at the smallest normal float."""
    return max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)


def _refined_solve(apply, rhs, solve, cond):
    """Direct solve with at most one refinement step and a residual gate.

    apply(v) is the system times v.  Returns the accepted iterate x and
    its residual vector apply(x) - rhs.
    """
    coef = solve(rhs)
    scale = _scale(rhs)
    res = apply(coef) - rhs
    if not _accepted(coef, res, scale, cond, last=False):
        coef = coef - solve(res)
        res = apply(coef) - rhs
        _accepted(coef, res, scale, cond)
    return coef, res


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
    b = _values(design)
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

    dual = width > n
    left, right = (b, b.T) if dual else (b.T, b)
    mat = _system(left, right, penalty)
    solver = _spd_solver(mat)
    if solver is None:
        solver = _lu_solver(_system(left, right, penalty, out=mat))
    solve, cond = solver
    coef, res = _refined_solve(lambda v: left @ (right @ v) + penalty * v,
                               y if dual else b.T @ y, solve, cond)
    if dual:
        coef = b.T @ coef
        # Residual of the J-dimensional system, evaluated without forming
        # the J x J Gram matrix: (B^T B + p I) B^T z - B^T y = B^T r_dual.
        _accepted(coef, b.T @ res, _scale(b.T @ y), cond)

    obj = objective_value(b, y, coef, penalty)
    return RidgeSolution(
        coefficients=coef,
        penalty=float(penalty),
        objective=obj,
        gram_condition_estimate=float(cond),
    )


def objective_value(design, y, coefficients, penalty):
    """Penalized empirical squared loss (1/n)|y - Ba|^2 + (penalty/n)|a|^2."""
    b = _values(design)
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
