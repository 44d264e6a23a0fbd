"""Logistic squasher, its derivatives, and the constants used by every
approximation bound in this package.

All subnetwork constructions are anchored at two points of the logistic
sigmoid: t_id = 0 (where the first derivative is 1/4) and t_sq = 1 (where
the second derivative is nonzero).  The bound formulas additionally need
the sup norms of the second and third derivative, which we obtain by dense
grid maximization; for the logistic these sit near 1/(6*sqrt(3)) and 1/8.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError

__all__ = [
    "sigma",
    "sigma_derivative",
    "ActivationProfile",
    "admissibility_constants",
]

# Anchor points: sigma'(T_ID) != 0 and sigma''(T_SQ) != 0.
T_ID = 0.0
T_SQ = 1.0

# Grid used for numeric sup-norm estimation.  Outside |x| <= 50 every
# derivative of the logistic is below exp(-50), far under the grid maximum,
# so the tail contributes nothing.
_SUP_GRID_HALF_WIDTH = 50.0
_SUP_GRID_STEP = 1e-3
# Relative padding covering the gap between the grid maximum and the true
# sup (the grid can miss the peak by up to half a step).
_SUP_GRID_PAD = 1e-7


def maybe_scalar(x):
    """A float for a 0-d result, else x itself."""
    return float(x) if np.ndim(x) == 0 else x


def sigma(x):
    """Logistic squasher 1/(1 + exp(-x)), evaluated branch-wise so neither
    tail overflows.  Accepts scalars or arrays.

    With e = exp(-|x|), the value is 1/(1 + e) where x >= 0 and
    e/(1 + e) elsewhere: the bits of the two-branch form, computed
    without gathering either branch.
    """
    x = np.asarray(x, dtype=float)
    e = np.abs(x, out=np.empty_like(x))
    np.exp(np.negative(e, out=e), out=e)
    den = e + 1.0
    np.copyto(e, 1.0, where=x >= 0)
    return maybe_scalar(np.divide(e, den, out=e))


def sigma_derivative(x, order):
    """Derivative of the logistic squasher of the given order (1, 2 or 3).

    Closed forms in terms of s = sigma(x):

        order 1:  s*(1-s)
        order 2:  s*(1-s)*(1-2s)
        order 3:  s*(1-s)*(1-6s+6s^2)
    """
    if order not in (1, 2, 3):
        raise ParameterError(f"unsupported derivative order {order!r}")
    s = np.asarray(sigma(x))
    d1 = s * (1.0 - s)
    if order == 1:
        out = d1
    elif order == 2:
        out = d1 * (1.0 - 2.0 * s)
    else:
        out = d1 * (1.0 - 6.0 * s + 6.0 * s * s)
    return maybe_scalar(out)


@dataclass(frozen=True)
class ActivationProfile:
    """Constants of the logistic squasher used by the bound formulas.

    Attributes
    ----------
    t_sigma_id : anchor with nonzero first derivative (0)
    t_sigma : anchor with nonzero second derivative (1)
    d1_at_id : sigma'(t_sigma_id) = 1/4
    d2_at_sq : sigma''(t_sigma) = (e^-2 - e^-1)/(1+e^-1)^3, negative
    sup_d2, sup_d3 : grid-maximized sup norms of |sigma''| and |sigma'''|
    """

    t_sigma_id: float
    t_sigma: float
    sup_d2: float
    sup_d3: float
    d1_at_id: float
    d2_at_sq: float

    @property
    def relu_constant(self):
        """56 * max{sup_d2, sup_d3, 1} / min{2*d1_at_id, |d2_at_sq|, 1}."""
        return 56.0 * self._max_over_min()

    @property
    def hat_constant(self):
        """1792 * max{sup_d2, sup_d3, 1} / min{2*d1_at_id, |d2_at_sq|, 1}."""
        return 1792.0 * self._max_over_min()

    def _max_over_min(self):
        top = max(self.sup_d2, self.sup_d3, 1.0)
        bot = min(2.0 * self.d1_at_id, abs(self.d2_at_sq), 1.0)
        return top / bot


def _grid_sup(order):
    grid = np.arange(-_SUP_GRID_HALF_WIDTH, _SUP_GRID_HALF_WIDTH + _SUP_GRID_STEP,
                     _SUP_GRID_STEP)
    peak = float(np.max(np.abs(sigma_derivative(grid, order))))
    # Pad for grid quantization, then keep 12 digits.
    return float(f"{peak * (1.0 + _SUP_GRID_PAD):.12g}")


@lru_cache(maxsize=1)
def admissibility_constants():
    """Compute the ActivationProfile for the logistic squasher.

    Also spot-verifies the tail condition |sigma(y) - 1| <= 1/y (y > 0) and
    |sigma(y)| <= 1/|y| (y < 0) on a grid, which the hat-block constructions
    rely on.
    """
    ys = np.concatenate([np.arange(1.0, 60.0, 0.25), -np.arange(1.0, 60.0, 0.25)])
    vals = sigma(ys)
    gap = np.where(ys > 0, np.abs(vals - 1.0), np.abs(vals))
    if not np.all(gap <= 1.0 / np.abs(ys)):
        raise AssertionError("logistic tail condition failed on the check grid")
    return ActivationProfile(
        t_sigma_id=T_ID,
        t_sigma=T_SQ,
        sup_d2=_grid_sup(2),
        sup_d3=_grid_sup(3),
        d1_at_id=sigma_derivative(T_ID, 1),
        d2_at_sq=sigma_derivative(T_SQ, 2),
    )
