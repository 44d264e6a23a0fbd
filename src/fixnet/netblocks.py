"""Fixed-weight scalar subnetworks built from the logistic squasher.

Five closed-form constructions, each a small network with frozen inner
weights whose output approximates an elementary function on [-a, a]:

    f_id    ~ x          error O(a^2 / R)
    f_sq    ~ x^2        error O(a^3 / R)
    f_mult  ~ x * y      error O(a^3 / R)
    f_relu  ~ max(x, 0)  error O(a^3 / R)
    f_hat   ~ tent of half-width 2a/M centered at an anchor, error O(M^3 / R)

R is the shared scale parameter: larger R means flatter sigmoid arguments
and smaller approximation error.  Each block comes with a bound_* helper
returning the guaranteed sup error so callers can assert the inequality
verbatim.

Numerics: the square/product blocks multiply a second difference of
sigmoids by R^2.  Forming that difference naively cancels catastrophically
once R is large, so the difference is evaluated through an exact
rearrangement (see _sigma_second_diff) that keeps full relative accuracy.
The supported range is R <= 1e8; values above are clamped with a warning.

Speed: f_mult is the hot path of every design build.  On contiguous
arrays it runs in four passes over memory: a compiled loop
(fixnet._kernel) writes the two expm1 arguments, numpy's np.expm1 runs in
place on each, and a second compiled loop does the remaining arithmetic.
Its numpy path, 32 ufunc calls, runs everywhere else (broadcast and 0-d
calls, or no C compiler) and is the oracle: both give the same bits.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernel
from .activation import admissibility_constants, maybe_scalar, sigma
from .errors import ParameterError, warn

__all__ = [
    "R_SUPPORTED_MAX",
    "BlockParams",
    "clamp_scale",
    "f_id",
    "f_sq",
    "f_mult",
    "f_relu",
    "f_hat",
    "bound_id",
    "bound_sq",
    "bound_mult",
    "bound_relu",
    "bound_hat",
    "exact_hat",
]

R_SUPPORTED_MAX = 1e8


def clamp_scale(R):
    """The one rule for the scale R: it must be positive (NaN is refused),
    and it is clamped to the numerically supported range, with a warning
    when the clamp bites."""
    if not R > 0:
        raise ParameterError(f"scale R must be positive, got {R!r}")
    if R > R_SUPPORTED_MAX:
        warn(f"scale R={R:g} exceeds the supported range; clamped to "
             f"{R_SUPPORTED_MAX:g} (double precision limit of the product block)")
        return R_SUPPORTED_MAX
    return float(R)


@dataclass(frozen=True)
class BlockParams:
    """Shared block parameters: scale R, domain half-width a, and (for hat
    blocks) the grid resolution M."""

    R: float
    a: float = 1.0
    M: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "R", clamp_scale(self.R))
        if not self.a > 0:
            raise ParameterError(f"a must be positive, got {self.a!r}")
        if self.M is not None and self.M < 1:
            raise ParameterError(f"M must be a positive integer, got {self.M!r}")


# ---------------------------------------------------------------------------
# stable sigmoid differences
# ---------------------------------------------------------------------------

def _sigma_diff(base, delta):
    """sigma(base + delta) - sigma(base), cancellation-free.

    With z = exp(-base), m = expm1(-delta), E = 1 + m:

        sigma(base+delta) - sigma(base) = -z*m / ((1+z)*(1+z*E))

    Every factor is computed to relative accuracy, so the result keeps
    full precision even when |delta| ~ 1e-16.  Requires base >= 0 (all
    block anchors are 0 or 1).
    """
    z = np.exp(-base)
    m = np.expm1(-np.asarray(delta, dtype=float))
    E = 1.0 + m
    return -z * m / ((1.0 + z) * (1.0 + z * E))


def _sigma_second_diff(base, delta):
    """sigma(base+2*delta) - 2*sigma(base+delta) + sigma(base), exact form.

    Same notation as _sigma_diff; algebra on the logistic gives

        second difference = -z*m^2*(1 - z*E) / ((1+z)(1+z*E)(1+z*E^2))

    which has no cancelling terms, so dividing by delta^2-sized quantities
    downstream stays accurate for R up to ~1e12.
    """
    z = np.exp(-base)
    m = np.expm1(-np.asarray(delta, dtype=float))
    E = 1.0 + m
    zE = z * E
    return -z * m * m * (1.0 - zE) / ((1.0 + z) * (1.0 + zE) * (1.0 + zE * E))


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def f_id(x, params):
    """Identity block: (R / sigma'(0)) * (sigma(x/R) - sigma(0)) = 4R*sigma(x/R) - 2R."""
    prof = admissibility_constants()
    R = params.R
    x = np.asarray(x, dtype=float)
    out = (R / prof.d1_at_id) * _sigma_diff(prof.t_sigma_id, x / R)
    return maybe_scalar(out)


def f_sq(x, params):
    """Square block: (R^2 / sigma''(1)) * (sigma(2x/R+1) - 2*sigma(x/R+1) + sigma(1))."""
    prof = admissibility_constants()
    R = params.R
    x = np.asarray(x, dtype=float)
    out = (R * R / prof.d2_at_sq) * _sigma_second_diff(prof.t_sigma, x / R)
    return maybe_scalar(out)


def _second_diff_into(z, m, e, ze, t, dest):
    """_sigma_second_diff(base, delta) into dest, with z = exp(-base) and
    m holding -delta on entry.

    The same ufuncs on the same operands in the same order as
    _sigma_second_diff, each writing into one of the scratch arrays m, e,
    ze and t (all of dest's shape); dest may be m.
    """
    np.expm1(m, out=m)               # m
    np.add(1.0, m, out=e)            # E
    np.multiply(z, e, out=ze)        # zE
    np.multiply(ze, e, out=e)
    np.add(1.0, e, out=e)            # 1 + zE*E
    np.add(1.0, ze, out=t)
    np.multiply(1.0 + z, t, out=t)   # (1+z)(1+zE)
    np.multiply(t, e, out=e)         # denominator
    np.subtract(1.0, ze, out=ze)     # 1 - zE
    np.multiply(-z, m, out=t)
    np.multiply(t, m, out=t)
    np.multiply(t, ze, out=t)        # numerator
    np.divide(t, e, out=dest)


def _kernel_scratch(shape, x, y, result, scratch):
    """The two scratch arrays of the compiled path of f_mult, or None
    when it does not apply: no kernel, a 0-d or broadcast call, or an
    operand that is not a C-contiguous float64 array of the result's
    shape.  The operands are checked before the scratch is allocated."""
    given = () if scratch is None else tuple(scratch[:2])
    lib = _kernel.library() if shape else None
    if lib is None or not all(a.shape == shape and a.dtype == np.float64
                              and a.flags.c_contiguous
                              for a in (x, y, result, *given)):
        return None
    m, e = given or (np.empty(shape), np.empty(shape))
    return lib, m, e


def f_mult(x, y, params, out=None, scratch=None):
    """Product block.

    (R^2 / (4*sigma''(1))) * (sigma(2u+1) - 2*sigma(u+1) - sigma(2v+1) + 2*sigma(v+1))
    with u = (x+y)/R and v = (x-y)/R; the two second differences around 1
    cancel their constant terms, leaving ~ x*y.

    x and y broadcast against each other.  The result goes to out when it
    is given (out must not overlap x or y); otherwise a new array, or a
    float for 0-d inputs, is returned.  The value is bitwise
    _sigma_second_diff(1, u) - _sigma_second_diff(1, v) times the scale.
    The halves hand expm1 (x+y)/(-R) and (y-x)/R: IEEE division and
    subtraction are sign-symmetric, so these are exactly -u and -v, up to
    the sign of a zero v, which m*m squares away.  scratch is four arrays
    of the result's shape overlapping none of x, y and out, or None for
    new ones.

    When x, y, the result and the first two scratch arrays are
    C-contiguous float64 arrays of one shape, and fixnet._kernel could
    build its library, the block runs in four passes: a C loop writes
    the two expm1 arguments into scratch, np.expm1 runs in place on each,
    and a second C loop does the rest of the arithmetic.  Otherwise it
    runs as 32 numpy ufunc calls in the four scratch arrays.  Both do the
    same IEEE operations on the same operands in the same order, so they
    give the same bits; the numpy path is the oracle the tests hold the
    compiled one to.  The compiled loops raise no numpy RuntimeWarning
    where the numpy path's ufuncs raise one for an overflow or an invalid
    operation; np.expm1 raises them on both paths.
    """
    prof = admissibility_constants()
    R = params.R
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast(x, y).shape
    result = np.empty(shape) if out is None else out
    z = np.exp(-prof.t_sigma)
    scale = R * R / (4.0 * prof.d2_at_sq)
    compiled = _kernel_scratch(shape, x, y, result, scratch)
    if compiled is not None:
        lib, m, e = compiled
        lib.fm_halves(x.ctypes.data, y.ctypes.data, m.ctypes.data,
                      e.ctypes.data, m.size, R)
        np.expm1(m, out=m)
        np.expm1(e, out=e)
        lib.fm_combine(m.ctypes.data, e.ctypes.data, result.ctypes.data,
                       m.size, z, 1.0 + z, -z, scale)
        return result
    m, e, ze, t = (scratch if scratch is not None
                   else [np.empty(shape) for _ in range(4)])
    np.add(x, y, out=m)
    np.divide(m, -R, out=m)
    _second_diff_into(z, m, e, ze, t, result)
    np.subtract(y, x, out=m)
    np.divide(m, R, out=m)
    _second_diff_into(z, m, e, ze, t, m)
    np.subtract(result, m, out=result)
    np.multiply(scale, result, out=result)
    return maybe_scalar(result) if out is None else result


def _check_relu_params(params):
    prof = admissibility_constants()
    if params.a < 1.0:
        raise ParameterError(f"relu block requires a >= 1, got a={params.a!r}")
    threshold = prof.sup_d2 * params.a / (2.0 * prof.d1_at_id)
    if params.R < threshold:
        raise ParameterError(
            f"relu block requires R >= {threshold:g} for a={params.a:g}, got R={params.R:g}"
        )


def f_relu(x, params):
    """Positive-part block: f_mult(f_id(x), sigma(R*x))."""
    _check_relu_params(params)
    x = np.asarray(x, dtype=float)
    out = f_mult(f_id(x, params), sigma(params.R * x), params)
    return maybe_scalar(out)


def _hat_network(x, y, M, half_width, R):
    # y may broadcast against x.  M = 0 gives the constant tent 1, as the
    # input scale M/(2*half_width) is 0.  The relu blocks see arguments in
    # [-(M+1), M+1], so their own R test is the tent's precondition.
    t = (M / (2.0 * half_width)) * (np.asarray(x, dtype=float) - y)
    relu_params = BlockParams(R=R, a=float(M + 1))
    return (
        f_relu(t + 1.0, relu_params)
        - 2.0 * f_relu(t, relu_params)
        + f_relu(t - 1.0, relu_params)
    )


def f_hat(x, y, params):
    """Tent block: approximates (1 - (M/2a)*|x - y|)_+ via three relu blocks.

    Needs a grid resolution M >= 1; the relu blocks check R themselves.
    """
    if params.M is None or params.M < 1:
        raise ParameterError("hat block requires a positive grid resolution M")
    return maybe_scalar(_hat_network(x, y, params.M, params.a, params.R))


def exact_hat(x, y, M, half_width):
    """The exact tent (1 - (M/(2*half_width))*|x - y|)_+ the hat block targets."""
    t = 1.0 - (M / (2.0 * half_width)) * np.abs(np.asarray(x, dtype=float) - y)
    return maybe_scalar(np.maximum(t, 0.0))


# ---------------------------------------------------------------------------
# guaranteed sup-error bounds on [-a, a]
# ---------------------------------------------------------------------------

def bound_id(params):
    prof = admissibility_constants()
    return prof.sup_d2 * params.a**2 / (2.0 * prof.d1_at_id * params.R)


def bound_sq(params):
    prof = admissibility_constants()
    return 5.0 * prof.sup_d3 * params.a**3 / (3.0 * abs(prof.d2_at_sq) * params.R)


def bound_mult(params):
    prof = admissibility_constants()
    return 20.0 * prof.sup_d3 * params.a**3 / (3.0 * abs(prof.d2_at_sq) * params.R)


def bound_relu(params):
    prof = admissibility_constants()
    return prof.relu_constant * params.a**3 / params.R


def bound_hat(params):
    prof = admissibility_constants()
    if params.M is None:
        raise ParameterError("bound_hat requires M")
    return prof.hat_constant * params.M**3 / params.R
