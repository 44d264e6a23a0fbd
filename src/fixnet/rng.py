"""Deterministic counter-based random streams.

Built on the splitmix64 output function: draw i of a stream with seed s is
mix64(s + (i+1) * GOLDEN) where GOLDEN = 0x9E3779B97F4A7C15.  Because each
draw depends only on (seed, index), streams can be generated in any order
or in parallel with identical results, and the sequence is reproducible in
any language with 64-bit integers.

Child streams are derived by hashing a label or index into a fresh seed
with a second mixing constant, so trial 7 of cell "m2/0.05" always sees
the same randomness, in whatever order the trials run.

Standard normals come from the inverse CDF applied to uniforms, using
Acklam's rational approximation (relative error < 1.2e-9), again for
cross-language determinism; no platform RNG is involved anywhere.
"""

import numpy as np

__all__ = ["Stream", "mix64"]

_GOLDEN = 0x9E3779B97F4A7C15
_SPLIT_CONST = 0xD1B54A32D192ED03
_INV_2_53 = 1.0 / (1 << 53)


def mix64(z):
    """splitmix64 finalizer of a uint64 array, or of a Python int, which
    goes through a one-element array and comes back as an int."""
    scalar = isinstance(z, (int, np.integer))
    if scalar:
        z = np.array([int(z) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    else:
        z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return int(z[0]) if scalar else z


# Acklam's inverse normal CDF coefficients.
_ICDF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
           1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ICDF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
           6.680131188771972e+01, -1.328068155288572e+01)
_ICDF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
           -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ICDF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
           3.754408661907416e+00)
_ICDF_PLOW = 0.02425


def normal_icdf(p):
    """Inverse standard normal CDF on (0, 1), Acklam's approximation."""
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    lo = p < _ICDF_PLOW
    hi = p > 1.0 - _ICDF_PLOW
    mid = ~(lo | hi)
    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D

    def tail(q):
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        return num / den

    out[lo] = tail(np.sqrt(-2.0 * np.log(p[lo])))
    out[hi] = -tail(np.sqrt(-2.0 * np.log(1.0 - p[hi])))
    q = p[mid] - 0.5
    r = q * q
    num = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
    den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    out[mid] = num / den
    return out


class Stream:
    """A deterministic random stream with a position counter."""

    def __init__(self, seed):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._pos = 0

    def _raw(self, n):
        idx = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        return mix64(np.uint64(self.seed) + idx * np.uint64(_GOLDEN))

    def uniforms(self, n, low=0.0, high=1.0):
        """n doubles uniform on [low, high)."""
        u = (self._raw(n) >> np.uint64(11)).astype(float) * _INV_2_53
        return low + (high - low) * u

    def uniform_matrix(self, rows, cols, low=0.0, high=1.0):
        return self.uniforms(rows * cols, low, high).reshape(rows, cols)

    def normals(self, n):
        """n standard normals via the inverse CDF (offset keeps u in (0,1))."""
        u = ((self._raw(n) >> np.uint64(11)).astype(float) + 0.5) * _INV_2_53
        return normal_icdf(u)

    def integers(self, n, bound):
        """n integers in [0, bound) by rejection-free modular reduction.

        The tiny modulo bias (< bound / 2^64) is irrelevant at our scales
        and keeps the draw count deterministic.
        """
        return (self._raw(n) % np.uint64(bound)).astype(np.int64)

    def permutation(self, n):
        """Deterministic permutation of range(n): argsort of n uniforms."""
        return np.argsort(self.uniforms(n), kind="stable")

    def child(self, index):
        """Derived stream for a trial/cell index, order-independent."""
        salt = ((int(index) + 1) * _SPLIT_CONST) & 0xFFFFFFFFFFFFFFFF
        return Stream(mix64(self.seed ^ salt))

    def child_label(self, label):
        """Derived stream for a string label (stable across runs/platforms)."""
        import hashlib  # here, so a process that draws no labels skips OpenSSL

        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
        return Stream(mix64(self.seed ^ int.from_bytes(digest, "big")))
