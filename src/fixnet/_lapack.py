"""The LAPACK routines of the ridge solve and the RBF baseline, without
importing scipy.

numpy's linear-algebra extension links an OpenBLAS that exports LAPACK,
and dlsym on the extension's handle also searches that library, so the
routines are bound through ctypes from the library numpy has already
loaded, under the names numpy >= 2 wheels export: scipy_<routine>_64_,
with 64-bit integers.  Where the library lacks any of them, the routines
come from scipy.linalg.lapack, the f2py wrappers that cho_factor,
cho_solve, lu_factor, lu_solve and solve(assume_a="sym") call.

Either binding offers potrf(a, overwrite_a=False), pocon(c, anorm),
potrs(c, b), getrf(a, overwrite_a=False), gecon(lu, anorm),
getrs(lu, piv, b), sytrf(a) and sytrs(ldu, piv, b) for float64 matrices
and right-hand-side vectors, called and returning as those wrappers do
with the upper triangle, no cleaning of the other one, the 1-norm and no
transpose; sytrf takes the workspace size from an lwork = -1 query.
Inputs are copied, never overwritten, except by potrf and getrf with
overwrite_a true, which factor a writeable F-contiguous float64 a in
place, as scipy's overwrite_a=1 does (another a is copied).  LU pivots
are opaque: 1-based here, 0-based from scipy.  Work arrays start on a
64-byte boundary, because dpocon's estimate of a large matrix moves in
its last bits with their alignment.
"""

import ctypes
import functools
from types import SimpleNamespace

import numpy as np
from numpy.linalg import _umath_linalg

_NAME = "scipy_{}_64_"
# Pointer arguments of each routine; a hidden Fortran length follows each
# of its character arguments (one for each routine but dgetrf).
_ARITY = {"dpotrf": 5, "dpocon": 9, "dpotrs": 8, "dgetrf": 6, "dgecon": 9,
          "dgetrs": 9, "dsytrf": 8, "dsytrs": 9}


def bind(lib):
    """The routines lib exports under scipy_<routine>_64_, else scipy's."""
    try:
        fns = {name: getattr(lib, _NAME.format(name)) for name in _ARITY}
    except AttributeError:
        from scipy.linalg import lapack  # only where numpy's library lacks them

        def sytrf(a):
            lwork, _ = lapack.dsytrf_lwork(a.shape[0], lower=0)
            return lapack.dsytrf(a, lower=0, lwork=int(lwork))

        return SimpleNamespace(
            potrf=lambda a, overwrite_a=False: lapack.dpotrf(
                a, lower=0, clean=0, overwrite_a=int(overwrite_a)),
            pocon=functools.partial(lapack.dpocon, uplo="U"),
            potrs=functools.partial(lapack.dpotrs, lower=0),
            getrf=lapack.dgetrf,
            gecon=lambda lu, anorm: lapack.dgecon(lu, anorm, norm="1"),
            getrs=functools.partial(lapack.dgetrs, trans=0),
            sytrf=sytrf,
            sytrs=functools.partial(lapack.dsytrs, lower=0))
    for name, fn in fns.items():
        fn.argtypes = ([ctypes.c_void_p] * _ARITY[name]
                       + [ctypes.c_size_t] * (name != "dgetrf"))
        fn.restype = None
    return _ctypes_routines(fns)


def _aligned_empty(count, dtype=float):
    """An uninitialized 1-D array whose data starts on a 64-byte boundary."""
    size = count * np.dtype(dtype).itemsize
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype)


def _ctypes_routines(fns):
    int_t = ctypes.c_int64
    ref = ctypes.byref
    one = ref(int_t(1))

    def call(name, *args):
        info = int_t()
        fns[name](*args, ref(info), *([1] * (name != "dgetrf")))
        return info.value

    def sizes(a):  # n and the leading dimension, by reference
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        return ref(int_t(a.shape[0])), ref(int_t(max(1, a.shape[0])))

    def rhs(b, a):  # the copy of b that the solve overwrites
        x = np.array(b, dtype=float)
        if x.shape != a.shape[:1]:
            raise ValueError(f"expected a vector of {a.shape[0]}, "
                             f"got shape {x.shape}")
        return x

    def factored(a, overwrite_a):  # the array the factorization overwrites
        return (np.require(a, float, ["F", "W"]) if overwrite_a
                else np.array(a, dtype=float, order="F"))

    def con(name, norm, c, anorm, work_size):
        n, ld = sizes(c)
        rcond = ctypes.c_double()
        work = _aligned_empty(work_size * c.shape[0])
        iwork = _aligned_empty(c.shape[0], int_t)
        info = call(name, norm, n, c.ctypes.data, ld,
                    ref(ctypes.c_double(anorm)), ref(rcond),
                    work.ctypes.data, iwork.ctypes.data)
        return rcond.value, info

    def potrf(a, overwrite_a=False):
        c = factored(a, overwrite_a)
        n, ld = sizes(c)
        return c, call("dpotrf", b"U", n, c.ctypes.data, ld)

    def pocon(c, anorm):
        return con("dpocon", b"U", c, anorm, 3)

    def potrs(c, b):
        x = rhs(b, c)
        n, ld = sizes(c)
        return x, call("dpotrs", b"U", n, one, c.ctypes.data, ld,
                       x.ctypes.data, ld)

    def getrf(a, overwrite_a=False):
        lu = factored(a, overwrite_a)
        n, ld = sizes(lu)
        piv = np.empty(lu.shape[0], dtype=int_t)
        info = call("dgetrf", n, n, lu.ctypes.data, ld, piv.ctypes.data)
        return lu, piv, info

    def gecon(lu, anorm):
        return con("dgecon", b"1", lu, anorm, 4)

    def getrs(lu, piv, b):
        x = rhs(b, lu)
        n, ld = sizes(lu)
        return x, call("dgetrs", b"N", n, one, lu.ctypes.data, ld,
                       piv.ctypes.data, x.ctypes.data, ld)

    def sytrf(a):
        ldu = np.array(a, dtype=float, order="F")
        n, ld = sizes(ldu)
        piv = np.empty(ldu.shape[0], dtype=int_t)
        args = (b"U", n, ldu.ctypes.data, ld, piv.ctypes.data)
        query = ctypes.c_double()
        call("dsytrf", *args, ref(query), ref(int_t(-1)))
        lwork = max(1, int(query.value))
        work = _aligned_empty(lwork)
        info = call("dsytrf", *args, work.ctypes.data, ref(int_t(lwork)))
        return ldu, piv, info

    def sytrs(ldu, piv, b):
        x = rhs(b, ldu)
        n, ld = sizes(ldu)
        return x, call("dsytrs", b"U", n, one, ldu.ctypes.data, ld,
                       piv.ctypes.data, x.ctypes.data, ld)

    return SimpleNamespace(potrf=potrf, pocon=pocon, potrs=potrs,
                           getrf=getrf, gecon=gecon, getrs=getrs,
                           sytrf=sytrf, sytrs=sytrs)


@functools.cache
def routines():
    """The routines bound from numpy's library, resolved once per process."""
    return bind(ctypes.CDLL(_umath_linalg.__file__))
