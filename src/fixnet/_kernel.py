"""The compiled arithmetic of netblocks.f_mult and of the tent network
(_kernel.c), built on first use.

The library is compiled with the system C compiler, from the bytes the
key was taken of, into the package's __pycache__ directory, under a name
keyed by the CRC-32 of the source, the flags and the machine, so an
edited source or another machine gets a new file.  A process compiles
into a temporary directory beside it and renames the library into place,
so concurrent first uses each find a whole library.  Where that
directory cannot be written (a read-only install), the process compiles
into a temporary directory of its own and loads the library from there.
The flags turn off contraction into fused multiply-adds and every
fast-math rewrite, and name no -march, so each C operation is the IEEE
operation numpy performs; on x86-64 the source clones its loops for
AVX-512F and AVX2, and the loader picks the one the CPU runs.

library() returns the loaded library, or None when it cannot be had, and
status() says which: "compiled", or why not (no compiler, no writable
directory, a failed compile or load).  Without the library netblocks
keeps its numpy paths, which give the same bits, for the rest of the
process.  This module imports subprocess and tempfile only to compile.
"""

import ctypes
import functools
import os
import zlib

SOURCE = os.path.join(os.path.dirname(__file__), "_kernel.c")
FLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
# Where the library is compiled; a test points it at a fresh directory.
CACHE_DIR = os.path.join(os.path.dirname(__file__), "__pycache__")

# The result type and the arguments of each function: pointers, sizes
# and doubles.
_SIGNATURES = {
    "fm_halves": (None, "ppppsd"),
    "fm_gather_halves": (ctypes.c_int, "ppsppppssd"),
    "fm_combine": (None, "pppsdddd"),
    "hat_args": (None, "pppsd"),
    "hat_units": (None, "pppsddddd"),
    "hat_sum": (None, "pps"),
}
_CTYPES = {"p": ctypes.c_void_p, "s": ctypes.c_size_t, "d": ctypes.c_double}


class Unavailable(Exception):
    """Why the library cannot be had."""


def _compile(source, path):
    """Compile the C source (bytes) into the library at path."""
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as tmp:
        built = os.path.join(tmp, os.path.basename(path))
        try:
            proc = subprocess.run(["cc", *FLAGS, "-o", built, "-x", "c", "-"],
                                  input=source, capture_output=True)
        except OSError as err:
            raise Unavailable(f"no C compiler: {err}") from None
        if proc.returncode:
            raise Unavailable(f"compile failed: cc exited with status "
                              f"{proc.returncode}")
        os.replace(built, path)


def bind(path):
    """The library at path, its functions' argument types set."""
    try:
        lib = ctypes.CDLL(path)
        for name, (restype, args) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = [_CTYPES[c] for c in args]
    except (OSError, AttributeError) as err:
        raise Unavailable(f"load failed: {err}") from None
    return lib


def _load():
    try:
        with open(SOURCE, "rb") as f:
            source = f.read()
    except OSError as err:
        raise Unavailable(f"no kernel source: {err}") from None
    key = zlib.crc32(b"\0".join([source, *map(str.encode, FLAGS),
                                 os.uname().machine.encode()]))
    name = f"_kernel-{key:08x}.so"
    path = os.path.join(CACHE_DIR, name)
    if os.path.exists(path):
        return bind(path)
    try:
        os.makedirs(CACHE_DIR, exist_ok=True)
        _compile(source, path)
        return bind(path)
    except OSError:  # CACHE_DIR cannot be written
        pass
    import tempfile

    try:
        # The loaded library outlives its deleted file.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            _compile(source, path)
            return bind(path)
    except OSError as err:
        raise Unavailable(f"cache not writable, nor a temporary "
                          f"directory: {err}") from None


@functools.cache
def _state():
    try:
        return _load(), "compiled"
    except Unavailable as err:
        return None, str(err)


def library():
    """The compiled kernel, or None where it cannot be built or loaded;
    resolved once per process."""
    return _state()[0]


def status():
    """"compiled" when library() is the compiled kernel, else the reason
    it is not: no compiler, no writable directory, a failed compile or
    load."""
    return _state()[1]
